//! LSTM cell and sequence execution.
//!
//! The paper's RNN models are stacks of LSTM layers with a 2K hidden size.
//! LSTM layers cannot be spatially parallelized (each step depends on the
//! previous step's hidden state), so Gillis only *places* whole RNN layers
//! across functions — this module provides the real kernel used to validate
//! that layer-wise placement preserves the output.

use serde::{Deserialize, Serialize};

use super::activation::{sigmoid, tanh};
use crate::error::TensorError;
use crate::scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// LSTM weights. Gate order in the stacked matrices is `[i, f, g, o]`
/// (input, forget, cell candidate, output).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmParams {
    /// Input-to-hidden weights, shape `[4 * hidden, input]`.
    pub w_ih: Tensor,
    /// Hidden-to-hidden weights, shape `[4 * hidden, hidden]`.
    pub w_hh: Tensor,
    /// Bias, shape `[4 * hidden]`.
    pub bias: Tensor,
}

impl LstmParams {
    /// The hidden size implied by the weight shapes.
    pub fn hidden_size(&self) -> usize {
        self.w_hh.shape().dims()[1]
    }

    /// The input size implied by the weight shapes.
    pub fn input_size(&self) -> usize {
        self.w_ih.shape().dims()[1]
    }

    fn validate(&self) -> Result<()> {
        let h = self.hidden_size();
        let i = self.input_size();
        if self.w_ih.shape().dims() != [4 * h, i] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![4 * h, i]),
                actual: self.w_ih.shape().clone(),
            });
        }
        if self.w_hh.shape().dims() != [4 * h, h] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![4 * h, h]),
                actual: self.w_hh.shape().clone(),
            });
        }
        if self.bias.shape().dims() != [4 * h] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![4 * h]),
                actual: self.bias.shape().clone(),
            });
        }
        Ok(())
    }
}

/// Hidden and cell state of an LSTM layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmState {
    /// Hidden state `h`, shape `[hidden]`.
    pub h: Tensor,
    /// Cell state `c`, shape `[hidden]`.
    pub c: Tensor,
}

impl LstmState {
    /// Zero-initialized state for a layer of the given hidden size.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: Tensor::zeros(Shape::new(vec![hidden])),
            c: Tensor::zeros(Shape::new(vec![hidden])),
        }
    }
}

#[cfg(test)]
fn matvec(w: &Tensor, x: &Tensor) -> Vec<f32> {
    let (rows, cols) = (w.shape().dims()[0], w.shape().dims()[1]);
    let mut out = vec![0.0f32; rows];
    crate::gemm::gemv(rows, cols, w.data(), x.data(), &mut out);
    out
}

/// Reference serial dot product the gemv-backed [`matvec`] is validated
/// against.
#[cfg(test)]
fn matvec_naive(w: &Tensor, x: &Tensor) -> Vec<f32> {
    let (rows, cols) = (w.shape().dims()[0], w.shape().dims()[1]);
    let wd = w.data();
    let xd = x.data();
    (0..rows)
        .map(|r| {
            wd[r * cols..(r + 1) * cols]
                .iter()
                .zip(xd.iter())
                .map(|(a, b)| a * b)
                .sum()
        })
        .collect()
}

/// One LSTM step: consumes input `x` of shape `[input]` and the previous
/// state, returns the next state (whose `h` is the step output).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if weights, input, or state sizes
/// are inconsistent.
pub fn lstm_cell(x: &Tensor, state: &LstmState, params: &LstmParams) -> Result<LstmState> {
    params.validate()?;
    let hidden = params.hidden_size();
    if x.shape().dims() != [params.input_size()] {
        return Err(TensorError::ShapeMismatch {
            expected: Shape::new(vec![params.input_size()]),
            actual: x.shape().clone(),
        });
    }
    if state.h.shape().dims() != [hidden] || state.c.shape().dims() != [hidden] {
        return Err(TensorError::ShapeMismatch {
            expected: Shape::new(vec![hidden]),
            actual: state.h.shape().clone(),
        });
    }
    // Gate pre-activations live in per-thread scratch: after the first step
    // of a sequence, later steps run these temporaries allocation-free.
    let mut gi = scratch::take(scratch::Site::LstmGateInput);
    gi.clear();
    gi.resize(4 * hidden, 0.0);
    crate::gemm::gemv(
        4 * hidden,
        params.input_size(),
        params.w_ih.data(),
        x.data(),
        &mut gi,
    );
    let mut gh = scratch::take(scratch::Site::LstmGateHidden);
    gh.clear();
    gh.resize(4 * hidden, 0.0);
    crate::gemm::gemv(
        4 * hidden,
        hidden,
        params.w_hh.data(),
        state.h.data(),
        &mut gh,
    );
    let b = params.bias.data();
    let mut pre = scratch::take(scratch::Site::LstmPre);
    pre.clear();
    pre.extend(
        gi.iter()
            .zip(gh.iter())
            .zip(b.iter())
            .map(|((a, c), d)| a + c + d),
    );

    let next = lstm_apply_gates(&pre, hidden, state);
    scratch::put(scratch::Site::LstmGateInput, gi);
    scratch::put(scratch::Site::LstmGateHidden, gh);
    scratch::put(scratch::Site::LstmPre, pre);
    next
}

/// Applies the four LSTM gates to combined pre-activations `pre`
/// (`[4 * hidden]`, gate order `[i, f, g, o]`) and the previous state.
fn lstm_apply_gates(pre: &[f32], hidden: usize, state: &LstmState) -> Result<LstmState> {
    let gate = |idx: usize| -> Tensor {
        Tensor::from_vec(
            Shape::new(vec![hidden]),
            pre[idx * hidden..(idx + 1) * hidden].to_vec(),
        )
        .expect("gate slice has correct length")
    };
    let i = sigmoid(&gate(0));
    let f = sigmoid(&gate(1));
    let g = tanh(&gate(2));
    let o = sigmoid(&gate(3));
    let mut c_next = Vec::with_capacity(hidden);
    for k in 0..hidden {
        c_next.push(f.data()[k] * state.c.data()[k] + i.data()[k] * g.data()[k]);
    }
    let c_next = Tensor::from_vec(Shape::new(vec![hidden]), c_next)?;
    let h_next: Vec<f32> = c_next
        .data()
        .iter()
        .zip(o.data().iter())
        .map(|(c, o)| c.tanh() * o)
        .collect();
    Ok(LstmState {
        h: Tensor::from_vec(Shape::new(vec![hidden]), h_next)?,
        c: c_next,
    })
}

/// Runs an LSTM layer over a sequence of inputs, returning the per-step
/// hidden outputs and the final state.
///
/// # Errors
///
/// Propagates any shape error from [`lstm_cell`].
pub fn lstm_sequence(inputs: &[Tensor], params: &LstmParams) -> Result<(Vec<Tensor>, LstmState)> {
    let mut state = LstmState::zeros(params.hidden_size());
    let mut outputs = Vec::with_capacity(inputs.len());
    for x in inputs {
        state = lstm_cell(x, &state, params)?;
        outputs.push(state.h.clone());
    }
    Ok((outputs, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn gate_matvec_matches_naive_reference(
            (rows, cols) in (1usize..16, 1usize..64),
            seed in 0u32..1000,
        ) {
            let pseudo = |i: usize, s: u32| {
                ((i as u32 ^ s).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
            };
            let w = Tensor::from_fn(Shape::new(vec![rows, cols]), |i| pseudo(i, seed));
            let x = Tensor::from_fn(Shape::new(vec![cols]), |i| pseudo(i, seed ^ 0x9));
            let fast = matvec(&w, &x);
            let naive = matvec_naive(&w, &x);
            for (a, b) in fast.iter().zip(naive.iter()) {
                prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
            }
        }
    }

    fn small_params(input: usize, hidden: usize, scale: f32) -> LstmParams {
        LstmParams {
            w_ih: Tensor::from_fn(Shape::new(vec![4 * hidden, input]), |i| {
                ((i % 5) as f32 - 2.0) * scale
            }),
            w_hh: Tensor::from_fn(Shape::new(vec![4 * hidden, hidden]), |i| {
                ((i % 3) as f32 - 1.0) * scale
            }),
            bias: Tensor::from_fn(Shape::new(vec![4 * hidden]), |i| (i % 2) as f32 * scale),
        }
    }

    #[test]
    fn zero_weights_keep_state_near_zero() {
        let params = small_params(3, 2, 0.0);
        let x = Tensor::full(Shape::new(vec![3]), 1.0);
        let next = lstm_cell(&x, &LstmState::zeros(2), &params).unwrap();
        // With all-zero pre-activations: i = f = o = 0.5, g = 0,
        // c' = 0.5*0 + 0.5*0 = 0, h' = tanh(0)*0.5 = 0.
        assert!(next.h.data().iter().all(|&v| v.abs() < 1e-6));
        assert!(next.c.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn forget_gate_saturated_carries_cell_state() {
        let hidden = 1;
        // Large positive forget bias, zero elsewhere: c' ~= c.
        let mut bias = vec![0.0; 4];
        bias[1] = 100.0; // forget gate
        bias[0] = -100.0; // input gate closed
        let params = LstmParams {
            w_ih: Tensor::zeros(Shape::new(vec![4, 1])),
            w_hh: Tensor::zeros(Shape::new(vec![4, 1])),
            bias: Tensor::from_vec(Shape::new(vec![4]), bias).unwrap(),
        };
        let state = LstmState {
            h: Tensor::zeros(Shape::new(vec![hidden])),
            c: Tensor::full(Shape::new(vec![hidden]), 0.8),
        };
        let x = Tensor::zeros(Shape::new(vec![1]));
        let next = lstm_cell(&x, &state, &params).unwrap();
        assert!((next.c.data()[0] - 0.8).abs() < 1e-4);
    }

    #[test]
    fn sequence_output_len_matches_input_len() {
        let params = small_params(4, 3, 0.1);
        let inputs: Vec<Tensor> = (0..5)
            .map(|t| Tensor::from_fn(Shape::new(vec![4]), |i| (t * 4 + i) as f32 * 0.1))
            .collect();
        let (outs, last) = lstm_sequence(&inputs, &params).unwrap();
        assert_eq!(outs.len(), 5);
        assert_eq!(outs.last().unwrap(), &last.h);
        // Hidden values stay bounded by tanh.
        assert!(last.h.data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn stacked_layers_compose_like_single_pipeline() {
        // Running layer A then layer B step-by-step equals feeding A's
        // full output sequence into B — the property that justifies placing
        // whole layers on different functions.
        let pa = small_params(3, 3, 0.2);
        let pb = small_params(3, 2, 0.3);
        let inputs: Vec<Tensor> = (0..4)
            .map(|t| Tensor::from_fn(Shape::new(vec![3]), |i| ((t + i) as f32).sin()))
            .collect();
        let (outs_a, _) = lstm_sequence(&inputs, &pa).unwrap();
        let (outs_b, _) = lstm_sequence(&outs_a, &pb).unwrap();

        // Interleaved execution.
        let mut sa = LstmState::zeros(3);
        let mut sb = LstmState::zeros(2);
        let mut interleaved = Vec::new();
        for x in &inputs {
            sa = lstm_cell(x, &sa, &pa).unwrap();
            sb = lstm_cell(&sa.h, &sb, &pb).unwrap();
            interleaved.push(sb.h.clone());
        }
        for (a, b) in outs_b.iter().zip(interleaved.iter()) {
            assert!(a.max_abs_diff(b).unwrap() < 1e-6);
        }
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let params = small_params(3, 2, 0.1);
        let bad_x = Tensor::zeros(Shape::new(vec![5]));
        assert!(lstm_cell(&bad_x, &LstmState::zeros(2), &params).is_err());
        let x = Tensor::zeros(Shape::new(vec![3]));
        assert!(lstm_cell(&x, &LstmState::zeros(4), &params).is_err());
    }
}
