//! The LSTM layer: one sequence kernel over flat buffers.
//!
//! The paper's RNN models are stacks of LSTM layers with a 2K hidden size.
//! LSTM layers cannot be spatially parallelized (each step depends on the
//! previous step's hidden state), so Gillis only *places* whole RNN layers
//! across functions — this module provides the real kernel used to validate
//! that layer-wise placement preserves the output.
//!
//! [`lstm_sequence_into`] is the only LSTM there is: the interpreter
//! ([`lstm_sequence`]), the compiled path and [`lstm_cell`] (its one-step
//! call) all run it. Of a step's two matrix–vector products only `w_hh · h`
//! waits for the previous step, so `w_ih` leaves the recurrence: one
//! [`gemm::gemv_multi`] dots each of its rows against the input of every
//! timestep — of every sequence, when the call carries a batch — while the
//! row is in cache, and the loop streams `w_hh` alone, once per step for the
//! whole batch. A `T`-step layer reads `w_ih + T·w_hh`, not `T·(w_ih + w_hh)`.
//! The hoisted pass does `n·T` multiply-adds per weight, so on an AVX-512F
//! CPU it runs `gemv_multi`'s four-row tile and streams near the memory
//! roof; the recurrent pass at `n = 1` is one dot per row and already does.
//!
//! # Bit-identity
//!
//! A step-by-step cell computes `gi = 0 + w_ih·x`, `gh = 0 + w_hh·h` and the
//! pre-activation `(gi + gh) + b`. Hoisting changes *when* `gi` is computed,
//! not how: [`gemm::gemv_multi`] gives every `(row, right-hand side)` pair the
//! accumulation of a lone `gemv` whatever block or batch it rode in, at any
//! thread count, and the three-term sum keeps its order. The gates then use
//! the scalar expressions of [`sigmoid`](super::sigmoid) and `f32::tanh` on
//! one element at a time, so every output bit is the step-by-step cell's.

use serde::{Deserialize, Serialize};

use super::activation::sigmoid_f32;
use crate::error::TensorError;
use crate::gemm;
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

fn expect_dims(t: &Tensor, dims: &[usize]) -> Result<()> {
    if t.shape().dims() == dims {
        return Ok(());
    }
    Err(TensorError::ShapeMismatch {
        expected: Shape::new(dims.to_vec()),
        actual: t.shape().clone(),
    })
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

    /// Checks that the three tensors agree on one hidden size — what
    /// [`lstm_sequence_into`] takes for granted.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] naming the first tensor that
    /// does not fit.
    pub fn validate(&self) -> Result<()> {
        let (h, i) = (self.hidden_size(), self.input_size());
        expect_dims(&self.w_ih, &[4 * h, i])?;
        expect_dims(&self.w_hh, &[4 * h, h])?;
        expect_dims(&self.bias, &[4 * h])
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

/// Floats of gate scratch [`lstm_sequence_into`] needs for `n` sequences of
/// `steps` timesteps: the hoisted `w_ih` pre-activations of every timestep
/// plus one step's `w_hh` pre-activations.
pub fn lstm_gates_len(hidden: usize, n: usize, steps: usize) -> usize {
    4 * hidden * n * (steps + 1)
}

/// One LSTM layer over `n` item-major sequences: `xs` is `[n·T, input]`,
/// `out` becomes `[n·T, hidden]` (the hidden state after every step), and
/// `state` — the `[n, hidden]` hidden and cell states — is read as the state
/// before the first step (zeros for a fresh sequence) and left as the state
/// after the last. `gates` is scratch of at least [`lstm_gates_len`] floats;
/// nothing is allocated. `params` must be [valid](LstmParams::validate).
///
/// Each sequence's output is bit-identical to running it alone one step at a
/// time, at any thread count (see the module docs).
///
/// # Panics
///
/// Panics if a buffer length disagrees with `params` and `n`.
pub fn lstm_sequence_into(
    params: &LstmParams,
    n: usize,
    xs: &[f32],
    state: (&mut [f32], &mut [f32]),
    gates: &mut [f32],
    out: &mut [f32],
) {
    lstm_steps(params, n, xs, state, gates, out, None);
}

/// [`lstm_sequence_into`] with an explicit worker count for its
/// matrix–vector products (`None`: the ambient one).
///
/// When the incoming `h` is all `+0.0` bits — a fresh sequence — step 0 does
/// not stream `w_hh`: `0 + row·h` over a `+0.0` vector is `+0.0` for every
/// finite row, which is what `gh` is filled with, so `(gi + 0.0) + b` keeps
/// every bit. (A non-finite `w_hh` entry would have made that product NaN.)
fn lstm_steps(
    params: &LstmParams,
    n: usize,
    xs: &[f32],
    (h, c): (&mut [f32], &mut [f32]),
    gates: &mut [f32],
    out: &mut [f32],
    threads: Option<usize>,
) {
    let (input, hidden) = (params.input_size(), params.hidden_size());
    let rows = 4 * hidden;
    assert!(n > 0 && hidden > 0, "empty batch or layer");
    let nt = out.len() / hidden;
    let steps = nt / n;
    assert_eq!(xs.len(), n * steps * input, "xs must be [n*T, input]");
    assert_eq!(out.len(), n * steps * hidden, "out must be [n*T, hidden]");
    assert_eq!((h.len(), c.len()), (n * hidden, n * hidden), "state");
    let (gi, gh) = gates[..lstm_gates_len(hidden, n, steps)].split_at_mut(rows * nt);
    let matvec = |cols: usize, w: &Tensor, xs: &[f32], outs: &mut [f32], nrhs: usize| {
        let threads = threads.unwrap_or_else(|| gemm::gemv_threads(rows, cols));
        gemm::gemv_multi_with_threads(rows, cols, w.data(), xs, outs, nrhs, threads);
    };
    // The input projection of every timestep, row-major `[4·hidden, n·T]`.
    gi.fill(0.0);
    matvec(input, &params.w_ih, xs, gi, nt);
    let b = params.bias.data();
    let fresh = h.iter().all(|v| v.to_bits() == 0);
    for t in 0..steps {
        gh.fill(0.0);
        if t > 0 || !fresh {
            matvec(hidden, &params.w_hh, h, gh, n);
        }
        for (i, (h, c)) in h
            .chunks_exact_mut(hidden)
            .zip(c.chunks_exact_mut(hidden))
            .enumerate()
        {
            let q = i * steps + t;
            for k in 0..hidden {
                let pre = |gate: usize| {
                    let r = gate * hidden + k;
                    (gi[r * nt + q] + gh[r * n + i]) + b[r]
                };
                let (ig, fg, og) = (
                    sigmoid_f32(pre(0)),
                    sigmoid_f32(pre(1)),
                    sigmoid_f32(pre(3)),
                );
                c[k] = fg * c[k] + ig * pre(2).tanh();
                h[k] = c[k].tanh() * og;
            }
            out[q * hidden..(q + 1) * hidden].copy_from_slice(h);
        }
    }
}

/// One LSTM step: consumes input `x` of shape `[input]` and the previous
/// state, returns the next state (whose `h` is the step output) — a
/// one-step [`lstm_sequence_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if weights, input, or state sizes
/// are inconsistent.
pub fn lstm_cell(x: &Tensor, state: &LstmState, params: &LstmParams) -> Result<LstmState> {
    params.validate()?;
    let hidden = params.hidden_size();
    expect_dims(x, &[params.input_size()])?;
    expect_dims(&state.h, &[hidden])?;
    expect_dims(&state.c, &[hidden])?;
    let mut next = state.clone();
    let mut gates = vec![0.0f32; lstm_gates_len(hidden, 1, 1)];
    let mut out = vec![0.0f32; hidden];
    let state = (next.h.data_mut(), next.c.data_mut());
    lstm_sequence_into(params, 1, x.data(), state, &mut gates, &mut out);
    Ok(next)
}

/// Runs an LSTM layer over a `[T, input]` sequence from a zero state,
/// returning the `[T, hidden]` hidden outputs and the final state.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the weights are inconsistent or
/// the input is not `[T, input]`.
pub fn lstm_sequence(input: &Tensor, params: &LstmParams) -> Result<(Tensor, LstmState)> {
    params.validate()?;
    let hidden = params.hidden_size();
    let steps = input.shape().dims().first().copied().unwrap_or(0);
    expect_dims(input, &[steps, params.input_size()])?;
    let mut last = LstmState::zeros(hidden);
    let mut gates = vec![0.0f32; lstm_gates_len(hidden, 1, steps)];
    let mut out = Tensor::zeros(Shape::new(vec![steps, hidden]));
    let state = (last.h.data_mut(), last.c.data_mut());
    lstm_sequence_into(params, 1, input.data(), state, &mut gates, out.data_mut());
    Ok((out, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{sigmoid, tanh};
    use proptest::prelude::*;

    fn matvec(w: &Tensor, x: &Tensor) -> Vec<f32> {
        let (rows, cols) = (w.shape().dims()[0], w.shape().dims()[1]);
        let mut out = vec![0.0f32; rows];
        gemm::gemv_with_threads((rows, cols), w.data(), x.data(), &mut out, 1, &[]);
        out
    }

    /// Reference serial dot product the gemv-backed [`matvec`] is validated
    /// against.
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

    /// The step-by-step cell the sequence kernel replaced, kept as it was:
    /// one `gemv` of each matrix per step, the three-term sum, and the gates
    /// through the element-wise tensor ops.
    fn reference_cell(x: &Tensor, state: &LstmState, params: &LstmParams) -> LstmState {
        let hidden = params.hidden_size();
        let gi = matvec(&params.w_ih, x);
        let gh = matvec(&params.w_hh, &state.h);
        let pre: Vec<f32> = gi
            .iter()
            .zip(gh.iter())
            .zip(params.bias.data())
            .map(|((a, c), d)| a + c + d)
            .collect();
        let vector = |data: Vec<f32>| Tensor::from_vec(Shape::new(vec![hidden]), data).unwrap();
        let gate = |idx: usize| vector(pre[idx * hidden..(idx + 1) * hidden].to_vec());
        let i = sigmoid(&gate(0));
        let f = sigmoid(&gate(1));
        let g = tanh(&gate(2));
        let o = sigmoid(&gate(3));
        let c_next: Vec<f32> = (0..hidden)
            .map(|k| f.data()[k] * state.c.data()[k] + i.data()[k] * g.data()[k])
            .collect();
        let h_next = c_next
            .iter()
            .zip(o.data())
            .map(|(c, o)| c.tanh() * o)
            .collect();
        LstmState {
            h: vector(h_next),
            c: vector(c_next),
        }
    }

    fn pseudo(i: usize, s: u32) -> f32 {
        ((i as u32 ^ s).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
    }

    fn pseudo_params(input: usize, hidden: usize, seed: u32) -> LstmParams {
        let t =
            |dims: Vec<usize>, s: u32| Tensor::from_fn(Shape::new(dims), |i| pseudo(i, s) * 0.4);
        LstmParams {
            w_ih: t(vec![4 * hidden, input], seed),
            w_hh: t(vec![4 * hidden, hidden], seed ^ 0x51),
            bias: t(vec![4 * hidden], seed ^ 0xa7),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn gate_matvec_matches_naive_reference(
            (rows, cols) in (1usize..16, 1usize..64),
            seed in 0u32..1000,
        ) {
            let w = Tensor::from_fn(Shape::new(vec![rows, cols]), |i| pseudo(i, seed));
            let x = Tensor::from_fn(Shape::new(vec![cols]), |i| pseudo(i, seed ^ 0x9));
            let fast = matvec(&w, &x);
            let naive = matvec_naive(&w, &x);
            for (a, b) in fast.iter().zip(naive.iter()) {
                prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
            }
        }

        /// The hoisted kernel against the step-by-step cell, bit for bit: a
        /// batch of sequences in one call, sizes on both sides of the
        /// eight-lane body, every `T` up to 11 (so every block width of the
        /// input projection), at every thread count the repo tests.
        #[test]
        fn hoisted_sequence_is_bit_identical_to_the_step_by_step_cell(
            (input, hidden) in (1usize..21, 1usize..14),
            (steps, n) in (1usize..12, 1usize..4),
            seed in 0u32..1000,
        ) {
            let params = pseudo_params(input, hidden, seed);
            let xs: Vec<f32> = (0..n * steps * input).map(|i| pseudo(i, seed ^ 0x3c)).collect();
            let mut want = Vec::with_capacity(n * steps * hidden);
            let mut last = Vec::new();
            for item in xs.chunks_exact(steps * input) {
                let mut state = LstmState::zeros(hidden);
                for x in item.chunks_exact(input) {
                    let x = Tensor::from_vec(Shape::new(vec![input]), x.to_vec()).unwrap();
                    state = reference_cell(&x, &state, &params);
                    want.extend_from_slice(state.h.data());
                }
                last.push(state);
            }
            for threads in [1usize, 2, 8] {
                let (mut h, mut c) = (vec![0.0f32; n * hidden], vec![0.0f32; n * hidden]);
                let mut gates = vec![f32::NAN; lstm_gates_len(hidden, n, steps)];
                let mut out = vec![f32::NAN; n * steps * hidden];
                let state = (&mut h[..], &mut c[..]);
                lstm_steps(&params, n, &xs, state, &mut gates, &mut out, Some(threads));
                prop_assert_eq!(bits(&out), bits(&want), "threads={}", threads);
                for (i, state) in last.iter().enumerate() {
                    prop_assert_eq!(bits(&h[i * hidden..][..hidden]), bits(state.h.data()));
                    prop_assert_eq!(bits(&c[i * hidden..][..hidden]), bits(state.c.data()));
                }
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
        let input = Tensor::from_fn(Shape::new(vec![5, 4]), |i| i as f32 * 0.1);
        let (outs, last) = lstm_sequence(&input, &params).unwrap();
        assert_eq!(outs.shape().dims(), &[5, 3]);
        assert_eq!(&outs.data()[4 * 3..], last.h.data());
        // Hidden values stay bounded by tanh.
        assert!(last.h.data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn stacked_layers_compose_like_single_pipeline() {
        // Running layer A then layer B step-by-step equals feeding A's
        // full output sequence into B — the property that justifies placing
        // whole layers on different functions. The interleaved side runs a
        // step at a time from a carried state, so it also holds the one-step
        // call to the whole-sequence one, bit for bit.
        let pa = small_params(3, 3, 0.2);
        let pb = small_params(3, 2, 0.3);
        let input = Tensor::from_fn(Shape::new(vec![4, 3]), |i| ((i / 3 + i % 3) as f32).sin());
        let (outs_a, _) = lstm_sequence(&input, &pa).unwrap();
        let (outs_b, _) = lstm_sequence(&outs_a, &pb).unwrap();

        // Interleaved execution.
        let mut sa = LstmState::zeros(3);
        let mut sb = LstmState::zeros(2);
        let mut interleaved = Vec::new();
        for x in input.data().chunks_exact(3) {
            let x = Tensor::from_vec(Shape::new(vec![3]), x.to_vec()).unwrap();
            let before = sa;
            sa = lstm_cell(&x, &before, &pa).unwrap();
            assert_eq!(sa, reference_cell(&x, &before, &pa));
            sb = lstm_cell(&sa.h, &sb, &pb).unwrap();
            interleaved.extend_from_slice(sb.h.data());
        }
        assert_eq!(bits(outs_b.data()), bits(&interleaved));
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let params = small_params(3, 2, 0.1);
        let bad_x = Tensor::zeros(Shape::new(vec![5]));
        assert!(lstm_cell(&bad_x, &LstmState::zeros(2), &params).is_err());
        let x = Tensor::zeros(Shape::new(vec![3]));
        assert!(lstm_cell(&x, &LstmState::zeros(4), &params).is_err());
        assert!(lstm_sequence(&Tensor::zeros(Shape::new(vec![2, 5])), &params).is_err());
        assert!(lstm_sequence(&x, &params).is_err());
        let mut short = params.clone();
        short.bias = Tensor::zeros(Shape::new(vec![7]));
        assert!(lstm_sequence(&Tensor::zeros(Shape::new(vec![2, 3])), &short).is_err());
    }
}
