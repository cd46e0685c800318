//! Dense (fully connected) layers.

use crate::error::TensorError;
use crate::gemm::{self, Epilogue};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Dense layer: `y = W·x + b` with `W` of shape `[out, in]`, `x` of shape
/// `[in]`, optional `b` of shape `[out]`.
///
/// Output-unit partitioning slices `W` (and `b`) along dimension 0; each
/// worker needs the full input vector, mirroring how Gillis partitions fully
/// connected layers (every output neuron depends on the entire input).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for rank mismatches and
/// [`TensorError::ShapeMismatch`] for inconsistent sizes.
pub fn dense(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    let x_dims = input.shape().dims();
    let w_dims = weight.shape().dims();
    if x_dims.len() != 1 || w_dims.len() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "dense expects x rank 1 and W rank 2, got {} and {}",
            x_dims.len(),
            w_dims.len()
        )));
    }
    let (out_n, in_n) = (w_dims[0], w_dims[1]);
    if x_dims[0] != in_n {
        return Err(TensorError::ShapeMismatch {
            expected: Shape::new(vec![in_n]),
            actual: input.shape().clone(),
        });
    }
    if let Some(b) = bias {
        if b.shape().dims() != [out_n] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![out_n]),
                actual: b.shape().clone(),
            });
        }
    }
    // Bias pre-initializes the output, then one multi-lane gemv.
    let mut out = vec![0.0f32; out_n];
    dense_into(
        weight.data(),
        input.data(),
        bias.map(|b| b.data()),
        &mut out,
        &[],
    );
    Tensor::from_vec(Shape::new(vec![out_n]), out)
}

/// Dense layer over raw buffers writing into a caller-owned output — the
/// compiled-partition hot path. `w` is `[out, in]` row-major, `x` is `[in]`,
/// `bias` (if present) is `[out]`. Bit-identical to [`dense`], then
/// rewritten by `epilogue` in the task that computed each output.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent.
pub fn dense_into(
    w: &[f32],
    x: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    epilogue: &[Epilogue],
) {
    let out_n = out.len();
    let in_n = x.len();
    assert_eq!(w.len(), out_n * in_n, "weight must be [out, in]");
    match bias {
        Some(b) => {
            assert_eq!(b.len(), out_n, "bias must be [out]");
            out.copy_from_slice(b);
        }
        None => out.fill(0.0),
    }
    let threads = gemm::gemv_threads(out_n, in_n);
    gemm::gemv_with_threads((out_n, in_n), w, x, out, threads, epilogue);
}

/// Batched dense layer over raw buffers: `batch` input vectors laid out
/// contiguously in `xs` (`batch × in`), outputs written contiguously into
/// `outs` (`batch × out`). All batch items share one traversal of the weight
/// matrix: each row of `W` is streamed once and dotted against every input
/// ([`gemm::gemv_multi`]), instead of `batch` full passes over `W`.
///
/// Per-output rounding is bit-identical to calling [`dense_into`] once per
/// item for any thread count: the accumulator for `(row, item)` is seeded
/// with the same bias value and receives exactly one `row_dots` chain over the same
/// operands in both paths. `batch == 1` delegates to [`dense_into`] directly
/// (no widened scratch is touched). The widened accumulator lives in
/// per-thread scratch, so warmed threads allocate nothing for batches up to
/// the largest size seen. `epilogue` rewrites each item's outputs as they
/// are written.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with `batch`.
pub fn dense_multi_into(
    w: &[f32],
    xs: &[f32],
    bias: Option<&[f32]>,
    outs: &mut [f32],
    batch: usize,
    epilogue: &[Epilogue],
) {
    if batch == 0 {
        return;
    }
    assert_eq!(outs.len() % batch, 0, "outs must be batch × out");
    assert_eq!(xs.len() % batch, 0, "xs must be batch × in");
    let out_n = outs.len() / batch;
    let in_n = xs.len() / batch;
    assert_eq!(w.len(), out_n * in_n, "weight must be [out, in]");
    if batch == 1 {
        return dense_into(w, xs, bias, outs, epilogue);
    }
    // Widened accumulator, row-major `out_n × batch`, seeded with the bias
    // exactly like the sequential path seeds each item's output.
    let mut acc = crate::scratch::take(crate::scratch::Site::BatchGemv);
    acc.clear();
    acc.resize(out_n * batch, 0.0);
    if let Some(b) = bias {
        assert_eq!(b.len(), out_n, "bias must be [out]");
        for (row, &bv) in acc.chunks_exact_mut(batch).zip(b.iter()) {
            row.fill(bv);
        }
    }
    gemm::gemv_multi(out_n, in_n, w, xs, &mut acc, batch);
    for (i, out) in outs.chunks_exact_mut(out_n).enumerate() {
        for (r, o) in out.iter_mut().enumerate() {
            *o = acc[r * batch + i];
        }
        gemm::apply_epilogue(epilogue, out_n, 0, out);
    }
    crate::scratch::put(crate::scratch::Site::BatchGemv, acc);
}

/// Reference row-wise dot product the gemv path is validated against.
#[cfg(test)]
pub(crate) fn dense_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Tensor> {
    let w_dims = weight.shape().dims();
    let (out_n, in_n) = (w_dims[0], w_dims[1]);
    let x = input.data();
    let w = weight.data();
    let mut out = Vec::with_capacity(out_n);
    for o in 0..out_n {
        let row = &w[o * in_n..(o + 1) * in_n];
        let mut acc = bias.map(|b| b.data()[o]).unwrap_or(0.0);
        for (wi, xi) in row.iter().zip(x.iter()) {
            acc += wi * xi;
        }
        out.push(acc);
    }
    Tensor::from_vec(Shape::new(vec![out_n]), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn gemv_path_matches_naive_reference(
            (out_n, in_n) in (1usize..12, 1usize..80),
            seed in 0u32..1000,
        ) {
            let pseudo = |i: usize, s: u32| {
                ((i as u32 ^ s).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
            };
            let x = Tensor::from_fn(Shape::new(vec![in_n]), |i| pseudo(i, seed));
            let w = Tensor::from_fn(Shape::new(vec![out_n, in_n]), |i| pseudo(i, seed ^ 0xabc));
            let b = Tensor::from_fn(Shape::new(vec![out_n]), |i| pseudo(i, seed ^ 0x5));
            let fast = dense(&x, &w, Some(&b)).unwrap();
            let naive = dense_naive(&x, &w, Some(&b)).unwrap();
            // The multi-lane dot reassociates the sum, so allow f32 rounding.
            prop_assert!(fast.max_abs_diff(&naive).unwrap() < 1e-4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn batched_dense_bit_identical_to_sequential(
            (out_n, in_n) in (1usize..20, 1usize..70),
            batch_sel in 0usize..3,
            seed in 0u32..1000,
        ) {
            let batch = [2usize, 3, 8][batch_sel];
            let pseudo = |i: usize, s: u32| {
                ((i as u32 ^ s).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
            };
            let w: Vec<f32> = (0..out_n * in_n).map(|i| pseudo(i, seed)).collect();
            let b: Vec<f32> = (0..out_n).map(|i| pseudo(i, seed ^ 0x5)).collect();
            let xs: Vec<f32> = (0..batch * in_n).map(|i| pseudo(i, seed ^ 0x91)).collect();
            let mut seq = vec![0.0f32; batch * out_n];
            for (x, out) in xs.chunks(in_n).zip(seq.chunks_mut(out_n)) {
                dense_into(&w, x, Some(&b), out, &[]);
            }
            let mut batched = vec![0.0f32; batch * out_n];
            dense_multi_into(&w, &xs, Some(&b), &mut batched, batch, &[]);
            for (s, m) in seq.iter().zip(batched.iter()) {
                prop_assert_eq!(s.to_bits(), m.to_bits());
            }
        }
    }

    #[test]
    fn batch_one_multi_matches_dense_into_exactly() {
        let w: Vec<f32> = (0..6 * 5).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..6).map(|i| i as f32 * 0.25).collect();
        let x: Vec<f32> = (0..5).map(|i| (i as f32).cos()).collect();
        let mut seq = vec![0.0f32; 6];
        dense_into(&w, &x, Some(&b), &mut seq, &[]);
        let mut one = vec![0.0f32; 6];
        dense_multi_into(&w, &x, Some(&b), &mut one, 1, &[]);
        assert_eq!(seq, one);
    }

    #[test]
    fn known_matvec() {
        let x = t(vec![3], vec![1.0, 2.0, 3.0]);
        let w = t(vec![2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let b = t(vec![2], vec![10.0, -10.0]);
        let y = dense(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.data(), &[11.0, -5.0]);
    }

    #[test]
    fn output_unit_partition_equivalence() {
        let x = Tensor::from_fn(Shape::new(vec![8]), |i| (i as f32).sqrt());
        let w = Tensor::from_fn(Shape::new(vec![6, 8]), |i| (i as f32 * 0.3).sin());
        let b = Tensor::from_fn(Shape::new(vec![6]), |i| i as f32);
        let full = dense(&x, &w, Some(&b)).unwrap();
        let parts: Vec<Tensor> = (0..3)
            .map(|p| {
                let wp = w.slice(0, p * 2..(p + 1) * 2).unwrap();
                let bp = b.slice(0, p * 2..(p + 1) * 2).unwrap();
                dense(&x, &wp, Some(&bp)).unwrap()
            })
            .collect();
        let stitched = Tensor::concat(&parts, 0).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_mismatched_sizes() {
        let x = Tensor::zeros(Shape::new(vec![4]));
        let w = Tensor::zeros(Shape::new(vec![2, 5]));
        assert!(dense(&x, &w, None).is_err());
        let w2 = Tensor::zeros(Shape::new(vec![2, 4]));
        let bad_bias = Tensor::zeros(Shape::new(vec![3]));
        assert!(dense(&x, &w2, Some(&bad_bias)).is_err());
        let mat_in = Tensor::zeros(Shape::new(vec![2, 2]));
        assert!(dense(&mat_in, &w2, None).is_err());
    }
}
