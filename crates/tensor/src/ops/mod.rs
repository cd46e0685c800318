//! Layer compute kernels.
//!
//! All kernels operate on single-query (batch-free) tensors: convolutional
//! layers use `CHW` layout, dense layers use rank-1 vectors. Convolution and
//! pooling accept *asymmetric* padding via [`Padding`], which is what lets a
//! fork-join worker run on a halo-extended spatial slice and pad only the
//! sides that coincide with the true tensor border.

mod activation;
mod conv;
mod dense;
mod depthwise;
mod norm;
mod pool;
mod rnn;
pub(crate) mod window;

pub use crate::gemm::{apply_epilogue, Epilogue};
pub use activation::{relu, sigmoid, tanh};
pub use conv::{conv2d, conv2d_into, conv2d_output_hw, Conv2dParams};
pub use dense::{dense, dense_into, dense_multi_into};
pub use depthwise::{depthwise_conv2d, depthwise_conv2d_into};
pub use norm::{batch_norm, batch_norm_fold, BatchNormParams};
pub use pool::{global_avg_pool, global_avg_pool_into, max_pool2d, max_pool2d_into, Pool2dParams};
pub use rnn::{
    lstm_cell, lstm_gates_len, lstm_sequence, lstm_sequence_into, LstmParams, LstmState,
};

use serde::{Deserialize, Serialize};

/// Per-side spatial padding for convolution and pooling.
///
/// Symmetric padding `p` is `Padding::symmetric(p)`. Asymmetric padding lets a
/// spatial partition pad only its outer border: an interior partition that has
/// been halo-extended uses zero padding on its interior edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Padding {
    /// Rows added above the input.
    pub top: usize,
    /// Rows added below the input.
    pub bottom: usize,
    /// Columns added left of the input.
    pub left: usize,
    /// Columns added right of the input.
    pub right: usize,
}

impl Padding {
    /// Equal padding on all four sides.
    pub fn symmetric(p: usize) -> Self {
        Padding {
            top: p,
            bottom: p,
            left: p,
            right: p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{conv_gemm_with_threads, Im2col};
    use crate::simd::{MAX_KW, MAX_SW};
    use proptest::prelude::*;
    use window::{window_into, Fold};

    /// The compiled executor's separate sweep pass as it was before kernels
    /// took epilogues, kept verbatim: the reference every fused epilogue
    /// must reproduce to the bit.
    enum Sweep {
        Bn {
            scale: Vec<f32>,
            shift: Vec<f32>,
            plane: usize,
            relu: bool,
        },
        Relu,
    }

    impl Sweep {
        fn apply(&self, buf: &mut [f32]) {
            match self {
                Sweep::Bn {
                    scale,
                    shift,
                    plane,
                    relu,
                } => {
                    let channels = scale.iter().zip(shift).cycle();
                    for (p, (&scale, &shift)) in buf.chunks_exact_mut(*plane).zip(channels) {
                        if *relu {
                            p.iter_mut()
                                .for_each(|v| *v = (*v * scale + shift).max(0.0));
                        } else {
                            p.iter_mut().for_each(|v| *v = *v * scale + shift);
                        }
                    }
                }
                Sweep::Relu => buf.iter_mut().for_each(|v| *v = v.max(0.0)),
            }
        }
    }

    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
    ];

    /// A value in `[-1, 1]`, or one in `every` of [`SPECIALS`].
    fn value(i: usize, seed: u32, every: u32) -> f32 {
        let h = (i as u32 ^ seed).wrapping_mul(2654435761);
        match h % every {
            0 => SPECIALS[(h / every) as usize % SPECIALS.len()],
            _ => (h >> 8) as f32 / (1u32 << 23) as f32 - 1.0,
        }
    }

    /// The three sweeps a step carries — batch norm with and without its
    /// ReLU, and ReLU alone — over `channels` channels of `plane`, every
    /// third channel's constants special: `(fused, reference)` pairs.
    fn sweeps(channels: usize, plane: usize, seed: u32) -> Vec<(Vec<Epilogue>, Sweep)> {
        let scale: Vec<f32> = (0..channels).map(|c| value(c, seed, 3)).collect();
        let shift: Vec<f32> = (0..channels).map(|c| value(c, seed ^ 0x5a5a, 3)).collect();
        let bn = |relu| {
            let fused = Epilogue::Affine {
                scale: scale.clone(),
                shift: shift.clone(),
                relu,
            };
            let reference = Sweep::Bn {
                scale: scale.clone(),
                shift: shift.clone(),
                plane,
                relu,
            };
            (vec![fused], reference)
        };
        vec![bn(true), bn(false), (vec![Epilogue::Relu], Sweep::Relu)]
    }

    /// The bits of `v`, every NaN as the one quiet NaN: which operand's
    /// payload an operation on two NaNs passes on is left open by Rust (and
    /// LLVM commutes an `fadd` freely), so only that a NaN came out is
    /// defined.
    fn bits(v: &[f32]) -> Vec<u32> {
        let bits = |x: &f32| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        v.iter().map(bits).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A conv's epilogue is the old sweep over its output, to the bit:
        /// every filter-row count from 1 to 13 (each row count of the
        /// 12-row AVX-512 tile, and an edge tile past it), image and matrix
        /// operands, output planes that end inside a tile or run past one
        /// 512-column block, on 1, 2 and 8 threads, one item and three.
        #[test]
        fn a_conv_epilogue_is_the_sweep(
            (in_c, (in_h, in_w)) in (1usize..4, (1usize..20, 1usize..40)),
            (kernel, stride, pad) in (1usize..4, 1usize..3, 0usize..3),
            seed in 0u32..1000,
        ) {
            let geom = Im2col {
                channels: in_c,
                in_hw: (in_h, in_w),
                kernel: (kernel, kernel),
                stride: (stride, stride),
                pad_tl: (pad, pad),
                out_hw: ((in_h + 2 * pad).saturating_sub(kernel) / stride + 1,
                         (in_w + 2 * pad).saturating_sub(kernel) / stride + 1),
            };
            prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
            for batch in [1usize, 3] {
                let x: Vec<f32> = (0..batch * in_c * in_h * in_w).map(|i| value(i, seed, 61)).collect();
                for m in 1usize..=13 {
                    let w: Vec<f32> = (0..m * geom.k()).map(|i| value(i, seed ^ 7, 97)).collect();
                    let bias: Vec<f32> = (0..m).map(|i| value(i, seed ^ 11, 4)).collect();
                    let mut plain = vec![0.0; batch * m * geom.n()];
                    conv::fill_bias(&mut plain, geom.n(), Some(&bias));
                    let start = plain.clone();
                    conv_gemm_with_threads(m, &w, &geom, &x, batch, &mut plain, 1, &[]);
                    for (ops, sweep) in sweeps(m, geom.n(), seed) {
                        let mut want = plain.clone();
                        sweep.apply(&mut want);
                        for threads in [1usize, 2, 8] {
                            let mut got = start.clone();
                            conv_gemm_with_threads(m, &w, &geom, &x, batch, &mut got, threads, &ops);
                            prop_assert_eq!(
                                bits(&got), bits(&want),
                                "m {} batch {} threads {} image {}", m, batch, threads, geom.is_image()
                            );
                        }
                    }
                }
            }
        }

        /// The window driver's epilogue is the old sweep over its output,
        /// for depthwise and max folds: windows up to the full `MAX_KW`
        /// columns, row strides 1 to 3 and column strides 1 and 2, padding
        /// up to wider than the window, rows from a partial vector up to
        /// several, on 1, 2 and 8 threads, one item and three.
        #[test]
        fn a_window_epilogue_is_the_sweep(
            (channels, (in_h, in_w)) in (1usize..5, (1usize..10, 1usize..30)),
            (kernel, stride) in ((1usize..4, 1usize..=MAX_KW), (1usize..4, 1usize..=MAX_SW)),
            (top, left, bottom, right) in (0usize..5, 0usize..5, 0usize..5, 0usize..5),
            seed in 0u32..1000,
        ) {
            let (h, w) = (in_h + top + bottom, in_w + left + right);
            prop_assume!(h >= kernel.0 && w >= kernel.1);
            let g = Im2col {
                channels,
                in_hw: (in_h, in_w),
                kernel,
                stride,
                pad_tl: (top, left),
                out_hw: ((h - kernel.0) / stride.0 + 1, (w - kernel.1) / stride.1 + 1),
            };
            let weight: Vec<f32> = (0..g.k()).map(|i| value(i, seed ^ 3, 29)).collect();
            let bias: Vec<f32> = (0..channels).map(|i| value(i, seed ^ 5, 4)).collect();
            let folds = [
                Fold::Depthwise { weight: &weight, bias: Some(&bias) },
                Fold::Max,
            ];
            for batch in [1usize, 3] {
                let x: Vec<f32> = (0..batch * channels * in_h * in_w).map(|i| value(i, seed, 23)).collect();
                for fold in folds {
                    let mut plain = vec![f32::NAN; batch * channels * g.n()];
                    window_into(&x, batch, &g, (fold, &[]), &mut plain, Some(1));
                    for (ops, sweep) in sweeps(channels, g.n(), seed) {
                        let mut want = plain.clone();
                        sweep.apply(&mut want);
                        for threads in [1usize, 2, 8] {
                            let mut got = vec![f32::NAN; want.len()];
                            window_into(&x, batch, &g, (fold, &ops), &mut got, Some(threads));
                            prop_assert_eq!(
                                bits(&got), bits(&want),
                                "{:?} batch {} threads {}", fold, batch, threads
                            );
                        }
                    }
                }
            }
        }
    }

    /// A conv with no reduction step still takes its epilogue, per item.
    #[test]
    fn an_empty_reduction_meets_the_epilogue_on_the_bias() {
        let geom = Im2col {
            channels: 0,
            in_hw: (2, 3),
            kernel: (1, 1),
            stride: (1, 1),
            pad_tl: (0, 0),
            out_hw: (2, 3),
        };
        let ops = [Epilogue::Affine {
            scale: vec![2.0, -1.0],
            shift: vec![0.5, 0.25],
            relu: true,
        }];
        let mut out = vec![0.0; 2 * 2 * 6];
        conv::fill_bias(&mut out, 6, Some(&[1.0, 3.0]));
        conv_gemm_with_threads(2, &[], &geom, &[], 2, &mut out, 1, &ops);
        let item = [[2.5f32; 6], [0.0; 6]].concat();
        assert_eq!(out, [item.clone(), item].concat());
    }

    #[test]
    fn symmetric_padding_sets_all_sides() {
        let p = Padding::symmetric(2);
        assert_eq!((p.top, p.bottom, p.left, p.right), (2, 2, 2, 2));
    }
}
