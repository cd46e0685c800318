//! Property-based tests of receptive-field math and the merging pass.

use proptest::prelude::*;

use gillis_model::{Graph, LayerOp, ReceptiveField};
use gillis_tensor::Shape;

/// A random chain of plausible window geometries.
fn window_strategy() -> impl Strategy<Value = ReceptiveField> {
    (1usize..=7, 1usize..=3, 0usize..=3).prop_map(|(kernel, stride, padding)| ReceptiveField {
        kernel,
        stride,
        padding,
    })
}

proptest! {
    #[test]
    fn rf_composition_matches_sequential_output_counts(
        chain in prop::collection::vec(window_strategy(), 1..6),
        h in 16usize..256,
    ) {
        // Composing receptive fields must predict exactly the same output
        // extent as applying each window in sequence.
        let mut composed = ReceptiveField::identity();
        let mut sequential = h;
        let mut feasible = true;
        for w in &chain {
            if sequential + 2 * w.padding < w.kernel {
                feasible = false;
                break;
            }
            sequential = w.output_rows(sequential);
            composed = composed.then(w);
        }
        prop_assume!(feasible && sequential > 0);
        prop_assert_eq!(composed.output_rows(h), sequential);
    }

    #[test]
    fn rf_input_rows_cover_each_output_window(
        w in window_strategy(),
        h in 8usize..128,
        frac_lo in 0.0f64..1.0,
        frac_len in 0.0f64..1.0,
    ) {
        let out_h = w.output_rows(h);
        prop_assume!(out_h > 0);
        let lo = ((out_h as f64 - 1.0) * frac_lo) as usize;
        let hi = (lo + 1 + ((out_h - lo - 1) as f64 * frac_len) as usize).min(out_h);
        let (rows, pad_top, pad_bottom) = w.input_rows(lo..hi, h);
        // The clamped slice plus synthesized padding must cover the window
        // of every requested output element exactly.
        let need_lo = lo as isize * w.stride as isize - w.padding as isize;
        let need_hi = (hi - 1) as isize * w.stride as isize - w.padding as isize + w.kernel as isize;
        prop_assert_eq!(rows.start as isize - pad_top as isize, need_lo);
        prop_assert_eq!(rows.end as isize + pad_bottom as isize, need_hi);
        prop_assert!(rows.end <= h);
    }

    #[test]
    fn merging_conserves_flops_and_weights_for_random_cnns(
        channels in prop::collection::vec(2usize..12, 1..5),
        use_bn in any::<bool>(),
        pool_every in 1usize..3,
    ) {
        // Build a random VGG-ish chain, merge it, and check the pass neither
        // invents nor drops work.
        let mut g = Graph::new();
        let mut cur = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![3, 32, 32]),
                },
                &[],
            )
            .unwrap();
        let mut h = 32usize;
        for (i, &c) in channels.iter().enumerate() {
            cur = g
                .add(
                    format!("conv{i}"),
                    LayerOp::Conv2d {
                        out_channels: c,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    &[cur],
                )
                .unwrap();
            if use_bn {
                cur = g.add(format!("bn{i}"), LayerOp::BatchNorm, &[cur]).unwrap();
            }
            cur = g.add(format!("relu{i}"), LayerOp::Relu, &[cur]).unwrap();
            if i % pool_every == 0 && h >= 4 {
                cur = g
                    .add(
                        format!("pool{i}"),
                        LayerOp::MaxPool2d {
                            kernel: 2,
                            stride: 2,
                            padding: 0,
                        },
                        &[cur],
                    )
                    .unwrap();
                h /= 2;
            }
        }
        let (mut total_flops, mut total_weights) = (0, 0);
        for n in g.nodes() {
            let ins: Vec<&Shape> =
                n.inputs.iter().map(|&i| &g.node(i).unwrap().output_shape).collect();
            total_flops += n.op.flops(&ins, &n.output_shape);
            total_weights += 4 * n.op.param_count(&ins, &n.output_shape);
        }
        let model = gillis_model::merge::merge_graph("random-cnn", g).unwrap();
        prop_assert_eq!(model.total_flops(), total_flops);
        prop_assert_eq!(model.weight_bytes(), total_weights);
        // Shapes chain through the merged layers.
        for pair in model.layers().windows(2) {
            prop_assert_eq!(&pair[0].out_shape, &pair[1].in_shape);
        }
    }
}
