//! Kernel outputs, pinned: `tests/golden/forward_hashes.txt` holds an FNV-1a
//! hash over the output bits of `Executor::forward` and of the compiled
//! plan's `run_raw` — the single-function plan and one that splits every
//! layer two ways — for the tiny models, a one-layer-per-window-shape model
//! and a reduced RNN, at fixed weight and query seeds.
//!
//! A `layers` line hashes every merged layer's output in turn, so an
//! intermediate bit a later layer would mask still counts.
//!
//! The serving path is checked against `Executor::forward` elsewhere, but
//! both call the same kernels, so a kernel change that moves both passes
//! that check. This file is what holds a kernel to the bits it had: a change
//! that means to move none (a faster kernel with the same per-element
//! history) must pass it unchanged, in every build and at every pool width.
//!
//! There is one section per arithmetic mode: `[scalar]` (separately rounded
//! multiply and add — the scalar build, and the `simd` build under
//! `GILLIS_NO_SIMD=1`) and `[simd]` (fused multiply-add). The test compares
//! the section of the mode that is active; `cargo test --test forward_hashes
//! -- --ignored regenerate` rewrites that section alone.
//!
//! Window-op coverage: tiny-mobilenet has depthwise 3×3 at stride 1 and 2;
//! tiny-vgg and tiny-inception max pool 2×2/2; tiny-resnet max pool 3×3/2/1;
//! `windows` adds max pooling with border windows (3×3/2/1 over an odd
//! 21×19 plane, and 2×2/1 unpadded), a 5×5 stride-2 depthwise over a plane
//! whose width leaves a partial vector, and max pool 3×3/1/1.

use std::fmt::Write as _;

use gillis::core::{
    group_options, CompiledPlanExec, ExecutionPlan, PartDim, PartitionOption, Placement,
    PlannedGroup,
};
use gillis::model::exec::Executor;
use gillis::model::merge::merge_graph;
use gillis::model::weights::init_weights;
use gillis::model::{zoo, Graph, LayerOp, LinearModel};
use gillis::tensor::{simd::simd_active, Shape, Tensor};

const GOLDEN_PATH: &str = "tests/golden/forward_hashes.txt";
const WEIGHT_SEEDS: [u64; 2] = [7, 8];

/// FNV-1a over the little-endian bytes of every element's bits.
fn fnv1a(data: &[f32]) -> u64 {
    data.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every window shape no tiny model has, one layer each.
fn windows() -> LinearModel {
    let mut g = Graph::new();
    let shape = Shape::new(vec![6, 21, 19]);
    let mut cur = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
    let layers = [
        (
            "max3s2",
            LayerOp::MaxPool2d {
                kernel: 3,
                stride: 2,
                padding: 1,
            },
        ),
        (
            "dw3s1",
            LayerOp::DepthwiseConv2d {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        (
            "max3s1",
            LayerOp::MaxPool2d {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        (
            "dw5s2",
            LayerOp::DepthwiseConv2d {
                kernel: 5,
                stride: 2,
                padding: 2,
            },
        ),
        (
            "max2s1",
            LayerOp::MaxPool2d {
                kernel: 2,
                stride: 1,
                padding: 0,
            },
        ),
    ];
    for (name, op) in layers {
        cur = g.add(name, op, &[cur]).unwrap();
    }
    merge_graph("windows", g).unwrap()
}

/// A plan that splits every layer two ways along `dim` where the geometry
/// allows it, any other split otherwise, and runs the rest whole.
fn split2(model: &LinearModel, dim: PartDim) -> ExecutionPlan {
    let groups = (0..model.layers().len())
        .map(|i| {
            let opts = group_options(model, i, i + 1, &[2]);
            let split = |o: &&PartitionOption| matches!(o, PartitionOption::Split { .. });
            let option = opts
                .iter()
                .find(|o| matches!(o, PartitionOption::Split { dim: d, .. } if *d == dim))
                .or_else(|| opts.iter().find(split))
                .copied()
                .unwrap_or(PartitionOption::Single);
            let placement = match option {
                PartitionOption::Single => Placement::Master,
                PartitionOption::Split { .. } => Placement::Workers,
            };
            PlannedGroup {
                start: i,
                end: i + 1,
                option,
                placement,
            }
        })
        .collect();
    ExecutionPlan::new(groups)
}

fn query(model: &LinearModel, seed: u64) -> Tensor {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Tensor::from_fn(model.input_shape().clone(), |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 2001) as f32 / 1000.0 - 1.0
    })
}

/// The hash lines of the active arithmetic mode.
fn render() -> String {
    let cases = [
        (zoo::tiny_vgg(), PartDim::Height),
        (zoo::tiny_resnet(), PartDim::Height),
        (zoo::tiny_inception(), PartDim::Height),
        (zoo::tiny_mobilenet(), PartDim::Height),
        (zoo::tiny_mobilenet(), PartDim::Channel),
        (windows(), PartDim::Height),
        (zoo::rnn_sized(2, 20, 12), PartDim::Height),
    ];
    let mut out = String::new();
    for (model, dim) in &cases {
        let plans = [
            ("single", ExecutionPlan::single_function(model)),
            ("split2", split2(model, *dim)),
        ];
        for seed in WEIGHT_SEEDS {
            let weights = init_weights(model.graph(), seed).unwrap();
            let x = query(model, seed);
            let name = format!("{} {dim:?} seed={seed}", model.name());
            let forward = Executor::new(model.graph(), &weights)
                .forward(model, &x)
                .unwrap();
            writeln!(out, "{name} forward {:016x}", fnv1a(forward.data())).unwrap();
            // Every merged layer's output, so a bit a later layer would mask
            // (a ReLU eats the sign of a zero) still shows.
            let mut cur = x.clone();
            let mut layers = Vec::new();
            for layer in model.layers() {
                cur = Executor::new(model.graph(), &weights)
                    .run_segment(std::slice::from_ref(layer), &cur)
                    .unwrap();
                layers.extend_from_slice(cur.data());
            }
            writeln!(out, "{name} layers {:016x}", fnv1a(&layers)).unwrap();
            for (plan_name, plan) in &plans {
                plan.validate(model, u64::MAX).unwrap();
                let mut exec = CompiledPlanExec::compile(model, plan, &weights).unwrap();
                let (got, _) = exec.run_raw(&weights, x.data()).unwrap();
                writeln!(out, "{name} {plan_name} {:016x}", fnv1a(got)).unwrap();
            }
        }
    }
    out
}

fn section() -> &'static str {
    if simd_active() {
        "[simd]"
    } else {
        "[scalar]"
    }
}

/// The golden file split into `(header, body)` sections, in file order.
fn sections(text: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with('[') {
            out.push((line.to_string(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

#[test]
fn every_window_kernel_keeps_its_output_bits() {
    let golden = include_str!("golden/forward_hashes.txt");
    let (_, want) = sections(golden)
        .into_iter()
        .find(|(header, _)| header == section())
        .unwrap_or_else(|| panic!("{GOLDEN_PATH} has no {} section", section()));
    let got = render();
    for (k, (want, got)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "{} line {k}", section());
    }
    assert_eq!(want.lines().count(), got.lines().count());
}

#[test]
#[ignore = "rewrites the active section of tests/golden/forward_hashes.txt from the code under test"]
fn regenerate() {
    let mut all = sections(&std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default());
    all.retain(|(header, _)| header != section());
    all.push((section().to_string(), render()));
    all.sort();
    let text: String = all
        .iter()
        .map(|(header, body)| format!("{header}\n{body}"))
        .collect();
    std::fs::write(GOLDEN_PATH, text).unwrap();
}
