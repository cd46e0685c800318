//! Machine-readable perf baseline: runs the core tensor, partitioning, and
//! serving bench cases and writes `BENCH_tensor.json` / `BENCH_planner.json`
//! / `BENCH_serving.json` at the repo root (or the directory given as the
//! first CLI argument), so the perf trajectory is tracked across PRs.
//!
//! Each entry records the current median ns/iter alongside the seed-kernel
//! baseline (naive 6-loop conv, hand-rolled matmuls, sequential uncached DP)
//! captured on the same reference machine, giving a stable before/after
//! speedup column.

use gillis_bench::report::{measure, render_json, ReportEntry};
use gillis_core::{
    analyze_group, execute_plan_tensors_with_threads, DpPartitioner, EvalCache, ExecutionPlan,
    ForkJoinRuntime, PartDim, PartitionOption, PartitionerConfig, Placement, PlannedGroup,
};
use gillis_faas::PlatformProfile;
use gillis_model::weights::init_weights;
use gillis_model::zoo;
use gillis_perf::PerfModel;
use gillis_rl::{slo_aware_partition, SloAwareConfig};
use gillis_tensor::ops::{
    batch_norm, conv2d, dense, depthwise_conv2d, lstm_cell, max_pool2d, BatchNormParams,
    Conv2dParams, LstmParams, LstmState, Pool2dParams,
};
use gillis_tensor::{Shape, Tensor};

/// Seed-kernel ns/iter (naive loops, sequential uncached DP) measured with
/// this same harness on the reference machine at the pre-optimization
/// commit. Keyed by `op/shape` below; used to populate the
/// `baseline_ns_per_iter` / `speedup` columns.
const SEED_BASELINE_NS: &[(&str, f64)] = &[
    ("conv2d/in=16x32x32 w=16x16x3x3 s1 p1", 6_155_851.3),
    (
        "conv2d/in=256x56x56 w=256x256x3x3 s1 p1 (VGG-16 conv3_2)",
        4_650_743_263.0,
    ),
    ("depthwise_conv2d/in=64x56x56 w=64x3x3 s1 p1", 4_815_878.8),
    ("dense/4096->1000", 2_966_642.4),
    ("lstm_cell/hidden=256", 324_074.3),
    ("max_pool2d/in=64x56x56 k2 s2", 437_961.4),
    ("batch_norm/in=256x56x56", 1_026_948.9),
    ("dp_partition/vgg11", 2_821_061.7),
    ("dp_partition/vgg16", 6_680_037.3),
    ("dp_partition/wrn50x4", 8_466_318.8),
    ("dp_partition/wrn50x5", 8_607_641.6),
    ("analyze_group/vgg16[0..4] height x8", 1_494.8),
];

fn baseline_for(op: &str, shape: &str) -> Option<f64> {
    let key = format!("{op}/{shape}");
    SEED_BASELINE_NS
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, ns)| *ns)
}

fn entry<O, F: FnMut() -> O>(op: &str, shape: &str, samples: usize, routine: F) -> ReportEntry {
    entry_flops(op, shape, samples, None, routine)
}

/// [`entry`] for GEMM-backed kernels with a closed-form FLOP count, feeding
/// the report's achieved-GFLOP/s column.
fn entry_flops<O, F: FnMut() -> O>(
    op: &str,
    shape: &str,
    samples: usize,
    flops: Option<u64>,
    routine: F,
) -> ReportEntry {
    let (ns_per_iter, taken) = measure(samples, routine);
    let e = ReportEntry {
        op: op.to_string(),
        shape: shape.to_string(),
        ns_per_iter,
        samples: taken,
        baseline_ns_per_iter: baseline_for(op, shape),
        flops,
    };
    let rate = match e.gflops() {
        Some(g) => format!("  {g:.1} GFLOP/s"),
        None => String::new(),
    };
    match e.speedup() {
        Some(s) => {
            println!("{op:<16} {shape:<40} {ns_per_iter:>14.1} ns/iter  ({s:.2}x vs seed){rate}")
        }
        None => println!("{op:<16} {shape:<40} {ns_per_iter:>14.1} ns/iter{rate}"),
    }
    e
}

/// FLOPs of a dense convolution: 2 MACs per filter tap per output element.
fn conv_flops(out_c: u64, in_c: u64, k: u64, out_h: u64, out_w: u64) -> u64 {
    2 * out_c * in_c * k * k * out_h * out_w
}

fn tensor_suite() -> Vec<ReportEntry> {
    let mut entries = Vec::new();

    // Small conv.
    let input = Tensor::from_fn(Shape::new(vec![16, 32, 32]), |i| (i % 7) as f32 * 0.1);
    let weight = Tensor::from_fn(Shape::new(vec![16, 16, 3, 3]), |i| (i % 5) as f32 * 0.01);
    let bias = Tensor::zeros(Shape::new(vec![16]));
    let params = Conv2dParams::square(3, 1, 1);
    entries.push(entry_flops(
        "conv2d",
        "in=16x32x32 w=16x16x3x3 s1 p1",
        10,
        Some(conv_flops(16, 16, 3, 32, 32)),
        || conv2d(&input, &weight, Some(&bias), &params).unwrap(),
    ));

    // VGG-16-scale conv: conv3_2 (256 channels at 56x56, 3x3), ~3.7 GFLOP.
    let input = Tensor::from_fn(Shape::new(vec![256, 56, 56]), |i| (i % 7) as f32 * 0.1);
    let weight = Tensor::from_fn(Shape::new(vec![256, 256, 3, 3]), |i| (i % 5) as f32 * 0.01);
    let bias = Tensor::zeros(Shape::new(vec![256]));
    entries.push(entry_flops(
        "conv2d",
        "in=256x56x56 w=256x256x3x3 s1 p1 (VGG-16 conv3_2)",
        3,
        Some(conv_flops(256, 256, 3, 56, 56)),
        || conv2d(&input, &weight, Some(&bias), &params).unwrap(),
    ));

    // Depthwise conv (MobileNet-style block).
    let input = Tensor::from_fn(Shape::new(vec![64, 56, 56]), |i| (i % 7) as f32 * 0.1);
    let weight = Tensor::from_fn(Shape::new(vec![64, 3, 3]), |i| (i % 5) as f32 * 0.01);
    entries.push(entry(
        "depthwise_conv2d",
        "in=64x56x56 w=64x3x3 s1 p1",
        10,
        || depthwise_conv2d(&input, &weight, None, &params).unwrap(),
    ));

    // Dense (VGG classifier head scale).
    let x = Tensor::from_fn(Shape::new(vec![4096]), |i| (i % 13) as f32);
    let w = Tensor::from_fn(Shape::new(vec![1000, 4096]), |i| (i % 11) as f32 * 1e-3);
    let b = Tensor::zeros(Shape::new(vec![1000]));
    entries.push(entry_flops(
        "dense",
        "4096->1000",
        10,
        Some(2 * 1000 * 4096),
        || dense(&x, &w, Some(&b)).unwrap(),
    ));

    // LSTM cell (paper's RNN workload scale).
    let hidden = 256;
    let lstm = LstmParams {
        w_ih: Tensor::from_fn(Shape::new(vec![4 * hidden, hidden]), |i| {
            (i % 7) as f32 * 1e-3
        }),
        w_hh: Tensor::from_fn(Shape::new(vec![4 * hidden, hidden]), |i| {
            (i % 5) as f32 * 1e-3
        }),
        bias: Tensor::zeros(Shape::new(vec![4 * hidden])),
    };
    let x = Tensor::from_fn(Shape::new(vec![hidden]), |i| (i % 3) as f32 * 0.1);
    let state = LstmState::zeros(hidden);
    // Two 4H x H matrix-vector products dominate the cell.
    let lstm_flops = 2 * 2 * (4 * hidden as u64) * hidden as u64;
    entries.push(entry_flops(
        "lstm_cell",
        "hidden=256",
        10,
        Some(lstm_flops),
        || lstm_cell(&x, &state, &lstm).unwrap(),
    ));

    // Pooling + batch norm hot loops.
    let input = Tensor::from_fn(Shape::new(vec![64, 56, 56]), |i| i as f32);
    let pool = Pool2dParams::square(2, 2, 0);
    entries.push(entry("max_pool2d", "in=64x56x56 k2 s2", 10, || {
        max_pool2d(&input, &pool).unwrap()
    }));
    let input = Tensor::from_fn(Shape::new(vec![256, 56, 56]), |i| (i % 9) as f32);
    let bn = BatchNormParams::identity(256);
    entries.push(entry("batch_norm", "in=256x56x56", 10, || {
        batch_norm(&input, &bn).unwrap()
    }));

    entries
}

fn planner_suite() -> Vec<ReportEntry> {
    let lambda = PlatformProfile::aws_lambda();
    let mut entries = Vec::new();

    // What every deploy pays before its search: building the performance
    // model and integrating the order statistics a default-degree search
    // asks for (each degree's fan-out, with and without the master).
    let ask = |perf: PerfModel| -> f64 {
        let degrees = PartitionerConfig::default().degrees;
        let fan_outs = degrees.iter().flat_map(|&d| [d - 1, d]);
        fan_outs.map(|n| perf.fork_ms(0, n)).sum()
    };
    let shape = "lambda, build + default-degree order statistics";
    entries.push(entry("perf_model_analytic", shape, 5, || {
        ask(PerfModel::analytic(&lambda))
    }));
    entries.push(entry("perf_model_profiled", shape, 5, || {
        ask(PerfModel::profiled(&lambda, 42))
    }));

    let perf = PerfModel::analytic(&lambda);
    for (name, model) in [
        ("vgg11", zoo::vgg11()),
        ("vgg16", zoo::vgg16()),
        ("wrn50x4", zoo::wrn50(4)),
        ("wrn50x5", zoo::wrn50(5)),
    ] {
        entries.push(entry("dp_partition", name, 5, || {
            DpPartitioner::new(PartitionerConfig::default())
                .partition(&model, &perf)
                .unwrap()
        }));
    }

    // The candidate table at one pool thread and at two — the width the repo
    // benchmark runs at — so a fan-out that loses to the sequential walk is
    // a visible row. (Only meaningful with `GILLIS_THREADS` >= 2: a narrower
    // pool runs both inline.)
    for (name, model) in [
        ("vgg11", zoo::vgg11()),
        ("resnet101", zoo::resnet101()),
        ("wrn-50-5", zoo::wrn50(5)),
    ] {
        for threads in [1, 2] {
            let shape = format!("{name} threads={threads}");
            entries.push(entry("dp_partition", &shape, 5, || {
                DpPartitioner::default()
                    .with_threads(threads)
                    .partition(&model, &perf)
                    .unwrap()
            }));
        }
    }

    // Warm-cache planner: one EvalCache shared across every iteration, as
    // the RL trainer and BO search use it. First iteration pays the misses;
    // the rest answer each DP cell from memoized (group, budget) choices.
    let model = zoo::wrn50(5);
    let cache = std::sync::Arc::new(EvalCache::new());
    entries.push(entry("dp_partition_cached", "wrn50x5 warm", 5, || {
        DpPartitioner::new(PartitionerConfig::default())
            .with_cache(std::sync::Arc::clone(&cache))
            .partition(&model, &perf)
            .unwrap()
    }));

    let vgg = zoo::vgg16();
    entries.push(entry("analyze_group", "vgg16[0..4] height x8", 10, || {
        analyze_group(
            &vgg,
            0,
            4,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 8,
            },
        )
        .unwrap()
    }));

    entries
}

/// A hand-built aggressively parallel plan for `tiny_vgg`: spatial layers
/// split 4-way, channel-splittable layers 2-way — every group has multiple
/// worker partitions, so the pooled `execute_plan_tensors` path actually
/// fans out (the DP plan for a model this small is all-`Single`).
fn forced_parallel_plan(model: &gillis_model::LinearModel) -> ExecutionPlan {
    let mut groups = Vec::new();
    for (i, layer) in model.layers().iter().enumerate() {
        let option = if layer.class.supports_spatial() && layer.out_shape.dims()[1] >= 4 {
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 4,
            }
        } else if layer.class.channel_splittable() && layer.out_shape.dims()[0] >= 2 {
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 2,
            }
        } else {
            PartitionOption::Single
        };
        groups.push(PlannedGroup {
            start: i,
            end: i + 1,
            option,
            placement: if option == PartitionOption::Single {
                Placement::Master
            } else {
                Placement::Workers
            },
        });
    }
    ExecutionPlan::new(groups)
}

fn serving_suite() -> Vec<ReportEntry> {
    let width = gillis_pool::gillis_threads();
    let mut entries = Vec::new();

    // Real-tensor plan execution, sequential vs pooled, on a plan whose
    // every group fans out to multiple worker partitions.
    let tiny = zoo::tiny_vgg();
    let weights = init_weights(tiny.graph(), 42).unwrap();
    let input = gillis_tensor::Tensor::from_fn(tiny.input_shape().clone(), |i| {
        ((i % 17) as f32 - 8.0) / 8.0
    });
    let plan = forced_parallel_plan(&tiny);
    entries.push(entry(
        "execute_plan",
        "tiny-vgg forced 4-way, sequential",
        10,
        || execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap(),
    ));
    entries.push(entry(
        "execute_plan",
        &format!("tiny-vgg forced 4-way, pooled x{width}"),
        10,
        || execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, width).unwrap(),
    ));

    // Monte-Carlo latency simulation: independent seeded replications.
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let vgg = zoo::vgg11();
    let dp_plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
    let runtime = ForkJoinRuntime::new(&vgg, &dp_plan, platform).unwrap();
    entries.push(entry("mean_latency", "vgg11 n=500, sequential", 10, || {
        runtime.mean_latency_ms_with_threads(500, 7, 1)
    }));
    entries.push(entry(
        "mean_latency",
        &format!("vgg11 n=500, pooled x{width}"),
        10,
        || runtime.mean_latency_ms_with_threads(500, 7, width),
    ));

    // RL training throughput: batch episode rollouts on the pool.
    let tiny = zoo::tiny_vgg();
    for (label, threads) in [("sequential", 1), ("pooled", width)] {
        let shape = if threads == 1 {
            format!("tiny-vgg 48 episodes, {label}")
        } else {
            format!("tiny-vgg 48 episodes, {label} x{width}")
        };
        entries.push(entry("slo_train", &shape, 3, || {
            slo_aware_partition(
                &tiny,
                &perf,
                &SloAwareConfig {
                    t_max_ms: 500.0,
                    episodes: 48,
                    batch: 8,
                    seed: 7,
                    threads: Some(threads),
                    ..SloAwareConfig::default()
                },
            )
            .unwrap()
        }));
    }

    entries
}

fn main() {
    let (_, out_dir) = gillis_bench::bench_args();
    let threads = gillis_pool::gillis_threads();

    println!("== tensor suite ==");
    let tensor = tensor_suite();
    println!("== planner suite ==");
    let planner = planner_suite();
    println!("== serving suite ==");
    let serving = serving_suite();

    let tensor_path = format!("{out_dir}/BENCH_tensor.json");
    let planner_path = format!("{out_dir}/BENCH_planner.json");
    let serving_path = format!("{out_dir}/BENCH_serving.json");
    std::fs::write(&tensor_path, render_json("tensor", threads, &tensor))
        .expect("write BENCH_tensor.json");
    std::fs::write(&planner_path, render_json("planner", threads, &planner))
        .expect("write BENCH_planner.json");
    std::fs::write(&serving_path, render_json("serving", threads, &serving))
        .expect("write BENCH_serving.json");
    println!("wrote {tensor_path}, {planner_path}, and {serving_path}");
}
