//! Extension: steady-state inference memory plan (compiled warm path).
//!
//! Measures what deployment-time compilation buys over the per-query
//! reference path: cold queries re-slice weights, re-derive halo spans, and
//! allocate every intermediate; warm queries run through a
//! [`CompiledPlanExec`] — resolved weight row ranges, folded batch norms,
//! preallocated buffers — and are bit-identical to the cold
//! path by construction.
//!
//! Two modes:
//!
//! - **full** (default): VGG-11 on the single-function plan and on a forced
//!   4-way partitioned plan. Reports per-query latency cold vs warm,
//!   allocations per query (via a counting global allocator), end-to-end
//!   warm QPS, and the bytes of weight panels the plan copied (int8 only;
//!   0 for f32). Writes `BENCH_infer.json` at the
//!   repo root (or the directory given as the first CLI argument).
//! - **smoke** (`--smoke`, used by CI): tiny-vgg on the single-function and
//!   a 2-way height-split plan at pool width 1, asserting the warm path
//!   performs **zero** heap allocations per query once warmed up and that
//!   the plan holds exactly the activation bytes of a two-buffer arena per
//!   piece — counted from the graph and the span geometry, not from the
//!   compiled steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gillis_core::partition::split_ranges;
use gillis_core::{
    execute_plan_tensors_with_threads, group_options, CompiledPlanExec, ExecutionPlan, PartDim,
    PartitionOption, Placement, PlannedGroup,
};
use gillis_model::span::SpanPlan;
use gillis_model::weights::{init_weights, ModelWeights};
use gillis_model::{zoo, LayerOp, LinearModel, NodeId};
use gillis_tensor::Tensor;

/// Counts heap allocations (alloc/alloc_zeroed/realloc) so the harness can
/// report allocations per query and the smoke mode can assert the warm path
/// makes none.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is a
// relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A plan that splits every layer 4 ways where the partition geometry allows
/// it (height-first, any 4-way split otherwise), mirroring a fully
/// partitioned worker deployment.
fn forced_split_plan(model: &LinearModel, parts: usize) -> ExecutionPlan {
    let groups = (0..model.layers().len())
        .map(|i| {
            let opts = group_options(model, i, i + 1, &[parts]);
            let option = opts
                .iter()
                .copied()
                .find(|o| {
                    matches!(o, PartitionOption::Split { dim: PartDim::Height, parts: p } if *p == parts)
                })
                .or_else(|| {
                    opts.iter()
                        .copied()
                        .find(|o| matches!(o, PartitionOption::Split { .. }))
                })
                .unwrap_or(PartitionOption::Single);
            PlannedGroup {
                start: i,
                end: i + 1,
                option,
                placement: if option == PartitionOption::Single {
                    Placement::Master
                } else {
                    Placement::Workers
                },
            }
        })
        .collect();
    ExecutionPlan::new(groups)
}

/// The activation bytes a compiled `plan` should hold if every piece runs in
/// two ping-pong buffers with batch norm and ReLU in place: per piece, the
/// largest output among its even buffer-writing ops plus the largest among
/// its odd ones, and one join buffer per group. Counted from node shapes and
/// [`SpanPlan`] hulls; a piece that does not take its group's whole input
/// writes its input slice first. (Groups here open with a buffer-writing
/// op, as every zoo layer does.)
fn planned_activation_bytes(model: &LinearModel, plan: &ExecutionPlan) -> usize {
    let graph = model.graph();
    let node = |id: NodeId| graph.node(id).expect("node of the model's graph");
    let writes = |id: &NodeId| {
        !matches!(
            node(*id).op,
            LayerOp::BatchNorm | LayerOp::Relu | LayerOp::Flatten
        )
    };
    let two_buffers = |lens: Vec<usize>| -> usize {
        let cap = |slot: usize| {
            lens.iter()
                .skip(slot)
                .step_by(2)
                .max()
                .copied()
                .unwrap_or(0)
        };
        cap(0) + cap(1)
    };
    let mut floats = 0;
    for g in plan.groups() {
        let layers = &model.layers()[g.start..g.end];
        let nodes: Vec<NodeId> = layers.iter().flat_map(|l| l.nodes.clone()).collect();
        let seed = node(nodes[0]).inputs[0];
        let seed_shape = &node(seed).output_shape;
        let out_dims = layers[layers.len() - 1].out_shape.dims();
        floats += out_dims.iter().product::<usize>();
        // Output length of `id` with dimension `dim` cut down to `extent`.
        let cut = |id: NodeId, dim: usize, extent: usize| {
            let shape = &node(id).output_shape;
            shape.len() / shape.dims()[dim] * extent
        };
        match g.option {
            PartitionOption::Single => {
                let writers = nodes.iter().filter(|id| writes(id));
                floats += two_buffers(writers.map(|&id| node(id).output_shape.len()).collect());
            }
            PartitionOption::Split { dim, parts } => {
                // A conv or dense head takes the whole input; a channel-local
                // group slices it first.
                let headed = nodes.iter().any(|&id| {
                    matches!(node(id).op, LayerOp::Conv2d { .. } | LayerOp::Dense { .. })
                });
                let (axis, ranges) = split_ranges(layers, dim, parts);
                for r in ranges {
                    let mut lens = Vec::new();
                    if dim == PartDim::Channel {
                        if !headed {
                            lens.push(cut(seed, axis, r.len()));
                        }
                        let writers = nodes.iter().filter(|id| writes(id));
                        lens.extend(writers.map(|&id| cut(id, axis, r.len())));
                    } else {
                        let span = SpanPlan::new(graph, &nodes, seed, seed_shape, axis, r)
                            .expect("spatial group");
                        lens.push(cut(seed, axis, span.seed_span.len()));
                        let writers = span.nodes.iter().filter(|n| writes(&n.id));
                        lens.extend(writers.map(|n| cut(n.id, axis, n.out.len())));
                    }
                    floats += two_buffers(lens);
                }
            }
        }
    }
    floats * std::mem::size_of::<f32>()
}

fn query(model: &LinearModel, seed: u64) -> Tensor {
    let mut x = seed | 1;
    Tensor::from_fn(model.input_shape().clone(), |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ((x % 1000) as f32 / 500.0) - 1.0
    })
}

struct PlanResult {
    plan_name: String,
    parts: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_allocs: u64,
    warm_allocs: u64,
    warm_qps: f64,
    compile_ms: f64,
    activation_bytes: usize,
    panel_bytes: usize,
}

/// Measures one plan: cold (uncompiled, per-query slicing) vs warm
/// (compiled) queries, checking bit-identity along the way.
#[allow(clippy::too_many_arguments)]
fn measure_plan(
    model: &LinearModel,
    weights: &ModelWeights,
    plan: &ExecutionPlan,
    plan_name: &str,
    threads: usize,
    cold_iters: usize,
    warm_iters: usize,
    seed: u64,
) -> PlanResult {
    let input = query(model, seed);
    let parts = plan
        .groups()
        .iter()
        .map(|g| g.option.parts())
        .max()
        .unwrap_or(1);

    // Cold: the reference fork-join path, everything re-derived per query.
    let reference =
        execute_plan_tensors_with_threads(model, plan, weights, &input, threads).expect("cold run");
    let cold_begin = Instant::now();
    let cold_allocs_begin = allocs();
    for _ in 0..cold_iters {
        let out = execute_plan_tensors_with_threads(model, plan, weights, &input, threads)
            .expect("cold run");
        std::hint::black_box(out);
    }
    let cold_allocs = (allocs() - cold_allocs_begin) / cold_iters as u64;
    let cold_ms = cold_begin.elapsed().as_secs_f64() * 1e3 / cold_iters as f64;

    // Warm: compile once, then serve from preallocated state.
    let compile_begin = Instant::now();
    let mut compiled = CompiledPlanExec::compile(model, plan, weights).expect("compile plan");
    let compile_ms = compile_begin.elapsed().as_secs_f64() * 1e3;
    for _ in 0..2 {
        let (out, _) = compiled
            .run_raw_with_threads(weights, input.data(), threads)
            .expect("warmup run");
        std::hint::black_box(out.len());
    }
    {
        let (out, shape) = compiled
            .run_raw_with_threads(weights, input.data(), threads)
            .expect("warm run");
        assert_eq!(shape, reference.shape(), "{plan_name}: warm output shape");
        for (i, (a, b)) in out.iter().zip(reference.data().iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{plan_name}: warm output diverges at element {i}"
            );
        }
    }
    let warm_begin = Instant::now();
    let warm_allocs_begin = allocs();
    for _ in 0..warm_iters {
        let (out, _) = compiled
            .run_raw_with_threads(weights, input.data(), threads)
            .expect("warm run");
        std::hint::black_box(out.len());
    }
    let warm_allocs = (allocs() - warm_allocs_begin) / warm_iters as u64;
    let warm_ms = warm_begin.elapsed().as_secs_f64() * 1e3 / warm_iters as f64;

    PlanResult {
        plan_name: plan_name.to_string(),
        parts,
        cold_ms,
        warm_ms,
        cold_allocs,
        warm_allocs,
        warm_qps: 1e3 / warm_ms,
        compile_ms,
        activation_bytes: compiled.activation_bytes(),
        panel_bytes: compiled.panel_bytes(),
    }
}

fn render_json(suite: &str, model: &str, threads: usize, results: &[PlanResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    out.push_str(&format!("  \"model\": \"{model}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"plan\": \"{}\", \"parts\": {}, \"cold_ms_per_query\": {:.2}, \"warm_ms_per_query\": {:.2}, \"speedup\": {:.2}, \"cold_allocs_per_query\": {}, \"warm_allocs_per_query\": {}, \"warm_qps\": {:.2}, \"compile_ms\": {:.2}, \"panel_mb\": {:.1}}}{}\n",
            r.plan_name,
            r.parts,
            r.cold_ms,
            r.warm_ms,
            r.cold_ms / r.warm_ms,
            r.cold_allocs,
            r.warm_allocs,
            r.warm_qps,
            r.compile_ms,
            r.panel_bytes as f64 / 1e6,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_results(results: &[PlanResult]) {
    let mut table = gillis_bench::Table::new(&[
        "plan",
        "parts",
        "cold(ms)",
        "warm(ms)",
        "speedup",
        "cold allocs/q",
        "warm allocs/q",
        "warm qps",
    ]);
    for r in results {
        table.row(vec![
            r.plan_name.clone(),
            format!("{}", r.parts),
            format!("{:.2}", r.cold_ms),
            format!("{:.2}", r.warm_ms),
            format!("{:.2}x", r.cold_ms / r.warm_ms),
            format!("{}", r.cold_allocs),
            format!("{}", r.warm_allocs),
            format!("{:.2}", r.warm_qps),
        ]);
    }
    table.print();
}

/// Smoke cell for the width-n path, where a query is a batch of one on the
/// same buffers: after `reserve_batch(N)`, a warm batch of `N` and the single
/// query after it allocate nothing, every item carries the cold path's bits,
/// and the plan's activation figure has not moved with the buffers' growth.
fn smoke_batch(model: &LinearModel, weights: &ModelWeights, plan: &ExecutionPlan, name: &str) {
    const N: usize = 4;
    let queries: Vec<Tensor> = (0..N as u64).map(|i| query(model, 17 + i)).collect();
    let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
    let cold: Vec<Tensor> = queries
        .iter()
        .map(|q| execute_plan_tensors_with_threads(model, plan, weights, q, 1).expect("cold run"))
        .collect();
    let same_bits = |got: &[f32], want: &Tensor, what: &str| {
        let same = got
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same && got.len() == want.data().len(),
            "{name}: {what} diverges from cold"
        );
    };
    let mut compiled = CompiledPlanExec::compile(model, plan, weights).expect("compile plan");
    compiled.reserve_batch(N);
    let mut round = || {
        let begin = allocs();
        let (out, _) = compiled
            .run_batch_raw_with_threads(weights, &flat, N, 1)
            .expect("warm batch");
        for (item, want) in out.chunks_exact(out.len() / N).zip(&cold) {
            same_bits(item, want, "batch item");
        }
        let (out, _) = compiled
            .run_raw_with_threads(weights, queries[N - 1].data(), 1)
            .expect("single after batch");
        same_bits(out, &cold[N - 1], "single after batch");
        allocs() - begin
    };
    round(); // grows the per-thread kernel scratch to batch width
    let warm = round();
    assert_eq!(warm, 0, "{name}: warm batch-{N} then single allocated");
    assert_eq!(
        compiled.activation_bytes(),
        planned_activation_bytes(model, plan),
        "{name}: the plan figure moved with the batch width"
    );
    println!("{name}: warm batch-{N} and the single after it: 0 allocations, cold bits");
}

/// CI smoke: tiny-vgg at pool width 1 — the warm path must not allocate.
fn run_smoke(out_dir: &str) {
    let model = zoo::tiny_vgg();
    let weights = init_weights(model.graph(), gillis_bench::bench_seed(7)).expect("weights");
    let mut results = Vec::new();
    for (plan, name) in [
        (ExecutionPlan::single_function(&model), "single"),
        (forced_split_plan(&model, 2), "split2"),
    ] {
        plan.validate(&model, u64::MAX).expect("valid plan");
        let r = measure_plan(&model, &weights, &plan, name, 1, 5, 20, 3);
        assert_eq!(
            r.warm_allocs, 0,
            "{name}: warm path allocated {} times per query (expected 0)",
            r.warm_allocs
        );
        println!(
            "{name}: activation_bytes {} panel_bytes {}",
            r.activation_bytes, r.panel_bytes
        );
        assert_eq!(
            r.activation_bytes,
            planned_activation_bytes(&model, &plan),
            "{name}: the compiled plan does not hold the planned two-buffer arenas"
        );
        smoke_batch(&model, &weights, &plan, name);
        results.push(r);
    }
    print_results(&results);
    println!("\nwarm path is allocation-free on tiny-vgg at pool width 1.");
    let path = format!("{out_dir}/BENCH_infer.json");
    std::fs::write(&path, render_json("infer-smoke", "tiny-vgg", 1, &results))
        .expect("write BENCH_infer.json");
    println!("wrote {path}");
}

fn run_full(out_dir: &str) {
    let threads = gillis_pool::gillis_threads();
    println!("Extension: steady-state inference memory plan (VGG-11, {threads} threads)\n");
    let model = zoo::vgg11();
    println!(
        "initializing VGG-11 weights ({} MB)...",
        model.weight_bytes() / 1_000_000
    );
    let weights = init_weights(model.graph(), gillis_bench::bench_seed(7)).expect("weights");

    let mut results = Vec::new();
    for (plan, name) in [
        (ExecutionPlan::single_function(&model), "single"),
        (forced_split_plan(&model, 4), "split4"),
    ] {
        plan.validate(&model, u64::MAX).expect("valid plan");
        println!("measuring plan '{name}'...");
        results.push(measure_plan(
            &model, &weights, &plan, name, threads, 3, 6, 11,
        ));
    }
    println!();
    print_results(&results);

    let path = format!("{out_dir}/BENCH_infer.json");
    std::fs::write(&path, render_json("infer", "vgg11", threads, &results))
        .expect("write BENCH_infer.json");
    println!("\nwrote {path}");
}

fn main() {
    let (smoke, out_dir) = gillis_bench::bench_args();
    if smoke {
        run_smoke(&out_dir);
    } else {
        run_full(&out_dir);
    }
}
