//! CI smoke for the steady-state inference memory plan (compiled warm path).
//!
//! Deployment-time compilation resolves weight row ranges, folds batch norms
//! and preallocates every buffer, so a warm query through a
//! [`CompiledPlanExec`] touches the heap zero times and is bit-identical to
//! the per-query reference path by construction. `ext_infer [--smoke]` checks
//! exactly that on tiny-vgg, for the single-function plan and a 2-way
//! height-split plan, and on a two-layer RNN at reduced width, whole and one
//! function per layer, at pool width 1: warm queries — and a warm batch of
//! four followed by a single query — perform **zero** heap allocations
//! (counted by a global allocator), carry the cold path's bits, and the plan
//! holds exactly the activation bytes of a two-buffer arena per piece (plus
//! an LSTM's states and gate pre-activations), counted from the graph and
//! the span geometry rather than from the compiled steps. What the
//! warm path buys in milliseconds is `benchmark/`'s `core.exec.*` and
//! `model.*` metrics, not this binary's business.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// op, as every zoo layer does.) A group of LSTM layers also holds the
/// scratch of its widest: two `[hidden]` states and `4·hidden` gate
/// pre-activations per timestep plus one step's.
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
                let scratch = nodes.iter().map(|&id| match node(id).op {
                    LayerOp::Lstm { hidden } => {
                        2 * hidden + 4 * hidden * (node(id).output_shape.dims()[0] + 1)
                    }
                    _ => 0,
                });
                floats += scratch.max().unwrap_or(0);
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

/// One plan's smoke. Compiled once, the plan must hold exactly the planned
/// two-buffer arenas; warm single queries must allocate nothing; and, since a
/// query is a batch of one on the same buffers, after `reserve_batch(N)` a
/// warm batch of `N` and the single query after it must allocate nothing
/// either, without the plan's activation figure moving with the buffers'
/// growth. Every output carries the bits of the cold path (uncompiled,
/// per-query slicing).
fn smoke_plan(model: &LinearModel, weights: &ModelWeights, plan: &ExecutionPlan, name: &str) {
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
    let single = |compiled: &mut CompiledPlanExec| {
        let (out, _) = compiled
            .run_raw_with_threads(weights, queries[N - 1].data(), 1)
            .expect("warm query");
        same_bits(out, &cold[N - 1], "single query");
    };
    let mut compiled = CompiledPlanExec::compile(model, plan, weights).expect("compile plan");
    let planned = planned_activation_bytes(model, plan);
    println!(
        "{name}: activation_bytes {} panel_bytes {} weight_bytes_streamed {}",
        compiled.activation_bytes(),
        compiled.panel_bytes(),
        compiled.weight_bytes_streamed()
    );
    assert_eq!(
        compiled.activation_bytes(),
        planned,
        "{name}: the compiled plan does not hold the planned two-buffer arenas"
    );

    (0..3).for_each(|_| single(&mut compiled)); // warm-up
    let begin = allocs();
    (0..20).for_each(|_| single(&mut compiled));
    assert_eq!(allocs() - begin, 0, "{name}: warm queries allocated");

    compiled.reserve_batch(N);
    let round = |compiled: &mut CompiledPlanExec| {
        let begin = allocs();
        let (out, _) = compiled
            .run_batch_raw_with_threads(weights, &flat, N, 1)
            .expect("warm batch");
        for (item, want) in out.chunks_exact(out.len() / N).zip(&cold) {
            same_bits(item, want, "batch item");
        }
        single(compiled);
        allocs() - begin
    };
    round(&mut compiled); // grows the per-thread kernel scratch to batch width
    let warm = round(&mut compiled);
    assert_eq!(warm, 0, "{name}: warm batch-{N} then single allocated");
    assert_eq!(
        compiled.activation_bytes(),
        planned,
        "{name}: the plan figure moved with the batch width"
    );
    println!(
        "{name}: warm queries, a warm batch-{N} and the single after it: 0 allocations, cold bits"
    );
}

/// tiny-vgg and a reduced RNN-2 at pool width 1 — the warm path must not
/// allocate.
fn main() {
    // `--smoke` is the only mode; the flag stays so CI's command line does.
    let _ = gillis_bench::bench_args(&["--smoke"]);
    // The RNN's sizes are off the eight-lane body of the row dot product; its
    // forced split finds no partition and leaves one function per layer.
    let models = [
        (zoo::tiny_vgg(), ["single", "split2"]),
        (zoo::rnn_sized(2, 20, 12), ["rnn single", "rnn per-layer"]),
    ];
    for (model, names) in models {
        let weights = init_weights(model.graph(), gillis_bench::bench_seed(7)).expect("weights");
        let plans = [
            ExecutionPlan::single_function(&model),
            forced_split_plan(&model, 2),
        ];
        for (plan, name) in plans.iter().zip(names) {
            plan.validate(&model, u64::MAX).expect("valid plan");
            smoke_plan(&model, &weights, plan, name);
        }
    }
    println!("\nwarm path is allocation-free on tiny-vgg and rnn-2 at pool width 1.");
}
