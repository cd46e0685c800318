//! CI smoke for the steady-state inference memory plan (compiled warm path).
//!
//! Deployment-time compilation resolves weight row ranges, folds batch norms
//! and preallocates every buffer, so a warm query through a
//! [`CompiledPlanExec`] touches the heap zero times and is bit-identical to
//! the unpartitioned `Executor::forward`. `ext_infer [--smoke]` checks
//! exactly that on tiny-vgg, tiny-resnet, tiny-inception and tiny-mobilenet,
//! for the single-function plan and a plan that splits every layer two ways
//! (by channel for tiny-mobilenet, so each depthwise piece convolves a subset
//! of the channels), and on a two-layer RNN at reduced width, whole and one
//! function per layer, at pool width 1: warm queries — and a warm batch of four followed by a single
//! query — perform **zero** heap allocations (counted by a global
//! allocator), carry `forward`'s bits, and the plan holds exactly the
//! activation bytes of one lane — every slot as long as its largest tenant
//! over all pieces, plus an LSTM's states and gate pre-activations — the
//! join buffers and the gathered piece outputs, counted from the graph and
//! the span geometry rather than from the compiled steps. What the
//! warm path buys in milliseconds is `benchmark/`'s `core.exec.*` and
//! `model.*` metrics, not this binary's business.
//!
//! It also prints a `weights_hash <model> <hex>` line for each of those
//! models and for an LSTM wide enough to be filled on the pool in 2 MiB
//! pages, and an `output_hash <model> <plan> <hex>` line per model and plan
//! (`ext_infer --weights-hash` prints the lines alone, at any pool width):
//! `init_weights` is a function of `(seed, node, role, index)`, so CI `cmp`s
//! the weight lines of the scalar and the SIMD build at widths 1 and 8; the
//! output lines must match across widths within a build, and the scalar
//! build's must match the SIMD build's under `GILLIS_NO_SIMD=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gillis_core::partition::split_ranges;
use gillis_core::{
    group_options, CompiledPlanExec, ExecutionPlan, PartDim, PartitionOption, Placement,
    PlannedGroup,
};
use gillis_model::exec::Executor;
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

/// A plan that splits every layer `parts` ways where the partition geometry
/// allows it (along `dim` first, any split otherwise), mirroring a fully
/// partitioned worker deployment.
fn forced_split_plan(model: &LinearModel, parts: usize, dim: PartDim) -> ExecutionPlan {
    let groups = (0..model.layers().len())
        .map(|i| {
            let opts = group_options(model, i, i + 1, &[parts]);
            let option = opts
                .iter()
                .copied()
                .find(|o| {
                    matches!(o, PartitionOption::Split { dim: d, parts: p } if *d == dim && *p == parts)
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

/// One piece's slot assignment replayed from the graph: a value takes the
/// lowest slot no live value holds, keeps it until its last reader has run,
/// and a slot is as long as its largest tenant.
#[derive(Default)]
struct PieceSlots {
    lens: Vec<usize>,
    /// Reads each slot's tenant still has coming; 0 = free.
    pending: Vec<usize>,
    /// The slot written last: where an in-place BN/ReLU may work.
    last: Option<usize>,
    scratch: usize,
}

impl PieceSlots {
    /// A value of `len` floats that `readers` nodes read, computed from the
    /// values in `reads` (`None`: the piece's input, which holds no slot).
    fn write(&mut self, len: usize, readers: usize, reads: &[Option<usize>]) -> Option<usize> {
        let free = self.pending.iter().position(|&p| p == 0);
        let slot = free.unwrap_or_else(|| {
            self.lens.push(0);
            self.pending.push(0);
            self.lens.len() - 1
        });
        self.lens[slot] = self.lens[slot].max(len);
        self.pending[slot] = readers;
        for read in reads.iter().flatten() {
            self.pending[*read] -= 1;
        }
        self.last = Some(slot);
        self.last
    }
}

/// Replays one piece over `nodes` — each with the extent (rows, columns or
/// channels) of its output the piece computes and, under a span plan, the
/// sub-span it reads of every input — from node shapes alone. `sliced` is
/// the extent of the input slice a piece that does not take its group's whole
/// input writes first. Batch norm and ReLU rewrite the value they read where
/// it lies when it was written last and nothing else reads it, else a copy;
/// a flatten writes nothing; an LSTM adds two `[hidden]` states and `4·hidden`
/// gate pre-activations per timestep plus one step's of scratch.
fn piece_slots(
    model: &LinearModel,
    nodes: &[(NodeId, usize, Vec<usize>)],
    axis: usize,
    sliced: Option<usize>,
) -> PieceSlots {
    let graph = model.graph();
    let node = |id: NodeId| graph.node(id).expect("node of the model's graph");
    // Output length of `id` with dimension `axis` cut down to `extent`.
    let cut = |id: NodeId, extent: usize| {
        let shape = &node(id).output_shape;
        match shape.dims().get(axis) {
            Some(full) => shape.len() / full * extent,
            None => shape.len(),
        }
    };
    let readers = |id: NodeId| {
        let reads = nodes.iter().flat_map(|(n, ..)| &node(*n).inputs);
        reads.filter(|input| **input == id).count()
    };
    let seed = node(nodes[0].0).inputs[0];
    let mut slots = PieceSlots::default();
    // Where each value lives and its extent; a value not listed is the input.
    let mut at: HashMap<NodeId, (Option<usize>, usize)> = HashMap::new();
    if let Some(extent) = sliced {
        at.insert(
            seed,
            (
                slots.write(cut(seed, extent), readers(seed), &[None]),
                extent,
            ),
        );
    }
    for (id, extent, reads) in nodes {
        let n = node(*id);
        let mut ins = Vec::new();
        for (k, input) in n.inputs.iter().enumerate() {
            let (mut slot, held) = at.get(input).copied().unwrap_or((None, usize::MAX));
            if let Some(read) = reads.get(k).filter(|read| **read != held) {
                slot = slots.write(cut(*input, *read), 1, &[slot]);
            }
            ins.push(slot);
        }
        let alias = |slots: &mut PieceSlots, slot: Option<usize>| {
            if let Some(s) = slot {
                slots.pending[s] += readers(*id);
                slots.pending[s] -= 1;
            }
            slot
        };
        let slot = match n.op {
            LayerOp::Flatten => alias(&mut slots, ins[0]),
            LayerOp::BatchNorm | LayerOp::Relu => match ins[0] {
                Some(s) if slots.last == ins[0] && slots.pending[s] == 1 => {
                    alias(&mut slots, ins[0])
                }
                _ => slots.write(cut(*id, *extent), readers(*id), &ins[..1]),
            },
            _ => {
                if let LayerOp::Lstm { hidden } = n.op {
                    let steps = n.output_shape.dims()[0];
                    slots.scratch = slots.scratch.max(2 * hidden + 4 * hidden * (steps + 1));
                }
                slots.write(cut(*id, *extent), readers(*id), &ins)
            }
        };
        at.insert(*id, (slot, *extent));
    }
    slots
}

/// The activation bytes a compiled `plan` should hold at pool width 1: one
/// lane, each slot as long as the longest any piece of the plan puts there
/// (plus the largest scratch), one join buffer per group, and the output of every
/// piece whose join is gathered — all but single pieces and channel pieces,
/// which write their join directly. Counted from node shapes and
/// [`SpanPlan`] hulls, not from compiled steps.
fn planned_activation_bytes(model: &LinearModel, plan: &ExecutionPlan) -> usize {
    let graph = model.graph();
    let node = |id: NodeId| graph.node(id).expect("node of the model's graph");
    let mut lane = PieceSlots::default();
    let mut cover = |piece: PieceSlots| {
        lane.lens.resize(lane.lens.len().max(piece.lens.len()), 0);
        for (mine, theirs) in lane.lens.iter_mut().zip(&piece.lens) {
            *mine = (*mine).max(*theirs);
        }
        lane.scratch = lane.scratch.max(piece.scratch);
    };
    let mut kept = 0;
    for g in plan.groups() {
        let layers = &model.layers()[g.start..g.end];
        let nodes: Vec<NodeId> = layers.iter().flat_map(|l| l.nodes.clone()).collect();
        let seed = node(nodes[0]).inputs[0];
        let out_len = layers[layers.len() - 1].out_shape.len();
        kept += out_len;
        // Every node at its full channel extent.
        let whole = || {
            let extent = |id: &NodeId| node(*id).output_shape.dims()[0];
            nodes.iter().map(move |id| (*id, extent(id), Vec::new()))
        };
        match g.option {
            PartitionOption::Single => {
                cover(piece_slots(model, &whole().collect::<Vec<_>>(), 0, None))
            }
            PartitionOption::Split { dim, parts } => {
                let (axis, ranges) = split_ranges(layers, dim, parts);
                if dim != PartDim::Channel {
                    kept += out_len;
                }
                // A conv or dense head takes the whole input, from its node
                // on; a channel-local group slices the input first.
                let head = nodes.iter().rposition(|&id| {
                    matches!(node(id).op, LayerOp::Conv2d { .. } | LayerOp::Dense { .. })
                });
                for r in ranges {
                    let piece = if dim == PartDim::Channel {
                        let from = head.unwrap_or(0);
                        let nodes: Vec<_> = whole()
                            .skip(from)
                            .map(|(id, ..)| (id, r.len(), Vec::new()))
                            .collect();
                        piece_slots(model, &nodes, 0, head.is_none().then_some(r.len()))
                    } else {
                        let seed_shape = &node(seed).output_shape;
                        let span = SpanPlan::new(graph, &nodes, seed, seed_shape, axis, r)
                            .expect("spatial group");
                        let reads = |n: &gillis_model::span::SpanNode| {
                            n.reads.iter().map(|r| r.len()).collect()
                        };
                        let nodes: Vec<_> = span
                            .nodes
                            .iter()
                            .map(|n| (n.id, n.out.len(), reads(n)))
                            .collect();
                        piece_slots(model, &nodes, axis, Some(span.seed_span.len()))
                    };
                    cover(piece);
                }
            }
        }
    }
    let lane = lane.lens.iter().sum::<usize>() + lane.scratch;
    (lane + kept) * std::mem::size_of::<f32>()
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
/// lane, joins and piece outputs; warm single queries must allocate nothing; and, since a
/// query is a batch of one on the same buffers, after `reserve_batch(N)` a
/// warm batch of `N` and the single query after it must allocate nothing
/// either, without the plan's activation figure moving with the buffers'
/// growth. Every output carries the bits of the unpartitioned
/// `Executor::forward`, the oracle.
fn smoke_plan(model: &LinearModel, weights: &ModelWeights, plan: &ExecutionPlan, name: &str) {
    const N: usize = 4;
    let queries: Vec<Tensor> = (0..N as u64).map(|i| query(model, 17 + i)).collect();
    let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
    let oracle = Executor::new(model.graph(), weights);
    let forward: Vec<Tensor> = queries
        .iter()
        .map(|q| oracle.forward(model, q).expect("forward"))
        .collect();
    let same_bits = |got: &[f32], want: &Tensor, what: &str| {
        let same = got
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same && got.len() == want.data().len(),
            "{name}: {what} diverges from forward"
        );
    };
    let single = |compiled: &mut CompiledPlanExec| {
        let (out, _) = compiled
            .run_raw_with_threads(weights, queries[N - 1].data(), 1)
            .expect("warm query");
        same_bits(out, &forward[N - 1], "single query");
    };
    let mut compiled = CompiledPlanExec::compile(model, plan, weights).expect("compile plan");
    let planned = planned_activation_bytes(model, plan);
    println!(
        "{name}: activation_bytes {} weight_bytes_streamed {}",
        compiled.activation_bytes(),
        compiled.weight_bytes_streamed()
    );
    assert_eq!(
        compiled.activation_bytes(),
        planned,
        "{name}: the compiled plan does not hold the planned lane, joins and piece outputs"
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
        for (item, want) in out.chunks_exact(out.len() / N).zip(&forward) {
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
        "{name}: warm queries, a warm batch-{N} and the single after it: 0 allocations, forward's bits"
    );
}

/// splitmix fold of every weight's bits in node order: one figure that
/// moves if any element of any tensor does.
fn weights_hash(model: &LinearModel, weights: &ModelWeights) -> u64 {
    let weighted = model.graph().nodes().iter().filter(|n| n.op.has_weights());
    weighted
        .flat_map(|n| weights.get(n.id).expect("weighted node").tensors())
        .flat_map(|t| t.data())
        .fold(0x6769_6c6c_6973_2d77, |h, x| {
            gillis_core::replication_seed(h, u64::from(x.to_bits()))
        })
}

/// FNV-1a over the bits of a compiled run of `plan` on a fixed query at the
/// ambient pool width: one figure that moves if any output bit does.
fn output_hash(model: &LinearModel, weights: &ModelWeights, plan: &ExecutionPlan) -> u64 {
    let mut compiled = CompiledPlanExec::compile(model, plan, weights).expect("compile plan");
    let (out, _) = compiled
        .run_raw(weights, query(model, 17).data())
        .expect("query");
    out.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// tiny-vgg, tiny-resnet, tiny-inception, tiny-mobilenet and a reduced RNN-2
/// at pool width 1 — the warm path must not allocate. Before that, one
/// `weights_hash` line per model, and one for an LSTM wide enough that its
/// 8 MiB `w_ih` is filled on the pool in 2 MiB pages, then one
/// `output_hash <model> <plan> <hex>` line per model and plan: CI compares
/// the lines across pool widths, the weight lines across builds too, and the
/// output lines of the scalar build with those of the `simd` build under
/// `GILLIS_NO_SIMD=1`. `--weights-hash` prints the lines alone.
fn main() {
    // `--smoke` is the only checking mode; the flag stays so CI's command
    // line does.
    let _ = gillis_bench::bench_args(&["--smoke", "--weights-hash"]);
    let hashes_only = std::env::args().any(|a| a == "--weights-hash");
    // The RNN's sizes are off the eight-lane body of the row dot product; its
    // forced split finds no partition and leaves one function per layer.
    let models = [
        (zoo::tiny_vgg(), ["single", "split2"], PartDim::Height),
        (
            zoo::tiny_resnet(),
            ["resnet single", "resnet split2"],
            PartDim::Height,
        ),
        (
            zoo::tiny_inception(),
            ["inception single", "inception split2"],
            PartDim::Height,
        ),
        (
            zoo::tiny_mobilenet(),
            ["mobilenet single", "mobilenet channel2"],
            PartDim::Channel,
        ),
        (
            zoo::rnn_sized(2, 20, 12),
            ["rnn single", "rnn per-layer"],
            PartDim::Height,
        ),
    ];
    let weights_of = |model: &LinearModel| {
        let weights = init_weights(model.graph(), gillis_bench::bench_seed(7)).expect("weights");
        let hash = weights_hash(model, &weights);
        println!("weights_hash {} {hash:016x}", model.name());
        weights
    };
    weights_of(&zoo::rnn_sized(1, 1024, 512));
    for (model, names, dim) in models {
        let weights = weights_of(&model);
        let plans = [
            ExecutionPlan::single_function(&model),
            forced_split_plan(&model, 2, dim),
        ];
        for (plan, label) in plans.iter().zip(["single", "split2"]) {
            let hash = output_hash(&model, &weights, plan);
            println!("output_hash {} {label} {hash:016x}", model.name());
        }
        if hashes_only {
            continue;
        }
        for (plan, name) in plans.iter().zip(names) {
            plan.validate(&model, u64::MAX).expect("valid plan");
            smoke_plan(&model, &weights, plan, name);
        }
    }
    if !hashes_only {
        println!(
            "\nwarm path is allocation-free on tiny-vgg, tiny-resnet, tiny-inception, tiny-mobilenet and rnn-2 at pool width 1."
        );
    }
}
