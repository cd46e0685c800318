//! The counted ledger: what a search, a deployment, a compiled plan and a
//! serving cell allocate or hold, and the weights' bits. `COUNTS.json` is its
//! sweep, `tests/counts.rs` its gate. Every value is the same at any
//! `GILLIS_THREADS`, in either build and under `GILLIS_NO_SIMD=1`. A counted
//! region never prints, and starts and ends once the process holds still.
//! The weights are drawn at `seed`, the compiled rows' queries at
//! `seed + 10 + i` and the simulator cells at `seed + 35`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use gillis::serving::{Deployment, Gillis};
use gillis_core::partition::split_ranges;
use gillis_core::{
    group_options, plan_batch_schedule, BatchPolicy, CompiledPlanExec, DpPartitioner, EvalCache,
    ExecutionPlan, PartDim, PartitionOption, PipelinePolicy, Placement, PlannedGroup, PolicyStack,
};
use gillis_faas::workload::ClosedLoop;
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::exec::Executor;
use gillis_model::span::{SpanNode, SpanPlan};
use gillis_model::weights::{init_weights, ModelWeights};
use gillis_model::{zoo, LayerOp, LinearModel, NodeId};
use gillis_perf::{PerfModel, TransferFormat};
use gillis_pool::{with_width_cap, Pool};
use gillis_tensor::scratch::{self, Site};
use gillis_tensor::Tensor;

use crate::sweep::{Row, Sweep};
use crate::{Claim, Experiment, ReferenceDeploy};

/// The ledger, committed as `COUNTS.json` at seed 7.
pub const COUNTS: Experiment =
    Experiment::new("counts", 7, counts, claims).committed("COUNTS.json");

/// Counts every allocation and the net live heap bytes of the whole process,
/// pool threads included. `alloc_zeroed` and `realloc` keep their default
/// bodies, which allocate and free through these two.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates to `System` unchanged; the counters are static atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

fn state() -> (u64, isize) {
    (ALLOCS.load(Ordering::SeqCst), LIVE.load(Ordering::SeqCst))
}

/// Returns once no thread has allocated or freed for one `window` (a test
/// harness reporting its other tests, a pool worker dropping a batch).
fn settle(window: Duration) {
    let mut before = state();
    loop {
        std::thread::sleep(window);
        let now = state();
        if now == before {
            return;
        }
        before = now;
    }
}

const QUIET: Duration = Duration::from_millis(2);

/// What `f` returns and the allocations the process made while it ran.
/// Counts only under [`CountingAlloc`].
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    settle(QUIET);
    let before = state().0;
    let out = f();
    settle(QUIET);
    (out, state().0 - before)
}

/// What `f` returns and the net heap bytes the process holds more after it
/// ran. Counts only under [`CountingAlloc`].
pub fn retained<R>(f: impl FnOnce() -> R) -> (R, isize) {
    settle(QUIET);
    let before = state().1;
    let out = f();
    settle(QUIET);
    (out, state().1 - before)
}

const BATCH: usize = 4;

/// The widths the compiled rows run at.
const WIDTHS: [usize; 3] = [1, 2, 4];

/// Floats of kernel scratch every pool thread holds before the first count.
const SCRATCH_FLOATS: usize = 1 << 18;

/// Runs the ledger; panics rather than record zeros without [`CountingAlloc`].
fn counts(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let ((), probe) = counted(|| drop(std::hint::black_box(Box::new(0u64))));
    assert!(probe > 0, "CountingAlloc is not the global allocator");
    // Every pool thread takes its first steps, which allocate, here, and
    // grows its kernel scratch past what any smoke model's kernel takes: a
    // worker that first runs a GEMM block inside a counted region allocates.
    let pool = Pool::global();
    let started = Barrier::new(pool.width());
    pool.for_each(pool.width(), &|_| {
        started.wait();
        scratch::reserve(Site::PackB, SCRATCH_FLOATS);
        scratch::reserve(Site::BatchGemv, SCRATCH_FLOATS);
    });
    settle(Duration::from_millis(50));
    // An uncounted compile-and-query builds process-wide lazy state.
    let (tiny, weights) = weighted(zoo::tiny_vgg(), seed);
    let plan = ExecutionPlan::single_function(&tiny);
    with_width_cap(1, || compiled_row(&tiny, &weights, &plan, "", (seed, 1)));
    let rows = WIDTHS
        .iter()
        .flat_map(|&threads| compiled_rows(seed, threads));
    let unwritten: Vec<Row> = with_width_cap(1, || rows.collect());
    let compiled = unwritten.iter().map(|r| Row(r.0[..7].to_vec())).collect();
    let sections = vec![
        ("dp", vec![with_width_cap(1, dp_row)]),
        ("deploy", vec![with_width_cap(1, deploy_row)]),
        ("compiled", compiled),
        ("simulator", simulator_rows(seed.wrapping_add(35))),
        ("weights", weight_rows(seed)),
    ];
    let title = "heap allocations, retained bytes and plan bytes, counted";
    Sweep {
        unwritten,
        ..Sweep::new("counts", title, sections)
    }
}

/// A cold latency-optimal VGG-11 search on Lambda at width 1: its
/// allocations and the order statistics it integrates; then the candidate
/// cells a cached search of the same model stores.
fn dp_row() -> Row {
    let vgg = zoo::vgg11();
    let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
    let search = DpPartitioner::default;
    let (plan, allocations) = counted(|| search().partition(&vgg, &perf));
    plan.expect("vgg11 is partitionable");
    let order_statistics = perf.comm.order_statistics_computed();
    let cache = Arc::new(EvalCache::new());
    let cached = search().with_cache(Arc::clone(&cache));
    cached.partition(&vgg, &perf).expect("cached search");
    Row(vec![
        ("model", "vgg11".into()),
        ("platform", "lambda".into()),
        ("allocations", allocations.into()),
        ("order_statistics", order_statistics.into()),
        ("cached_choices", cache.stats().choices.into()),
    ])
}

/// The heap ten latency-optimal Lambda deployments of one ResNet-101 keep:
/// each holds its plan and prediction and shares the model. Run under a
/// width cap of 1, so no pool thread allocates while the count settles.
fn deploy_row() -> Row {
    const KEPT: usize = 10;
    let model = zoo::resnet101();
    let deploy = || Gillis::new(model.clone()).deploy().expect("deploy");
    // The first deploy fills what is built once per process.
    drop(deploy());
    let (_kept, retained) = retained(|| (0..KEPT).map(|_| deploy()).collect::<Vec<Deployment>>());
    let retained = u64::try_from(retained).expect("deployments hold heap");
    Row(vec![
        ("model", "resnet101".into()),
        ("deployments", KEPT.into()),
        ("retained_bytes", retained.into()),
    ])
}

/// One `ReferenceDeploy::vgg11` cell of 400 queries per serving driver, at
/// the saturation rate of four masters, served at `seed`: the allocations of
/// the whole run.
fn simulator_rows(seed: u64) -> Vec<Row> {
    const QUERIES: usize = 400;
    const MASTERS: usize = 4;
    let deploy = ReferenceDeploy::vgg11();
    let rt = deploy.runtime(&deploy.plan);
    let rate = deploy.saturation_qps(MASTERS);
    let lanes = PipelinePolicy::with_lanes(MASTERS);
    let closed = ClosedLoop::new(MASTERS, QUERIES, Micros::ZERO).expect("workload");
    let batching = BatchPolicy::single(4.0 * deploy.predicted_ms, 8);
    let (model, plan, platform) = (&deploy.model, &deploy.plan, &deploy.platform);
    let schedule = plan_batch_schedule(model, plan, platform, TransferFormat::F32, &batching, rate)
        .expect("schedule");
    let serve = |driver: &str| match driver {
        "serve_open_loop" => rt.serve_open_loop(rate, QUERIES, MASTERS, seed),
        "serve_open_loop_batched" => {
            rt.serve_open_loop_batched(&batching, &schedule, rate, QUERIES, MASTERS, seed)
        }
        "serve_open_loop_pipelined" => {
            rt.serve_open_loop_pipelined(&lanes, rate, QUERIES, MASTERS, seed)
        }
        _ => rt.serve_workload(closed.clone(), seed),
    };
    let row = |driver: &str| {
        let (report, allocations) = counted(|| serve(driver));
        report.expect("served");
        Row(vec![
            ("driver", driver.into()),
            ("queries", QUERIES.into()),
            ("allocations", allocations.into()),
        ])
    };
    let drivers = [
        "serve_open_loop",
        "serve_open_loop_batched",
        "serve_open_loop_pipelined",
        "serve_workload",
    ];
    let mut rows = drivers.map(row).to_vec();
    let (_, allocations) = counted(|| with_width_cap(1, || rt.simulate_many(QUERIES, seed)));
    rows.push(Row(vec![
        ("driver", "simulate_many".into()),
        ("queries", QUERIES.into()),
        ("allocations", allocations.into()),
    ]));
    rows
}

/// A model and its weights, drawn at `seed`.
fn weighted(model: LinearModel, seed: u64) -> (LinearModel, ModelWeights) {
    let weights = init_weights(model.graph(), seed).expect("weights");
    (model, weights)
}

/// The models the compiled path is counted on.
fn smoke_models() -> [LinearModel; 5] {
    [
        zoo::tiny_vgg(),
        zoo::tiny_resnet(),
        zoo::tiny_inception(),
        zoo::tiny_mobilenet(),
        zoo::rnn_sized(2, 20, 12),
    ]
}

/// A splitmix fold of every weight's bits, for the smoke models and an LSTM
/// whose 8 MiB `w_ih` is filled on the pool in 2 MiB pages.
fn weight_rows(seed: u64) -> Vec<Row> {
    let models = smoke_models().into_iter();
    let row = |(model, weights): (LinearModel, ModelWeights)| {
        let weighted = model.graph().nodes().iter().filter(|n| n.op.has_weights());
        let hash = weighted
            .flat_map(|n| weights.get(n.id).expect("weighted node").tensors())
            .flat_map(|t| t.data())
            .fold(0x6769_6c6c_6973_2d77, |h, x| {
                gillis_core::replication_seed(h, u64::from(x.to_bits()))
            });
        Row(vec![
            ("model", model.name().into()),
            ("weights_hash", format!("{hash:016x}").as_str().into()),
        ])
    };
    let models = models.chain([zoo::rnn_sized(1, 1024, 512)]);
    models.map(|m| weighted(m, seed)).map(row).collect()
}

/// Every smoke model whole and split two ways per layer (tiny-mobilenet by
/// channel and by height: depthwise whole-plane and as a haloed row band),
/// run at `threads` (everything else of a row under the caller's width
/// cap). The RNN's split leaves a function a layer.
fn compiled_rows(seed: u64, threads: usize) -> Vec<Row> {
    let height = &[("height2", PartDim::Height)][..];
    let both = &[("channel2", PartDim::Channel), height[0]][..];
    let cases = smoke_models().map(|m| weighted(m, seed)).into_iter();
    let at = (seed, threads);
    let mut rows = Vec::new();
    for ((model, weights), splits) in cases.zip([height, height, height, both, height]) {
        let splits = splits.iter().map(|&(l, dim)| (l, split2(&model, dim)));
        let single = ("single", ExecutionPlan::single_function(&model));
        for (label, plan) in std::iter::once(single).chain(splits) {
            plan.validate(&model, u64::MAX).expect("valid plan");
            rows.push(compiled_row(&model, &weights, &plan, label, at));
        }
    }
    rows
}

/// One compiled plan run at `threads`: the allocations of its compile, of 20
/// warm queries and, after `reserve_batch(4)`, of a warm batch of 4 and a
/// query; the bytes it holds and streams. Then, for the claims: the bytes
/// counted from the graph, the figure after the batch, and whether every
/// output had forward's bits. A row at more than one thread names its width
/// after the plan (`height2 w4`).
fn compiled_row(
    model: &LinearModel,
    weights: &ModelWeights,
    plan: &ExecutionPlan,
    label: &str,
    (seed, threads): (u64, usize),
) -> Row {
    let shape = model.input_shape();
    let query = |i| Tensor::uniform(shape.clone(), seed.wrapping_add(10 + i), -1.0, 1.0);
    let queries: Vec<Tensor> = (0..BATCH as u64).map(query).collect();
    let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
    let oracle = Executor::new(model.graph(), weights);
    let forward = |q: &Tensor| oracle.forward(model, q).expect("forward");
    let forward: Vec<Tensor> = queries.iter().map(forward).collect();
    let out_len = forward[0].data().len();
    let mut same = true;
    // The first `n` queries as one batch, each item against its oracle.
    let mut run = |compiled: &mut CompiledPlanExec, n: usize| {
        let items = &flat[..n * shape.len()];
        let (out, _) = compiled
            .run_batch_raw_with_threads(weights, items, n, threads)
            .expect("warm run");
        let bits = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
        let equal = |(item, want): (&[f32], &Tensor)| item.iter().zip(want.data()).all(bits);
        same &= out.len() == n * out_len && out.chunks(out_len).zip(&forward).all(equal);
    };
    let (compiled, compile_allocs) = counted(|| CompiledPlanExec::compile(model, plan, weights));
    let mut compiled = compiled.expect("compile plan");
    (0..3).for_each(|_| run(&mut compiled, 1));
    // Read once the runs have opened a lane per thread a group can use.
    let activation_bytes = compiled.activation_bytes();
    let ((), warm) = counted(|| (0..20).for_each(|_| run(&mut compiled, 1)));
    compiled.reserve_batch(BATCH);
    // The first round grows the calling thread's kernel scratch to the batch.
    let mut round = |compiled: &mut CompiledPlanExec| [BATCH, 1].map(|n| run(compiled, n));
    round(&mut compiled);
    let (_, batch) = counted(|| round(&mut compiled));
    let streamed = compiled.weight_bytes_streamed();
    let reference = reference_bytes(model, plan, threads);
    let label = match threads {
        1 => label.to_string(),
        _ => format!("{label} w{threads}"),
    };
    Row(vec![
        ("model", model.name().into()),
        ("plan", label.as_str().into()),
        ("compile_allocs", compile_allocs.into()),
        ("warm_allocs", warm.into()),
        ("batch_allocs", batch.into()),
        ("activation_bytes", activation_bytes.into()),
        ("weight_bytes_streamed", streamed.into()),
        // The claims' checks: `counts` writes the seven cells above.
        ("reference_bytes", reference.into()),
        ("batch_bytes", compiled.activation_bytes().into()),
        ("forward_bits", if same { "equal" } else { "differ" }.into()),
    ])
}

/// Every layer split two ways along `dim` where the geometry allows it, any
/// other split otherwise, whole where none.
fn split2(model: &LinearModel, dim: PartDim) -> ExecutionPlan {
    let group = |i: usize| {
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
        let (start, end) = (i, i + 1);
        PlannedGroup {
            start,
            end,
            option,
            placement,
        }
    };
    ExecutionPlan::new((0..model.layers().len()).map(group).collect())
}

/// One piece's slots replayed from the graph: a value takes the lowest free
/// slot until its last reader has run; a slot is as long as its largest.
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
        let slot = self.pending.iter().position(|&p| p == 0);
        let slot = slot.unwrap_or_else(|| {
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

/// Replays one piece over `nodes`, each with the extent of its output the
/// piece computes and, under a span plan, the sub-span it reads of every
/// input. `sliced`: the extent of the input slice a piece writes first. BN
/// and ReLU work in place on the last-written value no one else reads; a
/// flatten writes nothing; an LSTM adds `2·hidden + 4·hidden·(steps + 1)`.
fn piece_slots(
    model: &LinearModel,
    nodes: &[(NodeId, usize, Vec<usize>)],
    axis: usize,
    sliced: Option<usize>,
) -> PieceSlots {
    let node = |id: NodeId| model.graph().node(id).expect("node of the model's graph");
    // Output length of `id` with dimension `axis` cut down to `extent`.
    let cut = |id: NodeId, extent: usize| {
        let (shape, len) = (&node(id).output_shape, node(id).output_shape.len());
        shape
            .dims()
            .get(axis)
            .map_or(len, |full| len / full * extent)
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
        let slot = slots.write(cut(seed, extent), readers(seed), &[None]);
        at.insert(seed, (slot, extent));
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
        let alias = |slots: &mut PieceSlots| {
            if let Some(s) = ins[0] {
                slots.pending[s] = slots.pending[s] + readers(*id) - 1;
            }
            ins[0]
        };
        let slot = match n.op {
            LayerOp::Flatten => alias(&mut slots),
            LayerOp::BatchNorm | LayerOp::Relu => match ins[0] {
                Some(s) if slots.last == ins[0] && slots.pending[s] == 1 => alias(&mut slots),
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

/// The activation bytes a compiled `plan` should hold after runs at
/// `threads`, from node shapes and [`SpanPlan`] hulls: one lane covering
/// every piece per thread a group can use, one join per group, and the
/// output of every piece but single and channel ones.
fn reference_bytes(model: &LinearModel, plan: &ExecutionPlan, threads: usize) -> usize {
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
        // From the `from`-th node on, every node at channel extent `extent`
        // (its full one for `None`).
        let channels = |from: usize, extent: Option<usize>| -> Vec<_> {
            let full = |id: &NodeId| node(*id).output_shape.dims()[0];
            let at = |id: &NodeId| (*id, extent.unwrap_or_else(|| full(id)), Vec::new());
            nodes[from..].iter().map(at).collect()
        };
        let PartitionOption::Split { dim, parts } = g.option else {
            cover(piece_slots(model, &channels(0, None), 0, None));
            continue;
        };
        let (axis, ranges) = split_ranges(layers, dim, parts);
        kept += if dim == PartDim::Channel { 0 } else { out_len };
        // A conv or dense head takes the whole input, from its node on; a
        // channel-local group slices the input first.
        let head = nodes
            .iter()
            .rposition(|&id| matches!(node(id).op, LayerOp::Conv2d { .. } | LayerOp::Dense { .. }));
        for r in ranges {
            cover(if dim == PartDim::Channel {
                let nodes = channels(head.unwrap_or(0), Some(r.len()));
                piece_slots(model, &nodes, 0, head.is_none().then_some(r.len()))
            } else {
                let seed_shape = &node(seed).output_shape;
                let span =
                    SpanPlan::new(graph, &nodes, seed, seed_shape, axis, r).expect("spatial group");
                let reads = |n: &SpanNode| n.reads.iter().map(|r| r.len()).collect();
                let piece = |n: &SpanNode| (n.id, n.out.len(), reads(n));
                let nodes: Vec<_> = span.nodes.iter().map(piece).collect();
                piece_slots(model, &nodes, axis, Some(span.seed_span.len()))
            });
        }
    }
    let lane = lane.lens.iter().sum::<usize>() + lane.scratch;
    let parts = |g: &PlannedGroup| match g.option {
        PartitionOption::Split { parts, .. } => parts,
        PartitionOption::Single => 1,
    };
    let lanes = threads.clamp(1, plan.groups().iter().map(parts).max().unwrap_or(1));
    (lanes * lane + kept) * std::mem::size_of::<f32>()
}

/// The ledger's bounds: the old gates', and what every compiled row must
/// read. A failed claim names its rows.
fn claims(sweep: &Sweep) -> Vec<Claim> {
    let (dp, deploy) = (&sweep.sections[0].1[0], &sweep.sections[1].1[0]);
    let (allocations, statistics) = (dp.f64("allocations"), dp.f64("order_statistics"));
    let retained = deploy.f64("retained_bytes");
    // `holds` of the `keys` cells of every compiled row; the rows it fails.
    let every = |name, keys: &[&str], holds: fn(&[String]) -> bool| {
        let named = ["model", "plan"].iter().chain(keys);
        let cells = |r: &Row| named.clone().map(|k| r.get(k).text()).collect::<Vec<_>>();
        let failed = sweep
            .unwritten
            .iter()
            .map(cells)
            .filter(|c| !holds(&c[2..]));
        let failed: Vec<String> = failed.map(|c| c.join(" ")).collect();
        Claim::new(
            name,
            failed.is_empty(),
            format!("{keys:?} fail on {failed:?}"),
        )
    };
    vec![
        Claim::new(
            "a cold VGG-11/Lambda search at width 1 allocates <= 2,300 times",
            allocations <= 2_300.0,
            format!("{allocations} allocations"),
        ),
        Claim::new(
            "it integrates 12 order statistics: the default degrees, with and without the master",
            statistics == 12.0,
            format!("{statistics} order statistics"),
        ),
        Claim::new(
            "ten ResNet-101 deployments retain < 66,327 B, one deep copy of the model",
            retained < 66_327.0,
            format!("{retained} B"),
        ),
        every(
            "20 warm single queries allocate 0 times, at widths 1, 2 and 4",
            &["warm_allocs"],
            |c| c[0] == "0",
        ),
        every(
            "after reserve_batch(4), a warm batch of 4 and the single query after it allocate 0 times, at widths 1, 2 and 4",
            &["batch_allocs"],
            |c| c[0] == "0",
        ),
        every(
            "activation bytes equal the count made from the graph, before and after the batch",
            &["activation_bytes", "batch_bytes", "reference_bytes"],
            |c| c[0] == c[2] && c[1] == c[2],
        ),
        every(
            "every output carries Executor::forward's bits",
            &["forward_bits"],
            |c| c[0] == "equal",
        ),
    ]
}
