//! Deployment-time compiled execution: resolved geometry, folded batch
//! norms, and one planned activation arena.
//!
//! A partitioned piece needs weight row ranges for a channel split, halo
//! spans for a spatial one, and a buffer per value. None of that depends on
//! the query — only on the `(plan, model)` pair, which is fixed at deployment
//! time. This module resolves all of it in a one-time compile step, and is
//! the only executor of partitioned pieces; the reference
//! [`Executor`](crate::exec::Executor) runs the unpartitioned model, as the
//! oracle every piece is held to:
//!
//! - [`CompiledSegment`] — one fork-join piece of one layer group, lowered to
//!   a flat list of steps with precomputed shapes, asymmetric paddings,
//!   folded batch-norm constants and weight row ranges — an f32 piece copies
//!   no conv, dense or depthwise weight, it borrows the rows from the live
//!   map on every run. A step names its operands: it reads the caller's
//!   input or arena slots and writes one slot, and slots are assigned at
//!   compile time by liveness — a value keeps its slot until its last reader
//!   has run, then the slot is handed to the next value — so a chain runs in
//!   two slots, a residual block in three, an inception module in one per
//!   live branch. Batch norm and ReLU are the epilogue of the step that
//!   produces their input, where nothing else reads it: the kernel applies
//!   them to each element it writes, so they cost no pass of their own. An
//!   LSTM step adds its states and gate pre-activations as kernel scratch,
//!   planned the same way.
//!   Every run is `n` item-major queries wide and a single query is `n = 1`
//!   of the same steps.
//! - [`Arena`] — the slots and scratch a segment runs on, sized from an
//!   [`ArenaPlan`]. The plan is the segment's; the storage is whoever runs
//!   it: a plan executor deals the pieces of a group to a few shared lanes
//!   (every step overwrites all it later reads, so a lane is never cleared
//!   between pieces), a standalone [`CompiledSegment::run`] uses a private
//!   arena made on first use.
//! - [`CompiledPartition`] — all pieces of one group plus the join geometry
//!   (concat axis, per-piece slots) needed to join piece outputs into a
//!   caller-owned buffer in exactly [`Tensor::concat`]'s memory order.
//!
//! A group compiles when every node reads the group's input or an earlier
//! node of the group: chains, residual blocks (`Add`) and inception modules
//! (`Concat`) alike, whole or as a row or column piece; channel pieces stay
//! chains.
//!
//! Every compiled fast path is bit-identical to the reference executor: conv
//! steps call the interpreter's own GEMM driver on the same weight rows, an
//! LSTM step is the interpreter's sequence kernel on the arena's scratch,
//! batch-norm folding uses the executor's exact expressions, `Add` and
//! `Concat` are [`Tensor::add`] and [`Tensor::concat`] element for element,
//! and gathers copy in [`Tensor::concat`]'s loop order. Property tests at the
//! bottom of this module (and in `gillis-core`) compare outputs with
//! `f32::to_bits`.

use std::collections::HashMap;
use std::ops::Range;

use gillis_tensor::ops::{
    apply_epilogue, batch_norm_fold, conv2d_into, conv2d_output_hw, dense_multi_into,
    depthwise_conv2d_into, global_avg_pool_into, lstm_gates_len, lstm_sequence_into,
    max_pool2d_into, BatchNormParams, Conv2dParams, Epilogue, LstmParams, Padding, Pool2dParams,
};
use gillis_tensor::{Shape, Tensor};

use crate::error::ModelError;
use crate::graph::{Graph, NodeId};
use crate::linear::MergedLayer;
use crate::op::LayerOp;
use crate::span::{span_padding, SpanPlan};
use crate::weights::{ModelWeights, NodeWeights};
use crate::Result;

/// What slice of a layer group's output one compiled piece computes: the
/// whole of [`Executor::run_segment`](crate::exec::Executor::run_segment)'s
/// output, or its slice along one dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PieceSpec {
    /// The whole group output (an unpartitioned group).
    Full,
    /// Output rows (height dimension) of a spatial partition.
    Rows(Range<usize>),
    /// Output columns (width dimension) of a spatial partition.
    Cols(Range<usize>),
    /// Output channels of a weight-split or channel-local partition.
    Channels(Range<usize>),
}

/// An empty placeholder that [`CompiledSegment::compile`] takes and ignores:
/// a compiled step copies no weight, so there is nothing to cache. It stays
/// only because the repo benchmark's harness (`benchmark/`, whose source is
/// kept fixed so its runs stay comparable) passes one.
#[derive(Debug, Default)]
pub struct PanelCache;

impl PanelCache {
    /// The placeholder.
    pub fn new() -> Self {
        PanelCache
    }
}

/// One lowered operation with every parameter pre-resolved.
#[derive(Debug)]
enum StepKind {
    /// Copy `range` of the operand along a dimension with the given slice
    /// geometry: the seed slice of a partitioned piece, or the sub-span a
    /// node of a [`SpanPlan`] reads of a value evaluated over a wider hull.
    Slice {
        outer: usize,
        size: usize,
        inner: usize,
        range: Range<usize>,
    },
    /// Verbatim copy of the operand (flatten-only chains, and the working
    /// copy of a sweep whose input someone else still reads).
    Copy,
    /// Element-wise sum of two operands ([`Tensor::add`]).
    Add,
    /// Per-item channel concatenation of the operands, in order
    /// ([`Tensor::concat`] along dimension 0).
    Concat,
    /// Conv over filter rows `rows` of node `id`, borrowed from the live
    /// weight map at run time (see [`weight_rows`]).
    Conv {
        id: NodeId,
        rows: Range<usize>,
        params: Conv2dParams,
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_hw: (usize, usize),
    },
    /// Depthwise conv over filter rows `rows` of node `id`, borrowed like
    /// [`StepKind::Conv`]'s.
    Depthwise {
        id: NodeId,
        rows: Range<usize>,
        params: Conv2dParams,
        c: usize,
        in_h: usize,
        in_w: usize,
        out_hw: (usize, usize),
    },
    Pool {
        params: Pool2dParams,
        c: usize,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
    },
    GlobalAvgPool {
        c: usize,
        plane: usize,
    },
    /// Dense over weight rows `rows` of node `id`, borrowed like
    /// [`StepKind::Conv`]'s.
    Dense {
        id: NodeId,
        rows: Range<usize>,
    },
    /// LSTM layer of node `id` over `[steps, input]` sequences, its three
    /// tensors borrowed like [`StepKind::Conv`]'s rows.
    Lstm {
        id: NodeId,
        steps: usize,
        input: usize,
        hidden: usize,
    },
}

impl StepKind {
    /// Floats of kernel scratch one item needs: the `[hidden]` hidden and
    /// cell states of an LSTM step, then its gate pre-activations.
    fn scratch_len(&self) -> usize {
        match self {
            StepKind::Lstm { steps, hidden, .. } => 2 * hidden + lstm_gates_len(*hidden, 1, *steps),
            _ => 0,
        }
    }
}

/// Where a step finds an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// The caller's input, which no step writes.
    Input,
    /// An arena slot.
    Slot(usize),
}

/// One operand of a step and its per-item length.
#[derive(Debug, Clone, Copy)]
struct Read {
    from: Operand,
    len: usize,
}

/// A lowered op, the operands it reads and the arena slot it writes — never
/// one it reads — plus the element-wise ops it applies to each element it
/// writes there (see [`exec_step`]).
#[derive(Debug)]
struct Step {
    kind: StepKind,
    reads: Vec<Read>,
    writes: usize,
    /// Output length of one item.
    out_len: usize,
    /// Elements per channel of the output: `h·w` of a CHW value, the whole
    /// item otherwise.
    plane: usize,
    sweeps: Vec<Epilogue>,
}

/// Per-item lengths of an arena's slots and kernel scratch: what one piece's
/// steps need — each slot as long as its largest tenant — or, widened over
/// several pieces by [`ArenaPlan::cover`], what a lane they share needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArenaPlan {
    slots: Vec<usize>,
    scratch: usize,
}

impl ArenaPlan {
    /// Bytes of one item's slots and scratch.
    pub fn bytes(&self) -> usize {
        (self.slots.iter().sum::<usize>() + self.scratch) * std::mem::size_of::<f32>()
    }

    /// Widens the plan so an arena reserved for it also holds `other`.
    pub fn cover(&mut self, other: &ArenaPlan) {
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            *mine = (*mine).max(*theirs);
        }
        self.scratch = self.scratch.max(other.scratch);
    }
}

/// Grows `buf` to `len` zeroed floats; a first allocation comes zeroed from
/// the allocator, so pages no step writes are never touched.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.is_empty() {
        *buf = vec![0.0; len];
    } else if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// The activation storage compiled steps run on: slots and LSTM scratch,
/// grown to the widest batch reserved or run, never shrunk and never
/// cleared — every step overwrites the whole of its output and of the
/// scratch it reads before anything reads them, so what an earlier run (of
/// this piece or of another sharing the arena) left behind is never seen.
#[derive(Debug, Default)]
pub struct Arena {
    slots: Vec<Vec<f32>>,
    scratch: Vec<f32>,
}

impl Arena {
    /// Grows the arena so runs of up to `n` items of `plan` allocate nothing.
    pub fn reserve(&mut self, plan: &ArenaPlan, n: usize) {
        if self.slots.len() < plan.slots.len() {
            self.slots.resize_with(plan.slots.len(), Vec::new);
        }
        for (buf, len) in self.slots.iter_mut().zip(&plan.slots) {
            grow(buf, n * len);
        }
        grow(&mut self.scratch, n * plan.scratch);
    }
}

/// The `[out, ..]` weight and `[out]` bias of a conv, dense or depthwise
/// node.
fn row_weights(map: &ModelWeights, id: NodeId) -> Result<(&Tensor, &Tensor)> {
    match map.get(id)? {
        NodeWeights::Conv { weight, bias }
        | NodeWeights::Dense { weight, bias }
        | NodeWeights::Depthwise { weight, bias } => Ok((weight, bias)),
        _ => Err(ModelError::BadWeights(format!(
            "node {} expected conv, dense or depthwise weights",
            id.0
        ))),
    }
}

/// Rows `rows` (all of them for `None`) of a `[out, ..]` tensor. Rows of a
/// row-major tensor are contiguous, so a channel piece borrows its filter
/// subset from the live map instead of owning a copy.
fn tensor_rows<'a>(t: &'a Tensor, rows: Option<&Range<usize>>) -> Result<&'a [f32]> {
    let out = t.shape().dims().first().copied().unwrap_or(0);
    let rows = rows.cloned().unwrap_or(0..out);
    let row = t.data().len() / out.max(1);
    t.data()
        .get(rows.start * row..rows.end * row)
        .ok_or_else(|| {
            ModelError::BadWeights(format!("rows {rows:?} out of range for {:?}", t.shape()))
        })
}

/// Weight and bias rows `rows` of conv, dense or depthwise node `id`.
fn weight_rows<'a>(
    map: &'a ModelWeights,
    id: NodeId,
    rows: &Range<usize>,
) -> Result<(&'a [f32], &'a [f32])> {
    let (w, b) = row_weights(map, id)?;
    Ok((tensor_rows(w, Some(rows))?, tensor_rows(b, Some(rows))?))
}

/// The parameters of LSTM node `id`, if they fit the compiled geometry.
fn lstm_weights(
    map: &ModelWeights,
    id: NodeId,
    input: usize,
    hidden: usize,
) -> Result<&LstmParams> {
    match map.get(id)? {
        NodeWeights::Lstm(p)
            if p.validate().is_ok() && (p.input_size(), p.hidden_size()) == (input, hidden) =>
        {
            Ok(p)
        }
        _ => Err(ModelError::BadWeights(format!(
            "node {} expected lstm weights of input {input}, hidden {hidden}",
            id.0
        ))),
    }
}

/// Pairs up the `n` item-major activations of `input` and `out`.
fn items<'a>(
    n: usize,
    input: &'a [f32],
    out: &'a mut [f32],
) -> impl Iterator<Item = (&'a [f32], &'a mut [f32])> {
    input
        .chunks_exact(input.len() / n)
        .zip(out.chunks_exact_mut(out.len() / n))
}

/// Writes `out` a plane at a time — `write(at, plane)` fills it with
/// elements `at ..` — and hands each plane to `sweeps` while it is in cache.
fn by_plane(
    out: &mut [f32],
    plane: usize,
    sweeps: &[Epilogue],
    mut write: impl FnMut(usize, &mut [f32]),
) {
    for (at, dst) in (0..).step_by(plane).zip(out.chunks_mut(plane)) {
        write(at, dst);
        apply_epilogue(sweeps, plane, at, dst);
    }
}

/// Executes one lowered op over `n` item-major activations, from its
/// operands (`src(k)` is the `k`-th) into `out`; a single query is `n = 1`.
/// Every arm applies the step's sweeps as it writes: the conv, depthwise,
/// pooling and dense kernels take them as their epilogue, the loops here
/// apply them to each plane or row they have just written.
///
/// Conv, dense and LSTM steps hand the whole batch to their kernels, so it
/// shares one traversal of the weights: the conv driver loops over the items
/// inside each reduction block, the dense kernel dots each weight row against
/// every item, and the LSTM kernel does that for `w_ih` against every
/// timestep of every item and for `w_hh` once per timestep, working in
/// `scratch` (`n` times the step's [`StepKind::scratch_len`]). Depthwise and
/// pooling steps hand the window driver all `n` items in one call, so its
/// `(item, channel)` planes split across the pool together. The rest run
/// once per item. Either way an item's output is bit-identical to running it
/// alone (proptest-enforced for the batched kernels in `gillis-tensor`), and
/// on the warm path every arm is allocation-free: buffers are caller-owned,
/// kernel temporaries come from the per-thread scratch arena, and weight
/// lookups borrow.
fn exec_step<'a>(
    step: &Step,
    map: &ModelWeights,
    n: usize,
    src: impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
    scratch: &mut [f32],
) -> Result<()> {
    let input = src(0);
    let (sweeps, plane) = (&step.sweeps[..], step.plane);
    match &step.kind {
        StepKind::Slice {
            outer,
            size,
            inner,
            range,
        } => {
            let rlen = range.len() * inner;
            for (input, out) in items(n, input, out) {
                for o in 0..*outer {
                    let src = o * size * inner + range.start * inner;
                    let dst = &mut out[o * rlen..(o + 1) * rlen];
                    dst.copy_from_slice(&input[src..src + rlen]);
                    apply_epilogue(sweeps, plane, o * rlen, dst);
                }
            }
        }
        StepKind::Copy => by_plane(out, plane, sweeps, |at, dst| {
            dst.copy_from_slice(&input[at..at + dst.len()]);
        }),
        StepKind::Add => {
            let other = src(1);
            by_plane(out, plane, sweeps, |at, dst| {
                for ((o, a), b) in dst.iter_mut().zip(&input[at..]).zip(&other[at..]) {
                    *o = a + b;
                }
            });
        }
        StepKind::Concat => {
            let item = out.len() / n;
            let mut at = 0;
            for k in 0..step.reads.len() {
                let len = step.reads[k].len;
                for (part, out) in src(k).chunks(len.max(1)).zip(out.chunks_mut(item)) {
                    let dst = &mut out[at..at + len];
                    dst.copy_from_slice(part);
                    apply_epilogue(sweeps, plane, at, dst);
                }
                at += len;
            }
        }
        StepKind::Conv {
            id,
            rows,
            params,
            in_c,
            in_h,
            in_w,
            out_hw,
        } => {
            let (w, b) = weight_rows(map, *id, rows)?;
            conv2d_into(
                input,
                n,
                *in_c,
                *in_h,
                *in_w,
                w,
                Some(b),
                params,
                *out_hw,
                out,
                sweeps,
            );
        }
        StepKind::Depthwise {
            id,
            rows,
            params,
            c,
            in_h,
            in_w,
            out_hw,
        } => {
            let (w, b) = weight_rows(map, *id, rows)?;
            depthwise_conv2d_into(
                input,
                n,
                *c,
                *in_h,
                *in_w,
                w,
                Some(b),
                params,
                *out_hw,
                out,
                sweeps,
            );
        }
        StepKind::Pool {
            params,
            c,
            in_hw,
            out_hw,
        } => max_pool2d_into(input, n, *c, *in_hw, *out_hw, params, out, sweeps),
        StepKind::GlobalAvgPool { c, plane: in_plane } => {
            for (input, out) in items(n, input, out) {
                global_avg_pool_into(input, *c, *in_plane, out);
                apply_epilogue(sweeps, plane, 0, out);
            }
        }
        StepKind::Dense { id, rows } => {
            let (w, b) = weight_rows(map, *id, rows)?;
            dense_multi_into(w, input, Some(b), out, n, sweeps);
        }
        StepKind::Lstm {
            id,
            input: in_n,
            hidden,
            ..
        } => {
            let params = lstm_weights(map, *id, *in_n, *hidden)?;
            let (state, gates) = scratch.split_at_mut(2 * n * hidden);
            state.fill(0.0);
            let state = state.split_at_mut(n * hidden);
            lstm_sequence_into(params, n, input, state, gates, out);
            // Each output row is the next timestep's state, so a sweep
            // (no zoo model has one here) waits for the whole sequence.
            apply_epilogue(sweeps, plane, 0, out);
        }
    }
    Ok(())
}

/// One fork-join piece of one layer group, compiled to a step list over a
/// planned arena.
///
/// Compile once per `(plan, model)`; run once per query or per batch of
/// queries — a query is a batch of one, through the same steps and buffers.
/// Each item of a run is bit-identical to the corresponding
/// reference-executor entry point and, once buffers and per-thread scratch
/// are warm, the run is allocation-free.
///
/// The segment is the plan: steps, and the [`ArenaPlan`] they need. The arena
/// they run on is the caller's ([`CompiledSegment::run_joined`]) or, for the
/// standalone `run*` entry points, a private one made on first use.
///
/// `run` must be called with the same weights the segment was compiled
/// against: folded batch-norm constants are materialized from them at
/// compile time. Conv, dense and depthwise rows are read from the map it is
/// given.
#[derive(Debug)]
pub struct CompiledSegment {
    in_len: usize,
    out_shape: Shape,
    steps: Vec<Step>,
    lens: ArenaPlan,
    /// The standalone entry points' arena; empty until one of them runs.
    arena: Arena,
    /// The output of the latest run that was not handed a slice to write:
    /// `width` items. Empty for a piece that always writes its join directly.
    out: Vec<f32>,
    width: usize,
}

impl CompiledSegment {
    /// Compiles one piece of the group `layers` (a consecutive run of merged
    /// layers of `graph`). `spec` selects which slice of the group output
    /// this piece computes; the [`PanelCache`] is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unsupported`] for specs a group has no piece
    /// for (e.g. `Rows` of a dense or LSTM layer, `Channels` of a branching
    /// group) or empty pieces, and [`ModelError::BadWiring`] if a
    /// node reads a value produced outside the group other than its input.
    pub fn compile(
        graph: &Graph,
        weights: &ModelWeights,
        layers: &[MergedLayer],
        spec: &PieceSpec,
        _cache: &mut PanelCache,
    ) -> Result<Self> {
        let chain: Vec<NodeId> = layers.iter().flat_map(|l| &l.nodes).copied().collect();
        let (first, last) = match (chain.first(), chain.last()) {
            (Some(first), Some(last)) => (*first, *last),
            _ => return Err(ModelError::Unsupported("empty segment".into())),
        };
        let seed = graph
            .node(first)?
            .inputs
            .first()
            .copied()
            .ok_or_else(|| ModelError::BadWiring("segment head has no input".into()))?;
        let seed_shape = graph.node(seed)?.output_shape.clone();
        let mut b = Builder {
            graph,
            weights,
            steps: Vec::new(),
            lens: ArenaPlan::default(),
            pending: Vec::new(),
            values: HashMap::new(),
            readers: HashMap::new(),
        };
        match spec {
            PieceSpec::Full => b.build_full(&chain, seed, &seed_shape)?,
            PieceSpec::Rows(r) => b.build_span(&chain, seed, &seed_shape, 1, r)?,
            PieceSpec::Cols(r) => b.build_span(&chain, seed, &seed_shape, 2, r)?,
            PieceSpec::Channels(r) => b.build_channels(&chain, &seed_shape, r)?,
        };
        let out_dims = b.finish(last)?;
        Ok(CompiledSegment {
            in_len: seed_shape.len(),
            out_shape: Shape::new(out_dims),
            steps: b.steps,
            lens: b.lens,
            arena: Arena::default(),
            out: Vec::new(),
            width: 0,
        })
    }

    /// What an arena must hold to run this piece on one item: one length per
    /// slot — its largest tenant — and the largest kernel scratch.
    pub fn arena_plan(&self) -> &ArenaPlan {
        &self.lens
    }

    /// Bytes of activation arena one query needs ([`ArenaPlan::bytes`]): for
    /// a chain, four times the largest output on the even steps plus the
    /// largest on the odd steps plus the largest kernel scratch. A figure of
    /// the plan, whichever arena runs it.
    pub fn activation_bytes(&self) -> usize {
        self.lens.bytes()
    }

    /// Weight bytes one query's kernels pass over, from step geometry: a
    /// conv, dense or depthwise step reads its rows once (whatever the batch
    /// width, which shares the pass), an LSTM step `w_ih` once and `w_hh`
    /// once per timestep after the first, whose hidden state is zero. The
    /// counted proxy for a bandwidth-bound layer's time.
    pub fn weight_bytes_streamed(&self) -> usize {
        const F32: usize = std::mem::size_of::<f32>();
        let bytes = |step: &Step| match &step.kind {
            StepKind::Conv {
                rows, params, in_c, ..
            } => F32 * rows.len() * in_c * params.kernel.0 * params.kernel.1,
            StepKind::Depthwise { rows, params, .. } => {
                F32 * rows.len() * params.kernel.0 * params.kernel.1
            }
            StepKind::Dense { rows, .. } => F32 * rows.len() * step.reads[0].len,
            StepKind::Lstm {
                steps,
                input,
                hidden,
                ..
            } => F32 * 4 * hidden * (input + steps.saturating_sub(1) * hidden),
            _ => 0,
        };
        self.steps.iter().map(bytes).sum()
    }

    /// Expected input length (the seed tensor's element count).
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Shape of this piece's output.
    pub fn out_shape(&self) -> &Shape {
        &self.out_shape
    }

    /// Runs the steps over `n` item-major inputs on `arena`; the last step
    /// writes `out` instead of its slot.
    fn run_steps(
        &self,
        arena: &mut Arena,
        weights: &ModelWeights,
        inputs: &[f32],
        n: usize,
        out: &mut [f32],
    ) -> Result<()> {
        assert!(n > 0, "batch must be non-empty");
        assert_eq!(
            inputs.len(),
            n * self.in_len,
            "compiled segment input length"
        );
        assert_eq!(
            out.len(),
            n * self.out_shape.len(),
            "compiled segment output length"
        );
        arena.reserve(&self.lens, n);
        let Arena { slots, scratch } = arena;
        let last = self.steps.len() - 1;
        for (i, step) in self.steps.iter().enumerate() {
            // No operand lives in the slot being written, so it can leave
            // the arena for the duration of the step.
            let mut own = std::mem::take(&mut slots[step.writes]);
            let dst = match i == last {
                true => &mut *out,
                false => &mut own[..n * step.out_len],
            };
            let src = |k: usize| match step.reads[k].from {
                Operand::Input => inputs,
                Operand::Slot(s) => &slots[s][..n * step.reads[k].len],
            };
            let scratch = &mut scratch[..n * step.kind.scratch_len()];
            let done = exec_step(step, weights, n, src, dst, scratch);
            slots[step.writes] = own;
            done?;
        }
        Ok(())
    }

    /// Runs the piece over a batch of `n` item-major inputs (`n × in_len`
    /// contiguous), returning a borrow of its output (`n × out_len`,
    /// item-major). Each item's result is bit-identical to running it alone,
    /// at any thread count (see [`exec_step`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadWeights`] if `weights` no longer matches the
    /// node ids compiled against; shape errors cannot occur (shapes were
    /// fixed at compile time).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * in_len` or `n == 0`.
    pub fn run_batch(
        &mut self,
        weights: &ModelWeights,
        inputs: &[f32],
        n: usize,
    ) -> Result<&[f32]> {
        let mut arena = std::mem::take(&mut self.arena);
        let done = self.run_joined(&mut arena, weights, inputs, n, None);
        self.arena = arena;
        done?;
        Ok(self.output())
    }

    /// Runs the piece on one query: [`CompiledSegment::run_batch`] at
    /// `n = 1`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledSegment::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`CompiledSegment::in_len`].
    pub fn run(&mut self, weights: &ModelWeights, input: &[f32]) -> Result<&[f32]> {
        self.run_batch(weights, input, 1)
    }

    /// Runs the piece on `arena` as one part of a join of `n` items: into
    /// `slot`, its region of the join buffer, when the join is direct (see
    /// [`CompiledPartition::deal`]), else into its own output buffer for the
    /// gather — the one thing a piece keeps between runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledSegment::run_batch`].
    pub fn run_joined(
        &mut self,
        arena: &mut Arena,
        weights: &ModelWeights,
        inputs: &[f32],
        n: usize,
        slot: Option<&mut [f32]>,
    ) -> Result<()> {
        let len = self.out_shape.len();
        let mut own = std::mem::take(&mut self.out);
        let out = match slot {
            Some(slot) => slot,
            None => {
                grow(&mut own, n * len);
                self.width = n;
                &mut own[..n * len]
            }
        };
        let done = self.run_steps(arena, weights, inputs, n, out);
        self.out = own;
        done
    }

    /// The piece's output buffer: every item of the latest
    /// [`CompiledSegment::run`], [`CompiledSegment::run_batch`] or gathered
    /// [`CompiledSegment::run_joined`].
    pub fn output(&self) -> &[f32] {
        &self.out[..self.width * self.out_shape.len()]
    }
}

/// A value the builder has lowered: where it lives and its shape.
#[derive(Debug, Clone)]
struct Value {
    at: Operand,
    dims: Vec<usize>,
}

impl Value {
    fn len(&self) -> usize {
        self.dims.iter().product()
    }
}

/// Compile-time state shared by the per-spec builders: the steps so far and
/// the slot assignment, a linear scan over last uses done as the steps are
/// emitted — the interpreter's liveness rule (`Executor::run_segment`)
/// with slots for tensors.
struct Builder<'a> {
    graph: &'a Graph,
    weights: &'a ModelWeights,
    steps: Vec<Step>,
    lens: ArenaPlan,
    /// Reads each slot's tenant still has coming; a slot at 0 is free.
    pending: Vec<usize>,
    /// Where the value of each node lowered so far (and of the seed) lives.
    values: HashMap<NodeId, Value>,
    /// How many of the piece's nodes read each node's value.
    readers: HashMap<NodeId, usize>,
}

impl Builder<'_> {
    fn bn_weights(&self, id: NodeId) -> Result<&BatchNormParams> {
        match self.weights.get(id)? {
            NodeWeights::Bn(p) => Ok(p),
            _ => Err(ModelError::BadWeights(format!(
                "node {} expected batch-norm weights",
                id.0
            ))),
        }
    }

    /// Folds a node's batch-norm parameters, optionally restricted to a
    /// channel range. Slicing before folding equals folding before slicing —
    /// the fold is per-channel — so this matches the reference executor's
    /// slice-then-normalize exactly.
    fn bn_fold(&self, id: NodeId, channels: Option<&Range<usize>>) -> Result<(Vec<f32>, Vec<f32>)> {
        let p = self.bn_weights(id)?;
        match channels {
            None => Ok(batch_norm_fold(p)),
            Some(r) => {
                let sliced = BatchNormParams {
                    gamma: p.gamma.slice(0, r.clone())?,
                    beta: p.beta.slice(0, r.clone())?,
                    mean: p.mean.slice(0, r.clone())?,
                    var: p.var.slice(0, r.clone())?,
                    eps: p.eps,
                };
                Ok(batch_norm_fold(&sliced))
            }
        }
    }

    /// Counts, for every value, the nodes of `ids` that read it.
    fn count_readers(&mut self, ids: impl Iterator<Item = NodeId>) -> Result<()> {
        for id in ids {
            for input in &self.graph.node(id)?.inputs {
                *self.readers.entry(*input).or_default() += 1;
            }
        }
        Ok(())
    }

    fn readers_of(&self, id: NodeId) -> usize {
        self.readers.get(&id).copied().unwrap_or(0)
    }

    /// The values of node `id`'s graph inputs.
    fn inputs_of(&self, id: NodeId) -> Result<Vec<Value>> {
        let node = self.graph.node(id)?;
        let value = |input: &NodeId| {
            self.values.get(input).cloned().ok_or_else(|| {
                ModelError::BadWiring(format!(
                    "node {} reads node {} from outside its group",
                    node.name, input.0
                ))
            })
        };
        node.inputs.iter().map(value).collect()
    }

    /// Appends a step that reads `reads` and writes a value of shape `dims`
    /// that `readers` later reads will consume. The value gets the lowest
    /// free slot — chosen before the operands give theirs up, so a step never
    /// writes a slot it reads — and each operand is then one read closer to
    /// freeing its own.
    fn push(
        &mut self,
        kind: StepKind,
        reads: &[&Value],
        dims: Vec<usize>,
        readers: usize,
    ) -> Value {
        let out_len = dims.iter().product();
        let free = self.pending.iter().position(|&p| p == 0);
        let slot = free.unwrap_or_else(|| {
            self.pending.push(0);
            self.lens.slots.push(0);
            self.pending.len() - 1
        });
        self.pending[slot] = readers;
        self.lens.slots[slot] = self.lens.slots[slot].max(out_len);
        self.lens.scratch = self.lens.scratch.max(kind.scratch_len());
        let read = |v: &&Value| Read {
            from: v.at,
            len: v.len(),
        };
        let reads: Vec<Read> = reads.iter().map(read).collect();
        for read in &reads {
            if let Operand::Slot(s) = read.from {
                self.pending[s] -= 1;
            }
        }
        let plane = match dims[..] {
            [_, h, w] => h * w,
            _ => out_len,
        };
        self.steps.push(Step {
            kind,
            reads,
            writes: slot,
            out_len,
            plane: plane.max(1),
            sweeps: Vec::new(),
        });
        Value {
            at: Operand::Slot(slot),
            dims,
        }
    }

    /// `x` seen through node `id` without a step of its own (a reshape, or a
    /// sweep folded into `x`'s producer): the slot stays occupied for `id`'s
    /// readers in place of the one read `id` took.
    fn alias(&mut self, id: NodeId, x: &Value, dims: Vec<usize>) -> Value {
        if let Operand::Slot(s) = x.at {
            self.pending[s] += self.readers_of(id);
            self.pending[s] -= 1;
        }
        Value { at: x.at, dims }
    }

    /// Lowers element-wise node `id` to a sweep over `x`: the epilogue of
    /// the step that has just written `x` when `id` is that value's only
    /// reader, else of a copy, so neither the caller's input nor a value
    /// someone else reads is ever rewritten.
    fn push_sweep(&mut self, id: NodeId, x: &Value, sweep: Epilogue) -> Value {
        let last = self.steps.last().map(|s| Operand::Slot(s.writes));
        let in_place =
            matches!(x.at, Operand::Slot(s) if last == Some(x.at) && self.pending[s] == 1);
        let value = match in_place {
            true => self.alias(id, x, x.dims.clone()),
            false => self.push(StepKind::Copy, &[x], x.dims.clone(), self.readers_of(id)),
        };
        let sweeps = &mut self.steps.last_mut().expect("the value's step").sweeps;
        match (sweeps.last_mut(), &sweep) {
            (Some(Epilogue::Affine { relu, .. }), Epilogue::Relu) if !*relu => *relu = true,
            _ => sweeps.push(sweep),
        }
        value
    }

    /// Copies `range` of `x` along `dim` into a value of its own.
    fn push_slice(&mut self, x: &Value, dim: usize, range: Range<usize>, readers: usize) -> Value {
        let mut dims = x.dims.clone();
        dims[dim] = range.len();
        let kind = StepKind::Slice {
            outer: x.dims[..dim].iter().product(),
            size: x.dims[dim],
            inner: x.dims[dim + 1..].iter().product(),
            range,
        };
        self.push(kind, &[x], dims, readers)
    }

    fn require_chw(dims: &[usize], what: &str) -> Result<(usize, usize, usize)> {
        if dims.len() != 3 {
            return Err(ModelError::Unsupported(format!(
                "{what} requires a CHW input, got rank {}",
                dims.len()
            )));
        }
        Ok((dims[0], dims[1], dims[2]))
    }

    /// Appends the conv step for `id` over `x` with the given padding and
    /// optional filter subset.
    fn push_conv(
        &mut self,
        id: NodeId,
        x: &Value,
        params: Conv2dParams,
        channels: Option<&Range<usize>>,
    ) -> Result<Value> {
        let (in_c, in_h, in_w) = Self::require_chw(&x.dims, "conv2d")?;
        let wd = row_weights(self.weights, id)?.0.shape().dims();
        if wd.len() != 4 || wd[1] != in_c || (wd[2], wd[3]) != params.kernel {
            return Err(ModelError::BadWeights(format!(
                "conv weight {wd:?} does not match input {:?} / kernel {:?}",
                x.dims, params.kernel
            )));
        }
        let out_hw = conv2d_output_hw((in_h, in_w), &params).ok_or_else(|| {
            ModelError::Unsupported("conv kernel larger than padded input".into())
        })?;
        let rows = channels.cloned().unwrap_or(0..wd[0]);
        weight_rows(self.weights, id, &rows)?;
        let dims = vec![rows.len(), out_hw.0, out_hw.1];
        let kind = StepKind::Conv {
            id,
            rows,
            params,
            in_c,
            in_h,
            in_w,
            out_hw,
        };
        Ok(self.push(kind, &[x], dims, self.readers_of(id)))
    }

    /// Appends the depthwise step for `id`; `channels` selects a filter
    /// subset (channel partitions) or all of them.
    fn push_depthwise(
        &mut self,
        id: NodeId,
        x: &Value,
        params: Conv2dParams,
        channels: Option<&Range<usize>>,
    ) -> Result<Value> {
        let (c, in_h, in_w) = Self::require_chw(&x.dims, "depthwise conv2d")?;
        let rows = channels.cloned().unwrap_or(0..c);
        weight_rows(self.weights, id, &rows)?;
        let out_hw = conv2d_output_hw((in_h, in_w), &params).ok_or_else(|| {
            ModelError::Unsupported("depthwise kernel larger than padded input".into())
        })?;
        let kind = StepKind::Depthwise {
            id,
            rows,
            params,
            c,
            in_h,
            in_w,
            out_hw,
        };
        let dims = vec![c, out_hw.0, out_hw.1];
        Ok(self.push(kind, &[x], dims, self.readers_of(id)))
    }

    fn push_pool(&mut self, id: NodeId, x: &Value, params: Pool2dParams) -> Result<Value> {
        let (c, in_h, in_w) = Self::require_chw(&x.dims, "pool2d")?;
        let conv_params = Conv2dParams {
            kernel: params.kernel,
            stride: params.stride,
            padding: params.padding,
        };
        let out_hw = conv2d_output_hw((in_h, in_w), &conv_params).ok_or_else(|| {
            ModelError::Unsupported("pooling window larger than padded input".into())
        })?;
        let kind = StepKind::Pool {
            params,
            c,
            in_hw: (in_h, in_w),
            out_hw,
        };
        let dims = vec![c, out_hw.0, out_hw.1];
        Ok(self.push(kind, &[x], dims, self.readers_of(id)))
    }

    fn push_bn(&mut self, id: NodeId, x: &Value, channels: Option<&Range<usize>>) -> Result<Value> {
        let (c, ..) = Self::require_chw(&x.dims, "batch norm")?;
        let (scale, shift) = self.bn_fold(id, channels)?;
        if scale.len() != c {
            return Err(ModelError::BadWeights(format!(
                "batch-norm channels {} != input channels {c}",
                scale.len()
            )));
        }
        let sweep = Epilogue::Affine {
            scale,
            shift,
            relu: false,
        };
        Ok(self.push_sweep(id, x, sweep))
    }

    fn push_dense(
        &mut self,
        id: NodeId,
        x: &Value,
        channels: Option<&Range<usize>>,
    ) -> Result<Value> {
        let &[in_n] = &x.dims[..] else {
            return Err(ModelError::Unsupported(
                "dense requires a rank-1 input".into(),
            ));
        };
        let wd = row_weights(self.weights, id)?.0.shape().dims();
        if wd.len() != 2 || wd[1] != in_n {
            return Err(ModelError::BadWeights(format!(
                "dense weight {wd:?} does not match input length {in_n}"
            )));
        }
        let rows = channels.cloned().unwrap_or(0..wd[0]);
        weight_rows(self.weights, id, &rows)?;
        let dims = vec![rows.len()];
        let kind = StepKind::Dense { id, rows };
        Ok(self.push(kind, &[x], dims, self.readers_of(id)))
    }

    /// Lowers node `id` on the values of its graph inputs — the compiled
    /// counterpart of `Executor::eval_node`. `halo` is `Some((dim, lo, hi))`
    /// when the inputs are spans of a [`SpanPlan`]: a windowed op then pads
    /// `lo`/`hi` zero rows along `dim` instead of its own symmetric padding.
    /// `channels` is the range a channel piece computes: a conv or dense
    /// node takes those filter rows, batch norm and depthwise their share of
    /// the per-channel parameters.
    fn lower(
        &mut self,
        id: NodeId,
        inputs: &[Value],
        halo: Option<(usize, usize, usize)>,
        channels: Option<&Range<usize>>,
    ) -> Result<Value> {
        let pad = |full: usize| match halo {
            Some((dim, lo, hi)) => span_padding(dim, lo, hi, full),
            None => Padding::symmetric(full),
        };
        let x = &inputs[0];
        let readers = self.readers_of(id);
        let op = self.graph.node(id)?.op.clone();
        match op {
            LayerOp::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let params = Conv2dParams {
                    kernel: (kernel, kernel),
                    stride: (stride, stride),
                    padding: pad(padding),
                };
                self.push_conv(id, x, params, channels)
            }
            LayerOp::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                let params = Conv2dParams {
                    kernel: (kernel, kernel),
                    stride: (stride, stride),
                    padding: pad(padding),
                };
                self.push_depthwise(id, x, params, channels)
            }
            LayerOp::MaxPool2d {
                kernel,
                stride,
                padding,
            } => {
                let params = Pool2dParams {
                    kernel: (kernel, kernel),
                    stride: (stride, stride),
                    padding: pad(padding),
                };
                self.push_pool(id, x, params)
            }
            LayerOp::BatchNorm => self.push_bn(id, x, channels),
            LayerOp::Relu => Ok(self.push_sweep(id, x, Epilogue::Relu)),
            LayerOp::GlobalAvgPool => {
                let (c, h, w) = Self::require_chw(&x.dims, "global average pool")?;
                let kind = StepKind::GlobalAvgPool { c, plane: h * w };
                Ok(self.push(kind, &[x], vec![c], readers))
            }
            // Reshape only: the data stream is unchanged.
            LayerOp::Flatten => Ok(self.alias(id, x, vec![x.len()])),
            LayerOp::Dense { .. } => self.push_dense(id, x, channels),
            LayerOp::Lstm { hidden } => {
                let &[steps, input] = &x.dims[..] else {
                    return Err(ModelError::Unsupported(
                        "lstm requires a [seq, features] input".into(),
                    ));
                };
                lstm_weights(self.weights, id, input, hidden)?;
                let kind = StepKind::Lstm {
                    id,
                    steps,
                    input,
                    hidden,
                };
                Ok(self.push(kind, &[x], vec![steps, hidden], readers))
            }
            LayerOp::Add => {
                let [a, b] = inputs else {
                    return Err(ModelError::BadWiring("add takes two inputs".into()));
                };
                if a.dims != b.dims {
                    return Err(ModelError::Unsupported(format!(
                        "add of {:?} and {:?}",
                        a.dims, b.dims
                    )));
                }
                Ok(self.push(StepKind::Add, &[a, b], a.dims.clone(), readers))
            }
            LayerOp::Concat => {
                let mut dims = x.dims.clone();
                if dims.is_empty() || inputs.iter().any(|v| v.dims[1..] != dims[1..]) {
                    return Err(ModelError::Unsupported(
                        "concat inputs disagree off the channel dimension".into(),
                    ));
                }
                dims[0] = inputs.iter().map(|v| v.dims[0]).sum();
                let reads: Vec<&Value> = inputs.iter().collect();
                Ok(self.push(StepKind::Concat, &reads, dims, readers))
            }
            other => Err(ModelError::Unsupported(format!(
                "compiled execution of {other:?}"
            ))),
        }
    }

    /// Full-output compilation: every node once, in the group's order — what
    /// `run_segment` evaluates.
    fn build_full(&mut self, chain: &[NodeId], seed: NodeId, seed_shape: &Shape) -> Result<()> {
        self.count_readers(chain.iter().copied())?;
        let dims = seed_shape.dims().to_vec();
        self.values.insert(
            seed,
            Value {
                at: Operand::Input,
                dims,
            },
        );
        for &id in chain {
            let inputs = self.inputs_of(id)?;
            let value = self.lower(id, &inputs, None, None)?;
            self.values.insert(id, value);
        }
        Ok(())
    }

    /// Spatial-span compilation along `dim` (1 = rows, 2 = cols): the
    /// [`SpanPlan`] gives the seed span, each node's halo and, per input, the sub-span it
    /// reads of the hull that input was evaluated over. The seed span is
    /// sliced first; every node is then lowered once with the resulting
    /// paddings, a read narrower than its operand going through a slice step.
    fn build_span(
        &mut self,
        chain: &[NodeId],
        seed: NodeId,
        seed_shape: &Shape,
        dim: usize,
        span: &Range<usize>,
    ) -> Result<()> {
        let plan = SpanPlan::new(self.graph, chain, seed, seed_shape, dim, span.clone())?;
        if seed_shape.rank() != 3 {
            return Err(ModelError::Unsupported(
                "spatial partition requires a CHW segment input".into(),
            ));
        }
        self.count_readers(plan.nodes.iter().map(|n| n.id))?;
        let input = Value {
            at: Operand::Input,
            dims: seed_shape.dims().to_vec(),
        };
        let sliced = self.push_slice(&input, dim, plan.seed_span, self.readers_of(seed));
        self.values.insert(seed, sliced);
        for sn in plan.nodes {
            let mut inputs = self.inputs_of(sn.id)?;
            for (x, read) in inputs.iter_mut().zip(&sn.reads) {
                if read.len() != x.dims[dim] {
                    *x = self.push_slice(x, dim, read.clone(), 1);
                }
            }
            let value = self.lower(sn.id, &inputs, Some((dim, sn.lo, sn.hi)), None)?;
            self.values.insert(sn.id, value);
        }
        Ok(())
    }

    /// Channel-range compilation. The chain is scanned from the output down; the first weight-split layer (conv or
    /// dense) becomes the head, consumes the full group input, and slices
    /// its filter rows. Everything above it must be channel-local;
    /// everything below it must be `Flatten`. Without a head the group is
    /// channel-local and the seed itself is sliced along dimension 0.
    fn build_channels(
        &mut self,
        chain: &[NodeId],
        seed_shape: &Shape,
        channels: &Range<usize>,
    ) -> Result<()> {
        if channels.is_empty() {
            return Err(ModelError::Unsupported("empty channel piece".into()));
        }
        let mut head: Option<usize> = None;
        for (i, &id) in chain.iter().enumerate().rev() {
            match &self.graph.node(id)?.op {
                LayerOp::BatchNorm
                | LayerOp::Relu
                | LayerOp::DepthwiseConv2d { .. }
                | LayerOp::MaxPool2d { .. }
                | LayerOp::GlobalAvgPool
                | LayerOp::Flatten => continue,
                LayerOp::Conv2d { .. } | LayerOp::Dense { .. } => {
                    head = Some(i);
                    break;
                }
                other => {
                    return Err(ModelError::Unsupported(format!(
                        "channel-range execution of {other:?}"
                    )))
                }
            }
        }
        self.count_readers(chain.iter().copied())?;
        let input = Value {
            at: Operand::Input,
            dims: seed_shape.dims().to_vec(),
        };
        let (mut cur, start) = match head {
            Some(i) => {
                // Everything below the head must be Flatten-of-seed (the
                // weight-split head consumes the full group input).
                for &pid in &chain[..i] {
                    if !matches!(self.graph.node(pid)?.op, LayerOp::Flatten) {
                        return Err(ModelError::Unsupported(
                            "channel partition requires the weight-split layer at the group head"
                                .into(),
                        ));
                    }
                }
                let x = match self.graph.node(chain[i])?.op {
                    LayerOp::Conv2d { .. } if i != 0 => {
                        return Err(ModelError::Unsupported(
                            "conv head cannot consume a flattened input".into(),
                        ));
                    }
                    LayerOp::Dense { .. } if i == 0 && seed_shape.rank() != 1 => {
                        return Err(ModelError::Unsupported(
                            "dense requires a rank-1 input".into(),
                        ));
                    }
                    LayerOp::Conv2d { .. } => input,
                    // Flattens below the head leave the data untouched.
                    _ => Value {
                        at: Operand::Input,
                        dims: vec![seed_shape.len()],
                    },
                };
                (self.lower(chain[i], &[x], None, Some(channels))?, i + 1)
            }
            None => {
                // Channel-local group: slice the seed's channel dimension.
                if input.dims.is_empty() {
                    return Err(ModelError::Unsupported(
                        "channel partition of a scalar input".into(),
                    ));
                }
                (self.push_slice(&input, 0, channels.clone(), 1), 0)
            }
        };
        for &id in &chain[start..] {
            cur = self.lower(id, &[cur], None, Some(channels))?;
        }
        self.values.insert(chain[chain.len() - 1], cur);
        Ok(())
    }

    /// Leaves the value of `last`, the piece's output, in the slot the last
    /// step writes — where `run_steps` redirects it to the caller's buffer —
    /// and returns its shape. A piece with no step of its own (a flatten of
    /// the input) gets one copy.
    fn finish(&mut self, last: NodeId) -> Result<Vec<usize>> {
        let out = self
            .values
            .get(&last)
            .cloned()
            .ok_or_else(|| ModelError::BadWiring(format!("node {} was not lowered", last.0)))?;
        if self.steps.last().map(|s| Operand::Slot(s.writes)) != Some(out.at) {
            self.push(StepKind::Copy, &[&out], out.dims.clone(), 0);
        }
        Ok(out.dims)
    }
}

/// All compiled pieces of one layer group plus the join geometry needed to
/// gather their outputs in [`Tensor::concat`]'s memory order.
#[derive(Debug)]
pub struct CompiledPartition {
    pieces: Vec<CompiledSegment>,
    axis: usize,
    out_shape: Shape,
    /// Product of output dims before `axis`: the blocks of a joined output,
    /// each holding every piece's rows for that block back to back.
    outer: usize,
    /// Where each piece's rows sit within one such block. With `outer == 1`
    /// the block is the whole output and these are the pieces' join ranges.
    slots: Vec<Range<usize>>,
}

impl CompiledPartition {
    /// Compiles every piece of a group. `axis` is the output dimension the
    /// piece outputs are concatenated along (0 = channel, 1 = height,
    /// 2 = width); `specs` carries one [`PieceSpec`] per piece in join
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates piece-compilation errors; rejects empty groups and pieces
    /// whose output shapes disagree off-axis.
    pub fn compile(
        graph: &Graph,
        weights: &ModelWeights,
        layers: &[MergedLayer],
        specs: &[PieceSpec],
        axis: usize,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(ModelError::Unsupported("group with zero pieces".into()));
        }
        let pieces: Vec<CompiledSegment> = specs
            .iter()
            .map(|s| CompiledSegment::compile(graph, weights, layers, s, &mut PanelCache))
            .collect::<Result<_>>()?;
        let first = pieces[0].out_shape().clone();
        let rank = first.rank();
        if axis >= rank {
            return Err(ModelError::Unsupported(format!(
                "join axis {axis} out of range for rank {rank}"
            )));
        }
        let inner: usize = first.dims()[axis + 1..].iter().product();
        let mut total = 0;
        let mut slots = Vec::with_capacity(pieces.len());
        for p in &pieces {
            let d = p.out_shape().dims();
            if d.len() != rank
                || d.iter()
                    .enumerate()
                    .any(|(i, &v)| i != axis && v != first.dims()[i])
            {
                return Err(ModelError::Unsupported(
                    "piece output shapes disagree off the join axis".into(),
                ));
            }
            slots.push(total * inner..(total + d[axis]) * inner);
            total += d[axis];
        }
        let out_shape = first.with_dim(axis, total)?;
        let outer: usize = first.dims()[..axis].iter().product();
        Ok(CompiledPartition {
            pieces,
            axis,
            out_shape,
            outer,
            slots,
        })
    }

    /// Shape of the gathered group output.
    pub fn out_shape(&self) -> &Shape {
        &self.out_shape
    }

    /// Expected input length for every piece (they share the group input).
    pub fn in_len(&self) -> usize {
        self.pieces[0].in_len()
    }

    /// The join axis pieces are concatenated along.
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// How many pieces the group has: the most lanes it can use.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// Widens `plan` so an arena reserved for it runs any piece of the group
    /// (see [`CompiledSegment::arena_plan`]).
    pub fn cover_pieces(&self, plan: &mut ArenaPlan) {
        self.pieces.iter().for_each(|p| plan.cover(p.arena_plan()));
    }

    /// Bytes of piece output one query keeps between the pieces' runs and
    /// the gather: every piece's own, or none where a single query writes
    /// its join directly.
    pub fn output_bytes(&self) -> usize {
        let lens = self.pieces.iter().map(|p| p.out_shape().len());
        match self.joins_directly(1) {
            true => 0,
            false => lens.sum::<usize>() * std::mem::size_of::<f32>(),
        }
    }

    /// Weight bytes one query streams, summed over the pieces (see
    /// [`CompiledSegment::weight_bytes_streamed`]).
    pub fn weight_bytes_streamed(&self) -> usize {
        self.pieces.iter().map(|p| p.weight_bytes_streamed()).sum()
    }

    /// Whether a run of `n` items can skip the gather: each piece's output
    /// is then one contiguous region of the join buffer — there is one
    /// piece, whose items are the join's, or the join is contiguous
    /// (`outer == 1`, e.g. any channel join) and there is one item, since
    /// the pieces of a wider batch interleave per item. This is the
    /// executor's one decision that depends on the batch width.
    pub fn joins_directly(&self, n: usize) -> bool {
        self.pieces.len() == 1 || (self.outer == 1 && n == 1)
    }

    /// Deals the pieces of a run of `n` items to `lanes` lanes, contiguous
    /// pieces to each: every [`LaneShare`] runs on an arena of its own, so
    /// the shares can run concurrently, and which lane ran a piece leaves no
    /// trace in the result. Where the join is direct
    /// ([`CompiledPartition::joins_directly`]) a share carries its pieces'
    /// disjoint stretch of `outs`; else the pieces run into their own
    /// buffers and [`CompiledPartition::gather`] follows.
    pub fn deal<'a>(
        &'a mut self,
        lanes: usize,
        n: usize,
        outs: &'a mut [f32],
    ) -> impl ExactSizeIterator<Item = LaneShare<'a>> {
        let per = self.pieces.len().div_ceil(lanes.max(1));
        let mut rest = self.joins_directly(n).then_some(outs);
        self.pieces.chunks_mut(per).map(move |pieces| {
            let joined = rest.take().map(|outs| {
                let len: usize = pieces.iter().map(|p| n * p.out_shape().len()).sum();
                let (head, tail) = outs.split_at_mut(len);
                rest = Some(tail);
                head
            });
            LaneShare { pieces, joined, n }
        })
    }

    /// Gathers the `n`-item piece outputs (valid after each piece ran) into
    /// `outs` (`n × out_len`, item-major), each item in exactly
    /// [`Tensor::concat`]'s memory order: outer blocks first, pieces in
    /// order within each block. Nothing to do where the pieces wrote the
    /// join directly. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `outs.len()` differs from `n` gathered outputs.
    pub fn gather(&self, n: usize, outs: &mut [f32]) {
        let out_len = self.out_shape.len();
        assert_eq!(outs.len(), n * out_len, "join buffer length");
        if self.joins_directly(n) {
            return;
        }
        let block = out_len / self.outer;
        for (i, out) in outs.chunks_exact_mut(out_len).enumerate() {
            for (o, out) in out.chunks_exact_mut(block).enumerate() {
                for (p, slot) in self.pieces.iter().zip(&self.slots) {
                    let src = i * p.out_shape().len() + o * slot.len();
                    out[slot.clone()].copy_from_slice(&p.output()[src..src + slot.len()]);
                }
            }
        }
    }

    /// Runs every piece in turn on `arena` over the `n` item-major `inputs`
    /// and joins each item into its slice of `outs` (`n × out_len`): one
    /// lane's worth of [`CompiledPartition::deal`].
    ///
    /// # Errors
    ///
    /// Propagates piece errors (see [`CompiledSegment::run_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a buffer length disagrees with `n`.
    pub fn run_into(
        &mut self,
        arena: &mut Arena,
        weights: &ModelWeights,
        inputs: &[f32],
        n: usize,
        outs: &mut [f32],
    ) -> Result<()> {
        assert_eq!(outs.len(), n * self.out_shape.len(), "join buffer length");
        for share in self.deal(1, n, outs) {
            share.run(arena, weights, inputs)?;
        }
        self.gather(n, outs);
        Ok(())
    }

    /// Grows the output buffers of the pieces a run of `n` items gathers.
    pub fn reserve_batch(&mut self, n: usize) {
        if !self.joins_directly(n) {
            for p in &mut self.pieces {
                grow(&mut p.out, n * p.out_shape.len());
            }
        }
    }
}

/// The pieces of a join one lane runs, in order, on one arena (see
/// [`CompiledPartition::deal`]).
#[derive(Debug)]
pub struct LaneShare<'a> {
    pieces: &'a mut [CompiledSegment],
    /// The stretch of the join buffer these pieces write, when they write it
    /// directly.
    joined: Option<&'a mut [f32]>,
    n: usize,
}

impl LaneShare<'_> {
    /// Runs the share's pieces on `arena`.
    ///
    /// # Errors
    ///
    /// Propagates the first piece error (see
    /// [`CompiledSegment::run_batch`]).
    pub fn run(self, arena: &mut Arena, weights: &ModelWeights, inputs: &[f32]) -> Result<()> {
        let mut joined = self.joined;
        for piece in self.pieces {
            let slot = joined.take().map(|outs| {
                let (slot, rest) = outs.split_at_mut(self.n * piece.out_shape().len());
                joined = Some(rest);
                slot
            });
            piece.run_joined(arena, weights, inputs, self.n, slot)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::weights::init_weights;
    use crate::zoo;
    use crate::MergedLayer;

    fn query(shape: &Shape, seed: u64) -> Tensor {
        let mut x = seed;
        Tensor::from_fn(shape.clone(), |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 1000) as f32 / 500.0) - 1.0
        })
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// The slice of `run_segment`'s output that the piece `spec` of `group`
    /// owns: what the piece must reproduce bit for bit.
    fn owned_slice(
        exec: &Executor<'_>,
        group: &[MergedLayer],
        x: &Tensor,
        spec: &PieceSpec,
    ) -> Tensor {
        let full = exec.run_segment(group, x).unwrap();
        match spec {
            PieceSpec::Full => full,
            PieceSpec::Channels(r) => full.slice(0, r.clone()).unwrap(),
            PieceSpec::Rows(r) => full.slice(1, r.clone()).unwrap(),
            PieceSpec::Cols(r) => full.slice(2, r.clone()).unwrap(),
        }
    }

    #[test]
    fn full_compiled_forward_is_bit_identical() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 3).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 11);
        let reference = exec.forward(&model, &input).unwrap();

        let mut cache = PanelCache::new();
        let mut seg = CompiledSegment::compile(
            model.graph(),
            &weights,
            model.layers(),
            &PieceSpec::Full,
            &mut cache,
        )
        .unwrap();
        assert_eq!(seg.out_shape(), reference.shape());
        let out = seg.run(&weights, input.data()).unwrap();
        assert_bits_eq(out, reference.data(), "full forward");
    }

    #[test]
    fn row_and_col_pieces_are_bit_identical() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 9).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 2);
        let spatial: Vec<_> = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .cloned()
            .collect();
        let seg_layers = &spatial[..2];
        let mut cache = PanelCache::new();
        for (dim, make) in [
            (1usize, (|r: Range<usize>| PieceSpec::Rows(r)) as fn(_) -> _),
            (2usize, |r: Range<usize>| PieceSpec::Cols(r)),
        ] {
            let total = seg_layers.last().unwrap().out_shape.dims()[dim];
            for p in 0..3usize {
                let lo = p * total / 3;
                let hi = (p + 1) * total / 3;
                let spec = make(lo..hi);
                let reference = owned_slice(&exec, seg_layers, &input, &spec);
                let mut seg = CompiledSegment::compile(
                    model.graph(),
                    &weights,
                    seg_layers,
                    &spec,
                    &mut cache,
                )
                .unwrap();
                assert_eq!(seg.out_shape(), reference.shape());
                let out = seg.run(&weights, input.data()).unwrap();
                assert_bits_eq(out, reference.data(), "spatial piece");
            }
        }
    }

    #[test]
    fn channel_pieces_are_bit_identical() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 21).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 5);
        let mut cache = PanelCache::new();
        // Head conv group (weight-split conv head).
        let seg_layers = &model.layers()[..1];
        let out_c = seg_layers[0].out_shape.dims()[0];
        for p in 0..2usize {
            let spec = PieceSpec::Channels(p * out_c / 2..(p + 1) * out_c / 2);
            let reference = owned_slice(&exec, seg_layers, &input, &spec);
            let mut seg =
                CompiledSegment::compile(model.graph(), &weights, seg_layers, &spec, &mut cache)
                    .unwrap();
            assert_eq!(seg.out_shape(), reference.shape());
            let out = seg.run(&weights, input.data()).unwrap();
            assert_bits_eq(out, reference.data(), "channel piece");
        }

        // Dense tail group (weight-split dense head behind a flatten).
        let layers = model.layers();
        let dense_idx = layers.len() - 1;
        let seg_layers = &layers[dense_idx..];
        let seg_input = exec.run_segment(&layers[..dense_idx], &input).unwrap();
        let out_n = seg_layers[0].out_shape.dims()[0];
        for p in 0..2usize {
            let spec = PieceSpec::Channels(p * out_n / 2..(p + 1) * out_n / 2);
            let reference = owned_slice(&exec, seg_layers, &seg_input, &spec);
            let mut seg =
                CompiledSegment::compile(model.graph(), &weights, seg_layers, &spec, &mut cache)
                    .unwrap();
            let out = seg.run(&weights, seg_input.data()).unwrap();
            assert_bits_eq(out, reference.data(), "dense channel piece");
        }
    }

    #[test]
    fn compiled_partition_gather_matches_concat() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 9).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 7);
        let spatial: Vec<_> = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .cloned()
            .collect();
        let seg_layers = &spatial[..2];
        let out_h = seg_layers.last().unwrap().out_shape.dims()[1];
        let specs: Vec<PieceSpec> = (0..4)
            .map(|p| PieceSpec::Rows(p * out_h / 4..(p + 1) * out_h / 4))
            .collect();
        let mut part =
            CompiledPartition::compile(model.graph(), &weights, seg_layers, &specs, 1).unwrap();
        let reference = exec.run_segment(seg_layers, &input).unwrap();
        let mut out = vec![0.0f32; part.out_shape().len()];
        part.run_into(&mut Arena::default(), &weights, input.data(), 1, &mut out)
            .unwrap();
        assert_eq!(part.out_shape(), reference.shape());
        assert_bits_eq(&out, reference.data(), "spatial gather");
        // Spatial join along height is strided (outer = channels > 1).
        assert!(!part.joins_directly(1));

        // Channel join is contiguous: pieces write the join buffer directly.
        let head = &model.layers()[..1];
        let out_c = head[0].out_shape.dims()[0];
        let specs: Vec<PieceSpec> = (0..2)
            .map(|p| PieceSpec::Channels(p * out_c / 2..(p + 1) * out_c / 2))
            .collect();
        let mut part =
            CompiledPartition::compile(model.graph(), &weights, head, &specs, 0).unwrap();
        assert!(part.joins_directly(1));
        let reference = exec.run_segment(head, &input).unwrap();
        let mut out = vec![0.0f32; part.out_shape().len()];
        part.run_into(&mut Arena::default(), &weights, input.data(), 1, &mut out)
            .unwrap();
        assert_bits_eq(&out, reference.data(), "channel gather");
    }

    #[test]
    fn batched_partition_bit_identical_to_sequential() {
        // Batched runs must reproduce N independent per-query runs to the
        // bit, for both join geometries.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 9).unwrap();
        let input_len = model.input_shape().len();
        let spatial: Vec<_> = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .cloned()
            .collect();
        let seg_layers = &spatial[..2];
        let out_h = seg_layers.last().unwrap().out_shape.dims()[1];
        let row_specs: Vec<PieceSpec> = (0..4)
            .map(|p| PieceSpec::Rows(p * out_h / 4..(p + 1) * out_h / 4))
            .collect();
        let head = &model.layers()[..1];
        let out_c = head[0].out_shape.dims()[0];
        let chan_specs: Vec<PieceSpec> = (0..2)
            .map(|p| PieceSpec::Channels(p * out_c / 2..(p + 1) * out_c / 2))
            .collect();
        let cases: [(&[MergedLayer], &[PieceSpec], usize); 2] =
            [(seg_layers, &row_specs, 1), (head, &chan_specs, 0)];
        for (layers, specs, axis) in cases {
            let mut part =
                CompiledPartition::compile(model.graph(), &weights, layers, specs, axis).unwrap();
            // One arena for every run: sequential singles and batches share
            // it, as the pieces of the partition do.
            let mut arena = Arena::default();
            for n in [1usize, 2, 3, 8] {
                let queries: Vec<Tensor> = (0..n)
                    .map(|i| query(model.input_shape(), 40 + i as u64))
                    .collect();
                let out_len = part.out_shape().len();
                let mut seq = vec![0.0f32; n * out_len];
                for (q, out) in queries.iter().zip(seq.chunks_mut(out_len)) {
                    part.run_into(&mut arena, &weights, q.data(), 1, out)
                        .unwrap();
                }
                let mut inputs = vec![0.0f32; n * input_len];
                for (q, dst) in queries.iter().zip(inputs.chunks_mut(input_len)) {
                    dst.copy_from_slice(q.data());
                }
                let mut batched = vec![0.0f32; n * out_len];
                part.run_into(&mut arena, &weights, &inputs, n, &mut batched)
                    .unwrap();
                assert_bits_eq(&seq, &batched, &format!("batched join n={n}"));
            }
        }
    }

    /// A depthwise or pooling step hands the window driver all `n` items at
    /// once; at `n = 3` each item must carry the bits of its single run —
    /// whole layers and a row slice with its halo, over depthwise 3×3 at
    /// stride 1 and 2 and max pooling 2×2/2 and 3×3/2/1.
    #[test]
    fn window_steps_at_n3_equal_three_single_runs() {
        let is_window = |op: &crate::LayerOp| {
            matches!(
                op,
                crate::LayerOp::DepthwiseConv2d { .. } | crate::LayerOp::MaxPool2d { .. }
            )
        };
        let mut covered = 0;
        for model in [zoo::tiny_mobilenet(), zoo::tiny_resnet(), zoo::tiny_vgg()] {
            let weights = init_weights(model.graph(), 4).unwrap();
            let exec = Executor::new(model.graph(), &weights);
            let layers = model.layers();
            for (i, layer) in layers.iter().enumerate() {
                let op = |id: &crate::NodeId| &model.graph().node(*id).unwrap().op;
                if !layer.nodes.iter().any(|id| is_window(op(id))) {
                    continue;
                }
                let xs: Vec<Tensor> = (0..3)
                    .map(|q| {
                        let x = query(model.input_shape(), 60 + q);
                        exec.run_segment(&layers[..i], &x).unwrap()
                    })
                    .collect();
                let h = layer.out_shape.dims()[1];
                for spec in [PieceSpec::Full, PieceSpec::Rows(h / 3..h)] {
                    let one = std::slice::from_ref(layer);
                    let mut seg = CompiledSegment::compile(
                        model.graph(),
                        &weights,
                        one,
                        &spec,
                        &mut PanelCache::new(),
                    )
                    .unwrap();
                    let singles: Vec<f32> = xs
                        .iter()
                        .flat_map(|x| seg.run(&weights, x.data()).unwrap().to_vec())
                        .collect();
                    let flat: Vec<f32> = xs.iter().flat_map(|x| x.data()).copied().collect();
                    let batched = seg.run_batch(&weights, &flat, 3).unwrap();
                    assert_bits_eq(batched, &singles, &format!("{} {spec:?}", layer.name));
                    covered += 1;
                }
            }
        }
        assert!(covered >= 2 * 9, "only {covered} window steps ran");
    }

    /// How many of `nodes` are element-wise (sweeps) and how many write a
    /// buffer; `Flatten` is neither.
    fn count_ops(graph: &Graph, nodes: &[NodeId]) -> (usize, usize) {
        let ops = || nodes.iter().map(|id| &graph.node(*id).unwrap().op);
        let sweeps = ops()
            .filter(|op| matches!(op, LayerOp::BatchNorm | LayerOp::Relu))
            .count();
        let flattens = ops().filter(|op| matches!(op, LayerOp::Flatten)).count();
        (sweeps, nodes.len() - sweeps - flattens)
    }

    /// Floats of kernel scratch a piece over `nodes` holds, counted from the
    /// graph: its widest LSTM's two `[hidden]` states plus `4·hidden` gate
    /// pre-activations for each of the `T` timesteps and for one step of the
    /// recurrence.
    fn lstm_scratch(graph: &Graph, nodes: &[NodeId]) -> usize {
        let scratch = nodes.iter().map(|id| {
            let node = graph.node(*id).unwrap();
            match node.op {
                LayerOp::Lstm { hidden } => {
                    2 * hidden + 4 * hidden * (node.output_shape.dims()[0] + 1)
                }
                _ => 0,
            }
        });
        scratch.max().unwrap_or(0)
    }

    /// The arena contract of one compiled chain piece, by exact counts: every
    /// BN/ReLU of the chain is a sweep and no other node is, the buffer
    /// writers are the remaining non-flatten nodes (plus at most one leading
    /// slice or copy of the input), the steps alternate between two slots,
    /// each reading the one the step before wrote (the first the input), the
    /// two slots are exactly as long as the largest output on the even and on
    /// the odd steps, and the scratch is what the widest LSTM needs.
    fn assert_arena_plan(seg: &CompiledSegment, graph: &Graph, nodes: &[NodeId], what: &str) {
        let (elementwise, writers) = count_ops(graph, nodes);
        let swept: usize = seg
            .steps
            .iter()
            .flat_map(|s| &s.sweeps)
            .map(|s| match s {
                Epilogue::Affine { relu: true, .. } => 2,
                _ => 1,
            })
            .sum();
        assert_eq!(swept, elementwise, "{what}: sweeps");
        let lead = matches!(seg.steps[0].kind, StepKind::Slice { .. } | StepKind::Copy);
        assert_eq!(
            seg.steps.len(),
            writers + usize::from(lead),
            "{what}: steps"
        );
        let (mut reads, mut writes) = (Operand::Input, 0);
        for (i, step) in seg.steps.iter().enumerate() {
            let from: Vec<Operand> = step.reads.iter().map(|r| r.from).collect();
            assert_eq!(
                (step.writes, from),
                (writes, vec![reads]),
                "{what}: step {i}"
            );
            (reads, writes) = (Operand::Slot(writes), 1 - writes);
        }
        let cap = |slot: usize| {
            let lens = seg.steps.iter().skip(slot).step_by(2).map(|s| s.out_len);
            lens.max().unwrap_or(0)
        };
        let scratch = lstm_scratch(graph, nodes);
        let slots = [cap(0), cap(1)];
        let plan = ArenaPlan {
            slots: slots[..seg.steps.len().min(2)].to_vec(),
            scratch,
        };
        assert_eq!(seg.lens, plan, "{what}: arena plan");
        assert_eq!(
            seg.activation_bytes(),
            4 * (cap(0) + cap(1) + scratch),
            "{what}: bytes"
        );
    }

    /// Compiles every consecutive group of `model` as a full piece and as a
    /// row, column and channel piece, and holds each that compiles to the
    /// arena contract and to the executor's bits through every entry point.
    /// Returns how many pieces of each kind were checked.
    fn check_every_group(model: &crate::LinearModel, seed: u64) -> [usize; 4] {
        const BATCH: usize = 3;
        let weights = init_weights(model.graph(), seed).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let layers = model.layers();
        let mut checked = [0usize; 4];
        for start in 0..layers.len() {
            let inputs: Vec<Tensor> = (0..BATCH as u64)
                .map(|i| {
                    let x = query(model.input_shape(), seed + 31 * i + 1);
                    match start {
                        0 => x,
                        _ => exec.run_segment(&layers[..start], &x).unwrap(),
                    }
                })
                .collect();
            let flat: Vec<f32> = inputs.iter().flat_map(|x| x.data()).copied().collect();
            for end in start + 1..=layers.len() {
                let group = &layers[start..end];
                let nodes: Vec<NodeId> = group.iter().flat_map(|l| &l.nodes).copied().collect();
                let dims = group[group.len() - 1].out_shape.dims().to_vec();
                let third = |n: usize| n / 3..(2 * n / 3).max(n / 3 + 1);
                let mut specs = vec![PieceSpec::Full, PieceSpec::Channels(third(dims[0]))];
                if dims.len() == 3 {
                    specs.push(PieceSpec::Rows(third(dims[1])));
                    specs.push(PieceSpec::Cols(third(dims[2])));
                }
                for spec in specs {
                    let Ok(mut seg) = CompiledSegment::compile(
                        model.graph(),
                        &weights,
                        group,
                        &spec,
                        &mut PanelCache::new(),
                    ) else {
                        continue;
                    };
                    let what = format!("{} {start}..{end} {spec:?}", model.name());
                    let kind = match &spec {
                        PieceSpec::Full => 0,
                        PieceSpec::Rows(_) => 1,
                        PieceSpec::Cols(_) => 2,
                        PieceSpec::Channels(_) => 3,
                    };
                    checked[kind] += 1;
                    let node = |id: &NodeId| model.graph().node(*id).unwrap();
                    if nodes.iter().any(|id| node(id).inputs.len() > 1) {
                        // A branching group: the skip, two arms and the join
                        // of a residual block, or three arms and the join of
                        // an inception module, are all that is ever live.
                        assert!(seg.lens.slots.len() <= 4, "{what}: {:?}", seg.lens);
                    } else {
                        assert_arena_plan(&seg, model.graph(), &nodes, &what);
                    }
                    if spec == PieceSpec::Full && seg.lens.slots.len() <= 2 {
                        // A full piece's steps are the writer nodes themselves:
                        // the two buffers are sized from the graph alone.
                        let mut cap = [0usize; 2];
                        let lead = usize::from(matches!(seg.steps[0].kind, StepKind::Copy));
                        let writers = nodes
                            .iter()
                            .filter(|id| count_ops(model.graph(), &[**id]).1 == 1);
                        for (i, id) in writers.enumerate() {
                            let len = model.graph().node(*id).unwrap().output_shape.len();
                            cap[(i + lead) % 2] = cap[(i + lead) % 2].max(len);
                        }
                        if lead == 1 {
                            cap[0] = cap[0].max(seg.in_len());
                        }
                        let scratch = lstm_scratch(model.graph(), &nodes);
                        assert_eq!(
                            seg.activation_bytes(),
                            4 * (cap[0] + cap[1] + scratch),
                            "{what}"
                        );
                    }
                    let refs: Vec<Tensor> = inputs
                        .iter()
                        .map(|x| owned_slice(&exec, group, x, &spec))
                        .collect();
                    let out_len = refs[0].shape().len();
                    assert_eq!(seg.out_shape(), refs[0].shape(), "{what}");

                    // On a caller's arena, as a plan runs it: into a join
                    // slice, then into its own buffer for a gather.
                    let mut arena = Arena::default();
                    let mut joined = vec![f32::NAN; out_len];
                    let slot = Some(&mut joined[..]);
                    seg.run_joined(&mut arena, &weights, inputs[0].data(), 1, slot)
                        .unwrap();
                    assert_bits_eq(&joined, refs[0].data(), &format!("{what}: joined"));
                    seg.run_joined(&mut arena, &weights, inputs[0].data(), 1, None)
                        .unwrap();
                    assert_bits_eq(seg.output(), refs[0].data(), &format!("{what}: own"));
                    let out = seg.run(&weights, inputs[0].data()).unwrap();
                    assert_bits_eq(out, refs[0].data(), &format!("{what}: run"));

                    let out = seg.run_batch(&weights, &flat, BATCH).unwrap();
                    for (item, r) in out.chunks_exact(out_len).zip(&refs) {
                        assert_bits_eq(item, r.data(), &format!("{what}: run_batch"));
                    }
                    seg.run_joined(&mut arena, &weights, &flat, BATCH, None)
                        .unwrap();
                    for (item, r) in seg.output().chunks_exact(out_len).zip(&refs) {
                        assert_bits_eq(item, r.data(), &format!("{what}: batch own"));
                    }
                    // The batch grew the private arena to BATCH items; the
                    // plan's per-query figure stands, and a single query after
                    // it reads nothing the batch left behind.
                    for (buf, len) in seg.arena.slots.iter().zip(&seg.lens.slots) {
                        assert_eq!(buf.len(), BATCH * len, "{what}: batch arena");
                    }
                    assert_eq!(seg.arena.scratch.len(), BATCH * seg.lens.scratch, "{what}");
                    assert_eq!(seg.activation_bytes(), seg.lens.bytes(), "{what}");
                    let out = seg.run(&weights, inputs[1].data()).unwrap();
                    assert_bits_eq(out, refs[1].data(), &format!("{what}: run after batch"));
                }
            }
        }
        checked
    }

    #[test]
    fn every_group_and_spec_runs_in_two_buffers_with_the_executors_bits() {
        // Exact counts: a change in what compiles shows up here.
        assert_eq!(check_every_group(&zoo::tiny_vgg(), 5), [28, 15, 15, 9]);
        assert_eq!(
            check_every_group(&zoo::tiny_mobilenet(), 6),
            [153, 120, 120, 25]
        );
        // Every run of one, two and three LSTM layers, whole: a recurrent
        // layer has no row, column or channel piece.
        assert_eq!(
            check_every_group(&zoo::rnn_sized(3, 20, 12), 7),
            [6, 0, 0, 0]
        );
    }

    #[test]
    fn lstm_chains_carry_forwards_bits_at_every_batch_width() {
        // Sizes off the eight-lane body, and widths whose `n·T` right-hand
        // sides cut into blocks of every width.
        for layers in 1..=3usize {
            let model = zoo::rnn_sized(layers, 20, 12);
            let weights = init_weights(model.graph(), 40 + layers as u64).unwrap();
            let exec = Executor::new(model.graph(), &weights);
            let mut seg = CompiledSegment::compile(
                model.graph(),
                &weights,
                model.layers(),
                &PieceSpec::Full,
                &mut PanelCache::new(),
            )
            .unwrap();
            for n in [8usize, 1, 3] {
                let queries: Vec<Tensor> = (0..n as u64)
                    .map(|i| query(model.input_shape(), 70 + i))
                    .collect();
                let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
                let out = seg.run_batch(&weights, &flat, n).unwrap();
                for (item, q) in out.chunks_exact(out.len() / n).zip(&queries) {
                    let reference = exec.forward(&model, q).unwrap();
                    assert_bits_eq(item, reference.data(), &format!("rnn-{layers} n={n}"));
                }
            }
        }
    }

    #[test]
    fn streamed_weight_bytes_count_w_ih_once_and_w_hh_once_per_step() {
        // RNN-3 at full size, on zeroed (so never touched) weights: the
        // hoisted kernel passes over 268 MB of `w_ih` once and 201 MB of
        // `w_hh` nine times — the first step's hidden state is zero and
        // skips it — where a step-by-step cell passed over all 470 MB ten
        // times.
        let model = zoo::rnn(3);
        let mut weights = ModelWeights::new();
        for node in model.graph().nodes() {
            if let LayerOp::Lstm { hidden } = node.op {
                let input = model
                    .graph()
                    .node(node.inputs[0])
                    .unwrap()
                    .output_shape
                    .dims()[1];
                let zeros = |dims: Vec<usize>| Tensor::zeros(Shape::new(dims));
                let params = LstmParams {
                    w_ih: zeros(vec![4 * hidden, input]),
                    w_hh: zeros(vec![4 * hidden, hidden]),
                    bias: zeros(vec![4 * hidden]),
                };
                weights.insert(node.id, NodeWeights::Lstm(params));
            }
        }
        let seg = CompiledSegment::compile(
            model.graph(),
            &weights,
            model.layers(),
            &PieceSpec::Full,
            &mut PanelCache::new(),
        )
        .unwrap();
        let (w_ih, w_hh) = (268_435_456, 201_326_592);
        assert_eq!(
            seg.weight_bytes_streamed(),
            w_ih + (zoo::RNN_SEQ_LEN - 1) * w_hh
        );
        assert!(seg.weight_bytes_streamed() * 2 < zoo::RNN_SEQ_LEN * (w_ih + w_hh));

        // Conv and dense rows are passed over once: the weight tensors' size.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 3).unwrap();
        let seg = CompiledSegment::compile(
            model.graph(),
            &weights,
            model.layers(),
            &PieceSpec::Full,
            &mut PanelCache::new(),
        )
        .unwrap();
        let weighted = model.graph().nodes().iter().filter_map(|n| match n.op {
            LayerOp::Conv2d { .. } | LayerOp::Dense { .. } => {
                Some(4 * row_weights(&weights, n.id).unwrap().0.shape().len())
            }
            _ => None,
        });
        assert_eq!(seg.weight_bytes_streamed(), weighted.sum::<usize>());
    }

    #[test]
    fn a_segment_of_sweeps_copies_its_input_and_lands_in_the_join_slice() {
        // [stem_bn, stem_relu] of tiny-mobilenet as a group of its own: the
        // piece opens with an element-wise op, so it gets one copy step to
        // sweep, and `run_joined` does the sweeping in the caller's slice.
        let model = zoo::tiny_mobilenet();
        let weights = init_weights(model.graph(), 8).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let stem = &model.layers()[0];
        let (conv, rest) = stem.nodes.split_first().unwrap();
        assert_eq!(count_ops(model.graph(), rest), (2, 0));
        let conv_only = MergedLayer {
            nodes: vec![*conv],
            ..stem.clone()
        };
        let sweeps_only = MergedLayer {
            nodes: rest.to_vec(),
            ..stem.clone()
        };
        let x = query(model.input_shape(), 4);
        let input = exec.run_segment(&[conv_only], &x).unwrap();
        let reference = exec.run_segment(std::slice::from_ref(stem), &x).unwrap();

        let mut seg = CompiledSegment::compile(
            model.graph(),
            &weights,
            &[sweeps_only],
            &PieceSpec::Full,
            &mut PanelCache::new(),
        )
        .unwrap();
        assert!(matches!(seg.steps[0].kind, StepKind::Copy));
        assert!(matches!(
            seg.steps[0].sweeps[..],
            [Epilogue::Affine { relu: true, .. }]
        ));
        assert_eq!(seg.activation_bytes(), 4 * input.shape().len());
        let before = input.data().to_vec();
        let mut out = vec![f32::NAN; reference.shape().len()];
        let mut arena = Arena::default();
        seg.run_joined(&mut arena, &weights, input.data(), 1, Some(&mut out))
            .unwrap();
        assert_bits_eq(&out, reference.data(), "sweeps into the join slice");
        assert_bits_eq(
            seg.run(&weights, input.data()).unwrap(),
            reference.data(),
            "run",
        );
        assert_bits_eq(input.data(), &before, "the input is only read");
    }

    #[test]
    fn channel_pieces_borrow_their_rows_from_the_live_weights() {
        // A dense channel piece holds a node id and a row range, never a
        // copy: it follows the live map, and a map whose rows are too few is
        // an error, not a read out of bounds.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 21).unwrap();
        let layers = model.layers();
        let tail = &layers[layers.len() - 1..];
        let out_n = tail[0].out_shape.dims()[0];
        let rows = 1..out_n - 1;
        let mut seg = CompiledSegment::compile(
            model.graph(),
            &weights,
            tail,
            &PieceSpec::Channels(rows.clone()),
            &mut PanelCache::new(),
        )
        .unwrap();
        let StepKind::Dense { id, rows: held } = &seg.steps[0].kind else {
            panic!("dense head expected, got {:?}", seg.steps[0].kind);
        };
        assert_eq!(held, &rows);
        let id = *id;
        let input = vec![0.5f32; seg.in_len()];
        let first = seg.run(&weights, &input).unwrap().to_vec();

        // Same rows, other content: the piece reads the map it is given.
        let NodeWeights::Dense { weight, bias } = weights.get(id).unwrap().clone() else {
            panic!("dense weights expected");
        };
        let mut other = weights.clone();
        other.insert(
            id,
            NodeWeights::Dense {
                weight: weight.map(|w| 2.0 * w),
                bias: bias.map(|b| 2.0 * b),
            },
        );
        let doubled = seg.run(&other, &input).unwrap();
        for (a, b) in first.iter().zip(doubled) {
            assert_eq!((2.0 * a).to_bits(), b.to_bits());
        }

        let mut short = weights.clone();
        short.insert(
            id,
            NodeWeights::Dense {
                weight: weight.slice(0, 0..out_n - 2).unwrap(),
                bias: bias.slice(0, 0..out_n - 2).unwrap(),
            },
        );
        assert!(matches!(
            seg.run(&short, &input),
            Err(ModelError::BadWeights(_))
        ));
    }

    #[test]
    fn branching_groups_compile_to_the_executors_bits() {
        // `Add` (tiny-resnet: identity and projection shortcuts) and `Concat`
        // (tiny-inception) groups, whole and as row and column pieces; a
        // branching layer has no channel piece.
        assert_eq!(check_every_group(&zoo::tiny_resnet(), 13), [36, 21, 21, 5]);
        assert_eq!(
            check_every_group(&zoo::tiny_inception(), 15),
            [21, 10, 10, 5]
        );
    }

    /// `blocks` basic residual blocks (conv-bn-relu-conv-bn, identity skip,
    /// add, relu) on a 4×12×12 input, merged: one layer per block.
    fn residual_chain(blocks: usize) -> crate::LinearModel {
        let conv = LayerOp::Conv2d {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut g = Graph::new();
        let shape = Shape::new(vec![4, 12, 12]);
        let mut cur = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
        for _ in 0..blocks {
            let skip = cur;
            cur = g.add("conv1", conv.clone(), &[cur]).unwrap();
            cur = g.add("bn1", LayerOp::BatchNorm, &[cur]).unwrap();
            cur = g.add("relu1", LayerOp::Relu, &[cur]).unwrap();
            cur = g.add("conv2", conv.clone(), &[cur]).unwrap();
            cur = g.add("bn2", LayerOp::BatchNorm, &[cur]).unwrap();
            cur = g.add("add", LayerOp::Add, &[cur, skip]).unwrap();
            cur = g.add("relu", LayerOp::Relu, &[cur]).unwrap();
        }
        crate::merge::merge_graph("residual-chain", g).unwrap()
    }

    #[test]
    fn residual_chains_run_in_three_slots_and_read_what_was_written() {
        for blocks in 1..=8usize {
            let model = residual_chain(blocks);
            let graph = model.graph();
            let weights = init_weights(graph, 17).unwrap();
            let exec = Executor::new(graph, &weights);
            let input = query(model.input_shape(), 3);
            let compile = |spec: &PieceSpec| {
                let mut cache = PanelCache::new();
                CompiledSegment::compile(graph, &weights, model.layers(), spec, &mut cache).unwrap()
            };
            let mut full = compile(&PieceSpec::Full);
            let mut rows = compile(&PieceSpec::Rows(4..8));
            assert!(full.lens.slots.len() <= 3, "{blocks}: {:?}", full.lens);
            assert!(rows.lens.slots.len() <= 3, "{blocks}: {:?}", rows.lens);
            let reference = exec.forward(&model, &input).unwrap();
            let out = full.run(&weights, input.data()).unwrap();
            assert_bits_eq(out, reference.data(), "residual chain");
            let reference = owned_slice(&exec, model.layers(), &input, &PieceSpec::Rows(4..8));
            let out = rows.run(&weights, input.data()).unwrap();
            assert_bits_eq(out, reference.data(), "residual chain rows");

            // A whole piece has one step per conv and per add, in node order:
            // the value each operand should hold is known from the graph, and
            // no slot may have been written again between that value's step
            // and the read.
            let writers: Vec<&crate::graph::Node> = graph
                .nodes()
                .iter()
                .filter(|n| matches!(n.op, LayerOp::Conv2d { .. } | LayerOp::Add))
                .collect();
            assert_eq!(full.steps.len(), writers.len());
            // The step whose slot holds node `id`'s value: BN and ReLU live
            // in their producer's.
            let step_of = |mut id: NodeId| loop {
                if let Some(step) = writers.iter().position(|w| w.id == id) {
                    break Some(step);
                }
                let node = graph.node(id).unwrap();
                match node.op {
                    LayerOp::Input { .. } => break None,
                    _ => id = node.inputs[0],
                }
            };
            let mut tenant: Vec<Option<usize>> = vec![None; full.lens.slots.len()];
            for (i, (step, node)) in full.steps.iter().zip(&writers).enumerate() {
                for (read, input) in step.reads.iter().zip(&node.inputs) {
                    let held = match read.from {
                        Operand::Input => None,
                        Operand::Slot(s) => tenant[s],
                    };
                    assert_eq!(held, step_of(*input), "{blocks} blocks, step {i}");
                    assert_ne!(read.from, Operand::Slot(step.writes), "step {i}");
                }
                tenant[step.writes] = Some(i);
            }
        }
    }

    #[test]
    fn a_sweep_whose_input_has_another_reader_works_on_a_copy() {
        // A pre-activation block: the conv's output feeds the batch norm and,
        // untouched, the add. Folding the norm into the conv's slot would hand
        // the add a normalized skip.
        let conv = LayerOp::Conv2d {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut g = Graph::new();
        let shape = Shape::new(vec![4, 8, 8]);
        let input = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
        let c0 = g.add("conv0", conv.clone(), &[input]).unwrap();
        let bn = g.add("bn", LayerOp::BatchNorm, &[c0]).unwrap();
        let relu = g.add("relu", LayerOp::Relu, &[bn]).unwrap();
        let c1 = g.add("conv1", conv, &[relu]).unwrap();
        g.add("add", LayerOp::Add, &[c1, c0]).unwrap();
        let model = crate::merge::merge_graph("pre-activation", g).unwrap();
        let weights = init_weights(model.graph(), 23).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let x = query(model.input_shape(), 9);
        for spec in [
            PieceSpec::Full,
            PieceSpec::Rows(2..5),
            PieceSpec::Cols(0..3),
        ] {
            let mut seg = CompiledSegment::compile(
                model.graph(),
                &weights,
                model.layers(),
                &spec,
                &mut PanelCache::new(),
            )
            .unwrap();
            let conv0 = seg
                .steps
                .iter()
                .position(|s| matches!(s.kind, StepKind::Conv { .. }))
                .unwrap();
            assert!(seg.steps[conv0].sweeps.is_empty(), "{spec:?}");
            assert!(matches!(seg.steps[conv0 + 1].kind, StepKind::Copy));
            assert!(matches!(
                seg.steps[conv0 + 1].sweeps[..],
                [Epilogue::Affine { relu: true, .. }]
            ));
            let reference = owned_slice(&exec, model.layers(), &x, &spec);
            let out = seg.run(&weights, x.data()).unwrap();
            assert_bits_eq(out, reference.data(), &format!("{spec:?}"));
        }
    }

    #[test]
    fn spatial_piece_of_dense_fails_to_compile() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 1).unwrap();
        let layers = model.layers();
        let mut cache = PanelCache::new();
        let err = CompiledSegment::compile(
            model.graph(),
            &weights,
            &layers[layers.len() - 1..],
            &PieceSpec::Rows(0..1),
            &mut cache,
        );
        assert!(matches!(err, Err(ModelError::Unsupported(_))));
    }

    #[test]
    fn channel_piece_rejects_non_head_conv() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 1).unwrap();
        let layers = model.layers();
        let conv_indices: Vec<usize> = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.class.channel_splittable() && l.class.supports_spatial())
            .map(|(i, _)| i)
            .collect();
        let adjacent = conv_indices
            .windows(2)
            .find(|w| w[1] == w[0] + 1)
            .expect("adjacent convs in tiny-vgg");
        let seg = &layers[adjacent[0]..=adjacent[1]];
        let mut cache = PanelCache::new();
        let err = CompiledSegment::compile(
            model.graph(),
            &weights,
            seg,
            &PieceSpec::Channels(0..4),
            &mut cache,
        );
        assert!(matches!(err, Err(ModelError::Unsupported(_))));
    }

    #[test]
    fn warm_queries_reuse_buffers() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 3).unwrap();
        let mut cache = PanelCache::new();
        let mut seg = CompiledSegment::compile(
            model.graph(),
            &weights,
            model.layers(),
            &PieceSpec::Full,
            &mut cache,
        )
        .unwrap();
        let a = query(model.input_shape(), 1);
        let b = query(model.input_shape(), 2);
        let ptr_a = seg.run(&weights, a.data()).unwrap().as_ptr();
        let out_a: Vec<f32> = seg.run(&weights, a.data()).unwrap().to_vec();
        let ptr_b = seg.run(&weights, b.data()).unwrap().as_ptr();
        // Same output storage across queries; different inputs change values.
        assert_eq!(ptr_a, ptr_b);
        let out_b = seg.run(&weights, b.data()).unwrap();
        assert_ne!(out_a, out_b);
    }
}
