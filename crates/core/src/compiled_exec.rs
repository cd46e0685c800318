//! Plan-level compiled execution: the steady-state warm path of a deployment.
//!
//! [`CompiledPlanExec`] lowers an [`ExecutionPlan`] over a model into a chain
//! of [`CompiledPartition`]s (one per planned group), one preallocated join
//! buffer per group, and a few *lanes* — activation arenas every piece of the
//! plan runs on in turn. Compilation — plan validation, range balancing,
//! slot assignment and batch-norm folding — happens once per
//! `(plan, model)`; a query then flows through
//! the chain touching only preallocated buffers. A query is a batch of one:
//! `run_raw` is `run_batch_raw` at `n = 1`, through the same groups and
//! buffers, which grow to the widest batch served and are never re-zeroed.
//!
//! Pieces are cut by [`split_ranges`], the geometry the planner prices, and
//! gathered in exactly [`Tensor::concat`]'s memory order, so each item's
//! output is bit-identical to the unpartitioned
//! [`Executor::forward`](gillis_model::exec::Executor::forward) at any thread
//! count and batch width (see the tests at the bottom). A group's
//! pieces are dealt to `min(threads, pieces)` lanes, one pool task per lane;
//! a lane is as large as the widest piece of the whole plan and is shared by
//! every group, so the plan holds a lane per thread in flight, not an arena
//! per piece. A run at one thread caps its kernels at one thread too, so
//! every piece and every kernel runs inline on the caller and the warm path
//! performs zero heap allocations. The one width-dependent decision
//! is the join: a single piece, and a single query's channel-split pieces,
//! write their disjoint slices of the join buffer directly; anything else
//! runs into the piece's own output buffer and is then gathered
//! ([`CompiledPartition::joins_directly`]).
//!
//! Every group the planner can form compiles — chains, residual blocks and
//! inception modules, under every option
//! [`group_options`](crate::partition::group_options) offers — so a compile
//! error means the plan, the model or the weight set is malformed.
//! [`execute_plan_tensors`] is the one-shot form: compile, run one query,
//! drop.

use gillis_model::compiled::{Arena, ArenaPlan, CompiledPartition, PieceSpec};
use gillis_model::weights::ModelWeights;
use gillis_model::{LinearModel, ModelError};
use gillis_tensor::{Shape, Tensor};

use crate::partition::{split_ranges, PartDim, PartitionOption};
use crate::plan::ExecutionPlan;
use crate::{CoreError, Result};

/// One planned group, compiled, plus its preallocated join buffer.
struct CompiledGroup {
    partition: CompiledPartition,
    /// Join buffer the group's pieces are gathered (or directly written)
    /// into; doubles as the next group's input. Holds one item at compile
    /// time and grows to the widest batch run or reserved; a run of `n`
    /// items owns its first `n × out_len` elements and overwrites them all,
    /// so it is never cleared.
    out: Vec<f32>,
}

impl CompiledGroup {
    /// Join-buffer length of `n` items.
    fn out_len(&self, n: usize) -> usize {
        n * self.partition.out_shape().len()
    }

    /// Grows the join buffer to hold `n` items.
    fn grow_join(&mut self, n: usize) {
        if self.out.len() < self.out_len(n) {
            self.out.resize(self.out_len(n), 0.0);
        }
    }
}

/// A whole execution plan compiled for repeated inference.
///
/// Build once with [`CompiledPlanExec::compile`]; run once per query with
/// [`CompiledPlanExec::run_raw`] (borrowed output, allocation-free when
/// warm) or [`CompiledPlanExec::run`] (owned [`Tensor`]), or once per batch
/// with [`CompiledPlanExec::run_batch_raw`].
pub struct CompiledPlanExec {
    groups: Vec<CompiledGroup>,
    in_shape: Shape,
    /// What one lane holds per item: every slot as long as the longest any
    /// piece of the plan puts there.
    lane_plan: ArenaPlan,
    /// The arenas the pieces run on. One is made at compile time and more on
    /// demand, up to the piece count of the widest group: a run at `threads`
    /// uses `min(threads, pieces)` of them per group.
    lanes: Vec<Arena>,
    /// Where each lane's task of the latest fan-out left its error: one
    /// cell per lane there can ever be.
    errs: Vec<Option<ModelError>>,
    /// Piece count of the widest group.
    max_pieces: usize,
    /// The widest batch run or reserved: what a new lane is sized for.
    width: usize,
}

impl CompiledPlanExec {
    /// Compiles `plan` over `model` and `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] if the plan does not validate, and
    /// the underlying [`ModelError`] if a group does not lower or the weight
    /// set does not fit the model.
    pub fn compile(
        model: &LinearModel,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
    ) -> Result<Self> {
        plan.validate(model, u64::MAX)?;
        let mut groups = Vec::with_capacity(plan.groups().len());
        let mut lane_plan = ArenaPlan::default();
        let mut prev_len = model.input_shape().len();
        for g in plan.groups() {
            let layers = &model.layers()[g.start..g.end];
            let (specs, axis) = match g.option {
                PartitionOption::Single => (vec![PieceSpec::Full], 0),
                PartitionOption::Split { dim, parts } => {
                    let (axis, ranges) = split_ranges(layers, dim, parts);
                    let spec = match dim {
                        PartDim::Height => PieceSpec::Rows,
                        PartDim::Width => PieceSpec::Cols,
                        PartDim::Channel => PieceSpec::Channels,
                    };
                    (ranges.into_iter().map(spec).collect(), axis)
                }
            };
            let partition =
                CompiledPartition::compile(model.graph(), weights, layers, &specs, axis)?;
            if partition.in_len() != prev_len {
                return Err(CoreError::InvalidPlan(format!(
                    "compiled group {}..{} expects input length {}, previous group produces {}",
                    g.start,
                    g.end,
                    partition.in_len(),
                    prev_len
                )));
            }
            partition.cover_pieces(&mut lane_plan);
            prev_len = partition.out_shape().len();
            let out = vec![0.0f32; prev_len];
            groups.push(CompiledGroup { partition, out });
        }
        let pieces = groups.iter().map(|g| g.partition.piece_count());
        let max_pieces = pieces.max().unwrap_or(1);
        let mut exec = CompiledPlanExec {
            groups,
            in_shape: model.input_shape().clone(),
            lane_plan,
            lanes: Vec::new(),
            errs: (0..max_pieces).map(|_| None).collect(),
            max_pieces,
            width: 1,
        };
        exec.open_lanes(1);
        Ok(exec)
    }

    /// Makes sure a run at `threads` finds its lanes, each sized for the
    /// widest batch seen so far; returns how many it may use.
    fn open_lanes(&mut self, threads: usize) -> usize {
        let lanes = threads.clamp(1, self.max_pieces);
        while self.lanes.len() < lanes {
            let mut lane = Arena::default();
            lane.reserve(&self.lane_plan, self.width);
            self.lanes.push(lane);
        }
        lanes
    }

    /// Expected input element count.
    pub fn in_len(&self) -> usize {
        self.in_shape.len()
    }

    /// Shape of the model output.
    pub fn out_shape(&self) -> &Shape {
        self.groups
            .last()
            .expect("a validated plan has at least one group")
            .partition
            .out_shape()
    }

    /// Bytes of weights this compilation copied: always 0, since every step
    /// borrows its rows from the live map. It stays only because the repo
    /// benchmark's harness (`benchmark/`, whose source is kept fixed so its
    /// runs stay comparable) reports it as `model.panel_mb`.
    pub fn panel_bytes(&self) -> usize {
        0
    }

    /// How many lanes the plan has opened so far: one, until a run at more
    /// threads over a group of several pieces asks for more.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total bytes of f32 activations one query needs: the lanes opened so
    /// far (each the slots and scratch of the plan's widest piece), one join
    /// buffer per group, and the output of every piece that is gathered. A
    /// figure of the plan and its lanes, whatever batch width the buffers
    /// have since grown to.
    pub fn activation_bytes(&self) -> usize {
        let kept = |g: &CompiledGroup| {
            g.partition.output_bytes() + g.out_len(1) * std::mem::size_of::<f32>()
        };
        self.lanes.len() * self.lane_plan.bytes() + self.groups.iter().map(kept).sum::<usize>()
    }

    /// Weight bytes one query's kernels pass over, counted from step
    /// geometry (see `CompiledSegment::weight_bytes_streamed`): what a
    /// bandwidth-bound plan's time is made of, and it repeats exactly.
    pub fn weight_bytes_streamed(&self) -> usize {
        let streamed = |g: &CompiledGroup| g.partition.weight_bytes_streamed();
        self.groups.iter().map(streamed).sum()
    }

    /// Runs one query, returning a borrow of the final join buffer (and its
    /// shape). Uses the ambient [`gillis_pool::kernel_threads`] width.
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    pub fn run_raw(&mut self, weights: &ModelWeights, input: &[f32]) -> Result<(&[f32], &Shape)> {
        self.run_batch_raw(weights, input, 1)
    }

    /// [`CompiledPlanExec::run_raw`] with an explicit thread count: the
    /// pieces share at most `threads` lanes, and the kernels inside them
    /// fan out no wider ([`gillis_pool::with_width_cap`]), so `threads <= 1`
    /// runs every piece and every kernel on the caller (the allocation-free
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`CompiledPlanExec::in_len`].
    pub fn run_raw_with_threads(
        &mut self,
        weights: &ModelWeights,
        input: &[f32],
        threads: usize,
    ) -> Result<(&[f32], &Shape)> {
        self.run_batch_raw_with_threads(weights, input, 1, threads)
    }

    /// Grows every buffer of the plan for batches up to `n`, so runs
    /// within the declared range allocate nothing when warm.
    pub fn reserve_batch(&mut self, n: usize) {
        self.width = self.width.max(n);
        for lane in &mut self.lanes {
            lane.reserve(&self.lane_plan, self.width);
        }
        for g in &mut self.groups {
            g.partition.reserve_batch(n);
            g.grow_join(n);
        }
    }

    /// Runs a batch of `n` item-major queries (`n × in_len` contiguous),
    /// returning a borrow of the final join buffer (`n × out_len`,
    /// item-major) and the per-item shape. Uses the ambient thread width.
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    pub fn run_batch_raw(
        &mut self,
        weights: &ModelWeights,
        inputs: &[f32],
        n: usize,
    ) -> Result<(&[f32], &Shape)> {
        self.run_batch_raw_with_threads(weights, inputs, n, gillis_pool::kernel_threads())
    }

    /// [`CompiledPlanExec::run_batch_raw`] with an explicit thread count.
    ///
    /// Each item's output is bit-identical to running it alone, at any
    /// thread count: conv, dense and LSTM steps go through the batched kernels
    /// whose bit-identity is proptest-enforced in `gillis-tensor`, every
    /// other step runs per item, and which lane ran a piece leaves no trace.
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * in_len` or `n == 0`.
    pub fn run_batch_raw_with_threads(
        &mut self,
        weights: &ModelWeights,
        inputs: &[f32],
        n: usize,
        threads: usize,
    ) -> Result<(&[f32], &Shape)> {
        assert!(n > 0, "batch must be non-empty");
        assert_eq!(
            inputs.len(),
            n * self.in_len(),
            "compiled plan input length"
        );
        self.width = self.width.max(n);
        let lanes = self.open_lanes(threads);
        // The kernels inside the pieces fan out no wider than the run.
        gillis_pool::with_width_cap(threads, || {
            for i in 0..self.groups.len() {
                let (done, rest) = self.groups.split_at_mut(i);
                let cur = match done.last() {
                    None => inputs,
                    Some(prev) => &prev.out[..prev.out_len(n)],
                };
                let lanes = lanes.min(rest[0].partition.piece_count());
                let (lanes, errs) = (&mut self.lanes[..lanes], &mut self.errs[..lanes]);
                run_group(&mut rest[0], lanes, errs, weights, cur, n)?;
            }
            Ok::<_, CoreError>(())
        })?;
        let last = self.groups.last().expect("a validated plan has groups");
        Ok((&last.out[..last.out_len(n)], last.partition.out_shape()))
    }

    /// Runs one query and materializes the output as an owned [`Tensor`].
    /// Uses the ambient [`gillis_pool::kernel_threads`] width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `input` is not shaped like
    /// the model input, and propagates piece-execution errors (stale
    /// weights).
    pub fn run(&mut self, weights: &ModelWeights, input: &Tensor) -> Result<Tensor> {
        self.run_with_threads(weights, input, gillis_pool::kernel_threads())
    }

    /// [`CompiledPlanExec::run`] with an explicit thread count.
    fn run_with_threads(
        &mut self,
        weights: &ModelWeights,
        input: &Tensor,
        threads: usize,
    ) -> Result<Tensor> {
        if input.shape() != &self.in_shape {
            return Err(CoreError::InvalidArgument(format!(
                "input shape {} does not match the model input shape {}",
                input.shape(),
                self.in_shape
            )));
        }
        let (data, shape) = self.run_raw_with_threads(weights, input.data(), threads)?;
        Ok(Tensor::from_vec(shape.clone(), data.to_vec()).map_err(ModelError::from)?)
    }
}

/// Executes a plan with real tensor math, once: compiles it, runs `input`
/// through it at the ambient [`gillis_pool::kernel_threads`] width and drops
/// the compiled state. The result is bit-identical to the unpartitioned
/// forward pass — Gillis's no-accuracy-loss property. A deployment keeps its
/// [`CompiledPlanExec`] instead, and pays the compile once.
///
/// # Errors
///
/// Returns [`CoreError::InvalidPlan`] if the plan does not validate against
/// the model, [`CoreError::InvalidArgument`] for a mis-shaped input, and
/// propagates compile and piece-execution errors.
pub fn execute_plan_tensors(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
) -> Result<Tensor> {
    execute_plan_tensors_with_threads(model, plan, weights, input, gillis_pool::kernel_threads())
}

/// [`execute_plan_tensors`] with an explicit thread count (`threads <= 1`
/// runs every piece inline on the caller).
///
/// # Errors
///
/// Same conditions as [`execute_plan_tensors`].
pub fn execute_plan_tensors_with_threads(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
    threads: usize,
) -> Result<Tensor> {
    CompiledPlanExec::compile(model, plan, weights)?.run_with_threads(weights, input, threads)
}

/// Runs one compiled group's pieces over `n` item-major activations into the
/// first `n × out_len` elements of its join buffer.
///
/// On one lane the pieces run in turn on the caller; on several they are
/// dealt out ([`CompiledPartition::deal`]) and each lane's share is one task
/// on the shared pool, running its pieces' whole batch on one worker, its
/// error left in the lane's slot of `errs`. Pieces that can write disjoint
/// `&mut` slices of the join buffer do so directly; the rest run into their
/// own buffers and are gathered afterwards in [`Tensor::concat`] order per
/// item. Both joins produce bit-identical buffers.
fn run_group(
    g: &mut CompiledGroup,
    lanes: &mut [Arena],
    errs: &mut [Option<ModelError>],
    weights: &ModelWeights,
    inputs: &[f32],
    n: usize,
) -> Result<()> {
    g.grow_join(n);
    let out_len = g.out_len(n);
    let out = &mut g.out[..out_len];
    if let [lane] = lanes {
        return Ok(g.partition.run_into(lane, weights, inputs, n, out)?);
    }
    let shares = g.partition.deal(lanes.len(), n, out);
    let shares = shares.zip(lanes.iter_mut().zip(errs.iter_mut()));
    gillis_pool::Pool::global().for_each_item(shares, |(share, (lane, err))| {
        *err = share.run(lane, weights, inputs).err();
    });
    if let Some(e) = errs.iter_mut().find_map(Option::take) {
        return Err(e.into());
    }
    g.partition.gather(n, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forkjoin::fixtures::forced_split_plan;
    use crate::plan::{Placement, PlannedGroup};
    use gillis_model::exec::Executor;
    use gillis_model::weights::init_weights;
    use gillis_model::zoo;
    use proptest::prelude::*;

    fn query(shape: &Shape, seed: u64) -> Tensor {
        let mut x = seed | 1;
        Tensor::from_fn(shape.clone(), |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 1000) as f32 / 500.0) - 1.0
        })
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// Random valid plans for tiny-vgg: contiguous groups with a random
    /// option drawn from the group's feasible set.
    fn arb_plan(model: &LinearModel) -> impl Strategy<Value = ExecutionPlan> {
        let n = model.layers().len();
        let model = model.clone();
        // Random cut mask over layer boundaries + per-group option picks.
        (
            proptest::collection::vec(any::<bool>(), n - 1),
            proptest::collection::vec(0usize..64, n),
        )
            .prop_map(move |(cuts, picks)| {
                let mut bounds = vec![0usize];
                for (i, &c) in cuts.iter().enumerate() {
                    if c {
                        bounds.push(i + 1);
                    }
                }
                bounds.push(n);
                let mut groups = Vec::new();
                for (gi, w) in bounds.windows(2).enumerate() {
                    let opts = crate::partition::group_options(&model, w[0], w[1], &[2, 3, 4]);
                    let option = opts[picks[gi % picks.len()] % opts.len()];
                    groups.push(PlannedGroup {
                        start: w[0],
                        end: w[1],
                        option,
                        placement: match option {
                            PartitionOption::Single => Placement::Master,
                            _ => Placement::Workers,
                        },
                    });
                }
                ExecutionPlan::new(groups)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Compiled execution is bit-identical to the unpartitioned
        /// `Executor::forward` for random plans on tiny-vgg, across thread
        /// counts 1, 2, and 8.
        #[test]
        fn compiled_plan_is_bit_identical_across_threads(
            plan_seed in arb_plan(&zoo::tiny_vgg()),
            wseed in 0u64..1000,
            qseed in 0u64..1000,
        ) {
            let model = zoo::tiny_vgg();
            let weights = init_weights(model.graph(), wseed).unwrap();
            let input = query(model.input_shape(), qseed);
            let reference = Executor::new(model.graph(), &weights)
                .forward(&model, &input)
                .unwrap();
            let mut compiled = CompiledPlanExec::compile(&model, &plan_seed, &weights).unwrap();
            for threads in [1usize, 2, 8] {
                let out = {
                    let (data, shape) = compiled
                        .run_raw_with_threads(&weights, input.data(), threads)
                        .unwrap();
                    Tensor::from_vec(shape.clone(), data.to_vec()).unwrap()
                };
                assert_bits_eq(&out, &reference, "compiled vs forward");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The one-shot entry point gives `forward`'s bits for the DP's own
        /// plan at any thread count.
        #[test]
        fn plan_execution_is_bit_identical_across_thread_counts(
            (weight_seed, input_scale) in (0u64..1000, 1usize..5),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % (7 * input_scale)) as f32 - 3.0) / (4.0 * input_scale as f32)
            });
            let plan = dp_plan(&tiny);
            let full = Executor::new(tiny.graph(), &weights)
                .forward(&tiny, &input)
                .unwrap();
            for threads in [1usize, 2, 8] {
                let out =
                    execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, threads)
                        .unwrap();
                assert_bits_eq(&out, &full, &format!("{threads} threads"));
            }
        }
    }

    /// The DP's latency-optimal plan for `model` on Lambda at degrees 2 and 4.
    fn dp_plan(model: &LinearModel) -> ExecutionPlan {
        use crate::dp::{DpPartitioner, PartitionerConfig};
        let perf = gillis_perf::PerfModel::analytic(&gillis_faas::PlatformProfile::aws_lambda());
        let config = PartitionerConfig {
            degrees: vec![2, 4],
            ..PartitionerConfig::default()
        };
        DpPartitioner::new(config).partition(model, &perf).unwrap()
    }

    #[test]
    fn plan_execution_preserves_semantics() {
        // The headline property: a partitioned plan computes exactly the
        // same logits as the unpartitioned model.
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 77).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 17) as f32 - 8.0) / 8.0
        });
        let full = Executor::new(tiny.graph(), &weights)
            .forward(&tiny, &input)
            .unwrap();
        let out = execute_plan_tensors(&tiny, &dp_plan(&tiny), &weights, &input).unwrap();
        assert_bits_eq(&out, &full, "DP plan");
    }

    #[test]
    fn forced_parallel_plan_execution_preserves_semantics() {
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 78).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| (i as f32 * 0.37).sin());
        let full = Executor::new(tiny.graph(), &weights)
            .forward(&tiny, &input)
            .unwrap();
        let plan = forced_split_plan(&tiny);
        let out = execute_plan_tensors(&tiny, &plan, &weights, &input).unwrap();
        assert_bits_eq(&out, &full, "forced split plan");
    }

    #[test]
    fn a_mis_shaped_input_is_an_error_naming_both_shapes() {
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 79).unwrap();
        let plan = forced_split_plan(&tiny);
        let wrong = Tensor::zeros(Shape::new(vec![tiny.input_shape().len()]));
        let err = execute_plan_tensors(&tiny, &plan, &weights, &wrong).unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
        let (got, want) = (wrong.shape().to_string(), tiny.input_shape().to_string());
        assert!(err.to_string().contains(&got), "{err}");
        assert!(err.to_string().contains(&want), "{err}");
    }

    #[test]
    fn forced_four_way_height_split_matches() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 7).unwrap();
        let input = query(model.input_shape(), 3);
        let n = model.layers().len();
        let spatial_end = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .count();
        let plan = ExecutionPlan::new(vec![
            PlannedGroup {
                start: 0,
                end: spatial_end,
                option: PartitionOption::Split {
                    dim: PartDim::Height,
                    parts: 4,
                },
                placement: Placement::Workers,
            },
            PlannedGroup {
                start: spatial_end,
                end: n,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
        ]);
        plan.validate(&model, u64::MAX).unwrap();
        let reference = Executor::new(model.graph(), &weights)
            .forward(&model, &input)
            .unwrap();
        let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
        for threads in [1usize, 2, 8] {
            let (data, shape) = compiled
                .run_raw_with_threads(&weights, input.data(), threads)
                .unwrap();
            let out = Tensor::from_vec(shape.clone(), data.to_vec()).unwrap();
            assert_bits_eq(&out, &reference, "4-way height split");
        }
    }

    #[test]
    fn batched_plan_is_bit_identical_to_sequential_across_threads() {
        // The tentpole determinism property one level up from the kernels:
        // a batched pass over a multi-group plan (spatial split + single
        // tail) equals N per-query passes to the bit, at every thread count
        // the repo tests.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 7).unwrap();
        let n_layers = model.layers().len();
        let spatial_end = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .count();
        let plan = ExecutionPlan::new(vec![
            PlannedGroup {
                start: 0,
                end: spatial_end,
                option: PartitionOption::Split {
                    dim: PartDim::Height,
                    parts: 4,
                },
                placement: Placement::Workers,
            },
            PlannedGroup {
                start: spatial_end,
                end: n_layers,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
        ]);
        plan.validate(&model, u64::MAX).unwrap();
        let in_len = model.input_shape().len();
        let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
        compiled.reserve_batch(8);
        for n in [2usize, 3, 8] {
            let queries: Vec<Tensor> = (0..n)
                .map(|i| query(model.input_shape(), 90 + i as u64))
                .collect();
            let mut inputs = vec![0.0f32; n * in_len];
            for (q, dst) in queries.iter().zip(inputs.chunks_mut(in_len)) {
                dst.copy_from_slice(q.data());
            }
            let seq: Vec<Vec<f32>> = queries
                .iter()
                .map(|q| {
                    compiled
                        .run_raw_with_threads(&weights, q.data(), 1)
                        .unwrap()
                        .0
                        .to_vec()
                })
                .collect();
            for threads in [1usize, 2, 8] {
                let (got, _) = compiled
                    .run_batch_raw_with_threads(&weights, &inputs, n, threads)
                    .unwrap();
                let out_len = got.len() / n;
                for (i, want) in seq.iter().enumerate() {
                    for (j, (x, y)) in want
                        .iter()
                        .zip(got[i * out_len..(i + 1) * out_len].iter())
                        .enumerate()
                    {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "n={n} threads={threads} item={i} element {j}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    /// `model` as one split group `0..end` followed by a single tail.
    fn split_then_single(
        model: &LinearModel,
        end: usize,
        option: PartitionOption,
    ) -> ExecutionPlan {
        let group = |start, end, option, placement| PlannedGroup {
            start,
            end,
            option,
            placement,
        };
        let plan = ExecutionPlan::new(vec![
            group(0, end, option, Placement::Workers),
            group(
                end,
                model.layers().len(),
                PartitionOption::Single,
                Placement::Master,
            ),
        ]);
        plan.validate(model, u64::MAX).unwrap();
        plan
    }

    /// One plan per join the executor has: no join, the strided gather of a
    /// four-way height split, and the contiguous join of a two-way channel
    /// split of the head layer. A recurrent model has no split: whole, and
    /// one function per layer.
    fn join_plans(model: &LinearModel) -> Vec<(&'static str, ExecutionPlan)> {
        let tall = |l: &&gillis_model::MergedLayer| {
            l.class.supports_spatial() && l.out_shape.dims()[1] >= 4
        };
        let spatial_end = model.layers().iter().take_while(tall).count();
        let split = |dim, parts| PartitionOption::Split { dim, parts };
        if spatial_end == 0 {
            let per_layer = (0..model.layers().len()).map(|i| PlannedGroup {
                start: i,
                end: i + 1,
                option: PartitionOption::Single,
                placement: Placement::Master,
            });
            return vec![
                ("single", ExecutionPlan::single_function(model)),
                ("per-layer", ExecutionPlan::new(per_layer.collect())),
            ];
        }
        vec![
            ("single", ExecutionPlan::single_function(model)),
            (
                "Hx4",
                split_then_single(model, spatial_end, split(PartDim::Height, 4)),
            ),
            (
                "Cx2",
                split_then_single(model, 1, split(PartDim::Channel, 2)),
            ),
        ]
    }

    /// What a fresh exec — one that has never run anything else — returns
    /// for each query alone.
    fn fresh_singles(
        model: &LinearModel,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        queries: &[Tensor],
    ) -> Vec<Vec<f32>> {
        let mut fresh = CompiledPlanExec::compile(model, plan, weights).unwrap();
        let run = |q: &Tensor| {
            fresh
                .run_raw_with_threads(weights, q.data(), 1)
                .unwrap()
                .0
                .to_vec()
        };
        queries.iter().map(run).collect()
    }

    fn assert_items_eq(got: &[f32], want: &[Vec<f32>], what: &str) {
        assert_eq!(
            got.len(),
            want.iter().map(Vec::len).sum::<usize>(),
            "{what}"
        );
        for (i, (got, want)) in got.chunks_exact(want[0].len()).zip(want).enumerate() {
            for (j, (x, y)) in got.iter().zip(want).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} item {i} element {j}");
            }
        }
    }

    #[test]
    fn every_join_at_every_width_equals_the_single_query() {
        // One table over the whole width-n path: each item of a batch, at
        // any width and thread count and through either join, carries the
        // bits a fresh exec gives that query alone — `Executor::forward`'s.
        let models = [
            (zoo::tiny_vgg(), 7),
            (zoo::tiny_mobilenet(), 8),
            (zoo::rnn_sized(3, 20, 12), 9),
        ];
        for (model, wseed) in models {
            let weights = init_weights(model.graph(), wseed).unwrap();
            let queries: Vec<Tensor> = (0..8).map(|i| query(model.input_shape(), 90 + i)).collect();
            let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
            let in_len = model.input_shape().len();
            let forward = Executor::new(model.graph(), &weights);
            for (plan_name, plan) in join_plans(&model) {
                let want = fresh_singles(&model, &plan, &weights, &queries);
                for (q, w) in queries.iter().zip(&want) {
                    let r = forward.forward(&model, q).unwrap();
                    assert_items_eq(r.data(), std::slice::from_ref(w), "forward");
                }
                for n in [1usize, 2, 3, 8] {
                    let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
                    for threads in [1usize, 2, 8] {
                        let (got, _) = compiled
                            .run_batch_raw_with_threads(&weights, &flat[..n * in_len], n, threads)
                            .unwrap();
                        let what = format!("{} {plan_name} n={n} threads={threads}", model.name());
                        assert_items_eq(got, &want[..n], &what);
                    }
                }
            }
        }
    }

    #[test]
    fn batches_and_singles_interleave_on_one_exec() {
        // batch 8 → single → batch 3 → single on one exec: the buffers grow
        // once and are never cleared, so every later, narrower run sits on
        // top of what the wide one left behind and must not read any of it.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 7).unwrap();
        let queries: Vec<Tensor> = (0..13)
            .map(|i| query(model.input_shape(), 40 + i))
            .collect();
        let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
        let in_len = model.input_shape().len();
        for (plan_name, plan) in join_plans(&model) {
            let want = fresh_singles(&model, &plan, &weights, &queries);
            for threads in [1usize, 2] {
                let what = format!("{plan_name} threads={threads}");
                let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
                // The figure counts the lanes opened, one per thread the
                // widest group can use; no batch width moves it.
                let lanes = threads.min(compiled.max_pieces);
                let planned =
                    compiled.activation_bytes() + (lanes - 1) * compiled.lane_plan.bytes();
                let mut ptrs = Vec::new();
                for items in [0..8usize, 8..9, 9..12, 12..13] {
                    let inputs = &flat[items.start * in_len..items.end * in_len];
                    let (got, _) = compiled
                        .run_batch_raw_with_threads(&weights, inputs, items.len(), threads)
                        .unwrap();
                    assert_items_eq(got, &want[items.clone()], &format!("{what} {items:?}"));
                    ptrs.push(got.as_ptr());
                    assert_eq!(compiled.activation_bytes(), planned, "{what}: plan figure");
                }
                // Grown by the first batch, the output storage then stays
                // put: later batches and singles alike reuse it.
                assert!(ptrs.iter().all(|p| *p == ptrs[0]), "{what}: storage moved");
            }
        }
    }

    /// `model` as the group `start..end` under `option` between
    /// single-function neighbours.
    fn plan_around(
        model: &LinearModel,
        start: usize,
        end: usize,
        option: PartitionOption,
    ) -> ExecutionPlan {
        let single = |start, end| PlannedGroup {
            start,
            end,
            option: PartitionOption::Single,
            placement: Placement::Master,
        };
        let mut groups = vec![PlannedGroup {
            start,
            end,
            option,
            placement: match option {
                PartitionOption::Single => Placement::Master,
                _ => Placement::Workers,
            },
        }];
        if start > 0 {
            groups.insert(0, single(0, start));
        }
        if end < model.layers().len() {
            groups.push(single(end, model.layers().len()));
        }
        let plan = ExecutionPlan::new(groups);
        plan.validate(model, u64::MAX).unwrap();
        plan
    }

    /// The ResNet architecture narrow enough to run a few thousand times: a
    /// stem and two basic blocks, the first with an identity shortcut, the
    /// second strided with a projection one, then the classifier.
    fn small_resnet() -> LinearModel {
        use gillis_model::{Graph, LayerOp};
        let conv = |out_channels, kernel, stride, padding| LayerOp::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        };
        let mut g = Graph::new();
        let shape = Shape::new(vec![3, 16, 16]);
        let mut cur = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
        cur = g.add("stem", conv(8, 3, 1, 1), &[cur]).unwrap();
        cur = g.add("stem_bn", LayerOp::BatchNorm, &[cur]).unwrap();
        cur = g.add("stem_relu", LayerOp::Relu, &[cur]).unwrap();
        for (tag, channels, stride) in [("b1", 8, 1), ("b2", 16, 2)] {
            let skip = cur;
            let name = |part: &str| format!("{tag}_{part}");
            cur = g
                .add(name("conv1"), conv(channels, 3, stride, 1), &[cur])
                .unwrap();
            cur = g.add(name("bn1"), LayerOp::BatchNorm, &[cur]).unwrap();
            cur = g.add(name("relu1"), LayerOp::Relu, &[cur]).unwrap();
            cur = g
                .add(name("conv2"), conv(channels, 3, 1, 1), &[cur])
                .unwrap();
            cur = g.add(name("bn2"), LayerOp::BatchNorm, &[cur]).unwrap();
            let shortcut = match stride {
                1 => skip,
                _ => {
                    let sc = g.add(name("sc_conv"), conv(channels, 1, stride, 0), &[skip]);
                    g.add(name("sc_bn"), LayerOp::BatchNorm, &[sc.unwrap()])
                        .unwrap()
                }
            };
            cur = g.add(name("add"), LayerOp::Add, &[cur, shortcut]).unwrap();
            cur = g.add(name("relu"), LayerOp::Relu, &[cur]).unwrap();
        }
        cur = g.add("gap", LayerOp::GlobalAvgPool, &[cur]).unwrap();
        cur = g.add("flatten", LayerOp::Flatten, &[cur]).unwrap();
        g.add("fc", LayerOp::Dense { out_features: 10 }, &[cur])
            .unwrap();
        gillis_model::merge::merge_graph("small-resnet", g).unwrap()
    }

    #[test]
    fn every_option_of_every_architecture_compiles_to_forwards_bits() {
        // The table that lets the warm path stand alone: every architecture
        // of the zoo at reduced width (chains, residual blocks with identity
        // and projection shortcuts, inception modules, depthwise-separable
        // blocks, LSTM stacks) × every option `group_options` offers on every
        // group of up to three layers (every group, on the smaller models) ×
        // batch {1, 3} × threads {1, 2, 8}: every output carries
        // `Executor::forward`'s bits, whatever the lane count. The zoo's own
        // tiny-resnet, 11 M weights wide, runs each of its plans once: one
        // query, two lanes.
        let models = [
            (zoo::tiny_vgg(), 7, true),
            (small_resnet(), 8, true),
            (zoo::tiny_inception(), 9, true),
            (zoo::tiny_mobilenet(), 10, true),
            (zoo::rnn_sized(3, 20, 12), 11, true),
            (zoo::tiny_resnet(), 12, false),
        ];
        let mut plans = 0;
        for (model, wseed, crossed) in models {
            let (widths, lanes): (&[usize], &[usize]) = match crossed {
                true => (&[1, 3], &[1, 2, 8]),
                false => (&[1], &[2]),
            };
            let weights = init_weights(model.graph(), wseed).unwrap();
            let forward = Executor::new(model.graph(), &weights);
            let queries: Vec<Tensor> = (0..3).map(|i| query(model.input_shape(), 50 + i)).collect();
            let flat: Vec<f32> = queries.iter().flat_map(|q| q.data()).copied().collect();
            let want: Vec<Tensor> = queries
                .iter()
                .map(|q| forward.forward(&model, q).unwrap())
                .collect();
            let (in_len, out_len) = (model.input_shape().len(), want[0].data().len());
            let layers = model.layers().len();
            let groups = (0..layers)
                .flat_map(|start| (start + 1..=layers).map(move |end| (start, end)))
                .filter(|(start, end)| end - start <= 3 || layers <= 8);
            for (start, end) in groups {
                for option in crate::partition::group_options(&model, start, end, &[2, 3, 4]) {
                    let plan = plan_around(&model, start, end, option);
                    plans += 1;
                    let what = format!("{} {start}..{end} {option:?}", model.name());
                    let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    for &n in widths {
                        for &threads in lanes {
                            let (got, _) = compiled
                                .run_batch_raw_with_threads(
                                    &weights,
                                    &flat[..n * in_len],
                                    n,
                                    threads,
                                )
                                .unwrap();
                            for (item, want) in got.chunks_exact(out_len).zip(&want) {
                                let same = item
                                    .iter()
                                    .zip(want.data())
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                                assert!(same, "{what} n={n} threads={threads}: differs");
                            }
                        }
                    }
                }
            }
        }
        // A change in what `group_options` offers shows up here.
        assert_eq!(plans, 787);
    }

    #[test]
    fn lanes_hold_the_widest_piece_once_per_thread_in_flight() {
        use gillis_model::compiled::{ArenaPlan, CompiledSegment, PanelCache};
        // tiny-vgg, its first four layers forced eight ways along height:
        // whatever the piece count, the plan holds one lane per thread in
        // flight — each the slots of the plan's widest piece — plus what the
        // gather needs (every piece's output) and the join buffers.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 7).unwrap();
        let input = query(model.input_shape(), 3);
        let option = PartitionOption::Split {
            dim: PartDim::Height,
            parts: 8,
        };
        let plan = split_then_single(&model, 4, option);
        let layers = model.layers();
        let (_, ranges) = split_ranges(&layers[..4], PartDim::Height, 8);
        let specs = ranges.into_iter().map(PieceSpec::Rows);
        let pieces: Vec<(CompiledSegment, bool)> = specs
            .map(|spec| (&layers[..4], spec, true))
            .chain([(&layers[4..], PieceSpec::Full, false)])
            .map(|(group, spec, gathered)| {
                let mut cache = PanelCache::new();
                let seg =
                    CompiledSegment::compile(model.graph(), &weights, group, &spec, &mut cache);
                (seg.unwrap(), gathered)
            })
            .collect();
        let mut lane = ArenaPlan::default();
        pieces.iter().for_each(|(p, _)| lane.cover(p.arena_plan()));
        let widest = pieces
            .iter()
            .map(|(p, _)| p.activation_bytes())
            .max()
            .unwrap();
        assert!(lane.bytes() >= widest && lane.bytes() < 2 * widest);
        let outputs: usize = pieces
            .iter()
            .filter(|(_, gathered)| *gathered)
            .map(|(p, _)| 4 * p.out_shape().len())
            .sum();
        let joins = 4 * (layers[3].out_shape.len() + layers[layers.len() - 1].out_shape.len());

        let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
        let reference = compiled
            .run_raw_with_threads(&weights, input.data(), 1)
            .unwrap()
            .0
            .to_vec();
        assert_eq!(compiled.lanes(), 1);
        assert_eq!(compiled.activation_bytes(), lane.bytes() + outputs + joins);
        let two = compiled
            .run_raw_with_threads(&weights, input.data(), 2)
            .unwrap()
            .0
            .to_vec();
        assert_eq!(compiled.lanes(), 2);
        assert_eq!(
            compiled.activation_bytes(),
            2 * lane.bytes() + outputs + joins
        );
        assert_eq!(two, reference);
        // A batch grows the buffers, not the plan's figure.
        compiled.reserve_batch(4);
        assert_eq!(
            compiled.activation_bytes(),
            2 * lane.bytes() + outputs + joins
        );

        // A plan of single pieces never opens a second lane.
        let single = ExecutionPlan::single_function(&model);
        let mut compiled = CompiledPlanExec::compile(&model, &single, &weights).unwrap();
        let out = compiled
            .run_raw_with_threads(&weights, input.data(), 8)
            .unwrap()
            .0
            .to_vec();
        assert_eq!(compiled.lanes(), 1);
        assert_eq!(out, reference);
    }

    #[test]
    fn warm_queries_share_output_storage() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 5).unwrap();
        let plan = ExecutionPlan::single_function(&model);
        let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
        let a = query(model.input_shape(), 1);
        let b = query(model.input_shape(), 2);
        let ptr_a = compiled
            .run_raw_with_threads(&weights, a.data(), 1)
            .unwrap()
            .0
            .as_ptr();
        let ptr_b = compiled
            .run_raw_with_threads(&weights, b.data(), 1)
            .unwrap()
            .0
            .as_ptr();
        assert_eq!(ptr_a, ptr_b);
    }
}
