//! Plan-level compiled execution: the steady-state warm path of a deployment.
//!
//! [`CompiledPlanExec`] lowers an [`ExecutionPlan`] over a model into a chain
//! of [`CompiledPartition`]s (one per planned group) plus one preallocated
//! join buffer per group. Compilation — plan validation, range balancing,
//! arena planning, batch-norm folding, and int8 panel quantization when
//! asked for — happens once per `(plan, model)`; a query then flows through the chain touching
//! only preallocated buffers. A query is a batch of one: `run_raw` is
//! `run_batch_raw` at `n = 1`, through the same groups and buffers, which
//! grow to the widest batch served and are never re-zeroed.
//!
//! Piece dispatch mirrors [`execute_plan_tensors`](crate::forkjoin): the same
//! [`split_ranges`] cuts and a gather in exactly [`Tensor::concat`]'s memory
//! order, so each item's output is bit-identical to the uncompiled path at
//! any thread count and batch width (see the tests at the bottom). With
//! `threads <= 1` every piece runs inline on the caller and the warm path
//! performs zero heap allocations; with more threads, pieces of a group fan
//! out on the shared pool. The one width-dependent decision is the join: a
//! single query's channel-split pieces write their disjoint slices of the
//! join buffer directly, anything else runs and is then gathered
//! ([`CompiledPartition::contiguous_ranges`]).
//!
//! Compilation fails with an error (never wrong results) on models the
//! compiled path does not cover — branching graphs (ResNet's `Add`,
//! inception `Concat`). Callers fall back to
//! [`execute_plan_tensors`](crate::forkjoin::execute_plan_tensors).

use gillis_model::compiled::{CompileOptions, CompiledPartition, PanelCache, PieceSpec};
use gillis_model::weights::ModelWeights;
use gillis_model::LinearModel;
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
    in_len: usize,
    /// The int8 weight panels of a quantized compile (an f32 compile holds
    /// none), kept for capacity reporting.
    panels: PanelCache,
}

impl CompiledPlanExec {
    /// Compiles `plan` over `model` and `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] if the plan does not validate, and
    /// the underlying [`ModelError`](gillis_model::ModelError) if the model
    /// is outside the compiled subset (branching graphs) — in which case
    /// callers should fall back to the uncompiled path.
    pub fn compile(
        model: &LinearModel,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
    ) -> Result<Self> {
        Self::compile_with(model, plan, weights, CompileOptions::default())
    }

    /// [`CompiledPlanExec::compile`] with explicit deployment options:
    /// int8-quantized weight panels and/or the int8 wire simulation on
    /// partitioned joins (see `gillis_model::compiled::CompileOptions`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledPlanExec::compile`].
    pub fn compile_with(
        model: &LinearModel,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        opts: CompileOptions,
    ) -> Result<Self> {
        plan.validate(model, u64::MAX)?;
        let mut cache = PanelCache::new();
        let mut groups = Vec::with_capacity(plan.groups().len());
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
            let partition = CompiledPartition::compile_with(
                model.graph(),
                weights,
                layers,
                &specs,
                axis,
                &mut cache,
                opts,
            )?;
            if partition.in_len() != prev_len {
                return Err(CoreError::InvalidPlan(format!(
                    "compiled group {}..{} expects input length {}, previous group produces {}",
                    g.start,
                    g.end,
                    partition.in_len(),
                    prev_len
                )));
            }
            prev_len = partition.out_shape().len();
            let out = vec![0.0f32; prev_len];
            groups.push(CompiledGroup { partition, out });
        }
        Ok(CompiledPlanExec {
            groups,
            in_len: model.input_shape().len(),
            panels: cache,
        })
    }

    /// Expected input element count.
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Shape of the model output.
    pub fn out_shape(&self) -> &Shape {
        self.groups
            .last()
            .expect("a validated plan has at least one group")
            .partition
            .out_shape()
    }

    /// Total bytes of weight panels this compilation copied: the int8 panels
    /// of a quantized compile, 0 for f32, whose steps borrow the live rows.
    pub fn panel_bytes(&self) -> usize {
        self.panels.bytes()
    }

    /// Total bytes of f32 activations one query needs: two arena buffers per
    /// piece plus one join buffer per group. A figure of the plan, whatever
    /// batch width the buffers have since grown to.
    pub fn activation_bytes(&self) -> usize {
        let bytes = |g: &CompiledGroup| {
            g.partition.activation_bytes() + g.out_len(1) * std::mem::size_of::<f32>()
        };
        self.groups.iter().map(bytes).sum()
    }

    /// Weight bytes one query's kernels pass over, counted from step
    /// geometry (see `CompiledSegment::weight_bytes_streamed`): what a
    /// bandwidth-bound plan's time is made of, and it repeats exactly.
    pub fn weight_bytes_streamed(&self) -> usize {
        let streamed = |g: &CompiledGroup| g.partition.weight_bytes_streamed();
        self.groups.iter().map(streamed).sum()
    }

    /// Runs one query, returning a borrow of the final join buffer (and its
    /// shape). Uses the ambient [`gillis_pool::gillis_threads`] width.
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    pub fn run_raw(&mut self, weights: &ModelWeights, input: &[f32]) -> Result<(&[f32], &Shape)> {
        self.run_batch_raw(weights, input, 1)
    }

    /// [`CompiledPlanExec::run_raw`] with an explicit thread count;
    /// `threads <= 1` runs every piece inline on the caller (the
    /// allocation-free path).
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

    /// Grows every buffer in the chain for batches up to `n`, so runs
    /// within the declared range allocate nothing when warm.
    pub fn reserve_batch(&mut self, n: usize) {
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
        self.run_batch_raw_with_threads(weights, inputs, n, gillis_pool::gillis_threads())
    }

    /// [`CompiledPlanExec::run_batch_raw`] with an explicit thread count.
    ///
    /// Each item's output is bit-identical to running it alone, at any
    /// thread count: conv, dense and LSTM steps go through the batched kernels
    /// whose bit-identity is proptest-enforced in `gillis-tensor`, every
    /// other step runs per item, and the int8 wire round trip is applied per
    /// `(piece, item)` payload.
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
        assert_eq!(inputs.len(), n * self.in_len, "compiled plan input length");
        for i in 0..self.groups.len() {
            let (done, rest) = self.groups.split_at_mut(i);
            let cur = match done.last() {
                None => inputs,
                Some(prev) => &prev.out[..prev.out_len(n)],
            };
            run_group(&mut rest[0], weights, cur, n, threads)?;
        }
        let last = self.groups.last().expect("a validated plan has groups");
        Ok((&last.out[..last.out_len(n)], last.partition.out_shape()))
    }

    /// Runs one query and materializes the output as an owned [`Tensor`].
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    pub fn run(&mut self, weights: &ModelWeights, input: &Tensor) -> Result<Tensor> {
        let (data, shape) = self.run_raw(weights, input.data())?;
        let shape = shape.clone();
        let data = data.to_vec();
        Ok(Tensor::from_vec(shape, data).map_err(gillis_model::ModelError::from)?)
    }
}

/// Runs one compiled group's pieces over `n` item-major activations into the
/// first `n × out_len` elements of its join buffer.
///
/// Sequential when `threads <= 1` or the group has a single piece; otherwise
/// the pieces fan out on the shared pool, each running its whole batch on
/// one worker. Pieces that can write disjoint `&mut` slices of the join
/// buffer do so directly; the rest run into their own buffers and are
/// gathered afterwards in [`Tensor::concat`] order per item. Both joins
/// produce bit-identical buffers — the int8 wire round trip commutes with
/// the gather copy because it depends only on the slice values.
fn run_group(
    g: &mut CompiledGroup,
    weights: &ModelWeights,
    inputs: &[f32],
    n: usize,
    threads: usize,
) -> Result<()> {
    g.grow_join(n);
    let out_len = g.out_len(n);
    let out = &mut g.out[..out_len];
    let n_pieces = g.partition.pieces_mut().len();
    if threads <= 1 || n_pieces <= 1 {
        g.partition.run_into(weights, inputs, n, out)?;
        return Ok(());
    }
    let wire_int8 = g.partition.wire_int8();
    let mut errs: Vec<Option<gillis_model::ModelError>> = (0..n_pieces).map(|_| None).collect();
    // Direct join: carve the buffer into the pieces' disjoint slots.
    let direct = g.partition.contiguous_ranges(n);
    let mut tail = &mut *out;
    let mut slot = |i: usize| {
        let ranges = direct.as_ref()?;
        let (slot, rest) = std::mem::take(&mut tail).split_at_mut(ranges[i].len());
        tail = rest;
        Some(slot)
    };
    let pieces = g.partition.pieces_mut().iter_mut();
    let tasks: Vec<gillis_pool::Task> = pieces
        .zip(errs.iter_mut())
        .enumerate()
        .map(|(i, (piece, err))| {
            let slot = slot(i);
            Box::new(move || {
                *err = piece.run_joined(weights, inputs, n, slot, wire_int8).err();
            }) as gillis_pool::Task
        })
        .collect();
    gillis_pool::Pool::global().join_all(tasks);
    if let Some(e) = errs.into_iter().flatten().next() {
        return Err(e.into());
    }
    if direct.is_none() {
        g.partition.gather(n, out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forkjoin::execute_plan_tensors_with_threads;
    use crate::plan::{Placement, PlannedGroup};
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

        /// The ISSUE's acceptance property: compiled execution is
        /// bit-identical to the uncompiled fork-join path for random plans
        /// on tiny-vgg, across thread counts 1, 2, and 8.
        #[test]
        fn compiled_plan_is_bit_identical_across_threads(
            plan_seed in arb_plan(&zoo::tiny_vgg()),
            wseed in 0u64..1000,
            qseed in 0u64..1000,
        ) {
            let model = zoo::tiny_vgg();
            let weights = init_weights(model.graph(), wseed).unwrap();
            let input = query(model.input_shape(), qseed);
            let reference =
                execute_plan_tensors_with_threads(&model, &plan_seed, &weights, &input, 1)
                    .unwrap();
            let mut compiled = CompiledPlanExec::compile(&model, &plan_seed, &weights).unwrap();
            for threads in [1usize, 2, 8] {
                let out = {
                    let (data, shape) = compiled
                        .run_raw_with_threads(&weights, input.data(), threads)
                        .unwrap();
                    Tensor::from_vec(shape.clone(), data.to_vec()).unwrap()
                };
                assert_bits_eq(&out, &reference, "compiled vs reference");
                // The uncompiled path must itself be thread-invariant.
                let unc =
                    execute_plan_tensors_with_threads(&model, &plan_seed, &weights, &input, threads)
                        .unwrap();
                assert_bits_eq(&unc, &reference, "uncompiled thread invariance");
            }
        }
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
        let reference =
            execute_plan_tensors_with_threads(&model, &plan, &weights, &input, 1).unwrap();
        let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
        for threads in [1usize, 2, 8] {
            let (data, shape) = compiled
                .run_raw_with_threads(&weights, input.data(), threads)
                .unwrap();
            let out = Tensor::from_vec(shape.clone(), data.to_vec()).unwrap();
            assert_bits_eq(&out, &reference, "4-way height split");
        }
        // An f32 plan copies no conv, dense or depthwise weight.
        assert_eq!(compiled.panel_bytes(), 0);
    }

    #[test]
    fn int8_compiled_plan_is_thread_invariant_and_tracks_f32() {
        // Integer accumulation plus the deterministic wire round trip keep
        // the quantized deployment bit-identical across thread counts, and
        // within quantization error of the f32 reference.
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
        let reference =
            execute_plan_tensors_with_threads(&model, &plan, &weights, &input, 1).unwrap();
        let mut compiled =
            CompiledPlanExec::compile_with(&model, &plan, &weights, CompileOptions::int8())
                .unwrap();
        assert!(compiled.panel_bytes() > 0);
        let base = {
            let (data, shape) = compiled
                .run_raw_with_threads(&weights, input.data(), 1)
                .unwrap();
            Tensor::from_vec(shape.clone(), data.to_vec()).unwrap()
        };
        for threads in [2usize, 8] {
            let (data, shape) = compiled
                .run_raw_with_threads(&weights, input.data(), threads)
                .unwrap();
            let out = Tensor::from_vec(shape.clone(), data.to_vec()).unwrap();
            assert_bits_eq(&out, &base, "int8 thread invariance");
        }
        let num: f32 = base
            .data()
            .iter()
            .zip(reference.data().iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        let den: f32 = reference.data().iter().map(|y| y * y).sum();
        let rel = (num / den.max(f32::MIN_POSITIVE)).sqrt();
        assert!(rel < 0.05, "int8 plan drifted: rel l2 {rel}");
        assert_ne!(
            base.data(),
            reference.data(),
            "int8 wire round trip should perturb the payload"
        );
    }

    #[test]
    fn batched_plan_is_bit_identical_to_sequential_across_threads() {
        // The tentpole determinism property one level up from the kernels:
        // a batched pass over a multi-group plan (spatial split + single
        // tail) equals N per-query passes to the bit, for f32 and int8-wire
        // deployments, at every thread count the repo tests.
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
        for opts in [CompileOptions::default(), CompileOptions::int8()] {
            let mut compiled =
                CompiledPlanExec::compile_with(&model, &plan, &weights, opts).unwrap();
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
        opts: CompileOptions,
        queries: &[Tensor],
    ) -> Vec<Vec<f32>> {
        let mut fresh = CompiledPlanExec::compile_with(model, plan, weights, opts).unwrap();
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
        // bits a fresh exec gives that query alone — which for f32 are
        // `Executor::forward`'s.
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
            let forward = gillis_model::exec::Executor::new(model.graph(), &weights);
            for (plan_name, plan) in join_plans(&model) {
                for opts in [CompileOptions::default(), CompileOptions::int8()] {
                    let want = fresh_singles(&model, &plan, &weights, opts, &queries);
                    if opts == CompileOptions::default() {
                        for (q, w) in queries.iter().zip(&want) {
                            let r = forward.forward(&model, q).unwrap();
                            assert_items_eq(r.data(), std::slice::from_ref(w), "forward");
                        }
                    }
                    for n in [1usize, 2, 3, 8] {
                        let mut compiled =
                            CompiledPlanExec::compile_with(&model, &plan, &weights, opts).unwrap();
                        for threads in [1usize, 2, 8] {
                            let (got, _) = compiled
                                .run_batch_raw_with_threads(
                                    &weights,
                                    &flat[..n * in_len],
                                    n,
                                    threads,
                                )
                                .unwrap();
                            let what = format!(
                                "{} {plan_name} int8={} n={n} threads={threads}",
                                model.name(),
                                opts.wire_int8
                            );
                            assert_items_eq(got, &want[..n], &what);
                        }
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
            for opts in [CompileOptions::default(), CompileOptions::int8()] {
                let want = fresh_singles(&model, &plan, &weights, opts, &queries);
                for threads in [1usize, 2] {
                    let what = format!("{plan_name} int8={} threads={threads}", opts.wire_int8);
                    let mut compiled =
                        CompiledPlanExec::compile_with(&model, &plan, &weights, opts).unwrap();
                    let planned = compiled.activation_bytes();
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
    }

    #[test]
    fn branching_models_fail_to_compile() {
        for model in [zoo::tiny_resnet(), zoo::tiny_inception()] {
            let weights = init_weights(model.graph(), 1).unwrap();
            let plan = ExecutionPlan::single_function(&model);
            assert!(
                CompiledPlanExec::compile(&model, &plan, &weights).is_err(),
                "{} must fall back to the uncompiled path",
                model.name()
            );
        }
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
