//! Plan-level compiled execution: the steady-state warm path of a deployment.
//!
//! [`CompiledPlanExec`] lowers an [`ExecutionPlan`] over a model into a chain
//! of [`CompiledPartition`]s (one per planned group) plus one preallocated
//! join buffer per group. Compilation — plan validation, range balancing,
//! arena planning, batch-norm folding, and conv panel packing — happens
//! once per `(plan, model)`; a query then flows through the chain touching
//! only preallocated buffers.
//!
//! Piece dispatch mirrors [`execute_plan_tensors`](crate::forkjoin): the same
//! `PartDim` → axis mapping, the same [`balanced_ranges`] cuts, and a gather
//! in exactly [`Tensor::concat`]'s memory order, so the output is
//! bit-identical to the uncompiled path at any thread count (see the
//! property test at the bottom). With `threads <= 1` every piece runs inline
//! on the caller and the warm path performs zero heap allocations; with more
//! threads, pieces of a group fan out on the shared pool and channel-split
//! groups write their disjoint slices of the join buffer directly.
//!
//! Compilation fails with an error (never wrong results) on models the
//! compiled path does not cover — branching graphs (ResNet's `Add`,
//! inception `Concat`) and recurrent layers. Callers fall back to
//! [`execute_plan_tensors`](crate::forkjoin::execute_plan_tensors).

use gillis_model::compiled::{CompileOptions, CompiledPartition, PanelCache, PieceSpec};
use gillis_model::weights::ModelWeights;
use gillis_model::LinearModel;
use gillis_tensor::{Shape, Tensor};

use crate::partition::{balanced_ranges, PartDim, PartitionOption};
use crate::plan::ExecutionPlan;
use crate::{CoreError, Result};

/// One planned group, compiled, plus its preallocated join buffer.
struct CompiledGroup {
    partition: CompiledPartition,
    /// Join buffer the group's pieces are gathered (or directly written)
    /// into; doubles as the next group's input.
    out: Vec<f32>,
    /// Widened join buffer for batched runs (`n × out.len()`, item-major).
    /// Empty until the first batched run; capacity is monotone, so batches
    /// up to the largest `n` seen (or declared via
    /// [`CompiledPlanExec::reserve_batch`]) run allocation-free.
    batch_out: Vec<f32>,
}

/// A whole execution plan compiled for repeated inference.
///
/// Build once with [`CompiledPlanExec::compile`]; run once per query with
/// [`CompiledPlanExec::run_raw`] (borrowed output, allocation-free when
/// warm) or [`CompiledPlanExec::run`] (owned [`Tensor`]).
pub struct CompiledPlanExec {
    groups: Vec<CompiledGroup>,
    in_len: usize,
    /// Packed conv panels, kept so recompiles against the same weights can
    /// share them and for capacity reporting.
    panels: PanelCache,
}

impl CompiledPlanExec {
    /// Compiles `plan` over `model` and `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] if the plan does not validate, and
    /// the underlying [`ModelError`](gillis_model::ModelError) if the model
    /// is outside the compiled subset (branching graphs, recurrent layers) —
    /// in which case callers should fall back to the uncompiled path.
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
                    let last = &layers[layers.len() - 1];
                    let (axis, total) = match dim {
                        PartDim::Height => (1usize, last.out_shape.dims()[1]),
                        PartDim::Width => (2usize, last.out_shape.dims()[2]),
                        PartDim::Channel => (0usize, last.out_shape.dims()[0]),
                    };
                    let specs = balanced_ranges(total, parts)
                        .into_iter()
                        .map(|r| match dim {
                            PartDim::Height => PieceSpec::Rows(r),
                            PartDim::Width => PieceSpec::Cols(r),
                            PartDim::Channel => PieceSpec::Channels(r),
                        })
                        .collect();
                    (specs, axis)
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
            groups.push(CompiledGroup {
                partition,
                out,
                batch_out: Vec::new(),
            });
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

    /// Total bytes of packed conv panels held by this compilation.
    pub fn panel_bytes(&self) -> usize {
        self.panels.bytes()
    }

    /// Total bytes of f32 activations the per-query path holds: two arena
    /// buffers per piece plus one join buffer per group.
    pub fn activation_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.partition.activation_bytes() + std::mem::size_of_val(g.out.as_slice()))
            .sum()
    }

    /// Runs one query, returning a borrow of the final join buffer (and its
    /// shape). Uses the ambient [`gillis_pool::gillis_threads`] width.
    ///
    /// # Errors
    ///
    /// Propagates piece-execution errors (stale weights).
    pub fn run_raw(&mut self, weights: &ModelWeights, input: &[f32]) -> Result<(&[f32], &Shape)> {
        self.run_raw_with_threads(weights, input, gillis_pool::gillis_threads())
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
        assert_eq!(input.len(), self.in_len, "compiled plan input length");
        let n = self.groups.len();
        for i in 0..n {
            let (done, rest) = self.groups.split_at_mut(i);
            let cur: &[f32] = if i == 0 { input } else { &done[i - 1].out };
            let g = &mut rest[0];
            run_group(g, weights, cur, threads)?;
        }
        let last = &self.groups[n - 1];
        Ok((&last.out, last.partition.out_shape()))
    }

    /// Pre-grows every widened buffer in the chain for batches up to `n`,
    /// so batched runs within the declared range allocate nothing when warm.
    pub fn reserve_batch(&mut self, n: usize) {
        for g in &mut self.groups {
            g.partition.reserve_batch(n);
            let need = n * g.out.len();
            if g.batch_out.capacity() < need {
                g.batch_out.reserve(need - g.batch_out.len());
            }
        }
    }

    /// Runs a batch of `n` item-major queries (`n × in_len` contiguous),
    /// returning a borrow of the widened final join buffer (`n × out_len`,
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
    /// Per-item outputs are bit-identical to `n` separate
    /// [`CompiledPlanExec::run_raw_with_threads`] calls at any thread count:
    /// every group dispatches its batch through the widened-B kernels whose
    /// bit-identity is proptest-enforced in `gillis-tensor`, and the int8
    /// wire round trip is applied per `(piece, item)` payload. `n == 1`
    /// delegates to [`CompiledPlanExec::run_raw_with_threads`] — the batch-1
    /// fast path runs byte-for-byte the pre-batching code and touches no
    /// widened buffer.
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
        assert_eq!(inputs.len(), n * self.in_len, "compiled plan batch length");
        if n == 1 {
            return self.run_raw_with_threads(weights, inputs, threads);
        }
        let n_groups = self.groups.len();
        for i in 0..n_groups {
            let (done, rest) = self.groups.split_at_mut(i);
            let cur: &[f32] = if i == 0 {
                inputs
            } else {
                &done[i - 1].batch_out
            };
            let g = &mut rest[0];
            run_group_batched(g, weights, cur, n, threads)?;
        }
        let last = &self.groups[n_groups - 1];
        Ok((&last.batch_out, last.partition.out_shape()))
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

/// Runs one compiled group's pieces into its join buffer.
///
/// Sequential when `threads <= 1` or the group has a single piece; otherwise
/// the pieces fan out on the shared pool — contiguous joins (channel splits)
/// write disjoint `&mut` slices of the join buffer directly, strided joins
/// (spatial splits) run into per-piece buffers and gather afterwards in
/// [`Tensor::concat`] order.
fn run_group(
    g: &mut CompiledGroup,
    weights: &ModelWeights,
    input: &[f32],
    threads: usize,
) -> Result<()> {
    let n_pieces = g.partition.pieces_mut().len();
    if threads <= 1 || n_pieces <= 1 {
        g.partition.run_into(weights, input, &mut g.out)?;
        return Ok(());
    }
    let pool = gillis_pool::Pool::global();
    // Int8-wire deployments round-trip each piece's payload through the
    // quantized encoding on the worker that produced it, exactly as
    // `CompiledPartition::run_into` does sequentially — into the existing
    // join-buffer slot or piece output buffer, never a new allocation.
    let wire_int8 = g.partition.wire_int8();
    let mut errs: Vec<Option<gillis_model::ModelError>> = (0..n_pieces).map(|_| None).collect();
    match g.partition.contiguous_ranges() {
        Some(ranges) => {
            // Disjoint output slices: pieces write the join buffer in place.
            let mut tail: &mut [f32] = &mut g.out;
            let mut offset = 0;
            let mut slots = Vec::with_capacity(n_pieces);
            for r in &ranges {
                let (piece_out, rest) = tail.split_at_mut(r.end - offset);
                offset = r.end;
                tail = rest;
                slots.push(piece_out);
            }
            let tasks: Vec<gillis_pool::Task> = g
                .partition
                .pieces_mut()
                .iter_mut()
                .zip(slots)
                .zip(errs.iter_mut())
                .map(|((piece, out), err)| {
                    Box::new(move || match piece.run_into(weights, input, out) {
                        Err(e) => *err = Some(e),
                        Ok(()) if wire_int8 => {
                            gillis_tensor::quant::wire_roundtrip_in_place(out);
                        }
                        Ok(()) => {}
                    }) as gillis_pool::Task
                })
                .collect();
            pool.join_all(tasks);
        }
        None => {
            let tasks: Vec<gillis_pool::Task> = g
                .partition
                .pieces_mut()
                .iter_mut()
                .zip(errs.iter_mut())
                .map(|(piece, err)| {
                    Box::new(move || match piece.run(weights, input).map(|_| ()) {
                        Err(e) => *err = Some(e),
                        Ok(()) if wire_int8 => piece.wire_roundtrip_output(),
                        Ok(()) => {}
                    }) as gillis_pool::Task
                })
                .collect();
            pool.join_all(tasks);
            if errs.iter().all(Option::is_none) {
                g.partition.gather(&mut g.out);
            }
        }
    }
    match errs.into_iter().flatten().next() {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// Runs one compiled group over a batch of `n` item-major activations into
/// its widened join buffer.
///
/// Sequential dispatch delegates to [`CompiledPartition::run_batch_into`].
/// With `threads > 1` and multiple pieces, each piece runs its whole batch
/// on one pool worker (piece outputs interleave per item in the join buffer,
/// so pieces cannot write disjoint `&mut` slices of it as the per-query path
/// does); the gather afterwards copies in [`Tensor::concat`] order per item.
/// Both dispatches produce bit-identical buffers — the int8 wire round trip
/// commutes with the gather copy because it depends only on the slice values.
fn run_group_batched(
    g: &mut CompiledGroup,
    weights: &ModelWeights,
    inputs: &[f32],
    n: usize,
    threads: usize,
) -> Result<()> {
    g.batch_out.clear();
    g.batch_out.resize(n * g.out.len(), 0.0);
    let n_pieces = g.partition.pieces_mut().len();
    if threads <= 1 || n_pieces <= 1 {
        g.partition
            .run_batch_into(weights, inputs, n, &mut g.batch_out)?;
        return Ok(());
    }
    let wire_int8 = g.partition.wire_int8();
    let mut errs: Vec<Option<gillis_model::ModelError>> = (0..n_pieces).map(|_| None).collect();
    let tasks: Vec<gillis_pool::Task> = g
        .partition
        .pieces_mut()
        .iter_mut()
        .zip(errs.iter_mut())
        .map(|(piece, err)| {
            Box::new(
                move || match piece.run_batch(weights, inputs, n).map(|_| ()) {
                    Err(e) => *err = Some(e),
                    Ok(()) if wire_int8 => piece.wire_roundtrip_batch_output(),
                    Ok(()) => {}
                },
            ) as gillis_pool::Task
        })
        .collect();
    gillis_pool::Pool::global().join_all(tasks);
    match errs.into_iter().flatten().next() {
        Some(e) => Err(e.into()),
        None => {
            g.partition.gather_batch(n, &mut g.batch_out);
            Ok(())
        }
    }
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
        assert!(compiled.panel_bytes() > 0);
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

    #[test]
    fn batch_one_delegates_to_per_query_storage() {
        // The batch-1 fast path: a single-item batch must run byte-for-byte
        // the pre-batching code path — same output storage, no widened
        // buffers touched.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 5).unwrap();
        let plan = ExecutionPlan::single_function(&model);
        let mut compiled = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
        let a = query(model.input_shape(), 1);
        let ptr_seq = compiled
            .run_raw_with_threads(&weights, a.data(), 1)
            .unwrap()
            .0
            .as_ptr();
        let ptr_batch1 = compiled
            .run_batch_raw_with_threads(&weights, a.data(), 1, 1)
            .unwrap()
            .0
            .as_ptr();
        assert_eq!(ptr_seq, ptr_batch1, "batch-1 writes the per-query buffer");
        for g in &compiled.groups {
            assert!(
                g.batch_out.is_empty(),
                "batch-1 must not touch widened join buffers"
            );
        }
    }

    #[test]
    fn recurrent_and_branching_models_fail_to_compile() {
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
