//! Plan latency and cost prediction using the performance model.
//!
//! This is the evaluation function both partitioning algorithms optimize:
//! the DP consults it inside Algorithm 1, and the RL agents receive its
//! outputs as reward signals during simulated training episodes (§IV-C).

use serde::{Deserialize, Serialize};

use gillis_faas::billing::billed_ms;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;

use crate::cache::EvalCache;
use crate::partition::{GroupAnalysis, PartitionWork};
use crate::plan::{ExecutionPlan, Placement};
use crate::Result;

/// Predicted timing of one group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupPrediction {
    /// Master → workers dispatch time (0 for master-only groups).
    pub fork_ms: f64,
    /// Parallel compute phase: max over partitions.
    pub compute_ms: f64,
    /// Workers → master collection time.
    pub join_ms: f64,
    /// Per-worker function durations (for billing).
    pub worker_ms: Vec<f64>,
}

impl GroupPrediction {
    /// End-to-end group latency.
    pub fn latency_ms(&self) -> f64 {
        self.fork_ms + self.compute_ms + self.join_ms
    }
}

/// Predicted timing and cost of a whole plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanPrediction {
    /// Per-group predictions, in execution order.
    pub groups: Vec<GroupPrediction>,
    /// End-to-end inference latency (also the master's duration).
    pub latency_ms: f64,
    /// Billed duration across master + workers at the platform granularity —
    /// the paper's cost metric (Eq. 2).
    pub billed_ms: u64,
    /// Dollar cost at the platform's GB-second price (all functions billed
    /// at the instance size).
    pub usd: f64,
}

/// Predicts compute time of one partition: the sum of per-class regression
/// predictions.
pub fn partition_compute_ms(perf: &PerfModel, work: &PartitionWork) -> f64 {
    work.flops
        .iter()
        .map(|&(class, flops)| perf.predict_compute_ms(flops, class))
        .sum()
}

/// Predicts one group's timing given its analysis and placement.
pub fn predict_group(
    perf: &PerfModel,
    analysis: &GroupAnalysis,
    placement: Placement,
) -> GroupPrediction {
    // Partition 0 runs in the master under either master placement.
    let first = usize::from(placement != Placement::Workers);
    let mut worker_ms = Vec::new();
    let ((fork_ms, compute_ms, join_ms), _) = group_timing(perf, analysis, |k, w| {
        if k >= first && placement != Placement::Master {
            worker_ms.push(w);
        }
    })(placement);
    GroupPrediction {
        fork_ms,
        compute_ms,
        join_ms,
        worker_ms,
    }
}

/// [`predict_group`] as the planners rank a group's candidates, without
/// building predictions: for a placement, the group's latency, and its
/// workers' durations each rounded up to the platform's billing granularity
/// and summed. One pass over the partitions prices every placement.
pub fn group_cost<'a>(
    perf: &'a PerfModel,
    analysis: &'a GroupAnalysis,
) -> impl Fn(Placement) -> (f64, u64) + 'a {
    let timing = group_timing(perf, analysis, |_, _| {});
    move |placement| {
        let ((fork_ms, compute_ms, join_ms), billed) = timing(placement);
        (fork_ms + compute_ms + join_ms, billed)
    }
}

/// The arithmetic of [`predict_group`] and [`group_cost`]: one pass prices
/// every partition as a worker and hands `worker` its index and duration;
/// the closure returned reads off a placement's `(fork_ms, compute_ms,
/// join_ms)` and billed worker ms. With partition 0 in the master, bytes and
/// bill are the worker-only totals less partition 0's — integers, so
/// exactly — and the compute phase is the same maximum.
fn group_timing<'a>(
    perf: &'a PerfModel,
    analysis: &'a GroupAnalysis,
    mut worker: impl FnMut(usize, f64),
) -> impl Fn(Placement) -> ((f64, f64, f64), u64) + 'a {
    let granularity = perf.platform.billing_granularity_ms;
    // Wire bytes in and out, bill and slowest compute, of all partitions
    // and of partition 0.
    let [mut all, mut first] = [(0, 0, 0, 0.0); 2];
    for (k, p) in analysis.partitions.iter().enumerate() {
        // Partition analyses report raw f32 activation sizes; the wire
        // format (f32 or int8) decides what actually crosses the network.
        let i = perf.wire_bytes(p.input_bytes);
        let o = perf.wire_bytes(p.output_bytes);
        let c = partition_compute_ms(perf, p);
        // A worker is billed from payload receipt to response emission.
        let w = c + perf.comm.per_byte_ms() * (i + o) as f64;
        let b = billed_ms(w, granularity);
        all = (all.0 + i, all.1 + o, all.2 + b, f64::max(all.3, c));
        if k == 0 {
            first = (i, o, b, c);
        }
        worker(k, w);
    }
    let parts = analysis.partitions.len();
    move |placement| {
        let (workers, input, output, billed) = match placement {
            Placement::Master => (0, 0, 0, 0),
            Placement::Workers => (parts, all.0, all.1, all.2),
            Placement::MasterAndWorkers => {
                (parts - 1, all.0 - first.0, all.1 - first.1, all.2 - first.2)
            }
        };
        if workers == 0 {
            // Master-only, or the degenerate "MasterAndWorkers" of a single
            // partition.
            return ((0.0, first.3, 0.0), 0);
        }
        let transfer = |bytes| perf.comm.group_transfer_total_ms(workers, bytes);
        ((transfer(input), all.3, transfer(output)), billed)
    }
}

/// Predicts the latency and cost of a full plan (paper §IV-A's end-to-end
/// prediction, evaluated for accuracy in Fig 15 bottom).
///
/// # Errors
///
/// Propagates group-analysis failures for invalid plans.
pub fn predict_plan(
    model: &LinearModel,
    plan: &ExecutionPlan,
    perf: &PerfModel,
) -> Result<PlanPrediction> {
    let analyses = plan.analyses(model)?;
    Ok(predict_plan_from(plan, perf, analyses.iter()))
}

/// [`predict_plan`] with group analyses served from (and stored into) a
/// shared [`EvalCache`] — the hot path of RL reward evaluation and BO
/// candidate scoring, which re-analyze overlapping groups constantly.
/// Predictions are identical to the uncached path.
///
/// # Errors
///
/// Propagates group-analysis failures for invalid plans.
pub fn predict_plan_cached(
    model: &LinearModel,
    plan: &ExecutionPlan,
    perf: &PerfModel,
    cache: &EvalCache,
) -> Result<PlanPrediction> {
    let analyses: Vec<_> = plan
        .groups()
        .iter()
        .map(|g| cache.analysis(model, g.start, g.end, g.option))
        .collect::<Result<_>>()?;
    Ok(predict_plan_from(
        plan,
        perf,
        analyses.iter().map(|a| a.as_ref()),
    ))
}

/// Fraction of a group's compute cost that is paid once per batch
/// rather than once per item — the traversal of the weight rows, which the
/// batched kernels share across all items of a batch (the conv driver keeps
/// the filter rows of a reduction block cache-hot while every item sweeps
/// over them; the dense kernel dots each row against every item). Calibrated
/// against the `ext_batch` bench: the amortized share of a VGG-style conv
/// stack's runtime sits between the pointwise-conv extreme (weights
/// dominate, ~0.4) and the large-spatial extreme (per-item packing and
/// FMAs dominate, ~0.15).
pub const BATCH_AMORTIZED_FRACTION: f64 = 0.25;

/// Scales a group analysis from one query to an `n`-query batch: transfer
/// and activation bytes scale linearly with `n` (every item's payload
/// crosses the wire), while compute scales as
/// `α + (1 − α) · n` — the amortized fraction α
/// ([`BATCH_AMORTIZED_FRACTION`]: weight streaming) is paid once per batch. Weight bytes are unchanged:
/// the function holds one copy regardless of batch size.
///
/// `n == 1` returns the analysis unchanged (the scale factor is exactly 1),
/// so batch-aware planners price the batch-1 path identically to the
/// pre-batching model.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn scale_analysis_for_batch(analysis: &GroupAnalysis, n: usize) -> GroupAnalysis {
    assert!(n > 0, "batch must be non-empty");
    let compute_scale = BATCH_AMORTIZED_FRACTION + (1.0 - BATCH_AMORTIZED_FRACTION) * n as f64;
    GroupAnalysis {
        option: analysis.option,
        partitions: analysis
            .partitions
            .iter()
            .map(|p| PartitionWork {
                flops: p
                    .flops
                    .iter()
                    .map(|&(class, f)| (class, (f as f64 * compute_scale).round() as u64))
                    .collect(),
                weight_bytes: p.weight_bytes,
                input_bytes: p.input_bytes * n as u64,
                output_bytes: p.output_bytes * n as u64,
            })
            .collect(),
    }
}

/// [`predict_plan`] for an `n`-query batch executed in one invocation wave:
/// the `t_batch(plan, n)` term batching policies price admission against.
/// Transfer legs carry `n` payloads; compute amortizes the
/// [`BATCH_AMORTIZED_FRACTION`] share of each group's work across the batch. The
/// returned prediction is the *whole batch's* latency and cost — per-item
/// figures are `latency_ms` (every item waits for the batch) and `usd / n`.
///
/// `n == 1` is exactly [`predict_plan`].
///
/// # Errors
///
/// Propagates group-analysis failures for invalid plans.
pub fn predict_plan_batched(
    model: &LinearModel,
    plan: &ExecutionPlan,
    perf: &PerfModel,
    n: usize,
) -> Result<PlanPrediction> {
    let analyses = plan.analyses(model)?;
    let scaled: Vec<GroupAnalysis> = analyses
        .iter()
        .map(|a| scale_analysis_for_batch(a, n))
        .collect();
    Ok(predict_plan_from(plan, perf, scaled.iter()))
}

/// Predicted timing and cost of one pipeline stage (one layer group run as
/// a stage with its own orchestrator function).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePrediction {
    /// Inbound activation hand-off from the upstream stage (0 for the first
    /// stage, which receives the query payload from the client).
    pub handoff_ms: f64,
    /// The stage's group execution (fork / compute / join).
    pub group: GroupPrediction,
    /// Total stage time: `handoff_ms + group.latency_ms()`, possibly
    /// stretched by a down-sized orchestrator's slower master compute.
    pub stage_ms: f64,
    /// Orchestrator memory size picked for this stage (HarmonyBatch-style
    /// heterogeneous sizing: the smallest ladder size whose scaled model
    /// budget fits the stage's master-resident weights without moving the
    /// pipeline bottleneck).
    pub memory_bytes: u64,
    /// Billed duration per query across the stage orchestrator + workers.
    pub billed_ms: u64,
    /// Per-query dollar cost of this stage.
    pub usd: f64,
}

/// Predicted steady-state behavior of a plan served as a pipeline: each
/// group is a stage, different queries occupy different stages concurrently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePrediction {
    /// Per-stage predictions, in execution order.
    pub stages: Vec<StagePrediction>,
    /// The pipeline bottleneck: the max stage time. Steady-state inter-
    /// departure time per lane.
    pub bottleneck_ms: f64,
    /// Steady-state throughput of one lane per stage: `1000 / bottleneck`.
    pub steady_state_qps: f64,
    /// Pipeline-fill latency: the sum of stage times — what a query
    /// traversing an idle pipeline experiences end to end.
    pub fill_ms: f64,
    /// Tail-latency estimate at steady state: the fill latency plus one
    /// bottleneck interval of queueing headroom.
    pub p99_ms: f64,
    /// Billed duration per query across all stages (orchestrators +
    /// workers), at the platform granularity.
    pub billed_ms: u64,
    /// Per-query dollar cost with heterogeneous per-stage memory sizes.
    pub usd: f64,
}

/// The pipeline stage-time bound `t_pipeline(plan)`: the maximum over
/// groups of (inbound hand-off + group latency), in milliseconds. The
/// reciprocal is the steady-state per-lane throughput the pipelined serving
/// path approaches; it is always ≥ the slowest single group's latency.
///
/// # Errors
///
/// Propagates group-analysis failures for invalid plans.
pub fn t_pipeline(model: &LinearModel, plan: &ExecutionPlan, perf: &PerfModel) -> Result<f64> {
    let analyses = plan.analyses(model)?;
    Ok(plan
        .groups()
        .iter()
        .zip(analyses.iter())
        .map(|(g, a)| {
            let handoff = if g.start == 0 {
                0.0
            } else {
                perf.handoff_ms(model.layers()[g.start].in_bytes())
            };
            handoff + predict_group(perf, a, g.placement).latency_ms()
        })
        .fold(0.0, f64::max))
}

/// Memory-size ladder for per-stage orchestrator sizing, as eighths of the
/// platform instance size: a stage that only shuttles activations (worker-
/// only placement) can run in a small cheap function, while a stage whose
/// orchestrator computes resident partitions needs the memory — and the
/// proportional CPU — to do so without becoming the bottleneck.
const STAGE_MEMORY_EIGHTHS: [u64; 4] = [1, 2, 4, 8];

/// [`predict_plan`] for pipeline-parallel serving: each group is a stage
/// with its own orchestrator function and worker pool; queries stream
/// through stages concurrently, so steady-state throughput is bounded by
/// the *max* stage time ([`t_pipeline`]) while a single query's latency is
/// the *sum* (the pipeline-fill latency).
///
/// Per-stage memory reuses the existing billing math with HarmonyBatch-style
/// heterogeneous sizing: each orchestrator gets the smallest ladder size
/// whose memory-scaled model budget holds the stage's master-resident
/// weights and whose proportionally slower master compute does not push the
/// stage past the unscaled bottleneck. Workers stay at the platform
/// instance size, exactly as in [`predict_plan`].
///
/// # Errors
///
/// Propagates group-analysis failures for invalid plans.
pub fn predict_plan_pipelined(
    model: &LinearModel,
    plan: &ExecutionPlan,
    perf: &PerfModel,
) -> Result<PipelinePrediction> {
    let analyses = plan.analyses(model)?;
    let platform = &perf.platform;
    let d = platform.billing_granularity_ms;
    let gb_full = platform.instance_memory_bytes as f64 / 1e9;

    // First pass: unscaled stage times fix the bottleneck the sizing pass
    // below must not move.
    let mut base: Vec<(f64, GroupPrediction)> = Vec::with_capacity(plan.groups().len());
    for (g, a) in plan.groups().iter().zip(analyses.iter()) {
        let handoff = if g.start == 0 {
            0.0
        } else {
            perf.handoff_ms(model.layers()[g.start].in_bytes())
        };
        let gp = predict_group(perf, a, g.placement);
        base.push((handoff, gp));
    }
    let bottleneck_unscaled = base
        .iter()
        .map(|(h, gp)| h + gp.latency_ms())
        .fold(0.0, f64::max);

    let mut stages = Vec::with_capacity(base.len());
    let mut fill = 0.0f64;
    let mut bottleneck = 0.0f64;
    let mut billed_total = 0u64;
    let mut usd_total = 0.0;
    for ((g, a), (handoff, gp)) in plan.groups().iter().zip(analyses.iter()).zip(base) {
        // Master-resident work and weights of this stage.
        let (master_ms, resident_bytes) = if g.placement == Placement::Workers {
            (0.0, 0u64)
        } else {
            (
                partition_compute_ms(perf, &a.partitions[0]),
                a.partitions[0].weight_bytes,
            )
        };
        let worker_max_ms = if g.placement == Placement::Workers {
            gp.compute_ms
        } else {
            a.partitions[1..]
                .iter()
                .map(|p| partition_compute_ms(perf, p))
                .fold(0.0, f64::max)
        };
        // Smallest ladder memory that (a) fits the resident weights in the
        // proportionally scaled model budget and (b) keeps the stage at or
        // below the unscaled bottleneck despite the slower master compute.
        let mut chosen_mem = platform.instance_memory_bytes;
        let mut chosen_stage_ms = handoff + gp.latency_ms();
        for &eighths in &STAGE_MEMORY_EIGHTHS {
            let mem = platform.instance_memory_bytes * eighths / 8;
            let budget = platform.model_memory_budget * eighths / 8;
            if resident_bytes > budget {
                continue;
            }
            let factor = eighths as f64 / 8.0;
            let scaled_compute = worker_max_ms.max(master_ms / factor);
            let stage_ms = handoff + gp.fork_ms + scaled_compute + gp.join_ms;
            if stage_ms <= bottleneck_unscaled {
                chosen_mem = mem;
                chosen_stage_ms = stage_ms;
                break;
            }
        }
        // Existing billing math at heterogeneous sizes: the orchestrator is
        // busy for the whole stage and bills at the stage size; workers
        // bill at the platform instance size as in `predict_plan`.
        let gb_stage = chosen_mem as f64 / 1e9;
        let mut billed = billed_ms(chosen_stage_ms, d);
        let mut usd = billed as f64 / 1000.0 * gb_stage * platform.price_per_gb_s
            + platform.price_per_invocation;
        for &w in &gp.worker_ms {
            let b = billed_ms(w, d);
            billed += b;
            usd += b as f64 / 1000.0 * gb_full * platform.price_per_gb_s
                + platform.price_per_invocation;
        }
        fill += chosen_stage_ms;
        bottleneck = bottleneck.max(chosen_stage_ms);
        billed_total += billed;
        usd_total += usd;
        stages.push(StagePrediction {
            handoff_ms: handoff,
            group: gp,
            stage_ms: chosen_stage_ms,
            memory_bytes: chosen_mem,
            billed_ms: billed,
            usd,
        });
    }
    Ok(PipelinePrediction {
        stages,
        bottleneck_ms: bottleneck,
        steady_state_qps: if bottleneck > 0.0 {
            1000.0 / bottleneck
        } else {
            f64::INFINITY
        },
        fill_ms: fill,
        p99_ms: fill + bottleneck,
        billed_ms: billed_total,
        usd: usd_total,
    })
}

fn predict_plan_from<'a>(
    plan: &ExecutionPlan,
    perf: &PerfModel,
    analyses: impl Iterator<Item = &'a GroupAnalysis>,
) -> PlanPrediction {
    let mut groups = Vec::with_capacity(plan.groups().len());
    let mut latency = 0.0;
    for (g, a) in plan.groups().iter().zip(analyses) {
        let gp = predict_group(perf, a, g.placement);
        latency += gp.latency_ms();
        groups.push(gp);
    }
    let d = perf.platform.billing_granularity_ms;
    let gb = perf.platform.instance_memory_bytes as f64 / 1e9;
    let mut billed = billed_ms(latency, d);
    let mut usd = billed as f64 / 1000.0 * gb * perf.platform.price_per_gb_s
        + perf.platform.price_per_invocation;
    for gp in &groups {
        for &w in &gp.worker_ms {
            let b = billed_ms(w, d);
            billed += b;
            usd += b as f64 / 1000.0 * gb * perf.platform.price_per_gb_s
                + perf.platform.price_per_invocation;
        }
    }
    PlanPrediction {
        groups,
        latency_ms: latency,
        billed_ms: billed,
        usd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartDim, PartitionOption};
    use crate::plan::PlannedGroup;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use gillis_perf::PerfModel;

    fn perf() -> PerfModel {
        PerfModel::analytic(&PlatformProfile::aws_lambda())
    }

    #[test]
    fn single_function_prediction_equals_model_runtime() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let plan = ExecutionPlan::single_function(&vgg);
        let pred = predict_plan(&vgg, &plan, &perf).unwrap();
        let runtime = perf.layer.predict_model_ms(&vgg);
        assert!(
            (pred.latency_ms - runtime).abs() / runtime < 0.01,
            "{} vs {}",
            pred.latency_ms,
            runtime
        );
        // One master invocation, no workers.
        assert!(pred.groups.iter().all(|g| g.worker_ms.is_empty()));
    }

    #[test]
    fn naive_per_layer_parallelization_is_communication_bound() {
        // Layer-wise parallelization ships every intermediate activation
        // through the master — the overhead the paper's coarse-grained
        // grouping exists to avoid (§III-C, Fig 7). At 224x224 activations
        // this is strictly worse than serving in one function.
        let vgg = zoo::vgg16();
        let perf = perf();
        let n = vgg.layers().len();
        let single = predict_plan(&vgg, &ExecutionPlan::single_function(&vgg), &perf).unwrap();

        let mut groups = Vec::new();
        for (i, layer) in vgg.layers().iter().enumerate() {
            let spatial = layer.class.supports_spatial();
            groups.push(PlannedGroup {
                start: i,
                end: i + 1,
                option: if spatial {
                    PartitionOption::Split {
                        dim: PartDim::Height,
                        parts: 4,
                    }
                } else {
                    PartitionOption::Single
                },
                placement: if spatial {
                    Placement::MasterAndWorkers
                } else {
                    Placement::Master
                },
            });
        }
        assert_eq!(groups.len(), n);
        let plan = ExecutionPlan::new(groups);
        plan.validate(&vgg, 1_400_000_000).unwrap();
        let par = predict_plan(&vgg, &plan, &perf).unwrap();
        // Communication dominates the parallel plan...
        let comm: f64 = par.groups.iter().map(|g| g.fork_ms + g.join_ms).sum();
        let compute: f64 = par.groups.iter().map(|g| g.compute_ms).sum();
        assert!(comm > compute, "comm {comm:.0} vs compute {compute:.0}");
        // ...and the billed cost exceeds single-function serving.
        assert!(par.billed_ms > single.billed_ms);
        assert!(par.usd > single.usd);
    }

    #[test]
    fn worker_only_pays_an_extra_round_trip() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let a = crate::partition::analyze_group(
            &vgg,
            0,
            1,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 4,
            },
        )
        .unwrap();
        let with_master = predict_group(&perf, &a, Placement::MasterAndWorkers);
        let workers_only = predict_group(&perf, &a, Placement::Workers);
        // Worker-only ships one more payload.
        assert!(workers_only.fork_ms > with_master.fork_ms);
        assert_eq!(with_master.worker_ms.len(), 3);
        assert_eq!(workers_only.worker_ms.len(), 4);
    }

    #[test]
    fn master_only_group_has_no_comm() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let a = crate::partition::analyze_group(&vgg, 0, 1, PartitionOption::Single).unwrap();
        let g = predict_group(&perf, &a, Placement::Master);
        assert_eq!(g.fork_ms, 0.0);
        assert_eq!(g.join_ms, 0.0);
        assert!(g.compute_ms > 0.0);
    }

    #[test]
    fn cached_prediction_matches_uncached() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let cache = EvalCache::new();
        let plan = crate::DpPartitioner::default()
            .partition(&vgg, &perf)
            .unwrap();
        let direct = predict_plan(&vgg, &plan, &perf).unwrap();
        let cached = predict_plan_cached(&vgg, &plan, &perf, &cache).unwrap();
        assert_eq!(direct, cached);
        // Second call answers every group from the cache.
        let before = cache.stats().misses;
        let again = predict_plan_cached(&vgg, &plan, &perf, &cache).unwrap();
        assert_eq!(direct, again);
        assert_eq!(cache.stats().misses, before);
    }

    #[test]
    fn int8_wire_shrinks_predicted_comm_but_not_compute() {
        let vgg = zoo::vgg11();
        let f32_perf = perf();
        let int8_perf = perf().with_transfer_format(gillis_perf::TransferFormat::Int8);
        let a = crate::partition::analyze_group(
            &vgg,
            0,
            1,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 4,
            },
        )
        .unwrap();
        let f = predict_group(&f32_perf, &a, Placement::Workers);
        let q = predict_group(&int8_perf, &a, Placement::Workers);
        // ~4x fewer bytes on every transfer leg; compute untouched.
        assert!(q.fork_ms < f.fork_ms);
        assert!(q.join_ms < f.join_ms);
        assert_eq!(q.compute_ms, f.compute_ms);
        for (qw, fw) in q.worker_ms.iter().zip(f.worker_ms.iter()) {
            assert!(qw < fw);
        }
    }

    #[test]
    fn batch_one_prediction_is_exactly_the_per_query_prediction() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let plan = ExecutionPlan::single_function(&vgg);
        let per_query = predict_plan(&vgg, &plan, &perf).unwrap();
        let batch1 = predict_plan_batched(&vgg, &plan, &perf, 1).unwrap();
        assert_eq!(per_query, batch1);
    }

    #[test]
    fn batching_amortizes_compute_but_not_transfer() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let plan = ExecutionPlan::new(vec![PlannedGroup {
            start: 0,
            end: vgg.layers().len(),
            option: PartitionOption::Single,
            placement: Placement::Master,
        }]);
        let one = predict_plan_batched(&vgg, &plan, &perf, 1).unwrap();
        let four = predict_plan_batched(&vgg, &plan, &perf, 4).unwrap();
        // A 4-batch costs less than 4 sequential queries (the amortized
        // fraction is paid once)...
        assert!(four.latency_ms < 4.0 * one.latency_ms);
        // ...but more than a single query (per-item work still scales).
        assert!(four.latency_ms > one.latency_ms);
        // Per-item cost improves: one invocation wave serves four queries.
        assert!(four.usd / 4.0 < one.usd);
    }

    #[test]
    fn batched_group_transfer_scales_linearly_with_n() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let a = crate::partition::analyze_group(
            &vgg,
            0,
            1,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 4,
            },
        )
        .unwrap();
        let one = predict_group(&perf, &a, Placement::Workers);
        let scaled = scale_analysis_for_batch(&a, 3);
        let three = predict_group(&perf, &scaled, Placement::Workers);
        // Every item's activations cross the wire: fork/join legs see 3x
        // the bytes. The comm model adds a per-transfer jitter floor that
        // does not scale with payload, so growth is affine, not
        // proportional — but strictly monotone in the batch size.
        assert!(three.fork_ms > one.fork_ms);
        assert!(three.join_ms > one.join_ms);
        let extra_fork = three.fork_ms - one.fork_ms;
        assert!(extra_fork > 0.0);
        // Compute grows sublinearly.
        assert!(three.compute_ms < 3.0 * one.compute_ms);
        assert!(three.compute_ms > one.compute_ms);
    }

    #[test]
    fn gcf_billing_rounds_to_100ms() {
        let vgg = zoo::vgg11();
        let perf = PerfModel::analytic(&PlatformProfile::gcf());
        let plan = ExecutionPlan::single_function(&vgg);
        let pred = predict_plan(&vgg, &plan, &perf).unwrap();
        assert_eq!(pred.billed_ms % 100, 0);
        assert!(pred.billed_ms as f64 >= pred.latency_ms);
    }

    #[test]
    fn t_pipeline_bounds_the_slowest_stage_from_above() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let plan = crate::DpPartitioner::default()
            .partition(&vgg, &perf)
            .unwrap();
        let t = t_pipeline(&vgg, &plan, &perf).unwrap();
        let analyses = plan.analyses(&vgg).unwrap();
        let max_group = plan
            .groups()
            .iter()
            .zip(analyses.iter())
            .map(|(g, a)| predict_group(&perf, a, g.placement).latency_ms())
            .fold(0.0, f64::max);
        assert!(t >= max_group, "t_pipeline {t} < max group {max_group}");
        // ...and never exceeds the whole plan's serial latency.
        let serial = predict_plan(&vgg, &plan, &perf).unwrap().latency_ms;
        assert!(t <= serial + 1e-9, "t_pipeline {t} > serial {serial}");
    }

    #[test]
    fn pipelined_prediction_sums_fill_and_maxes_bottleneck() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let plan = crate::DpPartitioner::default()
            .with_objective(crate::PlanObjective::PipelineBottleneck)
            .partition(&vgg, &perf)
            .unwrap();
        let pred = predict_plan_pipelined(&vgg, &plan, &perf).unwrap();
        assert_eq!(pred.stages.len(), plan.groups().len());
        let max_stage = pred.stages.iter().map(|s| s.stage_ms).fold(0.0, f64::max);
        let sum_stage: f64 = pred.stages.iter().map(|s| s.stage_ms).sum();
        assert_eq!(pred.bottleneck_ms, max_stage);
        assert!((pred.fill_ms - sum_stage).abs() < 1e-9);
        assert!((pred.steady_state_qps - 1000.0 / max_stage).abs() < 1e-9);
        assert_eq!(pred.p99_ms, pred.fill_ms + pred.bottleneck_ms);
        // The first stage receives the query from the client: no hand-off.
        assert_eq!(pred.stages[0].handoff_ms, 0.0);
        assert!(pred.stages[1..].iter().all(|s| s.handoff_ms > 0.0));
        // The fill latency is at least the serial plan latency (hand-offs
        // and down-sized orchestrators only add time per query).
        let serial = predict_plan(&vgg, &plan, &perf).unwrap().latency_ms;
        assert!(pred.fill_ms >= serial - 1e-9);
    }

    #[test]
    fn stage_memory_sizing_shrinks_shuttle_stages_without_moving_the_bottleneck() {
        let vgg = zoo::vgg11();
        let perf = perf();
        let plan = crate::DpPartitioner::default()
            .with_objective(crate::PlanObjective::PipelineBottleneck)
            .partition(&vgg, &perf)
            .unwrap();
        let pred = predict_plan_pipelined(&vgg, &plan, &perf).unwrap();
        let full = perf.platform.instance_memory_bytes;
        // A worker-only stage's orchestrator holds no weights and does no
        // compute: it must shrink to the smallest ladder size.
        for (g, s) in plan.groups().iter().zip(pred.stages.iter()) {
            assert!(s.memory_bytes <= full);
            if g.placement == Placement::Workers {
                assert_eq!(s.memory_bytes, full / 8);
            }
        }
        // Sizing never moves the bottleneck above the unscaled stage times.
        let unscaled = t_pipeline(&vgg, &plan, &perf).unwrap();
        assert!(pred.bottleneck_ms <= unscaled + 1e-9);
    }
}
