//! High-level serving facade: the workflow of paper Fig 3 in one builder.
//!
//! ```text
//! profile → partition (latency-optimal | SLO-aware | tail-aware) → deploy → serve
//! ```
//!
//! # Examples
//!
//! ```
//! use gillis::serving::{Gillis, Mode};
//! use gillis::faas::PlatformProfile;
//! use gillis::model::zoo;
//!
//! # fn main() -> Result<(), gillis::core::CoreError> {
//! let deployment = Gillis::new(zoo::tiny_vgg())
//!     .platform(PlatformProfile::aws_lambda())
//!     .mode(Mode::LatencyOptimal)
//!     .deploy()?;
//! let latency = deployment.mean_latency_ms(10, 1);
//! assert!(latency > 0.0);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::{Arc, Mutex};

use gillis_core::{
    plan_batch_schedule, predict_plan, BatchSchedule, CompiledPlanExec, CoreError, DpPartitioner,
    ExecutionPlan, Fault, FaultInjector, FaultSite, ForkJoinRuntime, PartitionOption,
    PlanObjective, PlanPrediction, PolicyStack, QueryStatus, ResilienceCounters, ResiliencePolicy,
    ServingReport,
};
use gillis_faas::workload::ClosedLoop;
use gillis_faas::PlatformProfile;
use gillis_model::weights::ModelWeights;
use gillis_model::LinearModel;
use gillis_perf::PerfModel;
use gillis_perf::TransferFormat;
use gillis_rl::{slo_aware_partition, SloAwareConfig};
use gillis_tensor::Tensor;

/// A zoo entry: model name and its constructor.
pub type ModelEntry = (&'static str, fn() -> LinearModel);

/// The models available by name — the zoo exposed to the CLI and tests.
pub fn model_catalog() -> Vec<ModelEntry> {
    use gillis_model::zoo;
    vec![
        ("vgg11", zoo::vgg11 as fn() -> LinearModel),
        ("vgg16", zoo::vgg16),
        ("vgg19", zoo::vgg19),
        ("resnet34", zoo::resnet34),
        ("resnet50", zoo::resnet50),
        ("resnet101", zoo::resnet101),
        ("mobilenet", zoo::mobilenet),
        ("wrn-34-3", || zoo::wrn34(3)),
        ("wrn-34-4", || zoo::wrn34(4)),
        ("wrn-34-5", || zoo::wrn34(5)),
        ("wrn-50-3", || zoo::wrn50(3)),
        ("wrn-50-4", || zoo::wrn50(4)),
        ("wrn-50-5", || zoo::wrn50(5)),
        ("rnn-3", || zoo::rnn(3)),
        ("rnn-6", || zoo::rnn(6)),
        ("rnn-9", || zoo::rnn(9)),
        ("rnn-12", || zoo::rnn(12)),
        ("rnn-18", || zoo::rnn(18)),
        ("tiny-vgg", zoo::tiny_vgg),
        ("tiny-resnet", zoo::tiny_resnet),
        ("tiny-inception", zoo::tiny_inception),
        ("tiny-mobilenet", zoo::tiny_mobilenet),
    ]
}

/// Builds a zoo model by its catalog name.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for unknown names.
pub fn lookup_model(name: &str) -> Result<LinearModel, CoreError> {
    model_catalog()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f())
        .ok_or_else(|| CoreError::InvalidArgument(format!("unknown model '{name}'")))
}

/// Builds a platform profile by name (`lambda`/`aws`, `gcf`/`google`,
/// `knix`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for unknown names.
pub fn lookup_platform(name: &str) -> Result<PlatformProfile, CoreError> {
    match name {
        "lambda" | "aws" => Ok(PlatformProfile::aws_lambda()),
        "gcf" | "google" => Ok(PlatformProfile::gcf()),
        "knix" => Ok(PlatformProfile::knix()),
        other => Err(CoreError::InvalidArgument(format!(
            "unknown platform '{other}' (lambda | gcf | knix)"
        ))),
    }
}

/// Which partitioning objective to use (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Minimize inference latency (§IV-B, dynamic programming).
    LatencyOptimal,
    /// Minimize billed cost subject to a mean-latency SLO (§IV-C,
    /// reinforcement learning).
    SloAware {
        /// Mean-latency threshold in milliseconds.
        t_max_ms: f64,
    },
    /// Minimize billed cost subject to a latency-*quantile* SLO (the §VI
    /// extension), e.g. `quantile: 0.99` for p99.
    TailAware {
        /// Latency quantile the SLO constrains (in `(0, 1)`).
        quantile: f64,
        /// Latency threshold in milliseconds.
        t_max_ms: f64,
    },
}

/// Builder for a Gillis deployment.
#[derive(Debug, Clone)]
pub struct Gillis {
    model: LinearModel,
    platform: PlatformProfile,
    mode: Mode,
    profile_seed: u64,
    episodes: usize,
    policies: PolicyStack,
    plan: Option<ExecutionPlan>,
}

impl Gillis {
    /// Starts a deployment of `model` (defaults: AWS Lambda,
    /// latency-optimal).
    pub fn new(model: LinearModel) -> Self {
        Gillis {
            model,
            platform: PlatformProfile::aws_lambda(),
            mode: Mode::LatencyOptimal,
            profile_seed: 42,
            episodes: 400,
            policies: PolicyStack::default(),
            plan: None,
        }
    }

    /// Sets the target platform.
    pub fn platform(mut self, platform: PlatformProfile) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the partitioning objective.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the profiling / training seed (deployments are deterministic in
    /// it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.profile_seed = seed;
        self
    }

    /// Sets the RL episode budget for the SLO-aware modes.
    pub fn episodes(mut self, episodes: usize) -> Self {
        self.episodes = episodes;
        self
    }

    /// Sets every serving policy at once: chaos, resilience, overload,
    /// batching, outage, retry budget, brownout, pipelining and recovery,
    /// as one [`PolicyStack`] (for instance [`PolicyStack::from_env`]).
    /// Overload protection sheds on the deployment's own (profiled)
    /// [`PlanPrediction`]; a pipeline policy makes the latency-optimal mode
    /// plan for the stage-balancing objective
    /// ([`PlanObjective::PipelineBottleneck`]) and the SLO-aware modes score
    /// the pipelined latency; batch and pipeline policies select the
    /// open-loop driver ([`Deployment::serve_open_loop`]). Validated at
    /// [`Gillis::deploy`].
    pub fn policies(mut self, policies: PolicyStack) -> Self {
        self.policies = policies;
        self
    }

    /// Deploys `plan` as given instead of searching for one; the mode is
    /// then unused. Validated against the model and the platform's memory
    /// budget at [`Gillis::deploy`].
    pub fn plan(mut self, plan: ExecutionPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Runs the full offline workflow: profile the platform, search for a
    /// plan under the chosen objective (or take the given one), and validate
    /// it and every policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no plan fits the memory budget
    /// or meets the SLO, the validation error of a given plan or an invalid
    /// policy, and propagates analysis errors.
    pub fn deploy(self) -> Result<Deployment, CoreError> {
        // Validate every policy now, at deploy time, not when serving starts.
        self.policies.validate()?;
        let perf = PerfModel::profiled(&self.platform, self.profile_seed);
        // Pipeline deployments plan for the pipelined objective: the DP
        // balances stage times instead of minimizing their sum, and the RL
        // trainer scores the pipelined p99 against the SLO.
        let pipeline = self.policies.pipeline.is_some();
        let plan = match (self.plan, self.mode) {
            (Some(plan), _) => {
                plan.validate(&self.model, self.platform.model_memory_budget)?;
                plan
            }
            (None, Mode::LatencyOptimal) => {
                let mut partitioner = DpPartitioner::default();
                if pipeline {
                    partitioner = partitioner.with_objective(PlanObjective::PipelineBottleneck);
                }
                partitioner.partition(&self.model, &perf)?
            }
            (None, Mode::SloAware { t_max_ms } | Mode::TailAware { t_max_ms, .. }) => {
                let tail_quantile = match self.mode {
                    Mode::TailAware { quantile, .. } => Some(quantile),
                    _ => None,
                };
                let config = SloAwareConfig {
                    t_max_ms,
                    episodes: self.episodes,
                    seed: self.profile_seed,
                    tail_quantile,
                    pipeline,
                    ..SloAwareConfig::default()
                };
                slo_aware_partition(&self.model, &perf, &config)?.plan
            }
        };
        let prediction = predict_plan(&self.model, &plan, &perf)?;
        Ok(Deployment {
            model: self.model,
            platform: self.platform,
            plan,
            prediction,
            policies: self.policies,
            warm: WarmCache::default(),
        })
    }
}

/// The deployment's steady-state compiled plan.
#[derive(Default)]
enum WarmSlot {
    /// No plan is held: no query has compiled yet, the last compile failed,
    /// or a weight swap is between dropping the old plan and building the
    /// new one.
    #[default]
    Empty,
    /// Compiled against the weight set carrying this
    /// [`ModelWeights::stamp`]. A plan copies no conv, dense or depthwise
    /// weight — its steps read the rows of the set each query brings — but it
    /// does snapshot the folded batch-norm `(scale, shift)`, so it is valid
    /// for exactly that content, wherever the set has moved since.
    Ready {
        stamp: u64,
        exec: Box<CompiledPlanExec>,
    },
}

/// The slot plus how many plans it has held so far.
#[derive(Default)]
struct WarmState {
    slot: WarmSlot,
    compiles: u64,
}

/// What a deployment's warm slot holds (see [`Deployment::warm_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmPlan {
    /// [`ModelWeights::stamp`] of the weight set the plan was compiled for.
    pub weights_stamp: u64,
    /// Plans this deployment (and its clones) compiled so far, this one
    /// included: it moves only when the weights' content does.
    pub compiles: u64,
    /// Bytes of f32 activations the plan holds: one lane — the slots of its
    /// widest piece — per thread a group's pieces have run on, one join
    /// buffer per group, and the output of every piece that is gathered.
    pub activation_bytes: usize,
}

/// Shared, lazily-populated compiled state. Clones of a [`Deployment`] share
/// the same compilation (it is keyed by weight stamp, not by clone).
#[derive(Clone, Default)]
struct WarmCache(Arc<Mutex<WarmState>>);

impl WarmCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, WarmState> {
        // A poisoning panic can only come from the executor, whose state is
        // fully overwritten by the next run; recover rather than propagate.
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.lock().slot {
            WarmSlot::Empty => "empty",
            WarmSlot::Ready { .. } => "ready",
        };
        f.debug_tuple("WarmCache").field(&state).finish()
    }
}

/// A deployed model: the plan plus everything needed to serve it.
#[derive(Debug, Clone)]
pub struct Deployment {
    model: LinearModel,
    platform: PlatformProfile,
    plan: ExecutionPlan,
    prediction: PlanPrediction,
    policies: PolicyStack,
    /// Lazily-compiled steady-state execution (folded batch norms,
    /// preallocated arenas); see [`Deployment::infer`].
    warm: WarmCache,
}

impl Deployment {
    /// The chosen execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Predicted latency and cost.
    pub fn predicted(&self) -> &PlanPrediction {
        &self.prediction
    }

    /// The served model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Human-readable plan description (Fig 14 style).
    ///
    /// # Errors
    ///
    /// Propagates plan-analysis failures.
    pub fn describe(&self) -> Result<String, CoreError> {
        self.plan.describe(&self.model)
    }

    /// Runs one real inference through the partitioned plan: slices `input`
    /// per group, executes the worker partitions concurrently on the shared
    /// thread pool, and stitches the outputs. The result is bit-identical to
    /// the unpartitioned forward pass — Gillis's no-accuracy-loss property,
    /// now also exercised through the facade.
    ///
    /// The first query against a weight set compiles the plan
    /// ([`gillis_core::CompiledPlanExec`]): batch norms are folded, weight
    /// row ranges resolved, every value of every piece assigned an arena
    /// slot, and the lanes the pieces share preallocated. Subsequent queries
    /// with the same weight content (the same [`ModelWeights::stamp`],
    /// wherever the set lives) reuse that state — the steady-state warm path
    /// runs without heap allocation at pool width 1 — and a changed set
    /// replaces it, one plan resident at a time. Every model the planner
    /// handles compiles, branching ones included, and every query runs on
    /// the compiled plan, chaos-enabled deployments' too.
    ///
    /// # Errors
    ///
    /// Propagates compile, executor and plan-validation errors (e.g. a
    /// weight set that does not fit the model), and returns
    /// [`CoreError::InvalidArgument`] for an input whose shape does not match
    /// the model's.
    pub fn infer(&self, weights: &ModelWeights, input: &Tensor) -> Result<Tensor, CoreError> {
        self.infer_with_report(weights, input).map(|(out, _)| out)
    }

    /// [`Deployment::infer`] plus the resilience accounting of the query:
    /// how many worker executions were retried, how many corrupted responses
    /// were caught, and how many shards the master recomputed locally after
    /// exhausting their retry budget. Under a chaos policy the accounting
    /// walks the fault sites of the query's fork-join with the deployment's
    /// [`ResiliencePolicy`], attempt by attempt, as the simulator does. The
    /// tensor is computed once, on the warm plan: a retried or recomputed
    /// shard is the same deterministic function of the same input and
    /// carries the same bits.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Deployment::infer`], and returns
    /// [`CoreError::WorkerFailed`] when a shard exhausts its retry budget
    /// with local fallback disabled.
    pub fn infer_with_report(
        &self,
        weights: &ModelWeights,
        input: &Tensor,
    ) -> Result<(Tensor, ResilienceCounters), CoreError> {
        let out = self.warm_infer(weights, input)?;
        let counters = match self.policies.chaos {
            Some(config) => tally_faults(&self.plan, &config.build()?, &self.policies.resilience)?,
            None => ResilienceCounters {
                ok_queries: 1,
                ..ResilienceCounters::default()
            },
        };
        Ok((out, counters))
    }

    /// The steady-state warm path: compiles the plan on first use (or when
    /// `weights` carries a new stamp), then serves the query from preallocated
    /// state. A compile error (say, an incomplete weight set) is this call's:
    /// the slot stays empty and the next call compiles afresh.
    fn warm_infer(&self, weights: &ModelWeights, input: &Tensor) -> Result<Tensor, CoreError> {
        let mut warm = self.warm.lock();
        let stamp = weights.stamp();
        if !matches!(warm.slot, WarmSlot::Ready { stamp: s, .. } if s == stamp) {
            // Drop the stale plan before building its replacement: a weight
            // swap holds one plan, not two.
            warm.slot = WarmSlot::Empty;
            let exec = CompiledPlanExec::compile(&self.model, &self.plan, weights)?;
            warm.compiles += 1;
            warm.slot = WarmSlot::Ready {
                stamp,
                exec: Box::new(exec),
            };
        }
        match &mut warm.slot {
            WarmSlot::Ready { exec, .. } => exec.run(weights, input),
            WarmSlot::Empty => unreachable!("slot was just compiled"),
        }
    }

    /// The compiled plan the warm slot holds, if any: which weights it was
    /// built for, how many were built before it, and what it keeps resident.
    pub fn warm_plan(&self) -> Option<WarmPlan> {
        let warm = self.warm.lock();
        match &warm.slot {
            WarmSlot::Ready { stamp, exec } => Some(WarmPlan {
                weights_stamp: *stamp,
                compiles: warm.compiles,
                activation_bytes: exec.activation_bytes(),
            }),
            _ => None,
        }
    }

    fn runtime(&self) -> Result<ForkJoinRuntime<'_>, CoreError> {
        self.runtime_on(self.platform.clone())
    }

    /// The serving runtime on `platform` — the deployment's own, or the same
    /// platform at the instance memory a batch schedule chose — with every
    /// configured policy attached.
    fn runtime_on(&self, platform: PlatformProfile) -> Result<ForkJoinRuntime<'_>, CoreError> {
        // The deployment's own prediction (profiled performance model)
        // drives shed-on-predicted-miss.
        ForkJoinRuntime::new(&self.model, &self.plan, platform)?
            .with_policies(&self.policies, Some(self.prediction.latency_ms))
    }

    /// Mean warm-query latency over `n` simulated queries.
    pub fn mean_latency_ms(&self, n: usize, seed: u64) -> f64 {
        self.runtime()
            .expect("deployed plan is valid")
            .mean_latency_ms(n, seed)
    }

    /// Serves a closed-loop client workload end to end.
    ///
    /// # Errors
    ///
    /// Propagates fleet and deployment errors.
    pub fn serve(&self, workload: ClosedLoop, seed: u64) -> Result<ServingReport, CoreError> {
        self.runtime()?.serve_workload(workload, seed)
    }

    /// Serves an open-loop Poisson stream of `queries` arrivals at
    /// `rate_per_sec`, on the driver the policy stack selects:
    ///
    /// - with a pipeline policy, pipeline-parallel across layer groups
    ///   ([`ForkJoinRuntime::serve_open_loop_pipelined`]): each group is a
    ///   stage with its own lane pool and a bounded inter-stage queue. It
    ///   takes precedence over batching; the two do not compose.
    /// - else with a batch policy, adaptive multi-SLO batching
    ///   ([`ForkJoinRuntime::serve_open_loop_batched`]) on the schedule
    ///   [`Deployment::batch_schedule`] plans for this rate, with the fleet
    ///   at the instance memory that schedule chose.
    /// - else one fork-join per query ([`ForkJoinRuntime::serve_open_loop`]).
    ///
    /// Pools are pre-warmed with `prewarm` instances before the first
    /// arrival — under an overload policy, to at least the admission
    /// concurrency — so early queries do not pay cold starts that would skew
    /// overload p99s.
    ///
    /// # Errors
    ///
    /// Propagates schedule, fleet and deployment errors.
    pub fn serve_open_loop(
        &self,
        rate_per_sec: f64,
        queries: usize,
        prewarm: usize,
        seed: u64,
    ) -> Result<ServingReport, CoreError> {
        if let Some(policy) = &self.policies.pipeline {
            return self.runtime()?.serve_open_loop_pipelined(
                policy,
                rate_per_sec,
                queries,
                prewarm,
                seed,
            );
        }
        if let Some(policy) = &self.policies.batch {
            let schedule = self.batch_schedule(rate_per_sec)?;
            let rt = self.runtime_on(self.platform.with_memory_bytes(schedule.memory_bytes))?;
            return rt.serve_open_loop_batched(
                policy,
                &schedule,
                rate_per_sec,
                queries,
                prewarm,
                seed,
            );
        }
        self.runtime()?
            .serve_open_loop(rate_per_sec, queries, prewarm, seed)
    }

    /// Jointly configures batch sizes and instance memory for the expected
    /// arrival rate (see [`gillis_core::plan_batch_schedule`]): the schedule
    /// [`Deployment::serve_open_loop`] serves a batch policy on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] without a batch policy, for a
    /// non-positive rate, or when no candidate memory is feasible.
    pub fn batch_schedule(&self, rate_per_sec: f64) -> Result<BatchSchedule, CoreError> {
        let policy = self.policies.batch.as_ref().ok_or_else(|| {
            CoreError::InvalidArgument("deployment has no batch policy".to_string())
        })?;
        plan_batch_schedule(
            &self.model,
            &self.plan,
            &self.platform,
            TransferFormat::F32,
            policy,
            rate_per_sec,
        )
    }
}

/// The resilience accounting of one query under `injector` and `policy`:
/// the fault model the simulator applies, walked site by site without a
/// clock. Each worker piece of a split group — the last
/// [`PlannedGroup::worker_count`](gillis_core::PlannedGroup::worker_count)
/// of its pieces, numbered as the simulator numbers them; a master's own
/// piece and an unsplit group are never fault sites — draws
/// [`FaultInjector::fault`] at query 0, attempt after attempt. An invocation
/// failure, a crash or a corrupted response (caught at the join, and
/// counted) fails the attempt; a straggler only costs time. A piece still
/// failing after `policy.max_attempts` is recomputed by the master
/// (a degraded shard) or, without `local_fallback`, fails the query.
///
/// # Errors
///
/// Returns [`CoreError::WorkerFailed`] for the first piece, in plan order,
/// that exhausts its budget with local fallback disabled.
fn tally_faults(
    plan: &ExecutionPlan,
    injector: &FaultInjector,
    policy: &ResiliencePolicy,
) -> Result<ResilienceCounters, CoreError> {
    let mut counters = ResilienceCounters::default();
    let max_attempts = policy.max_attempts.max(1);
    for (gi, g) in plan.groups().iter().enumerate() {
        let PartitionOption::Split { parts, .. } = g.option else {
            continue;
        };
        // Each worker piece still failing, with what its last attempt met.
        let workers = parts - g.worker_count()..parts;
        let mut failing: Vec<(usize, &str)> = workers.map(|j| (j, "")).collect();
        let mut attempt = 0;
        while !failing.is_empty() && attempt < max_attempts {
            failing.retain_mut(|(j, last)| {
                let site = FaultSite {
                    query: 0,
                    group: gi as u32,
                    part: *j as u32,
                    attempt,
                    lane: 0,
                };
                *last = match injector.fault(site) {
                    Some(Fault::InvokeFailure) => "invocation failure",
                    Some(Fault::Crash { .. }) => "worker crash",
                    Some(Fault::Corrupt) => {
                        counters.corruptions_detected += 1;
                        "corrupted response (checksum mismatch)"
                    }
                    Some(Fault::Straggler { .. }) | None => return false,
                };
                true
            });
            attempt += 1;
            if !failing.is_empty() && attempt < max_attempts {
                counters.retries += failing.len() as u64;
            }
        }
        if let Some(&(j, last)) = failing.first() {
            if !policy.local_fallback {
                return Err(CoreError::WorkerFailed {
                    group: gi,
                    part: j,
                    attempts: max_attempts,
                    reason: format!("retry budget exhausted (last: {last})"),
                });
            }
            counters.degraded_shards += failing.len() as u64;
        }
    }
    counters.record_status(match counters.degraded_shards {
        0 => QueryStatus::Ok,
        _ => QueryStatus::Degraded,
    });
    Ok(counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_core::{
        BatchPolicy, BrownoutPolicy, ChaosConfig, OutageConfig, OverloadPolicy, PartDim,
        PipelinePolicy, Placement, PlannedGroup, RecoveryPolicy, RetryBudgetPolicy,
    };
    use gillis_faas::Micros;
    use gillis_model::zoo;

    #[test]
    fn latency_optimal_deployment_serves() {
        let d = Gillis::new(zoo::tiny_vgg())
            .platform(PlatformProfile::aws_lambda())
            .mode(Mode::LatencyOptimal)
            .deploy()
            .unwrap();
        assert!(d.predicted().latency_ms > 0.0);
        let report = d
            .serve(ClosedLoop::new(4, 20, Micros::ZERO).unwrap(), 1)
            .unwrap();
        assert_eq!(report.latency.count(), 20);
        assert!(d.describe().unwrap().contains("group"));
    }

    #[test]
    fn slo_aware_deployment_meets_target() {
        let single = Gillis::new(zoo::tiny_vgg()).deploy().unwrap();
        let budget = single.predicted().latency_ms * 3.0;
        let d = Gillis::new(zoo::tiny_vgg())
            .mode(Mode::SloAware { t_max_ms: budget })
            .episodes(100)
            .deploy()
            .unwrap();
        assert!(d.predicted().latency_ms <= budget);
    }

    #[test]
    fn deployment_inference_matches_unpartitioned_forward() {
        use gillis_model::exec::Executor;
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let d = Gillis::new(tiny.clone()).deploy().unwrap();
        let weights = init_weights(tiny.graph(), 9).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 13) as f32 - 6.0) / 6.0
        });
        let partitioned = d.infer(&weights, &input).unwrap();
        let reference = Executor::new(tiny.graph(), &weights)
            .forward(&tiny, &input)
            .unwrap();
        assert!(reference.max_abs_diff(&partitioned).unwrap() < 1e-4);
    }

    #[test]
    fn deployments_of_clones_share_the_model() {
        let model = zoo::tiny_vgg();
        let lambda = Gillis::new(model.clone()).deploy().unwrap();
        let gcf = Gillis::new(model.clone())
            .platform(PlatformProfile::gcf())
            .deploy()
            .unwrap();
        assert!(std::ptr::eq(lambda.model().graph(), model.graph()));
        assert!(std::ptr::eq(gcf.model().layers(), lambda.model().layers()));
    }

    #[test]
    fn open_loop_serving_reports() {
        let d = Gillis::new(zoo::tiny_vgg()).deploy().unwrap();
        let report = d.serve_open_loop(50.0, 100, 8, 3).unwrap();
        assert_eq!(report.latency.count(), 100);
        assert!(report.billing.billed_ms_total() > 0);
    }

    #[test]
    fn overload_deployment_prewarms_capacity_and_sheds_only_under_pressure() {
        let concurrency = 4;
        let probe = Gillis::new(zoo::tiny_vgg()).deploy().unwrap();
        let predicted = probe.predicted().latency_ms;
        let d = Gillis::new(zoo::tiny_vgg())
            .policies(PolicyStack {
                overload: Some(OverloadPolicy::for_slo(3.0 * predicted, concurrency)),
                ..PolicyStack::default()
            })
            .deploy()
            .unwrap();
        // Sub-saturation: pools are pre-warmed to the admission concurrency
        // before the first arrival, so nothing pays a cold start and
        // nothing sheds.
        let saturation_qps = 1000.0 * concurrency as f64 / predicted;
        let calm = d.serve_open_loop(0.4 * saturation_qps, 60, 1, 7).unwrap();
        assert_eq!(calm.cold_starts, 0, "{:?}", calm.overload);
        assert_eq!(calm.overload.admitted, 60);
        assert_eq!(calm.overload.shed(), 0);
        assert_eq!(calm.by_status.count(), calm.latency.count());
        // The same deployment sheds honestly when pushed past capacity.
        let stormy = d.serve_open_loop(3.0 * saturation_qps, 200, 1, 7).unwrap();
        assert!(stormy.overload.shed() > 0);
        assert_eq!(
            stormy.overload.admitted + stormy.overload.shed(),
            200,
            "{:?}",
            stormy.overload
        );
    }

    #[test]
    fn invalid_overload_policy_rejected_at_deploy() {
        let overload = OverloadPolicy {
            max_concurrency: 0,
            ..OverloadPolicy::unprotected(1)
        };
        let err = Gillis::new(zoo::tiny_vgg())
            .policies(PolicyStack {
                overload: Some(overload),
                ..PolicyStack::default()
            })
            .deploy()
            .unwrap_err();
        assert!(err.to_string().contains("concurrency"), "{err}");
    }

    #[test]
    fn catalog_names_build_their_models() {
        for (name, _) in model_catalog() {
            let model = lookup_model(name).unwrap();
            assert!(!model.layers().is_empty(), "{name} has no layers");
        }
        assert!(lookup_model("nonexistent").is_err());
        assert!(lookup_platform("lambda").is_ok());
        assert!(lookup_platform("knix").is_ok());
        assert!(lookup_platform("azure").is_err());
    }

    #[test]
    fn chaotic_deployment_serves_and_infers_exactly() {
        use gillis_model::exec::Executor;
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let chaos = ChaosConfig {
            seed: 99,
            invoke_failure_rate: 0.1,
            crash_rate: 0.1,
            straggler_rate: 0.1,
            straggler_slowdown: 5.0,
            corrupt_rate: 0.05,
            orchestrator_crash_rate: 0.0,
        };
        let d = Gillis::new(tiny.clone())
            .policies(PolicyStack {
                chaos: Some(chaos),
                resilience: ResiliencePolicy::backoff_hedged(),
                ..PolicyStack::default()
            })
            .deploy()
            .unwrap();

        // Serving under chaos completes every query and reports honestly.
        let report = d
            .serve(ClosedLoop::new(4, 30, Micros::ZERO).unwrap(), 2)
            .unwrap();
        assert_eq!(report.latency.count(), 30);
        assert_eq!(report.resilience.queries(), 30);
        assert_eq!(report.resilience.failed_queries, 0);

        // Inference under chaos is still exactly correct.
        let weights = init_weights(tiny.graph(), 11).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 11) as f32 - 5.0) / 5.0
        });
        let (out, _counters) = d.infer_with_report(&weights, &input).unwrap();
        let reference = Executor::new(tiny.graph(), &weights)
            .forward(&tiny, &input)
            .unwrap();
        assert!(reference.max_abs_diff(&out).unwrap() < 1e-4);

        // An invalid chaos config is rejected at deploy time.
        let bad = Gillis::new(zoo::tiny_vgg())
            .policies(PolicyStack {
                chaos: Some(ChaosConfig {
                    invoke_failure_rate: 1.5,
                    ..ChaosConfig::default()
                }),
                ..PolicyStack::default()
            })
            .deploy();
        assert!(bad.is_err());
    }

    #[test]
    fn resilient_deployment_composes_outage_budget_and_brownout() {
        let chaos = ChaosConfig {
            seed: 21,
            invoke_failure_rate: 0.05,
            straggler_rate: 0.02,
            straggler_slowdown: 4.0,
            ..ChaosConfig::default()
        };
        let stack = PolicyStack {
            chaos: Some(chaos),
            resilience: ResiliencePolicy::backoff_hedged(),
            outage: Some(OutageConfig::severe(8.0, 5)),
            retry_budget: Some(RetryBudgetPolicy::default()),
            brownout: Some(BrownoutPolicy::default()),
            ..PolicyStack::default()
        };
        let d = Gillis::new(zoo::tiny_vgg())
            .policies(stack.clone())
            .deploy()
            .unwrap();
        let a = d.serve_open_loop(40.0, 150, 4, 9).unwrap();
        let b = d.serve_open_loop(40.0, 150, 4, 9).unwrap();
        assert_eq!(a.brownout.arrivals(), 150);
        assert_eq!(a.resilience.failed_queries, 0);
        assert!(a.retry_amplification() >= 1.0);
        // Deterministic: the same deployment replays bit-identically.
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.brownout, b.brownout);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());

        // Invalid resilience configs are rejected at deploy time.
        let invalid = [
            PolicyStack {
                outage: Some(OutageConfig {
                    severity: 0.5,
                    ..OutageConfig::severe(8.0, 5)
                }),
                ..stack.clone()
            },
            PolicyStack {
                retry_budget: Some(RetryBudgetPolicy {
                    max_tokens: 0.0,
                    ..RetryBudgetPolicy::default()
                }),
                ..stack.clone()
            },
            PolicyStack {
                brownout: Some(BrownoutPolicy {
                    window_lanes: 0,
                    ..BrownoutPolicy::default()
                }),
                ..stack
            },
        ];
        for policies in invalid {
            assert!(Gillis::new(zoo::tiny_vgg())
                .policies(policies)
                .deploy()
                .is_err());
        }
    }

    #[test]
    fn recovered_deployment_replays_crashes_deterministically() {
        let chaos = ChaosConfig {
            seed: 17,
            invoke_failure_rate: 0.03,
            orchestrator_crash_rate: 0.2,
            ..ChaosConfig::default()
        };
        let stack = PolicyStack {
            chaos: Some(chaos),
            resilience: ResiliencePolicy::backoff(),
            recovery: Some(RecoveryPolicy::default()),
            ..PolicyStack::default()
        };
        let d = Gillis::new(zoo::tiny_vgg())
            .policies(stack.clone())
            .deploy()
            .unwrap();
        let a = d.serve_open_loop(40.0, 120, 4, 9).unwrap();
        let b = d.serve_open_loop(40.0, 120, 4, 9).unwrap();
        assert!(a.recovery.orchestrator_crashes > 0);
        assert!(a.recovery.checkpoints_stored > 0);
        assert_eq!(a.recovery.full_restarts, 0, "{:?}", a.recovery);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        // Invalid recovery knobs are rejected at deploy time.
        let recovery = Some(RecoveryPolicy { capacity: 0 });
        assert!(Gillis::new(zoo::tiny_vgg())
            .policies(PolicyStack { recovery, ..stack })
            .deploy()
            .is_err());
    }

    #[test]
    fn warm_path_is_bit_identical_and_tracks_weight_identity() {
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let d = Gillis::new(tiny.clone()).deploy().unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 17) as f32 - 8.0) / 8.0
        });

        // Cold query (compiles) and warm queries agree bit-for-bit with the
        // unpartitioned forward pass.
        let weights = init_weights(tiny.graph(), 4).unwrap();
        let reference = forward(&tiny, &weights, &input);
        for _ in 0..3 {
            assert_bits_eq(&d.infer(&weights, &input).unwrap(), &reference);
        }
        assert!(format!("{:?}", d.warm).contains("ready"));

        // A different weight set forces a recompile and still matches.
        let weights2 = init_weights(tiny.graph(), 5).unwrap();
        let expect2 = forward(&tiny, &weights2, &input);
        let out2 = d.infer(&weights2, &input).unwrap();
        assert_eq!(
            out2.data()[0].to_bits(),
            expect2.data()[0].to_bits(),
            "recompiled against new weights"
        );

        // Clones share the compiled state.
        let clone = d.clone();
        assert!(format!("{:?}", clone.warm).contains("ready"));
    }

    #[test]
    fn branching_models_are_served_from_the_warm_slot() {
        use gillis_model::exec::Executor;
        use gillis_model::weights::init_weights;

        // Residual and inception groups compile: the first query leaves the
        // slot ready, the second reuses it, and both carry forward's bits.
        for model in [zoo::tiny_resnet(), zoo::tiny_inception()] {
            let d = Gillis::new(model.clone()).deploy().unwrap();
            let weights = init_weights(model.graph(), 2).unwrap();
            let input = Tensor::from_fn(model.input_shape().clone(), |i| {
                ((i % 7) as f32 - 3.0) / 3.0
            });
            let reference = Executor::new(model.graph(), &weights)
                .forward(&model, &input)
                .unwrap();
            for _ in 0..2 {
                let out = d.infer(&weights, &input).unwrap();
                assert_eq!(out.shape(), reference.shape());
                for (a, b) in out.data().iter().zip(reference.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", model.name());
                }
            }
            assert!(format!("{:?}", d.warm).contains("ready"));
            assert_eq!(d.warm_plan().unwrap().compiles, 1);
        }
    }

    #[test]
    fn recurrent_model_is_served_from_the_warm_slot() {
        use gillis_model::exec::Executor;
        use gillis_model::weights::init_weights;

        let model = zoo::rnn_sized(3, 20, 12);
        let d = Gillis::new(model.clone()).deploy().unwrap();
        let weights = init_weights(model.graph(), 9).unwrap();
        let input = Tensor::from_fn(model.input_shape().clone(), |i| {
            ((i % 11) as f32 - 5.0) / 5.0
        });
        let reference = Executor::new(model.graph(), &weights)
            .forward(&model, &input)
            .unwrap();
        for _ in 0..2 {
            let out = d.infer(&weights, &input).unwrap();
            assert_eq!(out.shape(), reference.shape());
            for (a, b) in out.data().iter().zip(reference.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(format!("{:?}", d.warm).contains("ready"));
        assert_eq!(d.warm_plan().unwrap().compiles, 1);
    }

    #[test]
    fn incomplete_weights_do_not_pin_the_deployment_to_the_slow_path() {
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let d = Gillis::new(tiny.clone()).deploy().unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |_| 0.25);
        // A weight set with nothing in it fails to compile with `BadWeights`,
        // which says nothing about the model: the error is that query's, and
        // the slot stays open.
        assert!(d.infer(&ModelWeights::new(), &input).is_err());
        assert!(format!("{:?}", d.warm).contains("empty"));
        let weights = init_weights(tiny.graph(), 6).unwrap();
        d.infer(&weights, &input).unwrap();
        assert!(format!("{:?}", d.warm).contains("ready"));
    }

    #[test]
    fn chaos_deployment_serves_from_the_warm_path() {
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let chaos = ChaosConfig {
            seed: 3,
            crash_rate: 0.05,
            ..ChaosConfig::default()
        };
        let d = Gillis::new(tiny.clone())
            .policies(PolicyStack {
                chaos: Some(chaos),
                ..PolicyStack::default()
            })
            .deploy()
            .unwrap();
        let weights = init_weights(tiny.graph(), 6).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |_| 0.25);
        let reference = forward(&tiny, &weights, &input);
        for _ in 0..2 {
            assert_bits_eq(&d.infer(&weights, &input).unwrap(), &reference);
        }
        // Chaos changes the accounting, not the executor: the plan compiles
        // once and serves every query.
        assert_eq!(d.warm_plan().unwrap().compiles, 1);
    }

    /// `Executor::forward`'s output: the oracle every query is held to.
    fn forward(model: &LinearModel, weights: &ModelWeights, input: &Tensor) -> Tensor {
        gillis_model::exec::Executor::new(model.graph(), weights)
            .forward(model, input)
            .unwrap()
    }

    fn assert_bits_eq(out: &Tensor, reference: &Tensor) {
        assert_eq!(out.shape(), reference.shape());
        for (a, b) in out.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A query for `model` that cycles through `period` values in [-1, 1).
    fn query(model: &LinearModel, period: usize) -> Tensor {
        let half = (period / 2) as f32;
        Tensor::from_fn(model.input_shape().clone(), |i| {
            ((i % period) as f32 - half) / half
        })
    }

    /// `tiny`'s layers one group each: spatial ones split four ways by
    /// height, channel-splittable ones two ways by channel, each split group
    /// at `placement` — worker pieces in nearly every group, where the DP
    /// keeps a model this small whole.
    fn forced_split_plan(tiny: &LinearModel, placement: Placement) -> ExecutionPlan {
        let split = |dim, parts| PartitionOption::Split { dim, parts };
        let groups = tiny.layers().iter().enumerate().map(|(i, layer)| {
            let option = if layer.class.supports_spatial() && layer.out_shape.dims()[1] >= 4 {
                split(PartDim::Height, 4)
            } else if layer.class.channel_splittable() && layer.out_shape.dims()[0] >= 2 {
                split(PartDim::Channel, 2)
            } else {
                PartitionOption::Single
            };
            PlannedGroup {
                start: i,
                end: i + 1,
                option,
                placement: match option {
                    PartitionOption::Single => Placement::Master,
                    _ => placement,
                },
            }
        });
        ExecutionPlan::new(groups.collect())
    }

    /// `model` as `groups`, each `(end, option)` starting where the last one
    /// ended; split groups run on workers.
    fn plan_of(groups: &[(usize, PartitionOption)]) -> ExecutionPlan {
        let mut start = 0;
        let groups = groups.iter().map(|&(end, option)| {
            let group = PlannedGroup {
                start,
                end,
                option,
                placement: match option {
                    PartitionOption::Single => Placement::Master,
                    _ => Placement::Workers,
                },
            };
            start = end;
            group
        });
        ExecutionPlan::new(groups.collect())
    }

    const HX4: PartitionOption = PartitionOption::Split {
        dim: PartDim::Height,
        parts: 4,
    };

    /// A deployment of `model` serving the hand-built `plan` under `chaos`
    /// and `policy`.
    fn deployed(
        model: &LinearModel,
        plan: ExecutionPlan,
        chaos: ChaosConfig,
        policy: ResiliencePolicy,
    ) -> Deployment {
        Gillis::new(model.clone())
            .policies(PolicyStack {
                chaos: Some(chaos),
                resilience: policy,
                ..PolicyStack::default()
            })
            .plan(plan)
            .deploy()
            .unwrap()
    }

    /// A chaos config exercising every fault kind at once.
    fn stress_chaos(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            invoke_failure_rate: 0.08,
            crash_rate: 0.08,
            straggler_rate: 0.08,
            straggler_slowdown: 6.0,
            corrupt_rate: 0.06,
            orchestrator_crash_rate: 0.0,
        }
    }

    #[test]
    fn crash_recovery_returns_exact_tensor() {
        use gillis_model::weights::init_weights;

        // Under injected crashes, invocation failures and corruption, the
        // query returns `forward`'s bits and the process never panics: on a
        // chain split in every group, and on one Hx4 group over the first
        // three residual blocks of tiny-resnet while half of all workers
        // crash.
        let vgg = zoo::tiny_vgg();
        let resnet = zoo::tiny_resnet();
        let residual_plan = plan_of(&[
            (1, PartitionOption::Single),
            (5, HX4),
            (resnet.layers().len(), PartitionOption::Single),
        ]);
        let mix = ChaosConfig {
            seed: 1234,
            invoke_failure_rate: 0.15,
            crash_rate: 0.25,
            corrupt_rate: 0.1,
            ..ChaosConfig::default()
        };
        let crashes = |seed| ChaosConfig {
            seed,
            crash_rate: 0.5,
            ..ChaosConfig::default()
        };
        let cases = [
            (&vgg, forced_split_plan(&vgg, Placement::Workers), vec![mix]),
            (&resnet, residual_plan, (1..=3).map(crashes).collect()),
        ];
        for (model, plan, chaoses) in cases {
            let weights = init_weights(model.graph(), 91).unwrap();
            let input = query(model, 13);
            let reference = forward(model, &weights, &input);
            let mut faults = 0;
            for chaos in chaoses {
                let d = deployed(model, plan.clone(), chaos, ResiliencePolicy::default());
                let (out, counters) = d.infer_with_report(&weights, &input).unwrap();
                assert_bits_eq(&out, &reference);
                faults += counters.retries + counters.degraded_shards;
            }
            assert!(faults > 0, "{}: no fault was injected", model.name());
        }
    }

    #[test]
    fn exhausted_tensor_budget_degrades_or_fails() {
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 92).unwrap();
        let input = query(&tiny, 11);
        let plan = forced_split_plan(&tiny, Placement::Workers);
        let pieces: usize = plan.groups().iter().map(|g| g.worker_count()).sum();

        // Every invocation fails: every worker piece exhausts its budget and
        // the master recomputes it.
        let always_fail = ChaosConfig::invoke_only(1.0, 5);
        let d = deployed(
            &tiny,
            plan.clone(),
            always_fail,
            ResiliencePolicy::default(),
        );
        let (out, counters) = d.infer_with_report(&weights, &input).unwrap();
        assert_bits_eq(&out, &forward(&tiny, &weights, &input));
        assert_eq!(counters.degraded_shards, pieces as u64);
        assert_eq!(counters.degraded_queries, 1);

        // Without fallback, exhaustion is an honest error, not a panic.
        let policy = ResiliencePolicy {
            local_fallback: false,
            ..ResiliencePolicy::default()
        };
        let err = deployed(&tiny, plan, always_fail, policy)
            .infer_with_report(&weights, &input)
            .unwrap_err();
        assert!(matches!(err, CoreError::WorkerFailed { .. }), "{err}");
    }

    #[test]
    fn a_master_computes_its_own_piece_without_faults() {
        use gillis_model::weights::init_weights;

        // In a master-and-workers group the master computes piece 0 itself,
        // so only the other pieces are fault sites, as in the simulator:
        // total invocation failure degrades `worker_count` shards per group,
        // not one per piece.
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 93).unwrap();
        let input = query(&tiny, 7);
        let plan = forced_split_plan(&tiny, Placement::MasterAndWorkers);
        let count = |f: fn(&PlannedGroup) -> usize| plan.groups().iter().map(f).sum::<usize>();
        let (workers, pieces) = (count(|g| g.worker_count()), count(|g| g.option.parts()));
        assert!(workers > 0 && workers < pieces - 1);
        let d = deployed(
            &tiny,
            plan,
            ChaosConfig::invoke_only(1.0, 3),
            ResiliencePolicy::default(),
        );
        let (out, counters) = d.infer_with_report(&weights, &input).unwrap();
        assert_bits_eq(&out, &forward(&tiny, &weights, &input));
        assert_eq!(counters.degraded_shards, workers as u64);
    }

    #[test]
    fn corruption_never_reaches_an_ok_query() {
        use gillis_model::weights::init_weights;

        // Transfer corruption is caught at the join and counted; what the
        // query returns is `forward`'s bits.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny, Placement::Workers);
        for seed in [3u64, 141, 59, 265] {
            let weights = init_weights(tiny.graph(), seed).unwrap();
            let input = query(&tiny, 13);
            let chaos = ChaosConfig {
                seed,
                corrupt_rate: 0.3,
                ..ChaosConfig::default()
            };
            let d = deployed(&tiny, plan.clone(), chaos, ResiliencePolicy::default());
            let (out, counters) = d.infer_with_report(&weights, &input).unwrap();
            assert_bits_eq(&out, &forward(&tiny, &weights, &input));
            // At a 30% corrupt rate over dozens of pieces, at least one
            // corruption fires and every one is detected at the join.
            assert!(counters.corruptions_detected > 0, "seed {seed}");
        }
    }

    #[test]
    fn a_mis_shaped_input_is_an_error_with_or_without_chaos() {
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 6).unwrap();
        let wrong = Tensor::zeros(gillis_tensor::Shape::new(vec![tiny.input_shape().len()]));
        // Chaos that would fail the query if it got that far.
        let policy = ResiliencePolicy {
            local_fallback: false,
            ..ResiliencePolicy::default()
        };
        let plan = forced_split_plan(&tiny, Placement::Workers);
        let chaotic = deployed(&tiny, plan, ChaosConfig::invoke_only(1.0, 1), policy);
        for d in [Gillis::new(tiny.clone()).deploy().unwrap(), chaotic] {
            let err = d.infer(&weights, &wrong).unwrap_err();
            assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
            assert!(
                err.to_string().contains(&wrong.shape().to_string()),
                "{err}"
            );
            assert!(
                err.to_string().contains(&tiny.input_shape().to_string()),
                "{err}"
            );
        }
    }

    #[test]
    fn tally_reproduces_the_pinned_fault_table() {
        // 1,440 queries' accounting: {a forced split of tiny-vgg, an Hx4
        // group over tiny-resnet's spatial layers} × chaos seeds 0..60 ×
        // {every fault kind at once, a 30/20/20 % invoke/crash/corrupt mix}
        // × six policies, one `Debug` line each. The FNV-1a hash and the
        // three rows were recorded from the fork-join master that ran real
        // tensors through every retry and recompute; 383 rows are
        // `WorkerFailed`.
        let no_fallback = |max_attempts| ResiliencePolicy {
            max_attempts,
            local_fallback: false,
            ..ResiliencePolicy::default()
        };
        let policies = [
            ("default", ResiliencePolicy::default()),
            ("naive_retry", ResiliencePolicy::naive_retry()),
            ("backoff_hedged", ResiliencePolicy::backoff_hedged()),
            ("none", ResiliencePolicy::none()),
            ("max1_nofallback", no_fallback(1)),
            ("max2_nofallback", no_fallback(2)),
        ];
        let (vgg, resnet) = (zoo::tiny_vgg(), zoo::tiny_resnet());
        let tall = |l: &&gillis_model::MergedLayer| {
            l.class.supports_spatial() && l.out_shape.dims()[1] >= 4
        };
        let spatial_end = resnet.layers().iter().take_while(tall).count();
        let plans = [
            ("tiny-vgg", forced_split_plan(&vgg, Placement::Workers)),
            (
                "tiny-resnet",
                plan_of(&[
                    (spatial_end, HX4),
                    (resnet.layers().len(), PartitionOption::Single),
                ]),
            ),
        ];
        let mut lines = Vec::new();
        for (name, plan) in &plans {
            for seed in 0..60u64 {
                let mix = ChaosConfig {
                    seed,
                    invoke_failure_rate: 0.3,
                    crash_rate: 0.2,
                    corrupt_rate: 0.2,
                    ..ChaosConfig::default()
                };
                for (chaos, config) in [("stress", stress_chaos(seed)), ("mix", mix)] {
                    let injector = config.build().unwrap();
                    for (policy, p) in &policies {
                        let res = tally_faults(plan, &injector, p);
                        lines.push(format!(
                            "{name} seed={seed} chaos={chaos} policy={policy}: {res:?}"
                        ));
                    }
                }
            }
        }
        assert_eq!(lines.len(), 1440);
        let rows = [
            (0, "tiny-vgg seed=0 chaos=stress policy=default: Ok(ResilienceCounters { retries: 8, hedges: 0, hedge_wins: 0, timeouts: 0, degraded_shards: 1, ok_queries: 0, degraded_queries: 1, failed_queries: 0, shed_queries: 0, deadline_exceeded_queries: 0, worker_invocations: 0, first_attempts: 0, first_attempt_successes: 0, corruptions_detected: 4, budget_denied_retries: 0, budget_denied_hedges: 0 })"),
            (46, "tiny-vgg seed=3 chaos=mix policy=max1_nofallback: Err(WorkerFailed { group: 0, part: 0, attempts: 1, reason: \"retry budget exhausted (last: corrupted response (checksum mismatch))\" })"),
            (814, "tiny-resnet seed=7 chaos=mix policy=max1_nofallback: Err(WorkerFailed { group: 0, part: 2, attempts: 1, reason: \"retry budget exhausted (last: invocation failure)\" })"),
        ];
        for (i, row) in rows {
            assert_eq!(lines[i], row);
        }
        let bytes = lines.iter().flat_map(|l| l.bytes().chain([b'\n']));
        let fnv = bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fnv, 0x670a_faaa_ab5b_982a);
    }

    #[test]
    fn batched_deployment_forms_batches_and_repicks_memory() {
        let probe = Gillis::new(zoo::tiny_vgg()).deploy().unwrap();
        let predicted = probe.predicted().latency_ms;
        let base_mb = PlatformProfile::aws_lambda().instance_memory_bytes / 1_000_000;
        let mut policy = BatchPolicy::single(f64::INFINITY, 4);
        policy.max_window_ms = 4.0 * predicted;
        policy.memory_mb = vec![base_mb, 2 * base_mb];
        let batch = PolicyStack {
            batch: Some(policy),
            ..PolicyStack::default()
        };
        let d = Gillis::new(zoo::tiny_vgg())
            .policies(batch)
            .deploy()
            .unwrap();
        let rate = 6_000.0 / predicted;
        let schedule = d.batch_schedule(rate).unwrap();
        let report = d.serve_open_loop(rate, 80, 4, 5).unwrap();
        assert!(schedule.classes[0].batch > 1, "{:?}", schedule.classes[0]);
        assert!(d
            .policies
            .batch
            .as_ref()
            .unwrap()
            .memory_mb
            .contains(&(schedule.memory_bytes / 1_000_000)));
        assert_eq!(
            report.batch.batched_queries + report.batch.batch_one_fast_path,
            report.overload.admitted
        );
        assert!(report.batch.mean_batch() > 1.0, "{:?}", report.batch);
        // Without a policy there is no schedule, and open-loop serving
        // dispatches per query.
        let err = probe.batch_schedule(rate).unwrap_err();
        assert!(err.to_string().contains("batch policy"), "{err}");
        assert_eq!(
            probe.serve_open_loop(rate, 10, 1, 5).unwrap().batch.batches,
            0
        );
    }

    #[test]
    fn pipelined_deployment_streams_stages_and_plans_for_the_bottleneck() {
        use gillis_core::predict_plan_pipelined;
        use gillis_perf::PerfModel;

        let tiny = zoo::tiny_vgg();
        let pipelined = PolicyStack {
            pipeline: Some(PipelinePolicy::with_lanes(2)),
            ..PolicyStack::default()
        };
        let d = Gillis::new(tiny.clone())
            .policies(pipelined.clone())
            .deploy()
            .unwrap();
        // The pipeline deployment plans for the stage-balancing objective:
        // its bottleneck is no worse than the latency-optimal plan's.
        let plain = Gillis::new(tiny.clone()).deploy().unwrap();
        let perf = PerfModel::profiled(&PlatformProfile::aws_lambda(), 42);
        let balanced = predict_plan_pipelined(&tiny, d.plan(), &perf).unwrap();
        let latency_opt = predict_plan_pipelined(&tiny, plain.plan(), &perf).unwrap();
        assert!(balanced.bottleneck_ms <= latency_opt.bottleneck_ms * 1.0001);
        // Serving streams queries through stages deterministically.
        let report = d.serve_open_loop(80.0, 100, 2, 3).unwrap();
        if d.plan().groups().len() > 1 {
            assert!(report.pipeline.stage_dispatches > 0);
            assert!(report.pipeline.handoffs > 0);
            assert_eq!(report.latency.count() as u64, report.overload.admitted);
        } else {
            // Single-group plans delegate to the plain fork-join loop, which
            // only counts admissions under an overload policy.
            assert_eq!(report.latency.count(), 100);
        }
        let again = d.serve_open_loop(80.0, 100, 2, 3).unwrap();
        assert_eq!(
            report.latency.mean().to_bits(),
            again.latency.mean().to_bits()
        );
        assert_eq!(report.pipeline, again.pipeline);
        // Pipelining takes precedence over batching: with both policies the
        // deployment serves exactly as with the pipeline policy alone.
        let both = PolicyStack {
            batch: Some(BatchPolicy::single(f64::INFINITY, 4)),
            ..pipelined
        };
        let both = Gillis::new(tiny).policies(both).deploy().unwrap();
        let report_both = both.serve_open_loop(80.0, 100, 2, 3).unwrap();
        assert_eq!(report_both.batch.batches, 0);
        assert_eq!(report_both.pipeline, report.pipeline);
        assert_eq!(
            report_both.latency.mean().to_bits(),
            report.latency.mean().to_bits()
        );
    }

    #[test]
    fn a_given_plan_is_deployed_and_validated() {
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny, Placement::Workers);
        let d = Gillis::new(tiny.clone())
            .plan(plan.clone())
            .deploy()
            .unwrap();
        assert_eq!(d.plan(), &plan);
        let perf = PerfModel::profiled(&PlatformProfile::aws_lambda(), 42);
        assert_eq!(d.predicted(), &predict_plan(&tiny, &plan, &perf).unwrap());
        // A plan that does not cover the model is rejected at deploy time.
        let short = plan_of(&[(1, PartitionOption::Single)]);
        let err = Gillis::new(tiny).plan(short).deploy().unwrap_err();
        assert!(matches!(err, CoreError::InvalidPlan(_)), "{err}");
    }

    #[test]
    fn infeasible_slo_errors() {
        let err = Gillis::new(zoo::tiny_vgg())
            .mode(Mode::SloAware { t_max_ms: 0.0001 })
            .episodes(40)
            .deploy();
        assert!(matches!(err, Err(CoreError::Infeasible(_))));
    }
}
