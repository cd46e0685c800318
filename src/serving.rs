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
    execute_plan_tensors_resilient, plan_batch_schedule, predict_plan, BatchPolicy, BatchSchedule,
    BrownoutPolicy, ChaosConfig, CompiledPlanExec, CoreError, DpPartitioner, ExecutionPlan,
    ForkJoinRuntime, OutageConfig, OverloadPolicy, PartitionerConfig, PipelinePolicy,
    PlanObjective, PlanPrediction, PolicyStack, QueryStatus, RecoveryPolicy, ResilienceCounters,
    ResiliencePolicy, RetryBudgetPolicy, ServingReport,
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

    /// Injects deterministic faults into serving and inference: worker
    /// invocation failures, mid-compute crashes, stragglers, and transfer
    /// corruption, sampled as a pure function of `(config.seed, fault
    /// site)` — validated at [`Gillis::deploy`].
    pub fn chaos(mut self, config: ChaosConfig) -> Self {
        self.policies.chaos = Some(config);
        self
    }

    /// Sets how the fork-join master responds to worker faults (retries,
    /// backoff, timeouts, hedging, graceful degradation).
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.policies.resilience = policy;
        self
    }

    /// Enables overload protection for serving: a bounded admission queue
    /// with deadline-derived shedding in open-loop serving, deadline
    /// propagation with cooperative cancellation, and per-worker-lane
    /// circuit breakers. The deployment's [`PlanPrediction`] feeds the
    /// shed-on-predicted-miss decision. Validated at [`Gillis::deploy`].
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.policies.overload = Some(policy);
        self
    }

    /// Enables adaptive multi-SLO batching for open-loop serving: arrivals
    /// are hashed into the policy's SLO classes, accumulate in
    /// deadline-derived windows, and dispatch as shared fork-join waves.
    /// The batch size and instance memory are chosen jointly against the
    /// performance model at serve time
    /// ([`Deployment::serve_open_loop_batched`]). Validated at
    /// [`Gillis::deploy`].
    pub fn batch(mut self, policy: BatchPolicy) -> Self {
        self.policies.batch = Some(policy);
        self
    }

    /// Enables correlated-outage episodes on top of the chaos injector:
    /// deterministic Markov on/off windows per fault domain (platform,
    /// worker lane, memory tier) that multiply the injected failure rates
    /// by the configured severity while active. Inert without
    /// [`Gillis::chaos`]. Validated at [`Gillis::deploy`].
    pub fn outage(mut self, config: OutageConfig) -> Self {
        self.policies.outage = Some(config);
        self
    }

    /// Enables an adaptive retry budget for serving: a deterministic token
    /// bucket, refilled by successful first attempts, that every retry and
    /// hedge must debit before launching. Validated at [`Gillis::deploy`].
    pub fn retry_budget(mut self, policy: RetryBudgetPolicy) -> Self {
        self.policies.retry_budget = Some(policy);
        self
    }

    /// Enables the brownout degradation ladder for serving: a windowed
    /// first-attempt health score steps service down through full →
    /// no-hedging → int8 wire → local-fallback-only → shed, and back up
    /// only after consecutive clean windows. Validated at
    /// [`Gillis::deploy`].
    pub fn brownout(mut self, policy: BrownoutPolicy) -> Self {
        self.policies.brownout = Some(policy);
        self
    }

    /// Enables pipeline-parallel serving across layer groups: each group
    /// becomes a stage with its own lane pool and a bounded inter-stage
    /// queue ([`Deployment::serve_open_loop_pipelined`]). Under the
    /// latency-optimal mode, the partitioner switches to the
    /// stage-balancing objective
    /// ([`PlanObjective::PipelineBottleneck`]) — minimize the slowest
    /// stage's time rather than the end-to-end sum. Validated at
    /// [`Gillis::deploy`].
    pub fn pipeline(mut self, policy: PipelinePolicy) -> Self {
        self.policies.pipeline = Some(policy);
        self
    }

    /// Enables stage-level checkpointed recovery for serving: stage outputs
    /// are checkpointed at every group boundary, orchestrator crashes
    /// (injected via [`ChaosConfig::orchestrator_crash_rate`]) fail over
    /// and replay from the last checkpoint instead of restarting the query,
    /// failed stages retry from their checkpointed upstream boundary,
    /// straggler stages past `spec_factor` × their predicted p95 race a
    /// speculative duplicate, and retry-budget debits are priced at the
    /// resumed attempt's marginal cost. Validated at [`Gillis::deploy`].
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.policies.recovery = Some(policy);
        self
    }

    /// Runs the full offline workflow: profile the platform, search for a
    /// plan under the chosen objective, and validate it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when no plan fits the memory budget
    /// or meets the SLO, and propagates analysis errors.
    pub fn deploy(self) -> Result<Deployment, CoreError> {
        let perf = PerfModel::profiled(&self.platform, self.profile_seed);
        // Pipeline deployments plan for the pipelined objective: the DP
        // balances stage times instead of minimizing their sum, and the RL
        // trainer scores the pipelined p99 against the SLO.
        let pipelined = self.policies.pipeline.is_some();
        let plan = match self.mode {
            Mode::LatencyOptimal => {
                let mut partitioner = DpPartitioner::new(PartitionerConfig::default());
                if pipelined {
                    partitioner = partitioner.with_objective(PlanObjective::PipelineBottleneck);
                }
                partitioner.partition(&self.model, &perf)?
            }
            Mode::SloAware { t_max_ms } => {
                slo_aware_partition(
                    &self.model,
                    &perf,
                    &SloAwareConfig {
                        t_max_ms,
                        episodes: self.episodes,
                        seed: self.profile_seed,
                        pipeline: pipelined,
                        ..SloAwareConfig::default()
                    },
                )?
                .plan
            }
            Mode::TailAware { quantile, t_max_ms } => {
                slo_aware_partition(
                    &self.model,
                    &perf,
                    &SloAwareConfig {
                        t_max_ms,
                        episodes: self.episodes,
                        seed: self.profile_seed,
                        tail_quantile: Some(quantile),
                        pipeline: pipelined,
                        ..SloAwareConfig::default()
                    },
                )?
                .plan
            }
        };
        let prediction = predict_plan(&self.model, &plan, &perf)?;
        // Validate every policy now, at deploy time, not when serving starts.
        self.policies.validate()?;
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
    /// handles compiles, branching ones included. Chaos-enabled deployments
    /// and mis-shaped inputs take the uncompiled resilient path
    /// ([`gillis_core::execute_plan_tensors`]); outputs are bit-identical
    /// either way.
    ///
    /// # Errors
    ///
    /// Propagates compile, executor and plan-validation errors (e.g. a
    /// weight set that does not fit the model, or an input whose shape does
    /// not match it).
    pub fn infer(&self, weights: &ModelWeights, input: &Tensor) -> Result<Tensor, CoreError> {
        self.infer_with_report(weights, input).map(|(out, _)| out)
    }

    /// [`Deployment::infer`] plus the resilience accounting of the query:
    /// how many worker executions were retried, and how many shards the
    /// master recomputed locally after exhausting their retry budget. The
    /// tensor is bit-identical to the fault-free result either way.
    ///
    /// # Errors
    ///
    /// Propagates executor and plan-validation errors.
    pub fn infer_with_report(
        &self,
        weights: &ModelWeights,
        input: &Tensor,
    ) -> Result<(Tensor, ResilienceCounters), CoreError> {
        if self.policies.chaos.is_none() {
            if let Some(out) = self.warm_infer(weights, input)? {
                let mut counters = ResilienceCounters::default();
                counters.record_status(QueryStatus::Ok);
                return Ok((out, counters));
            }
        }
        let injector = match &self.policies.chaos {
            Some(cfg) => Some(cfg.build()?),
            None => None,
        };
        execute_plan_tensors_resilient(
            &self.model,
            &self.plan,
            weights,
            input,
            injector.as_ref(),
            &self.policies.resilience,
            gillis_pool::gillis_threads(),
        )
    }

    /// The steady-state warm path: compiles the plan on first use (or when
    /// `weights` carries a new stamp), then serves the query from preallocated
    /// state. Returns `Ok(None)` when the input shape is wrong, so that the
    /// uncompiled path reports the proper error. A compile error (say, an
    /// incomplete weight set) is this call's: the slot stays empty and the
    /// next call compiles afresh.
    fn warm_infer(
        &self,
        weights: &ModelWeights,
        input: &Tensor,
    ) -> Result<Option<Tensor>, CoreError> {
        if input.shape() != self.model.input_shape() {
            return Ok(None);
        }
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
            WarmSlot::Ready { exec, .. } => exec.run(weights, input).map(Some),
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

    /// Serves an open-loop Poisson stream (see
    /// [`ForkJoinRuntime::serve_open_loop`]).
    ///
    /// Pools are pre-warmed via `Fleet::prewarm` before the first arrival —
    /// with an [`OverloadPolicy`], to at least the admission concurrency —
    /// so early queries do not pay cold starts that would skew overload
    /// p99s.
    ///
    /// # Errors
    ///
    /// Propagates fleet and deployment errors.
    pub fn serve_open_loop(
        &self,
        rate_per_sec: f64,
        queries: usize,
        prewarm: usize,
        seed: u64,
    ) -> Result<ServingReport, CoreError> {
        self.runtime()?
            .serve_open_loop(rate_per_sec, queries, prewarm, seed)
    }

    /// Serves an open-loop Poisson stream with pipeline parallelism across
    /// layer groups (see [`ForkJoinRuntime::serve_open_loop_pipelined`]):
    /// each group runs as a stage with its own lane pool and bounded
    /// inter-stage queue, so steady-state throughput is bounded by the
    /// slowest stage rather than the end-to-end latency. Requires a
    /// pipeline policy ([`Gillis::pipeline`]). Chaos, overload, retry
    /// budget, and brownout settings compose; batching does not (the
    /// pipelined path serves per-query).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] without a pipeline policy;
    /// propagates fleet and deployment errors.
    pub fn serve_open_loop_pipelined(
        &self,
        rate_per_sec: f64,
        queries: usize,
        prewarm: usize,
        seed: u64,
    ) -> Result<ServingReport, CoreError> {
        let policy = self.policies.pipeline.as_ref().ok_or_else(|| {
            CoreError::InvalidArgument(
                "deployment has no pipeline policy; configure one with Gillis::pipeline"
                    .to_string(),
            )
        })?;
        self.runtime()?
            .serve_open_loop_pipelined(policy, rate_per_sec, queries, prewarm, seed)
    }

    /// Jointly configures batch sizes and instance memory for the expected
    /// arrival rate (see [`gillis_core::plan_batch_schedule`]). Requires a
    /// batch policy ([`Gillis::batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] without a batch policy, for a
    /// non-positive rate, or when no candidate memory is feasible.
    pub fn batch_schedule(&self, rate_per_sec: f64) -> Result<BatchSchedule, CoreError> {
        let policy = self.policies.batch.as_ref().ok_or_else(|| {
            CoreError::InvalidArgument(
                "deployment has no batch policy; configure one with Gillis::batch".to_string(),
            )
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

    /// Serves an open-loop Poisson stream with adaptive multi-SLO batching
    /// (see [`ForkJoinRuntime::serve_open_loop_batched`]): plans the joint
    /// batch × memory schedule for this rate, rebuilds the fleet on the
    /// chosen memory size when it differs from the deployment platform,
    /// and returns the schedule alongside the report. Chaos and overload
    /// settings compose.
    ///
    /// # Errors
    ///
    /// Propagates schedule, fleet, and deployment errors.
    pub fn serve_open_loop_batched(
        &self,
        rate_per_sec: f64,
        queries: usize,
        prewarm: usize,
        seed: u64,
    ) -> Result<(BatchSchedule, ServingReport), CoreError> {
        let policy = self.policies.batch.as_ref().ok_or_else(|| {
            CoreError::InvalidArgument(
                "deployment has no batch policy; configure one with Gillis::batch".to_string(),
            )
        })?;
        let schedule = self.batch_schedule(rate_per_sec)?;
        let rt = self.runtime_on(self.platform.with_memory_bytes(schedule.memory_bytes))?;
        let report =
            rt.serve_open_loop_batched(policy, &schedule, rate_per_sec, queries, prewarm, seed)?;
        Ok((schedule, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .overload(OverloadPolicy::for_slo(3.0 * predicted, concurrency))
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
        let err = Gillis::new(zoo::tiny_vgg())
            .overload(OverloadPolicy {
                max_concurrency: 0,
                ..OverloadPolicy::unprotected(1)
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
            .chaos(chaos)
            .resilience(ResiliencePolicy::backoff_hedged())
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
            .chaos(ChaosConfig {
                invoke_failure_rate: 1.5,
                ..ChaosConfig::default()
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
        let d = Gillis::new(zoo::tiny_vgg())
            .chaos(chaos)
            .resilience(ResiliencePolicy::backoff_hedged())
            .outage(OutageConfig::severe(8.0, 5))
            .retry_budget(RetryBudgetPolicy::default())
            .brownout(BrownoutPolicy::default())
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
        assert!(Gillis::new(zoo::tiny_vgg())
            .outage(OutageConfig {
                severity: 0.5,
                ..OutageConfig::severe(8.0, 5)
            })
            .deploy()
            .is_err());
        assert!(Gillis::new(zoo::tiny_vgg())
            .retry_budget(RetryBudgetPolicy {
                max_tokens: 0.0,
                ..RetryBudgetPolicy::default()
            })
            .deploy()
            .is_err());
        assert!(Gillis::new(zoo::tiny_vgg())
            .brownout(BrownoutPolicy {
                window_lanes: 0,
                ..BrownoutPolicy::default()
            })
            .deploy()
            .is_err());
    }

    #[test]
    fn recovered_deployment_replays_crashes_deterministically() {
        let chaos = ChaosConfig {
            seed: 17,
            invoke_failure_rate: 0.03,
            orchestrator_crash_rate: 0.2,
            ..ChaosConfig::default()
        };
        let d = Gillis::new(zoo::tiny_vgg())
            .chaos(chaos)
            .resilience(ResiliencePolicy::backoff())
            .recovery(RecoveryPolicy::default())
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
        assert!(Gillis::new(zoo::tiny_vgg())
            .recovery(RecoveryPolicy {
                capacity: 0,
                ..RecoveryPolicy::default()
            })
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
        // uncompiled path.
        let weights = init_weights(tiny.graph(), 4).unwrap();
        let uncompiled =
            gillis_core::execute_plan_tensors(&tiny, d.plan(), &weights, &input).unwrap();
        for _ in 0..3 {
            let out = d.infer(&weights, &input).unwrap();
            assert_eq!(out.shape(), uncompiled.shape());
            for (a, b) in out.data().iter().zip(uncompiled.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(format!("{:?}", d.warm).contains("ready"));

        // A different weight set forces a recompile and still matches.
        let weights2 = init_weights(tiny.graph(), 5).unwrap();
        let expect2 =
            gillis_core::execute_plan_tensors(&tiny, d.plan(), &weights2, &input).unwrap();
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
    fn chaos_deployment_never_uses_the_warm_path() {
        use gillis_model::weights::init_weights;

        let tiny = zoo::tiny_vgg();
        let d = Gillis::new(tiny.clone())
            .chaos(ChaosConfig {
                seed: 3,
                crash_rate: 0.05,
                ..ChaosConfig::default()
            })
            .deploy()
            .unwrap();
        let weights = init_weights(tiny.graph(), 6).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |_| 0.25);
        d.infer(&weights, &input).unwrap();
        // Fault-injection sites only exist on the resilient path, so chaos
        // deployments must not compile a warm plan.
        assert!(format!("{:?}", d.warm).contains("empty"));
    }

    #[test]
    fn batched_deployment_forms_batches_and_repicks_memory() {
        let probe = Gillis::new(zoo::tiny_vgg()).deploy().unwrap();
        let predicted = probe.predicted().latency_ms;
        let base_mb = PlatformProfile::aws_lambda().instance_memory_bytes / 1_000_000;
        let mut policy = BatchPolicy::single(f64::INFINITY, 4);
        policy.max_window_ms = 4.0 * predicted;
        policy.memory_mb = vec![base_mb, 2 * base_mb];
        let d = Gillis::new(zoo::tiny_vgg()).batch(policy).deploy().unwrap();
        let rate = 6_000.0 / predicted;
        let (schedule, report) = d.serve_open_loop_batched(rate, 80, 4, 5).unwrap();
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
        // Without a policy the batched entry point is an explicit error.
        let err = probe.serve_open_loop_batched(rate, 10, 1, 5).unwrap_err();
        assert!(err.to_string().contains("batch policy"), "{err}");
    }

    #[test]
    fn pipelined_deployment_streams_stages_and_plans_for_the_bottleneck() {
        use gillis_core::predict_plan_pipelined;
        use gillis_perf::PerfModel;

        let tiny = zoo::tiny_vgg();
        let d = Gillis::new(tiny.clone())
            .pipeline(PipelinePolicy::with_lanes(2))
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
        let report = d.serve_open_loop_pipelined(80.0, 100, 2, 3).unwrap();
        if d.plan().groups().len() > 1 {
            assert!(report.pipeline.stage_dispatches > 0);
            assert!(report.pipeline.handoffs > 0);
            assert_eq!(report.latency.count() as u64, report.overload.admitted);
        } else {
            // Single-group plans delegate to the plain fork-join loop, which
            // only counts admissions under an overload policy.
            assert_eq!(report.latency.count(), 100);
        }
        let again = d.serve_open_loop_pipelined(80.0, 100, 2, 3).unwrap();
        assert_eq!(
            report.latency.mean().to_bits(),
            again.latency.mean().to_bits()
        );
        assert_eq!(report.pipeline, again.pipeline);
        // Without a pipeline policy the entry point is an explicit error.
        let err = plain.serve_open_loop_pipelined(80.0, 10, 1, 3).unwrap_err();
        assert!(err.to_string().contains("pipeline policy"), "{err}");
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
