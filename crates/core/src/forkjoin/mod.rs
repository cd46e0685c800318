//! The fork-join serving runtime (paper §III-B): a master that forks a layer
//! group onto worker functions, waits for the slowest, joins, and continues.
//!
//! One [`ForkJoinRuntime`] prepares a validated plan for a platform; what
//! runs it is split by concern:
//!
//! - `report` — what a run returns: [`QueryOutcome`], [`ServingReport`],
//!   [`SimulationReport`].
//! - `batch` — the joint batch-size × memory configurator
//!   ([`plan_batch_schedule`]) the batched scheduler consumes.
//! - `lane` — the sampling primitives every simulated path shares: noisy
//!   compute, the fork/join transfer model, and one worker-lane execution
//!   with its injected fault.
//! - `session` — one serving run's state (fleet, bill, recorders, breaker
//!   bank, retry budget, checkpoint cache) and the bodies written once on
//!   it: the group body, the local-only brownout rung, the query body, the
//!   stage-boundary checkpoint/crash routine, and admission counting. Also
//!   [`ForkJoinRuntime::run_query_at`], the query body over a caller-owned
//!   fleet.
//! - `eager` — the three schedulers that run each query to completion at
//!   admission, drawing arrivals and executions from one stream in arrival
//!   order: [`ForkJoinRuntime::serve_workload`] (closed loop),
//!   [`ForkJoinRuntime::serve_open_loop`] and
//!   [`ForkJoinRuntime::serve_open_loop_batched`].
//! - `pipelined` — the event-ordered scheduler,
//!   [`ForkJoinRuntime::serve_open_loop_pipelined`]: one completion heap
//!   over per-stage lane pools, every `(query, stage)` on its own stream.
//! - `simulate` — fleet-free Monte-Carlo: [`ForkJoinRuntime::simulate_query`]
//!   and [`ForkJoinRuntime::simulate_many`], the "actual" latency of the
//!   Fig 9–12 reproductions.
//! - `tensors` — [`execute_plan_tensors`] and its variants: the plan run
//!   with *real tensor math*, proving it semantics-preserving.
//!
//! # Failure model
//!
//! Every path shares one fault model: a [`FaultInjector`] samples
//! per-execution faults as a pure function of the execution's identity
//! ([`gillis_faas::chaos::FaultSite`]), and a [`ResiliencePolicy`] decides
//! what the master does about them — retries with exponential backoff,
//! per-attempt timeouts, hedged duplicates, and (on budget exhaustion)
//! graceful degradation: the master recomputes the failed shard locally
//! instead of pretending a final attempt always succeeds. Outcomes are
//! counted honestly in [`gillis_faas::chaos::ResilienceCounters`]. Worker
//! invocations fault everywhere; orchestrators crash only at stage
//! boundaries of the fleet paths, where `session` recovers them.

use gillis_faas::billing::BillingMeter;
use gillis_faas::brownout::BrownoutPolicy;
use gillis_faas::budget::RetryBudgetPolicy;
use gillis_faas::chaos::{
    splitmix64, ChaosConfig, FaultInjector, OutageConfig, OutageModel, ResiliencePolicy,
};
use gillis_faas::fleet::{Fleet, FunctionSpec};
use gillis_faas::knobs::PolicyStack;
use gillis_faas::overload::{CircuitBreaker, OverloadPolicy};
use gillis_faas::recovery::RecoveryPolicy;
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::LinearModel;
use gillis_perf::TransferFormat;

use crate::error::CoreError;
use crate::partition::GroupAnalysis;
use crate::plan::{ExecutionPlan, Placement, PlannedGroup};
use crate::Result;

mod batch;
mod eager;
mod lane;
mod pipelined;
mod report;
mod session;
mod simulate;
mod tensors;

pub use batch::{plan_batch_schedule, BatchSchedule, ClassSchedule};
pub use report::{QueryOutcome, ServingReport, SimulationReport};
pub use tensors::{
    execute_plan_tensors, execute_plan_tensors_resilient, execute_plan_tensors_with_threads,
};

/// Seed of the injector derived from the legacy
/// `PlatformProfile::invocation_failure_rate` knob, so profiles that only
/// set a failure rate keep getting deterministic faults.
const LEGACY_FAILURE_SEED: u64 = 0xFA11_5EED;

/// Overload protection prepared for serving: the policy plus the plan's
/// predicted warm latency, which admission control adds to the predicted
/// queue wait when deciding whether an arrival can still meet its deadline.
#[derive(Debug, Clone)]
struct OverloadRuntime {
    policy: OverloadPolicy,
    predicted_ms: f64,
}

/// The work one dispatch performs per `[group][partition]`: the plan's own
/// analyses, or batched serving's `n`-scaled ones — the same groups,
/// partitions and breaker lanes either way.
#[derive(Debug, Clone)]
struct WorkProfile {
    analyses: Vec<GroupAnalysis>,
    /// Predicted p95 of one attempt per `[group][partition]`: mean compute
    /// at the 95th noise percentile plus the invocation-jitter p95. Timeouts
    /// and hedge delays are multiples of this, so they scale with the
    /// partition instead of being absolute knobs.
    attempt_p95_ms: Vec<Vec<f64>>,
}

impl WorkProfile {
    fn new(platform: &PlatformProfile, analyses: Vec<GroupAnalysis>) -> Self {
        let jitter_p95 = platform.invoke_latency_ms.upper_quantile(0.95);
        let noise_p95 = 1.0 + 1.645 * platform.compute_noise_rel_std;
        let attempt_p95_ms = analyses
            .iter()
            .map(|a| {
                a.partitions
                    .iter()
                    .map(|p| {
                        let mean: f64 = p
                            .flops
                            .iter()
                            .map(|&(class, flops)| platform.compute_ms(flops, class))
                            .sum();
                        mean * noise_p95 + jitter_p95
                    })
                    .collect()
            })
            .collect();
        WorkProfile {
            analyses,
            attempt_p95_ms,
        }
    }

    /// Max-partition attempt p95 of group `gi` — the coarse "one group costs
    /// this" scale used by speculation triggers, resume deadline gates, and
    /// marginal retry pricing.
    fn group_p95_ms(&self, gi: usize) -> f64 {
        self.attempt_p95_ms[gi]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v))
    }

    /// Predicted p95 of the groups from `from` on — the deadline gate a
    /// resume must pass before it is worth paying for.
    fn remaining_p95_ms(&self, from: usize) -> f64 {
        (from..self.attempt_p95_ms.len())
            .map(|gi| self.group_p95_ms(gi))
            .sum()
    }
}

/// Whether partition `pi` of group `g` runs on a worker function; the master
/// (or the group's stage orchestrator) computes the others itself.
fn on_worker(g: &PlannedGroup, pi: usize) -> bool {
    match g.placement {
        Placement::Master => false,
        Placement::Workers => true,
        Placement::MasterAndWorkers => pi > 0,
    }
}

/// Name of the worker function serving partition `pi` of group `gi`.
fn worker_fn(gi: usize, pi: usize) -> String {
    format!("g{gi}p{pi}")
}

/// The plan executor over the simulated platform.
#[derive(Debug, Clone)]
pub struct ForkJoinRuntime<'a> {
    model: &'a LinearModel,
    plan: &'a ExecutionPlan,
    platform: PlatformProfile,
    /// The plan's per-query work and attempt p95s.
    profile: WorkProfile,
    injector: Option<FaultInjector>,
    policy: ResiliencePolicy,
    overload: Option<OverloadRuntime>,
    /// Correlated-outage episodes scaling the injector's failure rates per
    /// fault domain; `None` leaves the per-site sampler untouched.
    outage: Option<OutageModel>,
    /// Retry-budget policy for the fleet serving paths; `None` allows
    /// unbounded retries/hedges (the pre-budget behavior).
    retry_budget: Option<RetryBudgetPolicy>,
    /// Brownout degradation ladder for the serving loops; `None` serves
    /// every arrival at full service.
    brownout: Option<BrownoutPolicy>,
    /// Stage-level checkpointed recovery; `None` disables the checkpoint
    /// cache, resume retries, and speculation — orchestrator crashes (still
    /// sampled by the chaos config) then always restart from stage 0.
    recovery: Option<RecoveryPolicy>,
    /// Weight-identity token keying every checkpoint: a deterministic fold
    /// over the plan's partition shapes and weight bytes, so a redeployed
    /// model or repartitioned plan can never resume from a stale activation.
    weight_token: u64,
    /// Predicted p95 of the whole plan (sum over groups of the slowest
    /// partition's attempt p95) — the denominator that prices a resumed
    /// retry at its stage's share of the plan.
    plan_p95_total_ms: f64,
    /// Wire encoding of fork/join payloads: every sampled transfer maps its
    /// raw f32 activation bytes through this format, mirroring
    /// `PerfModel::wire_bytes` so simulation and prediction price the same
    /// payloads.
    transfer_format: TransferFormat,
}

impl<'a> ForkJoinRuntime<'a> {
    /// Prepares a runtime for a validated plan with the default
    /// [`ResiliencePolicy`]. A nonzero
    /// `PlatformProfile::invocation_failure_rate` is expressed as a
    /// [`ChaosConfig::invoke_only`] injector (fixed seed), so the legacy
    /// knob and explicit chaos configs share one failure model.
    ///
    /// # Errors
    ///
    /// Returns plan-validation errors; the plan must fit the platform's
    /// model memory budget.
    pub fn new(
        model: &'a LinearModel,
        plan: &'a ExecutionPlan,
        platform: PlatformProfile,
    ) -> Result<Self> {
        plan.validate(model, platform.model_memory_budget)?;
        let analyses = plan.analyses(model)?;
        let injector = if platform.invocation_failure_rate > 0.0 {
            let rate = platform.invocation_failure_rate.min(1.0);
            Some(ChaosConfig::invoke_only(rate, LEGACY_FAILURE_SEED).build()?)
        } else {
            None
        };
        let weight_token = weight_identity_token(&analyses);
        let profile = WorkProfile::new(&platform, analyses);
        let plan_p95_total_ms = profile.remaining_p95_ms(0);
        Ok(ForkJoinRuntime {
            model,
            plan,
            platform,
            profile,
            injector,
            policy: ResiliencePolicy::default(),
            overload: None,
            outage: None,
            retry_budget: None,
            brownout: None,
            recovery: None,
            weight_token,
            plan_p95_total_ms,
            transfer_format: TransferFormat::default(),
        })
    }

    /// Sets the wire encoding of fork/join payloads. Pair with a
    /// [`gillis_perf::PerfModel`] carrying the same format so the planner
    /// optimized for the bytes this runtime actually ships.
    pub fn with_transfer_format(mut self, format: TransferFormat) -> Self {
        self.transfer_format = format;
        self
    }

    /// Replaces the fault injector with one built from `config` (overriding
    /// any injector derived from the platform's legacy failure-rate knob).
    ///
    /// # Errors
    ///
    /// Returns the config's validation error.
    pub fn with_chaos(mut self, config: ChaosConfig) -> Result<Self> {
        self.injector = Some(config.build()?);
        Ok(self)
    }

    /// Sets the resilience policy.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables correlated-outage episodes: Markov on/off windows per fault
    /// domain (platform, worker lane, memory tier) that multiply the
    /// injector's invoke-failure and straggler rates by the configured
    /// severity while active. Episode membership is a pure function of
    /// `(outage seed, domain, virtual-time window)`, so serving stays
    /// bit-identical across thread counts. Without a chaos injector the
    /// model is inert — there are no rates to scale.
    ///
    /// # Errors
    ///
    /// Returns the config's validation error.
    pub fn with_outage(mut self, config: OutageConfig) -> Result<Self> {
        self.outage = Some(config.build().map_err(CoreError::from)?);
        Ok(self)
    }

    /// Enables an adaptive retry budget on the fleet serving paths: a
    /// deterministic token bucket, refilled by successful first attempts,
    /// that every retry and hedge must debit before launching. When the
    /// bucket is dry the lane falls through to local fallback instead of
    /// amplifying load into the outage.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_retry_budget(mut self, policy: RetryBudgetPolicy) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        self.retry_budget = Some(policy);
        Ok(self)
    }

    /// Enables the brownout degradation ladder on the serving loops: a
    /// windowed first-attempt health score steps service down through
    /// full → no-hedging → int8 wire → local-fallback-only → shed, and
    /// back up only after consecutive clean windows (hysteresis).
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_brownout(mut self, policy: BrownoutPolicy) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        self.brownout = Some(policy);
        Ok(self)
    }

    /// Enables stage-level checkpointed recovery on the serving paths:
    /// completed layer groups store deterministic boundary checkpoints so
    /// failed groups retry from the last checkpointed boundary, straggler
    /// groups past `spec_factor` × their predicted p95 get a speculative
    /// duplicate (first result wins), orchestrator crashes failover-replay
    /// instead of restarting from stage 0, and retry-budget debits price
    /// resumed attempts at their marginal cost — the stage's share of the
    /// plan rather than a full token.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        self.recovery = Some(policy);
        Ok(self)
    }

    /// Marginal retry-budget cost of re-running one partition whose attempt
    /// p95 is `p95_ms`: with stage-level recovery a retry or hedge redoes
    /// only its own stage, so it debits the stage's share of the plan;
    /// without recovery every retry implicitly restarts the query and costs
    /// a full token — the pre-recovery behavior, unchanged.
    fn retry_unit_cost(&self, p95_ms: f64) -> f64 {
        if self.recovery.is_some() {
            gillis_perf::marginal_retry_cost(p95_ms, self.plan_p95_total_ms)
        } else {
            1.0
        }
    }

    /// Enables overload protection: a bounded admission queue with
    /// deadline-derived shedding in [`Self::serve_open_loop`], deadline
    /// propagation with cooperative cancellation into every fork-join
    /// group, and per-worker-lane circuit breakers. The plan's predicted
    /// warm latency (analytic performance model) feeds the
    /// shed-on-predicted-miss decision; use
    /// [`Self::with_overload_predicted`] to supply a prediction from a
    /// profiled model instead.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error, or prediction errors.
    pub fn with_overload(self, policy: OverloadPolicy) -> Result<Self> {
        let perf = gillis_perf::PerfModel::analytic(&self.platform);
        let predicted_ms = crate::predict::predict_plan(self.model, self.plan, &perf)?.latency_ms;
        self.with_overload_predicted(policy, predicted_ms)
    }

    /// [`Self::with_overload`] with an explicit predicted warm latency for
    /// the plan (e.g. `PlanPrediction::latency_ms` from a profiled
    /// performance model).
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error, or
    /// [`CoreError::InvalidArgument`] for a non-positive prediction.
    pub fn with_overload_predicted(
        mut self,
        policy: OverloadPolicy,
        predicted_ms: f64,
    ) -> Result<Self> {
        policy.validate().map_err(CoreError::from)?;
        // NaN-rejecting: the prediction must be definitely positive.
        if predicted_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !predicted_ms.is_finite()
        {
            return Err(CoreError::InvalidArgument(format!(
                "predicted latency must be positive and finite: {predicted_ms}"
            )));
        }
        self.overload = Some(OverloadRuntime {
            policy,
            predicted_ms,
        });
        Ok(self)
    }

    /// Attaches every policy of `stack` the runtime holds — resilience,
    /// overload, outage, retry budget, brownout, recovery and chaos; the
    /// batch and pipeline policies are arguments of their own serve calls.
    /// `predicted_ms` is the plan's warm latency for shed-on-predicted-miss
    /// ([`Self::with_overload_predicted`]); `None` predicts it with the
    /// analytic performance model ([`Self::with_overload`]).
    ///
    /// # Errors
    ///
    /// Returns the first policy's validation error, or prediction errors.
    pub fn with_policies(mut self, stack: &PolicyStack, predicted_ms: Option<f64>) -> Result<Self> {
        self = self.with_policy(stack.resilience);
        if let Some(policy) = stack.overload {
            self = match predicted_ms {
                Some(ms) => self.with_overload_predicted(policy, ms)?,
                None => self.with_overload(policy)?,
            };
        }
        if let Some(config) = stack.outage {
            self = self.with_outage(config)?;
        }
        if let Some(policy) = stack.retry_budget {
            self = self.with_retry_budget(policy)?;
        }
        if let Some(policy) = stack.brownout {
            self = self.with_brownout(policy)?;
        }
        if let Some(policy) = stack.recovery {
            self = self.with_recovery(policy)?;
        }
        match stack.chaos {
            Some(config) => self.with_chaos(config),
            None => Ok(self),
        }
    }

    /// Fresh per-lane circuit breakers shaped like the plan (one per
    /// partition slot, including master slots for stable indexing), or
    /// `None` when no overload policy enables lane breaking.
    fn breaker_bank(&self) -> Option<Vec<Vec<CircuitBreaker>>> {
        let policy = self.overload.as_ref()?.policy.breaker;
        let lanes = |a: &GroupAnalysis| vec![CircuitBreaker::new(policy); a.partitions.len()];
        policy
            .enabled()
            .then(|| self.profile.analyses.iter().map(lanes).collect())
    }

    /// Worker invocations the plan makes from group `from` on — what a query
    /// that dies before reaching `from` leaves undone.
    fn workers_from(&self, from: usize) -> u64 {
        self.plan.groups()[from..]
            .iter()
            .map(|g| g.worker_count() as u64)
            .sum()
    }

    /// Every `(group, partition)` slot that runs as its own worker function,
    /// in plan order.
    fn worker_slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.plan.groups().iter().enumerate().flat_map(|(gi, g)| {
            (0..g.option.parts())
                .filter(move |&pi| on_worker(g, pi))
                .map(move |pi| (gi, pi))
        })
    }

    /// Deploys the plan's functions into a fleet: one master (holding the
    /// partitions it computes) and one function per worker partition.
    ///
    /// # Errors
    ///
    /// Propagates deployment errors (e.g. out-of-memory specs).
    pub fn deploy(&self, fleet: &mut Fleet) -> Result<()> {
        let master_pkg = self.plan.master_weight_bytes(self.model)?;
        fleet.deploy(FunctionSpec {
            name: "master".into(),
            memory_bytes: self.platform.instance_memory_bytes,
            package_bytes: master_pkg,
        })?;
        for (gi, pi) in self.worker_slots() {
            fleet.deploy(FunctionSpec {
                name: worker_fn(gi, pi),
                memory_bytes: self.platform.instance_memory_bytes,
                package_bytes: self.profile.analyses[gi].partitions[pi].weight_bytes,
            })?;
        }
        Ok(())
    }

    /// Pre-warms `count` instances of the master and of every worker
    /// function (Gillis's concurrent warm-up pings, §III-A).
    ///
    /// # Errors
    ///
    /// Propagates fleet errors.
    pub fn prewarm(&self, fleet: &mut Fleet, count: usize) -> Result<()> {
        fleet.prewarm("master", count, Micros::ZERO)?;
        for (gi, pi) in self.worker_slots() {
            fleet.prewarm(&worker_fn(gi, pi), count, Micros::ZERO)?;
        }
        Ok(())
    }

    /// Cold starts the master and the worker functions paid so far.
    fn count_cold_starts(&self, fleet: &Fleet) -> Result<u64> {
        let (mut cold_starts, _, _) = fleet.stats("master")?;
        for (gi, pi) in self.worker_slots() {
            let (c, _, _) = fleet.stats(&worker_fn(gi, pi))?;
            cold_starts += c;
        }
        Ok(cold_starts)
    }

    /// A fresh fleet with the plan deployed and `count` instances of every
    /// function warm — where each serving run starts.
    fn warm_fleet(&self, count: usize) -> Result<Fleet> {
        let mut fleet = Fleet::new(self.platform.clone());
        self.deploy(&mut fleet)?;
        self.prewarm(&mut fleet, count)?;
        Ok(fleet)
    }

    /// An empty meter with the platform's billing constants.
    fn billing_meter(&self) -> BillingMeter {
        BillingMeter::new(
            self.platform.billing_granularity_ms,
            self.platform.price_per_gb_s,
            self.platform.price_per_invocation,
        )
    }
}

/// Weight-identity token for checkpoint keying: a splitmix64 fold over the
/// plan's partition shapes and weight bytes. Two runtimes can resume from
/// each other's checkpoints only when their deployed weights and
/// partitioning agree exactly.
fn weight_identity_token(analyses: &[GroupAnalysis]) -> u64 {
    let mut h = 0x6769_6c6c_6973_2d77; // "gillis-w"
    for (gi, a) in analyses.iter().enumerate() {
        h = replication_seed(h, gi as u64);
        for p in &a.partitions {
            h = replication_seed(h, p.weight_bytes);
            h = replication_seed(h, p.input_bytes);
            h = replication_seed(h, p.output_bytes);
        }
    }
    h
}

/// Derives the RNG seed for Monte-Carlo replication `index` of a run keyed
/// by `seed` (splitmix64 finalizer). Replications get decorrelated streams
/// that depend only on `(seed, index)` — never on which thread runs them —
/// so parallel simulation and training stay bit-identical at any pool width.
#[must_use]
pub fn replication_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed.wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9)))
}

/// Fixtures shared by the tests of more than one module.
#[cfg(test)]
mod fixtures {
    use gillis_faas::chaos::ChaosConfig;
    use gillis_faas::PlatformProfile;
    use gillis_model::{zoo, LinearModel};
    use gillis_perf::PerfModel;

    use super::ForkJoinRuntime;
    use crate::dp::DpPartitioner;
    use crate::partition::{PartDim, PartitionOption};
    use crate::plan::{ExecutionPlan, Placement, PlannedGroup};
    use crate::predict::predict_plan;

    /// Hand-built aggressive plan for `tiny_vgg`: convs split 4-way
    /// spatially, channel-splittable layers 2-way — guaranteeing worker
    /// partitions (the DP planner keeps a model this small unsplit).
    pub fn forced_split_plan(tiny: &LinearModel) -> ExecutionPlan {
        let mut groups = Vec::new();
        for i in 0..tiny.layers().len() {
            let layer = &tiny.layers()[i];
            let option = if layer.class.supports_spatial() && layer.out_shape.dims()[1] >= 4 {
                PartitionOption::Split {
                    dim: PartDim::Height,
                    parts: 4,
                }
            } else if layer.class.channel_splittable() && layer.out_shape.dims()[0] >= 2 {
                PartitionOption::Split {
                    dim: PartDim::Channel,
                    parts: 2,
                }
            } else {
                PartitionOption::Single
            };
            groups.push(PlannedGroup {
                start: i,
                end: i + 1,
                option,
                placement: if option == PartitionOption::Single {
                    Placement::Master
                } else {
                    Placement::Workers
                },
            });
        }
        ExecutionPlan::new(groups)
    }

    /// A chaos config exercising every fault kind at once.
    pub fn stress_chaos(seed: u64) -> ChaosConfig {
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

    /// VGG-11 model, plan, analytic batch-1 prediction, and the Lambda
    /// platform — the shared fixture for the batch tests.
    pub fn batch_fixture() -> (
        &'static LinearModel,
        &'static ExecutionPlan,
        PlatformProfile,
        crate::predict::PlanPrediction,
    ) {
        use std::sync::OnceLock;
        static MODEL: OnceLock<LinearModel> = OnceLock::new();
        static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = MODEL.get_or_init(zoo::vgg11);
        let plan = PLAN.get_or_init(|| DpPartitioner::default().partition(vgg, &perf).unwrap());
        let prediction = predict_plan(vgg, plan, &perf).unwrap();
        (vgg, plan, platform, prediction)
    }

    /// Chaos that only crashes orchestrators: worker lanes stay perfectly
    /// healthy, so any behavioral difference is the recovery machinery's.
    pub fn orchestrator_chaos(rate: f64, seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            orchestrator_crash_rate: rate,
            ..ChaosConfig::default()
        }
    }

    /// Shared fixture for the recovery tests: a multi-group tiny-VGG plan
    /// (stage boundaries are where checkpoints live) and its predicted
    /// latency.
    pub fn recovery_fixture() -> (ForkJoinRuntime<'static>, f64) {
        use std::sync::OnceLock;
        static MODEL: OnceLock<LinearModel> = OnceLock::new();
        static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let tiny = MODEL.get_or_init(zoo::tiny_vgg);
        let plan = PLAN.get_or_init(|| forced_split_plan(tiny));
        let predicted = predict_plan(tiny, plan, &perf).unwrap().latency_ms;
        assert!(plan.groups().len() >= 2, "fixture needs stage boundaries");
        (
            ForkJoinRuntime::new(tiny, plan, platform).unwrap(),
            predicted,
        )
    }
}
