//! The fork-join serving runtime (paper §III-B): a master that forks a layer
//! group onto worker functions, waits for the slowest, joins, and continues.
//!
//! One [`ForkJoinRuntime`] prepares a validated plan for a platform and
//! holds one [`PolicyStack`], next to the only state derived from it: the
//! built fault injector, the built outage model and the overload
//! prediction. Every `with_*` builder sets one family of that stack, and
//! [`ForkJoinRuntime::with_policies`] replaces it whole, so a run is a
//! function of `(plan, platform, seed, stack)`. What runs the plan is split
//! by concern:
//!
//! - `report` — what a run returns: [`QueryOutcome`], [`ServingReport`],
//!   [`SimulationReport`].
//! - `batch` — the joint batch-size × memory configurator
//!   ([`plan_batch_schedule`]) batched serving consumes.
//! - `lane` — the sampling primitives: noisy compute and the fork/join
//!   transfer model.
//! - `session` — one run's state (fleet, bill, recorders, breakers, retry
//!   budget, ladder, checkpoints) and the bodies written once on it: the
//!   worker attempt loop, the group body, the local-only rung, the query
//!   body and the stage-boundary checkpoint/crash routine; also
//!   [`ForkJoinRuntime::run_query_at`] over a caller-owned fleet.
//! - `scheduler` — the one event loop: arrival sources in front of one
//!   `(time, stage, query)` completion heap, every execution on its own
//!   stream. `eager` ([`ForkJoinRuntime::serve_workload`],
//!   [`ForkJoinRuntime::serve_open_loop`],
//!   [`ForkJoinRuntime::serve_open_loop_batched`]) and `pipelined`
//!   ([`ForkJoinRuntime::serve_open_loop_pipelined`]) are its two fronts.
//! - `simulate` — fleet-free Monte-Carlo ([`ForkJoinRuntime::simulate_many`],
//!   the "actual" latency of Figs 9–12): the group body on a session with no
//!   fleet.
//!
//! The plan run with *real tensor math* is not here: it is
//! [`crate::compiled_exec`].
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
use gillis_faas::overload::OverloadPolicy;
use gillis_faas::recovery::RecoveryPolicy;
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::LinearModel;

use crate::error::CoreError;
use crate::partition::{GroupAnalysis, PartitionWork};
use crate::plan::{ExecutionPlan, Placement, PlannedGroup};
use crate::Result;

mod batch;
mod eager;
mod lane;
mod pipelined;
mod report;
mod scheduler;
mod session;
mod simulate;

pub use batch::{plan_batch_schedule, BatchSchedule, ClassSchedule};
pub use report::{QueryOutcome, ServingReport, SimulationReport};

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
        let p95 = |p: &PartitionWork| {
            let compute = p
                .flops
                .iter()
                .map(|&(class, flops)| platform.compute_ms(flops, class));
            compute.sum::<f64>() * noise_p95 + jitter_p95
        };
        let attempt_p95_ms = analyses
            .iter()
            .map(|a| a.partitions.iter().map(p95).collect())
            .collect();
        WorkProfile {
            analyses,
            attempt_p95_ms,
        }
    }

    /// Predicted p95 of the groups from `from` on, each costing its slowest
    /// partition's attempt p95 — the deadline gate a failover must pass
    /// before it is worth paying for, and from 0 the plan total that prices
    /// a retry at its stage's share.
    fn remaining_p95_ms(&self, from: usize) -> f64 {
        self.attempt_p95_ms[from..]
            .iter()
            .map(|g| g.iter().fold(0.0f64, |m, &v| m.max(v)))
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

/// Name of the fork-join master function.
const MASTER_FN: &str = "master";

/// The plan executor over the simulated platform. A serving run is a pure
/// function of the plan, the platform, the seed and the held
/// [`PolicyStack`].
#[derive(Debug, Clone)]
pub struct ForkJoinRuntime<'a> {
    model: &'a LinearModel,
    plan: &'a ExecutionPlan,
    platform: PlatformProfile,
    /// The plan's per-query work and attempt p95s.
    profile: WorkProfile,
    /// Every policy in force. The batch and pipeline families ride along
    /// unread: their serve calls take their policy as an argument.
    policies: PolicyStack,
    /// Built from `policies.chaos`.
    injector: Option<FaultInjector>,
    /// Built from `policies.outage`: correlated-outage episodes scaling the
    /// injector's failure rates per fault domain.
    outage: Option<OutageModel>,
    /// The plan's predicted warm latency, which shed-on-predicted-miss adds
    /// to an arrival's start; positive whenever `policies.overload` is set.
    predicted_ms: f64,
    /// Weight-identity token keying every checkpoint: a deterministic fold
    /// over the plan's partition shapes and weight bytes, so a redeployed
    /// model or repartitioned plan can never resume from a stale activation.
    weight_token: u64,
    /// Predicted p95 of the whole plan (sum over groups of the slowest
    /// partition's attempt p95) — the denominator that prices a retry at
    /// its stage's share of the plan.
    plan_p95_total_ms: f64,
    /// Function names, built once: `g{gi}p{pi}` serves partition `pi` of
    /// group `gi` (`[group][partition]`), `s{gi}` orchestrates pipeline
    /// stage `gi`.
    worker_fns: Vec<Vec<String>>,
    stage_fns: Vec<String>,
}

impl<'a> ForkJoinRuntime<'a> {
    /// Prepares a runtime for a validated plan with the default
    /// [`PolicyStack`]: no faults, the default [`ResiliencePolicy`].
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
        let weight_token = weight_identity_token(&analyses);
        let parts = |(gi, a): (usize, &GroupAnalysis)| {
            let names = (0..a.partitions.len()).map(|pi| format!("g{gi}p{pi}"));
            names.collect()
        };
        let worker_fns = analyses.iter().enumerate().map(parts).collect();
        let stage_fns = (0..analyses.len()).map(|gi| format!("s{gi}")).collect();
        let profile = WorkProfile::new(&platform, analyses);
        let plan_p95_total_ms = profile.remaining_p95_ms(0);
        Ok(ForkJoinRuntime {
            model,
            plan,
            platform,
            profile,
            policies: PolicyStack::default(),
            injector: None,
            outage: None,
            predicted_ms: 0.0,
            weight_token,
            plan_p95_total_ms,
            worker_fns,
            stage_fns,
        })
    }

    /// The one path a policy change takes: `edit` the held stack (and the
    /// overload prediction), validate it, and rebuild the injector and the
    /// outage model from it.
    fn set(mut self, edit: impl FnOnce(&mut Self)) -> Result<Self> {
        edit(&mut self);
        self.policies.validate()?;
        let predicted_ok = self.predicted_ms.is_finite() && self.predicted_ms > 0.0;
        if self.policies.overload.is_some() && !predicted_ok {
            return Err(CoreError::InvalidArgument(format!(
                "predicted latency must be positive and finite: {}",
                self.predicted_ms
            )));
        }
        self.injector = self.policies.chaos.map(ChaosConfig::build).transpose()?;
        self.outage = self.policies.outage.map(OutageConfig::build).transpose()?;
        Ok(self)
    }

    /// Sets the chaos family: the per-execution faults every path samples.
    ///
    /// # Errors
    ///
    /// Returns the config's validation error.
    pub fn with_chaos(self, config: ChaosConfig) -> Result<Self> {
        self.set(|rt| rt.policies.chaos = Some(config))
    }

    /// Sets the resilience policy: retries, backoff, timeouts, hedging and
    /// local fallback.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policies.resilience = policy;
        self
    }

    /// Sets the outage family: correlated episodes per fault domain that
    /// multiply the chaos rates while active (inert without chaos).
    ///
    /// # Errors
    ///
    /// Returns the config's validation error.
    pub fn with_outage(self, config: OutageConfig) -> Result<Self> {
        self.set(|rt| rt.policies.outage = Some(config))
    }

    /// Sets the retry-budget family: a token bucket, refilled by successful
    /// first attempts, that every retry and hedge must debit; a dry bucket
    /// falls through to local fallback instead of amplifying load.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_retry_budget(self, policy: RetryBudgetPolicy) -> Result<Self> {
        self.set(|rt| rt.policies.retry_budget = Some(policy))
    }

    /// Sets the brownout family: a health-scored ladder from full service
    /// through no-hedging, int8 wire and local-only down to shedding.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_brownout(self, policy: BrownoutPolicy) -> Result<Self> {
        self.set(|rt| rt.policies.brownout = Some(policy))
    }

    /// Sets the recovery family: stage-boundary checkpoints that crashed
    /// orchestrators replay from, and retries priced at their stage's share
    /// of the plan.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error.
    pub fn with_recovery(self, policy: RecoveryPolicy) -> Result<Self> {
        self.set(|rt| rt.policies.recovery = Some(policy))
    }

    /// The plan's warm latency under the analytic performance model.
    fn analytic_prediction_ms(&self) -> Result<f64> {
        let perf = gillis_perf::PerfModel::analytic(&self.platform);
        Ok(crate::predict::predict_plan(self.model, self.plan, &perf)?.latency_ms)
    }

    /// Sets the overload family: bounded admission with deadline shedding,
    /// deadlines propagated into every group, and per-lane circuit
    /// breakers. Shed-on-predicted-miss uses the analytic prediction; see
    /// [`Self::with_overload_predicted`] for a profiled one.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error, or prediction errors.
    pub fn with_overload(self, policy: OverloadPolicy) -> Result<Self> {
        let predicted_ms = self.analytic_prediction_ms()?;
        self.with_overload_predicted(policy, predicted_ms)
    }

    /// [`Self::with_overload`] with an explicit predicted warm latency.
    ///
    /// # Errors
    ///
    /// Returns the policy's validation error, or
    /// [`CoreError::InvalidArgument`] for a non-positive prediction.
    pub fn with_overload_predicted(
        self,
        policy: OverloadPolicy,
        predicted_ms: f64,
    ) -> Result<Self> {
        self.set(|rt| {
            rt.policies.overload = Some(policy);
            rt.predicted_ms = predicted_ms;
        })
    }

    /// Holds `stack` in place of every policy set so far. `predicted_ms`
    /// is as in [`Self::with_overload_predicted`]; `None` predicts
    /// analytically when `stack` has an overload policy.
    ///
    /// # Errors
    ///
    /// Returns the first family's validation error, or prediction errors.
    pub fn with_policies(self, stack: &PolicyStack, predicted_ms: Option<f64>) -> Result<Self> {
        let predicted_ms = match predicted_ms {
            Some(ms) => ms,
            None if stack.overload.is_some() => self.analytic_prediction_ms()?,
            None => 0.0,
        };
        self.set(|rt| {
            rt.policies = stack.clone();
            rt.predicted_ms = predicted_ms;
        })
    }

    /// The overload policy's deadline for an arrival at `now`.
    fn deadline_at(&self, now: Micros) -> Option<Micros> {
        self.policies.overload?.deadline_at(now)
    }

    /// Whether shed-on-predicted-miss turns away a query that would start
    /// at `start`: its predicted service already ends past `deadline`.
    fn sheds_predicted(&self, start: Micros, deadline: Option<Micros>) -> bool {
        let predicted_end = start + Micros::from_ms(self.predicted_ms);
        let shed = self
            .policies
            .overload
            .is_some_and(|ov| ov.shed_on_predicted_miss);
        shed && deadline.is_some_and(|d| predicted_end > d)
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
            name: MASTER_FN.into(),
            memory_bytes: self.platform.instance_memory_bytes,
            package_bytes: master_pkg,
        })?;
        for (gi, pi) in self.worker_slots() {
            fleet.deploy(FunctionSpec {
                name: self.worker_fns[gi][pi].clone(),
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
        fleet.prewarm(MASTER_FN, count, Micros::ZERO)?;
        for (gi, pi) in self.worker_slots() {
            fleet.prewarm(&self.worker_fns[gi][pi], count, Micros::ZERO)?;
        }
        Ok(())
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
pub(crate) mod fixtures {
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

#[cfg(test)]
mod tests {
    use gillis_faas::brownout::BrownoutPolicy;
    use gillis_faas::budget::RetryBudgetPolicy;
    use gillis_faas::chaos::{OutageConfig, ResiliencePolicy};
    use gillis_faas::knobs::PolicyStack;
    use gillis_faas::overload::OverloadPolicy;
    use gillis_faas::pipeline::PipelinePolicy;
    use gillis_faas::recovery::RecoveryPolicy;

    use super::fixtures::{recovery_fixture, stress_chaos};
    use super::{ForkJoinRuntime, ServingReport};
    use crate::Result;

    /// Every field of a report, the bill's bits included.
    fn bits(report: &ServingReport) -> (String, u64) {
        (format!("{report:?}"), report.billing.usd_total().to_bits())
    }

    /// The open-loop and pipelined reports of `rt` at twice saturation.
    fn serve(rt: &ForkJoinRuntime<'_>, predicted: f64, seed: u64) -> [(String, u64); 2] {
        let rate = 2.0 * 1000.0 * 2.0 / predicted;
        let open = rt.serve_open_loop(rate, 40, 2, seed).unwrap();
        let piped = rt
            .serve_open_loop_pipelined(&PipelinePolicy::with_lanes(2), rate, 40, 2, seed)
            .unwrap();
        [bits(&open), bits(&piped)]
    }

    /// The stack whose family `i` is on from its preset exactly when bit
    /// `i` of `on` is set.
    fn stack(on: u8, seed: u64, predicted: f64) -> PolicyStack {
        let bit = |i: u8| on & (1 << i) != 0;
        PolicyStack {
            chaos: bit(0).then(|| stress_chaos(seed)),
            resilience: if bit(1) {
                ResiliencePolicy::backoff_hedged()
            } else {
                ResiliencePolicy::default()
            },
            overload: bit(2).then(|| OverloadPolicy::for_slo(3.0 * predicted, 2)),
            outage: bit(3).then(|| OutageConfig::severe(3.0, seed ^ 1)),
            retry_budget: bit(4).then(RetryBudgetPolicy::default),
            brownout: bit(5).then(BrownoutPolicy::default),
            recovery: bit(6).then(RecoveryPolicy::default),
            ..PolicyStack::default()
        }
    }

    /// `stack` attached one family at a time through the `with_*` builders.
    fn chained<'a>(rt: ForkJoinRuntime<'a>, stack: &PolicyStack) -> Result<ForkJoinRuntime<'a>> {
        let mut rt = rt.with_policy(stack.resilience);
        if let Some(config) = stack.chaos {
            rt = rt.with_chaos(config)?;
        }
        if let Some(policy) = stack.overload {
            rt = rt.with_overload(policy)?;
        }
        if let Some(config) = stack.outage {
            rt = rt.with_outage(config)?;
        }
        if let Some(policy) = stack.retry_budget {
            rt = rt.with_retry_budget(policy)?;
        }
        if let Some(policy) = stack.brownout {
            rt = rt.with_brownout(policy)?;
        }
        match stack.recovery {
            Some(policy) => rt.with_recovery(policy),
            None => Ok(rt),
        }
    }

    #[test]
    fn with_policies_replaces_the_held_stack() {
        // Every family set through the builders, then an empty stack: what
        // serves is the empty stack alone, bit for bit a fresh runtime.
        let (fresh, predicted) = recovery_fixture();
        let everything = chained(fresh.clone(), &stack(u8::MAX, 5, predicted)).unwrap();
        let replaced = everything
            .with_policies(&PolicyStack::default(), None)
            .unwrap();
        assert_eq!(serve(&replaced, predicted, 3), serve(&fresh, predicted, 3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Building a stack through the `with_*` chain and handing it over
        /// whole serve the same reports, billing bits included.
        #[test]
        fn builders_and_with_policies_serve_alike(
            (on, seed) in (0u8..128, 0u64..1000),
        ) {
            let (rt, predicted) = recovery_fixture();
            let stack = stack(on, seed, predicted);
            let built = chained(rt.clone(), &stack).unwrap();
            let held = rt.with_policies(&stack, None).unwrap();
            proptest::prop_assert_eq!(serve(&built, predicted, seed), serve(&held, predicted, seed));
        }
    }
}
