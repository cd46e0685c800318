//! One serving run's state, and the bodies every scheduler runs on it.
//!
//! A [`Session`] holds what used to be threaded by hand through every
//! driver: the fleet, the bill, the recorders, the breaker bank, the retry
//! budget and the brownout controller. The group body,
//! the local-only rung, the query body, the stage-boundary routine and the
//! admission counters are methods on it that take only what varies per call
//! — group, start time, RNG stream and the query's [`QueryCtx`]. The
//! scheduler decides *when* a query runs and on which stream; nothing here
//! does. A session with no fleet is the fleet-free Monte-Carlo path: every
//! acquisition is ready at once and each lane's billed milliseconds are kept
//! per lane, so simulation and serving run one attempt loop.

use rand::rngs::StdRng;
use rand::RngExt;

use gillis_faas::batch::BatchCounters;
use gillis_faas::billing::BillingMeter;
use gillis_faas::brownout::{ArrivalDecision, BrownoutController, BrownoutLevel};
use gillis_faas::budget::RetryBudget;
use gillis_faas::chaos::{Fault, FaultSite, QueryStatus, ResilienceCounters, HEDGE_DELAY_FACTOR};
use gillis_faas::fleet::Fleet;
use gillis_faas::metrics::{LatencyStats, StatusLatency};
use gillis_faas::overload::{CircuitBreaker, OverloadCounters};
use gillis_faas::pipeline::PipelineCounters;
use gillis_faas::recovery::{RecoveryCounters, FAILOVER_MS};
use gillis_faas::Micros;
use gillis_perf::TransferFormat;

use super::{on_worker, ForkJoinRuntime, ServingReport, WorkProfile, MASTER_FN};
use crate::partition::{GroupAnalysis, PartitionWork};
use crate::plan::Placement;
use crate::Result;

/// Hard cap on orchestrator crashes handled per query. The crash
/// probability is capped well below 1
/// ([`gillis_faas::chaos::FaultInjector::orchestrator_crash`] caps at 0.75)
/// so endless re-fire is astronomically unlikely; the bound makes worst-case
/// behavior finite by construction.
const MAX_ORCH_INCARNATIONS: u32 = 16;

/// What one query carries into every group it runs.
#[derive(Debug, Clone, Copy)]
pub(super) struct QueryCtx<'p> {
    /// The work each group performs: the runtime's own profile, or batched
    /// serving's `n`-scaled one.
    pub profile: &'p WorkProfile,
    /// Keys fault sampling and crash sampling.
    pub id: u64,
    /// Absolute cancellation point: per-attempt timeouts shrink to the
    /// remaining budget, attempts that would launch past it are cancelled
    /// (counted, not performed), and once it expires the orchestrator
    /// abandons remaining work instead of completing it.
    pub deadline: Option<Micros>,
    /// The brownout rung the query was admitted at.
    pub level: BrownoutLevel,
}

/// Outcome of executing one layer group.
#[derive(Debug, Clone, Copy)]
pub(super) struct GroupRun {
    /// When the fork reached the workers (the group's start when it has
    /// none).
    pub forked: Micros,
    /// When the last shard was computed, before the join.
    pub computed: Micros,
    /// When the orchestrating function finished the group (join included;
    /// for terminal outcomes, when it stopped waiting).
    pub end: Micros,
    /// `Ok`, `Degraded` (locally recomputed shards), `Failed` (shards
    /// exhausted without fallback), or `DeadlineExceeded` (the deadline
    /// expired inside the group). The last two are terminal: the caller
    /// abandons the rest of the plan.
    pub status: QueryStatus,
}

/// One lane execution launched on the fleet.
struct Launch {
    /// The lane produced a usable result.
    success: bool,
    /// Payload receipt: instance ready and invocation jitter paid.
    start: Micros,
    /// When the master observed the lane resolve (or abandoned it).
    end: Micros,
    /// When the function stopped running — never capped by an abandon.
    busy_end: Micros,
}

/// How one worker lane of a group ended.
struct LaneRun {
    /// Arrival of the accepted result; `None` when every attempt failed,
    /// was denied by the retry budget, or was cancelled.
    resolved: Option<Micros>,
    /// When the master stopped waiting on the lane.
    observed_end: Micros,
    /// An attempt would have launched at or past the deadline.
    cancelled: bool,
}

/// The mutable state of one serving run. The fleet, the bill and the
/// resilience counters are borrowed because [`ForkJoinRuntime::run_query_at`]
/// runs the query body over a caller-owned fleet; a serving scheduler owns
/// them for the length of its run and borrows them here.
pub(super) struct Session<'s, 'a> {
    pub rt: &'s ForkJoinRuntime<'a>,
    /// `None` runs fleet-free: every acquisition is ready at once, and lanes
    /// keep their billed milliseconds in `lane_ms` (where it is `Some`)
    /// instead of the bill.
    fleet: Option<&'s mut Fleet>,
    pub lane_ms: Option<Vec<f64>>,
    pub billing: &'s mut BillingMeter,
    pub resilience: &'s mut ResilienceCounters,
    pub overload: OverloadCounters,
    recovery: RecoveryCounters,
    latency: LatencyStats,
    by_status: StatusLatency,
    /// Per-lane circuit breakers, `[group][partition]`.
    breakers: Option<Vec<Vec<CircuitBreaker>>>,
    budget: Option<RetryBudget>,
    pub brownout: Option<BrownoutController>,
}

impl<'s, 'a> Session<'s, 'a> {
    /// A session with no admission-side controller at all — no breakers,
    /// budget or ladder, whatever the runtime's policies.
    pub fn bare(
        rt: &'s ForkJoinRuntime<'a>,
        fleet: Option<&'s mut Fleet>,
        billing: &'s mut BillingMeter,
        resilience: &'s mut ResilienceCounters,
    ) -> Self {
        Session {
            rt,
            fleet,
            lane_ms: None,
            billing,
            resilience,
            overload: OverloadCounters::default(),
            recovery: RecoveryCounters::default(),
            latency: LatencyStats::new(),
            by_status: StatusLatency::new(),
            breakers: None,
            budget: None,
            brownout: None,
        }
    }

    /// The session of one serving run: every controller the runtime's
    /// policies call for, fresh.
    pub fn for_run(
        rt: &'s ForkJoinRuntime<'a>,
        fleet: &'s mut Fleet,
        billing: &'s mut BillingMeter,
        resilience: &'s mut ResilienceCounters,
    ) -> Self {
        // Per-lane breakers shaped like the plan, master slots included for
        // stable indexing, when the overload policy enables lane breaking.
        let breaker = rt.policies.overload.map(|ov| ov.breaker);
        let lanes = |a: &GroupAnalysis, b| vec![CircuitBreaker::new(b); a.partitions.len()];
        let bank = |b| rt.profile.analyses.iter().map(|a| lanes(a, b)).collect();
        Session {
            breakers: breaker.filter(|b| b.enabled()).map(bank),
            budget: rt.policies.retry_budget.map(RetryBudget::new),
            brownout: rt.policies.brownout.map(BrownoutController::new),
            ..Session::bare(rt, Some(fleet), billing, resilience)
        }
    }

    /// Brownout front door for one arrival: records a shed and returns
    /// `None` when the ladder rejects it, otherwise the service level to
    /// dispatch at.
    pub fn front_door(&mut self) -> Option<BrownoutLevel> {
        match self
            .brownout
            .as_mut()
            .map(BrownoutController::classify_arrival)
        {
            Some(ArrivalDecision::Shed) => {
                self.resilience.record_status(QueryStatus::Shed);
                None
            }
            Some(ArrivalDecision::Serve(l)) => Some(l),
            None => Some(BrownoutLevel::Full),
        }
    }

    /// Sheds an arrival because the bounded queue in front of the
    /// orchestrators is full. Shed decisions are pure functions of queue
    /// state — no RNG is consumed, so admitted queries' draws do not depend
    /// on how many arrivals were shed before them — and a shed arrival never
    /// runs: it gets a status tally but no latency sample.
    pub fn shed_queue_full(&mut self) {
        self.overload.shed_queue_full += 1;
        self.resilience.record_status(QueryStatus::Shed);
    }

    /// Sheds an arrival whose predicted wait plus predicted service already
    /// misses its deadline.
    pub fn shed_predicted_miss(&mut self) {
        self.overload.shed_predicted_miss += 1;
        self.resilience.record_status(QueryStatus::Shed);
    }

    /// Tracks the admission queue's peak depth.
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.overload.peak_queue_depth = self.overload.peak_queue_depth.max(depth as u64);
    }

    /// Charges the worker invocations planned from group `from` onward as
    /// cancelled — the accounting for a query that dies before reaching them.
    pub fn cancel_from(&mut self, from: usize) {
        let undone = self.rt.plan.groups()[from..]
            .iter()
            .map(|g| g.worker_count() as u64);
        self.overload.cancelled_attempts += undone.sum::<u64>();
    }

    /// First-attempt `(count, successes)` since `window`, an earlier return
    /// of this function (`(0, 0)` for a snapshot): taken around a dispatch,
    /// it is exactly that dispatch's health.
    pub fn health_since(&self, window: (u64, u64)) -> (u64, u64) {
        (
            self.resilience.first_attempts - window.0,
            self.resilience.first_attempt_successes - window.1,
        )
    }

    /// Scores first-attempt outcomes into the brownout controller (a no-op
    /// without one).
    pub fn observe(&mut self, health: (u64, u64)) {
        if let Some(ctl) = self.brownout.as_mut() {
            ctl.observe(health.0, health.1);
        }
    }

    /// Records one served query's latency, measured from its own arrival,
    /// under its terminal status.
    pub fn record(&mut self, arrival: Micros, done: Micros, status: QueryStatus) {
        let ms = (done - arrival).as_ms();
        self.latency.record(ms);
        self.by_status.record(status, ms);
    }

    /// The crash-accounting law, checked wherever a run's recovery
    /// counters are final: every orchestrator crash ends in exactly one
    /// failover replay, full restart or resume skipped at the deadline;
    /// under a recovery policy none restarts, and without one nothing is
    /// checkpointed, replayed or saved.
    fn debug_assert_crash_law(&self) {
        let r = &self.recovery;
        debug_assert_eq!(
            r.orchestrator_crashes,
            r.failover_replays + r.full_restarts + r.resume_skipped_deadline,
            "every orchestrator crash resolves exactly once: {r:?}"
        );
        if self.recovers() {
            debug_assert_eq!(r.full_restarts, 0, "a recovered crash restarted: {r:?}");
        } else {
            debug_assert!(
                r.failover_replays == 0 && r.checkpoints_stored == 0 && r.stages_saved == 0,
                "recovery accounting without a recovery policy: {r:?}"
            );
        }
    }

    /// Assembles the run's report: the recorders, and the cold starts every
    /// function of the fleet paid. A scheduler with counters of its
    /// own (`batch`, `pipeline`) fills them in.
    pub fn finish(self) -> Result<ServingReport> {
        self.debug_assert_crash_law();
        Ok(ServingReport {
            cold_starts: self.fleet.map_or(0, |f| f.cold_starts()),
            latency: self.latency,
            by_status: self.by_status,
            billing: self.billing.clone(),
            resilience: *self.resilience,
            overload: self.overload,
            batch: BatchCounters::default(),
            brownout: self.brownout.map(|c| c.counters).unwrap_or_default(),
            pipeline: PipelineCounters::default(),
            recovery: self.recovery,
        })
    }

    /// When an instance of `fname` acquired at `at` is ready to run: at once
    /// without a fleet.
    pub fn acquire(&mut self, fname: &str, at: Micros) -> Result<Micros> {
        match self.fleet.as_mut() {
            Some(fleet) => Ok(fleet.acquire(fname, at)?.ready_at),
            None => Ok(at),
        }
    }

    /// Frees an instance of `fname` at `at` and bills its `busy_ms` (kept
    /// per lane without a fleet).
    pub fn release(&mut self, fname: &str, at: Micros, busy_ms: f64) -> Result<()> {
        let Some(fleet) = self.fleet.as_mut() else {
            if let Some(lane_ms) = &mut self.lane_ms {
                lane_ms.push(busy_ms);
            }
            return Ok(());
        };
        self.billing
            .record(busy_ms, self.rt.platform.instance_memory_bytes);
        fleet.release(fname, at)?;
        Ok(())
    }

    /// Debits the retry budget for one extra execution (retry or hedge) of
    /// work whose attempt p95 is `p95_ms`; always funded without a budget.
    /// With recovery a retry redoes only its own stage, so the debit is the
    /// work's marginal share of the plan; without it every retry implicitly
    /// restarts the query and costs a full token.
    fn spend_retry(&mut self, p95_ms: f64) -> bool {
        let cost = if self.rt.policies.recovery.is_some() {
            gillis_perf::marginal_retry_cost(p95_ms, self.rt.plan_p95_total_ms)
        } else {
            1.0
        };
        self.budget.as_mut().is_none_or(|b| b.try_spend_cost(cost))
    }

    /// Samples one lane execution at `site` launching at `at`, counts it,
    /// and acquires the instance it runs on: invocation jitter (unless the
    /// fork transfer covered it — true of a lane's first primary attempt
    /// only), noisy compute, the injected fault at `site` scaled by the
    /// outage episodes covering `at`, and the per-attempt timeout cap. Noise
    /// and fault are drawn *before* the cap, so a deadline-shrunk timeout
    /// never shifts the RNG stream. A payload whose checksum fails at the
    /// join is counted only if the master waited for it.
    fn launch<R: RngExt + ?Sized>(
        &mut self,
        fname: &str,
        site: FaultSite,
        work: &PartitionWork,
        at: Micros,
        timeout_ms: f64,
        rng: &mut R,
    ) -> Result<Launch> {
        let rt = self.rt;
        let jitter_ms = if site.attempt == 0 && site.lane == 0 {
            0.0
        } else {
            rt.platform.invoke_latency_ms.sample(rng)
        };
        let compute_ms = rt.sample_compute_ms(work, rng);
        let mult = rt.outage.as_ref().map_or(1.0, |o| o.multiplier(at.as_ms()));
        let fault = rt
            .injector
            .as_ref()
            .and_then(|inj| inj.fault_scaled(site, mult));
        // Worker-side busy time, never capped by an abandon: the function
        // keeps running.
        let (busy_ms, ok) = match fault {
            None => (compute_ms, true),
            // Fails right after the invocation round-trip.
            Some(Fault::InvokeFailure) => (0.0, false),
            Some(Fault::Crash { work_done }) => (work_done * compute_ms, false),
            Some(Fault::Straggler { slowdown }) => (slowdown * compute_ms, true),
            // Full compute, but the master rejects the response at the join.
            Some(Fault::Corrupt) => (compute_ms, false),
        };
        self.resilience.worker_invocations += 1;
        let timed_out = jitter_ms + busy_ms > timeout_ms;
        if timed_out {
            self.resilience.timeouts += 1;
        } else if matches!(fault, Some(Fault::Corrupt)) {
            self.resilience.corruptions_detected += 1;
        }
        let observed_ms = if timed_out {
            (timeout_ms - jitter_ms).max(0.0)
        } else {
            busy_ms
        };
        let start = self
            .acquire(fname, at)?
            .max(at + Micros::from_ms(jitter_ms));
        Ok(Launch {
            success: ok && !timed_out,
            start,
            end: start + Micros::from_ms(observed_ms),
            busy_end: start + Micros::from_ms(busy_ms),
        })
    }

    /// Runs worker lane `part` of group `gi` to resolution from `dispatched`
    /// with at most `lane_attempts` attempts: backoff between attempts, an
    /// optional hedge per attempt (first success wins), every retry and
    /// hedge debited from the retry budget before it launches.
    fn run_lane<R: RngExt + ?Sized>(
        &mut self,
        gi: usize,
        part: usize,
        dispatched: Micros,
        lane_attempts: u32,
        rng: &mut R,
        q: QueryCtx<'_>,
    ) -> Result<LaneRun> {
        let rt = self.rt;
        let policy = &rt.policies.resilience;
        let p = &q.profile.analyses[gi].partitions[part];
        let fname = &rt.worker_fns[gi][part];
        let p95 = q.profile.attempt_p95_ms[gi][part];
        let wire_fmt = wire_format(q.level);
        let transfer = rt
            .platform
            .transfer_ms(wire_fmt.wire_bytes(p.input_bytes) + wire_fmt.wire_bytes(p.output_bytes));
        // The remaining deadline budget caps the attempt timeout.
        let timeout_ms = policy.attempt_timeout_ms(p95);
        let timeout_at = |at: Micros| match q.deadline {
            Some(d) => timeout_ms.min((d - at).as_ms()),
            None => timeout_ms,
        };
        let mut t = dispatched;
        let mut lane = LaneRun {
            resolved: None,
            observed_end: dispatched,
            cancelled: false,
        };
        for attempt in 0..lane_attempts {
            // An attempt that would launch at or past the deadline is
            // cancelled — doomed work the master does not perform.
            if q.deadline.is_some_and(|d| t >= d) {
                self.overload.cancelled_attempts += 1;
                lane.cancelled = true;
                break;
            }
            let site = FaultSite {
                query: q.id,
                group: gi as u32,
                part: part as u32,
                attempt,
                lane: 0,
            };
            let primary = self.launch(fname, site, p, t, timeout_at(t), rng)?;
            if attempt == 0 {
                self.resilience.first_attempts += 1;
                if primary.success {
                    self.resilience.first_attempt_successes += 1;
                    // Successful first attempts are the only thing that
                    // earns retry tokens back.
                    if let Some(b) = self.budget.as_mut() {
                        b.refill();
                    }
                }
            }
            lane.resolved = primary.success.then_some(primary.end);
            let mut attempt_end = primary.end;
            let mut hedge: Option<Launch> = None;
            let mut hedge_won = false;
            // The first brownout rung turns hedging off: a hedge is pure
            // load amplification when the platform is already unhealthy.
            if policy.hedge && q.level == BrownoutLevel::Full {
                let hedge_at = t + Micros::from_ms(HEDGE_DELAY_FACTOR * p95);
                // A hedge is only worth launching before the deadline.
                let hedge_allowed = q.deadline.is_none_or(|d| hedge_at < d);
                if primary.end > hedge_at && hedge_allowed {
                    // Hedges debit the same token bucket as retries — both
                    // are extra invocations.
                    if !self.spend_retry(p95) {
                        self.resilience.budget_denied_hedges += 1;
                    } else {
                        let site = FaultSite { lane: 1, ..site };
                        let h = self.launch(fname, site, p, hedge_at, timeout_at(hedge_at), rng)?;
                        self.resilience.hedges += 1;
                        if h.success && lane.resolved.is_none_or(|r| h.end < r) {
                            hedge_won = true;
                            lane.resolved = Some(h.end);
                        }
                        attempt_end = attempt_end.max(h.end);
                        hedge = Some(h);
                    }
                }
            }
            if hedge_won {
                self.resilience.hedge_wins += 1;
            }
            // Every launched lane bills from payload receipt to response
            // emission — its full busy time even when abandoned — plus the
            // payload transfer when it is the accepted lane.
            let busy = |l: &Launch, carries: bool| {
                (l.busy_end - l.start).as_ms() + if carries { transfer } else { 0.0 }
            };
            let carries = lane.resolved.is_some() && !hedge_won;
            self.release(fname, primary.busy_end, busy(&primary, carries))?;
            if let Some(h) = hedge {
                self.release(fname, h.busy_end, busy(&h, hedge_won))?;
            }
            if let Some(r) = lane.resolved {
                lane.observed_end = r;
                break;
            }
            lane.observed_end = attempt_end;
            // Adaptive retry budget: a retry that would actually launch
            // must first debit a token. A dry bucket abandons the lane to
            // local fallback instead of amplifying load.
            if attempt + 1 < lane_attempts && !self.spend_retry(p95) {
                self.resilience.budget_denied_retries += 1;
                break;
            }
            if attempt + 1 < policy.max_attempts.max(1) {
                self.resilience.retries += 1;
                let unit = rt
                    .injector
                    .as_ref()
                    .map_or(0.5, |inj| inj.backoff_unit(site));
                t = attempt_end + Micros::from_ms(policy.backoff_ms(attempt, unit));
            }
        }
        Ok(lane)
    }

    /// Executes layer group `gi` from `begin`: fork, worker lanes with
    /// retries/hedges/breakers/budget, local fallback, and join — the group
    /// body of the fork-join master ([`Self::run_query`]), of every pipeline
    /// stage and of fleet-free simulation. Terminal outcomes (`Failed`,
    /// `DeadlineExceeded`) leave downstream-cancellation accounting to the
    /// caller, which knows what work remains.
    pub fn run_group<R: RngExt + ?Sized>(
        &mut self,
        gi: usize,
        begin: Micros,
        rng: &mut R,
        q: QueryCtx<'_>,
    ) -> Result<GroupRun> {
        let rt = self.rt;
        let policy = &rt.policies.resilience;
        let g = &rt.plan.groups()[gi];
        let a = &q.profile.analyses[gi];
        // The master computes partition 0 itself unless every partition is
        // a worker's (a master-placed group has no other).
        let offset = usize::from(g.placement != Placement::Workers);
        let worker_parts = &a.partitions[offset..];
        let master_compute = if offset == 1 {
            rt.sample_compute_ms(&a.partitions[0], rng)
        } else {
            0.0
        };
        if worker_parts.is_empty() {
            let end = begin + Micros::from_ms(master_compute);
            return Ok(GroupRun {
                forked: begin,
                computed: end,
                end,
                status: QueryStatus::Ok,
            });
        }
        // Fork: one payload per worker over the master's egress.
        let wire_fmt = wire_format(q.level);
        let wire = |bytes: fn(&PartitionWork) -> u64| {
            let each = worker_parts.iter().map(|p| wire_fmt.wire_bytes(bytes(p)));
            (worker_parts.len(), each.sum::<u64>())
        };
        let (parts, ins) = wire(|p| p.input_bytes);
        let dispatched = begin + Micros::from_ms(rt.sample_transfer(parts, ins, rng));
        let run = |computed, end, status| GroupRun {
            forked: dispatched,
            computed,
            end,
            status,
        };
        // The master's own shard is synchronous local work — it cannot be
        // abandoned, so it lower-bounds the time at which a cancelled query
        // can return.
        let master_busy_end = dispatched + Micros::from_ms(master_compute);
        let mut compute_end = master_busy_end;
        let mut exhausted: Vec<usize> = Vec::new();
        let mut deadline_hit = false;
        for pi in 0..worker_parts.len() {
            let part = pi + offset;
            // Per-lane circuit breaker: an open lane is routed around
            // (straight to master-local degraded execution) without
            // spending any retry budget; a half-open lane gets a single
            // probe attempt.
            let mut lane_attempts = policy.max_attempts.max(1);
            if let Some(bank) = self.breakers.as_mut() {
                let b = &mut bank[gi][part];
                if !b.admits(dispatched, &mut self.overload) {
                    exhausted.push(pi);
                    continue;
                }
                if b.probing() {
                    lane_attempts = 1;
                }
            }
            let lane = self.run_lane(gi, part, dispatched, lane_attempts, rng, q)?;
            compute_end = compute_end.max(lane.observed_end);
            let outlived = q.deadline.is_some_and(|d| lane.observed_end > d);
            if lane.cancelled {
                // Deadline cancellations say nothing about lane health —
                // they do not feed the breaker.
                deadline_hit = true;
            } else if outlived {
                // A reply that exists but arrived after the master stopped
                // waiting (cold start or jitter pushed the lane past the
                // deadline), or a last attempt whose failure the master
                // never observed: abandoned in flight either way.
                self.overload.cancelled_attempts += 1;
                deadline_hit = true;
            } else if lane.resolved.is_some() {
                if let Some(bank) = self.breakers.as_mut() {
                    bank[gi][part].record_success(&mut self.overload);
                }
            } else {
                exhausted.push(pi);
                if let Some(bank) = self.breakers.as_mut() {
                    bank[gi][part].record_failure(lane.observed_end, &mut self.overload);
                }
            }
        }
        let mut status = QueryStatus::Ok;
        if !exhausted.is_empty() {
            if deadline_hit {
                // The query is already doomed: recomputing the exhausted
                // shards would be cancelled work.
                self.overload.cancelled_attempts += exhausted.len() as u64;
            } else if policy.local_fallback {
                for &pi in &exhausted {
                    // A recompute that cannot start before the deadline is
                    // cancelled, not performed.
                    if q.deadline.is_some_and(|d| compute_end >= d) {
                        self.overload.cancelled_attempts += 1;
                        deadline_hit = true;
                        continue;
                    }
                    self.resilience.degraded_shards += 1;
                    status = QueryStatus::Degraded;
                    compute_end += Micros::from_ms(rt.sample_compute_ms(&worker_parts[pi], rng));
                }
            } else {
                return Ok(run(compute_end, compute_end, QueryStatus::Failed));
            }
        }
        if deadline_hit {
            // The master abandons the query at its deadline: an error
            // response, no join. Only its own synchronous shard compute can
            // push the return later.
            let d = q.deadline.expect("deadline_hit implies a deadline");
            let end = master_busy_end.max(d);
            return Ok(run(end, end, QueryStatus::DeadlineExceeded));
        }
        // Join: collection jitter + serialized replies.
        let (parts, outs) = wire(|p| p.output_bytes);
        let end = compute_end + Micros::from_ms(rt.sample_transfer(parts, outs, rng));
        Ok(run(compute_end, end, status))
    }

    /// The local-fallback-only brownout rung for group `gi`: the
    /// orchestrator computes every partition itself, serially, in plan order
    /// — no worker lanes, no fork/join transfers, no fault sites, no retries.
    pub fn run_group_local<R: RngExt + ?Sized>(
        &mut self,
        gi: usize,
        begin: Micros,
        rng: &mut R,
        profile: &WorkProfile,
    ) -> GroupRun {
        let g = &self.rt.plan.groups()[gi];
        let (mut end, mut status) = (begin, QueryStatus::Ok);
        for (pi, p) in profile.analyses[gi].partitions.iter().enumerate() {
            if on_worker(g, pi) {
                self.resilience.degraded_shards += 1;
                status = QueryStatus::Degraded;
            }
            end += Micros::from_ms(self.rt.sample_compute_ms(p, rng));
        }
        GroupRun {
            forked: begin,
            computed: end,
            end,
            status,
        }
    }

    /// Whether the runtime recovers from orchestrator crashes (a
    /// [`gillis_faas::RecoveryPolicy`] is in force).
    fn recovers(&self) -> bool {
        self.rt.policies.recovery.is_some()
    }

    /// Counts the boundary checkpoint a completed group leaves under a
    /// recovery policy. Schedulers store it *before* sampling a crash, so a
    /// crash at a boundary always finds its own stage's output.
    pub fn checkpoint(&mut self) {
        if self.recovers() {
            self.recovery.checkpoints_stored += 1;
        }
    }

    /// Samples an orchestrator crash at the boundary after group `gi`, as a
    /// pure function of `(chaos seed, query, boundary, incarnation)` that
    /// consumes no RNG draw — so a crash-free run and a checkpoint-resumed
    /// run see identical downstream streams. On a crash: bumps
    /// `incarnation` (a replacement samples a fresh draw instead of
    /// deterministically re-crashing), counts it and returns `true`; the
    /// replacement is running [`FAILOVER_MS`] later. Callers loop:
    /// replacements crash too.
    pub fn sample_crash(
        &mut self,
        query: u64,
        gi: usize,
        incarnation: &mut u32,
        now: Micros,
    ) -> bool {
        let rt = self.rt;
        let Some(inj) = rt.injector.as_ref() else {
            return false;
        };
        // Orchestrator-domain outage episodes scale the crash rate.
        let mult = rt
            .outage
            .as_ref()
            .map_or(1.0, |o| o.orchestrator_multiplier(now.as_ms()));
        if *incarnation >= MAX_ORCH_INCARNATIONS
            || !inj.orchestrator_crash(query, gi as u32, *incarnation, mult)
        {
            return false;
        }
        *incarnation += 1;
        self.recovery.orchestrator_crashes += 1;
        true
    }

    /// First stage the replacement of an orchestrator that crashed at the
    /// boundary after group `gi` re-executes: under a recovery policy the
    /// boundary's own checkpoint covers `0..=gi`, so it resumes at `gi + 1`;
    /// without one it restarts from stage 0.
    pub fn resume_from(&self, gi: usize) -> usize {
        if self.recovers() {
            gi + 1
        } else {
            0
        }
    }

    /// Counts a takeover the scheduler went through with after a crash at
    /// the boundary after group `gi`, `elapsed_ms` of execution into the
    /// query: a failover replay that saves stages `0..=gi` under a recovery
    /// policy, the classic full restart otherwise.
    pub fn count_failover(&mut self, gi: usize, elapsed_ms: f64) {
        if self.recovers() {
            self.recovery.failover_replays += 1;
            self.recovery.stages_saved += gi as u64 + 1;
            self.recovery.recompute_avoided_ms += elapsed_ms;
        } else {
            self.recovery.full_restarts += 1;
        }
    }

    /// Executes one query on the fleet's master function starting at `start`,
    /// charging the bill and scoring its first attempts into the brownout
    /// ladder, and returns its completion time and terminal status (also
    /// tallied into the resilience counters).
    pub fn run_query<R: RngExt + ?Sized>(
        &mut self,
        start: Micros,
        rng: &mut R,
        q: QueryCtx<'_>,
    ) -> Result<(Micros, QueryStatus)> {
        let window = self.health_since((0, 0));
        let master_began = self.acquire(MASTER_FN, start)?;
        let mut now = master_began;
        let mut status = QueryStatus::Ok;
        if q.level >= BrownoutLevel::LocalOnly {
            for gi in 0..self.rt.plan.groups().len() {
                let run = self.run_group_local(gi, now, rng, q.profile);
                now = run.end;
                if run.status == QueryStatus::Degraded {
                    status = QueryStatus::Degraded;
                }
            }
        } else {
            status = self.run_plan(&mut now, rng, q)?;
        }
        if q.deadline.is_some_and(|d| now > d) && completed(status) {
            // The result arrived, but after the deadline — the client has
            // already timed out. Honest accounting over a pleasant story:
            // the query missed.
            status = QueryStatus::DeadlineExceeded;
        }
        self.release(MASTER_FN, now, (now - master_began).as_ms())?;
        self.resilience.record_status(status);
        self.observe(self.health_since(window));
        self.debug_assert_crash_law();
        Ok((now, status))
    }

    /// The fork-join master's walk over the plan from `*now`: group after
    /// group, with a cancellation checkpoint at every boundary and
    /// orchestrator-crash recovery that re-enters the walk at the stage a
    /// takeover resumes from. Advances `*now` to where the master stopped
    /// and returns the status so far (`Ok`/`Degraded`, or the terminal one
    /// that ended it).
    fn run_plan<R: RngExt + ?Sized>(
        &mut self,
        now: &mut Micros,
        rng: &mut R,
        q: QueryCtx<'_>,
    ) -> Result<QueryStatus> {
        let rt = self.rt;
        let n_groups = rt.plan.groups().len();
        let master_began = *now;
        let mut status = QueryStatus::Ok;
        let mut gi = 0usize;
        let mut incarnation = 0u32;
        'groups: while gi < n_groups {
            // Cooperative cancellation checkpoint at every group boundary:
            // an expired deadline cancels all remaining work.
            if q.deadline.is_some_and(|d| *now >= d) {
                self.cancel_from(gi);
                status = QueryStatus::DeadlineExceeded;
                break 'groups;
            }
            let run = self.run_group(gi, *now, rng, q)?;
            *now = run.end;
            match run.status {
                QueryStatus::Ok => {}
                QueryStatus::Degraded => status = QueryStatus::Degraded,
                QueryStatus::Failed => {
                    // The master gives up mid-plan and emits an error
                    // response: the fork and the waiting are paid, the join
                    // is not.
                    status = QueryStatus::Failed;
                    break 'groups;
                }
                QueryStatus::DeadlineExceeded => {
                    // The master abandoned the query inside the group; the
                    // never-dispatched downstream work is cancelled too.
                    status = QueryStatus::DeadlineExceeded;
                    self.cancel_from(gi + 1);
                    break 'groups;
                }
                other => unreachable!("group execution cannot end {other:?}"),
            }
            self.checkpoint();
            let elapsed_ms = (run.end - master_began).as_ms();
            let failover = Micros::from_ms(FAILOVER_MS);
            while self.sample_crash(q.id, gi, &mut incarnation, *now) {
                let resume_from = self.resume_from(gi);
                // A resume (or restart) that can no longer meet the deadline
                // is not worth paying for: fail fast.
                let eta =
                    *now + failover + Micros::from_ms(q.profile.remaining_p95_ms(resume_from));
                if q.deadline.is_some_and(|d| eta > d) {
                    self.recovery.resume_skipped_deadline += 1;
                    self.cancel_from(gi + 1);
                    status = QueryStatus::DeadlineExceeded;
                    break 'groups;
                }
                *now += failover;
                self.count_failover(gi, elapsed_ms);
                if resume_from == 0 {
                    // A full restart redoes every completed stage, and
                    // resets any sticky degraded verdict those stages
                    // produced.
                    status = QueryStatus::Ok;
                    gi = 0;
                    continue 'groups;
                }
                // Resumed at the next stage: nothing to redo.
            }
            gi += 1;
        }
        Ok(status)
    }
}

/// Whether a status still carries a result: `Ok` or `Degraded`, as opposed to
/// the terminal `Failed` / `DeadlineExceeded`.
pub(super) fn completed(status: QueryStatus) -> bool {
    matches!(status, QueryStatus::Ok | QueryStatus::Degraded)
}

/// Wire encoding of a query's fork/join and hand-off payloads: raw f32, and
/// int8 from the int8 brownout rung down — a browned-out platform sheds
/// bytes before it sheds queries.
pub(super) fn wire_format(level: BrownoutLevel) -> TransferFormat {
    if level >= BrownoutLevel::Int8 {
        TransferFormat::Int8
    } else {
        TransferFormat::F32
    }
}

impl<'a> ForkJoinRuntime<'a> {
    /// The context of query `id` over the plan's own work profile.
    pub(super) fn query(
        &self,
        id: u64,
        deadline: Option<Micros>,
        level: BrownoutLevel,
    ) -> QueryCtx<'_> {
        QueryCtx {
            profile: &self.profile,
            id,
            deadline,
            level,
        }
    }

    /// Executes one query against an externally-managed fleet starting at
    /// `start`, charging `billing`, and returns its completion time and its
    /// recovery accounting (orchestrator crashes, failover replays, full
    /// restarts). `query` keys fault sampling; `counters` accumulates
    /// resilience accounting (including this query's terminal status). The
    /// runtime's [`gillis_faas::RecoveryPolicy`] applies — an orchestrator
    /// crash resumes at the next stage — but no
    /// admission-side policy does: no deadline, breakers, retry budget or
    /// ladder. Public for cold-start studies that need control over
    /// pre-warming; workload serving should use
    /// [`ForkJoinRuntime::serve_workload`].
    ///
    /// # Errors
    ///
    /// Propagates fleet errors (e.g. undeployed functions).
    pub fn run_query_at(
        &self,
        fleet: &mut Fleet,
        billing: &mut BillingMeter,
        start: Micros,
        rng: &mut StdRng,
        query: u64,
        counters: &mut ResilienceCounters,
    ) -> Result<(Micros, RecoveryCounters)> {
        let q = self.query(query, None, BrownoutLevel::Full);
        let mut session = Session::bare(self, Some(fleet), billing, counters);
        let (done, _) = session.run_query(start, rng, q)?;
        Ok((done, session.recovery))
    }
}

#[cfg(test)]
mod tests {
    use gillis_faas::budget::RetryBudgetPolicy;
    use gillis_faas::chaos::{ChaosConfig, ResiliencePolicy};
    use gillis_faas::recovery::RecoveryPolicy;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use gillis_perf::PerfModel;
    use rand::SeedableRng;

    use super::super::fixtures::{orchestrator_chaos, recovery_fixture};
    use super::*;
    use crate::dp::DpPartitioner;

    #[test]
    fn cold_first_wave_is_slower_without_prewarm() {
        // Serve the same workload with a manual (non-prewarmed) fleet: the
        // first wave pays cold starts, later queries reuse warm instances.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let runtime = ForkJoinRuntime::new(&vgg, &plan, platform.clone()).unwrap();

        let mut fleet = Fleet::new(platform);
        runtime.deploy(&mut fleet).unwrap();
        let mut billing = BillingMeter::new(1, 0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        // Query 1: all-cold. Query 2 (starting after 1 finished): all-warm.
        let mut counters = ResilienceCounters::default();
        let done_first = runtime
            .run_query_at(
                &mut fleet,
                &mut billing,
                Micros::ZERO,
                &mut rng,
                0,
                &mut counters,
            )
            .unwrap()
            .0;
        let start_later = done_first;
        let done_later = runtime
            .run_query_at(
                &mut fleet,
                &mut billing,
                start_later,
                &mut rng,
                1,
                &mut counters,
            )
            .unwrap()
            .0;
        let first = done_first.as_ms();
        let later = (done_later - start_later).as_ms();
        assert!(
            first > later * 1.5,
            "cold first query {first} vs warm later {later}"
        );
    }

    /// Runs `queries` back-to-back queries through the fleet path under the
    /// runtime's own recovery policy, returning total service latency (ms)
    /// plus the resilience and recovery counters.
    fn drain_queries(
        rt: &ForkJoinRuntime<'_>,
        queries: u64,
        seed: u64,
        deadline_ms: Option<f64>,
    ) -> (f64, ResilienceCounters, RecoveryCounters) {
        let mut fleet = Fleet::new(rt.platform.clone());
        rt.deploy(&mut fleet).unwrap();
        let mut billing = BillingMeter::new(1, 0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut res = ResilienceCounters::default();
        let mut s = Session::bare(rt, Some(&mut fleet), &mut billing, &mut res);
        let mut now = Micros::ZERO;
        let mut total_ms = 0.0;
        for q in 0..queries {
            let deadline = deadline_ms.map(|d| now + Micros::from_ms(d));
            let ctx = rt.query(q, deadline, BrownoutLevel::Full);
            let (done, _status) = s.run_query(now, &mut rng, ctx).unwrap();
            total_ms += (done - now).as_ms();
            now = done;
        }
        let rec = s.recovery;
        (total_ms, res, rec)
    }

    #[test]
    fn failover_replays_resume_without_reexecuting_stages() {
        // The tentpole identity: under a recovery policy every orchestrator
        // crash finds its own boundary's checkpoint, so the replacement
        // re-executes *nothing* — worker invocations match the crash-free
        // run exactly, and total latency grows by exactly one failover per
        // crash. That equality is also the no-double-billing statement:
        // every worker-side stage execution is billed once.
        let (runtime, _) = recovery_fixture();
        let base = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.0, 5))
            .unwrap();
        let crashy = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.35, 5))
            .unwrap()
            .with_recovery(RecoveryPolicy)
            .unwrap();
        let (base_ms, base_res, base_rec) = drain_queries(&base, 40, 9, None);
        let (ms, res, rec) = drain_queries(&crashy, 40, 9, None);
        assert_eq!(base_rec.orchestrator_crashes, 0);
        assert!(rec.orchestrator_crashes > 0, "chaos must actually crash");
        assert!(rec.stages_saved >= rec.failover_replays);
        assert!(rec.recompute_avoided_ms > 0.0);
        assert_eq!(res.worker_invocations, base_res.worker_invocations);
        let expect = base_ms + rec.orchestrator_crashes as f64 * FAILOVER_MS;
        assert!(
            (ms - expect).abs() < 1e-6,
            "latency {ms:.3} vs base + crashes x failover {expect:.3}"
        );
    }

    #[test]
    fn crashes_without_checkpoints_pay_full_restarts() {
        // The baseline arm the bench compares against: same crashes, no
        // recovery policy — every crash redoes every completed stage.
        let (runtime, _) = recovery_fixture();
        let base = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.0, 5))
            .unwrap();
        let restart = runtime
            .clone()
            .with_chaos(orchestrator_chaos(0.35, 5))
            .unwrap();
        let (base_ms, base_res, _) = drain_queries(&base, 40, 9, None);
        let (ms, res, rec) = drain_queries(&restart, 40, 9, None);
        assert!(rec.orchestrator_crashes > 0);
        assert!(
            res.worker_invocations > base_res.worker_invocations,
            "restarts re-execute stages: {} vs {}",
            res.worker_invocations,
            base_res.worker_invocations
        );
        assert!(ms > base_ms + rec.orchestrator_crashes as f64 * FAILOVER_MS);
    }

    #[test]
    fn run_query_at_resumes_crashes_under_the_runtimes_recovery_policy() {
        // The caller-owned-fleet entry point recovers as the runtime is
        // configured: a crash resumes at the next stage, never restarts
        // (`run_query` asserts the crash-accounting law).
        let (runtime, _) = recovery_fixture();
        let crashy = runtime
            .with_chaos(orchestrator_chaos(0.35, 5))
            .unwrap()
            .with_recovery(RecoveryPolicy)
            .unwrap();
        let mut fleet = Fleet::new(crashy.platform.clone());
        crashy.deploy(&mut fleet).unwrap();
        let mut billing = BillingMeter::new(1, 0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counters = ResilienceCounters::default();
        let (mut now, mut rec) = (Micros::ZERO, RecoveryCounters::default());
        for q in 0..40 {
            let (done, r) = crashy
                .run_query_at(&mut fleet, &mut billing, now, &mut rng, q, &mut counters)
                .unwrap();
            now = done;
            rec.absorb(&r);
        }
        assert!(rec.orchestrator_crashes > 0, "chaos must actually crash");
        assert!(rec.failover_replays > 0);
    }

    #[test]
    fn doomed_resumes_are_skipped_at_the_deadline() {
        // A deadline with less slack than one failover + the remaining
        // stages: a crash fails the query fast instead of paying for a
        // resume that cannot finish in time.
        let (runtime, predicted) = recovery_fixture();
        let crashy = runtime
            .clone()
            .with_chaos(orchestrator_chaos(1.0, 3))
            .unwrap()
            .with_recovery(RecoveryPolicy)
            .unwrap();
        let (_, res, rec) = drain_queries(&crashy, 30, 7, Some(1.05 * predicted));
        assert!(rec.orchestrator_crashes > 0);
        assert!(
            rec.resume_skipped_deadline > 0,
            "tight deadline must skip some resumes: {rec:?}"
        );
        assert!(res.deadline_exceeded_queries > 0);
    }

    #[test]
    fn recovery_prices_retries_at_marginal_cost() {
        // Same worker chaos, same tiny token bucket: with recovery on, each
        // retry debits only its stage's share of the plan, so the bucket
        // funds strictly more retries before denying.
        let (runtime, _) = recovery_fixture();
        let bp = RetryBudgetPolicy { max_tokens: 4.0 };
        let flat = runtime
            .clone()
            .with_chaos(ChaosConfig::invoke_only(0.3, 7))
            .unwrap()
            .with_policy(ResiliencePolicy::naive_retry())
            .with_retry_budget(bp)
            .unwrap();
        let marginal = flat.clone().with_recovery(RecoveryPolicy).unwrap();
        let flat_r = flat.serve_open_loop(20.0, 200, 4, 11).unwrap();
        let marg_r = marginal.serve_open_loop(20.0, 200, 4, 11).unwrap();
        assert!(flat_r.resilience.budget_denied_retries > 0);
        assert!(
            marg_r.resilience.retries > flat_r.resilience.retries,
            "marginal pricing funds more retries: {} vs {}",
            marg_r.resilience.retries,
            flat_r.resilience.retries
        );
    }

    #[test]
    fn recovered_serving_is_deterministic() {
        // End-to-end: crashes + recovery through the public serving loop,
        // twice, bit-identical — the CI smoke contract in miniature.
        let (runtime, predicted) = recovery_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let chaos = ChaosConfig {
            seed: 7,
            invoke_failure_rate: 0.05,
            orchestrator_crash_rate: 0.2,
            ..ChaosConfig::default()
        };
        let run = || {
            runtime
                .clone()
                .with_chaos(chaos)
                .unwrap()
                .with_policy(ResiliencePolicy::backoff())
                .with_recovery(RecoveryPolicy)
                .unwrap()
                .serve_open_loop(rate, 150, 4, 11)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert!(a.recovery.orchestrator_crashes > 0);
        assert!(a.recovery.checkpoints_stored > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Resume bit-identity and billing, over seeds and crash rates:
        /// under a recovery policy, a crashing run re-executes no stage
        /// (worker invocations equal the crash-free run — no double
        /// billing) and its latency is exactly crashes x FAILOVER_MS more.
        #[test]
        fn failover_cost_is_exactly_crashes_times_failover(
            (seed, rate_centi) in (0u64..500, 5u32..40),
        ) {
            let (runtime, _) = recovery_fixture();
            let base = runtime
                .clone()
                .with_chaos(orchestrator_chaos(0.0, seed))
                .unwrap();
            let crashy = runtime
                .clone()
                .with_chaos(orchestrator_chaos(rate_centi as f64 / 100.0, seed))
                .unwrap()
                .with_recovery(RecoveryPolicy)
                .unwrap();
            let (base_ms, base_res, _) = drain_queries(&base, 25, seed ^ 0xd15, None);
            let (ms, res, rec) = drain_queries(&crashy, 25, seed ^ 0xd15, None);
            proptest::prop_assert_eq!(res.worker_invocations, base_res.worker_invocations);
            let expect = base_ms + rec.orchestrator_crashes as f64 * FAILOVER_MS;
            proptest::prop_assert!(
                (ms - expect).abs() < 1e-6,
                "latency {} vs base + crashes x failover {}", ms, expect
            );
        }
    }
}
