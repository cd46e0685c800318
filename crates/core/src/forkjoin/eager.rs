//! The eager front: a query, or a formed batch, runs to completion the
//! moment it is admitted, on the earliest-free master of a pool. The closed
//! loop, the open loop and the batched open loop are its three arrival
//! sources.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use gillis_faas::batch::{BatchCounters, BatchPolicy};
use gillis_faas::brownout::BrownoutLevel;
use gillis_faas::workload::ClosedLoop;
use gillis_faas::Micros;

use super::scheduler::{Front, Scheduler, Source};
use super::session::QueryCtx;
use super::{BatchSchedule, ForkJoinRuntime, ServingReport, WorkProfile};
use crate::error::CoreError;
use crate::Result;

/// A pool of masters, and the admitted queries that have not begun service
/// yet.
pub(super) struct Admission {
    /// When each master next frees up; `None` is unbounded scale-out — every
    /// arrival gets a master at once and nothing ever queues.
    server_free: Option<BinaryHeap<Reverse<Micros>>>,
    /// Start times of admitted queries; monotone (each start is
    /// `max(ready, earliest free master)` and both are non-decreasing), so
    /// the entries with `start > now` are exactly the queue.
    admitted_starts: VecDeque<Micros>,
}

impl Admission {
    pub fn new(masters: Option<usize>) -> Self {
        Admission {
            server_free: masters.map(|n| (0..n).map(|_| Reverse(Micros::ZERO)).collect()),
            admitted_starts: VecDeque::new(),
        }
    }

    /// Admitted queries still waiting for a master at `now` (the ones that
    /// began service by then are forgotten).
    fn waiting_at(&mut self, now: Micros) -> usize {
        while self.admitted_starts.front().is_some_and(|&s| s <= now) {
            self.admitted_starts.pop_front();
        }
        self.admitted_starts.len()
    }

    /// When the next master frees up.
    fn earliest_free(&self) -> Micros {
        self.server_free
            .as_ref()
            .and_then(|h| h.peek())
            .map_or(Micros::ZERO, |f| f.0)
    }

    /// The earliest-free master serves `members` queries from `start` to
    /// `done`.
    fn occupy(&mut self, start: Micros, done: Micros, members: usize) {
        if let Some(h) = self.server_free.as_mut() {
            h.pop();
            h.push(Reverse(done));
        }
        self.admitted_starts
            .extend(std::iter::repeat_n(start, members));
    }
}

/// The batched front's accumulation windows, one per SLO class.
pub(super) struct Windows<'r> {
    policy: &'r BatchPolicy,
    schedule: &'r BatchSchedule,
    /// Batch-scaled work profiles for every dispatchable size (index
    /// `n - 2`); size 1 reuses the per-query profile directly.
    profiles: Vec<WorkProfile>,
    /// Per-class `(members as (arrival, query), window close time)`.
    pending: Vec<(Vec<(Micros, u64)>, Micros)>,
    /// Bound on the queries waiting in windows or for a master.
    queue_depth: usize,
    /// Keys class assignment.
    seed: u64,
    pub counters: BatchCounters,
}

impl Scheduler<'_, '_, '_> {
    /// An eager arrival: admitted (or shed) at the front door, then run at
    /// once on the earliest-free master. Closed-loop clients self-limit, so
    /// they never queue and are never shed but by the ladder; deadlines and
    /// breakers still apply.
    pub(super) fn arrive_eager(&mut self, q: u64, now: Micros, level: BrownoutLevel) -> Result<()> {
        let rt = self.s.rt;
        let waiting = self.door.waiting_at(now);
        let start = now.max(self.door.earliest_free());
        let deadline = rt.deadline_at(now);
        // Without a policy there is no front door to count at: every
        // arrival runs, and `admitted` stays zero.
        if let Some(ov) = rt.policies.overload {
            if !self.source.is_closed() {
                if waiting >= ov.queue_depth {
                    self.s.shed_queue_full();
                    return Ok(());
                }
                if rt.sheds_predicted(start, deadline) {
                    self.s.shed_predicted_miss();
                    return Ok(());
                }
                self.s.note_queue_depth(waiting + usize::from(start > now));
            }
            self.s.overload.admitted += 1;
        }
        let mut rng = self.stream(q, 0, None);
        let (done, status) = self
            .s
            .run_query(start, &mut rng, rt.query(q, deadline, level))?;
        self.door.occupy(start, done, 1);
        // Latency is measured from *arrival*: queue wait counts.
        self.s.record(now, done, status);
        self.source.reissue(done);
        Ok(())
    }

    /// The earliest non-empty window by `(close time, class index)` and its
    /// close time, or `None` — batches flush in this deterministic order.
    pub(super) fn due(&self) -> Option<(usize, Micros)> {
        let w = self.windows.as_ref()?;
        let open = w
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.0.is_empty());
        open.map(|(ci, p)| (ci, p.1))
            .min_by_key(|&(ci, at)| (at, ci))
    }

    /// Queries waiting at `now` in open windows or dispatched but not yet
    /// started: the batching analogue of the open loop's admission queue.
    fn queued(&mut self, now: Micros) -> usize {
        let w = self
            .windows
            .as_ref()
            .expect("only batched runs have windows");
        let windowed: usize = w.pending.iter().map(|(m, _)| m.len()).sum();
        windowed + self.door.waiting_at(now)
    }

    /// Dispatches class `ci`'s window at `close_at`. Batched dispatches
    /// serve at the ladder level current when the window closes, capped at
    /// the int8 rung: members below it never reach a window (they dispatch
    /// solo at arrival).
    pub(super) fn flush(&mut self, ci: usize, close_at: Micros, size_close: bool) -> Result<()> {
        self.advance(close_at);
        let w = self
            .windows
            .as_mut()
            .expect("only batched runs have windows");
        let members = std::mem::take(&mut w.pending[ci].0);
        let level = self
            .s
            .brownout
            .as_ref()
            .map_or(BrownoutLevel::Full, |c| c.level().min(BrownoutLevel::Int8));
        self.dispatch(ci, members, close_at, size_close, level)
    }

    /// Dispatches one formed batch as a single master execution on its first
    /// member's stream: the batch-1 fast path or the `n`-scaled work
    /// profile, the shared query body (breakers, deadline cancellation), and
    /// every member's latency from its own arrival.
    fn dispatch(
        &mut self,
        ci: usize,
        members: Vec<(Micros, u64)>,
        close_at: Micros,
        size_close: bool,
        level: BrownoutLevel,
    ) -> Result<()> {
        let n = members.len();
        debug_assert!(n > 0, "a batch has at least one member");
        let rt = self.s.rt;
        // The batch carries the earliest member's deadline into the
        // fork-join cancellation machinery; its first member's index keys
        // fault sampling and the stream.
        let (first_arrival, first_q) = members[0];
        let mut rng = self.stream(first_q, 0, None);
        let w = self
            .windows
            .as_mut()
            .expect("only batched runs have windows");
        let batch = &mut w.counters;
        batch.batches += 1;
        batch.largest_batch = batch.largest_batch.max(n as u64);
        if size_close {
            batch.size_closes += 1;
        } else {
            batch.window_closes += 1;
        }
        let profile = if n == 1 {
            // Batch-1 fast path: the per-query profile, no widened work.
            batch.batch_one_fast_path += 1;
            &rt.profile
        } else {
            batch.batched_queries += n as u64;
            &w.profiles[n - 2]
        };
        let class = &w.policy.classes[ci];
        let q = QueryCtx {
            profile,
            id: first_q,
            deadline: class
                .deadline_ms
                .is_finite()
                .then(|| first_arrival + Micros::from_ms(class.deadline_ms)),
            level,
        };
        let start = close_at.max(self.door.earliest_free());
        let (done, status) = self.s.run_query(start, &mut rng, q)?;
        self.door.occupy(start, done, n);
        // Every member shares the batch's terminal status; latency is
        // measured from each member's own arrival, so window wait counts.
        for (i, &(arrival, _)) in members.iter().enumerate() {
            self.s.record(arrival, done, status);
            if i > 0 {
                // `run_query` tallied the first member's status.
                self.s.resilience.record_status(status);
            }
        }
        Ok(())
    }

    /// A batched arrival: shed, dispatched solo below the int8 rung, or
    /// added to its class's window, which closes early once full.
    pub(super) fn arrive_batched(
        &mut self,
        q: u64,
        now: Micros,
        level: BrownoutLevel,
    ) -> Result<()> {
        // Below the int8 rung the ladder bypasses batching entirely: windows
        // add latency a browned-out platform cannot afford, and
        // local-fallback members cannot share a fork-join wave with normal
        // ones.
        let solo = self
            .s
            .brownout
            .as_ref()
            .is_some_and(|c| c.level() >= BrownoutLevel::LocalOnly);
        let w = self
            .windows
            .as_ref()
            .expect("only batched runs have windows");
        let ci = w.policy.class_of(w.seed, q);
        let (cs, deadline_ms) = (w.schedule.classes[ci], w.policy.classes[ci].deadline_ms);
        let depth = w.queue_depth;
        let (members, close) = &w.pending[ci];
        let est_close = match members.is_empty() {
            true => now + Micros::from_ms(cs.window_ms),
            false => *close,
        };
        if self.queued(now) >= depth {
            self.s.shed_queue_full();
            return Ok(());
        }
        // Never batch a query past its shed threshold: shed it now when the
        // batch it would join is already predicted to complete (window
        // close, master wait, batched latency) past its deadline.
        let est_done = est_close.max(self.door.earliest_free()) + Micros::from_ms(cs.predicted_ms);
        if !solo && deadline_ms.is_finite() && est_done > now + Micros::from_ms(deadline_ms) {
            self.s.shed_predicted_miss();
            return Ok(());
        }
        self.s.overload.admitted += 1;
        if solo {
            return self.dispatch(ci, vec![(now, q)], now, false, level);
        }
        let w = self
            .windows
            .as_mut()
            .expect("only batched runs have windows");
        let (members, close) = &mut w.pending[ci];
        if members.is_empty() {
            *close = now + Micros::from_ms(cs.window_ms);
        }
        members.push((now, q));
        if members.len() >= cs.batch {
            self.flush(ci, now, true)?;
        }
        let depth = self.queued(now);
        self.s.note_queue_depth(depth);
        Ok(())
    }
}

impl ForkJoinRuntime<'_> {
    /// Serves a closed-loop workload end to end: warm pools, cold starts,
    /// and per-function billing. Clients issue their first queries at time
    /// zero and re-issue upon response.
    ///
    /// Functions are pre-warmed with one instance per client before the
    /// first query, mirroring Gillis's periodic warm-up pings (§III-A): the
    /// paper amortizes cold starts across "numerous inference queries" and
    /// measures warm behaviour.
    ///
    /// # Errors
    ///
    /// Propagates deployment and fleet errors.
    pub fn serve_workload(&self, workload: ClosedLoop, seed: u64) -> Result<ServingReport> {
        let fleet = self.warm_fleet(workload.clients)?;
        self.schedule(fleet, Source::closed(&workload), seed, Front::Masters(None))
    }

    /// Serves `queries` Poisson arrivals at `rate_per_sec` against pools
    /// pre-warmed for `prewarm_clients` concurrent queries; arrivals do not
    /// wait for responses.
    ///
    /// Without an [`OverloadPolicy`](gillis_faas::overload::OverloadPolicy)
    /// (see [`Self::with_overload`]) every arrival is served at once, and
    /// overload shows up as cold-start scale-out (the §II-A motivation for
    /// serverless burst capacity). With one, at most `max_concurrency`
    /// queries run at once (all pre-warmed), excess arrivals wait in a
    /// bounded queue, and an arrival is shed — counted, never silently
    /// dropped — when the queue is full or when its predicted wait plus the
    /// predicted plan latency already misses its deadline, which admitted
    /// queries carry into every group.
    ///
    /// # Errors
    ///
    /// Propagates deployment and fleet errors, and rejects non-positive
    /// rates.
    pub fn serve_open_loop(
        &self,
        rate_per_sec: f64,
        queries: usize,
        prewarm_clients: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        let source = Source::poisson(rate_per_sec, queries, seed)?;
        // Warm the whole admission capacity: a policy bounds concurrency at
        // `max_concurrency`, so warming less would just shift early
        // admitted queries onto cold starts.
        let masters = self.policies.overload.map(|ov| ov.max_concurrency);
        let fleet = self.warm_fleet(prewarm_clients.max(masters.unwrap_or(0)))?;
        self.schedule(fleet, source, seed, Front::Masters(masters))
    }

    /// Serves an open-loop Poisson stream with adaptive multi-SLO batching:
    /// arrivals are assigned an SLO class (a pure hash of `(seed, query)`
    /// weighted by the class shares), accumulate per class up to the
    /// schedule's deadline-derived window, and dispatch as one batched
    /// master execution sharing one fork-join wave. Windows flush in
    /// `(close time, class index)` order; a window that closes with one
    /// member takes the batch-1 fast path (the per-query work profile,
    /// counted in [`BatchCounters::batch_one_fast_path`]).
    ///
    /// An [`OverloadPolicy`](gillis_faas::overload::OverloadPolicy) bounds
    /// the masters at its concurrency and the members waiting at its queue
    /// depth, and its breakers route around sick lanes. Whatever the policy,
    /// an arrival whose batch is predicted to complete (window close, master
    /// wait, batched latency) past its class deadline is shed on arrival; a
    /// batch carries its first (earliest) member's deadline.
    ///
    /// The runtime must be built on the platform the schedule was planned
    /// for.
    ///
    /// # Errors
    ///
    /// Propagates deployment and fleet errors; rejects invalid policies,
    /// mismatched schedules, and non-positive rates.
    pub fn serve_open_loop_batched(
        &self,
        policy: &BatchPolicy,
        schedule: &BatchSchedule,
        rate_per_sec: f64,
        queries: usize,
        prewarm_clients: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        policy.validate().map_err(CoreError::from)?;
        if schedule.classes.len() != policy.classes.len() {
            return Err(CoreError::InvalidArgument(format!(
                "schedule has {} classes but the policy has {}",
                schedule.classes.len(),
                policy.classes.len()
            )));
        }
        if schedule.memory_bytes != self.platform.instance_memory_bytes {
            return Err(CoreError::InvalidArgument(format!(
                "schedule was planned for {} B instances but the runtime platform has {} B",
                schedule.memory_bytes, self.platform.instance_memory_bytes
            )));
        }
        let source = Source::poisson(rate_per_sec, queries, seed)?;
        let (masters, queue_depth) = match self.policies.overload {
            Some(ov) => (ov.max_concurrency, ov.queue_depth),
            None => (prewarm_clients.max(1), usize::MAX),
        };
        let fleet = self.warm_fleet(prewarm_clients.max(masters))?;
        let max_n = schedule.classes.iter().map(|c| c.batch).max().unwrap_or(1);
        let scaled = |n: usize| {
            let widen = |a| crate::predict::scale_analysis_for_batch(a, n);
            WorkProfile::new(
                &self.platform,
                self.profile.analyses.iter().map(widen).collect(),
            )
        };
        let windows = Windows {
            policy,
            schedule,
            profiles: (2..=max_n).map(scaled).collect(),
            pending: vec![(Vec::new(), Micros::ZERO); policy.classes.len()],
            queue_depth,
            seed,
            counters: BatchCounters::default(),
        };
        self.schedule(fleet, source, seed, Front::Windows(windows, masters))
    }
}

#[cfg(test)]
mod tests {
    use gillis_faas::batch::SloClass;
    use gillis_faas::brownout::BrownoutPolicy;
    use gillis_faas::budget::RetryBudgetPolicy;
    use gillis_faas::chaos::{ChaosConfig, OutageConfig, ResiliencePolicy};
    use gillis_faas::overload::{BreakerPolicy, OverloadPolicy};
    use gillis_faas::PlatformProfile;
    use gillis_model::{zoo, LinearModel};
    use gillis_perf::{PerfModel, TransferFormat};

    use super::super::fixtures::batch_fixture;
    use super::super::plan_batch_schedule;
    use super::*;
    use crate::dp::DpPartitioner;
    use crate::plan::ExecutionPlan;
    use crate::predict::predict_plan;

    #[test]
    fn workload_serving_reports_latency_and_cost() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let runtime = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
        let workload = ClosedLoop::new(8, 40, Micros::ZERO).unwrap();
        let report = runtime.serve_workload(workload, 3).unwrap();
        assert_eq!(report.latency.count(), 40);
        assert!(report.billing.billed_ms_total() > 0);
        // Pre-warming (paper §III-A) eliminates cold starts entirely.
        assert_eq!(report.cold_starts, 0);
        // A healthy platform serves every query cleanly.
        assert_eq!(report.resilience.ok_queries, 40);
        assert_eq!(report.resilience.retries, 0);
        assert_eq!(report.resilience.degraded_queries, 0);
        // The workload mean matches the warm single-query mean.
        let mean = report.latency.mean();
        let warm = runtime.mean_latency_ms(40, 5);
        assert!(
            (mean - warm).abs() / warm < 0.25,
            "workload mean {mean} vs warm mean {warm}"
        );
    }

    /// VGG-11 runtime plus its analytically predicted plan latency — the
    /// shared fixture for the overload tests.
    fn overload_fixture() -> (ForkJoinRuntime<'static>, f64) {
        use std::sync::OnceLock;
        static MODEL: OnceLock<LinearModel> = OnceLock::new();
        static PLAN: OnceLock<ExecutionPlan> = OnceLock::new();
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = MODEL.get_or_init(zoo::vgg11);
        let plan = PLAN.get_or_init(|| DpPartitioner::default().partition(vgg, &perf).unwrap());
        let predicted = predict_plan(vgg, plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(vgg, plan, platform).unwrap();
        (runtime, predicted)
    }

    #[test]
    fn shedding_bounds_admitted_tail_latency_at_overload() {
        // The tentpole acceptance criterion: at 2x the no-shed saturation
        // rate, the protected deployment keeps the p99 of admitted queries
        // near the SLO by shedding honestly, while the unprotected bounded
        // front door lets the queue (and every admitted latency) grow
        // without bound.
        let (runtime, predicted) = overload_fixture();
        let concurrency = 4;
        let slo_ms = 2.0 * predicted;
        let saturation_qps = 1000.0 * concurrency as f64 / predicted;
        let rate = 2.0 * saturation_qps;
        let queries = 400;

        let unprotected = runtime
            .clone()
            .with_overload(OverloadPolicy::unprotected(concurrency))
            .unwrap()
            .serve_open_loop(rate, queries, concurrency, 11)
            .unwrap();
        let protected = runtime
            .clone()
            .with_overload(OverloadPolicy::for_slo(slo_ms, concurrency))
            .unwrap()
            .serve_open_loop(rate, queries, concurrency, 11)
            .unwrap();

        assert_eq!(unprotected.overload.shed(), 0);
        assert!(
            protected.overload.shed() > 0,
            "2x saturation must shed: {:?}",
            protected.overload
        );
        assert_eq!(
            protected.overload.admitted + protected.overload.shed(),
            queries as u64,
            "every arrival is admitted or shed, never lost"
        );
        let protected_p99 = protected.latency.percentile(99.0);
        let unprotected_p99 = unprotected.latency.percentile(99.0);
        assert!(
            protected_p99 <= 1.5 * slo_ms,
            "admitted p99 {protected_p99:.1} ms vs SLO {slo_ms:.1} ms"
        );
        assert!(
            unprotected_p99 > 3.0 * slo_ms,
            "unprotected front door should collapse: p99 {unprotected_p99:.1} ms"
        );
        // Shed queries never run: they appear in resilience accounting but
        // not in any latency series.
        assert_eq!(protected.resilience.shed_queries, protected.overload.shed());
        assert_eq!(
            protected.latency.count() as u64,
            protected.overload.admitted
        );
    }

    #[test]
    fn deadline_cancellation_abandons_doomed_work() {
        // A deadline far below the plan latency (with predictive shedding
        // off, so queries are admitted anyway) must cancel mid-plan: the
        // master abandons the remaining groups and their would-be worker
        // attempts are counted, not completed.
        let (runtime, predicted) = overload_fixture();
        let policy = OverloadPolicy {
            shed_on_predicted_miss: false,
            ..OverloadPolicy::for_slo(0.3 * predicted, 2)
        };
        let report = runtime
            .clone()
            .with_overload(policy)
            .unwrap()
            // Sub-saturation rate: no queueing, so recorded latencies are
            // pure service times.
            .serve_open_loop(2.0, 40, 2, 5)
            .unwrap();
        assert_eq!(report.overload.shed(), 0, "predictive shedding disabled");
        assert!(
            report.resilience.deadline_exceeded_queries > 0,
            "{:?}",
            report.resilience
        );
        assert!(
            report.overload.cancelled_attempts > 0,
            "cancellation must abandon outstanding attempts: {:?}",
            report.overload
        );
        assert_eq!(
            report.by_status.deadline_exceeded.count() as u64,
            report.resilience.deadline_exceeded_queries
        );
        // Deadline-expired queries still return (an error response) early:
        // the master abandons at the next group boundary instead of running
        // the plan to completion.
        let max_ms = report.latency.percentile(100.0);
        assert!(
            max_ms < predicted,
            "max {max_ms:.1} ms vs plan {predicted:.1} ms"
        );
    }

    #[test]
    fn breakers_route_around_dead_lanes_before_retry_budget() {
        // With every invocation failing, a breaker-enabled deployment stops
        // burning the retry budget on known-bad lanes: after
        // `failure_threshold` consecutive failures the lane short-circuits
        // straight to master-local degraded execution.
        let (runtime, _) = overload_fixture();
        let chaos = ChaosConfig::invoke_only(1.0, 77);
        let workload = || ClosedLoop::new(2, 30, Micros::ZERO).unwrap();

        let without = runtime
            .clone()
            .with_chaos(chaos)
            .unwrap()
            .serve_workload(workload(), 3)
            .unwrap();
        let with_breaker = runtime
            .clone()
            .with_chaos(chaos)
            .unwrap()
            .with_overload(OverloadPolicy {
                breaker: BreakerPolicy::standard(),
                ..OverloadPolicy::unprotected(2)
            })
            .unwrap()
            .serve_workload(workload(), 3)
            .unwrap();

        assert!(with_breaker.overload.breaker_opens > 0);
        assert!(
            with_breaker.overload.breaker_short_circuits > 0,
            "{:?}",
            with_breaker.overload
        );
        assert!(
            with_breaker.resilience.retries < without.resilience.retries,
            "breaker {} retries vs unguarded {}",
            with_breaker.resilience.retries,
            without.resilience.retries
        );
        // Every query still completes (degraded), so protection does not
        // trade availability for the saved retries.
        assert_eq!(
            with_breaker.resilience.degraded_queries + with_breaker.resilience.ok_queries,
            30
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Overload decisions are pure functions of seed and query identity:
        /// the full report — shed set, admission counters, breaker
        /// transitions, every latency — is bit-identical run to run. That
        /// the accounting never loses an arrival is the scheduler's own
        /// debug assertion, checked at the end of both runs.
        #[test]
        fn overload_serving_is_deterministic_and_accounts_for_every_arrival(
            (seed, rate_scale, queries) in (0u64..1000, 1u32..5, 20usize..60),
        ) {
            let (runtime, predicted) = overload_fixture();
            let concurrency = 2;
            let rate = rate_scale as f64 * 500.0 * concurrency as f64 / predicted;
            let runtime = runtime
                .with_overload(OverloadPolicy::for_slo(2.0 * predicted, concurrency))
                .unwrap();
            let a = runtime.serve_open_loop(rate, queries, concurrency, seed).unwrap();
            let b = runtime.serve_open_loop(rate, queries, concurrency, seed).unwrap();
            proptest::prop_assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
            proptest::prop_assert_eq!(
                a.latency.percentile(99.0).to_bits(),
                b.latency.percentile(99.0).to_bits()
            );
            proptest::prop_assert_eq!(&a.resilience, &b.resilience);
            proptest::prop_assert_eq!(&a.overload, &b.overload);
            proptest::prop_assert_eq!(a.by_status.count(), a.latency.count());
        }
    }

    #[test]
    fn batch_one_serving_is_bit_identical_to_unbatched() {
        // The serving-level batch-1 fast path: a schedule that never forms
        // a batch must reproduce serve_open_loop exactly — same RNG
        // consumption, same starts, same latency series, same billing.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy::batch_one();
        let rate = 500.0 / pred1.latency_ms; // sub-saturation
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, rate).unwrap();
        assert_eq!(schedule.classes[0].batch, 1);
        let runtime = ForkJoinRuntime::new(vgg, plan, platform.clone())
            .unwrap()
            .with_overload(OverloadPolicy::unprotected(2))
            .unwrap();
        let plain = runtime.serve_open_loop(rate, 60, 2, 21).unwrap();
        let batched = runtime
            .serve_open_loop_batched(&policy, &schedule, rate, 60, 2, 21)
            .unwrap();
        assert_eq!(batched.batch.batches, 60);
        assert_eq!(batched.batch.batch_one_fast_path, 60);
        assert_eq!(batched.batch.batched_queries, 0);
        assert_eq!(
            batched.latency.mean().to_bits(),
            plain.latency.mean().to_bits()
        );
        assert_eq!(
            batched.latency.percentile(99.0).to_bits(),
            plain.latency.percentile(99.0).to_bits()
        );
        assert_eq!(
            batched.billing.usd_total().to_bits(),
            plain.billing.usd_total().to_bits()
        );
        assert_eq!(batched.resilience, plain.resilience);
        assert_eq!(batched.overload, plain.overload);
        assert_eq!(batched.cold_starts, plain.cold_starts);
    }

    #[test]
    fn batched_serving_amortizes_cost_under_load() {
        // Two SLO classes at a rate that fills windows: real batches form,
        // the fork wave is shared, and the billed cost per admitted query
        // drops below the batch-1 baseline.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy {
            classes: vec![
                SloClass {
                    deadline_ms: 12.0 * pred1.latency_ms,
                    weight: 3.0,
                },
                SloClass {
                    deadline_ms: f64::INFINITY,
                    weight: 1.0,
                },
            ],
            max_batch: 8,
            max_window_ms: 6.0 * pred1.latency_ms,
            window_margin_ms: 1.0,
        };
        let rate = 8_000.0 / pred1.latency_ms;
        let queries = 160;
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, rate).unwrap();
        assert!(schedule.classes.iter().any(|c| c.batch > 1));
        let runtime = ForkJoinRuntime::new(vgg, plan, platform.clone()).unwrap();
        let batched = runtime
            .serve_open_loop_batched(&policy, &schedule, rate, queries, 4, 3)
            .unwrap();
        let baseline = runtime
            .clone()
            .with_overload_predicted(OverloadPolicy::unprotected(4), pred1.latency_ms)
            .unwrap()
            .serve_open_loop(rate, queries, 4, 3)
            .unwrap();

        // Accounting: every arrival admitted or shed; every admitted query
        // is a member of exactly one dispatched batch.
        assert_eq!(
            batched.overload.admitted + batched.overload.shed(),
            queries as u64
        );
        assert_eq!(
            batched.batch.batched_queries + batched.batch.batch_one_fast_path,
            batched.overload.admitted
        );
        assert_eq!(batched.latency.count() as u64, batched.overload.admitted);
        assert!(
            batched.batch.batches < batched.overload.admitted,
            "{:?}",
            batched.batch
        );
        assert!(batched.batch.mean_batch() > 1.2, "{:?}", batched.batch);

        // The economics: fewer invocation waves, cheaper per query.
        let batched_usd = batched.billing.usd_total() / batched.overload.admitted as f64;
        let baseline_usd = baseline.billing.usd_total() / baseline.overload.admitted as f64;
        assert!(
            batched_usd < 0.8 * baseline_usd,
            "batched {batched_usd:.9} $/q vs baseline {baseline_usd:.9} $/q"
        );
    }

    #[test]
    fn batched_serving_is_deterministic_and_composes_with_chaos_and_overload() {
        // The full stack at once — fault injection, admission control with
        // breakers, and batch windows: two identical runs are bit-identical
        // and the accounting still never loses an arrival.
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy {
            classes: vec![
                SloClass {
                    deadline_ms: 10.0 * pred1.latency_ms,
                    weight: 1.0,
                },
                SloClass {
                    deadline_ms: f64::INFINITY,
                    weight: 1.0,
                },
            ],
            max_batch: 4,
            max_window_ms: 4.0 * pred1.latency_ms,
            window_margin_ms: 1.0,
        };
        let rate = 6_000.0 / pred1.latency_ms;
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, rate).unwrap();
        let runtime = ForkJoinRuntime::new(vgg, plan, platform.clone())
            .unwrap()
            .with_chaos(ChaosConfig::invoke_only(0.05, 99))
            .unwrap()
            .with_overload(OverloadPolicy {
                breaker: BreakerPolicy::standard(),
                ..OverloadPolicy::for_slo(10.0 * pred1.latency_ms, 3)
            })
            .unwrap();
        let run = || {
            runtime
                .serve_open_loop_batched(&policy, &schedule, rate, 120, 3, 17)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert_eq!(
            a.latency.percentile(99.0).to_bits(),
            b.latency.percentile(99.0).to_bits()
        );
        assert_eq!(
            a.billing.usd_total().to_bits(),
            b.billing.usd_total().to_bits()
        );
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.overload, b.overload);
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.overload.admitted + a.overload.shed(), 120);
        assert_eq!(
            a.batch.batched_queries + a.batch.batch_one_fast_path,
            a.overload.admitted
        );
        assert!(a.batch.batches > 0);
        // Chaos actually fired somewhere in the run.
        assert!(
            a.resilience.retries + a.resilience.degraded_queries + a.resilience.hedges > 0,
            "{:?}",
            a.resilience
        );
    }

    #[test]
    fn batched_serving_rejects_mismatched_schedules() {
        let (vgg, plan, platform, pred1) = batch_fixture();
        let policy = BatchPolicy::single(20.0 * pred1.latency_ms, 4);
        let schedule =
            plan_batch_schedule(vgg, plan, &platform, TransferFormat::F32, &policy, 100.0).unwrap();
        let runtime = ForkJoinRuntime::new(vgg, plan, platform).unwrap();
        // Wrong memory: the schedule insists on the platform it was
        // planned for.
        let mut wrong = schedule.clone();
        wrong.memory_bytes += 1;
        let err = runtime
            .serve_open_loop_batched(&policy, &wrong, 100.0, 10, 2, 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
        // Wrong class count.
        let mut short = schedule.clone();
        short.classes.clear();
        let err = runtime
            .serve_open_loop_batched(&policy, &short, 100.0, 10, 2, 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    }

    /// Chaos with a baseline failure rate that a severity-8 outage episode
    /// pushes deep into correlated-failure territory.
    fn outage_chaos(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            invoke_failure_rate: 0.04,
            crash_rate: 0.0,
            straggler_rate: 0.02,
            straggler_slowdown: 4.0,
            corrupt_rate: 0.0,
            orchestrator_crash_rate: 0.0,
        }
    }

    #[test]
    fn outage_episodes_scale_failures_and_stay_deterministic() {
        // During severe platform episodes the invoke-failure rate multiplies
        // by the severity: serving with the outage enabled must retry and
        // degrade more than the same run without it, and two identical runs
        // must agree bit-for-bit.
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let calm = runtime
            .clone()
            .with_chaos(outage_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff())
            .serve_open_loop(rate, 200, 4, 11)
            .unwrap();
        let run = || {
            runtime
                .clone()
                .with_chaos(outage_chaos(7))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff())
                .with_outage(OutageConfig::severe(8.0, 21))
                .unwrap()
                .serve_open_loop(rate, 200, 4, 11)
                .unwrap()
        };
        let stormy = run();
        let again = run();
        assert_eq!(stormy.resilience, again.resilience);
        assert_eq!(
            stormy.latency.mean().to_bits(),
            again.latency.mean().to_bits()
        );
        assert!(
            stormy.resilience.retries > calm.resilience.retries,
            "outage should force extra retries: {} vs {}",
            stormy.resilience.retries,
            calm.resilience.retries
        );
        assert!(stormy.retry_amplification() > calm.retry_amplification());
        // First-attempt accounting is self-consistent: one per worker lane
        // per served query.
        let lanes: u64 = runtime
            .plan
            .groups()
            .iter()
            .map(|g| g.worker_count() as u64)
            .sum();
        assert_eq!(calm.resilience.first_attempts, 200 * lanes);
    }

    #[test]
    fn retry_budget_collapses_amplification_under_outage() {
        // The tentpole acceptance criterion: under a severe correlated
        // outage, naive retries amplify every admitted query into ~2x+
        // worker invocations, while the token bucket caps the amplification
        // and converts the excess into (honest) local-fallback degradation.
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let stormy = |rt: ForkJoinRuntime<'static>| {
            rt.with_chaos(ChaosConfig::invoke_only(0.35, 7))
                .unwrap()
                .serve_open_loop(rate, 300, 4, 11)
                .unwrap()
        };
        let naive = stormy(runtime.clone().with_policy(ResiliencePolicy::naive_retry()));
        let budgeted = stormy(
            runtime
                .clone()
                .with_policy(ResiliencePolicy::naive_retry())
                .with_retry_budget(RetryBudgetPolicy { max_tokens: 16.0 })
                .unwrap(),
        );
        assert!(
            naive.retry_amplification() >= 1.4,
            "naive amplification {:.2}",
            naive.retry_amplification()
        );
        assert!(
            budgeted.retry_amplification() <= 1.2,
            "budgeted amplification {:.2}",
            budgeted.retry_amplification()
        );
        assert!(budgeted.resilience.budget_denied_retries > 0);
        // Denied retries become local fallbacks, not failures.
        assert_eq!(budgeted.resilience.failed_queries, 0);
        assert!(budgeted.resilience.degraded_queries > 0);
    }

    #[test]
    fn brownout_ladder_steps_down_under_outage_and_recovers() {
        // A long stream with episodic outages: the ladder must step down
        // during episodes (degraded arrivals appear below Full) and step
        // back up in the clean stretches (step_ups > 0), never ending the
        // run stuck when health has recovered.
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        // Sparse but devastating episodes: long clean stretches between
        // them give the probe-driven recovery something to observe.
        let outage = OutageConfig {
            seed: 3,
            window_ms: 200.0,
            start_prob: 0.01,
            min_windows: 10,
            max_windows: 25,
            severity: 60.0,
            platform: true,
            orchestrators: false,
        };
        let brownout_policy = BrownoutPolicy {
            window_lanes: 16,
            probe_interval: 2,
            ..BrownoutPolicy::default()
        };
        let report = runtime
            .clone()
            .with_chaos(outage_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff())
            .with_outage(outage)
            .unwrap()
            .with_brownout(brownout_policy)
            .unwrap()
            .serve_open_loop(rate, 600, 4, 11)
            .unwrap();
        assert!(
            report.brownout.step_downs > 0,
            "episodes must trip the ladder: {:?}",
            report.brownout
        );
        assert!(
            report.brownout.step_ups > 0,
            "clean windows must recover: {:?}",
            report.brownout
        );
        assert!(report.brownout.arrivals() > report.brownout.queries_at_level[0]);
        // Every arrival is accounted at exactly one ladder level.
        assert_eq!(report.brownout.arrivals(), 600);
        // Identical runs agree bit-for-bit, counters included.
        let again = runtime
            .clone()
            .with_chaos(outage_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff())
            .with_outage(outage)
            .unwrap()
            .with_brownout(brownout_policy)
            .unwrap()
            .serve_open_loop(rate, 600, 4, 11)
            .unwrap();
        assert_eq!(report.brownout, again.brownout);
        assert_eq!(report.resilience, again.resilience);
    }

    #[test]
    fn healthy_platform_is_bit_identical_with_budget_and_brownout_installed() {
        // On a healthy platform the resilience additions are pure
        // observers: the bucket never runs dry, the ladder never leaves
        // Full, and the serving report matches the plain runtime
        // bit-for-bit (latency, billing, and all pre-existing counters).
        let (runtime, predicted) = overload_fixture();
        let rate = 0.3 * 1000.0 * 4.0 / predicted;
        let plain = runtime.clone().serve_open_loop(rate, 200, 4, 13).unwrap();
        let guarded = runtime
            .clone()
            .with_retry_budget(RetryBudgetPolicy::default())
            .unwrap()
            .with_brownout(BrownoutPolicy::default())
            .unwrap()
            .serve_open_loop(rate, 200, 4, 13)
            .unwrap();
        assert_eq!(
            plain.latency.mean().to_bits(),
            guarded.latency.mean().to_bits()
        );
        assert_eq!(
            plain.billing.usd_total().to_bits(),
            guarded.billing.usd_total().to_bits()
        );
        assert_eq!(plain.resilience, guarded.resilience);
        assert_eq!(guarded.brownout.queries_at_level[0], 200);
        assert_eq!(guarded.brownout.step_downs, 0);
    }
}
