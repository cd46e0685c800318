//! Fleet-free Monte-Carlo simulation of warm queries: the plan followed
//! group by group with sampled noise and faults, in milliseconds relative to
//! the query's own start. No instances, no bill, no admission — the
//! "actual" latency the Fig 9–12 reproductions measure.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gillis_faas::chaos::{FaultSite, QueryStatus, ResilienceCounters};
use gillis_faas::metrics::LatencyStats;

use super::{replication_seed, ForkJoinRuntime, QueryOutcome, SimulationReport};
use crate::plan::Placement;

impl ForkJoinRuntime<'_> {
    /// Runs worker partition `part` of group `gi` to resolution in time
    /// relative to the group's dispatch (`base_ms` into the query): attempts
    /// with backoff, an optional hedge per attempt (first success wins),
    /// billing every launched lane into `out.worker_ms` (the accepted lane
    /// also carries the payload transfer) and counting into
    /// `out.resilience`.
    ///
    /// Returns `(resolution, master_observed_end)`: `resolution` is the
    /// accepted result's arrival time, `None` when the retry budget is
    /// exhausted; `master_observed_end` is when the master stopped waiting.
    fn simulate_worker<R: RngExt + ?Sized>(
        &self,
        query: u64,
        gi: usize,
        part: usize,
        base_ms: f64,
        rng: &mut R,
        out: &mut QueryOutcome,
    ) -> (Option<f64>, f64) {
        let work = &self.profile.analyses[gi].partitions[part];
        let p95_ms = self.profile.attempt_p95_ms[gi][part];
        let counters = &mut out.resilience;
        let policy = &self.policies.resilience;
        let timeout_ms = policy.attempt_timeout_factor * p95_ms;
        let hedge_delay_ms = policy.hedge_delay_factor * p95_ms;
        let transfer_ms = self
            .platform
            .transfer_ms(work.input_bytes + work.output_bytes);
        let max_attempts = policy.max_attempts.max(1);
        let mut t = 0.0f64;
        for attempt in 0..max_attempts {
            let p_site = FaultSite {
                query,
                group: gi as u32,
                part: part as u32,
                attempt,
                lane: 0,
            };
            let primary = self.sample_lane(p_site, work, timeout_ms, base_ms + t, rng);
            primary.count_into(counters);
            if attempt == 0 {
                counters.first_attempts += 1;
                if primary.success {
                    counters.first_attempt_successes += 1;
                }
            }
            let p_end = t + primary.jitter_ms + primary.run_ms;
            let mut resolved = primary.success.then_some(p_end);
            let mut attempt_end = p_end;
            let mut hedge_won = false;
            let mut hedge_billed_ms: Option<f64> = None;
            if policy.hedged() {
                let hedge_at = t + hedge_delay_ms;
                if p_end > hedge_at {
                    let h_site = FaultSite { lane: 1, ..p_site };
                    let hedge = self.sample_lane(h_site, work, timeout_ms, base_ms + hedge_at, rng);
                    counters.hedges += 1;
                    hedge.count_into(counters);
                    let h_end = hedge_at + hedge.jitter_ms + hedge.run_ms;
                    if hedge.success && resolved.is_none_or(|r| h_end < r) {
                        hedge_won = true;
                        resolved = Some(h_end);
                    }
                    attempt_end = attempt_end.max(h_end);
                    hedge_billed_ms = Some(hedge.billed_ms);
                }
            }
            if hedge_won {
                counters.hedge_wins += 1;
            }
            let carried = |carries: bool| if carries { transfer_ms } else { 0.0 };
            out.worker_ms
                .push(primary.billed_ms + carried(resolved.is_some() && !hedge_won));
            if let Some(billed_ms) = hedge_billed_ms {
                out.worker_ms.push(billed_ms + carried(hedge_won));
            }
            if let Some(r) = resolved {
                return (Some(r), r);
            }
            if attempt + 1 < max_attempts {
                counters.retries += 1;
                let unit = self
                    .injector
                    .as_ref()
                    .map_or(0.5, |inj| inj.backoff_unit(p_site));
                t = attempt_end + policy.backoff_ms(attempt, unit);
            } else {
                return (None, attempt_end);
            }
        }
        (None, t)
    }

    /// Simulates one query on warm instances, sampling compute noise and
    /// communication jitter. Equivalent to
    /// [`simulate_query_at`](Self::simulate_query_at) with query index 0.
    pub fn simulate_query<R: RngExt + ?Sized>(&self, rng: &mut R) -> QueryOutcome {
        self.simulate_query_at(0, rng)
    }

    /// Simulates warm query number `query`: the index keys fault sampling
    /// ([`FaultSite::query`]), so distinct queries draw independent faults
    /// while the same `(chaos seed, query)` pair always faults identically —
    /// whatever thread runs it.
    pub fn simulate_query_at<R: RngExt + ?Sized>(&self, query: u64, rng: &mut R) -> QueryOutcome {
        let analyses = &self.profile.analyses;
        let mut out = QueryOutcome {
            latency_ms: 0.0,
            group_ms: Vec::with_capacity(analyses.len()),
            worker_ms: Vec::new(),
            status: QueryStatus::Ok,
            resilience: ResilienceCounters::default(),
        };
        for (gi, (g, a)) in self.plan.groups().iter().zip(analyses).enumerate() {
            let offset = usize::from(g.placement != Placement::Workers);
            let worker_parts = &a.partitions[offset..];
            let master_compute = if offset == 1 {
                self.sample_compute_ms(&a.partitions[0], rng)
            } else {
                0.0
            };
            let (fork, compute, join) = if worker_parts.is_empty() {
                (0.0, master_compute, 0.0)
            } else {
                let ins: Vec<u64> = worker_parts.iter().map(|p| p.input_bytes).collect();
                let outs: Vec<u64> = worker_parts.iter().map(|p| p.output_bytes).collect();
                let fork = self.sample_transfer_parts(&ins, rng);
                let join = self.sample_transfer_parts(&outs, rng);
                let mut slowest = master_compute;
                let mut exhausted: Vec<usize> = Vec::new();
                // Outage episodes key on absolute virtual time; a simulated
                // query anchors at t=0, so lanes see the time elapsed
                // inside it.
                let base_ms = out.latency_ms + fork;
                for pi in 0..worker_parts.len() {
                    let (resolved, observed_end) =
                        self.simulate_worker(query, gi, pi + offset, base_ms, rng, &mut out);
                    slowest = slowest.max(resolved.unwrap_or(observed_end));
                    if resolved.is_none() {
                        exhausted.push(pi);
                    }
                }
                let mut compute = slowest;
                if !exhausted.is_empty() {
                    if self.policies.resilience.local_fallback {
                        // Graceful degradation: the master recomputes the
                        // lost shards itself, serially, after the surviving
                        // workers finish.
                        for &pi in &exhausted {
                            out.resilience.degraded_shards += 1;
                            compute += self.sample_compute_ms(&worker_parts[pi], rng);
                        }
                        out.status = QueryStatus::Degraded;
                    } else {
                        out.status = QueryStatus::Failed;
                    }
                }
                (fork, compute, join)
            };
            if out.status == QueryStatus::Failed {
                // The master gives up mid-plan and emits an error response:
                // the fork and the waiting are paid, the join is not.
                out.latency_ms += fork + compute;
                out.group_ms.push((fork, compute, 0.0));
                break;
            }
            out.latency_ms += fork + compute + join;
            out.group_ms.push((fork, compute, join));
        }
        out
    }

    /// Mean latency over `n` simulated warm queries.
    ///
    /// Replications are independent Monte-Carlo draws, each seeded with
    /// [`replication_seed`]`(seed, i)` and evaluated on the shared
    /// [`gillis_pool::Pool`]; the sum reduces sequentially in replication
    /// order, so the result is bit-identical for any `GILLIS_THREADS`.
    pub fn mean_latency_ms(&self, n: usize, seed: u64) -> f64 {
        self.mean_latency_ms_with_threads(n, seed, gillis_pool::gillis_threads())
    }

    /// [`mean_latency_ms`](Self::mean_latency_ms) with an explicit thread
    /// count (`threads <= 1` runs inline on the caller).
    pub fn mean_latency_ms_with_threads(&self, n: usize, seed: u64, threads: usize) -> f64 {
        self.simulate_many_with_threads(n, seed, threads)
            .latency
            .mean()
    }

    /// Simulates `n` independent warm queries and aggregates their latency
    /// distribution and resilience counters. Query `i` uses RNG seed
    /// [`replication_seed`]`(seed, i)` and fault-site query index `i`.
    pub fn simulate_many(&self, n: usize, seed: u64) -> SimulationReport {
        self.simulate_many_with_threads(n, seed, gillis_pool::gillis_threads())
    }

    /// [`simulate_many`](Self::simulate_many) with an explicit thread count.
    ///
    /// Replications run on the shared pool but reduce sequentially in
    /// replication order on the caller, so the report — latencies,
    /// percentiles, and every counter — is bit-identical for any
    /// `GILLIS_THREADS`.
    pub fn simulate_many_with_threads(
        &self,
        n: usize,
        seed: u64,
        threads: usize,
    ) -> SimulationReport {
        let n = n.max(1);
        let run_one = |i: usize| {
            let mut rng = StdRng::seed_from_u64(replication_seed(seed, i as u64));
            let q = self.simulate_query_at(i as u64, &mut rng);
            (q.latency_ms, q.status, q.resilience)
        };
        let outcomes: Vec<(f64, QueryStatus, ResilienceCounters)> = if threads <= 1 || n == 1 {
            (0..n).map(run_one).collect()
        } else {
            gillis_pool::Pool::global().run(n, run_one)
        };
        let mut latency = LatencyStats::new();
        let mut resilience = ResilienceCounters::default();
        for (ms, status, c) in outcomes {
            latency.record(ms);
            resilience.absorb(&c);
            resilience.record_status(status);
        }
        SimulationReport {
            latency,
            resilience,
        }
    }
}

#[cfg(test)]
mod tests {
    use gillis_faas::chaos::{ChaosConfig, OutageConfig, ResiliencePolicy};
    use gillis_faas::workload::ClosedLoop;
    use gillis_faas::{Micros, PlatformProfile};
    use gillis_model::zoo;
    use gillis_perf::PerfModel;

    use super::super::fixtures::stress_chaos;
    use super::*;
    use crate::dp::DpPartitioner;
    use crate::predict::predict_plan;

    #[test]
    fn simulated_latency_matches_prediction() {
        // Fig 15 (bottom): end-to-end prediction error within ~6%.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg16();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let predicted = predict_plan(&vgg, &plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
        let actual = runtime.mean_latency_ms(50, 7);
        let rel = (predicted - actual).abs() / actual;
        assert!(rel < 0.06, "predicted {predicted:.1}, actual {actual:.1}");
    }

    #[test]
    fn failure_injection_adds_retries_and_latency() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();

        // Healthy platform: zero retries.
        let healthy = ForkJoinRuntime::new(&vgg, &plan, platform.clone()).unwrap();
        let h = healthy.simulate_many(50, 31);
        assert_eq!(h.resilience.retries, 0);
        assert_eq!(h.resilience.ok_queries, 50);

        // 15% of worker invocations fail: queries still complete, retries
        // appear, and the mean latency rises.
        let flaky = ForkJoinRuntime::new(&vgg, &plan, platform.clone())
            .unwrap()
            .with_chaos(ChaosConfig::invoke_only(0.15, 0xFA11_5EED))
            .unwrap();
        let f = flaky.simulate_many(50, 31);
        assert!(
            f.resilience.retries > 0,
            "expected some retries at 15% failure rate"
        );
        assert_eq!(f.resilience.failed_queries, 0, "local fallback never fails");
        assert!(
            f.latency.mean() > h.latency.mean(),
            "flaky {} vs healthy {}",
            f.latency.mean(),
            h.latency.mean()
        );

        // Workload serving also completes and reports the retries.
        let report = flaky
            .serve_workload(ClosedLoop::new(4, 40, Micros::ZERO).unwrap(), 7)
            .unwrap();
        assert_eq!(report.latency.count(), 40);
        assert!(report.resilience.retries > 0);
        assert_eq!(report.resilience.queries(), 40);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        // At an absurd failure rate, the "final attempt always succeeds"
        // fiction is gone: budgets exhaust, and the master recomputes the
        // lost shards locally — queries complete, honestly marked Degraded.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let rt = ForkJoinRuntime::new(&vgg, &plan, platform)
            .unwrap()
            .with_chaos(ChaosConfig::invoke_only(0.95, 0xFA11_5EED))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let q = rt.simulate_query(&mut rng);
        let invocations: usize = rt.plan.groups().iter().map(|g| g.worker_count()).sum();
        let max_attempts = rt.policies.resilience.max_attempts as u64;
        assert!(q.latency_ms.is_finite());
        assert!(q.resilience.retries <= (invocations as u64) * (max_attempts - 1));
        assert_eq!(q.status, QueryStatus::Degraded);
        assert!(q.resilience.degraded_shards > 0);

        // Without local fallback the same query honestly fails.
        let rt = rt.with_policy(ResiliencePolicy {
            local_fallback: false,
            ..ResiliencePolicy::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let q = rt.simulate_query(&mut rng);
        assert_eq!(q.status, QueryStatus::Failed);
        assert!(q.latency_ms.is_finite());

        // Fleet serving counts the degraded/failed queries the same way.
        let rt = rt.with_policy(ResiliencePolicy::default());
        let report = rt
            .serve_workload(ClosedLoop::new(2, 10, Micros::ZERO).unwrap(), 5)
            .unwrap();
        assert_eq!(report.resilience.queries(), 10);
        assert!(report.resilience.degraded_queries > 0);
        assert_eq!(report.resilience.failed_queries, 0);
    }

    #[test]
    fn hedging_reduces_tail_latency_under_stragglers() {
        // The HydraServe-style motivation: speculative duplicates convert
        // straggler tail latency into a second chance at the median.
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let chaos = ChaosConfig {
            seed: 42,
            invoke_failure_rate: 0.05,
            crash_rate: 0.0,
            straggler_rate: 0.15,
            straggler_slowdown: 8.0,
            corrupt_rate: 0.0,
            orchestrator_crash_rate: 0.0,
        };
        let naive = ForkJoinRuntime::new(&vgg, &plan, platform.clone())
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy::naive_retry());
        let hedged = ForkJoinRuntime::new(&vgg, &plan, platform)
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy::backoff_hedged());
        let n = naive.simulate_many(200, 9);
        let h = hedged.simulate_many(200, 9);
        assert!(h.resilience.hedges > 0);
        assert!(h.resilience.hedge_wins > 0);
        assert!(
            h.latency.percentile(99.0) < n.latency.percentile(99.0),
            "hedged p99 {} vs naive p99 {}",
            h.latency.percentile(99.0),
            n.latency.percentile(99.0)
        );
    }

    #[test]
    fn timeouts_abandon_extreme_stragglers() {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let vgg = zoo::vgg11();
        let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
        let chaos = ChaosConfig {
            seed: 7,
            straggler_rate: 0.2,
            straggler_slowdown: 50.0,
            ..ChaosConfig::default()
        };
        let rt = ForkJoinRuntime::new(&vgg, &plan, platform)
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy {
                attempt_timeout_factor: 2.0,
                ..ResiliencePolicy::backoff()
            });
        let report = rt.simulate_many(50, 3);
        assert!(report.resilience.timeouts > 0, "{:?}", report.resilience);
        // Every query still completes (retry or local fallback).
        assert_eq!(report.resilience.queries(), 50);
        assert_eq!(report.resilience.failed_queries, 0);
        assert!(report.latency.max().is_finite());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Monte-Carlo replications are seeded per index, so the simulated
        /// mean is bit-identical for any thread count.
        #[test]
        fn mean_latency_is_bit_identical_across_thread_counts(
            (seed, n) in (0u64..1000, 1usize..60),
        ) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let vgg = zoo::vgg11();
            let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
            let runtime = ForkJoinRuntime::new(&vgg, &plan, platform).unwrap();
            let seq = runtime.mean_latency_ms_with_threads(n, seed, 1);
            for threads in [2usize, 8] {
                let par = runtime.mean_latency_ms_with_threads(n, seed, threads);
                proptest::prop_assert_eq!(seq.to_bits(), par.to_bits());
            }
        }

        /// Acceptance criterion: with a fixed chaos seed, serving results —
        /// latency stats and every retry/hedge/timeout/degradation counter —
        /// are bit-identical for any thread count, because faults are a pure
        /// function of `(seed, FaultSite)` and never of scheduling.
        #[test]
        fn chaos_serving_is_bit_identical_across_thread_counts(
            (chaos_seed, run_seed, n) in (0u64..1000, 0u64..1000, 10usize..50),
        ) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let vgg = zoo::vgg11();
            let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
            let runtime = ForkJoinRuntime::new(&vgg, &plan, platform)
                .unwrap()
                .with_chaos(stress_chaos(chaos_seed))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff_hedged());
            let seq = runtime.simulate_many_with_threads(n, run_seed, 1);
            for threads in [2usize, 8] {
                let par = runtime.simulate_many_with_threads(n, run_seed, threads);
                proptest::prop_assert_eq!(
                    seq.latency.mean().to_bits(),
                    par.latency.mean().to_bits()
                );
                proptest::prop_assert_eq!(
                    seq.latency.percentile(99.0).to_bits(),
                    par.latency.percentile(99.0).to_bits()
                );
                proptest::prop_assert_eq!(&seq.resilience, &par.resilience);
            }
        }

        /// Outage acceptance criterion: episode membership is a pure
        /// function of `(outage seed, domain, window)`, so chaotic serving
        /// under correlated outages — every counter included — is
        /// bit-identical for any `GILLIS_THREADS`.
        #[test]
        fn outage_simulation_is_bit_identical_across_thread_counts(
            (chaos_seed, outage_seed, n) in (0u64..1000, 0u64..1000, 10usize..40),
        ) {
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let vgg = zoo::vgg11();
            let plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
            let runtime = ForkJoinRuntime::new(&vgg, &plan, platform)
                .unwrap()
                .with_chaos(stress_chaos(chaos_seed))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff_hedged())
                .with_outage(OutageConfig::severe(8.0, outage_seed))
                .unwrap();
            let seq = runtime.simulate_many_with_threads(n, 5, 1);
            for threads in [2usize, 8] {
                let par = runtime.simulate_many_with_threads(n, 5, threads);
                proptest::prop_assert_eq!(
                    seq.latency.mean().to_bits(),
                    par.latency.mean().to_bits()
                );
                proptest::prop_assert_eq!(&seq.resilience, &par.resilience);
            }
        }
    }
}
