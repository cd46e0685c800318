//! Fleet-free Monte-Carlo simulation of warm queries: the plan followed
//! group by group through the session's group body on a session with no
//! fleet, so every acquisition is ready at once. No bill, no admission — the
//! "actual" latency the Fig 9–12 reproductions measure.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gillis_faas::brownout::BrownoutLevel;
use gillis_faas::chaos::{QueryStatus, ResilienceCounters};
use gillis_faas::metrics::LatencyStats;
use gillis_faas::Micros;

use super::session::Session;
use super::{replication_seed, ForkJoinRuntime, QueryOutcome, SimulationReport};

/// Replications one pool task of [`ForkJoinRuntime::simulate_many`] runs in
/// turn. A constant, so the chunks, and the counter sums folded per chunk,
/// are the same at every width.
const CHUNK: usize = 64;

impl ForkJoinRuntime<'_> {
    /// Simulates one query on warm instances, sampling compute noise and
    /// communication jitter. Equivalent to
    /// [`simulate_query_at`](Self::simulate_query_at) with query index 0.
    pub fn simulate_query<R: RngExt + ?Sized>(&self, rng: &mut R) -> QueryOutcome {
        self.simulate_query_at(0, rng)
    }

    /// Simulates warm query number `query` from time zero: the index keys
    /// fault sampling ([`gillis_faas::chaos::FaultSite::query`]), so distinct
    /// queries draw independent faults while the same `(chaos seed, query)`
    /// pair always faults identically — whatever thread runs it. Each group's
    /// fork, compute and join are read off its timestamps; a failed group
    /// ends the query without a join.
    pub fn simulate_query_at<R: RngExt + ?Sized>(&self, query: u64, rng: &mut R) -> QueryOutcome {
        let mut out = QueryOutcome {
            latency_ms: 0.0,
            group_ms: Vec::with_capacity(self.plan.groups().len()),
            worker_ms: Vec::new(),
            status: QueryStatus::Ok,
            resilience: ResilienceCounters::default(),
        };
        let mut resilience = ResilienceCounters::default();
        (out.latency_ms, out.status) = self.replicate(query, rng, &mut resilience, Some(&mut out));
        out.resilience = resilience;
        out
    }

    /// [`simulate_query_at`](Self::simulate_query_at) without the outcome:
    /// the latency and status, the counters added to `resilience` and, given
    /// `outcome`, each group's `(fork, compute, join)` and every lane's busy
    /// milliseconds in its `group_ms` and `worker_ms`.
    /// [`simulate_many`](Self::simulate_many) passes `None`, so a replication
    /// builds no vector it would drop.
    fn replicate<R: RngExt + ?Sized>(
        &self,
        query: u64,
        rng: &mut R,
        resilience: &mut ResilienceCounters,
        mut outcome: Option<&mut QueryOutcome>,
    ) -> (f64, QueryStatus) {
        let mut billing = self.billing_meter();
        let mut s = Session::bare(self, None, &mut billing, resilience);
        s.lane_ms = outcome.as_ref().map(|_| Vec::new());
        let q = self.query(query, None, BrownoutLevel::Full);
        let (mut latency_ms, mut status) = (0.0, QueryStatus::Ok);
        let mut now = Micros::ZERO;
        for gi in 0..self.plan.groups().len() {
            let run = s
                .run_group(gi, now, rng, q)
                .expect("a fleet-free group acquires nothing that can fail");
            let parts = [
                (now, run.forked),
                (run.forked, run.computed),
                (run.computed, run.end),
            ];
            let [fork, compute, join] = parts.map(|(from, to)| (to - from).as_ms());
            latency_ms += fork + compute + join;
            if let Some(outcome) = outcome.as_mut() {
                outcome.group_ms.push((fork, compute, join));
            }
            now = run.end;
            if run.status != QueryStatus::Ok {
                status = run.status;
            }
            if run.status == QueryStatus::Failed {
                break;
            }
        }
        if let Some(outcome) = outcome {
            outcome.worker_ms = s.lane_ms.take().unwrap_or_default();
        }
        (latency_ms, status)
    }

    /// Mean latency over `n` simulated warm queries: the mean of
    /// [`simulate_many`](Self::simulate_many)'s report.
    pub fn mean_latency_ms(&self, n: usize, seed: u64) -> f64 {
        self.simulate_many(n, seed).latency.mean()
    }

    /// Simulates `n` independent warm queries and aggregates their latency
    /// distribution and resilience counters. Query `i` uses RNG seed
    /// [`replication_seed`]`(seed, i)` and fault-site query index `i`.
    ///
    /// Replications run in chunks of [`CHUNK`], one task per chunk on the
    /// shared [`gillis_pool::Pool`] at [`gillis_pool::kernel_threads`] (at
    /// width 1 they all run on the caller): a chunk writes its latencies
    /// into its own stretch of one `n`-long buffer and sums its counters,
    /// and the caller folds the chunk sums in chunk order. So the report —
    /// latencies, percentiles, and every counter — is bit-identical at any
    /// width, and no replication keeps an outcome.
    pub fn simulate_many(&self, n: usize, seed: u64) -> SimulationReport {
        let n = n.max(1);
        let mut latencies = vec![0.0; n];
        let mut sums = vec![ResilienceCounters::default(); n.div_ceil(CHUNK)];
        let chunks = latencies.chunks_mut(CHUNK).zip(&mut sums).enumerate();
        let run_chunk = |(c, (latencies, sum)): (usize, (&mut [f64], &mut ResilienceCounters))| {
            for (k, ms) in latencies.iter_mut().enumerate() {
                let i = (c * CHUNK + k) as u64;
                let mut rng = StdRng::seed_from_u64(replication_seed(seed, i));
                let status;
                (*ms, status) = self.replicate(i, &mut rng, sum, None);
                sum.record_status(status);
            }
        };
        if gillis_pool::kernel_threads() <= 1 {
            chunks.for_each(run_chunk);
        } else {
            gillis_pool::Pool::global().for_each_item(chunks, run_chunk);
        }
        let mut resilience = ResilienceCounters::default();
        sums.iter().for_each(|sum| resilience.absorb(sum));
        SimulationReport {
            latency: LatencyStats::from_samples(latencies),
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

    use gillis_faas::fleet::Fleet;

    use super::super::fixtures::{forced_split_plan, stress_chaos};
    use super::*;
    use crate::dp::DpPartitioner;
    use crate::predict::predict_plan;

    #[test]
    fn simulation_and_fleet_serving_run_one_attempt_loop() {
        // The same query from the same stream, simulated and served on a
        // fleet warm enough that nothing cold-starts, under every fault kind
        // but orchestrator crashes (which only the fleet path samples): one
        // attempt loop, so the same microsecond and the same counters.
        let platform = PlatformProfile::aws_lambda();
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let rt = ForkJoinRuntime::new(&tiny, &plan, platform.clone())
            .unwrap()
            .with_chaos(stress_chaos(17))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff_hedged());
        let mut total = ResilienceCounters::default();
        for i in 0..60u64 {
            let mut fleet = Fleet::new(platform.clone());
            rt.deploy(&mut fleet).unwrap();
            rt.prewarm(&mut fleet, 4).unwrap();
            let mut billing = rt.billing_meter();
            let mut served = ResilienceCounters::default();
            let (done, _) = rt
                .run_query_at(
                    &mut fleet,
                    &mut billing,
                    Micros::ZERO,
                    &mut StdRng::seed_from_u64(i),
                    i,
                    &mut served,
                )
                .unwrap();
            let sim = rt.simulate_query_at(i, &mut StdRng::seed_from_u64(i));
            assert_eq!(Micros::from_ms(sim.latency_ms), done, "query {i}");
            let mut counted = sim.resilience;
            counted.record_status(sim.status);
            assert_eq!(counted, served, "query {i}");
            if sim.status == QueryStatus::Ok {
                let parts: f64 = sim.group_ms.iter().map(|&(f, c, j)| f + c + j).sum();
                assert_eq!(parts.to_bits(), sim.latency_ms.to_bits(), "query {i}");
            }
            assert_eq!(fleet.cold_starts(), 0);
            total.absorb(&served);
        }
        // The faults bit: lanes retried, hedged and were caught corrupt.
        let bit = total.retries > 0 && total.hedges > 0 && total.corruptions_detected > 0;
        assert!(bit, "{total:?}");
    }

    #[test]
    fn chunked_replications_fold_to_the_sequential_reference() {
        // Two attempts and no local fallback under every fault kind: retries,
        // hedges and failed queries land in every chunk.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let policy = ResiliencePolicy {
            max_attempts: 2,
            local_fallback: false,
            ..ResiliencePolicy::backoff_hedged()
        };
        let rt = ForkJoinRuntime::new(&tiny, &plan, PlatformProfile::aws_lambda())
            .unwrap()
            .with_chaos(stress_chaos(23))
            .unwrap()
            .with_policy(policy);
        let seed = 5;
        // Replication by replication, with one counter sum per CHUNK.
        let reference = |n: usize| {
            let (mut bits, mut chunks) = (Vec::new(), Vec::new());
            for i in 0..n as u64 {
                let mut rng = StdRng::seed_from_u64(replication_seed(seed, i));
                let q = rt.simulate_query_at(i, &mut rng);
                bits.push(q.latency_ms.to_bits());
                if (i as usize).is_multiple_of(CHUNK) {
                    chunks.push(ResilienceCounters::default());
                }
                let sum = chunks.last_mut().unwrap();
                sum.absorb(&q.resilience);
                sum.record_status(q.status);
            }
            (bits, chunks)
        };
        for n in [1, CHUNK - 1, CHUNK, CHUNK + 1, 1000] {
            let (bits, chunks) = reference(n);
            let mut total = ResilienceCounters::default();
            chunks.iter().for_each(|sum| total.absorb(sum));
            for threads in [1, 2, 8] {
                let report = gillis_pool::with_width_cap(threads, || rt.simulate_many(n, seed));
                let got: Vec<u64> = report
                    .latency
                    .samples()
                    .iter()
                    .map(|ms| ms.to_bits())
                    .collect();
                assert_eq!(got, bits, "n {n} threads {threads}");
                assert_eq!(report.resilience, total, "n {n} threads {threads}");
            }
            if n == 1000 {
                let faulted = |c: &ResilienceCounters| c.retries > 0 && c.failed_queries > 0;
                assert!(chunks.iter().all(faulted), "{chunks:?}");
            }
        }
    }

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
            straggler_slowdown: 200.0,
            ..ChaosConfig::default()
        };
        let rt = ForkJoinRuntime::new(&vgg, &plan, platform)
            .unwrap()
            .with_chaos(chaos)
            .unwrap()
            .with_policy(ResiliencePolicy::backoff());
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
            let seq = gillis_pool::with_width_cap(1, || runtime.mean_latency_ms(n, seed));
            for threads in [2usize, 8] {
                let par = gillis_pool::with_width_cap(threads, || runtime.mean_latency_ms(n, seed));
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
            let seq = gillis_pool::with_width_cap(1, || runtime.simulate_many(n, run_seed));
            for threads in [2usize, 8] {
                let par = gillis_pool::with_width_cap(threads, || runtime.simulate_many(n, run_seed));
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
            let seq = gillis_pool::with_width_cap(1, || runtime.simulate_many(n, 5));
            for threads in [2usize, 8] {
                let par = gillis_pool::with_width_cap(threads, || runtime.simulate_many(n, 5));
                proptest::prop_assert_eq!(
                    seq.latency.mean().to_bits(),
                    par.latency.mean().to_bits()
                );
                proptest::prop_assert_eq!(&seq.resilience, &par.resilience);
            }
        }
    }
}
