//! The pipelined front: pipeline-parallel serving across layer groups. Each
//! group is a stage with its own orchestrator lanes and bounded queue; a
//! query waits between stages, so its executions complete on the
//! scheduler's heap in *event* order, each `(query, stage)` on its own
//! stream. The group body, the local-only rung and the boundary
//! checkpoint/crash bookkeeping are the session's; what this module keeps to
//! itself is how a stage re-executes after a crash — serially on its lane.

use std::cmp::Reverse;

use gillis_faas::brownout::BrownoutLevel;
use gillis_faas::chaos::QueryStatus;
use gillis_faas::fleet::FunctionSpec;
use gillis_faas::pipeline::PipelinePolicy;
use gillis_faas::Micros;

use super::scheduler::{Front, Scheduler, Source};
use super::session::{completed, wire_format};
use super::{ForkJoinRuntime, ServingReport};
use crate::plan::Placement;
use crate::Result;

/// Per-query bookkeeping of the pipelined front.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PipeQuery {
    arrival: Micros,
    deadline: Option<Micros>,
    level: BrownoutLevel,
    /// Sticky: some stage so far completed `Degraded`.
    degraded: bool,
    /// First-attempt `(count, successes)` produced by this query's stage
    /// executions, scored into the brownout controller at finalization.
    health: (u64, u64),
    /// Orchestrator crashes this query has survived; keys crash sampling so
    /// a replacement orchestrator samples a fresh draw instead of
    /// deterministically re-crashing at the same boundary.
    incarnation: u32,
    /// Cumulative stage execution time in milliseconds — the work a full
    /// restart would redo, recorded in each boundary checkpoint.
    elapsed_ms: f64,
}

impl Scheduler<'_, '_, '_> {
    /// Tracks queue-depth peaks after a push to stage `s`'s queue.
    fn note_stage_depth(&mut self, s: usize) {
        let depth = self.queues[s].len();
        self.counters.peak_stage_queue = self.counters.peak_stage_queue.max(depth as u64);
        if s == 0 {
            self.s.note_queue_depth(depth);
        }
    }

    /// Records query `qid`'s terminal outcome at `done`: exactly one
    /// latency sample and one status tally per admitted query, plus the
    /// brownout health observation — in finalization (event) order — and
    /// retires its checkpoints, so the cache only ever holds live queries.
    fn finalize(&mut self, qid: u64, done: Micros, status: QueryStatus) {
        let slot = self.q[qid as usize];
        let late = slot.deadline.is_some_and(|d| done > d) && completed(status);
        let status = if late {
            QueryStatus::DeadlineExceeded
        } else {
            status
        };
        self.s.record(slot.arrival, done, status);
        self.s.resilience.record_status(status);
        self.s.observe(slot.health);
        self.s.retire(qid);
    }

    /// Admits, queues, or sheds the arrival of query `qid` at `now`.
    pub(super) fn arrive_staged(
        &mut self,
        qid: u64,
        now: Micros,
        level: BrownoutLevel,
    ) -> Result<()> {
        let rt = self.s.rt;
        let deadline = rt.deadline_at(now);
        if rt.sheds_predicted(now, deadline) {
            self.s.shed_predicted_miss();
            return Ok(());
        }
        if self.free[0] == 0 && self.queues[0].len() >= self.queue_depth {
            self.s.shed_queue_full();
            return Ok(());
        }
        self.s.overload.admitted += 1;
        self.q[qid as usize] = PipeQuery {
            arrival: now,
            deadline,
            level,
            ..PipeQuery::default()
        };
        if self.free[0] > 0 {
            self.start_or_kill(0, qid, now)?;
        } else {
            self.queues[0].push_back(qid);
            self.note_stage_depth(0);
        }
        Ok(())
    }

    /// Dispatch checkpoint: starts query `qid` on stage `s` at `t`, or —
    /// when its deadline already expired while it waited — kills it with an
    /// explicit `DeadlineExceeded` (admitted queries are never silently
    /// dropped). A kill consumes no lane.
    fn start_or_kill(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
        let deadline = self.q[qid as usize].deadline;
        if deadline.is_some_and(|d| t >= d) {
            self.s.cancel_from(s);
            self.finalize(qid, t, QueryStatus::DeadlineExceeded);
            return Ok(());
        }
        self.free[s] -= 1;
        self.exec(s, qid, t)
    }

    /// Executes stage `s` for query `qid` starting at `t` on a lane the
    /// caller already reserved: inbound hand-off transfer, then the group
    /// body (fork/join with the full retry/breaker/budget machinery, or
    /// orchestrator-local compute below the brownout local-only rung).
    fn exec(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
        let rt = self.s.rt;
        self.counters.stage_dispatches += 1;
        let slot = self.q[qid as usize];
        let q = rt.query(qid, slot.deadline, slot.level);
        let mut rng = self.stream(qid, s, None);
        let fname = &rt.stage_fns[s];
        let mut now = self.s.acquire(fname, t)?;
        let began = now;
        if s > 0 {
            // Inter-stage hand-off: the upstream stage ships this query's
            // activation before compute starts (stage 0 receives the
            // request payload for free, like the fork-join master), in the
            // same wire format as fork/join payloads.
            let input = &rt.model.layers()[rt.plan.groups()[s].start];
            let bytes = wire_format(slot.level).wire_bytes(input.in_bytes());
            now += Micros::from_ms(rt.sample_transfer(1, bytes, &mut rng));
            self.counters.handoffs += 1;
        }
        let window = self.s.health_since((0, 0));
        let run = if slot.level >= BrownoutLevel::LocalOnly {
            self.s.run_group_local(s, now, &mut rng, q.profile)
        } else {
            self.s.run_group(s, now, &mut rng, q)?
        };
        let health = self.s.health_since(window);
        {
            let slot = &mut self.q[qid as usize];
            slot.health.0 += health.0;
            slot.health.1 += health.1;
            slot.degraded |= run.status == QueryStatus::Degraded;
        }
        let mut end = run.end;
        let mut status = run.status;
        if completed(status) {
            (end, status) = self.checkpoint_and_crash(s, qid, began, end, status)?;
        }
        // The orchestrator bills its busy window (failover replays
        // included); worker lanes billed themselves inside the group body.
        self.s.release(fname, end, (end - began).as_ms())?;
        if completed(status) {
            self.events.push(Reverse((end, s as u32, qid)));
            return Ok(());
        }
        // Terminal mid-pipeline: an error response, and downstream stages
        // never see the query (a missed deadline cancels their work).
        if status == QueryStatus::DeadlineExceeded {
            self.s.cancel_from(s + 1);
        }
        self.free[s] += 1;
        self.finalize(qid, end, status);
        self.cascade(s, end)
    }

    /// Stores query `qid`'s boundary checkpoint after stage `s`.
    fn checkpoint(&mut self, qid: u64, s: usize) {
        let slot = &self.q[qid as usize];
        self.s.checkpoint(qid, s, slot.elapsed_ms, slot.degraded);
    }

    /// Stage-boundary recovery after query `qid` completed stage `s` at
    /// `end`: stores the boundary checkpoint *first*, then samples
    /// orchestrator crashes. A crash with a live checkpoint failover-replays
    /// — the replacement orchestrator pays only the failover delay and
    /// re-executes nothing past the checkpointed boundary; without one it
    /// re-executes the lost stages serially on this lane (the classic full
    /// restart), on the fleet lanes whatever the query's rung. Returns the
    /// stage's final `(end, status)`.
    fn checkpoint_and_crash(
        &mut self,
        s: usize,
        qid: u64,
        began: Micros,
        mut end: Micros,
        mut status: QueryStatus,
    ) -> Result<(Micros, QueryStatus)> {
        let rt = self.s.rt;
        let i = qid as usize;
        self.q[i].elapsed_ms += (end - began).as_ms();
        self.checkpoint(qid, s);
        while let Some(crash) = self.s.sample_crash(qid, s, &mut self.q[i].incarnation, end) {
            end += crash.failover;
            self.s.count_failover(&crash);
            if crash.hit.is_some_and(|(_, ck)| ck.degraded) {
                status = QueryStatus::Degraded;
                self.q[i].degraded = true;
            }
            // Re-execute whatever the checkpoints do not cover (nothing on
            // a full hit at this boundary).
            let slot = self.q[i];
            for j in crash.resume_from()..=s {
                let mut rng = self.stream(qid, j, Some(slot.incarnation));
                let q = rt.query(qid, slot.deadline, slot.level);
                let run = self.s.run_group(j, end, &mut rng, q)?;
                match run.status {
                    QueryStatus::Ok => {}
                    QueryStatus::Degraded => {
                        status = QueryStatus::Degraded;
                        self.q[i].degraded = true;
                    }
                    terminal => return Ok((run.end, terminal)),
                }
                self.q[i].elapsed_ms += (run.end - end).as_ms();
                end = run.end;
                self.checkpoint(qid, j);
            }
        }
        Ok((end, status))
    }

    /// Handles the completion of stage `s` for query `qid` at `t`: advance
    /// downstream, queue, or park under backpressure.
    pub(super) fn complete(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
        if s + 1 == self.stages {
            let status = if self.q[qid as usize].degraded {
                QueryStatus::Degraded
            } else {
                QueryStatus::Ok
            };
            self.free[s] += 1;
            self.finalize(qid, t, status);
            return self.cascade(s, t);
        }
        let next = s + 1;
        if self.free[next] > 0 {
            // Invariant: a free lane means an empty queue, so the query
            // starts downstream immediately.
            self.free[s] += 1;
            self.start_or_kill(next, qid, t)?;
            self.cascade(s, t)
        } else if self.queues[next].len() < self.queue_depth {
            self.queues[next].push_back(qid);
            self.note_stage_depth(next);
            self.free[s] += 1;
            self.cascade(s, t)
        } else {
            // Downstream full: park holding the stage-`s` lane.
            self.parked[s].push_back(qid);
            self.counters.backpressure_stalls += 1;
            Ok(())
        }
    }

    /// Drains stage `s`'s queue into its free lanes at `t`. Every pop opens
    /// a queue slot, which promotes the oldest query parked upstream (and
    /// recursively frees *its* lane) — backpressure releases in FIFO order,
    /// upstream-ward.
    fn cascade(&mut self, s: usize, t: Micros) -> Result<()> {
        while self.free[s] > 0 {
            let Some(qid) = self.queues[s].pop_front() else {
                break;
            };
            self.promote_into(s, t)?;
            self.start_or_kill(s, qid, t)?;
        }
        Ok(())
    }

    /// A slot opened in stage `s`'s queue: promote the oldest query parked
    /// at stage `s - 1` into it and release the lane it was holding.
    fn promote_into(&mut self, s: usize, t: Micros) -> Result<()> {
        if s == 0 {
            return Ok(());
        }
        let up = s - 1;
        if let Some(p) = self.parked[up].pop_front() {
            self.queues[s].push_back(p);
            self.note_stage_depth(s);
            self.free[up] += 1;
            self.cascade(up, t)?;
        }
        Ok(())
    }
}

impl ForkJoinRuntime<'_> {
    /// Serves an open-loop Poisson stream with pipeline parallelism across
    /// layer groups: each group is a *stage* with `policy.lanes`
    /// orchestrator lanes (functions `"s0"`, `"s1"`, …, packaged like
    /// per-stage masters) and a bounded queue. Queries stream through the
    /// stages concurrently, so throughput is bounded by the slowest stage —
    /// the `t_pipeline` bottleneck — rather than by end-to-end latency, at
    /// the price of pipeline fill and one activation hand-off per boundary.
    ///
    /// Past admission nothing is lost: a query that finishes stage `s` while
    /// stage `s + 1`'s queue is full parks, holding its lane, until a slot
    /// opens; only the front door (ladder, bounded stage-0 queue,
    /// predicted-miss shedding) sheds, and a deadline that expires while a
    /// query waits ends it as an explicit `DeadlineExceeded`. The overload
    /// policy's `max_concurrency` is superseded by the lanes; faults, retry
    /// budgets and the ladder apply per stage execution; batching does not
    /// compose. Single-group plans delegate to [`Self::serve_open_loop`].
    ///
    /// # Errors
    ///
    /// Rejects invalid policies and non-positive rates; propagates fleet
    /// errors.
    pub fn serve_open_loop_pipelined(
        &self,
        policy: &PipelinePolicy,
        rate_per_sec: f64,
        queries: usize,
        prewarm_clients: usize,
        seed: u64,
    ) -> Result<ServingReport> {
        policy.validate()?;
        if self.plan.groups().len() <= 1 {
            // Nothing to overlap: serve on the plain open loop so
            // pipeline-disabled (single-stage) deployments are
            // bit-identical to the fork-join path.
            return self.serve_open_loop(rate_per_sec, queries, prewarm_clients, seed);
        }
        let source = Source::poisson(rate_per_sec, queries, seed)?;
        let mut fleet = self.warm_fleet(prewarm_clients.max(policy.lanes))?;
        // Stage orchestrators: one function per layer group, packaged with
        // the group's master-resident weights (nothing for worker-only
        // groups), warmed to the lane count.
        for (gi, g) in self.plan.groups().iter().enumerate() {
            let package_bytes = if g.placement == Placement::Workers {
                0
            } else {
                self.profile.analyses[gi].partitions[0].weight_bytes
            };
            fleet.deploy(FunctionSpec {
                name: self.stage_fns[gi].clone(),
                memory_bytes: self.platform.instance_memory_bytes,
                package_bytes,
            })?;
            fleet.prewarm(&self.stage_fns[gi], policy.lanes, Micros::ZERO)?;
        }
        self.schedule(fleet, source, seed, Front::Stages(*policy, queries))
    }
}

#[cfg(test)]
mod tests {
    use gillis_faas::chaos::ResiliencePolicy;
    use gillis_faas::overload::OverloadPolicy;
    use gillis_faas::pipeline::PipelineCounters;
    use gillis_faas::recovery::RecoveryPolicy;
    use gillis_faas::PlatformProfile;
    use gillis_model::zoo;
    use gillis_perf::PerfModel;

    use super::super::fixtures::{
        batch_fixture, forced_split_plan, orchestrator_chaos, recovery_fixture, stress_chaos,
    };
    use super::*;
    use crate::plan::ExecutionPlan;
    use crate::predict::predict_plan;

    #[test]
    fn pipelined_single_group_delegates_to_fork_join() {
        // A single-group plan has nothing to overlap: the pipelined entry
        // point must produce a bit-identical report to the plain open loop
        // (same RNG stream, same recorders), with zero pipeline accounting.
        let tiny = zoo::tiny_vgg();
        let plan = ExecutionPlan::single_function(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let runtime = ForkJoinRuntime::new(&tiny, &plan, platform).unwrap();
        let plain = runtime.serve_open_loop(40.0, 60, 2, 9).unwrap();
        let piped = runtime
            .serve_open_loop_pipelined(&PipelinePolicy::with_lanes(4), 40.0, 60, 2, 9)
            .unwrap();
        assert_eq!(plain.latency.count(), piped.latency.count());
        assert_eq!(
            plain.latency.mean().to_bits(),
            piped.latency.mean().to_bits()
        );
        assert_eq!(plain.resilience, piped.resilience);
        assert_eq!(plain.cold_starts, piped.cold_starts);
        assert_eq!(piped.pipeline, PipelineCounters::default());
    }

    #[test]
    fn pipelined_serving_is_deterministic_with_backpressure_and_chaos() {
        // The full stack at once — multi-stage plan, faults, hedged
        // retries, single-lane stages with depth-1 queues at ~3x the
        // bottleneck rate — must (a) replay bit-identically from the seed
        // (the loop is sequential over a totally ordered event stream, so
        // `GILLIS_THREADS` cannot influence it), and (b) park upstream
        // completions instead of dropping them when downstream queues fill.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(&tiny, &plan, platform)
            .unwrap()
            .with_chaos(stress_chaos(7))
            .unwrap()
            .with_policy(ResiliencePolicy::backoff_hedged());
        let policy = PipelinePolicy {
            lanes: 1,
            queue_depth: 1,
        };
        // Single-lane saturation is 1000/bottleneck >= stages/predicted
        // queries per ms; 3x the upper bound overloads every stage.
        let stages = plan.groups().len();
        let rate = 3.0 * stages as f64 * 1000.0 / predicted;
        let queries = 150;
        let run = || -> ServingReport {
            runtime
                .serve_open_loop_pipelined(&policy, rate, queries, 1, 21)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.latency.count(), b.latency.count());
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert_eq!(
            a.latency.percentile(99.0).to_bits(),
            b.latency.percentile(99.0).to_bits()
        );
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.overload, b.overload);
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(
            a.billing.usd_total().to_bits(),
            b.billing.usd_total().to_bits()
        );
        assert_eq!(a.billing.invocations(), b.billing.invocations());

        assert_eq!(a.pipeline.stages, stages as u64);
        assert!(
            a.pipeline.backpressure_stalls > 0,
            "depth-1 queues at 3x saturation must park: {:?}",
            a.pipeline
        );
        assert!(
            a.pipeline.peak_stage_queue <= policy.queue_depth as u64,
            "queues are bounded: {:?}",
            a.pipeline
        );
        assert!(a.pipeline.handoffs > 0);
        // Sheds happen (bounded admission), and no admitted query is lost.
        assert!(a.overload.shed_queue_full > 0);
        assert_eq!(a.overload.admitted + a.overload.shed(), queries as u64);
        assert_eq!(a.latency.count() as u64, a.overload.admitted);
    }

    #[test]
    fn pipelining_beats_fork_join_goodput_at_saturation() {
        // The tentpole claim in miniature: with per-stage lane pools equal
        // to the fork-join concurrency, streaming queries through stages
        // admits and completes substantially more of an overloaded arrival
        // stream, because throughput is bounded by the slowest stage rather
        // than the end-to-end latency.
        let tiny = zoo::tiny_vgg();
        let plan = forced_split_plan(&tiny);
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
        let runtime = ForkJoinRuntime::new(&tiny, &plan, platform).unwrap();
        let concurrency = 2;
        let slo_ms = 4.0 * predicted;
        let rate = 2.0 * 1000.0 * concurrency as f64 / predicted;
        let queries = 300;
        let forkjoin = runtime
            .clone()
            .with_overload(OverloadPolicy::for_slo(slo_ms, concurrency))
            .unwrap()
            .serve_open_loop(rate, queries, concurrency, 11)
            .unwrap();
        let pipelined = runtime
            .clone()
            .with_overload(OverloadPolicy::for_slo(slo_ms, concurrency))
            .unwrap()
            .serve_open_loop_pipelined(
                &PipelinePolicy::with_lanes(concurrency),
                rate,
                queries,
                concurrency,
                11,
            )
            .unwrap();
        assert!(
            pipelined.overload.admitted > forkjoin.overload.admitted,
            "pipeline {} vs fork-join {} admitted",
            pipelined.overload.admitted,
            forkjoin.overload.admitted
        );
        let fj_ok = forkjoin.by_status.ok.count() + forkjoin.by_status.degraded.count();
        let pp_ok = pipelined.by_status.ok.count() + pipelined.by_status.degraded.count();
        assert!(
            pp_ok as f64 >= 1.3 * fj_ok as f64,
            "goodput: pipeline {pp_ok} vs fork-join {fj_ok}"
        );
    }

    #[test]
    fn pipelined_serving_recovers_from_crashes_deterministically() {
        // The pipeline path has its own orchestrators (one per stage lane):
        // crashes there also replay from checkpoints, and downstream stages
        // stay bit-identical because normal execution never re-keys its RNG.
        let (runtime, predicted) = recovery_fixture();
        let lanes = 2;
        let rate = 0.5 * 1000.0 * lanes as f64 / predicted;
        let run = || {
            runtime
                .clone()
                .with_chaos(orchestrator_chaos(0.25, 9))
                .unwrap()
                .with_recovery(RecoveryPolicy::default())
                .unwrap()
                .with_overload(OverloadPolicy::for_slo(6.0 * predicted, lanes))
                .unwrap()
                .serve_open_loop_pipelined(&PipelinePolicy::with_lanes(lanes), rate, 150, lanes, 7)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        assert!(a.recovery.orchestrator_crashes > 0);
        assert!(a.recovery.failover_replays > 0);
    }

    #[test]
    fn finished_queries_retire_their_checkpoints() {
        // 200 queries through VGG-11's three stages store 600 checkpoints
        // in a 256-entry cache. Every one belongs to a query that finishes,
        // so none may be evicted under capacity pressure: a finished query's
        // entries are consumed at finalization, leaving the FIFO to live
        // queries only (`Session::finish` asserts the cache ends empty).
        let (vgg, plan, platform, pred) = batch_fixture();
        assert_eq!(plan.groups().len(), 3);
        let lanes = 2;
        let rate = 0.5 * 1000.0 * lanes as f64 / pred.latency_ms;
        let report = ForkJoinRuntime::new(vgg, plan, platform)
            .unwrap()
            .with_recovery(RecoveryPolicy::default())
            .unwrap()
            .serve_open_loop_pipelined(&PipelinePolicy::with_lanes(lanes), rate, 200, lanes, 5)
            .unwrap();
        assert_eq!(report.latency.count(), 200);
        assert_eq!(report.recovery.checkpoints_stored, 600);
        assert_eq!(report.recovery.checkpoint_evictions, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Backpressure never loses a query: for any seed, rate, and lane
        /// count — with chaos, retries, deadlines, and bounded stage queues
        /// all active — every arrival is either shed at admission or
        /// recorded with a terminal status (the scheduler's own debug
        /// assertion), the two shed tallies agree, and stage queues never
        /// exceed the policy depth.
        #[test]
        fn pipelined_serving_never_loses_a_query(
            (seed, rate_scale, lanes) in (0u64..1000, 1u32..6, 1usize..4),
        ) {
            let tiny = zoo::tiny_vgg();
            let plan = forced_split_plan(&tiny);
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let predicted = predict_plan(&tiny, &plan, &perf).unwrap().latency_ms;
            let stages = plan.groups().len();
            let runtime = ForkJoinRuntime::new(&tiny, &plan, platform)
                .unwrap()
                .with_chaos(stress_chaos(seed ^ 0xabc))
                .unwrap()
                .with_policy(ResiliencePolicy::backoff_hedged())
                .with_overload(OverloadPolicy::for_slo(3.0 * predicted, lanes))
                .unwrap();
            let rate = rate_scale as f64 * stages as f64 * 1000.0 / predicted;
            let queries = 120usize;
            let policy = PipelinePolicy { lanes, queue_depth: 2 };
            let report = runtime
                .serve_open_loop_pipelined(&policy, rate, queries, lanes, seed)
                .unwrap();
            proptest::prop_assert_eq!(report.resilience.shed_queries, report.overload.shed());
            proptest::prop_assert!(
                report.pipeline.peak_stage_queue <= policy.queue_depth as u64
            );
            proptest::prop_assert!(report.pipeline.handoffs <= report.pipeline.stage_dispatches);
        }
    }
}
