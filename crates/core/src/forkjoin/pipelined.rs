//! The event-ordered scheduler: pipeline-parallel serving across layer
//! groups, one completion heap over per-stage lane pools.
//!
//! Unlike the eager schedulers, a query here waits in queues between stages,
//! so executions interleave in *event* order. To keep that interleaving from
//! shifting anyone's draws, arrival times are drawn from the run stream
//! before any execution, and every `(query, stage)` execution gets its own
//! stream. The group body, the local-only rung and the boundary
//! checkpoint/crash bookkeeping are the session's; what this module keeps to
//! itself is how a stage re-executes after a crash — serially on its lane.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use gillis_faas::brownout::BrownoutLevel;
use gillis_faas::chaos::{QueryStatus, ResilienceCounters};
use gillis_faas::fleet::FunctionSpec;
use gillis_faas::pipeline::{PipelineCounters, PipelinePolicy};
use gillis_faas::workload::PoissonArrivals;
use gillis_faas::Micros;

use super::session::{completed, wire_format, Session};
use super::{replication_seed, ForkJoinRuntime, ServingReport};
use crate::plan::Placement;
use crate::Result;

/// Decorrelates the pipelined path's per-`(query, stage)` RNG streams from
/// the run seed's arrival stream.
const PIPELINE_RNG_SALT: u64 = 0x7069_7065_6c69_6e65; // "pipeline"

/// Name of the stage-`gi` orchestrator function (the per-stage analogue of
/// `"master"`, packaged with the group's master-resident weights).
fn stage_fn(gi: usize) -> String {
    format!("s{gi}")
}

/// Per-query bookkeeping inside the pipelined serving loop.
#[derive(Debug, Clone, Copy, Default)]
struct PipeQuery {
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

/// The pipelined serving loop's mutable state: the session, per-stage
/// lanes, bounded dispatch queues, the parking list that implements
/// backpressure, and the completion-event heap. Everything runs
/// sequentially on the caller over a totally ordered event stream — see
/// [`ForkJoinRuntime::serve_open_loop_pipelined`] for the determinism
/// argument.
struct PipelineSim<'s, 'a> {
    s: Session<'s, 'a>,
    policy: PipelinePolicy,
    seed: u64,
    stages: usize,
    counters: PipelineCounters,
    /// Free orchestrator lanes per stage.
    free: Vec<usize>,
    /// Bounded per-stage dispatch queues; stage 0's doubles as the
    /// admission queue. Invariant: a stage with a free lane has an empty
    /// queue.
    queues: Vec<VecDeque<u64>>,
    /// `parked[s]`: queries that finished stage `s` but found stage
    /// `s + 1`'s queue full. They hold their stage-`s` lane until a
    /// downstream slot opens — backpressure propagates upstream as lost
    /// lanes, never as dropped queries.
    parked: Vec<VecDeque<u64>>,
    /// Per-query slots, indexed by query id.
    q: Vec<PipeQuery>,
    /// Pending stage completions, totally ordered by
    /// `(virtual time, stage, query)`.
    events: BinaryHeap<Reverse<(Micros, u32, u64)>>,
}

impl PipelineSim<'_, '_> {
    /// RNG for query `q`'s execution at stage `s`: a pure function of
    /// `(run seed, q, s)`, so event interleaving can never shift which
    /// draws an execution sees. A replacement orchestrator's re-executions
    /// after crash number `replay` draw from a decorrelated stream, so a
    /// restarted stage does not redraw the exact jitter that accompanied the
    /// crash. Faults stay site-keyed by `(query, group, part, attempt)` and
    /// therefore repeat — a stage that succeeded before the crash succeeds
    /// again, which is what makes the restart converge.
    fn stage_rng(&self, q: u64, s: usize, replay: Option<u32>) -> StdRng {
        let run = self.seed ^ PIPELINE_RNG_SALT;
        let stream = replay.map_or(run, |inc| replication_seed(run, u64::from(inc)));
        StdRng::seed_from_u64(replication_seed(stream, q * self.stages as u64 + s as u64))
    }

    /// Tracks queue-depth peaks after a push to stage `s`'s queue.
    fn note_queue_depth(&mut self, s: usize) {
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
    fn arrive(&mut self, qid: u64, now: Micros) -> Result<()> {
        // Brownout front door first, exactly like the other open loops.
        let Some(level) = self.s.front_door() else {
            return Ok(());
        };
        let rt = self.s.rt;
        let deadline = rt.deadline_at(now);
        if rt.sheds_predicted(now, deadline) {
            self.s.shed_predicted_miss();
            return Ok(());
        }
        if self.free[0] == 0 && self.queues[0].len() >= self.policy.queue_depth {
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
            self.note_queue_depth(0);
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
        let mut rng = self.stage_rng(qid, s, None);
        let fname = stage_fn(s);
        let orch = self.s.fleet.acquire(&fname, t)?;
        let mut now = orch.ready_at;
        let began = now;
        if s > 0 {
            // Inter-stage hand-off: the upstream stage ships this query's
            // activation before compute starts (stage 0 receives the
            // request payload for free, like the fork-join master), in the
            // same wire format as fork/join payloads.
            let input = &rt.model.layers()[rt.plan.groups()[s].start];
            let bytes = wire_format(slot.level).wire_bytes(input.in_bytes());
            now += Micros::from_ms(rt.sample_transfer_parts(&[bytes], &mut rng));
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
        self.s
            .billing
            .record((end - began).as_ms(), rt.platform.instance_memory_bytes);
        self.s.fleet.release(&fname, end)?;
        match status {
            QueryStatus::Failed => {
                // Terminal mid-pipeline: an error response, downstream
                // stages never see the query.
                self.free[s] += 1;
                self.finalize(qid, end, QueryStatus::Failed);
                self.cascade(s, end)
            }
            QueryStatus::DeadlineExceeded => {
                self.s.cancel_from(s + 1);
                self.free[s] += 1;
                self.finalize(qid, end, QueryStatus::DeadlineExceeded);
                self.cascade(s, end)
            }
            _ => {
                self.events.push(Reverse((end, s as u32, qid)));
                Ok(())
            }
        }
    }

    /// Stores query `qid`'s boundary checkpoint after stage `s` at `at`.
    fn checkpoint(&mut self, qid: u64, s: usize, at: Micros) {
        let slot = &self.q[qid as usize];
        self.s
            .checkpoint(qid, s, slot.elapsed_ms, slot.degraded, at);
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
        self.checkpoint(qid, s, end);
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
                let mut rng = self.stage_rng(qid, j, Some(slot.incarnation));
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
                self.checkpoint(qid, j, end);
            }
        }
        Ok((end, status))
    }

    /// Handles the completion of stage `s` for query `qid` at `t`: advance
    /// downstream, queue, or park under backpressure.
    fn complete(&mut self, s: usize, qid: u64, t: Micros) -> Result<()> {
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
        } else if self.queues[next].len() < self.policy.queue_depth {
            self.queues[next].push_back(qid);
            self.note_queue_depth(next);
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
            self.note_queue_depth(s);
            self.free[up] += 1;
            self.cascade(up, t)?;
        }
        Ok(())
    }
}

impl ForkJoinRuntime<'_> {
    /// Serves an open-loop Poisson stream with pipeline parallelism across
    /// layer groups: each group becomes a *stage* with its own pool of
    /// `policy.lanes` orchestrator lanes (functions `"s0"`, `"s1"`, …,
    /// packaged like per-stage masters) and a bounded queue in front of it.
    /// Queries stream through stages concurrently on the virtual clock, so
    /// steady-state throughput is bounded by the slowest stage — the
    /// `t_pipeline` bottleneck — rather than by end-to-end latency, at the
    /// price of pipeline-fill latency and one activation hand-off per stage
    /// boundary.
    ///
    /// Backpressure is explicit and lossless past admission: a query that
    /// finishes stage `s` while stage `s + 1`'s queue is full *parks*,
    /// holding its stage-`s` lane, until a downstream slot opens; only the
    /// admission front door (brownout ladder, bounded stage-0 queue,
    /// predicted-miss shedding) ever sheds, and every admitted query is
    /// recorded exactly once — deadline kills at dispatch checkpoints are
    /// explicit `DeadlineExceeded` outcomes with their undone work counted
    /// as cancelled attempts.
    ///
    /// Determinism: the loop is sequential on the caller over a totally
    /// ordered event stream — completions and arrivals merge by virtual
    /// time (completions first on ties), completion ties break by
    /// `(stage, query)` — arrival times are precomputed from the run RNG
    /// before any execution draw, and each `(query, stage)` execution draws
    /// from its own RNG derived via [`replication_seed`]. Reports are
    /// therefore bit-identical for any `GILLIS_THREADS` and independent of
    /// event interleaving. Single-group plans have nothing to pipeline and
    /// delegate to [`Self::serve_open_loop`] unchanged.
    ///
    /// The overload policy composes as the admission front door (deadlines,
    /// predicted-miss shedding, breaker bank — note `max_concurrency` is
    /// superseded by per-stage lanes); chaos/outage faults, retry budgets,
    /// and the brownout ladder all apply per stage execution. Batching does
    /// not compose: the pipelined path serves per-query.
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
        let stages = self.plan.groups().len();
        if stages <= 1 {
            // Nothing to overlap: serve on the plain open loop so
            // pipeline-disabled (single-stage) deployments are
            // bit-identical to the fork-join path.
            return self.serve_open_loop(rate_per_sec, queries, prewarm_clients, seed);
        }
        let arrivals = PoissonArrivals::new(rate_per_sec)?;
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
                name: stage_fn(gi),
                memory_bytes: self.platform.instance_memory_bytes,
                package_bytes,
            })?;
            fleet.prewarm(&stage_fn(gi), policy.lanes, Micros::ZERO)?;
        }
        // Arrival times come out of the run RNG before any execution draw,
        // so the arrival process is independent of execution interleaving.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Micros::ZERO;
        let arrival_times: Vec<Micros> = (0..queries)
            .map(|_| {
                t += arrivals.next_gap(&mut rng);
                t
            })
            .collect();
        let (mut billing, mut resilience) = (self.billing_meter(), ResilienceCounters::default());
        let mut sim = PipelineSim {
            s: Session::for_run(self, &mut fleet, &mut billing, &mut resilience),
            policy: *policy,
            seed,
            stages,
            counters: PipelineCounters {
                stages: stages as u64,
                ..PipelineCounters::default()
            },
            free: vec![policy.lanes; stages],
            queues: vec![VecDeque::new(); stages],
            parked: vec![VecDeque::new(); stages],
            q: vec![PipeQuery::default(); queries],
            events: BinaryHeap::new(),
        };
        // Completions and arrivals merge by virtual time, completions first
        // on ties.
        let mut next_arrival = 0usize;
        loop {
            let arrival = arrival_times.get(next_arrival).copied();
            let completion = sim.events.peek().map(|Reverse((t, _, _))| *t);
            match (arrival, completion) {
                (None, None) => break,
                (Some(a), c) if c.is_none_or(|c| c > a) => {
                    sim.arrive(next_arrival as u64, a)?;
                    next_arrival += 1;
                }
                _ => {
                    let Reverse((t, s, qid)) = sim.events.pop().expect("a completion is pending");
                    sim.complete(s as usize, qid, t)?;
                }
            }
        }
        let mut report = sim.s.finish()?;
        report.pipeline = sim.counters;
        for gi in 0..stages {
            report.cold_starts += fleet.stats(&stage_fn(gi))?.0;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use gillis_faas::chaos::ResiliencePolicy;
    use gillis_faas::overload::OverloadPolicy;
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
        /// recorded with a terminal status, and stage queues never exceed
        /// the policy depth.
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
            proptest::prop_assert_eq!(
                report.overload.admitted + report.overload.shed(),
                queries as u64
            );
            proptest::prop_assert_eq!(report.latency.count() as u64, report.overload.admitted);
            proptest::prop_assert_eq!(report.resilience.shed_queries, report.overload.shed());
            proptest::prop_assert!(
                report.pipeline.peak_stage_queue <= policy.queue_depth as u64
            );
            proptest::prop_assert!(report.pipeline.handoffs <= report.pipeline.stage_dispatches);
        }
    }
}
