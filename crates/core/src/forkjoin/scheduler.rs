//! The one scheduler. Every serving driver is an arrival source — a
//! closed-loop client population, a Poisson process, per-class batch
//! windows — in front of one event loop, which merges arrivals with the
//! completions of one `(time, stage, query)` heap by virtual time
//! (completions first on ties) and runs sequentially on the caller.
//!
//! What an admitted query becomes is its driver's front. The `eager` front
//! runs it as one execution whose body is [`Session::run_query`], dispatched
//! at admission on the earliest-free master of a pool (unbounded without an
//! overload policy); a formed batch is one such execution carrying its
//! members. Its end is known at dispatch, so it frees nothing a later event
//! waits on. The `pipelined` front runs one execution per layer group on
//! that stage's lanes, with bounded queues between stages; each stage's
//! completion is popped off the heap to move the query on.
//!
//! Arrival gaps come from the run stream `seed`, drawn as the loop reaches
//! them; every execution draws from its own stream ([`Scheduler::stream`]).
//! Neither interleaving nor shedding shifts anyone's draws, so a report is a
//! pure function of the seed at any `GILLIS_THREADS`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use gillis_faas::chaos::ResilienceCounters;
use gillis_faas::fleet::Fleet;
use gillis_faas::pipeline::{PipelineCounters, PipelinePolicy};
use gillis_faas::workload::{ClosedLoop, PoissonArrivals};
use gillis_faas::Micros;

use super::eager::{Admission, Windows};
use super::pipelined::PipeQuery;
use super::session::Session;
use super::{replication_seed, ForkJoinRuntime, ServingReport};
use crate::Result;

/// Decorrelates the execution streams from the run seed's arrival stream.
const EXEC_RNG_SALT: u64 = 0x7069_7065_6c69_6e65; // "pipeline"

/// Where a run's arrivals come from: when the next ones are ready, `left`
/// of them still to come. A Poisson process keeps the next arrival ready,
/// its gap drawn from the run stream; a closed loop keeps one entry per
/// client, who issues again `think` after each response.
pub(super) struct Source {
    ready: BinaryHeap<Reverse<Micros>>,
    left: usize,
    poisson: Option<(PoissonArrivals, StdRng)>,
    think: Option<Micros>,
}

impl Source {
    /// `queries` arrivals at `rate_per_sec`, gaps drawn from stream `seed`.
    pub fn poisson(rate_per_sec: f64, queries: usize, seed: u64) -> Result<Self> {
        let gaps = PoissonArrivals::new(rate_per_sec)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let first = gaps.next_gap(&mut rng);
        Ok(Source {
            ready: BinaryHeap::from([Reverse(first)]),
            left: queries,
            poisson: Some((gaps, rng)),
            think: None,
        })
    }

    /// Every client issues its first query at time zero.
    pub fn closed(workload: &ClosedLoop) -> Self {
        Source {
            ready: vec![Reverse(Micros::ZERO); workload.clients].into(),
            left: workload.total_queries,
            poisson: None,
            think: Some(workload.think_time),
        }
    }

    /// Takes the next arrival if it comes before `horizon` (ties go to
    /// whatever the horizon marks).
    fn take_before(&mut self, horizon: Option<Micros>) -> Option<Micros> {
        let Reverse(at) = *self.ready.peek().filter(|_| self.left > 0)?;
        if horizon.is_some_and(|h| h <= at) {
            return None;
        }
        self.ready.pop();
        self.left -= 1;
        if let Some((gaps, rng)) = self.poisson.as_mut() {
            self.ready.push(Reverse(at + gaps.next_gap(rng)));
        }
        Some(at)
    }

    /// A closed-loop client answered (or shed) at `at` issues again after
    /// thinking; open-loop arrivals do not depend on responses.
    pub fn reissue(&mut self, at: Micros) {
        if let Some(think) = self.think {
            self.ready.push(Reverse(at + think));
        }
    }

    /// Closed-loop clients self-limit: there is no admission queue.
    pub fn is_closed(&self) -> bool {
        self.think.is_some()
    }
}

/// How admitted work reaches its executors.
pub(super) enum Front<'r> {
    /// Eager: every query on the earliest-free of this many masters,
    /// unbounded for `None`.
    Masters(Option<usize>),
    /// Batched: per-class windows in front of this many masters.
    Windows(Windows<'r>, usize),
    /// Pipelined: per-stage lane pools and queues for this many arrivals.
    Stages(PipelinePolicy, usize),
}

/// One serving run: the session, the arrival source, the front's state and
/// the completion heap.
pub(super) struct Scheduler<'r, 's, 'a> {
    pub s: Session<'s, 'a>,
    /// The run seed: keys every execution stream.
    seed: u64,
    pub source: Source,
    /// The masters eager executions occupy.
    pub door: Admission,
    pub windows: Option<Windows<'r>>,
    /// Stages per query: the plan's groups when pipelined, else one.
    pub stages: usize,
    /// Bound of every stage queue (pipelined).
    pub queue_depth: usize,
    pub counters: PipelineCounters,
    /// Free orchestrator lanes per stage; empty unless pipelined.
    pub free: Vec<usize>,
    /// Bounded per-stage dispatch queues; stage 0's doubles as the
    /// admission queue. Invariant: a stage with a free lane has an empty
    /// queue.
    pub queues: Vec<VecDeque<u64>>,
    /// `parked[s]`: queries that finished stage `s` but found stage
    /// `s + 1`'s queue full. They hold their stage-`s` lane until a
    /// downstream slot opens — backpressure propagates upstream as lost
    /// lanes, never as dropped queries.
    pub parked: Vec<VecDeque<u64>>,
    /// Per-query slots of the pipelined front, indexed by query id.
    pub q: Vec<PipeQuery>,
    /// Pending stage completions, totally ordered by
    /// `(virtual time, stage, query)`.
    pub events: BinaryHeap<Reverse<(Micros, u32, u64)>>,
    /// The last instant handled: an arrival, a stage completion or a
    /// window close.
    clock: Micros,
}

impl Scheduler<'_, '_, '_> {
    /// The RNG of query `q`'s execution at stage `s` (0 outside the
    /// pipeline; a batch runs on its first member's): a pure function of
    /// `(run seed, q, s)`. A replacement orchestrator's re-executions after
    /// crash number `replay` draw from a decorrelated stream, so a restarted
    /// stage does not redraw the jitter that accompanied the crash. Faults
    /// stay site-keyed by `(query, group, part, attempt)` and therefore
    /// repeat — a stage that succeeded before the crash succeeds again,
    /// which is what makes the restart converge.
    pub fn stream(&self, q: u64, s: usize, replay: Option<u32>) -> StdRng {
        let run = self.seed ^ EXEC_RNG_SALT;
        let stream = replay.map_or(run, |inc| replication_seed(run, u64::from(inc)));
        StdRng::seed_from_u64(replication_seed(stream, q * self.stages as u64 + s as u64))
    }

    /// Whether admitted queries flow through per-stage lane pools.
    pub fn pipelined(&self) -> bool {
        !self.free.is_empty()
    }

    /// Moves virtual time to `at`. The loop handles its instants in order,
    /// so `at` never precedes the last one.
    pub fn advance(&mut self, at: Micros) {
        debug_assert!(
            at >= self.clock,
            "virtual time ran back from {:?} to {at:?}",
            self.clock
        );
        self.clock = at;
    }

    /// The event loop: arrivals and completions merged by virtual time,
    /// then the batch windows still open, each at its close time.
    fn run(mut self) -> Result<ServingReport> {
        let mut id = 0u64;
        loop {
            let completion = self.events.peek().map(|Reverse((t, _, _))| *t);
            if let Some(at) = self.source.take_before(completion) {
                self.arrive(id, at)?;
                id += 1;
            } else if let Some(Reverse((t, s, q))) = self.events.pop() {
                self.advance(t);
                self.complete(s as usize, q, t)?;
            } else if let Some((ci, close_at)) = self.due() {
                self.flush(ci, close_at, false)?;
            } else {
                break;
            }
        }
        let mut report = self.s.finish()?;
        // Every arrival the source handed out ends in exactly one terminal
        // status, and every one not shed leaves one latency sample.
        debug_assert_eq!(report.resilience.queries(), id, "arrivals lost or doubled");
        debug_assert_eq!(
            report.latency.count() as u64,
            id - report.resilience.shed_queries,
            "latency samples of the served arrivals"
        );
        // Every worker launch and every orchestrator execution — a pipeline
        // stage, a batch, or else a served query — is billed exactly once.
        let orchestrations = if !self.free.is_empty() {
            self.counters.stage_dispatches
        } else if let Some(w) = &self.windows {
            w.counters.batches
        } else {
            report.latency.count() as u64
        };
        debug_assert_eq!(
            report.billing.invocations(),
            report.resilience.worker_invocations + orchestrations,
            "launches and orchestrator executions billed once each"
        );
        report.batch = self.windows.map(|w| w.counters).unwrap_or_default();
        report.pipeline = self.counters;
        Ok(report)
    }

    /// Arrival `q` at `now`: batch windows that expired before it close
    /// first (nothing else advances virtual time, so lazy closing is exact),
    /// then the brownout ladder classifies it before any other admission
    /// decision, then the driver's front takes it.
    fn arrive(&mut self, q: u64, now: Micros) -> Result<()> {
        while let Some((ci, close_at)) = self.due().filter(|&(_, at)| at <= now) {
            self.flush(ci, close_at, false)?;
        }
        self.advance(now);
        let Some(level) = self.s.front_door() else {
            // A shed closed-loop client thinks and retries later.
            self.source.reissue(now);
            return Ok(());
        };
        if self.pipelined() {
            self.arrive_staged(q, now, level)
        } else if self.windows.is_some() {
            self.arrive_batched(q, now, level)
        } else {
            self.arrive_eager(q, now, level)
        }
    }
}

impl ForkJoinRuntime<'_> {
    /// Serves `source`'s arrivals through `front` on `fleet`, with every
    /// execution stream keyed by `seed`.
    pub(super) fn schedule(
        &self,
        mut fleet: Fleet,
        source: Source,
        seed: u64,
        front: Front<'_>,
    ) -> Result<ServingReport> {
        let (mut billing, mut resilience) = (self.billing_meter(), ResilienceCounters::default());
        let mut sched = Scheduler {
            s: Session::for_run(self, &mut fleet, &mut billing, &mut resilience),
            seed,
            source,
            door: Admission::new(None),
            windows: None,
            stages: 1,
            queue_depth: 0,
            counters: PipelineCounters::default(),
            free: Vec::new(),
            queues: Vec::new(),
            parked: Vec::new(),
            q: Vec::new(),
            events: BinaryHeap::new(),
            clock: Micros::ZERO,
        };
        match front {
            Front::Masters(masters) => sched.door = Admission::new(masters),
            Front::Windows(windows, masters) => {
                sched.door = Admission::new(Some(masters));
                sched.windows = Some(windows);
            }
            Front::Stages(policy, arrivals) => {
                let stages = self.plan.groups().len();
                sched.stages = stages;
                sched.queue_depth = policy.queue_depth;
                sched.counters.stages = stages as u64;
                sched.free = vec![policy.lanes; stages];
                sched.queues = vec![VecDeque::new(); stages];
                sched.parked = vec![VecDeque::new(); stages];
                sched.q = vec![PipeQuery::default(); arrivals];
            }
        }
        sched.run()
    }
}
