//! What a serving or simulation run returns.

use gillis_faas::batch::BatchCounters;
use gillis_faas::billing::BillingMeter;
use gillis_faas::brownout::BrownoutCounters;
use gillis_faas::chaos::{QueryStatus, ResilienceCounters};
use gillis_faas::metrics::{LatencyStats, StatusLatency};
use gillis_faas::overload::OverloadCounters;
use gillis_faas::pipeline::PipelineCounters;
use gillis_faas::recovery::RecoveryCounters;

/// Outcome of a single simulated query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// End-to-end latency (the master's duration).
    pub latency_ms: f64,
    /// Per-group breakdown: `(fork, compute, join)` in milliseconds.
    pub group_ms: Vec<(f64, f64, f64)>,
    /// Durations of every worker execution, for billing.
    pub worker_ms: Vec<f64>,
    /// How the query ended.
    pub status: QueryStatus,
    /// Retry/hedge/timeout/degradation accounting for this query (the
    /// per-run `*_queries` tallies stay zero here; `status` carries the
    /// query's own terminal state).
    pub resilience: ResilienceCounters,
}

/// Result of serving a workload.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Latency distribution of *admitted* queries (failed queries record
    /// their error response time; shed queries never run and record
    /// nothing here).
    pub latency: LatencyStats,
    /// Latency split by terminal status, so degraded local-fallback and
    /// deadline-expired latencies do not dilute the ok-path percentiles.
    pub by_status: StatusLatency,
    /// Accumulated billing.
    pub billing: BillingMeter,
    /// Cold starts observed across all functions.
    pub cold_starts: u64,
    /// Honest resilience accounting: ok/degraded/failed/shed/deadline
    /// queries, retries, hedges, hedge wins, timeouts, locally recomputed
    /// shards.
    pub resilience: ResilienceCounters,
    /// Overload accounting: admissions, sheds, cancelled attempts, queue
    /// depth, breaker transitions. All zero without an [`crate::OverloadPolicy`].
    pub overload: OverloadCounters,
    /// Batch-formation accounting: batches dispatched, batched queries,
    /// batch-1 fast-path hits, close reasons. All zero outside
    /// [`crate::ForkJoinRuntime::serve_open_loop_batched`].
    pub batch: BatchCounters,
    /// Brownout-ladder accounting: arrivals per service level, step
    /// downs/ups, ladder sheds, probes. All zero without a
    /// [`crate::BrownoutPolicy`].
    pub brownout: BrownoutCounters,
    /// Pipeline-stage accounting: stage dispatches, inter-stage hand-offs,
    /// backpressure stalls, peak stage-queue depth. All zero outside
    /// [`crate::ForkJoinRuntime::serve_open_loop_pipelined`].
    pub pipeline: PipelineCounters,
    /// Stage-level recovery accounting: checkpoint hits/misses/evictions,
    /// stages saved, and orchestrator crashes split into failover replays
    /// vs full restarts. Crash tallies appear
    /// whenever the chaos config samples orchestrator crashes; the
    /// checkpoint fields need a [`gillis_faas::RecoveryPolicy`] (see
    /// [`crate::ForkJoinRuntime::with_recovery`]).
    pub recovery: RecoveryCounters,
}

impl ServingReport {
    /// Worker invocations per first attempt (see
    /// [`ResilienceCounters::retry_amplification`]): the load-amplification
    /// factor retries and hedges added on top of admitted work.
    pub fn retry_amplification(&self) -> f64 {
        self.resilience.retry_amplification()
    }

    /// Folds another replication's report into this one: latency samples
    /// are concatenated and every counter family (billing, resilience,
    /// overload, batch, brownout) is summed, so percentiles, retry
    /// amplification, and brownout level occupancy aggregate honestly
    /// across seeds.
    pub fn absorb(&mut self, other: &ServingReport) {
        self.latency.absorb(&other.latency);
        self.by_status.absorb(&other.by_status);
        self.billing.merge(&other.billing);
        self.cold_starts += other.cold_starts;
        self.resilience.absorb(&other.resilience);
        self.overload.absorb(&other.overload);
        self.batch.absorb(&other.batch);
        self.brownout.absorb(&other.brownout);
        self.pipeline.absorb(&other.pipeline);
        self.recovery.absorb(&other.recovery);
    }
}

/// Latency distribution plus resilience accounting over a batch of
/// independent simulated queries (see [`crate::ForkJoinRuntime::simulate_many`]).
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Warm-query latency distribution in replication order.
    pub latency: LatencyStats,
    /// Accumulated resilience counters, including per-status query tallies.
    pub resilience: ResilienceCounters,
}

impl SimulationReport {
    /// Worker invocations per first attempt (see
    /// [`ResilienceCounters::retry_amplification`]).
    pub fn retry_amplification(&self) -> f64 {
        self.resilience.retry_amplification()
    }

    /// Folds another replication's report into this one.
    pub fn absorb(&mut self, other: &SimulationReport) {
        self.latency.absorb(&other.latency);
        self.resilience.absorb(&other.resilience);
    }
}
