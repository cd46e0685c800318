//! The six simulator suites. Each is a pure function of its seed (and of
//! the ambient policy stack, for the three that compose with it) returning
//! the [`Sweep`](crate::sweep::Sweep) that `BENCH_<name>.json` is written
//! from, plus the acceptance criteria that sweep must meet. The `suites`
//! binary runs [`SUITES`] through [`run_experiments`](crate::run_experiments);
//! `tests/claims.rs` regenerates every committed artifact from the same
//! table.

pub mod batch;
pub mod outage;
pub mod overload;
pub mod pipeline;
pub mod recovery;
pub mod resilience;

use gillis_core::{BreakerPolicy, OverloadPolicy};

use crate::Experiment;

/// Open-loop arrivals per cell (and per replication) in the serving suites.
const QUERIES: usize = 400;
/// Concurrent masters in the serving suites.
const CONCURRENCY: usize = 4;

/// The front door of the outage and recovery suites: a deadline and a
/// bounded queue only. Breakers and predictive shedding are deliberately
/// off, so the comparison isolates the policy under test (breakers would
/// mask the naive arm's retry storm) while a slow query still hurts twice,
/// as added latency and as queue backup behind its longer master occupancy.
fn deadline_front_door(slo_ms: f64) -> OverloadPolicy {
    OverloadPolicy {
        max_concurrency: CONCURRENCY,
        queue_depth: CONCURRENCY,
        deadline_ms: slo_ms,
        shed_on_predicted_miss: false,
        breaker: BreakerPolicy::disabled(),
    }
}

/// Every suite, in the order the artifacts were introduced, each committed
/// as `BENCH_<name>.json` at its default seed.
pub const SUITES: [Experiment; 6] = [
    Experiment::new("overload", 42, overload::run, overload::claims)
        .committed("BENCH_overload.json"),
    Experiment::new("batch", 42, batch::run, batch::claims).committed("BENCH_batch.json"),
    Experiment::new("pipeline", 42, pipeline::run, pipeline::claims)
        .committed("BENCH_pipeline.json"),
    Experiment::new("resilience", 42, resilience::run, resilience::claims)
        .committed("BENCH_resilience.json"),
    Experiment::new("outage", 57, outage::run, outage::claims).committed("BENCH_outage.json"),
    Experiment::new("recovery", 83, recovery::run, recovery::claims)
        .committed("BENCH_recovery.json"),
];
