//! The six simulator suites. Each is a pure function of its seed (and of
//! the ambient policy stack, for the three that compose with it) returning
//! the [`Sweep`] that `BENCH_<name>.json` is written from, plus the
//! acceptance criteria that sweep must meet. The `suites` binary is
//! [`main`]; `tests/claims.rs` regenerates every committed artifact from the
//! same table.

pub mod batch;
pub mod outage;
pub mod overload;
pub mod pipeline;
pub mod recovery;
pub mod resilience;

use gillis_core::{BreakerPolicy, OverloadPolicy, PolicyStack};

use crate::sweep::Sweep;
use crate::{bench_args, bench_seed, report_claims, Claim};

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

/// One suite: its artifact name, the seed the committed artifact was
/// written at, the experiment and its acceptance criteria.
pub struct Suite {
    /// `BENCH_<name>.json`.
    pub name: &'static str,
    /// The seed without `GILLIS_BENCH_SEED`.
    pub default_seed: u64,
    /// Runs the sweep at `seed`; `smoke` keeps the cells the claims read.
    /// `ambient` is the policy stack of the environment: the overload, batch
    /// and pipeline suites compose it with their own policies, the other
    /// three fix their whole stack and ignore it.
    pub run: fn(seed: u64, smoke: bool, ambient: &PolicyStack) -> Sweep,
    /// The acceptance criteria, read from the sweep `run` returned.
    pub claims: fn(&Sweep) -> Vec<Claim>,
}

type Run = fn(u64, bool, &PolicyStack) -> Sweep;
type Claims = fn(&Sweep) -> Vec<Claim>;

const fn suite(name: &'static str, default_seed: u64, run: Run, claims: Claims) -> Suite {
    Suite {
        name,
        default_seed,
        run,
        claims,
    }
}

/// Every suite, in the order the artifacts were introduced.
pub const SUITES: [Suite; 6] = [
    suite("overload", 42, overload::run, overload::claims),
    suite("batch", 42, batch::run, batch::claims),
    suite("pipeline", 42, pipeline::run, pipeline::claims),
    suite("resilience", 42, resilience::run, resilience::claims),
    suite("outage", 57, outage::run, outage::claims),
    suite("recovery", 83, recovery::run, recovery::claims),
];

/// The `suites` binary: `<name> [--smoke] [out_dir]`. Runs suite `name` at
/// `GILLIS_BENCH_SEED` under the environment's policy stack, prints the
/// sweep, writes `<out_dir>/BENCH_<name>.json` and exits 1 if a claim fails
/// (or the environment names an invalid policy), 2 on an unknown name.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn main() {
    let (smoke, args) = bench_args(&["--smoke"]);
    let name = args.first().map_or("", String::as_str);
    let Some(suite) = SUITES.iter().find(|s| s.name == name) else {
        let known = SUITES.map(|s| s.name).join(" ");
        eprintln!("unknown suite {name:?}; one of: {known}");
        std::process::exit(2)
    };
    let ambient = PolicyStack::from_env().unwrap_or_else(|e| {
        eprintln!("gillis: {e}");
        std::process::exit(1)
    });
    let sweep = (suite.run)(bench_seed(suite.default_seed), smoke, &ambient);
    sweep.print();
    let dir = args.get(1).map_or(".", String::as_str);
    let path = format!("{dir}/BENCH_{name}.json");
    std::fs::write(&path, sweep.to_json()).expect("write the artifact");
    println!("\nwrote {path}\n\nacceptance criteria:");
    if report_claims(name, &(suite.claims)(&sweep)) > 0 {
        std::process::exit(1);
    }
}
