//! Resilience policies under injected worker faults (`suites resilience`).
//!
//! Serverless invocations fail, crash mid-compute, straggle, and corrupt
//! transfers. The fork-join master's [`ResiliencePolicy`] decides what that
//! costs: the sweep moves the fault rate (with a fixed straggler population)
//! under VGG-16 on Lambda and compares three policies on the same chaos
//! seed —
//!
//! - **naive-retry**: immediate re-invocation, no backoff, no timeout, no
//!   hedging;
//! - **backoff**: exponential backoff with jitter and per-attempt timeouts
//!   derived from the predicted attempt p95;
//! - **backoff+hedge**: backoff plus a speculative duplicate launched when
//!   a worker overruns its predicted p95 — first result wins.
//!
//! The suite fixes its own chaos and has no smaller smoke grid.

use gillis_core::{ChaosConfig, PolicyStack, ResiliencePolicy};
use gillis_model::zoo;

use crate::sweep::{Row, Sweep};
use crate::{ms, Claim, ReferenceDeploy};

const QUERIES: usize = 300;
const FAULT_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Fault mix: mostly clean invocation failures, some mid-compute crashes, a
/// little transfer corruption — plus a fixed 15% straggler population (8x
/// slowdown) that hedging exists to cover.
fn chaos(rate: f64, seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        invoke_failure_rate: 0.5 * rate,
        crash_rate: 0.3 * rate,
        corrupt_rate: 0.2 * rate,
        straggler_rate: 0.15,
        straggler_slowdown: 8.0,
        orchestrator_crash_rate: 0.0,
    }
}

/// Runs the sweep: see the module docs.
#[must_use]
pub fn run(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let deploy = ReferenceDeploy::new(zoo::vgg16());
    let policies = [
        ("naive-retry", ResiliencePolicy::naive_retry()),
        ("backoff", ResiliencePolicy::backoff()),
        ("backoff+hedge", ResiliencePolicy::backoff_hedged()),
    ];
    let mut rows = Vec::new();
    for rate in FAULT_RATES {
        for (name, policy) in policies {
            let rt = deploy
                .runtime(&deploy.plan)
                .with_chaos(chaos(rate, seed))
                .expect("chaos config")
                .with_policy(policy);
            let report = rt.simulate_many(QUERIES, seed);
            let r = &report.resilience;
            rows.push(Row(vec![
                ("policy", name.into()),
                ("fault_rate", (rate, 2).into()),
                ("mean_ms", (report.latency.mean(), 2).into()),
                ("p99_ms", (report.latency.percentile(99.0), 2).into()),
                ("retries", r.retries.into()),
                ("hedges", r.hedges.into()),
                ("hedge_wins", r.hedge_wins.into()),
                ("timeouts", r.timeouts.into()),
                ("degraded_shards", r.degraded_shards.into()),
                ("ok", r.ok_queries.into()),
                ("degraded", r.degraded_queries.into()),
                ("failed", r.failed_queries.into()),
            ]));
        }
    }
    Sweep {
        name: "resilience",
        title: "resilience policies under injected faults (VGG-16, Lambda; 15% stragglers at 8x)",
        header: Row(vec![("seed", seed.into()), ("queries", QUERIES.into())]),
        sections: vec![("results", rows)],
        ..Sweep::default()
    }
}

/// Every query completes under every policy, and once faults appear
/// backoff+hedge holds a lower p99 than naive retry.
#[must_use]
pub fn claims(sweep: &Sweep) -> Vec<Claim> {
    let failed: f64 = sweep.rows().iter().map(|r| r.f64("failed")).sum();
    let p99 = |policy, rate| {
        sweep
            .cell(&[("policy", policy), ("fault_rate", rate)])
            .f64("p99_ms")
    };
    let tails: Vec<(f64, f64)> = ["0.05", "0.10", "0.20"]
        .map(|rate| (p99("naive-retry", rate), p99("backoff+hedge", rate)))
        .to_vec();
    let shown: Vec<String> = tails
        .iter()
        .map(|(n, h)| format!("{} -> {}", ms(*n), ms(*h)))
        .collect();
    vec![
        Claim::new(
            "no query fails: faults degrade shards, they do not lose queries",
            failed == 0.0,
            format!("{failed} failed queries over the grid"),
        ),
        Claim::new(
            "hedging cuts p99 against naive retry at 5%, 10% and 20% faults",
            tails.iter().all(|(naive, hedged)| hedged < naive),
            format!("{} ms", shown.join(", ")),
        ),
    ]
}
