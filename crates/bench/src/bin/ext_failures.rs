//! Extension: resilience policies under injected worker faults.
//!
//! Serverless invocations fail, crash mid-compute, straggle, and corrupt
//! transfers. The fork-join master's [`ResiliencePolicy`] decides what that
//! costs: this experiment sweeps the fault rate (with a fixed straggler
//! population) and compares three policies on the same deterministic chaos
//! seed —
//!
//! - **naive-retry**: immediate re-invocation, no backoff, no timeout, no
//!   hedging (the pre-resilience behaviour, minus its "final attempt always
//!   succeeds" fiction);
//! - **backoff**: exponential backoff with jitter and per-attempt timeouts
//!   derived from the predicted attempt p95;
//! - **backoff+hedge**: backoff plus a speculative duplicate launched when
//!   a worker overruns its predicted p95 — first result wins.
//!
//! Writes `BENCH_resilience.json` (repo root, or the directory given as the
//! first argument) with mean/p99/retries/hedges/degraded per cell, the
//! artifact the CI chaos job uploads.

use gillis_bench::{bench_args, bench_seed, Table};
use gillis_core::{
    ChaosConfig, DpPartitioner, ForkJoinRuntime, ResilienceCounters, ResiliencePolicy,
    SimulationReport,
};
use gillis_faas::PlatformProfile;
use gillis_model::zoo;
use gillis_perf::PerfModel;

const QUERIES: usize = 300;

struct Cell {
    policy: &'static str,
    fault_rate: f64,
    mean_ms: f64,
    p99_ms: f64,
    resilience: ResilienceCounters,
}

fn chaos(rate: f64, seed: u64) -> ChaosConfig {
    // Fault mix: mostly clean invocation failures, some mid-compute
    // crashes, a little transfer corruption — plus a fixed 15% straggler
    // population (8x slowdown) that hedging exists to cover.
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

fn json_report(seed: u64, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"resilience\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"queries\": {QUERIES},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.resilience;
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"fault_rate\": {:.2}, \"mean_ms\": {:.2}, \"p99_ms\": {:.2}, \
             \"retries\": {}, \"hedges\": {}, \"hedge_wins\": {}, \"timeouts\": {}, \
             \"degraded_shards\": {}, \"ok\": {}, \"degraded\": {}, \"failed\": {}}}{}\n",
            c.policy,
            c.fault_rate,
            c.mean_ms,
            c.p99_ms,
            r.retries,
            r.hedges,
            r.hedge_wins,
            r.timeouts,
            r.degraded_shards,
            r.ok_queries,
            r.degraded_queries,
            r.failed_queries,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (_, out_dir) = bench_args();
    let seed = bench_seed(42);
    println!("Extension: resilience policies under injected faults (VGG-16, Lambda)\n");
    println!("chaos seed {seed}; 15% stragglers at 8x slowdown in every cell\n");
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let model = zoo::vgg16();
    let plan = DpPartitioner::default()
        .partition(&model, &perf)
        .expect("plan");

    let policies: [(&str, ResiliencePolicy); 3] = [
        ("naive-retry", ResiliencePolicy::naive_retry()),
        ("backoff", ResiliencePolicy::backoff()),
        ("backoff+hedge", ResiliencePolicy::backoff_hedged()),
    ];

    let mut table = Table::new(&[
        "fault rate",
        "policy",
        "mean(ms)",
        "p99(ms)",
        "retries/q",
        "hedges (wins)",
        "degraded",
    ]);
    let mut cells = Vec::new();
    for rate in [0.0, 0.05, 0.10, 0.20] {
        for (name, policy) in &policies {
            let rt = ForkJoinRuntime::new(&model, &plan, platform.clone())
                .expect("runtime")
                .with_chaos(chaos(rate, seed))
                .expect("chaos config")
                .with_policy(*policy);
            let SimulationReport {
                latency,
                resilience,
            } = rt.simulate_many(QUERIES, seed);
            table.row(vec![
                format!("{:.0}%", rate * 100.0),
                (*name).into(),
                format!("{:.0}", latency.mean()),
                format!("{:.0}", latency.percentile(99.0)),
                format!("{:.2}", resilience.retries as f64 / QUERIES as f64),
                format!("{} ({})", resilience.hedges, resilience.hedge_wins),
                format!("{}", resilience.degraded_queries),
            ]);
            cells.push(Cell {
                policy: name,
                fault_rate: rate,
                mean_ms: latency.mean(),
                p99_ms: latency.percentile(99.0),
                resilience,
            });
        }
    }
    table.print();

    let path = format!("{out_dir}/BENCH_resilience.json");
    std::fs::write(&path, json_report(seed, &cells)).expect("write BENCH_resilience.json");
    println!("\nwrote {path}");

    // The headline claim: at >=5% faults (with stragglers), hedging beats
    // naive retry on tail latency.
    let p99 = |policy: &str, rate: f64| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.fault_rate == rate)
            .map(|c| c.p99_ms)
            .expect("cell")
    };
    for rate in [0.05, 0.10, 0.20] {
        let naive = p99("naive-retry", rate);
        let hedged = p99("backoff+hedge", rate);
        println!(
            "fault rate {:.0}%: hedging cuts p99 {:.0} -> {:.0} ms ({:+.1}%)",
            rate * 100.0,
            naive,
            hedged,
            (hedged - naive) / naive * 100.0
        );
    }
    println!("\nexpectation: every query completes (degraded counts stay honest instead");
    println!("of a final attempt magically succeeding); backoff+hedge holds the lowest");
    println!("p99 once stragglers and faults appear.");
}
