//! SLO-aware serving: learn a cost-minimal partitioning that meets a
//! mean-latency SLO (§IV-C), and compare it against the Bayesian
//! optimization baseline.
//!
//! ```sh
//! cargo run --release --example slo_serving
//! ```

use gillis::bo::{BayesOpt, BoConfig};
use gillis::core::ForkJoinRuntime;
use gillis::faas::workload::ClosedLoop;
use gillis::faas::{Micros, PlatformProfile};
use gillis::model::zoo;
use gillis::perf::PerfModel;
use gillis::rl::{slo_aware_partition, SloAwareConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::vgg11();
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, 1);
    let t_max_ms = 400.0;
    println!(
        "serving {} under a {t_max_ms} ms mean-latency SLO\n",
        model.name()
    );

    // Gillis SLO-aware: hierarchical REINFORCE against the performance model.
    let sa = slo_aware_partition(
        &model,
        &perf,
        &SloAwareConfig {
            t_max_ms,
            episodes: 300,
            seed: 3,
            ..SloAwareConfig::default()
        },
    )?;
    println!(
        "RL: predicted latency {:.0} ms, billed {} ms/query ({} batches trained)",
        sa.predicted.latency_ms,
        sa.predicted.billed_ms,
        sa.reward_history.len()
    );

    // Bayesian optimization baseline (Cherrypick-style).
    let bo = BayesOpt::new(BoConfig {
        t_max_ms,
        iterations: 40,
        seed: 3,
    })
    .search(&model, &perf)?;
    println!(
        "BO: predicted latency {:.0} ms, billed {} ms/query (meets SLO: {})",
        bo.predicted.latency_ms, bo.predicted.billed_ms, bo.meets_slo
    );

    // Serve the paper's workload with the learned plan: 100 clients x 1000
    // queries against warm pools.
    let runtime = ForkJoinRuntime::new(&model, &sa.plan, platform)?;
    let report = runtime.serve_workload(ClosedLoop::new(100, 1000, Micros::ZERO)?, 5)?;
    println!(
        "\nworkload: mean {:.0} ms (p99 {:.0} ms) over {} queries — SLO {}",
        report.latency.mean(),
        report.latency.percentile(99.0),
        report.latency.count(),
        if report.latency.mean() <= t_max_ms {
            "met"
        } else {
            "MISSED"
        },
    );
    println!(
        "billed {} ms total (~{} ms/query), ${:.4} total",
        report.billing.billed_ms_total(),
        report.billing.billed_ms_total() / 1000,
        report.billing.usd_total()
    );
    Ok(())
}
