//! Extension (paper §VI): tail-latency SLOs.
//!
//! The paper leaves p99 SLOs as future work, noting the RL optimization
//! applies "as long as the tail latency can be accurately predicted". This
//! extension adds a Monte-Carlo tail predictor and trains the SLO-aware
//! policy against it: a mean-SLO plan can violate the same threshold at p99,
//! while the tail-aware plan meets it (at somewhat higher cost).

use gillis_bench::Table;
use gillis_core::ForkJoinRuntime;
use gillis_faas::workload::ClosedLoop;
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::zoo;
use gillis_perf::PerfModel;
use gillis_rl::{slo_aware_partition, SloAwareConfig};

fn main() {
    println!("Extension: tail-latency (p99) SLOs — mean-aware vs tail-aware plans\n");
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, 55);
    let model = zoo::vgg11();
    let t_max = 400.0;
    println!("model {}, threshold {t_max} ms\n", model.name());

    let base = SloAwareConfig {
        t_max_ms: t_max,
        episodes: 250,
        seed: 21,
        ..SloAwareConfig::default()
    };
    let mean_aware = slo_aware_partition(&model, &perf, &base).expect("mean-SLO plan");
    let tail_aware = slo_aware_partition(
        &model,
        &perf,
        &SloAwareConfig {
            tail_quantile: Some(0.99),
            tail_samples: 300,
            ..base
        },
    )
    .expect("tail-SLO plan");

    let mut table = Table::new(&[
        "policy",
        "pred p99",
        "mean(ms)",
        "p99(ms)",
        "p99 <= T_max",
        "cost(ms/query)",
    ]);
    for (name, result) in [("mean-aware", &mean_aware), ("tail-aware", &tail_aware)] {
        let rt = ForkJoinRuntime::new(&model, &result.plan, platform.clone()).expect("runtime");
        let report = rt
            .serve_workload(
                ClosedLoop::new(50, 2000, Micros::ZERO).expect("workload"),
                8,
            )
            .expect("serving");
        let p99 = report.latency.percentile(99.0);
        // A fresh, larger Monte-Carlo estimate of what the tail-aware search
        // constrained (it saw `tail_samples` draws under its own seed).
        let predicted =
            gillis_core::predict_latency_quantile(&model, &result.plan, &perf, 0.99, 2000, 5)
                .expect("tail prediction");
        table.row(vec![
            name.to_string(),
            format!("{predicted:.0}"),
            format!("{:.0}", report.latency.mean()),
            format!("{p99:.0}"),
            if p99 <= t_max { "yes" } else { "NO" }.to_string(),
            format!("{}", report.billing.billed_ms_total() / 2000),
        ]);
    }
    table.print();
    println!("\nexpectation: both meet the threshold on the mean; only the tail-aware");
    println!("plan is near it at p99, for a little more per query. That plan is the");
    println!("cheapest the search finds whose 300-draw p99 estimate is inside the SLO, so");
    println!("a fresh estimate and the served p99 sit at the threshold give or take the");
    println!("estimate's error (about 1%); the mean-aware plan misses by 5%.");
}
