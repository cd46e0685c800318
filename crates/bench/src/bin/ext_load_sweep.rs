//! Extension: open-loop load sweep.
//!
//! The paper motivates serverless serving with burst absorption (§II-A):
//! functions scale out in tens of milliseconds where VMs take minutes. This
//! experiment drives a latency-optimal deployment with Poisson arrivals at
//! increasing rates, with a warm pool sized for the base load only — the
//! overload shows up as cold-start scale-out, not queueing collapse.

use gillis_bench::{ReferenceDeploy, Table};

fn main() {
    println!("Extension: open-loop Poisson load sweep (VGG-11, Lambda)\n");
    let deploy = ReferenceDeploy::vgg11();
    let rt = deploy.runtime(&deploy.plan);

    // Pool pre-warmed for ~10 concurrent queries; the sweep pushes past it.
    let prewarm = 10;
    let mut table = Table::new(&[
        "rate(q/s)",
        "mean(ms)",
        "p99(ms)",
        "cold starts",
        "cost(ms/query)",
    ]);
    for rate in [5.0, 10.0, 20.0, 40.0, 80.0] {
        let queries = 400;
        let report = rt
            .serve_open_loop(rate, queries, prewarm, 17)
            .expect("open-loop serving");
        table.row(vec![
            format!("{rate:.0}"),
            format!("{:.0}", report.latency.mean()),
            format!("{:.0}", report.latency.percentile(99.0)),
            format!("{}", report.cold_starts),
            format!("{}", report.billing.billed_ms_total() / queries as u64),
        ]);
    }
    table.print();
    println!("\nexpectation: mean latency stays near the warm baseline while cold");
    println!("starts absorb the burst (p99 carries the scale-out penalty).");
}
