//! Extension: what pre-warming buys (paper §III-A).
//!
//! Gillis periodically pings its functions to keep instances warm, arguing
//! the warm-up cost "can be amortized by serving numerous inference queries
//! and is hence negligible". This experiment serves the same workload with
//! and without pre-warming and reports the first-wave penalty.

use gillis_bench::{ReferenceDeploy, Table};
use gillis_core::ResilienceCounters;
use gillis_faas::billing::BillingMeter;
use gillis_faas::fleet::Fleet;
use gillis_faas::Micros;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("Extension: cold-start amortization (VGG-11 latency-optimal plan, Lambda)\n");
    let deploy = ReferenceDeploy::vgg11();
    let platform = &deploy.platform;
    let rt = deploy.runtime(&deploy.plan);

    // Cold fleet: serve sequential queries and watch the first pay for
    // provisioning + package load of every function in the plan.
    let mut fleet = Fleet::new(platform.clone());
    rt.deploy(&mut fleet).expect("deploy");
    let mut billing = BillingMeter::new(1, platform.price_per_gb_s, platform.price_per_invocation);
    let mut rng = StdRng::seed_from_u64(gillis_bench::bench_seed(11));
    let mut t = Micros::ZERO;
    let mut latencies = Vec::new();
    let mut counters = ResilienceCounters::default();
    for q in 0..20u64 {
        let done = rt
            .run_query_at(&mut fleet, &mut billing, t, &mut rng, q, &mut counters)
            .expect("query");
        latencies.push((done - t).as_ms());
        t = done;
    }

    let mut table = Table::new(&["query", "latency(ms)"]);
    for (i, l) in latencies.iter().enumerate().take(5) {
        table.row(vec![format!("{}", i + 1), format!("{l:.0}")]);
    }
    let steady: f64 = latencies[5..].iter().sum::<f64>() / (latencies.len() - 5) as f64;
    table.row(vec!["steady".into(), format!("{steady:.0}")]);
    table.print();

    let cold_penalty = latencies[0] - steady;
    println!(
        "\ncold first query pays {:.0} ms extra ({:.1}x steady state);",
        cold_penalty,
        latencies[0] / steady
    );
    println!(
        "amortized over 1000 queries that is {:.2} ms/query — negligible, as §III-A argues.",
        cold_penalty / 1000.0
    );
}
