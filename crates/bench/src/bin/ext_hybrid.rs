//! Extension: VM serving vs serverless vs VM+serverless hybrid under a
//! load burst — the §II-A motivation ("using VMs to handle stable inference
//! requests while using serverless functions to cover transient load
//! bursts", as in MArk).
//!
//! Workload: a steady Poisson base rate with a 7.5× spike in the middle.
//! Three provisioning policies serve it:
//!
//! - **VM-only**: a pool sized for the base load; the spike queues.
//! - **Serverless-only**: a Gillis latency-optimal deployment; every query
//!   pays the function premium but the platform absorbs the spike.
//! - **Hybrid**: queries go to a VM when one is free soon, otherwise burst
//!   into the Gillis deployment.

use gillis_bench::{ReferenceDeploy, Table};
use gillis_core::ResilienceCounters;
use gillis_faas::billing::BillingMeter;
use gillis_faas::fleet::Fleet;
use gillis_faas::metrics::LatencyStats;
use gillis_faas::vm::VmPool;
use gillis_faas::workload::PoissonArrivals;
use gillis_faas::Micros;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arrival times: ten minutes of steady base load with a 30-second spike
/// of 7.5x in the middle — long enough for VM amortization to matter.
fn arrivals(seed: u64) -> Vec<Micros> {
    let base = PoissonArrivals::new(16.0).expect("rate");
    let spike = PoissonArrivals::new(120.0).expect("rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Micros::ZERO;
    let mut out = Vec::new();
    let phase_end = [
        Micros::from_secs(240),
        Micros::from_secs(270),
        Micros::from_secs(600),
    ];
    for (i, end) in phase_end.iter().enumerate() {
        let gen = if i == 1 { &spike } else { &base };
        loop {
            t += gen.next_gap(&mut rng);
            if t >= *end {
                t = *end;
                break;
            }
            out.push(t);
        }
    }
    out
}

fn main() {
    println!("Extension: VM vs serverless vs hybrid under a 7.5x load spike (VGG-11)\n");
    let deploy = ReferenceDeploy::vgg11();
    let (platform, perf, model) = (&deploy.platform, &deploy.perf, &deploy.model);
    let rt = deploy.runtime(&deploy.plan);

    // A VM (c5-class, ~$0.34/h) serves the model ~2x faster than a 3 GB
    // function; the pool is sized for the base rate (16 q/s x 0.14 s ~ 2.3
    // busy VMs, provision 4 for headroom).
    let vm_service_ms = perf.layer.predict_model_ms(model) / 2.0;
    let queries = arrivals(gillis_bench::bench_seed(7));
    let span = *queries.last().expect("non-empty workload");

    let mut table = Table::new(&[
        "policy",
        "mean(ms)",
        "p99(ms)",
        "queued/offloaded",
        "cost($)",
    ]);

    // --- VM-only ---
    {
        let mut pool = VmPool::new(4, vm_service_ms, 0.34).expect("pool");
        let mut stats = LatencyStats::new();
        for &t in &queries {
            let s = pool.serve(t);
            stats.record((s.done - t).as_ms());
        }
        let (_, queued) = pool.stats();
        table.row(vec![
            "VM-only".into(),
            format!("{:.0}", stats.mean()),
            format!("{:.0}", stats.percentile(99.0)),
            format!("{queued}"),
            format!("{:.3}", pool.cost_usd(span)),
        ]);
    }

    // --- Serverless-only ---
    {
        let mut fleet = Fleet::new(platform.clone());
        rt.deploy(&mut fleet).expect("deploy");
        rt.prewarm(&mut fleet, 24).expect("prewarm");
        let mut billing =
            BillingMeter::new(1, platform.price_per_gb_s, platform.price_per_invocation);
        let mut stats = LatencyStats::new();
        let mut rng = StdRng::seed_from_u64(gillis_bench::bench_seed(3));
        let mut counters = ResilienceCounters::default();
        for (q, &t) in queries.iter().enumerate() {
            let done = rt
                .run_query_at(
                    &mut fleet,
                    &mut billing,
                    t,
                    &mut rng,
                    q as u64,
                    &mut counters,
                )
                .expect("query");
            stats.record((done - t).as_ms());
        }
        table.row(vec![
            "serverless-only".into(),
            format!("{:.0}", stats.mean()),
            format!("{:.0}", stats.percentile(99.0)),
            "0".into(),
            format!("{:.3}", billing.usd_total()),
        ]);
    }

    // --- Hybrid: VM when free within 50 ms, else serverless burst ---
    {
        let mut pool = VmPool::new(4, vm_service_ms, 0.34).expect("pool");
        let mut fleet = Fleet::new(platform.clone());
        rt.deploy(&mut fleet).expect("deploy");
        rt.prewarm(&mut fleet, 12).expect("prewarm");
        let mut billing =
            BillingMeter::new(1, platform.price_per_gb_s, platform.price_per_invocation);
        let mut stats = LatencyStats::new();
        let mut rng = StdRng::seed_from_u64(gillis_bench::bench_seed(3));
        let mut counters = ResilienceCounters::default();
        let mut offloaded = 0u64;
        for (q, &t) in queries.iter().enumerate() {
            let wait = pool.earliest_start(t).saturating_sub(t);
            if wait <= Micros::from_ms(50.0) {
                let s = pool.serve(t);
                stats.record((s.done - t).as_ms());
            } else {
                offloaded += 1;
                let done = rt
                    .run_query_at(
                        &mut fleet,
                        &mut billing,
                        t,
                        &mut rng,
                        q as u64,
                        &mut counters,
                    )
                    .expect("query");
                stats.record((done - t).as_ms());
            }
        }
        table.row(vec![
            "hybrid".into(),
            format!("{:.0}", stats.mean()),
            format!("{:.0}", stats.percentile(99.0)),
            format!("{offloaded}"),
            format!("{:.3}", pool.cost_usd(span) + billing.usd_total()),
        ]);
    }
    table.print();
    println!("\nexpectation: VM-only queues badly during the spike (p99 blows up);");
    println!("serverless-only absorbs it but pays per query for the entire stable");
    println!("load; the hybrid holds the tail AND the lowest cost (§II-A / MArk).");
}
