//! Extension: overload protection under open-loop arrival pressure.
//!
//! A serverless front door that admits every arrival dies politely: with a
//! bounded number of concurrent masters, any arrival rate above saturation
//! grows the queue — and the latency of *every* admitted query — without
//! bound. This experiment sweeps the arrival rate around the saturation
//! point (VGG-11, Lambda, DP plan) and compares two front doors on the same
//! deterministic seed:
//!
//! - **default**: bounded concurrency, unbounded queue, no deadline — the
//!   unprotected baseline that collapses past saturation;
//! - **overload**: [`OverloadPolicy::for_slo`] — queue bounded at twice the
//!   concurrency, per-query deadline at the SLO (2x the predicted plan
//!   latency), shed-on-admission when the predicted wait already misses the
//!   deadline, and per-lane circuit breakers.
//!
//! Chaos composes: when `GILLIS_CHAOS_RATE` is set (the CI combined config)
//! the same fault injector runs under both policies. `GILLIS_OVERLOAD_*`
//! knobs override the protected policy. `--smoke` (CI) runs the 2x cell and
//! asserts the acceptance criteria: shedding happened, and the p99 of
//! admitted queries stayed within 1.5x the SLO.
//!
//! Writes `BENCH_overload.json` (repo root, or the directory given as the
//! first argument).

use gillis_bench::{bench_args, bench_seed, Table};
use gillis_core::predict::predict_plan;
use gillis_core::{ChaosConfig, DpPartitioner, ForkJoinRuntime, OverloadPolicy, ServingReport};
use gillis_faas::PlatformProfile;
use gillis_model::zoo;
use gillis_perf::PerfModel;

const QUERIES: usize = 400;
const CONCURRENCY: usize = 4;
const SLO_FACTOR: f64 = 2.0;
const RATE_FACTORS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

struct Cell {
    policy: &'static str,
    rate_factor: f64,
    rate_qps: f64,
    report: ServingReport,
}

fn json_report(seed: u64, slo_ms: f64, saturation_qps: f64, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"overload\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"queries\": {QUERIES},\n"));
    out.push_str(&format!("  \"concurrency\": {CONCURRENCY},\n"));
    out.push_str(&format!("  \"slo_ms\": {slo_ms:.2},\n"));
    out.push_str(&format!("  \"saturation_qps\": {saturation_qps:.2},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        let o = &r.overload;
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"rate_factor\": {:.2}, \"rate_qps\": {:.2}, \
             \"admitted\": {}, \"shed_queue_full\": {}, \"shed_predicted_miss\": {}, \
             \"deadline_exceeded\": {}, \"cancelled_attempts\": {}, \"peak_queue\": {}, \
             \"breaker_opens\": {}, \"breaker_short_circuits\": {}, \
             \"mean_ms\": {:.2}, \"p99_ms\": {:.2}, \"ok_p99_ms\": {:.2}, \"cold_starts\": {}}}{}\n",
            c.policy,
            c.rate_factor,
            c.rate_qps,
            o.admitted,
            o.shed_queue_full,
            o.shed_predicted_miss,
            r.resilience.deadline_exceeded_queries,
            o.cancelled_attempts,
            o.peak_queue_depth,
            o.breaker_opens,
            o.breaker_short_circuits,
            r.latency.mean(),
            r.latency.percentile(99.0),
            r.by_status.ok.percentile(99.0),
            r.cold_starts,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (smoke, out_dir) = bench_args();
    let seed = bench_seed(42);

    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let model = zoo::vgg11();
    let plan = DpPartitioner::default()
        .partition(&model, &perf)
        .expect("plan");
    let predicted_ms = predict_plan(&model, &plan, &perf)
        .expect("prediction")
        .latency_ms;
    let slo_ms = SLO_FACTOR * predicted_ms;
    let saturation_qps = 1000.0 * CONCURRENCY as f64 / predicted_ms;
    let chaos = ChaosConfig::from_env();
    let protected_policy =
        OverloadPolicy::from_env().unwrap_or_else(|| OverloadPolicy::for_slo(slo_ms, CONCURRENCY));

    println!("Extension: overload protection under open-loop arrivals (VGG-11, Lambda)\n");
    println!(
        "seed {seed}; plan latency {predicted_ms:.1} ms; SLO {slo_ms:.1} ms; \
         {CONCURRENCY} concurrent masters; saturation {saturation_qps:.1} qps"
    );
    match &chaos {
        Some(c) => println!("chaos: composed from env (rate knobs on seed {})\n", c.seed),
        None => println!("chaos: off (set GILLIS_CHAOS_RATE to compose faults)\n"),
    }

    let policies: [(&'static str, OverloadPolicy); 2] = [
        ("default", OverloadPolicy::unprotected(CONCURRENCY)),
        ("overload", protected_policy),
    ];
    let factors: &[f64] = if smoke { &[2.0] } else { &RATE_FACTORS };

    let mut table = Table::new(&[
        "rate",
        "policy",
        "admitted",
        "shed",
        "deadline-miss",
        "mean(ms)",
        "p99(ms)",
        "ok p99(ms)",
        "cold",
    ]);
    let mut cells = Vec::new();
    for &factor in factors {
        let rate_qps = factor * saturation_qps;
        for (name, policy) in &policies {
            let mut rt = ForkJoinRuntime::new(&model, &plan, platform.clone())
                .expect("runtime")
                .with_overload(*policy)
                .expect("overload policy");
            if let Some(c) = &chaos {
                rt = rt.with_chaos(*c).expect("chaos config");
            }
            let report = rt
                .serve_open_loop(rate_qps, QUERIES, CONCURRENCY, seed)
                .expect("serve");
            table.row(vec![
                format!("{factor:.1}x"),
                (*name).into(),
                format!("{}", report.overload.admitted),
                format!("{}", report.overload.shed()),
                format!("{}", report.resilience.deadline_exceeded_queries),
                format!("{:.0}", report.latency.mean()),
                format!("{:.0}", report.latency.percentile(99.0)),
                format!("{:.0}", report.by_status.ok.percentile(99.0)),
                format!("{}", report.cold_starts),
            ]);
            cells.push(Cell {
                policy: name,
                rate_factor: factor,
                rate_qps,
                report,
            });
        }
    }
    table.print();

    let path = format!("{out_dir}/BENCH_overload.json");
    std::fs::write(&path, json_report(seed, slo_ms, saturation_qps, &cells))
        .expect("write BENCH_overload.json");
    println!("\nwrote {path}");

    // Acceptance criteria, asserted at 2x saturation (the smoke cell).
    let cell = |policy: &str, factor: f64| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.rate_factor == factor)
            .expect("cell")
    };
    let protected = cell("overload", 2.0);
    let unprotected = cell("default", 2.0);
    let shed = protected.report.overload.shed();
    let admitted_p99 = protected.report.latency.percentile(99.0);
    let baseline_p99 = unprotected.report.latency.percentile(99.0);
    println!(
        "\nat 2.0x saturation: overload sheds {} of {} arrivals and holds admitted p99 \
         at {:.0} ms (SLO {:.0} ms); the default front door reaches {:.0} ms",
        shed, QUERIES, admitted_p99, slo_ms, baseline_p99
    );
    assert!(shed > 0, "2x saturation must shed");
    assert!(
        protected.report.overload.admitted + shed == QUERIES as u64,
        "every arrival is admitted or shed"
    );
    assert!(
        admitted_p99 <= 1.5 * slo_ms,
        "admitted p99 {admitted_p99:.1} ms must stay within 1.5x SLO {slo_ms:.1} ms"
    );
    if smoke {
        println!("smoke ok: shed > 0 and admitted p99 within 1.5x SLO at 2x saturation");
    } else {
        assert!(
            baseline_p99 > admitted_p99,
            "the unprotected baseline should be worse at 2x saturation"
        );
        println!("\nexpectation: below saturation the two policies match (nothing sheds, no");
        println!("deadline fires); past saturation the default queue grows without bound while");
        println!("the overload policy sheds arrivals it cannot serve and keeps the served tail");
        println!("near the SLO.");
    }
}
