//! Extension: adaptive multi-SLO batching under open-loop arrival pressure.
//!
//! Serverless inference bills per invocation-millisecond, so a fork-join
//! wave that carries one query wastes most of what it pays for: the weight
//! transfer and load are the same whether the wave carries 1 query or 8.
//! This experiment sweeps a mixed-SLO Poisson stream (VGG-11, Lambda, DP
//! plan) around the saturation point and compares two configurations on the
//! same deterministic seed:
//!
//! - **batch1**: the same SLO classes with `max_batch = 1` — every arrival
//!   dispatches its own wave (the pre-batching serving path);
//! - **batch**: [`plan_batch_schedule`] picks a per-class batch size and a
//!   deadline-derived accumulation window jointly with the instance memory,
//!   then `serve_open_loop_batched` forms batches online.
//!
//! Three SLO classes share the stream: interactive (tight deadline, most
//! traffic), standard (loose deadline), and bulk (no deadline). Queries are
//! hashed into classes deterministically, accumulate per class up to the
//! window, and are shed on arrival when the predicted batch completion
//! already misses their deadline — batching never pushes a query past its
//! shed threshold.
//!
//! Chaos composes (`GILLIS_CHAOS_RATE`), overload protection composes
//! (`GILLIS_OVERLOAD_*`), and `GILLIS_BATCH_*` overrides the batch policy.
//! `--smoke` (CI) runs the 2x cell and asserts the acceptance criteria:
//! >= 1.3x queries per dollar at equal-or-better admitted p99 than batch1.
//!
//! Writes `BENCH_batch.json` (repo root, or the directory given as the
//! first argument).

use gillis_bench::{bench_args, bench_seed, Table};
use gillis_core::predict::predict_plan;
use gillis_core::{
    plan_batch_schedule, BatchPolicy, ChaosConfig, DpPartitioner, ForkJoinRuntime, OverloadPolicy,
    ServingReport, SloClass,
};
use gillis_faas::PlatformProfile;
use gillis_model::zoo;
use gillis_perf::{PerfModel, TransferFormat};

const QUERIES: usize = 400;
const CONCURRENCY: usize = 4;
const MAX_BATCH: usize = 8;
const RATE_FACTORS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

struct Cell {
    policy: &'static str,
    rate_factor: f64,
    rate_qps: f64,
    memory_mb: u64,
    report: ServingReport,
}

impl Cell {
    fn queries_per_dollar(&self) -> f64 {
        self.report.overload.admitted as f64 / self.report.billing.usd_total()
    }
}

fn json_report(seed: u64, predicted_ms: f64, saturation_qps: f64, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"batch\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"queries\": {QUERIES},\n"));
    out.push_str(&format!("  \"concurrency\": {CONCURRENCY},\n"));
    out.push_str(&format!("  \"max_batch\": {MAX_BATCH},\n"));
    out.push_str(&format!("  \"plan_latency_ms\": {predicted_ms:.2},\n"));
    out.push_str(&format!("  \"saturation_qps\": {saturation_qps:.2},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"rate_factor\": {:.2}, \"rate_qps\": {:.2}, \
             \"memory_mb\": {}, \"admitted\": {}, \"shed\": {}, \"batches\": {}, \
             \"mean_batch\": {:.3}, \"fast_path\": {}, \"size_closes\": {}, \
             \"window_closes\": {}, \"usd_total\": {:.6}, \"queries_per_dollar\": {:.1}, \
             \"mean_ms\": {:.2}, \"p99_ms\": {:.2}, \"ok_p99_ms\": {:.2}, \"cold_starts\": {}}}{}\n",
            c.policy,
            c.rate_factor,
            c.rate_qps,
            c.memory_mb,
            r.overload.admitted,
            r.overload.shed(),
            r.batch.batches,
            r.batch.mean_batch(),
            r.batch.batch_one_fast_path,
            r.batch.size_closes,
            r.batch.window_closes,
            r.billing.usd_total(),
            c.queries_per_dollar(),
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
    let saturation_qps = 1000.0 * CONCURRENCY as f64 / predicted_ms;
    let chaos = ChaosConfig::from_env();
    let overload = OverloadPolicy::from_env();

    // Three SLO classes share the stream; deadlines are multiples of the
    // plan latency so the sweep is model-independent.
    let batch_policy = BatchPolicy::from_env().unwrap_or_else(|| BatchPolicy {
        classes: vec![
            SloClass {
                deadline_ms: 10.0 * predicted_ms,
                weight: 2.0,
            },
            SloClass {
                deadline_ms: 30.0 * predicted_ms,
                weight: 1.0,
            },
            SloClass {
                deadline_ms: f64::INFINITY,
                weight: 1.0,
            },
        ],
        max_batch: MAX_BATCH,
        // Windows cap at twice the plan latency: long enough to fill real
        // batches near saturation, short enough that window wait stays
        // below the queueing the shared waves save.
        max_window_ms: 2.0 * predicted_ms,
        window_margin_ms: 2.0,
        amortized_fraction: 0.25,
        memory_mb: Vec::new(),
    });
    let base_policy = BatchPolicy {
        max_batch: 1,
        ..batch_policy.clone()
    };

    println!("Extension: adaptive multi-SLO batching (VGG-11, Lambda)\n");
    println!(
        "seed {seed}; plan latency {predicted_ms:.1} ms; {CONCURRENCY} concurrent masters; \
         saturation {saturation_qps:.1} qps; max batch {}",
        batch_policy.max_batch
    );
    match &chaos {
        Some(c) => println!("chaos: composed from env (rate knobs on seed {})", c.seed),
        None => println!("chaos: off (set GILLIS_CHAOS_RATE to compose faults)"),
    }
    match &overload {
        Some(_) => println!("overload: composed from env\n"),
        None => println!("overload: off (set GILLIS_OVERLOAD_* to compose admission control)\n"),
    }

    let policies: [(&'static str, &BatchPolicy); 2] =
        [("batch1", &base_policy), ("batch", &batch_policy)];
    let factors: &[f64] = if smoke { &[2.0] } else { &RATE_FACTORS };

    let mut table = Table::new(&[
        "rate", "policy", "mem(MB)", "admitted", "shed", "batches", "mean n", "q/$", "mean(ms)",
        "p99(ms)",
    ]);
    let mut cells = Vec::new();
    for &factor in factors {
        let rate_qps = factor * saturation_qps;
        for (name, policy) in &policies {
            let schedule = plan_batch_schedule(
                &model,
                &plan,
                &platform,
                TransferFormat::F32,
                policy,
                rate_qps,
            )
            .expect("schedule");
            let serving_platform = if schedule.memory_bytes == platform.instance_memory_bytes {
                platform.clone()
            } else {
                platform.with_memory_bytes(schedule.memory_bytes)
            };
            let mut rt = ForkJoinRuntime::new(&model, &plan, serving_platform).expect("runtime");
            if let Some(ov) = &overload {
                rt = rt.with_overload(*ov).expect("overload policy");
            }
            if let Some(c) = &chaos {
                rt = rt.with_chaos(*c).expect("chaos config");
            }
            let report = rt
                .serve_open_loop_batched(policy, &schedule, rate_qps, QUERIES, CONCURRENCY, seed)
                .expect("serve");
            let cell = Cell {
                policy: name,
                rate_factor: factor,
                rate_qps,
                memory_mb: schedule.memory_bytes / 1_000_000,
                report,
            };
            table.row(vec![
                format!("{factor:.1}x"),
                (*name).into(),
                format!("{}", cell.memory_mb),
                format!("{}", cell.report.overload.admitted),
                format!("{}", cell.report.overload.shed()),
                format!("{}", cell.report.batch.batches),
                format!("{:.2}", cell.report.batch.mean_batch()),
                format!("{:.0}", cell.queries_per_dollar()),
                format!("{:.0}", cell.report.latency.mean()),
                format!("{:.0}", cell.report.latency.percentile(99.0)),
            ]);
            cells.push(cell);
        }
    }
    table.print();

    let path = format!("{out_dir}/BENCH_batch.json");
    std::fs::write(
        &path,
        json_report(seed, predicted_ms, saturation_qps, &cells),
    )
    .expect("write BENCH_batch.json");
    println!("\nwrote {path}");

    // Acceptance criteria, asserted at 2x saturation (the smoke cell).
    let cell = |policy: &str, factor: f64| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.rate_factor == factor)
            .expect("cell")
    };
    let batched = cell("batch", 2.0);
    let baseline = cell("batch1", 2.0);
    let ratio = batched.queries_per_dollar() / baseline.queries_per_dollar();
    let batched_p99 = batched.report.latency.percentile(99.0);
    let baseline_p99 = baseline.report.latency.percentile(99.0);
    println!(
        "\nat 2.0x saturation: batching serves {:.0} queries/$ vs {:.0} for batch1 \
         ({ratio:.2}x) with admitted p99 {batched_p99:.0} ms vs {baseline_p99:.0} ms",
        batched.queries_per_dollar(),
        baseline.queries_per_dollar(),
    );
    assert!(
        batched.report.batch.mean_batch() > 1.0,
        "2x saturation must form real batches: {:?}",
        batched.report.batch
    );
    assert!(
        ratio >= 1.3,
        "batching must serve >= 1.3x queries per dollar at 2x saturation, got {ratio:.2}x"
    );
    assert!(
        batched_p99 <= baseline_p99,
        "batched admitted p99 {batched_p99:.1} ms must not exceed batch1 {baseline_p99:.1} ms"
    );
    if smoke {
        println!("smoke ok: >= 1.3x queries/$ at equal-or-better admitted p99");
    } else {
        println!("\nexpectation: below saturation windows close underfilled and batching only");
        println!("amortizes what the arrival rate supports; past saturation shared fork waves");
        println!("raise effective capacity, so batching both serves more queries per dollar and");
        println!("keeps the admitted tail lower than dispatch-per-query.");
    }
}
