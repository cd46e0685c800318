//! Extension: stage-level checkpointed recovery vs full-restart recovery.
//!
//! Serverless orchestrators are themselves functions: they get reaped,
//! OOM-killed, and rescheduled mid-plan. The classic answer is to restart
//! the whole query — every completed stage is recomputed, billed again, and
//! the deadline clock keeps running. Stage-level checkpointing instead makes
//! each group boundary durable, so a replacement orchestrator pays one
//! failover delay and resumes from the last checkpoint.
//!
//! This experiment sweeps **orchestrator crash rate × outage severity**
//! (VGG-11, Lambda, DP plan, open loop behind a deadline front door) and
//! compares two serving stacks on the same seeds, arrival process, and
//! admission policy:
//!
//! - **restart**: crashes replay the query from stage 0 (no checkpoint
//!   cache — the pre-recovery behavior);
//! - **resume**: [`RecoveryPolicy`] checkpointing — crashes fail over and
//!   replay from the last stage boundary, and resumes that cannot meet the
//!   deadline are skipped instead of paid for.
//!
//! Neither arm injects worker faults: the sweep isolates orchestrator
//! crashes, so every billed millisecond beyond the calm cell is crash
//! recovery overhead. **Wasted work** for a cell is its billed total minus
//! the same arm's calm-cell billed total.
//!
//! `--smoke` (CI) runs the calm cell plus the severe high-crash cell and
//! asserts the acceptance criteria: resume wasted work <= 0.5x restart,
//! resume goodput >= 1.2x restart, and calm cells identical across arms
//! (checkpointing must be free when nothing crashes).
//!
//! Writes `BENCH_recovery.json` (repo root, or the directory given as the
//! first argument).

use gillis_bench::{bench_args, bench_seed, Table};
use gillis_core::predict::predict_plan;
use gillis_core::{
    replication_seed, BreakerPolicy, ChaosConfig, DpPartitioner, ForkJoinRuntime, OutageConfig,
    OverloadPolicy, RecoveryPolicy, ResiliencePolicy, ServingReport,
};
use gillis_faas::PlatformProfile;
use gillis_model::zoo;
use gillis_perf::PerfModel;

const QUERIES: usize = 400;
const CONCURRENCY: usize = 4;
/// Independent replications per cell; each gets its own arrival process and
/// crash stream (derived via [`replication_seed`]) while the outage episode
/// schedule stays fixed. Reports are folded with [`ServingReport::absorb`]
/// so the asserted ratios average over arrival noise.
const REPLICATIONS: u64 = 3;
const SLO_FACTOR: f64 = 4.0;
const RATE_FACTOR: f64 = 0.5;
const CRASH_RATES: [f64; 2] = [0.1, 0.25];

/// Fixed episode-schedule seed, for the same reason as the outage suite:
/// `GILLIS_BENCH_SEED` varies arrivals and crash draws without reshuffling
/// how much of the run is spent inside episodes.
const OUTAGE_SEED: u64 = 83;

struct Cell {
    arm: &'static str,
    crash_rate: f64,
    outage: &'static str,
    report: ServingReport,
}

impl Cell {
    /// Queries that completed (ok or degraded) within the deadline.
    fn goodput(&self) -> u64 {
        self.report.resilience.ok_queries + self.report.resilience.degraded_queries
    }
}

/// Severe outage on the orchestrator fault domain only: episodes multiply
/// the crash rate (capped at 0.75 per boundary) while worker lanes stay
/// healthy.
fn orchestrator_outage(seed: u64) -> OutageConfig {
    OutageConfig {
        platform: false,
        lanes: false,
        memory_tiers: false,
        orchestrators: true,
        ..OutageConfig::severe(8.0, seed)
    }
}

fn json_report(seed: u64, slo_ms: f64, rate_qps: f64, cells: &[Cell]) -> String {
    // Calm billed total per arm: the subtrahend of every wasted-work figure.
    let calm_billed = |arm: &str| -> u64 {
        cells
            .iter()
            .find(|c| c.arm == arm && c.crash_rate == 0.0)
            .map_or(0, |c| c.report.billing.billed_ms_total())
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"recovery\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"queries\": {QUERIES},\n"));
    out.push_str(&format!("  \"replications\": {REPLICATIONS},\n"));
    out.push_str(&format!("  \"concurrency\": {CONCURRENCY},\n"));
    out.push_str(&format!("  \"slo_ms\": {slo_ms:.2},\n"));
    out.push_str(&format!("  \"rate_qps\": {rate_qps:.2},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        let res = &r.resilience;
        let rec = &r.recovery;
        let billed = r.billing.billed_ms_total();
        let wasted = billed.saturating_sub(calm_billed(c.arm));
        out.push_str(&format!(
            "    {{\"arm\": \"{}\", \"crash_rate\": {:.2}, \"outage\": \"{}\", \
             \"goodput\": {}, \"ok\": {}, \"degraded\": {}, \"deadline_exceeded\": {}, \
             \"failed\": {}, \"shed\": {}, \"billed_ms_total\": {}, \"wasted_ms\": {}, \
             \"orchestrator_crashes\": {}, \"failover_replays\": {}, \"full_restarts\": {}, \
             \"stages_saved\": {}, \"recompute_avoided_ms\": {:.1}, \
             \"resume_skipped_deadline\": {}, \"checkpoints_stored\": {}, \
             \"worker_invocations\": {}, \"ok_p99_ms\": {:.2}, \"mean_ms\": {:.2}}}{}\n",
            c.arm,
            c.crash_rate,
            c.outage,
            c.goodput(),
            res.ok_queries,
            res.degraded_queries,
            res.deadline_exceeded_queries,
            res.failed_queries,
            r.overload.shed(),
            billed,
            wasted,
            rec.orchestrator_crashes,
            rec.failover_replays,
            rec.full_restarts,
            rec.stages_saved,
            rec.recompute_avoided_ms,
            rec.resume_skipped_deadline,
            rec.checkpoints_stored,
            res.worker_invocations,
            r.by_status.ok.percentile(99.0),
            r.latency.mean(),
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (smoke, out_dir) = bench_args();
    let seed = bench_seed(83);

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
    let rate_qps = RATE_FACTOR * saturation_qps;
    // Deadline + bounded queue only: crashes hurt twice, once as added
    // latency on the crashed query and once as queue backup behind its
    // longer master occupancy — the comparison needs both effects honest.
    let front_door = OverloadPolicy {
        max_concurrency: CONCURRENCY,
        queue_depth: CONCURRENCY,
        deadline_ms: slo_ms,
        shed_on_predicted_miss: false,
        breaker: BreakerPolicy::disabled(),
    };

    println!("Extension: stage-level checkpointed recovery (VGG-11, Lambda)\n");
    println!(
        "seed {seed} ({REPLICATIONS} replications/cell); plan latency {predicted_ms:.1} ms, \
         {} groups; SLO {slo_ms:.1} ms; {CONCURRENCY} masters; {rate_qps:.1} qps \
         ({RATE_FACTOR:.1}x saturation)",
        plan.groups().len(),
    );
    println!(
        "chaos: orchestrator crashes only (workers healthy); outage: severity 8 episodes on \
         the orchestrator domain\n"
    );

    let build = |arm: &str,
                 crash_rate: f64,
                 outage_cfg: Option<OutageConfig>,
                 rep_seed: u64|
     -> ForkJoinRuntime<'_> {
        let mut rt = ForkJoinRuntime::new(&model, &plan, platform.clone())
            .expect("runtime")
            .with_policy(ResiliencePolicy::default())
            .with_overload_predicted(front_door, predicted_ms)
            .expect("overload")
            .with_chaos(ChaosConfig {
                seed: rep_seed ^ 0xC0FFEE,
                orchestrator_crash_rate: crash_rate,
                ..ChaosConfig::default()
            })
            .expect("chaos");
        if let Some(cfg) = outage_cfg {
            rt = rt.with_outage(cfg).expect("outage");
        }
        if arm == "resume" {
            rt = rt
                .with_recovery(RecoveryPolicy::default())
                .expect("recovery");
        }
        rt
    };

    let mut cells: Vec<Cell> = Vec::new();
    let mut table = Table::new(&[
        "crash",
        "outage",
        "arm",
        "goodput",
        "deadline-miss",
        "crashes",
        "replays",
        "restarts",
        "billed(ms)",
    ]);
    let mut run_cell = |crash_rate: f64, outage: &'static str, cfg: Option<OutageConfig>| {
        for arm in ["restart", "resume"] {
            let mut report: Option<ServingReport> = None;
            for rep in 0..REPLICATIONS {
                let rep_seed = replication_seed(seed, rep);
                let r = build(arm, crash_rate, cfg, rep_seed)
                    .serve_open_loop(rate_qps, QUERIES, CONCURRENCY, rep_seed)
                    .expect("serve");
                match report.as_mut() {
                    Some(base) => base.absorb(&r),
                    None => report = Some(r),
                }
            }
            let report = report.expect("at least one replication");
            let cell = Cell {
                arm,
                crash_rate,
                outage,
                report,
            };
            table.row(vec![
                if crash_rate > 0.0 {
                    format!("{crash_rate:.2}")
                } else {
                    "calm".to_string()
                },
                outage.to_string(),
                arm.to_string(),
                format!("{}", cell.goodput()),
                format!("{}", cell.report.resilience.deadline_exceeded_queries),
                format!("{}", cell.report.recovery.orchestrator_crashes),
                format!("{}", cell.report.recovery.failover_replays),
                format!("{}", cell.report.recovery.full_restarts),
                format!("{}", cell.report.billing.billed_ms_total()),
            ]);
            cells.push(cell);
        }
    };

    // Calm cell first: its billed totals anchor every wasted-work figure.
    run_cell(0.0, "none", None);
    if smoke {
        run_cell(0.25, "severe", Some(orchestrator_outage(OUTAGE_SEED)));
    } else {
        for &rate in &CRASH_RATES {
            run_cell(rate, "none", None);
            run_cell(rate, "severe", Some(orchestrator_outage(OUTAGE_SEED)));
        }
    }
    table.print();

    let path = format!("{out_dir}/BENCH_recovery.json");
    std::fs::write(&path, json_report(seed, slo_ms, rate_qps, &cells))
        .expect("write BENCH_recovery.json");
    println!("\nwrote {path}");

    let cell = |arm: &str, crash_rate: f64, outage: &str| {
        cells
            .iter()
            .find(|c| c.arm == arm && c.crash_rate == crash_rate && c.outage == outage)
            .expect("cell")
    };

    // Calm cells must be identical across arms: with no crashes the
    // checkpoint cache is pure bookkeeping, and the recovery counters are
    // the only permitted difference.
    let calm_restart = cell("restart", 0.0, "none");
    let calm_resume = cell("resume", 0.0, "none");
    assert_eq!(
        calm_restart.report.latency.mean().to_bits(),
        calm_resume.report.latency.mean().to_bits(),
        "calm latency must be bit-identical across arms"
    );
    assert_eq!(
        calm_restart.report.billing.billed_ms_total(),
        calm_resume.report.billing.billed_ms_total(),
        "calm billing must match across arms"
    );
    assert_eq!(
        calm_restart.goodput(),
        calm_resume.goodput(),
        "calm goodput must match across arms"
    );
    assert_eq!(calm_restart.report.recovery.orchestrator_crashes, 0);
    assert!(calm_resume.report.recovery.checkpoints_stored > 0);

    // Acceptance criteria at the severe high-crash cell.
    let restart = cell("restart", 0.25, "severe");
    let resume = cell("resume", 0.25, "severe");
    let wasted = |c: &Cell| {
        c.report
            .billing
            .billed_ms_total()
            .saturating_sub(cell(c.arm, 0.0, "none").report.billing.billed_ms_total())
    };
    let wasted_restart = wasted(restart);
    let wasted_resume = wasted(resume);
    let wasted_ratio = wasted_resume as f64 / (wasted_restart as f64).max(1.0);
    let goodput_ratio = resume.goodput() as f64 / (restart.goodput() as f64).max(1.0);
    println!(
        "\nat crash 0.25 + severe episodes: wasted work {wasted_resume} ms (resume) vs \
         {wasted_restart} ms (restart) = {wasted_ratio:.2}x; goodput {} vs {} \
         ({goodput_ratio:.2}x)",
        resume.goodput(),
        restart.goodput(),
    );
    assert!(
        restart.report.recovery.orchestrator_crashes > 0,
        "the severe cell must actually crash orchestrators"
    );
    assert_eq!(
        resume.report.recovery.full_restarts, 0,
        "a capacious cache should never full-restart: {:?}",
        resume.report.recovery
    );
    assert!(
        wasted_ratio <= 0.5,
        "resume wasted work must be <= 0.5x restart, got {wasted_ratio:.3}"
    );
    assert!(
        goodput_ratio >= 1.2,
        "resume goodput must be >= 1.2x restart, got {goodput_ratio:.3}"
    );

    if smoke {
        println!("\nsmoke ok: wasted work <= 0.5x restart, goodput >= 1.2x, calm cells identical");
    } else {
        println!("\nexpectation: calm cells are bit-identical across arms (checkpointing is free");
        println!("when nothing crashes); as crash rate and episode severity grow, the restart arm");
        println!("re-bills every completed stage and backs up its admission queue, while the");
        println!("resume arm pays one failover per crash and skips resumes that cannot meet the");
        println!("deadline.");
    }
}
