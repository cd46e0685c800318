//! Stage-level checkpointed recovery vs full-restart recovery.
//!
//! Serverless orchestrators are themselves functions: they get reaped,
//! OOM-killed, and rescheduled mid-plan. The classic answer is to restart
//! the whole query — every completed stage is recomputed, billed again, and
//! the deadline clock keeps running. Stage-level checkpointing instead makes
//! each group boundary durable, so a replacement orchestrator pays one
//! failover delay and resumes from the last checkpoint.
//!
//! The sweep moves **orchestrator crash rate × outage severity** (reference
//! deploy, open loop behind a deadline front door) and compares two serving
//! stacks on the same seeds, arrival process and admission policy:
//!
//! - **restart**: crashes replay the query from stage 0 (no checkpoint
//!   cache);
//! - **resume**: [`RecoveryPolicy`] checkpointing — crashes fail over and
//!   replay from the last stage boundary, and resumes that cannot meet the
//!   deadline are skipped instead of paid for.
//!
//! Neither arm injects worker faults: the sweep isolates orchestrator
//! crashes, so every billed millisecond beyond the calm cell is crash
//! recovery overhead. **Wasted work** for a cell is its billed total minus
//! the same arm's calm-cell billed total. `smoke` runs the calm cell and the
//! severe high-crash cell, the ones the claims read.

use gillis_core::{ChaosConfig, OutageConfig, PolicyStack, RecoveryPolicy, ResiliencePolicy};

use super::{deadline_front_door, CONCURRENCY, QUERIES};
use crate::sweep::{fold_replications, Row, Sweep};
use crate::{Claim, ReferenceDeploy};

/// Independent replications per cell: each gets its own arrival process and
/// crash stream while the outage episode schedule stays fixed.
const REPLICATIONS: u64 = 3;
const SLO_FACTOR: f64 = 4.0;
const RATE_FACTOR: f64 = 0.5;
const CRASH_RATES: [f64; 2] = [0.1, 0.25];

/// Fixed episode-schedule seed, for the same reason as the outage suite: the
/// bench seed varies arrivals and crash draws without reshuffling how much
/// of the run is spent inside episodes.
const OUTAGE_SEED: u64 = 83;

/// Severe outage on the orchestrator fault domain only: episodes multiply
/// the crash rate (capped at 0.75 per boundary) while worker lanes stay
/// healthy.
fn orchestrator_outage() -> OutageConfig {
    OutageConfig {
        platform: false,
        orchestrators: true,
        ..OutageConfig::severe(8.0, OUTAGE_SEED)
    }
}

/// Runs the sweep: see the module docs.
#[must_use]
pub fn run(seed: u64, smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let deploy = ReferenceDeploy::vgg11();
    let slo_ms = SLO_FACTOR * deploy.predicted_ms;
    let rate_qps = RATE_FACTOR * deploy.saturation_qps(CONCURRENCY);
    let front_door = deadline_front_door(slo_ms);
    let serve = |arm: &str, crash_rate: f64, outage: Option<OutageConfig>, rep_seed: u64| {
        let mut rt = deploy
            .runtime(&deploy.plan)
            .with_policy(ResiliencePolicy::default())
            .with_overload_predicted(front_door, deploy.predicted_ms)
            .expect("overload")
            .with_chaos(ChaosConfig {
                seed: rep_seed ^ 0xC0FFEE,
                orchestrator_crash_rate: crash_rate,
                ..ChaosConfig::default()
            })
            .expect("chaos");
        if let Some(config) = outage {
            rt = rt.with_outage(config).expect("outage");
        }
        if arm == "resume" {
            rt = rt.with_recovery(RecoveryPolicy).expect("recovery");
        }
        rt.serve_open_loop(rate_qps, QUERIES, CONCURRENCY, rep_seed)
            .expect("serve")
    };

    // Calm cell first: its billed totals anchor every wasted-work figure.
    let mut grid = vec![(0.0, "none", None)];
    if smoke {
        grid.push((0.25, "severe", Some(orchestrator_outage())));
    } else {
        for rate in CRASH_RATES {
            grid.push((rate, "none", None));
            grid.push((rate, "severe", Some(orchestrator_outage())));
        }
    }
    let mut calm_billed = [0u64; 2];
    let mut rows = Vec::new();
    for (crash_rate, outage, config) in grid {
        for (a, arm) in ["restart", "resume"].into_iter().enumerate() {
            let r = fold_replications(seed, REPLICATIONS, |rep_seed| {
                serve(arm, crash_rate, config, rep_seed)
            });
            let (res, rec) = (&r.resilience, &r.recovery);
            let billed = r.billing.billed_ms_total();
            if crash_rate == 0.0 {
                calm_billed[a] = billed;
            }
            rows.push(Row(vec![
                ("arm", arm.into()),
                ("crash_rate", (crash_rate, 2).into()),
                ("outage", outage.into()),
                ("goodput", (res.ok_queries + res.degraded_queries).into()),
                ("ok", res.ok_queries.into()),
                ("degraded", res.degraded_queries.into()),
                ("deadline_exceeded", res.deadline_exceeded_queries.into()),
                ("failed", res.failed_queries.into()),
                ("shed", r.overload.shed().into()),
                ("billed_ms_total", billed.into()),
                ("wasted_ms", billed.saturating_sub(calm_billed[a]).into()),
                ("orchestrator_crashes", rec.orchestrator_crashes.into()),
                ("failover_replays", rec.failover_replays.into()),
                ("full_restarts", rec.full_restarts.into()),
                ("stages_saved", rec.stages_saved.into()),
                ("recompute_avoided_ms", (rec.recompute_avoided_ms, 1).into()),
                (
                    "resume_skipped_deadline",
                    rec.resume_skipped_deadline.into(),
                ),
                ("checkpoints_stored", rec.checkpoints_stored.into()),
                ("worker_invocations", res.worker_invocations.into()),
                ("ok_p99_ms", (r.by_status.ok.percentile(99.0), 2).into()),
                ("mean_ms", (r.latency.mean(), 2).into()),
            ]));
        }
    }
    Sweep {
        name: "recovery",
        title: "stage-level checkpointed recovery (VGG-11, Lambda; orchestrator crashes only)",
        header: Row(vec![
            ("seed", seed.into()),
            ("queries", QUERIES.into()),
            ("replications", REPLICATIONS.into()),
            ("concurrency", CONCURRENCY.into()),
            ("slo_ms", (slo_ms, 2).into()),
            ("rate_qps", (rate_qps, 2).into()),
        ]),
        sections: vec![("results", rows)],
        console: "arm crash_rate outage goodput deadline_exceeded orchestrator_crashes \
                  failover_replays full_restarts billed_ms_total wasted_ms",
        unwritten: Vec::new(),
    }
}

/// Checkpointing is free when nothing crashes (calm cells identical across
/// arms); at crash 0.25 under severe episodes resume wastes at most half of
/// restart's work, completes at least 1.2x its goodput and never restarts.
#[must_use]
pub fn claims(sweep: &Sweep) -> Vec<Claim> {
    let at =
        |arm, rate, outage| sweep.cell(&[("arm", arm), ("crash_rate", rate), ("outage", outage)]);
    let (calm_restart, calm_resume) = (at("restart", "0.00", "none"), at("resume", "0.00", "none"));
    let (restart, resume) = (
        at("restart", "0.25", "severe"),
        at("resume", "0.25", "severe"),
    );
    let calm_same = ["mean_ms", "billed_ms_total", "goodput"]
        .iter()
        .all(|key| calm_restart.get(key) == calm_resume.get(key));
    let wasted_ratio = resume.f64("wasted_ms") / restart.f64("wasted_ms").max(1.0);
    let goodput_ratio = resume.f64("goodput") / restart.f64("goodput").max(1.0);
    vec![
        Claim::new(
            "calm cells are bit-identical across arms, with checkpoints stored and no crash",
            calm_same
                && calm_restart.f64("orchestrator_crashes") == 0.0
                && calm_resume.f64("checkpoints_stored") > 0.0,
            format!(
                "mean {:?} against {:?} ms, {} checkpoints",
                calm_restart.f64("mean_ms"),
                calm_resume.f64("mean_ms"),
                calm_resume.f64("checkpoints_stored")
            ),
        ),
        Claim::new(
            "the severe cell crashes orchestrators and a capacious cache never full-restarts",
            restart.f64("orchestrator_crashes") > 0.0 && resume.f64("full_restarts") == 0.0,
            format!(
                "{} crashes, {} full restarts under resume",
                restart.f64("orchestrator_crashes"),
                resume.f64("full_restarts")
            ),
        ),
        Claim::new(
            "resume wastes <= 0.5x restart's work at crash 0.25 under severe episodes",
            wasted_ratio <= 0.5,
            format!(
                "{} against {} ms ({wasted_ratio:.2}x)",
                resume.f64("wasted_ms"),
                restart.f64("wasted_ms")
            ),
        ),
        Claim::new(
            "resume goodput >= 1.2x restart's",
            goodput_ratio >= 1.2,
            format!(
                "{} against {} ({goodput_ratio:.2}x)",
                resume.f64("goodput"),
                restart.f64("goodput")
            ),
        ),
    ]
}
