//! Correlated-outage resilience — retry budgets and brownout.
//!
//! Per-invocation chaos models independent faults; real serverless incidents
//! are *correlated*: a platform brownout or an AZ wobble pushes the failure
//! rate of every lane up for seconds at a time. Under naive retry policies
//! those episodes self-amplify — each admitted query launches several worker
//! invocations, which keeps masters busy longer, which backs up the queue,
//! which turns a partial outage into a full one.
//!
//! The sweep moves outage **severity × episode duration** (reference deploy,
//! deterministic Markov on/off episodes on the platform fault domain) and
//! compares two serving stacks on the same seed, arrival process, chaos
//! baseline and admission policy:
//!
//! - **naive**: [`ResiliencePolicy::naive_retry`] — four immediate retries,
//!   no backoff, no budget, no degradation;
//! - **guarded**: backoff + hedging, an adaptive [`RetryBudgetPolicy`]
//!   (retries/hedges debit a token bucket refilled by successful first
//!   attempts), and a [`BrownoutPolicy`] degradation ladder (full →
//!   no-hedge → int8 wire → local-fallback → shed, hysteretic recovery).
//!
//! Both arms run behind the same deadline front door, so *goodput* is
//! honest: queries that completed (ok or degraded) within the deadline. One
//! more cell, outside the artifact, composes the guarded stack with adaptive
//! batching and checks the counters still add up. `smoke` runs the calm cell
//! and the severe long-episode cell, the ones the claims read.

use gillis_core::{
    plan_batch_schedule, BatchPolicy, BrownoutPolicy, ChaosConfig, ForkJoinRuntime, OutageConfig,
    PolicyStack, ResiliencePolicy, RetryBudgetPolicy, ServingReport,
};
use gillis_perf::TransferFormat;

use super::{deadline_front_door, CONCURRENCY, QUERIES};
use crate::sweep::{fold_replications, Row, Sweep, Value};
use crate::{Claim, ReferenceDeploy};

/// Independent replications per cell: each gets its own arrival process and
/// chaos stream while the outage episode schedule stays fixed, so the
/// claimed ratios average over arrival noise instead of hinging on one seed.
const REPLICATIONS: u64 = 3;
const SLO_FACTOR: f64 = 7.0;
const RATE_FACTOR: f64 = 0.2;
const SEVERITIES: [f64; 2] = [3.0, 32.0];

/// (label, min episode windows, max episode windows) at 200 ms per window.
const DURATIONS: [(&str, u32, u32); 2] = [("short", 5, 10), ("long", 20, 40)];

/// The episode schedule is part of the experimental design (like the rate
/// grid), so it uses its own fixed seed: the bench seed varies the arrival
/// process and per-site chaos draws without also reshuffling how much of the
/// run is spent inside episodes.
const OUTAGE_SEED: u64 = 57;

fn episodes(severity: f64, (_, min_windows, max_windows): (&str, u32, u32)) -> OutageConfig {
    OutageConfig {
        min_windows,
        max_windows,
        // Mean calm stretch of ~33 windows (6.7 s): long enough for the
        // brownout ladder to climb back between episodes.
        start_prob: 0.03,
        ..OutageConfig::severe(severity, OUTAGE_SEED)
    }
}

/// Baseline chaos: modest independent failures that a severity-32 episode
/// saturates into near-certain invoke failure (a 3x one does not).
fn chaos(rep_seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed: rep_seed ^ 0xC0FFEE,
        invoke_failure_rate: 0.15,
        straggler_rate: 0.03,
        straggler_slowdown: 12.0,
        ..ChaosConfig::default()
    }
}

/// The ladder should park at LocalOnly through an episode, not slide to
/// Shed: with a VGG-11 plan one query is 8 lanes, so a 24-lane window needs
/// three probes for a verdict, and a probe spacing of 32 arrivals (~11 s at
/// this rate) puts consecutive probes further apart than any episode
/// (<= 8 s). A single in-episode probe therefore cannot fill a window with
/// failures, and `degrade_below: 0.25` demands two of the three probes fail
/// before the ladder sheds — sustained outage, not one unlucky sample.
/// `recover_above: 0.55` lets two clean probes out of three climb back, and
/// shedding probes every 4th arrival — shedding is expensive, so the ladder
/// hunts for recovery far more eagerly at Shed than it second-guesses itself
/// at LocalOnly.
const LADDER: BrownoutPolicy = BrownoutPolicy {
    window_lanes: 24,
    degrade_below: 0.25,
    recover_above: 0.55,
    clean_windows: 1,
    probe_interval: 32,
    shed_probe_interval: Some(4),
};

fn row(arm: &str, severity: f64, duration: &str, r: &ServingReport) -> Row {
    let (res, b) = (&r.resilience, &r.brownout);
    Row(vec![
        ("arm", arm.into()),
        ("severity", (severity, 1).into()),
        ("duration", duration.into()),
        ("goodput", (res.ok_queries + res.degraded_queries).into()),
        ("ok", res.ok_queries.into()),
        ("degraded", res.degraded_queries.into()),
        ("deadline_exceeded", res.deadline_exceeded_queries.into()),
        ("failed", res.failed_queries.into()),
        ("shed_overload", r.overload.shed().into()),
        ("shed_brownout", b.shed_queries.into()),
        ("retry_amplification", (r.retry_amplification(), 4).into()),
        ("worker_invocations", res.worker_invocations.into()),
        ("first_attempts", res.first_attempts.into()),
        ("budget_denied_retries", res.budget_denied_retries.into()),
        ("budget_denied_hedges", res.budget_denied_hedges.into()),
        ("corruptions_detected", res.corruptions_detected.into()),
        ("brownout_levels", Value::Ints(b.queries_at_level.to_vec())),
        ("step_downs", b.step_downs.into()),
        ("step_ups", b.step_ups.into()),
        ("ok_p99_ms", (r.by_status.ok.percentile(99.0), 2).into()),
        ("mean_ms", (r.latency.mean(), 2).into()),
    ])
}

/// Runs the sweep: see the module docs.
#[must_use]
pub fn run(seed: u64, smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let deploy = ReferenceDeploy::vgg11();
    let slo_ms = SLO_FACTOR * deploy.predicted_ms;
    let rate_qps = RATE_FACTOR * deploy.saturation_qps(CONCURRENCY);
    let front_door = deadline_front_door(slo_ms);
    let build = |arm: &str, outage: Option<OutageConfig>, rep_seed: u64| -> ForkJoinRuntime<'_> {
        let mut rt = deploy
            .runtime(&deploy.plan)
            .with_overload_predicted(front_door, deploy.predicted_ms)
            .expect("overload")
            .with_chaos(chaos(rep_seed))
            .expect("chaos");
        if let Some(config) = outage {
            rt = rt.with_outage(config).expect("outage");
        }
        if arm == "naive" {
            return rt.with_policy(ResiliencePolicy::naive_retry());
        }
        rt.with_policy(ResiliencePolicy::backoff_hedged())
            .with_retry_budget(RetryBudgetPolicy::default())
            .expect("budget")
            .with_brownout(LADDER)
            .expect("brownout")
    };

    // Calm cell first: no episodes, baseline chaos only.
    let mut grid: Vec<(f64, &str, Option<OutageConfig>)> = vec![(1.0, "none", None)];
    let severe_long = (32.0, DURATIONS[1].0, Some(episodes(32.0, DURATIONS[1])));
    if smoke {
        grid.push(severe_long);
    } else {
        for severity in SEVERITIES {
            grid.extend(DURATIONS.map(|d| (severity, d.0, Some(episodes(severity, d)))));
        }
    }
    let mut rows = Vec::new();
    for (severity, duration, outage) in grid {
        for arm in ["naive", "guarded"] {
            let report = fold_replications(seed, REPLICATIONS, |rep_seed| {
                build(arm, outage, rep_seed)
                    .serve_open_loop(rate_qps, QUERIES, CONCURRENCY, rep_seed)
                    .expect("serve")
            });
            rows.push(row(arm, severity, duration, &report));
        }
    }

    // Composed: outage + overload + adaptive multi-SLO batching on the
    // guarded stack, one replication.
    let batch = BatchPolicy::single(slo_ms, 4);
    let (model, plan, platform) = (&deploy.model, &deploy.plan, &deploy.platform);
    let schedule =
        plan_batch_schedule(model, plan, platform, TransferFormat::F32, &batch, rate_qps)
            .expect("batch schedule");
    let composed = fold_replications(seed, 1, |rep_seed| {
        build("guarded", severe_long.2, rep_seed)
            .serve_open_loop_batched(&batch, &schedule, rate_qps, QUERIES, CONCURRENCY, rep_seed)
            .expect("composed serve")
    });
    let mut composed_row = row("guarded+batching", 32.0, "long", &composed);
    composed_row
        .0
        .push(("admitted", composed.overload.admitted.into()));
    composed_row
        .0
        .push(("batches", composed.batch.batches.into()));

    Sweep {
        name: "outage",
        title: "correlated-outage resilience (VGG-11, Lambda; episodes on the platform domain)",
        header: Row(vec![
            ("seed", seed.into()),
            ("queries", QUERIES.into()),
            ("replications", REPLICATIONS.into()),
            ("concurrency", CONCURRENCY.into()),
            ("slo_ms", (slo_ms, 2).into()),
            ("rate_qps", (rate_qps, 2).into()),
        ]),
        sections: vec![("results", rows)],
        console: "arm severity duration goodput deadline_exceeded shed_overload \
                  shed_brownout retry_amplification ok_p99_ms",
        unwritten: vec![composed_row],
    }
}

/// Under severe long episodes the budget caps amplification at 1.2x where
/// naive retry exceeds 2x, guarded goodput is at least 1.5x naive's, and the
/// composed cell still accounts for every arrival.
#[must_use]
pub fn claims(sweep: &Sweep) -> Vec<Claim> {
    let at = |arm| sweep.cell(&[("arm", arm), ("severity", "32.0"), ("duration", "long")]);
    let (naive, guarded, composed) = (at("naive"), at("guarded"), &sweep.unwritten[0]);
    let (naive_amp, guarded_amp) = (
        naive.f64("retry_amplification"),
        guarded.f64("retry_amplification"),
    );
    let ratio = guarded.f64("goodput") / naive.f64("goodput").max(1.0);
    let accounted =
        composed.f64("admitted") + composed.f64("shed_overload") + composed.f64("shed_brownout");
    vec![
        Claim::new(
            "naive retry amplifies >= 2x under severe long episodes",
            naive_amp >= 2.0,
            format!("{naive_amp:.2}x"),
        ),
        Claim::new(
            "budgeted amplification stays <= 1.2x",
            guarded_amp <= 1.2,
            format!("{guarded_amp:.2}x"),
        ),
        Claim::new(
            "guarded goodput >= 1.5x naive under severe long episodes",
            ratio >= 1.5,
            format!(
                "{} against {} ({ratio:.2}x)",
                guarded.f64("goodput"),
                naive.f64("goodput")
            ),
        ),
        Claim::new(
            "composed with batching, every arrival is admitted or shed and amplification stays <= 1.2x",
            accounted == sweep.header.f64("queries") && composed.f64("retry_amplification") <= 1.2,
            format!(
                "{accounted} accounted in {} batches, amplification {:.2}x",
                composed.f64("batches"),
                composed.f64("retry_amplification")
            ),
        ),
    ]
}
