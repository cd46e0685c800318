//! Adaptive multi-SLO batching under open-loop arrival pressure.
//!
//! Serverless inference bills per invocation-millisecond, so a fork-join
//! wave that carries one query wastes most of what it pays for: the weight
//! transfer and load are the same whether the wave carries 1 query or 8.
//! The sweep drives a mixed-SLO Poisson stream at the reference deploy
//! around its saturation point and compares, on the same seed:
//!
//! - **batch1**: the same SLO classes with `max_batch = 1` — every arrival
//!   dispatches its own wave;
//! - **batch**: [`plan_batch_schedule`] picks a per-class batch size and a
//!   deadline-derived accumulation window at the platform's instance memory,
//!   then `serve_open_loop_batched` forms batches online.
//!
//! Three SLO classes share the stream: interactive (tight deadline, most
//! traffic), standard (loose deadline) and bulk (no deadline). Queries are
//! hashed into classes deterministically and shed on arrival when the
//! predicted batch completion already misses their deadline. An ambient
//! `GILLIS_BATCH_*` policy replaces the classes; ambient chaos and overload
//! run under both arms. `smoke` runs the 2x cell, the one the claims read.

use gillis_core::{plan_batch_schedule, BatchPolicy, ForkJoinRuntime, PolicyStack, SloClass};
use gillis_perf::TransferFormat;

use super::{CONCURRENCY, QUERIES};
use crate::sweep::{Row, Sweep};
use crate::{ms, Claim, ReferenceDeploy};

const MAX_BATCH: usize = 8;
const RATE_FACTORS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// Runs the sweep: see the module docs.
#[must_use]
pub fn run(seed: u64, smoke: bool, ambient: &PolicyStack) -> Sweep {
    let deploy = ReferenceDeploy::vgg11();
    let predicted_ms = deploy.predicted_ms;
    let saturation_qps = deploy.saturation_qps(CONCURRENCY);
    // Deadlines are multiples of the plan latency so the sweep is
    // model-independent.
    let class = |deadline_ms: f64, weight: f64| SloClass {
        deadline_ms,
        weight,
    };
    let batch_policy = ambient.batch.clone().unwrap_or_else(|| BatchPolicy {
        classes: vec![
            class(10.0 * predicted_ms, 2.0),
            class(30.0 * predicted_ms, 1.0),
            class(f64::INFINITY, 1.0),
        ],
        max_batch: MAX_BATCH,
        // Windows cap at twice the plan latency: long enough to fill real
        // batches near saturation, short enough that window wait stays
        // below the queueing the shared waves save.
        max_window_ms: 2.0 * predicted_ms,
        window_margin_ms: 2.0,
    });
    let base_policy = BatchPolicy {
        max_batch: 1,
        ..batch_policy.clone()
    };
    let policies = [("batch1", &base_policy), ("batch", &batch_policy)];
    let factors: &[f64] = if smoke { &[2.0] } else { &RATE_FACTORS };

    let mut rows = Vec::new();
    for &factor in factors {
        let rate_qps = factor * saturation_qps;
        for (name, policy) in policies {
            let (model, plan, platform) = (&deploy.model, &deploy.plan, &deploy.platform);
            let schedule =
                plan_batch_schedule(model, plan, platform, TransferFormat::F32, policy, rate_qps)
                    .expect("schedule");
            let mut rt = ForkJoinRuntime::new(model, plan, platform.clone()).expect("runtime");
            if let Some(overload) = ambient.overload {
                rt = rt.with_overload(overload).expect("overload policy");
            }
            if let Some(chaos) = ambient.chaos {
                rt = rt.with_chaos(chaos).expect("chaos config");
            }
            let r = rt
                .serve_open_loop_batched(policy, &schedule, rate_qps, QUERIES, CONCURRENCY, seed)
                .expect("serve");
            let usd = r.billing.usd_total();
            rows.push(Row(vec![
                ("policy", name.into()),
                ("rate_factor", (factor, 2).into()),
                ("rate_qps", (rate_qps, 2).into()),
                ("memory_mb", (schedule.memory_bytes / 1_000_000).into()),
                ("admitted", r.overload.admitted.into()),
                ("shed", r.overload.shed().into()),
                ("batches", r.batch.batches.into()),
                ("mean_batch", (r.batch.mean_batch(), 3).into()),
                ("fast_path", r.batch.batch_one_fast_path.into()),
                ("size_closes", r.batch.size_closes.into()),
                ("window_closes", r.batch.window_closes.into()),
                ("usd_total", (usd, 6).into()),
                (
                    "queries_per_dollar",
                    (r.overload.admitted as f64 / usd, 1).into(),
                ),
                ("mean_ms", (r.latency.mean(), 2).into()),
                ("p99_ms", (r.latency.percentile(99.0), 2).into()),
                ("ok_p99_ms", (r.by_status.ok.percentile(99.0), 2).into()),
                ("cold_starts", r.cold_starts.into()),
            ]));
        }
    }
    Sweep {
        name: "batch",
        title: "adaptive multi-SLO batching (VGG-11, Lambda)",
        header: Row(vec![
            ("seed", seed.into()),
            ("queries", QUERIES.into()),
            ("concurrency", CONCURRENCY.into()),
            ("max_batch", MAX_BATCH.into()),
            ("plan_latency_ms", (predicted_ms, 2).into()),
            ("saturation_qps", (saturation_qps, 2).into()),
        ]),
        sections: vec![("results", rows)],
        console: "policy rate_factor memory_mb admitted shed batches mean_batch \
                  queries_per_dollar mean_ms p99_ms",
        unwritten: Vec::new(),
    }
}

/// At 2x saturation batching forms real batches and serves at least 1.3x
/// the queries per dollar of dispatch-per-query at an equal or better
/// admitted p99.
#[must_use]
pub fn claims(sweep: &Sweep) -> Vec<Claim> {
    let batched = sweep.cell(&[("policy", "batch"), ("rate_factor", "2.00")]);
    let baseline = sweep.cell(&[("policy", "batch1"), ("rate_factor", "2.00")]);
    let (qpd, base_qpd) = (
        batched.f64("queries_per_dollar"),
        baseline.f64("queries_per_dollar"),
    );
    let (p99, base_p99) = (batched.f64("p99_ms"), baseline.f64("p99_ms"));
    vec![
        Claim::new(
            "2x saturation forms real batches",
            batched.f64("mean_batch") > 1.0,
            format!("mean batch {:.2}", batched.f64("mean_batch")),
        ),
        Claim::new(
            "batching serves >= 1.3x queries per dollar at 2x saturation",
            qpd / base_qpd >= 1.3,
            format!(
                "{qpd:.0} against {base_qpd:.0} queries/$ ({:.2}x)",
                qpd / base_qpd
            ),
        ),
        Claim::new(
            "batched admitted p99 does not exceed dispatch-per-query's",
            p99 <= base_p99,
            format!("{} ms against {} ms", ms(p99), ms(base_p99)),
        ),
    ]
}
