//! Overload protection under open-loop arrival pressure.
//!
//! A front door that admits every arrival dies politely: with a bounded
//! number of concurrent masters, any arrival rate above saturation grows the
//! queue — and the latency of *every* admitted query — without bound. The
//! sweep moves the arrival rate around the reference deploy's saturation
//! point and compares two front doors on the same seed:
//!
//! - **default**: bounded concurrency, unbounded queue, no deadline;
//! - **overload**: [`OverloadPolicy::for_slo`] — queue bounded at twice the
//!   concurrency, per-query deadline at the SLO (2x the predicted plan
//!   latency), shed-on-admission when the predicted wait already misses the
//!   deadline, and per-lane circuit breakers. An ambient `GILLIS_OVERLOAD_*`
//!   policy replaces it; ambient chaos runs under both front doors.
//!
//! `smoke` runs the 2x cell, the one the claims read.

use gillis_core::{OverloadPolicy, PolicyStack};

use super::{CONCURRENCY, QUERIES};
use crate::sweep::{Row, Sweep};
use crate::{ms, Claim, ReferenceDeploy};

const SLO_FACTOR: f64 = 2.0;
const RATE_FACTORS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

/// Runs the sweep: see the module docs.
#[must_use]
pub fn run(seed: u64, smoke: bool, ambient: &PolicyStack) -> Sweep {
    let deploy = ReferenceDeploy::vgg11();
    let slo_ms = SLO_FACTOR * deploy.predicted_ms;
    let saturation_qps = deploy.saturation_qps(CONCURRENCY);
    let protected = ambient
        .overload
        .unwrap_or_else(|| OverloadPolicy::for_slo(slo_ms, CONCURRENCY));
    let policies = [
        ("default", OverloadPolicy::unprotected(CONCURRENCY)),
        ("overload", protected),
    ];
    let factors: &[f64] = if smoke { &[2.0] } else { &RATE_FACTORS };

    let mut rows = Vec::new();
    for &factor in factors {
        let rate_qps = factor * saturation_qps;
        for (name, policy) in policies {
            let mut rt = deploy
                .runtime(&deploy.plan)
                .with_overload(policy)
                .expect("overload policy");
            if let Some(chaos) = ambient.chaos {
                rt = rt.with_chaos(chaos).expect("chaos config");
            }
            let r = rt
                .serve_open_loop(rate_qps, QUERIES, CONCURRENCY, seed)
                .expect("serve");
            let o = &r.overload;
            rows.push(Row(vec![
                ("policy", name.into()),
                ("rate_factor", (factor, 2).into()),
                ("rate_qps", (rate_qps, 2).into()),
                ("admitted", o.admitted.into()),
                ("shed_queue_full", o.shed_queue_full.into()),
                ("shed_predicted_miss", o.shed_predicted_miss.into()),
                (
                    "deadline_exceeded",
                    r.resilience.deadline_exceeded_queries.into(),
                ),
                ("cancelled_attempts", o.cancelled_attempts.into()),
                ("peak_queue", o.peak_queue_depth.into()),
                ("breaker_opens", o.breaker_opens.into()),
                ("breaker_short_circuits", o.breaker_short_circuits.into()),
                ("mean_ms", (r.latency.mean(), 2).into()),
                ("p99_ms", (r.latency.percentile(99.0), 2).into()),
                ("ok_p99_ms", (r.by_status.ok.percentile(99.0), 2).into()),
                ("cold_starts", r.cold_starts.into()),
            ]));
        }
    }
    Sweep {
        name: "overload",
        title: "overload protection under open-loop arrivals (VGG-11, Lambda)",
        header: Row(vec![
            ("seed", seed.into()),
            ("queries", QUERIES.into()),
            ("concurrency", CONCURRENCY.into()),
            ("slo_ms", (slo_ms, 2).into()),
            ("saturation_qps", (saturation_qps, 2).into()),
        ]),
        sections: vec![("results", rows)],
        console: "policy rate_factor admitted shed_queue_full shed_predicted_miss \
                  deadline_exceeded mean_ms p99_ms ok_p99_ms",
        unwritten: Vec::new(),
    }
}

/// At 2x saturation the protected front door sheds, accounts for every
/// arrival and holds the admitted p99 within 1.5x the SLO, where the
/// unprotected one does not.
#[must_use]
pub fn claims(sweep: &Sweep) -> Vec<Claim> {
    let protected = sweep.cell(&[("policy", "overload"), ("rate_factor", "2.00")]);
    let unprotected = sweep.cell(&[("policy", "default"), ("rate_factor", "2.00")]);
    let shed = protected.f64("shed_queue_full") + protected.f64("shed_predicted_miss");
    let admitted = protected.f64("admitted");
    let (p99, baseline_p99) = (protected.f64("p99_ms"), unprotected.f64("p99_ms"));
    let slo_ms = sweep.header.f64("slo_ms");
    vec![
        Claim::new(
            "2x saturation sheds, and every arrival is admitted or shed",
            shed > 0.0 && admitted + shed == sweep.header.f64("queries"),
            format!("{admitted} admitted + {shed} shed"),
        ),
        Claim::new(
            "admitted p99 stays within 1.5x the SLO at 2x saturation",
            p99 <= 1.5 * slo_ms,
            format!("p99 {} ms, SLO {} ms", ms(p99), ms(slo_ms)),
        ),
        Claim::new(
            "the unprotected front door is worse at 2x saturation",
            baseline_p99 > p99,
            format!("p99 {} ms against {} ms", ms(baseline_p99), ms(p99)),
        ),
    ]
}
