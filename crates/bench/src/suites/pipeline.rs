//! Pipeline-parallel serving across layer groups.
//!
//! A fork-join deployment admits at most `concurrency` queries at a time and
//! holds each one for the full end-to-end plan latency, so its steady-state
//! throughput is `concurrency / latency`. Pipelining turns each layer group
//! into a stage with its own lane pool and a bounded inter-stage queue: a
//! query only occupies one stage at a time, so steady-state throughput is
//! bounded by the *slowest stage* instead of the whole plan. The sweep
//! drives an open-loop Poisson stream (VGG-11 and WRN-50-2, Lambda) around
//! each model's fork-join saturation point and compares, on the same
//! arrival stream and under the same SLO-derived admission policy:
//!
//! - **forkjoin**: the latency-optimal DP plan served by the plain open loop;
//! - **pipeline**: the stage-balancing DP plan
//!   ([`PlanObjective::PipelineBottleneck`]) served by
//!   `serve_open_loop_pipelined` with per-stage lanes equal to the fork-join
//!   concurrency.
//!
//! Queries past the deadline are shed at admission or killed at the next
//! stage boundary, so the admitted-p99 comparison is honest. Goodput QPS is
//! ok+degraded completions divided by the arrival window — the stream is
//! open-loop, so the window is `queries / rate` in both arms. Ambient
//! `GILLIS_OVERLOAD_*` and `GILLIS_PIPELINE_*` policies replace the derived
//! ones and ambient chaos runs under both arms. `smoke` runs the 2x cells;
//! the claims read VGG-11's, the WRN-50-2 cells are reported.

use gillis_core::predict::predict_plan_pipelined;
use gillis_core::{DpPartitioner, OverloadPolicy, PipelinePolicy, PlanObjective, PolicyStack};
use gillis_model::{zoo, LinearModel};

use super::{CONCURRENCY, QUERIES};
use crate::sweep::{Row, Sweep};
use crate::{ms, Claim, ReferenceDeploy};

const RATE_FACTORS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// Runs the sweep: see the module docs.
#[must_use]
pub fn run(seed: u64, smoke: bool, ambient: &PolicyStack) -> Sweep {
    let lanes = ambient
        .pipeline
        .unwrap_or_else(|| PipelinePolicy::with_lanes(CONCURRENCY));
    let factors: &[f64] = if smoke { &[2.0] } else { &RATE_FACTORS };
    let models: [(&str, LinearModel); 2] = [("vgg11", zoo::vgg11()), ("wrn50-2", zoo::wrn50(2))];

    let (mut plans, mut rows) = (Vec::new(), Vec::new());
    for (name, model) in models {
        let deploy = ReferenceDeploy::new(model);
        let staged = DpPartitioner::default()
            .with_objective(PlanObjective::PipelineBottleneck)
            .partition(&deploy.model, &deploy.perf)
            .expect("stage-balancing plan");
        let bottleneck_ms = predict_plan_pipelined(&deploy.model, &staged, &deploy.perf)
            .expect("pipeline prediction")
            .bottleneck_ms;
        let saturation_qps = deploy.saturation_qps(CONCURRENCY);
        let slo_ms = 4.0 * deploy.predicted_ms;
        let overload = ambient
            .overload
            .unwrap_or_else(|| OverloadPolicy::for_slo(slo_ms, CONCURRENCY));
        plans.push(Row(vec![
            ("model", name.into()),
            ("plan_latency_ms", (deploy.predicted_ms, 2).into()),
            ("bottleneck_ms", (bottleneck_ms, 2).into()),
            ("stages", staged.groups().len().into()),
            ("saturation_qps", (saturation_qps, 2).into()),
        ]));
        for &factor in factors {
            let rate_qps = factor * saturation_qps;
            for arm in ["forkjoin", "pipeline"] {
                let plan = if arm == "pipeline" {
                    &staged
                } else {
                    &deploy.plan
                };
                let mut rt = deploy
                    .runtime(plan)
                    .with_overload(overload)
                    .expect("overload policy");
                if let Some(chaos) = ambient.chaos {
                    rt = rt.with_chaos(chaos).expect("chaos config");
                }
                let r = if arm == "pipeline" {
                    rt.serve_open_loop_pipelined(&lanes, rate_qps, QUERIES, CONCURRENCY, seed)
                } else {
                    rt.serve_open_loop(rate_qps, QUERIES, CONCURRENCY, seed)
                }
                .expect("serve");
                let goodput = (r.by_status.ok.count() + r.by_status.degraded.count()) as u64;
                let usd = r.billing.usd_total();
                rows.push(Row(vec![
                    ("model", name.into()),
                    ("policy", arm.into()),
                    ("rate_factor", (factor, 2).into()),
                    ("rate_qps", (rate_qps, 2).into()),
                    ("admitted", r.overload.admitted.into()),
                    ("shed", r.overload.shed().into()),
                    ("goodput", goodput.into()),
                    (
                        "goodput_qps",
                        (goodput as f64 / (QUERIES as f64 / rate_qps), 2).into(),
                    ),
                    ("usd_total", (usd, 6).into()),
                    ("queries_per_dollar", (goodput as f64 / usd, 1).into()),
                    ("mean_ms", (r.latency.mean(), 2).into()),
                    ("p99_ms", (r.latency.percentile(99.0), 2).into()),
                    ("ok_p99_ms", (r.by_status.ok.percentile(99.0), 2).into()),
                    ("stage_dispatches", r.pipeline.stage_dispatches.into()),
                    ("handoffs", r.pipeline.handoffs.into()),
                    ("backpressure_stalls", r.pipeline.backpressure_stalls.into()),
                    ("peak_stage_queue", r.pipeline.peak_stage_queue.into()),
                    ("cold_starts", r.cold_starts.into()),
                ]));
            }
        }
    }
    Sweep {
        name: "pipeline",
        title: "pipeline-parallel serving across layer groups (Lambda)",
        header: Row(vec![
            ("seed", seed.into()),
            ("queries", QUERIES.into()),
            ("concurrency", CONCURRENCY.into()),
        ]),
        sections: vec![("models", plans), ("results", rows)],
        console: "model plan_latency_ms bottleneck_ms stages saturation_qps policy \
                  rate_factor admitted shed goodput_qps queries_per_dollar mean_ms p99_ms \
                  backpressure_stalls",
        unwritten: Vec::new(),
    }
}

/// On VGG-11 at 2x fork-join saturation the pipeline streams across stages
/// and sustains at least 1.3x the goodput QPS at an equal or better admitted
/// p99, never serving fewer queries per dollar.
#[must_use]
pub fn claims(sweep: &Sweep) -> Vec<Claim> {
    let at = |policy| {
        sweep.cell(&[
            ("model", "vgg11"),
            ("policy", policy),
            ("rate_factor", "2.00"),
        ])
    };
    let (pipelined, baseline) = (at("pipeline"), at("forkjoin"));
    let ratio = |key| pipelined.f64(key) / baseline.f64(key);
    let (p99, base_p99) = (pipelined.f64("p99_ms"), baseline.f64("p99_ms"));
    vec![
        Claim::new(
            "the pipeline arm streams across stages",
            pipelined.f64("stage_dispatches") > 0.0 && pipelined.f64("handoffs") > 0.0,
            format!(
                "{} dispatches, {} hand-offs",
                pipelined.f64("stage_dispatches"),
                pipelined.f64("handoffs")
            ),
        ),
        Claim::new(
            "pipelining sustains >= 1.3x goodput qps at 2x saturation",
            ratio("goodput_qps") >= 1.3,
            format!(
                "{:.1} against {:.1} qps ({:.2}x)",
                pipelined.f64("goodput_qps"),
                baseline.f64("goodput_qps"),
                ratio("goodput_qps")
            ),
        ),
        // Per-admitted-query billing is nearly identical across the arms
        // (same compute, plus hand-off transfers), so the cost win tracks
        // the goodput win only when sheds are billed: reported, gated at 1x.
        Claim::new(
            "pipelining serves no fewer queries per dollar",
            ratio("queries_per_dollar") >= 1.0,
            format!("{:.2}x", ratio("queries_per_dollar")),
        ),
        Claim::new(
            "pipelined admitted p99 does not exceed fork-join's",
            p99 <= base_p99,
            format!("{} ms against {} ms", ms(p99), ms(base_p99)),
        ),
    ]
}
