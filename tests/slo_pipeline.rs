//! Integration tests of the SLO-aware stack: RL partitioner, BO baseline,
//! and brute force agree on feasibility and rank as the paper reports.

use std::sync::Arc;

use gillis::bo::{brute_force, BayesOpt, BoConfig};
use gillis::core::{
    predict_latency_quantile, predict_plan, predict_plan_pipelined, DpPartitioner, EvalCache,
    ExecutionPlan, ForkJoinRuntime, PartitionerConfig, PlanObjective, PlanPrediction,
};
use gillis::faas::workload::ClosedLoop;
use gillis::faas::{Micros, PlatformProfile};
use gillis::model::zoo;
use gillis::perf::PerfModel;
use gillis::rl::{slo_aware_partition, SloAwareConfig};
use gillis::serving::{lookup_model, lookup_platform, model_catalog};
use gillis_pool::with_width_cap;

fn lambda_perf() -> (PlatformProfile, PerfModel) {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    (platform, perf)
}

#[test]
fn all_three_searchers_meet_a_reachable_slo() {
    let (_platform, perf) = lambda_perf();
    let model = zoo::tiny_vgg();
    let single = predict_plan(&model, &ExecutionPlan::single_function(&model), &perf).unwrap();
    // tiny_vgg computes in well under a millisecond, so parallelization can
    // never beat single-function serving (communication costs ~20 ms); an
    // achievable SLO sits at or above the single-function latency.
    let t_max = single.latency_ms * 1.2;

    let sa = slo_aware_partition(
        &model,
        &perf,
        &SloAwareConfig {
            t_max_ms: t_max,
            episodes: 150,
            seed: 1,
            ..SloAwareConfig::default()
        },
    )
    .unwrap();
    assert!(sa.predicted.latency_ms <= t_max);

    let bo = BayesOpt::new(BoConfig {
        t_max_ms: t_max,
        iterations: 25,
        seed: 1,
    })
    .search(&model, &perf)
    .unwrap();

    let bf = brute_force(&model, &perf, t_max, &[2, 4], 2_000_000).unwrap();
    assert!(!bf.truncated);
    assert!(bf.predicted.latency_ms <= t_max);

    // Brute force is optimal: nothing beats it on cost among SLO-compliant
    // plans.
    assert!(
        bf.predicted.billed_ms <= sa.predicted.billed_ms,
        "bf {} vs sa {}",
        bf.predicted.billed_ms,
        sa.predicted.billed_ms
    );
    if bo.meets_slo {
        assert!(bf.predicted.billed_ms <= bo.predicted.billed_ms);
    }
}

#[test]
fn rl_matches_brute_force_on_tiny_model() {
    // Paper Fig 13a: Gillis(SA) learns the same partitioning strategy as
    // brute force on the smallest model. We require it within 15% on cost.
    let (_platform, perf) = lambda_perf();
    let model = zoo::tiny_vgg();
    let single = predict_plan(&model, &ExecutionPlan::single_function(&model), &perf).unwrap();
    let t_max = single.latency_ms * 1.5;

    let bf = brute_force(&model, &perf, t_max, &[2, 4], 2_000_000).unwrap();
    let sa = (0..3)
        .filter_map(|seed| {
            slo_aware_partition(
                &model,
                &perf,
                &SloAwareConfig {
                    t_max_ms: t_max,
                    episodes: 200,
                    seed,
                    ..SloAwareConfig::default()
                },
            )
            .ok()
        })
        .min_by_key(|r| r.predicted.billed_ms)
        .unwrap();
    let ratio = sa.predicted.billed_ms as f64 / bf.predicted.billed_ms as f64;
    assert!(ratio <= 1.15, "sa/bf cost ratio {ratio:.3}");
}

#[test]
fn learned_plan_meets_slo_when_served_under_load() {
    // Close the loop: the predicted-compliant plan must also meet the SLO
    // when actually served to concurrent clients (warm pools, jitter).
    let (platform, perf) = lambda_perf();
    let model = zoo::vgg11();
    let single = predict_plan(&model, &ExecutionPlan::single_function(&model), &perf).unwrap();
    let t_max = single.latency_ms * 0.8;
    let sa = slo_aware_partition(
        &model,
        &perf,
        &SloAwareConfig {
            t_max_ms: t_max,
            episodes: 200,
            seed: 2,
            ..SloAwareConfig::default()
        },
    )
    .unwrap();
    let runtime = ForkJoinRuntime::new(&model, &sa.plan, platform).unwrap();
    let report = runtime
        .serve_workload(ClosedLoop::new(20, 200, Micros::ZERO).unwrap(), 4)
        .unwrap();
    assert!(
        report.latency.mean() <= t_max * 1.05,
        "measured {:.0} ms vs SLO {t_max:.0} ms",
        report.latency.mean()
    );
    assert_eq!(report.cold_starts, 0, "pre-warming should cover the fleet");
}

#[test]
fn tighter_slos_cost_more() {
    // The latency/cost trade-off must be monotone: tightening the SLO never
    // makes serving cheaper.
    let (_platform, perf) = lambda_perf();
    let model = zoo::vgg11();
    let single = predict_plan(&model, &ExecutionPlan::single_function(&model), &perf).unwrap();
    let mut costs = Vec::new();
    for factor in [0.7, 1.2, 3.0] {
        let sa = slo_aware_partition(
            &model,
            &perf,
            &SloAwareConfig {
                t_max_ms: single.latency_ms * factor,
                episodes: 150,
                seed: 5,
                ..SloAwareConfig::default()
            },
        )
        .unwrap();
        costs.push(sa.predicted.billed_ms);
    }
    assert!(
        costs[0] >= costs[1] && costs[1] >= costs[2],
        "costs not monotone: {costs:?}"
    );
}

/// The SLOs the catalog sweeps below hold a model to, as multiples of its
/// latency-optimal latency.
const SLACKS: [f64; 2] = [1.25, 2.0];

#[test]
fn the_cost_sweep_is_sound_and_reproducible_across_the_catalog() {
    // Every catalog model on every platform at both slacks: the sweep's plan
    // validates, survives its text form, meets the SLO under `predict_plan`,
    // bills no more than the latency-optimal plan, and is the same plan at
    // any thread count with the cache off, cold and warm.
    for platform_name in ["lambda", "gcf", "knix"] {
        let platform = lookup_platform(platform_name).unwrap();
        let perf = PerfModel::analytic(&platform);
        for (name, build) in model_catalog() {
            let model = build();
            let lo_plan = DpPartitioner::default().partition(&model, &perf).unwrap();
            let lo = predict_plan(&model, &lo_plan, &perf).unwrap();
            for slack in SLACKS {
                let at = format!("{name} on {platform_name} at {slack} x LO");
                let t_max = slack * lo.latency_ms;
                let within = |_: &ExecutionPlan, pred: &PlanPrediction| pred.latency_ms <= t_max;
                let sweep = |dp: DpPartitioner| {
                    dp.cheapest_within(&model, &perf, &within)
                        .unwrap()
                        .unwrap_or_else(|| panic!("{at}: the latency-optimal plan qualifies"))
                };
                let (plan, pred) = with_width_cap(1, || sweep(DpPartitioner::default()));
                plan.validate(&model, platform.model_memory_budget).unwrap();
                assert_eq!(
                    ExecutionPlan::from_text(&plan.to_text()).unwrap(),
                    plan,
                    "{at}"
                );
                assert_eq!(pred, predict_plan(&model, &plan, &perf).unwrap(), "{at}");
                assert!(pred.latency_ms <= t_max, "{at}");
                assert!(pred.billed_ms <= lo.billed_ms, "{at}");
                for threads in [1, 2, 8] {
                    let cache = Arc::new(EvalCache::new());
                    let search = DpPartitioner::default;
                    let cached = || search().with_cache(Arc::clone(&cache));
                    for (state, dp) in [("off", search()), ("cold", cached()), ("warm", cached())] {
                        let got = with_width_cap(threads, || sweep(dp).0);
                        assert_eq!(got, plan, "{at}, {threads} threads, cache {state}");
                    }
                }
            }
        }
    }
}

#[test]
fn the_cost_sweep_matches_brute_force_where_brute_force_finishes() {
    // The sweep returns a hull vertex, so it can never bill less than the
    // exact optimum of its own option space; on the cells where the exact
    // search finishes — the four tiny models at both slacks, VGG-11 at the
    // tight one (its loose cell is `brute.rs`'s) — the recorded gap under
    // the analytic model is zero. (Under a profiled Lambda the loose VGG-11
    // cell does show the gap: DESIGN "Cheapest plan within an SLO".)
    let (_platform, perf) = lambda_perf();
    let degrees = [2, 4, 8, 16];
    let dp = DpPartitioner::new(PartitionerConfig {
        degrees: degrees.to_vec(),
        ..PartitionerConfig::default()
    });
    let cells = [
        "tiny-vgg",
        "tiny-resnet",
        "tiny-inception",
        "tiny-mobilenet",
    ]
    .into_iter()
    .flat_map(|name| SLACKS.map(|slack| (name, slack)))
    .chain([("vgg11", 1.25)]);
    for (name, slack) in cells {
        let model = lookup_model(name).unwrap();
        let lo = predict_plan(&model, &dp.partition(&model, &perf).unwrap(), &perf).unwrap();
        let t_max = slack * lo.latency_ms;
        let (_, sweep) = dp
            .cheapest_within(&model, &perf, &|_, pred| pred.latency_ms <= t_max)
            .unwrap()
            .unwrap();
        let exact = brute_force(&model, &perf, t_max, &degrees, 20_000_000).unwrap();
        assert!(!exact.truncated, "{name} at {slack}");
        assert_eq!(
            sweep.billed_ms, exact.predicted.billed_ms,
            "{name} at {slack}"
        );
    }
}

/// The cheaper bill of the trainer's two DP seeds — the incumbent of its
/// objective, when it meets the SLO, and the cost sweep's plan — with the
/// latency the SLO constrains given by `slo_ms`.
fn cheaper_seed_bill(
    model: &gillis::model::LinearModel,
    perf: &PerfModel,
    config: &SloAwareConfig,
    slo_ms: &dyn Fn(&ExecutionPlan, &PlanPrediction) -> f64,
) -> Option<u64> {
    let within =
        |plan: &ExecutionPlan, pred: &PlanPrediction| slo_ms(plan, pred) <= config.t_max_ms;
    let objective = if config.pipeline {
        PlanObjective::PipelineBottleneck
    } else {
        PlanObjective::Latency
    };
    let plan = DpPartitioner::default()
        .with_objective(objective)
        .partition(model, perf)
        .unwrap();
    let incumbent = predict_plan(model, &plan, perf).unwrap();
    let sweep = DpPartitioner::default()
        .cheapest_within(model, perf, &within)
        .unwrap();
    within(&plan, &incumbent)
        .then_some(incumbent.billed_ms)
        .into_iter()
        .chain(sweep.map(|(_, pred)| pred.billed_ms))
        .min()
}

#[test]
fn training_never_returns_a_dearer_plan_than_either_dp_seed() {
    // The trainer starts from the cheaper of the latency-optimal (or
    // stage-balancing) plan and the cost sweep's, and only ever replaces its
    // incumbent with a cheaper SLO-compliant plan — whatever the SLO
    // constrains: the mean on every catalog cell, the pipelined p99 and a
    // Monte-Carlo p99 on VGG-11.
    let quick = |t_max_ms| SloAwareConfig {
        t_max_ms,
        episodes: 24,
        seed: 3,
        ..SloAwareConfig::default()
    };
    for platform in ["lambda", "gcf", "knix"] {
        let perf = PerfModel::analytic(&lookup_platform(platform).unwrap());
        for (name, build) in model_catalog() {
            let model = build();
            let lo_plan = DpPartitioner::default().partition(&model, &perf).unwrap();
            let lo = predict_plan(&model, &lo_plan, &perf).unwrap();
            let config = quick(2.0 * lo.latency_ms);
            let trained = slo_aware_partition(&model, &perf, &config).unwrap();
            let seeds = cheaper_seed_bill(&model, &perf, &config, &|_, pred| pred.latency_ms);
            assert!(
                trained.predicted.latency_ms <= config.t_max_ms,
                "{name} on {platform}"
            );
            assert!(
                Some(trained.predicted.billed_ms) <= seeds,
                "{name} on {platform}"
            );
        }
    }
    let (_platform, perf) = lambda_perf();
    let vgg = zoo::vgg11();
    let lo_plan = DpPartitioner::default().partition(&vgg, &perf).unwrap();
    let pipelined_p99 = |plan: &ExecutionPlan, _: &PlanPrediction| {
        predict_plan_pipelined(&vgg, plan, &perf).unwrap().p99_ms
    };
    let config = SloAwareConfig {
        pipeline: true,
        ..quick(1.5 * pipelined_p99(&lo_plan, &predict_plan(&vgg, &lo_plan, &perf).unwrap()))
    };
    let trained = slo_aware_partition(&vgg, &perf, &config).unwrap();
    assert!(pipelined_p99(&trained.plan, &trained.predicted) <= config.t_max_ms);
    let seeds = cheaper_seed_bill(&vgg, &perf, &config, &pipelined_p99);
    assert!(seeds.is_some() && Some(trained.predicted.billed_ms) <= seeds);

    let config = SloAwareConfig {
        tail_quantile: Some(0.99),
        ..quick(450.0)
    };
    // The trainer's estimate: 300 draws at its per-search seed.
    let p99 = |plan: &ExecutionPlan, _: &PlanPrediction| {
        predict_latency_quantile(&vgg, plan, &perf, 0.99, 300, config.seed ^ 0x7a11_5eed).unwrap()
    };
    let trained = slo_aware_partition(&vgg, &perf, &config).unwrap();
    assert!(p99(&trained.plan, &trained.predicted) <= config.t_max_ms);
    let seeds = cheaper_seed_bill(&vgg, &perf, &config, &p99);
    assert!(seeds.is_some() && Some(trained.predicted.billed_ms) <= seeds);
}
