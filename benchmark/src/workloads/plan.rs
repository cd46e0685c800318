//! The planning workload: every catalog model deployed on every platform
//! under both objectives through `Gillis::deploy`, each plan validated and
//! round-tripped through its text form.

use std::sync::Arc;
use std::time::Instant;

use gillis::bo::{BayesOpt, BoConfig};
use gillis::core::predict::{predict_plan, predict_plan_pipelined};
use gillis::core::{
    analyze_group, DpPartitioner, EvalCache, ExecutionPlan, ForkJoinRuntime, PlanObjective,
};
use gillis::faas::PlatformProfile;
use gillis::model::LinearModel;
use gillis::perf::PerfModel;
use gillis::rl::{slo_aware_partition, SloAwareConfig};
use gillis::serving::{lookup_platform, model_catalog, Deployment, Gillis, Mode};

use super::{records_round, repeat_setup, trace_overhead_pct, RunConfig};
use crate::host;
use crate::inputs::derive;
use crate::report::Report;
use crate::stats::{fastest_per_slot, geomean, mean, median};
use crate::trace::Tracer;

const PLATFORMS: [&str; 3] = ["lambda", "gcf", "knix"];
/// The SLO-aware objective gets this many times the latency-optimal latency.
const SLO_SLACK: f64 = 2.0;
/// Simulated queries behind each predicted-vs-simulated comparison.
const SIMULATED_QUERIES: usize = 1000;

struct Catalog {
    models: Vec<(&'static str, LinearModel)>,
    platforms: Vec<(&'static str, PlatformProfile)>,
}

fn set_up(tracer: &mut Tracer) -> Result<Catalog, String> {
    let (models, _) = tracer.time("model.zoo_build", 0, || {
        model_catalog()
            .into_iter()
            .map(|(name, build)| (name, build()))
            .collect()
    });
    let platforms = PLATFORMS
        .iter()
        .map(|name| Ok((*name, lookup_platform(name).map_err(|e| e.to_string())?)))
        .collect::<Result<_, String>>()?;
    Ok(Catalog { models, platforms })
}

/// A model's two deployments on one platform.
struct Pair {
    platform: usize,
    model: usize,
    latency_optimal: Deployment,
    slo_aware: Deployment,
}

/// A plan is sound when it validates against the platform's budget and
/// survives `from_text(to_text())`.
fn plan_is_sound(
    plan: &ExecutionPlan,
    model: &LinearModel,
    platform: &PlatformProfile,
) -> Result<(), String> {
    plan.validate(model, platform.model_memory_budget)
        .map_err(|e| format!("validate: {e}"))?;
    match ExecutionPlan::from_text(&plan.to_text()) {
        Ok(back) if &back == plan => Ok(()),
        Ok(_) => Err("text round trip changed the plan".into()),
        Err(e) => Err(format!("text round trip: {e}")),
    }
}

/// One `Gillis::deploy`, timed and checked. `t_max_ms` selects the SLO-aware
/// objective and is then also a bound the prediction must meet.
#[allow(clippy::too_many_arguments)]
fn deploy_one(
    catalog: &Catalog,
    platform: usize,
    model: usize,
    t_max_ms: Option<f64>,
    profile_seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
    sweep_ms: &mut Vec<f64>,
) -> Option<Deployment> {
    let (platform_name, profile) = &catalog.platforms[platform];
    let (model_name, graph) = &catalog.models[model];
    let (mode, span) = match t_max_ms {
        Some(t_max_ms) => (Mode::SloAware { t_max_ms }, "serving.deploy.slo_aware"),
        None => (Mode::LatencyOptimal, "serving.deploy.latency_optimal"),
    };
    let (deployed, ms) = tracer.time(span, sweep_ms.len() as u64, || {
        Gillis::new(graph.clone())
            .platform(profile.clone())
            .mode(mode)
            .seed(profile_seed)
            .deploy()
    });
    sweep_ms.push(ms);
    let verdict = deployed.map_err(|e| e.to_string()).and_then(|d| {
        plan_is_sound(d.plan(), graph, profile)?;
        match t_max_ms {
            Some(t) if d.predicted().latency_ms > t => Err(format!(
                "predicted {:.2} ms exceeds t_max {t:.2} ms",
                d.predicted().latency_ms
            )),
            _ => Ok(d),
        }
    });
    report.check(verdict.is_ok(), || {
        format!(
            "{model_name} on {platform_name} ({mode:?}): {}",
            verdict.as_ref().expect_err("checked")
        )
    });
    verdict.ok()
}

/// Deploys `models` × `platforms` × both objectives with one profile seed,
/// pushing each deploy's host ms onto `sweep_ms` in a fixed order.
fn sweep(
    catalog: &Catalog,
    platforms: &[usize],
    models: &[usize],
    profile_seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
    sweep_ms: &mut Vec<f64>,
) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for &platform in platforms {
        for &model in models {
            let Some(lo) = deploy_one(
                catalog,
                platform,
                model,
                None,
                profile_seed,
                report,
                tracer,
                sweep_ms,
            ) else {
                continue;
            };
            let t_max = SLO_SLACK * lo.predicted().latency_ms;
            if let Some(sa) = deploy_one(
                catalog,
                platform,
                model,
                Some(t_max),
                profile_seed,
                report,
                tracer,
                sweep_ms,
            ) {
                pairs.push(Pair {
                    platform,
                    model,
                    latency_optimal: lo,
                    slo_aware: sa,
                });
            }
        }
    }
    pairs
}

pub fn run(
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
    spins: &mut Vec<f64>,
) -> Result<(), String> {
    let (catalog, setup_s, setup_reps) = repeat_setup(cfg, || set_up(tracer))?;
    report.note("setup_reps", setup_reps);
    spins.push(host::calibration_spin());

    // A traced or quick run keeps to Lambda; quick also thins the catalog to
    // every third model, which still covers each family.
    let platforms: Vec<usize> = if cfg.trace || cfg.quick {
        vec![0]
    } else {
        (0..catalog.platforms.len()).collect()
    };
    let models: Vec<usize> = (0..catalog.models.len())
        .step_by(if cfg.quick { 3 } else { 1 })
        .collect();
    let profile_seed = derive(cfg.seed, "profile");

    // Whole sweeps only: a partial sweep would weigh the cheap models more.
    let began = Instant::now();
    let window = if cfg.trace {
        cfg.seconds / 4.0
    } else {
        cfg.seconds
    };
    // Two sweeps give every deploy a second chance at an undisturbed run; a
    // traced run needs one sweep of each kind after the first.
    let min_sweeps = match (cfg.trace, cfg.quick) {
        (true, _) => 3,
        (false, true) => 1,
        (false, false) => 2,
    };
    let mut sweeps: Vec<Vec<f64>> = Vec::new();
    let mut first = None;
    while sweeps.len() < min_sweeps || began.elapsed().as_secs_f64() < window {
        let k = sweeps.len();
        tracer.set_recording(records_round(cfg, k));
        let mut sweep_ms = Vec::new();
        let pairs = sweep(
            &catalog,
            &platforms,
            &models,
            profile_seed.wrapping_add(k as u64),
            report,
            tracer,
            &mut sweep_ms,
        );
        sweeps.push(sweep_ms);
        first.get_or_insert(pairs);
    }
    tracer.set_recording(cfg.trace);
    let first = first.expect("at least one sweep ran");
    if first.is_empty() {
        return Err("no model deployed under both objectives".into());
    }
    report.note("sweeps", sweeps.len());
    report.note("deploys_per_sweep", sweeps[0].len());

    let lo_ms: Vec<f64> = first
        .iter()
        .map(|p| p.latency_optimal.predicted().latency_ms)
        .collect();
    let sa_usd: Vec<f64> = first.iter().map(|p| p.slo_aware.predicted().usd).collect();
    let sa_billed: Vec<f64> = first
        .iter()
        .map(|p| p.slo_aware.predicted().billed_ms as f64)
        .collect();
    let sweep_s = fastest_per_slot(&sweeps).iter().sum::<f64>() / 1e3;
    let deploys_per_s = sweeps[0].len() as f64 / sweep_s;
    report.set("plan_deploys_per_s", deploys_per_s);
    report.set("plan_lo_ms_geomean", geomean(&lo_ms));
    report.set("plan_sa_billed_ms_geomean", geomean(&sa_billed));
    if !cfg.trace {
        report.set("model_latency_ms", geomean(&lo_ms));
        report.set("model_usd_per_kq", 1e3 * geomean(&sa_usd));
        report.set("setup_s", setup_s);
        return Ok(());
    }

    report.set("model.zoo_build_ms", setup_s * 1e3);
    report.set("trace.overhead_pct", trace_overhead_pct(&sweeps));
    let (lambda_name, lambda) = &catalog.platforms[0];
    debug_assert_eq!(*lambda_name, "lambda");
    let perf = PerfModel::profiled(lambda, profile_seed);
    trace_prediction(&catalog, &first, lambda, &perf, cfg, report, tracer)?;
    trace_perf(lambda, profile_seed, report, tracer);
    trace_planner(&catalog, &first, &models, &perf, report, tracer)?;
    trace_search(&catalog, &first, &perf, profile_seed, report, tracer)?;
    Ok(())
}

/// Lambda pairs of the first sweep with their models.
fn lambda_pairs<'a>(
    catalog: &'a Catalog,
    first: &'a [Pair],
) -> impl Iterator<Item = (&'a LinearModel, &'a Pair)> {
    first
        .iter()
        .filter(|p| p.platform == 0)
        .map(|p| (&catalog.models[p.model].1, p))
}

/// Paper Fig 15: each latency-optimal Lambda plan's predicted latency
/// against the mean of simulating it, and the profiled model against the
/// analytic one on the same plans.
fn trace_prediction(
    catalog: &Catalog,
    first: &[Pair],
    lambda: &PlatformProfile,
    perf: &PerfModel,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let analytic = PerfModel::analytic(lambda);
    let mut sim_err = Vec::new();
    let mut model_gap = Vec::new();
    for (model, pair) in lambda_pairs(catalog, first) {
        let plan = pair.latency_optimal.plan();
        let runtime =
            ForkJoinRuntime::new(model, plan, lambda.clone()).map_err(|e| e.to_string())?;
        let (sim, _) = tracer.time("forkjoin.simulate_many", pair.model as u64, || {
            runtime.simulate_many(SIMULATED_QUERIES, derive(cfg.seed, "simulate"))
        });
        let simulated = sim.latency.mean();
        let predicted = predict_plan(model, plan, perf)
            .map_err(|e| e.to_string())?
            .latency_ms;
        sim_err.push((predicted - simulated).abs() / simulated);
        let by_analytic = predict_plan(model, plan, &analytic)
            .map_err(|e| e.to_string())?
            .latency_ms;
        model_gap.push((predicted - by_analytic).abs() / by_analytic);
    }
    report.set("predict_err_pct", 100.0 * mean(&sim_err));
    report.set("perf.profiled_vs_analytic_pct", 100.0 * mean(&model_gap));
    Ok(())
}

/// `gillis-perf`: what every `deploy` pays to re-profile its platform.
fn trace_perf(
    lambda: &PlatformProfile,
    profile_seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let ms: Vec<f64> = (0..20)
        .map(|i| {
            tracer
                .time("perf.profiled", i, || {
                    PerfModel::profiled(lambda, profile_seed.wrapping_add(i))
                })
                .1
        })
        .collect();
    report.set("perf.profiled_ms", median(&ms));
}

/// `gillis-core` planner: the DP with and without a warmed shared cache and
/// under the pipeline objective, prediction, and group analysis.
fn trace_planner(
    catalog: &Catalog,
    first: &[Pair],
    models: &[usize],
    perf: &PerfModel,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let partition_all = |partitioner: &DpPartitioner, span: &'static str, tracer: &mut Tracer| {
        let mut total = 0.0;
        for &m in models {
            let (plan, ms) = tracer.time(span, m as u64, || {
                partitioner.partition(&catalog.models[m].1, perf)
            });
            plan.map_err(|e| format!("{}: {e}", catalog.models[m].0))?;
            total += ms;
        }
        Ok::<f64, String>(total)
    };
    report.set(
        "core.dp.cold_ms_sum",
        partition_all(&DpPartitioner::default(), "core.dp.partition", tracer)?,
    );
    report.set(
        "core.dp.pipeline_objective_ms_sum",
        partition_all(
            &DpPartitioner::default().with_objective(PlanObjective::PipelineBottleneck),
            "core.dp.partition.pipeline",
            tracer,
        )?,
    );
    let cache = Arc::new(EvalCache::new());
    let cached = DpPartitioner::default().with_cache(Arc::clone(&cache));
    tracer.set_recording(false);
    partition_all(&cached, "core.dp.partition.warming", tracer)?;
    tracer.set_recording(true);
    let before = cache.stats();
    report.set(
        "core.dp.warm_ms_sum",
        partition_all(&cached, "core.dp.partition.warm", tracer)?,
    );
    let after = cache.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let rounds = 20;
    let plans: Vec<(&LinearModel, &ExecutionPlan)> = lambda_pairs(catalog, first)
        .map(|(model, pair)| (model, pair.latency_optimal.plan()))
        .collect();
    let calls = f64::from(rounds) * plans.len() as f64;
    let (result, ms) = tracer.time("core.predict_plan", 0, || {
        for _ in 0..rounds {
            for (model, plan) in &plans {
                predict_plan(model, plan, perf)?;
            }
        }
        Ok::<(), gillis::core::CoreError>(())
    });
    result.map_err(|e| e.to_string())?;
    report.set("core.predict.plan_us", ms * 1e3 / calls);
    let (result, ms) = tracer.time("core.predict_plan_pipelined", 0, || {
        for _ in 0..rounds {
            for (model, plan) in &plans {
                predict_plan_pipelined(model, plan, perf)?;
            }
        }
        Ok::<(), gillis::core::CoreError>(())
    });
    result.map_err(|e| e.to_string())?;
    report.set("core.predict.pipelined_us", ms * 1e3 / calls);
    let groups: usize = plans.iter().map(|(_, plan)| plan.groups().len()).sum();
    let (result, ms) = tracer.time("core.analyze_group", 0, || {
        for _ in 0..rounds {
            for (model, plan) in &plans {
                for g in plan.groups() {
                    analyze_group(model, g.start, g.end, g.option)?;
                }
            }
        }
        Ok::<(), gillis::core::CoreError>(())
    });
    result.map_err(|e| e.to_string())?;
    report.set(
        "core.partition.analyze_group_ns",
        ms * 1e6 / (f64::from(rounds) * groups as f64),
    );
    report.set(
        "core.plan.groups_mean",
        first
            .iter()
            .map(|p| p.latency_optimal.plan().groups().len())
            .sum::<usize>() as f64
            / first.len() as f64,
    );
    Ok(())
}

/// `gillis-rl` below the facade on the Lambda catalog, and `gillis-bo` on
/// VGG-11 as the baseline it is.
fn trace_search(
    catalog: &Catalog,
    first: &[Pair],
    perf: &PerfModel,
    profile_seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (mut train_ms, mut episodes) = (0.0, 0);
    let mut cost_ratio = Vec::new();
    for (model, pair) in lambda_pairs(catalog, first) {
        let lo = pair.latency_optimal.predicted();
        let config = SloAwareConfig {
            t_max_ms: SLO_SLACK * lo.latency_ms,
            seed: profile_seed,
            ..SloAwareConfig::default()
        };
        let (trained, ms) = tracer.time("rl.slo_aware_partition", pair.model as u64, || {
            slo_aware_partition(model, perf, &config)
        });
        let trained = trained.map_err(|e| format!("{}: {e}", catalog.models[pair.model].0))?;
        train_ms += ms;
        episodes += trained.episodes_run;
        cost_ratio.push(trained.predicted.usd / lo.usd);
    }
    report.set("rl.train_ms_sum", train_ms);
    report.set("rl.episodes_per_s", episodes as f64 / (train_ms / 1e3));
    report.set("rl.cost_vs_lo_ratio", geomean(&cost_ratio));

    let (model, pair) = lambda_pairs(catalog, first)
        .find(|(model, _)| model.name() == "vgg11")
        .ok_or("vgg11 is not in the sweep")?;
    let search = BayesOpt::new(BoConfig {
        t_max_ms: SLO_SLACK * pair.latency_optimal.predicted().latency_ms,
        iterations: 50,
        seed: profile_seed,
        ..BoConfig::default()
    });
    let (found, ms) = tracer.time("bo.search", 0, || search.search(model, perf));
    let found = found.map_err(|e| format!("bo search: {e}"))?;
    report.set("bo.search_ms", ms);
    report.set(
        "bo.cost_vs_sa_ratio",
        found.predicted.usd / pair.slo_aware.predicted().usd,
    );
    Ok(())
}
