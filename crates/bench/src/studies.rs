//! The studies: ablations of the paper's design choices — grouping (§III-C),
//! master participation (§III-B), the DP's memory grid (§IV-B), order-
//! statistic fork prediction (§IV-A) — and extensions past it: cold starts
//! (§III-A), the int8 wire and tail-latency SLOs (§VI). Each is a function
//! returning a [`Sweep`] and a `claims` stating what the study shows, in the
//! record [`figures`](crate::figures) uses; every claim's name carries its
//! threshold. Every run takes at most a second and ignores `smoke`; seeds
//! follow the figures' rule. The `studies` binary prints them;
//! `tests/claims.rs` asserts their claims in tier-1.

use gillis_core::{
    predict_latency_quantile, predict_plan, DpPartitioner, ExecutionPlan, ForkJoinRuntime,
    PartitionerConfig, Placement, PlannedGroup, PolicyStack, ResilienceCounters,
};
use gillis_faas::billing::BillingMeter;
use gillis_faas::fleet::Fleet;
use gillis_faas::workload::ClosedLoop;
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::{zoo, LinearModel};
use gillis_perf::{PerfModel, TransferFormat};
use gillis_rl::{slo_aware_partition, SloAwareConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{join, mean};
use crate::sweep::{column, Row, Sweep, Value};
use crate::{Claim, Experiment, ReferenceDeploy};

/// Every study, the paper's ablations first.
pub const STUDIES: [Experiment; 7] = [
    Experiment::new("grouping", 3, grouping, grouping_claims),
    Experiment::new("master", 9, master, master_claims),
    Experiment::new("mem_grid", 0, mem_grid, mem_grid_claims),
    Experiment::new("order_stats", 7, order_stats, order_stats_claims),
    Experiment::new("cold_start", 11, cold_start, cold_start_claims),
    Experiment::new("int8_wire", 0, int8_wire, int8_wire_claims),
    Experiment::new("tail_slo", 21, tail_slo, tail_slo_claims),
];

/// The DP's plan of `model` under `config`.
fn plan(model: &LinearModel, perf: &PerfModel, config: PartitionerConfig) -> ExecutionPlan {
    let plan = DpPartitioner::new(config).partition(model, perf);
    plan.expect("catalog models are partitionable")
}

/// Mean served latency of `plan` over 50 warm queries.
fn served_ms(model: &LinearModel, plan: &ExecutionPlan, on: &PlatformProfile, seed: u64) -> f64 {
    let rt = ForkJoinRuntime::new(model, plan, on.clone()).expect("servable plan");
    rt.mean_latency_ms(50, seed)
}

/// Every row's `key` cell against its `other` cell, by model.
fn pairs(rows: &[Row], key: &str, other: &str) -> String {
    let [m, a, b] = ["model", key, other];
    let pair = |r: &Row| {
        format!(
            "{} {} vs {}",
            r.get(m).text(),
            r.get(a).text(),
            r.get(b).text()
        )
    };
    rows.iter().map(pair).collect::<Vec<_>>().join(", ")
}

/// Grouping ablation (§III-C): the DP with full grouping against the DP with
/// every layer its own fork-join round (`max_group_len = 1`), on Lambda and
/// KNIX; both plans serve their queries at `seed`.
fn grouping(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let section = |platform: PlatformProfile| {
        let perf = PerfModel::analytic(&platform);
        let rows = [zoo::vgg16(), zoo::wrn50(3), zoo::resnet50()].map(|model| {
            let grouped = plan(&model, &perf, PartitionerConfig::default());
            let layerwise = PartitionerConfig {
                max_group_len: Some(1),
                ..PartitionerConfig::default()
            };
            let layerwise = plan(&model, &perf, layerwise);
            let grouped_ms = served_ms(&model, &grouped, &platform, seed);
            let layerwise_ms = served_ms(&model, &layerwise, &platform, seed);
            Row(vec![
                ("model", model.name().into()),
                ("grouped_ms", (grouped_ms, 0).into()),
                ("layerwise_ms", (layerwise_ms, 0).into()),
                ("gain", (layerwise_ms / grouped_ms, 2).into()),
                ("groups", grouped.groups().len().into()),
                ("layerwise_groups", layerwise.groups().len().into()),
            ])
        });
        (platform.kind.label(), rows.to_vec())
    };
    let sections = vec![
        section(PlatformProfile::aws_lambda()),
        section(PlatformProfile::knix()),
    ];
    let title = "coarse-grained grouping vs layer-wise parallelization (§III-C)";
    Sweep::new("grouping", title, sections)
}

fn grouping_claims(sweep: &Sweep) -> Vec<Claim> {
    let gains = |s: usize| column(&sweep.sections[s].1, "gain");
    let (lambda, knix) = (gains(0), gains(1));
    let list = |v: &[f64]| join(v, " / ", |g| format!("{g:.2}x"));
    vec![Claim::new(
        "grouped latency <= layer-wise on every model and platform (gain >= 1.00x)",
        lambda.iter().chain(&knix).all(|g| *g >= 1.0),
        format!("gain {} on Lambda, {} on KNIX", list(&lambda), list(&knix)),
    )]
}

/// Master-participation ablation (§III-B): the DP with and without master
/// placements on Lambda; served latency (queries at `seed`) and predicted
/// billed ms per query.
fn master(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let rows = [zoo::vgg11(), zoo::vgg16(), zoo::rnn(6), zoo::wrn50(3)].map(|model| {
        let measure = |allow_master_participation| {
            let config = PartitionerConfig {
                allow_master_participation,
                ..PartitionerConfig::default()
            };
            let plan = plan(&model, &perf, config);
            let billed = predict_plan(&model, &plan, &perf).expect("prediction");
            (served_ms(&model, &plan, &platform, seed), billed.billed_ms)
        };
        let ((with_ms, with_billed), (without_ms, without_billed)) =
            (measure(true), measure(false));
        Row(vec![
            ("model", model.name().into()),
            ("with_ms", (with_ms, 0).into()),
            ("workers_only_ms", (without_ms, 0).into()),
            ("with_billed_ms", with_billed.into()),
            ("workers_only_billed_ms", without_billed.into()),
        ])
    });
    let title = "master participation on/off on Lambda (§III-B)";
    Sweep::new("master", title, vec![("models", rows.to_vec())])
}

fn master_claims(sweep: &Sweep) -> Vec<Claim> {
    let rows = sweep.rows();
    let no_worse = |with, without| rows.iter().all(|r| r.f64(with) <= r.f64(without));
    let claim =
        |name, with, without| Claim::new(name, no_worse(with, without), pairs(rows, with, without));
    vec![
        claim(
            "with the master computing, served latency <= workers-only on every model",
            "with_ms",
            "workers_only_ms",
        ),
        claim(
            "with the master computing, billed ms <= workers-only on every model",
            "with_billed_ms",
            "workers_only_billed_ms",
        ),
    ]
}

/// Memory-grid ablation (§IV-B): the DP's master-memory budget discretized
/// at 4 MiB to 1 GiB, WRN-34-5 on Lambda; the plan's predicted latency and
/// billed ms and the weights its master holds. Draws nothing: `seed` is
/// unused.
fn mem_grid(_seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let model = zoo::wrn34(5);
    let rows = [4u64, 16, 64, 256, 1024].map(|grid_mib| {
        let config = PartitionerConfig {
            mem_grid_bytes: grid_mib * 1024 * 1024,
            ..PartitionerConfig::default()
        };
        let plan = plan(&model, &perf, config);
        let predicted = predict_plan(&model, &plan, &perf).expect("prediction");
        let master_bytes = plan.master_weight_bytes(&model).expect("master bytes");
        Row(vec![
            ("grid_mib", grid_mib.into()),
            ("latency_ms", (predicted.latency_ms, 0).into()),
            ("billed_ms", predicted.billed_ms.into()),
            ("master_mb", (master_bytes as f64 / 1e6, 0).into()),
        ])
    });
    let title = "DP memory-grid resolution, WRN-34-5 on Lambda (§IV-B)";
    Sweep::new("mem_grid", title, vec![("grids", rows.to_vec())])
}

fn mem_grid_claims(sweep: &Sweep) -> Vec<Claim> {
    let (latency, master) = (
        column(sweep.rows(), "latency_ms"),
        column(sweep.rows(), "master_mb"),
    );
    let worst = latency
        .iter()
        .fold(0.0, |w: f64, l| w.max(l / latency[0] - 1.0));
    let list = |v: &[f64]| join(v, " -> ", |x| format!("{x:.0}"));
    vec![
        Claim::new(
            "predicted latency within 3% of the 4 MiB grid's at every grid",
            worst <= 0.03,
            format!("{} ms (+{:.1}% at worst)", list(&latency), 100.0 * worst),
        ),
        Claim::new(
            "the master holds no more weights as the grid coarsens",
            master.windows(2).all(|w| w[1] <= w[0]),
            format!("{} MB", list(&master)),
        ),
    ]
}

/// Order-statistic ablation (§IV-A): the delay of forking n workers 1 MB
/// each on Lambda, simulated over 4,000 draws, against the n-th order
/// statistic of the fitted exGaussian and against the mean jitter charged
/// once. The draws come from `seed`, the exGaussian is fitted at `seed + 70`.
fn order_stats(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, seed.wrapping_add(70));
    let bytes = 1_000_000u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = [1usize, 2, 4, 8, 16, 32].map(|n| {
        let mut draw = || {
            let jitter = (0..n).map(|_| platform.invoke_latency_ms.sample(&mut rng));
            jitter.fold(f64::NEG_INFINITY, f64::max) + platform.transfer_ms(bytes) * n as f64
        };
        let actual = (0..4000).map(|_| draw()).sum::<f64>() / 4000.0;
        let order_stat = perf.comm.group_transfer_ms(bytes, n);
        let mean_based =
            perf.comm.jitter().mean() + perf.comm.per_byte_ms() * (bytes * n as u64) as f64;
        let error = |predicted: f64| ((predicted - actual).abs() / actual * 100.0, 1).into();
        Row(vec![
            ("workers", n.into()),
            ("actual_ms", (actual, 1).into()),
            ("order_stat_ms", (order_stat, 1).into()),
            ("order_stat_err_pct", error(order_stat)),
            ("mean_based_ms", (mean_based, 1).into()),
            ("mean_based_err_pct", error(mean_based)),
        ])
    });
    let title = "order-statistic vs mean-jitter fork prediction, Lambda, 1 MB (§IV-A)";
    Sweep::new("order_stats", title, vec![("fan_out", rows.to_vec())])
}

fn order_stats_claims(sweep: &Sweep) -> Vec<Claim> {
    let rows = sweep.rows();
    let errors = |r: &Row| (r.f64("order_stat_err_pct"), r.f64("mean_based_err_pct"));
    let by_fan_out: Vec<String> = rows
        .iter()
        .map(|r| {
            let (os, mean_based) = errors(r);
            format!("n={} {os:.2}% vs {mean_based:.2}%", r.get("workers").text())
        })
        .collect();
    let detail = format!(
        "mean error {:.1}% vs {:.1}%; {}",
        mean(&column(rows, "order_stat_err_pct")),
        mean(&column(rows, "mean_based_err_pct")),
        by_fan_out.join(", ")
    );
    let fanned = rows.iter().filter(|r| r.f64("workers") >= 2.0);
    vec![
        Claim::new(
            "order-statistic error <= 1.5% at every fan-out",
            rows.iter().all(|r| errors(r).0 <= 1.5),
            detail.clone(),
        ),
        Claim::new(
            "order statistic beats the mean at every fan-out >= 2",
            fanned.map(errors).all(|(os, mean_based)| os < mean_based),
            detail,
        ),
    ]
}

/// Cold starts on the reference deploy (§III-A, §II-A). `warm_up`: 20
/// sequential queries on a fleet deployed cold, where the first pays
/// provisioning and package load for every function of the plan. `load`:
/// 400 Poisson arrivals at 5 to 80 q/s against pools pre-warmed for
/// `prewarm` concurrent queries, where scale-out past the pre-warm shows as
/// cold starts. The warm-up draws from `seed`, the load at `seed + 6`.
fn cold_start(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let deploy = ReferenceDeploy::vgg11();
    let platform = &deploy.platform;
    let rt = deploy.runtime(&deploy.plan);
    let mut fleet = Fleet::new(platform.clone());
    rt.deploy(&mut fleet).expect("deploy");
    let mut billing = BillingMeter::new(1, platform.price_per_gb_s, platform.price_per_invocation);
    let (mut rng, mut counters) = (StdRng::seed_from_u64(seed), ResilienceCounters::default());
    let mut t = Micros::ZERO;
    let latencies: Vec<f64> = (0..20u64)
        .map(|q| {
            let done = rt.run_query_at(&mut fleet, &mut billing, t, &mut rng, q, &mut counters);
            let (done, _) = done.expect("query");
            let latency = (done - t).as_ms();
            t = done;
            latency
        })
        .collect();
    let steady = latencies[5..].iter().sum::<f64>() / 15.0;
    let row = |query: Value, latency: f64| {
        Row(vec![("query", query), ("latency_ms", (latency, 0).into())])
    };
    let mut warm_up: Vec<Row> = (1..=5usize)
        .map(|q| row(q.into(), latencies[q - 1]))
        .collect();
    warm_up.push(row("steady".into(), steady));

    let prewarm = 10usize;
    let load = [5.0, 10.0, 20.0, 40.0, 80.0].map(|rate| {
        let report = rt.serve_open_loop(rate, 400, prewarm, seed.wrapping_add(6));
        let report = report.expect("open-loop serving");
        let billed = report.billing.billed_ms_total() / 400;
        Row(vec![
            ("rate_qps", (rate, 0).into()),
            ("mean_ms", (report.latency.mean(), 0).into()),
            ("p99_ms", (report.latency.percentile(99.0), 0).into()),
            ("cold_starts", report.cold_starts.into()),
            ("billed_ms_per_query", billed.into()),
        ])
    });
    Sweep {
        header: Row(vec![
            ("prewarm", prewarm.into()),
            ("predicted_ms", (deploy.predicted_ms, 1).into()),
        ]),
        ..Sweep::new(
            "cold_start",
            "cold starts on VGG-11's latency-optimal plan, Lambda (§III-A)",
            vec![("warm_up", warm_up), ("load", load.to_vec())],
        )
    }
}

fn cold_start_claims(sweep: &Sweep) -> Vec<Claim> {
    let warm_up = &sweep.sections[0].1;
    let (first, steady) = (warm_up[0].f64("latency_ms"), warm_up[5].f64("latency_ms"));
    let amortised = (first - steady) / 1000.0;
    // Mean concurrency of a rate: arrivals per second times the time each
    // holds its master. A Poisson count with half the pre-warm as its mean
    // exceeds the pre-warm in under 2% of instants.
    let header = |key| sweep.header.f64(key);
    let concurrency = |r: &Row| r.f64("rate_qps") * header("predicted_ms") / 1000.0;
    let (inside, past): (Vec<Row>, Vec<Row>) =
        (sweep.rows().iter().cloned()).partition(|r| concurrency(r) <= header("prewarm") / 2.0);
    let (cold_inside, cold_past) = (column(&inside, "cold_starts"), column(&past, "cold_starts"));
    let rising = !cold_past.is_empty() && cold_past[0] > 0.0;
    let list = |v: &[f64]| join(v, "/", |c| format!("{c:.0}"));
    vec![
        Claim::new(
            "the cold first query costs >= 10x a steady warm one",
            first >= 10.0 * steady,
            format!("{first:.0} vs {steady:.0} ms ({:.1}x)", first / steady),
        ),
        Claim::new(
            "amortised over 1000 queries the cold penalty adds < 5% to a steady query",
            amortised < 0.05 * steady,
            format!("{amortised:.2} ms/query, {:.1}%", 100.0 * amortised / steady),
        ),
        Claim::new(
            "no cold start while mean concurrency <= half the pre-warm; rising with every rate past it",
            cold_inside.iter().all(|c| *c == 0.0)
                && rising
                && cold_past.windows(2).all(|w| w[1] > w[0]),
            format!(
                "cold starts {} within, {} past",
                list(&cold_inside),
                list(&cold_past)
            ),
        ),
    ]
}

/// Bytes one query puts on the wire under `perf`'s transfer format: per
/// worker partition, the shipped input plus the returned output.
fn wire_bytes(model: &LinearModel, plan: &ExecutionPlan, perf: &PerfModel) -> u64 {
    let analyses = plan.analyses(model).expect("valid plan");
    let groups = plan.groups().iter().zip(&analyses);
    let group_bytes = groups.map(|(g, a)| {
        let first_worker = match g.placement {
            Placement::Master => return 0,
            Placement::Workers => 0,
            Placement::MasterAndWorkers => 1,
        };
        let partitions = a.partitions[first_worker..].iter();
        partitions
            .map(|p| perf.wire_bytes(p.input_bytes) + perf.wire_bytes(p.output_bytes))
            .sum()
    });
    group_bytes.sum()
}

/// The int8 wire (past the paper): each model's latency-optimal DP plan on
/// Lambda with transfers priced as raw f32 and as int8. `repriced`: the f32
/// plan's bytes on each wire; `plans`: each wire's own plan, its bytes per
/// query, predicted latency and dollars per 1,000 queries. Draws nothing:
/// `seed` is unused.
fn int8_wire(_seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let f32_perf = PerfModel::analytic(&platform);
    let int8_perf = PerfModel::analytic(&platform).with_transfer_format(TransferFormat::Int8);
    let mb = |bytes: u64| Value::from((bytes as f64 / 1e6, 2));
    let (mut repriced, mut plans) = (Vec::new(), Vec::new());
    for (name, model) in [
        ("vgg11", zoo::vgg11()),
        ("vgg16", zoo::vgg16()),
        ("wrn50x2", zoo::wrn50(2)),
        ("wrn50x4", zoo::wrn50(4)),
    ] {
        let lo_plan = |perf| plan(&model, perf, PartitionerConfig::default());
        let f32_plan = lo_plan(&f32_perf);
        let (raw, quantized) = (
            wire_bytes(&model, &f32_plan, &f32_perf),
            wire_bytes(&model, &f32_plan, &int8_perf),
        );
        repriced.push(Row(vec![
            ("model", name.into()),
            ("f32_mb", mb(raw)),
            ("int8_mb", mb(quantized)),
            ("reduction", (raw as f64 / quantized as f64, 2).into()),
        ]));
        for (wire, perf, plan) in [
            ("f32", &f32_perf, f32_plan),
            ("int8", &int8_perf, lo_plan(&int8_perf)),
        ] {
            let predicted = predict_plan(&model, &plan, perf).expect("prediction");
            let group = |g: &PlannedGroup| {
                format!(
                    "[{}..{} {} {}]",
                    g.start,
                    g.end,
                    g.option,
                    g.placement.tag()
                )
            };
            plans.push(Row(vec![
                ("model", name.into()),
                ("wire", wire.into()),
                (
                    "plan",
                    Value::Str(plan.groups().iter().map(group).collect()),
                ),
                ("transfer_mb", mb(wire_bytes(&model, &plan, perf))),
                ("latency_ms", (predicted.latency_ms, 0).into()),
                ("usd_per_kq", (predicted.usd * 1000.0, 3).into()),
            ]));
        }
    }
    let title = "DP planning under f32 vs int8 wire formats, Lambda";
    let sections = vec![("repriced", repriced), ("plans", plans)];
    Sweep::new("int8_wire", title, sections)
}

fn int8_wire_claims(sweep: &Sweep) -> Vec<Claim> {
    let reductions = column(&sweep.sections[0].1, "reduction");
    let pairs = sweep.rows().chunks(2);
    let changed = pairs
        .clone()
        .filter(|p| p[0].get("plan") != p[1].get("plan"));
    let changed = changed.count();
    vec![
        Claim::new(
            "every f32 plan re-priced on the int8 wire ships >= 3.95x fewer bytes",
            reductions.iter().all(|r| *r >= 3.95),
            join(&reductions, " / ", |r| format!("{r:.3}x")),
        ),
        Claim::new(
            "at least one latency-optimal plan changes shape under int8 transfer costs",
            changed >= 1,
            format!("{changed} of {} plans change", pairs.len()),
        ),
    ]
}

/// Tail-latency SLOs (§VI, past the paper): VGG-11 on Lambda under
/// `t_max_ms`, the RL search constrained on the mean (mean-aware) and on a
/// 300-draw Monte-Carlo p99 (tail-aware). Each plan serves 50 clients ×
/// 2,000 queries; `pred_p99_ms` is a fresh 2,000-draw estimate. The search
/// runs at `seed`, the model is profiled at `seed + 34`, the plans serve at
/// `seed - 13` and the estimate draws at `seed - 16`.
fn tail_slo(seed: u64, _smoke: bool, _ambient: &PolicyStack) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, seed.wrapping_add(34));
    let model = zoo::vgg11();
    let t_max_ms = 400.0;
    let rows = [("mean-aware", None), ("tail-aware", Some(0.99))].map(|(policy, tail_quantile)| {
        let config = SloAwareConfig {
            t_max_ms,
            episodes: 250,
            seed,
            tail_quantile,
            ..SloAwareConfig::default()
        };
        let plan = slo_aware_partition(&model, &perf, &config).expect("SLO-aware plan");
        let rt = ForkJoinRuntime::new(&model, &plan.plan, platform.clone()).expect("runtime");
        let workload = ClosedLoop::new(50, 2000, Micros::ZERO).expect("workload");
        let report = rt
            .serve_workload(workload, seed.wrapping_sub(13))
            .expect("serving");
        let predicted =
            predict_latency_quantile(&model, &plan.plan, &perf, 0.99, 2000, seed.wrapping_sub(16));
        let billed = report.billing.billed_ms_total() / 2000;
        Row(vec![
            ("policy", policy.into()),
            (
                "pred_p99_ms",
                (predicted.expect("tail prediction"), 0).into(),
            ),
            ("mean_ms", (report.latency.mean(), 0).into()),
            ("p99_ms", (report.latency.percentile(99.0), 0).into()),
            ("billed_ms_per_query", billed.into()),
        ])
    });
    Sweep {
        header: Row(vec![("t_max_ms", (t_max_ms, 0).into())]),
        ..Sweep::new(
            "tail_slo",
            "p99 SLOs on VGG-11, mean-aware vs tail-aware plans (§VI)",
            vec![("policies", rows.to_vec())],
        )
    }
}

fn tail_slo_claims(sweep: &Sweep) -> Vec<Claim> {
    let t_max = sweep.header.f64("t_max_ms");
    let policy = |name| sweep.cell(&[("policy", name)]);
    let (mean_aware, tail_aware) = (policy("mean-aware"), policy("tail-aware"));
    let (mean_p99, tail_p99) = (mean_aware.f64("p99_ms"), tail_aware.f64("p99_ms"));
    let billed = |r: &Row| r.f64("billed_ms_per_query");
    vec![
        Claim::new(
            "the tail-aware plan's served p99 is within 1% of T_max",
            (tail_p99 / t_max - 1.0).abs() <= 0.01,
            format!(
                "{tail_p99:.1} ms against {t_max:.0} ms ({:+.2}%)",
                100.0 * (tail_p99 / t_max - 1.0)
            ),
        ),
        Claim::new(
            "the mean-aware plan's served p99 exceeds T_max and the tail-aware one's",
            mean_p99 > t_max && mean_p99 > tail_p99,
            format!("{mean_p99:.1} vs {tail_p99:.1} ms"),
        ),
        Claim::new(
            "the tail-aware plan bills more per query than the mean-aware one",
            billed(tail_aware) > billed(mean_aware),
            format!("{} vs {} ms", billed(tail_aware), billed(mean_aware)),
        ),
    ]
}
