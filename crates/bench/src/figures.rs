//! The paper's §V figures: one function per figure returning its rows as a
//! [`Sweep`], and one `claims` per figure stating what EXPERIMENTS.md's ✓
//! column says about them. Absolute numbers come from a simulator calibrated
//! to public platform constants, so the claims are the paper's *shapes*:
//! orderings, cliffs, ratios against a stated bound. The `figures` binary
//! prints both (`figures [fig01 … fig15] [--smoke | --quick]`; `--quick`, or
//! `--smoke`, runs Fig 13 at its reduced sizes); `tests/claims.rs` asserts
//! the claims of every figure but Fig 13 (seconds, not milliseconds — CI
//! runs it at `--smoke` sizes).

use gillis_bo::{brute_force, BayesOpt, BoConfig};
use gillis_core::baselines::pipeline_serving;
use gillis_core::{
    predict_plan, DpPartitioner, ExecutionPlan, ForkJoinRuntime, PartDim, PartitionOption,
    Placement, PlannedGroup,
};
use gillis_faas::workload::ClosedLoop;
use gillis_faas::{Micros, PlatformProfile};
use gillis_model::{zoo, LinearModel};
use gillis_perf::PerfModel;
use gillis_rl::{slo_aware_partition, SloAwareConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sweep::{column, Row, Sections, Sweep, Value};
use crate::{measure_latency_optimal, ms, speedup, Claim, Experiment};

/// Every reproduced figure, in the paper's order.
pub const FIGURES: [Experiment; 9] = [
    Experiment::new("fig01", fig01, fig01_claims),
    Experiment::new("fig07", fig07, fig07_claims),
    Experiment::new("fig09", fig09, fig09_claims),
    Experiment::new("fig10", fig10, fig10_claims),
    Experiment::new("fig11", fig11, fig11_claims),
    Experiment::new("fig12", fig12, fig12_claims),
    Experiment::new("fig13", fig13, fig13_claims),
    Experiment::new("fig14", fig14, fig14_claims),
    Experiment::new("fig15", fig15, fig15_claims),
];

/// A latency cell: milliseconds, or `OOM` where the model does not fit.
fn ms_or_oom(latency_ms: Option<f64>) -> Value {
    latency_ms.map_or("OOM".into(), |v| (v, 0).into())
}

/// `values` through `show`, joined by `sep`.
pub(crate) fn join(values: &[f64], sep: &str, show: impl Fn(f64) -> String) -> String {
    let shown: Vec<String> = values.iter().map(|v| show(*v)).collect();
    shown.join(sep)
}

fn speedups(values: &[f64]) -> String {
    join(values, " / ", |s| speedup(Some(s)))
}

pub(crate) fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Fig 1: WRN-50-k (k = 1..5) on a single function of Lambda and GCF, 100
/// warm queries per point.
fn fig01(_quick: bool) -> Sweep {
    let platforms = [PlatformProfile::aws_lambda(), PlatformProfile::gcf()];
    let rows = (1..=5usize).map(|k| {
        let model = zoo::wrn50(k);
        let single = |platform: &PlatformProfile| {
            (model.weight_bytes() <= platform.model_memory_budget).then(|| {
                let plan = ExecutionPlan::single_function(&model);
                let rt = ForkJoinRuntime::new(&model, &plan, platform.clone());
                rt.expect("single plan").mean_latency_ms(100, 42 + k as u64)
            })
        };
        Row(vec![
            ("widening", k.into()),
            ("weights_mb", (model.weight_bytes() as f64 / 1e6, 0).into()),
            ("lambda_ms", ms_or_oom(single(&platforms[0]))),
            ("gcf_ms", ms_or_oom(single(&platforms[1]))),
        ])
    });
    let title = "Fig 1: WResNet-50-k latency on a single serverless function";
    Sweep::new("fig01", title, vec![("widening", rows.collect())])
}

fn fig01_claims(sweep: &Sweep) -> Vec<Claim> {
    let rows = sweep.rows();
    let series = |col| -> Vec<Option<f64>> { rows.iter().map(|r| r.opt_f64(col)).collect() };
    let (lambda, gcf) = (series("lambda_ms"), series("gcf_ms"));
    // Worst deviation of latency(k) / latency(1) from k squared, over the
    // widths that fit.
    let off_quadratic = |s: &[Option<f64>]| {
        let ratios = (1..)
            .zip(s)
            .filter_map(|(k, v)| Some((*v)? / s[0]? / f64::from(k * k)));
        ratios.map(|r| (r - 1.0).abs()).fold(0.0, f64::max)
    };
    let first =
        |s: &[Option<f64>], hit: fn(&Option<f64>) -> bool| s.iter().position(hit).map(|i| i + 1);
    let over = |v: &Option<f64>| v.is_some_and(|ms| ms > 2000.0);
    let text = |row: usize, key| rows[row].get(key).text();
    vec![
        Claim::new(
            "latency grows ~quadratically with the widening scalar (within 15% of k^2)",
            off_quadratic(&lambda) <= 0.15 && off_quadratic(&gcf) <= 0.15,
            format!(
                "Lambda k=1..3: {} -> {} -> {} ms; off k^2 by at most {:.0}% (Lambda), {:.0}% (GCF)",
                text(0, "lambda_ms"),
                text(1, "lambda_ms"),
                text(2, "lambda_ms"),
                100.0 * off_quadratic(&lambda),
                100.0 * off_quadratic(&gcf)
            ),
        ),
        Claim::new(
            "requests first exceed 2000 ms at k=3 (Lambda) and k=4 (GCF)",
            first(&lambda, over) == Some(3) && first(&gcf, over) == Some(4),
            format!("Lambda k=3: {} ms; GCF k=4: {} ms", text(2, "lambda_ms"), text(3, "gcf_ms")),
        ),
        Claim::new(
            "OOM from k=4 (Lambda) and k=5 (GCF)",
            first(&lambda, Option::is_none) == Some(4) && first(&gcf, Option::is_none) == Some(5),
            format!("{} MB at k=4, {} MB at k=5", text(3, "weights_mb"), text(4, "weights_mb")),
        ),
    ]
}

/// Fig 7: VGG-16 group-parallelized (one group per convolution stage) across
/// 1..16 functions on Lambda and KNIX, mean of 50 queries split into compute
/// and communication.
fn fig07(_quick: bool) -> Sweep {
    let model = zoo::vgg16();
    let layers = model.layers();
    let spatial_end = layers
        .iter()
        .take_while(|l| l.class.supports_spatial())
        .count();
    // Stage boundaries: cut after each pooling layer (the weightless
    // channel-local merged layers).
    let mut stages = Vec::new();
    let mut start = 0;
    for (i, layer) in layers[..spatial_end].iter().enumerate() {
        if layer.weight_bytes == 0 || i + 1 == spatial_end {
            stages.push((start, i + 1));
            start = i + 1;
        }
    }
    let single = |start, end| PlannedGroup {
        start,
        end,
        option: PartitionOption::Single,
        placement: Placement::Master,
    };
    let scaling = |platform: PlatformProfile| {
        let rows = [1usize, 2, 4, 8, 16].map(|parts| {
            let staged = stages.iter().map(|&(start, end)| {
                let extent = layers[end - 1].out_shape.dims()[1];
                if parts == 1 || extent < parts {
                    return single(start, end);
                }
                let dim = PartDim::Height;
                PlannedGroup {
                    option: PartitionOption::Split { dim, parts },
                    placement: Placement::Workers,
                    ..single(start, end)
                }
            });
            let tail = (spatial_end..layers.len()).map(|i| single(i, i + 1));
            let plan = ExecutionPlan::new(staged.chain(tail).collect());
            let rt = ForkJoinRuntime::new(&model, &plan, platform.clone()).expect("fan-out plan");
            let mut rng = StdRng::seed_from_u64(7);
            let (mut total, mut compute, mut comm) = (0.0, 0.0, 0.0);
            for _ in 0..50 {
                let q = rt.simulate_query(&mut rng);
                total += q.latency_ms;
                for (fork, run, join) in q.group_ms {
                    comm += fork + join;
                    compute += run;
                }
            }
            Row(vec![
                ("functions", parts.into()),
                ("total_ms", (total / 50.0, 0).into()),
                ("compute_ms", (compute / 50.0, 0).into()),
                ("comm_ms", (comm / 50.0, 0).into()),
            ])
        });
        rows.to_vec()
    };
    let title = "Fig 7: latency breakdown vs parallel functions (VGG-16, stage groups)";
    let lambda = ("Lambda", scaling(PlatformProfile::aws_lambda()));
    Sweep::new(
        "fig07",
        title,
        vec![lambda, ("KNIX", scaling(PlatformProfile::knix()))],
    )
}

fn fig07_claims(sweep: &Sweep) -> Vec<Claim> {
    let (lambda, knix) = (&sweep.sections[0].1, &sweep.sections[1].1);
    let (comm, compute, total) = (
        column(lambda, "comm_ms"),
        column(lambda, "compute_ms"),
        column(lambda, "total_ms"),
    );
    let (knix_comm, knix_total) = (column(knix, "comm_ms"), column(knix, "total_ms"));
    let list = |v: &[f64]| join(v, " -> ", ms);
    let cheaper = (1..5)
        .map(|i| comm[i] / knix_comm[i])
        .fold(f64::INFINITY, f64::min);
    vec![
        Claim::new(
            "communication grows with fan-out and ends up dominating compute (Lambda)",
            comm[..4].windows(2).all(|w| w[0] < w[1]) && comm[3] > compute[3],
            format!(
                "comm {} ms; compute {} ms at n=8",
                list(&comm),
                ms(compute[3])
            ),
        ),
        Claim::new(
            "on Lambda, 8 -> 16 functions does more harm than good",
            total[3] < total[2] && total[4] > total[3],
            format!("total {} ms", list(&total)),
        ),
        Claim::new(
            "KNIX communication is >= 5x cheaper and scaling keeps paying to n=8",
            cheaper >= 5.0 && knix_total[..4].windows(2).all(|w| w[1] < w[0]),
            format!(
                "comm {} ms (>= {cheaper:.1}x less); total {} ms",
                list(&knix_comm),
                list(&knix_total)
            ),
        ),
    ]
}

/// One section per platform of the Gillis-vs-Default comparison (100 warm
/// queries per point), one row per model.
fn lo_sections(platforms: [PlatformProfile; 2], models: &[LinearModel], seed: u64) -> Sections {
    let rows = |platform: &PlatformProfile| -> Vec<Row> {
        let row = |model| {
            let m = measure_latency_optimal(model, platform, 100, seed);
            Row(vec![
                ("model", model.name().into()),
                ("default_ms", ms_or_oom(m.default_ms)),
                ("gillis_ms", (m.gillis_ms, 0).into()),
                ("speedup", m.speedup().map_or("-".into(), |s| (s, 2).into())),
            ])
        };
        models.iter().map(row).collect()
    };
    let section = |p: &PlatformProfile| (p.kind.label(), rows(p));
    vec![section(&platforms[0]), section(&platforms[1])]
}

/// Fig 9: Gillis latency-optimal vs Default for CNNs on Lambda and GCF.
fn fig09(_quick: bool) -> Sweep {
    let models = [
        zoo::vgg11(),
        zoo::vgg16(),
        zoo::vgg19(),
        zoo::wrn34(3),
        zoo::wrn34(4),
        zoo::wrn50(3),
    ];
    let platforms = [PlatformProfile::aws_lambda(), PlatformProfile::gcf()];
    let title = "Fig 9: Gillis (latency-optimal) vs Default on Lambda and GCF";
    Sweep::new("fig09", title, lo_sections(platforms, &models, 11))
}

fn fig09_claims(sweep: &Sweep) -> Vec<Claim> {
    let lambda = column(&sweep.sections[0].1, "speedup");
    let gcf = column(&sweep.sections[1].1, "speedup");
    vec![
        Claim::new(
            "Gillis beats Default on every CNN on both platforms",
            lambda.iter().chain(&gcf).all(|s| *s > 1.0),
            format!("Lambda {}; GCF {}", speedups(&lambda), speedups(&gcf)),
        ),
        Claim::new(
            "speedup grows with VGG depth (VGG-11 < VGG-16 < VGG-19, Lambda)",
            lambda[0] < lambda[1] && lambda[1] < lambda[2],
            speedups(&lambda[..3]),
        ),
        Claim::new(
            "WRN-34-4 gains more than WRN-34-3 (Lambda)",
            lambda[4] > lambda[3],
            speedups(&lambda[3..5]),
        ),
        Claim::new(
            "GCF speedups are uniformly below Lambda's",
            lambda.iter().zip(&gcf).all(|(l, g)| g < l),
            format!("GCF {}", speedups(&gcf)),
        ),
    ]
}

/// Fig 10: the same comparison on KNIX, with Lambda alongside.
fn fig10(_quick: bool) -> Sweep {
    let models = [
        zoo::vgg16(),
        zoo::vgg19(),
        zoo::wrn50(3),
        zoo::resnet34(),
        zoo::resnet50(),
        zoo::resnet101(),
    ];
    let platforms = [PlatformProfile::knix(), PlatformProfile::aws_lambda()];
    let title = "Fig 10: Gillis (latency-optimal) vs Default on KNIX, Lambda alongside";
    Sweep::new("fig10", title, lo_sections(platforms, &models, 23))
}

fn fig10_claims(sweep: &Sweep) -> Vec<Claim> {
    let knix = column(&sweep.sections[0].1, "speedup");
    let lambda = column(&sweep.sections[1].1, "speedup");
    vec![
        Claim::new(
            "thin ResNets accelerate on KNIX (>= 1.3x) but not on Lambda (<= 1.15x)",
            knix[3..].iter().all(|s| *s >= 1.3) && lambda[3..].iter().all(|s| *s <= 1.15),
            format!(
                "KNIX {}; Lambda {}",
                speedups(&knix[3..]),
                speedups(&lambda[3..])
            ),
        ),
        Claim::new(
            "KNIX speedups exceed Lambda's on every model",
            knix.iter().zip(&lambda).all(|(k, l)| k > l),
            format!(
                "KNIX {}; Lambda {}",
                speedups(&knix[..3]),
                speedups(&lambda[..3])
            ),
        ),
    ]
}

/// Fig 11: models too large for one function — Gillis vs the Pipeline
/// baseline (partitions staged in S3, streamed into one function) on Lambda.
fn fig11(_quick: bool) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let rows = [zoo::wrn34(5), zoo::wrn50(4), zoo::wrn50(5)].map(|model| {
        assert!(model.weight_bytes() > platform.model_memory_budget);
        let pipe = pipeline_serving(&model, &platform, 5).expect("pipeline stages fit");
        let gillis_ms = measure_latency_optimal(&model, &platform, 100, 31).gillis_ms;
        Row(vec![
            ("model", model.name().into()),
            ("pipeline_total_ms", (pipe.total_ms, 0).into()),
            ("pipeline_load_ms", (pipe.load_ms, 0).into()),
            ("pipeline_compute_ms", (pipe.compute_ms, 0).into()),
            ("gillis_ms", (gillis_ms, 0).into()),
            ("speedup", (pipe.total_ms / gillis_ms, 1).into()),
        ])
    });
    let title = "Fig 11: Gillis vs Pipeline for models exceeding one function (Lambda)";
    Sweep::new("fig11", title, vec![("models", rows.to_vec())])
}

fn fig11_claims(sweep: &Sweep) -> Vec<Claim> {
    let col = |key| column(sweep.rows(), key);
    let over =
        |a: Vec<f64>, b: Vec<f64>| -> Vec<f64> { a.iter().zip(b).map(|(a, b)| a / b).collect() };
    let load_share = over(col("pipeline_load_ms"), col("pipeline_total_ms"));
    let compute_gain = over(col("pipeline_compute_ms"), col("gillis_ms"));
    let list = |v: &[f64]| join(v, " / ", |x| format!("{x:.1}"));
    vec![
        Claim::new(
            "Gillis is >= 7x faster than Pipeline end to end (paper: 8.3-9.2x)",
            col("speedup").iter().all(|s| *s >= 7.0),
            format!("{}x", list(&col("speedup"))),
        ),
        Claim::new(
            "Pipeline is dominated by weight loading (> 60% of its latency)",
            load_share.iter().all(|s| *s > 0.6),
            format!(
                "load share {}",
                join(&load_share, " / ", |s| format!("{:.0}%", 100.0 * s))
            ),
        ),
        Claim::new(
            "Gillis end to end is >= 2x faster than Pipeline's sequential compute alone",
            compute_gain.iter().all(|g| *g >= 2.0),
            format!("{}x", list(&compute_gain)),
        ),
    ]
}

/// Fig 12: RNN-k (2K-hidden LSTM layers) on Lambda, Default vs Gillis.
fn fig12(_quick: bool) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let rows = [3usize, 6, 9, 12, 15, 18].map(|layers| {
        let model = zoo::rnn(layers);
        let m = measure_latency_optimal(&model, &platform, 100, 57);
        Row(vec![
            ("layers", layers.into()),
            ("weights_mb", (model.weight_bytes() as f64 / 1e6, 0).into()),
            ("default_ms", ms_or_oom(m.default_ms)),
            ("gillis_ms", (m.gillis_ms, 0).into()),
        ])
    });
    let title = "Fig 12: RNN-k mean inference latency on Lambda";
    Sweep::new("fig12", title, vec![("layers", rows.to_vec())])
}

fn fig12_claims(sweep: &Sweep) -> Vec<Claim> {
    let rows = sweep.rows();
    let served = rows.iter().filter(|r| r.opt_f64("default_ms").is_some());
    let fits: Vec<f64> = served.clone().map(|r| r.f64("layers")).collect();
    let gap = served.map(|r| (r.f64("gillis_ms") / r.f64("default_ms") - 1.0).abs());
    let gap = gap.fold(0.0, f64::max);
    let per_layer = rows.iter().map(|r| r.f64("gillis_ms") / r.f64("layers"));
    let lo = per_layer.clone().fold(f64::INFINITY, f64::min);
    let hi = per_layer.fold(0.0, f64::max);
    vec![
        Claim::new(
            "a single function serves up to 9 LSTM layers and OOMs beyond",
            fits == [3.0, 6.0, 9.0],
            format!("Default serves {fits:?} of 3..18 layers"),
        ),
        Claim::new(
            "Gillis scales linearly in layers (per-layer latency spread <= 1.15x)",
            hi / lo <= 1.15,
            format!("{lo:.1}..{hi:.1} ms/layer ({:.2}x)", hi / lo),
        ),
        Claim::new(
            "no advantage over Default for small RNNs (within 1%)",
            gap <= 0.01,
            format!("largest gap {:.2}%", 100.0 * gap),
        ),
    ]
}

/// Fig 13: SLO-aware serving on Lambda — Gillis's RL search (SA) against
/// Bayesian optimization (BO) and, on VGG-11, brute force (BF). Each search
/// looks for the cost-minimal plan meeting a mean-latency SLO (tight = 1.25x
/// the latency-optimal latency, loose = 2.5x; best of three seeds, as in the
/// paper); the found plan then serves a closed-loop workload — the paper's
/// 100 clients x 1000 queries, or 20 x 100 with smaller search budgets when
/// `quick` — and the row records the served mean latency and per-query bill
/// next to the bill the search predicted (`-` where a search found nothing
/// or did not run).
fn fig13(quick: bool) -> Sweep {
    let (clients, queries, episodes, iterations) = if quick {
        (20, 100, 200, 20)
    } else {
        (100, 1000, 400, 50)
    };
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, 99);
    // Served mean latency, served per-query bill and predicted bill of a
    // search result.
    let cells = |model: &LinearModel, found: Option<(&ExecutionPlan, u64)>| -> [Value; 3] {
        let Some((plan, predicted)) = found else {
            return ["-".into(), "-".into(), "-".into()];
        };
        let rt = ForkJoinRuntime::new(model, plan, platform.clone()).expect("plan is servable");
        let workload = ClosedLoop::new(clients, queries, Micros::ZERO).expect("workload");
        let report = rt.serve_workload(workload, 13).expect("workload serving");
        let billed = report.billing.billed_ms_total() / queries as u64;
        [
            (report.latency.mean(), 0).into(),
            billed.into(),
            predicted.into(),
        ]
    };

    let mut rows = Vec::new();
    // Brute force only on VGG-11 (the paper's "takes over 24 hours").
    let models = [zoo::vgg11(), zoo::vgg16(), zoo::wrn50(4), zoo::wrn50(5)];
    for (m, model) in models.iter().enumerate() {
        let lo_plan = DpPartitioner::default().partition(model, &perf);
        let lo = predict_plan(model, &lo_plan.expect("latency-optimal plan"), &perf);
        let lo_ms = lo.expect("prediction").latency_ms;
        for (slo, t_max_ms) in [("tight", lo_ms * 1.25), ("loose", lo_ms * 2.5)] {
            let sa = (0..3).filter_map(|seed| {
                let config = SloAwareConfig {
                    t_max_ms,
                    episodes,
                    seed,
                    ..SloAwareConfig::default()
                };
                slo_aware_partition(model, &perf, &config).ok()
            });
            let sa = sa.min_by_key(|r| r.predicted.billed_ms);
            let bo = (0..3).filter_map(|seed| {
                let config = BoConfig {
                    t_max_ms,
                    iterations,
                    seed,
                    ..BoConfig::default()
                };
                BayesOpt::new(config).search(model, &perf).ok()
            });
            // Prefer SLO-meeting results, then cheaper ones.
            let bo = bo.min_by_key(|r| (!r.meets_slo, r.predicted.billed_ms));
            let bf =
                (m == 0).then(|| brute_force(model, &perf, t_max_ms, &[2, 4, 8, 16], 20_000_000));
            let bf = bf.and_then(Result::ok);
            let [sa_ms, sa_billed, sa_predicted] =
                cells(model, sa.as_ref().map(|r| (&r.plan, r.predicted.billed_ms)));
            let [bo_ms, bo_billed, _] =
                cells(model, bo.as_ref().map(|r| (&r.plan, r.predicted.billed_ms)));
            let [bf_ms, bf_billed, bf_predicted] =
                cells(model, bf.as_ref().map(|r| (&r.plan, r.predicted.billed_ms)));
            // A search that hit its node cap found an upper bound, not the
            // optimum.
            let bf_nodes = bf.as_ref().map_or("-".into(), |r| {
                let cap = if r.truncated { " (cap)" } else { "" };
                Value::Str(format!("{:.1}M{cap}", r.nodes_expanded as f64 / 1e6))
            });
            rows.push(Row(vec![
                ("model", model.name().into()),
                ("slo", slo.into()),
                ("t_max_ms", (t_max_ms, 0).into()),
                ("sa_ms", sa_ms),
                ("sa_billed", sa_billed),
                ("sa_predicted", sa_predicted),
                ("bo_ms", bo_ms),
                ("bo_billed", bo_billed),
                ("bf_ms", bf_ms),
                ("bf_billed", bf_billed),
                ("bf_predicted", bf_predicted),
                ("bf_nodes", bf_nodes),
            ]));
        }
    }
    let title =
        "Fig 13: SLO-aware serving on Lambda, SA vs BO vs brute force (per-query billed ms)";
    Sweep::new("fig13", title, vec![("searches", rows)])
}

fn fig13_claims(sweep: &Sweep) -> Vec<Claim> {
    // The rows where `broken` holds, named; a missing number breaks a claim.
    let broken = |broken: &dyn Fn(&Row) -> Option<bool>| -> String {
        let rows = sweep.rows().iter().filter(|r| broken(r).unwrap_or(true));
        let names: Vec<String> = rows
            .map(|r| format!("{} {}", r.get("model").text(), r.get("slo").text()))
            .collect();
        names.join(", ")
    };
    let sa_misses = broken(&|r| Some(r.opt_f64("sa_ms")? > r.f64("t_max_ms")));
    let sa_dearer = broken(&|r| Some(r.opt_f64("sa_billed")? > r.opt_f64("bo_billed")?));
    let bo_misses =
        broken(&|r| Some(r.is("slo", "tight") && r.opt_f64("bo_ms")? > r.f64("t_max_ms")));
    // Brute force is exact only where it ran and finished under its node cap.
    let exact =
        |r: &Row| r.opt_f64("bf_billed").is_some() && !r.get("bf_nodes").text().ends_with("(cap)");
    let bf_above =
        broken(&|r| Some(exact(r) && r.f64("bf_predicted") > r.opt_f64("sa_predicted")?));
    let sa_above =
        broken(&|r| Some(exact(r) && r.opt_f64("sa_billed")? > 1.02 * r.f64("bf_billed")));
    let holds_unless =
        |name, rows: String| Claim::new(name, rows.is_empty(), format!("broken on: [{rows}]"));
    vec![
        holds_unless(
            "SA meets the latency SLO in every case, as served",
            sa_misses,
        ),
        holds_unless("SA's served cost is at most BO's in every case", sa_dearer),
        Claim::new(
            "BO misses tight SLOs that SA meets",
            !bo_misses.is_empty(),
            format!("BO misses: [{bo_misses}]"),
        ),
        holds_unless(
            "an un-truncated brute force predicts no more than SA",
            bf_above,
        ),
        holds_unless(
            "SA matches brute force on VGG-11 (served cost within 2%)",
            sa_above,
        ),
    ]
}

/// Fig 14: the latency-optimal grouping and parallelization of WRN-34-5 on
/// Lambda, one row per group.
fn fig14(_quick: bool) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, 7);
    let plan = DpPartitioner::default().partition(&zoo::wrn34(5), &perf);
    let plan = plan.expect("WRN-34-5 is partitionable");
    let rows = plan.groups().iter().enumerate().map(|(i, g)| {
        let on_master = matches!(g.placement, Placement::Master | Placement::MasterAndWorkers);
        Row(vec![
            ("group", (i + 1).into()),
            ("first_layer", g.start.into()),
            ("layers", (g.end - g.start).into()),
            ("functions", g.option.parts().into()),
            ("master", usize::from(on_master).into()),
        ])
    });
    let title = "Fig 14: latency-optimal plan for WRN-34-5 on Lambda";
    Sweep::new("fig14", title, vec![("groups", rows.collect())])
}

fn fig14_claims(sweep: &Sweep) -> Vec<Claim> {
    let (low, high) = sweep.rows().split_at(sweep.rows().len() / 2);
    let halves = |key| (mean(&column(low, key)), mean(&column(high, key)));
    let (len_low, len_high) = halves("layers");
    let (fan_low, fan_high) = halves("functions");
    let (master_low, master_high) = halves("master");
    let widest = column(low, "functions").into_iter().fold(0.0, f64::max);
    vec![
        Claim::new(
            "more layers are fused per group at the bottom of the network",
            len_low > len_high,
            format!("{len_low:.2} (low half) against {len_high:.2} (high half) layers/group"),
        ),
        Claim::new(
            "low groups parallelize across more functions, up to 16",
            fan_low > fan_high && widest == 16.0,
            format!("fan-out {fan_low:.2} against {fan_high:.2}; widest low group {widest}"),
        ),
        Claim::new(
            "the master computes partitions of the low, weight-light groups",
            master_low > master_high,
            format!(
                "master in {:.0}% of low groups, {:.0}% of high",
                100.0 * master_low,
                100.0 * master_high
            ),
        ),
    ]
}

/// Fig 15: accuracy of the profiled performance model on Lambda — single-
/// function model runtimes, the max delay of n concurrent 1 MB worker
/// exchanges (3000 Monte-Carlo draws), and the end-to-end latency of the
/// latency-optimal plans.
fn fig15(_quick: bool) -> Sweep {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, 2024);
    let row = |what: &'static str, label: Value, actual: f64, predicted: f64, decimals: usize| {
        Row(vec![
            (what, label),
            ("actual_ms", (actual, decimals).into()),
            ("predicted_ms", (predicted, decimals).into()),
            (
                "error_pct",
                ((predicted - actual).abs() / actual * 100.0, 1).into(),
            ),
        ])
    };
    let served = |model: &LinearModel, plan: &ExecutionPlan, seed: u64| {
        let rt = ForkJoinRuntime::new(model, plan, platform.clone()).expect("servable plan");
        rt.mean_latency_ms(100, seed)
    };
    let runtime = [zoo::vgg19(), zoo::wrn50(3), zoo::rnn(3)].map(|model| {
        let actual = served(&model, &ExecutionPlan::single_function(&model), 3);
        row(
            "model",
            model.name().into(),
            actual,
            perf.layer.predict_model_ms(&model),
            0,
        )
    });
    let mut rng = StdRng::seed_from_u64(5);
    let bytes = 1_000_000u64;
    let comm = [1usize, 2, 4, 8, 16].map(|n| {
        let mut draw = || {
            let jitter = (0..n).map(|_| platform.invoke_latency_ms.sample(&mut rng));
            jitter.fold(f64::NEG_INFINITY, f64::max) + platform.transfer_ms(bytes) * n as f64
        };
        let actual = (0..3000).map(|_| draw()).sum::<f64>() / 3000.0;
        row(
            "workers",
            n.into(),
            actual,
            perf.comm.group_transfer_ms(bytes, n),
            1,
        )
    });
    let end_to_end = [zoo::vgg16(), zoo::vgg19(), zoo::wrn50(3), zoo::rnn(6)].map(|model| {
        let plan = DpPartitioner::default()
            .partition(&model, &perf)
            .expect("plan");
        let predicted = predict_plan(&model, &plan, &perf).expect("prediction");
        row(
            "model",
            model.name().into(),
            served(&model, &plan, 17),
            predicted.latency_ms,
            0,
        )
    });
    let sections = vec![
        ("runtime", runtime.to_vec()),
        ("communication", comm.to_vec()),
        ("end_to_end", end_to_end.to_vec()),
    ];
    Sweep::new(
        "fig15",
        "Fig 15: performance-model prediction accuracy (Lambda)",
        sections,
    )
}

fn fig15_claims(sweep: &Sweep) -> Vec<Claim> {
    let errors = |section: usize| column(&sweep.sections[section].1, "error_pct");
    let (runtime, comm, end_to_end) = (errors(0), errors(1), errors(2));
    let list = |v: &[f64]| join(v, " / ", |e| format!("{e:.1}%"));
    vec![
        Claim::new(
            "model runtime error within the paper's 3% / 9% / 1% (VGG-19 / WRN-50-3 / RNN-3)",
            runtime
                .iter()
                .zip([3.0, 9.0, 1.0])
                .all(|(e, bound)| *e <= bound),
            list(&runtime),
        ),
        Claim::new(
            "communication-delay error averages within the paper's 6.3%",
            mean(&comm) <= 6.3,
            format!("{:.1}% over n = 1..16", mean(&comm)),
        ),
        Claim::new(
            "end-to-end error of the latency-optimal plans within the paper's 6%",
            end_to_end.iter().all(|e| *e <= 6.0),
            list(&end_to_end),
        ),
    ]
}
