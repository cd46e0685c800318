//! The Gillis experiment library: deterministic experiments, one table type.
//!
//! Every experiment is a function of its seed that returns a
//! [`sweep::Sweep`], and states what the paper (or the extension's
//! acceptance criteria) says about it as `claims(&Sweep) -> Vec<Claim>`:
//! [`figures`] holds the paper's §V figures, [`studies`] the ablations and
//! extensions, [`suites`] the simulator suites behind `BENCH_*.json`, and
//! [`counts`] the counted ledger `COUNTS.json`. The binaries print a sweep
//! and turn its claims into an exit code; `tests/` checks the same claims in
//! tier-1. Nothing here times host code — `benchmark/` is the one measuring
//! harness.

pub mod counts;
pub mod figures;
pub mod studies;
pub mod suites;
pub mod sweep;

use gillis_core::predict::predict_plan;
use gillis_core::{DpPartitioner, ExecutionPlan, ForkJoinRuntime, PartitionerConfig};
use gillis_faas::PlatformProfile;
use gillis_model::{zoo, LinearModel};
use gillis_perf::PerfModel;

/// Measured latencies for one model on one platform.
#[derive(Debug, Clone)]
pub struct LoMeasurement {
    /// Mean Default (single-function) latency over the query batch, if the
    /// model fits one function.
    pub default_ms: Option<f64>,
    /// Mean Gillis latency-optimal latency.
    pub gillis_ms: f64,
}

impl LoMeasurement {
    /// Speedup of Gillis over Default (when Default is feasible).
    pub fn speedup(&self) -> Option<f64> {
        self.default_ms.map(|d| d / self.gillis_ms)
    }
}

/// The §V-B measurement loop: partition with the latency-optimal DP, then
/// serve `queries` warm queries and average, against the Default baseline.
///
/// # Panics
///
/// Panics if partitioning fails (the benchmark models are all partitionable
/// on the paper's platforms).
pub fn measure_latency_optimal(
    model: &LinearModel,
    platform: &PlatformProfile,
    queries: usize,
    seed: u64,
) -> LoMeasurement {
    let perf = PerfModel::profiled(platform, seed);
    let plan = DpPartitioner::new(PartitionerConfig::default())
        .partition(model, &perf)
        .expect("benchmark model is partitionable");
    let runtime = ForkJoinRuntime::new(model, &plan, platform.clone())
        .expect("latency-optimal plan is servable");
    let gillis_ms = runtime.mean_latency_ms(queries, seed ^ 0xabcd);

    let default_ms = if model.weight_bytes() <= platform.model_memory_budget {
        let single = ExecutionPlan::single_function(model);
        let rt = ForkJoinRuntime::new(model, &single, platform.clone())
            .expect("single-function plan is servable");
        Some(rt.mean_latency_ms(queries, seed ^ 0x1234))
    } else {
        None
    };
    LoMeasurement {
        default_ms,
        gillis_ms,
    }
}

/// The RNG seed a benchmark binary should use: `GILLIS_BENCH_SEED` from the
/// environment when set, else `default` (a value that is not a `u64` is
/// reported on stderr, naming the variable, and falls back to `default`).
/// The `suites` binary routes its seeds through this, so a suite's run can be
/// re-rolled (or pinned in CI) without touching code; figures, studies and
/// the counted ledger use fixed seeds.
pub fn bench_seed(default: u64) -> u64 {
    gillis_faas::envutil::env_var("GILLIS_BENCH_SEED").unwrap_or(default)
}

/// The deploy the serving suites and the cold-start study share: a model on
/// AWS Lambda under the analytic performance model, its latency-optimal DP
/// plan and that plan's predicted latency.
#[derive(Debug, Clone)]
pub struct ReferenceDeploy {
    /// AWS Lambda.
    pub platform: PlatformProfile,
    /// The analytic performance model of `platform`.
    pub perf: PerfModel,
    /// The served model.
    pub model: LinearModel,
    /// The latency-optimal DP plan.
    pub plan: ExecutionPlan,
    /// `plan`'s predicted latency in milliseconds.
    pub predicted_ms: f64,
}

impl ReferenceDeploy {
    /// Plans `model` on Lambda.
    ///
    /// # Panics
    ///
    /// Panics if the DP finds no plan (every catalog model has one).
    #[must_use]
    pub fn new(model: LinearModel) -> Self {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let plan = DpPartitioner::default()
            .partition(&model, &perf)
            .expect("latency-optimal plan");
        let predicted = predict_plan(&model, &plan, &perf).expect("prediction");
        ReferenceDeploy {
            platform,
            perf,
            model,
            plan,
            predicted_ms: predicted.latency_ms,
        }
    }

    /// The reference deploy itself: VGG-11.
    #[must_use]
    pub fn vgg11() -> Self {
        Self::new(zoo::vgg11())
    }

    /// The arrival rate at which `concurrency` masters, each held for the
    /// predicted latency, are all busy.
    #[must_use]
    pub fn saturation_qps(&self, concurrency: usize) -> f64 {
        1000.0 * concurrency as f64 / self.predicted_ms
    }

    /// A runtime serving `plan` (this deploy's, or another plan of its
    /// model) on the deploy's platform.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not validate against the model.
    #[must_use]
    pub fn runtime<'a>(&'a self, plan: &'a ExecutionPlan) -> ForkJoinRuntime<'a> {
        ForkJoinRuntime::new(&self.model, plan, self.platform.clone()).expect("servable plan")
    }
}

/// One statement an experiment's sweep must satisfy: a ✓ of EXPERIMENTS.md,
/// or an extension's acceptance criterion.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is claimed, in the paper's (or the criterion's) words.
    pub name: &'static str,
    /// Whether the sweep satisfies it.
    pub holds: bool,
    /// The measured numbers the verdict came from.
    pub detail: String,
}

impl Claim {
    /// A claim with its verdict and evidence.
    #[must_use]
    pub fn new(name: &'static str, holds: bool, detail: String) -> Self {
        Claim {
            name,
            holds,
            detail,
        }
    }
}

/// Prints every claim of `experiment` with its verdict and returns how many
/// failed; the failed ones also go to stderr, named.
pub fn report_claims(experiment: &str, claims: &[Claim]) -> usize {
    for c in claims {
        let verdict = if c.holds { "ok  " } else { "FAIL" };
        println!("  {verdict} {}: {}", c.name, c.detail);
        if !c.holds {
            eprintln!("{experiment}: claim failed: {}: {}", c.name, c.detail);
        }
    }
    claims.iter().filter(|c| !c.holds).count()
}

/// One experiment of a table — a figure or a study: a name, a run and the
/// claims about what the run returns.
pub struct Experiment {
    /// The name the `figures` or `studies` binary takes.
    pub name: &'static str,
    /// Runs the experiment; `quick` shrinks Fig 13's workload and search
    /// budgets and is ignored by the rest, which take at most a second.
    pub run: fn(quick: bool) -> sweep::Sweep,
    /// What the paper or the study states about the sweep `run` returned.
    pub claims: fn(&sweep::Sweep) -> Vec<Claim>,
}

impl Experiment {
    /// An experiment of a table.
    #[must_use]
    pub(crate) const fn new(
        name: &'static str,
        run: fn(bool) -> sweep::Sweep,
        claims: fn(&sweep::Sweep) -> Vec<Claim>,
    ) -> Self {
        Experiment { name, run, claims }
    }
}

/// The `figures` and `studies` binaries: `<binary> [name…] [--smoke |
/// --quick]` runs the experiments of `table` named on the command line, all
/// of them when none is, and prints each sweep with its claims. Exits 1 if a
/// claim failed, 2 on an unknown flag or name.
pub fn run_experiments(table: &[Experiment]) {
    let (quick, names) = bench_args(&["--smoke", "--quick"]);
    let chosen = select(table, &names).unwrap_or_else(|unknown| {
        let known: Vec<&str> = table.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment {unknown}; one of: {}", known.join(" "));
        std::process::exit(2)
    });
    let mut failed = 0;
    for experiment in chosen {
        let sweep = (experiment.run)(quick);
        sweep.print();
        println!("\nclaims:");
        failed += report_claims(experiment.name, &(experiment.claims)(&sweep));
        println!();
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// The experiments of `table` that `names` choose, in table order — every
/// one for no name; the first name `table` lacks is the error.
fn select<'a>(table: &'a [Experiment], names: &[String]) -> Result<Vec<&'a Experiment>, String> {
    if let Some(unknown) = names.iter().find(|n| table.iter().all(|e| e.name != *n)) {
        return Err(unknown.clone());
    }
    let chosen = |e: &&Experiment| names.is_empty() || names.iter().any(|n| n == e.name);
    Ok(table.iter().filter(chosen).collect())
}

/// The process command line: whether one of the `known` flags was given —
/// a binary has one mode switch, under one or two names — and the other
/// arguments in order. Anything else starting with `--` prints a usage line
/// and exits 2, so a typo cannot turn a smoke run into an unchecked full one.
#[must_use]
pub fn bench_args(known: &[&str]) -> (bool, Vec<String>) {
    parse_bench_args(known, std::env::args().skip(1)).unwrap_or_else(|unknown| {
        let exe = std::env::args().next().unwrap_or_default();
        let flags: Vec<String> = known.iter().map(|f| format!("[{f}]")).collect();
        eprintln!(
            "unknown flag {unknown}\nusage: {exe} {} [arg...]",
            flags.join(" ")
        );
        std::process::exit(2)
    })
}

type Parsed = Result<(bool, Vec<String>), String>;

fn parse_bench_args(known: &[&str], args: impl Iterator<Item = String>) -> Parsed {
    let (flags, positional): (Vec<_>, Vec<_>) = args.partition(|a| a.starts_with("--"));
    match flags.iter().find(|f| !known.contains(&f.as_str())) {
        Some(unknown) => Err(unknown.clone()),
        None => Ok((!flags.is_empty(), positional)),
    }
}

/// Formats milliseconds compactly.
pub fn ms(v: f64) -> String {
    format!("{v:.0}")
}

/// Formats an optional speedup as `1.7x` or `-`.
pub fn speedup(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.2}x"),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_model::zoo;

    #[test]
    fn table_renders_aligned() {
        let row =
            |model: &str, ms: u64| sweep::Row(vec![("model", model.into()), ("ms", ms.into())]);
        let rows = vec![row("vgg11", 123), row("wrn-50-3", 4)];
        let s = sweep::Sweep::new("demo", "a table", vec![("models", rows)]).render();
        let lines: Vec<&str> = s.lines().skip(2).collect();
        assert_eq!(lines[0], "models:");
        assert!(lines[1].contains("model"));
        assert!(lines[3].ends_with("123"));
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn a_flag_is_never_the_output_directory() {
        let parse = |args: &[&str]| {
            parse_bench_args(&["--smoke"], args.iter().map(|a| a.to_string()))
                .map(|(smoke, dirs)| (smoke, dirs.first().map_or(".".to_string(), String::clone)))
        };
        assert_eq!(parse(&[]), Ok((false, ".".to_string())));
        assert_eq!(parse(&["--smoke"]), Ok((true, ".".to_string())));
        assert_eq!(parse(&["--smoke", "out"]), Ok((true, "out".to_string())));
        assert_eq!(parse(&["out", "--smoke"]), Ok((true, "out".to_string())));
        // A typo is rejected, not read as "no flag": `--smok` must not run
        // the full mode and exit 0.
        assert_eq!(parse(&["--smok", "out"]), Err("--smok".to_string()));
        assert_eq!(parse(&["out", "--quick"]), Err("--quick".to_string()));
    }

    #[test]
    fn the_reference_deploy_is_vgg11_on_lambda() {
        let deploy = ReferenceDeploy::vgg11();
        assert_eq!(deploy.model.name(), "vgg11");
        assert_eq!(format!("{:.1}", deploy.predicted_ms), "280.7");
        assert!((deploy.saturation_qps(4) * deploy.predicted_ms - 4000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_validates_columns() {
        let rows = vec![
            sweep::Row(vec![("a", "x".into()), ("b", "y".into())]),
            sweep::Row(vec![("a", "x".into())]),
        ];
        let _ = sweep::Sweep::new("demo", "a table", vec![("rows", rows)]).render();
    }

    #[test]
    fn an_unknown_experiment_is_an_error_not_an_empty_run() {
        let select = |table: &[Experiment], args: &[&str]| {
            let names: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let chosen = select(table, &names)?;
            Ok::<_, String>(chosen.iter().map(|e| e.name).collect::<Vec<_>>())
        };
        assert_eq!(select(&figures::FIGURES, &[]).map(|c| c.len()), Ok(9));
        assert_eq!(select(&studies::STUDIES, &[]).map(|c| c.len()), Ok(7));
        // Table order, whatever the order of the names.
        assert_eq!(
            select(&studies::STUDIES, &["tail_slo", "grouping"]),
            Ok(vec!["grouping", "tail_slo"])
        );
        // A figure is not a study, and a misspelt name is an error rather
        // than silently dropped: `studies grouping grupoing` exits 2, not 0.
        assert_eq!(
            select(&studies::STUDIES, &["fig01"]),
            Err("fig01".to_string())
        );
        assert_eq!(
            select(&studies::STUDIES, &["grouping", "grupoing"]),
            Err("grupoing".to_string())
        );
    }

    #[test]
    fn measurement_loop_produces_speedup_for_tiny_model() {
        let platform = PlatformProfile::aws_lambda();
        let m = measure_latency_optimal(&zoo::tiny_vgg(), &platform, 5, 1);
        assert!(m.default_ms.is_some());
        assert!(m.gillis_ms > 0.0);
        assert!(m.speedup().unwrap() > 0.1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(123.4), "123");
        assert_eq!(speedup(Some(1.234)), "1.23x");
        assert_eq!(speedup(None), "-");
    }

    #[test]
    fn bench_seed_falls_back_to_default() {
        // The env var is not set under `cargo test`; the default wins.
        if std::env::var("GILLIS_BENCH_SEED").is_err() {
            assert_eq!(bench_seed(42), 42);
        }
    }
}
