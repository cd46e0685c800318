//! The Gillis experiment library: deterministic experiments, one table type,
//! one runner.
//!
//! Every experiment is an [`Experiment`]: a function of its seed that
//! returns a [`sweep::Sweep`], the seed it runs at by default, and what the
//! paper (or the extension's acceptance criteria) says about the sweep as
//! `claims(&Sweep) -> Vec<Claim>`. [`figures`] holds the paper's §V figures,
//! [`studies`] the ablations and extensions, [`suites`] the simulator suites
//! behind `BENCH_*.json`, and [`counts`] the counted ledger `COUNTS.json`.
//! The `figures`, `studies` and `suites` binaries are each one call to
//! [`run_experiments`] over their table; `tests/` checks the same claims in
//! tier-1. `GILLIS_BENCH_SEED` re-seeds any of them ([`bench_seed`]).
//! Nothing here times host code — `benchmark/` is the one measuring harness.

pub mod counts;
pub mod figures;
pub mod studies;
pub mod suites;
pub mod sweep;

use gillis_core::predict::predict_plan;
use gillis_core::{DpPartitioner, ExecutionPlan, ForkJoinRuntime, PartitionerConfig, PolicyStack};
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

/// The seed an experiment binary runs an experiment at: `GILLIS_BENCH_SEED`
/// from the environment when set, else the experiment's `default` (a value
/// that is not a `u64` is reported on stderr, naming the variable, and falls
/// back to `default`). [`run_experiments`] seeds every experiment through
/// this, so any run can be re-rolled (or pinned in CI) without touching code.
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

/// One experiment of a table — a figure, a study, a simulator suite or the
/// counted ledger: a name, a default seed, the file its sweep is committed
/// as, a run and the claims about what the run returns.
pub struct Experiment {
    /// The name its binary takes.
    pub name: &'static str,
    /// The seed without `GILLIS_BENCH_SEED`; a committed sweep is written at it.
    pub default_seed: u64,
    /// The file, at the repository root, the sweep is committed as.
    pub artifact: Option<&'static str>,
    /// Runs the sweep at `seed`. `smoke` keeps what the claims read (Fig 13
    /// and the serving suites shrink). `ambient` is the environment's policy
    /// stack, which only the overload, batch and pipeline suites compose with.
    pub run: fn(seed: u64, smoke: bool, ambient: &PolicyStack) -> sweep::Sweep,
    /// What the paper, the study or the acceptance criteria state about the
    /// sweep `run` returned.
    pub claims: fn(&sweep::Sweep) -> Vec<Claim>,
}

impl Experiment {
    /// An experiment whose sweep is only printed.
    #[must_use]
    pub(crate) const fn new(
        name: &'static str,
        default_seed: u64,
        run: fn(u64, bool, &PolicyStack) -> sweep::Sweep,
        claims: fn(&sweep::Sweep) -> Vec<Claim>,
    ) -> Self {
        Experiment {
            name,
            default_seed,
            artifact: None,
            run,
            claims,
        }
    }

    /// The same experiment, its sweep committed as `file`.
    #[must_use]
    pub(crate) const fn committed(self, file: &'static str) -> Self {
        Experiment {
            artifact: Some(file),
            ..self
        }
    }
}

/// Every experiment binary: `<binary> [name…] [--smoke]` runs the
/// experiments of `table` named on the command line, all of them when none
/// is. Each runs at [`bench_seed`] of its default under the environment's
/// policy stack and prints `seed N`, its sweep and its claims (the failed
/// ones named on stderr too); a committed sweep is written to its file in
/// the current directory. Exits 1 if a claim failed or the environment names
/// an invalid policy, 2 on an unknown flag or name.
///
/// # Panics
///
/// Panics if an artifact cannot be written.
pub fn run_experiments(table: &[Experiment]) {
    let (smoke, names) = parse_bench_args(std::env::args().skip(1)).unwrap_or_else(|unknown| {
        let exe = std::env::args().next().unwrap_or_default();
        eprintln!("unknown flag {unknown}\nusage: {exe} [name...] [--smoke]");
        std::process::exit(2)
    });
    let chosen = select(table, &names).unwrap_or_else(|unknown| {
        let known: Vec<&str> = table.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment {unknown}; one of: {}", known.join(" "));
        std::process::exit(2)
    });
    let ambient = PolicyStack::from_env().unwrap_or_else(|e| {
        eprintln!("gillis: {e}");
        std::process::exit(1)
    });
    let mut failed = 0;
    for experiment in chosen {
        let seed = bench_seed(experiment.default_seed);
        let sweep = (experiment.run)(seed, smoke, &ambient);
        print!("seed {seed}\n{}", sweep.render());
        if let Some(file) = experiment.artifact {
            std::fs::write(file, sweep.to_json()).expect("write the artifact");
            println!("\nwrote {file}");
        }
        println!("\nclaims:");
        for c in (experiment.claims)(&sweep) {
            let verdict = if c.holds { "ok  " } else { "FAIL" };
            println!("  {verdict} {}: {}", c.name, c.detail);
            if !c.holds {
                eprintln!(
                    "{}: claim failed: {}: {}",
                    experiment.name, c.name, c.detail
                );
                failed += 1;
            }
        }
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

/// A command line: whether `--smoke` was given, and the other arguments in
/// order. Any other argument starting with `--` is the error, so a typo
/// cannot turn a smoke run into an unchecked full one.
fn parse_bench_args(args: impl Iterator<Item = String>) -> Result<(bool, Vec<String>), String> {
    let (flags, names): (Vec<_>, Vec<_>) = args.partition(|a| a.starts_with("--"));
    match flags.iter().find(|f| *f != "--smoke") {
        Some(unknown) => Err(unknown.clone()),
        None => Ok((!flags.is_empty(), names)),
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
    fn smoke_is_the_one_flag() {
        let parse = |args: &[&str]| parse_bench_args(args.iter().map(|a| a.to_string()));
        let names = |n: &[&str]| n.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse(&[]), Ok((false, names(&[]))));
        assert_eq!(parse(&["--smoke"]), Ok((true, names(&[]))));
        assert_eq!(parse(&["fig13", "--smoke"]), Ok((true, names(&["fig13"]))));
        assert_eq!(
            parse(&["--smoke", "fig01", "fig07"]),
            Ok((true, names(&["fig01", "fig07"])))
        );
        // A typo is rejected, not read as "no flag": `--smok` must not run
        // the full mode and exit 0; `--quick` is no alias of `--smoke`.
        assert_eq!(parse(&["--smok", "fig13"]), Err("--smok".to_string()));
        assert_eq!(parse(&["fig13", "--quick"]), Err("--quick".to_string()));
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
