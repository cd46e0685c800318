//! The Gillis experiment library: deterministic experiments, one table type.
//!
//! Every experiment is a function of its seed that returns a
//! [`sweep::Sweep`], and states what the paper (or the extension's
//! acceptance criteria) says about it as `claims(&Sweep) -> Vec<Claim>`:
//! [`figures`] holds the paper's §V figures, [`suites`] the six simulator
//! suites whose sweeps are the committed `BENCH_*.json` artifacts. The
//! binaries print a sweep and turn its claims into an exit code;
//! `tests/claims.rs` checks the same claims in tier-1. Nothing here times
//! host code — `benchmark/` is the one measuring harness.

pub mod figures;
pub mod suites;
pub mod sweep;

use gillis_core::predict::predict_plan;
use gillis_core::{DpPartitioner, ExecutionPlan, ForkJoinRuntime, PartitionerConfig};
use gillis_faas::PlatformProfile;
use gillis_model::{zoo, LinearModel};
use gillis_perf::PerfModel;

/// A simple fixed-width text table for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

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
/// Every `ext_*` binary routes its seeds through this, so a whole
/// benchmark run can be re-rolled (or pinned in CI) without touching code.
pub fn bench_seed(default: u64) -> u64 {
    gillis_faas::envutil::env_var("GILLIS_BENCH_SEED").unwrap_or(default)
}

/// The deploy the serving suites and the `ext_*` studies share: a model on
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
        let mut t = Table::new(&["model", "ms"]);
        t.row(vec!["vgg11".into(), "123".into()]);
        t.row(vec!["wrn-50-3".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("model"));
        assert!(lines[2].ends_with("123"));
        assert_eq!(lines[2].len(), lines[3].len());
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
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
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
