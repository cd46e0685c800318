//! Shared helpers for the Gillis benchmark harness.
//!
//! Each paper figure has a binary in `src/bin/` (`fig01_*` … `fig15_*`) that
//! regenerates the corresponding table/series; this library holds the
//! plumbing they share: aligned table printing and the standard
//! latency-optimal measurement loop (100 warm queries, as in §V-B).

pub mod report;

use gillis_core::{DpPartitioner, ExecutionPlan, ForkJoinRuntime, PartitionerConfig};
use gillis_faas::PlatformProfile;
use gillis_model::LinearModel;
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
    /// The latency-optimal plan.
    pub plan: ExecutionPlan,
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
        plan,
    }
}

/// The RNG seed a benchmark binary should use: `GILLIS_BENCH_SEED` from the
/// environment when set, else `default` (a value that is not a `u64` is
/// reported on stderr, naming the variable, and falls back to `default`).
/// Every `fig*`/`ext_*` binary routes its seeds through this, so a whole
/// benchmark run can be re-rolled (or pinned in CI) without touching code.
pub fn bench_seed(default: u64) -> u64 {
    gillis_faas::envutil::env_var("GILLIS_BENCH_SEED").unwrap_or(default)
}

/// The command line of `bench_report` and the `ext_*` binaries: whether
/// `--smoke` was given, and the output directory — the first argument that is
/// not a `--flag`, `.` when there is none.
pub fn bench_args() -> (bool, String) {
    parse_bench_args(std::env::args().skip(1))
}

fn parse_bench_args(args: impl Iterator<Item = String>) -> (bool, String) {
    let (flags, dirs): (Vec<_>, Vec<_>) = args.partition(|a| a.starts_with("--"));
    let out_dir = dirs.into_iter().next().unwrap_or_else(|| ".".into());
    (flags.iter().any(|f| f == "--smoke"), out_dir)
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
        let parse = |args: &[&str]| parse_bench_args(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), (false, ".".to_string()));
        assert_eq!(parse(&["--smoke"]), (true, ".".to_string()));
        assert_eq!(parse(&["--smoke", "out"]), (true, "out".to_string()));
        assert_eq!(parse(&["out", "--smoke"]), (true, "out".to_string()));
        assert_eq!(parse(&["--other", "out"]), (false, "out".to_string()));
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
