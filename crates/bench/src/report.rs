//! Machine-readable perf reporting for the `bench_report` binary.
//!
//! A small self-contained timing harness plus JSON serialization for
//! `BENCH_tensor.json` / `BENCH_planner.json`. Numbers are median ns/iter
//! over calibrated sample loops.

use std::time::{Duration, Instant};

/// Wall-clock budget per measured sample.
const SAMPLE_BUDGET: Duration = Duration::from_millis(40);
/// Cap on total time spent on one case (heavy naive kernels can take
/// seconds per iteration; three samples of those is plenty).
const CASE_BUDGET: Duration = Duration::from_secs(8);

/// One benchmark measurement destined for the JSON report.
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// Op or algorithm name, e.g. `conv2d` or `dp_partition`.
    pub op: String,
    /// Human-readable case/shape description, e.g. `in=256x56x56 w=256x256x3x3 s1 p1`.
    pub shape: String,
    /// Median nanoseconds per iteration in this run.
    pub ns_per_iter: f64,
    /// Number of samples the median was taken over.
    pub samples: usize,
    /// Seed-kernel (pre-optimization) ns/iter for the same case, if recorded.
    pub baseline_ns_per_iter: Option<f64>,
    /// Floating-point operations one iteration performs, when the case has a
    /// closed-form count (GEMM-backed kernels); `None` for ops timed without
    /// a FLOP model.
    pub flops: Option<u64>,
}

impl ReportEntry {
    /// Speedup of this run over the recorded seed baseline.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ns_per_iter.map(|b| b / self.ns_per_iter)
    }

    /// Achieved GFLOP/s (= FLOPs per nanosecond), when a FLOP count is
    /// recorded.
    pub fn gflops(&self) -> Option<f64> {
        self.flops.map(|f| f as f64 / self.ns_per_iter)
    }
}

/// Times `routine`, returning (median ns/iter, samples taken).
///
/// Calibrates with a single run, sizes sample loops to [`SAMPLE_BUDGET`],
/// then takes up to `max_samples` samples within [`CASE_BUDGET`].
pub fn measure<O, F: FnMut() -> O>(max_samples: usize, mut routine: F) -> (f64, usize) {
    let start = Instant::now();
    std::hint::black_box(routine());
    let est = start.elapsed().max(Duration::from_nanos(1));
    let iters = (SAMPLE_BUDGET.as_nanos() as f64 / est.as_nanos() as f64)
        .clamp(1.0, 1e9)
        .round() as u64;

    let deadline = Instant::now() + CASE_BUDGET;
    let mut samples = Vec::with_capacity(max_samples);
    for _ in 0..max_samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        if Instant::now() >= deadline {
            break;
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples.len())
}

/// Renders a report as pretty-printed JSON (hand-rolled: the serde shim has
/// no serializer).
pub fn render_json(suite: &str, threads: usize, entries: &[ReportEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let baseline = match e.baseline_ns_per_iter {
            Some(b) => format!("{b:.1}"),
            None => "null".into(),
        };
        let speedup = match e.speedup() {
            Some(s) => format!("{s:.2}"),
            None => "null".into(),
        };
        let gflops = match e.gflops() {
            Some(g) => format!("{g:.2}"),
            None => "null".into(),
        };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"shape\": \"{}\", \"ns_per_iter\": {:.1}, \"samples\": {}, \"baseline_ns_per_iter\": {}, \"speedup\": {}, \"gflops\": {}}}{}\n",
            e.op,
            e.shape,
            e.ns_per_iter,
            e.samples,
            baseline,
            speedup,
            gflops,
            if i + 1 == entries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let (ns, samples) = measure(5, || (0..1000u64).sum::<u64>());
        assert!(ns > 0.0);
        assert!((1..=5).contains(&samples));
    }

    #[test]
    fn json_report_is_well_formed() {
        let entries = vec![
            ReportEntry {
                op: "conv2d".into(),
                shape: "in=16x32x32".into(),
                ns_per_iter: 1234.5,
                samples: 10,
                baseline_ns_per_iter: Some(2469.0),
                flops: Some(123_450),
            },
            ReportEntry {
                op: "dense".into(),
                shape: "4096->1000".into(),
                ns_per_iter: 10.0,
                samples: 3,
                baseline_ns_per_iter: None,
                flops: None,
            },
        ];
        let json = render_json("tensor", 4, &entries);
        assert!(json.contains("\"suite\": \"tensor\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"speedup\": 2.00"));
        assert!(json.contains("\"baseline_ns_per_iter\": null"));
        assert!(json.contains("\"gflops\": 100.00"));
        // Exactly one trailing comma between the two entries, none after the last.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(json.contains("\"gflops\": null}\n"));
    }

    #[test]
    fn speedup_is_baseline_over_current() {
        let e = ReportEntry {
            op: "x".into(),
            shape: "s".into(),
            ns_per_iter: 50.0,
            samples: 1,
            baseline_ns_per_iter: Some(200.0),
            flops: Some(100),
        };
        assert_eq!(e.speedup(), Some(4.0));
        assert_eq!(e.gflops(), Some(2.0));
    }
}
