//! The seven workloads and what they share: the run configuration, the
//! calibration spins around every workload, and repeated set-up.

use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::report::Report;
use crate::stats::{fastest, fastest_per_slot};
use crate::trace::Tracer;

pub mod infer;
pub mod plan;
pub mod serve;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "infer_vgg11",
    "infer_mobilenet",
    "infer_resnet34",
    "infer_rnn3",
    "serve_calm",
    "serve_storm",
    "plan_zoo",
];

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file in place of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Smoke size: about a twentieth of the work, the same checks.
    pub quick: bool,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// Runs one workload into `report`.
///
/// # Errors
///
/// Returns a message when the workload could not be set up or measured at
/// all; operations that ran and were wrong are counted in the report
/// instead.
pub fn run(name: &str, cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new(cfg.trace);
    let mut spins = vec![host::calibration_spin()];
    if cfg.trace {
        report.set("host.fma_peak_gflops", host::fma_peak_gflops());
        report.set("host.stream_gbps", host::stream_gbps());
        report.set(
            "host.simd_active",
            f64::from(u8::from(gillis::tensor::simd::simd_active())),
        );
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        report.set("host.nproc", nproc as f64);
    }
    match name {
        "infer_vgg11" | "infer_mobilenet" | "infer_resnet34" | "infer_rnn3" => {
            infer::run(name, cfg, report, &mut tracer, &mut spins)?
        }
        "serve_calm" | "serve_storm" => serve::run(name, cfg, report, &mut tracer, &mut spins)?,
        "plan_zoo" => plan::run(cfg, report, &mut tracer, &mut spins)?,
        other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})")),
    }
    spins.push(host::calibration_spin());
    let spread = host::calibration_spread(&spins);
    report.set("host.calib_spread", spread);
    report.note("noisy", spread > 1.10);
    report.note(
        "calibration_ms",
        spins
            .iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    if !cfg.trace {
        report.set("peak_rss_mb", host::peak_rss_mb());
    } else {
        let path = cfg.out_dir.join(format!("{name}.trace.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(
            "spans",
            format!("{} in {}", tracer.spans().len(), path.display()),
        );
    }
    Ok(())
}

/// Sets a workload up repeatedly and returns the last result with the
/// fastest repetition's seconds (see [`fastest`]). The previous result is
/// dropped before the next repetition starts, so peak memory stays that of
/// one set-up. Heavy set-ups run three times; cheap ones repeat for two
/// seconds (100 at most), which gives an episode of stolen CPU time that many
/// chances to let one through; a traced or quick run sets up once.
pub fn repeat_setup<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let once = cfg.quick || cfg.trace;
    let began = Instant::now();
    let mut seconds = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
        let reps = seconds.len();
        if once || (reps >= 3 && (began.elapsed().as_secs_f64() >= 2.0 || reps >= 100)) {
            break;
        }
    }
    let value = last.expect("the loop ran at least once");
    Ok((value, fastest(&seconds), seconds.len()))
}

/// Whether round `k` of a run records spans: in a traced run the rounds after
/// the first alternate, so that both kinds see the same drift of the host.
pub fn records_round(cfg: &RunConfig, k: usize) -> bool {
    cfg.trace && k % 2 == 1
}

/// What span recording costs, in percent of an undisturbed round, from
/// rounds that alternated as [`records_round`] says (the first is left out:
/// it also warms the allocator and the caches).
pub fn trace_overhead_pct(rounds: &[Vec<f64>]) -> f64 {
    let of = |recorded: bool| -> f64 {
        let kind = rounds.iter().enumerate().skip(1);
        fastest_per_slot(
            kind.filter(|(k, _)| (k % 2 == 1) == recorded)
                .map(|(_, r)| r),
        )
        .iter()
        .sum()
    };
    100.0 * (of(true) / of(false) - 1.0)
}
