//! The `bench` command line: one workload, `--all` of them in fresh child
//! processes, or `compare` of two record files.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::compare;
use crate::host;
use crate::json::Json;
use crate::manifest::Manifest;
use crate::report::Report;
use crate::workloads::{self, RunConfig};

const USAGE: &str = "\
usage:
  bench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
        [--quick] [--out <file>] [--out-dir <dir>]
  bench --all [the same options]
  bench compare <a.jsonl> <b.jsonl>

  --workload  one of the workloads of BENCHMARK.json
  --all       every workload, each in a fresh child process
  --seed      every input derives from it (default 1)
  --seconds   length of the timed window (default: run_seconds of BENCHMARK.json)
  --trace     1 = per-layer metrics and a span file instead of end-to-end metrics
  --quick     smoke size: about a twentieth of the work, the same checks
  --out       append this run's full record to a JSON-lines file, the input of compare
  --out-dir   where span files (and --all's records) go (default benchmark/out)
";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--all" => parsed.all = true,
            "--quick" => parsed.quick = true,
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(parsed)
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => run_compare(&args[1..]),
        Some(_) => parse_args(&args).and_then(|parsed| {
            if parsed.all {
                run_all(&parsed)
            } else {
                run_one(&parsed)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    writeln!(file, "{line}").map_err(io)
}

/// Runs one workload in this process. The last line on standard output is
/// the result object of the benchmark contract; `Ok(false)` means it ran and
/// some operation was wrong.
fn run_one(args: &Args) -> Result<bool, String> {
    host::scrub_environment();
    let manifest = Manifest::embedded();
    let name = args.workload.as_deref().expect("checked by parse_args");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            0.5
        } else {
            manifest.run_seconds as f64
        }),
        trace: args.trace,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
    };
    let mut report = Report::new(manifest, name, cfg.seed, cfg.trace, cfg.quick);
    workloads::run(name, &cfg, &mut report)?;
    if let Some(path) = &args.out {
        append_line(path, &report.record().to_string())?;
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Runs every workload in a child process of its own, so that peak memory
/// and every cached `GILLIS_*` setting are per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let manifest = Manifest::embedded();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let records = args.out.clone().unwrap_or_else(|| {
        let _ = std::fs::remove_file(args.out_dir.join("all.jsonl"));
        args.out_dir.join("all.jsonl")
    });
    let began = Instant::now();
    let mut all_correct = true;
    for (name, _) in &manifest.workloads {
        let start = Instant::now();
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&records)
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stdin(Stdio::null());
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if args.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {name}: {e}"))?;
        println!(
            "== {name}: {} in {:.1} s\n",
            if status.success() { "ok" } else { "FAILED" },
            start.elapsed().as_secs_f64()
        );
        all_correct &= status.success();
    }
    println!(
        "{} workloads in {:.1} s; records in {}",
        manifest.workloads.len(),
        began.elapsed().as_secs_f64(),
        records.display()
    );
    // At smoke size some metrics lack the samples they need.
    let missing = if args.quick {
        Vec::new()
    } else {
        unmeasured_metrics(&manifest, &records, args.trace)?
    };
    if !missing.is_empty() {
        println!(
            "declared but measured by no workload: {}",
            missing.join(", ")
        );
        all_correct = false;
    }
    Ok(all_correct)
}

/// Declared metrics of this mode that no record in `path` carries: a name in
/// `BENCHMARK.json` that nothing measures is a typo on one side or the other.
fn unmeasured_metrics(
    manifest: &Manifest,
    path: &Path,
    traced: bool,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut measured = std::collections::BTreeSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Json::parse(line)?;
        if record.get("trace").and_then(Json::as_bool) != Some(traced) {
            continue;
        }
        for (name, _) in record
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            measured.insert(name.clone());
        }
    }
    let declared = if traced {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    Ok(declared
        .iter()
        .filter(|m| !measured.contains(&m.name))
        .map(|m| m.name.clone())
        .collect())
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two record files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, worse) = compare::compare(&Manifest::embedded(), &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(worse == 0)
}
