//! The harness against its own contract: `BENCHMARK.json` stays inside the
//! limits the benchmark driver enforces, and a run reports exactly the
//! metrics the manifest declares.

use std::collections::BTreeSet;
use std::path::PathBuf;

use gillis_benchmark::json::Json;
use gillis_benchmark::manifest::{Better, Manifest};
use gillis_benchmark::report::Report;
use gillis_benchmark::workloads::{self, RunConfig};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn manifest_is_inside_the_driver_limits() {
    let m = Manifest::embedded();
    assert!((1..=60).contains(&m.run_seconds));
    assert!((2..=8).contains(&m.workloads.len()));
    assert!((1..=16).contains(&m.end_to_end.len()));
    assert!((1..=128).contains(&m.per_layer.len()));
    let mut seen = BTreeSet::new();
    for (name, why) in &m.workloads {
        assert!(is_name(name), "workload name {name:?}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    for metric in m.end_to_end.iter().chain(&m.per_layer) {
        assert!(is_name(&metric.name), "metric name {:?}", metric.name);
        assert!(
            seen.insert(metric.name.clone()),
            "{} is used twice",
            metric.name
        );
        assert!(
            !metric.unit.is_empty()
                && metric.unit.len() <= 16
                && metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit of {}",
            metric.name
        );
    }
    for metric in &m.end_to_end {
        let bound = metric.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", metric.name);
    }
    assert!(m.per_layer.iter().all(|metric| metric.bound.is_none()));
    let setup = m.metric("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    let largest = m
        .end_to_end
        .iter()
        .filter_map(|x| x.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
}

#[test]
fn manifest_workloads_are_the_ones_the_harness_runs() {
    let m = Manifest::embedded();
    let declared: Vec<&str> = m.workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(declared, workloads::NAMES);
}

fn metric_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

/// Runs `serve_calm` at smoke size, the cheapest workload that exercises the
/// whole report path, and returns its report.
fn smoke_run(trace: bool) -> Report {
    let manifest = Manifest::embedded();
    let cfg = RunConfig {
        seed: 11,
        seconds: 0.2,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    let mut report = Report::new(manifest, "serve_calm", cfg.seed, trace, true);
    workloads::run("serve_calm", &cfg, &mut report).expect("the workload runs");
    report
}

#[test]
fn an_untraced_run_reports_exactly_the_end_to_end_metrics() {
    let report = smoke_run(false);
    assert!(report.correct(), "{:?}", report.failures);
    let result = report.result_line();
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let declared: Vec<String> = Manifest::embedded()
        .end_to_end
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(metric_names(&result), declared);
    for (name, metric) in result.get("metrics").unwrap().as_obj().unwrap() {
        let value = metric.get("value").and_then(Json::as_f64).unwrap();
        assert!(value > 0.0, "{name} must never read 0, got {value}");
    }
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    // The line survives a trip through a JSON parser.
    assert_eq!(Json::parse(&result.to_string()).unwrap(), result);
}

#[test]
fn a_traced_run_reports_exactly_the_per_layer_metrics_and_writes_spans() {
    let report = smoke_run(true);
    assert!(report.correct(), "{:?}", report.failures);
    let declared: Vec<String> = Manifest::embedded()
        .per_layer
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(metric_names(&report.result_line()), declared);
    // The layers this workload drives were measured, the idle ones read 0.
    assert!(report.get("forkjoin.pipelined.kq_per_host_s").unwrap() > 0.0);
    assert!(report.get("faas.des.push_pop_ns").unwrap() > 0.0);
    assert_eq!(report.get("tensor.conv_ms"), None);
    assert_eq!(report.get("faas.recovery.stages_saved"), Some(0.0));
    let spans = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve_calm.trace.jsonl"),
    )
    .expect("the span file exists");
    let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
    for key in ["id", "name", "start_us", "end_us", "parent", "op"] {
        assert!(first.get(key).is_some(), "span field {key}");
    }
}

#[test]
fn the_same_seed_simulates_the_same_outcomes() {
    let (a, b) = (smoke_run(false), smoke_run(false));
    for name in ["model_latency_ms", "model_usd_per_kq", "sim_goodput_ratio"] {
        assert_eq!(
            a.get(name).unwrap().to_bits(),
            b.get(name).unwrap().to_bits(),
            "{name}"
        );
    }
}
