//! Integration tests of the `gillis` CLI binary.

use std::process::Command;

fn gillis(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gillis"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn models_lists_the_catalog() {
    let out = gillis(&["models"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["vgg11", "wrn-50-4", "rnn-9", "tiny-vgg", "mobilenet"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn info_prints_layer_summary() {
    let out = gillis(&["info", "--model", "tiny-vgg"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("tiny-vgg"));
    assert!(stdout.contains("conv-like"));
    assert!(stdout.contains("dense"));
}

#[test]
fn plan_predict_serve_roundtrip() {
    let dir = std::env::temp_dir().join(format!("gillis-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan_path = dir.join("plan.txt");
    let plan_str = plan_path.to_str().unwrap();

    let out = gillis(&["plan", "--model", "tiny-vgg", "--out", plan_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&plan_path).unwrap();
    assert!(text.starts_with("gillis-plan v1"));

    let out = gillis(&["predict", "--model", "tiny-vgg", "--plan", plan_str]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("latency"));
    assert!(stdout.contains("billed"));

    let out = gillis(&[
        "serve",
        "--model",
        "tiny-vgg",
        "--plan",
        plan_str,
        "--clients",
        "4",
        "--queries",
        "20",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("served 20 queries"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn describe_names_groups() {
    let out = gillis(&["describe", "--model", "tiny-vgg"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("group"));
}

#[test]
fn errors_are_reported_cleanly() {
    let out = gillis(&["plan", "--model", "not-a-model"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown model"));

    let out = gillis(&["frobnicate", "--model", "tiny-vgg"]);
    assert!(!out.status.success());

    let out = gillis(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));

    let out = gillis(&["plan", "--model", "tiny-vgg", "--platform", "azure"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown platform"));
}

fn serve_with_env(env: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gillis"))
        .args(["serve", "--model", "tiny-vgg", "--clients", "4"])
        .args(["--queries", "20"])
        .envs(env.iter().copied())
        .output()
        .expect("binary runs")
}

#[test]
fn serve_rejects_an_invalid_knob_combination() {
    // Predictive shedding without a deadline used to run unprotected
    // without a word; it is an error that names what was set.
    let out = serve_with_env(&[
        ("GILLIS_OVERLOAD_CONCURRENCY", "4"),
        ("GILLIS_OVERLOAD_SHED_PREDICTED", "true"),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("GILLIS_OVERLOAD_SHED_PREDICTED"),
        "stderr must name the variable:\n{stderr}"
    );
}

#[test]
fn serve_prints_the_policies_in_force() {
    let out = serve_with_env(&[("GILLIS_OVERLOAD_CONCURRENCY", "4")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("gillis-overload v1\nconcurrency=4 queue=8 "),
        "{stdout}"
    );
    assert!(stdout.contains("served 20 queries"), "{stdout}");
}

/// The `served …` and `overload: …` lines of a serving report, formatted as
/// the CLI prints them.
fn report_lines(report: &gillis::core::ServingReport) -> Vec<String> {
    let mut lines = vec![format!(
        "served {} queries: mean {:.1} ms, p50 {:.1} ms, p99 {:.1} ms",
        report.latency.count(),
        report.latency.mean(),
        report.latency.percentile(50.0),
        report.latency.percentile(99.0),
    )];
    if report.overload.admitted > 0 {
        lines.push(format!(
            "overload: {} admitted, {} shed, {} deadline-exceeded, \
             {} cancelled attempts, {} breaker opens ({} short circuits)",
            report.overload.admitted,
            report.overload.shed(),
            report.resilience.deadline_exceeded_queries,
            report.overload.cancelled_attempts,
            report.overload.breaker_opens,
            report.overload.breaker_short_circuits,
        ));
    }
    lines
}

#[test]
fn open_loop_serve_is_the_deployments_open_loop() {
    use gillis::core::PolicyStack;
    use gillis::serving::{lookup_model, Gillis};

    // Each knob set and its `--rate`, if any (without one the CLI serves at
    // 100/s). At 10,000/s a plain open loop outgrows its four prewarmed
    // masters and pays cold starts, where a closed loop of four clients
    // never does. The last deadline lies between the analytic and the
    // profiled prediction of tiny-vgg's plan: shedding on the analytic one
    // admitted all 20 queries.
    type Knobs = &'static [(&'static str, &'static str)];
    let cases: [(Knobs, Option<f64>); 4] = [
        (&[("GILLIS_PIPELINE_LANES", "2")], None),
        (&[("GILLIS_BATCH_MAX", "4")], Some(40.0)),
        (&[], Some(10_000.0)),
        (
            &[
                ("GILLIS_PIPELINE_LANES", "2"),
                ("GILLIS_OVERLOAD_CONCURRENCY", "4"),
                ("GILLIS_OVERLOAD_DEADLINE_MS", "0.222"),
                ("GILLIS_OVERLOAD_SHED_PREDICTED", "true"),
            ],
            None,
        ),
    ];
    for (knobs, rate) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_gillis"));
        cmd.args(["serve", "--model", "tiny-vgg", "--clients", "4"])
            .args(["--queries", "20"])
            .envs(knobs.iter().copied());
        if let Some(rate) = rate {
            cmd.args(["--rate", &rate.to_string()]);
        }
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "{knobs:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let cli: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("served ") || l.starts_with("overload: "))
            .collect();

        // The child sees the test's environment plus the knobs.
        let lookup = |key: &str| {
            knobs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
                .or_else(|| std::env::var(key).ok())
        };
        let policies = PolicyStack::from_lookup(&lookup).unwrap();
        let report = Gillis::new(lookup_model("tiny-vgg").unwrap())
            .policies(policies)
            .deploy()
            .unwrap()
            .serve_open_loop(rate.unwrap_or(100.0), 20, 4, 7)
            .unwrap();
        assert_eq!(cli, report_lines(&report), "{knobs:?}");
        if knobs.is_empty() {
            assert!(report.cold_starts > 0);
        }
        if knobs.len() == 4 {
            assert_eq!(report.overload.shed(), 20, "{:?}", report.overload);
        }
    }
}
