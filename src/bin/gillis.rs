//! `gillis` — command-line front end for the reproduction.
//!
//! ```text
//! gillis models
//! gillis info     --model vgg16
//! gillis plan     --model vgg16 --platform lambda [--slo 500] [--out plan.txt]
//! gillis describe --model wrn-34-5 --platform lambda [--plan plan.txt]
//! gillis predict  --model vgg16 --platform lambda [--plan plan.txt]
//! gillis serve    --model vgg16 --platform lambda [--plan plan.txt]
//!                 [--clients 100] [--queries 1000] [--rate 100]
//! ```
//!
//! Every command but `models` and `info` builds one
//! [`gillis::serving::Deployment`]: the plan in `--plan` (in the stable text
//! format of [`gillis::core::ExecutionPlan::to_text`]) if one is given, else
//! the one [`gillis::serving::Gillis::deploy`] searches for — latency-optimal,
//! or SLO-aware under `--slo` milliseconds.
//!
//! `serve` reads every serving-policy family from the `GILLIS_*` environment
//! knobs (README "Environment knobs"; one `PolicyStack`), prints the
//! policies in force, and exits non-zero on a malformed or invalid knob.
//! Without `--rate` and without a `GILLIS_BATCH_*` or `GILLIS_PIPELINE_*`
//! knob it runs `--clients` closed-loop clients; otherwise it serves an
//! open-loop Poisson stream at `--rate` arrivals/s (default 100) with
//! `--clients` prewarmed masters through
//! [`gillis::serving::Deployment::serve_open_loop`], which owns the choice of
//! driver: pipelined under a pipeline knob (planned for the stage-balancing
//! objective unless `--plan` is given), else batched under a batch knob, else
//! plain.

use std::collections::HashMap;
use std::process::ExitCode;

use gillis::core::{ExecutionPlan, PolicyStack};
use gillis::faas::workload::ClosedLoop;
use gillis::faas::Micros;
use gillis::serving::{lookup_model, lookup_platform, model_catalog, Gillis, Mode};

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

/// The value of `--name`, parsed, if given.
fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("bad --{name}: {v}")))
        .transpose()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err("usage: gillis <models|info|plan|describe|predict|serve> [--flags]".into());
    };
    if command == "models" {
        println!("{:<16} {:>12} {:>10}", "model", "weights(MB)", "layers");
        for (name, f) in model_catalog() {
            let m = f();
            println!(
                "{:<16} {:>12.0} {:>10}",
                name,
                m.weight_bytes() as f64 / 1e6,
                m.layers().len()
            );
        }
        return Ok(());
    }

    let flags = parse_flags(&args[1..])?;
    let model_name = flags
        .get("model")
        .ok_or_else(|| "--model is required".to_string())?;
    let model = lookup_model(model_name).map_err(|e| e.to_string())?;
    let platform = lookup_platform(
        flags
            .get("platform")
            .map(String::as_str)
            .unwrap_or("lambda"),
    )
    .map_err(|e| e.to_string())?;
    if command == "info" {
        print!("{}", model.summary());
        return Ok(());
    }
    let mut gillis = Gillis::new(model).platform(platform);
    if let Some(path) = flags.get("plan") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read plan {path}: {e}"))?;
        gillis = gillis.plan(ExecutionPlan::from_text(&text).map_err(|e| e.to_string())?);
    }
    if let Some(t_max_ms) = parsed(&flags, "slo")? {
        gillis = gillis.mode(Mode::SloAware { t_max_ms });
    }
    let deploy = |gillis: Gillis| gillis.deploy().map_err(|e| e.to_string());

    match command.as_str() {
        "plan" => {
            let d = deploy(gillis)?;
            let text = d.plan().to_text();
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("wrote {path} ({} groups)", d.plan().groups().len());
                }
                None => print!("{text}"),
            }
        }
        "describe" => {
            print!("{}", deploy(gillis)?.describe().map_err(|e| e.to_string())?);
        }
        "predict" => {
            let d = deploy(gillis)?;
            let pred = d.predicted();
            println!("latency : {:.1} ms", pred.latency_ms);
            println!("billed  : {} ms/query", pred.billed_ms);
            println!("cost    : ${:.6}/query", pred.usd);
        }
        "serve" => {
            let clients = parsed(&flags, "clients")?.unwrap_or(100);
            let queries = parsed(&flags, "queries")?.unwrap_or(1000);
            let rate: Option<f64> = parsed(&flags, "rate")?;
            // Every policy family the environment configures, read once; a
            // set-but-invalid family is an error, not a silently dropped one.
            let policies = PolicyStack::from_env().map_err(|e| e.to_string())?;
            print!("{}", policies.to_text());
            let d = deploy(gillis.policies(policies.clone()))?;
            if rate.is_none() && policies.pipeline.is_none() && policies.batch.is_none() {
                let workload =
                    ClosedLoop::new(clients, queries, Micros::ZERO).map_err(|e| e.to_string())?;
                let report = d.serve(workload, 7).map_err(|e| e.to_string())?;
                print_serving_report(&report);
                return Ok(());
            }
            let rate = rate.unwrap_or(100.0);
            let report = d
                .serve_open_loop(rate, queries, clients, 7)
                .map_err(|e| e.to_string())?;
            // The driver's own header: the stages it streamed through, or
            // the schedule it batched on (not part of the report).
            if let Some(p) = &policies.pipeline {
                println!(
                    "pipeline: {} stages x {} lanes (queue depth {})",
                    d.plan().groups().len(),
                    p.lanes,
                    p.queue_depth,
                );
            } else if let Some(b) = &policies.batch {
                let schedule = d.batch_schedule(rate).map_err(|e| e.to_string())?;
                let windows = schedule
                    .classes
                    .iter()
                    .map(|c| format!("n{}/{:.0}ms", c.batch, c.window_ms))
                    .collect::<Vec<_>>()
                    .join(" ");
                println!(
                    "batch schedule: {} classes [{}] at {} MB",
                    b.classes.len(),
                    windows,
                    schedule.memory_bytes / 1_000_000,
                );
            }
            print_serving_report(&report);
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

fn print_serving_report(report: &gillis::core::ServingReport) {
    println!(
        "served {} queries: mean {:.1} ms, p50 {:.1} ms, p99 {:.1} ms",
        report.latency.count(),
        report.latency.mean(),
        report.latency.percentile(50.0),
        report.latency.percentile(99.0),
    );
    println!(
        "billed {} ms total (${:.4}); {} cold starts, {} retries",
        report.billing.billed_ms_total(),
        report.billing.usd_total(),
        report.cold_starts,
        report.resilience.retries,
    );
    println!(
        "outcomes: {} ok, {} degraded, {} failed ({} hedges, {} hedge wins, {} timeouts)",
        report.resilience.ok_queries,
        report.resilience.degraded_queries,
        report.resilience.failed_queries,
        report.resilience.hedges,
        report.resilience.hedge_wins,
        report.resilience.timeouts,
    );
    if report.overload.admitted > 0 {
        println!(
            "overload: {} admitted, {} shed, {} deadline-exceeded, \
             {} cancelled attempts, {} breaker opens ({} short circuits)",
            report.overload.admitted,
            report.overload.shed(),
            report.resilience.deadline_exceeded_queries,
            report.overload.cancelled_attempts,
            report.overload.breaker_opens,
            report.overload.breaker_short_circuits,
        );
    }
    if report.resilience.first_attempts > 0 {
        println!(
            "retry amplification: {:.3}x ({} worker invocations / {} first attempts), \
             {} budget-denied retries, {} budget-denied hedges, {} corruptions detected",
            report.retry_amplification(),
            report.resilience.worker_invocations,
            report.resilience.first_attempts,
            report.resilience.budget_denied_retries,
            report.resilience.budget_denied_hedges,
            report.resilience.corruptions_detected,
        );
    }
    let bt = &report.batch;
    if bt.batches > 0 {
        println!(
            "batch: {} batches (mean {:.2}, {} fast-path, {} size-closed, {} window-closed)",
            bt.batches,
            bt.mean_batch(),
            bt.batch_one_fast_path,
            bt.size_closes,
            bt.window_closes,
        );
    }
    let p = &report.pipeline;
    if p.stages > 1 {
        println!(
            "pipeline: {} stages, {} dispatches, {} handoffs, \
             {} backpressure stalls, peak stage queue {}",
            p.stages, p.stage_dispatches, p.handoffs, p.backpressure_stalls, p.peak_stage_queue,
        );
    }
    let r = &report.recovery;
    if r.orchestrator_crashes > 0 || r.checkpoints_stored > 0 {
        println!(
            "recovery: {} checkpoints, \
             {} orchestrator crashes -> {} failover replays, {} full restarts, \
             {} skipped at deadline, {} stages saved ({:.0} ms recompute avoided)",
            r.checkpoints_stored,
            r.orchestrator_crashes,
            r.failover_replays,
            r.full_restarts,
            r.resume_skipped_deadline,
            r.stages_saved,
            r.recompute_avoided_ms,
        );
    }
    let b = &report.brownout;
    if b.arrivals() > 0 {
        println!(
            "brownout: queries at [full {}, no-hedge {}, int8 {}, local {}, shed {}], \
             {} step-downs, {} step-ups, {} probes",
            b.queries_at_level[0],
            b.queries_at_level[1],
            b.queries_at_level[2],
            b.queries_at_level[3],
            b.queries_at_level[4],
            b.step_downs,
            b.step_ups,
            b.probes,
        );
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
