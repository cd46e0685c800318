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
//! `serve` reads every serving-policy family from the `GILLIS_*` environment
//! knobs (README "Environment knobs"; one `PolicyStack`), prints the
//! policies in force, and exits non-zero on a malformed or invalid knob.
//! `GILLIS_BATCH_*` switches it to open-loop adaptive multi-SLO batching at
//! `--rate` arrivals/s (with `--clients` prewarmed masters), planning batch
//! sizes and instance memory jointly against the performance model;
//! `GILLIS_PIPELINE_*` switches it to pipeline-parallel streaming across
//! layer groups — when `--plan` is omitted the plan is recomputed for the
//! stage-balancing objective — and takes precedence over batching (they do
//! not compose).
//!
//! Plans are stored in the stable text format of
//! [`gillis::core::ExecutionPlan::to_text`]; when `--plan` is omitted the
//! latency-optimal plan is computed on the fly.

use std::collections::HashMap;
use std::process::ExitCode;

use gillis::serving::{lookup_model, lookup_platform, model_catalog};

use gillis::core::{
    plan_batch_schedule, predict_plan, DpPartitioner, ExecutionPlan, ForkJoinRuntime,
    PlanObjective, PolicyStack,
};
use gillis::faas::workload::ClosedLoop;
use gillis::faas::Micros;
use gillis::model::LinearModel;
use gillis::perf::PerfModel;
use gillis::rl::{slo_aware_partition, SloAwareConfig};

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

fn load_or_plan(
    flags: &HashMap<String, String>,
    model: &LinearModel,
    perf: &PerfModel,
) -> Result<ExecutionPlan, String> {
    match flags.get("plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read plan {path}: {e}"))?;
            let plan = ExecutionPlan::from_text(&text).map_err(|e| e.to_string())?;
            plan.validate(model, perf.platform.model_memory_budget)
                .map_err(|e| format!("plan does not fit {}: {e}", model.name()))?;
            Ok(plan)
        }
        None => DpPartitioner::default()
            .partition(model, perf)
            .map_err(|e| e.to_string()),
    }
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
    let perf = PerfModel::profiled(&platform, 42);

    match command.as_str() {
        "info" => {
            print!("{}", model.summary());
        }
        "plan" => {
            let plan = match flags.get("slo") {
                Some(slo) => {
                    let t_max_ms: f64 = slo.parse().map_err(|_| format!("bad --slo: {slo}"))?;
                    slo_aware_partition(
                        &model,
                        &perf,
                        &SloAwareConfig {
                            t_max_ms,
                            ..SloAwareConfig::default()
                        },
                    )
                    .map_err(|e| e.to_string())?
                    .plan
                }
                None => DpPartitioner::default()
                    .partition(&model, &perf)
                    .map_err(|e| e.to_string())?,
            };
            let text = plan.to_text();
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("wrote {path} ({} groups)", plan.groups().len());
                }
                None => print!("{text}"),
            }
        }
        "describe" => {
            let plan = load_or_plan(&flags, &model, &perf)?;
            print!("{}", plan.describe(&model).map_err(|e| e.to_string())?);
        }
        "predict" => {
            let plan = load_or_plan(&flags, &model, &perf)?;
            let pred = predict_plan(&model, &plan, &perf).map_err(|e| e.to_string())?;
            println!("latency : {:.1} ms", pred.latency_ms);
            println!("billed  : {} ms/query", pred.billed_ms);
            println!("cost    : ${:.6}/query", pred.usd);
        }
        "serve" => {
            let plan = load_or_plan(&flags, &model, &perf)?;
            let clients = flags
                .get("clients")
                .map(|v| v.parse().map_err(|_| format!("bad --clients: {v}")))
                .transpose()?
                .unwrap_or(100);
            let queries = flags
                .get("queries")
                .map(|v| v.parse().map_err(|_| format!("bad --queries: {v}")))
                .transpose()?
                .unwrap_or(1000);
            // Every policy family the environment configures, read once; a
            // set-but-invalid family is an error, not a silently dropped one.
            let policies = PolicyStack::from_env().map_err(|e| e.to_string())?;
            print!("{}", policies.to_text());
            let runtime = |plan, platform| {
                ForkJoinRuntime::new(&model, plan, platform)
                    .and_then(|rt| rt.with_policies(&policies, None))
                    .map_err(|e| e.to_string())
            };
            // GILLIS_PIPELINE_* env knobs enable pipeline-parallel serving:
            // each layer group becomes a stage with its own lane pool and a
            // bounded inter-stage queue, fed by an open-loop Poisson stream
            // at --rate. Batching does not compose with pipelining, so this
            // branch takes precedence over GILLIS_BATCH_*.
            if let Some(pipeline_policy) = &policies.pipeline {
                let rate: f64 = flags
                    .get("rate")
                    .map(|v| v.parse().map_err(|_| format!("bad --rate: {v}")))
                    .transpose()?
                    .unwrap_or(100.0);
                // Without an explicit --plan, replan for the stage-balancing
                // objective: steady-state throughput is set by the slowest
                // stage, not the end-to-end latency.
                let plan = if flags.contains_key("plan") {
                    plan
                } else {
                    DpPartitioner::default()
                        .with_objective(PlanObjective::PipelineBottleneck)
                        .partition(&model, &perf)
                        .map_err(|e| e.to_string())?
                };
                let report = runtime(&plan, platform)?
                    .serve_open_loop_pipelined(pipeline_policy, rate, queries, clients, 7)
                    .map_err(|e| e.to_string())?;
                println!(
                    "pipeline: {} stages x {} lanes (queue depth {})",
                    plan.groups().len(),
                    pipeline_policy.lanes,
                    pipeline_policy.queue_depth,
                );
                print_serving_report(&report);
                return Ok(());
            }
            // GILLIS_BATCH_* env knobs enable adaptive multi-SLO batching:
            // serving switches to an open-loop Poisson stream at --rate and
            // the batch sizes / instance memory are planned jointly against
            // the performance model.
            if let Some(batch_policy) = &policies.batch {
                let rate: f64 = flags
                    .get("rate")
                    .map(|v| v.parse().map_err(|_| format!("bad --rate: {v}")))
                    .transpose()?
                    .unwrap_or(100.0);
                let schedule = plan_batch_schedule(
                    &model,
                    &plan,
                    &platform,
                    gillis::perf::TransferFormat::F32,
                    batch_policy,
                    rate,
                )
                .map_err(|e| e.to_string())?;
                let serving_platform = if schedule.memory_bytes == platform.instance_memory_bytes {
                    platform
                } else {
                    platform.with_memory_bytes(schedule.memory_bytes)
                };
                let report = runtime(&plan, serving_platform)?
                    .serve_open_loop_batched(batch_policy, &schedule, rate, queries, clients, 7)
                    .map_err(|e| e.to_string())?;
                let windows = schedule
                    .classes
                    .iter()
                    .map(|c| format!("n{}/{:.0}ms", c.batch, c.window_ms))
                    .collect::<Vec<_>>()
                    .join(" ");
                // Only the *schedule* is printed here (it is not part of the
                // report); the batch counters print with every other report
                // block in `print_serving_report`.
                println!(
                    "batch schedule: {} classes [{}] at {} MB",
                    batch_policy.classes.len(),
                    windows,
                    schedule.memory_bytes / 1_000_000,
                );
                print_serving_report(&report);
                return Ok(());
            }
            let report = runtime(&plan, platform)?
                .serve_workload(
                    ClosedLoop::new(clients, queries, Micros::ZERO).map_err(|e| e.to_string())?,
                    7,
                )
                .map_err(|e| e.to_string())?;
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
            "recovery: {} checkpoints ({} hits, {} evictions, {} expirations), \
             {} orchestrator crashes -> {} failover replays, {} full restarts, \
             {} stages saved ({:.0} ms recompute avoided)",
            r.checkpoints_stored,
            r.checkpoint_hits,
            r.checkpoint_evictions,
            r.checkpoint_expirations,
            r.orchestrator_crashes,
            r.failover_replays,
            r.full_restarts,
            r.stages_saved,
            r.recompute_avoided_ms,
        );
        println!(
            "recovery: {} resume retries ({} wins), {} skipped at deadline, \
             {} speculations ({} wins, {} cancelled)",
            r.resume_retries,
            r.resume_retry_wins,
            r.resume_skipped_deadline,
            r.speculative_executions,
            r.speculation_wins,
            r.speculation_cancelled,
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
