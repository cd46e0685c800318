//! Real-inference workloads: a closed loop of one client calling
//! `Deployment::infer` on a full-size zoo model, every output compared bit
//! for bit with the unpartitioned `Executor::forward`.

use std::time::Instant;

use gillis::core::{execute_plan_tensors, execute_plan_tensors_with_threads};
use gillis::core::{CompiledPlanExec, ExecutionPlan};
use gillis::faas::compute::EffClass;
use gillis::faas::PlatformProfile;
use gillis::model::compiled::{CompiledSegment, PanelCache, PieceSpec};
use gillis::model::exec::Executor;
use gillis::model::weights::{init_weights, ModelWeights};
use gillis::model::{zoo, LayerOp, LinearModel, MergedLayer};
use gillis::perf::{eff_class_of_layer, flops_by_class, PerfModel};
use gillis::serving::{Deployment, Gillis, Mode};
use gillis::tensor::Tensor;

use super::{repeat_setup, RunConfig};
use crate::host::{self, POOL_THREADS};
use crate::inputs::{derive, query_tensors};
use crate::report::Report;
use crate::stats::{fastest, highest_supported_percentile, median};
use crate::trace::Tracer;

/// Distinct query tensors a run cycles through.
const QUERY_TENSORS: usize = 2;

fn builder(name: &str) -> fn() -> LinearModel {
    match name {
        "infer_vgg11" => zoo::vgg11,
        "infer_mobilenet" => zoo::mobilenet,
        "infer_resnet34" => zoo::resnet34,
        "infer_rnn3" => || zoo::rnn(3),
        other => unreachable!("not an inference workload: {other}"),
    }
}

/// Everything before the first timed query, and how long each part took.
struct SetUp {
    model: LinearModel,
    weights: ModelWeights,
    deployment: Deployment,
    inputs: Vec<Tensor>,
    first_output: Result<Tensor, String>,
    zoo_build_ms: f64,
    init_weights_ms: f64,
    deploy_ms: f64,
    first_query_ms: f64,
}

/// Builds the model, its seeded weights and queries, deploys it
/// latency-optimally on Lambda and pays the first (compiling) query.
fn set_up(build: fn() -> LinearModel, seed: u64, tracer: &mut Tracer) -> Result<SetUp, String> {
    let (model, zoo_build_ms) = tracer.time("model.zoo_build", 0, build);
    let (weights, init_weights_ms) = tracer.time("model.init_weights", 0, || {
        init_weights(model.graph(), derive(seed, "weights"))
    });
    let weights = weights.map_err(|e| format!("init_weights: {e}"))?;
    let inputs = query_tensors(model.input_shape(), derive(seed, "queries"), QUERY_TENSORS);
    let (deployment, deploy_ms) = tracer.time("serving.deploy", 0, || {
        Gillis::new(model.clone())
            .platform(PlatformProfile::aws_lambda())
            .mode(Mode::LatencyOptimal)
            .seed(derive(seed, "profile"))
            .deploy()
    });
    let deployment = deployment.map_err(|e| format!("deploy: {e}"))?;
    let (first_output, first_query_ms) = tracer.time("serving.first_query", 0, || {
        deployment.infer(&weights, &inputs[0])
    });
    Ok(SetUp {
        model,
        weights,
        deployment,
        inputs,
        first_output: first_output.map_err(|e| e.to_string()),
        zoo_build_ms,
        init_weights_ms,
        deploy_ms,
        first_query_ms,
    })
}

/// Whether two tensors have the same shape and the same bits.
pub fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The correctness gate of one query: it must have succeeded and equal the
/// unpartitioned forward pass bit for bit.
pub fn check_output(
    report: &mut Report,
    output: &Result<Tensor, String>,
    reference: &Tensor,
    what: &str,
) {
    match output {
        Ok(out) => report.check(bit_identical(out, reference), || {
            format!("{what}: output differs from Executor::forward")
        }),
        Err(e) => report.check(false, || format!("{what}: {e}")),
    }
}

/// Times `Deployment::infer` in a closed loop for `seconds` (at least
/// `min_queries`), checking every output; returns the per-query ms.
fn timed_queries(
    set: &SetUp,
    references: &[Tensor],
    seconds: f64,
    min_queries: usize,
    first_op: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let began = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_queries || began.elapsed().as_secs_f64() < seconds {
        let i = ms.len() % set.inputs.len();
        let (out, dt) = tracer.time("serving.infer", first_op + ms.len() as u64, || {
            set.deployment.infer(&set.weights, &set.inputs[i])
        });
        check_output(
            report,
            &out.map_err(|e| e.to_string()),
            &references[i],
            "Deployment::infer",
        );
        ms.push(dt);
    }
    ms
}

pub fn run(
    name: &str,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
    spins: &mut Vec<f64>,
) -> Result<(), String> {
    let build = builder(name);
    let (set, setup_s, setup_reps) = repeat_setup(cfg, || set_up(build, cfg.seed, tracer))?;
    report.note("setup_reps", setup_reps);
    report.note(
        "plan",
        set.deployment
            .plan()
            .groups()
            .iter()
            .map(|g| format!("{}..{}:{:?}", g.start, g.end, g.option))
            .collect::<Vec<_>>()
            .join(" "),
    );

    // The oracle is not part of set-up: it is the harness's cost, not the
    // system's.
    let executor = Executor::new(set.model.graph(), &set.weights);
    let mut references = Vec::new();
    let mut interp_ms = Vec::new();
    for input in &set.inputs {
        let (reference, ms) = tracer.time("model.interp_forward", 0, || {
            executor.forward(&set.model, input)
        });
        references.push(reference.map_err(|e| format!("reference forward: {e}"))?);
        interp_ms.push(ms);
    }
    check_output(report, &set.first_output, &references[0], "first query");
    spins.push(host::calibration_spin());

    let min_queries = match (cfg.quick, cfg.trace) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => 3,
    };
    if !cfg.trace {
        let ms = timed_queries(
            &set,
            &references,
            cfg.seconds,
            min_queries,
            1,
            report,
            tracer,
        );
        report.note("timed_queries", ms.len());
        report.set("infer_ms_p50", median(&ms));
        report.set("infer_ms_min", fastest(&ms));
        report.set("setup_s", setup_s);
        report.set("model_latency_ms", set.deployment.predicted().latency_ms);
        report.set("model_usd_per_kq", set.deployment.predicted().usd * 1e3);
        return Ok(());
    }

    // Traced run: a quarter of the queries, half of them without recording,
    // then the replays that attribute the query to layers.
    tracer.set_recording(false);
    let plain = timed_queries(
        &set,
        &references,
        cfg.seconds / 8.0,
        min_queries,
        1,
        report,
        tracer,
    );
    tracer.set_recording(true);
    let traced = timed_queries(
        &set,
        &references,
        cfg.seconds / 8.0,
        min_queries,
        1 + plain.len() as u64,
        report,
        tracer,
    );
    let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
    let infer_p50 = median(&all);
    report.note("timed_queries", all.len());
    report.set("infer_ms_p50", infer_p50);
    report.set("infer_ms_min", fastest(&all));
    report.set(
        "trace.overhead_pct",
        100.0 * (fastest(&traced) / fastest(&plain) - 1.0),
    );
    if let Some((p, v)) = highest_supported_percentile(&all) {
        report.set("serving.infer_ms_hi", v);
        report.note(
            "serving.infer_ms_hi",
            format!("p{p} of {} queries", all.len()),
        );
    }
    report.set("model.zoo_build_ms", set.zoo_build_ms);
    report.set("model.init_weights_s", set.init_weights_ms / 1e3);
    report.set("serving.deploy_ms", set.deploy_ms);
    report.set("serving.first_query_s", set.first_query_ms / 1e3);
    report.set("model.interp_forward_ms", fastest(&interp_ms));

    let run_raw_p50 = trace_execution(&set, &references, cfg, report, tracer)?;
    if let Some(raw) = run_raw_p50 {
        report.set("serving.facade_overhead_ms", infer_p50 - raw);
    }
    trace_kernels(&set, run_raw_p50.is_some(), cfg, report, tracer)?;
    trace_pool(report, tracer);
    Ok(())
}

/// Runs `f` up to `max_reps` times, stopping early once `budget_s` is spent,
/// and returns each repetition's ms.
fn repeat_within<T>(
    max_reps: usize,
    budget_s: f64,
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<f64>, String> {
    let began = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < max_reps && (ms.is_empty() || began.elapsed().as_secs_f64() < budget_s) {
        let (out, dt) = tracer.time(name, ms.len() as u64, &mut f);
        out?;
        ms.push(dt);
    }
    Ok(ms)
}

/// `gillis-core` execution and `gillis-model` compilation, below the facade:
/// the compiled plan without the warm-slot lock, the uncompiled executor on
/// the same plan, and the single-function plan through the same entry point.
/// Returns the compiled plan's median ms when the model compiles.
fn trace_execution(
    set: &SetUp,
    references: &[Tensor],
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Option<f64>, String> {
    let SetUp {
        model,
        weights,
        inputs,
        ..
    } = set;
    let plan = set.deployment.plan();
    let input = &inputs[0];
    let (reps, budget) = if cfg.quick { (2, 0.5) } else { (5, 2.0) };

    let analyses = plan.analyses(model).map_err(|e| e.to_string())?;
    let partition_flops: u64 = analyses.iter().map(|a| a.total_flops()).sum();
    report.set(
        "core.exec.halo_redundancy",
        partition_flops as f64 / model.total_flops() as f64,
    );

    // Uncompiled: the plan as planned, then unpartitioned, same entry point.
    let mut uncompiled_out = None;
    let uncompiled = repeat_within(4, budget, tracer, "core.execute_plan_tensors", || {
        uncompiled_out =
            Some(execute_plan_tensors(model, plan, weights, input).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    check_output(
        report,
        &uncompiled_out.ok_or_else(|| "no output".to_string()),
        &references[0],
        "execute_plan_tensors",
    );
    let single_plan = ExecutionPlan::single_function(model);
    let single = repeat_within(
        4,
        budget,
        tracer,
        "core.execute_plan_tensors.single",
        || {
            execute_plan_tensors(model, &single_plan, weights, input)
                .map(drop)
                .map_err(|e| e.to_string())
        },
    )?;
    report.set("core.exec.uncompiled_ms", fastest(&uncompiled));
    report.set("core.exec.single_plan_ms", fastest(&single));
    report.set(
        "core.exec.plan_vs_single_ratio",
        fastest(&uncompiled) / fastest(&single),
    );
    let (_, cold_allocs) =
        host::count_allocs(|| execute_plan_tensors(model, &single_plan, weights, input).map(drop));
    report.set("core.exec.cold_allocs_per_query", cold_allocs as f64);

    // Compiled: only single-input layer chains compile.
    let (compiled, compile_ms) = tracer.time("model.compile", 0, || {
        CompiledPlanExec::compile(model, plan, weights)
    });
    let Ok(mut exec) = compiled else {
        // The interpreter is the whole query here, so the pool's share is
        // read off the same entry point at one and two threads.
        let one = repeat_within(1, budget, tracer, "core.execute_plan_tensors.t1", || {
            execute_plan_tensors_with_threads(model, plan, weights, input, 1)
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        report.set(
            "pool.parallel_efficiency",
            fastest(&one) / (POOL_THREADS as f64 * fastest(&uncompiled)),
        );
        return Ok(None);
    };
    report.set("model.compile_ms", compile_ms);
    report.set("model.panel_mb", exec.panel_bytes() as f64 / 1e6);
    // A fresh executor's first run grows the scratch arenas and faults its
    // buffers in; the facade paid that in its first query.
    exec.run_raw(weights, input.data())
        .map_err(|e| e.to_string())?;
    let mut raw_ok = true;
    let raw = repeat_within(4 * reps, budget, tracer, "core.run_raw", || {
        let (out, _) = exec
            .run_raw(weights, input.data())
            .map_err(|e| e.to_string())?;
        raw_ok &= out
            .iter()
            .zip(references[0].data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        Ok(())
    })?;
    report.check(raw_ok, || {
        "run_raw: output differs from Executor::forward".into()
    });
    report.set("core.exec.run_raw_ms_p50", median(&raw));
    let warm_runs = 3;
    let (_, warm_allocs) = host::count_allocs(|| {
        for _ in 0..warm_runs {
            let _ = exec.run_raw(weights, input.data());
        }
    });
    report.set(
        "core.exec.warm_allocs_per_query",
        warm_allocs as f64 / f64::from(warm_runs),
    );
    let mut at_threads = |threads: usize, name: &'static str, tracer: &mut Tracer| {
        repeat_within(reps, budget / 2.0, tracer, name, || {
            exec.run_raw_with_threads(weights, input.data(), threads)
                .map(drop)
                .map_err(|e| e.to_string())
        })
    };
    let one = at_threads(1, "core.run_raw.t1", tracer)?;
    let two = at_threads(POOL_THREADS, "core.run_raw.t2", tracer)?;
    report.set(
        "pool.parallel_efficiency",
        fastest(&one) / (POOL_THREADS as f64 * fastest(&two)),
    );
    if model.name() == "mobilenet" {
        let n = 8;
        exec.reserve_batch(n);
        let batch: Vec<f32> = (0..n)
            .flat_map(|i| inputs[i % inputs.len()].data())
            .copied()
            .collect();
        let ms = repeat_within(reps, budget, tracer, "core.run_batch_raw", || {
            exec.run_batch_raw(weights, &batch, n)
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        report.set("core.exec.batch8_ms_per_query", fastest(&ms) / n as f64);
    }
    drop(exec);

    // The whole model as one compiled function against the interpreter.
    let mut single_exec = CompiledPlanExec::compile(model, &single_plan, weights)
        .map_err(|e| format!("compiling the single-function plan: {e}"))?;
    single_exec
        .run_raw(weights, input.data())
        .map_err(|e| e.to_string())?;
    let compiled_forward = repeat_within(reps, budget, tracer, "model.compiled_forward", || {
        single_exec
            .run_raw(weights, input.data())
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    report.set("model.compiled_forward_ms", fastest(&compiled_forward));
    let interp = report
        .get("model.interp_forward_ms")
        .expect("set before the replays");
    report.set(
        "model.compiled_vs_interp_ratio",
        fastest(&compiled_forward) / interp,
    );
    Ok(Some(median(&raw)))
}

/// Which `gillis-tensor` kernel dominates a merged layer; fused batch norm
/// and ReLU ride with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Conv,
    Depthwise,
    Dense,
    Lstm,
    Pool,
}

fn kernel_of(model: &LinearModel, layer: &MergedLayer) -> Kernel {
    let has = |pred: fn(&LayerOp) -> bool| {
        layer
            .nodes
            .iter()
            .any(|&id| model.graph().node(id).is_ok_and(|n| pred(&n.op)))
    };
    // The performance model files a depthwise layer under pooling (it is
    // channel-local); its kernel is its own.
    if has(|op| matches!(op, LayerOp::DepthwiseConv2d { .. }))
        && !has(|op| matches!(op, LayerOp::Conv2d { .. }))
    {
        return Kernel::Depthwise;
    }
    match eff_class_of_layer(layer) {
        EffClass::Conv => Kernel::Conv,
        EffClass::Dense => Kernel::Dense,
        EffClass::Recurrent => Kernel::Lstm,
        EffClass::Pool | EffClass::ElementWise => Kernel::Pool,
    }
}

/// `gillis-tensor`: every merged layer replayed alone on its real shapes and
/// weights, summed by kernel, against this machine's roofs and against what
/// the analytic model predicts for Lambda.
fn trace_kernels(
    set: &SetUp,
    compiled: bool,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let SetUp { model, weights, .. } = set;
    let executor = Executor::new(model.graph(), weights);
    let perf = PerfModel::analytic(&PlatformProfile::aws_lambda());
    let reps = if cfg.quick { 1 } else { 3 };
    // [ms, flops, weight bytes, predicted ms] per kernel.
    let mut sums = [[0.0_f64; 4]; 5];
    let mut x = set.inputs[0].clone();
    tracer.enter("tensor.replay", 0);
    for (i, layer) in model.layers().iter().enumerate() {
        let one = std::slice::from_ref(layer);
        let next = executor
            .run_segment(one, &x)
            .map_err(|e| format!("replaying {}: {e}", layer.name))?;
        let ms = if compiled {
            let mut segment = CompiledSegment::compile(
                model.graph(),
                weights,
                one,
                &PieceSpec::Full,
                &mut PanelCache::new(),
            )
            .map_err(|e| format!("compiling {}: {e}", layer.name))?;
            repeat_within(reps + 1, 1.0, tracer, "tensor.layer", || {
                segment
                    .run(weights, x.data())
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?
        } else {
            repeat_within(reps, 1.0, tracer, "tensor.layer", || {
                executor
                    .run_segment(one, &x)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?
        };
        let predicted: f64 = flops_by_class(model, layer)
            .into_iter()
            .map(|(class, flops)| perf.predict_compute_ms(flops, class))
            .sum();
        let sum = &mut sums[kernel_of(model, layer) as usize];
        sum[0] += fastest(&ms);
        sum[1] += layer.flops as f64;
        sum[2] += layer.weight_bytes as f64;
        sum[3] += predicted;
        report.note(
            &format!("layer{i:02}"),
            format!(
                "{} {:?} {:.3} ms",
                layer.name,
                kernel_of(model, layer),
                fastest(&ms)
            ),
        );
        x = next;
    }
    tracer.exit();
    let of = |k: Kernel| sums[k as usize];
    let [conv_ms, conv_flops, _, conv_pred] = of(Kernel::Conv);
    let [dw_ms, _, _, dw_pred] = of(Kernel::Depthwise);
    let [dense_ms, _, dense_bytes, dense_pred] = of(Kernel::Dense);
    let [lstm_ms, _, lstm_bytes, lstm_pred] = of(Kernel::Lstm);
    let [pool_ms, ..] = of(Kernel::Pool);
    report.set("tensor.conv_ms", conv_ms);
    report.set("tensor.depthwise_ms", dw_ms);
    report.set("tensor.dense_ms", dense_ms);
    report.set("tensor.lstm_ms", lstm_ms);
    report.set("tensor.pool_ms", pool_ms);
    report.set(
        "tensor.kernel_sum_ms",
        conv_ms + dw_ms + dense_ms + lstm_ms + pool_ms,
    );
    let fma_peak = report.get("host.fma_peak_gflops").expect("measured first");
    let stream = report.get("host.stream_gbps").expect("measured first");
    if conv_ms > 0.0 {
        let gflops = conv_flops / conv_ms / 1e6;
        report.set("tensor.conv_gflops", gflops);
        report.set(
            "tensor.conv_roofline_frac",
            gflops / (fma_peak * POOL_THREADS as f64),
        );
    }
    if conv_ms + dw_ms > 0.0 {
        report.set(
            "perf.real_ratio_conv",
            (conv_ms + dw_ms) / (conv_pred + dw_pred),
        );
    }
    if dense_ms > 0.0 {
        // A dense layer reads each weight once per query.
        let gbps = dense_bytes / dense_ms / 1e6;
        report.set("tensor.dense_gbps", gbps);
        report.set("tensor.dense_roofline_frac", gbps / stream);
        report.set("perf.real_ratio_dense", dense_ms / dense_pred);
    }
    if lstm_ms > 0.0 {
        // An LSTM layer re-reads its weights at every step of the sequence.
        report.set(
            "tensor.lstm_gbps",
            lstm_bytes * zoo::RNN_SEQ_LEN as f64 / lstm_ms / 1e6,
        );
        report.set("perf.real_ratio_recurrent", lstm_ms / lstm_pred);
    }
    Ok(())
}

/// `gillis-pool`: what one fork-join of eight empty tasks costs.
fn trace_pool(report: &mut Report, tracer: &mut Tracer) {
    let pool = gillis_pool::Pool::global();
    let rounds = 2_000;
    let (_, ms) = tracer.time("pool.join_all", 0, || {
        for _ in 0..rounds {
            let tasks: Vec<gillis_pool::Task<'_>> = (0..8)
                .map(|_| Box::new(|| {}) as gillis_pool::Task<'_>)
                .collect();
            pool.join_all(tasks);
        }
    });
    report.set("pool.join_empty_us", ms * 1e3 / f64::from(rounds));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::manifest::Manifest;

    #[test]
    fn the_gate_fires_on_one_flipped_bit_and_on_an_error() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 5).unwrap();
        let input = query_tensors(model.input_shape(), 9, 1).remove(0);
        let reference = Executor::new(model.graph(), &weights)
            .forward(&model, &input)
            .unwrap();
        let deployment = Gillis::new(model.clone()).deploy().unwrap();
        let clean = deployment
            .infer(&weights, &input)
            .map_err(|e| e.to_string());
        let mut report = Report::new(Manifest::embedded(), "infer_vgg11", 1, true, true);
        check_output(&mut report, &clean, &reference, "clean");
        assert!(report.correct());

        let mut corrupted = clean.unwrap();
        let value = &mut corrupted.data_mut()[0];
        *value = f32::from_bits(value.to_bits() ^ 1);
        check_output(&mut report, &Ok(corrupted), &reference, "corrupted");
        check_output(&mut report, &Err("boom".into()), &reference, "errored");
        assert_eq!((report.attempted, report.failed), (3, 2));
        assert!(!report.correct());
        assert_eq!(
            report.result_line().get("correct"),
            Some(&Json::Bool(false))
        );
        assert!(report.failures[0].contains("corrupted"));
        assert!(report.failures[1].contains("boom"));
    }

    #[test]
    fn depthwise_layers_are_told_from_pooling() {
        let model = zoo::mobilenet();
        let kernels: Vec<Kernel> = model
            .layers()
            .iter()
            .map(|l| kernel_of(&model, l))
            .collect();
        assert_eq!(kernels[0], Kernel::Conv);
        assert_eq!(kernels[1], Kernel::Depthwise);
        assert_eq!(kernels[2], Kernel::Conv);
        assert_eq!(
            kernels.iter().filter(|k| **k == Kernel::Depthwise).count(),
            7
        );
    }
}
