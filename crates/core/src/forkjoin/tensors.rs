//! The plan run with real tensor math — proof that partitioning is
//! semantics-preserving — under the same fault model as the simulator.

use gillis_faas::chaos::{
    wire_checksum, Fault, FaultInjector, FaultSite, QueryStatus, ResilienceCounters,
    ResiliencePolicy,
};
use gillis_model::exec::Executor;
use gillis_model::weights::ModelWeights;
use gillis_model::LinearModel;
use gillis_tensor::Tensor;

use crate::error::CoreError;
use crate::partition::{split_ranges, PartDim, PartitionOption};
use crate::plan::ExecutionPlan;
use crate::Result;

/// Marker payload of a fault-injected worker crash in the tensor path; a
/// panic with any other payload is a genuine executor bug.
struct InjectedCrash;

/// How one injected-fault piece execution failed (real model errors abort
/// the query instead of retrying — they are deterministic).
enum PieceFault {
    Injected(&'static str),
    Exec(gillis_model::ModelError),
}

/// Executes a plan with real tensor math: for each group, slices the input
/// according to the partition option (halo rows for spatial splits, whole
/// input for weight splits), runs every partition through the reference
/// executor, and stitches the outputs back together. The result must equal
/// the unpartitioned forward pass — Gillis's no-accuracy-loss property.
///
/// Partitions within a [`PartitionOption::Split`] group are independent (they
/// read the shared group input and each produces a disjoint output slice), so
/// they run concurrently on the shared [`gillis_pool::Pool`]; pieces are
/// collected and concatenated in range order, making the output bit-identical
/// to the sequential path.
///
/// Faults can be injected from the environment (`GILLIS_CHAOS_RATE` /
/// `GILLIS_CHAOS_SEED`, see [`gillis_faas::chaos::ChaosConfig::from_env`]);
/// the default [`ResiliencePolicy`] retries and locally recomputes exhausted
/// shards, so the output stays exactly correct under injected faults.
///
/// # Errors
///
/// Propagates executor errors; returns [`crate::CoreError::InvalidPlan`] if the
/// plan does not validate against the model.
pub fn execute_plan_tensors(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
) -> Result<Tensor> {
    execute_plan_tensors_with_threads(model, plan, weights, input, gillis_pool::gillis_threads())
}

/// [`execute_plan_tensors`] with an explicit thread count (`threads <= 1`
/// runs every partition inline on the caller).
///
/// # Errors
///
/// Propagates executor errors; returns [`crate::CoreError::InvalidPlan`] if the
/// plan does not validate against the model.
pub fn execute_plan_tensors_with_threads(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
    threads: usize,
) -> Result<Tensor> {
    let (out, _) = execute_plan_tensors_resilient(
        model,
        plan,
        weights,
        input,
        gillis_faas::chaos::env_injector(),
        &ResiliencePolicy::default(),
        threads,
    )?;
    Ok(out)
}

/// [`execute_plan_tensors`] with explicit fault injection and resilience:
/// each piece execution of each group consults `injector` (keyed by
/// [`FaultSite`] with query index 0) — an injected crash panics the worker
/// closure and is captured at the join ([`gillis_pool::Pool::try_run`]), an
/// injected invocation failure or transfer corruption fails the piece
/// without a result, and a straggler is a timing-only fault with no effect
/// on real execution. Failed pieces are retried up to
/// `policy.max_attempts`; pieces that exhaust the budget are recomputed
/// inline by the master when `policy.local_fallback` is set (counted as
/// degraded shards) or abort with [`CoreError::WorkerFailed`] otherwise.
///
/// The returned counters account one query. The output tensor is
/// bit-identical to the fault-free run whenever a result is returned — the
/// process never panics on injected crashes, at any thread count.
///
/// # Errors
///
/// Propagates executor errors; [`CoreError::WorkerFailed`] on budget
/// exhaustion without fallback; [`CoreError::WorkerPanic`] if a worker
/// panic was not an injected fault.
pub fn execute_plan_tensors_resilient(
    model: &LinearModel,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    input: &Tensor,
    injector: Option<&FaultInjector>,
    policy: &ResiliencePolicy,
    threads: usize,
) -> Result<(Tensor, ResilienceCounters)> {
    plan.validate(model, u64::MAX)?;
    let exec = Executor::new(model.graph(), weights);
    let mut counters = ResilienceCounters::default();
    let max_attempts = policy.max_attempts.max(1);
    // A width-1 pool runs batches inline on the caller while still capturing
    // per-piece panics, so fault semantics do not depend on the thread count.
    let inline_pool;
    let pool: &gillis_pool::Pool = if threads <= 1 {
        inline_pool = gillis_pool::Pool::new(1);
        &inline_pool
    } else {
        gillis_pool::Pool::global()
    };
    let mut cur = input.clone();
    for (gi, g) in plan.groups().iter().enumerate() {
        let layers = &model.layers()[g.start..g.end];
        cur = match g.option {
            PartitionOption::Single => exec.run_segment(layers, &cur)?,
            PartitionOption::Split { dim, parts } => {
                let (axis, ranges) = split_ranges(layers, dim, parts);
                let run_piece = |r: std::ops::Range<usize>| match dim {
                    PartDim::Height => exec.run_segment_rows(layers, &cur, r),
                    PartDim::Width => exec.run_segment_cols(layers, &cur, r),
                    PartDim::Channel => exec.run_segment_channels(layers, &cur, r),
                };
                let mut pieces: Vec<Option<Tensor>> = (0..ranges.len()).map(|_| None).collect();
                let mut last_fault: Vec<&'static str> = vec!["no fault"; ranges.len()];
                let mut pending: Vec<usize> = (0..ranges.len()).collect();
                let mut attempt = 0u32;
                while !pending.is_empty() && attempt < max_attempts {
                    let worker = |k: usize| -> std::result::Result<(Tensor, u64), PieceFault> {
                        let j = pending[k];
                        let piece = ranges[j].clone();
                        let site = FaultSite {
                            query: 0,
                            group: gi as u32,
                            part: j as u32,
                            attempt,
                            lane: 0,
                        };
                        match injector.and_then(|inj| inj.fault(site)) {
                            Some(Fault::InvokeFailure) => {
                                return Err(PieceFault::Injected("invocation failure"))
                            }
                            Some(Fault::Crash { .. }) => {
                                std::panic::panic_any(InjectedCrash);
                            }
                            Some(Fault::Corrupt) => {
                                // The worker computes correctly and stamps
                                // the honest checksum, but the payload is
                                // corrupted in transfer: one element's sign
                                // bit flips (index drawn from the checksum,
                                // so the flip is deterministic). The join's
                                // verification rejects the piece.
                                let mut t = run_piece(piece).map_err(PieceFault::Exec)?;
                                let sum = wire_checksum(t.data());
                                let data = t.data_mut();
                                if data.is_empty() {
                                    return Err(PieceFault::Injected("corrupted response"));
                                }
                                let idx = (sum as usize) % data.len();
                                data[idx] = f32::from_bits(data[idx].to_bits() ^ 0x8000_0000);
                                return Ok((t, sum));
                            }
                            // Stragglers only affect timing, which the real
                            // path does not model.
                            Some(Fault::Straggler { .. }) | None => {}
                        }
                        run_piece(piece)
                            .map(|t| {
                                let sum = wire_checksum(t.data());
                                (t, sum)
                            })
                            .map_err(PieceFault::Exec)
                    };
                    let results = pool.try_run(pending.len(), worker);
                    let mut still: Vec<usize> = Vec::new();
                    for (k, res) in results.into_iter().enumerate() {
                        let j = pending[k];
                        match res {
                            // Every accepted payload must re-verify against
                            // the checksum stamped at the worker: transfer
                            // corruption is *detected*, never silently
                            // concatenated into the output.
                            Ok(Ok((t, sum))) => {
                                if wire_checksum(t.data()) == sum {
                                    pieces[j] = Some(t);
                                } else {
                                    counters.corruptions_detected += 1;
                                    last_fault[j] = "corrupted response (checksum mismatch)";
                                    still.push(j);
                                }
                            }
                            // Deterministic model errors are not retryable.
                            Ok(Err(PieceFault::Exec(e))) => return Err(e.into()),
                            Ok(Err(PieceFault::Injected(reason))) => {
                                last_fault[j] = reason;
                                still.push(j);
                            }
                            Err(payload) => {
                                if payload.downcast_ref::<InjectedCrash>().is_some() {
                                    last_fault[j] = "worker crash";
                                    still.push(j);
                                } else {
                                    let message = payload
                                        .downcast_ref::<&str>()
                                        .map(|s| (*s).to_string())
                                        .or_else(|| payload.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".into());
                                    return Err(CoreError::WorkerPanic {
                                        group: gi,
                                        part: j,
                                        message,
                                    });
                                }
                            }
                        }
                    }
                    attempt += 1;
                    if !still.is_empty() && attempt < max_attempts {
                        counters.retries += still.len() as u64;
                    }
                    pending = still;
                }
                for &j in &pending {
                    if !policy.local_fallback {
                        return Err(CoreError::WorkerFailed {
                            group: gi,
                            part: j,
                            attempts: max_attempts,
                            reason: format!("retry budget exhausted (last: {})", last_fault[j]),
                        });
                    }
                    // Graceful degradation: the master recomputes the shard
                    // itself, with no fault injection — the master is
                    // reliable by assumption.
                    counters.degraded_shards += 1;
                    pieces[j] = Some(run_piece(ranges[j].clone())?);
                }
                let pieces: Vec<Tensor> = pieces
                    .into_iter()
                    .map(|p| p.expect("every piece resolved or degraded"))
                    .collect();
                Tensor::concat(&pieces, axis).map_err(gillis_model::ModelError::from)?
            }
        };
    }
    counters.record_status(if counters.degraded_shards > 0 {
        QueryStatus::Degraded
    } else {
        QueryStatus::Ok
    });
    Ok((cur, counters))
}

#[cfg(test)]
mod tests {
    use gillis_faas::chaos::ChaosConfig;
    use gillis_faas::PlatformProfile;
    use gillis_model::weights::init_weights;
    use gillis_model::zoo;
    use gillis_perf::PerfModel;

    use super::super::fixtures::{forced_split_plan, stress_chaos};
    use super::*;
    use crate::dp::{DpPartitioner, PartitionerConfig};

    #[test]
    fn plan_execution_preserves_semantics() {
        // The headline property: a partitioned plan computes exactly the
        // same logits as the unpartitioned model.
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 77).unwrap();
        let exec = Executor::new(tiny.graph(), &weights);
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 17) as f32 - 8.0) / 8.0
        });
        let full = exec.forward(&tiny, &input).unwrap();

        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let config = PartitionerConfig {
            degrees: vec![2, 4],
            ..PartitionerConfig::default()
        };
        let plan = DpPartitioner::new(config).partition(&tiny, &perf).unwrap();
        let out = execute_plan_tensors(&tiny, &plan, &weights, &input).unwrap();
        assert!(full.max_abs_diff(&out).unwrap() < 1e-4);
    }

    #[test]
    fn forced_parallel_plan_execution_preserves_semantics() {
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 78).unwrap();
        let exec = Executor::new(tiny.graph(), &weights);
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| (i as f32 * 0.37).sin());
        let full = exec.forward(&tiny, &input).unwrap();

        let plan = forced_split_plan(&tiny);
        let out = execute_plan_tensors(&tiny, &plan, &weights, &input).unwrap();
        assert!(full.max_abs_diff(&out).unwrap() < 1e-4);
    }

    #[test]
    fn crash_recovery_returns_exact_tensor() {
        // Acceptance criterion: under injected worker crashes (panics
        // captured at the join), retries/local fallback still produce the
        // exact fault-free output, and the process never panics.
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 91).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
            ((i % 13) as f32 - 6.0) / 6.0
        });
        let plan = forced_split_plan(&tiny);
        let clean = execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap();

        let injector = ChaosConfig {
            seed: 1234,
            invoke_failure_rate: 0.15,
            crash_rate: 0.25,
            corrupt_rate: 0.1,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let mut any_faults = false;
        for threads in [1usize, 4] {
            let (out, counters) = execute_plan_tensors_resilient(
                &tiny,
                &plan,
                &weights,
                &input,
                Some(&injector),
                &ResiliencePolicy::default(),
                threads,
            )
            .unwrap();
            assert_eq!(clean.data().len(), out.data().len());
            for (a, b) in clean.data().iter().zip(out.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            any_faults |= counters.retries > 0 || counters.degraded_shards > 0;
        }
        assert!(any_faults, "chaos config injected no faults at all");
    }

    #[test]
    fn exhausted_tensor_budget_degrades_or_fails() {
        let tiny = zoo::tiny_vgg();
        let weights = init_weights(tiny.graph(), 92).unwrap();
        let input = Tensor::from_fn(tiny.input_shape().clone(), |i| (i as f32 * 0.11).cos());
        let plan = forced_split_plan(&tiny);
        let clean = execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap();

        // Every invocation fails: all split pieces exhaust their budget.
        let always_fail = ChaosConfig::invoke_only(1.0, 5).build().unwrap();
        let (out, counters) = execute_plan_tensors_resilient(
            &tiny,
            &plan,
            &weights,
            &input,
            Some(&always_fail),
            &ResiliencePolicy::default(),
            2,
        )
        .unwrap();
        assert_eq!(clean.max_abs_diff(&out).unwrap(), 0.0);
        assert!(counters.degraded_shards > 0);
        assert_eq!(counters.degraded_queries, 1);

        // Without fallback, exhaustion is an honest error, not a panic.
        let err = execute_plan_tensors_resilient(
            &tiny,
            &plan,
            &weights,
            &input,
            Some(&always_fail),
            &ResiliencePolicy {
                local_fallback: false,
                ..ResiliencePolicy::default()
            },
            2,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::WorkerFailed { .. }), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Tentpole determinism contract: the pooled tensor path produces
        /// *bit-identical* floats to the sequential path for any thread
        /// count, because partitions own disjoint output slices and are
        /// concatenated in range order.
        #[test]
        fn plan_execution_is_bit_identical_across_thread_counts(
            (weight_seed, input_scale) in (0u64..1000, 1usize..5),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % (7 * input_scale)) as f32 - 3.0) / (4.0 * input_scale as f32)
            });
            let platform = PlatformProfile::aws_lambda();
            let perf = PerfModel::analytic(&platform);
            let config = PartitionerConfig {
                degrees: vec![2, 4],
                ..PartitionerConfig::default()
            };
            let plan = DpPartitioner::new(config).partition(&tiny, &perf).unwrap();
            let seq = execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, 1).unwrap();
            for threads in [2usize, 8] {
                let par =
                    execute_plan_tensors_with_threads(&tiny, &plan, &weights, &input, threads)
                        .unwrap();
                proptest::prop_assert_eq!(seq.data().len(), par.data().len());
                for (a, b) in seq.data().iter().zip(par.data()) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Fault handling is deterministic at any thread count: every fault
        /// decision is a pure function of its site and the master tallies
        /// the outcomes in piece order, so under the same chaos the query
        /// ends with the same output bits
        /// and the same counters — every retry, degraded shard and detected
        /// corruption — whether pieces run inline or on 8 pool threads.
        #[test]
        fn resilient_execution_is_bit_identical_across_thread_counts(
            (weight_seed, chaos_seed) in (0u64..500, 0u64..500),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % 13) as f32 - 6.0) / 7.0
            });
            let plan = forced_split_plan(&tiny);
            let injector = stress_chaos(chaos_seed).build().unwrap();
            let policy = ResiliencePolicy::default();
            let run = |threads: usize| {
                execute_plan_tensors_resilient(
                    &tiny, &plan, &weights, &input, Some(&injector), &policy, threads,
                )
                .unwrap()
            };
            let (st, sc) = run(1);
            for threads in [2usize, 8] {
                let (pt, pc) = run(threads);
                proptest::prop_assert_eq!(st.data().len(), pt.data().len());
                for (a, b) in st.data().iter().zip(pt.data()) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                proptest::prop_assert_eq!(&sc, &pc);
            }
        }

        /// Corruption is detected, never silent: under transfer corruption
        /// the tensor path's checksum verification rejects every corrupted
        /// payload, so any returned output is bit-identical to the
        /// fault-free run — and the detections are counted.
        #[test]
        fn corruption_never_reaches_an_ok_query(
            (weight_seed, chaos_seed) in (0u64..500, 0u64..500),
        ) {
            let tiny = zoo::tiny_vgg();
            let weights = init_weights(tiny.graph(), weight_seed).unwrap();
            let input = Tensor::from_fn(tiny.input_shape().clone(), |i| {
                ((i % 13) as f32 - 6.0) / 7.0
            });
            let plan = forced_split_plan(&tiny);
            let clean = execute_plan_tensors_resilient(
                &tiny, &plan, &weights, &input, None, &ResiliencePolicy::default(), 1,
            )
            .unwrap()
            .0;
            let injector = ChaosConfig {
                seed: chaos_seed,
                corrupt_rate: 0.3,
                ..ChaosConfig::default()
            }
            .build()
            .unwrap();
            for threads in [1usize, 4] {
                let (out, counters) = execute_plan_tensors_resilient(
                    &tiny, &plan, &weights, &input,
                    Some(&injector), &ResiliencePolicy::default(), threads,
                )
                .unwrap();
                for (a, b) in clean.data().iter().zip(out.data()) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                // At a 30% corrupt rate over dozens of pieces, at least one
                // corruption fires and every one is detected at the join.
                proptest::prop_assert!(counters.corruptions_detected > 0);
            }
        }
    }
}
