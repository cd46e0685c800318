//! The serving simulator's reports, pinned: `tests/golden/serving_reports.txt`
//! holds one line per cell of {tiny-vgg forced multi-group plan, VGG-11 DP
//! plan} × every serving entry point × {calm, storm, guarded} × {0.5×, 2×
//! saturation} × seeds {7, 23}, generated by the one scheduler over one
//! `Session`: every driver an arrival source, every execution on its own
//! stream, and fleet-free simulation on the session's attempt loop. The
//! `Pipelined` and `RunQueryAt` cells are older than that scheduler and did
//! not move when it replaced the eager drivers' shared arrival-order stream.
//! Each line carries every counter struct, the bill to the bit, and a fold
//! over every recorded latency — so "byte-identical" is a test, not a claim.
//! Whatever `GILLIS_THREADS` is, the simulator must reproduce the file to the
//! byte.
//!
//! Regenerate (only when a change *means* to move a number, and say which
//! cells moved in CHANGES.md):
//! `cargo test --test golden_serving -- --ignored regenerate`.

use std::fmt::Write as _;

use gillis::core::{
    plan_batch_schedule, predict_plan, replication_seed, BatchPolicy, BreakerPolicy,
    BrownoutPolicy, ChaosConfig, DpPartitioner, ExecutionPlan, ForkJoinRuntime, OutageConfig,
    OverloadPolicy, PartDim, PartitionOption, PipelinePolicy, Placement, PlannedGroup,
    RecoveryPolicy, ResilienceCounters, ResiliencePolicy, RetryBudgetPolicy, ServingReport,
    SloClass,
};
use gillis::faas::billing::BillingMeter;
use gillis::faas::fleet::Fleet;
use gillis::faas::metrics::LatencyStats;
use gillis::faas::workload::ClosedLoop;
use gillis::faas::{Micros, PlatformProfile};
use gillis::model::{zoo, LinearModel};
use gillis::perf::{PerfModel, TransferFormat};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN_PATH: &str = "tests/golden/serving_reports.txt";
const LANES: usize = 4;
const FACTORS: [f64; 2] = [0.5, 2.0];
const SEEDS: [u64; 2] = [7, 23];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// No chaos, no policy beyond the driver's own.
    Calm,
    /// Chaos with orchestrator crashes and outage episodes against naive
    /// immediate retry: no guard, no recovery — crashes restart from stage 0.
    Storm,
    /// The same faults against the whole stack: overload with breakers,
    /// retry budget, brownout ladder, checkpointed recovery.
    Guarded,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Driver {
    ClosedLoop,
    OpenLoop,
    OpenLoopOverload,
    BatchedTwoClass,
    BatchedOne,
    Pipelined,
    SimulateMany,
    RunQueryAt,
}

const DRIVERS: [Driver; 8] = [
    Driver::ClosedLoop,
    Driver::OpenLoop,
    Driver::OpenLoopOverload,
    Driver::BatchedTwoClass,
    Driver::BatchedOne,
    Driver::Pipelined,
    Driver::SimulateMany,
    Driver::RunQueryAt,
];

/// Aggressive hand-built plan for `tiny_vgg` (the DP keeps a model this
/// small unsplit): convs split 4-way by rows, channel-splittable layers
/// 2-way, one group per layer — many stage boundaries, many worker lanes.
fn forced_split_plan(tiny: &LinearModel) -> ExecutionPlan {
    let groups = tiny
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let option = if layer.class.supports_spatial() && layer.out_shape.dims()[1] >= 4 {
                PartitionOption::Split {
                    dim: PartDim::Height,
                    parts: 4,
                }
            } else if layer.class.channel_splittable() && layer.out_shape.dims()[0] >= 2 {
                PartitionOption::Split {
                    dim: PartDim::Channel,
                    parts: 2,
                }
            } else {
                PartitionOption::Single
            };
            PlannedGroup {
                start: i,
                end: i + 1,
                option,
                placement: if option == PartitionOption::Single {
                    Placement::Master
                } else {
                    Placement::Workers
                },
            }
        })
        .collect();
    ExecutionPlan::new(groups)
}

struct Subject {
    name: &'static str,
    model: LinearModel,
    plan: ExecutionPlan,
    platform: PlatformProfile,
    predicted_ms: f64,
    queries: usize,
}

impl Subject {
    fn new(name: &'static str, model: LinearModel, queries: usize) -> Self {
        let platform = PlatformProfile::aws_lambda();
        let perf = PerfModel::analytic(&platform);
        let plan = if name == "tiny-vgg" {
            forced_split_plan(&model)
        } else {
            DpPartitioner::default().partition(&model, &perf).unwrap()
        };
        assert!(plan.groups().len() >= 2, "{name}: need stage boundaries");
        let predicted_ms = predict_plan(&model, &plan, &perf).unwrap().latency_ms;
        Subject {
            name,
            model,
            plan,
            platform,
            predicted_ms,
            queries,
        }
    }

    fn saturation_qps(&self) -> f64 {
        1000.0 * LANES as f64 / self.predicted_ms
    }

    fn front_door(&self, breaker: BreakerPolicy) -> OverloadPolicy {
        OverloadPolicy {
            breaker,
            ..OverloadPolicy::for_slo(3.0 * self.predicted_ms, LANES)
        }
    }

    /// The runtime of one cell; `door` installs the admission front door
    /// (with lane breakers in the guarded arm).
    fn runtime(
        &self,
        platform: PlatformProfile,
        arm: Arm,
        seed: u64,
        door: bool,
    ) -> ForkJoinRuntime<'_> {
        let mut rt = ForkJoinRuntime::new(&self.model, &self.plan, platform).unwrap();
        if door {
            let breaker = if arm == Arm::Guarded {
                BreakerPolicy::standard()
            } else {
                BreakerPolicy::disabled()
            };
            rt = rt
                .with_overload_predicted(self.front_door(breaker), self.predicted_ms)
                .unwrap();
        }
        if arm != Arm::Calm {
            let chaos = ChaosConfig {
                seed: replication_seed(seed, 1),
                invoke_failure_rate: 0.12,
                crash_rate: 0.03,
                straggler_rate: 0.06,
                straggler_slowdown: 12.0,
                corrupt_rate: 0.02,
                orchestrator_crash_rate: 0.08,
            };
            let outage = OutageConfig {
                min_windows: 2,
                max_windows: 5,
                orchestrators: true,
                ..OutageConfig::severe(3.0, replication_seed(seed, 2))
            };
            rt = rt.with_chaos(chaos).unwrap().with_outage(outage).unwrap();
        }
        match arm {
            Arm::Calm => rt,
            Arm::Storm => rt.with_policy(ResiliencePolicy::naive_retry()),
            Arm::Guarded => {
                // Seed 23 turns local fallback off, so exhausted lanes fail
                // their group, and with it the query.
                let policy = ResiliencePolicy {
                    local_fallback: seed != 23,
                    ..ResiliencePolicy::backoff_hedged()
                };
                rt.with_policy(policy)
                    .with_retry_budget(RetryBudgetPolicy {
                        max_tokens: 12.0,
                        initial_tokens: 12.0,
                        refill_per_success: 0.1,
                    })
                    .unwrap()
                    .with_brownout(BrownoutPolicy {
                        window_lanes: 16,
                        degrade_below: 0.6,
                        recover_above: 0.75,
                        clean_windows: 1,
                        probe_interval: 4,
                        shed_probe_interval: Some(4),
                    })
                    .unwrap()
                    .with_recovery(RecoveryPolicy::default())
                    .unwrap()
            }
        }
    }
}

fn fold(h: u64, bits: u64) -> u64 {
    replication_seed(h, bits)
}

fn fold_latency(stats: &LatencyStats) -> u64 {
    stats
        .samples()
        .iter()
        .fold(stats.count() as u64, |h, ms| fold(h, ms.to_bits()))
}

fn report_line(r: &ServingReport) -> String {
    format!(
        "billed_ms={} usd_bits={:016x} cold_starts={} latency={:016x} ok={:016x} degraded={:016x} \
         failed={:016x} deadline={:016x} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.billing.billed_ms_total(),
        r.billing.usd_total().to_bits(),
        r.cold_starts,
        fold_latency(&r.latency),
        fold_latency(&r.by_status.ok),
        fold_latency(&r.by_status.degraded),
        fold_latency(&r.by_status.failed),
        fold_latency(&r.by_status.deadline_exceeded),
        r.resilience,
        r.overload,
        r.batch,
        r.brownout,
        r.pipeline,
        r.recovery,
    )
}

fn run_cell(s: &Subject, driver: Driver, arm: Arm, factor: f64, seed: u64) -> String {
    let rate = factor * s.saturation_qps();
    let n = s.queries;
    let door = match driver {
        Driver::OpenLoop | Driver::SimulateMany | Driver::RunQueryAt => false,
        Driver::OpenLoopOverload => true,
        _ => arm == Arm::Guarded,
    };
    let plain = || s.runtime(s.platform.clone(), arm, seed, door);
    match driver {
        Driver::ClosedLoop => {
            let clients = (factor * LANES as f64) as usize;
            let workload = ClosedLoop::new(clients, n, Micros::from_ms(1.0)).unwrap();
            report_line(&plain().serve_workload(workload, seed).unwrap())
        }
        Driver::OpenLoop | Driver::OpenLoopOverload => {
            report_line(&plain().serve_open_loop(rate, n, LANES, seed).unwrap())
        }
        Driver::BatchedTwoClass | Driver::BatchedOne => {
            let policy = if driver == Driver::BatchedOne {
                BatchPolicy::batch_one()
            } else {
                BatchPolicy {
                    classes: vec![
                        SloClass {
                            deadline_ms: 3.0 * s.predicted_ms,
                            weight: 2.0,
                        },
                        SloClass {
                            deadline_ms: f64::INFINITY,
                            weight: 1.0,
                        },
                    ],
                    ..BatchPolicy::single(3.0 * s.predicted_ms, 4)
                }
            };
            let schedule = plan_batch_schedule(
                &s.model,
                &s.plan,
                &s.platform,
                TransferFormat::F32,
                &policy,
                rate,
            )
            .unwrap();
            let platform = s.platform.with_memory_bytes(schedule.memory_bytes);
            let report = s
                .runtime(platform, arm, seed, door)
                .serve_open_loop_batched(&policy, &schedule, rate, n, LANES, seed)
                .unwrap();
            report_line(&report)
        }
        Driver::Pipelined => {
            // Two lanes and one queue slot per stage: above saturation the
            // stages park on each other.
            let policy = PipelinePolicy {
                lanes: 2,
                queue_depth: 1,
            };
            let report = plain()
                .serve_open_loop_pipelined(&policy, rate, n, LANES, seed)
                .unwrap();
            report_line(&report)
        }
        Driver::SimulateMany => {
            let rt = plain();
            let one = rt.simulate_many_with_threads(n, seed, 1);
            let eight = rt.simulate_many_with_threads(n, seed, 8);
            assert_eq!(one.resilience, eight.resilience);
            assert_eq!(fold_latency(&one.latency), fold_latency(&eight.latency));
            format!(
                "latency={:016x} {:?}",
                fold_latency(&one.latency),
                one.resilience
            )
        }
        Driver::RunQueryAt => {
            // A caller-owned fleet, bill, stream and counters, one instance
            // warm per function: above saturation the rest cold-start.
            let rt = plain();
            let mut fleet = Fleet::new(s.platform.clone());
            rt.deploy(&mut fleet).unwrap();
            rt.prewarm(&mut fleet, 1).unwrap();
            let mut billing = BillingMeter::new(
                s.platform.billing_granularity_ms,
                s.platform.price_per_gb_s,
                s.platform.price_per_invocation,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counters = ResilienceCounters::default();
            let gap = Micros::from_ms(1000.0 / rate);
            let mut start = Micros::ZERO;
            let mut done_fold = 0u64;
            for q in 0..n as u64 {
                start += gap;
                let done = rt
                    .run_query_at(&mut fleet, &mut billing, start, &mut rng, q, &mut counters)
                    .unwrap();
                done_fold = fold(done_fold, (done - start).as_ms().to_bits());
            }
            format!(
                "billed_ms={} usd_bits={:016x} latency={:016x} {:?}",
                billing.billed_ms_total(),
                billing.usd_total().to_bits(),
                done_fold,
                counters
            )
        }
    }
}

fn render() -> String {
    let subjects = [
        Subject::new("tiny-vgg", zoo::tiny_vgg(), 240),
        Subject::new("vgg11", zoo::vgg11(), 160),
    ];
    let mut out = String::new();
    for s in &subjects {
        for driver in DRIVERS {
            for arm in [Arm::Calm, Arm::Storm, Arm::Guarded] {
                for factor in FACTORS {
                    for seed in SEEDS {
                        let line = run_cell(s, driver, arm, factor, seed);
                        writeln!(
                            out,
                            "{} {driver:?} {arm:?} x{factor} seed={seed} {line}",
                            s.name
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_serving_report_matches_the_golden_file() {
    let golden = include_str!("golden/serving_reports.txt");
    let actual = render();
    let mut checked = 0;
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "cell {checked}");
        checked += 1;
    }
    assert_eq!(golden.lines().count(), actual.lines().count());
    assert_eq!(checked, 2 * DRIVERS.len() * 3 * FACTORS.len() * SEEDS.len());
}

#[test]
#[ignore = "rewrites tests/golden/serving_reports.txt from the code under test"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, render()).unwrap();
}
