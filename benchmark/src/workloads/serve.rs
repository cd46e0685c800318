//! Serving-simulator workloads: VGG-11 on Lambda behind a four-lane front
//! door, driven in virtual time. Arrivals are precomputed by the drivers, so
//! the generator is never late and latency counts from the virtual arrival
//! instant; what the host spends is how fast the simulator runs.

use std::time::Instant;

use gillis::core::predict::{predict_plan, predict_plan_pipelined, PlanPrediction};
use gillis::core::{
    plan_batch_schedule, BatchPolicy, BatchSchedule, BrownoutPolicy, ChaosConfig, DpPartitioner,
    ExecutionPlan, FaultSite, ForkJoinRuntime, OutageConfig, OverloadPolicy, PipelinePolicy,
    PlanObjective, RecoveryPolicy, ResilienceCounters, ResiliencePolicy, RetryBudgetPolicy,
    ServingReport,
};
use gillis::faas::des::EventQueue;
use gillis::faas::fleet::{Fleet, FunctionSpec};
use gillis::faas::metrics::LatencyStats;
use gillis::faas::workload::ClosedLoop;
use gillis::faas::{Micros, PlatformProfile};
use gillis::model::{zoo, LinearModel};
use gillis::perf::{PerfModel, TransferFormat};
use rand::{SeedableRng, StdRng};

use super::{records_round, repeat_setup, trace_overhead_pct, RunConfig};
use crate::host;
use crate::inputs::derive;
use crate::report::Report;
use crate::stats::{fastest_per_slot, median};
use crate::trace::Tracer;

/// Orchestrator lanes of the front door (and of each pipeline stage).
const LANES: usize = 4;
/// The SLO is this many times the plan's predicted latency.
const SLO_FACTOR: f64 = 4.0;
/// Arrival rates of `serve_calm`, as multiples of fork-join saturation.
const RATE_FACTORS: [f64; 3] = [0.5, 1.0, 2.0];
/// Arrivals per cell; the pipelined driver, the slow one, gets half. Small
/// enough that a window holds some twenty passes: the host-time metrics rest
/// on each cell's fastest pass, and a short call is likelier to get through
/// undisturbed than a long one.
const ARRIVALS: usize = 8_000;
const CLOSED_LOOP_CLIENTS: usize = 100;
/// Largest batch `BatchPolicy::single` may form.
const MAX_BATCH: usize = 8;
/// Goodput ratio a rate must hold to count as meeting the SLO.
const SLO_GOODPUT: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    OpenLoop,
    Batched,
    Pipelined,
    ClosedLoop,
    SimulateMany,
}

impl Driver {
    fn label(self) -> &'static str {
        match self {
            Driver::OpenLoop => "open_loop",
            Driver::Batched => "batched",
            Driver::Pipelined => "pipelined",
            Driver::ClosedLoop => "closed_loop",
            Driver::SimulateMany => "simulate_many",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Driver::OpenLoop => "forkjoin.serve_open_loop",
            Driver::Batched => "forkjoin.serve_open_loop_batched",
            Driver::Pipelined => "forkjoin.serve_open_loop_pipelined",
            Driver::ClosedLoop => "forkjoin.serve_workload",
            Driver::SimulateMany => "forkjoin.simulate_many",
        }
    }

    /// Open-loop drivers face an arrival schedule; goodput, p99 and cost are
    /// pooled over their cells only.
    fn open(self) -> bool {
        matches!(self, Driver::OpenLoop | Driver::Batched | Driver::Pipelined)
    }
}

/// Which fault-handling stack a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// No faults injected.
    Calm,
    /// Chaos and outages against immediate retries.
    Naive,
    /// The same faults against backoff + hedging, a retry budget, the
    /// brownout ladder and checkpointed recovery.
    Guarded,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    driver: Driver,
    arm: Arm,
    /// Arrival rate over fork-join saturation (open-loop drivers).
    factor: f64,
    arrivals: usize,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{:?}/x{}", self.driver.label(), self.arm, self.factor)
    }
}

fn cells(workload: &str, quick: bool) -> Vec<Cell> {
    let n = if quick { ARRIVALS / 20 } else { ARRIVALS };
    let cell = |driver, arm, factor| Cell {
        driver,
        arm,
        factor,
        arrivals: if driver == Driver::Pipelined {
            n / 2
        } else {
            n
        },
    };
    if workload == "serve_calm" {
        let mut all = Vec::new();
        for factor in RATE_FACTORS {
            for driver in [Driver::OpenLoop, Driver::Batched, Driver::Pipelined] {
                all.push(cell(driver, Arm::Calm, factor));
            }
        }
        all.push(cell(Driver::ClosedLoop, Arm::Calm, 0.0));
        all.push(cell(Driver::SimulateMany, Arm::Calm, 0.0));
        all
    } else {
        let mut all = Vec::new();
        for arm in [Arm::Naive, Arm::Guarded] {
            for driver in [Driver::OpenLoop, Driver::Pipelined] {
                all.push(Cell {
                    arrivals: n,
                    ..cell(driver, arm, 0.5)
                });
            }
        }
        all
    }
}

/// Everything a cell needs that does not depend on the seed: the model, its
/// two plans, their predictions, the front door and the batch schedules.
struct Stage {
    model: LinearModel,
    platform: PlatformProfile,
    lo_plan: ExecutionPlan,
    pipeline_plan: ExecutionPlan,
    lo_prediction: PlanPrediction,
    pipeline_billed_ms: f64,
    saturation_qps: f64,
    front_door: OverloadPolicy,
    batch_policy: BatchPolicy,
    /// One schedule per entry of [`RATE_FACTORS`].
    schedules: Vec<BatchSchedule>,
}

impl Stage {
    fn plan_of(&self, driver: Driver) -> &ExecutionPlan {
        if driver == Driver::Pipelined {
            &self.pipeline_plan
        } else {
            &self.lo_plan
        }
    }

    /// Fault-free billed ms per query of the plan a driver serves.
    fn predicted_billed_ms(&self, driver: Driver) -> f64 {
        if driver == Driver::Pipelined {
            self.pipeline_billed_ms
        } else {
            self.lo_prediction.billed_ms as f64
        }
    }
}

fn set_up(tracer: &mut Tracer) -> Result<Stage, String> {
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::analytic(&platform);
    let model = zoo::vgg11();
    let err = |what: &str, e: gillis::core::CoreError| format!("{what}: {e}");
    let (lo_plan, _) = tracer.time("core.dp.partition", 0, || {
        DpPartitioner::default().partition(&model, &perf)
    });
    let lo_plan = lo_plan.map_err(|e| err("latency-optimal plan", e))?;
    let (pipeline_plan, _) = tracer.time("core.dp.partition.pipeline", 0, || {
        DpPartitioner::default()
            .with_objective(PlanObjective::PipelineBottleneck)
            .partition(&model, &perf)
    });
    let pipeline_plan = pipeline_plan.map_err(|e| err("stage-balancing plan", e))?;
    let lo_prediction = predict_plan(&model, &lo_plan, &perf).map_err(|e| err("prediction", e))?;
    let pipeline_billed_ms = predict_plan_pipelined(&model, &pipeline_plan, &perf)
        .map_err(|e| err("pipelined prediction", e))?
        .billed_ms as f64;
    let slo_ms = SLO_FACTOR * lo_prediction.latency_ms;
    let saturation_qps = 1000.0 * LANES as f64 / lo_prediction.latency_ms;
    let batch_policy = BatchPolicy::single(slo_ms, MAX_BATCH);
    let schedules = RATE_FACTORS
        .iter()
        .map(|factor| {
            plan_batch_schedule(
                &model,
                &lo_plan,
                &platform,
                TransferFormat::F32,
                &batch_policy,
                factor * saturation_qps,
            )
        })
        .collect::<Result<_, _>>()
        .map_err(|e| err("batch schedule", e))?;
    Ok(Stage {
        front_door: OverloadPolicy::for_slo(slo_ms, LANES),
        model,
        platform,
        lo_plan,
        pipeline_plan,
        lo_prediction,
        pipeline_billed_ms,
        saturation_qps,
        batch_policy,
        schedules,
    })
}

/// The fault mix of `serve_storm`: independent invoke failures, stragglers,
/// corrupted transfers and orchestrator crashes, tripled inside short
/// platform-wide outage episodes.
fn storm_faults(seed: u64) -> (ChaosConfig, OutageConfig) {
    let chaos = ChaosConfig {
        seed: derive(seed, "chaos"),
        invoke_failure_rate: 0.15,
        straggler_rate: 0.03,
        straggler_slowdown: 12.0,
        corrupt_rate: 0.01,
        orchestrator_crash_rate: 0.05,
        ..ChaosConfig::default()
    };
    let outage = OutageConfig {
        min_windows: 2,
        max_windows: 5,
        ..OutageConfig::severe(3.0, derive(seed, "outage"))
    };
    (chaos, outage)
}

/// The brownout ladder `ext_outage` tuned for this plan: three probes fill a
/// window, two of them must fail before the ladder steps down.
fn brownout_ladder() -> BrownoutPolicy {
    BrownoutPolicy {
        window_lanes: 24,
        degrade_below: 0.25,
        recover_above: 0.55,
        clean_windows: 1,
        probe_interval: 32,
        shed_probe_interval: Some(4),
    }
}

/// What one driver call returned.
enum Served {
    Fleet(Box<ServingReport>),
    /// `simulate_many` has no fleet, front door or bill.
    Sim {
        latency: LatencyStats,
        resilience: ResilienceCounters,
    },
}

struct Outcome {
    cell: Cell,
    host_ms: f64,
    build_us: f64,
    served: Served,
    /// FNV-1a over the bits of every recorded latency, in order.
    latency_hash: u64,
}

impl Outcome {
    fn latency(&self) -> &LatencyStats {
        match &self.served {
            Served::Fleet(r) => &r.latency,
            Served::Sim { latency, .. } => latency,
        }
    }

    fn resilience(&self) -> &ResilienceCounters {
        match &self.served {
            Served::Fleet(r) => &r.resilience,
            Served::Sim { resilience, .. } => resilience,
        }
    }

    fn fleet(&self) -> Option<&ServingReport> {
        match &self.served {
            Served::Fleet(r) => Some(r),
            Served::Sim { .. } => None,
        }
    }

    /// Completed inside the deadline, at full or degraded service.
    fn goodput(&self) -> u64 {
        self.resilience().ok_queries + self.resilience().degraded_queries
    }

    /// Every arrival ends in exactly one status, and exactly the admitted
    /// ones record a latency.
    fn conserved(&self) -> Result<(), String> {
        let arrivals = self.cell.arrivals as u64;
        let accounted = self.resilience().queries();
        if accounted != arrivals {
            return Err(format!("{accounted} of {arrivals} arrivals accounted for"));
        }
        let recorded = self.latency().count() as u64;
        let admitted = match self.fleet() {
            Some(r) => {
                if r.by_status.count() as u64 != recorded {
                    return Err("per-status latencies do not add up".into());
                }
                r.overload.admitted
            }
            None => arrivals,
        };
        if recorded != admitted {
            return Err(format!("{recorded} latencies for {admitted} admitted"));
        }
        Ok(())
    }
}

fn run_cell(
    stage: &Stage,
    cell: Cell,
    index: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let op = index as u64;
    let err = |e: gillis::core::CoreError| format!("{}: {e}", cell.label());
    let rate = cell.factor * stage.saturation_qps;
    let schedule = RATE_FACTORS
        .iter()
        .position(|f| *f == cell.factor)
        .map(|i| &stage.schedules[i]);
    let platform = match (cell.driver, schedule) {
        (Driver::Batched, Some(s)) if s.memory_bytes != stage.platform.instance_memory_bytes => {
            stage.platform.with_memory_bytes(s.memory_bytes)
        }
        _ => stage.platform.clone(),
    };
    let plan = stage.plan_of(cell.driver);
    let (runtime, build_ms) = tracer.time("forkjoin.runtime_build", op, || {
        let mut rt = ForkJoinRuntime::new(&stage.model, plan, platform)?
            .with_overload_predicted(stage.front_door, stage.lo_prediction.latency_ms)?;
        if cell.arm != Arm::Calm {
            let (chaos, outage) = storm_faults(seed);
            rt = rt.with_chaos(chaos)?.with_outage(outage)?;
        }
        match cell.arm {
            Arm::Calm => Ok(rt),
            Arm::Naive => Ok(rt.with_policy(ResiliencePolicy::naive_retry())),
            Arm::Guarded => rt
                .with_policy(ResiliencePolicy::backoff_hedged())
                .with_retry_budget(RetryBudgetPolicy::default())?
                .with_brownout(brownout_ladder())?
                .with_recovery(RecoveryPolicy::default()),
        }
    });
    let runtime = runtime.map_err(err)?;
    let cell_seed = derive(seed, &format!("cell{index}"));
    let n = cell.arrivals;
    let (served, host_ms) = tracer.time(cell.driver.span(), op, || match cell.driver {
        Driver::OpenLoop => runtime
            .serve_open_loop(rate, n, LANES, cell_seed)
            .map(fleet),
        Driver::Batched => runtime
            .serve_open_loop_batched(
                &stage.batch_policy,
                schedule.expect("batched cells use a grid rate"),
                rate,
                n,
                LANES,
                cell_seed,
            )
            .map(fleet),
        Driver::Pipelined => runtime
            .serve_open_loop_pipelined(
                &PipelinePolicy::with_lanes(LANES),
                rate,
                n,
                LANES,
                cell_seed,
            )
            .map(fleet),
        Driver::ClosedLoop => ClosedLoop::new(CLOSED_LOOP_CLIENTS, n, Micros::ZERO)
            .map_err(gillis::core::CoreError::from)
            .and_then(|clients| runtime.serve_workload(clients, cell_seed))
            .map(fleet),
        Driver::SimulateMany => {
            let sim = runtime.simulate_many(n, cell_seed);
            Ok(Served::Sim {
                latency: sim.latency,
                resilience: sim.resilience,
            })
        }
    });
    let mut outcome = Outcome {
        cell,
        host_ms,
        build_us: build_ms * 1e3,
        served: served.map_err(err)?,
        latency_hash: 0,
    };
    outcome.latency_hash = outcome
        .latency()
        .samples()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, ms| {
            (h ^ ms.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
    Ok(outcome)
}

fn fleet(report: ServingReport) -> Served {
    Served::Fleet(Box::new(report))
}

/// One pass over every cell. The first pass is kept; later passes re-run the
/// same seeded cells, so each must reproduce the first pass's latency bits.
fn run_pass(
    stage: &Stage,
    cells: &[Cell],
    seed: u64,
    first: Option<&[Outcome]>,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let outcome = run_cell(stage, *cell, i, seed, tracer)?;
        let verdict = outcome.conserved().and_then(|()| match first {
            Some(kept) if kept[i].latency_hash != outcome.latency_hash => {
                Err("same seed, different latency bits".to_string())
            }
            _ => Ok(()),
        });
        report.check_many(cell.arrivals as u64, verdict.is_ok(), || {
            format!("{}: {}", cell.label(), verdict.clone().unwrap_err())
        });
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// The fleet reports of a set of cells folded into one with the library's own
/// `ServingReport::absorb`: samples concatenated, counters summed, peaks
/// maxed. `None` for an empty set.
fn absorbed<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Option<ServingReport> {
    let mut fleets = outcomes.filter_map(Outcome::fleet);
    let mut pooled = fleets.next()?.clone();
    for report in fleets {
        pooled.absorb(report);
    }
    Some(pooled)
}

/// Arrivals completed inside the deadline, at full or degraded service.
fn goodput(report: &ServingReport) -> u64 {
    report.resilience.ok_queries + report.resilience.degraded_queries
}

fn goodput_ratio(report: &ServingReport) -> f64 {
    goodput(report) as f64 / report.resilience.queries().max(1) as f64
}

/// Dollars billed per thousand arrivals that made it: shed, failed and late
/// ones are paid for but not counted.
fn usd_per_kq(report: &ServingReport) -> f64 {
    1e3 * report.billing.usd_total() / goodput(report).max(1) as f64
}

pub fn run(
    name: &str,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
    spins: &mut Vec<f64>,
) -> Result<(), String> {
    let (stage, setup_s, setup_reps) = repeat_setup(cfg, || set_up(tracer))?;
    report.note("setup_reps", setup_reps);
    report.note(
        "plans",
        format!(
            "latency-optimal {} groups, {:.1} ms predicted; pipeline {} stages; saturation {:.2} qps",
            stage.lo_plan.groups().len(),
            stage.lo_prediction.latency_ms,
            stage.pipeline_plan.groups().len(),
            stage.saturation_qps,
        ),
    );
    spins.push(host::calibration_spin());

    let cells = cells(name, cfg.quick);
    let began = Instant::now();
    // A traced run spends a quarter of the window here, half of it recording.
    let window = if cfg.trace {
        cfg.seconds / 4.0
    } else {
        cfg.seconds
    };
    tracer.set_recording(false);
    let first = run_pass(&stage, &cells, cfg.seed, None, report, tracer)?;
    let mut pass_ms: Vec<Vec<f64>> = vec![first.iter().map(|o| o.host_ms).collect()];
    // Two passes prove the cells repeat; a traced run needs one of each kind
    // after the first, which also warms the allocator.
    let min_passes = if cfg.trace { 3 } else { 2 };
    while pass_ms.len() < min_passes || began.elapsed().as_secs_f64() < window {
        tracer.set_recording(records_round(cfg, pass_ms.len()));
        let pass = run_pass(&stage, &cells, cfg.seed, Some(&first), report, tracer)?;
        pass_ms.push(pass.iter().map(|o| o.host_ms).collect());
    }
    tracer.set_recording(cfg.trace);
    report.note("passes", pass_ms.len());

    let fastest_ms = fastest_per_slot(&pass_ms);
    let arrivals_per_pass: usize = cells.iter().map(|c| c.arrivals).sum();
    let simulated_per_s = arrivals_per_pass as f64 / (fastest_ms.iter().sum::<f64>() / 1e3);

    for o in &first {
        let r = o.resilience();
        report.note(
            &format!("cell {}", o.cell.label()),
            format!(
                "goodput {:.4}, shed {}, deadline-exceeded {}, failed {}",
                o.goodput() as f64 / o.cell.arrivals as f64,
                r.shed_queries,
                r.deadline_exceeded_queries,
                r.failed_queries,
            ),
        );
    }
    // Naive cells are the comparator, not the system as shipped.
    let gated = absorbed(
        first
            .iter()
            .filter(|o| o.cell.driver.open() && o.cell.arm != Arm::Naive),
    )
    .ok_or("no open-loop cell ran")?;
    let ok_p99_ms = gated.by_status.ok.percentile(99.0);
    report.note(
        "sim_ok_p99_ms",
        format!("over {} ok latencies", gated.by_status.ok.count()),
    );
    report.set("sim_goodput_ratio", goodput_ratio(&gated));
    report.set("sim_ok_p99_ms", ok_p99_ms);
    report.set("sim_usd_per_kq", usd_per_kq(&gated));
    report.set("sim_kq_per_host_s", simulated_per_s / 1e3);

    if name == "serve_calm" {
        let idle = fault_activity(first.iter());
        report.check(idle == 0, || {
            format!("{idle} hedges, corruptions, crashes or ladder steps with no faults injected")
        });
    }

    if !cfg.trace {
        report.set("model_latency_ms", ok_p99_ms);
        report.set("model_usd_per_kq", usd_per_kq(&gated));
        report.set("setup_s", setup_s);
        return Ok(());
    }

    report.set("trace.overhead_pct", trace_overhead_pct(&pass_ms));
    trace_drivers(&cells, &fastest_ms, &first, report);
    trace_decomposition(&stage, cfg, report, tracer)?;
    if name == "serve_calm" {
        trace_calm_counts(&gated, report);
    }
    trace_fault_counts(&stage, &gated, &first, report);
    trace_primitives(&stage, cfg, report, tracer)?;
    Ok(())
}

/// Corruptions, budget denials, orchestrator crashes, checkpoint resumes and
/// ladder steps summed over cells: none can happen unless something injects
/// faults. (Retries can: a jitter tail alone may trip an attempt timeout.)
fn fault_activity<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> u64 {
    outcomes
        .map(|o| {
            let r = o.resilience();
            let fleet = o.fleet().map_or(0, |f| {
                f.brownout.step_downs
                    + f.brownout.shed_queries
                    + f.recovery.orchestrator_crashes
                    + f.recovery.stages_saved
            });
            r.hedges
                + r.corruptions_detected
                + r.budget_denied_retries
                + r.budget_denied_hedges
                + fleet
        })
        .sum()
}

/// `gillis-core` forkjoin: each driver's simulation rate, and on the calm
/// grid where the SLO holds and where it breaks.
fn trace_drivers(cells: &[Cell], fastest_ms: &[f64], first: &[Outcome], report: &mut Report) {
    for driver in [
        Driver::OpenLoop,
        Driver::Batched,
        Driver::Pipelined,
        Driver::ClosedLoop,
        Driver::SimulateMany,
    ] {
        let (mut arrivals, mut ms) = (0.0, 0.0);
        for (cell, host_ms) in cells.iter().zip(fastest_ms) {
            if cell.driver == driver {
                arrivals += cell.arrivals as f64;
                ms += host_ms;
            }
        }
        if ms > 0.0 {
            report.set(
                &format!("forkjoin.{}.kq_per_host_s", driver.label()),
                arrivals / ms,
            );
        }
    }
    report.set(
        "forkjoin.runtime_build_us",
        median(&first.iter().map(|o| o.build_us).collect::<Vec<_>>()),
    );
    for driver in [Driver::OpenLoop, Driver::Batched, Driver::Pipelined] {
        let mut slo_factor = 0.0_f64;
        for o in first
            .iter()
            .filter(|o| o.cell.driver == driver && o.cell.arm == Arm::Calm)
        {
            let ratio = o.goodput() as f64 / o.cell.arrivals as f64;
            if ratio >= SLO_GOODPUT {
                slo_factor = slo_factor.max(o.cell.factor);
            }
            let at = match o.cell.factor {
                1.0 => "x1",
                2.0 => "x2",
                _ => continue,
            };
            let ok_p99_ms = o.fleet().map_or(0.0, |r| r.by_status.ok.percentile(99.0));
            report.set(
                &format!("forkjoin.{}.{at}.ok_p99_ms", driver.label()),
                ok_p99_ms,
            );
            report.set(
                &format!("forkjoin.{}.{at}.goodput_ratio", driver.label()),
                ratio,
            );
        }
        if first
            .iter()
            .any(|o| o.cell.driver == driver && o.cell.arm == Arm::Calm)
        {
            report.set(
                &format!("forkjoin.{}.slo_rate_factor", driver.label()),
                slo_factor,
            );
        }
    }
    if let Some(closed) = first.iter().find(|o| o.cell.driver == Driver::ClosedLoop) {
        report.set("forkjoin.closed_loop.mean_ms", closed.latency().mean());
    }
}

/// One query's simulated latency split into fork, compute and join, and how
/// far the simulated mean sits from what `predict_plan` said.
fn trace_decomposition(
    stage: &Stage,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let runtime = ForkJoinRuntime::new(&stage.model, &stage.lo_plan, stage.platform.clone())
        .map_err(|e| e.to_string())?;
    let queries = if cfg.quick { 200 } else { 4_000 };
    let mut rng = StdRng::seed_from_u64(derive(cfg.seed, "decomposition"));
    let (mut fork, mut compute, mut join, mut total) = (0.0, 0.0, 0.0, 0.0);
    tracer.time("forkjoin.simulate_query", 0, || {
        for _ in 0..queries {
            let q = runtime.simulate_query(&mut rng);
            for (f, c, j) in &q.group_ms {
                fork += f;
                compute += c;
                join += j;
            }
            total += q.latency_ms;
        }
    });
    let n = f64::from(queries);
    report.set("forkjoin.fork_ms_mean", fork / n);
    report.set("forkjoin.compute_ms_mean", compute / n);
    report.set("forkjoin.join_ms_mean", join / n);
    let predicted = stage.lo_prediction.latency_ms;
    report.set(
        "forkjoin.pred_residual_pct",
        100.0 * (total / n - predicted).abs() / predicted,
    );
    Ok(())
}

/// `gillis-faas` counters that explain goodput and cost with no faults, over
/// the open-loop cells.
fn trace_calm_counts(pooled: &ServingReport, report: &mut Report) {
    let arrivals = pooled.resilience.queries() as f64;
    report.set("faas.fleet.cold_starts", pooled.cold_starts as f64);
    report.set(
        "faas.billing.billed_ms_per_query",
        pooled.billing.billed_ms_total() as f64 / pooled.overload.admitted as f64,
    );
    report.set(
        "faas.overload.shed_ratio",
        pooled.overload.shed() as f64 / arrivals,
    );
    report.set(
        "faas.overload.deadline_exceeded_ratio",
        pooled.resilience.deadline_exceeded_queries as f64 / arrivals,
    );
    report.set(
        "faas.overload.peak_queue",
        pooled.overload.peak_queue_depth as f64,
    );
    let batch = &pooled.batch;
    report.set("faas.batch.mean_batch", batch.mean_batch());
    report.set(
        "faas.batch.window_close_ratio",
        batch.window_closes as f64 / (batch.window_closes + batch.size_closes).max(1) as f64,
    );
    report.set(
        "faas.pipeline.backpressure_stalls",
        pooled.pipeline.backpressure_stalls as f64,
    );
    report.set(
        "faas.pipeline.peak_stage_queue",
        pooled.pipeline.peak_stage_queue as f64,
    );
}

/// `gillis-faas` fault-handling counters of the stack as shipped (`pooled`:
/// the guarded cells of `serve_storm`; every open-loop cell of `serve_calm`,
/// where they must read as no activity), and the naive arm as comparator.
fn trace_fault_counts(
    stage: &Stage,
    pooled: &ServingReport,
    first: &[Outcome],
    report: &mut Report,
) {
    if let Some(naive) = absorbed(first.iter().filter(|o| o.cell.arm == Arm::Naive)) {
        report.set("faas.naive.goodput_ratio", goodput_ratio(&naive));
        report.set("faas.naive.usd_per_kq", usd_per_kq(&naive));
        report.set(
            "faas.naive.retry_amplification",
            naive.retry_amplification(),
        );
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let resilience = &pooled.resilience;
    report.set(
        "faas.chaos.retry_amplification",
        pooled.retry_amplification(),
    );
    report.set(
        "faas.resilience.hedge_win_ratio",
        ratio(resilience.hedge_wins, resilience.hedges),
    );
    let denied = resilience.budget_denied_retries + resilience.budget_denied_hedges;
    report.set(
        "faas.budget.denied_ratio",
        ratio(denied, denied + resilience.retries + resilience.hedges),
    );
    report.set(
        "faas.chaos.corruptions_detected",
        resilience.corruptions_detected as f64,
    );
    let levels = &pooled.brownout.queries_at_level;
    report.set(
        "faas.brownout.degraded_arrival_ratio",
        ratio(levels[1..].iter().sum(), levels.iter().sum()),
    );
    report.set(
        "faas.brownout.step_downs",
        pooled.brownout.step_downs as f64,
    );
    report.set(
        "faas.recovery.stages_saved",
        pooled.recovery.stages_saved as f64,
    );
    report.set(
        "faas.recovery.failover_replays",
        pooled.recovery.failover_replays as f64,
    );
    if !first.iter().any(|o| o.cell.arm == Arm::Guarded) {
        return;
    }
    // Billed ms beyond what the same admitted queries cost fault-free.
    let fault_free: f64 = first
        .iter()
        .filter(|o| o.cell.arm == Arm::Guarded)
        .filter_map(|o| {
            Some(o.fleet()?.overload.admitted as f64 * stage.predicted_billed_ms(o.cell.driver))
        })
        .sum();
    report.set(
        "faas.recovery.wasted_billed_ratio",
        pooled.billing.billed_ms_total() as f64 / fault_free - 1.0,
    );
}

/// `gillis-faas` primitives every simulated query leans on, timed directly.
fn trace_primitives(
    stage: &Stage,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let rounds: u32 = if cfg.quick { 20_000 } else { 400_000 };
    let per_op_ns = |ms: f64| ms * 1e6 / f64::from(rounds);

    let mut queue: EventQueue<u32> = EventQueue::new();
    let (_, ms) = tracer.time("faas.des.push_pop", 0, || {
        // A standing backlog of 64 events, as a busy front door keeps.
        for i in 0..64 {
            queue.push(Micros(u64::from(i) * 7), i);
        }
        for i in 0..rounds {
            let (at, _) = queue.pop().expect("the backlog never drains");
            queue.push(Micros(at.0 + 450 + u64::from(i % 13)), i);
        }
    });
    report.set("faas.des.push_pop_ns", per_op_ns(ms));

    let mut fleet = Fleet::new(stage.platform.clone());
    let spec = FunctionSpec {
        name: "probe".to_string(),
        memory_bytes: stage.platform.instance_memory_bytes,
        package_bytes: 1 << 20,
    };
    fleet.deploy(spec).map_err(|e| e.to_string())?;
    fleet
        .prewarm("probe", LANES, Micros::ZERO)
        .map_err(|e| e.to_string())?;
    let (result, ms) = tracer.time("faas.fleet.acquire_release", 0, || {
        for i in 0..rounds {
            let now = Micros(u64::from(i) * 10);
            fleet.acquire("probe", now)?;
            fleet.release("probe", now)?;
        }
        Ok::<(), gillis::faas::FaasError>(())
    });
    result.map_err(|e| e.to_string())?;
    report.set("faas.fleet.acquire_release_ns", per_op_ns(ms));

    let jitter = stage.platform.invoke_latency_ms;
    let mut rng = StdRng::seed_from_u64(derive(cfg.seed, "primitives"));
    let (total, ms) = tracer.time("faas.exgauss.sample", 0, || {
        (0..rounds).map(|_| jitter.sample(&mut rng)).sum::<f64>()
    });
    std::hint::black_box(total);
    report.set("faas.exgauss.sample_ns", per_op_ns(ms));

    let injector = storm_faults(cfg.seed)
        .0
        .build()
        .map_err(|e| e.to_string())?;
    let (faults, ms) = tracer.time("faas.chaos.sample", 0, || {
        (0..rounds)
            .filter(|&i| {
                let site = FaultSite {
                    query: u64::from(i),
                    group: i % 3,
                    part: i % 8,
                    attempt: 0,
                    lane: 0,
                };
                injector.fault(site).is_some()
            })
            .count()
    });
    std::hint::black_box(faults);
    report.set("faas.chaos.sample_ns", per_op_ns(ms));
    Ok(())
}
