//! Brownout degradation ladder: hysteretic service-level step-downs driven
//! by a windowed worker-health score.
//!
//! When a correlated outage makes worker lanes fail en masse, the right
//! response is not to retry harder but to *serve less expensively*: first
//! stop hedging (no speculative duplicates), then shrink transfers to the
//! int8 wire format, then stop forking entirely (master-local fallback),
//! and finally shed. [`BrownoutController`] walks that ladder one level per
//! unhealthy window and climbs back only after several consecutive clean
//! windows, so a flapping signal cannot oscillate the service level.
//!
//! Health is the fraction of *first attempts* that succeed, accumulated
//! over fixed-size windows of lane outcomes. Both the signal and the level
//! changes are plain counters updated in the serving loop's own
//! deterministic event order — no wall clocks, no RNG — which keeps serving
//! bit-identical across `GILLIS_THREADS` and is why the controller lives in
//! the sequential serving paths rather than inside parallel replications.

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::{family, parse};
use crate::Result;

/// One rung of the degradation ladder. Effects are cumulative: every level
/// keeps the restrictions of the levels above it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum BrownoutLevel {
    /// Full service: hedging and the configured wire format.
    #[default]
    Full,
    /// Hedging disabled — no speculative duplicate invocations.
    NoHedge,
    /// Transfers forced to the int8 wire format (~4× smaller payloads).
    Int8,
    /// No forking at all: the master computes every partition locally and
    /// the query completes `Degraded`.
    LocalOnly,
    /// Arrivals are shed (except health probes).
    Shed,
}

impl BrownoutLevel {
    /// All levels, mildest first — index order matches
    /// [`BrownoutCounters::queries_at_level`].
    pub const ALL: [BrownoutLevel; 5] = [
        BrownoutLevel::Full,
        BrownoutLevel::NoHedge,
        BrownoutLevel::Int8,
        BrownoutLevel::LocalOnly,
        BrownoutLevel::Shed,
    ];

    /// Position on the ladder (0 = full service, 4 = shed).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Full => "full",
            BrownoutLevel::NoHedge => "no-hedge",
            BrownoutLevel::Int8 => "int8",
            BrownoutLevel::LocalOnly => "local-only",
            BrownoutLevel::Shed => "shed",
        }
    }

    fn step_down(self) -> Self {
        BrownoutLevel::ALL[(self.index() + 1).min(4)]
    }

    fn step_up(self) -> Self {
        BrownoutLevel::ALL[self.index().saturating_sub(1)]
    }
}

/// Ladder knobs for [`BrownoutController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrownoutPolicy {
    /// First-attempt outcomes per health window.
    pub window_lanes: u32,
    /// Step one level down when a window's health falls below this.
    pub degrade_below: f64,
    /// A window counts as clean when health is at or above this; keeping
    /// `recover_above > degrade_below` is the hysteresis band.
    pub recover_above: f64,
    /// Consecutive clean windows required before stepping one level up.
    pub clean_windows: u32,
    /// At `LocalOnly`/`Shed`, every `probe_interval`-th arrival is served
    /// through the (int8) fork-join path so worker health keeps being
    /// measured — without probes the ladder could never observe recovery.
    pub probe_interval: u32,
    /// Probe cadence while fully shedding; `None` inherits
    /// `probe_interval`. Shedding is far more expensive than serving local
    /// fallbacks, so a ladder that probes sparsely at `LocalOnly` (to avoid
    /// demoting on one unlucky sample) can still probe eagerly at `Shed`
    /// and notice recovery quickly.
    pub shed_probe_interval: Option<u32>,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            window_lanes: 32,
            degrade_below: 0.7,
            recover_above: 0.9,
            clean_windows: 2,
            probe_interval: 4,
            shed_probe_interval: None,
        }
    }
}

impl BrownoutPolicy {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for a zero window or probe
    /// interval, thresholds outside `[0, 1]`, or an inverted hysteresis
    /// band (`recover_above < degrade_below`).
    pub fn validate(&self) -> Result<()> {
        if self.window_lanes == 0 {
            return Err(FaasError::InvalidArgument(
                "brownout window_lanes must be >= 1".to_string(),
            ));
        }
        if self.probe_interval == 0 {
            return Err(FaasError::InvalidArgument(
                "brownout probe_interval must be >= 1".to_string(),
            ));
        }
        if self.shed_probe_interval == Some(0) {
            return Err(FaasError::InvalidArgument(
                "brownout shed_probe_interval must be >= 1 when set".to_string(),
            ));
        }
        for (name, v) in [
            ("degrade_below", self.degrade_below),
            ("recover_above", self.recover_above),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(FaasError::InvalidArgument(format!(
                    "brownout {name} must be in [0, 1]: {v}"
                )));
            }
        }
        if self.recover_above < self.degrade_below {
            return Err(FaasError::InvalidArgument(format!(
                "brownout hysteresis band is inverted: recover_above {} < degrade_below {}",
                self.recover_above, self.degrade_below
            )));
        }
        if self.clean_windows == 0 {
            return Err(FaasError::InvalidArgument(
                "brownout clean_windows must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

family! {
    BrownoutPolicy, "brownout", env;
    base BrownoutPolicy::default();
    check BrownoutPolicy::validate;
    "GILLIS_BROWNOUT_WINDOW", "window_lanes", "unset",
        "first attempts per health window; enables the ladder" => [window_lanes];
    "GILLIS_BROWNOUT_DEGRADE_BELOW", "degrade_below", "0.7",
        "step down when a window's health falls below this" => [degrade_below];
    "GILLIS_BROWNOUT_RECOVER_ABOVE", "recover_above", "0.9",
        "a window at or above this counts toward recovery" => [recover_above];
    "GILLIS_BROWNOUT_CLEAN_WINDOWS", "clean_windows", "2",
        "consecutive clean windows per step up" => [clean_windows];
    "GILLIS_BROWNOUT_PROBE_INTERVAL", "probe_interval", "4",
        "probe cadence at local-only/shed, in arrivals" => [probe_interval];
    "GILLIS_BROWNOUT_SHED_PROBE_INTERVAL", "shed_probe_interval", "none (= probe interval)",
        "probe cadence while fully shedding" => {
            |p, raw| {
                let some = (raw != "none").then(|| parse(raw)).transpose();
                some.map(|interval| p.shed_probe_interval = interval)
            },
            |p| p.shed_probe_interval.map_or("none".to_string(), |n| n.to_string())
        };
}

/// Ladder accounting across a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BrownoutCounters {
    /// Arrivals classified while the ladder sat at each level (index order
    /// of [`BrownoutLevel::ALL`]) — the brownout-level-time columns.
    pub queries_at_level: [u64; 5],
    /// Level step-downs taken.
    pub step_downs: u64,
    /// Level step-ups taken (recoveries).
    pub step_ups: u64,
    /// Arrivals shed by the ladder (distinct from overload-queue shedding).
    pub shed_queries: u64,
    /// Probe arrivals served through the fork-join path at `LocalOnly` or
    /// `Shed`.
    pub probes: u64,
}

impl BrownoutCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &BrownoutCounters) {
        for (a, b) in self
            .queries_at_level
            .iter_mut()
            .zip(other.queries_at_level.iter())
        {
            *a += b;
        }
        self.step_downs += other.step_downs;
        self.step_ups += other.step_ups;
        self.shed_queries += other.shed_queries;
        self.probes += other.probes;
    }

    /// Total arrivals classified.
    pub fn arrivals(&self) -> u64 {
        self.queries_at_level.iter().sum()
    }
}

/// Verdict for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalDecision {
    /// Serve the query at this level (a probe serves at
    /// [`BrownoutLevel::Int8`] while the ladder sits lower).
    Serve(BrownoutLevel),
    /// Reject the query.
    Shed,
}

/// The live ladder state machine (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutController {
    policy: BrownoutPolicy,
    level: BrownoutLevel,
    window_attempts: u64,
    window_successes: u64,
    clean: u32,
    arrivals: u64,
    /// Accounting; taken by the serving loop at the end of the run.
    pub counters: BrownoutCounters,
}

impl BrownoutController {
    /// Starts at full service.
    pub fn new(policy: BrownoutPolicy) -> Self {
        BrownoutController {
            policy,
            level: BrownoutLevel::Full,
            window_attempts: 0,
            window_successes: 0,
            clean: 0,
            arrivals: 0,
            counters: BrownoutCounters::default(),
        }
    }

    /// The current ladder level.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Classifies the next arrival at the current level. Consumes no RNG:
    /// probe selection is the arrival index modulo the probe interval.
    pub fn classify_arrival(&mut self) -> ArrivalDecision {
        self.counters.queries_at_level[self.level.index()] += 1;
        let interval = match self.level {
            BrownoutLevel::Shed => self
                .policy
                .shed_probe_interval
                .unwrap_or(self.policy.probe_interval),
            _ => self.policy.probe_interval,
        };
        let probe = self.arrivals.is_multiple_of(u64::from(interval));
        self.arrivals += 1;
        match self.level {
            BrownoutLevel::LocalOnly | BrownoutLevel::Shed if probe => {
                self.counters.probes += 1;
                ArrivalDecision::Serve(BrownoutLevel::Int8)
            }
            BrownoutLevel::Shed => {
                self.counters.shed_queries += 1;
                ArrivalDecision::Shed
            }
            level => ArrivalDecision::Serve(level),
        }
    }

    /// Feeds one query's first-attempt outcomes into the health window and
    /// evaluates the ladder at each window boundary. The level can only
    /// move here — never mid-window — so transitions are monotone within a
    /// window by construction.
    pub fn observe(&mut self, first_attempts: u64, first_successes: u64) {
        debug_assert!(first_successes <= first_attempts);
        self.window_attempts += first_attempts;
        self.window_successes += first_successes;
        if self.window_attempts >= u64::from(self.policy.window_lanes) {
            self.evaluate();
        }
    }

    fn evaluate(&mut self) {
        let health = self.window_successes as f64 / self.window_attempts as f64;
        self.window_attempts = 0;
        self.window_successes = 0;
        if health < self.policy.degrade_below {
            self.clean = 0;
            if self.level != BrownoutLevel::Shed {
                self.level = self.level.step_down();
                self.counters.step_downs += 1;
            }
        } else if health >= self.policy.recover_above {
            self.clean += 1;
            if self.clean >= self.policy.clean_windows {
                self.clean = 0;
                if self.level != BrownoutLevel::Full {
                    self.level = self.level.step_up();
                    self.counters.step_ups += 1;
                }
            }
        } else {
            // Inside the hysteresis band: hold the level, reset the streak.
            self.clean = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> BrownoutController {
        BrownoutController::new(BrownoutPolicy {
            window_lanes: 4,
            clean_windows: 2,
            probe_interval: 3,
            ..BrownoutPolicy::default()
        })
    }

    #[test]
    fn policy_validation() {
        assert!(BrownoutPolicy::default().validate().is_ok());
        for bad in [
            BrownoutPolicy {
                window_lanes: 0,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                probe_interval: 0,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                degrade_below: 1.5,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                degrade_below: 0.9,
                recover_above: 0.7,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                clean_windows: 0,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                shed_probe_interval: Some(0),
                ..BrownoutPolicy::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ladder_steps_down_under_failure_and_recovers_with_hysteresis() {
        let mut c = controller();
        assert_eq!(c.level(), BrownoutLevel::Full);
        // Four all-fail windows walk Full → NoHedge → Int8 → LocalOnly →
        // Shed, one rung per window.
        for expected in [
            BrownoutLevel::NoHedge,
            BrownoutLevel::Int8,
            BrownoutLevel::LocalOnly,
            BrownoutLevel::Shed,
        ] {
            c.observe(4, 0);
            assert_eq!(c.level(), expected);
        }
        // Further failure holds at Shed.
        c.observe(4, 0);
        assert_eq!(c.level(), BrownoutLevel::Shed);
        // One clean window is not enough (clean_windows = 2)…
        c.observe(4, 4);
        assert_eq!(c.level(), BrownoutLevel::Shed);
        // …two are, and each recovery restarts the streak.
        c.observe(4, 4);
        assert_eq!(c.level(), BrownoutLevel::LocalOnly);
        c.observe(4, 4);
        assert_eq!(c.level(), BrownoutLevel::LocalOnly);
        c.observe(4, 4);
        assert_eq!(c.level(), BrownoutLevel::Int8);
        assert_eq!(c.counters.step_downs, 4);
        assert_eq!(c.counters.step_ups, 2);
    }

    #[test]
    fn hysteresis_band_holds_level_and_resets_streak() {
        let mut c = controller();
        c.observe(4, 0); // → NoHedge
        assert_eq!(c.level(), BrownoutLevel::NoHedge);
        // Health 0.75 sits between degrade (0.7) and recover (0.9): hold.
        for _ in 0..10 {
            c.observe(4, 3);
            assert_eq!(c.level(), BrownoutLevel::NoHedge);
        }
        // A clean window followed by an in-band window must not recover.
        c.observe(4, 4);
        c.observe(4, 3);
        c.observe(4, 4);
        assert_eq!(c.level(), BrownoutLevel::NoHedge, "streak was reset");
        c.observe(4, 4);
        assert_eq!(c.level(), BrownoutLevel::Full);
    }

    #[test]
    fn shed_level_probes_and_sheds_the_rest() {
        let mut c = controller();
        for _ in 0..4 {
            c.observe(4, 0);
        }
        assert_eq!(c.level(), BrownoutLevel::Shed);
        let decisions: Vec<ArrivalDecision> = (0..6).map(|_| c.classify_arrival()).collect();
        assert_eq!(decisions[0], ArrivalDecision::Serve(BrownoutLevel::Int8));
        assert_eq!(decisions[1], ArrivalDecision::Shed);
        assert_eq!(decisions[2], ArrivalDecision::Shed);
        assert_eq!(decisions[3], ArrivalDecision::Serve(BrownoutLevel::Int8));
        assert_eq!(c.counters.probes, 2);
        assert_eq!(c.counters.shed_queries, 4);
        assert_eq!(c.counters.queries_at_level[BrownoutLevel::Shed.index()], 6);
    }

    #[test]
    fn shed_probes_can_run_on_their_own_faster_cadence() {
        let mut c = BrownoutController::new(BrownoutPolicy {
            window_lanes: 4,
            probe_interval: 8,
            shed_probe_interval: Some(2),
            ..BrownoutPolicy::default()
        });
        // Walk to LocalOnly: probes every 8th arrival.
        for _ in 0..3 {
            c.observe(4, 0);
        }
        assert_eq!(c.level(), BrownoutLevel::LocalOnly);
        let local: Vec<ArrivalDecision> = (0..4).map(|_| c.classify_arrival()).collect();
        assert_eq!(local[0], ArrivalDecision::Serve(BrownoutLevel::Int8));
        assert!(local[1..]
            .iter()
            .all(|d| *d == ArrivalDecision::Serve(BrownoutLevel::LocalOnly)));
        // One more bad window reaches Shed, where probes fire every 2nd
        // arrival instead of every 8th.
        c.observe(4, 0);
        assert_eq!(c.level(), BrownoutLevel::Shed);
        let shed: Vec<ArrivalDecision> = (0..4).map(|_| c.classify_arrival()).collect();
        assert_eq!(shed[0], ArrivalDecision::Serve(BrownoutLevel::Int8));
        assert_eq!(shed[1], ArrivalDecision::Shed);
        assert_eq!(shed[2], ArrivalDecision::Serve(BrownoutLevel::Int8));
        assert_eq!(shed[3], ArrivalDecision::Shed);
    }

    #[test]
    fn counters_absorb() {
        let mut a = BrownoutCounters {
            queries_at_level: [5, 4, 3, 2, 1],
            step_downs: 4,
            step_ups: 2,
            shed_queries: 1,
            probes: 1,
        };
        a.absorb(&a.clone());
        assert_eq!(a.queries_at_level, [10, 8, 6, 4, 2]);
        assert_eq!(a.step_downs, 8);
        assert_eq!(a.arrivals(), 30);
        assert_eq!(a.arrivals() - a.queries_at_level[0], 20);
    }
}
