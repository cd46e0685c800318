//! Overload protection: admission policies and per-lane circuit breakers.
//!
//! Gillis's open-loop serving accepts unbounded Poisson arrivals; a burst
//! past capacity drives every query's latency to infinity while workers
//! keep burning billed GB-s on requests that already missed their SLO.
//! Serverless serving systems (MOPAR, HydraServe) treat overload as a
//! first-class failure mode; this module provides the deterministic knobs
//! the fork-join runtime uses to degrade gracefully instead of collapsing:
//!
//! - [`OverloadPolicy`] — a bounded admission queue (depth cap), a
//!   per-query deadline derived from the SLO, and shed-on-admission when
//!   predicted queue wait plus predicted plan latency already exceeds the
//!   deadline.
//! - [`CircuitBreaker`] — a consecutive-failure / open / half-open state
//!   machine per worker lane; an open lane is routed around (master-local
//!   degraded execution) before the retry budget is spent.
//! - [`OverloadCounters`] — honest accounting of sheds, cancellations, and
//!   breaker transitions, reported next to the resilience counters.
//!
//! Like fault injection ([`crate::chaos`]), every decision here is a pure
//! function of the policy, the seed-driven simulation state, and the query's
//! identity — never of wall-clock time or scheduling.

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::{family, parse};
use crate::time::Micros;
use crate::Result;

/// Circuit-breaker knobs for one worker lane (a `g{i}p{j}` function).
///
/// A lane whose worker executions exhaust their retry budget
/// `failure_threshold` times in a row trips the breaker open: subsequent
/// queries route around the lane (master-local degraded execution) without
/// spending any retry budget. After `cooldown_ms` of virtual time the
/// breaker half-opens and lets a single probe attempt through; the probe's
/// success (after `half_open_probes` in a row) closes the breaker, its
/// failure re-opens it for another cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive lane failures that trip the breaker (0 disables it).
    pub failure_threshold: u32,
    /// Virtual-time cooldown an open breaker waits before half-opening.
    pub cooldown_ms: f64,
    /// Consecutive half-open probe successes required to close (≥ 1).
    pub half_open_probes: u32,
}

impl BreakerPolicy {
    /// Breakers off: every lane is always attempted.
    pub fn disabled() -> Self {
        BreakerPolicy {
            failure_threshold: 0,
            cooldown_ms: 0.0,
            half_open_probes: 1,
        }
    }

    /// The default enabled configuration: open after 3 consecutive lane
    /// failures, cool down 250 ms, close after one successful probe.
    pub fn standard() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown_ms: 250.0,
            half_open_probes: 1,
        }
    }

    /// Whether this policy ever trips.
    pub fn enabled(&self) -> bool {
        self.failure_threshold > 0
    }

    fn validate(&self) -> Result<()> {
        // NaN fails `is_finite`, so this also rejects NaN cooldowns.
        if !self.cooldown_ms.is_finite() || self.cooldown_ms < 0.0 {
            return Err(FaasError::InvalidArgument(format!(
                "breaker cooldown must be finite and non-negative: {}",
                self.cooldown_ms
            )));
        }
        if self.enabled() && self.half_open_probes == 0 {
            return Err(FaasError::InvalidArgument(
                "breaker half_open_probes must be >= 1 when enabled".into(),
            ));
        }
        Ok(())
    }
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy::disabled()
    }
}

/// Observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: attempts flow normally.
    Closed,
    /// Tripped: the lane is routed around until the cooldown expires.
    Open,
    /// Cooling down finished: probe attempts are allowed through.
    HalfOpen,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Micros },
    HalfOpen { successes: u32 },
}

/// Consecutive-failure / half-open state machine for one worker lane.
///
/// All transitions happen at virtual times supplied by the (sequential)
/// serving loop, so breaker evolution is a pure function of the query
/// sequence — bit-identical across `GILLIS_THREADS`.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: State,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: State::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// The current coarse state.
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether the lane may be attempted at virtual time `now`. An open
    /// breaker past its cooldown half-opens (counted) and admits a probe;
    /// an open breaker inside the cooldown refuses (counted as a
    /// short-circuit — the caller must degrade locally instead).
    pub fn admits(&mut self, now: Micros, counters: &mut OverloadCounters) -> bool {
        if !self.policy.enabled() {
            return true;
        }
        match self.state {
            State::Closed { .. } | State::HalfOpen { .. } => true,
            State::Open { until } => {
                if now >= until {
                    self.state = State::HalfOpen { successes: 0 };
                    counters.breaker_half_opens += 1;
                    true
                } else {
                    counters.breaker_short_circuits += 1;
                    false
                }
            }
        }
    }

    /// Whether the next admitted execution is a half-open probe (callers
    /// should grant probes a single attempt, not the full retry budget).
    pub fn probing(&self) -> bool {
        matches!(self.state, State::HalfOpen { .. })
    }

    /// Records a lane success (the lane resolved within its budget).
    pub fn record_success(&mut self, counters: &mut OverloadCounters) {
        if !self.policy.enabled() {
            return;
        }
        match self.state {
            State::Closed { .. } => {
                self.state = State::Closed {
                    consecutive_failures: 0,
                };
            }
            State::HalfOpen { successes } => {
                let successes = successes + 1;
                if successes >= self.policy.half_open_probes {
                    self.state = State::Closed {
                        consecutive_failures: 0,
                    };
                    counters.breaker_closes += 1;
                } else {
                    self.state = State::HalfOpen { successes };
                }
            }
            State::Open { .. } => {}
        }
    }

    /// Records a lane failure (retry budget exhausted) observed at `now`.
    pub fn record_failure(&mut self, now: Micros, counters: &mut OverloadCounters) {
        if !self.policy.enabled() {
            return;
        }
        let open = |c: &mut OverloadCounters| {
            c.breaker_opens += 1;
            State::Open {
                until: now + Micros::from_ms(self.policy.cooldown_ms),
            }
        };
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let consecutive_failures = consecutive_failures + 1;
                if consecutive_failures >= self.policy.failure_threshold {
                    self.state = open(counters);
                } else {
                    self.state = State::Closed {
                        consecutive_failures,
                    };
                }
            }
            // A failed probe re-opens for another cooldown.
            State::HalfOpen { .. } => self.state = open(counters),
            State::Open { .. } => {}
        }
    }
}

/// How the serving path responds to sustained overload.
///
/// The admission queue models the master front door: at most
/// `max_concurrency` queries are in flight, at most `queue_depth` more may
/// wait, and each admitted query carries a deadline of `deadline_ms` from
/// its arrival. Shedding decisions and deadline expiries are pure functions
/// of the arrival sequence and the simulation seed — bit-identical across
/// `GILLIS_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadPolicy {
    /// Queries served concurrently (the master pool size, ≥ 1).
    pub max_concurrency: usize,
    /// Maximum queries waiting for a master (`usize::MAX` = unbounded).
    /// An arrival that finds the queue full is shed immediately.
    pub queue_depth: usize,
    /// Per-query deadline from arrival, in milliseconds
    /// (`f64::INFINITY` disables deadlines).
    pub deadline_ms: f64,
    /// Shed on admission when predicted queue wait + predicted plan latency
    /// already exceeds the deadline (requires a finite deadline).
    pub shed_on_predicted_miss: bool,
    /// Per-worker-lane circuit breaking.
    pub breaker: BreakerPolicy,
}

impl OverloadPolicy {
    /// No protection beyond the concurrency cap: unbounded queue, no
    /// deadline, no shedding, breakers off. The honest baseline an
    /// overloaded deployment collapses under.
    pub fn unprotected(max_concurrency: usize) -> Self {
        OverloadPolicy {
            max_concurrency,
            queue_depth: usize::MAX,
            deadline_ms: f64::INFINITY,
            shed_on_predicted_miss: false,
            breaker: BreakerPolicy::disabled(),
        }
    }

    /// Full protection derived from an SLO: queue bounded at twice the
    /// concurrency, deadline equal to the SLO, predictive shedding on, and
    /// standard breakers.
    pub fn for_slo(slo_ms: f64, max_concurrency: usize) -> Self {
        OverloadPolicy {
            max_concurrency,
            queue_depth: 2 * max_concurrency.max(1),
            deadline_ms: slo_ms,
            shed_on_predicted_miss: true,
            breaker: BreakerPolicy::standard(),
        }
    }

    /// The absolute deadline of a query arriving at `arrival`, if deadlines
    /// are enabled.
    pub fn deadline_at(&self, arrival: Micros) -> Option<Micros> {
        self.deadline_ms
            .is_finite()
            .then(|| arrival + Micros::from_ms(self.deadline_ms))
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for a zero concurrency, a
    /// non-positive or NaN deadline, predictive shedding without a finite
    /// deadline, or an invalid breaker config.
    pub fn validate(&self) -> Result<()> {
        if self.max_concurrency == 0 {
            return Err(FaasError::InvalidArgument(
                "overload max_concurrency must be >= 1".into(),
            ));
        }
        // NaN-rejecting: the deadline must be definitely positive.
        if self.deadline_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(FaasError::InvalidArgument(format!(
                "overload deadline_ms must be positive (or infinite to disable): {}",
                self.deadline_ms
            )));
        }
        if self.shed_on_predicted_miss && !self.deadline_ms.is_finite() {
            return Err(FaasError::InvalidArgument(
                "shed_on_predicted_miss requires a finite deadline_ms".into(),
            ));
        }
        self.breaker.validate()
    }
}

family! {
    OverloadPolicy, "overload", env;
    base OverloadPolicy::unprotected(1);
    check OverloadPolicy::validate;
    "GILLIS_OVERLOAD_CONCURRENCY", "concurrency", "unset",
        "admission slots; enables overload protection" => {
            // The queue bound follows the concurrency unless set itself.
            |p, raw| parse(raw)
                .map(|slots: usize| (p.max_concurrency, p.queue_depth) = (slots, 2 * slots.max(1))),
            |p| p.max_concurrency.to_string()
        };
    "GILLIS_OVERLOAD_QUEUE", "queue", "2 × concurrency", "admission queue depth" => [queue_depth];
    "GILLIS_OVERLOAD_DEADLINE_MS", "deadline_ms", "inf (none)",
        "per-query deadline from arrival" => [deadline_ms];
    "GILLIS_OVERLOAD_SHED_PREDICTED", "shed_predicted", "false",
        "shed when predicted wait + latency misses the deadline" => [shed_on_predicted_miss];
    "GILLIS_OVERLOAD_BREAKER_FAILURES", "breaker_failures", "0 (breakers off)",
        "consecutive lane failures that open a lane breaker" => [breaker.failure_threshold];
    "GILLIS_OVERLOAD_BREAKER_COOLDOWN_MS", "breaker_cooldown_ms", "0",
        "open-state cooldown before a breaker half-opens" => [breaker.cooldown_ms];
    "GILLIS_OVERLOAD_BREAKER_PROBES", "breaker_probes", "1",
        "probe successes needed to close from half-open" => [breaker.half_open_probes];
}

/// Honest overload accounting across a serving run, reported next to the
/// resilience counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OverloadCounters {
    /// Queries admitted past the front door.
    pub admitted: u64,
    /// Arrivals shed because the admission queue was full.
    pub shed_queue_full: u64,
    /// Arrivals shed because predicted wait + predicted latency already
    /// exceeded the deadline.
    pub shed_predicted_miss: u64,
    /// Worker attempts (or planned local recomputes) cancelled because the
    /// query's deadline expired — doomed work not performed.
    pub cancelled_attempts: u64,
    /// Deepest the admission queue ever got.
    pub peak_queue_depth: u64,
    /// Breaker transitions into Open.
    pub breaker_opens: u64,
    /// Breaker transitions into Closed (successful probes).
    pub breaker_closes: u64,
    /// Breaker transitions into HalfOpen (cooldown expiries).
    pub breaker_half_opens: u64,
    /// Lane executions skipped outright because the breaker was open.
    pub breaker_short_circuits: u64,
}

impl OverloadCounters {
    /// Total arrivals shed at admission.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_predicted_miss
    }

    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &OverloadCounters) {
        self.admitted += other.admitted;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_predicted_miss += other.shed_predicted_miss;
        self.cancelled_attempts += other.cancelled_attempts;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.breaker_opens += other.breaker_opens;
        self.breaker_closes += other.breaker_closes;
        self.breaker_half_opens += other.breaker_half_opens;
        self.breaker_short_circuits += other.breaker_short_circuits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation() {
        assert!(OverloadPolicy::unprotected(4).validate().is_ok());
        assert!(OverloadPolicy::for_slo(500.0, 8).validate().is_ok());
        assert!(OverloadPolicy {
            max_concurrency: 0,
            ..OverloadPolicy::unprotected(1)
        }
        .validate()
        .is_err());
        assert!(OverloadPolicy {
            deadline_ms: 0.0,
            ..OverloadPolicy::unprotected(1)
        }
        .validate()
        .is_err());
        assert!(OverloadPolicy {
            deadline_ms: f64::NAN,
            ..OverloadPolicy::unprotected(1)
        }
        .validate()
        .is_err());
        // Predictive shedding needs a finite deadline.
        assert!(OverloadPolicy {
            shed_on_predicted_miss: true,
            ..OverloadPolicy::unprotected(1)
        }
        .validate()
        .is_err());
        // Enabled breaker with zero probes is invalid.
        assert!(OverloadPolicy {
            breaker: BreakerPolicy {
                failure_threshold: 2,
                cooldown_ms: 10.0,
                half_open_probes: 0,
            },
            ..OverloadPolicy::unprotected(1)
        }
        .validate()
        .is_err());
        assert!(OverloadPolicy {
            breaker: BreakerPolicy {
                cooldown_ms: f64::NAN,
                ..BreakerPolicy::standard()
            },
            ..OverloadPolicy::unprotected(1)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn policy_text_round_trips() {
        for policy in [
            OverloadPolicy::unprotected(3),
            OverloadPolicy::for_slo(437.25, 8),
            OverloadPolicy {
                queue_depth: usize::MAX,
                ..OverloadPolicy::for_slo(10.5, 1)
            },
        ] {
            let text = policy.to_text();
            let parsed = OverloadPolicy::from_text(&text).unwrap();
            assert_eq!(policy, parsed, "{text}");
        }
        assert!(OverloadPolicy::from_text("").is_err());
        assert!(OverloadPolicy::from_text("nope\nconcurrency=1").is_err());
        assert!(OverloadPolicy::from_text("gillis-overload v1\nconcurrency").is_err());
        assert!(OverloadPolicy::from_text("gillis-overload v1\nconcurrency=x").is_err());
        assert!(OverloadPolicy::from_text("gillis-overload v1\nwat=1").is_err());
        // Parsed policies are validated.
        assert!(OverloadPolicy::from_text("gillis-overload v1\nconcurrency=0").is_err());
    }

    #[test]
    fn breaker_trips_cools_down_and_recovers() {
        let mut c = OverloadCounters::default();
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown_ms: 100.0,
            half_open_probes: 1,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits(Micros::ZERO, &mut c));
        b.record_failure(Micros::from_ms(10.0), &mut c);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record_failure(Micros::from_ms(20.0), &mut c);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(c.breaker_opens, 1);
        // Inside the cooldown: short-circuits.
        assert!(!b.admits(Micros::from_ms(50.0), &mut c));
        assert_eq!(c.breaker_short_circuits, 1);
        // Past the cooldown: half-opens and admits a probe.
        assert!(b.admits(Micros::from_ms(121.0), &mut c));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.probing());
        assert_eq!(c.breaker_half_opens, 1);
        // Successful probe closes.
        b.record_success(&mut c);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(c.breaker_closes, 1);
        // A success resets the consecutive-failure count.
        b.record_failure(Micros::from_ms(130.0), &mut c);
        b.record_success(&mut c);
        b.record_failure(Micros::from_ms(140.0), &mut c);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut c = OverloadCounters::default();
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown_ms: 50.0,
            half_open_probes: 2,
        });
        b.record_failure(Micros::ZERO, &mut c);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admits(Micros::from_ms(60.0), &mut c));
        // One probe success is not enough at half_open_probes = 2.
        b.record_success(&mut c);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure(Micros::from_ms(70.0), &mut c);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(c.breaker_opens, 2);
        assert_eq!(c.breaker_closes, 0);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut c = OverloadCounters::default();
        let mut b = CircuitBreaker::new(BreakerPolicy::disabled());
        for i in 0..10 {
            b.record_failure(Micros::from_ms(i as f64), &mut c);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits(Micros::ZERO, &mut c));
        assert_eq!(c.breaker_opens, 0);
    }

    #[test]
    fn counters_absorb() {
        let a = OverloadCounters {
            admitted: 2,
            shed_queue_full: 1,
            shed_predicted_miss: 3,
            cancelled_attempts: 4,
            peak_queue_depth: 7,
            breaker_opens: 1,
            breaker_closes: 1,
            breaker_half_opens: 2,
            breaker_short_circuits: 5,
        };
        let mut b = OverloadCounters {
            peak_queue_depth: 9,
            ..OverloadCounters::default()
        };
        b.absorb(&a);
        assert_eq!(b.admitted, 2);
        assert_eq!(b.shed(), 4);
        assert_eq!(b.peak_queue_depth, 9, "peak is a max, not a sum");
        b.absorb(&a);
        assert_eq!(b.shed(), 8);
        assert_eq!(b.breaker_short_circuits, 10);
    }

    #[test]
    fn env_parsing_round_trips_defaults() {
        // Driven through a closure, never the process environment.
        assert_eq!(OverloadPolicy::from_lookup(&|_| None), Ok(None));
        let only = |name: &str| (name == "GILLIS_OVERLOAD_CONCURRENCY").then(|| "3".to_string());
        let policy = OverloadPolicy::from_lookup(&only).unwrap().unwrap();
        assert_eq!(
            policy,
            OverloadPolicy {
                queue_depth: 6,
                ..OverloadPolicy::unprotected(3)
            }
        );
    }

    #[test]
    fn deadline_at_arrivals() {
        let p = OverloadPolicy::for_slo(100.0, 2);
        assert_eq!(
            p.deadline_at(Micros::from_ms(50.0)),
            Some(Micros::from_ms(150.0))
        );
        assert_eq!(
            OverloadPolicy::unprotected(2).deadline_at(Micros::ZERO),
            None
        );
    }
}
