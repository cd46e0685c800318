//! Deterministic fault injection and resilience policies.
//!
//! Gillis's fork-join pattern multiplies the per-query invocation count, so
//! one flaky or slow worker inflates every query (paper §III/§V-C). This
//! module provides the two halves needed to *measure* mitigation policies
//! against injected faults:
//!
//! - [`FaultInjector`] — samples per-invocation faults (invocation failure,
//!   mid-compute crash, straggler slowdown, transfer corruption) as a *pure
//!   function* of a seed and the invocation's identity
//!   ([`FaultSite`]: query, group, partition, attempt, lane). Because no
//!   shared RNG stream is consumed, the fault pattern is bit-identical
//!   however the run is threaded or replayed.
//! - [`ResiliencePolicy`] — what the master does about faults: retry budget,
//!   exponential backoff with deterministic jitter, per-attempt timeouts
//!   derived from the predicted latency, hedged (speculative duplicate)
//!   requests, and local-fallback degradation when the budget is exhausted.
//!   The backoff, timeout and hedge shapes are constants; a policy switches
//!   them on or off.
//!
//! [`ResilienceCounters`] accumulates the honest outcome accounting
//! (ok/degraded/failed queries, retries, hedges, hedge wins, timeouts) that
//! replaced the old "final attempt always succeeds" fiction in the serving
//! runtime.

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::{family, parse};
use crate::Result;

/// splitmix64 finalizer: the workspace-standard seed scrambler. A keyed
/// stream position is `splitmix64(seed + index · multiplier)`, each stream
/// with its own odd multiplier (`replication_seed` in `gillis-core`,
/// [`crate::batch::BatchPolicy::class_of`]).
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity of one worker execution — the key fault sampling hashes.
///
/// `lane` distinguishes the primary execution (0) from its hedge (1) so a
/// hedge can draw an independent fault for the same attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// Query index within the run.
    pub query: u64,
    /// Plan group index.
    pub group: u32,
    /// Partition index within the group.
    pub part: u32,
    /// Retry attempt (0 = first try).
    pub attempt: u32,
    /// 0 = primary, 1 = hedge.
    pub lane: u32,
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The invocation never starts (platform-level error, detected after
    /// the invocation jitter).
    InvokeFailure,
    /// The worker crashes mid-compute after `work_done` of its compute
    /// (fraction in `(0, 1)`); the partial duration is still billed.
    Crash {
        /// Fraction of the compute finished before the crash.
        work_done: f64,
    },
    /// The worker runs to completion but `slowdown`× slower than normal.
    Straggler {
        /// Compute-time multiplier (≥ 1).
        slowdown: f64,
    },
    /// The worker completes but its response is corrupted in transfer; the
    /// master detects it at the join and must treat the attempt as failed.
    Corrupt,
}

/// Fault-injection knobs. All rates are per worker *execution* (an attempt
/// or a hedge), mutually exclusive, and must sum to at most 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed driving every fault decision (splitmix64-hashed with the site).
    pub seed: u64,
    /// Probability an invocation fails outright.
    pub invoke_failure_rate: f64,
    /// Probability the worker crashes mid-compute.
    pub crash_rate: f64,
    /// Probability the worker straggles.
    pub straggler_rate: f64,
    /// Compute-time multiplier for a straggling worker (≥ 1); the actual
    /// slowdown is drawn deterministically between half and full effect.
    pub straggler_slowdown: f64,
    /// Probability the response is corrupted in transfer.
    pub corrupt_rate: f64,
    /// Probability the *orchestrator* (the fork-join master or a pipeline
    /// stage orchestrator) crashes at a stage boundary, per boundary
    /// crossed. Sampled on a separate pure hash keyed by
    /// `(query, boundary, incarnation)`, so it is independent of the
    /// worker-fault rates above and not part of their mutual-exclusion sum.
    pub orchestrator_crash_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            invoke_failure_rate: 0.0,
            crash_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            corrupt_rate: 0.0,
            orchestrator_crash_rate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// Config that only fails invocations, at `rate`.
    pub fn invoke_only(rate: f64, seed: u64) -> Self {
        ChaosConfig {
            seed,
            invoke_failure_rate: rate,
            ..ChaosConfig::default()
        }
    }

    /// Validates the config and builds the injector.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] when a rate is outside
    /// `[0, 1]`, the rates sum past 1, or the slowdown is below 1.
    pub fn build(self) -> Result<FaultInjector> {
        let rates = [
            self.invoke_failure_rate,
            self.crash_rate,
            self.straggler_rate,
            self.corrupt_rate,
        ];
        if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err(FaasError::InvalidArgument(format!(
                "chaos rates must each be in [0, 1]: {self:?}"
            )));
        }
        if rates.iter().sum::<f64>() > 1.0 + 1e-12 {
            return Err(FaasError::InvalidArgument(format!(
                "chaos rates must sum to at most 1: {self:?}"
            )));
        }
        // NaN-rejecting comparison: NaN fails the `>= 1` requirement.
        if self.straggler_slowdown.partial_cmp(&1.0) == Some(std::cmp::Ordering::Less)
            || self.straggler_slowdown.is_nan()
        {
            return Err(FaasError::InvalidArgument(format!(
                "straggler slowdown must be >= 1: {}",
                self.straggler_slowdown
            )));
        }
        if !(0.0..=1.0).contains(&self.orchestrator_crash_rate) {
            return Err(FaasError::InvalidArgument(format!(
                "orchestrator crash rate must be in [0, 1]: {}",
                self.orchestrator_crash_rate
            )));
        }
        Ok(FaultInjector { cfg: self })
    }
}

family! {
    ChaosConfig, "chaos", env;
    base ChaosConfig { seed: 0xC4A0_5EED, ..ChaosConfig::default() };
    check |c: &ChaosConfig| c.build().map(drop);
    off |c: &ChaosConfig| c.invoke_failure_rate <= 0.0;
    "GILLIS_CHAOS_RATE", "", "unset",
        "total worker fault rate (40% invoke failures / 40% crashes / 20% corruption); \
         enables fault injection" => {
            // Environment-only: the text form carries the split rates. A NaN
            // or non-positive total leaves every rate at zero (chaos off).
            |p, raw| parse(raw).map(|total: f64| {
                let r = if total > 0.0 { total.min(1.0) } else { 0.0 };
                (p.invoke_failure_rate, p.crash_rate, p.corrupt_rate) = (0.4 * r, 0.4 * r, 0.2 * r);
            }),
            |_| String::new()
        };
    "GILLIS_CHAOS_SEED", "seed", "`0xC4A05EED`", "fault-sampling seed" => [seed];
    "", "invoke_failure_rate", "0", "probability an invocation fails" => [invoke_failure_rate];
    "", "crash_rate", "0", "probability a worker crashes mid-compute" => [crash_rate];
    "", "straggler_rate", "0", "probability a worker straggles" => [straggler_rate];
    "", "straggler_slowdown", "4", "straggler compute multiplier" => [straggler_slowdown];
    "", "corrupt_rate", "0", "probability a response is corrupted" => [corrupt_rate];
    "GILLIS_CHAOS_ORCH_RATE", "orchestrator_crash_rate", "0",
        "orchestrator crash probability per stage boundary" => [orchestrator_crash_rate];
}

/// Salt constants separating the independent per-site decisions.
mod salt {
    pub const KIND: u64 = 0x11;
    pub const CRASH_FRAC: u64 = 0x22;
    pub const SLOWDOWN: u64 = 0x33;
    pub const BACKOFF: u64 = 0x44;
    pub const ORCH: u64 = 0x77;
}

/// Cap on the effective (outage-scaled) orchestrator crash probability at
/// one boundary. Without it a severe episode would drive the probability to
/// 1 and every incarnation would crash again forever — the simulated query
/// could never make progress.
const ORCH_CRASH_PROB_CAP: f64 = 0.75;

/// Seedable, deterministic fault sampler: every decision is a pure function
/// of `(config.seed, site)`, so runs are bit-identical across thread counts
/// and the same site re-queried always faults the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    cfg: ChaosConfig,
}

impl FaultInjector {
    /// The config this injector samples from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    fn word(&self, site: FaultSite, salt: u64) -> u64 {
        let mut h = splitmix64(self.cfg.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix64(h ^ site.query);
        h = splitmix64(
            h ^ (((site.group as u64) << 40)
                | ((site.part as u64) << 16)
                | ((site.lane as u64) << 8)),
        );
        splitmix64(h ^ site.attempt as u64)
    }

    fn unit(&self, site: FaultSite, salt: u64) -> f64 {
        (self.word(site, salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Samples the fault (if any) of one worker execution.
    pub fn fault(&self, site: FaultSite) -> Option<Fault> {
        self.fault_with_rates(
            site,
            self.cfg.invoke_failure_rate,
            self.cfg.crash_rate,
            self.cfg.corrupt_rate,
            self.cfg.straggler_rate,
        )
    }

    /// [`Self::fault`] with the invoke-failure and straggler rates scaled by
    /// an outage-episode multiplier (see [`OutageModel::multiplier`]).
    ///
    /// `mult <= 1` takes exactly the [`Self::fault`] path — outside an
    /// episode the sampler is bit-identical to the per-site baseline. Inside
    /// one, the scaled rates are renormalized to sum at most 1, so a severe
    /// episode saturates into near-certain failure instead of overflowing
    /// the unit interval. The same hash word decides either way: scaling
    /// only moves the thresholds, never the draw.
    pub fn fault_scaled(&self, site: FaultSite, mult: f64) -> Option<Fault> {
        if mult <= 1.0 {
            return self.fault(site);
        }
        let mut invoke = self.cfg.invoke_failure_rate * mult;
        let mut crash = self.cfg.crash_rate;
        let mut corrupt = self.cfg.corrupt_rate;
        let mut straggler = self.cfg.straggler_rate * mult;
        let total = invoke + crash + corrupt + straggler;
        if total > 1.0 {
            let s = 1.0 / total;
            invoke *= s;
            crash *= s;
            corrupt *= s;
            straggler *= s;
        }
        self.fault_with_rates(site, invoke, crash, corrupt, straggler)
    }

    fn fault_with_rates(
        &self,
        site: FaultSite,
        invoke: f64,
        crash: f64,
        corrupt: f64,
        straggler: f64,
    ) -> Option<Fault> {
        let u = self.unit(site, salt::KIND);
        let mut acc = invoke;
        if u < acc {
            return Some(Fault::InvokeFailure);
        }
        acc += crash;
        if u < acc {
            // Crash somewhere in the middle 15%–85% of the compute.
            let work_done = 0.15 + 0.7 * self.unit(site, salt::CRASH_FRAC);
            return Some(Fault::Crash { work_done });
        }
        acc += corrupt;
        if u < acc {
            return Some(Fault::Corrupt);
        }
        acc += straggler;
        if u < acc {
            let excess = self.cfg.straggler_slowdown - 1.0;
            let slowdown = 1.0 + excess * (0.5 + 0.5 * self.unit(site, salt::SLOWDOWN));
            return Some(Fault::Straggler { slowdown });
        }
        None
    }

    /// Deterministic `U[0, 1)` draw used for backoff jitter at this site.
    pub fn backoff_unit(&self, site: FaultSite) -> f64 {
        self.unit(site, salt::BACKOFF)
    }

    /// Whether the orchestrator crashes at `boundary` (the stage index just
    /// completed) of `query`, on its `incarnation`-th life. A pure function
    /// of `(seed, query, boundary, incarnation)` that consumes no RNG
    /// stream, so crash injection never shifts the draws of the work around
    /// it — the property the failover-replay bit-identity proptests pin.
    ///
    /// `mult` is the outage-episode severity multiplier for the
    /// orchestrator domain (`1.0` outside episodes); the scaled probability
    /// is capped below 1 so a crashed orchestrator's replacement can always
    /// eventually make progress.
    pub fn orchestrator_crash(
        &self,
        query: u64,
        boundary: u32,
        incarnation: u32,
        mult: f64,
    ) -> bool {
        let rate = self.cfg.orchestrator_crash_rate;
        if rate <= 0.0 {
            return false;
        }
        let p = (rate * mult.max(1.0)).min(ORCH_CRASH_PROB_CAP);
        let site = FaultSite {
            query,
            group: boundary,
            part: 0,
            attempt: incarnation,
            lane: 2,
        };
        self.unit(site, salt::ORCH) < p
    }
}

/// One correlated-failure blast radius. Outage episodes are sampled per
/// domain, so one episode elevates fault rates across every execution the
/// domain covers *simultaneously* — the correlated shape that i.i.d.
/// per-site sampling cannot produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// The whole platform: every worker lane at once.
    Platform,
    /// The orchestrator tier: the fork-join master and pipeline stage
    /// orchestrators. An episode here scales the orchestrator *crash* rate,
    /// not worker-lane faults — the control plane itself is the blast
    /// radius.
    Orchestrator,
}

impl FaultDomain {
    /// Stable 64-bit id hashed into episode sampling.
    fn id(self) -> u64 {
        match self {
            FaultDomain::Platform => 0x01,
            FaultDomain::Orchestrator => 0x0F,
        }
    }
}

/// Correlated-outage knobs: a deterministic Markov on/off episode model per
/// fault domain. Virtual time is quantized into windows of `window_ms`; in
/// each window each enabled domain independently *starts* an episode with
/// probability `start_prob`, whose length is drawn between `min_windows`
/// and `max_windows`. While any covering episode is active the domain is
/// "in outage": the platform domain multiplies worker invoke-failure and
/// straggler rates by `severity`, the orchestrator domain the orchestrator
/// crash rate (both compound for an orchestrator).
///
/// Episode membership is a pure function of `(seed, domain id, window
/// index)` — no state machine is stepped, so any thread can ask about any
/// instant in any order and get the same answer (the determinism the
/// serving proptests pin across `GILLIS_THREADS` {1, 2, 8}).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageConfig {
    /// Seed driving episode starts and lengths (independent of the chaos
    /// seed so outages can be re-rolled without moving per-site faults).
    pub seed: u64,
    /// Virtual-time window size in milliseconds; episode state is constant
    /// within a window.
    pub window_ms: f64,
    /// Per-window probability that a domain starts a new episode.
    pub start_prob: f64,
    /// Minimum episode length, in windows (≥ 1).
    pub min_windows: u32,
    /// Maximum episode length, in windows (≥ `min_windows`).
    pub max_windows: u32,
    /// Multiplier applied to invoke-failure and straggler rates per active
    /// domain (≥ 1).
    pub severity: f64,
    /// Enables the platform-wide domain.
    pub platform: bool,
    /// Enables the orchestrator domain: episodes scale the chaos config's
    /// orchestrator crash rate (see
    /// [`FaultInjector::orchestrator_crash`]) instead of worker-lane
    /// fault rates.
    pub orchestrators: bool,
}

impl Default for OutageConfig {
    fn default() -> Self {
        OutageConfig {
            seed: 0x007A_6E5E,
            window_ms: 250.0,
            start_prob: 0.02,
            min_windows: 4,
            max_windows: 16,
            severity: 8.0,
            platform: true,
            orchestrators: false,
        }
    }
}

impl OutageConfig {
    /// Preset for severe correlated outages: long platform-wide episodes
    /// at `severity`× fault rates, covering a large fraction of the run.
    pub fn severe(severity: f64, seed: u64) -> Self {
        OutageConfig {
            seed,
            window_ms: 200.0,
            start_prob: 0.08,
            min_windows: 10,
            max_windows: 25,
            severity,
            platform: true,
            orchestrators: false,
        }
    }

    /// Validates the config and builds the episode model.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for a non-positive window, a
    /// start probability outside `[0, 1]`, inverted or zero length bounds,
    /// an overlong lookback (`max_windows` > 4096), a severity below 1, or
    /// no enabled domain.
    pub fn build(self) -> Result<OutageModel> {
        if self.window_ms <= 0.0 || !self.window_ms.is_finite() {
            return Err(FaasError::InvalidArgument(format!(
                "outage window_ms must be positive and finite: {}",
                self.window_ms
            )));
        }
        if !(0.0..=1.0).contains(&self.start_prob) {
            return Err(FaasError::InvalidArgument(format!(
                "outage start_prob must be in [0, 1]: {}",
                self.start_prob
            )));
        }
        if self.min_windows == 0 || self.min_windows > self.max_windows {
            return Err(FaasError::InvalidArgument(format!(
                "outage length bounds need 1 <= min <= max: {}..{}",
                self.min_windows, self.max_windows
            )));
        }
        if self.max_windows > 4096 {
            return Err(FaasError::InvalidArgument(format!(
                "outage max_windows is capped at 4096 (episode lookup is \
                 O(max_windows)): {}",
                self.max_windows
            )));
        }
        if self.severity < 1.0 || self.severity.is_nan() {
            return Err(FaasError::InvalidArgument(format!(
                "outage severity must be >= 1: {}",
                self.severity
            )));
        }
        if !(self.platform || self.orchestrators) {
            return Err(FaasError::InvalidArgument(
                "outage config enables no fault domain".to_string(),
            ));
        }
        Ok(OutageModel { cfg: self })
    }
}

family! {
    OutageConfig, "outage", env;
    base OutageConfig::default();
    check |c: &OutageConfig| c.build().map(drop);
    "GILLIS_OUTAGE_SEVERITY", "severity", "unset",
        "episode fault-rate multiplier (≥ 1); enables outage episodes" => [severity];
    "GILLIS_OUTAGE_SEED", "seed", "`0x7A6E5E`",
        "episode-schedule seed (independent of the chaos seed)" => [seed];
    "GILLIS_OUTAGE_WINDOW_MS", "window_ms", "250", "episode time-window size" => [window_ms];
    "GILLIS_OUTAGE_START_PROB", "start_prob", "0.02",
        "per-window episode-start probability" => [start_prob];
    "GILLIS_OUTAGE_MIN_WINDOWS", "min_windows", "4", "shortest episode (windows)" => [min_windows];
    "GILLIS_OUTAGE_MAX_WINDOWS", "max_windows", "16", "longest episode (windows)" => [max_windows];
    "GILLIS_OUTAGE_DOMAINS", "domains", "`platform`",
        "comma list of fault domains: `platform`, `orchestrator`" => {
            |p, raw| {
                (p.platform, p.orchestrators) = Default::default();
                for name in raw.split(',').map(str::trim).filter(|d| !d.is_empty()) {
                    match name {
                        "platform" => p.platform = true,
                        "orchestrator" | "orchestrators" | "orch" => p.orchestrators = true,
                        other => return Err(format!(
                            "unknown domain {other:?} (platform | orchestrator)"
                        )),
                    }
                }
                Ok(())
            },
            |p| {
                let domains = [(p.platform, "platform"), (p.orchestrators, "orchestrator")];
                let on: Vec<&str> = domains.iter().filter(|d| d.0).map(|d| d.1).collect();
                on.join(",")
            }
        };
}

/// Salt constants for the independent per-(domain, window) decisions.
mod outage_salt {
    pub const START: u64 = 0x55;
    pub const LEN: u64 = 0x66;
}

/// Validated outage-episode sampler (see [`OutageConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageModel {
    cfg: OutageConfig,
}

impl OutageModel {
    /// The config this model samples from.
    pub fn config(&self) -> &OutageConfig {
        &self.cfg
    }

    fn word(&self, domain: u64, window: u64, salt: u64) -> u64 {
        let mut h = splitmix64(self.cfg.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix64(h ^ domain);
        splitmix64(h ^ window)
    }

    fn starts_at(&self, domain: u64, window: u64) -> bool {
        let u = (self.word(domain, window, outage_salt::START) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.cfg.start_prob
    }

    fn episode_len(&self, domain: u64, window: u64) -> u64 {
        let span = u64::from(self.cfg.max_windows - self.cfg.min_windows) + 1;
        u64::from(self.cfg.min_windows) + self.word(domain, window, outage_salt::LEN) % span
    }

    /// Whether `domain` is inside an outage episode at virtual time `t_ms`.
    ///
    /// An episode started in window `s` covers windows `[s, s + len)`, so
    /// membership needs only a bounded lookback of `max_windows` starts —
    /// each itself a pure hash — keeping the query stateless.
    pub fn in_episode(&self, domain: FaultDomain, t_ms: f64) -> bool {
        let id = domain.id();
        let w = (t_ms.max(0.0) / self.cfg.window_ms) as u64;
        let lo = w.saturating_sub(u64::from(self.cfg.max_windows) - 1);
        (lo..=w).any(|s| self.starts_at(id, s) && s + self.episode_len(id, s) > w)
    }

    /// Severity multiplier for a worker-lane execution at `t_ms`: the
    /// configured severity while an enabled platform episode is active,
    /// `1.0` outside it (the orchestrator domain does not cover workers).
    pub fn multiplier(&self, t_ms: f64) -> f64 {
        let mut m = 1.0;
        if self.cfg.platform && self.in_episode(FaultDomain::Platform, t_ms) {
            m *= self.cfg.severity;
        }
        m
    }

    /// Severity multiplier for an orchestrator crash decision at `t_ms`:
    /// the product of the platform and orchestrator domains' severities
    /// while their episodes are active. `1.0` outside all episodes.
    pub fn orchestrator_multiplier(&self, t_ms: f64) -> f64 {
        let mut m = 1.0;
        if self.cfg.platform && self.in_episode(FaultDomain::Platform, t_ms) {
            m *= self.cfg.severity;
        }
        if self.cfg.orchestrators && self.in_episode(FaultDomain::Orchestrator, t_ms) {
            m *= self.cfg.severity;
        }
        m
    }
}

/// Backoff before the first retry, in milliseconds.
pub const BACKOFF_BASE_MS: f64 = 2.0;
/// Multiplier applied to the backoff per further retry.
pub const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Upper bound on a single backoff, in milliseconds.
pub const BACKOFF_CAP_MS: f64 = 60.0;
/// Backoff jitter fraction `f`: a backoff `b` becomes
/// `b × (1 − f/2 + f × u)` for a deterministic `u ∈ [0, 1)`.
pub const BACKOFF_JITTER_FRAC: f64 = 0.5;
/// Per-attempt timeout, × the attempt's predicted p95.
pub const ATTEMPT_TIMEOUT_FACTOR: f64 = 10.0;
/// Hedge launch delay, × the attempt's predicted p95.
pub const HEDGE_DELAY_FACTOR: f64 = 1.0;

/// What the master does about worker faults.
///
/// Timeouts and hedge delays are multiples of the *predicted* p95 latency
/// of the attempt (compute prediction plus invocation-jitter quantile), so
/// they transfer across partitions of very different sizes. Their shapes
/// are the constants above; a policy switches each mechanism on or off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Total attempts per worker partition, including the first (≥ 1).
    pub max_attempts: u32,
    /// Exponential backoff with deterministic jitter between attempts
    /// ([`BACKOFF_BASE_MS`] × [`BACKOFF_MULTIPLIER`]ⁿ, capped at
    /// [`BACKOFF_CAP_MS`]), and per-attempt timeouts at
    /// [`ATTEMPT_TIMEOUT_FACTOR`] × the attempt p95. Off: retries launch at
    /// once and an attempt is never abandoned.
    pub backoff: bool,
    /// Hedged requests: a duplicate of an attempt still running
    /// [`HEDGE_DELAY_FACTOR`] × its p95 after launch runs on a second
    /// instance, first result wins.
    pub hedge: bool,
    /// On retry-budget exhaustion, the master recomputes the shard locally
    /// (degrading that group to single-function semantics) instead of
    /// failing the query.
    pub local_fallback: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::backoff()
    }
}

impl ResiliencePolicy {
    /// No resilience at all: one attempt, no hedge; failures degrade to a
    /// master-local recompute.
    pub fn none() -> Self {
        ResiliencePolicy {
            max_attempts: 1,
            backoff: false,
            hedge: false,
            local_fallback: true,
        }
    }

    /// Naive immediate retry (the pre-resilience behaviour, minus the
    /// "final attempt always succeeds" fiction): four attempts, no backoff,
    /// no timeout, no hedge.
    pub fn naive_retry() -> Self {
        ResiliencePolicy {
            max_attempts: 4,
            ..ResiliencePolicy::none()
        }
    }

    /// Exponential backoff with deterministic jitter and per-attempt
    /// timeouts — the default.
    pub fn backoff() -> Self {
        ResiliencePolicy {
            max_attempts: 4,
            backoff: true,
            hedge: false,
            local_fallback: true,
        }
    }

    /// Backoff plus hedged requests: a speculative duplicate is launched
    /// once an attempt exceeds its predicted p95, first result wins.
    pub fn backoff_hedged() -> Self {
        ResiliencePolicy {
            hedge: true,
            ..ResiliencePolicy::backoff()
        }
    }

    /// Backoff before retry number `retry + 1` (zero-based retry index),
    /// jittered by a deterministic `unit ∈ [0, 1)`; zero without backoff.
    pub fn backoff_ms(&self, retry: u32, unit: f64) -> f64 {
        if !self.backoff {
            return 0.0;
        }
        let raw = BACKOFF_BASE_MS * BACKOFF_MULTIPLIER.powi(retry as i32);
        let capped = raw.min(BACKOFF_CAP_MS);
        let f = BACKOFF_JITTER_FRAC;
        capped * (1.0 - f / 2.0 + f * unit)
    }

    /// Timeout of an attempt whose predicted p95 is `p95_ms`: infinite
    /// without backoff.
    pub fn attempt_timeout_ms(&self, p95_ms: f64) -> f64 {
        if self.backoff {
            ATTEMPT_TIMEOUT_FACTOR * p95_ms
        } else {
            f64::INFINITY
        }
    }

    /// Validates the knob ranges (the presets are all valid by
    /// construction; this guards configs parsed from text).
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for zero attempts.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(FaasError::InvalidArgument(
                "resilience max_attempts must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

family! {
    ResiliencePolicy, "resilience";
    base ResiliencePolicy::default();
    check ResiliencePolicy::validate;
    "", "max_attempts", "4", "attempts per worker partition" => [max_attempts];
    "", "backoff", "true", "jittered exponential backoff and per-attempt timeouts" => [backoff];
    "", "hedge", "false", "hedge an attempt still running at its p95" => [hedge];
    "", "local_fallback", "true", "recompute an exhausted shard locally" => [local_fallback];
}

/// Terminal status of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryStatus {
    /// Every worker partition succeeded within its retry budget.
    Ok,
    /// At least one shard exhausted its budget and was recomputed locally
    /// by the master (correct result, degraded latency).
    Degraded,
    /// A shard exhausted its budget with local fallback disabled; the
    /// query produced no result.
    Failed,
    /// The admission queue rejected the query before any work started
    /// (queue full, or predicted wait + latency already past the deadline).
    Shed,
    /// The query was admitted but its deadline expired mid-plan; remaining
    /// work was cancelled.
    DeadlineExceeded,
}

/// Honest resilience accounting across a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// Retry attempts launched (beyond each worker's first attempt).
    pub retries: u64,
    /// Hedged (speculative duplicate) executions launched.
    pub hedges: u64,
    /// Hedges whose result was accepted over the primary's.
    pub hedge_wins: u64,
    /// Attempts abandoned at the per-attempt timeout.
    pub timeouts: u64,
    /// Shards recomputed locally by the master after budget exhaustion.
    pub degraded_shards: u64,
    /// Queries fully served by workers.
    pub ok_queries: u64,
    /// Queries that completed only via local fallback.
    pub degraded_queries: u64,
    /// Queries that produced no result.
    pub failed_queries: u64,
    /// Queries rejected at admission (overload shedding).
    pub shed_queries: u64,
    /// Queries cancelled mid-plan by deadline expiry.
    pub deadline_exceeded_queries: u64,
    /// Worker lanes launched: first attempts, retries, and hedges — the
    /// numerator of [`Self::retry_amplification`].
    pub worker_invocations: u64,
    /// First attempts launched (attempt 0, primary lane): one per worker
    /// partition a query actually dispatched.
    pub first_attempts: u64,
    /// First attempts that resolved successfully — the health signal the
    /// brownout ladder and retry-budget refill watch.
    pub first_attempt_successes: u64,
    /// Corrupted responses caught by the wire checksum at the join.
    pub corruptions_detected: u64,
    /// Retries skipped because the retry budget was exhausted.
    pub budget_denied_retries: u64,
    /// Hedges skipped because the retry budget was exhausted.
    pub budget_denied_hedges: u64,
}

impl ResilienceCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &ResilienceCounters) {
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
        self.timeouts += other.timeouts;
        self.degraded_shards += other.degraded_shards;
        self.ok_queries += other.ok_queries;
        self.degraded_queries += other.degraded_queries;
        self.failed_queries += other.failed_queries;
        self.shed_queries += other.shed_queries;
        self.deadline_exceeded_queries += other.deadline_exceeded_queries;
        self.worker_invocations += other.worker_invocations;
        self.first_attempts += other.first_attempts;
        self.first_attempt_successes += other.first_attempt_successes;
        self.corruptions_detected += other.corruptions_detected;
        self.budget_denied_retries += other.budget_denied_retries;
        self.budget_denied_hedges += other.budget_denied_hedges;
    }

    /// Worker invocations per first attempt (≥ 1 whenever anything ran):
    /// 1.0 when no retry or hedge ever launched; a naive retry storm under
    /// total failure approaches the policy's `max_attempts`. First attempts
    /// are admitted queries × dispatched worker lanes, so this is the
    /// per-lane form of the "invocations ÷ admitted queries" amplification.
    pub fn retry_amplification(&self) -> f64 {
        if self.first_attempts == 0 {
            return 1.0;
        }
        self.worker_invocations as f64 / self.first_attempts as f64
    }

    /// Records one query's terminal status.
    pub fn record_status(&mut self, status: QueryStatus) {
        match status {
            QueryStatus::Ok => self.ok_queries += 1,
            QueryStatus::Degraded => self.degraded_queries += 1,
            QueryStatus::Failed => self.failed_queries += 1,
            QueryStatus::Shed => self.shed_queries += 1,
            QueryStatus::DeadlineExceeded => self.deadline_exceeded_queries += 1,
        }
    }

    /// Total queries accounted for (including shed and deadline-expired).
    pub fn queries(&self) -> u64 {
        self.ok_queries
            + self.degraded_queries
            + self.failed_queries
            + self.shed_queries
            + self.deadline_exceeded_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(query: u64, attempt: u32) -> FaultSite {
        FaultSite {
            query,
            group: 1,
            part: 2,
            attempt,
            lane: 0,
        }
    }

    #[test]
    fn config_validation() {
        assert!(ChaosConfig::default().build().is_ok());
        assert!(ChaosConfig {
            invoke_failure_rate: 1.2,
            ..ChaosConfig::default()
        }
        .build()
        .is_err());
        assert!(ChaosConfig {
            invoke_failure_rate: 0.6,
            crash_rate: 0.6,
            ..ChaosConfig::default()
        }
        .build()
        .is_err());
        assert!(ChaosConfig {
            straggler_rate: 0.1,
            straggler_slowdown: 0.5,
            ..ChaosConfig::default()
        }
        .build()
        .is_err());
        assert!(ChaosConfig {
            invoke_failure_rate: f64::NAN,
            ..ChaosConfig::default()
        }
        .build()
        .is_err());
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let a = ChaosConfig {
            seed: 7,
            invoke_failure_rate: 0.2,
            crash_rate: 0.2,
            straggler_rate: 0.2,
            corrupt_rate: 0.2,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let b = ChaosConfig {
            seed: 8,
            ..*a.config()
        }
        .build()
        .unwrap();
        let sites: Vec<FaultSite> = (0..200).map(|q| site(q, 0)).collect();
        let fa: Vec<_> = sites.iter().map(|&s| a.fault(s)).collect();
        let fa2: Vec<_> = sites.iter().map(|&s| a.fault(s)).collect();
        assert_eq!(fa, fa2, "same seed + site must fault identically");
        let fb: Vec<_> = sites.iter().map(|&s| b.fault(s)).collect();
        assert_ne!(fa, fb, "different seeds should differ somewhere");
    }

    #[test]
    fn fault_rates_are_respected() {
        let inj = ChaosConfig {
            seed: 3,
            invoke_failure_rate: 0.1,
            crash_rate: 0.1,
            straggler_rate: 0.1,
            corrupt_rate: 0.1,
            straggler_slowdown: 4.0,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let n = 20_000u64;
        let mut counts = [0u64; 5];
        for q in 0..n {
            match inj.fault(site(q, 0)) {
                None => counts[0] += 1,
                Some(Fault::InvokeFailure) => counts[1] += 1,
                Some(Fault::Crash { work_done }) => {
                    assert!((0.15..=0.85).contains(&work_done));
                    counts[2] += 1;
                }
                Some(Fault::Straggler { slowdown }) => {
                    assert!((1.0..=4.0).contains(&slowdown));
                    counts[3] += 1;
                }
                Some(Fault::Corrupt) => counts[4] += 1,
            }
        }
        assert!((counts[0] as f64 / n as f64 - 0.6).abs() < 0.02);
        for &c in &counts[1..] {
            assert!(
                (c as f64 / n as f64 - 0.1).abs() < 0.01,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn lanes_and_attempts_are_independent() {
        let inj = ChaosConfig {
            seed: 5,
            invoke_failure_rate: 0.5,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let primary: Vec<_> = (0..200)
            .map(|q| {
                inj.fault(FaultSite {
                    lane: 0,
                    ..site(q, 0)
                })
            })
            .collect();
        let hedge: Vec<_> = (0..200)
            .map(|q| {
                inj.fault(FaultSite {
                    lane: 1,
                    ..site(q, 0)
                })
            })
            .collect();
        let retry: Vec<_> = (0..200).map(|q| inj.fault(site(q, 1))).collect();
        assert_ne!(primary, hedge);
        assert_ne!(primary, retry);
    }

    #[test]
    fn backoff_schedule_grows_and_caps() {
        let p = ResiliencePolicy::backoff();
        let b0 = p.backoff_ms(0, 0.5);
        let b1 = p.backoff_ms(1, 0.5);
        let b9 = p.backoff_ms(9, 0.5);
        assert!(b0 > 0.0 && b1 > b0);
        assert!(b9 <= BACKOFF_CAP_MS * (1.0 + BACKOFF_JITTER_FRAC / 2.0));
        // Jitter brackets the nominal value.
        assert!(p.backoff_ms(0, 0.0) < p.backoff_ms(0, 0.999));
        // Naive retry never waits.
        assert_eq!(ResiliencePolicy::naive_retry().backoff_ms(3, 0.7), 0.0);
    }

    #[test]
    fn policy_presets() {
        assert_eq!(ResiliencePolicy::none().max_attempts, 1);
        assert!(!ResiliencePolicy::backoff().hedge);
        assert!(ResiliencePolicy::backoff_hedged().hedge);
        // Timeouts come with backoff; naive retry never abandons an attempt.
        assert_eq!(ResiliencePolicy::backoff().attempt_timeout_ms(3.0), 30.0);
        assert_eq!(
            ResiliencePolicy::naive_retry().attempt_timeout_ms(3.0),
            f64::INFINITY
        );
        assert_eq!(
            ResiliencePolicy::default(),
            ResiliencePolicy::backoff(),
            "default policy is plain backoff"
        );
    }

    #[test]
    fn counters_absorb_and_account() {
        let mut a = ResilienceCounters {
            retries: 1,
            hedges: 2,
            worker_invocations: 9,
            first_attempts: 6,
            first_attempt_successes: 5,
            corruptions_detected: 3,
            budget_denied_retries: 2,
            budget_denied_hedges: 1,
            ..ResilienceCounters::default()
        };
        a.record_status(QueryStatus::Ok);
        a.record_status(QueryStatus::Degraded);
        a.record_status(QueryStatus::Failed);
        let mut b = ResilienceCounters::default();
        b.absorb(&a);
        b.absorb(&a);
        assert_eq!(b.retries, 2);
        assert_eq!(b.hedges, 4);
        assert_eq!(b.queries(), 6);
        assert_eq!(b.ok_queries, 2);
        assert_eq!(b.degraded_queries, 2);
        assert_eq!(b.failed_queries, 2);
        assert_eq!(b.worker_invocations, 18);
        assert_eq!(b.first_attempts, 12);
        assert_eq!(b.first_attempt_successes, 10);
        assert_eq!(b.corruptions_detected, 6);
        assert_eq!(b.budget_denied_retries, 4);
        assert_eq!(b.budget_denied_hedges, 2);
        // Amplification absorbs correctly too: the ratio of sums.
        assert!((b.retry_amplification() - 1.5).abs() < 1e-12);
        assert_eq!(ResilienceCounters::default().retry_amplification(), 1.0);
    }

    #[test]
    fn scaled_sampling_matches_baseline_at_unit_multiplier() {
        let inj = ChaosConfig {
            seed: 17,
            invoke_failure_rate: 0.1,
            crash_rate: 0.1,
            straggler_rate: 0.1,
            corrupt_rate: 0.1,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        for q in 0..500 {
            let s = site(q, 0);
            assert_eq!(inj.fault_scaled(s, 1.0), inj.fault(s));
            assert_eq!(inj.fault_scaled(s, 0.5), inj.fault(s));
        }
    }

    #[test]
    fn scaled_sampling_raises_failure_and_saturates() {
        let inj = ChaosConfig {
            seed: 23,
            invoke_failure_rate: 0.05,
            straggler_rate: 0.05,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let n = 10_000u64;
        let faulted = |mult: f64| {
            (0..n)
                .filter(|&q| inj.fault_scaled(site(q, 0), mult).is_some())
                .count() as f64
                / n as f64
        };
        let base = faulted(1.0);
        let stormy = faulted(8.0);
        assert!((base - 0.1).abs() < 0.02, "{base}");
        assert!((stormy - 0.8).abs() < 0.02, "{stormy}");
        // Past saturation the renormalized rates sum to 1: everything faults.
        assert!((faulted(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outage_episodes_are_pure_and_cover_expected_fraction() {
        let model = OutageConfig {
            seed: 11,
            window_ms: 100.0,
            start_prob: 0.05,
            min_windows: 5,
            max_windows: 10,
            severity: 10.0,
            platform: true,
            orchestrators: true,
        }
        .build()
        .unwrap();
        // Stateless: any instant queried twice (or in any order) agrees.
        let probes: Vec<f64> = (0..2000).map(|i| i as f64 * 37.7).collect();
        let fwd: Vec<bool> = probes
            .iter()
            .map(|&t| model.in_episode(FaultDomain::Platform, t))
            .collect();
        let rev: Vec<bool> = probes
            .iter()
            .rev()
            .map(|&t| model.in_episode(FaultDomain::Platform, t))
            .collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
        assert!(fwd.iter().any(|&b| b), "episodes should occur");
        assert!(!fwd.iter().all(|&b| b), "episodes should end");
        // Coverage roughly matches start_prob × mean length (geometric-ish;
        // overlaps make it sub-additive, so allow a wide band).
        // The share of the first 5,000 windows that lie in an episode.
        let mid_window = |w: u32| (f64::from(w) + 0.5) * 100.0;
        let active = (0..5000).filter(|&w| model.in_episode(FaultDomain::Platform, mid_window(w)));
        let frac = active.count() as f64 / 5000.0;
        assert!((0.1..=0.6).contains(&frac), "{frac}");
        // Domains are independent: the orchestrator domain differs somewhere.
        let orch: Vec<bool> = probes
            .iter()
            .map(|&t| model.in_episode(FaultDomain::Orchestrator, t))
            .collect();
        assert_ne!(fwd, orch);
        // The platform episode scales worker faults by the severity.
        let t_active = probes[fwd.iter().position(|&b| b).unwrap()];
        assert_eq!(model.multiplier(t_active), 10.0);
    }

    #[test]
    fn outage_config_validation() {
        assert!(OutageConfig::default().build().is_ok());
        assert!(OutageConfig {
            window_ms: 0.0,
            ..OutageConfig::default()
        }
        .build()
        .is_err());
        assert!(OutageConfig {
            start_prob: 1.5,
            ..OutageConfig::default()
        }
        .build()
        .is_err());
        assert!(OutageConfig {
            min_windows: 5,
            max_windows: 4,
            ..OutageConfig::default()
        }
        .build()
        .is_err());
        assert!(OutageConfig {
            severity: 0.5,
            ..OutageConfig::default()
        }
        .build()
        .is_err());
        assert!(OutageConfig {
            platform: false,
            ..OutageConfig::default()
        }
        .build()
        .is_err());
    }

    #[test]
    fn orchestrator_crashes_are_pure_rate_respecting_and_capped() {
        let inj = ChaosConfig {
            seed: 41,
            orchestrator_crash_rate: 0.1,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        let n = 20_000u64;
        let crashed = |mult: f64| {
            (0..n)
                .filter(|&q| inj.orchestrator_crash(q, 1, 0, mult))
                .count() as f64
                / n as f64
        };
        assert!((crashed(1.0) - 0.1).abs() < 0.01);
        // Outage scaling raises the probability but saturates at the cap.
        assert!((crashed(4.0) - 0.4).abs() < 0.015);
        assert!((crashed(100.0) - 0.75).abs() < 0.015);
        // Pure: the same (query, boundary, incarnation) always agrees, and
        // each coordinate is independent.
        for q in 0..200 {
            assert_eq!(
                inj.orchestrator_crash(q, 2, 1, 1.0),
                inj.orchestrator_crash(q, 2, 1, 1.0)
            );
        }
        let by_boundary: Vec<bool> = (0..200)
            .map(|q| inj.orchestrator_crash(q, 0, 0, 8.0))
            .collect();
        let other_boundary: Vec<bool> = (0..200)
            .map(|q| inj.orchestrator_crash(q, 1, 0, 8.0))
            .collect();
        let other_incarnation: Vec<bool> = (0..200)
            .map(|q| inj.orchestrator_crash(q, 0, 1, 8.0))
            .collect();
        assert_ne!(by_boundary, other_boundary);
        assert_ne!(by_boundary, other_incarnation);
        // Worker-fault sampling is untouched by the orchestrator rate.
        let plain = ChaosConfig {
            seed: 41,
            ..ChaosConfig::default()
        }
        .build()
        .unwrap();
        for q in 0..200 {
            assert_eq!(inj.fault(site(q, 0)), plain.fault(site(q, 0)));
        }
        // A zero rate never crashes, whatever the multiplier.
        assert!((0..200).all(|q| !plain.orchestrator_crash(q, 0, 0, 100.0)));
        // Validation rejects out-of-range rates.
        assert!(ChaosConfig {
            orchestrator_crash_rate: 1.5,
            ..ChaosConfig::default()
        }
        .build()
        .is_err());
        assert!(ChaosConfig {
            orchestrator_crash_rate: f64::NAN,
            ..ChaosConfig::default()
        }
        .build()
        .is_err());
    }

    #[test]
    fn orchestrator_outage_domain_scales_crashes_only() {
        let model = OutageConfig {
            seed: 19,
            platform: false,
            orchestrators: true,
            ..OutageConfig::default()
        }
        .build()
        .unwrap();
        let active: Vec<f64> = (0..4000)
            .map(|i| i as f64 * 41.3)
            .filter(|&t| model.in_episode(FaultDomain::Orchestrator, t))
            .collect();
        assert!(!active.is_empty(), "orchestrator episodes should occur");
        let t = active[0];
        assert_eq!(model.orchestrator_multiplier(t), model.config().severity);
        // Worker-lane executions are not covered by the orchestrator domain.
        assert_eq!(model.multiplier(t), 1.0);
        // Outside every episode both multipliers are unity.
        let calm = (0..4000)
            .map(|i| i as f64 * 41.3)
            .find(|&t| !model.in_episode(FaultDomain::Orchestrator, t))
            .unwrap();
        assert_eq!(model.orchestrator_multiplier(calm), 1.0);
    }

    #[test]
    fn resilience_policy_text_round_trips() {
        for p in [
            ResiliencePolicy::none(),
            ResiliencePolicy::naive_retry(),
            ResiliencePolicy::backoff(),
            ResiliencePolicy::backoff_hedged(),
        ] {
            let text = p.to_text();
            assert_eq!(ResiliencePolicy::from_text(&text).unwrap(), p, "{text}");
        }
        assert!(ResiliencePolicy::from_text("").is_err());
        assert!(ResiliencePolicy::from_text("gillis-resilience v2\n").is_err());
        assert!(ResiliencePolicy::from_text("gillis-resilience v1\nmax_attempts=zero\n").is_err());
        assert!(ResiliencePolicy::from_text("gillis-resilience v1\nmax_attempts=0\n").is_err());
        assert!(ResiliencePolicy::from_text("gillis-resilience v1\nnope=1\n").is_err());
        assert!(ResiliencePolicy::from_text("gillis-resilience v1\nbackoff\n").is_err());
    }

    #[test]
    fn outage_config_text_round_trips() {
        for cfg in [
            OutageConfig::default(),
            OutageConfig::severe(12.0, 99),
            OutageConfig {
                orchestrators: true,
                ..OutageConfig::severe(8.0, 3)
            },
        ] {
            let text = cfg.to_text();
            assert_eq!(OutageConfig::from_text(&text).unwrap(), cfg, "{text}");
        }
        assert!(OutageConfig::from_text("").is_err());
        assert!(OutageConfig::from_text("gillis-outage v1\nseverity=banana\n").is_err());
        assert!(OutageConfig::from_text("gillis-outage v1\ndomains=warp\n").is_err());
        // A parsed config is always buildable: out-of-range knobs fail here.
        assert!(OutageConfig::from_text("gillis-outage v1\nseverity=0.5\n").is_err());
        assert!(OutageConfig::from_text("gillis-outage v1\ndomains=\n").is_err());
    }

    #[test]
    fn garbled_chaos_rate_is_rejected_with_a_warning() {
        // Driven through a closure, never the process environment (whose
        // `GILLIS_CHAOS_RATE` feeds `PolicyStack::from_env` and CI's chaos
        // job).
        let garbled = |name: &str| (name == "GILLIS_CHAOS_RATE").then(|| "banana".to_string());
        let err = ChaosConfig::from_lookup(&garbled).unwrap_err().to_string();
        assert!(err.contains("GILLIS_CHAOS_RATE"), "{err}");
        assert!(err.contains("banana"), "{err}");
        let zero = |name: &str| (name == "GILLIS_CHAOS_RATE").then(|| "0".to_string());
        assert_eq!(ChaosConfig::from_lookup(&zero), Ok(None));
    }
}
