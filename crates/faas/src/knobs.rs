//! One policy surface: every serving-policy family is a table of [`Knob`]
//! rows, and one reader and one printer work over it.
//!
//! A row names its environment variable, its `key=value` text key, its
//! documented default and a one-line description, and carries the two
//! functions that move a value between a string and the policy's field.
//! The reader starts from the family's defaults, applies every row a
//! *source* has a value for, in table order, and validates. The two sources
//! are the environment ([`Knobs::from_lookup`]: the family's first row is
//! its enabler, and an unset or switched-off enabler means "family off") and
//! the versioned text ([`Knobs::from_text`]: the `gillis-<family> v1` header
//! plays the enabler's role). [`Knobs::to_text`] prints the rows back, and
//! [`PolicyStack`] is the list of families as one value.
//!
//! Bad input is handled the same way everywhere: a malformed value or an
//! invalid combination is an `Err` that names the variable (or key) and
//! echoes the rejected text. `Ok(None)` only ever means "not configured";
//! the `from_env` wrappers report the `Err` on stderr and leave the family
//! off.

use std::str::FromStr;

use crate::batch::BatchPolicy;
use crate::brownout::BrownoutPolicy;
use crate::budget::RetryBudgetPolicy;
use crate::chaos::{ChaosConfig, OutageConfig, ResiliencePolicy};
use crate::envutil::lookup as env_lookup;
use crate::error::FaasError;
use crate::overload::OverloadPolicy;
use crate::pipeline::PipelinePolicy;
use crate::recovery::RecoveryPolicy;
use crate::Result;

/// What parsing a knob's value yields: the value, or the reason it was
/// rejected — without the variable name, which the reader adds.
pub type Parsed<T> = std::result::Result<T, String>;

/// A knob source: the value set for a name, if any.
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// One knob of a policy family `P`.
pub struct Knob<P> {
    /// Environment variable (`""`: the knob has no environment name).
    pub env: &'static str,
    /// Key in the `key=value` text (`""`: the knob is environment-only).
    pub key: &'static str,
    /// Default, as the README knob table documents it.
    pub default: &'static str,
    /// One-line description for the README knob table.
    pub help: &'static str,
    /// Parses a trimmed value and stores it in the policy.
    pub set: fn(&mut P, &str) -> Parsed<()>,
    /// Prints the policy's current value in the form `set` reads.
    pub get: fn(&P) -> String,
}

/// Declares a policy family, i.e. `impl Knobs`: its name, defaults,
/// validation, optionally what "enabler set to off" means, and its rows —
/// `ENV, KEY, DEFAULT, HELP => [field.path];` for a `FromStr + Display`
/// field, or `… => {set, get};` for a value that is not one plain field.
/// The type also gets the trait's reader and printer as inherent methods
/// (`env`: the environment ones too), so callers need no trait import.
macro_rules! family {
    (@row $env:literal, $key:literal, $default:literal, $help:literal, [$($field:ident).+]) => {
        $crate::knobs::family!(@row $env, $key, $default, $help, {
            |p, raw| $crate::knobs::parse(raw).map(|v| p.$($field).+ = v),
            |p| p.$($field).+.to_string()
        })
    };
    (@row $env:literal, $key:literal, $default:literal, $help:literal, {$set:expr, $get:expr}) => {
        $crate::knobs::Knob {
            env: $env,
            key: $key,
            default: $default,
            help: $help,
            set: $set,
            get: $get,
        }
    };
    (@env $ty:ty, env) => {
        impl $ty {
            /// Reads the environment knobs through `lookup`: [`Knobs::from_lookup`].
            ///
            /// # Errors
            ///
            /// Names the variable of a malformed value or invalid combination.
            pub fn from_lookup(lookup: $crate::knobs::Lookup<'_>) -> $crate::Result<Option<Self>> {
                <Self as $crate::knobs::Knobs>::from_lookup(lookup)
            }
            /// Reads the process environment, reporting an error on stderr
            /// and leaving the family off: [`Knobs::from_env`].
            pub fn from_env() -> Option<Self> {
                <Self as $crate::knobs::Knobs>::from_env()
            }
        }
    };
    (
        $ty:ty, $family:literal $(, $envs:ident)?;
        base $base:expr;
        check $check:expr;
        $(off $off:expr;)?
        $($env:literal, $key:literal, $default:literal, $help:literal => $how:tt;)+
    ) => {
        impl $crate::knobs::Knobs for $ty {
            const FAMILY: &'static str = $family;
            const KNOBS: &'static [$crate::knobs::Knob<Self>] =
                &[$($crate::knobs::family!(@row $env, $key, $default, $help, $how)),+];
            fn base() -> Self {
                $base
            }
            fn check(&self) -> $crate::Result<()> {
                $check(self)
            }
            $(fn off(&self) -> bool {
                $off(self)
            })?
        }
        impl $ty {
            /// Serializes to the versioned `key=value` text: [`Knobs::to_text`].
            #[must_use]
            pub fn to_text(&self) -> String {
                $crate::knobs::Knobs::to_text(self)
            }
            /// Parses the [`Self::to_text`] format: [`Knobs::from_text`].
            ///
            /// # Errors
            ///
            /// Rejects a bad header, token, key, value or combination.
            pub fn from_text(text: &str) -> $crate::Result<Self> {
                <Self as $crate::knobs::Knobs>::from_text(text)
            }
        }
        $($crate::knobs::family!(@env $ty, $envs);)?
    };
}
pub(crate) use family;

fn invalid(msg: String) -> FaasError {
    FaasError::InvalidArgument(msg)
}

/// Parses one plain value; the rejection says what was expected.
///
/// # Errors
///
/// Returns the reason when `raw` is not a `T`.
pub fn parse<T: FromStr>(raw: &str) -> Parsed<T> {
    let expected = |_| format!("expected {}", std::any::type_name::<T>());
    raw.trim().parse().map_err(expected)
}

fn set_row<P>(row: &Knob<P>, policy: &mut P, name: &str, raw: &str) -> Result<()> {
    (row.set)(policy, raw.trim()).map_err(|why| invalid(format!("malformed {name}={raw:?}: {why}")))
}

/// The one reader: the family's defaults, then every row `lookup` has a
/// value for (rows named by `name`, in table order), then validation.
fn read<P: Knobs>(name: fn(&Knob<P>) -> &'static str, lookup: Lookup<'_>) -> Result<P> {
    let given = |row: &Knob<P>| Some(name(row)).filter(|n| !n.is_empty()).and_then(lookup);
    let mut policy = P::base();
    let mut set = Vec::new();
    for row in P::KNOBS {
        if let Some(raw) = given(row) {
            set_row(row, &mut policy, name(row), &raw)?;
            set.push(format!("{}={}", name(row), raw.trim()));
        }
    }
    let (family, set) = (P::FAMILY, set.join(" "));
    match policy.check() {
        Ok(()) => Ok(policy),
        Err(FaasError::InvalidArgument(why)) => Err(invalid(format!(
            "invalid {family} policy from [{set}]: {why}"
        ))),
        Err(other) => Err(other),
    }
}

/// A policy family described by a knob table (declared with `family!`):
/// the table, and the reader and printer every family shares.
pub trait Knobs: Sized + 'static {
    /// Family name: the text header is `gillis-<FAMILY> v1`.
    const FAMILY: &'static str;
    /// The rows, in the order they are applied and printed. A family with
    /// environment names lists its enabler first.
    const KNOBS: &'static [Knob<Self>];
    /// The policy every unset row leaves in place.
    fn base() -> Self;
    /// The family's own validation.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for out-of-range knobs or an
    /// invalid combination.
    fn check(&self) -> Result<()>;
    /// Whether the enabler alone, on top of the defaults, switches the
    /// family off instead of on: a zero concurrency, a severity below 1 —
    /// by default, any enabler value that does not validate.
    fn off(&self) -> bool {
        self.check().is_err()
    }

    /// Reads the family from environment-style names. `Ok(None)` when the
    /// enabler (the first row) is unset or set to its off value; otherwise
    /// the family's defaults with every set row applied, validated.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] naming the variable for a
    /// malformed value, and naming every set variable for an invalid
    /// combination.
    fn from_lookup(lookup: Lookup<'_>) -> Result<Option<Self>> {
        let enabler = &Self::KNOBS[0];
        let Some(raw) = lookup(enabler.env) else {
            return Ok(None);
        };
        let mut probe = Self::base();
        set_row(enabler, &mut probe, enabler.env, &raw)?;
        if probe.off() {
            return Ok(None);
        }
        read(|row| row.env, lookup).map(Some)
    }

    /// [`Self::from_lookup`] over the process environment; an error is
    /// reported on stderr and leaves the family off.
    fn from_env() -> Option<Self> {
        Self::from_lookup(&env_lookup).unwrap_or_else(|e| {
            eprintln!("gillis: {e}");
            None
        })
    }

    /// Prints the policy as `gillis-<family> v1` and one line of
    /// `key=value` tokens, one per row that has a text key (none, and no
    /// line, for a family without one).
    #[must_use]
    fn to_text(&self) -> String {
        let keyed = Self::KNOBS.iter().filter(|row| !row.key.is_empty());
        let body: Vec<String> = keyed
            .map(|row| format!("{}={}", row.key, (row.get)(self)))
            .collect();
        let header = format!("gillis-{} v1\n", Self::FAMILY);
        if body.is_empty() {
            header
        } else {
            format!("{header}{}\n", body.join(" "))
        }
    }

    /// Parses the [`Self::to_text`] format: the header, then
    /// whitespace-separated `key=value` tokens in any order (a repeated
    /// key's last value wins); absent keys keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] on a bad header, a token
    /// without `=`, an unknown key, a malformed value, or a policy that
    /// fails validation.
    fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().unwrap_or_default().trim();
        let family = Self::FAMILY;
        if header != format!("gillis-{family} v1") {
            let msg = format!("expected 'gillis-{family} v1' header, got {header:?}");
            return Err(invalid(msg));
        }
        let mut pairs = Vec::new();
        for token in lines.flat_map(str::split_whitespace) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| invalid(format!("expected key=value, got {token:?}")))?;
            if key.is_empty() || !Self::KNOBS.iter().any(|row| row.key == key) {
                return Err(invalid(format!("unknown {family} key {key:?}")));
            }
            pairs.push((key, value));
        }
        let last = |key: &str| pairs.iter().rev().find(|(k, _)| *k == key);
        read(|row| row.key, &|key| {
            last(key).map(|(_, v)| (*v).to_string())
        })
    }
}

/// Every serving policy as one value: what [`crate::chaos`] injects and
/// what the runtime does about it. `None` leaves a family off; the
/// resilience policy is always in force.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyStack {
    /// Per-execution fault injection.
    pub chaos: Option<ChaosConfig>,
    /// Retries, backoff, timeouts, hedging, local fallback.
    pub resilience: ResiliencePolicy,
    /// Admission control, deadlines, lane breakers.
    pub overload: Option<OverloadPolicy>,
    /// Adaptive multi-SLO batching.
    pub batch: Option<BatchPolicy>,
    /// Correlated-outage episodes on top of chaos.
    pub outage: Option<OutageConfig>,
    /// Token bucket bounding retry/hedge amplification.
    pub retry_budget: Option<RetryBudgetPolicy>,
    /// Degradation ladder.
    pub brownout: Option<BrownoutPolicy>,
    /// Pipeline-parallel serving across layer groups.
    pub pipeline: Option<PipelinePolicy>,
    /// Stage-level recovery from orchestrator crashes.
    pub recovery: Option<RecoveryPolicy>,
}

impl PolicyStack {
    /// Validates every optional family that is configured (the resilience
    /// policy is taken as given, as `ForkJoinRuntime::with_policy` does).
    ///
    /// # Errors
    ///
    /// Returns the first family's validation error.
    pub fn validate(&self) -> Result<()> {
        fn ok<P: Knobs>(policy: &Option<P>) -> Result<()> {
            policy.as_ref().map_or(Ok(()), Knobs::check)
        }
        ok(&self.chaos)?;
        ok(&self.overload)?;
        ok(&self.batch)?;
        ok(&self.outage)?;
        ok(&self.retry_budget)?;
        ok(&self.brownout)?;
        ok(&self.pipeline)?;
        ok(&self.recovery)
    }

    /// Reads every family with environment names through `lookup`; the
    /// resilience policy, which has none, keeps its default.
    ///
    /// # Errors
    ///
    /// Returns the first family's [`Knobs::from_lookup`] error: a set-but-invalid
    /// family is an error, not a silently disabled one.
    pub fn from_lookup(lookup: Lookup<'_>) -> Result<Self> {
        Ok(PolicyStack {
            chaos: Knobs::from_lookup(lookup)?,
            resilience: ResiliencePolicy::default(),
            overload: Knobs::from_lookup(lookup)?,
            batch: Knobs::from_lookup(lookup)?,
            outage: Knobs::from_lookup(lookup)?,
            retry_budget: Knobs::from_lookup(lookup)?,
            brownout: Knobs::from_lookup(lookup)?,
            pipeline: Knobs::from_lookup(lookup)?,
            recovery: Knobs::from_lookup(lookup)?,
        })
    }

    /// [`Self::from_lookup`] over the process environment.
    ///
    /// # Errors
    ///
    /// As [`Self::from_lookup`].
    pub fn from_env() -> Result<Self> {
        Self::from_lookup(&env_lookup)
    }

    /// The [`Knobs::to_text`] section of every family in force, in field order.
    #[must_use]
    pub fn to_text(&self) -> String {
        fn section<P: Knobs>(policy: &Option<P>) -> String {
            policy.as_ref().map(Knobs::to_text).unwrap_or_default()
        }
        [
            section(&self.chaos),
            self.resilience.to_text(),
            section(&self.overload),
            section(&self.batch),
            section(&self.outage),
            section(&self.retry_budget),
            section(&self.brownout),
            section(&self.pipeline),
            section(&self.recovery),
        ]
        .concat()
    }
}
