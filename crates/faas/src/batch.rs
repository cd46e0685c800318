//! Adaptive multi-SLO batching policy: SLO classes, deadline-derived batch
//! windows, and the knobs the joint batch×memory configurator searches.
//!
//! Batching amortizes the fixed per-query costs of serverless inference —
//! weight-panel packing, fork/join invocation waves, per-invocation billing —
//! across several queries that share one master execution. The price is
//! queueing delay: a query waits for the window to fill. This module holds
//! the *policy* half of that trade (what may be batched, and for how long);
//! the serving runtime in `gillis-core` turns it into a schedule against the
//! performance model (HarmonyBatch-style joint batch-size × memory-size
//! selection) and forms batches deterministically.
//!
//! - [`SloClass`] — one latency class: a deadline and a traffic weight.
//!   Queries are only batched with others of the same class, so a lenient
//!   class can never delay a strict one.
//! - [`BatchPolicy`] — the classes plus global caps: maximum batch size,
//!   maximum accumulation window, the safety margin subtracted from
//!   deadlines, the perf model's amortized-compute fraction, and the
//!   candidate memory sizes the configurator may pick from.
//! - [`BatchCounters`] — honest accounting of batch formation, reported
//!   next to the overload counters.
//!
//! Like overload protection ([`crate::overload`]), every decision here is a
//! pure function of the policy, the virtual arrival times, and the seed —
//! never of wall-clock time or thread scheduling.

use serde::{Deserialize, Serialize};

use crate::chaos::splitmix64;
use crate::error::FaasError;
use crate::knobs::{family, parse, Parsed};
use crate::Result;

/// One latency class of a multi-SLO workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloClass {
    /// Per-query deadline from arrival, in milliseconds (`f64::INFINITY`
    /// means best-effort: the window cap alone bounds batching delay).
    pub deadline_ms: f64,
    /// Relative traffic share of this class (positive; shares are
    /// normalized over the policy's classes).
    pub weight: f64,
}

/// How the serving path forms batches across SLO classes.
///
/// A query is assigned a class deterministically (a pure hash of the seed
/// and its index, weighted by the class shares), accumulates with same-class
/// arrivals up to a deadline-derived window, and is never held past the
/// point where the batch's predicted completion would miss its deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// The SLO classes (at least one). Queries only batch within a class.
    pub classes: Vec<SloClass>,
    /// Largest batch the configurator may pick (≥ 1; 1 disables batching).
    pub max_batch: usize,
    /// Hard cap on the accumulation window in milliseconds, regardless of
    /// deadline slack.
    pub max_window_ms: f64,
    /// Safety margin in milliseconds subtracted from every deadline when
    /// deriving windows (absorbs prediction error and invocation jitter).
    pub window_margin_ms: f64,
    /// Fraction of a partition's compute that does *not* scale with the
    /// batch size (packing, panel-cache lookups, framework overhead) — the
    /// `α` of the perf model's `t_batch(plan, n)` term, in `[0, 1]`.
    pub amortized_fraction: f64,
    /// Candidate instance memory sizes in MB for the joint batch×memory
    /// search (CPU scales with memory, Lambda-style). Empty means "platform
    /// default only".
    pub memory_mb: Vec<u64>,
}

impl BatchPolicy {
    /// A single-class policy: one deadline for all traffic, batches up to
    /// `max_batch`, window capped at a quarter of the deadline, standard
    /// margin and amortized fraction, platform-default memory.
    pub fn single(deadline_ms: f64, max_batch: usize) -> Self {
        BatchPolicy {
            classes: vec![SloClass {
                deadline_ms,
                weight: 1.0,
            }],
            max_batch,
            max_window_ms: if deadline_ms.is_finite() {
                deadline_ms / 4.0
            } else {
                25.0
            },
            window_margin_ms: 5.0,
            amortized_fraction: 0.25,
            memory_mb: Vec::new(),
        }
    }

    /// Batching off: one best-effort class, batch size 1. Serving behaves
    /// exactly like the unbatched open loop.
    pub fn batch_one() -> Self {
        BatchPolicy {
            max_batch: 1,
            ..BatchPolicy::single(f64::INFINITY, 1)
        }
    }

    /// Whether this policy ever forms a batch larger than one.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }

    /// Sum of the class weights.
    pub fn total_weight(&self) -> f64 {
        self.classes.iter().map(|c| c.weight).sum()
    }

    /// Deterministically assigns query `query` of a run keyed by `seed` to
    /// a class index, weighted by the class shares. A pure splitmix64 hash
    /// of `(seed, query)` — no RNG stream is consumed, so class assignment
    /// never perturbs arrival or noise draws and is bit-identical at any
    /// thread count.
    pub fn class_of(&self, seed: u64, query: u64) -> usize {
        let z = splitmix64(seed.wrapping_add(query.wrapping_mul(0xd1b5_4a32_d192_ed03)));
        // Map the hash to [0, 1) and walk the cumulative weights.
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let total = self.total_weight();
        let mut acc = 0.0;
        for (i, c) in self.classes.iter().enumerate() {
            acc += c.weight / total;
            if u < acc {
                return i;
            }
        }
        self.classes.len() - 1
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for an empty class list,
    /// non-positive or NaN deadlines/weights, a zero batch cap, negative or
    /// NaN window/margin, an amortized fraction outside `[0, 1]`, or a zero
    /// memory candidate.
    pub fn validate(&self) -> Result<()> {
        if self.classes.is_empty() {
            return Err(FaasError::InvalidArgument(
                "batch policy needs at least one SLO class".into(),
            ));
        }
        for (i, c) in self.classes.iter().enumerate() {
            // NaN-rejecting: the deadline must be definitely positive.
            if c.deadline_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(FaasError::InvalidArgument(format!(
                    "class {i} deadline_ms must be positive (or infinite): {}",
                    c.deadline_ms
                )));
            }
            if c.weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                || !c.weight.is_finite()
            {
                return Err(FaasError::InvalidArgument(format!(
                    "class {i} weight must be positive and finite: {}",
                    c.weight
                )));
            }
        }
        if self.max_batch == 0 {
            return Err(FaasError::InvalidArgument(
                "batch max_batch must be >= 1".into(),
            ));
        }
        if !self.max_window_ms.is_finite() || self.max_window_ms < 0.0 {
            return Err(FaasError::InvalidArgument(format!(
                "batch max_window_ms must be finite and non-negative: {}",
                self.max_window_ms
            )));
        }
        if !self.window_margin_ms.is_finite() || self.window_margin_ms < 0.0 {
            return Err(FaasError::InvalidArgument(format!(
                "batch window_margin_ms must be finite and non-negative: {}",
                self.window_margin_ms
            )));
        }
        if !(0.0..=1.0).contains(&self.amortized_fraction) || self.amortized_fraction.is_nan() {
            return Err(FaasError::InvalidArgument(format!(
                "batch amortized_fraction must be in [0, 1]: {}",
                self.amortized_fraction
            )));
        }
        if self.memory_mb.contains(&0) {
            return Err(FaasError::InvalidArgument(
                "batch memory candidates must be positive MB values".into(),
            ));
        }
        Ok(())
    }
}

family! {
    BatchPolicy, "batch", env;
    base BatchPolicy::batch_one();
    check BatchPolicy::validate;
    "GILLIS_BATCH_MAX", "max_batch", "unset",
        "largest batch the configurator may pick; enables adaptive batching" => [max_batch];
    "GILLIS_BATCH_CLASSES", "classes", "`inf:1` (one best-effort class)",
        "SLO classes as `deadline_ms:weight,...` (`inf` allowed)" => {
            |p, raw| parse_classes(raw).map(|classes| p.classes = classes),
            |p| join(p.classes.iter().map(|c| format!("{}:{}", c.deadline_ms, c.weight)))
        };
    "GILLIS_BATCH_WINDOW_MS", "window_ms", "25", "accumulation-window cap" => [max_window_ms];
    "GILLIS_BATCH_MARGIN_MS", "margin_ms", "5",
        "safety margin between window + latency and the deadline" => [window_margin_ms];
    "GILLIS_BATCH_AMORTIZED", "amortized", "0.25",
        "fraction of per-query compute that amortizes across a batch" => [amortized_fraction];
    "GILLIS_BATCH_MEMORY_MB", "memory_mb", "`default` (the platform's)",
        "candidate instance memories in MB for the joint batch × memory pick" => {
            |p, raw| {
                let listed = || raw.split(',').map(parse).collect();
                let sizes: Parsed<_> = if raw == "default" { Ok(Vec::new()) } else { listed() };
                sizes.map(|sizes| p.memory_mb = sizes)
            },
            |p| match p.memory_mb.as_slice() {
                [] => "default".to_string(),
                sizes => join(sizes.iter().map(u64::to_string)),
            }
        };
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// Parses a `deadline:weight,deadline:weight` class list (`inf` deadlines
/// allowed).
fn parse_classes(spec: &str) -> Parsed<Vec<SloClass>> {
    let class = |pair: &str| {
        let (deadline, weight) = pair
            .split_once(':')
            .ok_or_else(|| format!("expected deadline:weight, got {pair:?}"))?;
        Ok(SloClass {
            deadline_ms: parse(deadline)?,
            weight: parse(weight)?,
        })
    };
    spec.split(',').map(class).collect()
}

/// Honest batch-formation accounting across a serving run, reported next to
/// the overload counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchCounters {
    /// Batches dispatched (each is one master execution).
    pub batches: u64,
    /// Queries that rode in a batch of two or more.
    pub batched_queries: u64,
    /// Windows that closed with a single member and took the batch-1 fast
    /// path (no widened buffers, per-query execution storage).
    pub batch_one_fast_path: u64,
    /// Largest batch formed.
    pub largest_batch: u64,
    /// Batches dispatched because they reached their target size.
    pub size_closes: u64,
    /// Batches dispatched because their accumulation window expired.
    pub window_closes: u64,
}

impl BatchCounters {
    /// Mean formed batch size (1.0 when nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            (self.batched_queries + self.batch_one_fast_path) as f64 / self.batches as f64
        }
    }

    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &BatchCounters) {
        self.batches += other.batches;
        self.batched_queries += other.batched_queries;
        self.batch_one_fast_path += other.batch_one_fast_path;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.size_closes += other.size_closes;
        self.window_closes += other.window_closes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy::single(250.0, 8).validate().is_ok());
        assert!(BatchPolicy::batch_one().validate().is_ok());
        assert!(BatchPolicy {
            classes: Vec::new(),
            ..BatchPolicy::batch_one()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            max_batch: 0,
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
        for bad_deadline in [0.0, -1.0, f64::NAN] {
            assert!(BatchPolicy::single(bad_deadline, 4).validate().is_err());
        }
        assert!(BatchPolicy {
            classes: vec![SloClass {
                deadline_ms: 100.0,
                weight: 0.0,
            }],
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            max_window_ms: f64::NAN,
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            window_margin_ms: -1.0,
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            amortized_fraction: 1.5,
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            amortized_fraction: f64::NAN,
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            memory_mb: vec![1792, 0],
            ..BatchPolicy::single(100.0, 4)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn policy_text_round_trips() {
        for policy in [
            BatchPolicy::batch_one(),
            BatchPolicy::single(437.25, 8),
            BatchPolicy {
                classes: vec![
                    SloClass {
                        deadline_ms: 150.0,
                        weight: 2.0,
                    },
                    SloClass {
                        deadline_ms: 600.0,
                        weight: 1.0,
                    },
                    SloClass {
                        deadline_ms: f64::INFINITY,
                        weight: 0.5,
                    },
                ],
                max_batch: 16,
                max_window_ms: 40.0,
                window_margin_ms: 2.5,
                amortized_fraction: 0.3,
                memory_mb: vec![1792, 3008, 6016],
            },
        ] {
            let text = policy.to_text();
            let parsed = BatchPolicy::from_text(&text).unwrap();
            assert_eq!(policy, parsed, "{text}");
        }
        assert!(BatchPolicy::from_text("").is_err());
        assert!(BatchPolicy::from_text("nope\nmax_batch=2").is_err());
        assert!(BatchPolicy::from_text("gillis-batch v1\nmax_batch").is_err());
        assert!(BatchPolicy::from_text("gillis-batch v1\nmax_batch=x").is_err());
        assert!(BatchPolicy::from_text("gillis-batch v1\nwat=1").is_err());
        assert!(BatchPolicy::from_text("gillis-batch v1\nclasses=100").is_err());
        assert!(BatchPolicy::from_text("gillis-batch v1\nclasses=100:x").is_err());
        // Parsed policies are validated.
        assert!(BatchPolicy::from_text("gillis-batch v1\nmax_batch=0").is_err());
    }

    #[test]
    fn class_assignment_is_deterministic_and_tracks_weights() {
        let policy = BatchPolicy {
            classes: vec![
                SloClass {
                    deadline_ms: 100.0,
                    weight: 3.0,
                },
                SloClass {
                    deadline_ms: 500.0,
                    weight: 1.0,
                },
            ],
            ..BatchPolicy::single(100.0, 4)
        };
        let n = 10_000u64;
        let mut counts = [0u64; 2];
        for q in 0..n {
            let c = policy.class_of(7, q);
            assert_eq!(c, policy.class_of(7, q), "pure function of (seed, query)");
            counts[c] += 1;
        }
        // 3:1 split within a few percent.
        let share = counts[0] as f64 / n as f64;
        assert!((share - 0.75).abs() < 0.03, "class-0 share {share}");
        // Different seeds shuffle the assignment.
        assert!((0..64).any(|q| policy.class_of(7, q) != policy.class_of(8, q)));
    }

    #[test]
    fn counters_absorb_and_mean() {
        let a = BatchCounters {
            batches: 4,
            batched_queries: 9,
            batch_one_fast_path: 1,
            largest_batch: 5,
            size_closes: 2,
            window_closes: 2,
        };
        assert!((a.mean_batch() - 2.5).abs() < 1e-12);
        let mut b = BatchCounters {
            largest_batch: 7,
            ..BatchCounters::default()
        };
        assert_eq!(b.mean_batch(), 1.0);
        b.absorb(&a);
        assert_eq!(b.batches, 4);
        assert_eq!(b.largest_batch, 7, "largest is a max, not a sum");
        b.absorb(&a);
        assert_eq!(b.batched_queries, 18);
        assert_eq!(b.window_closes, 4);
    }

    #[test]
    fn env_parsing_requires_the_enabling_variable() {
        // Driven through a closure, never the process environment.
        assert_eq!(BatchPolicy::from_lookup(&|_| None), Ok(None));
        let window_only = |name: &str| (name == "GILLIS_BATCH_WINDOW_MS").then(|| "9".to_string());
        assert_eq!(BatchPolicy::from_lookup(&window_only), Ok(None));
    }

    #[test]
    fn class_spec_parsing() {
        let classes = parse_classes("150:2,600:1,inf:0.5").unwrap();
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].deadline_ms, 150.0);
        assert_eq!(classes[1].weight, 1.0);
        assert!(classes[2].deadline_ms.is_infinite());
        assert!(parse_classes("150").is_err());
        assert!(parse_classes("150:x").is_err());
    }
}
