//! Execution plans: the output of the partitioning algorithms.

use serde::{Deserialize, Serialize};

use gillis_model::LinearModel;

use crate::error::CoreError;
use crate::partition::{analyze_group, group_options, GroupAnalysis, PartitionOption};
use crate::Result;

/// Where a group's partitions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// The group's single partition runs in the master function — no
    /// communication at all.
    Master,
    /// All partitions run on worker functions.
    Workers,
    /// Partition 0 runs in the master (using part of its memory budget);
    /// the rest go to workers. "The master can also help to compute a
    /// partition if having sufficient memory" (§III-B).
    MasterAndWorkers,
}

/// One planned layer group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedGroup {
    /// First merged-layer index (inclusive).
    pub start: usize,
    /// Last merged-layer index (exclusive).
    pub end: usize,
    /// How the group is partitioned.
    pub option: PartitionOption,
    /// Where the partitions run.
    pub placement: Placement,
}

impl PlannedGroup {
    /// Number of worker functions this group invokes.
    pub fn worker_count(&self) -> usize {
        match self.placement {
            Placement::Master => 0,
            Placement::Workers => self.option.parts(),
            Placement::MasterAndWorkers => self.option.parts().saturating_sub(1),
        }
    }
}

/// A complete plan: contiguous groups covering every merged layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    groups: Vec<PlannedGroup>,
}

impl ExecutionPlan {
    /// Wraps a group list into a plan (validate with
    /// [`ExecutionPlan::validate`]).
    pub fn new(groups: Vec<PlannedGroup>) -> Self {
        ExecutionPlan { groups }
    }

    /// The plan a single-function deployment uses: one group containing the
    /// whole model, computed in the master.
    pub fn single_function(model: &LinearModel) -> Self {
        ExecutionPlan {
            groups: vec![PlannedGroup {
                start: 0,
                end: model.layers().len(),
                option: PartitionOption::Single,
                placement: Placement::Master,
            }],
        }
    }

    /// The planned groups in execution order.
    pub fn groups(&self) -> &[PlannedGroup] {
        &self.groups
    }

    /// Analyses of every group, in order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if a group/option pair is
    /// invalid for the model.
    pub fn analyses(&self, model: &LinearModel) -> Result<Vec<GroupAnalysis>> {
        self.groups
            .iter()
            .map(|g| analyze_group(model, g.start, g.end, g.option))
            .collect()
    }

    /// Total weight bytes held by the master function: partitions it
    /// computes, across all groups.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn master_weight_bytes(&self, model: &LinearModel) -> Result<u64> {
        let mut total = 0;
        for g in &self.groups {
            if matches!(g.placement, Placement::Master | Placement::MasterAndWorkers) {
                let a = analyze_group(model, g.start, g.end, g.option)?;
                total += a.partitions[0].weight_bytes;
            }
        }
        Ok(total)
    }

    /// Checks structural and memory validity of the plan against a model and
    /// a per-function memory budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] for coverage gaps or invalid
    /// options, and [`CoreError::OutOfMemory`] when a worker partition or
    /// the master's accumulated weights exceed `budget_bytes`.
    pub fn validate(&self, model: &LinearModel, budget_bytes: u64) -> Result<()> {
        let n = model.layers().len();
        let mut expected = 0;
        for (gi, g) in self.groups.iter().enumerate() {
            if g.start != expected || g.end <= g.start || g.end > n {
                return Err(CoreError::InvalidPlan(format!(
                    "group {gi} spans {}..{} (expected start {expected}, model has {n} layers)",
                    g.start, g.end
                )));
            }
            expected = g.end;
            let valid_opts = group_options(model, g.start, g.end, &[g.option.parts()]);
            if !valid_opts.contains(&g.option) {
                return Err(CoreError::InvalidPlan(format!(
                    "group {gi} option {} is not feasible for layers {}..{}",
                    g.option, g.start, g.end
                )));
            }
            if g.option.parts() == 1 && g.placement == Placement::MasterAndWorkers {
                return Err(CoreError::InvalidPlan(format!(
                    "group {gi}: master-and-workers needs at least two partitions"
                )));
            }
            let analysis = analyze_group(model, g.start, g.end, g.option)?;
            let worker_parts: &[crate::partition::PartitionWork] = match g.placement {
                Placement::Master => &[],
                Placement::Workers => &analysis.partitions,
                Placement::MasterAndWorkers => &analysis.partitions[1..],
            };
            for p in worker_parts {
                if p.mem_bytes() > budget_bytes {
                    return Err(CoreError::OutOfMemory {
                        required: p.mem_bytes(),
                        budget: budget_bytes,
                    });
                }
            }
        }
        if expected != n {
            return Err(CoreError::InvalidPlan(format!(
                "plan covers {expected} of {n} layers"
            )));
        }
        let master = self.master_weight_bytes(model)?;
        if master > budget_bytes {
            return Err(CoreError::OutOfMemory {
                required: master,
                budget: budget_bytes,
            });
        }
        Ok(())
    }

    /// Coalesces runs of adjacent master-resident single-partition groups
    /// into one group. Master-only groups involve no communication, so the
    /// merge is behaviour- and cost-neutral; it just removes artificial
    /// boundaries a partitioner's search may leave behind (`Single` is valid
    /// for any span).
    pub fn coalesce_master_runs(&self) -> ExecutionPlan {
        let mut groups: Vec<PlannedGroup> = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            let mergeable = g.placement == Placement::Master
                && g.option == PartitionOption::Single
                && groups
                    .last()
                    .map(|p: &PlannedGroup| {
                        p.placement == Placement::Master && p.option == PartitionOption::Single
                    })
                    .unwrap_or(false);
            if mergeable {
                groups.last_mut().expect("checked non-empty").end = g.end;
            } else {
                groups.push(g.clone());
            }
        }
        ExecutionPlan::new(groups)
    }

    /// Human-readable description of the plan — the Fig 14 visualization.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn describe(&self, model: &LinearModel) -> Result<String> {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "plan for {} ({} merged layers):",
            model.name(),
            model.layers().len()
        )
        .ok();
        for (gi, g) in self.groups.iter().enumerate() {
            let a = analyze_group(model, g.start, g.end, g.option)?;
            let names: Vec<&str> = model.layers()[g.start..g.end]
                .iter()
                .map(|l| l.name.as_str())
                .collect();
            writeln!(
                s,
                "  group {:>2}: layers {:>2}..{:<2} [{}] option {:<7} on {:<14} ({} partitions, {:.1} MB weights each max)",
                gi + 1,
                g.start,
                g.end,
                names.join(", "),
                g.option.to_string(),
                g.placement.tag(),
                g.option.parts(),
                a.partitions
                    .iter()
                    .map(|p| p.weight_bytes)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6,
            )
            .ok();
        }
        Ok(s)
    }
}

impl std::str::FromStr for PartitionOption {
    type Err = CoreError;

    /// Parses the [`std::fmt::Display`] form: `single`, `Hx8`, `Wx4`, `Cx2`.
    fn from_str(s: &str) -> Result<Self> {
        if s == "single" {
            return Ok(PartitionOption::Single);
        }
        let (d, n) = s.split_once('x').ok_or_else(|| {
            CoreError::InvalidArgument(format!("unparseable partition option: {s}"))
        })?;
        let dim = match d {
            "H" => crate::partition::PartDim::Height,
            "W" => crate::partition::PartDim::Width,
            "C" => crate::partition::PartDim::Channel,
            other => {
                return Err(CoreError::InvalidArgument(format!(
                    "unknown partition dimension: {other}"
                )))
            }
        };
        let parts: usize = n
            .parse()
            .map_err(|_| CoreError::InvalidArgument(format!("bad part count: {n}")))?;
        if parts < 2 {
            return Err(CoreError::InvalidArgument(
                "split needs at least two parts".into(),
            ));
        }
        Ok(PartitionOption::Split { dim, parts })
    }
}

impl Placement {
    /// The placement as plan files and printed plans spell it.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Placement::Master => "master",
            Placement::Workers => "workers",
            Placement::MasterAndWorkers => "master+workers",
        }
    }
}

impl std::str::FromStr for Placement {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "master" => Ok(Placement::Master),
            "workers" => Ok(Placement::Workers),
            "master+workers" => Ok(Placement::MasterAndWorkers),
            other => Err(CoreError::InvalidArgument(format!(
                "unknown placement: {other}"
            ))),
        }
    }
}

impl ExecutionPlan {
    /// Serializes the plan to a compact line format, one group per line:
    /// `start end option placement`, preceded by a header. Stable across
    /// versions and human-editable — the deployment artifact a Gillis CLI
    /// stores next to the model.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("gillis-plan v1\n");
        for g in &self.groups {
            writeln!(
                s,
                "{} {} {} {}",
                g.start,
                g.end,
                g.option,
                g.placement.tag()
            )
            .ok();
        }
        s
    }

    /// Parses the format produced by [`ExecutionPlan::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] on header or field errors; the
    /// result still needs [`ExecutionPlan::validate`] against a model.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| CoreError::InvalidArgument("empty plan text".into()))?;
        if header.trim() != "gillis-plan v1" {
            return Err(CoreError::InvalidArgument(format!(
                "unknown plan header: {header}"
            )));
        }
        let mut groups = Vec::new();
        for line in lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(CoreError::InvalidArgument(format!(
                    "expected 4 fields per group line, got: {line}"
                )));
            }
            let parse_idx = |f: &str| -> Result<usize> {
                f.parse()
                    .map_err(|_| CoreError::InvalidArgument(format!("bad layer index: {f}")))
            };
            groups.push(PlannedGroup {
                start: parse_idx(fields[0])?,
                end: parse_idx(fields[1])?,
                option: fields[2].parse()?,
                placement: fields[3].parse()?,
            });
        }
        Ok(ExecutionPlan::new(groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartDim;
    use gillis_model::zoo;

    fn h_split(parts: usize) -> PartitionOption {
        PartitionOption::Split {
            dim: PartDim::Height,
            parts,
        }
    }

    #[test]
    fn single_function_plan_covers_model() {
        let vgg = zoo::vgg11();
        let plan = ExecutionPlan::single_function(&vgg);
        assert_eq!(plan.groups().len(), 1);
        // VGG-11 (531 MB) fits the Lambda budget.
        plan.validate(&vgg, 1_400_000_000).unwrap();
        // The master holds all weights.
        assert_eq!(plan.master_weight_bytes(&vgg).unwrap(), vgg.weight_bytes());
    }

    #[test]
    fn single_function_oom_for_large_model() {
        let wrn = zoo::wrn50(4);
        let plan = ExecutionPlan::single_function(&wrn);
        assert!(matches!(
            plan.validate(&wrn, 1_400_000_000),
            Err(CoreError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn validate_rejects_gaps_and_overlaps() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        // Gap: skips layer 0.
        let plan = ExecutionPlan::new(vec![PlannedGroup {
            start: 1,
            end: n,
            option: PartitionOption::Single,
            placement: Placement::Master,
        }]);
        assert!(matches!(
            plan.validate(&vgg, u64::MAX),
            Err(CoreError::InvalidPlan(_))
        ));
        // Short cover.
        let plan = ExecutionPlan::new(vec![PlannedGroup {
            start: 0,
            end: n - 1,
            option: PartitionOption::Single,
            placement: Placement::Master,
        }]);
        assert!(plan.validate(&vgg, u64::MAX).is_err());
    }

    #[test]
    fn validate_rejects_bad_option() {
        let rnn = zoo::rnn(3);
        let plan = ExecutionPlan::new(vec![PlannedGroup {
            start: 0,
            end: 3,
            option: h_split(2),
            placement: Placement::Workers,
        }]);
        assert!(matches!(
            plan.validate(&rnn, u64::MAX),
            Err(CoreError::InvalidPlan(_))
        ));
    }

    #[test]
    fn worker_counts_by_placement() {
        let g = |placement| PlannedGroup {
            start: 0,
            end: 1,
            option: h_split(4),
            placement,
        };
        assert_eq!(g(Placement::Workers).worker_count(), 4);
        assert_eq!(g(Placement::MasterAndWorkers).worker_count(), 3);
        let single = PlannedGroup {
            start: 0,
            end: 1,
            option: PartitionOption::Single,
            placement: Placement::Master,
        };
        assert_eq!(single.worker_count(), 0);
    }

    #[test]
    fn describe_mentions_every_group() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        let mut groups = vec![PlannedGroup {
            start: 0,
            end: 2,
            option: h_split(4),
            placement: Placement::MasterAndWorkers,
        }];
        groups.push(PlannedGroup {
            start: 2,
            end: n,
            option: PartitionOption::Single,
            placement: Placement::Master,
        });
        let plan = ExecutionPlan::new(groups);
        let desc = plan.describe(&vgg).unwrap();
        assert!(desc.contains("group  1"));
        assert!(desc.contains("Hx4"));
        assert!(desc.contains("master+workers"));
    }

    #[test]
    fn coalescing_merges_only_master_single_runs() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        let plan = ExecutionPlan::new(vec![
            PlannedGroup {
                start: 0,
                end: 1,
                option: h_split(2),
                placement: Placement::Workers,
            },
            PlannedGroup {
                start: 1,
                end: 3,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
            PlannedGroup {
                start: 3,
                end: 5,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
            PlannedGroup {
                start: 5,
                end: 6,
                option: PartitionOption::Single,
                placement: Placement::Workers, // worker single: not merged
            },
            PlannedGroup {
                start: 6,
                end: n,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
        ]);
        let coalesced = plan.coalesce_master_runs();
        assert_eq!(coalesced.groups().len(), 4);
        assert_eq!(coalesced.groups()[1].start, 1);
        assert_eq!(coalesced.groups()[1].end, 5);
        coalesced.validate(&vgg, u64::MAX).unwrap();
        // Prediction is unchanged by coalescing up to the per-group
        // framework overhead (one regression intercept per class per group,
        // ~0.1 ms): the merged plan can only be marginally faster.
        let perf = gillis_perf::PerfModel::analytic(&gillis_faas::PlatformProfile::aws_lambda());
        let a = crate::predict::predict_plan(&vgg, &plan, &perf).unwrap();
        let b = crate::predict::predict_plan(&vgg, &coalesced, &perf).unwrap();
        assert!(b.latency_ms <= a.latency_ms);
        assert!(
            (a.latency_ms - b.latency_ms) < 1.0,
            "overhead delta too large"
        );
        assert!(a.billed_ms.abs_diff(b.billed_ms) <= 2);
    }

    #[test]
    fn plan_text_roundtrip() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        let plan = ExecutionPlan::new(vec![
            PlannedGroup {
                start: 0,
                end: 2,
                option: h_split(4),
                placement: Placement::MasterAndWorkers,
            },
            PlannedGroup {
                start: 2,
                end: n - 1,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
            PlannedGroup {
                start: n - 1,
                end: n,
                option: PartitionOption::Split {
                    dim: PartDim::Channel,
                    parts: 2,
                },
                placement: Placement::Workers,
            },
        ]);
        let text = plan.to_text();
        assert!(text.starts_with("gillis-plan v1"));
        let parsed = ExecutionPlan::from_text(&text).unwrap();
        assert_eq!(parsed, plan);
        parsed.validate(&vgg, u64::MAX).unwrap();
    }

    #[test]
    fn plan_text_rejects_garbage() {
        assert!(ExecutionPlan::from_text("").is_err());
        assert!(ExecutionPlan::from_text("not-a-plan\n0 1 single master").is_err());
        assert!(ExecutionPlan::from_text("gillis-plan v1\n0 1 single").is_err());
        assert!(ExecutionPlan::from_text("gillis-plan v1\n0 1 Qx4 master").is_err());
        assert!(ExecutionPlan::from_text("gillis-plan v1\n0 1 Hx1 master").is_err());
        assert!(ExecutionPlan::from_text("gillis-plan v1\nx 1 single master").is_err());
        assert!(ExecutionPlan::from_text("gillis-plan v1\n0 1 single orbit").is_err());
    }

    #[test]
    fn option_from_str_roundtrips_display() {
        for opt in [
            PartitionOption::Single,
            h_split(8),
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 16,
            },
            PartitionOption::Split {
                dim: PartDim::Width,
                parts: 2,
            },
        ] {
            let s = opt.to_string();
            let parsed: PartitionOption = s.parse().unwrap();
            assert_eq!(parsed, opt);
        }
    }

    #[test]
    fn master_weight_accounting_splits_by_placement() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        let plan = ExecutionPlan::new(vec![
            PlannedGroup {
                start: 0,
                end: 2,
                option: h_split(2),
                placement: Placement::Workers,
            },
            PlannedGroup {
                start: 2,
                end: n,
                option: PartitionOption::Single,
                placement: Placement::Master,
            },
        ]);
        let master = plan.master_weight_bytes(&vgg).unwrap();
        // Master holds everything except the first two layers.
        let first_two: u64 = vgg.layers()[..2].iter().map(|l| l.weight_bytes).sum();
        assert_eq!(master, vgg.weight_bytes() - first_two);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The parser is total: arbitrary bytes (lossily decoded) produce
        /// `Ok` or `Err`, never a panic — plan files are a user-editable
        /// deployment artifact.
        #[test]
        fn from_text_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = ExecutionPlan::from_text(&text);
        }

        /// Same, restricted to the plan-format alphabet (and with a valid
        /// header prepended) so inputs reach the field parsers instead of
        /// dying at the header check.
        #[test]
        fn from_text_never_panics_on_plan_alphabet(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            const ALPHABET: &[u8] = b"gillis-plan v1\n 0123456789HWCxmasterworkers+";
            let body: String = bytes
                .iter()
                .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
                .collect();
            let _ = ExecutionPlan::from_text(&body);
            let _ = ExecutionPlan::from_text(&format!("gillis-plan v1\n{body}"));
        }

        /// `to_text` -> `from_text` round-trips arbitrary structurally-valid
        /// plans exactly (validation against a model is a separate step).
        #[test]
        fn text_round_trip_preserves_plan(
            (seed, n) in (0u64..100_000, 1usize..12),
        ) {
            let mut state = seed;
            let mut next = move |m: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) as usize) % m
            };
            let mut groups = Vec::new();
            let mut start = next(3);
            for _ in 0..n {
                let end = start + 1 + next(4);
                let option = match next(4) {
                    0 => PartitionOption::Single,
                    1 => PartitionOption::Split { dim: PartDim::Height, parts: 2 + next(7) },
                    2 => PartitionOption::Split { dim: PartDim::Width, parts: 2 + next(7) },
                    _ => PartitionOption::Split { dim: PartDim::Channel, parts: 2 + next(7) },
                };
                let placement = if option == PartitionOption::Single {
                    Placement::Master
                } else if next(2) == 0 {
                    Placement::Workers
                } else {
                    Placement::MasterAndWorkers
                };
                groups.push(PlannedGroup { start, end, option, placement });
                start = end;
            }
            let plan = ExecutionPlan::new(groups);
            let parsed = ExecutionPlan::from_text(&plan.to_text()).unwrap();
            proptest::prop_assert_eq!(&plan, &parsed);
        }
    }
}
