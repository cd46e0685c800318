//! One run's result: the metric values, the operations attempted and failed,
//! and the two forms it is written in — the one-line result the benchmark
//! contract asks for, and the fuller record `bench compare` reads.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::manifest::{Manifest, Metric};

/// How many failure messages a report keeps; the count is never capped.
const MAX_FAILURE_MESSAGES: usize = 10;

#[derive(Debug, Clone)]
pub struct Report {
    manifest: Manifest,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that returned an error or failed a correctness check.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Context that is not a metric: sample counts, plan shapes, noise flag.
    pub info: Vec<(String, String)>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(manifest: Manifest, workload: &str, seed: u64, trace: bool, quick: bool) -> Self {
        Report {
            manifest,
            workload: workload.to_string(),
            seed,
            trace,
            quick,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            info: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `BENCHMARK.json` does not declare or a value that is
    /// not finite: both are bugs in the harness, not outcomes of a run.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.manifest.metric(name).is_some(),
            "metric '{name}' is not declared in BENCHMARK.json"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked operation; a failed one keeps its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check_many(1, ok, what);
    }

    /// Counts `ops` operations that stand or fall together (the arrivals of
    /// one simulated cell).
    pub fn check_many(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn reported(&self) -> &[Metric] {
        if self.trace {
            &self.manifest.per_layer
        } else {
            &self.manifest.end_to_end
        }
    }

    /// The contract's result object: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one. A layer that did not run
    /// on this workload reports 0.
    ///
    /// # Panics
    ///
    /// Panics if an untraced run left an end-to-end metric unset.
    pub fn result_line(&self) -> Json {
        let metrics = self.reported().iter().map(|m| {
            let value = match self.values.get(&m.name) {
                Some(v) => *v,
                None if self.trace => 0.0,
                None => panic!("end-to-end metric '{}' was not measured", m.name),
            };
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full record appended to `--out`: every value measured, whichever
    /// list it belongs to, plus the run's identity and context.
    pub fn record(&self) -> Json {
        let metrics = self.values.iter().map(|(name, v)| {
            let unit = &self
                .manifest
                .metric(name)
                .expect("set() checked the name")
                .unit;
            (
                name.clone(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(unit.clone()))]),
            )
        });
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("trace", Json::Bool(self.trace)),
            ("quick", Json::Bool(self.quick)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "info",
                Json::obj(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every measured metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {}{}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            if self.quick { "  (quick)" } else { "" },
        );
        out.push_str(&format!(
            "  attempted {}  ok {}  failed {}\n",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        ));
        for (k, v) in &self.info {
            out.push_str(&format!("  # {k}: {v}\n"));
        }
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        let listed = |list: &[Metric], out: &mut String| {
            for m in list {
                if let Some(v) = self.values.get(&m.name) {
                    out.push_str(&format!("  {:<width$}  {:>16.6} {}\n", m.name, v, m.unit));
                }
            }
        };
        listed(&self.manifest.end_to_end, &mut out);
        listed(&self.manifest.per_layer, &mut out);
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}
