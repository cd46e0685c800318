//! `BENCHMARK.json`, compiled in: the one place workload names, metric names,
//! units, directions and bounds are written down. The harness refuses to
//! report a metric the manifest does not declare.

use crate::json::Json;

const MANIFEST_TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Relative worsening that counts as a regression; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: u64,
    /// `(name, why)` in manifest order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// The manifest this binary was built against.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file is malformed; the package's tests parse
    /// it, so a build that passes them cannot.
    pub fn embedded() -> Manifest {
        Manifest::parse(MANIFEST_TEXT).expect("embedded BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let str_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array '{key}'"))?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        better: match str_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("bad direction '{other}'")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing 'run_seconds'")? as u64,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("missing array 'workloads'")?
                .iter()
                .map(|w| Ok((str_of(w, "name")?, str_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
