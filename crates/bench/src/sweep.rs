//! The one table type of the harness: a [`Sweep`] is what an experiment
//! measured — header fields plus sections of rows, every cell a
//! `(key, typed value)` pair declared once — and everything downstream reads
//! it: the JSON artifact writer, the console printer and the experiment's
//! claims.

use gillis_core::{replication_seed, ServingReport};

/// One typed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label, quoted in the artifact.
    Str(String),
    /// A counter.
    Int(u64),
    /// A measurement at full precision, and the decimals it prints with.
    Float(f64, usize),
    /// A fixed list of counters (the brownout ladder's per-level counts).
    Ints(Vec<u64>),
}

impl Value {
    /// The cell as the artifact and the console print it (labels unquoted).
    #[must_use]
    pub fn text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Float(v, decimals) => format!("{v:.decimals$}"),
            Value::Ints(ns) => {
                let ns: Vec<String> = ns.iter().map(u64::to_string).collect();
                format!("[{}]", ns.join(", "))
            }
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{s}\""),
            other => other.text(),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<(f64, usize)> for Value {
    fn from((v, decimals): (f64, usize)) -> Self {
        Value::Float(v, decimals)
    }
}

/// One row: cells in declaration order, looked up by key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<(&'static str, Value)>);

impl Row {
    /// The cell under `key`.
    ///
    /// # Panics
    ///
    /// Panics if the row declares no such key: a claim naming a column its
    /// experiment does not produce is a bug in the claim.
    #[must_use]
    pub fn get(&self, key: &str) -> &Value {
        let cell = self.0.iter().find(|(k, _)| *k == key);
        &cell
            .unwrap_or_else(|| panic!("row has no column {key:?}"))
            .1
    }

    /// The number under `key` at full precision; `None` for a label such as
    /// `OOM` standing where a measurement could not be taken.
    #[must_use]
    pub fn opt_f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Value::Float(v, _) => Some(*v),
            Value::Int(n) => Some(*n as f64),
            Value::Str(_) | Value::Ints(_) => None,
        }
    }

    /// The number under `key` at full precision.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a number.
    #[must_use]
    pub fn f64(&self, key: &str) -> f64 {
        self.opt_f64(key)
            .unwrap_or_else(|| panic!("column {key:?} is not a number"))
    }

    /// Whether the cell under `key` prints as `text`.
    #[must_use]
    pub fn is(&self, key: &str, text: &str) -> bool {
        self.get(key).text() == text
    }
}

/// Named row lists, in the order a sweep writes and prints them.
pub type Sections = Vec<(&'static str, Vec<Row>)>;

/// What one experiment measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sweep {
    /// Suite or figure name; a suite's artifact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// One line saying what was swept.
    pub title: &'static str,
    /// Scalar fields of the run (seed, sizes, derived rates), written between
    /// `"suite"` and the sections.
    pub header: Row,
    /// Named row lists, written in order; the last is the result grid.
    pub sections: Sections,
    /// The columns the console tables show, space-separated; empty shows
    /// every column.
    pub console: &'static str,
    /// Rows the claims read that the artifact does not carry.
    pub unwritten: Vec<Row>,
}

impl Sweep {
    /// A sweep of `sections` with no header, every column on the console.
    #[must_use]
    pub(crate) fn new(name: &'static str, title: &'static str, sections: Sections) -> Self {
        Sweep {
            name,
            title,
            sections,
            ..Sweep::default()
        }
    }

    /// The rows of the last section: the result grid.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        self.sections.last().map_or(&[], |(_, rows)| rows)
    }

    /// The result row whose cells print as every `(key, text)` of `at`.
    ///
    /// # Panics
    ///
    /// Panics if no row matches: the claim asks for a cell the run skipped.
    #[must_use]
    pub fn cell(&self, at: &[(&str, &str)]) -> &Row {
        let found = self
            .rows()
            .iter()
            .find(|row| at.iter().all(|(key, text)| row.is(key, text)));
        found.unwrap_or_else(|| panic!("{}: no row at {at:?}", self.name))
    }

    /// The artifact: the only JSON writer of the harness. One header field
    /// per line, one row per line, `", "` between cells and no trailing
    /// comma anywhere.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields = |row: &Row| -> Vec<String> {
            let cell = |(k, v): &(&str, Value)| format!("\"{k}\": {}", v.json());
            row.0.iter().map(cell).collect()
        };
        let mut out = format!("{{\n  \"suite\": \"{}\",\n", self.name);
        for field in fields(&self.header) {
            out.push_str(&format!("  {field},\n"));
        }
        for (s, (name, rows)) in self.sections.iter().enumerate() {
            out.push_str(&format!("  \"{name}\": [\n"));
            for (i, row) in rows.iter().enumerate() {
                let comma = if i + 1 == rows.len() { "" } else { "," };
                out.push_str(&format!("    {{{}}}{comma}\n", fields(row).join(", ")));
            }
            let comma = if s + 1 == self.sections.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("  ]{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// The title, the header fields and one aligned table per section.
    ///
    /// # Panics
    ///
    /// Panics if a row of a section has other columns than its first row.
    #[must_use]
    pub(crate) fn render(&self) -> String {
        let mut out = format!("{}: {}\n", self.name, self.title);
        let header: Vec<String> = self
            .header
            .0
            .iter()
            .map(|(k, v)| format!("{k} {}", v.text()))
            .collect();
        if !header.is_empty() {
            out.push_str(&format!("{}\n", header.join("; ")));
        }
        for (name, rows) in &self.sections {
            let Some(first) = rows.first() else { continue };
            let shown =
                |key: &str| self.console.is_empty() || self.console.split(' ').any(|c| c == key);
            let columns: Vec<&str> = first
                .0
                .iter()
                .map(|(k, _)| *k)
                .filter(|k| shown(k))
                .collect();
            let mut table = Table::new(&columns);
            for row in rows {
                let cells = row.0.iter().filter(|(k, _)| shown(k));
                table.row(cells.map(|(_, v)| v.text()).collect());
            }
            out.push_str(&format!("\n{name}:\n{}", table.render()));
        }
        out
    }

    /// Prints the title, the header fields and one aligned table per section.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A fixed-width text table: how [`Sweep::render`] lays out a section.
struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// The numbers under `key` down `rows`.
///
/// # Panics
///
/// Panics if a cell is not a number.
#[must_use]
pub fn column(rows: &[Row], key: &str) -> Vec<f64> {
    rows.iter().map(|row| row.f64(key)).collect()
}

/// The replication fold of the outage and recovery suites: serves
/// `replications` independent runs, each on its own
/// [`replication_seed`]-derived stream, and folds them with
/// [`ServingReport::absorb`] so a cell averages over arrival noise.
///
/// # Panics
///
/// Panics if `replications` is zero.
pub fn fold_replications(
    seed: u64,
    replications: u64,
    mut serve: impl FnMut(u64) -> ServingReport,
) -> ServingReport {
    let mut runs = (0..replications).map(|rep| serve(replication_seed(seed, rep)));
    let mut folded = runs.next().expect("at least one replication");
    for run in runs {
        folded.absorb(&run);
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_pins_precision_quoting_and_commas() {
        let sweep = Sweep {
            name: "demo",
            header: Row(vec![
                ("seed", 42u64.into()),
                ("slo_ms", (561.987, 2).into()),
            ]),
            sections: vec![
                ("models", vec![Row(vec![("model", "vgg11".into())])]),
                (
                    "results",
                    vec![
                        Row(vec![
                            ("policy", "default".into()),
                            ("severity", (32.0, 1).into()),
                            ("usd_total", (0.012_345_678, 6).into()),
                            ("levels", Value::Ints(vec![3, 0, 1])),
                        ]),
                        Row(vec![
                            ("policy", "overload".into()),
                            ("mean_batch", (4.8765, 3).into()),
                        ]),
                    ],
                ),
            ],
            ..Sweep::default()
        };
        assert_eq!(
            sweep.to_json(),
            "{\n  \"suite\": \"demo\",\n  \"seed\": 42,\n  \"slo_ms\": 561.99,\n  \"models\": [\n    \
             {\"model\": \"vgg11\"}\n  ],\n  \"results\": [\n    \
             {\"policy\": \"default\", \"severity\": 32.0, \"usd_total\": 0.012346, \"levels\": [3, 0, 1]},\n    \
             {\"policy\": \"overload\", \"mean_batch\": 4.877}\n  ]\n}\n"
        );
    }

    #[test]
    fn rows_are_read_by_key_at_full_precision() {
        let sweep = Sweep {
            name: "demo",
            sections: vec![(
                "results",
                vec![Row(vec![
                    ("policy", "default".into()),
                    ("rate_factor", (2.0, 2).into()),
                    ("p99_ms", (15_321.123_456, 2).into()),
                    ("admitted", 400usize.into()),
                    ("lambda_ms", "OOM".into()),
                ])],
            )],
            ..Sweep::default()
        };
        let row = sweep.cell(&[("policy", "default"), ("rate_factor", "2.00")]);
        assert_eq!(row.f64("p99_ms"), 15_321.123_456);
        assert_eq!(row.f64("admitted"), 400.0);
        assert_eq!(row.opt_f64("lambda_ms"), None);
    }
}
