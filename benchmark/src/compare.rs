//! `bench compare <a> <b>`: two sets of run records (the JSON lines `--out`
//! appends), one row per metric and workload, judged by the bounds and
//! directions of `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::manifest::{Better, Manifest, Metric};
use crate::stats::{median, relative_spread};

/// Values of one metric on one workload, one per run; traced and untraced
/// runs are kept apart.
type Runs = BTreeMap<(String, String, bool), Vec<f64>>;

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| record.get(key).ok_or(format!("line {}: no '{key}'", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_bool().unwrap_or(false);
        for (name, metric) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                runs.entry((workload.clone(), name.clone(), traced))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between runs of one side is wider than the bound, so a
    /// difference inside the bound says nothing.
    Unresolved,
    /// Per-layer metrics have no bound.
    Unbounded,
}

/// How much worse `b` is than `a` as a share of `a`, in the metric's own
/// direction; negative when `b` is better.
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match metric.better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = metric.bound else {
        return Verdict::Unbounded;
    };
    if worsening(metric, median(a), median(b)) > bound {
        Verdict::Worse
    } else if relative_spread(a).max(relative_spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Renders the comparison and returns it with the number of `worse` rows.
/// End-to-end metrics come from untraced runs; per-layer metrics from traced
/// runs and, for the ones an untraced run also measures over its full
/// window, from those too (`mode` says which).
pub fn compare(manifest: &Manifest, a_text: &str, b_text: &str) -> Result<(String, usize), String> {
    let (a, b) = (parse_runs(a_text)?, parse_runs(b_text)?);
    let mut out = format!(
        "{:<34} {:<16} {:<8} {:>14} {:>14} {:>12} {:>8} {:>7}  verdict\n",
        "metric", "workload", "mode", "a (median)", "b (median)", "b/a", "spread", "bound"
    );
    let mut worse = 0;
    let lists = [
        (&manifest.end_to_end, false),
        (&manifest.per_layer, false),
        (&manifest.per_layer, true),
    ];
    for (metrics, traced) in lists {
        for metric in metrics {
            for (workload, _) in &manifest.workloads {
                let key = (workload.clone(), metric.name.clone(), traced);
                let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                    continue;
                };
                let verdict = judge(metric, va, vb);
                worse += usize::from(verdict == Verdict::Worse);
                let (ma, mb) = (median(va), median(vb));
                out.push_str(&format!(
                    "{:<34} {:<16} {:<8} {:>14.6} {:>14.6} {:>12} {:>8.4} {:>7}  {}\n",
                    metric.name,
                    workload,
                    if traced { "traced" } else { "untraced" },
                    ma,
                    mb,
                    if ma == 0.0 {
                        "-".to_string()
                    } else {
                        format!("{:.4}x of a", mb / ma)
                    },
                    relative_spread(va).max(relative_spread(vb)),
                    metric.bound.map_or("-".to_string(), |x| x.to_string()),
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Worse => "worse",
                        Verdict::Unresolved => "unresolved",
                        Verdict::Unbounded => "-",
                    },
                ));
            }
        }
    }
    out.push_str(&format!(
        "{} run(s) per cell in a, {} in b; {worse} worse\n",
        a.values().map(Vec::len).max().unwrap_or(0),
        b.values().map(Vec::len).max().unwrap_or(0),
    ));
    Ok((out, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: Option<f64>) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = metric(Better::Lower, Some(0.1));
        let higher = metric(Better::Higher, Some(0.1));
        assert!((worsening(&lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert_eq!(judge(&lower, &[100.0; 3], &[120.0; 3]), Verdict::Worse);
        assert_eq!(judge(&lower, &[100.0; 3], &[80.0; 3]), Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0; 3], &[80.0; 3]), Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0; 3], &[105.0; 3]), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let m = metric(Better::Lower, Some(0.05));
        let noisy = [80.0, 100.0, 125.0, 100.0];
        assert_eq!(
            judge(&m, &noisy, &[101.0, 99.0, 100.0, 100.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&metric(Better::Lower, None), &noisy, &noisy),
            Verdict::Unbounded
        );
    }

    #[test]
    fn records_are_grouped_by_workload_metric_and_mode() {
        let line = |w: &str, trace: bool, v: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"trace\": {trace}, \"metrics\": {{\"setup_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let text = line("plan_zoo", false, 1.0)
            + &line("plan_zoo", false, 3.0)
            + &line("plan_zoo", true, 9.0);
        let runs = parse_runs(&text).unwrap();
        assert_eq!(
            runs[&("plan_zoo".into(), "setup_s".into(), false)],
            vec![1.0, 3.0]
        );
        assert_eq!(
            runs[&("plan_zoo".into(), "setup_s".into(), true)],
            vec![9.0]
        );
        assert!(parse_runs("{not json}").is_err());
    }
}
