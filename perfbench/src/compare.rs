//! `compare <dirA> <dirB>`: two sets of result files side by side, with a
//! verdict per end-to-end metric against its bound in `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::measure::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in order.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, in order.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Read the declaration from the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
        };
        let field = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: match field(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => {
                                return Err(format!("better must be higher or lower, not {other}"))
                            }
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Metric values of a set of runs: workload → metric → one value per run.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The metrics of one result line (the last non-empty line of a run's
/// output).
pub fn parse_result(output: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = output
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let doc = json::parse(line)?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err("the run reported incorrect output".into());
    }
    doc.get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{name} has no numeric value"))
        })
        .collect()
}

/// Read every result file in `dir`. A file named `<workload>-<anything>`
/// holds one run's output of that workload.
pub fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    let mut runs = Runs::new();
    for path in entries {
        let stem = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
        let Some((workload, _)) = stem.split_once('-') else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            by_metric.entry(name).or_default().push(value);
        }
    }
    Ok(runs)
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's and both spreads are too.
    Same,
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A spread is wider than the bound: the sets cannot tell.
    Unresolved,
    /// Not measured in both sets.
    Missing,
}

/// The verdict for values `a` (baseline) and `b` under `spec`.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = spec.bound else {
        return Verdict::Same;
    };
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let ((a1, am, a3), (b1, bm, b3)) = (quartiles(a), quartiles(b));
    let worse = if spec.higher_is_better {
        (am - bm) / am
    } else {
        (bm - am) / am
    };
    if worse > bound {
        Verdict::Worse
    } else if (a3 - a1) / am > bound || (b3 - b1) / bm > bound {
        Verdict::Unresolved
    } else if -worse > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// A side-by-side table of two sets, and whether any end-to-end metric
/// got worse beyond its bound.
pub fn compare(spec: &Spec, a: &Runs, b: &Runs) -> (String, bool) {
    let mut text = String::new();
    let mut regressed = false;
    let empty = BTreeMap::new();
    for workload in &spec.workloads {
        let (ra, rb) = (
            a.get(workload).unwrap_or(&empty),
            b.get(workload).unwrap_or(&empty),
        );
        let runs = |r: &BTreeMap<String, Vec<f64>>| r.values().map(Vec::len).max().unwrap_or(0);
        text.push_str(&format!(
            "\n{workload} ({} runs in A, {} in B)\n",
            runs(ra),
            runs(rb)
        ));
        text.push_str(&format!(
            "  {:<34} {:>40} {:>40}  verdict\n",
            "metric", "A median [q1, q3]", "B median [q1, q3]"
        ));
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (va, vb) = (
                ra.get(&metric.name).map_or(&[][..], Vec::as_slice),
                rb.get(&metric.name).map_or(&[][..], Vec::as_slice),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let cell = |v: &[f64]| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    let (q1, m, q3) = quartiles(v);
                    format!("{m:.4} [{q1:.4}, {q3:.4}]")
                }
            };
            let v = verdict(metric, va, vb);
            regressed |= v == Verdict::Worse;
            let label = match (metric.bound, v) {
                (None, _) => String::new(),
                (Some(bound), v) => format!("{v:?} (bound {:.0}%)", bound * 100.0),
            };
            text.push_str(&format!(
                "  {:<34} {:>40} {:>40}  {label}\n",
                format!("{} ({})", metric.name, metric.unit),
                cell(va),
                cell(vb)
            ));
        }
    }
    (text, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["x"], "paths": ["p"], "run_seconds": 1,
      "workloads": [{"name": "w", "why": "because"}],
      "end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
      ],
      "per_layer": [{"name": "core.x", "unit": "count", "better": "lower"}]
    }"#;

    fn runs(ops: &[f64], lat: &[f64]) -> Runs {
        let mut m = BTreeMap::new();
        m.insert("ops_per_s".to_string(), ops.to_vec());
        m.insert("latency_p50_ms".to_string(), lat.to_vec());
        m.insert("core.x".to_string(), vec![3.0]);
        let mut r = Runs::new();
        r.insert("w".to_string(), m);
        r
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.workloads, vec!["w"]);
        assert!(spec.end_to_end[0].higher_is_better);
        assert_eq!(spec.end_to_end[1].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
        let (ops, lat) = (&spec.end_to_end[0], &spec.end_to_end[1]);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(ops, &steady, &steady), Verdict::Same);
        let slower: Vec<f64> = steady.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(ops, &steady, &slower), Verdict::Worse);
        assert_eq!(
            verdict(lat, &steady, &slower),
            Verdict::Better,
            "lower latency"
        );
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(ops, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(ops, &[], &steady), Verdict::Missing);

        let (text, regressed) = compare(&spec, &runs(&steady, &steady), &runs(&slower, &steady));
        assert!(regressed);
        assert!(
            text.contains("ops_per_s (ops/s)") && text.contains("Worse (bound 10%)"),
            "{text}"
        );
        assert!(text.contains("core.x (count)"));
        let (_, regressed) = compare(&spec, &runs(&steady, &steady), &runs(&steady, &slower));
        assert!(!regressed, "a latency drop is no regression");
    }

    #[test]
    fn result_lines_parse_and_incorrect_runs_are_refused() {
        let out = "building...\n{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        assert_eq!(parse_result(out).unwrap().get("setup_s"), Some(&0.5));
        assert!(parse_result(&out.replace("true", "false")).is_err());
        assert!(parse_result("").is_err());
    }
}
