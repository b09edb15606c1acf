//! `--compare A B`: judges two sets of runs (records appended by `--out`)
//! metric by metric against the bounds in `BENCHMARK.json`.

use crate::stats::quartiles;
use parra_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let field = |m: &Value, key: &str| -> Result<String, String> {
            m.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: a metric lacks `{key}`"))
        };
        let mut end_to_end = Vec::new();
        for m in root
            .get("end_to_end")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: no `end_to_end` list")?
        {
            end_to_end.push(MetricSpec {
                name: field(m, "name")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("BENCHMARK.json: an end-to-end metric lacks `bound`")?,
            });
        }
        Ok(Spec { end_to_end })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Regressed,
    /// One side's quartile spread exceeds the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Same => "same",
            Status::Better => "better",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
        })
    }
}

/// Median and quartile spread of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Side { q1, median, q3 })
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Set-up is short and its run-to-run spread is wide, so its bound guards
/// the median only, as in the benchmark's acceptance rule.
const MEDIAN_ONLY: &str = "setup_s";

/// The rule: a spread wider than the bound leaves the metric unresolved,
/// unless every B run beats every A run; otherwise B's median may be worse
/// than A's by at most the bound.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<(Side, Side, f64, Status)> {
    let (sa, sb) = (Side::of(a)?, Side::of(b)?);
    // Positive `worse` means B is worse than A.
    let worse = if spec.lower_is_better {
        (sb.median - sa.median) / sa.median
    } else {
        (sa.median - sb.median) / sa.median
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let all_better = if spec.lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    let noisy = sa.spread() > spec.bound || sb.spread() > spec.bound;
    let status = if noisy && spec.name != MEDIAN_ONLY {
        if all_better {
            Status::Better
        } else {
            Status::Unresolved
        }
    } else if worse > spec.bound {
        Status::Regressed
    } else if worse < -spec.bound {
        Status::Better
    } else {
        Status::Same
    };
    Some((sa, sb, worse, status))
}

/// Untraced runs of a `--out` file: workload → one metric map per run.
pub fn load_runs(text: &str) -> Result<BTreeMap<String, Vec<BTreeMap<String, f64>>>, String> {
    let mut out: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e:?}", n + 1))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        let run = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.entry(workload.to_string()).or_default().push(run);
    }
    Ok(out)
}

/// Prints the comparison table; returns whether every metric of every
/// workload present on both sides is `same` or `better`.
pub fn compare(spec: &Spec, a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (load_runs(a_text)?, load_runs(b_text)?);
    println!(
        "{:<16} {:<15} {:>30} {:>30} {:>8} {:>6}  status",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let mut clean = true;
    let mut summary = Vec::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<16} (no runs in B)");
            summary.push(format!("{workload:<16} no runs in B"));
            clean = false;
            continue;
        };
        // Metrics per status other than `same`, in metric order.
        let mut marked: BTreeMap<String, Vec<&str>> = BTreeMap::new();
        for m in &spec.end_to_end {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&m.name).copied())
                    .collect()
            };
            let Some((sa, sb, worse, status)) = judge(m, &pick(runs_a), &pick(runs_b)) else {
                println!("{workload:<16} {:<15} (fewer than two runs a side)", m.name);
                marked
                    .entry("too few runs".into())
                    .or_default()
                    .push(&m.name);
                clean = false;
                continue;
            };
            if status != Status::Same {
                marked.entry(status.to_string()).or_default().push(&m.name);
            }
            let side = |s: Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<16} {:<15} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {status}",
                m.name,
                side(sa),
                side(sb),
                worse * 100.0,
                m.bound * 100.0
            );
            clean &= matches!(status, Status::Same | Status::Better);
        }
        let verdict: Vec<String> = marked
            .iter()
            .map(|(status, names)| format!("{status}: {}", names.join(", ")))
            .collect();
        summary.push(if verdict.is_empty() {
            format!("{workload:<16} same")
        } else {
            format!("{workload:<16} {}", verdict.join("; "))
        });
    }
    println!("\nper workload:");
    for row in summary {
        println!("  {row}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "cpu_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn a_slowdown_past_the_bound_is_a_regression() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [12.0, 12.1, 11.9, 12.0, 12.05];
        let (_, _, worse, status) = judge(&latency(0.1), &a, &b).unwrap();
        assert_eq!(status, Status::Regressed);
        assert!((worse - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_change_inside_the_bound_is_the_same() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [10.5, 10.6, 10.4, 10.5, 10.55];
        assert_eq!(judge(&latency(0.1), &a, &b).unwrap().3, Status::Same);
        // For a higher-is-better metric the same numbers are a loss of 5%.
        let rate = MetricSpec {
            lower_is_better: false,
            ..latency(0.1)
        };
        let (_, _, worse, status) = judge(&rate, &a, &b).unwrap();
        assert!(worse < 0.0 && status == Status::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        let b = [10.2, 10.1, 10.3, 10.2, 10.2];
        assert_eq!(
            judge(&latency(0.1), &noisy, &b).unwrap().3,
            Status::Unresolved
        );
        let faster = [5.0, 5.1, 5.2, 5.0, 5.1];
        assert_eq!(
            judge(&latency(0.1), &noisy, &faster).unwrap().3,
            Status::Better
        );
        assert!(judge(&latency(0.1), &[1.0], &b).is_none());
        // Set-up time is judged on its median alone.
        let setup = MetricSpec {
            name: "setup_s".into(),
            ..latency(0.1)
        };
        assert_eq!(judge(&setup, &noisy, &b).unwrap().3, Status::Same);
    }

    #[test]
    fn runs_are_read_from_out_records_and_traced_ones_skipped() {
        let text = r#"{"workload":"w","seed":1,"trace":0,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"cpu_p50_ms":{"value":1.5,"unit":"ms"}}}}
{"workload":"w","seed":1,"trace":1,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"x":{"value":2,"unit":"ratio"}}}}
"#;
        let runs = load_runs(text).unwrap();
        assert_eq!(runs["w"].len(), 1);
        assert_eq!(runs["w"][0]["cpu_p50_ms"], 1.5);
    }
}
