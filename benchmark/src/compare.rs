//! `compare A B`: hold result set B (the change) against result set A
//! (the baseline), one row per (workload, end-to-end metric), by the rule
//! of the choosing-metrics guide: a median worse than the baseline's by
//! more than the metric's bound is a regression; where the run-to-run
//! spread is wider than the bound the row is unresolved, unless every run
//! of one side reads better than every run of the other.

use crate::json::{self, Value};
use crate::spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `base` and `change` are its values over the runs of
/// each side.
pub fn judge(m: &Metric, base: &[f64], change: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (median(change) - median(base)) / median(base).abs();
    let over = worse_by > m.bound;
    let noisy = [base, change]
        .iter()
        .any(|v| spread(v).is_some_and(|s| s > m.bound));
    if !noisy {
        return if over {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if worst(change) <= best(base) {
        Verdict::Ok
    } else if over && best(change) > worst(base) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

struct ResultSet {
    doc: Value,
}

impl ResultSet {
    fn load(dir: &str, workload: &str) -> Result<Self, String> {
        let path = format!("{dir}/{workload}.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{path} is a --quick result: shapes only, not comparable"
            ));
        }
        Ok(ResultSet { doc })
    }

    fn runs(&self) -> &[Value] {
        self.doc.get("runs").and_then(Value::as_arr).unwrap_or(&[])
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs()
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn total(&self, key: &str) -> f64 {
        self.runs()
            .iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    }

    fn traced(&self, metric: &str) -> Option<f64> {
        self.doc
            .get("traced")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let mut sets = Vec::new();
    for (workload, _) in WORKLOADS {
        sets.push((
            *workload,
            ResultSet::load(dir_a, workload)?,
            ResultSet::load(dir_b, workload)?,
        ));
    }
    let mut clean = true;
    println!(
        "{:<12} {:<12} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for (workload, a, b) in &sets {
        for m in END_TO_END {
            let (va, vb) = (a.values(m.name), b.values(m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: no values of {}", m.name));
            }
            let verdict = judge(m, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let widest = [&va, &vb]
                .iter()
                .filter_map(|v| spread(v))
                .fold(0.0, f64::max);
            println!(
                "{workload:<12} {:<12} {:>13.6} {:>13.6} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                m.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs(),
                100.0 * widest,
                100.0 * m.bound,
                verdict.as_str()
            );
        }
        let share = |s: &ResultSet| s.total("failed") / s.total("attempted").max(1.0);
        let worse = share(b) > share(a);
        clean &= !worse;
        println!(
            "{workload:<12} {:<12} {:>13.6} {:>13.6} {:>8} {:>7} {:>7}  {}",
            "failed_share",
            share(a),
            share(b),
            "",
            "",
            "0",
            if worse { "regressed" } else { "ok" }
        );
        // Exact counts do not gate: a change may mean to move them. They
        // are listed so that a change that does not mean to is seen.
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(x), Some(y)) = (a.traced(m.name), b.traced(m.name)) {
                if x.to_bits() != y.to_bits() {
                    println!("{workload:<12} {} differs: {x} -> {y}", m.name);
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "s",
            better,
            bound: 0.10,
            exact: false,
        }
    }

    #[test]
    fn steady_metric_inside_and_outside_the_bound() {
        let m = metric(Better::Lower);
        let base = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(judge(&m, &base, &[1.05, 1.06, 1.04, 1.05]), Verdict::Ok);
        assert_eq!(
            judge(&m, &base, &[1.15, 1.16, 1.14, 1.15]),
            Verdict::Regressed
        );
        assert_eq!(judge(&m, &base, &[0.5, 0.5, 0.5, 0.5]), Verdict::Ok);
        let up = metric(Better::Higher);
        assert_eq!(
            judge(&up, &base, &[0.85, 0.84, 0.86, 0.85]),
            Verdict::Regressed
        );
        assert_eq!(judge(&up, &base, &[1.5, 1.5, 1.5, 1.5]), Verdict::Ok);
    }

    #[test]
    fn noisy_metric_is_unresolved_unless_runs_separate() {
        let m = metric(Better::Lower);
        let base = [1.0, 1.4, 0.8, 1.2];
        assert_eq!(judge(&m, &base, &[1.1, 1.5, 0.9, 1.3]), Verdict::Unresolved);
        assert_eq!(judge(&m, &base, &[0.5, 0.7, 0.6, 0.75]), Verdict::Ok);
        assert_eq!(judge(&m, &base, &[2.0, 2.4, 1.8, 2.2]), Verdict::Regressed);
    }
}
