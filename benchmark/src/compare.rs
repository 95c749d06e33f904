//! `--compare A.jsonl B.jsonl`: applies the regression bounds to two sets
//! of recorded runs (`--record`), per end-to-end metric and workload.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{bounds, median};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side spread wider than the bound, so a difference
    /// of the bound's size could not be seen either way.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges side `b` against side `a` (the parent) for one metric on one
/// workload.
///
/// * improved — every run of `b` reads better than every run of `a`, and
///   the medians are further apart than `a`'s own range;
/// * regressed — `b`'s median is worse than `a`'s by more than the bound,
///   and either the runs are that steady or every run of `b` reads worse
///   than every run of `a`;
/// * unchanged — within the bound, both sides steadier than the bound;
/// * unresolved — otherwise.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (med_a, med_b) = (median(a), median(b));
    let ((lo_a, hi_a), (lo_b, hi_b)) = (bounds(a), bounds(b));
    let scale = med_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = sign * (med_b - med_a) / scale;
    let spread = ((hi_a - lo_a) / scale).max((hi_b - lo_b) / scale);
    let (all_better, all_worse) = match metric.better {
        Better::Lower => (hi_b < lo_a, lo_b > hi_a),
        Better::Higher => (lo_b > hi_a, hi_b < lo_a),
    };
    if all_better && -worse_by > (hi_a - lo_a) / scale {
        Verdict::Improved
    } else if worse_by > metric.bound {
        if all_worse || spread <= metric.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if spread <= metric.bound {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

/// `workload → metric → values` of the untraced runs recorded in a file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        if doc.get("correct") != Some(&Json::Bool(true)) {
            eprintln!("{}", at("skipped: the run failed its gates"));
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("no metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            runs.entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Prints one row per workload and end-to-end metric; returns whether
/// nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<11} {:<22} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [min .. max] (n)", "B median [min .. max] (n)", "B vs A"
    );
    for w in &WORKLOADS {
        for metric in &END_TO_END {
            let side = |runs: &Runs| -> Vec<f64> {
                runs.get(w.name)
                    .and_then(|m| m.get(metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (side(&a), side(&b));
            if va.is_empty() || vb.is_empty() {
                println!("{:<11} {:<22} missing on one side", w.name, metric.name);
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let show = |v: &[f64]| {
                let (lo, hi) = bounds(v);
                format!("{:.4} [{:.4} .. {:.4}] ({})", median(v), lo, hi, v.len())
            };
            println!(
                "{:<11} {:<22} {:>34} {:>34} {:>+7.2}%  {verdict} (bound {:.0}%, {} {})",
                w.name,
                metric.name,
                show(&va),
                show(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                metric.bound * 100.0,
                metric.better.as_str(),
                metric.unit,
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_5: EndToEnd = EndToEnd {
        name: "schedule_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
    };

    #[test]
    fn steady_runs_within_the_bound_are_unchanged() {
        let a = [100.0, 100.5, 101.0];
        assert_eq!(
            judge(&LOWER_5, &a, &[101.0, 102.0, 103.0]),
            Verdict::Unchanged
        );
        assert_eq!(judge(&LOWER_5, &a, &a), Verdict::Unchanged);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_regresses() {
        let a = [100.0, 100.5, 101.0];
        assert_eq!(
            judge(&LOWER_5, &a, &[107.0, 108.0, 109.0]),
            Verdict::Regressed
        );
        // Noisy, but every run is worse than every run of the parent.
        assert_eq!(
            judge(&LOWER_5, &a, &[106.0, 115.0, 130.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [90.0, 100.0, 112.0];
        assert_eq!(
            judge(&LOWER_5, &a, &[95.0, 101.0, 110.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LOWER_5, &a, &[99.0, 108.0, 111.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn improvement_needs_every_run_better_and_a_gap_beyond_the_parents_range() {
        let a = [100.0, 100.5, 101.0];
        assert_eq!(judge(&LOWER_5, &a, &[50.0, 51.0, 52.0]), Verdict::Improved);
        // Better in every run, but by less than the parent's own range.
        assert_eq!(judge(&LOWER_5, &a, &[99.7, 99.8, 99.9]), Verdict::Unchanged);
        let higher = EndToEnd {
            better: Better::Higher,
            ..LOWER_5
        };
        assert_eq!(
            judge(&higher, &a, &[150.0, 151.0, 152.0]),
            Verdict::Improved
        );
        assert_eq!(judge(&higher, &a, &[50.0, 51.0, 52.0]), Verdict::Regressed);
    }
}
