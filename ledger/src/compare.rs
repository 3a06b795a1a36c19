//! `ledger compare <a.json> <b.json>`: two result sets of `--workload all`
//! judged by the bounds `BENCHMARK.json` fixes — one row per workload ×
//! end-to-end metric, `worse` exits non-zero.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats;

/// How one metric of one workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One workload of a set file: every metric's value per run, and what the
/// runs' own checks said.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadRuns {
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Runs whose oracle check failed.
    pub incorrect: u64,
    /// Failed operations over all runs.
    pub failed: u64,
}

/// A set file written by `--workload all`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Set {
    /// Measured seconds per run.
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

/// Reads a set file.
pub fn set_of(set: &Json) -> Result<Set, String> {
    let mut out = Set {
        seconds: set
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or("set file: no seconds")?,
        ..Set::default()
    };
    let workloads = set
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("set file: no workloads object")?;
    for (w, body) in workloads {
        let runs = body
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("workload without runs")?;
        let per = out.workloads.entry(w.clone()).or_default();
        for run in runs {
            if run.get("correct") != Some(&Json::Bool(true)) {
                per.incorrect += 1;
            }
            per.failed += run
                .get("failed")
                .and_then(Json::as_f64)
                .ok_or("run without failed")? as u64;
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("run without metrics")?;
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    per.metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Judges `b` against `a`: the verdict, how much worse `b`'s median is as a
/// share of `a`'s, and the run-to-run spread — the wider of the two sides'
/// [`stats::range_spread`]. A spread wider than the bound is `unresolved`
/// whatever the medians say.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let spread = stats::range_spread(a).max(stats::range_spread(b));
    // positive = b is worse than a, as a share of a
    let worse_by = if ma == 0.0 {
        0.0
    } else if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse_by, spread)
}

/// `BENCHMARK.json` of the repo this binary was built in.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Runs the comparison and prints the table; `Ok(true)` when nothing is
/// worse.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let bounds = bounds_of(&read(BENCHMARK_JSON)?)?;
    let (a, b) = (set_of(&read(a_path)?)?, set_of(&read(b_path)?)?);
    if a.seconds != b.seconds {
        return Err(format!(
            "{a_path} measured {} s a run and {b_path} {} s: phases of different length do not compare",
            a.seconds, b.seconds
        ));
    }
    let mut ok = true;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for (workload, runs_a) in &a.workloads {
        let Some(runs_b) = b.workloads.get(workload) else {
            println!("{workload:<16} missing from {b_path}");
            ok = false;
            continue;
        };
        // a side that got its speed by failing has not got it
        if runs_b.incorrect > 0 || runs_b.failed > runs_a.failed {
            println!(
                "{workload:<16} {:<14} {:>14} {:>14} {:>36}  worse",
                "failed",
                runs_a.failed,
                runs_b.failed,
                format!("{} runs of b incorrect", runs_b.incorrect)
            );
            ok = false;
        }
        for bound in &bounds {
            let (Some(va), Some(vb)) = (
                runs_a.metrics.get(&bound.name),
                runs_b.metrics.get(&bound.name),
            ) else {
                println!("{workload:<16} {:<14} missing on one side", bound.name);
                ok = false;
                continue;
            };
            let (verdict, worse_by, spread) = judge(bound, va, vb);
            println!(
                "{:<16} {:<14} {:>14.3} {:>14.3} {:>+8.1}% {:>7.1}% {:>6.0}%  {}",
                workload,
                bound.name,
                stats::median(va),
                stats::median(vb),
                worse_by * 100.0,
                spread * 100.0,
                bound.bound * 100.0,
                verdict.label()
            );
            ok &= verdict != Verdict::Worse;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "notify_p50_us".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&lower(0.10), &a, &[120.0, 121.0, 119.0, 120.0]).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower(0.10), &a, &[105.0, 104.0, 106.0, 105.0]).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&lower(0.10), &a, &[80.0, 81.0, 79.0, 80.0]).0,
            Verdict::Better
        );
        let higher = Bound {
            name: "events_per_s".into(),
            higher_is_better: true,
            bound: 0.10,
        };
        assert_eq!(
            judge(&higher, &a, &[80.0, 81.0, 79.0, 80.0]).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &a, &[120.0, 121.0, 119.0, 120.0]).0,
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // one side ranges 20 % of its median: nothing can be said, even
        // though the medians are 50 % apart
        let (verdict, _, spread) =
            judge(&lower(0.10), &[100.0, 100.0, 100.0], &[140.0, 150.0, 170.0]);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!((spread - 0.2).abs() < 1e-12);
        assert_eq!(
            judge(&lower(0.10), &[100.0, 104.0], &[150.0, 152.0]).0,
            Verdict::Worse
        );
    }

    #[test]
    fn reads_bounds_and_set_files() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let b = bounds_of(&bench).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b[0].higher_is_better && b[1].higher_is_better);
        let set = json::parse(
            r#"{"seconds": 20, "workloads": {"fed_routed": {"runs": [
                {"correct": true, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}},
                {"correct": false, "failed": 3, "metrics": {"setup_s": {"value": 0.27, "unit": "s"}}}]}}}"#,
        )
        .unwrap();
        let s = set_of(&set).unwrap();
        assert_eq!(s.seconds, 20.0);
        let w = &s.workloads["fed_routed"];
        assert_eq!(w.metrics["setup_s"], vec![0.25, 0.27]);
        assert_eq!((w.incorrect, w.failed), (1, 3));
        assert!(set_of(&json::parse(r#"{"workloads": {}}"#).unwrap()).is_err());
    }
}
