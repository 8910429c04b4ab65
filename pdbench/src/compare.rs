//! `--compare A.jsonl B.jsonl`: set two collections of `--record`ed runs
//! side by side, per workload and metric, against the bounds in
//! `BENCHMARK.json`.
//!
//! For every metric both sides report, it prints each side's median and
//! quartiles, the ratio of medians, and a verdict. An end-to-end metric is
//! *unresolved* when either side's spread (quartile distance over median)
//! is wider than its bound — unless every B run reads better than every A
//! run — *regressed* when B's median is worse than A's by more than the
//! bound, *better* when it is better by more, and *within bound* otherwise.
//! Per-layer metrics have no bound and get no verdict. Each workload also
//! shows `host.calib_ms`, the fixed integer loop every run times first, so
//! host drift between the two collections is visible next to the numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pdagent_net::chaos::json::{self, Jv};

use crate::stats::{median, quartiles};

/// The repository's `BENCHMARK.json`, next to this package.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// A metric's direction and bound from `BENCHMARK.json`.
struct Rule {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// Runs of one workload: metric → values, plus the calibration loop.
#[derive(Default)]
struct Runs {
    runs: usize,
    calib_ms: Vec<f64>,
    metrics: BTreeMap<String, Vec<f64>>,
}

fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load_rules(path: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = json::parse(&read_text(path)?).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc
            .get(key)
            .and_then(Jv::as_arr)
            .ok_or_else(|| format!("{path}: no {key} list"))?
        {
            let name = m
                .get("name")
                .and_then(Jv::as_str)
                .ok_or_else(|| format!("{path}: {key} entry without a name"))?;
            rules.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: m.get("better").and_then(Jv::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Jv::as_f64),
                },
            );
        }
    }
    Ok(rules)
}

fn load_runs(path: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in read_text(path)?
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Jv::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let runs = by_workload.entry(workload.to_owned()).or_default();
        runs.runs += 1;
        runs.calib_ms
            .extend(rec.get("calib_ms").and_then(Jv::as_f64));
        let Some(Jv::Obj(metrics)) = rec.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: no result metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Jv::as_f64) {
                runs.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(by_workload)
}

/// The quartile distance as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]).abs() / q[1].abs()
    }
}

fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> String {
    let Some(bound) = rule.bound else {
        return String::new();
    };
    let (qa, qb) = (quartiles(a), quartiles(b));
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(qa).max(spread(qb)) > bound {
        return if all_better {
            "better (every B run beats every A run)".into()
        } else {
            "unresolved".into()
        };
    }
    let change = if qa[1] == 0.0 {
        0.0
    } else {
        (qb[1] - qa[1]) / qa[1].abs()
    };
    let worse = if rule.higher_is_better {
        -change
    } else {
        change
    };
    if worse > bound {
        format!("REGRESSED (bound {bound})")
    } else if -worse > bound {
        format!("better (bound {bound})")
    } else {
        format!("within bound {bound}")
    }
}

/// `x` with six significant digits.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (5 - magnitude).max(0) as usize)
}

fn cell(values: &[f64]) -> String {
    let q = quartiles(values);
    format!("{:>12} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]))
}

/// Render the comparison of two record files.
pub fn run(a_path: &str, b_path: &str) -> Result<String, String> {
    let rules = load_rules(BENCHMARK_JSON)?;
    let a = load_runs(a_path)?;
    let b = load_runs(b_path)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A = {a_path}, B = {b_path}; bounds from {BENCHMARK_JSON}"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            let _ = writeln!(out, "\n== {workload}: only in A");
            continue;
        };
        let _ = writeln!(
            out,
            "\n== {workload} (A: {} runs, B: {} runs)",
            ra.runs, rb.runs
        );
        let _ = writeln!(
            out,
            "{:<28} {:>34} {:>34} {:>8}",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A"
        );
        let calib_ratio = median(&rb.calib_ms) / median(&ra.calib_ms);
        let _ = writeln!(
            out,
            "{:<28} {:>34} {:>34} {:>8.4}",
            "host.calib_ms",
            cell(&ra.calib_ms),
            cell(&rb.calib_ms),
            calib_ratio
        );
        for (name, va) in &ra.metrics {
            let Some(vb) = rb.metrics.get(name) else {
                continue;
            };
            let ratio = median(vb) / median(va);
            let ratio = if ratio.is_finite() {
                format!("{ratio:.4}")
            } else {
                "n/a".into()
            };
            let judged = rules
                .get(name)
                .map(|r| verdict(r, va, vb))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{name:<28} {:>34} {:>34} {ratio:>8}  {judged}",
                cell(va),
                cell(vb)
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "\n== {workload}: only in B");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let higher = Rule {
            higher_is_better: true,
            bound: Some(0.1),
        };
        let lower = Rule {
            higher_is_better: false,
            bound: Some(0.1),
        };
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert!(verdict(&higher, &a, &slower).starts_with("REGRESSED"));
        assert!(verdict(&lower, &a, &slower).starts_with("better"));
        assert!(verdict(&higher, &a, &same).starts_with("within"));
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&higher, &a, &noisy), "unresolved");
        let none = Rule {
            higher_is_better: true,
            bound: None,
        };
        assert_eq!(verdict(&none, &a, &slower), "");
    }
}
