//! `compare`: two sets of untraced, full-length results, one row per (workload,
//! end-to-end metric), judged by the rule of the choosing-metrics guide
//! (§6.5, §8) against the bounds fixed in `BENCHMARK.json`, and one row per
//! demoted metric, which has no bound and is judged on pairs alone.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value as Json;

use crate::stats::{median, quartiles};
use crate::workload::WORKLOADS;

/// The issue's end-to-end metrics that carry no bound on this host (see
/// `README.md`, "Baseline of this commit and the derived bounds"): printed
/// by untraced runs as per-layer rows and compared without a verdict that
/// can fail.
const DEMOTED: [&str; 3] = [
    "driver.sat_rps",
    "driver.sat_cpu_us_per_req",
    "driver.p99_us",
];

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// `better` is `"lower"`.
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by; 0 for a per-layer
    /// metric, which has none.
    pub bound: f64,
}

/// Reads the `end_to_end` and `per_layer` metric declarations of the
/// `BENCHMARK.json` beside the benchmark's directory.
pub fn declared(home: &Path) -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let path = home.join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Json], String> {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: no {key} list", path.display()))
    };
    let metric = |m: &Json| Declared {
        name: m
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
        bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
    };
    Ok((
        list("end_to_end")?.iter().map(metric).collect(),
        list("per_layer")?.iter().map(metric).collect(),
    ))
}

/// The untraced results found under one directory.
#[derive(Default)]
struct ResultSet {
    /// workload → metric → one value per run, in file-name order.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (failed, attempted), summed over runs.
    failures: BTreeMap<String, (f64, f64)>,
}

impl ResultSet {
    fn load(dir: &Path) -> Result<ResultSet, String> {
        let mut files = Vec::new();
        collect(dir, 3, &mut files);
        files.sort();
        let mut set = ResultSet::default();
        for file in files {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let json =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            // Traced runs carry no end-to-end metrics, and a smoke run's are
            // not a full run's.
            if json.get("trace") != Some(&Json::Bool(false))
                || json.get("smoke") == Some(&Json::Bool(true))
            {
                continue;
            }
            let Some(workload) = json.get("workload").and_then(Json::as_str) else {
                continue;
            };
            let number = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let tally = set.failures.entry(workload.to_owned()).or_default();
            tally.0 += number("failed");
            tally.1 += number("attempted");
            let per_metric = set.values.entry(workload.to_owned()).or_default();
            for group in ["end_to_end", "per_layer"] {
                let Some(Json::Obj(metrics)) = json.get(group) else {
                    continue;
                };
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        per_metric.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
        if set.values.is_empty() {
            return Err(format!(
                "{}: no untraced, full-length result.json found",
                dir.display()
            ));
        }
        Ok(set)
    }

    fn fail_ratio(&self, workload: &str) -> f64 {
        match self.failures.get(workload) {
            Some((failed, attempted)) if *attempted > 0.0 => failed / attempted,
            _ => 0.0,
        }
    }
}

fn collect(dir: &Path, depth: usize, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() && depth > 0 {
            collect(&path, depth - 1, out);
        } else if path.file_name().is_some_and(|n| n == "result.json") {
            out.push(path);
        }
    }
}

/// How a change's runs of one metric stand against the base's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 9/10 of the pairs and the medians differ by more than the
    /// base's own quartile distance.
    Better,
    /// Median no worse than the base's by more than the bound.
    Same,
    /// Median worse than the base's by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound and the runs interleave.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `v` with smaller made better.
fn orient(v: &[f64], lower_is_better: bool) -> Vec<f64> {
    v.iter()
        .map(|x| if lower_is_better { *x } else { -*x })
        .collect()
}

fn iqr(v: &[f64]) -> f64 {
    quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The gain rule on values where smaller is better: `b` is below `a` in
/// every run or in at least nine tenths of the pairs (ties for neither), and
/// the medians differ by more than `a`'s own quartile distance.
fn beats(a: &[f64], b: &[f64]) -> bool {
    let every_run = max(b) < min(a);
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| b[i] < a[i]).count();
    let ties = (0..pairs).filter(|&i| b[i] == a[i]).count();
    let nine_tenths = pairs > ties && wins * 10 >= (pairs - ties) * 9;
    (every_run || nine_tenths) && median(a) - median(b) > iqr(a)
}

/// Judges `change` against `base` (one value per run each).
pub fn judge(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (a, b) = (
        orient(base, lower_is_better),
        orient(change, lower_is_better),
    );
    if beats(&a, &b) {
        return Verdict::Better;
    }
    let (ma, mb) = (median(&a), median(&b));
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let disjoint = max(&b) < min(&a) || max(&a) < min(&b);
    if iqr(&a).max(iqr(&b)) / scale > bound && !disjoint {
        return Verdict::Unresolved;
    }
    if (mb - ma) / scale > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; `Ok(false)` when any row is `worse` or the change
/// fails more requests than the base.
pub fn run(home: &Path, base: &Path, change: &Path) -> Result<bool, String> {
    let (metrics, per_layer) = declared(home)?;
    let demoted: Vec<&Declared> = per_layer
        .iter()
        .filter(|m| DEMOTED.contains(&m.name.as_str()))
        .collect();
    let (a, b) = (ResultSet::load(base)?, ResultSet::load(change)?);
    let mut ok = true;
    println!(
        "{:<17} {:<25} {:>5} {:>12} {:>22} {:>12} {:>22} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "base median",
        "base q1..q3",
        "change median",
        "change q1..q3",
        "ratio",
        "bound"
    );
    for w in &WORKLOADS {
        let (Some(va), Some(vb)) = (a.values.get(w.name), b.values.get(w.name)) else {
            println!("{:<17} missing from one of the sets", w.name);
            ok = false;
            continue;
        };
        for (m, bounded) in metrics
            .iter()
            .map(|m| (m, true))
            .chain(demoted.iter().map(|m| (*m, false)))
        {
            let (Some(xa), Some(xb)) = (va.get(&m.name), vb.get(&m.name)) else {
                continue;
            };
            let (bound, verdict) = if bounded {
                let verdict = judge(xa, xb, m.lower_is_better, m.bound);
                ok &= verdict != Verdict::Worse;
                (format!("{:.3}", m.bound), verdict.as_str())
            } else {
                // No bound, so no `same` and no `worse`: the gain rule in
                // either direction, for the reader.
                let (oa, ob) = (orient(xa, m.lower_is_better), orient(xb, m.lower_is_better));
                let negated = |v: &[f64]| orient(v, false);
                let verdict = if beats(&oa, &ob) {
                    "better"
                } else if beats(&negated(&oa), &negated(&ob)) {
                    "behind (no bound)"
                } else {
                    "-"
                };
                ("-".to_owned(), verdict)
            };
            let quart = |v: &[f64]| match quartiles(v) {
                Some((q1, q3)) => format!("{q1:.4}..{q3:.4}"),
                None => "-".to_owned(),
            };
            println!(
                "{:<17} {:<25} {:>2}/{:<2} {:>12.4} {:>22} {:>12.4} {:>22} {:>7.4} {:>6}  {}",
                w.name,
                m.name,
                xa.len(),
                xb.len(),
                median(xa),
                quart(xa),
                median(xb),
                quart(xb),
                median(xb) / median(xa),
                bound,
                verdict
            );
        }
        let (fa, fb) = (a.fail_ratio(w.name), b.fail_ratio(w.name));
        let verdict = if fb > fa { "worse" } else { "same" };
        ok &= fb <= fa;
        println!(
            "{:<17} {:<25} {:>5} {fa:>12.6} {:>22} {fb:>12.6} {:>22} {:>7} {:>6}  {verdict}",
            w.name, "fail_ratio", "", "", "", "", ""
        );
    }
    println!(
        "ratio = change median / base median; quartiles as Python's statistics.quantiles(n=4); \
         rows without a bound are demoted metrics, judged by the gain rule alone"
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_guide() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let shifted = |d: f64| base.map(|x| x + d);
        assert_eq!(judge(&base, &shifted(0.5), true, 0.05), Verdict::Same);
        assert_eq!(judge(&base, &shifted(10.0), true, 0.05), Verdict::Worse);
        assert_eq!(judge(&base, &shifted(-10.0), true, 0.05), Verdict::Better);
        // The gain rule alone, as demoted metrics are judged.
        assert!(beats(&base, &shifted(-10.0)));
        assert!(!beats(&base, &shifted(-0.5)) && !beats(&base, &shifted(10.0)));
        // Higher-is-better metrics flip.
        assert_eq!(judge(&base, &shifted(-10.0), false, 0.05), Verdict::Worse);
        // Spread wider than the bound and interleaved runs: unresolved.
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        assert_eq!(
            judge(&noisy, &noisy.map(|x| x + 4.0), true, 0.05),
            Verdict::Unresolved
        );
    }
}
