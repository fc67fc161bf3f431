//! `compare <a.json> <b.json>`: per workload × metric, both medians,
//! the relative difference, the bound, and a verdict.
//!
//! Files are what `all --out` writes: `{"runs":[{workload, seed, trace,
//! result}, …]}`. Runs are grouped by workload and tracing mode; with
//! several runs a side its run-to-run spread (interquartile range over
//! the median, quartiles as Python's `statistics.quantiles(n=4)` gives
//! them) is shown, and a metric whose spread is wider than its bound is
//! *unresolved*, not *ok*.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::Samples;
use std::collections::BTreeMap;

/// Verdict for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or unbounded per-layer metric).
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound: cannot tell.
    Unresolved,
    /// `--exact`: a deterministic metric differs between two runs of one
    /// commit from one seed.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// The three quartile cut points of `v`, by Python's default
/// (`exclusive`) method. `None` with fewer than two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let mut d = v.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range over the median; `None` with fewer than four
/// values (too few to call it a spread).
pub fn spread(v: &[f64]) -> Option<f64> {
    if v.len() < 4 {
        return None;
    }
    let q = quartiles(v)?;
    let med = Samples::from_vec(v.to_vec()).median();
    (med != 0.0).then(|| (q[2] - q[0]).abs() / med.abs())
}

/// `(workload, traced) → metric → [(seed, value)]`.
type Table = BTreeMap<(String, bool), BTreeMap<String, Vec<(u64, f64)>>>;

fn load(path: &str, text: &str) -> Result<Table, String> {
    let doc = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `runs` array"))?;
    let mut table = Table::new();
    for run in runs {
        let field = |k: &str| run.get(k).ok_or(format!("{path}: a run lacks `{k}`"));
        let workload = field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?
            .to_string();
        let seed = field("seed")?.as_f64().ok_or("`seed` is not a number")? as u64;
        let traced = field("trace")?.as_f64().ok_or("`trace` is not a number")? != 0.0;
        let result = field("result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{path}: {workload} seed {seed} did not verify; refusing to compare"
            ));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a result lacks `metrics`")?;
        let slot = table.entry((workload, traced)).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no numeric value"))?;
            slot.entry(name.clone()).or_default().push((seed, v));
        }
    }
    Ok(table)
}

/// Compares two result files; prints the table; returns `true` when
/// nothing regressed (or, with `exact`, differed).
pub fn compare(a_path: &str, b_path: &str, exact: bool) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare_texts((a_path, &read(a_path)?), (b_path, &read(b_path)?), exact)
}

/// [`compare`] over documents already in memory, `(label, text)` each.
pub fn compare_texts(
    (a_path, a): (&str, &str),
    (b_path, b): (&str, &str),
    exact: bool,
) -> Result<bool, String> {
    let (a, b) = (load(a_path, a)?, load(b_path, b)?);
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    println!("a = {a_path}\nb = {b_path}");
    println!(
        "{:<16} {:<34} {:>16} {:>16} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b vs a", "bound", "spread a", "spread b"
    );
    for ((workload, traced), a_metrics) in &a {
        let Some(b_metrics) = b.get(&(workload.clone(), *traced)) else {
            println!("{workload:<16} (traced={traced}) missing from b");
            *counts.entry(Verdict::Regressed.label()).or_default() += 1;
            continue;
        };
        for (name, a_vals) in a_metrics {
            let Some(b_vals) = b_metrics.get(name) else {
                continue;
            };
            let def = metrics::find(name);
            let vals = |v: &[(u64, f64)]| v.iter().map(|x| x.1).collect::<Vec<f64>>();
            let (av, bv) = (vals(a_vals), vals(b_vals));
            let (am, bm) = (
                Samples::from_vec(av.clone()).median(),
                Samples::from_vec(bv.clone()).median(),
            );
            // Positive = b is worse.
            let worse = match def.map(|d| d.better) {
                Some(Better::Higher) => am - bm,
                _ => bm - am,
            };
            let rel = if am != 0.0 {
                worse / am.abs()
            } else if bm == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let bound = def.and_then(|d| d.bound);
            let (sa, sb) = (spread(&av), spread(&bv));
            // Deterministic metrics of two runs from one seed must agree
            // (to within block-placement noise where device time is in).
            let tolerance = def.and_then(metrics::exact_tolerance);
            let same_seed_differs = tolerance.is_some_and(|tol| {
                a_vals.iter().any(|(seed, x)| {
                    b_vals
                        .iter()
                        .any(|(s2, y)| s2 == seed && (x - y).abs() > tol * x.abs().max(y.abs()))
                })
            });
            let verdict = if exact && same_seed_differs {
                Verdict::Differs
            } else {
                match bound {
                    None => Verdict::Ok,
                    Some(bd) if rel > bd => Verdict::Regressed,
                    Some(bd) if sa.is_some_and(|s| s > bd) || sb.is_some_and(|s| s > bd) => {
                        Verdict::Unresolved
                    }
                    Some(_) => Verdict::Ok,
                }
            };
            *counts.entry(verdict.label()).or_default() += 1;
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            // Per-layer rows are context; print them only when they moved.
            if bound.is_some() || verdict != Verdict::Ok || rel.abs() > 0.05 {
                println!(
                    "{:<16} {:<34} {:>16.4} {:>16.4} {:>+8.2}% {:>7} {:>8} {:>8}  {}",
                    workload,
                    name,
                    am,
                    bm,
                    rel * 100.0,
                    pct(bound),
                    pct(sa),
                    pct(sb),
                    verdict.label()
                );
            }
        }
    }
    println!(
        "{}",
        counts
            .iter()
            .map(|(k, v)| format!("{k}: {v}"))
            .collect::<Vec<_>>()
            .join("   ")
    );
    let bad = counts.get(Verdict::Regressed.label()).copied().unwrap_or(0)
        + counts.get(Verdict::Differs.label()).copied().unwrap_or(0);
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 5.5 / 5.0).abs() < 1e-12);
    }

    fn doc(runs: &[(u64, f64, f64)]) -> String {
        let runs: Vec<String> = runs
            .iter()
            .map(|(seed, host, virt)| {
                format!(
                    "{{\"workload\":\"ckpt_sparse\",\"seed\":{seed},\"trace\":0,\"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\
                     \"metrics\":{{\"host_op_us_p50\":{{\"value\":{host},\"unit\":\"us\"}},\"virt_stop_us_p50\":{{\"value\":{virt},\"unit\":\"us\"}}}}}}}}"
                )
            })
            .collect();
        format!("{{\"runs\":[{}]}}", runs.join(","))
    }

    #[test]
    fn verdicts() {
        let cmp = |a: &str, b: &str, exact| compare_texts(("a", a), ("b", b), exact).unwrap();
        let base = doc(&[(1, 100.0, 137.19)]);
        // Host 5% slower: inside the 10% bound. Virt identical.
        assert!(cmp(&base, &doc(&[(1, 105.0, 137.19)]), true));
        // Host 20% slower: regressed.
        assert!(!cmp(&base, &doc(&[(1, 120.0, 137.19)]), false));
        // Stop time differs in the last digit: fine against the 1% bound,
        // fatal between two runs of one commit.
        let d = doc(&[(1, 100.0, 137.2)]);
        assert!(cmp(&base, &d, false));
        assert!(!cmp(&base, &d, true));
        // Four noisy runs a side: spread wider than the bound.
        let noisy = doc(&[
            (1, 80.0, 137.19),
            (2, 100.0, 137.19),
            (3, 120.0, 137.19),
            (4, 140.0, 137.19),
        ]);
        assert!(cmp(&noisy, &noisy, true));
    }
}
