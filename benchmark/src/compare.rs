//! `compare <base-dir> <change-dir>`: reads two sets of untraced result
//! files and `BENCHMARK.json`, and prints one row per (workload, end-to-end
//! metric) with both medians and quartiles, the change against its base,
//! and a verdict. This is what the two-run-set acceptance check runs: two
//! sets of the same commit must come out with no `worse` row.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's own rule), for two or more values; a single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return [data[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// How a change's runs of one metric read against the base's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median moved the good way.
    Better,
    /// The median moved the bad way, by no more than the bound.
    Within,
    /// The median moved the bad way by more than the bound: a regression.
    Worse,
    /// The base's own spread is wider than the bound, so the bound cannot
    /// be read off these runs.
    Unresolved,
}

/// Judges `change` against `base` for a metric where `higher` is better or
/// not, allowed to worsen by `bound` (a share of the base's median).
/// Returns the verdict and the share by which the median worsened.
pub fn judge(base: &[f64], change: &[f64], higher: bool, bound: f64) -> (Verdict, f64) {
    let [b1, b2, b3] = quartiles(base);
    let c2 = quartiles(change)[1];
    let worsened = if higher { b2 - c2 } else { c2 - b2 } / b2.abs();
    let spread = (b3 - b1) / b2.abs();
    let all_better = change
        .iter()
        .all(|&c| base.iter().all(|&b| if higher { c > b } else { c < b }));
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worsened > bound {
        Verdict::Worse
    } else if worsened > 0.0 {
        Verdict::Within
    } else {
        Verdict::Better
    };
    (verdict, worsened)
}

/// One set of runs: workload → metric → value per run, and workload → seed
/// → digest.
#[derive(Debug, Default)]
struct ResultSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    digests: BTreeMap<(String, u64), String>,
}

fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Only untraced result files carry end-to-end metrics.
        if doc.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{}: no `{key}`", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let digest = field("digest")?.as_str().unwrap_or_default().to_string();
        set.digests.insert((workload.clone(), seed), digest);
        let by_metric = set.values.entry(workload).or_default();
        for (name, entry) in field("metrics")?.as_obj().unwrap_or_default() {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: metric {name} has no value", path.display()))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    if set.values.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

/// Compares two result directories under `manifest` (`BENCHMARK.json`),
/// printing the table to stdout. Returns whether any row is `Worse`.
///
/// # Errors
///
/// Returns a message when a directory or the manifest cannot be read.
pub fn compare(base_dir: &Path, change_dir: &Path, manifest: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let manifest = Json::parse(&text)?;
    let declared = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no `end_to_end` list")?;
    let (base, change) = (load(base_dir)?, load(change_dir)?);

    println!(
        "{:<15} {:<17} {:>6}  {:>36}  {:>36}  {:>8}  verdict",
        "workload",
        "metric",
        "bound",
        "base  q1 / median / q3",
        "change  q1 / median / q3",
        "worse by"
    );
    let mut regressed = false;
    for (workload, base_metrics) in &base.values {
        let Some(change_metrics) = change.values.get(workload) else {
            println!("{workload:<15} missing from {}", change_dir.display());
            continue;
        };
        for def in declared {
            let name = def.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = def.get("bound").and_then(Json::as_f64).unwrap_or_default();
            let higher = def.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(b), Some(c)) = (base_metrics.get(name), change_metrics.get(name)) else {
                println!("{workload:<15} {name:<17} missing from a result set");
                continue;
            };
            let (verdict, worsened) = judge(b, c, higher, bound);
            regressed |= verdict == Verdict::Worse;
            let row = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q1:>11.4} /{q2:>11.4} /{q3:>11.4}")
            };
            println!(
                "{workload:<15} {name:<17} {:>5.1}%  {}  {}  {:>+7.2}%  {verdict:?} (n={}/{}, base {:.4})",
                bound * 100.0,
                row(b),
                row(c),
                worsened * 100.0,
                b.len(),
                c.len(),
                quartiles(b)[1],
            );
        }
    }
    // Simulated results are deterministic per seed: where both sets ran a
    // seed, say whether they produced the same latency samples.
    for ((workload, seed), digest) in &base.digests {
        if let Some(other) = change.digests.get(&(workload.clone(), *seed)) {
            let same = if digest == other {
                "identical"
            } else {
                "DIFFERS"
            };
            println!("{workload:<15} seed {seed:<4} digest {digest} vs {other}: {same}");
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, bound 5%.
        assert_eq!(
            judge(&base, &[90.0, 91.0, 92.0], false, 0.05).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &[102.0, 103.0, 101.0], false, 0.05).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&base, &[110.0, 111.0, 112.0], false, 0.05).0,
            Verdict::Worse
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(&base, &[110.0, 111.0, 112.0], true, 0.05).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &[90.0, 91.0, 92.0], true, 0.05).0,
            Verdict::Worse
        );
        // A base that spreads wider than the bound resolves nothing...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[130.0, 131.0], false, 0.05).0,
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the base.
        assert_eq!(judge(&noisy, &[70.0, 75.0], false, 0.05).0, Verdict::Better);
        let (_, worsened) = judge(&base, &[110.0], false, 0.05);
        assert!((worsened - 0.10).abs() < 1e-12);
    }
}
