//! `compare A B`: each end-to-end metric of each workload, base runs `A`
//! against candidate runs `B`, judged against the bound `BENCHMARK.json`
//! gives it.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::Metric;
use crate::stats;

/// How a metric moved from `A` to `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound and the base's own spread.
    Improved,
    /// Neither better nor worse by more than the bound.
    Within,
    /// Worse by more than the bound.
    Regressed,
    /// A side's quartile spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges samples `b` against base samples `a`. `worse` is the share by
/// which `b`'s median is worse than `a`'s (negative = better).
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if a.is_empty() || b.is_empty() || ma == 0.0 {
        return (Verdict::Unresolved, f64::NAN);
    }
    let worse = if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let (sa, sb) = (stats::spread(a), stats::spread(b));
    let verdict = if sa > bound || sb > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound.max(sa) {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (verdict, worse)
}

/// End-to-end metric values of every untraced result file in `dir`, by
/// workload and metric.
fn load(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        let slot = out.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Prints one row per workload and metric of `metrics`; returns the rows'
/// verdicts.
///
/// # Errors
///
/// Unreadable directories or result files.
pub fn run(metrics: &[Metric], a: &Path, b: &Path) -> Result<Vec<Verdict>, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    println!(
        "{:<12} {:<12} {:>6} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "bound", "base A", "B", "B/A", "sprd A", "sprd B"
    );
    let mut verdicts = Vec::new();
    for (workload, a_metrics) in &runs_a {
        let Some(b_metrics) = runs_b.get(workload) else {
            println!("{workload:<12} (no runs in B)");
            continue;
        };
        for m in metrics {
            let (name, unit) = (&m.name, &m.unit);
            let Some(bound) = m.bound else {
                continue;
            };
            let (va, vb) = (
                a_metrics.get(name).cloned().unwrap_or_default(),
                b_metrics.get(name).cloned().unwrap_or_default(),
            );
            let (verdict, _) = classify(&va, &vb, m.lower_is_better, bound);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{workload:<12} {name:<12} {bound:>6.3} {:>14} {:>14} {:>8.4} {:>8.4} {:>8.4}  {} (n = {} / {})",
                format!("{ma:.4} {unit}"),
                format!("{mb:.4} {unit}"),
                mb / ma,
                stats::spread(&va),
                stats::spread(&vb),
                verdict.label(),
                va.len(),
                vb.len()
            );
            verdicts.push(verdict);
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (f64::from(i) - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn same_code_is_within_bound() {
        let (v, worse) = classify(&around(10.0, 0.02), &around(10.1, 0.02), true, 0.10);
        assert_eq!(v, Verdict::Within);
        assert!((worse - 0.01).abs() < 1e-9);
    }

    #[test]
    fn direction_follows_better() {
        let a = around(10.0, 0.01);
        let slower = around(12.0, 0.01);
        assert_eq!(classify(&a, &slower, true, 0.10).0, Verdict::Regressed);
        assert_eq!(classify(&slower, &a, true, 0.10).0, Verdict::Improved);
        // For a higher-is-better metric the same move is a gain.
        assert_eq!(classify(&a, &slower, false, 0.10).0, Verdict::Improved);
        assert_eq!(classify(&slower, &a, false, 0.10).0, Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let noisy = around(10.0, 0.5);
        assert_eq!(
            classify(&noisy, &around(20.0, 0.01), true, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&around(10.0, 0.01), &noisy, true, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(classify(&[], &[1.0], true, 0.10).0, Verdict::Unresolved);
    }

    #[test]
    fn deterministic_metrics_with_a_tiny_bound() {
        let same = vec![41.5; 10];
        assert_eq!(classify(&same, &same, false, 0.001).0, Verdict::Within);
        assert_eq!(
            classify(&same, &[41.0; 10], false, 0.001).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn reads_result_directories() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("results/compare-test-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for (d, value) in [(&a, 10.0), (&b, 10.5)] {
            std::fs::create_dir_all(d).unwrap();
            for seed in 0..3 {
                let doc = format!(
                    "{{\"workload\": \"w\", \"trace\": 0, \"metrics\": {{\"op_typical_ms\": {{\"value\": {}, \"unit\": \"ms\"}}}}}}",
                    value + f64::from(seed) * 0.01
                );
                std::fs::write(d.join(format!("w-seed{seed}.json")), doc).unwrap();
            }
            std::fs::write(
                d.join("w-traced.json"),
                "{\"workload\": \"w\", \"trace\": 1, \"metrics\": {}}",
            )
            .unwrap();
        }
        let metrics = [Metric {
            name: "op_typical_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.1),
        }];
        let verdicts = run(&metrics, &a, &b).unwrap();
        assert_eq!(verdicts, vec![Verdict::Within]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
