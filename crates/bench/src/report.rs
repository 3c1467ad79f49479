//! Benchmark measurement and flat-JSON snapshot support.
//!
//! The speedup benches (`sta_engine`, `heuristic_vs_ilp`) record their
//! headline numbers into `BENCH_sta.json` at the workspace root so the
//! performance trajectory is visible across PRs. The snapshot is a flat
//! `{"key": number}` object; [`BenchReport`] merges new keys into an
//! existing file so the two benches can update it independently.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timing measurement: `samples` timed batches of `iters` calls each.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median per-call time across batches, nanoseconds.
    pub median_ns: f64,
    /// Fastest per-call time across batches, nanoseconds.
    pub min_ns: f64,
    /// Calls per batch.
    pub iters: usize,
}

impl Measurement {
    /// Speedup of `self` over a slower baseline (baseline ÷ self, medians).
    pub fn speedup_over(&self, baseline: &Measurement) -> f64 {
        baseline.median_ns / self.median_ns
    }
}

/// Times `f` as `samples` batches of `iters` calls (after one warm-up
/// batch) and reports per-call statistics.
pub fn measure<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> Measurement {
    let samples = samples.max(1);
    let iters = iters.max(1);
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    Measurement {
        median_ns: per_call[samples / 2],
        min_ns: per_call[0],
        iters,
    }
}

/// Ordered key→number map serialized as a flat JSON object.
///
/// Loading an existing snapshot and re-saving preserves keys the current
/// bench did not touch, so `sta_engine` and `heuristic_vs_ilp` can both
/// contribute to one file.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    entries: Vec<(String, f64)>,
}

impl BenchReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a snapshot, returning an empty report if the file is missing
    /// or unparseable (snapshots are regenerable artifacts, not inputs).
    pub fn load(path: &Path) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Self::new();
        };
        let mut report = Self::new();
        for piece in text.trim().trim_start_matches('{').trim_end_matches('}').split(',') {
            let Some((key, value)) = piece.split_once(':') else { continue };
            let key = key.trim().trim_matches('"');
            if key.is_empty() {
                continue;
            }
            if let Ok(v) = value.trim().parse::<f64>() {
                report.set(key, v);
            }
        }
        report
    }

    /// Inserts or overwrites one entry.
    pub fn set(&mut self, key: &str, value: f64) {
        if let Some(entry) = self.entries.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Reads one entry back.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Serializes to pretty-printed flat JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            // Finite decimal form keeps the file diff-friendly.
            out.push_str(&format!("  \"{key}\": {value:.3}{comma}\n"));
        }
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes the snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Path of a snapshot file at the workspace root (two levels above this
/// crate's manifest).
pub fn workspace_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_and_overwrite() {
        let mut r = BenchReport::new();
        r.set("a", 1.0);
        r.set("b", 2.5);
        r.set("a", 3.0);
        assert_eq!(r.get("a"), Some(3.0));
        assert_eq!(r.get("b"), Some(2.5));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn json_save_load_merges() {
        let dir = std::env::temp_dir().join("fbb_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let mut first = BenchReport::new();
        first.set("full_ns", 1234.5);
        first.set("inc_ns", 100.125);
        first.save(&path).unwrap();

        let mut second = BenchReport::load(&path);
        assert!((second.get("full_ns").unwrap() - 1234.5).abs() < 1e-3);
        second.set("speedup", 12.0);
        second.save(&path).unwrap();

        let third = BenchReport::load(&path);
        assert!(third.get("inc_ns").is_some(), "untouched key survives merge");
        assert_eq!(third.get("speedup"), Some(12.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_empty() {
        let r = BenchReport::load(Path::new("/nonexistent/bench.json"));
        assert!(r.get("anything").is_none());
    }

    #[test]
    fn telemetry_snapshot_parses_as_bench_report() {
        // The telemetry flat-JSON format must stay mergeable into
        // BENCH_sta.json: every key a Snapshot emits has to survive a
        // BenchReport::load round trip.
        let sink = fbb_telemetry::MemorySink::new();
        use fbb_telemetry::Sink as _;
        sink.add("lp_simplex_solves", 7);
        sink.record("mc_die_dcrit_ps", 12.5);
        sink.span_ns("ilp_solve", 1_000);
        let snap = sink.snapshot();

        let dir = std::env::temp_dir().join("fbb_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry_compat.json");
        snap.save_flat_json(&path).unwrap();

        let report = BenchReport::load(&path);
        assert_eq!(report.get("lp_simplex_solves"), Some(7.0));
        assert_eq!(report.get("mc_die_dcrit_ps_count"), Some(1.0));
        assert!((report.get("mc_die_dcrit_ps_mean").unwrap() - 12.5).abs() < 1e-9);
        assert_eq!(report.get("ilp_solve_calls"), Some(1.0));
        assert_eq!(report.get("ilp_solve_total_ns"), Some(1000.0));
        // Nothing silently dropped: every snapshot key loads back.
        for line in snap.to_flat_json().lines() {
            if let Some((key, _)) = line.trim().trim_end_matches(',').split_once(':') {
                let key = key.trim().trim_matches('"');
                if !key.is_empty() && key != "{" && key != "}" {
                    assert!(report.get(key).is_some(), "key {key} lost in round trip");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measure_reports_positive_times() {
        let m = measure(3, 10, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
    }
}
