//! Owned snapshot of the telemetry state and its serializations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Aggregate of one value distribution (see `fbb_telemetry::record`).
#[derive(Debug, Clone, PartialEq)]
pub struct StatSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Default for StatSummary {
    fn default() -> Self {
        StatSummary { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl StatSummary {
    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Arithmetic mean (`0` before any observation).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregate of one named span (see `fbb_telemetry::span`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds across spans.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl Default for SpanSummary {
    fn default() -> Self {
        SpanSummary { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }
}

impl SpanSummary {
    /// Folds one completed span in.
    pub fn observe(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
    }
}

/// Point-in-time copy of every telemetry aggregate (see
/// [`snapshot`](crate::snapshot)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Value distributions by name.
    pub stats: BTreeMap<String, StatSummary>,
    /// Span aggregates by name.
    pub spans: BTreeMap<String, SpanSummary>,
}

impl Snapshot {
    /// Reads one counter back.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads one value distribution back.
    pub fn stat(&self, name: &str) -> Option<&StatSummary> {
        self.stats.get(name)
    }

    /// Reads one span aggregate back.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.get(name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.stats.is_empty() && self.spans.is_empty()
    }

    /// Serializes to a flat `{"key": number}` JSON object — the same shape
    /// `fbb_bench::report::BenchReport` reads and merges, so a telemetry
    /// snapshot can be folded into `BENCH_sta.json` alongside bench numbers.
    ///
    /// Key schema (all values finite numbers, keys sorted):
    ///
    /// * counters serialize under their own name;
    /// * each stat `s` expands to `s_count`, `s_sum`, `s_min`, `s_max`,
    ///   `s_mean` (bounds omitted while empty);
    /// * each span `p` expands to `p_calls`, `p_total_ns`, `p_min_ns`,
    ///   `p_max_ns`.
    pub fn to_flat_json(&self) -> String {
        let mut entries: Vec<(String, String)> = Vec::new();
        for (name, &value) in &self.counters {
            entries.push((name.clone(), format!("{value}")));
        }
        for (name, stat) in &self.stats {
            entries.push((format!("{name}_count"), format!("{}", stat.count)));
            if stat.count > 0 {
                entries.push((format!("{name}_sum"), fmt_f64(stat.sum)));
                entries.push((format!("{name}_min"), fmt_f64(stat.min)));
                entries.push((format!("{name}_max"), fmt_f64(stat.max)));
                entries.push((format!("{name}_mean"), fmt_f64(stat.mean())));
            }
        }
        for (name, span) in &self.spans {
            entries.push((format!("{name}_calls"), format!("{}", span.count)));
            entries.push((format!("{name}_total_ns"), format!("{}", span.total_ns)));
            if span.count > 0 {
                entries.push((format!("{name}_min_ns"), format!("{}", span.min_ns)));
                entries.push((format!("{name}_max_ns"), format!("{}", span.max_ns)));
            }
        }
        entries.sort();
        let mut out = String::from("{\n");
        for (i, (key, value)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            let _ = writeln!(out, "  \"{key}\": {value}{comma}");
        }
        out.push_str("}\n");
        out
    }

    /// Writes [`Snapshot::to_flat_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_flat_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_flat_json())
    }

    /// Human-readable summary table: counters, value distributions, and
    /// span timings, one aligned section each.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry: nothing recorded\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {value:>12}");
            }
        }
        if !self.stats.is_empty() {
            out.push_str("distributions                                     count         mean          min          max\n");
            for (name, s) in &self.stats {
                let _ = writeln!(
                    out,
                    "  {name:<42} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                    s.count,
                    s.mean(),
                    if s.count > 0 { s.min } else { 0.0 },
                    if s.count > 0 { s.max } else { 0.0 },
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans                                             calls    total[ms]     mean[us]      max[us]\n");
            for (name, s) in &self.spans {
                let mean_us =
                    if s.count == 0 { 0.0 } else { s.total_ns as f64 / s.count as f64 / 1e3 };
                let _ = writeln!(
                    out,
                    "  {name:<42} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    mean_us,
                    s.max_ns as f64 / 1e3,
                );
            }
        }
        out
    }
}

/// Finite decimal form, diff-friendly, parseable by `f64::parse`.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("lp_simplex_pivots".into(), 42);
        let mut stat = StatSummary::default();
        stat.observe(2.0);
        stat.observe(4.0);
        snap.stats.insert("mc_die_dcrit_ps".into(), stat);
        let mut span = SpanSummary::default();
        span.observe(1_500);
        snap.spans.insert("ilp_solve".into(), span);
        snap
    }

    #[test]
    fn flat_json_schema() {
        let json = sample().to_flat_json();
        assert!(json.contains("\"lp_simplex_pivots\": 42"));
        assert!(json.contains("\"mc_die_dcrit_ps_count\": 2"));
        assert!(json.contains("\"mc_die_dcrit_ps_mean\": 3.0"));
        assert!(json.contains("\"ilp_solve_calls\": 1"));
        assert!(json.contains("\"ilp_solve_total_ns\": 1500"));
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn flat_json_keys_are_sorted() {
        let json = sample().to_flat_json();
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"'))
            .filter_map(|l| l.split('"').next())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn summary_mentions_every_section() {
        let text = sample().summary();
        assert!(text.contains("counters"));
        assert!(text.contains("distributions"));
        assert!(text.contains("spans"));
        assert!(text.contains("lp_simplex_pivots"));
        assert!(Snapshot::default().summary().contains("nothing recorded"));
    }

    #[test]
    fn empty_stat_serializes_count_only() {
        let mut snap = Snapshot::default();
        snap.stats.insert("empty".into(), StatSummary::default());
        let json = snap.to_flat_json();
        assert!(json.contains("\"empty_count\": 0"));
        assert!(!json.contains("empty_min"), "no infinite bounds in JSON");
    }
}
