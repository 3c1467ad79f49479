//! The process-global aggregation sink behind the crate's free functions.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::snapshot::{Snapshot, SpanSummary, StatSummary};

#[derive(Debug)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    stats: BTreeMap<&'static str, StatSummary>,
    spans: BTreeMap<&'static str, SpanSummary>,
}

impl State {
    const fn new() -> Self {
        State { counters: BTreeMap::new(), stats: BTreeMap::new(), spans: BTreeMap::new() }
    }
}

/// Thread-safe in-memory aggregation sink.
///
/// Counters are exact sums and therefore order-independent: concurrent
/// recording from the worker pool yields the same totals as a serial run.
/// Value distributions keep count/sum/min/max; floating-point sums are only
/// reproducible when observations arrive in a fixed order, so callers record
/// `f64` values from the coordinating thread (a `fbb_sta::par::parallel_gen`
/// collect already returns results in input order) rather than from inside
/// workers.
#[derive(Debug)]
pub(crate) struct MemorySink {
    state: Mutex<State>,
}

impl MemorySink {
    /// Empty sink; `const`, so the global sink is a plain `static`.
    pub(crate) const fn new() -> Self {
        MemorySink { state: Mutex::new(State::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("telemetry state poisoned")
    }

    /// Clears every counter, stat and span.
    pub(crate) fn reset(&self) {
        *self.lock() = State::new();
    }

    /// Copies the current aggregates into an owned [`Snapshot`].
    pub(crate) fn snapshot(&self) -> Snapshot {
        let state = self.lock();
        Snapshot {
            counters: state.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            stats: state.stats.iter().map(|(&k, v)| (k.to_string(), v.clone())).collect(),
            spans: state.spans.iter().map(|(&k, v)| (k.to_string(), v.clone())).collect(),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub(crate) fn add(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    /// Records one observation of a named value distribution.
    pub(crate) fn record(&self, name: &'static str, value: f64) {
        self.lock().stats.entry(name).or_default().observe(value);
    }

    /// Records one completed span of `dur_ns` nanoseconds.
    pub(crate) fn span_ns(&self, name: &'static str, dur_ns: u64) {
        self.lock().spans.entry(name).or_default().observe(dur_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum() {
        let sink = MemorySink::new();
        sink.add("a", 2);
        sink.add("a", 3);
        sink.add("b", 1);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.counter("b"), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn stats_track_bounds() {
        let sink = MemorySink::new();
        for v in [3.0, -1.0, 7.5] {
            sink.record("x", v);
        }
        let snap = sink.snapshot();
        let stat = snap.stat("x").expect("recorded");
        assert_eq!(stat.count, 3);
        assert!((stat.min - -1.0).abs() < 1e-12);
        assert!((stat.max - 7.5).abs() < 1e-12);
        assert!((stat.mean() - 9.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spans_aggregate() {
        let sink = MemorySink::new();
        sink.span_ns("solve", 1_000);
        sink.span_ns("solve", 3_000);
        let snap = sink.snapshot();
        let span = snap.span("solve").expect("recorded");
        assert_eq!(span.count, 2);
        assert_eq!(span.total_ns, 4_000);
        assert_eq!(span.min_ns, 1_000);
        assert_eq!(span.max_ns, 3_000);
    }

    #[test]
    fn reset_clears_everything() {
        let sink = MemorySink::new();
        sink.add("a", 1);
        sink.record("x", 1.0);
        sink.span_ns("s", 1);
        sink.reset();
        let snap = sink.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.stats.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let sink = MemorySink::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        sink.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().counter("hits"), Some(8000));
    }
}
