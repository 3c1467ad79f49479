//! Lightweight, std-only telemetry for the clustered-FBB stack: monotonic
//! counters, value distributions, and span-style timers, aggregated in one
//! process-global sink and exported as a flat JSON snapshot or a
//! human-readable summary table.
//!
//! # Zero cost when disabled
//!
//! Telemetry is **off by default**. Every recording entry point
//! ([`counter`], [`record`], [`span`], [`time`]) begins with one relaxed
//! atomic load; while disabled nothing else executes — no allocation, no
//! locking, no clock read. Instrumented hot paths therefore pay a single
//! predictable branch. Code that aggregates many increments locally (the
//! simplex counts pivots in plain integer fields and flushes once per solve)
//! pays even that branch only once.
//!
//! # Determinism
//!
//! Counters are exact integer sums, so totals are identical no matter how
//! recording interleaves across `fbb_sta::par` workers: for a fixed seed and
//! `FBB_THREADS` setting, a pipeline run produces a bit-identical counter
//! set (asserted by the workspace's `telemetry_determinism` test). Float
//! distributions are deterministic when recorded in a fixed order — record
//! them from the coordinating thread, after parallel results are collected
//! in input order. Span durations are wall-clock and never deterministic.
//!
//! # Example
//!
//! ```
//! fbb_telemetry::reset();
//! fbb_telemetry::enable();
//! fbb_telemetry::counter("solves", 1);
//! fbb_telemetry::record("cone_nodes", 17.0);
//! let answer = fbb_telemetry::time("work", || 6 * 7);
//! assert_eq!(answer, 42);
//!
//! let snap = fbb_telemetry::snapshot();
//! assert_eq!(snap.counter("solves"), Some(1));
//! assert!(snap.to_flat_json().contains("\"cone_nodes_mean\": 17.0"));
//! fbb_telemetry::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sink;
mod snapshot;

pub use snapshot::{Snapshot, SpanSummary, StatSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sink::MemorySink;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global aggregation sink (lives for the whole process; its
/// contents are governed by [`enable`]/[`reset`]).
static SINK: MemorySink = MemorySink::new();

/// Whether telemetry is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (process-wide). Previously accumulated aggregates are
/// kept; call [`reset`] first for a clean slate.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Aggregates are kept and can still be snapshotted.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all aggregates.
pub fn reset() {
    SINK.reset();
}

/// Adds `delta` to the named monotonic counter. No-op while disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    SINK.add(name, delta);
}

/// Records one observation of a named value distribution (count/sum/min/max
/// are aggregated). No-op while disabled. Non-finite values are dropped so
/// snapshots always serialize to valid JSON.
#[inline]
pub fn record(name: &'static str, value: f64) {
    if !is_enabled() || !value.is_finite() {
        return;
    }
    SINK.record(name, value);
}

/// Starts a span timer; the elapsed time is recorded under `name` when the
/// returned guard drops. While disabled the guard is inert (no clock read).
///
/// ```
/// {
///     let _span = fbb_telemetry::span("ilp_solve");
///     // ... work ...
/// } // recorded here
/// ```
#[inline]
pub fn span(name: &'static str) -> Span {
    Span { name, start: if is_enabled() { Some(Instant::now()) } else { None } }
}

/// Times `f` as a span named `name` and returns its result.
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Times `f` and adds the elapsed nanoseconds to the **counter** `name`.
///
/// Unlike [`time`], which feeds the span machinery (`p_calls`,
/// `p_total_ns`, …), this sums straight into one exactly-named counter —
/// the right shape for contract keys like `db_encode_ns` that downstream
/// tooling looks up verbatim in the flat JSON snapshot. Durations beyond
/// `u64::MAX` nanoseconds saturate. While disabled, no clock is read.
#[inline]
pub fn time_counter_ns<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !is_enabled() {
        return f();
    }
    let start = Instant::now();
    let result = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter(name, ns);
    result
}

/// Snapshot of the global sink's aggregates (works while disabled too, e.g.
/// to export after a run has been stopped).
pub fn snapshot() -> Snapshot {
    SINK.snapshot()
}

/// Guard returned by [`span`]; records the elapsed time on drop.
#[derive(Debug)]
#[must_use = "a span records when the guard drops; binding it to _ drops immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span now (instead of at scope exit).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            if is_enabled() {
                SINK.span_ns(self.name, start.elapsed().as_nanos() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The global sink is process-wide state; tests that toggle it must not
    /// interleave.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("test lock poisoned")
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = global_lock();
        reset();
        disable();
        counter("c", 1);
        record("r", 1.0);
        time("t", || ());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_records_and_reset_clears() {
        let _guard = global_lock();
        reset();
        enable();
        counter("c", 2);
        counter("c", 3);
        record("r", 4.0);
        let result = time("t", || 7);
        assert_eq!(result, 7);
        let snap = snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.stat("r").map(|s| s.count), Some(1));
        assert_eq!(snap.span("t").map(|s| s.count), Some(1));
        disable();
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn non_finite_records_are_dropped() {
        let _guard = global_lock();
        reset();
        enable();
        record("gap", f64::INFINITY);
        record("gap", f64::NAN);
        record("gap", 0.5);
        let snap = snapshot();
        assert_eq!(snap.stat("gap").map(|s| s.count), Some(1));
        disable();
        reset();
    }

    #[test]
    fn span_guard_records_on_drop() {
        let _guard = global_lock();
        reset();
        enable();
        let s = span("explicit");
        s.end();
        {
            let _s = span("scoped");
        }
        let snap = snapshot();
        assert_eq!(snap.span("explicit").map(|s| s.count), Some(1));
        assert_eq!(snap.span("scoped").map(|s| s.count), Some(1));
        disable();
        reset();
    }
}
