//! In-memory spans recorded around the calls this benchmark makes into each
//! layer. Kept in a vector while the run lasts and written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sta.analyze`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 = set-up / run level).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    /// Span name.
    pub name: &'static str,
    /// Occurrences.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by children).
    pub self_ns: u64,
}

/// Span recorder. When off, every call is a no-op and nothing is stored.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (meaningless when the tracer is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Records an already-finished top-level interval, e.g. a request
    /// reconstructed from the caller's timestamps.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals, in name order.
    pub fn summary(&self) -> Vec<NameSummary> {
        let selfs = self.self_times();
        let mut by: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = by.entry(s.name).or_insert(NameSummary {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += self_ns;
        }
        by.into_values().collect()
    }

    /// Mean duration of the spans named `name`, milliseconds (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        crate::stats::mean(&durs)
    }

    /// Spans and the per-name summary as JSON for the result file.
    pub fn to_json(&self) -> (Json, Json) {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_owned()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    Json::Num(s.op as f64),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|n| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(n.name.to_owned())),
                    ("count".into(), Json::Num(n.count as f64)),
                    ("total_ms".into(), Json::Num(n.total_ns as f64 / 1e6)),
                    ("self_ms".into(), Json::Num(n.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        (Json::Arr(spans), Json::Arr(summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(t.self_times(), vec![100 - 50 - 10, 25, 30, 30, 5]);
        let sum = t.summary();
        let op = sum.iter().find(|n| n.name == "op").unwrap();
        assert_eq!((op.count, op.total_ns, op.self_ns), (1, 100, 40));
    }

    #[test]
    fn nesting_follows_begin_order_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 3);
        let v = t.time("inner", 3, || 7);
        t.end(outer);
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        off.record("y", 0, Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
