//! Per-layer measurement shared by the workloads: replays of the sta and lp
//! layers from outside on the same inputs an operation used, and the
//! program's own telemetry counters turned into per-layer metrics.

use std::collections::BTreeMap;

use fbb_core::FbbProblem;
use fbb_lp::cuts::separate_cuts;
use fbb_lp::presolve::{presolve, Presolved};
use fbb_lp::{solve_lp, LpStatus, Model};
use fbb_netlist::Netlist;
use fbb_sta::TimingGraph;

use crate::metrics::Outcome;
use crate::trace::Tracer;

/// Replays the STA half of pre-processing (graph build, full analysis,
/// critical path set) and returns the number of paths in the set.
pub fn replay_sta(netlist: &Netlist, problem: &FbbProblem<'_>, tr: &mut Tracer, op: u64) -> usize {
    let delays = problem.nominal_delays();
    let graph = tr
        .time("sta.graph_build", op, || TimingGraph::new(netlist))
        .expect("benchmark netlists are acyclic");
    let analysis = tr.time("sta.analyze", op, || graph.analyze(&delays));
    tr.time("sta.path_set", op, || analysis.critical_path_set())
        .len()
}

/// Replays the front of the MIP pipeline on `model`: presolve, the root LP
/// relaxation of the reduced model, and one round of cut separation at its
/// optimum (structure detected by scanning, as hints live in the original
/// row space).
pub fn replay_lp(model: &Model, tr: &mut Tracer, op: u64) {
    let Presolved::Reduced {
        model: reduced,
        map,
    } = tr.time("lp.presolve", op, || presolve(model))
    else {
        return;
    };
    if map.reduced_cols() == 0 || reduced.constraint_count() == 0 {
        return;
    }
    let Ok(root) = tr.time("lp.root_lp", op, || solve_lp(&reduced)) else {
        return;
    };
    if root.status == LpStatus::Optimal {
        tr.time("lp.cuts", op, || separate_cuts(&reduced, None, &root.x));
    }
}

/// Counters and span totals from the program's own telemetry, either this
/// process's sink or the daemon's dump.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Telemetry {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Span `(count, total_ns)` by name.
    pub spans: BTreeMap<String, (u64, u64)>,
}

impl Telemetry {
    /// Copies this process's telemetry sink.
    pub fn capture() -> Self {
        let snap = fbb_telemetry::snapshot();
        Telemetry {
            counters: snap.counters.clone(),
            spans: snap
                .spans
                .iter()
                .map(|(k, s)| (k.clone(), (s.count, s.total_ns)))
                .collect(),
        }
    }

    /// One `counter NAME VALUE` / `span NAME COUNT TOTAL_NS` line per entry,
    /// the form the daemon prints when it drains.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, (c, t)) in &self.spans {
            out.push_str(&format!("span {k} {c} {t}\n"));
        }
        out
    }

    /// Reads [`Telemetry::to_lines`] output back, skipping other lines.
    pub fn from_lines(text: &str) -> Self {
        let mut t = Telemetry::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["counter", k, v] => {
                    if let Ok(v) = v.parse() {
                        t.counters.insert((*k).to_owned(), v);
                    }
                }
                ["span", k, c, tot] => {
                    if let (Ok(c), Ok(tot)) = (c.parse(), tot.parse()) {
                        t.spans.insert((*k).to_owned(), (c, tot));
                    }
                }
                _ => {}
            }
        }
        t
    }

    /// A counter, 0 when absent.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean duration of span `name` in milliseconds, 0 when absent.
    pub fn span_mean_ms(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(&(count, total)) if count > 0 => total as f64 / count as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Sets the `lp.*` counter metrics, each per branch-and-bound tree, and
    /// `lp.mip_ms` from the `bnb_solve` span.
    pub fn set_lp_metrics(&self, out: &mut Outcome) {
        let trees = self.counter("bnb_solves").max(1.0);
        out.set("lp.mip_ms", self.span_mean_ms("bnb_solve"));
        out.set("lp.bnb_nodes", self.counter("bnb_nodes_explored") / trees);
        out.set(
            "lp.simplex_iterations",
            self.counter("lp_simplex_iterations") / trees,
        );
        out.set(
            "lp.factorizations",
            self.counter("lp_factorizations") / trees,
        );
        out.set("lp.cut_rounds", self.counter("bnb_cut_rounds") / trees);
        out.set(
            "lp.cuts_added",
            (self.counter("bnb_cuts_clique_added") + self.counter("bnb_cuts_cover_added")) / trees,
        );
        let warm = self.counter("bnb_warm_starts");
        let fallback = self.counter("bnb_warm_start_fallbacks");
        out.set(
            "lp.warm_start_fallback_ratio",
            if warm + fallback > 0.0 {
                fallback / (warm + fallback)
            } else {
                0.0
            },
        );
    }
}

/// Sets the set-up layer metrics from the spans recorded outside any
/// operation, averaged over `setups` traced set-ups.
pub fn set_setup_metrics(tr: &Tracer, setups: usize, out: &mut Outcome) {
    for (span, metric) in [
        ("netlist.build", "netlist.build_ms"),
        ("placement.place", "placement.place_ms"),
        ("device.characterize", "device.characterize_ms"),
        ("db.build", "db.build_ms"),
    ] {
        let total: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.op == 0 && s.name == span)
            .map(|s| s.dur_ns())
            .sum();
        out.set(metric, total as f64 / 1e6 / setups.max(1) as f64);
    }
}

/// Sets the sta and pre-processing metrics from replay spans.
pub fn set_sta_metrics(tr: &Tracer, out: &mut Outcome) {
    let graph = tr.mean_ms("sta.graph_build");
    let analyze = tr.mean_ms("sta.analyze");
    let path_set = tr.mean_ms("sta.path_set");
    let pre = tr.mean_ms("core.preprocess");
    out.set("sta.graph_build_ms", graph);
    out.set("sta.analyze_ms", analyze);
    out.set("sta.path_set_ms", path_set);
    out.set("core.preprocess_ms", pre);
    out.set(
        "core.preprocess_self_ms",
        (pre - graph - analyze - path_set).max(0.0),
    );
    out.set("core.build_model_ms", tr.mean_ms("core.build_model"));
    let presolve = tr.mean_ms("lp.presolve");
    let root = tr.mean_ms("lp.root_lp");
    out.set("lp.presolve_ms", presolve);
    out.set("lp.root_lp_ms", root);
    out.set("lp.cuts_ms", tr.mean_ms("lp.cuts"));
    if let Some(mip) = out.get("lp.mip_ms") {
        out.set(
            "lp.mip_over_root_lp",
            if root > 0.0 { mip / root } else { 0.0 },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_lines_round_trip() {
        let mut t = Telemetry::default();
        t.counters.insert("bnb_solves".into(), 4);
        t.counters.insert("bnb_nodes_explored".into(), 100);
        t.spans.insert("bnb_solve".into(), (4, 8_000_000));
        let back = Telemetry::from_lines(&format!("listening 127.0.0.1:1\n{}", t.to_lines()));
        assert_eq!(back, t);
        let mut out = Outcome::default();
        back.set_lp_metrics(&mut out);
        assert_eq!(out.get("lp.bnb_nodes"), Some(25.0));
        assert_eq!(out.get("lp.mip_ms"), Some(2.0));
    }
}
