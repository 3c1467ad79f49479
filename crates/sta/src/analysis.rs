//! Timing analysis results and path extraction.

use fbb_netlist::GateId;

use crate::{TimingGraph, TimingPath};

/// The result of one arrival/tail propagation over a [`TimingGraph`].
#[derive(Debug, Clone)]
pub struct TimingAnalysis<'g, 'nl> {
    pub(crate) graph: &'g TimingGraph<'nl>,
    pub(crate) delays: Vec<f64>,
    /// Arrival time at each gate's output.
    pub(crate) arrival: Vec<f64>,
    /// Critical fanin gate realizing the arrival.
    pub(crate) pred: Vec<Option<GateId>>,
    /// Longest downstream delay including the gate's own delay.
    pub(crate) tail: Vec<f64>,
    /// Critical fanout gate realizing the tail.
    pub(crate) succ: Vec<Option<GateId>>,
    pub(crate) dcrit: f64,
}

impl<'g, 'nl> TimingAnalysis<'g, 'nl> {
    /// The critical (longest endpoint arrival) delay `Dcrit` in picoseconds.
    pub fn dcrit_ps(&self) -> f64 {
        self.dcrit
    }

    /// Arrival time at the output of `gate`.
    pub fn arrival_ps(&self, gate: GateId) -> f64 {
        self.arrival[gate.index()]
    }

    /// Tail of `gate`: its own delay plus the longest downstream delay (for
    /// a flip-flop, the clk→Q launch into its worst combinational sink).
    pub fn tail_ps(&self, gate: GateId) -> f64 {
        self.tail[gate.index()]
    }

    /// Delay of the longest path passing *through* `gate`.
    pub fn longest_through_ps(&self, gate: GateId) -> f64 {
        // arrival includes the gate delay; tail includes it too.
        self.arrival[gate.index()] - self.delays[gate.index()] + self.tail[gate.index()]
    }

    /// Slack of the worst path through `gate` against `Dcrit`.
    pub fn slack_through_ps(&self, gate: GateId) -> f64 {
        self.dcrit - self.longest_through_ps(gate)
    }

    /// Materializes the longest path through `gate`.
    pub fn longest_path_through(&self, gate: GateId) -> TimingPath {
        let mut prefix = Vec::new();
        let mut cursor = Some(gate);
        while let Some(g) = cursor {
            prefix.push(g);
            cursor = self.pred[g.index()];
        }
        prefix.reverse();
        let mut cursor = self.succ[gate.index()];
        while let Some(g) = cursor {
            prefix.push(g);
            cursor = self.succ[g.index()];
        }
        TimingPath { gates: prefix, delay_ps: self.longest_through_ps(gate) }
    }

    /// The paper's pruned critical path set Π: the longest path through each
    /// cell, each distinct path once (many cells share their worst path), in
    /// the topological order of the first cell whose path it is.
    ///
    /// Sequential cells contribute through the launch paths of their Q pins,
    /// which already include them as startpoints, so only combinational
    /// cells seed extraction.
    ///
    /// Deduplication is exact and O(gates): two combinational cells share
    /// their longest path exactly when a chain of mutual critical links
    /// (`succ[a] == b` and `pred[b] == a`) joins them, so each distinct path
    /// is materialized once, from the first cell of its chain.
    pub fn critical_path_set(&self) -> Vec<TimingPath> {
        self.path_set(|_| true)
    }

    /// Like [`TimingAnalysis::critical_path_set`], but keeps only paths whose
    /// delay degraded by the slowdown coefficient `beta` would violate
    /// `Dcrit` — exactly the constraint set (`No.Constr`) of the paper:
    /// `pd · (1 + β) > Dcrit`. Paths that pass the filter are the only ones
    /// materialized.
    pub fn constrained_path_set(&self, beta: f64) -> Vec<TimingPath> {
        self.path_set(|g| self.longest_through_ps(g) * (1.0 + beta) > self.dcrit + 1e-9)
    }

    /// Materializes, in topological order, the path of every chain head
    /// (the first cell of its chain, see
    /// [`TimingAnalysis::critical_path_set`]) that `keep` accepts. The
    /// topological loop reaches a head before the rest of its chain, so the
    /// path and its `delay_ps` (the head's own
    /// [`TimingAnalysis::longest_through_ps`]) are the ones a
    /// first-occurrence deduplication keeps.
    fn path_set(&self, keep: impl Fn(GateId) -> bool) -> Vec<TimingPath> {
        let _span = fbb_telemetry::span("sta_path_set");
        let nl = self.graph.netlist;
        self.graph
            .topo
            .iter()
            .copied()
            .filter(|&g| match self.pred[g.index()] {
                None => true,
                // A flip-flop never seeds extraction, so it cannot head the
                // chain of the gate it launches into.
                Some(p) if nl.gate(p).cell.kind.is_sequential() => true,
                Some(p) => self.succ[p.index()] != Some(g),
            })
            .filter(|&g| keep(g))
            .map(|g| self.longest_path_through(g))
            .collect()
    }

    /// The timing graph this analysis ran on.
    pub fn graph(&self) -> &'g TimingGraph<'nl> {
        self.graph
    }

    /// The delay assignment this analysis was computed for.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::{CellKind, DriveStrength};
    use fbb_netlist::{generators, Netlist, NetlistBuilder};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Brute-force longest path through each gate by DFS enumeration.
    fn brute_force_through(nl: &Netlist, delays: &[f64]) -> Vec<f64> {
        let graph = TimingGraph::new(nl).unwrap();
        let n = nl.gate_count();
        // Longest arrival ending at gate (inclusive).
        let mut arr = vec![0.0f64; n];
        for &id in &graph.topo {
            let i = id.index();
            let mut best = 0.0f64;
            for &p in &graph.comb_fanin[i] {
                best = best.max(arr[p.index()]);
            }
            for &ff in &graph.seq_fanin[i] {
                best = best.max(delays[ff.index()]);
            }
            arr[i] = best + delays[i];
        }
        let mut tail = vec![0.0f64; n];
        for &id in graph.topo.iter().rev() {
            let i = id.index();
            let mut best = 0.0f64;
            for &s in &graph.comb_fanout[i] {
                best = best.max(tail[s.index()]);
            }
            tail[i] = best + delays[i];
        }
        (0..n).map(|i| arr[i] - delays[i] + tail[i]).collect()
    }

    #[test]
    fn diamond_takes_slower_branch() {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.input("a");
        let top = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let bot1 = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let bot2 = b.gate(CellKind::Inv, DriveStrength::X1, &[bot1]).unwrap();
        let join = b.gate(CellKind::And2, DriveStrength::X1, &[top, bot2]).unwrap();
        b.output(join, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&[10.0, 10.0, 10.0, 10.0]);
        assert!((a.dcrit_ps() - 30.0).abs() < 1e-9);
        // The path through the top gate is 10 + 10 = 20: slack 10.
        assert!((a.slack_through_ps(GateId::from_index(0)) - 10.0).abs() < 1e-9);
        // Bottom branch is critical: slack 0.
        assert!(a.slack_through_ps(GateId::from_index(1)).abs() < 1e-9);
        let p = a.longest_path_through(GateId::from_index(1));
        assert_eq!(p.gates.len(), 3);
        assert!((p.delay_ps - 30.0).abs() < 1e-9);
    }

    #[test]
    fn longest_through_matches_brute_force_on_random_logic() {
        let nl = generators::random_logic(
            "r",
            &generators::RandomLogicOptions {
                target_gates: 250,
                n_inputs: 12,
                seed: 99,
                registered: true,
                locality_window: 24,
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let delays: Vec<f64> = (0..nl.gate_count()).map(|_| rng.gen_range(5.0..30.0)).collect();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        let brute = brute_force_through(&nl, &delays);
        for (i, &expect) in brute.iter().enumerate() {
            if nl.gates()[i].cell.kind.is_sequential() {
                continue; // launch handling differs for flops themselves
            }
            let got = a.longest_through_ps(GateId::from_index(i));
            assert!((got - expect).abs() < 1e-6, "gate {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn materialized_path_delay_is_consistent() {
        let nl = generators::alu("alu8", 8).unwrap();
        let delays: Vec<f64> = nl.gates().iter().map(|g| 5.0 + g.cell.kind.index() as f64).collect();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        for path in a.critical_path_set() {
            let sum: f64 = path.gates.iter().map(|&g| delays[g.index()]).sum();
            assert!(
                (sum - path.delay_ps).abs() < 1e-6,
                "path delay {} != gate sum {sum}",
                path.delay_ps
            );
        }
    }

    #[test]
    fn path_set_is_deduplicated_and_covers_critical_path() {
        let nl = generators::ripple_adder("a16", 16, false).unwrap();
        let delays: Vec<f64> = vec![10.0; nl.gate_count()];
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        let paths = a.critical_path_set();
        // Far fewer unique paths than gates.
        assert!(paths.len() < nl.gate_count());
        // The global critical path is in the set.
        let max = paths.iter().map(|p| p.delay_ps).fold(0.0f64, f64::max);
        assert!((max - a.dcrit_ps()).abs() < 1e-9);
        // No duplicates.
        let mut gates: Vec<&[GateId]> = paths.iter().map(|p| p.gates.as_slice()).collect();
        gates.sort_unstable();
        gates.dedup();
        assert_eq!(gates.len(), paths.len(), "duplicate path in Π");
    }

    #[test]
    fn constrained_set_grows_with_beta() {
        let nl = generators::alu("alu16", 16).unwrap();
        let delays: Vec<f64> = nl.gates().iter().map(|g| 5.0 + g.cell.kind.index() as f64).collect();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        let m5 = a.constrained_path_set(0.05).len();
        let m10 = a.constrained_path_set(0.10).len();
        assert!(m10 >= m5, "{m10} < {m5}");
        assert!(m5 >= 1, "critical path itself always violates under slowdown");
        // Every constrained path indeed violates when degraded.
        for p in a.constrained_path_set(0.05) {
            assert!(p.delay_ps * 1.05 > a.dcrit_ps());
        }
    }

    #[test]
    fn zero_beta_has_no_constraints() {
        let nl = generators::ripple_adder("a8", 8, false).unwrap();
        let delays: Vec<f64> = vec![10.0; nl.gate_count()];
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        assert!(a.constrained_path_set(0.0).is_empty());
    }

    #[test]
    fn launch_path_includes_the_flop() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff(DriveStrength::X1, a).unwrap();
        let w = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.output(w, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        let an = g.analyze(&[30.0, 10.0]);
        let p = an.longest_path_through(GateId::from_index(1));
        assert_eq!(p.gates, vec![GateId::from_index(0), GateId::from_index(1)]);
        assert!((p.delay_ps - 40.0).abs() < 1e-9);
    }
}
