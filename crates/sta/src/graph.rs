//! The levelized timing graph.

use fbb_netlist::{GateId, Netlist, NetlistError};

use crate::analysis::TimingAnalysis;

/// A levelized timing graph over one netlist.
///
/// Flip-flops are timing boundaries: their Q output is a startpoint whose
/// arrival is the clk→Q delay of the flop, and their D input is an endpoint.
/// Primary inputs arrive at time 0; primary outputs are endpoints.
#[derive(Debug, Clone)]
pub struct TimingGraph<'nl> {
    pub(crate) netlist: &'nl Netlist,
    /// Topological order of the combinational gates.
    pub(crate) topo: Vec<GateId>,
    /// Combinational fanin gates per gate (drivers of its input nets that
    /// are combinational), deduplicated.
    pub(crate) comb_fanin: Vec<Vec<GateId>>,
    /// Sequential (DFF) drivers feeding each gate, deduplicated.
    pub(crate) seq_fanin: Vec<Vec<GateId>>,
    /// Combinational fanout gates per gate, deduplicated.
    pub(crate) comb_fanout: Vec<Vec<GateId>>,
    /// Whether the gate's output is a timing endpoint (drives a PO or a DFF
    /// D pin). Sequential gates are never marked (their Q is a startpoint).
    pub(crate) is_endpoint: Vec<bool>,
}

impl<'nl> TimingGraph<'nl> {
    /// Builds the timing graph.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &'nl Netlist) -> Result<Self, NetlistError> {
        let topo = netlist.topo_order()?;
        let n = netlist.gate_count();
        let mut comb_fanin = vec![Vec::new(); n];
        let mut seq_fanin = vec![Vec::new(); n];
        let mut comb_fanout = vec![Vec::new(); n];
        let mut is_endpoint = vec![false; n];

        for (id, gate) in netlist.iter_gates() {
            for &input in &gate.inputs {
                if let Some(driver) = netlist.net(input).driver {
                    if netlist.gate(driver).cell.kind.is_sequential() {
                        if !seq_fanin[id.index()].contains(&driver) {
                            seq_fanin[id.index()].push(driver);
                        }
                    } else {
                        if !comb_fanin[id.index()].contains(&driver) {
                            comb_fanin[id.index()].push(driver);
                        }
                        if !gate.cell.kind.is_sequential()
                            && !comb_fanout[driver.index()].contains(&id)
                        {
                            comb_fanout[driver.index()].push(id);
                        }
                    }
                }
            }
            // A combinational gate driving a DFF's D pin ends a path there.
            if gate.cell.kind.is_sequential() {
                for &input in &gate.inputs {
                    if let Some(driver) = netlist.net(input).driver {
                        if !netlist.gate(driver).cell.kind.is_sequential() {
                            is_endpoint[driver.index()] = true;
                        }
                    }
                }
            }
        }
        for &out in netlist.outputs() {
            if let Some(driver) = netlist.net(out).driver {
                if !netlist.gate(driver).cell.kind.is_sequential() {
                    is_endpoint[driver.index()] = true;
                }
            }
        }
        // A combinational gate with no combinational fanout also terminates
        // its paths (dangling cones still carry cells that leak and can be
        // biased, so they participate in timing bookkeeping).
        for (id, gate) in netlist.iter_gates() {
            if !gate.cell.kind.is_sequential() && comb_fanout[id.index()].is_empty() {
                is_endpoint[id.index()] = true;
            }
        }

        Ok(TimingGraph { netlist, topo, comb_fanin, seq_fanin, comb_fanout, is_endpoint })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'nl Netlist {
        self.netlist
    }

    /// Number of gates (combinational + sequential).
    pub fn gate_count(&self) -> usize {
        self.netlist.gate_count()
    }

    /// Runs arrival/tail propagation for the given per-gate delays
    /// (picoseconds, indexed by [`GateId::index`]; a flip-flop's entry is its
    /// clk→Q delay).
    ///
    /// Every timing consumer in the workspace runs this full pass:
    /// pre-processing (once per design, to extract Π), timing-driven
    /// placement, Monte-Carlo sampling (once per die) and the `fbb solve`
    /// verification. Allocation re-checks Π through `fbb_core::CheckState`
    /// instead of re-timing the netlist.
    ///
    /// # Example
    ///
    /// ```
    /// use fbb_netlist::generators;
    /// use fbb_sta::TimingGraph;
    ///
    /// let nl = generators::ripple_adder("add8", 8, false).expect("valid generator");
    /// let graph = TimingGraph::new(&nl).expect("acyclic");
    /// let delays = vec![10.0; nl.gate_count()];
    /// let analysis = graph.analyze(&delays);
    /// assert!(analysis.dcrit_ps() > 0.0);
    /// // Every gate's worst path is bounded by the critical delay.
    /// let slack = analysis.slack_through_ps(fbb_netlist::GateId::from_index(0));
    /// assert!(slack >= 0.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != self.gate_count()`.
    pub fn analyze(&self, delays: &[f64]) -> TimingAnalysis<'_, 'nl> {
        assert_eq!(delays.len(), self.gate_count(), "one delay per gate required");
        // Counter only (no float observation): analyze() also runs on
        // `par` worker threads, where only order-independent integer sums
        // stay deterministic.
        fbb_telemetry::counter("sta_full_analyses", 1);
        let n = self.gate_count();
        let mut arrival = vec![0.0f64; n];
        let mut pred: Vec<Option<GateId>> = vec![None; n];
        let mut tail = vec![0.0f64; n];
        let mut succ: Vec<Option<GateId>> = vec![None; n];

        // Forward pass: arrival at each combinational gate's output.
        for &id in &self.topo {
            let i = id.index();
            let mut best = 0.0f64;
            let mut best_pred = None;
            for &p in &self.comb_fanin[i] {
                if arrival[p.index()] > best {
                    best = arrival[p.index()];
                    best_pred = Some(p);
                }
            }
            for &ff in &self.seq_fanin[i] {
                // DFF startpoint: clk->Q delay.
                if delays[ff.index()] > best {
                    best = delays[ff.index()];
                    best_pred = Some(ff);
                }
            }
            arrival[i] = best + delays[i];
            pred[i] = best_pred;
        }

        // Backward pass: tail = own delay + worst downstream tail.
        for &id in self.topo.iter().rev() {
            let i = id.index();
            let mut best = 0.0f64;
            let mut best_succ = None;
            for &s in &self.comb_fanout[i] {
                if tail[s.index()] > best {
                    best = tail[s.index()];
                    best_succ = Some(s);
                }
            }
            tail[i] = best + delays[i];
            succ[i] = best_succ;
        }
        // DFF tails: a flop's clk->Q launches into its combinational sinks.
        for (id, gate) in self.netlist.iter_gates() {
            if gate.cell.kind.is_sequential() {
                let q = gate.output;
                let mut best = 0.0f64;
                let mut best_succ = None;
                for &s in &self.netlist.net(q).sinks {
                    if !self.netlist.gate(s).cell.kind.is_sequential()
                        && tail[s.index()] > best
                    {
                        best = tail[s.index()];
                        best_succ = Some(s);
                    }
                }
                tail[id.index()] = best + delays[id.index()];
                succ[id.index()] = best_succ;
            }
        }

        let dcrit = self
            .topo
            .iter()
            .filter(|&&id| self.is_endpoint[id.index()])
            .map(|&id| arrival[id.index()])
            .fold(0.0f64, f64::max);

        TimingAnalysis {
            graph: self,
            delays: delays.to_vec(),
            arrival,
            pred,
            tail,
            succ,
            dcrit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::{CellKind, DriveStrength};
    use fbb_netlist::NetlistBuilder;

    #[test]
    fn endpoint_marking() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let w1 = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let w2 = b.gate(CellKind::Inv, DriveStrength::X1, &[w1]).unwrap();
        let q = b.dff(DriveStrength::X1, w2).unwrap();
        let w3 = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.output(w3, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        // gate 1 (second inv) drives the DFF's D: endpoint.
        assert!(g.is_endpoint[1]);
        // gate 0 has comb fanout: not an endpoint.
        assert!(!g.is_endpoint[0]);
        // gate 3 drives the PO: endpoint.
        assert!(g.is_endpoint[3]);
        // the DFF itself is not an endpoint.
        assert!(!g.is_endpoint[2]);
    }

    #[test]
    fn chain_arrival_accumulates() {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.input("a");
        for _ in 0..5 {
            net = b.gate(CellKind::Inv, DriveStrength::X1, &[net]).unwrap();
        }
        b.output(net, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        let delays = vec![10.0; 5];
        let a = g.analyze(&delays);
        assert!((a.dcrit_ps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn dff_launch_and_capture() {
        // in -> inv(10) -> DFF(clk->q 30) -> inv(10) -> out
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let w1 = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let q = b.dff(DriveStrength::X1, w1).unwrap();
        let w2 = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.output(w2, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        // delays indexed by gate id: 0 = inv1, 1 = dff, 2 = inv2
        let a = g.analyze(&[10.0, 30.0, 10.0]);
        // Input path: 10 (ends at DFF D). Launch path: 30 + 10 = 40.
        assert!((a.dcrit_ps() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn dff_clk_to_q_change_moves_dcrit() {
        // in -> inv(10) -> DFF(clk->q) -> inv(10) -> out
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let w1 = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let q = b.dff(DriveStrength::X1, w1).unwrap();
        let w2 = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.output(w2, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        assert!((g.analyze(&[10.0, 30.0, 10.0]).dcrit_ps() - 40.0).abs() < 1e-9);
        // A slower clk->Q lengthens the launch path: 50 + 10 = 60, in both
        // the capturing gate's arrival and the flop's own tail.
        let slow = g.analyze(&[10.0, 50.0, 10.0]);
        assert!((slow.dcrit_ps() - 60.0).abs() < 1e-9);
        assert!((slow.arrival_ps(GateId::from_index(2)) - 60.0).abs() < 1e-9);
        assert!((slow.tail_ps(GateId::from_index(1)) - 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one delay per gate")]
    fn wrong_delay_len_panics() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        b.output(y, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        let _ = g.analyze(&[1.0, 2.0]);
    }
}
