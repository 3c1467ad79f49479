//! The levelized timing graph.

use fbb_netlist::{GateId, Netlist, NetlistError};

use crate::analysis::TimingAnalysis;

/// One per-gate adjacency table in compressed sparse row form: gate `i`'s
/// list is `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
struct Csr {
    start: Vec<usize>,
    items: Vec<GateId>,
}

impl Csr {
    fn with_capacity(gates: usize, items: usize) -> Self {
        let mut start = Vec::with_capacity(gates + 1);
        start.push(0);
        Csr { start, items: Vec::with_capacity(items) }
    }

    /// Gate `i`'s list.
    fn row(&self, i: usize) -> &[GateId] {
        &self.items[self.start[i]..self.start[i + 1]]
    }

    /// The list being filled: everything pushed since the last `close_row`.
    fn open_row(&self) -> &[GateId] {
        &self.items[self.start[self.start.len() - 1]..]
    }

    /// Ends the list being filled; it becomes the next gate's row.
    fn close_row(&mut self) {
        self.start.push(self.items.len());
    }
}

/// A levelized timing graph over one netlist.
///
/// Flip-flops are timing boundaries: their Q output is a startpoint whose
/// arrival is the clk→Q delay of the flop, and their D input is an endpoint.
/// Primary inputs arrive at time 0; primary outputs are endpoints.
///
/// The per-gate tables are flat (one offset array plus one item array
/// each), and every list keeps the order `analyze` breaks ties in: fanin
/// lists hold a gate's distinct drivers in pin order, fanout lists a
/// combinational gate's distinct combinational sinks in gate-id order, and
/// `topo` is exactly [`Netlist::topo_order`] (DESIGN.md §5c).
#[derive(Debug, Clone)]
pub struct TimingGraph<'nl> {
    pub(crate) netlist: &'nl Netlist,
    /// Topological order of the combinational gates.
    topo: Vec<GateId>,
    /// Combinational drivers of each gate's input nets, distinct, in pin
    /// order.
    comb_fanin: Csr,
    /// Sequential (DFF) drivers of each gate's input nets, distinct, in pin
    /// order.
    seq_fanin: Csr,
    /// Distinct combinational sinks of each combinational gate, in gate-id
    /// order (empty for flip-flops).
    comb_fanout: Csr,
    /// Whether the gate's output is a timing endpoint (drives a PO or a DFF
    /// D pin). Sequential gates are never marked (their Q is a startpoint).
    is_endpoint: Vec<bool>,
}

impl<'nl> TimingGraph<'nl> {
    /// Builds the timing graph.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists,
    /// with the same counts [`Netlist::topo_order`] reports.
    pub fn new(netlist: &'nl Netlist) -> Result<Self, NetlistError> {
        let _span = fbb_telemetry::span("sta_graph_build");
        let (gates, nets) = (netlist.gates(), netlist.nets());
        let n = gates.len();
        let seq: Vec<bool> = gates.iter().map(|g| g.cell.kind.is_sequential()).collect();
        let pins = gates.iter().map(|g| g.inputs.len()).sum();
        let mut comb_fanin = Csr::with_capacity(n, pins);
        let mut seq_fanin = Csr::with_capacity(n, 0);
        // Per combinational gate: input pins driven by a combinational gate
        // (the Kahn pending count, one per pin as `topo_order` counts).
        let mut pending = vec![0u32; n];
        // Per gate: combinational sinks it gains below, as fanout row length.
        let mut fanout_len = vec![0usize; n];
        let mut is_endpoint = vec![false; n];
        // Per combinational gate: the combinational sinks of its output
        // net, in `Net::sinks` order, one entry per occurrence.
        let mut release = Csr::with_capacity(n, pins);

        // One pass over the netlist: fanin lists, pending counts, release
        // lists, fanout sizes, and the DFF-D endpoints.
        for (i, gate) in gates.iter().enumerate() {
            for &input in &gate.inputs {
                let Some(driver) = nets[input.index()].driver else { continue };
                let d = driver.index();
                if seq[d] {
                    if !seq_fanin.open_row().contains(&driver) {
                        seq_fanin.items.push(driver);
                    }
                } else if seq[i] {
                    // A combinational gate driving a DFF's D pin ends a
                    // path there.
                    is_endpoint[d] = true;
                    if !comb_fanin.open_row().contains(&driver) {
                        comb_fanin.items.push(driver);
                    }
                } else {
                    pending[i] += 1;
                    if !comb_fanin.open_row().contains(&driver) {
                        comb_fanin.items.push(driver);
                        fanout_len[d] += 1;
                    }
                }
            }
            if !seq[i] {
                release.items.extend(
                    nets[gate.output.index()].sinks.iter().filter(|s| !seq[s.index()]),
                );
            }
            comb_fanin.close_row();
            seq_fanin.close_row();
            release.close_row();
        }

        // Fanout rows, filled sink by sink in gate-id order.
        let mut comb_fanout = Csr::with_capacity(n, 0);
        let mut end = 0;
        for &len in &fanout_len {
            end += len;
            comb_fanout.start.push(end);
        }
        let mut next = comb_fanout.start[..n].to_vec();
        comb_fanout.items = vec![GateId::from_index(0); end];
        for (id, _) in netlist.iter_gates().filter(|&(id, _)| !seq[id.index()]) {
            for &driver in comb_fanin.row(id.index()) {
                comb_fanout.items[next[driver.index()]] = id;
                next[driver.index()] += 1;
            }
        }

        for &out in netlist.outputs() {
            if let Some(driver) = nets[out.index()].driver {
                if !seq[driver.index()] {
                    is_endpoint[driver.index()] = true;
                }
            }
        }
        // A combinational gate with no combinational fanout also terminates
        // its paths (dangling cones still carry cells that leak and can be
        // biased, so they participate in timing bookkeeping).
        for i in 0..n {
            if !seq[i] && fanout_len[i] == 0 {
                is_endpoint[i] = true;
            }
        }

        // FIFO Kahn, exactly as `Netlist::topo_order`: seeded in gate-id
        // order; a placed gate releases the sinks of its output net in
        // `Net::sinks` order, one decrement per occurrence. FIFO pops in
        // push order, so `topo` itself is the queue.
        let comb_count = seq.iter().filter(|&&s| !s).count();
        let mut topo = Vec::with_capacity(comb_count);
        topo.extend(netlist.iter_gates().map(|(id, _)| id).filter(|id| {
            let i = id.index();
            !seq[i] && pending[i] == 0
        }));
        let mut head = 0;
        while let Some(&id) = topo.get(head) {
            head += 1;
            for &sink in release.row(id.index()) {
                let s = sink.index();
                pending[s] -= 1;
                if pending[s] == 0 {
                    topo.push(sink);
                }
            }
        }
        if topo.len() != comb_count {
            return Err(NetlistError::CombinationalCycle { reached: topo.len(), total: comb_count });
        }

        Ok(TimingGraph { netlist, topo, comb_fanin, seq_fanin, comb_fanout, is_endpoint })
    }

    /// Topological order of the combinational gates.
    pub(crate) fn topo(&self) -> &[GateId] {
        &self.topo
    }

    /// Gate `i`'s distinct combinational drivers, in pin order.
    pub(crate) fn comb_fanin(&self, i: usize) -> &[GateId] {
        self.comb_fanin.row(i)
    }

    /// Gate `i`'s distinct sequential (DFF) drivers, in pin order.
    pub(crate) fn seq_fanin(&self, i: usize) -> &[GateId] {
        self.seq_fanin.row(i)
    }

    /// Combinational gate `i`'s distinct combinational sinks, in gate-id
    /// order.
    pub(crate) fn comb_fanout(&self, i: usize) -> &[GateId] {
        self.comb_fanout.row(i)
    }

    /// Whether gate `i`'s output is a timing endpoint.
    pub(crate) fn is_endpoint(&self, i: usize) -> bool {
        self.is_endpoint[i]
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
        let _span = fbb_telemetry::span("sta_analyze");
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
        for &id in self.topo() {
            let i = id.index();
            let mut best = 0.0f64;
            let mut best_pred = None;
            for &p in self.comb_fanin(i) {
                if arrival[p.index()] > best {
                    best = arrival[p.index()];
                    best_pred = Some(p);
                }
            }
            for &ff in self.seq_fanin(i) {
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
        for &id in self.topo().iter().rev() {
            let i = id.index();
            let mut best = 0.0f64;
            let mut best_succ = None;
            for &s in self.comb_fanout(i) {
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
            .topo()
            .iter()
            .filter(|&&id| self.is_endpoint(id.index()))
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
    use fbb_device::{Cell, CellKind, DriveStrength};
    use fbb_netlist::{Gate, Net, NetId, NetlistBuilder};

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
        assert!(g.is_endpoint(1));
        // gate 0 has comb fanout: not an endpoint.
        assert!(!g.is_endpoint(0));
        // gate 3 drives the PO: endpoint.
        assert!(g.is_endpoint(3));
        // the DFF itself is not an endpoint.
        assert!(!g.is_endpoint(2));
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

    fn net(name: &str, driver: Option<usize>, sinks: &[usize]) -> Net {
        Net {
            name: name.into(),
            driver: driver.map(GateId::from_index),
            sinks: sinks.iter().map(|&g| GateId::from_index(g)).collect(),
        }
    }

    fn inv(input: usize, output: usize) -> Gate {
        Gate {
            cell: Cell::new(CellKind::Inv, DriveStrength::X1),
            inputs: vec![NetId::from_index(input)],
            output: NetId::from_index(output),
        }
    }

    /// The graph's order is `Netlist::topo_order`'s, gate for gate: it
    /// decides the order of Π, which is the order of the ILP's rows.
    fn assert_topo_matches(nl: &Netlist) {
        let graph = TimingGraph::new(nl).unwrap();
        assert_eq!(graph.topo(), nl.topo_order().unwrap().as_slice(), "{}", nl.name());
    }

    #[test]
    fn topo_is_the_netlist_order_on_every_netlist_shape() {
        // Flip-flops: sequential sinks are skipped, Q pins are sources.
        let registered = fbb_netlist::generators::random_logic(
            "reg",
            &fbb_netlist::generators::RandomLogicOptions {
                target_gates: 300,
                n_inputs: 10,
                seed: 4,
                registered: true,
                locality_window: 16,
            },
        )
        .unwrap();
        assert!(registered.dff_count() > 0);
        assert_topo_matches(&registered);

        // A composition: merged blocks with remapped gate ids, stitched.
        let composed = fbb_netlist::compose(
            "composed",
            &fbb_netlist::ComposeOptions::with_target(3_000),
        )
        .unwrap()
        .netlist;
        assert_topo_matches(&composed);

        // A netlist parsed from ISCAS `.bench` text.
        let c3540 = fbb_netlist::suite::generate("c3540").unwrap();
        let text = fbb_netlist::bench_fmt::to_bench_string(&c3540);
        assert_topo_matches(&fbb_netlist::bench_fmt::from_bench_str(&text).unwrap());

        // One gate reading one net on two pins: two pending pins, released
        // by two occurrences in the net's sink list.
        let mut b = NetlistBuilder::new("twice");
        let a = b.input("a");
        let w = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let y = b.gate(CellKind::And2, DriveStrength::X1, &[w, w]).unwrap();
        let z = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        b.output(y, "y");
        b.output(z, "z");
        let twice = b.finish().unwrap();
        assert_topo_matches(&twice);
        let g = TimingGraph::new(&twice).unwrap();
        assert_eq!(g.comb_fanin(1), [GateId::from_index(0)]);
        assert_eq!(g.comb_fanout(0), [GateId::from_index(1)]);
    }

    #[test]
    fn topo_releases_sinks_in_net_order_not_gate_order() {
        // g0 = INV(a) drives w, read by g1 and g2; w lists g2 before g1, as
        // a remapped netlist may. The release follows the sink list, the
        // fanout table stays in gate-id order.
        let gates = vec![inv(0, 1), inv(1, 2), inv(1, 3)];
        let nets = vec![
            net("a", None, &[0]),
            net("w", Some(0), &[2, 1]),
            net("x", Some(1), &[]),
            net("y", Some(2), &[]),
        ];
        let outputs = vec![NetId::from_index(2), NetId::from_index(3)];
        let nl =
            Netlist::from_parts("perm".into(), gates, nets, vec![NetId::from_index(0)], outputs)
                .unwrap();
        assert_topo_matches(&nl);
        let g = TimingGraph::new(&nl).unwrap();
        let ids = |ix: &[usize]| ix.iter().map(|&i| GateId::from_index(i)).collect::<Vec<_>>();
        assert_eq!(g.topo(), ids(&[0, 2, 1]));
        assert_eq!(g.comb_fanout(0), ids(&[1, 2]));
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
