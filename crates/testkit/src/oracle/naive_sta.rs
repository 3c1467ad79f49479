//! Naive queue-based topological STA oracle.
//!
//! Re-derives arrival times, tails, the critical links and the critical
//! delay directly from the [`fbb_netlist::Netlist`] public API with Kahn's
//! algorithm — no levelized graph, no shared code with `fbb_sta`. Because
//! each gate's arrival (and tail) is one `f64` addition on top of an
//! order-independent max, the oracle's numbers are *bit-identical* to
//! `TimingGraph::analyze` on any acyclic netlist, which is exactly what the
//! differential harness asserts.
//!
//! Semantics mirrored here (restated, not imported):
//!
//! * flip-flops are timing boundaries: their Q arrival is their clk→Q delay
//!   and their own `arrival` entry stays `0.0`;
//! * a combinational gate's arrival is `delays[i]` plus the max over its
//!   distinct combinational fanin arrivals and distinct sequential fanin
//!   clk→Q delays (floored at `0.0`);
//! * a combinational gate's tail is `delays[i]` plus the max tail over its
//!   distinct combinational sinks (floored at `0.0`); a flip-flop's tail is
//!   its clk→Q delay plus the max tail over the combinational sinks of its
//!   Q net;
//! * the critical links break ties by the *first strict maximum*: `pred`
//!   scans the combinational drivers in pin order, then the flip-flop
//!   drivers in pin order; `succ` scans a combinational gate's sinks in
//!   gate-id order and a flip-flop's sinks in its Q net's sink-list order;
//! * endpoints are combinational gates that drive a primary output, drive a
//!   DFF D pin, or have no combinational fanout;
//! * `dcrit` is the max endpoint arrival, folded from `0.0`;
//! * Π ([`NaiveSta::critical_path_set`]) is the longest path through each
//!   combinational gate, taken in [`Netlist::topo_order`], each distinct
//!   gate sequence once at its first occurrence.

use std::collections::{HashSet, VecDeque};

use fbb_netlist::Netlist;

/// Arrival times, tails, critical links and critical delay computed by the
/// naive oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveSta {
    /// Arrival at each gate's output, indexed by `GateId::index()`.
    /// Sequential gates keep `0.0` (their Q launch is read from `delays`).
    pub arrival_ps: Vec<f64>,
    /// Each gate's own delay plus the longest delay downstream of it.
    pub tail_ps: Vec<f64>,
    /// The fanin realizing each combinational gate's arrival (`None` when
    /// only primary inputs feed it, and for flip-flops).
    pub pred: Vec<Option<usize>>,
    /// The sink realizing each gate's tail (`None` at path ends).
    pub succ: Vec<Option<usize>>,
    /// Critical delay: max arrival over all endpoints.
    pub dcrit_ps: f64,
}

/// First strict maximum of `value` over `items`, above `0.0`.
fn first_max(
    items: impl Iterator<Item = usize>,
    value: impl Fn(usize) -> f64,
) -> (f64, Option<usize>) {
    let (mut best, mut arg) = (0.0f64, None);
    for i in items {
        if value(i) > best {
            best = value(i);
            arg = Some(i);
        }
    }
    (best, arg)
}

/// Runs the naive STA.
///
/// # Panics
///
/// Panics if `delays.len() != netlist.gate_count()` or if the combinational
/// part of the netlist contains a cycle (the queue fails to drain).
pub fn analyze(netlist: &Netlist, delays: &[f64]) -> NaiveSta {
    let n = netlist.gate_count();
    assert_eq!(delays.len(), n, "one delay per gate required");

    // Distinct combinational fanin drivers and combinational fanout sinks,
    // derived gate by gate from the net tables.
    let mut comb_fanin: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut comb_fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut seq_fanin: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, gate) in netlist.iter_gates() {
        let i = id.index();
        for &input in &gate.inputs {
            let Some(driver) = netlist.net(input).driver else {
                continue; // primary input: arrives at 0.
            };
            let d = driver.index();
            if netlist.gate(driver).cell.kind.is_sequential() {
                if !seq_fanin[i].contains(&d) {
                    seq_fanin[i].push(d);
                }
            } else {
                if !comb_fanin[i].contains(&d) {
                    comb_fanin[i].push(d);
                }
                if !gate.cell.kind.is_sequential() && !comb_fanout[d].contains(&i) {
                    comb_fanout[d].push(i);
                }
            }
        }
    }

    let is_comb: Vec<bool> =
        netlist.gates().iter().map(|g| !g.cell.kind.is_sequential()).collect();

    // Kahn's algorithm over the combinational gates.
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| if is_comb[i] { comb_fanin[i].len() } else { 0 })
        .collect();
    let mut queue: VecDeque<usize> =
        (0..n).filter(|&i| is_comb[i] && indegree[i] == 0).collect();
    let mut arrival = vec![0.0f64; n];
    let mut pred = vec![None; n];
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        order.push(i);
        let (comb_best, comb_arg) = first_max(comb_fanin[i].iter().copied(), |p| arrival[p]);
        let (seq_best, seq_arg) = first_max(seq_fanin[i].iter().copied(), |ff| delays[ff]);
        // The flip-flop drivers are scanned after the combinational ones:
        // one of them wins only by a strict excess.
        let (best, arg) =
            if seq_best > comb_best { (seq_best, seq_arg) } else { (comb_best, comb_arg) };
        arrival[i] = best + delays[i];
        pred[i] = arg;
        for &s in &comb_fanout[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    let comb_total = is_comb.iter().filter(|&&c| c).count();
    assert_eq!(order.len(), comb_total, "combinational cycle: queue failed to drain");

    // Tails, sinks before drivers.
    let mut tail = vec![0.0f64; n];
    let mut succ = vec![None; n];
    for &i in order.iter().rev() {
        let (best, arg) = first_max(comb_fanout[i].iter().copied(), |s| tail[s]);
        tail[i] = best + delays[i];
        succ[i] = arg;
    }
    for (id, gate) in netlist.iter_gates().filter(|(_, g)| g.cell.kind.is_sequential()) {
        let sinks = netlist.net(gate.output).sinks.iter().map(|s| s.index());
        let (best, arg) = first_max(sinks.filter(|&s| is_comb[s]), |s| tail[s]);
        tail[id.index()] = best + delays[id.index()];
        succ[id.index()] = arg;
    }

    // Endpoints: drives a PO, drives a DFF D pin, or has no comb fanout.
    let mut is_endpoint = vec![false; n];
    for &out in netlist.outputs() {
        if let Some(driver) = netlist.net(out).driver {
            if is_comb[driver.index()] {
                is_endpoint[driver.index()] = true;
            }
        }
    }
    for (_, gate) in netlist.iter_gates() {
        if gate.cell.kind.is_sequential() {
            for &input in &gate.inputs {
                if let Some(driver) = netlist.net(input).driver {
                    if is_comb[driver.index()] {
                        is_endpoint[driver.index()] = true;
                    }
                }
            }
        }
    }
    for i in 0..n {
        if is_comb[i] && comb_fanout[i].is_empty() {
            is_endpoint[i] = true;
        }
    }

    let dcrit_ps = (0..n)
        .filter(|&i| is_endpoint[i])
        .map(|i| arrival[i])
        .fold(0.0f64, f64::max);

    NaiveSta { arrival_ps: arrival, tail_ps: tail, pred, succ, dcrit_ps }
}

impl NaiveSta {
    /// Delay of the longest path through gate `i` (its arrival and tail
    /// both count its own delay once).
    pub fn longest_through_ps(&self, delays: &[f64], i: usize) -> f64 {
        self.arrival_ps[i] - delays[i] + self.tail_ps[i]
    }

    /// Gates of the longest path through gate `i`: the `pred` chain back to
    /// its startpoint, then the `succ` chain out to its endpoint.
    pub fn path_through(&self, i: usize) -> Vec<usize> {
        let mut gates = vec![i];
        while let Some(p) = self.pred[gates[gates.len() - 1]] {
            gates.push(p);
        }
        gates.reverse();
        let mut cursor = self.succ[i];
        while let Some(s) = cursor {
            gates.push(s);
            cursor = self.succ[s];
        }
        gates
    }

    /// The pruned path set Π as `(gates, delay)` pairs: the longest path
    /// through each combinational gate in [`Netlist::topo_order`], each
    /// distinct gate sequence once, with the delay of its first gate.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn critical_path_set(&self, netlist: &Netlist, delays: &[f64]) -> Vec<(Vec<usize>, f64)> {
        let order = netlist.topo_order().expect("acyclic netlist");
        let mut seen = HashSet::new();
        let mut paths = Vec::new();
        for g in order {
            let gates = self.path_through(g.index());
            if seen.insert(gates.clone()) {
                paths.push((gates, self.longest_through_ps(delays, g.index())));
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_netlist::generators;

    #[test]
    fn chain_arithmetic_by_hand() {
        // An 2-bit ripple adder is small enough that the critical path is
        // just the longest gate chain; uniform delays make it countable.
        let nl = generators::ripple_adder("a2", 2, false).unwrap();
        let delays = vec![10.0; nl.gate_count()];
        let out = analyze(&nl, &delays);
        // Longest chain length in gates = dcrit / 10.
        let depth = (out.dcrit_ps / 10.0).round() as usize;
        assert!(depth >= 2, "a ripple carry chain is at least two gates deep");
        assert!(out.arrival_ps.iter().all(|&a| a >= 0.0));
    }

    #[test]
    fn registered_designs_use_clk_to_q_as_launch() {
        let nl = generators::ripple_adder("a4r", 4, true).unwrap();
        assert!(nl.dff_count() > 0);
        let mut delays = vec![5.0; nl.gate_count()];
        let base = analyze(&nl, &delays).dcrit_ps;
        // Slowing every flop's clk->Q must not *decrease* the critical delay.
        for (id, gate) in nl.iter_gates() {
            if gate.cell.kind.is_sequential() {
                delays[id.index()] = 50.0;
            }
        }
        let slowed = analyze(&nl, &delays).dcrit_ps;
        assert!(slowed >= base);
    }

    #[test]
    fn ties_break_at_the_first_strict_maximum() {
        // a -> g0, a -> g1; g2 = AND2(g1, g0) sees two equal arrivals and
        // keeps pin 0's driver; g0 drives g2 and g3, whose equal tails make
        // the lower gate id its successor.
        let mut b = fbb_netlist::NetlistBuilder::new("ties");
        let a = b.input("a");
        let inv = fbb_device::CellKind::Inv;
        let x1 = fbb_device::DriveStrength::X1;
        let w0 = b.gate(inv, x1, &[a]).unwrap();
        let w1 = b.gate(inv, x1, &[a]).unwrap();
        let y = b.gate(fbb_device::CellKind::And2, x1, &[w1, w0]).unwrap();
        let z = b.gate(inv, x1, &[w0]).unwrap();
        b.output(y, "y");
        b.output(z, "z");
        let nl = b.finish().unwrap();
        let out = analyze(&nl, &[10.0; 4]);
        assert_eq!(out.pred[2], Some(1));
        assert_eq!(out.succ[0], Some(2));
        assert_eq!(out.path_through(0), vec![0, 2]);
        assert_eq!(out.path_through(3), vec![0, 3]);
    }

    #[test]
    fn uniform_delays_break_ties_like_the_engine() {
        // Equal delays tie almost every max, so every path and Π's order
        // depend on the list orders alone.
        let registered = generators::random_logic(
            "reg",
            &generators::RandomLogicOptions {
                target_gates: 400,
                n_inputs: 10,
                seed: 3,
                registered: true,
                locality_window: 16,
            },
        )
        .unwrap();
        let composed =
            fbb_netlist::compose("c", &fbb_netlist::ComposeOptions::with_target(2_000))
                .unwrap()
                .netlist;
        for nl in [registered, composed, generators::alu("alu8", 8).unwrap()] {
            let delays = vec![10.0; nl.gate_count()];
            let truth = analyze(&nl, &delays);
            let graph = fbb_sta::TimingGraph::new(&nl).unwrap();
            let engine = graph.analyze(&delays);
            for (id, _) in nl.iter_gates() {
                let path = engine.longest_path_through(id);
                let gates: Vec<usize> = path.gates.iter().map(|g| g.index()).collect();
                assert_eq!(gates, truth.path_through(id.index()), "{}: gate {id:?}", nl.name());
            }
            let pi: Vec<(Vec<usize>, f64)> = engine
                .critical_path_set()
                .into_iter()
                .map(|p| (p.gates.iter().map(|g| g.index()).collect(), p.delay_ps))
                .collect();
            assert_eq!(pi, truth.critical_path_set(&nl, &delays), "{}", nl.name());
        }
    }
}
