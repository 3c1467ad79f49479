//! The row-based placer.

use fbb_device::Library;
use fbb_netlist::{GateId, Netlist};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::{Die, PlacedGate, Placement, PlacementError, Row, RowId};

/// Base gate ordering fed to the row packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementOrder {
    /// Depth-first cone order from the deepest outputs: control/random
    /// logic clusters by logic cone, the way wirelength-driven placement
    /// groups it.
    #[default]
    Cone,
    /// Netlist (creation) order: structured datapaths keep their natural
    /// row-major array layout — e.g. a multiplier's carry-save array places
    /// as a grid whose every row touches the critical diagonals, which is
    /// why c6288-class designs barely benefit from row clustering.
    Natural,
}

/// Placer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerOptions {
    /// Fix the number of rows (the paper reports exact row counts per
    /// design); `None` sizes a roughly square die automatically.
    pub target_rows: Option<u32>,
    /// Number of annealing improvement moves (0 disables refinement).
    pub anneal_moves: usize,
    /// Timing-driven mode: gates are grouped by slack bucket before row
    /// packing, concentrating timing-critical logic into few adjacent rows
    /// the way a timing-driven physical synthesis flow does. This is the
    /// placement property the paper's row-level clustering exploits
    /// ("rows that contain most timing critical gates").
    pub timing_driven: bool,
    /// Base gate ordering before slack bucketing.
    pub order: PlacementOrder,
}

/// Target placement utilization (fraction of sites occupied). The paper
/// notes "good amount of spatial slack available on each row", which is
/// what leaves room for body-bias contact cells.
const UTILIZATION: f64 = 0.70;

/// RNG seed for the annealing schedule.
const ANNEAL_SEED: u64 = 0x5EED;

impl PlacerOptions {
    /// Options with a fixed row count and defaults elsewhere.
    pub fn with_target_rows(rows: u32) -> Self {
        PlacerOptions { target_rows: Some(rows), ..Self::default() }
    }
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions {
            target_rows: None,
            anneal_moves: 20_000,
            timing_driven: true,
            order: PlacementOrder::Cone,
        }
    }
}

/// Connectivity-aware row-based placer.
///
/// Pipeline: depth-first cone ordering from the primary outputs (keeps each
/// logic cone contiguous), greedy row packing in that order, then a
/// simulated-annealing pass that moves gates between nearby rows to reduce
/// vertical wirelength. The result is the kind of placement a commercial
/// row-based flow produces at the abstraction level the FBB allocator needs:
/// connected gates in the same or adjacent rows.
#[derive(Debug, Clone, Default)]
pub struct Placer {
    options: PlacerOptions,
}

impl Placer {
    /// Creates a placer with the given options.
    pub fn new(options: PlacerOptions) -> Self {
        Placer { options }
    }

    /// Places `netlist` onto a row-based die.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InvalidOptions`] for zero target rows, and
    /// [`PlacementError::Capacity`] if the sized die cannot legally hold the
    /// design.
    pub fn place(&self, netlist: &Netlist, library: &Library) -> Result<Placement, PlacementError> {
        let opts = &self.options;
        if opts.target_rows == Some(0) {
            return Err(PlacementError::InvalidOptions("target_rows must be nonzero".into()));
        }

        let widths: Vec<u32> = netlist.gates().iter().map(|g| library.width_sites(g.cell)).collect();
        let total_sites: u64 = widths.iter().map(|&w| u64::from(w)).sum();

        let rows = match opts.target_rows {
            Some(r) => r,
            None => {
                // Square die: rows * row_height == sites_per_row * site_width.
                let r = ((total_sites as f64) * Die::SITE_WIDTH_UM
                    / (Die::ROW_HEIGHT_UM * UTILIZATION))
                    .sqrt()
                    .round();
                (r as u32).max(1)
            }
        };
        let sites_per_row = ((total_sites as f64) / (f64::from(rows) * UTILIZATION))
            .ceil()
            .max(1.0) as u32;
        // A row must at least fit the widest gate.
        let widest = widths.iter().copied().max().unwrap_or(1);
        let sites_per_row = sites_per_row.max(widest);
        let die = Die {
            site_width_um: Die::SITE_WIDTH_UM,
            row_height_um: Die::ROW_HEIGHT_UM,
            sites_per_row,
            rows,
        };
        if die.capacity_sites() < total_sites {
            return Err(PlacementError::Capacity {
                required: total_sites,
                available: die.capacity_sites(),
            });
        }

        // Reserve per-row headroom for the FBB contact cells (§3.3: one
        // contact pair per 50 um window) so biasing never forces die growth.
        let contact_reserve = crate::layout::contact_sites(&die);
        let row_cap = sites_per_row.saturating_sub(contact_reserve).max(widest);

        let mut order = match opts.order {
            PlacementOrder::Cone => cone_order(netlist),
            PlacementOrder::Natural => {
                (0..netlist.gate_count()).map(GateId::from_index).collect()
            }
        };
        debug_assert_eq!(order.len(), netlist.gate_count());
        if opts.timing_driven {
            // Stable sort by slack bucket: critical gates pack into the
            // lowest rows together, keeping cone locality within a bucket.
            let buckets = slack_buckets(netlist, library);
            order.sort_by_key(|g| buckets[g.index()]);
        }

        // Greedy packing: fill each row to the even-fill target, spilling
        // into slack as needed.
        let even_fill = (total_sites as f64 / f64::from(rows)).ceil() as u32;
        let mut row_gates: Vec<Vec<GateId>> = vec![Vec::new(); rows as usize];
        let mut row_used: Vec<u32> = vec![0; rows as usize];
        let mut current = 0usize;
        for &g in &order {
            let w = widths[g.index()];
            // Advance while the current row hit its even-fill target, unless
            // it is the last row (which absorbs the remainder).
            while current + 1 < rows as usize && row_used[current] + w > even_fill.max(w) {
                current += 1;
            }
            if row_used[current] + w > row_cap {
                // Find any row with space (falling back to the hard row
                // capacity only when the contact reserve cannot be kept).
                let fallback = (0..rows as usize)
                    .find(|&r| row_used[r] + w <= row_cap)
                    .or_else(|| (0..rows as usize).find(|&r| row_used[r] + w <= sites_per_row))
                    .ok_or(PlacementError::Capacity {
                        required: total_sites,
                        available: die.capacity_sites(),
                    })?;
                row_gates[fallback].push(g);
                row_used[fallback] += w;
            } else {
                row_gates[current].push(g);
                row_used[current] += w;
            }
        }

        let mut placement = build_placement(die, row_gates, &widths);
        if opts.anneal_moves > 0 && rows > 1 {
            anneal(&mut placement, netlist, &widths, opts, row_cap);
        }
        placement.validate(netlist)?;
        Ok(placement)
    }
}

/// Depth-first cone ordering from the primary outputs: each output cone's
/// gates appear contiguously, giving physical locality to logic paths.
/// Gates unreachable from any output (dangling) are appended at the end.
fn cone_order(netlist: &Netlist) -> Vec<GateId> {
    let mut order = Vec::with_capacity(netlist.gate_count());
    let mut visited = vec![false; netlist.gate_count()];
    let mut stack: Vec<(GateId, usize)> = Vec::new();

    let mut roots: Vec<GateId> = netlist
        .outputs()
        .iter()
        .filter_map(|&net| netlist.net(net).driver)
        .collect();
    // DFF inputs are also cone roots (their D logic must be placed).
    for (id, gate) in netlist.iter_gates() {
        if gate.cell.kind.is_sequential() {
            roots.push(id);
        }
    }
    roots.dedup();
    // Process the deepest cones first, the way a timing-driven flow clusters
    // critical logic: the longest chains land contiguously in a few rows
    // instead of being smeared across the die by shallow sibling cones.
    let depth = unit_depth(netlist);
    roots.sort_by_key(|&g| std::cmp::Reverse(depth[g.index()]));

    for root in roots {
        if visited[root.index()] {
            continue;
        }
        visited[root.index()] = true;
        stack.push((root, 0));
        while let Some(&(gate, next_input)) = stack.last() {
            let inputs = &netlist.gate(gate).inputs;
            if next_input < inputs.len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                if let Some(driver) = netlist.net(inputs[next_input]).driver {
                    if !visited[driver.index()] {
                        visited[driver.index()] = true;
                        stack.push((driver, 0));
                    }
                }
            } else {
                order.push(gate);
                stack.pop();
            }
        }
    }
    for (id, _) in netlist.iter_gates() {
        if !visited[id.index()] {
            order.push(id);
        }
    }
    order
}

/// Slack bucket per gate (0 = critical) from a library-delay STA: 4%-wide
/// buckets up to 24%, everything slacker in the last bucket.
fn slack_buckets(netlist: &Netlist, library: &Library) -> Vec<u8> {
    let delays: Vec<f64> =
        netlist.gates().iter().map(|g| library.nbb_delay_ps(g.cell)).collect();
    let graph = match fbb_sta::TimingGraph::new(netlist) {
        Ok(g) => g,
        Err(_) => return vec![0; netlist.gate_count()],
    };
    let analysis = graph.analyze(&delays);
    let dcrit = analysis.dcrit_ps().max(1e-9);
    (0..netlist.gate_count())
        .map(|i| {
            let slack = analysis.slack_through_ps(GateId::from_index(i)).max(0.0);
            (((slack / dcrit) / 0.04) as u8).min(6)
        })
        .collect()
}

/// Unit-delay logic depth per gate (combinational; DFFs depth 0).
fn unit_depth(netlist: &Netlist) -> Vec<u32> {
    let mut depth = vec![0u32; netlist.gate_count()];
    let order = netlist.topo_order().unwrap_or_default();
    for id in order {
        let gate = netlist.gate(id);
        let mut d = 0;
        for &input in &gate.inputs {
            if let Some(driver) = netlist.net(input).driver {
                if !netlist.gate(driver).cell.kind.is_sequential() {
                    d = d.max(depth[driver.index()] + 1);
                }
            }
        }
        depth[id.index()] = d;
    }
    depth
}

fn build_placement(die: Die, row_gates: Vec<Vec<GateId>>, widths: &[u32]) -> Placement {
    let mut gates = vec![PlacedGate { row: RowId(0), site: 0, width_sites: 0 }; widths.len()];
    let mut rows = Vec::with_capacity(row_gates.len());
    for (r, members) in row_gates.into_iter().enumerate() {
        let id = RowId::from_index(r);
        let mut cursor = 0;
        for &g in &members {
            gates[g.index()] = PlacedGate { row: id, site: cursor, width_sites: widths[g.index()] };
            cursor += widths[g.index()];
        }
        rows.push(Row { id, gates: members, used_sites: cursor });
    }
    Placement { die, rows, gates }
}

/// Annealing refinement: move gates between nearby rows to shorten vertical
/// wirelength (the row assignment is what matters to row-level FBB).
fn anneal(
    placement: &mut Placement,
    netlist: &Netlist,
    widths: &[u32],
    opts: &PlacerOptions,
    row_cap: u32,
) {
    let n_gates = netlist.gate_count();
    if n_gates == 0 {
        return;
    }
    let rows = placement.rows.len();
    let mut rng = ChaCha8Rng::seed_from_u64(ANNEAL_SEED);
    let mut row_of: Vec<usize> = (0..n_gates).map(|g| placement.gates[g].row.index()).collect();
    let mut used: Vec<u32> = placement.rows.iter().map(|r| r.used_sites).collect();
    let cap = row_cap.min(placement.die.sites_per_row);

    // Vertical span cost of one net under the current assignment.
    let net_cost = |row_of: &[usize], net: &fbb_netlist::Net| -> f64 {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        let mut count = 0;
        if let Some(d) = net.driver {
            lo = lo.min(row_of[d.index()]);
            hi = hi.max(row_of[d.index()]);
            count += 1;
        }
        for &s in &net.sinks {
            lo = lo.min(row_of[s.index()]);
            hi = hi.max(row_of[s.index()]);
            count += 1;
        }
        if count < 2 {
            0.0
        } else {
            (hi - lo) as f64
        }
    };

    let mut temperature = 0.5;
    let cooling = 0.999_f64.powf(20_000.0 / opts.anneal_moves.max(1) as f64);
    let greedy_from = opts.anneal_moves / 2;
    for step in 0..opts.anneal_moves {
        let g = rng.gen_range(0..n_gates);
        let from = row_of[g];
        let delta_row = rng.gen_range(-3i64..=3);
        let to = (from as i64 + delta_row).clamp(0, rows as i64 - 1) as usize;
        if to == from {
            continue;
        }
        let w = widths[g];
        if used[to] + w > cap {
            continue;
        }
        // Cost delta over nets incident to g.
        let gate = netlist.gate(GateId::from_index(g));
        let mut nets: Vec<u32> = gate.inputs.iter().map(|n| n.index() as u32).collect();
        nets.push(gate.output.index() as u32);
        nets.sort_unstable();
        nets.dedup();
        let before: f64 = nets.iter().map(|&n| net_cost(&row_of, netlist.net(fbb_netlist::NetId::from_index(n as usize)))).sum();
        row_of[g] = to;
        let after: f64 = nets.iter().map(|&n| net_cost(&row_of, netlist.net(fbb_netlist::NetId::from_index(n as usize)))).sum();
        let delta = after - before;
        let accept_uphill = step < greedy_from && rng.gen_bool((-delta / temperature).exp().min(1.0));
        if delta <= 0.0 || accept_uphill {
            used[from] -= w;
            used[to] += w;
        } else {
            row_of[g] = from;
        }
        temperature = (temperature * cooling).max(1e-3);
    }

    // Rebuild rows from the refined assignment.
    let mut row_gates: Vec<Vec<GateId>> = vec![Vec::new(); rows];
    // Preserve left-to-right order within a row by iterating the old order.
    for row in &placement.rows {
        for &g in &row.gates {
            row_gates[row_of[g.index()]].push(g);
        }
    }
    *placement = build_placement(placement.die, row_gates, widths);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_netlist::generators;

    fn lib() -> Library {
        Library::date09_45nm()
    }

    #[test]
    fn places_all_gates_legally() {
        let nl = generators::ripple_adder("a32", 32, false).unwrap();
        let p = Placer::default().place(&nl, &lib()).unwrap();
        p.validate(&nl).unwrap();
        assert!(p.row_count() >= 2);
    }

    #[test]
    fn target_rows_is_respected() {
        let nl = generators::alu("alu", 16).unwrap();
        let p = Placer::new(PlacerOptions::with_target_rows(9)).place(&nl, &lib()).unwrap();
        assert_eq!(p.row_count(), 9);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn utilization_near_target() {
        let nl = generators::alu("alu", 24).unwrap();
        let p = Placer::default().place(&nl, &lib()).unwrap();
        let near = UTILIZATION - 0.2..=UTILIZATION + 0.05;
        assert!(near.contains(&p.mean_utilization()), "{}", p.mean_utilization());
    }

    #[test]
    fn annealing_reduces_vertical_wirelength() {
        // The anneal objective is the vertical (row-span) wirelength, the
        // quantity that matters for row-level bias clustering.
        fn vertical_span(nl: &fbb_netlist::Netlist, p: &Placement) -> f64 {
            let mut total = 0.0;
            for net in nl.nets() {
                let mut rows: Vec<usize> = net.sinks.iter().map(|&s| p.row_of(s).index()).collect();
                if let Some(d) = net.driver {
                    rows.push(p.row_of(d).index());
                }
                if rows.len() >= 2 {
                    total += (rows.iter().max().unwrap() - rows.iter().min().unwrap()) as f64;
                }
            }
            total
        }
        let nl = generators::array_multiplier("m8", 8).unwrap();
        let no_anneal = Placer::new(PlacerOptions { anneal_moves: 0, ..Default::default() })
            .place(&nl, &lib())
            .unwrap();
        let annealed = Placer::default().place(&nl, &lib()).unwrap();
        assert!(vertical_span(&nl, &annealed) <= vertical_span(&nl, &no_anneal));
    }

    #[test]
    fn deterministic() {
        let nl = generators::alu("alu", 12).unwrap();
        let a = Placer::default().place(&nl, &lib()).unwrap();
        let b = Placer::default().place(&nl, &lib()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_options() {
        let nl = generators::ripple_adder("a4", 4, false).unwrap();
        let err = Placer::new(PlacerOptions { target_rows: Some(0), ..Default::default() })
            .place(&nl, &lib());
        assert!(matches!(err, Err(PlacementError::InvalidOptions(_))));
    }

    #[test]
    fn connected_gates_land_near_each_other() {
        // Average vertical net span should be far below the row count for a
        // cone-ordered placement of a deep circuit.
        let nl = generators::ripple_adder("a64", 64, false).unwrap();
        let opts = PlacerOptions {
            target_rows: Some(12),
            timing_driven: false, // measure pure cone locality
            ..PlacerOptions::default()
        };
        let p = Placer::new(opts).place(&nl, &lib()).unwrap();
        let mut spans = Vec::new();
        for net in nl.nets() {
            let mut rows: Vec<usize> = net.sinks.iter().map(|&s| p.row_of(s).index()).collect();
            if let Some(d) = net.driver {
                rows.push(p.row_of(d).index());
            }
            if rows.len() >= 2 {
                spans.push((rows.iter().max().unwrap() - rows.iter().min().unwrap()) as f64);
            }
        }
        let avg = spans.iter().sum::<f64>() / spans.len() as f64;
        assert!(avg < 2.0, "average vertical span {avg}");
    }
}
