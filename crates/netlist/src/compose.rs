//! Hierarchical composition of suite blocks into SoC-scale designs.
//!
//! Every Table 1 design is ≤3.5k gates; this module tiles the existing
//! generator blocks (ALU, array multiplier, ECC corrector, carry-select
//! adder) into 50k–500k-gate designs the way an SoC module replicates
//! datapath tiles. Three properties matter to the rest of the stack:
//!
//! * **Deterministic naming** — leaf instance names are globally uniquified
//!   up front via [`uniquify_names`]
//!   (`mul`, `mul_2`, `alu`, `alu_2`, …), so the same target always
//!   produces the same design.
//! * **Grouping invariance** — [`merge_named`] concatenates gate/net tables
//!   with offsets, which is associative: merging leaves in hierarchical
//!   groups of any size yields *byte-identical* gate and net id tables to
//!   one flat merge (only the net-name prefixes differ). STA never reads
//!   net names, so a hierarchically composed design times bit-identically
//!   to the flat merge — pinned by `fbb-sta`'s `tests/compose_sta.rs`.
//! * **Inter-block stitching** — leaf 0's first primary output drives a BUF
//!   into every other leaf's first primary input (a star, not a chain), so
//!   the result is one connected design rather than a bag of islands. Star
//!   edges all point out of leaf 0, which keeps the graph acyclic, and —
//!   unlike a chain, which would serialize every block into one enormous
//!   critical path touching every row — bounds any stitched path to two
//!   blocks, so timing-path row footprints stay local no matter how many
//!   blocks are tiled.
//!
//! The delay-deep leaves (array multipliers) are emitted first and are the
//! only blocks whose paths survive the pre-processing prune at realistic β,
//! so the timing-constraint count is governed by `DEEP_BLOCKS`, not by the
//! total gate count — that is what keeps the ILP tractable at 100k gates.

use fbb_device::{Cell, CellKind, DriveStrength};
use std::ops::Range;

use crate::generators::{alu, array_multiplier, carry_select_adder, ecc_corrector};
use crate::merge::{merge_named, uniquify_names};
use crate::{Gate, GateId, NetId, Netlist, NetlistError};

/// How to tile suite blocks into one large design.
#[derive(Debug, Clone)]
pub struct ComposeOptions {
    /// Stop adding leaves once the gate total reaches this.
    pub target_gates: usize,
    /// Leaves per hierarchical merge group (`usize::MAX` = one flat merge).
    /// Any value produces byte-identical gate/net tables; this only shapes
    /// the intermediate merges and the net-name prefixes.
    pub group_size: usize,
}

/// Number of delay-deep (array multiplier) leaves. These dominate the
/// critical delay, so they bound the pruned constraint set.
const DEEP_BLOCKS: usize = 2;

impl ComposeOptions {
    /// Defaults for a given gate target: groups of 8 leaves.
    pub fn with_target(target_gates: usize) -> Self {
        ComposeOptions { target_gates, group_size: 8 }
    }

    /// Same tiling, but merged in one flat pass (reference for equivalence
    /// tests; net names lose their group prefix).
    pub fn flat(mut self) -> Self {
        self.group_size = usize::MAX;
        self
    }
}

/// Where one leaf block landed in the composed design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpan {
    /// Globally uniquified instance name (`mul`, `alu_2`, …).
    pub name: String,
    /// Contiguous gate-index range of the leaf's gates.
    pub gates: Range<usize>,
}

/// A composed design plus the block map the placement tiler consumes.
#[derive(Debug, Clone)]
pub struct ComposedDesign {
    /// The merged, stitched netlist.
    pub netlist: Netlist,
    /// Per-leaf gate spans, in composition order.
    pub blocks: Vec<BlockSpan>,
    /// The BUF gates that star-stitch every leaf to leaf 0 (after all
    /// leaf gates).
    pub stitch_gates: Vec<GateId>,
}

/// Tiles suite blocks into one design of at least `options.target_gates`
/// gates (the last leaf may overshoot slightly).
///
/// # Errors
///
/// Returns [`NetlistError`] if a generator or the final validation fails —
/// neither can happen for the fixed palette, so an error here means a
/// generator regression.
pub fn compose(name: &str, options: &ComposeOptions) -> Result<ComposedDesign, NetlistError> {
    // The leaf palette, generated once and cloned per instance. One deep
    // kind (the multiplier — longest chains by far) plus three shallow
    // fillers whose critical paths sit well below the multiplier's, so the
    // pre-processing prune drops every filler path at realistic β.
    let deep = array_multiplier("mul", 10)?;
    let fillers =
        [alu("alu", 8)?, ecc_corrector("ecc", 24, true)?, carry_select_adder("csa", 48, 8)?];

    let mut leaves: Vec<(&str, &Netlist)> = Vec::new();
    let mut total = 0usize;
    for _ in 0..DEEP_BLOCKS {
        leaves.push(("mul", &deep));
        total += deep.gate_count();
    }
    let filler_names = ["alu", "ecc", "csa"];
    let mut k = 0usize;
    while total < options.target_gates {
        let leaf = &fillers[k % fillers.len()];
        leaves.push((filler_names[k % fillers.len()], leaf));
        total += leaf.gate_count();
        k += 1;
    }

    // Globally uniquified instance names; merge_named's own uniquification
    // then sees no duplicates, so the names survive nested merges intact.
    let raw: Vec<&str> = leaves.iter().map(|&(n, _)| n).collect();
    let instances = uniquify_names(&raw);

    // Per-leaf gate/net offsets in the flat concatenation — grouping does
    // not change them (merge is associative).
    let mut gate_off = Vec::with_capacity(leaves.len() + 1);
    let mut net_off = Vec::with_capacity(leaves.len() + 1);
    let (mut g_acc, mut n_acc) = (0usize, 0usize);
    for &(_, leaf) in &leaves {
        gate_off.push(g_acc);
        net_off.push(n_acc);
        g_acc += leaf.gate_count();
        n_acc += leaf.net_count();
    }
    gate_off.push(g_acc);
    net_off.push(n_acc);

    let group = options.group_size.max(1);
    let named: Vec<(&str, &Netlist)> =
        instances.iter().map(String::as_str).zip(leaves.iter().map(|&(_, l)| l)).collect();
    let mut netlist = if group >= named.len() {
        merge_named(name, &named)
    } else {
        let groups: Vec<Netlist> = named
            .chunks(group)
            .enumerate()
            .map(|(g, chunk)| merge_named(&format!("g{g}"), chunk))
            .collect();
        let group_names: Vec<String> = (0..groups.len()).map(|g| format!("g{g}")).collect();
        let top: Vec<(&str, &Netlist)> =
            group_names.iter().map(String::as_str).zip(groups.iter()).collect();
        merge_named(name, &top)
    };

    // Star-stitch every leaf to leaf 0 with BUF gates.
    let mut stitch_gates = Vec::new();
    let (_, hub_leaf) = leaves[0];
    let src = NetId::from_index(net_off[0] + hub_leaf.outputs()[0].index());
    // Stitched nets stop being primary inputs; one retain drops them all.
    let mut stitched = vec![false; netlist.nets.len()];
    for k in 1..leaves.len() {
        let (_, dst_leaf) = leaves[k];
        let dst = NetId::from_index(net_off[k] + dst_leaf.inputs()[0].index());
        let id = GateId::from_index(netlist.gates.len());
        netlist.gates.push(Gate {
            cell: Cell::new(CellKind::Buf, DriveStrength::X1),
            inputs: vec![src],
            output: dst,
        });
        netlist.nets[src.index()].sinks.push(id);
        netlist.nets[dst.index()].driver = Some(id);
        stitched[dst.index()] = true;
        stitch_gates.push(id);
    }
    netlist.inputs.retain(|n| !stitched[n.index()]);
    netlist.validate()?;

    let blocks = instances
        .into_iter()
        .enumerate()
        .map(|(k, name)| BlockSpan { name, gates: gate_off[k]..gate_off[k + 1] })
        .collect();
    Ok(ComposedDesign { netlist, blocks, stitch_gates })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_design_hits_target_and_validates() {
        let d = compose("soc", &ComposeOptions::with_target(6_000)).unwrap();
        assert!(d.netlist.gate_count() >= 6_000);
        assert!(d.netlist.gate_count() < 6_000 + 2_000, "overshoot bounded by one leaf");
        assert_eq!(d.stitch_gates.len(), d.blocks.len() - 1);
        // Spans tile the leaf gates exactly; stitch gates sit after them.
        assert_eq!(d.blocks[0].gates.start, 0);
        for w in d.blocks.windows(2) {
            assert_eq!(w[0].gates.end, w[1].gates.start);
        }
        assert_eq!(
            d.blocks.last().unwrap().gates.end + d.stitch_gates.len(),
            d.netlist.gate_count()
        );
    }

    #[test]
    fn block_names_are_unique_and_deterministic() {
        let a = compose("soc", &ComposeOptions::with_target(8_000)).unwrap();
        let b = compose("soc", &ComposeOptions::with_target(8_000)).unwrap();
        let names: Vec<&str> = a.blocks.iter().map(|s| s.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "instance names collide");
        assert_eq!(names, b.blocks.iter().map(|s| s.name.as_str()).collect::<Vec<_>>());
        assert_eq!(a.netlist.gates, b.netlist.gates);
    }

    #[test]
    fn grouping_is_invisible_in_the_tables() {
        // Hierarchical groups of 3 vs one flat merge: identical gate table,
        // identical net topology (names differ by group prefix only).
        let base = ComposeOptions { group_size: 3, ..ComposeOptions::with_target(5_000) };
        let hier = compose("soc", &base).unwrap();
        let flat = compose("soc", &base.clone().flat()).unwrap();
        assert_eq!(hier.netlist.gates, flat.netlist.gates);
        assert_eq!(hier.netlist.inputs, flat.netlist.inputs);
        assert_eq!(hier.netlist.outputs, flat.netlist.outputs);
        for (h, f) in hier.netlist.nets.iter().zip(flat.netlist.nets.iter()) {
            assert_eq!(h.driver, f.driver);
            assert_eq!(h.sinks, f.sinks);
        }
        assert_eq!(hier.blocks, flat.blocks);
    }

    #[test]
    fn stitches_form_a_star_out_of_the_first_block() {
        let d = compose("soc", &ComposeOptions::with_target(5_000)).unwrap();
        assert_eq!(d.stitch_gates.len(), d.blocks.len() - 1);
        for &g in &d.stitch_gates {
            let gate = &d.netlist.gates[g.index()];
            assert_eq!(gate.cell.kind, CellKind::Buf);
            // Every stitch sources from block 0 (acyclic star, no serial
            // mega-path through all blocks).
            let src_driver = d.netlist.nets[gate.inputs[0].index()].driver.unwrap();
            assert!(d.blocks[0].gates.contains(&src_driver.index()));
            // The stitched input net is no longer a primary input.
            assert!(!d.netlist.inputs.contains(&gate.output));
        }
        // Each non-hub block receives exactly one stitch.
        let mut fed = vec![0usize; d.blocks.len()];
        for &g in &d.stitch_gates {
            let dst = d.netlist.gates[g.index()].output;
            let sink_block = d
                .blocks
                .iter()
                .position(|b| {
                    d.netlist.nets[dst.index()]
                        .sinks
                        .iter()
                        .any(|s| b.gates.contains(&s.index()))
                })
                .unwrap();
            fed[sink_block] += 1;
        }
        assert!(fed[1..].iter().all(|&c| c == 1));
    }
}
