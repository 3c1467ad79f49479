//! Block-contiguous placement tiling for hierarchically composed designs.
//!
//! The general [`Placer`](crate::Placer) orders gates by connectivity and
//! anneals — fine at Table 1 scale, but at 100k+ gates the annealer is the
//! bottleneck and, worse for the FBB formulation, it scatters a block's
//! gates across the die so every timing path touches many rows, inflating
//! the per-path row footprint the ILP has to carry.
//!
//! [`tile`] instead fills rows **sequentially in gate-id order**. A
//! composed design's gate table is block-contiguous (see
//! `fbb_netlist::compose`), so each leaf block lands in a handful of
//! adjacent rows — exactly the physical clustering the paper's row
//! formulation assumes — and each surviving timing path reduces onto a
//! 2–3-row footprint regardless of total design size. Deterministic, one
//! pass, no annealing.

use fbb_device::Library;
use fbb_netlist::Netlist;

use crate::error::PlacementError;
use crate::geometry::{Die, RowId};
use crate::placement::{PlacedGate, Placement, Row};

/// Tiles `netlist` into `target_rows` rows, filling rows in gate-id order.
///
/// Each row receives ⌈total sites / target_rows⌉ sites' worth of gates
/// before the fill moves on, so blocks that are contiguous in the gate
/// table stay contiguous on the die. The die is sized to the fullest row.
///
/// # Errors
///
/// Returns [`PlacementError::InvalidOptions`] for `target_rows == 0` or an
/// empty netlist, and propagates table-consistency errors from
/// [`Placement::from_parts`] (unreachable for a valid netlist).
pub fn tile(
    netlist: &Netlist,
    library: &Library,
    target_rows: u32,
) -> Result<Placement, PlacementError> {
    if target_rows == 0 {
        return Err(PlacementError::InvalidOptions("target_rows must be nonzero".into()));
    }
    if netlist.gate_count() == 0 {
        return Err(PlacementError::InvalidOptions("cannot tile an empty netlist".into()));
    }

    let widths: Vec<u32> = netlist.gates().iter().map(|g| library.width_sites(g.cell)).collect();
    let total_sites: u64 = widths.iter().map(|&w| u64::from(w)).sum();
    let per_row = total_sites.div_ceil(u64::from(target_rows)).max(1);

    let mut rows: Vec<Row> = Vec::with_capacity(target_rows as usize);
    let mut gates = vec![PlacedGate { row: RowId::from_index(0), site: 0, width_sites: 1 }; widths.len()];
    let mut row = Row { id: RowId::from_index(0), gates: Vec::new(), used_sites: 0 };
    for (i, &w) in widths.iter().enumerate() {
        // Close the row once it has its share — unless it is the last one
        // allowed, which absorbs the rounding remainder.
        if u64::from(row.used_sites) >= per_row && (rows.len() as u32) < target_rows - 1 {
            let id = RowId::from_index(rows.len() + 1);
            rows.push(std::mem::replace(&mut row, Row { id, gates: Vec::new(), used_sites: 0 }));
        }
        gates[i] = PlacedGate { row: row.id, site: row.used_sites, width_sites: w };
        row.gates.push(fbb_netlist::GateId::from_index(i));
        row.used_sites += w;
    }
    rows.push(row);

    let sites_per_row = rows.iter().map(|r| r.used_sites).max().unwrap_or(1);
    let die = Die {
        site_width_um: Die::SITE_WIDTH_UM,
        row_height_um: Die::ROW_HEIGHT_UM,
        sites_per_row,
        rows: rows.len() as u32,
    };
    let placement = Placement::from_parts(die, rows, gates)?;
    placement.validate(netlist)?;
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_netlist::{compose, ComposeOptions};

    #[test]
    fn tiled_composed_design_is_legal_and_block_contiguous() {
        let design = compose("soc", &ComposeOptions::with_target(5_000)).unwrap();
        let library = Library::date09_45nm();
        let placement = tile(&design.netlist, &library, 64).unwrap();
        assert_eq!(placement.row_count(), 64);
        placement.validate(&design.netlist).unwrap();

        // Gate-id order fill ⇒ every block spans a contiguous row window no
        // wider than its site share (+1 row of boundary slop per side).
        let per_row = placement.die().sites_per_row as usize;
        for span in &design.blocks {
            let rows: Vec<usize> = span
                .gates
                .clone()
                .map(|g| placement.row_of(fbb_netlist::GateId::from_index(g)).index())
                .collect();
            let (lo, hi) = (*rows.iter().min().unwrap(), *rows.iter().max().unwrap());
            assert!(rows.windows(2).all(|w| w[0] <= w[1]), "row ids decrease within a block");
            let sites: usize = span
                .gates
                .clone()
                .map(|g| library.width_sites(design.netlist.gates()[g].cell) as usize)
                .sum();
            let max_span = sites.div_ceil(per_row) + 1;
            assert!(hi - lo < max_span, "block {} spans rows {lo}..={hi}", span.name);
        }
    }

    #[test]
    fn tile_is_deterministic() {
        let design = compose("soc", &ComposeOptions::with_target(5_000)).unwrap();
        let library = Library::date09_45nm();
        let a = tile(&design.netlist, &library, 48).unwrap();
        let b = tile(&design.netlist, &library, 48).unwrap();
        for i in 0..design.netlist.gate_count() {
            let g = fbb_netlist::GateId::from_index(i);
            assert_eq!(a.row_of(g), b.row_of(g));
        }
    }

    #[test]
    fn tile_rejects_degenerate_inputs() {
        let design = compose("soc", &ComposeOptions::with_target(5_000)).unwrap();
        let library = Library::date09_45nm();
        assert!(tile(&design.netlist, &library, 0).is_err());
    }
}
