//! The placed-design abstraction consumed by the FBB allocator.

use fbb_netlist::{GateId, Netlist};
use serde::{Deserialize, Serialize};

use crate::{Die, PlacementError, RowId};

/// Physical data of one placed gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedGate {
    /// Row containing the gate.
    pub row: RowId,
    /// First site occupied by the gate within its row.
    pub site: u32,
    /// Width in sites.
    pub width_sites: u32,
}

/// One standard-cell row with its gates in left-to-right order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Row {
    /// The row id (0 = bottom row).
    pub id: RowId,
    /// Gates in the row, left to right.
    pub gates: Vec<GateId>,
    /// Occupied sites.
    pub used_sites: u32,
}

/// A legal row-based placement: every gate sits in exactly one row.
///
/// This is the "placed design, which can be abstracted as a set of N rows"
/// that the paper's clustering algorithms start from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    pub(crate) die: Die,
    pub(crate) rows: Vec<Row>,
    /// Indexed by `GateId::index()`.
    pub(crate) gates: Vec<PlacedGate>,
}

impl Placement {
    /// Reassembles a placement from raw tables, e.g. decoded from a
    /// persisted design database.
    ///
    /// Checks the netlist-independent invariants so corrupted tables error
    /// instead of panicking deeper in the stack: row records carry their own
    /// index, every gate reference is in range, and no gate hangs past its
    /// row's site capacity. Callers holding the matching netlist should
    /// still run [`Placement::validate`] for the coverage and occupancy
    /// checks.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Inconsistent`] describing the first
    /// violation.
    pub fn from_parts(
        die: Die,
        rows: Vec<Row>,
        gates: Vec<PlacedGate>,
    ) -> Result<Self, PlacementError> {
        if die.rows as usize != rows.len() {
            return Err(PlacementError::Inconsistent(format!(
                "die declares {} rows, tables carry {}",
                die.rows,
                rows.len()
            )));
        }
        for (i, row) in rows.iter().enumerate() {
            if row.id.index() != i {
                return Err(PlacementError::Inconsistent(format!(
                    "row record {i} carries id {}",
                    row.id
                )));
            }
            if let Some(&g) = row.gates.iter().find(|g| g.index() >= gates.len()) {
                return Err(PlacementError::Inconsistent(format!(
                    "{} lists {g} beyond the {} placed gates",
                    row.id,
                    gates.len()
                )));
            }
        }
        for (i, pg) in gates.iter().enumerate() {
            if pg.row.index() >= rows.len() {
                return Err(PlacementError::Inconsistent(format!(
                    "gate g{i} sits in {} beyond the {} rows",
                    pg.row,
                    rows.len()
                )));
            }
            let end = u64::from(pg.site) + u64::from(pg.width_sites);
            if pg.width_sites == 0 || end > u64::from(die.sites_per_row) {
                return Err(PlacementError::Inconsistent(format!(
                    "gate g{i} occupies sites {}..{end} of a {}-site row",
                    pg.site, die.sites_per_row
                )));
            }
        }
        Ok(Placement { die, rows, gates })
    }

    /// The die geometry.
    pub fn die(&self) -> &Die {
        &self.die
    }

    /// Number of rows `N`.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// All rows, bottom to top.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The row containing `gate`.
    pub fn row_of(&self, gate: GateId) -> RowId {
        self.gates[gate.index()].row
    }

    /// Placement data of `gate`.
    pub fn placed_gate(&self, gate: GateId) -> PlacedGate {
        self.gates[gate.index()]
    }

    /// Centre coordinates of `gate` in micrometres `(x, y)`.
    pub fn position_um(&self, gate: GateId) -> (f64, f64) {
        let pg = self.gates[gate.index()];
        let x = (f64::from(pg.site) + f64::from(pg.width_sites) / 2.0) * self.die.site_width_um;
        let y = (f64::from(pg.row.0) + 0.5) * self.die.row_height_um;
        (x, y)
    }

    /// Utilization of one row (occupied fraction of its sites).
    pub fn row_utilization(&self, row: RowId) -> f64 {
        f64::from(self.rows[row.index()].used_sites) / f64::from(self.die.sites_per_row)
    }

    /// Mean row utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| f64::from(r.used_sites))
            .sum::<f64>()
            / (f64::from(self.die.sites_per_row) * self.rows.len() as f64)
    }

    /// Checks the placement is legal for `netlist`: every gate placed once,
    /// row occupancy consistent, no row over capacity.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Inconsistent`] describing the first
    /// violation.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), PlacementError> {
        if self.gates.len() != netlist.gate_count() {
            return Err(PlacementError::Inconsistent(format!(
                "placement covers {} gates, netlist has {}",
                self.gates.len(),
                netlist.gate_count()
            )));
        }
        let mut seen = vec![false; self.gates.len()];
        for row in &self.rows {
            let mut used = 0;
            for &g in &row.gates {
                if seen[g.index()] {
                    return Err(PlacementError::Inconsistent(format!("gate {g} placed twice")));
                }
                seen[g.index()] = true;
                if self.gates[g.index()].row != row.id {
                    return Err(PlacementError::Inconsistent(format!(
                        "gate {g} row record disagrees with row membership"
                    )));
                }
                used += self.gates[g.index()].width_sites;
            }
            if used != row.used_sites {
                return Err(PlacementError::Inconsistent(format!(
                    "{} occupancy {} != recorded {}",
                    row.id, used, row.used_sites
                )));
            }
            if row.used_sites > self.die.sites_per_row {
                return Err(PlacementError::Inconsistent(format!(
                    "{} over capacity ({}/{})",
                    row.id, row.used_sites, self.die.sites_per_row
                )));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(PlacementError::Inconsistent(format!(
                "gate g{missing} is not placed"
            )));
        }
        Ok(())
    }

    /// One-line summary for experiment logs.
    pub fn stats(&self) -> String {
        format!(
            "{} rows x {} sites ({:.1}x{:.1} um), mean utilization {:.1}%",
            self.rows.len(),
            self.die.sites_per_row,
            self.die.width_um(),
            self.die.height_um(),
            self.mean_utilization() * 100.0
        )
    }
}
