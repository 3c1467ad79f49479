//! Die and row geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a standard-cell row (the paper's clustering unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId(pub(crate) u32);

impl RowId {
    /// Dense index of this row (0 = bottom row).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `RowId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        RowId(u32::try_from(index).expect("row index fits in u32"))
    }

    /// Builds a `RowId` from its stored `u32` form (total; decode paths).
    pub const fn from_u32(id: u32) -> Self {
        RowId(id)
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row{}", self.0)
    }
}

/// Physical die description for a row-based standard-cell block.
///
/// The placer and the row tiler use the paper's 45 nm values,
/// [`Die::SITE_WIDTH_UM`] and [`Die::ROW_HEIGHT_UM`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Die {
    /// Width of one placement site in micrometres.
    pub site_width_um: f64,
    /// Standard-cell row height in micrometres.
    pub row_height_um: f64,
    /// Number of placement sites per row.
    pub sites_per_row: u32,
    /// Number of rows.
    pub rows: u32,
}

impl Die {
    /// Placement site width of the paper's 45 nm library (µm), used by the
    /// placer and the row tiler.
    pub const SITE_WIDTH_UM: f64 = 0.2;
    /// Standard-cell row height of the paper's 45 nm library (µm), used by
    /// the placer and the row tiler.
    pub const ROW_HEIGHT_UM: f64 = 1.4;

    /// Die width in micrometres.
    pub fn width_um(&self) -> f64 {
        f64::from(self.sites_per_row) * self.site_width_um
    }

    /// Die height in micrometres.
    pub fn height_um(&self) -> f64 {
        f64::from(self.rows) * self.row_height_um
    }

    /// Die area in square micrometres.
    pub fn area_um2(&self) -> f64 {
        self.width_um() * self.height_um()
    }

    /// Total placement capacity in sites.
    pub fn capacity_sites(&self) -> u64 {
        u64::from(self.sites_per_row) * u64::from(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_arithmetic() {
        let die = Die { site_width_um: 0.2, row_height_um: 1.4, sites_per_row: 100, rows: 10 };
        assert!((die.width_um() - 20.0).abs() < 1e-12);
        assert!((die.height_um() - 14.0).abs() < 1e-12);
        assert!((die.area_um2() - 280.0).abs() < 1e-9);
        assert_eq!(die.capacity_sites(), 1000);
    }

    #[test]
    fn row_id_roundtrip() {
        let r = RowId::from_index(5);
        assert_eq!(r.index(), 5);
        assert_eq!(r.to_string(), "row5");
    }
}
