//! Materialized timing paths.

use fbb_netlist::GateId;
use serde::{Deserialize, Serialize};

/// One materialized timing path: an ordered gate chain from a startpoint
/// (primary input or flip-flop Q) to an endpoint (primary output or
/// flip-flop D), with its total delay.
///
/// When the path launches from a flip-flop, the flop is the first gate in
/// [`TimingPath::gates`] and its clk→Q delay is included in
/// [`TimingPath::delay_ps`] — the flop sits in a row and is sped up by FBB
/// like any other cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingPath {
    /// Gates along the path, startpoint first.
    pub gates: Vec<GateId>,
    /// Total path delay in picoseconds.
    pub delay_ps: f64,
}

impl TimingPath {
    /// Number of gates on the path.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the path has no gates (never true for extracted paths).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Re-derives the path delay from a per-gate delay table by summing the
    /// gates in path order.
    ///
    /// Useful as an independent consistency check on persisted paths: a path
    /// and delay vector loaded from external storage agree when the result
    /// matches [`TimingPath::delay_ps`] (to within re-association rounding).
    ///
    /// # Panics
    ///
    /// Panics if a gate index is outside `delays` — bounds-check persisted
    /// gate ids before calling.
    pub fn delay_from(&self, delays: &[f64]) -> f64 {
        self.gates.iter().map(|g| delays[g.index()]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_arithmetic() {
        let p = TimingPath { gates: vec![GateId::from_index(0)], delay_ps: 80.0 };
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }
}
