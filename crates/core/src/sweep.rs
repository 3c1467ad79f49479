//! Warm β × C × P grid sweeps (ROADMAP workload-scale item).
//!
//! A design-space sweep solves the allocation at every point of a
//! (slowdown β, cluster budget C, bias-level count P) grid. Solving each
//! cell cold repeats the expensive part — STA over the whole design and
//! critical-path extraction — once per cell, even though the STA depends on
//! no grid axis and the constrained path set only on β. [`run_sweep`]
//! instead walks the grid as one warm pipeline and re-uses exactly what a
//! grid step leaves valid:
//!
//! | axis step | invalidates                              | kept            |
//! |-----------|------------------------------------------|-----------------|
//! | β         | constrained path set, path tables        | nominal STA, row map + leakage |
//! | P         | level-indexed tables, ILP model          | pre-process     |
//! | C         | budget-row RHS, incumbent, search tree   | pre-process + model |
//!
//! **Bit-identity is the contract**: every warm cell must return the same
//! `f64::to_bits` objective and the same status a cold solve of that cell
//! returns. The reuse ladder is chosen so each warm input is *value-equal*
//! to its cold counterpart, never merely "close":
//!
//! * one timing graph and one nominal analysis per sweep — the nominal
//!   delays read no grid axis, and [`FbbProblem::preprocess_on`] over that
//!   analysis is exactly the pre-process a cold cell runs after its own STA;
//! * one [`Preprocessed`] per β, all built by one
//!   [`FbbProblem::preprocess_betas_on`] pass — its β-independent half (the
//!   analysis check, gate→row map and row leakage) runs once, and each
//!   element equals `preprocess_on` at its β. `preprocess` reads the
//!   cluster budget only to copy it into the output, so a shared
//!   pre-process equals a per-cell one;
//! * the P axis is defined by [`Preprocessed::restrict_levels`], applied
//!   identically on the warm path (shared pre-process) and the cold path
//!   (fresh pre-process); it returns a view over the same tables, so no
//!   P step copies them;
//! * one ILP model per (β, P) — `build_model` depends on C only through
//!   the budget-row RHS, so patching it via [`Model::set_rhs`](fbb_lp::Model::set_rhs) yields a
//!   model `PartialEq`-equal to a fresh build (pinned by a test below);
//! * the heuristic incumbent is recomputed per cell, and `solve_mip` runs
//!   with identical options — a deterministic solver on identical inputs
//!   returns identical outputs.
//!
//! What is deliberately **not** reused: simplex bases, pseudocost tables,
//! and root cuts across *cells*. Those are shared per search tree inside
//! `solve_mip` already; carrying them across cells would steer the branch
//! order and break bit-identity. Wall-clock limits are likewise
//! bit-unsafe — where a deadline lands depends on machine noise — so
//! bounded sweeps should use [`SweepOptions::node_limit`], which is
//! deterministic (same tree ⇒ same stopping point).
//!
//! The C axis is walked descending so a *proven* infeasible cell prunes
//! the rest of its C column (Σy ≤ C' is tighter for smaller C'). Pruning
//! only arms when both limits are off: a complete search proves
//! infeasibility at every smaller C, so the skipped cells' status and
//! normalized objective are still exactly what a cold solve returns.

use std::time::Duration;

use fbb_device::Characterization;
use fbb_lp::MipStatus;
use fbb_netlist::Netlist;
use fbb_placement::Placement;
use fbb_sta::TimingGraph;
use serde::{Deserialize, Serialize};

use crate::ilp::decode;
use crate::{FbbError, FbbProblem, Granularity, IlpAllocator, Preprocessed};

/// The β × C × P grid to sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Slowdown coefficients β, each in `[0, 1]`.
    pub betas: Vec<f64>,
    /// Cluster budgets C (each ≥ 1).
    pub clusters: Vec<usize>,
    /// Bias-level counts P (each ≥ 1 and ≤ the characterization's levels).
    pub levels: Vec<usize>,
}

impl SweepGrid {
    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.betas.len() * self.clusters.len() * self.levels.len()
    }
}

/// Sweep execution controls.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Per-cell wall-clock budget. **Breaks bit-identity** (where the
    /// deadline lands is timing noise); prefer `node_limit` for bounded
    /// sweeps that must stay reproducible.
    pub time_limit: Option<Duration>,
    /// Per-cell branch & bound node budget — the deterministic way to
    /// bound cell cost.
    pub node_limit: Option<usize>,
    /// Solve every cell from scratch (the reference mode the warm pipeline
    /// is measured and verified against).
    pub cold: bool,
}

/// Outcome class of one grid cell (a faithful copy of the MIP status —
/// unlike [`IlpOutcome`](crate::IlpOutcome), a sweep distinguishes proven
/// infeasibility from an exhausted budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepStatus {
    /// Proven optimal.
    Optimal,
    /// Integer-feasible, optimality not proven (budget expired).
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Budget expired with no integer point found.
    Unknown,
}

/// One solved (or pruned) grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Slowdown coefficient β of this cell.
    pub beta: f64,
    /// Cluster budget C of this cell.
    pub clusters: usize,
    /// Bias-level count P of this cell.
    pub levels: usize,
    /// Outcome class.
    pub status: SweepStatus,
    /// Objective (total leakage, nW). Normalized to `0.0` when no integer
    /// point exists (`Infeasible`/`Unknown`) so cell comparison is a plain
    /// `f64::to_bits` check on every status.
    pub leakage_nw: f64,
    /// Branch & bound nodes explored (0 for pruned cells).
    pub nodes: usize,
    /// Wall-clock spent on this cell.
    pub runtime: Duration,
    /// Row→level assignment, when an integer point exists.
    pub assignment: Option<Vec<usize>>,
}

/// Everything a sweep run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Cells in sweep order (β outer, P middle, C inner-descending).
    pub cells: Vec<SweepCell>,
    /// Total wall-clock for the sweep.
    pub runtime: Duration,
    /// Pre-processing passes run (warm: one per β; cold: one per cell).
    pub preprocess_count: usize,
    /// ILP models built (warm: one per β × P; cold: one per cell).
    pub model_builds: usize,
    /// Cells skipped by the monotone-infeasibility prune.
    pub pruned: usize,
}

/// Runs the β × C × P grid over one placed design, streaming each finished
/// cell to `on_cell` before moving on.
///
/// Warm by default; [`SweepOptions::cold`] solves every cell from scratch
/// instead (same cell order, same results, no reuse) — the reference the
/// sweep bench and the golden tests diff the warm path against.
///
/// # Errors
///
/// Returns [`FbbError::InvalidProblem`] for an empty grid axis or a grid
/// value out of range (β outside `[0, 1]`, C = 0, P = 0 or beyond the
/// characterization), and propagates pre-processing/solver failures.
pub fn run_sweep(
    netlist: &Netlist,
    placement: &Placement,
    chara: &Characterization,
    grid: &SweepGrid,
    options: &SweepOptions,
    mut on_cell: impl FnMut(&SweepCell),
) -> Result<SweepReport, FbbError> {
    let _span = fbb_telemetry::span("core_sweep");
    let clock = fbb_lp::deadline::Stopwatch::start();
    if grid.betas.is_empty() || grid.clusters.is_empty() || grid.levels.is_empty() {
        return Err(FbbError::InvalidProblem("sweep grid has an empty axis".into()));
    }
    for &p in &grid.levels {
        if p == 0 || p > chara.level_count() {
            return Err(FbbError::InvalidProblem(format!(
                "grid level count {p} outside 1..={}",
                chara.level_count()
            )));
        }
    }

    // C descending enables the monotone-infeasibility prune; it is safe
    // only when the per-cell search is complete (no budget can cut it
    // short), because a pruned cell claims *proven* infeasibility.
    let mut clusters = grid.clusters.clone();
    clusters.sort_unstable();
    clusters.dedup();
    clusters.reverse();
    let may_prune = options.time_limit.is_none() && options.node_limit.is_none();
    let cmax = clusters[0];
    // Every cell solves as `IlpAllocator::solve` would under these limits.
    let allocator = IlpAllocator { time_limit: options.time_limit, node_limit: options.node_limit };

    let mut report = SweepReport {
        cells: Vec::with_capacity(grid.betas.len() * grid.levels.len() * clusters.len()),
        runtime: Duration::ZERO,
        preprocess_count: 0,
        model_builds: 0,
        pruned: 0,
    };

    // Warm: one timing graph, one nominal analysis and one pre-process pass
    // for the whole grid; the graph and the analysis read no grid axis,
    // and the pass builds every β's problem on their shared β-independent
    // tables. β and the placement are checked before the STA runs, as the
    // first β's pre-process would. The graph and the analysis are dropped
    // before the first solve.
    let per_beta: Option<Vec<Preprocessed>> = if options.cold {
        None
    } else {
        let problem = FbbProblem::new(netlist, placement, chara, grid.betas[0], cmax)?;
        let graph = TimingGraph::new(netlist)?;
        let analysis = graph.analyze(&problem.nominal_delays());
        report.preprocess_count += grid.betas.len();
        Some(problem.preprocess_betas_on(&analysis, Granularity::Row, &grid.betas)?)
    };

    for (b, &beta) in grid.betas.iter().enumerate() {
        // Warm: one pre-process per β, shared by every (C, P) cell. The
        // budget argument is only copied into `max_clusters`, which each
        // cell overwrites below, so sharing is value-exact.
        let shared = per_beta.as_ref().map(|pres| &pres[b]);

        for &p in &grid.levels {
            // Warm: one model per (β, P); only its budget RHS varies with C.
            let mut warm: Option<(Preprocessed, fbb_lp::Model, usize)> = match shared {
                Some(pre) => {
                    let restricted = pre.restrict_levels(p)?;
                    let model = allocator.build_model(&restricted)?;
                    report.model_builds += 1;
                    let budget_row = IlpAllocator::structure_hints(&restricted)
                        .budget_row
                        .expect("FBB models always carry a budget row");
                    Some((restricted, model, budget_row))
                }
                None => None,
            };

            let mut proven_infeasible = false;
            for &c in &clusters {
                let cell_clock = fbb_lp::deadline::Stopwatch::start();
                if proven_infeasible && may_prune {
                    report.pruned += 1;
                    let cell = SweepCell {
                        beta,
                        clusters: c,
                        levels: p,
                        status: SweepStatus::Infeasible,
                        leakage_nw: 0.0,
                        nodes: 0,
                        runtime: cell_clock.runtime(),
                        assignment: None,
                    };
                    on_cell(&cell);
                    report.cells.push(cell);
                    continue;
                }

                let (mip, assignment) = match &mut warm {
                    Some((pre, model, budget_row)) => {
                        pre.max_clusters = c;
                        model.set_rhs(*budget_row, c as f64).map_err(FbbError::Solver)?;
                        let mip = allocator.solve_model(pre, model)?;
                        let a = decode_point(pre, &mip);
                        (mip, a)
                    }
                    None => {
                        report.preprocess_count += 1;
                        report.model_builds += 1;
                        let pre = FbbProblem::new(netlist, placement, chara, beta, c)?
                            .preprocess()?
                            .restrict_levels(p)?;
                        let model = allocator.build_model(&pre)?;
                        let mip = allocator.solve_model(&pre, &model)?;
                        let a = decode_point(&pre, &mip);
                        (mip, a)
                    }
                };
                proven_infeasible = mip.status == MipStatus::Infeasible;
                let has_point = assignment.is_some();
                let cell = SweepCell {
                    beta,
                    clusters: c,
                    levels: p,
                    status: match mip.status {
                        MipStatus::Optimal => SweepStatus::Optimal,
                        MipStatus::Feasible => SweepStatus::Feasible,
                        MipStatus::Infeasible => SweepStatus::Infeasible,
                        // Unbounded cannot happen for the FBB model (all
                        // binaries, minimization, finite objective).
                        MipStatus::Unknown | MipStatus::Unbounded => SweepStatus::Unknown,
                    },
                    leakage_nw: if has_point { mip.objective } else { 0.0 },
                    nodes: mip.nodes,
                    runtime: cell_clock.runtime(),
                    assignment,
                };
                on_cell(&cell);
                report.cells.push(cell);
            }
        }
    }

    report.runtime = clock.runtime();
    if fbb_telemetry::is_enabled() {
        fbb_telemetry::counter("core_sweep_runs", 1);
        fbb_telemetry::counter("core_sweep_cells", report.cells.len() as u64);
        fbb_telemetry::counter("core_sweep_preprocesses", report.preprocess_count as u64);
        fbb_telemetry::counter("core_sweep_model_builds", report.model_builds as u64);
        fbb_telemetry::counter("core_sweep_pruned", report.pruned as u64);
    }
    Ok(report)
}

/// Row assignment of the MIP's best point, when one exists.
fn decode_point(pre: &Preprocessed, mip: &fbb_lp::MipSolution) -> Option<Vec<usize>> {
    matches!(mip.status, MipStatus::Optimal | MipStatus::Feasible)
        .then(|| decode(pre, &mip.x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn setup() -> (Netlist, Placement, Characterization) {
        let netlist = generators::ripple_adder("a24", 24, false).unwrap();
        let library = Library::date09_45nm();
        let placement =
            Placer::new(PlacerOptions::with_target_rows(6)).place(&netlist, &library).unwrap();
        let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        (netlist, placement, chara)
    }

    fn grid() -> SweepGrid {
        SweepGrid { betas: vec![0.03, 0.05], clusters: vec![1, 2, 3], levels: vec![2, 3] }
    }

    #[test]
    fn warm_sweep_is_bit_identical_to_cold() {
        let (netlist, placement, chara) = setup();
        let warm =
            run_sweep(&netlist, &placement, &chara, &grid(), &SweepOptions::default(), |_| {})
                .unwrap();
        let cold = run_sweep(
            &netlist,
            &placement,
            &chara,
            &grid(),
            &SweepOptions { cold: true, ..Default::default() },
            |_| {},
        )
        .unwrap();
        assert_eq!(warm.cells.len(), cold.cells.len());
        assert_eq!(warm.cells.len(), grid().cell_count());
        for (w, c) in warm.cells.iter().zip(cold.cells.iter()) {
            assert_eq!((w.beta, w.clusters, w.levels), (c.beta, c.clusters, c.levels));
            assert_eq!(w.status, c.status, "status at {:?}", (w.beta, w.clusters, w.levels));
            assert_eq!(
                w.leakage_nw.to_bits(),
                c.leakage_nw.to_bits(),
                "objective at {:?}",
                (w.beta, w.clusters, w.levels)
            );
            assert_eq!(w.assignment, c.assignment);
        }
        // The warm pipeline actually reused work.
        assert_eq!(warm.preprocess_count, grid().betas.len());
        assert_eq!(warm.model_builds, grid().betas.len() * grid().levels.len());
        assert!(cold.preprocess_count >= warm.cells.len() - cold.pruned);
    }

    #[test]
    fn infeasible_cells_are_normalized_and_pruned_consistently() {
        let (netlist, placement, chara) = setup();
        // P = 1 is NBB-only: any β > 0 cell is infeasible at every C.
        let grid = SweepGrid { betas: vec![0.05], clusters: vec![1, 2, 3], levels: vec![1] };
        let warm =
            run_sweep(&netlist, &placement, &chara, &grid, &SweepOptions::default(), |_| {})
                .unwrap();
        let cold = run_sweep(
            &netlist,
            &placement,
            &chara,
            &grid,
            &SweepOptions { cold: true, ..Default::default() },
            |_| {},
        )
        .unwrap();
        assert!(warm.pruned > 0, "descending C should prune after the first proof");
        for (w, c) in warm.cells.iter().zip(cold.cells.iter()) {
            assert_eq!(w.status, SweepStatus::Infeasible);
            assert_eq!(c.status, SweepStatus::Infeasible);
            assert_eq!(w.leakage_nw.to_bits(), 0.0f64.to_bits());
            assert_eq!(c.leakage_nw.to_bits(), 0.0f64.to_bits());
            assert!(w.assignment.is_none());
        }
    }

    #[test]
    fn node_limited_sweep_disables_pruning_and_stays_bit_identical() {
        let (netlist, placement, chara) = setup();
        let grid = SweepGrid { betas: vec![0.05], clusters: vec![1, 2], levels: vec![1, 3] };
        let options = SweepOptions { node_limit: Some(1), ..Default::default() };
        let warm = run_sweep(&netlist, &placement, &chara, &grid, &options, |_| {}).unwrap();
        let cold = run_sweep(
            &netlist,
            &placement,
            &chara,
            &grid,
            &SweepOptions { cold: true, ..options },
            |_| {},
        )
        .unwrap();
        assert_eq!(warm.pruned, 0, "budgeted searches must not claim proven infeasibility");
        for (w, c) in warm.cells.iter().zip(cold.cells.iter()) {
            assert_eq!(w.status, c.status);
            assert_eq!(w.leakage_nw.to_bits(), c.leakage_nw.to_bits());
        }
    }

    #[test]
    fn patched_budget_model_equals_fresh_build() {
        // The keystone of the C-axis reuse: set_rhs on the budget row turns
        // the C=3 model into the C=2 model, exactly.
        let (netlist, placement, chara) = setup();
        let pre3 = FbbProblem::new(&netlist, &placement, &chara, 0.05, 3)
            .unwrap()
            .preprocess()
            .unwrap();
        let mut pre2 = pre3.clone();
        pre2.max_clusters = 2;
        let mut patched = IlpAllocator::default().build_model(&pre3).unwrap();
        let budget_row = IlpAllocator::structure_hints(&pre3).budget_row.unwrap();
        patched.set_rhs(budget_row, 2.0).unwrap();
        assert_eq!(patched, IlpAllocator::default().build_model(&pre2).unwrap());
    }

    #[test]
    fn restricted_levels_match_shallow_characterization_shape() {
        let (netlist, placement, chara) = setup();
        let pre = FbbProblem::new(&netlist, &placement, &chara, 0.05, 2)
            .unwrap()
            .preprocess()
            .unwrap();
        let r = pre.restrict_levels(2).unwrap();
        r.validate().unwrap();
        assert_eq!(r.levels(), 2);
        assert!((0..r.n_rows()).all(|i| r.row_leakage(i).len() == 2));
        assert!(r.paths().all(|p| p.rows().all(|(_, reds)| reds.len() == 2)));
        assert_eq!(r.dcrit_ps.to_bits(), pre.dcrit_ps.to_bits());
        assert!(pre.restrict_levels(0).is_err());
        assert!(pre.restrict_levels(pre.levels() + 1).is_err());
    }

    #[test]
    fn rejects_degenerate_grids() {
        let (netlist, placement, chara) = setup();
        let empty = SweepGrid { betas: vec![], clusters: vec![2], levels: vec![3] };
        assert!(run_sweep(&netlist, &placement, &chara, &empty, &Default::default(), |_| {})
            .is_err());
        let deep = SweepGrid { betas: vec![0.05], clusters: vec![2], levels: vec![99] };
        assert!(run_sweep(&netlist, &placement, &chara, &deep, &Default::default(), |_| {})
            .is_err());
    }
}
