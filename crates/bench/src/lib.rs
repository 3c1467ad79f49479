//! Shared experiment harness: design loading, allocation runs, and table
//! formatting for the binaries that regenerate the paper's tables/figures.

pub mod report;

use std::time::Duration;

use fbb_core::{single_bb, ClusterSolution, FbbError, FbbProblem, IlpAllocator, IlpOutcome, Preprocessed, TwoPassHeuristic};
use fbb_device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb_netlist::suite::{self, PaperStats};
use fbb_netlist::Netlist;
use fbb_placement::{Placement, PlacementOrder, Placer, PlacerOptions};

/// A fully prepared Table 1 design: generated netlist, paper-row-count
/// placement, and library characterization.
pub struct PreparedDesign {
    /// Paper-reported statistics for the design.
    pub stats: PaperStats,
    /// The generated stand-in netlist.
    pub netlist: Netlist,
    /// Row-based placement at the paper's row count.
    pub placement: Placement,
    /// Cell characterization tables.
    pub characterization: Characterization,
}

/// Generates, places (at the paper's exact row count), and characterizes a
/// Table 1 design.
///
/// # Panics
///
/// Panics if `name` is not a Table 1 design or the placer fails (both are
/// covered by the suite's tests, so a failure here is a programming error).
pub fn prepare_design(name: &str) -> PreparedDesign {
    let stats = *suite::PAPER_TABLE1
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is not a Table 1 design"));
    let netlist = suite::generate(name).expect("suite name");
    let library = Library::date09_45nm();
    // Array datapaths (the multiplier and the wide adder) place as
    // row-major grids whose every row touches critical chains; cone-style
    // logic clusters by timing region under a timing-driven flow.
    let gridlike = matches!(name, "c6288" | "adder_128bits");
    let placer = Placer::new(PlacerOptions {
        target_rows: Some(stats.rows as u32),
        // Bound the annealing effort on the largest industrial blocks.
        anneal_moves: 40_000.min(netlist.gate_count() * 4),
        timing_driven: !gridlike,
        order: if gridlike { PlacementOrder::Natural } else { PlacementOrder::Cone },
        ..PlacerOptions::default()
    });
    let placement = placer.place(&netlist, &library).expect("paper row counts are placeable");
    let characterization = library
        .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().expect("valid ladder"));
    PreparedDesign { stats, netlist, placement, characterization }
}

impl PreparedDesign {
    /// Pre-processes the design at a slowdown β and cluster budget C.
    ///
    /// # Panics
    ///
    /// Panics on invalid β/C (the harness always passes paper values).
    pub fn preprocess(&self, beta: f64, max_clusters: usize) -> Preprocessed {
        FbbProblem::new(&self.netlist, &self.placement, &self.characterization, beta, max_clusters)
            .expect("valid parameters")
            .preprocess()
            .expect("suite netlists are acyclic")
    }
}

/// One (β, C) measurement of one design.
#[derive(Debug, Clone)]
pub struct AllocationRun {
    /// Block-level single-voltage baseline.
    pub baseline: ClusterSolution,
    /// Two-pass heuristic solution.
    pub heuristic: ClusterSolution,
    /// Exact ILP outcome (`None` if skipped).
    pub ilp: Option<IlpOutcome>,
    /// Constraint count `M`.
    pub constraints: usize,
}

impl AllocationRun {
    /// Heuristic savings vs the single-BB baseline, percent.
    pub fn heuristic_savings(&self) -> f64 {
        self.heuristic.savings_vs(&self.baseline)
    }

    /// ILP savings vs the single-BB baseline, percent (`None` when the ILP
    /// was skipped or found no solution).
    pub fn ilp_savings(&self) -> Option<f64> {
        self.ilp
            .as_ref()
            .and_then(|o| o.solution.as_ref())
            .map(|s| s.savings_vs(&self.baseline))
    }
}

/// Runs baseline + heuristic (+ optionally ILP) on a pre-processed problem.
///
/// # Errors
///
/// Returns [`FbbError::Uncompensable`] when the slowdown exceeds the ladder.
pub fn run_allocation(
    pre: &Preprocessed,
    ilp_time_limit: Option<Duration>,
    run_ilp: bool,
) -> Result<AllocationRun, FbbError> {
    let baseline = single_bb(pre)?;
    let heuristic = TwoPassHeuristic.solve(pre)?;
    let ilp = if run_ilp {
        let allocator = IlpAllocator { time_limit: ilp_time_limit, ..IlpAllocator::default() };
        Some(allocator.solve(pre)?)
    } else {
        None
    };
    Ok(AllocationRun { baseline, heuristic, ilp, constraints: pre.constraint_count() })
}

/// Formats a line of aligned columns.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Parses `--flag value`-style arguments from `std::env::args`.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_design_matches_paper_rows() {
        let d = prepare_design("c1355");
        assert_eq!(d.placement.row_count(), 13);
        assert_eq!(d.stats.gates, 439);
    }

    #[test]
    fn allocation_run_end_to_end() {
        let d = prepare_design("c1355");
        let pre = d.preprocess(0.05, 3);
        let run = run_allocation(&pre, None, true).unwrap();
        assert!(run.heuristic.meets_timing);
        assert!(run.heuristic_savings() >= 0.0);
        let ilp_savings = run.ilp_savings().expect("ilp ran");
        assert!(ilp_savings + 1e-6 >= run.heuristic_savings());
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["--beta", "0.05", "--layout"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--beta").as_deref(), Some("0.05"));
        assert!(arg_flag(&args, "--layout"));
        assert!(!arg_flag(&args, "--missing"));
        assert_eq!(arg_value(&args, "--none"), None);
    }
}
