//! Physically clustered forward-body-bias allocation (the paper's core).
//!
//! Given a placed design abstracted as `N` rows, a bias ladder of `P`
//! voltages, a slowdown coefficient `β`, and a cluster budget `C`, find a
//! row→voltage assignment that restores every degraded timing path to the
//! nominal critical delay `Dcrit` at minimum leakage, using at most `C`
//! distinct voltages (§4):
//!
//! * [`FbbProblem`] / [`Preprocessed`] — the pre-processing phase: per-row
//!   leakage tables `L[i][j]`, the pruned critical path set Π, required
//!   speed-ups `b_k`, and delay-reduction coefficients `a[i][j][k]`;
//! * [`check_timing`] — the paper's `CheckTiming` routine (Fig. 4);
//! * [`TwoPassHeuristic`] — the linear-time greedy allocation (Fig. 5):
//!   `PassOne` finds the uniform feasible voltage `jopt`, `PassTwo` ranks
//!   rows by timing criticality and drops non-critical rows to lower
//!   voltages under the cluster budget;
//! * [`IlpAllocator`] — the exact set-partitioning ILP (Eq. 1–5) solved by
//!   [`fbb_lp`]'s branch & bound, optionally warm-started by the heuristic;
//! * [`single_bb`] — the block-level single-voltage baseline every Table 1
//!   column is measured against;
//! * [`tuning`] — the multi-block tuning architecture of Fig. 2.
//!
//! Allocation is serial: ILP constraint generation adds the Eq. 2 rows in
//! path order, PassOne scans levels lazily, as the paper's pseudocode, and
//! PassTwo ranks every cluster budget from one descent. The std-only worker
//! pool in [`fbb_sta::par`] serves Monte-Carlo sampling.
//!
//! # Example
//!
//! ```
//! use fbb_core::{FbbProblem, TwoPassHeuristic, single_bb};
//! use fbb_device::{BiasLadder, BodyBiasModel, Library};
//! use fbb_netlist::generators;
//! use fbb_placement::{Placer, PlacerOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = generators::ripple_adder("add32", 32, false)?;
//! let library = Library::date09_45nm();
//! let placement = Placer::new(PlacerOptions::with_target_rows(8)).place(&netlist, &library)?;
//! let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
//!
//! let problem = FbbProblem::new(&netlist, &placement, &chara, 0.05, 3)?;
//! let pre = problem.preprocess()?;
//! let baseline = single_bb(&pre).expect("compensable at some uniform voltage");
//! let clustered = TwoPassHeuristic.solve(&pre).expect("feasible");
//! assert!(clustered.leakage_nw <= baseline.leakage_nw);
//! assert!(clustered.savings_vs(&baseline) >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod check;
mod error;
mod heuristic;
mod ilp;
mod problem;
mod solution;
pub mod sweep;
pub mod tuning;

pub use baseline::single_bb;
pub use check::{check_timing, CheckState};
pub use error::FbbError;
pub use heuristic::{pass_one, pass_one_restricted, TwoPassHeuristic};
pub use ilp::{IlpAllocator, IlpOutcome};
pub use problem::{
    nominal_delays, FbbProblem, Granularity, PathRef, Preprocessed, PreprocessedBuilder,
};
pub use solution::ClusterSolution;
pub use sweep::{run_sweep, SweepCell, SweepGrid, SweepOptions, SweepReport, SweepStatus};
