//! Static timing analysis for gate-level netlists.
//!
//! The paper's pre-processing extracts "the longest timing path through each
//! cell in the design" with a standard STA engine (PrimeTime), prunes the
//! result to a unique path set Π, and uses those paths as the ILP's timing
//! constraints (§4.1, following Ramalingam et al.'s heuristic for avoiding
//! full path enumeration). This crate reimplements that capability:
//!
//! * [`TimingGraph`] — levelized combinational timing graph with DFF
//!   boundaries (Q pins are startpoints with clk→Q delay, D pins endpoints);
//! * [`TimingGraph::analyze`] — arrival/tail propagation for an arbitrary
//!   per-gate delay assignment, yielding `Dcrit` and per-gate slack;
//! * [`TimingAnalysis::longest_path_through`] — the materialized worst path
//!   through one gate;
//! * [`TimingAnalysis::critical_path_set`] — the deduplicated path set Π.
//!
//! [`TimingGraph::analyze`] is the crate's one deterministic timing engine,
//! and no caller needs a cone-limited re-timer: as in the paper, the
//! allocators re-check timing on Π's path table (`fbb_core::CheckState`),
//! and Monte-Carlo sampling changes every gate of every die, so each die
//! costs one full pass. Beside it sit [`ssta`] (first-order statistical
//! timing with Clark's max) and [`par`], a std-only scoped-thread worker
//! pool ([`par::parallel_gen`]) used for ILP constraint generation and
//! Monte Carlo sampling.
//!
//! # Example
//!
//! ```
//! use fbb_netlist::generators;
//! use fbb_sta::TimingGraph;
//!
//! # fn main() -> Result<(), fbb_netlist::NetlistError> {
//! let nl = generators::ripple_adder("add8", 8, false).expect("valid generator");
//! let graph = TimingGraph::new(&nl)?;
//! let delays: Vec<f64> = nl.gates().iter().map(|_| 10.0).collect();
//! let analysis = graph.analyze(&delays);
//! assert!(analysis.dcrit_ps() > 0.0);
//! let paths = analysis.critical_path_set();
//! assert!(!paths.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod graph;
pub mod par;
mod path;
pub mod ssta;

pub use analysis::TimingAnalysis;
pub use graph::TimingGraph;
pub use path::TimingPath;
