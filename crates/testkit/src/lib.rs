//! Independent oracles and a cross-engine differential harness for the
//! clustered-FBB stack.
//!
//! Every engine in this workspace was, until this crate, validated only
//! against its own invariants: the simplex proptests restate simplex
//! algebra, the STA proptests restate STA recurrences. A refactor that
//! breaks an engine *and* its invariant in the same way sails through. This
//! crate closes that hole with three layers:
//!
//! 1. **Reference oracles** ([`oracle`]) — a dense-matrix textbook simplex,
//!    a brute-force enumerator over all small-instance cluster assignments,
//!    and a naive queue-based topological STA. Each is written for clarity,
//!    not speed, and deliberately shares no code with `fbb-lp` / `fbb-core`
//!    / `fbb-sta` (the naive STA is built directly on the `fbb-netlist`
//!    public API; the enumerator re-derives feasibility and leakage from the
//!    raw [`fbb_core::Preprocessed`] tables).
//! 2. **Differential harness** ([`DiffRunner`]) — generates seeded random
//!    instances ([`gen`]) and asserts, case by case, that the production
//!    engines agree with the oracles: simplex/B&B objectives match the dense
//!    simplex within tolerance, ILP solutions are optimal per the
//!    enumerator, greedy solutions are feasible and within a bounded leakage
//!    gap of the ILP, and `analyze` stays bit-identical to the naive STA
//!    across random delay flips.
//! 3. **Deterministic fault injection** ([`FaultPlan`]) — seeded from the
//!    case, no wall-clock in plan construction — forces the degraded exits
//!    (deadline, iteration limit, node limit, zero-row and single-row
//!    layouts, duplicated/degenerate constraints) and asserts every engine
//!    reports a correctly-labeled non-`Optimal` outcome instead of a wrong
//!    answer.
//!
//! The harness runs as bounded `cargo test` suites and as the long-soak
//! `fbb difftest --cases N --seed S` CLI subcommand; per-layer mismatch
//! counters flow through [`fbb_telemetry`] (`difftest_*` keys).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
mod fault;
pub mod gen;
pub mod oracle;

pub use diff::{DiffConfig, DiffReport, DiffRunner};
pub use fault::{Fault, FaultPlan};
