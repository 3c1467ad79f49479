//! A from-scratch linear-programming and mixed-integer solver.
//!
//! The paper solves its optimal FBB allocation with `lp_solve`. No
//! offline-usable ILP crate exists in this workspace's dependency budget
//! (the repro notes call the Rust ILP/EDA ecosystem "thin"), so this crate
//! implements the required solver stack:
//!
//! * [`Model`] — variables with bounds/integrality, linear constraints
//!   (`<=`, `=`, `>=`), and a linear objective (minimization);
//! * [`solve_lp`] — a **sparse revised bounded-variable simplex** (CSC
//!   matrix, LU-factorized basis with eta-file updates and periodic
//!   refactorization, partial pricing with a Bland anti-cycling fallback),
//!   the crate's one simplex engine: a cold solve starts dual feasible from
//!   the slack basis when every costed column is bounded on its cheap side,
//!   and runs two-phase primal from the all-artificial basis otherwise;
//! * [`solve_mip`] — **best-first branch & bound** with branching
//!   priorities, incumbent seeding, a rounding probe, node/time limits
//!   (time-limited solves report the residual MIP gap, which is how the
//!   harness reproduces the paper's "ILP did not converge" entries), and
//!   dual-simplex warm starts: each child node re-optimizes from its
//!   parent's basis instead of solving from scratch, and once
//!   there is an incumbent it stops as soon as its bound passes it, so a
//!   dominated node closes without finishing its relaxation, and
//!   reduced-cost fixing pins the integer columns whose move off their
//!   bound the incumbent already rules out. On top of
//!   the tree sit a transforming [`presolve`](mod@presolve) with a
//!   bit-exact [`PostsolveMap`], root cutting planes from the FBB ILP
//!   structure ([`cuts`]), and pseudocost branching seeded by strong-branch
//!   probes — all on by default and individually switchable in
//!   [`MipOptions`].
//!
//! # Example
//!
//! ```
//! use fbb_lp::{Model, Sense, solve_mip, MipOptions};
//!
//! # fn main() -> Result<(), fbb_lp::LpError> {
//! // maximize-style knapsack, stated as minimization of the negated value:
//! // min -3a - 4b - 2c  s.t.  2a + 3b + c <= 4, binaries.
//! let mut m = Model::new();
//! let a = m.add_binary(-3.0);
//! let b = m.add_binary(-4.0);
//! let c = m.add_binary(-2.0);
//! m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 1.0)], Sense::Le, 4.0)?;
//! let sol = solve_mip(&m, &MipOptions::default(), None)?;
//! assert_eq!(sol.objective.round(), -6.0); // b and c, or a and c
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The fault hooks exist to corrupt solver behavior on purpose (differential
// testing); a build that claims to be release-safe must not link them.
#[cfg(all(feature = "fault-inject", feature = "release-safe"))]
compile_error!(
    "feature `fault-inject` (test-only solver corruption hooks) cannot be \
     combined with `release-safe`; drop one of the two features"
);

pub mod approx;
mod audit;
mod bnb;
mod branch;
pub mod cuts;
pub mod deadline;
mod error;
mod factor;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod model;
pub mod presolve;
mod revised;
mod simplex;
mod sparse;

pub use audit::{ModelAudit, ModelDefect, Severity, DYNAMIC_RANGE_LIMIT};
pub use bnb::{solve_mip, MipOptions, MipSolution, MipStatus};
pub use cuts::{Cut, CutKind, StructureHints};
pub use presolve::{PostsolveMap, Presolved, PresolveStats};
pub use error::LpError;
pub use model::{Model, RowView, Sense, VarKind};
pub use simplex::{solve_lp, solve_lp_with_bounds, LpSolution, LpStatus};
