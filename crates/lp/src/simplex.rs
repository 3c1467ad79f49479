//! Public LP entry points, backed by the sparse revised simplex.
//!
//! [`solve_lp`]/[`solve_lp_with_bounds`] construct a
//! [`crate::revised::SparseEngine`] per call and run a cold solve;
//! branch-and-bound holds one engine for the whole tree and uses
//! the warm-start path directly. Shared solver vocabulary — statuses,
//! tolerances — is defined here so the engine, presolve and
//! [`Model::audit`] agree on it by construction.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::revised::SparseEngine;
use crate::{LpError, Model};

/// Outcome class of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// No point satisfies the constraints and bounds.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The wall-clock deadline expired mid-solve (see the `deadline`
    /// parameter of [`solve_lp_with_bounds`]).
    DeadlineExceeded,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Solve outcome. `x`/`objective` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Optimal point (one entry per model variable).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

/// Optimality tolerance on reduced costs and bound violations.
pub(crate) const TOL: f64 = 1e-7;
/// Minimum usable pivot magnitude.
pub(crate) const PIVOT_TOL: f64 = 1e-9;
/// Integrality tolerance: a value within this of an integer counts as
/// integral. Branch & bound branches only on columns farther from one,
/// presolve rounds implied integer bounds with this much slack, and the
/// cut separator adds only cuts violated by more than it.
pub(crate) const INT_TOL: f64 = 1e-6;

/// Where a column currently sits: in the basis (at some row/position) or
/// resting at one of its bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarStatus {
    /// Basic, at the given basis position.
    Basic(usize),
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Free variable resting at 0.
    Free,
}

/// Solves the LP relaxation of `model` (integrality ignored).
///
/// # Errors
///
/// Returns the model's validation errors, [`LpError::IterationLimit`] on
/// numerical cycling, or [`LpError::NumericallySingular`] on factorization
/// breakdown.
pub fn solve_lp(model: &Model) -> Result<LpSolution, LpError> {
    solve_lp_with_bounds(model, None, None)
}

/// Like [`solve_lp`] but with per-variable bound overrides (used by the
/// branch-and-bound tree) and an optional wall-clock deadline, reported
/// in-band as [`LpStatus::DeadlineExceeded`].
///
/// # Errors
///
/// See [`solve_lp`].
pub fn solve_lp_with_bounds(
    model: &Model,
    bounds: Option<(&[f64], &[f64])>,
    deadline: Option<Instant>,
) -> Result<LpSolution, LpError> {
    model.validate()?;
    let (var_lower, var_upper): (Vec<f64>, Vec<f64>) = match bounds {
        Some((lo, up)) => (lo.to_vec(), up.to_vec()),
        None => (
            model.vars.iter().map(|v| v.lower).collect(),
            model.vars.iter().map(|v| v.upper).collect(),
        ),
    };
    let mut engine = SparseEngine::new(model);
    Ok(engine.solve_cold(&var_lower, &var_upper, deadline)?.solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn trivial_bounds_only() {
        // min 2x - 3y with 0<=x<=4, 1<=y<=5: x=0, y=5.
        let mut m = Model::new();
        let _x = m.add_continuous(0.0, 4.0, 2.0);
        let _y = m.add_continuous(1.0, 5.0, -3.0);
        let s = solve_lp(&m).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -15.0);
    }

    #[test]
    fn textbook_le_problem() {
        // min -(3x + 5y) s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => x=2, y=6.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -3.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -5.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0).unwrap();
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min x + 2y s.t. x + y = 10, x - y >= 2 => x=6, y=4 ... check:
        // objective 6 + 8 = 14; alternative x=10,y=0 gives 10. x-y=10 >= 2 ok!
        // So optimum is x=10, y=0, objective 10.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 10.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Ge, 2.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 10.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, 0.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_without_rows() {
        // min -x - y s.t. x + y <= 1.5, x,y in [0,1]: obj -1.5.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, -1.0);
        let y = m.add_continuous(0.0, 1.0, -1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.5).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_close(s.objective, -1.5);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -3 (i.e. x >= 3), x <= 10.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, -3.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -5 with x free: x = -5.
        let mut m = Model::new();
        let x = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, -5.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut m = Model::new();
        let x = m.add_continuous(2.0, 2.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 5.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn bound_overrides() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0).unwrap();
        let s = solve_lp_with_bounds(&m, Some((&[4.0], &[10.0])), None).unwrap();
        assert_close(s.x[0], 4.0);
        // Empty box reports infeasible.
        let s = solve_lp_with_bounds(&m, Some((&[4.0], &[3.0])), None).unwrap();
        assert_eq!(s.status, LpStatus::Infeasible);

        // An already-expired deadline aborts cleanly.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let s = solve_lp_with_bounds(&m, None, Some(past)).unwrap();
        assert_eq!(s.status, LpStatus::DeadlineExceeded);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -1.0);
        for _ in 0..6 {
            m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.0).unwrap();
        }
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 1.0).unwrap();
        m.add_constraint(vec![(y, 1.0)], Sense::Le, 1.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 1 stated twice; min x.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        let y = m.add_continuous(0.0, 1.0, 0.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0).unwrap();
        let s = solve_lp(&m).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.0);
        assert_close(s.x[1], 1.0);
    }
}
