//! Model-building API.

use serde::{Deserialize, Serialize};

use crate::LpError;

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VarKind {
    /// Real-valued within its bounds.
    #[default]
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// `terms <= rhs`
    Le,
    /// `terms = rhs`
    Eq,
    /// `terms >= rhs`
    Ge,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Variable {
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
    pub kind: VarKind,
    /// Branching priority: higher branches first in the MIP search.
    pub priority: i32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// Read-only view of one constraint row (see [`Model::row`]).
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    /// `(variable, coefficient)` pairs with duplicates already accumulated.
    pub terms: &'a [(usize, f64)],
    /// Constraint sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear (mixed-integer) minimization model.
///
/// ```
/// use fbb_lp::{Model, Sense, solve_lp};
///
/// # fn main() -> Result<(), fbb_lp::LpError> {
/// // min x + y  s.t.  x + 2y >= 3,  0 <= x,y <= 10
/// let mut m = Model::new();
/// let x = m.add_continuous(0.0, 10.0, 1.0);
/// let y = m.add_continuous(0.0, 10.0, 1.0);
/// m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Ge, 3.0)?;
/// let sol = solve_lp(&m)?;
/// assert!((sol.objective - 1.5).abs() < 1e-6); // y = 1.5
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a continuous variable with the given bounds and objective
    /// coefficient; returns its index. Bounds may be infinite.
    pub fn add_continuous(&mut self, lower: f64, upper: f64, objective: f64) -> usize {
        self.vars.push(Variable {
            lower,
            upper,
            objective,
            kind: VarKind::Continuous,
            priority: 0,
        });
        self.vars.len() - 1
    }

    /// Adds an integer variable with the given bounds.
    pub fn add_integer(&mut self, lower: f64, upper: f64, objective: f64) -> usize {
        self.vars.push(Variable { lower, upper, objective, kind: VarKind::Integer, priority: 0 });
        self.vars.len() - 1
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, objective: f64) -> usize {
        self.add_integer(0.0, 1.0, objective)
    }

    /// Sets the branching priority of a variable (higher branches first).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_branch_priority(&mut self, var: usize, priority: i32) {
        self.vars[var].priority = priority;
    }

    /// Adds a linear constraint `Σ coeff·var (sense) rhs`.
    ///
    /// Duplicate variable entries are accumulated. Rows whose indices are
    /// already strictly increasing — the natural output of generators that
    /// walk variables in order, like the FBB path constraints — cannot
    /// contain duplicates and skip the quadratic dedup scan entirely.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownVariable`] for out-of-range indices and
    /// [`LpError::NonFiniteData`] for NaN/infinite coefficients or rhs.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteData(format!("rhs {rhs}")));
        }
        for &(v, c) in &terms {
            if v >= self.vars.len() {
                return Err(LpError::UnknownVariable(v));
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteData(format!("coefficient {c} on variable {v}")));
            }
        }
        let acc = if terms.windows(2).all(|w| w[0].0 < w[1].0) {
            terms
        } else {
            let mut acc: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
            for (v, c) in terms {
                match acc.iter_mut().find(|(w, _)| *w == v) {
                    Some((_, existing)) => *existing += c,
                    None => acc.push((v, c)),
                }
            }
            acc
        };
        self.constraints.push(Constraint { terms: acc, sense, rhs });
        Ok(self.constraints.len() - 1)
    }

    /// Replaces the right-hand side of constraint row `row` in place.
    ///
    /// This is the grid-sweep patch point: the FBB budget row `Σy ≤ C` is
    /// the only part of the ILP that depends on the cluster budget, so a
    /// sweep over C re-uses one built model and patches this single scalar.
    /// A patched model compares equal (`PartialEq`) to one built fresh at
    /// the new RHS, which is what keeps warm sweep cells bit-identical to
    /// cold ones.
    ///
    /// # Errors
    ///
    /// [`LpError::UnknownVariable`] (carrying the row index) when `row` is
    /// out of range; [`LpError::NonFiniteData`] for a non-finite `rhs`.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteData(format!("rhs {rhs} for row {row}")));
        }
        match self.constraints.get_mut(row) {
            Some(c) => {
                c.rhs = rhs;
                Ok(())
            }
            None => Err(LpError::UnknownVariable(row)),
        }
    }

    /// Read-only view of constraint row `i`, or `None` out of range. Model
    /// generators use this (and [`Model::rows`]) to audit the structure of
    /// what they emitted — e.g. the FBB allocator checking its one-hot rows.
    pub fn row(&self, i: usize) -> Option<RowView<'_>> {
        self.constraints
            .get(i)
            .map(|c| RowView { terms: &c.terms, sense: c.sense, rhs: c.rhs })
    }

    /// Read-only views of all constraint rows, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        self.constraints
            .iter()
            .map(|c| RowView { terms: &c.terms, sense: c.sense, rhs: c.rhs })
    }

    /// `(lower, upper)` bounds of variable `j`, or `None` out of range.
    pub fn var_bounds(&self, j: usize) -> Option<(f64, f64)> {
        self.vars.get(j).map(|v| (v.lower, v.upper))
    }

    /// Integrality class of variable `j`, or `None` out of range.
    pub fn var_kind(&self, j: usize) -> Option<VarKind> {
        self.vars.get(j).map(|v| v.kind)
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Whether any variable is integer.
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Objective value of a point (no feasibility check).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.objective * xi).sum()
    }

    /// Checks a point against all constraints and bounds within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lower - tol || xi > v.upper + tol {
                return false;
            }
            if v.kind == VarKind::Integer && (xi - xi.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Validates variable bounds.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvertedBounds`] or [`LpError::NonFiniteData`] (for
    /// NaN bounds or objective coefficients).
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(LpError::NonFiniteData(format!("bounds of variable {i}")));
            }
            if !v.objective.is_finite() {
                return Err(LpError::NonFiniteData(format!("objective of variable {i}")));
            }
            if v.lower > v.upper {
                return Err(LpError::InvertedBounds { var: i, lower: v.lower, upper: v.upper });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_terms_accumulate() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (x, 2.0)], Sense::Le, 3.0).unwrap();
        assert_eq!(m.constraints[0].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn set_rhs_patches_one_row_and_matches_a_fresh_build() {
        let build = |budget: f64| {
            let mut m = Model::new();
            let x = m.add_binary(1.0);
            let y = m.add_binary(2.0);
            m.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0).unwrap();
            m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, budget).unwrap();
            m
        };
        let mut patched = build(2.0);
        patched.set_rhs(1, 1.0).unwrap();
        assert_eq!(patched, build(1.0));
        assert_eq!(patched.row(0).unwrap().rhs, 1.0, "other rows untouched");

        assert!(matches!(patched.set_rhs(9, 1.0), Err(LpError::UnknownVariable(9))));
        assert!(matches!(patched.set_rhs(1, f64::NAN), Err(LpError::NonFiniteData(_))));
    }

    #[test]
    fn sorted_and_unsorted_rows_store_the_same_terms() {
        let mut m = Model::new();
        let vars: Vec<usize> = (0..4).map(|_| m.add_continuous(0.0, 1.0, 0.0)).collect();
        // Sorted input takes the fast path; the shuffled duplicate-free
        // input goes through dedup. Same multiset of terms either way.
        m.add_constraint(vars.iter().map(|&v| (v, 1.5)).collect(), Sense::Le, 1.0).unwrap();
        m.add_constraint(vec![(vars[2], 1.5), (vars[0], 1.5), (vars[3], 1.5), (vars[1], 1.5)], Sense::Le, 1.0)
            .unwrap();
        let mut slow = m.constraints[1].terms.clone();
        slow.sort_by_key(|&(v, _)| v);
        assert_eq!(m.constraints[0].terms, slow);
    }

    #[test]
    fn rejects_unknown_variable() {
        let mut m = Model::new();
        assert!(matches!(
            m.add_constraint(vec![(0, 1.0)], Sense::Le, 1.0),
            Err(LpError::UnknownVariable(0))
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        assert!(m.add_constraint(vec![(x, f64::NAN)], Sense::Le, 1.0).is_err());
        assert!(m.add_constraint(vec![(x, 1.0)], Sense::Le, f64::INFINITY).is_err());
    }

    #[test]
    fn validate_catches_inverted_bounds() {
        let mut m = Model::new();
        m.add_continuous(2.0, 1.0, 0.0);
        assert!(matches!(m.validate(), Err(LpError::InvertedBounds { .. })));
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_continuous(0.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 2.0).unwrap();
        assert!(m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 0.5], 1e-9)); // constraint violated
        assert!(!m.is_feasible(&[0.5, 2.0], 1e-9)); // integrality violated
        assert!(!m.is_feasible(&[1.0, 9.0], 1e-9)); // bound violated
        assert!((m.objective_value(&[1.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
