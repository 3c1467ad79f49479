//! Layer-2 model auditor: static checks on a [`Model`].
//!
//! [`Model::audit`] inspects a model *without solving it* and reports
//! structural defects the solver would otherwise only surface as a
//! confusing `Infeasible`/`Unbounded` verdict deep in phase 1 — or worse,
//! silently grind through. The row checks run on the row analysis
//! [`presolve`](crate::presolve) owns and acts on: the same activity
//! ranges, duplicate-row key and infeasibility test. The split:
//!
//! * **errors** — the model is statically broken: a row no point can
//!   satisfy given the variable bounds, invalid bounds, a free column that
//!   makes the objective unbounded. Solving cannot succeed.
//! * **warnings** — the model solves but is suspicious: vacuous or
//!   duplicate rows, columns no row touches, fixed columns, coefficient
//!   dynamic range beyond [`DYNAMIC_RANGE_LIMIT`].
//!
//! Solves never run the audit; a MIP solve reads its model once, in
//! presolve. Reports come from the callers that ask for them: `fbb lint
//! --models` and `IlpAllocator::audit_structure` in `fbb-core`.

use std::collections::HashMap;

use crate::model::Sense;
use crate::presolve::{always_meets, cannot_meet, duplicate_of, Activity};
use crate::simplex::TOL;
use crate::Model;

/// How bad a defect is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The model cannot be solved meaningfully.
    Error,
    /// The model solves, but something is off.
    Warning,
}

/// One defect found by [`Model::audit`].
#[derive(Debug, Clone)]
pub struct ModelDefect {
    /// Defect class.
    pub severity: Severity,
    /// Stable machine-readable code (`empty_row`, `bound_infeasible_row`, …).
    pub code: &'static str,
    /// Row index for row defects, column index for column defects.
    pub index: usize,
    /// Human-readable description.
    pub message: String,
}

/// Everything [`Model::audit`] found, in deterministic order.
#[derive(Debug, Clone, Default)]
pub struct ModelAudit {
    /// All defects, errors first, then by code and index.
    pub defects: Vec<ModelDefect>,
}

/// Coefficient magnitudes spanning more than this ratio get flagged: the
/// simplex tolerances (`1e-7`/`1e-9`) stop being meaningful when row
/// coefficients differ by more than ~8 orders of magnitude.
pub const DYNAMIC_RANGE_LIMIT: f64 = 1e8;

impl ModelAudit {
    /// Defects that make the model unsolvable.
    pub fn errors(&self) -> impl Iterator<Item = &ModelDefect> {
        self.defects.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Defects the model survives.
    pub fn warnings(&self) -> impl Iterator<Item = &ModelDefect> {
        self.defects.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// No errors (warnings allowed).
    pub fn is_sound(&self) -> bool {
        self.errors().next().is_none()
    }

    /// No defects at all.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }

    /// One line per defect, errors first.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for d in &self.defects {
            let tag = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            s.push_str(&format!("{tag}[{}] #{}: {}\n", d.code, d.index, d.message));
        }
        s
    }

    fn push(&mut self, severity: Severity, code: &'static str, index: usize, message: String) {
        self.defects.push(ModelDefect { severity, code, index, message });
    }

    fn finish(mut self) -> Self {
        self.defects.sort_by_key(|d| {
            (match d.severity {
                Severity::Error => 0u8,
                Severity::Warning => 1,
            }, d.code, d.index)
        });
        self
    }
}

impl Model {
    /// Audits the model for structural defects. See the [module docs]
    /// (self) for the error/warning split. Deterministic: same model, same
    /// defect list.
    #[must_use]
    pub fn audit(&self) -> ModelAudit {
        let mut audit = ModelAudit::default();
        let referenced = self.audit_rows(&mut audit);
        self.audit_columns(&referenced, &mut audit);
        self.audit_dynamic_range(&mut audit);
        audit.finish()
    }

    /// Column checks; `referenced[j]` says whether a row couples column `j`
    /// with a nonzero coefficient.
    fn audit_columns(&self, referenced: &[bool], audit: &mut ModelAudit) {
        for (j, v) in self.vars.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() || !v.objective.is_finite() {
                audit.push(
                    Severity::Error,
                    "invalid_column",
                    j,
                    format!(
                        "column {j} has non-finite data (bounds [{}, {}], objective {})",
                        v.lower, v.upper, v.objective
                    ),
                );
                continue;
            }
            if v.lower > v.upper {
                audit.push(
                    Severity::Error,
                    "inverted_bounds",
                    j,
                    format!("column {j} bounds are inverted: [{}, {}]", v.lower, v.upper),
                );
                continue;
            }
            if !referenced[j] {
                let unbounded = (v.objective < 0.0 && v.upper == f64::INFINITY)
                    || (v.objective > 0.0 && v.lower == f64::NEG_INFINITY);
                if unbounded {
                    audit.push(
                        Severity::Error,
                        "unbounded_free_column",
                        j,
                        format!(
                            "column {j} appears in no row and its objective {} can decrease \
                             without limit",
                            v.objective
                        ),
                    );
                } else {
                    audit.push(
                        Severity::Warning,
                        "free_column",
                        j,
                        format!("column {j} appears in no constraint row"),
                    );
                }
            } else if crate::approx::near(v.lower, v.upper, 0.0) {
                audit.push(
                    Severity::Warning,
                    "fixed_column",
                    j,
                    format!("column {j} is fixed at {} by its bounds", v.lower),
                );
            }
        }
    }

    /// Row checks; returns which columns the rows reference (a zero
    /// coefficient does not couple a column to its row).
    fn audit_rows(&self, audit: &mut ModelAudit) -> Vec<bool> {
        let lower: Vec<f64> = self.vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = self.vars.iter().map(|v| v.upper).collect();
        let mut referenced = vec![false; self.vars.len()];
        let mut seen = HashMap::new();
        for (i, c) in self.constraints.iter().enumerate() {
            let live: Vec<(usize, f64)> = c
                .terms
                .iter()
                .copied()
                .filter(|&(_, a)| crate::approx::is_nonzero(a))
                .collect();
            for &(v, _) in &live {
                referenced[v] = true;
            }
            if live.is_empty() {
                if cannot_meet(c.sense, 0.0, 0.0, c.rhs) {
                    audit.push(
                        Severity::Error,
                        "empty_row_infeasible",
                        i,
                        format!(
                            "row {i} has no nonzero coefficients but requires {}",
                            requirement(c.sense, c.rhs)
                        ),
                    );
                } else {
                    audit.push(
                        Severity::Warning,
                        "empty_row",
                        i,
                        format!("row {i} has no nonzero coefficients (vacuously satisfied)"),
                    );
                }
                continue;
            }

            if let Some(first) = duplicate_of(&mut seen, i, c.sense, c.rhs, &live) {
                audit.push(
                    Severity::Warning,
                    "duplicate_row",
                    i,
                    format!("row {i} duplicates row {first}"),
                );
            }

            let act = Activity::of(&live, &lower, &upper);
            let (lo, hi) = (act.row_lo(), act.row_hi());
            if cannot_meet(c.sense, lo, hi, c.rhs) {
                audit.push(
                    Severity::Error,
                    "bound_infeasible_row",
                    i,
                    format!(
                        "row {i} activity range [{lo}, {hi}] cannot satisfy {}",
                        requirement(c.sense, c.rhs)
                    ),
                );
            } else if always_meets(c.sense, lo, hi, c.rhs, TOL) {
                audit.push(
                    Severity::Warning,
                    "redundant_row",
                    i,
                    format!(
                        "row {i} is satisfied by every point in the variable boxes \
                         (activity range [{lo}, {hi}], requirement {})",
                        requirement(c.sense, c.rhs)
                    ),
                );
            }
        }
        referenced
    }

    fn audit_dynamic_range(&self, audit: &mut ModelAudit) {
        let mut min_mag = f64::INFINITY;
        let mut max_mag = 0.0f64;
        let mut min_at = 0;
        let mut max_at = 0;
        for (i, c) in self.constraints.iter().enumerate() {
            for &(_, a) in &c.terms {
                let mag = a.abs();
                if crate::approx::is_zero(mag) {
                    continue;
                }
                if mag < min_mag {
                    min_mag = mag;
                    min_at = i;
                }
                if mag > max_mag {
                    max_mag = mag;
                    max_at = i;
                }
            }
        }
        if max_mag > 0.0 && min_mag.is_finite() && max_mag / min_mag > DYNAMIC_RANGE_LIMIT {
            audit.push(
                Severity::Warning,
                "dynamic_range",
                max_at,
                format!(
                    "coefficient magnitudes span [{min_mag:e}, {max_mag:e}] \
                     (rows {min_at} and {max_at}): ratio exceeds {DYNAMIC_RANGE_LIMIT:e} \
                     and will erode simplex tolerances"
                ),
            );
        }
    }
}

/// `sense rhs` as the defect messages print it, e.g. `<= 4`.
fn requirement(sense: Sense, rhs: f64) -> String {
    let op = match sense {
        Sense::Le => "<=",
        Sense::Eq => "=",
        Sense::Ge => ">=",
    };
    format!("{op} {rhs}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(audit: &ModelAudit) -> Vec<&'static str> {
        audit.defects.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_model_audits_clean() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        let audit = m.audit();
        assert!(audit.is_clean(), "{}", audit.summary());
    }

    #[test]
    fn empty_row_severity_depends_on_rhs() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 0.5).unwrap();
        m.add_constraint(vec![], Sense::Le, 0.0).unwrap(); // 0 <= 0: vacuous
        m.add_constraint(vec![], Sense::Ge, 2.0).unwrap(); // 0 >= 2: impossible
        m.add_constraint(vec![(x, 0.0)], Sense::Eq, 1.0).unwrap(); // 0 = 1: impossible
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["empty_row_infeasible", "empty_row_infeasible", "empty_row"]);
        assert!(!audit.is_sound());
    }

    #[test]
    fn duplicate_rows_warn_but_stay_sound() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 5.0, 1.0);
        let y = m.add_continuous(0.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0).unwrap();
        // Same terms, different rhs: not a duplicate.
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 5.0).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["duplicate_row"]);
        assert_eq!(audit.defects[0].index, 1);
        assert!(audit.is_sound());
    }

    #[test]
    fn bound_infeasible_row_is_an_error() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        // x + y >= 3 with x,y in [0,1]: max activity is 2.
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["bound_infeasible_row"]);
        assert!(!audit.is_sound());
    }

    #[test]
    fn redundant_row_is_a_warning() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 2.0).unwrap(); // x <= 2 always holds
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["redundant_row"]);
        assert!(audit.is_sound());
    }

    #[test]
    fn free_and_fixed_columns_are_flagged() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        let free = m.add_continuous(0.0, 1.0, 0.0);
        let fixed = m.add_continuous(2.0, 2.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (fixed, 1.0)], Sense::Le, 2.5).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["fixed_column", "free_column"]);
        assert_eq!(audit.defects.iter().map(|d| d.index).collect::<Vec<_>>(), vec![fixed, free]);
        assert!(audit.is_sound());
    }

    #[test]
    fn unreferenced_column_that_unbounds_the_objective_is_an_error() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        let y = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(y, 1.0)], Sense::Ge, 1.0).unwrap();
        let audit = m.audit();
        assert!(codes(&audit).contains(&"unbounded_free_column"));
        assert_eq!(audit.errors().next().map(|d| d.index), Some(x));
    }

    #[test]
    fn inverted_bounds_are_an_error() {
        let mut m = Model::new();
        m.add_continuous(3.0, 1.0, 0.0);
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["inverted_bounds"]);
    }

    #[test]
    fn wide_dynamic_range_warns() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        let y = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1e-6)], Sense::Le, 1.0).unwrap();
        m.add_constraint(vec![(y, 1e6)], Sense::Le, 1.0).unwrap();
        let audit = m.audit();
        assert!(codes(&audit).contains(&"dynamic_range"), "{}", audit.summary());
    }

    #[test]
    fn zero_coefficient_rows_do_not_hide_infeasibility() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        // The zero term is dead weight; the live part (0 >= 1) is impossible,
        // and the zero coefficient also leaves `x` effectively unreferenced.
        m.add_constraint(vec![(x, 0.0)], Sense::Ge, 1.0).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["empty_row_infeasible", "free_column"]);
    }
}
