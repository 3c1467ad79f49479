//! Transforming presolve with a bit-exact postsolve map (DESIGN.md §5j).
//!
//! This module owns the crate's row analysis — activity ranges over the
//! variable boxes (`Activity`), the bit-exact duplicate-row key
//! (`duplicate_of`) and the static feasibility tests (`cannot_meet`,
//! `always_meets`) — and turns its findings into reductions that shrink
//! the model handed to branch & bound. [`Model::audit`] reports the same
//! findings on the untouched model without reducing anything:
//!
//! * **column elimination** — columns pinned by their bounds (originally or
//!   by tightening below) are substituted into every row's right-hand side;
//!   columns no live row references are pinned at their objective-optimal
//!   finite bound (a free column whose objective-improving bound is
//!   infinite is *kept* so the tree reports `Unbounded` honestly);
//! * **row elimination** — rows every point of the variable boxes already
//!   satisfies *exactly* (no tolerance: dropping must not admit a single
//!   near-violating point), and bitwise-duplicate rows after substitution;
//! * **bound tightening** — activity-range propagation of each row onto its
//!   integer columns (the paper's Eq. 4 linking rows are the motivating
//!   case: a path row that cannot be satisfied without level `j` forces
//!   `x_{ij} = 1`, which the Eq. 3 one-hot row then cascades into fixing
//!   the rest of the row's levels at 0);
//! * **static infeasibility** — a row whose activity range cannot meet its
//!   rhs ends the solve before a single simplex iteration.
//!
//! Every reduction is recorded in a [`PostsolveMap`] that reconstructs the
//! full-space point from a reduced-space one. Reconstruction is exact by
//! construction: kept columns copy their solved value bit-for-bit and
//! eliminated columns take the pinned value that was folded into the rhs,
//! so `solve_mip` with presolve on reports the same objective bits as the
//! untransformed solve (pinned by `crates/testkit/tests/
//! presolve_equivalence.rs`).
//!
//! Only models with integer columns are presolved (`solve_mip` gates on
//! [`Model::has_integers`]): pure LPs go to the simplex untouched, which
//! keeps the LP layer of the differential harness bit-identical by
//! construction.

use std::collections::hash_map::{Entry, HashMap};

use crate::model::{Sense, VarKind};
use crate::simplex::{INT_TOL, TOL};
use crate::Model;

/// Fixpoint cap: tightening passes over the row set. Cluster models
/// converge in 2–3 passes; the cap only guards degenerate chains.
const MAX_PASSES: usize = 10;

/// Tallies of what one [`presolve`] call reduced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Columns substituted out (fixed by bounds, by tightening, or free).
    pub cols_eliminated: usize,
    /// Rows dropped as exactly-redundant or bitwise-duplicate.
    pub rows_dropped: usize,
    /// Integer bounds tightened by activity-range propagation.
    pub bounds_tightened: usize,
    /// Tightening passes run before the fixpoint (or the cap).
    pub passes: usize,
}

/// Where an original column went.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ColFate {
    /// Survives as reduced column `r`.
    Kept(usize),
    /// Substituted out at this value.
    Fixed(f64),
}

/// Records every reduction of one [`presolve`] call and reconstructs
/// full-space points from reduced-space ones.
#[derive(Debug, Clone, PartialEq)]
pub struct PostsolveMap {
    fate: Vec<ColFate>,
    /// Reduced column -> original column (strictly increasing).
    kept_cols: Vec<usize>,
    /// Reduced row -> original row (strictly increasing).
    kept_rows: Vec<usize>,
    /// Objective contribution of the eliminated columns; add to a reduced
    /// objective to get a full-space *bound* (the final objective is
    /// instead recomputed from the restored point, in the original model's
    /// summation order, for bit-exactness).
    fixed_cost: f64,
    stats: PresolveStats,
}

impl PostsolveMap {
    /// Number of columns in the reduced model.
    pub fn reduced_cols(&self) -> usize {
        self.kept_cols.len()
    }

    /// Objective contribution of the eliminated columns.
    pub fn fixed_cost(&self) -> f64 {
        self.fixed_cost
    }

    /// Reduction tallies.
    pub fn stats(&self) -> PresolveStats {
        self.stats
    }

    /// `true` when presolve changed nothing: every column and row survives
    /// and [`PostsolveMap::restore`] is a bit-transparent copy.
    pub fn is_identity(&self) -> bool {
        self.stats == PresolveStats { passes: self.stats.passes, ..PresolveStats::default() }
    }

    /// Reconstructs the full-space point from a reduced-space one: kept
    /// columns copy their solved value bit-for-bit, eliminated columns take
    /// their pinned value.
    ///
    /// # Panics
    ///
    /// Panics if `reduced_x` is shorter than the reduced column count.
    #[must_use]
    pub fn restore(&self, reduced_x: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.fate.len()];
        for (orig, fate) in self.fate.iter().enumerate() {
            match *fate {
                ColFate::Fixed(v) => full[orig] = v,
                ColFate::Kept(r) => full[orig] = reduced_x[r],
            }
        }
        // Planted defect (difftest only): transpose the first two surviving
        // entries of the column-elimination map, corrupting which original
        // column each reduced value lands in. The independent cluster
        // oracle must flag the decoded assignment — see `fbb difftest
        // --inject-postsolve-bug` and the FaultPlan postsolve checker.
        #[cfg(feature = "fault-inject")]
        if crate::fault::swap_postsolve_entries() && self.kept_cols.len() >= 2 {
            full.swap(self.kept_cols[0], self.kept_cols[1]);
        }
        full
    }

    /// Projects a full-space point onto the kept columns (incumbent
    /// seeding).
    #[must_use]
    pub fn project(&self, full_x: &[f64]) -> Vec<f64> {
        self.kept_cols.iter().map(|&o| full_x[o]).collect()
    }

    /// Reduced index of an original row, or `None` if it was dropped.
    pub(crate) fn reduced_row_of(&self, original: usize) -> Option<usize> {
        self.kept_rows.binary_search(&original).ok()
    }

    /// Translates structure hints stated in original indices into the
    /// reduced model's indices, dropping entries presolve eliminated.
    pub(crate) fn translate_hints(
        &self,
        hints: &crate::cuts::StructureHints,
    ) -> crate::cuts::StructureHints {
        crate::cuts::StructureHints {
            linking_rows: hints
                .linking_rows
                .iter()
                .filter_map(|&r| self.reduced_row_of(r))
                .collect(),
            budget_row: hints.budget_row.and_then(|r| self.reduced_row_of(r)),
        }
    }
}

/// Outcome of [`presolve`].
#[derive(Debug, Clone, PartialEq)]
pub enum Presolved {
    /// The (possibly unchanged) reduced model plus its postsolve map.
    Reduced {
        /// Model over the kept columns and rows, with folded rhs and
        /// tightened bounds.
        model: Model,
        /// Reconstruction map back to the original space.
        map: PostsolveMap,
    },
    /// A row (or an integer bound conflict) is statically unsatisfiable.
    Infeasible,
}

/// Per-row activity bookkeeping that stays exact under infinite bounds:
/// `lo`/`hi` sum only the finite contributions and the counters say how
/// many contributions were infinite.
pub(crate) struct Activity {
    lo: f64,
    hi: f64,
    inf_lo: usize,
    inf_hi: usize,
}

impl Activity {
    /// Activity of `terms` (nonzero coefficients) over the boxes.
    pub(crate) fn of(terms: &[(usize, f64)], lower: &[f64], upper: &[f64]) -> Activity {
        let mut act = Activity { lo: 0.0, hi: 0.0, inf_lo: 0, inf_hi: 0 };
        for &(v, a) in terms {
            let (clo, chi) = contrib(a, lower[v], upper[v]);
            if clo.is_infinite() {
                act.inf_lo += 1;
            } else {
                act.lo += clo;
            }
            if chi.is_infinite() {
                act.inf_hi += 1;
            } else {
                act.hi += chi;
            }
        }
        act
    }

    /// Minimum activity of the row.
    pub(crate) fn row_lo(&self) -> f64 {
        if self.inf_lo > 0 {
            f64::NEG_INFINITY
        } else {
            self.lo
        }
    }

    /// Maximum activity of the row.
    pub(crate) fn row_hi(&self) -> f64 {
        if self.inf_hi > 0 {
            f64::INFINITY
        } else {
            self.hi
        }
    }

    /// Minimum activity of the row *excluding* the term with contribution
    /// bounds `(clo, _)`; `None` when it is still unbounded below.
    fn others_lo(&self, clo: f64) -> Option<f64> {
        match (self.inf_lo, clo.is_infinite()) {
            (0, _) => Some(self.lo - clo),
            (1, true) => Some(self.lo),
            _ => None,
        }
    }

    /// Maximum activity of the row excluding the given term.
    fn others_hi(&self, chi: f64) -> Option<f64> {
        match (self.inf_hi, chi.is_infinite()) {
            (0, _) => Some(self.hi - chi),
            (1, true) => Some(self.hi),
            _ => None,
        }
    }
}

/// `(min, max)` contribution of term `a·x` over `x ∈ [lo, up]`; `a` is
/// nonzero so no `0·∞` NaN can appear.
fn contrib(a: f64, lo: f64, up: f64) -> (f64, f64) {
    if a > 0.0 {
        (a * lo, a * up)
    } else {
        (a * up, a * lo)
    }
}

/// The one static infeasibility test: no activity in `[lo, hi]` meets
/// `sense rhs`, even with the solver's feasibility slack `TOL`.
pub(crate) fn cannot_meet(sense: Sense, lo: f64, hi: f64, rhs: f64) -> bool {
    match sense {
        Sense::Le => lo > rhs + TOL,
        Sense::Ge => hi < rhs - TOL,
        Sense::Eq => lo > rhs + TOL || hi < rhs - TOL,
    }
}

/// Every activity in `[lo, hi]` meets `sense rhs` within `slack`. Presolve
/// drops a row only on exact redundancy (`slack = 0`); the audit warns
/// within `TOL`.
pub(crate) fn always_meets(sense: Sense, lo: f64, hi: f64, rhs: f64, slack: f64) -> bool {
    match sense {
        Sense::Le => hi <= rhs + slack,
        Sense::Ge => lo >= rhs - slack,
        Sense::Eq => lo >= rhs - slack && hi <= rhs + slack,
    }
}

/// Bit-exact row identity: sense, rhs bits and the sorted `(column,
/// coefficient bits)` terms.
type RowKey = (u8, u64, Vec<(usize, u64)>);

/// The earlier row that row `i` bitwise duplicates, if any; otherwise
/// records `i` as the first holder of its key in `seen`.
pub(crate) fn duplicate_of(
    seen: &mut HashMap<RowKey, usize>,
    i: usize,
    sense: Sense,
    rhs: f64,
    terms: &[(usize, f64)],
) -> Option<usize> {
    let mut key_terms: Vec<(usize, u64)> = terms.iter().map(|&(v, a)| (v, a.to_bits())).collect();
    key_terms.sort_unstable();
    match seen.entry((sense as u8, rhs.to_bits(), key_terms)) {
        Entry::Occupied(first) => Some(*first.get()),
        Entry::Vacant(slot) => {
            slot.insert(i);
            None
        }
    }
}

/// Runs the fixpoint reduction loop on `model` and builds the reduced
/// model plus its [`PostsolveMap`].
///
/// The input model must already be validated (callers in `bnb` do);
/// inverted *integer* bounds produced by rounding fractional bounds are
/// reported as [`Presolved::Infeasible`], exactly as the tree would have.
pub fn presolve(model: &Model) -> Presolved {
    let m = model.constraint_count();
    let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
    let mut dropped = vec![false; m];
    let mut stats = PresolveStats::default();

    // Integer bounds round inward once up front: a fractional bound on an
    // integer column admits no extra integer point, and the rounded box is
    // what the implied-bound arithmetic below assumes.
    for (j, v) in model.vars.iter().enumerate() {
        if v.kind != VarKind::Integer {
            continue;
        }
        let rl = (lower[j] - INT_TOL).ceil();
        if rl > lower[j] {
            lower[j] = rl;
            stats.bounds_tightened += 1;
        }
        let ru = (upper[j] + INT_TOL).floor();
        if ru < upper[j] {
            upper[j] = ru;
            stats.bounds_tightened += 1;
        }
        if lower[j] > upper[j] {
            return Presolved::Infeasible;
        }
    }

    for pass in 0..MAX_PASSES {
        stats.passes = pass + 1;
        let mut changed = false;
        for (i, c) in model.constraints.iter().enumerate() {
            if dropped[i] {
                continue;
            }
            let live: Vec<(usize, f64)> = c
                .terms
                .iter()
                .copied()
                .filter(|&(_, a)| crate::approx::is_nonzero(a))
                .collect();
            let act = Activity::of(&live, &lower, &upper);
            let (lo, hi) = (act.row_lo(), act.row_hi());
            if cannot_meet(c.sense, lo, hi, c.rhs) {
                return Presolved::Infeasible;
            }
            // Exact redundancy only — no tolerance. Dropping a row that
            // held merely within `TOL` would admit near-violating points
            // the untransformed solve rejects.
            if always_meets(c.sense, lo, hi, c.rhs, 0.0) {
                dropped[i] = true;
                stats.rows_dropped += 1;
                changed = true;
                continue;
            }
            // Implied-bound propagation onto the row's integer columns.
            // Stale `act` after an in-row update only *weakens* later
            // implications (a raised lower bound raises the true others_lo),
            // so correctness never depends on recomputing mid-row.
            for &(v, a) in &live {
                if model.vars[v].kind != VarKind::Integer {
                    continue;
                }
                let (clo, chi) = contrib(a, lower[v], upper[v]);
                if matches!(c.sense, Sense::Le | Sense::Eq) {
                    if let Some(rest) = act.others_lo(clo) {
                        let q = (c.rhs - rest) / a;
                        if tighten(&mut lower, &mut upper, v, a > 0.0, q, &mut stats) {
                            changed = true;
                        }
                    }
                }
                if matches!(c.sense, Sense::Ge | Sense::Eq) {
                    if let Some(rest) = act.others_hi(chi) {
                        let q = (c.rhs - rest) / a;
                        if tighten(&mut lower, &mut upper, v, a < 0.0, q, &mut stats) {
                            changed = true;
                        }
                    }
                }
                if lower[v] > upper[v] {
                    return Presolved::Infeasible;
                }
            }
        }
        if !changed {
            break;
        }
    }

    build_reduction(model, &lower, &upper, &dropped, stats)
}

/// Applies one implied bound `x_v <= q` (`upper_side`) or `x_v >= q` to an
/// integer column, rounding with [`INT_TOL`] slack. Returns whether
/// a bound moved.
fn tighten(
    lower: &mut [f64],
    upper: &mut [f64],
    v: usize,
    upper_side: bool,
    q: f64,
    stats: &mut PresolveStats,
) -> bool {
    if !q.is_finite() {
        return false;
    }
    if upper_side {
        let new_up = (q + INT_TOL).floor();
        if new_up < upper[v] {
            upper[v] = new_up;
            stats.bounds_tightened += 1;
            return true;
        }
    } else {
        let new_lo = (q - INT_TOL).ceil();
        if new_lo > lower[v] {
            lower[v] = new_lo;
            stats.bounds_tightened += 1;
            return true;
        }
    }
    false
}

/// Decides column fates, folds eliminated columns into the surviving rows'
/// rhs, drops now-empty and duplicate rows, and assembles the reduced model.
fn build_reduction(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    dropped: &[bool],
    mut stats: PresolveStats,
) -> Presolved {
    let n = model.var_count();

    // A column is referenced when a surviving row couples to it with a
    // nonzero coefficient *and* the column is not pinned by its bounds.
    let fixed: Vec<bool> =
        (0..n).map(|j| crate::approx::near(lower[j], upper[j], 0.0)).collect();
    let mut referenced = vec![false; n];
    for (i, c) in model.constraints.iter().enumerate() {
        if dropped[i] {
            continue;
        }
        for &(v, a) in &c.terms {
            if crate::approx::is_nonzero(a) && !fixed[v] {
                referenced[v] = true;
            }
        }
    }

    let mut fate = Vec::with_capacity(n);
    let mut kept_cols = Vec::new();
    let mut fixed_cost = 0.0;
    for j in 0..n {
        let var = &model.vars[j];
        let pin = if fixed[j] {
            Some(lower[j])
        } else if referenced[j] {
            None
        } else {
            // Free column: pin it at the bound the objective prefers, but
            // only a *finite* one — an objective-improving infinite bound
            // means the model is unbounded, and that verdict belongs to the
            // solver, not to presolve.
            if var.objective > 0.0 {
                lower[j].is_finite().then_some(lower[j])
            } else if var.objective < 0.0 {
                upper[j].is_finite().then_some(upper[j])
            } else if lower[j].is_finite() {
                Some(lower[j])
            } else if upper[j].is_finite() {
                Some(upper[j])
            } else {
                Some(0.0)
            }
        };
        match pin {
            Some(mut value) => {
                if var.kind == VarKind::Integer {
                    // Bounds were rounded inward up front, so a pinned
                    // integer column sits on an exact integer; `round`
                    // normalizes the stored value all the same.
                    if (value - value.round()).abs() > INT_TOL {
                        return Presolved::Infeasible;
                    }
                    value = value.round();
                }
                fixed_cost += var.objective * value;
                stats.cols_eliminated += 1;
                fate.push(ColFate::Fixed(value));
            }
            None => {
                fate.push(ColFate::Kept(kept_cols.len()));
                kept_cols.push(j);
            }
        }
    }

    // Assemble the reduced model: kept columns first (tightened bounds,
    // original kind/objective/priority), then the surviving rows with the
    // eliminated columns folded into the rhs.
    let mut reduced = Model::new();
    for &j in &kept_cols {
        let var = &model.vars[j];
        let r = match var.kind {
            VarKind::Integer => reduced.add_integer(lower[j], upper[j], var.objective),
            VarKind::Continuous => reduced.add_continuous(lower[j], upper[j], var.objective),
        };
        reduced.set_branch_priority(r, var.priority);
    }

    let mut seen = HashMap::new();
    let mut kept_rows = Vec::new();
    for (i, c) in model.constraints.iter().enumerate() {
        if dropped[i] {
            continue;
        }
        let mut rhs = c.rhs;
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len());
        for &(v, a) in &c.terms {
            if !crate::approx::is_nonzero(a) {
                continue;
            }
            match fate[v] {
                ColFate::Fixed(value) => rhs -= a * value,
                ColFate::Kept(r) => terms.push((r, a)),
            }
        }
        if terms.is_empty() {
            // Fully substituted row: drop it only when the pinned values
            // satisfy it *exactly*; a within-tolerance residue keeps the
            // (vacuous) row so the reduced solve sees the same slack the
            // raw solve does.
            if cannot_meet(c.sense, 0.0, 0.0, rhs) {
                return Presolved::Infeasible;
            }
            if always_meets(c.sense, 0.0, 0.0, rhs, 0.0) {
                stats.rows_dropped += 1;
                continue;
            }
        }
        if duplicate_of(&mut seen, i, c.sense, rhs, &terms).is_some() {
            stats.rows_dropped += 1;
            continue;
        }
        if reduced.add_constraint(terms, c.sense, rhs).is_err() {
            // Folding finite values into a finite rhs cannot overflow for
            // any model `validate()` accepted; treat the impossible as "no
            // reduction" rather than corrupting the solve.
            return identity(model);
        }
        kept_rows.push(i);
    }

    Presolved::Reduced {
        model: reduced,
        map: PostsolveMap { fate, kept_cols, kept_rows, fixed_cost, stats },
    }
}

/// The no-op reduction: every column and row survives unchanged.
fn identity(model: &Model) -> Presolved {
    Presolved::Reduced {
        model: model.clone(),
        map: PostsolveMap {
            fate: (0..model.var_count()).map(ColFate::Kept).collect(),
            kept_cols: (0..model.var_count()).collect(),
            kept_rows: (0..model.constraint_count()).collect(),
            fixed_cost: 0.0,
            stats: PresolveStats::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    fn reduced(model: &Model) -> (Model, PostsolveMap) {
        match presolve(model) {
            Presolved::Reduced { model, map } => (model, map),
            Presolved::Infeasible => panic!("unexpected infeasible"),
        }
    }

    #[test]
    fn fixed_column_folds_into_rhs_and_restores() {
        // x pinned at 2 by its bounds; x + y <= 5 becomes y <= 3 (y stays
        // continuous so activity propagation leaves the row alone).
        let mut m = Model::new();
        let _x = m.add_integer(2.0, 2.0, 10.0);
        let y = m.add_continuous(0.0, 9.0, 1.0);
        m.add_constraint(vec![(0, 1.0), (y, 1.0)], Sense::Le, 5.0).unwrap();
        let (red, map) = reduced(&m);
        assert_eq!(red.var_count(), 1);
        assert_eq!(red.constraint_count(), 1);
        let row = red.row(0).unwrap();
        assert_eq!(row.terms, &[(0, 1.0)]);
        assert!((row.rhs - 3.0).abs() < 1e-12);
        assert!((map.fixed_cost() - 20.0).abs() < 1e-12);
        assert_eq!(map.restore(&[7.0]), vec![2.0, 7.0]);
    }

    #[test]
    fn redundant_and_duplicate_rows_drop() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 5.0).unwrap(); // hi = 2 <= 5
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 1.0).unwrap(); // duplicate
        let (red, map) = reduced(&m);
        assert_eq!(red.constraint_count(), 1);
        assert_eq!(map.stats().rows_dropped, 2);
        assert_eq!(map.reduced_row_of(0), None);
        assert_eq!(map.reduced_row_of(1), Some(0));
        assert_eq!(map.reduced_row_of(2), None);
    }

    #[test]
    fn activity_propagation_tightens_and_cascades() {
        // 2x <= 7 rounds the integer x down to [_, 3] and becomes redundant
        // (hi = 6 <= 7); x + z >= 2 then lifts x to [1, 3] and survives.
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0, 1.0);
        let z = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Sense::Le, 7.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (z, 1.0)], Sense::Ge, 2.0).unwrap();
        let (red, map) = reduced(&m);
        assert_eq!(red.var_bounds(0), Some((1.0, 3.0)));
        assert_eq!(red.constraint_count(), 1);
        assert!(map.stats().bounds_tightened >= 2);
        assert_eq!(map.stats().rows_dropped, 1);
    }

    #[test]
    fn forcing_row_fixes_whole_one_hot_row() {
        // A Ge row only level 1 can satisfy pins x1 = 1; the one-hot row
        // then pins x0 = 0 and both rows drop: nothing is left to solve.
        let mut m = Model::new();
        let x0 = m.add_binary(1.0);
        let x1 = m.add_binary(3.0);
        m.add_constraint(vec![(x0, 1.0), (x1, 1.0)], Sense::Eq, 1.0).unwrap();
        m.add_constraint(vec![(x1, 5.0)], Sense::Ge, 4.0).unwrap();
        let (red, map) = reduced(&m);
        assert_eq!(red.var_count(), 0);
        assert_eq!(map.restore(&[]), vec![0.0, 1.0]);
        assert!((map.fixed_cost() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn static_infeasibility_is_detected() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        assert_eq!(presolve(&m), Presolved::Infeasible);
    }

    #[test]
    fn fractional_fixed_integer_bounds_are_infeasible() {
        let mut m = Model::new();
        let x = m.add_integer(2.5, 2.5, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 0.0).unwrap();
        assert_eq!(presolve(&m), Presolved::Infeasible);
    }

    #[test]
    fn unbounded_free_column_is_kept_for_the_solver() {
        let mut m = Model::new();
        let _x = m.add_integer(0.0, f64::INFINITY, -1.0); // improves without limit
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(y, 1.0)], Sense::Ge, 0.4).unwrap();
        let (red, map) = reduced(&m);
        // y is forced to 1 and eliminated; x must survive so the tree can
        // report Unbounded instead of presolve silently pinning it.
        assert_eq!(red.var_count(), 1);
        assert_eq!(map.project(&[5.0, 1.0]), vec![5.0]);
        assert_eq!(red.var_bounds(0), Some((0.0, f64::INFINITY)));
    }

    #[test]
    fn bounded_free_column_pins_at_objective_bound() {
        let mut m = Model::new();
        let _gain = m.add_integer(0.0, 4.0, -2.0); // wants its upper bound
        let _cost = m.add_integer(1.0, 6.0, 3.0); // wants its lower bound
        let z1 = m.add_binary(1.0);
        let z2 = m.add_binary(2.0);
        m.add_constraint(vec![(z1, 1.0), (z2, 1.0)], Sense::Ge, 1.0).unwrap();
        let (red, map) = reduced(&m);
        assert_eq!(red.var_count(), 2); // only the covered pair survives
        let full = map.restore(&[1.0, 0.0]);
        assert_eq!(full, vec![4.0, 1.0, 1.0, 0.0]);
        assert!((map.fixed_cost() - (-8.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn identity_reduction_is_bit_transparent() {
        let mut m = Model::new();
        let x = m.add_binary(0.3);
        let y = m.add_binary(0.7);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0).unwrap();
        let (red, map) = reduced(&m);
        assert!(map.is_identity());
        assert_eq!(red, m);
        let point = [0.1234567891234, 0.8765432108766];
        let restored = map.restore(&point);
        assert_eq!(point[0].to_bits(), restored[0].to_bits());
        assert_eq!(point[1].to_bits(), restored[1].to_bits());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn armed_swap_transposes_first_two_kept_entries() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0).unwrap();
        let (_, map) = reduced(&m);
        let clean = map.restore(&[1.0, 0.0]);
        let corrupted = crate::fault::with_swapped_postsolve_entries(|| map.restore(&[1.0, 0.0]));
        assert_eq!(clean, vec![1.0, 0.0]);
        assert_eq!(corrupted, vec![0.0, 1.0]);
    }
}
