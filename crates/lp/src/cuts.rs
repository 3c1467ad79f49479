//! Root cutting planes from the paper's ILP structure (DESIGN.md §5j).
//!
//! The FBB allocation ILP (Eq. 1–4) carries three exploitable row shapes:
//!
//! * **Eq. 3 one-hot rows** `Σ_j x_{ij} = 1` — each row of gates picks
//!   exactly one bias level;
//! * **Eq. 4 linking rows** `Σ_i x_{ij} − N·y_j ≤ 0` — a level is only
//!   usable when its cluster indicator is open. Together with the one-hot
//!   rows these put every `(x_{ij}, ¬y_j)` pair in a conflict clique, whose
//!   strongest disaggregation is the **clique cut** `x_{ij} − y_j ≤ 0`: the
//!   big-`N` row lets the LP relaxation open a cluster `1/N`-th of the way,
//!   the clique cut does not;
//! * **the Eq. 4 budget row** `Σ_j y_j ≤ C` and the Eq. 2 path rows —
//!   knapsack-shaped rows over binaries, which yield **cover cuts**: if a
//!   subset `S` of columns cannot all be 1 without busting the capacity,
//!   then `Σ_S x ≤ |S|−1`; symmetrically a `≥` row whose capacity cannot be
//!   met with every column of `S` at 0 yields `Σ_S x ≥ 1`.
//!
//! Cuts are *valid inequalities*: they never exclude an integer-feasible
//! point, only fractional vertices of the relaxation — so the branch & bound
//! answer is unchanged while the tree shrinks. Validity is pinned two ways:
//! every emitted cover passes [`cover_is_valid`]/[`ge_cover_is_valid`]
//! before it is emitted, and `crates/testkit/tests/cut_validity.rs` replays
//! every cut against the brute-force oracle's full enumeration.
//!
//! Separation runs at the root only: the [`SparseEngine`](crate) constraint
//! matrix is built once per tree (that is what makes parent-basis warm
//! starts sound), so rows cannot be added mid-tree. Warm-started children
//! instead *re-check* the root cuts against their relaxation point
//! (`bnb_cut_child_rechecks`).
//!
//! The `fbb-core` ILP builder knows which rows it emitted and hands the
//! indices down as [`StructureHints`]; the detector shape-verifies every
//! hinted row rather than trusting it (a stale hint after presolve row
//! elimination must degrade to "no cut", never to a wrong cut). Without
//! hints — the benchmark generators, random difftest models — detection
//! falls back to a full scan.

use std::collections::HashSet;

use crate::model::{Sense, VarKind};
use crate::simplex::INT_TOL;
use crate::Model;

/// Structural row indices the model generator hands to the cut separator
/// (`MipOptions::hints`). Indices refer to the model given to `solve_mip`;
/// presolve translates them to the reduced model's rows. Every hinted row
/// is shape-verified before use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StructureHints {
    /// Eq. 4 linking rows (`Σ_i x_{ij} − N·y_j ≤ 0`).
    pub linking_rows: Vec<usize>,
    /// The Eq. 4 cluster-budget row (`Σ_j y_j ≤ C`).
    pub budget_row: Option<usize>,
}

/// Family a cut came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// Disaggregated linking clique cut `x_v − y ≤ 0`.
    Clique,
    /// Knapsack cover cut (`Σ_S x ≤ |S|−1` from a `≤` row, or the
    /// complemented `Σ_S x ≥ 1` from a `≥` row).
    Cover,
}

/// One valid inequality separated at the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// `(variable, coefficient)` pairs, strictly increasing indices.
    pub terms: Vec<(usize, f64)>,
    /// Row sense (`Le` for cliques and `≤` covers, `Ge` for complement
    /// covers).
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
    /// Family the cut came from.
    pub kind: CutKind,
}

impl Cut {
    /// Whether a point satisfies this cut within `tol`.
    #[must_use]
    pub fn is_satisfied(&self, x: &[f64], tol: f64) -> bool {
        let lhs: f64 = self.terms.iter().map(|&(v, a)| a * x[v]).sum();
        match self.sense {
            Sense::Le => lhs <= self.rhs + tol,
            Sense::Ge => lhs >= self.rhs - tol,
            Sense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Detected cut-relevant structure of one model.
#[derive(Debug, Default)]
pub(crate) struct CutStructure {
    /// `(y column, x columns)` per verified linking row.
    linking: Vec<(usize, Vec<usize>)>,
    /// Verified `≤` knapsack rows (positive coefficients over binaries).
    le_rows: Vec<usize>,
    /// Verified `≥` knapsack rows.
    ge_rows: Vec<usize>,
}

impl CutStructure {
    pub(crate) fn has_candidates(&self) -> bool {
        !(self.linking.is_empty() && self.le_rows.is_empty() && self.ge_rows.is_empty())
    }
}

fn is_binary(model: &Model, v: usize) -> bool {
    model.var_kind(v) == Some(VarKind::Integer)
        && model
            .var_bounds(v)
            .is_some_and(|(l, u)| crate::approx::near(l, 0.0, 0.0) && crate::approx::near(u, 1.0, 0.0))
}

/// Parses row `i` as an Eq. 4 linking row; `None` when the shape is off.
fn as_linking(model: &Model, i: usize) -> Option<(usize, Vec<usize>)> {
    let row = model.row(i)?;
    if row.sense != Sense::Le || !crate::approx::is_zero(row.rhs) {
        return None;
    }
    let mut y = None;
    let mut xs = Vec::new();
    for &(v, a) in row.terms {
        if !is_binary(model, v) {
            return None;
        }
        if a < 0.0 {
            if y.is_some() || a > -1.0 {
                return None;
            }
            y = Some(v);
        } else if crate::approx::near(a, 1.0, 0.0) {
            xs.push(v);
        } else {
            return None;
        }
    }
    // One x gives the clique cut x − y <= 0 verbatim as the row: nothing
    // to disaggregate.
    match y {
        Some(y) if xs.len() >= 2 => Some((y, xs)),
        _ => None,
    }
}

/// Parses row `i` as a knapsack over binaries with positive coefficients
/// and the given sense; requires `Σa > rhs` (otherwise the row is vacuous
/// for `≤`, or admits no cover for `≥`).
fn as_knapsack(model: &Model, i: usize, sense: Sense) -> bool {
    let Some(row) = model.row(i) else { return false };
    if row.sense != sense || row.terms.len() < 2 || row.rhs <= 0.0 {
        return false;
    }
    let mut total = 0.0;
    for &(v, a) in row.terms {
        if a <= 0.0 || !is_binary(model, v) {
            return false;
        }
        total += a;
    }
    total > row.rhs
}

/// Detects the cut-relevant structure. With hints, the hinted linking and
/// budget rows are the only candidates for their families (shape-verified,
/// stale hints dropped); the Eq. 2 path rows are never hinted, so `≥`
/// knapsacks are always found by scanning. Without hints, everything is
/// scanned.
pub(crate) fn detect_structure(model: &Model, hints: Option<&StructureHints>) -> CutStructure {
    let m = model.constraint_count();
    let mut s = CutStructure::default();
    let link_candidates: Vec<usize> = match hints {
        Some(h) => h.linking_rows.clone(),
        None => (0..m).collect(),
    };
    for i in link_candidates {
        if let Some(link) = as_linking(model, i) {
            s.linking.push(link);
        }
    }
    let le_candidates: Vec<usize> = match hints {
        Some(h) => h.budget_row.into_iter().collect(),
        None => (0..m).collect(),
    };
    for i in le_candidates {
        if as_knapsack(model, i, Sense::Le) {
            s.le_rows.push(i);
        }
    }
    for i in 0..m {
        if as_knapsack(model, i, Sense::Ge) {
            s.ge_rows.push(i);
        }
    }
    s
}

/// Checks a cover for a `≤` knapsack row: every member must carry a
/// positive coefficient on a binary column, the members must overflow the
/// capacity (`Σ_S a > rhs` — otherwise all of `S` can be 1 and the "cut"
/// would slice off integer points), and the cut rhs must be exactly
/// `|S| − 1`. The deliberately off-by-one fixture in the testkit pins the
/// rejection path.
#[must_use]
pub fn cover_is_valid(model: &Model, row: usize, cover: &[usize], cut_rhs: f64) -> bool {
    let Some(r) = model.row(row) else { return false };
    if r.sense != Sense::Le || cover.is_empty() {
        return false;
    }
    let mut weight = 0.0;
    for &v in cover {
        let Some(&(_, a)) = r.terms.iter().find(|&&(w, _)| w == v) else {
            return false;
        };
        if a <= 0.0 || !is_binary(model, v) {
            return false;
        }
        weight += a;
    }
    weight > r.rhs && crate::approx::near(cut_rhs, (cover.len() - 1) as f64, 0.0)
}

/// Checks a complement cover for a `≥` knapsack row: with every member of
/// `S` at 0 the remaining columns must be unable to reach the rhs
/// (`Σ_{∉S} a < rhs`, i.e. `Σ_S a > Σa − rhs`), which makes `Σ_S x ≥ 1`
/// valid; the cut rhs must be exactly 1.
#[must_use]
pub fn ge_cover_is_valid(model: &Model, row: usize, cover: &[usize], cut_rhs: f64) -> bool {
    let Some(r) = model.row(row) else { return false };
    if r.sense != Sense::Ge || cover.is_empty() {
        return false;
    }
    let total: f64 = r.terms.iter().map(|&(_, a)| a).sum();
    let mut weight = 0.0;
    for &v in cover {
        let Some(&(_, a)) = r.terms.iter().find(|&&(w, _)| w == v) else {
            return false;
        };
        if a <= 0.0 || !is_binary(model, v) {
            return false;
        }
        weight += a;
    }
    weight > total - r.rhs && crate::approx::near(cut_rhs, 1.0, 0.0)
}

/// Separates all structure cuts violated by the relaxation point `x`,
/// deduplicated. Every emitted cover has passed its validity checker.
pub(crate) fn separate(model: &Model, s: &CutStructure, x: &[f64]) -> Vec<Cut> {
    /// Dedup key: (sense, rhs bits, sorted (var, coefficient-bits) terms).
    type CutKey = (u8, u64, Vec<(usize, u64)>);
    let mut cuts: Vec<Cut> = Vec::new();
    let mut seen: HashSet<CutKey> = HashSet::new();
    let mut push = |cut: Cut, cuts: &mut Vec<Cut>| {
        let key_terms: Vec<(usize, u64)> =
            cut.terms.iter().map(|&(v, a)| (v, a.to_bits())).collect();
        if seen.insert((cut.sense as u8, cut.rhs.to_bits(), key_terms)) {
            cuts.push(cut);
        }
    };

    for (y, xs) in &s.linking {
        for &v in xs {
            if x[v] - x[*y] > INT_TOL {
                push(
                    Cut {
                        terms: if v < *y { vec![(v, 1.0), (*y, -1.0)] } else { vec![(*y, -1.0), (v, 1.0)] },
                        sense: Sense::Le,
                        rhs: 0.0,
                        kind: CutKind::Clique,
                    },
                    &mut cuts,
                );
            }
        }
    }
    for &i in &s.le_rows {
        if let Some(cut) = cover_from_le(model, i, x) {
            push(cut, &mut cuts);
        }
    }
    for &i in &s.ge_rows {
        if let Some(cut) = cover_from_ge(model, i, x) {
            push(cut, &mut cuts);
        }
    }
    cuts
}

/// Public separation entry point for the oracle-backed validity suite:
/// detect structure (with optional hints) and separate against `x`.
#[must_use]
pub fn separate_cuts(model: &Model, hints: Option<&StructureHints>, x: &[f64]) -> Vec<Cut> {
    separate(model, &detect_structure(model, hints), x)
}

/// Greedy minimal-ish cover for a `≤` knapsack: take columns by descending
/// relaxation value until the capacity overflows, emit when violated.
fn cover_from_le(model: &Model, row: usize, x: &[f64]) -> Option<Cut> {
    let r = model.row(row)?;
    let mut order: Vec<(usize, f64)> = r.terms.to_vec();
    order.sort_by(|&(v1, _), &(v2, _)| x[v2].total_cmp(&x[v1]).then(v1.cmp(&v2)));
    let mut weight = 0.0;
    let mut value = 0.0;
    let mut cover: Vec<usize> = Vec::new();
    for &(v, a) in &order {
        weight += a;
        value += x[v];
        cover.push(v);
        if weight > r.rhs {
            break;
        }
    }
    if weight <= r.rhs {
        return None; // no subset overflows: the row cannot yield a cover
    }
    let rhs = (cover.len() - 1) as f64;
    if value <= rhs + INT_TOL || !cover_is_valid(model, row, &cover, rhs) {
        return None;
    }
    cover.sort_unstable();
    Some(Cut { terms: cover.into_iter().map(|v| (v, 1.0)).collect(), sense: Sense::Le, rhs, kind: CutKind::Cover })
}

/// Complement cover for a `≥` knapsack: work on `z = 1 − x`, whose
/// knapsack capacity is `Σa − rhs`; a violated `Σ_S z ≤ |S|−1` maps back
/// to `Σ_S x ≥ 1`.
fn cover_from_ge(model: &Model, row: usize, x: &[f64]) -> Option<Cut> {
    let r = model.row(row)?;
    let cap: f64 = r.terms.iter().map(|&(_, a)| a).sum::<f64>() - r.rhs;
    if cap <= 0.0 {
        return None; // presolve territory: the row pins every column to 1
    }
    let mut order: Vec<(usize, f64)> = r.terms.to_vec();
    // Descending complement value = ascending x.
    order.sort_by(|&(v1, _), &(v2, _)| x[v1].total_cmp(&x[v2]).then(v1.cmp(&v2)));
    let mut weight = 0.0;
    let mut value = 0.0;
    let mut cover: Vec<usize> = Vec::new();
    for &(v, a) in &order {
        weight += a;
        value += 1.0 - x[v];
        cover.push(v);
        if weight > cap {
            break;
        }
    }
    if weight <= cap {
        return None;
    }
    if value <= (cover.len() - 1) as f64 + INT_TOL || !ge_cover_is_valid(model, row, &cover, 1.0) {
        return None;
    }
    cover.sort_unstable();
    Some(Cut { terms: cover.into_iter().map(|v| (v, 1.0)).collect(), sense: Sense::Ge, rhs: 1.0, kind: CutKind::Cover })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` binaries with zero objective.
    fn binaries(m: &mut Model, n: usize) -> Vec<usize> {
        (0..n).map(|_| m.add_binary(0.0)).collect()
    }

    #[test]
    fn linking_row_yields_clique_cuts() {
        let mut m = Model::new();
        let v = binaries(&mut m, 3); // x1, x2, y
        m.add_constraint(vec![(v[0], 1.0), (v[1], 1.0), (v[2], -2.0)], Sense::Le, 0.0).unwrap();
        let cuts = separate_cuts(&m, None, &[1.0, 0.0, 0.5]);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].kind, CutKind::Clique);
        assert_eq!(cuts[0].terms, vec![(v[0], 1.0), (v[2], -1.0)]);
        // The fractional point violates the cut; the integer point does not.
        assert!(!cuts[0].is_satisfied(&[1.0, 0.0, 0.5], 1e-6));
        assert!(cuts[0].is_satisfied(&[1.0, 0.0, 1.0], 1e-6));
    }

    #[test]
    fn cover_cut_from_le_knapsack() {
        let mut m = Model::new();
        let v = binaries(&mut m, 4);
        m.add_constraint(
            vec![(v[0], 3.0), (v[1], 4.0), (v[2], 2.0), (v[3], 1.0)],
            Sense::Le,
            6.0,
        )
        .unwrap();
        let cuts = separate_cuts(&m, None, &[1.0, 1.0, 0.25, 0.0]);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].kind, CutKind::Cover);
        assert_eq!(cuts[0].terms, vec![(v[0], 1.0), (v[1], 1.0)]);
        assert!((cuts[0].rhs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complement_cover_from_ge_knapsack() {
        let mut m = Model::new();
        let v = binaries(&mut m, 3);
        m.add_constraint(vec![(v[0], 3.0), (v[1], 4.0), (v[2], 2.0)], Sense::Ge, 8.0).unwrap();
        // Without v2 the row caps at 7 < 8, so x2 >= 1 is valid; the point
        // x = (1, 1, 0) violates it.
        let cuts = separate_cuts(&m, None, &[1.0, 1.0, 0.0]);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].sense, Sense::Ge);
        assert_eq!(cuts[0].terms, vec![(v[2], 1.0)]);
        assert!((cuts[0].rhs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn off_by_one_cover_is_rejected() {
        let mut m = Model::new();
        let v = binaries(&mut m, 3);
        let row =
            m.add_constraint(vec![(v[0], 3.0), (v[1], 4.0), (v[2], 2.0)], Sense::Le, 6.0).unwrap();
        // {v0, v1} overflows (7 > 6): rhs must be exactly |S|-1 = 1.
        assert!(cover_is_valid(&m, row, &[v[0], v[1]], 1.0));
        assert!(!cover_is_valid(&m, row, &[v[0], v[1]], 0.0)); // off by one: cuts the optimum
        assert!(!cover_is_valid(&m, row, &[v[0], v[2]], 1.0)); // 5 <= 6: not a cover
        assert!(!cover_is_valid(&m, row, &[], f64::NEG_INFINITY));
    }

    #[test]
    fn stale_hints_degrade_to_no_cuts() {
        let mut m = Model::new();
        let v = binaries(&mut m, 3);
        // A plain row that is *not* linking-shaped.
        m.add_constraint(vec![(v[0], 1.0), (v[1], 1.0)], Sense::Le, 1.0).unwrap();
        let hints = StructureHints {
            linking_rows: vec![0, 7],
            budget_row: Some(9),
        };
        let s = detect_structure(&m, Some(&hints));
        assert!(s.linking.is_empty());
        assert!(s.le_rows.is_empty());
        let _ = v;
    }

    #[test]
    fn non_binary_columns_disable_the_row() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 2.0, 0.0); // not binary
        let y = m.add_binary(0.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.0).unwrap();
        assert!(separate_cuts(&m, None, &[0.9, 0.9]).is_empty());
    }
}
