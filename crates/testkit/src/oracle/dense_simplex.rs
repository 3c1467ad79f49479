//! Textbook dense-tableau two-phase simplex oracle.
//!
//! Solves a neutral [`LpInstance`] the way an
//! introductory course would: shift variables to `y = x − lower ≥ 0`, turn
//! upper bounds into explicit `y_j ≤ width_j` rows, add one slack per
//! inequality and one artificial per row, then run phase 1 (minimize the
//! artificial sum) and phase 2 (minimize the shifted objective) on a full
//! dense tableau with **Bland's rule**, which terminates on every input
//! without anti-cycling heuristics.
//!
//! This is everything the production solver is not — dense, allocation-happy,
//! O(rows·cols) per pivot — and that is the point: the two implementations
//! share no formulation (bounded-variable revised simplex vs. all-slack
//! standard form), no pivot rule (steepest-ish pricing vs. Bland), and no
//! code, so agreement on thousands of random instances is strong evidence,
//! and disagreement on one is a bug.

use crate::gen::{LpInstance, RowSense};

/// Entering-column threshold for reduced costs.
const TOL: f64 = 1e-9;
/// Phase-1 objective above this means the instance is infeasible.
const PHASE1_TOL: f64 = 1e-7;
/// Hard pivot cap; Bland's rule terminates long before this on any instance
/// the generator produces, so hitting it means the oracle itself is broken.
const MAX_PIVOTS: usize = 200_000;

/// Outcome of the dense oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum DenseLpResult {
    /// An optimal vertex was certified.
    Optimal {
        /// Optimal point in the *original* (unshifted) variables.
        x: Vec<f64>,
        /// Objective value at `x`.
        objective: f64,
    },
    /// Phase 1 could not drive the artificial sum to zero.
    Infeasible,
    /// Kept for honesty; unreachable for box-bounded instances.
    Unbounded,
}

/// Solves `minimize c·x  s.t.  rows, lower ≤ x ≤ upper` by dense two-phase
/// simplex.
///
/// # Panics
///
/// Panics on non-finite bounds (the oracle only handles boxed instances) or
/// if the pivot cap is hit (an oracle bug, not an input property).
pub fn solve(inst: &LpInstance) -> DenseLpResult {
    let n = inst.var_count();
    for j in 0..n {
        assert!(
            inst.lower[j].is_finite() && inst.upper[j].is_finite(),
            "dense oracle requires finite bounds"
        );
    }

    // Standard-form rows over y = x - lower: user rows with shifted rhs,
    // then the upper-bound rows y_j <= width_j.
    struct StdRow {
        coeffs: Vec<f64>,
        sense: RowSense,
        rhs: f64,
    }
    let mut std_rows: Vec<StdRow> = Vec::with_capacity(inst.rows.len() + n);
    for row in &inst.rows {
        let mut coeffs = vec![0.0f64; n];
        for &(v, c) in &row.terms {
            coeffs[v] += c;
        }
        let shift: f64 = coeffs.iter().zip(&inst.lower).map(|(c, lo)| c * lo).sum();
        std_rows.push(StdRow { coeffs, sense: row.sense, rhs: row.rhs - shift });
    }
    for j in 0..n {
        let mut coeffs = vec![0.0f64; n];
        coeffs[j] = 1.0;
        std_rows.push(StdRow { coeffs, sense: RowSense::Le, rhs: inst.upper[j] - inst.lower[j] });
    }

    // Tableau columns: n structurals, one slack per inequality, one
    // artificial per row (the artificials form the initial basis).
    let m = std_rows.len();
    let n_slacks = std_rows.iter().filter(|r| r.sense != RowSense::Eq).count();
    let total = n + n_slacks + m;
    let mut a = vec![vec![0.0f64; total]; m];
    let mut b = vec![0.0f64; m];
    let mut basis = vec![0usize; m];
    let mut artificial = vec![false; total];
    let mut slack_col = n;
    for (i, row) in std_rows.iter().enumerate() {
        a[i][..n].copy_from_slice(&row.coeffs);
        b[i] = row.rhs;
        match row.sense {
            RowSense::Le => {
                a[i][slack_col] = 1.0;
                slack_col += 1;
            }
            RowSense::Ge => {
                a[i][slack_col] = -1.0;
                slack_col += 1;
            }
            RowSense::Eq => {}
        }
        if b[i] < 0.0 {
            for v in a[i].iter_mut() {
                *v = -*v;
            }
            b[i] = -b[i];
        }
        let art = n + n_slacks + i;
        a[i][art] = 1.0;
        artificial[art] = true;
        basis[i] = art;
    }

    // Phase 1: minimize the artificial sum.
    let cost1: Vec<f64> = artificial.iter().map(|&is_art| f64::from(u8::from(is_art))).collect();
    match bland(&mut a, &mut b, &mut basis, &cost1, &artificial, false) {
        Phase::Optimal => {}
        Phase::Unbounded => unreachable!("phase 1 objective is bounded below by zero"),
    }
    let art_sum: f64 = basis
        .iter()
        .zip(&b)
        .filter(|(&col, _)| artificial[col])
        .map(|(_, &val)| val)
        .sum();
    if art_sum > PHASE1_TOL {
        return DenseLpResult::Infeasible;
    }

    // Phase 2: minimize the shifted objective; artificials stay banned from
    // entering, and one still basic after phase 1 (necessarily at zero) is
    // pinned there: it leaves at ratio 0 before any pivot would move it.
    let mut cost2 = vec![0.0f64; total];
    cost2[..n].copy_from_slice(&inst.objective);
    if let Phase::Unbounded = bland(&mut a, &mut b, &mut basis, &cost2, &artificial, true) {
        return DenseLpResult::Unbounded;
    }

    let mut y = vec![0.0f64; total];
    for (i, &col) in basis.iter().enumerate() {
        y[col] = b[i];
    }
    let x: Vec<f64> = (0..n).map(|j| inst.lower[j] + y[j]).collect();
    let objective: f64 = inst.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    DenseLpResult::Optimal { x, objective }
}

enum Phase {
    Optimal,
    Unbounded,
}

/// Primal simplex on a dense tableau with Bland's smallest-index rule.
/// `banned` columns may never *enter* the basis; with `pin_banned`, a
/// basic banned column is also held at zero, so a nonzero entry of either
/// sign in its row blocks the entering column at ratio 0.
fn bland(
    a: &mut [Vec<f64>],
    b: &mut [f64],
    basis: &mut [usize],
    cost: &[f64],
    banned: &[bool],
    pin_banned: bool,
) -> Phase {
    let m = a.len();
    let total = cost.len();
    for _pivot in 0..MAX_PIVOTS {
        let mut in_basis = vec![false; total];
        for &col in basis.iter() {
            in_basis[col] = true;
        }
        // Bland entering rule: smallest index with negative reduced cost.
        let mut entering = None;
        for j in 0..total {
            if banned[j] || in_basis[j] {
                continue;
            }
            let reduced: f64 =
                cost[j] - (0..m).map(|i| cost[basis[i]] * a[i][j]).sum::<f64>();
            if reduced < -TOL {
                entering = Some(j);
                break;
            }
        }
        let Some(e) = entering else {
            return Phase::Optimal;
        };
        // Bland leaving rule: min ratio, ties broken by smallest basis index.
        let mut leaving: Option<(usize, f64)> = None;
        for i in 0..m {
            let pinned = pin_banned && banned[basis[i]] && a[i][e].abs() > TOL;
            if a[i][e] > TOL || pinned {
                let ratio = if pinned { 0.0 } else { b[i] / a[i][e] };
                let better = match leaving {
                    None => true,
                    Some((li, lr)) => {
                        ratio < lr - TOL || (ratio < lr + TOL && basis[i] < basis[li])
                    }
                };
                if better {
                    leaving = Some((i, ratio));
                }
            }
        }
        let Some((r, _)) = leaving else {
            return Phase::Unbounded;
        };
        // Pivot on (r, e).
        let pivot = a[r][e];
        for v in a[r].iter_mut() {
            *v /= pivot;
        }
        b[r] /= pivot;
        let pivot_row = a[r].clone();
        for i in 0..m {
            if i == r {
                continue;
            }
            let factor = a[i][e];
            if factor == 0.0 {
                continue;
            }
            for (aij, &prj) in a[i].iter_mut().zip(&pivot_row) {
                *aij -= factor * prj;
            }
            b[i] -= factor * b[r];
            if b[i] < 0.0 && b[i] > -1e-12 {
                b[i] = 0.0; // clamp roundoff droop; basics stay >= 0
            }
        }
        basis[r] = e;
    }
    panic!("dense simplex exceeded {MAX_PIVOTS} pivots: oracle bug");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::LpRow;

    fn inst(
        objective: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        rows: Vec<LpRow>,
    ) -> LpInstance {
        LpInstance { objective, lower, upper, rows }
    }

    #[test]
    fn unconstrained_box_sits_at_the_cheap_corner() {
        // min x - 2y on [0,1]^2 -> x=0, y=1, objective -2.
        let r = solve(&inst(vec![1.0, -2.0], vec![0.0, 0.0], vec![1.0, 1.0], vec![]));
        match r {
            DenseLpResult::Optimal { x, objective } => {
                assert!((x[0] - 0.0).abs() < 1e-9);
                assert!((x[1] - 1.0).abs() < 1e-9);
                assert!((objective + 2.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn diet_style_instance_by_hand() {
        // min 2x + 3y s.t. x + y >= 2, x,y in [0, 5] -> x=2, y=0, obj 4.
        let rows = vec![LpRow {
            terms: vec![(0, 1.0), (1, 1.0)],
            sense: RowSense::Ge,
            rhs: 2.0,
        }];
        let r = solve(&inst(vec![2.0, 3.0], vec![0.0, 0.0], vec![5.0, 5.0], rows));
        match r {
            DenseLpResult::Optimal { x, objective } => {
                assert!((x[0] - 2.0).abs() < 1e-9);
                assert!(x[1].abs() < 1e-9);
                assert!((objective - 4.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        // x <= 1 and x >= 3 inside [0, 10]: empty.
        let rows = vec![
            LpRow { terms: vec![(0, 1.0)], sense: RowSense::Le, rhs: 1.0 },
            LpRow { terms: vec![(0, 1.0)], sense: RowSense::Ge, rhs: 3.0 },
        ];
        let r = solve(&inst(vec![1.0], vec![0.0], vec![10.0], rows));
        assert_eq!(r, DenseLpResult::Infeasible);
    }

    #[test]
    fn fixed_variables_and_duplicate_rows_are_handled() {
        // y fixed at 2; duplicated equality row x + y = 3 -> x = 1.
        let row = LpRow { terms: vec![(0, 1.0), (1, 1.0)], sense: RowSense::Eq, rhs: 3.0 };
        let rows = vec![row.clone(), row];
        let r = solve(&inst(vec![5.0, 1.0], vec![0.0, 2.0], vec![10.0, 2.0], rows));
        match r {
            DenseLpResult::Optimal { x, objective } => {
                assert!((x[0] - 1.0).abs() < 1e-9);
                assert!((x[1] - 2.0).abs() < 1e-9);
                assert!((objective - 7.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn artificial_left_basic_after_phase_one_stays_at_zero() {
        // Five placement rows pick level 0 or 1 (x[i][j] = var 2i + j), one
        // cluster (y0 = var 10, y1 = var 11) with x_ij <= y_j, and a path
        // over rows 0, 3, 4 needing 3 (x01 + x31 + x41) >= 8. The rows force
        // x_i1 = y1 = t >= 8/9 for every row, so the optimum is
        // 21 + 9t = 29. Phase 1 leaves an artificial basic at zero;
        // letting phase 2 raise it reached an infeasible 26.67.
        let costs = [(2.0, 6.0), (3.0, 3.0), (3.0, 5.0), (4.0, 6.0), (9.0, 10.0)];
        let mut objective: Vec<f64> = costs.iter().flat_map(|&(c0, c1)| [c0, c1]).collect();
        objective.extend([0.0, 0.0]);
        let le = |terms: Vec<(usize, f64)>, rhs: f64| LpRow { terms, sense: RowSense::Le, rhs };
        let one_hot = |i: usize| vec![(2 * i, 1.0), (2 * i + 1, 1.0)];
        let mut rows: Vec<LpRow> =
            (0..5).map(|i| LpRow { terms: one_hot(i), sense: RowSense::Eq, rhs: 1.0 }).collect();
        let path = vec![(1, 3.0), (7, 3.0), (9, 3.0)];
        rows.push(LpRow { terms: path, sense: RowSense::Ge, rhs: 8.0 });
        for j in 0..2 {
            let mut terms: Vec<(usize, f64)> = (0..5).map(|i| (2 * i + j, 1.0)).collect();
            terms.push((10 + j, -5.0));
            rows.push(le(terms, 0.0));
        }
        rows.push(le(vec![(10, 1.0), (11, 1.0)], 1.0));
        for i in 0..5 {
            for j in 0..2 {
                rows.push(le(vec![(2 * i + j, 1.0), (10 + j, -1.0)], 0.0));
            }
        }
        let instance = inst(objective, vec![0.0; 12], vec![1.0; 12], rows);
        match solve(&instance) {
            DenseLpResult::Optimal { x, objective } => {
                assert!((objective - 29.0).abs() < 1e-9, "objective {objective}");
                assert!(instance.to_model().is_feasible(&x, 1e-9), "point {x:?}");
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x on [-3, 4] with x >= -1 -> x = -1.
        let rows = vec![LpRow { terms: vec![(0, 1.0)], sense: RowSense::Ge, rhs: -1.0 }];
        let r = solve(&inst(vec![1.0], vec![-3.0], vec![4.0], rows));
        match r {
            DenseLpResult::Optimal { x, objective } => {
                assert!((x[0] + 1.0).abs() < 1e-9);
                assert!((objective + 1.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
