//! Brute-force enumeration oracle for small cluster instances.
//!
//! Walks every one of the `P^N` row→level assignments with a plain odometer
//! and keeps the cheapest feasible one. Feasibility, leakage, and cluster
//! count are all recomputed here from the raw [`Preprocessed`] tables — the
//! oracle deliberately does **not** call [`fbb_core::check_timing`],
//! `PathRef::satisfied`, `Preprocessed::leakage_nw`, or
//! `Preprocessed::cluster_count`, so a bug in any of those shows up as a
//! differential mismatch instead of being silently shared.

use fbb_core::Preprocessed;

/// Feasibility tolerance, chosen to match the engines' documented contract
/// (`reduction + 1e-9 >= required`). This constant is *restated*, not
/// imported: if an engine quietly changes its tolerance, the harness flags it.
const FEAS_TOL_PS: f64 = 1e-9;

/// Refuses instances whose assignment space exceeds this many points.
const MAX_POINTS: u128 = 4_000_000;

/// The provably cheapest feasible assignment of a small instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumerationResult {
    /// Lexicographically-smallest optimal row→level assignment.
    pub assignment: Vec<usize>,
    /// Its total leakage in nanowatts.
    pub leakage_nw: f64,
    /// Distinct levels used (including NBB).
    pub clusters: usize,
}

/// Enumerates every assignment and returns the cheapest feasible one, or
/// `None` when no assignment within the cluster budget meets timing.
///
/// # Panics
///
/// Panics when `levels^n_rows` exceeds an internal cap (~4M points) — the
/// oracle is for *small* instances only.
pub fn best_assignment(pre: &Preprocessed) -> Option<EnumerationResult> {
    let points = (pre.levels().max(1) as u128).checked_pow(pre.n_rows() as u32);
    assert!(
        points.is_some_and(|p| p <= MAX_POINTS),
        "instance too large for brute-force enumeration ({} levels ^ {} rows)",
        pre.levels(),
        pre.n_rows()
    );
    if pre.n_rows() == 0 {
        // The empty assignment: feasible iff every path needs (about) nothing.
        let feasible = pre.paths().all(|p| p.required_reduction_ps() <= FEAS_TOL_PS);
        return feasible.then(|| EnumerationResult {
            assignment: vec![],
            leakage_nw: 0.0,
            clusters: 0,
        });
    }

    let mut assignment = vec![0usize; pre.n_rows()];
    let mut best: Option<EnumerationResult> = None;
    loop {
        if assignment_is_feasible(pre, &assignment) {
            let leakage = leakage_nw(pre, &assignment);
            if best.as_ref().is_none_or(|b| leakage < b.leakage_nw) {
                best = Some(EnumerationResult {
                    assignment: assignment.clone(),
                    leakage_nw: leakage,
                    clusters: cluster_count(pre, &assignment),
                });
            }
        }
        // Odometer increment (row 0 is the fastest digit), so ties keep the
        // lexicographically-smallest assignment.
        let mut carry = true;
        for digit in assignment.iter_mut() {
            *digit += 1;
            if *digit < pre.levels() {
                carry = false;
                break;
            }
            *digit = 0;
        }
        if carry {
            break;
        }
    }
    best
}

/// Independent feasibility check: every path's summed reduction covers its
/// requirement AND the number of distinct levels stays within the budget.
pub fn assignment_is_feasible(pre: &Preprocessed, assignment: &[usize]) -> bool {
    assert_eq!(assignment.len(), pre.n_rows(), "one level per row required");
    if cluster_count(pre, assignment) > pre.max_clusters {
        return false;
    }
    pre.paths().all(|path| {
        let reduction: f64 = path.rows().map(|(row, reds)| reds[assignment[row]]).sum();
        reduction + FEAS_TOL_PS >= path.required_reduction_ps()
    })
}

/// Independent leakage sum over the raw `L[i][j]` table.
pub fn leakage_nw(pre: &Preprocessed, assignment: &[usize]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(row, &level)| pre.row_leakage(row)[level])
        .sum()
}

/// Independent distinct-level count (the cluster count, including NBB).
pub fn cluster_count(pre: &Preprocessed, assignment: &[usize]) -> usize {
    let mut seen = vec![false; pre.levels()];
    let mut count = 0;
    for &level in assignment {
        if !seen[level] {
            seen[level] = true;
            count += 1;
        }
    }
    count
}

/// Diagnoses *why* an instance is uncompensable: with every row at the top
/// of the ladder (the maximum-reduction assignment under the engines'
/// monotone-reduction convention), which path still misses `Dcrit`, and by
/// how many picoseconds? Returns `None` when the all-top assignment meets
/// every constraint.
///
/// This is the oracle counterpart of the diagnosis embedded in
/// `FbbError::Uncompensable` — the end-to-end tests cross-check the engine's
/// reported worst path against this function.
pub fn uncompensable_reason(pre: &Preprocessed) -> Option<(usize, f64)> {
    let top = pre.levels().saturating_sub(1);
    let mut worst: Option<(usize, f64)> = None;
    for (k, path) in pre.paths().enumerate() {
        let reduction: f64 = path.rows().map(|(_, reds)| reds[top]).sum();
        let shortfall = path.required_reduction_ps() - reduction;
        if shortfall > FEAS_TOL_PS && worst.is_none_or(|(_, s)| shortfall > s) {
            worst = Some((k, shortfall));
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-row, 3-level instance small enough to verify by hand, whose one
    /// path needs `required` ps.
    fn tiny_requiring(required: f64) -> Preprocessed {
        let leakage = vec![1.0, 3.0, 9.0, 2.0, 4.0, 10.0];
        let mut builder = Preprocessed::builder(3, leakage, vec![1.0, 1.0]).unwrap();
        let reductions = [0.0, 6.0, 12.0, 0.0, 5.0, 11.0];
        builder.push_path(100.0 + required, required, 104.0, &[0, 1], &reductions).unwrap();
        builder.into_problem(0.05, 2, 100.0)
    }

    fn tiny() -> Preprocessed {
        tiny_requiring(10.0)
    }

    #[test]
    fn finds_hand_checked_optimum() {
        // Feasible pairs (reduction >= 10): (1,1)=11, (2,0)=12, (0,2)=11,
        // (2,1)=17, ... Cheapest is (2,0): leakage 9 + 2 = 11. (1,1) costs
        // 3 + 4 = 7 — cheaper! Check: reduction 6 + 5 = 11 >= 10. Optimal.
        let best = best_assignment(&tiny()).unwrap();
        assert_eq!(best.assignment, vec![1, 1]);
        assert!((best.leakage_nw - 7.0).abs() < 1e-12);
        assert_eq!(best.clusters, 1);
    }

    #[test]
    fn respects_cluster_budget() {
        let mut pre = tiny();
        pre.max_clusters = 1;
        // With one cluster, rows must share a level: (1,1) still works.
        let best = best_assignment(&pre).unwrap();
        assert_eq!(best.assignment, vec![1, 1]);
    }

    #[test]
    fn reports_infeasible_and_diagnoses_it() {
        let pre = tiny_requiring(50.0); // max achievable is 23.
        assert!(best_assignment(&pre).is_none());
        let (path, shortfall) = uncompensable_reason(&pre).unwrap();
        assert_eq!(path, 0);
        assert!((shortfall - (50.0 - 23.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_rows_is_feasible_iff_nothing_is_required() {
        let pre = Preprocessed::builder(3, vec![], vec![]).unwrap().into_problem(0.05, 2, 100.0);
        let best = best_assignment(&pre).unwrap();
        assert!(best.assignment.is_empty());
        assert_eq!(best.leakage_nw, 0.0);
    }
}
