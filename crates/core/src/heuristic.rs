//! The two-pass linear-time heuristic (paper Fig. 5).
//!
//! `PassOne` finds the lowest uniform bias level `jopt` that meets timing;
//! `PassTwo` moves rows below it under the cluster budget, each row as far
//! down as it can go (`MaxDrop`). It keeps the best candidate of every
//! budget `1..=C`, and takes all of them from one serial descent that forks
//! a copy of its state where each budget runs out (`max_drop`): the budgets
//! share their common moves instead of each descending on its own. Both
//! passes run serially on the calling thread; neither uses the worker pool.

use crate::{check_timing, CheckState, ClusterSolution, FbbError, Preprocessed};

/// `PassOne`: find the lowest uniform bias level `jopt` at which every
/// constraint holds with *all* rows biased to it.
///
/// The scan is serial and lazy, as the paper's pseudocode: it checks levels
/// upwards and stops at the first feasible one.
///
/// Returns `None` when even the top of the ladder cannot compensate β —
/// the paper's `FALSE` outcome.
pub fn pass_one(pre: &Preprocessed) -> Option<usize> {
    fbb_telemetry::counter("core_pass_one_scans", 1);
    (0..pre.levels()).find(|&j| {
        fbb_telemetry::counter("core_pass_one_probes", 1);
        uniform_meets_timing(pre, j)
    })
}

/// `PassOne` restricted to a subset of ladder levels (ascending order not
/// required): the lowest *allowed* uniform level meeting timing. Used when a
/// shared central generator offers only some voltages to this block.
pub fn pass_one_restricted(pre: &Preprocessed, allowed: &[usize]) -> Option<usize> {
    let mut levels: Vec<usize> = allowed.iter().copied().filter(|&l| l < pre.levels()).collect();
    levels.sort_unstable();
    levels.into_iter().find(|&j| uniform_meets_timing(pre, j))
}

/// Whether every constraint holds with all rows at level `j`.
fn uniform_meets_timing(pre: &Preprocessed, j: usize) -> bool {
    check_timing(pre, &vec![j; pre.n_rows()]).is_ok()
}

/// The two-pass greedy FBB allocator.
///
/// `PassOne` finds the timing-feasible uniform voltage `jopt` (this is also
/// the block-level single-BB baseline). `PassTwo` ranks rows by the timing
/// criticality `ct_i = Σ_k Q_{i,k}/slack_k` and moves non-critical rows to
/// lower bias voltages under the cluster budget `C`: each row, least
/// critical first, descends to its lowest timing-feasible level among the
/// levels that keep the cluster count within `C` (`MaxDrop`). The paper's
/// pseudocode (Fig. 5) leaves open how far a row descends; DESIGN.md §5
/// records why this reading is the one implemented. Runtime is `O(P · N)`
/// timing-check updates — linear in the number of rows, as the paper
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoPassHeuristic;

impl TwoPassHeuristic {
    /// Runs both passes, serially: `PassOne`'s lazy level scan, then
    /// `PassTwo`, which ranks every cluster budget's candidate from one
    /// descent (see [`TwoPassHeuristic::pass_two`]). Each pass is
    /// timed as a telemetry span, `core_pass_one` and `core_pass_two`.
    ///
    /// # Example
    ///
    /// ```
    /// use fbb_core::{FbbProblem, TwoPassHeuristic};
    /// use fbb_device::{BiasLadder, BodyBiasModel, Library};
    /// use fbb_netlist::generators;
    /// use fbb_placement::{Placer, PlacerOptions};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let netlist = generators::ripple_adder("add16", 16, false)?;
    /// let library = Library::date09_45nm();
    /// let placement =
    ///     Placer::new(PlacerOptions::with_target_rows(6)).place(&netlist, &library)?;
    /// let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
    /// let pre = FbbProblem::new(&netlist, &placement, &chara, 0.05, 2)?.preprocess()?;
    ///
    /// let solution = TwoPassHeuristic.solve(&pre)?;
    /// assert!(solution.meets_timing);
    /// assert!(solution.clusters <= 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::Uncompensable`] when `PassOne` fails.
    pub fn solve(&self, pre: &Preprocessed) -> Result<ClusterSolution, FbbError> {
        let jopt = fbb_telemetry::time("core_pass_one", || pass_one(pre))
            .ok_or_else(|| FbbError::uncompensable(pre))?;
        let assignment = fbb_telemetry::time("core_pass_two", || self.pass_two(pre, jopt));
        Ok(ClusterSolution::from_assignment(pre, assignment))
    }

    /// Like [`TwoPassHeuristic::solve`], but only levels in `allowed` (plus
    /// level 0 if present in `allowed`) may be assigned — the shared-ladder
    /// scenario where a central generator distributes a fixed voltage menu
    /// to many blocks. The passes are timed as in
    /// [`TwoPassHeuristic::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::Uncompensable`] when no allowed level compensates
    /// β uniformly.
    pub fn solve_restricted(
        &self,
        pre: &Preprocessed,
        allowed: &[usize],
    ) -> Result<ClusterSolution, FbbError> {
        let jopt = fbb_telemetry::time("core_pass_one", || pass_one_restricted(pre, allowed))
            .ok_or_else(|| FbbError::uncompensable(pre))?;
        let assignment = fbb_telemetry::time("core_pass_two", || {
            least_leakage(pre, max_drop(pre, jopt, Some(allowed)))
        });
        Ok(ClusterSolution::from_assignment(pre, assignment))
    }

    /// `PassTwo` from a given `jopt` (exposed for the cluster-sweep
    /// experiments).
    ///
    /// A larger budget can tempt the greedy into opening an
    /// intermediate level early that a smaller budget would have skipped, so
    /// the result is not monotone in C by construction. `PassTwo` therefore
    /// keeps the best of the budgets `1..=C` (C capped at `jopt + 1`, see
    /// `budget_count`), taking every budget's candidate from one descent:
    /// budget 1's is the uniform `jopt`, and each larger budget is finished
    /// on an exact copy of the descent state where its budget runs out
    /// (`max_drop`). The first minimum in budget order wins, so the answer
    /// is the one a separate descent per budget gives, bit for bit.
    pub fn pass_two(&self, pre: &Preprocessed, jopt: usize) -> Vec<usize> {
        if jopt == 0 || pre.n_rows() == 0 {
            return vec![jopt; pre.n_rows()];
        }
        least_leakage(pre, max_drop(pre, jopt, None))
    }
}

/// The cluster budgets `PassTwo` tries, `1..=` this count: `C`, capped at
/// `jopt + 1`. A descent from `jopt` only ever opens levels `0..=jopt`, so
/// a budget above `jopt + 1` never runs out and repeats the `jopt + 1`
/// candidate, which the first-minimum fold already keeps. The cap also
/// bounds the candidate list when `C` comes from a request.
fn budget_count(pre: &Preprocessed, jopt: usize) -> usize {
    pre.max_clusters.min(jopt + 1)
}

/// Rows in increasing timing criticality (least critical first), ties broken
/// by index for determinism.
fn ranked_rows(pre: &Preprocessed) -> Vec<usize> {
    let criticality = pre.row_criticality();
    let mut ranked: Vec<usize> = (0..pre.n_rows()).collect();
    ranked.sort_by(|&a, &b| {
        criticality[a]
            .partial_cmp(&criticality[b])
            .expect("criticalities are finite")
            .then(a.cmp(&b))
    });
    ranked
}

/// The first candidate of least leakage: ties go to the smaller budget.
fn least_leakage(pre: &Preprocessed, candidates: Vec<Vec<usize>>) -> Vec<usize> {
    candidates
        .into_iter()
        .min_by(|a, b| {
            pre.leakage_nw(a).partial_cmp(&pre.leakage_nw(b)).expect("leakage is finite")
        })
        .expect("at least one budget")
}

/// `MaxDrop`'s candidate for every cluster budget `1..=budget_count`, in
/// budget order, from one descent of the largest budget B.
///
/// Each row, least critical first, moves to its lowest feasible level; a
/// level not yet open is opened while the budget allows, and otherwise the
/// row settles on the lowest feasible open level. With one open level a row
/// always settles back at `jopt`, so budget 1's candidate is the uniform
/// `jopt` and runs no descent. Budget k (1 < k < B) makes B's moves until
/// B is about to open level k + 1 with k levels open: at that row the
/// descent is cloned (an exact `f64` copy of the [`CheckState`]) and budget
/// k finishes on the copy with its budget exhausted. Every budget therefore
/// applies the `f64` operations of its own descent, in the same order. A
/// budget whose fork point never comes ends where B's descent ends.
fn max_drop(pre: &Preprocessed, jopt: usize, allowed: Option<&[usize]>) -> Vec<Vec<usize>> {
    let budgets = budget_count(pre, jopt);
    let mut candidates = vec![vec![jopt; pre.n_rows()]];
    if budgets < 2 {
        return candidates;
    }
    let ranked = ranked_rows(pre);
    let mut descent = Descent::new(pre, jopt, allowed);
    for (pos, &row) in ranked.iter().enumerate() {
        let Some(level) = descent.drop_row(row) else { continue };
        if descent.open.len() == budgets {
            descent.settle(row, level);
            continue;
        }
        if descent.open.len() > 1 {
            // Budget `open.len()` runs out at this row.
            let mut fork = descent.clone();
            fork.settle(row, level);
            fork.finish(&ranked[pos + 1..]);
            candidates.push(fork.state.assignment().to_vec());
        }
        descent.open.push(level);
    }
    candidates.resize(budgets, descent.state.assignment().to_vec());
    candidates
}

/// One `MaxDrop` descent in progress.
#[derive(Clone)]
struct Descent<'p> {
    state: CheckState<'p>,
    /// Levels in use; `jopt` is always occupied by the most critical rows,
    /// which never move.
    open: Vec<usize>,
    jopt: usize,
    allowed: Option<&'p [usize]>,
}

impl<'p> Descent<'p> {
    fn new(pre: &'p Preprocessed, jopt: usize, allowed: Option<&'p [usize]>) -> Self {
        let state = CheckState::new(pre, vec![jopt; pre.n_rows()]);
        debug_assert!(state.feasible(), "PassOne must hand over a feasible start");
        Descent { state, open: vec![jopt], jopt, allowed }
    }

    /// Moves `row` to its lowest feasible (allowed) level below `jopt`, if
    /// any (feasibility is monotone in the level because reductions are),
    /// and returns that level when it is not open yet.
    fn drop_row(&mut self, row: usize) -> Option<usize> {
        let level = (0..self.jopt)
            .filter(|level| self.allowed.is_none_or(|allowed| allowed.contains(level)))
            .find(|&level| self.state.try_set_level(row, level))?;
        (!self.open.contains(&level)).then_some(level)
    }

    /// Budget exhausted: `row`, which found `level` closed, settles for the
    /// lowest feasible *open* level instead (`jopt` itself always works).
    fn settle(&mut self, row: usize, level: usize) {
        let mut candidates: Vec<usize> =
            self.open.iter().copied().filter(|&l| l > level).collect();
        candidates.sort_unstable();
        self.state.set_level(row, self.jopt);
        for l in candidates {
            if self.state.try_set_level(row, l) {
                break;
            }
        }
    }

    /// Descends `rows` with no level left to open.
    fn finish(&mut self, rows: &[usize]) {
        for &row in rows {
            if let Some(level) = self.drop_row(row) {
                self.settle(row, level);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FbbProblem;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::{generators, Netlist};
    use fbb_placement::{Placement, Placer, PlacerOptions};

    fn setup(beta: f64, c: usize) -> Preprocessed {
        let nl = generators::ripple_adder("a32", 32, false).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(8)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(&nl, &p, &chara, beta, c).unwrap().preprocess().unwrap()
    }

    fn setup_design(nl: &Netlist, p: &Placement, beta: f64, c: usize) -> Preprocessed {
        let lib = Library::date09_45nm();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(nl, p, &chara, beta, c).unwrap().preprocess().unwrap()
    }

    #[test]
    fn pass_one_finds_minimal_uniform_level() {
        let pre = setup(0.05, 3);
        let jopt = pass_one(&pre).unwrap();
        assert!(jopt >= 1, "5% slowdown needs some bias");
        // jopt is minimal: one level below must fail.
        let below = vec![jopt - 1; pre.n_rows()];
        assert!(check_timing(&pre, &below).is_err());
    }

    #[test]
    fn pass_one_beta_zero_is_nbb() {
        let pre = setup(0.0, 3);
        assert_eq!(pass_one(&pre), Some(0));
    }

    #[test]
    fn uncompensable_beta_reported() {
        // 20% slowdown is beyond the ~11% speed-up of the 0.5 V ladder.
        let pre = setup(0.20, 3);
        assert_eq!(pass_one(&pre), None);
        assert!(matches!(TwoPassHeuristic.solve(&pre), Err(FbbError::Uncompensable { .. })));
    }

    #[test]
    fn meets_timing_and_budget() {
        for beta in [0.05, 0.10] {
            for c in [1, 2, 3] {
                let pre = setup(beta, c);
                let sol = TwoPassHeuristic.solve(&pre).unwrap();
                assert!(sol.meets_timing, "beta={beta} C={c}");
                assert!(sol.clusters <= c, "beta={beta} C={c}: {} clusters", sol.clusters);
            }
        }
    }

    #[test]
    fn heuristic_saves_leakage_vs_uniform() {
        let pre = setup(0.05, 3);
        let jopt = pass_one(&pre).unwrap();
        let uniform = pre.leakage_nw(&vec![jopt; pre.n_rows()]);
        let sol = TwoPassHeuristic.solve(&pre).unwrap();
        assert!(sol.leakage_nw < uniform, "{} !< {uniform}", sol.leakage_nw);
    }

    #[test]
    fn beats_or_matches_single_bb() {
        for (beta, c) in [(0.05, 2), (0.10, 2), (0.10, 3)] {
            let pre = setup(beta, c);
            let uniform = pre.leakage_nw(&vec![pass_one(&pre).unwrap(); pre.n_rows()]);
            let sol = TwoPassHeuristic.solve(&pre).unwrap();
            assert!(
                sol.leakage_nw <= uniform + 1e-9,
                "beta={beta} C={c}: {} > uniform {uniform}",
                sol.leakage_nw
            );
        }
    }

    #[test]
    fn more_clusters_never_hurt() {
        let nl = generators::alu("alu24", 24).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(10)).place(&nl, &lib).unwrap();
        let mut last = f64::INFINITY;
        for c in 1..=4 {
            let pre = setup_design(&nl, &p, 0.05, c);
            let sol = TwoPassHeuristic.solve(&pre).unwrap();
            assert!(sol.leakage_nw <= last + 1e-9, "C={c}");
            last = sol.leakage_nw;
        }
    }

    #[test]
    fn deterministic() {
        let pre = setup(0.05, 3);
        let a = TwoPassHeuristic.solve(&pre).unwrap();
        let b = TwoPassHeuristic.solve(&pre).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn max_drop_sends_unconstrained_rows_to_nbb() {
        let pre = setup(0.05, 3);
        let sol = TwoPassHeuristic.solve(&pre).unwrap();
        for (row, &ct) in pre.row_criticality().iter().enumerate() {
            if ct == 0.0 {
                assert_eq!(sol.assignment[row], 0, "unconstrained row {row} should be at NBB");
            }
        }
    }

    #[test]
    fn budget_beyond_jopt_plus_one_changes_nothing() {
        // A request-sized C (2^40) must neither size an allocation nor move
        // the answer: budgets past jopt + 1 repeat the jopt + 1 candidate.
        let mut pre = setup(0.10, 3);
        let allowed: Vec<usize> = (0..pre.levels()).collect();
        pre.max_clusters = pre.levels();
        let at_p = TwoPassHeuristic.solve(&pre).unwrap();
        let restricted_at_p = TwoPassHeuristic.solve_restricted(&pre, &allowed).unwrap();
        pre.max_clusters = 1usize << 40;
        let huge = TwoPassHeuristic.solve(&pre).unwrap();
        let restricted_huge = TwoPassHeuristic.solve_restricted(&pre, &allowed).unwrap();
        assert_eq!(huge.assignment, at_p.assignment);
        assert_eq!(huge.leakage_nw.to_bits(), at_p.leakage_nw.to_bits());
        assert_eq!(restricted_huge.assignment, restricted_at_p.assignment);
    }

    #[test]
    fn c_equals_one_is_single_bb() {
        let pre = setup(0.10, 1);
        let sol = TwoPassHeuristic.solve(&pre).unwrap();
        assert_eq!(sol.clusters, 1);
        let jopt = pass_one(&pre).unwrap();
        assert!(sol.assignment.iter().all(|&l| l == jopt));
    }
}
