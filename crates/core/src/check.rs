//! The `CheckTiming` routine (paper Fig. 4) and its incremental variant.

use crate::Preprocessed;

/// Checks a row→level assignment against every timing constraint.
///
/// Returns `Ok(())` when all paths of Π meet `Dcrit`, or `Err(k)` with the
/// index of the first violated path (the paper's routine returns a plain
/// boolean; the index is free and useful for diagnostics).
///
/// # Errors
///
/// `Err(path_index)` identifies the first violated constraint.
pub fn check_timing(pre: &Preprocessed, assignment: &[usize]) -> Result<(), usize> {
    assert_eq!(assignment.len(), pre.n_rows(), "one level per row required");
    match pre.paths().position(|path| !path.satisfied(assignment)) {
        Some(k) => Err(k),
        None => Ok(()),
    }
}

/// Incremental timing checker: maintains per-path reductions so that moving
/// one row between levels costs `O(paths touching that row)` instead of a
/// full re-check — this is what makes the two-pass heuristic's inner loop
/// linear in practice.
///
/// A move walks the row's entries through the index stored with the
/// problem's tables ([`Preprocessed::row_entries`]), so a state builds no
/// index of its own. Every path's running reduction follows one fixed
/// sequence of `f64` operations, which keeps heuristic answers
/// bit-reproducible: the initial sums run in each path's row order (as
/// [`check_timing`] sums), a move adds `reds[level] − reds[old]`, and a
/// move [`CheckState::try_set_level`] rejects writes nothing, so it leaves
/// every sum as it was.
#[derive(Debug, Clone)]
pub struct CheckState<'p> {
    pre: &'p Preprocessed,
    assignment: Vec<usize>,
    /// Current total reduction per path.
    reduction: Vec<f64>,
    /// Number of currently violated paths.
    violations: usize,
}

impl<'p> CheckState<'p> {
    /// Initializes the state for an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != pre.n_rows()`.
    pub fn new(pre: &'p Preprocessed, assignment: Vec<usize>) -> Self {
        assert_eq!(assignment.len(), pre.n_rows(), "one level per row required");
        let reduction: Vec<f64> = pre.paths().map(|path| path.reduction(&assignment)).collect();
        let violations = pre
            .paths()
            .zip(&reduction)
            .filter(|&(path, &red)| red + 1e-9 < path.required_reduction_ps())
            .count();
        CheckState { pre, assignment, reduction, violations }
    }

    /// Current assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Whether every constraint currently holds.
    pub fn feasible(&self) -> bool {
        self.violations == 0
    }

    /// Moves `row` to `level`, updating affected paths incrementally.
    pub fn set_level(&mut self, row: usize, level: usize) {
        let old = self.assignment[row];
        if old == level {
            return;
        }
        let pre = self.pre;
        for (k, reds) in pre.row_entries(row) {
            let required = pre.path(k).required_reduction_ps();
            let before_ok = self.reduction[k] + 1e-9 >= required;
            self.reduction[k] += reds[level] - reds[old];
            let after_ok = self.reduction[k] + 1e-9 >= required;
            match (before_ok, after_ok) {
                (true, false) => self.violations += 1,
                (false, true) => self.violations -= 1,
                _ => {}
            }
        }
        self.assignment[row] = level;
    }

    /// Moves `row` to `level` if every constraint holds afterwards, and
    /// returns whether the move was kept; otherwise nothing is written.
    ///
    /// The verdict is the one [`CheckState::set_level`] followed by
    /// [`CheckState::feasible`] would give: it is read first, from the same
    /// `f64` expressions `set_level` would store, and only a kept move is
    /// then made through `set_level`.
    ///
    /// Telemetry: every call counts as a `core_demotion_attempts`; rejected
    /// moves additionally count as `core_demotion_rollbacks` (PassTwo's
    /// failure rate; nothing is rolled back, but the name is part of the
    /// telemetry interface).
    pub fn try_set_level(&mut self, row: usize, level: usize) -> bool {
        fbb_telemetry::counter("core_demotion_attempts", 1);
        let kept = self.keeps(row, level);
        if kept {
            self.set_level(row, level);
        } else {
            fbb_telemetry::counter("core_demotion_rollbacks", 1);
        }
        kept
    }

    /// Whether moving `row` to `level` leaves no path violated, without
    /// writing. Each path crossing the row gets the value `set_level` would
    /// store, `reduction[k] + (reds[level] − reds[old])`; the first path
    /// the move breaks decides, and otherwise the move is kept iff the
    /// paths it repairs are all the current violations. Each path crosses
    /// a row at most once ([`Preprocessed::validate`]), so one entry per
    /// path decides that path.
    fn keeps(&self, row: usize, level: usize) -> bool {
        let old = self.assignment[row];
        let pre = self.pre;
        let mut repaired = 0;
        for (k, reds) in pre.row_entries(row) {
            let required = pre.path(k).required_reduction_ps();
            let before_ok = self.reduction[k] + 1e-9 >= required;
            let after_ok = self.reduction[k] + (reds[level] - reds[old]) + 1e-9 >= required;
            match (before_ok, after_ok) {
                (true, false) => return false,
                (false, true) => repaired += 1,
                _ => {}
            }
        }
        repaired == self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FbbProblem, Preprocessed};
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn pre() -> Preprocessed {
        let nl = generators::ripple_adder("a24", 24, false).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(6)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(&nl, &p, &chara, 0.05, 3).unwrap().preprocess().unwrap()
    }

    #[test]
    fn full_check_matches_path_predicate() {
        let pre = pre();
        let nbb = vec![0usize; pre.n_rows()];
        assert!(check_timing(&pre, &nbb).is_err());
        let max = vec![pre.levels() - 1; pre.n_rows()];
        assert!(check_timing(&pre, &max).is_ok());
    }

    #[test]
    fn incremental_matches_full_check_under_random_moves() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let pre = pre();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut state = CheckState::new(&pre, vec![pre.levels() - 1; pre.n_rows()]);
        for _ in 0..300 {
            let row = rng.gen_range(0..pre.n_rows());
            let level = rng.gen_range(0..pre.levels());
            state.set_level(row, level);
            assert_eq!(
                state.feasible(),
                check_timing(&pre, state.assignment()).is_ok(),
                "divergence at assignment {:?}",
                state.assignment()
            );
        }
    }

    /// A state's assignment, reductions (as bits) and violation count.
    fn bits(state: &CheckState<'_>) -> (Vec<usize>, Vec<u64>, usize) {
        let reduction = state.reduction.iter().map(|r| r.to_bits()).collect();
        (state.assignment.clone(), reduction, state.violations)
    }

    #[test]
    fn try_set_level_reverts_on_violation() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let pre = pre();
        let mut state = CheckState::new(&pre, vec![pre.levels() - 1; pre.n_rows()]);
        assert!(state.feasible());
        // Find a row whose drop to NBB violates timing (the most critical
        // row usually does); if some row tolerates it, the move is kept.
        for row in 0..pre.n_rows() {
            let before = state.assignment()[row];
            let kept = state.try_set_level(row, 0);
            if kept {
                assert_eq!(state.assignment()[row], 0);
                state.set_level(row, before); // restore for next iteration
            } else {
                assert_eq!(state.assignment()[row], before);
            }
            assert!(state.feasible());
        }

        // Random moves from feasible and infeasible states. The verdict is
        // `set_level` + `feasible` on a clone; a kept move leaves the
        // clone's state, and a rejected one leaves the state untouched, to
        // the bit. Between probes the state wanders: down at random while
        // feasible, back up to the top level while not.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut seen = [[0usize; 2]; 2]; // [started feasible][kept]
        for _ in 0..4000 {
            let (row, level) = (rng.gen_range(0..pre.n_rows()), rng.gen_range(0..pre.levels()));
            let started_feasible = state.feasible();
            let before = bits(&state);
            let mut reference = state.clone();
            reference.set_level(row, level);
            let kept = state.try_set_level(row, level);
            assert_eq!(kept, reference.feasible(), "verdict of row {row} -> level {level}");
            if kept {
                assert_eq!(bits(&state), bits(&reference), "kept move of row {row} -> {level}");
            } else {
                assert_eq!(bits(&state), before, "rejected move of row {row} -> {level} wrote");
            }
            seen[usize::from(started_feasible)][usize::from(kept)] += 1;
            let row = rng.gen_range(0..pre.n_rows());
            let level =
                if state.feasible() { rng.gen_range(0..pre.levels()) } else { pre.levels() - 1 };
            state.set_level(row, level);
        }
        assert!(seen.iter().flatten().all(|&n| n > 0), "some kind of move never ran: {seen:?}");
    }
}
