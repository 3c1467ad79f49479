//! Per-budget reference for the two-pass heuristic's `MaxDrop` reading.
//!
//! `TwoPassHeuristic` takes every cluster budget's `PassTwo` candidate from
//! one descent, forking a copy of its state where each budget runs out.
//! This oracle is the plain definition that descent must reproduce: one
//! independent descent per budget `1..=C`, each from a fresh
//! [`CheckState`], then the first candidate of least leakage in budget
//! order. It is built on the public API only (`check_timing`, `CheckState`,
//! `row_criticality`, `leakage_nw`), so the heuristic's answer, leakage
//! bits included, must equal it exactly.

use fbb_core::{check_timing, CheckState, Preprocessed};

/// The heuristic's answer by the per-budget definition: the assignment
/// `TwoPassHeuristic::solve` (with `allowed = None`) or `solve_restricted`
/// (with the allowed menu) must return, or `None` when no (allowed) level
/// compensates β uniformly.
///
/// Allowed levels outside the ladder are ignored. `C` must be at least 1,
/// as `FbbProblem` requires. Budgets past `P` are not run: at most `P`
/// levels can be open, so such a budget never runs out and repeats the
/// budget-`P` candidate, which the first-minimum fold keeps.
pub fn solve(pre: &Preprocessed, allowed: Option<&[usize]>) -> Option<Vec<usize>> {
    let usable = |level: usize| allowed.is_none_or(|menu| menu.contains(&level));
    // PassOne: the lowest usable uniform level meeting timing.
    let jopt = (0..pre.levels())
        .filter(|&level| usable(level))
        .find(|&level| check_timing(pre, &vec![level; pre.n_rows()]).is_ok())?;

    let ranked = ranked_rows(pre);
    (1..=pre.max_clusters.min(pre.levels()))
        .map(|budget| descend(pre, &ranked, jopt, budget, &usable))
        .min_by(|a, b| {
            pre.leakage_nw(a)
                .partial_cmp(&pre.leakage_nw(b))
                .expect("leakage is finite")
        })
}

/// Rows in increasing criticality, ties broken by row index.
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

/// One `MaxDrop` descent from the uniform `jopt` under a `budget` of
/// distinct levels: each row, least critical first, drops to its lowest
/// feasible usable level below `jopt`. A level not yet in use is opened
/// while fewer than `budget` levels are; otherwise the row goes back to
/// `jopt` and takes the lowest feasible level already in use above the one
/// it found.
fn descend(
    pre: &Preprocessed,
    ranked: &[usize],
    jopt: usize,
    budget: usize,
    usable: &dyn Fn(usize) -> bool,
) -> Vec<usize> {
    let mut state = CheckState::new(pre, vec![jopt; pre.n_rows()]);
    let mut open = vec![jopt];
    for &row in ranked {
        let Some(level) = (0..jopt)
            .filter(|&l| usable(l))
            .find(|&l| state.try_set_level(row, l))
        else {
            continue;
        };
        if open.contains(&level) {
            continue;
        }
        if open.len() < budget {
            open.push(level);
            continue;
        }
        let mut above: Vec<usize> = open.iter().copied().filter(|&l| l > level).collect();
        above.sort_unstable();
        state.set_level(row, jopt);
        for l in above {
            if state.try_set_level(row, l) {
                break;
            }
        }
    }
    state.assignment().to_vec()
}
