//! Pins "one cold solve per tree": the root relaxation is solved cold
//! once, every later root cut round re-optimizes from the previous round's
//! basis, and the root node inherits the last one. With `warm_start: false`
//! every round and node solves cold, and both trees land on the same
//! answer. The model is all binaries, so every cold solve takes the dual
//! start from the slack basis, never two-phase; and the default tree
//! re-installs some basis whose LU the engine already holds.

use std::collections::BTreeMap;
use std::sync::Mutex;

use fbb_lp::{solve_mip, MipOptions, MipSolution, MipStatus, Model, Sense};

/// Telemetry is process-global; tests that enable/reset it must not
/// interleave.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// An FBB-shaped clustered allocation: `rows` rows pick one of `levels`
/// bias levels (Eq. 3), path rows demand a minimum summed level (Eq. 2),
/// and aggregated big-N linking rows plus a cluster budget tie the levels
/// to `clusters` open clusters (Eq. 4). Each row prefers a different level,
/// so the budget forces a real choice and the weak linking rows leave the
/// root fractional over several separation rounds.
fn clustered_model(rows: usize, levels: usize, paths: usize, clusters: usize) -> Model {
    let mut m = Model::new();
    let x: Vec<Vec<usize>> = (0..rows)
        .map(|i| {
            let pref = (i * 7 + 3) % levels;
            (0..levels)
                .map(|j| {
                    let dist = (j as f64 - pref as f64).abs();
                    m.add_binary(1.0 + 0.4 * dist + 0.03 * j as f64 + 0.01 * i as f64)
                })
                .collect()
        })
        .collect();
    for row in &x {
        m.add_constraint(row.iter().map(|&v| (v, 1.0)).collect(), Sense::Eq, 1.0)
            .expect("valid row");
    }
    for k in 0..paths {
        let terms: Vec<(usize, f64)> = x
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + k) % 3 == 0)
            .flat_map(|(_, xi)| xi.iter().enumerate().map(|(j, &v)| (v, j as f64)))
            .collect();
        if !terms.is_empty() {
            m.add_constraint(terms, Sense::Ge, (levels / 2) as f64).expect("valid row");
        }
    }
    let y: Vec<usize> = (0..levels).map(|_| m.add_binary(0.0)).collect();
    for (j, &yj) in y.iter().enumerate() {
        m.set_branch_priority(yj, 10);
        let mut terms: Vec<(usize, f64)> = (0..rows).map(|i| (i * levels + j, 1.0)).collect();
        terms.push((yj, -(rows as f64)));
        m.add_constraint(terms, Sense::Le, 0.0).expect("valid row");
    }
    m.add_constraint(y.iter().map(|&v| (v, 1.0)).collect(), Sense::Le, clusters as f64)
        .expect("valid row");
    m
}

/// Solves under telemetry and returns the solution with its counters.
fn solve_counted(model: &Model, options: &MipOptions) -> (MipSolution, BTreeMap<String, u64>) {
    let _guard = TELEMETRY_LOCK.lock().expect("telemetry lock poisoned");
    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let s = solve_mip(model, options, None).expect("solve");
    let counters = fbb_telemetry::snapshot().counters;
    fbb_telemetry::disable();
    fbb_telemetry::reset();
    (s, counters)
}

fn count(counters: &BTreeMap<String, u64>, key: &str) -> u64 {
    counters.get(key).copied().unwrap_or(0)
}

#[test]
fn default_tree_solves_cold_once_and_matches_the_cold_tree() {
    let model = clustered_model(13, 11, 30, 3);

    let (warm, wc) = solve_counted(&model, &MipOptions::default());
    let rounds = count(&wc, "bnb_cut_rounds");
    assert!(rounds >= 2, "the model must separate cuts in at least 2 rounds, got {rounds}");
    assert_eq!(
        count(&wc, "lp_simplex_cold_solves"),
        1,
        "a default tree solves cold only its first root round: {wc:?}"
    );
    assert_eq!(
        count(&wc, "lp_dual_cold_starts"),
        1,
        "the one cold solve takes the dual start: {wc:?}"
    );
    assert_eq!(count(&wc, "bnb_warm_start_fallbacks"), 0);
    assert!(
        count(&wc, "lp_factor_reuses") >= 1,
        "a sibling or probe re-installs a basis whose LU is in place: {wc:?}"
    );
    assert!(
        count(&wc, "bnb_warm_starts") >= rounds - 1 + warm.nodes as u64,
        "every later root round and every node re-optimizes warm: {wc:?}"
    );

    let cold_opts = MipOptions { warm_start: false, ..MipOptions::default() };
    let (cold, cc) = solve_counted(&model, &cold_opts);
    let cold_solves = count(&cc, "lp_simplex_cold_solves");
    assert_eq!(
        cold_solves,
        count(&cc, "lp_simplex_solves"),
        "warm_start: false must never take the warm path: {cc:?}"
    );
    assert!(
        cold_solves >= count(&cc, "bnb_cut_rounds") + cold.nodes as u64,
        "every root round and every node solves cold: {cc:?}"
    );
    assert_eq!(
        count(&cc, "lp_dual_cold_starts"),
        cold_solves,
        "every cold solve takes the dual start: {cc:?}"
    );
    assert_eq!(count(&cc, "bnb_warm_starts"), 0);

    assert_eq!(warm.status, MipStatus::Optimal);
    assert_eq!(warm.status, cold.status);
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
}
