//! Property tests for `Preprocessed` views over shared tables.
//!
//! A view sets `P` (`restrict_levels`) and `C` (`max_clusters`) over the
//! tables it shares with its parent, and `CheckState` walks those tables
//! through their row index. Two properties pin that nothing is lost on the
//! way, on random `gen::random_cluster` instances and every view of them:
//!
//! * `CheckState` agrees with a full `check_timing` after every
//!   `set_level` and `try_set_level`;
//! * a view answers exactly like the same problem built directly at its
//!   level count: equal as values, and equal heuristic and ILP answers,
//!   leakage compared as `f64` bits.

use fbb_core::{check_timing, CheckState, IlpAllocator, TwoPassHeuristic};
use fbb_testkit::gen;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn check_state_tracks_check_timing_on_every_view(
        seed in any::<u64>(),
        moves in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 1..48),
    ) {
        let pre = gen::random_cluster(&mut gen::case_rng(seed, 0));
        for p in 1..=pre.levels() {
            let view = pre.restrict_levels(p).unwrap();
            let mut state = CheckState::new(&view, vec![p - 1; view.n_rows()]);
            prop_assert_eq!(state.feasible(), check_timing(&view, state.assignment()).is_ok());
            for &(row, level, tentative) in &moves {
                let (row, level) = (row % view.n_rows(), level % p);
                if tentative {
                    let before = state.assignment().to_vec();
                    let kept = state.try_set_level(row, level);
                    if !kept {
                        prop_assert_eq!(state.assignment(), &before[..]);
                    }
                } else {
                    state.set_level(row, level);
                }
                prop_assert_eq!(
                    state.feasible(),
                    check_timing(&view, state.assignment()).is_ok(),
                    "P = {}, assignment {:?}", p, state.assignment()
                );
            }
        }
    }

    #[test]
    fn views_solve_like_problems_built_at_their_level_count(seed in any::<u64>()) {
        let pre = gen::random_cluster(&mut gen::case_rng(seed, 1));
        for p in 1..=pre.levels() {
            for c in 1..=p + 1 {
                let mut view = pre.restrict_levels(p).unwrap();
                view.max_clusters = c;
                let mut direct = gen::rebuild(&pre, p, pre.paths());
                direct.max_clusters = c;
                prop_assert_eq!(&view, &direct);

                let heuristic = TwoPassHeuristic::default();
                match (heuristic.solve(&view), heuristic.solve(&direct)) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.assignment, b.assignment);
                        prop_assert_eq!(a.leakage_nw.to_bits(), b.leakage_nw.to_bits());
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(false, "P = {p}, C = {c}: {a:?} vs {b:?}"),
                }

                let ilp_view = IlpAllocator::default().solve(&view).unwrap();
                let ilp_direct = IlpAllocator::default().solve(&direct).unwrap();
                prop_assert_eq!(ilp_view.proven_optimal, ilp_direct.proven_optimal);
                prop_assert_eq!(
                    ilp_view.solution.map(|s| (s.assignment, s.leakage_nw.to_bits())),
                    ilp_direct.solution.map(|s| (s.assignment, s.leakage_nw.to_bits()))
                );
            }
        }
    }
}
