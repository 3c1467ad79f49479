//! Property tests over the allocation pipeline: random circuits, random
//! problem parameters — the allocators must uphold their invariants.

use fbb_core::{
    check_timing, pass_one, single_bb, CheckState, DescentPolicy, FbbProblem, Granularity,
    IlpAllocator, Preprocessed, TwoPassHeuristic,
};
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators::{random_logic, RandomLogicOptions};
use fbb_placement::{Placer, PlacerOptions};
use proptest::prelude::*;

fn random_problem(seed: u64, gates: usize, rows: u32, beta: f64, c: usize) -> Preprocessed {
    let nl = random_logic(
        "p",
        &RandomLogicOptions {
            target_gates: gates,
            n_inputs: 12,
            seed,
            registered: false,
            locality_window: 24,
        },
    )
    .expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions {
        target_rows: Some(rows),
        anneal_moves: 500,
        ..PlacerOptions::default()
    })
    .place(&nl, &library)
    .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    FbbProblem::new(&nl, &placement, &chara, beta, c)
        .expect("valid parameters")
        .preprocess()
        .expect("acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn heuristic_solutions_are_always_feasible_and_within_budget(
        seed in 0u64..1000,
        beta in 0.02f64..0.10,
        c in 1usize..=4,
    ) {
        let pre = random_problem(seed, 180, 6, beta, c);
        for policy in [DescentPolicy::MaxDrop, DescentPolicy::BlockSynchronous, DescentPolicy::Literal] {
            match TwoPassHeuristic::with_policy(policy).solve(&pre) {
                Ok(sol) => {
                    prop_assert!(sol.meets_timing, "{policy:?}");
                    prop_assert!(sol.clusters <= c, "{policy:?}");
                    prop_assert!(check_timing(&pre, &sol.assignment).is_ok());
                }
                Err(_) => {
                    // Uncompensable must mean even full bias fails PassOne.
                    prop_assert!(pass_one(&pre).is_none());
                }
            }
        }
    }

    #[test]
    fn ilp_never_loses_to_the_heuristic(
        seed in 0u64..500,
        beta in 0.03f64..0.08,
    ) {
        let pre = random_problem(seed, 120, 5, beta, 2);
        let Ok(heur) = TwoPassHeuristic::default().solve(&pre) else { return Ok(()); };
        let out = IlpAllocator::default().solve(&pre).expect("solver runs");
        let sol = out.solution.expect("heuristic feasible implies ILP feasible");
        prop_assert!(out.proven_optimal);
        prop_assert!(sol.meets_timing);
        prop_assert!(sol.leakage_nw <= heur.leakage_nw + 1e-6,
            "ilp {} > heuristic {}", sol.leakage_nw, heur.leakage_nw);
        prop_assert!(sol.clusters <= 2);
    }

    #[test]
    fn incremental_check_state_matches_full_check(
        seed in 0u64..500,
        moves in proptest::collection::vec((0usize..6, 0usize..11), 1..40),
    ) {
        let pre = random_problem(seed, 120, 6, 0.05, 3);
        let mut state = CheckState::new(&pre, vec![pre.levels() - 1; pre.n_rows()]);
        for (row, level) in moves {
            state.set_level(row.min(pre.n_rows() - 1), level.min(pre.levels() - 1));
            prop_assert_eq!(state.feasible(), check_timing(&pre, state.assignment()).is_ok());
        }
    }

    #[test]
    fn single_bb_is_the_worst_feasible_uniform_choice(
        seed in 0u64..500,
        beta in 0.02f64..0.09,
    ) {
        let pre = random_problem(seed, 150, 5, beta, 3);
        let Ok(base) = single_bb(&pre) else { return Ok(()); };
        let jopt = base.assignment[0];
        // Any uniform level above jopt is feasible but leaks more.
        for j in jopt + 1..pre.levels() {
            let uniform = vec![j; pre.n_rows()];
            prop_assert!(check_timing(&pre, &uniform).is_ok());
            prop_assert!(pre.leakage_nw(&uniform) > base.leakage_nw);
        }
        // Any uniform level below jopt is infeasible (PassOne minimality).
        for j in 0..jopt {
            let uniform = vec![j; pre.n_rows()];
            prop_assert!(check_timing(&pre, &uniform).is_err());
        }
    }

    #[test]
    fn granularities_order_savings_block_row_gate(seed in 0u64..200) {
        let nl = random_logic(
            "p",
            &RandomLogicOptions {
                target_gates: 150,
                n_inputs: 12,
                seed,
                registered: false,
                locality_window: 24,
            },
        )
        .expect("valid generator");
        let library = Library::date09_45nm();
        let placement = Placer::new(PlacerOptions {
            target_rows: Some(5),
            anneal_moves: 0,
            ..PlacerOptions::default()
        })
        .place(&nl, &library)
        .expect("placeable");
        let chara = library.characterize(
            &BodyBiasModel::date09_45nm(),
            &BiasLadder::date09().expect("valid ladder"),
        );
        let problem = FbbProblem::new(&nl, &placement, &chara, 0.05, 3).expect("valid");

        let mut leak = Vec::new();
        for g in [Granularity::Block, Granularity::Row, Granularity::Gate] {
            let pre = problem.preprocess_at(g).expect("acyclic");
            let Ok(sol) = TwoPassHeuristic::default().solve(&pre) else { return Ok(()); };
            prop_assert!(sol.meets_timing);
            leak.push(sol.leakage_nw);
        }
        // The greedy always starts from the uniform-jopt solution and only
        // keeps improving moves, so any clustered granularity beats the
        // block baseline. (Gate-vs-row ordering is not guaranteed for a
        // greedy; the ILP property covers optimal orderings.)
        prop_assert!(leak[1] <= leak[0] + 1e-6, "row worse than block");
        prop_assert!(leak[2] <= leak[0] + 1e-6, "gate worse than block");
    }
}
