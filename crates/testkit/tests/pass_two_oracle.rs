//! The heuristic's single `PassTwo` descent against the per-budget
//! reference (`oracle::pass_two`).
//!
//! `TwoPassHeuristic` ranks every cluster budget's candidate from one
//! descent, forking a copy of its state where each budget runs out. On
//! random `gen::random_cluster` instances, at every cluster budget from 1
//! to past the level count, with the full ladder and with random allowed
//! menus, `solve` and `solve_restricted` must return the reference's
//! assignment and its leakage as the same `f64` bits. Placed generator
//! designs on the paper's 11-level ladder add long descents with every
//! budget up to `P`.

use fbb_core::{ClusterSolution, FbbError, FbbProblem, Preprocessed, TwoPassHeuristic};
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};
use fbb_testkit::{gen, oracle};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Asserts that `answer` (a heuristic solve) is the reference's answer for
/// `pre` under the menu `allowed`.
fn assert_matches_reference(
    pre: &Preprocessed,
    allowed: Option<&[usize]>,
    answer: Result<ClusterSolution, FbbError>,
) -> Result<(), TestCaseError> {
    match (answer, oracle::pass_two::solve(pre, allowed)) {
        (Ok(sol), Some(reference)) => {
            prop_assert_eq!(
                &sol.assignment,
                &reference,
                "C = {}, menu {:?}: heuristic {:?} vs reference {:?}",
                pre.max_clusters,
                allowed,
                sol.assignment,
                reference
            );
            prop_assert_eq!(
                sol.leakage_nw.to_bits(),
                pre.leakage_nw(&reference).to_bits()
            );
        }
        (Err(_), None) => {}
        (answer, reference) => prop_assert!(
            false,
            "C = {}, menu {:?}: heuristic {:?} vs reference {:?}",
            pre.max_clusters,
            allowed,
            answer.map(|sol| sol.assignment),
            reference
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn pass_two_matches_the_per_budget_reference(seed in any::<u64>(), menu_bits in any::<u8>()) {
        let mut pre = gen::random_cluster(&mut gen::case_rng(seed, 0));
        // A random menu over the ladder and one level past it, which both
        // the heuristic and the reference ignore.
        let menu: Vec<usize> = (0..=pre.levels()).filter(|&l| menu_bits >> l & 1 == 1).collect();
        for c in 1..=pre.levels() + 1 {
            pre.max_clusters = c;
            let heuristic = TwoPassHeuristic;
            assert_matches_reference(&pre, None, heuristic.solve(&pre))?;
            assert_matches_reference(&pre, Some(&menu), heuristic.solve_restricted(&pre, &menu))?;
        }
    }
}

#[test]
fn pass_two_matches_the_per_budget_reference_on_placed_designs() {
    let library = Library::date09_45nm();
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().unwrap(),
    );
    let designs = [
        generators::ripple_adder("adder32", 32, false).unwrap(),
        generators::alu("alu24", 24).unwrap(),
        generators::carry_select_adder("csa32", 32, 4).unwrap(),
    ];
    // Every third level, the shared-generator menu of `solve_restricted`.
    let menu: Vec<usize> = (0..11).step_by(3).collect();
    for netlist in &designs {
        for rows in [6, 12] {
            let placement = Placer::new(PlacerOptions::with_target_rows(rows))
                .place(netlist, &library)
                .unwrap();
            for beta in [0.03, 0.05, 0.08, 0.10] {
                let mut pre = FbbProblem::new(netlist, &placement, &chara, beta, 1)
                    .unwrap()
                    .preprocess()
                    .unwrap();
                for c in 1..=pre.levels() {
                    pre.max_clusters = c;
                    let heuristic = TwoPassHeuristic;
                    assert_matches_reference(&pre, None, heuristic.solve(&pre)).unwrap();
                    assert_matches_reference(
                        &pre,
                        Some(&menu),
                        heuristic.solve_restricted(&pre, &menu),
                    )
                    .unwrap();
                }
            }
        }
    }
}
