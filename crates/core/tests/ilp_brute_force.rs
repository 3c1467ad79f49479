//! Exhaustive cross-check of the ILP formulation (Eq. 1–5): on problems
//! small enough to enumerate every row→level assignment, the ILP must find
//! exactly the optimum of the enumerated space.

use fbb_core::{check_timing, FbbProblem, IlpAllocator, Preprocessed};
use fbb_device::{BiasLadder, BiasVoltage, BodyBiasModel, Library};
use fbb_netlist::generators::{random_logic, RandomLogicOptions};
use fbb_placement::{Placer, PlacerOptions};
use proptest::prelude::*;

/// Builds a tiny problem: few rows, short ladder.
fn tiny_problem(seed: u64, rows: u32, beta: f64, c: usize) -> Preprocessed {
    let nl = random_logic(
        "t",
        &RandomLogicOptions {
            target_gates: 60,
            n_inputs: 6,
            seed,
            registered: false,
            locality_window: 12,
        },
    )
    .expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions {
        target_rows: Some(rows),
        anneal_moves: 0,
        ..PlacerOptions::default()
    })
    .place(&nl, &library)
    .expect("placeable");
    // A short 4-level ladder keeps the enumeration tractable.
    let ladder = BiasLadder::from_levels(vec![
        BiasVoltage::ZERO,
        BiasVoltage::from_millivolts(150),
        BiasVoltage::from_millivolts(300),
        BiasVoltage::from_millivolts(450),
    ])
    .expect("valid ladder");
    let chara = library.characterize(&BodyBiasModel::date09_45nm(), &ladder);
    FbbProblem::new(&nl, &placement, &chara, beta, c)
        .expect("valid parameters")
        .preprocess()
        .expect("acyclic")
}

/// Enumerates every assignment; returns the minimum leakage among feasible
/// ones respecting the cluster budget.
fn brute_force_optimum(pre: &Preprocessed) -> Option<f64> {
    let n = pre.n_rows();
    let p = pre.levels();
    let mut best: Option<f64> = None;
    let total = (p as u64).pow(n as u32);
    assert!(total <= 1 << 20, "enumeration too large");
    for code in 0..total {
        let mut assignment = Vec::with_capacity(n);
        let mut c = code;
        for _ in 0..n {
            assignment.push((c % p as u64) as usize);
            c /= p as u64;
        }
        if Preprocessed::cluster_count(&assignment) > pre.max_clusters {
            continue;
        }
        if check_timing(pre, &assignment).is_err() {
            continue;
        }
        let leak = pre.leakage_nw(&assignment);
        best = Some(best.map_or(leak, |b: f64| b.min(leak)));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn ilp_matches_exhaustive_enumeration(
        seed in 0u64..2_000,
        rows in 3u32..=5,
        beta in 0.02f64..0.08,
        c in 2usize..=3,
    ) {
        let pre = tiny_problem(seed, rows, beta, c);
        let truth = brute_force_optimum(&pre);
        let out = IlpAllocator::default().solve(&pre).expect("solver runs");
        match truth {
            None => prop_assert!(out.solution.is_none(),
                "ILP found a solution but enumeration says infeasible"),
            Some(best) => {
                let sol = out.solution.expect("enumeration found a feasible point");
                prop_assert!(out.proven_optimal);
                prop_assert!(sol.meets_timing);
                prop_assert!(sol.clusters <= c);
                prop_assert!((sol.leakage_nw - best).abs() < 1e-6,
                    "ILP {} vs exhaustive {}", sol.leakage_nw, best);
            }
        }
    }
}
