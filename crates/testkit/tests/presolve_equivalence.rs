//! The §5j equivalence layer: the transforming presolve and the root cut
//! separation must be *invisible* in the answer.
//!
//! Over seeded random streams, toggling `MipOptions::presolve` (and
//! `cuts` / `pseudocost`) must not change the status, the objective bits
//! (`f64::to_bits`), or the decoded row→level assignment — the reductions
//! may only change how *fast* the tree gets there. Limited exits are held
//! to the honesty contract instead: whatever the toggle, `best_bound` must
//! never exceed the brute-force optimum and an incumbent must never beat
//! it.
//!
//! The pure-LP stream rides along for free: presolve and cuts gate on
//! `Model::has_integers()`, so continuous models must be bit-identical in
//! every field, including the full solution vector.

use std::time::Duration;

use fbb_core::IlpAllocator;
use fbb_lp::{solve_mip, MipOptions, MipStatus};
use fbb_testkit::gen;
use fbb_testkit::oracle::enumerate;

/// Cases per stream. Matches the difftest default order of magnitude: big
/// enough to hit infeasible instances (~1 path in 10 is uncompensable),
/// small enough for a debug-profile test run.
const CASES: u64 = 48;
const SEED: u64 = 0x5E1F;

/// Every §5j feature off: the bit-exactness baseline.
fn raw_options() -> MipOptions {
    MipOptions { presolve: false, cuts: false, pseudocost: false, ..MipOptions::default() }
}

/// Everything on, with the generator's structural hints — the production
/// configuration `IlpAllocator::solve` runs.
fn full_options(pre: &fbb_core::Preprocessed) -> MipOptions {
    MipOptions { hints: Some(IlpAllocator::structure_hints(pre)), ..MipOptions::default() }
}

/// Decodes the x-block of a cluster-model solution into one level per row
/// (argmax over the row's level indicators). The y-block is deliberately
/// ignored: an unused cluster's indicator can sit at either bound in an
/// optimal vertex, so alternative optima differ there without differing in
/// the answer.
fn decode_assignment(x: &[f64], n_rows: usize, levels: usize) -> Vec<usize> {
    (0..n_rows)
        .map(|i| {
            (0..levels)
                .max_by(|&a, &b| x[i * levels + a].total_cmp(&x[i * levels + b]))
                .expect("levels >= 1")
        })
        .collect()
}

/// Solves one generated cluster instance under two option sets and asserts
/// bit-exact agreement on status, objective, and decoded assignment.
/// Returns the common status for stream-coverage accounting.
fn assert_equivalent(case: u64, a: &MipOptions, b: &MipOptions, label: &str) -> MipStatus {
    let mut rng = gen::case_rng(SEED, case);
    let pre = gen::random_cluster(&mut rng);
    let model = IlpAllocator::default().build_model(&pre).expect("model build");

    let sa = solve_mip(&model, a, None).expect("solve A");
    let sb = solve_mip(&model, b, None).expect("solve B");

    assert_eq!(sa.status, sb.status, "[{label} case {case}] status diverged");
    match sa.status {
        MipStatus::Optimal => {
            assert_eq!(
                sa.objective.to_bits(),
                sb.objective.to_bits(),
                "[{label} case {case}] objective bits diverged: {} vs {}",
                sa.objective,
                sb.objective
            );
            assert_eq!(
                decode_assignment(&sa.x, pre.n_rows(), pre.levels()),
                decode_assignment(&sb.x, pre.n_rows(), pre.levels()),
                "[{label} case {case}] decoded assignment diverged"
            );
            assert_eq!(
                sa.best_bound.to_bits(),
                sa.objective.to_bits(),
                "[{label} case {case}] an Optimal exit must pin best_bound to the objective"
            );
            // Both must sit on the enumerated optimum — agreement alone
            // could also mean agreeing on the same wrong answer.
            let best = enumerate::best_assignment(&pre).expect("oracle finds the optimum");
            let tol = 1e-6 * best.leakage_nw.max(1.0);
            assert!(
                (sa.objective - best.leakage_nw).abs() <= tol,
                "[{label} case {case}] objective {} vs enumerated optimum {}",
                sa.objective,
                best.leakage_nw
            );
        }
        MipStatus::Infeasible => {
            assert!(sa.x.is_empty() && sb.x.is_empty(), "[{label} case {case}] infeasible with x");
            assert_eq!(
                sa.best_bound.to_bits(),
                sb.best_bound.to_bits(),
                "[{label} case {case}] infeasible bound diverged"
            );
            assert!(
                enumerate::best_assignment(&pre).is_none(),
                "[{label} case {case}] engines agree on Infeasible but the oracle disagrees"
            );
        }
        other => panic!("[{label} case {case}] unlimited solve ended {other:?}"),
    }
    sa.status
}

#[test]
fn presolve_toggle_is_bit_invisible_on_cluster_streams() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    for case in 0..CASES {
        let mut rng = gen::case_rng(SEED, case);
        let pre = gen::random_cluster(&mut rng);
        let full = full_options(&pre);
        match assert_equivalent(case, &full, &raw_options(), "presolve") {
            MipStatus::Optimal => optimal += 1,
            MipStatus::Infeasible => infeasible += 1,
            _ => unreachable!("assert_equivalent rejects limited exits"),
        }
    }
    // The stream must genuinely exercise both verdicts, or the suite is
    // quietly pinning nothing.
    assert!(optimal >= 10, "only {optimal} optimal cases — generator drifted");
    assert!(infeasible >= 1, "no infeasible case in {CASES} — generator drifted");
}

#[test]
fn cuts_toggle_is_bit_invisible_on_cluster_streams() {
    // Cuts isolated from the other features: any divergence here is the
    // separator's fault, not presolve's.
    let cuts_only = MipOptions { presolve: false, pseudocost: false, ..MipOptions::default() };
    for case in 0..CASES {
        assert_equivalent(case, &cuts_only, &raw_options(), "cuts");
    }
}

#[test]
fn pure_lp_stream_is_bit_identical_in_every_field() {
    for case in 0..CASES {
        let mut rng = gen::case_rng(SEED ^ 0x1, case);
        let inst = gen::random_lp(&mut rng);
        let model = inst.to_model();
        let full = solve_mip(&model, &MipOptions::default(), None).expect("full solve");
        let raw = solve_mip(&model, &raw_options(), None).expect("raw solve");
        assert_eq!(full.status, raw.status, "case {case}: LP status diverged");
        assert_eq!(
            full.objective.to_bits(),
            raw.objective.to_bits(),
            "case {case}: LP objective bits diverged"
        );
        assert_eq!(full.x.len(), raw.x.len(), "case {case}: LP point length diverged");
        for (j, (a, b)) in full.x.iter().zip(raw.x.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}: LP x[{j}] bits diverged");
        }
    }
}

#[test]
fn node_limited_exits_keep_an_honest_bound() {
    // A 1-node budget forces the limited exit almost everywhere. Whatever
    // the toggles, the reported bound must bracket the true optimum from
    // below and any incumbent from above — `PostsolveMap` must never
    // launder a reduced-space bound into an overclaim.
    for case in 0..CASES {
        let mut rng = gen::case_rng(SEED, case);
        let pre = gen::random_cluster(&mut rng);
        let model = IlpAllocator::default().build_model(&pre).expect("model build");
        let truth = enumerate::best_assignment(&pre);

        for (label, opts) in [
            ("full", MipOptions { node_limit: Some(1), ..full_options(&pre) }),
            ("raw", MipOptions { node_limit: Some(1), ..raw_options() }),
        ] {
            let sol = solve_mip(&model, &opts, None).expect("limited solve");
            match &truth {
                Some(best) => {
                    let tol = 1e-6 * best.leakage_nw.max(1.0);
                    assert!(
                        sol.best_bound <= best.leakage_nw + tol,
                        "[{label} case {case}] bound {} overclaims past the optimum {}",
                        sol.best_bound,
                        best.leakage_nw
                    );
                    if !sol.x.is_empty() {
                        assert!(
                            model.is_feasible(&sol.x, 1e-6),
                            "[{label} case {case}] limited exit reported an infeasible point"
                        );
                        assert!(
                            sol.objective >= best.leakage_nw - tol,
                            "[{label} case {case}] incumbent {} beats the enumerated optimum {}",
                            sol.objective,
                            best.leakage_nw
                        );
                    }
                    if sol.status == MipStatus::Optimal {
                        // Presolve may legitimately finish inside the node
                        // budget — but then it must have the right answer.
                        assert!(
                            (sol.objective - best.leakage_nw).abs() <= tol,
                            "[{label} case {case}] claimed Optimal at {} vs optimum {}",
                            sol.objective,
                            best.leakage_nw
                        );
                    }
                }
                None => {
                    assert!(
                        sol.x.is_empty(),
                        "[{label} case {case}] produced a point on an uncompensable instance"
                    );
                    assert_ne!(
                        sol.status,
                        MipStatus::Optimal,
                        "[{label} case {case}] Optimal without a point"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_time_budget_with_oracle_incumbent_stays_honest() {
    // Seed the solve with the enumerated optimum and an already-expired
    // clock: every configuration must come back Feasible (never a fake
    // proven Optimal), at exactly the incumbent's objective, with a bound
    // that does not overclaim. The presolve path exercises the incumbent
    // projection into reduced space and `fixed_cost` bound translation.
    let mut checked = 0usize;
    for case in 0..CASES {
        let mut rng = gen::case_rng(SEED, case);
        let pre = gen::random_cluster(&mut rng);
        let Some(best) = enumerate::best_assignment(&pre) else { continue };
        let model = IlpAllocator::default().build_model(&pre).expect("model build");

        // Lift the oracle assignment into model space: x one-hot per row,
        // y up for every used level.
        let (n, p) = (pre.n_rows(), pre.levels());
        let mut x = vec![0.0; model.var_count()];
        for (i, &level) in best.assignment.iter().enumerate() {
            x[i * p + level] = 1.0;
            x[n * p + level] = 1.0;
        }
        assert!(model.is_feasible(&x, 1e-6), "case {case}: oracle incumbent must lift cleanly");

        for (label, opts) in [
            ("full", MipOptions { time_limit: Some(Duration::ZERO), ..full_options(&pre) }),
            ("raw", MipOptions { time_limit: Some(Duration::ZERO), ..raw_options() }),
        ] {
            let sol = solve_mip(&model, &opts, Some((best.leakage_nw, x.clone())))
                .expect("zero-budget solve");
            assert_eq!(
                sol.status,
                MipStatus::Feasible,
                "[{label} case {case}] zero budget with an incumbent must report Feasible"
            );
            let tol = 1e-6 * best.leakage_nw.max(1.0);
            assert!(
                (sol.objective - best.leakage_nw).abs() <= tol,
                "[{label} case {case}] incumbent objective {} drifted from {}",
                sol.objective,
                best.leakage_nw
            );
            assert!(
                sol.best_bound <= best.leakage_nw + tol,
                "[{label} case {case}] bound {} overclaims past the optimum {}",
                sol.best_bound,
                best.leakage_nw
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} feasible cases reached the zero-budget drill");
}
