//! The §5j cut-validity oracle: a cutting plane may trim fractional
//! vertices, never integer ones.
//!
//! For seeded small cluster instances (≤ 12 gates, so the brute-force
//! enumerator is exact) the suite separates clique and cover cuts at the
//! root LP relaxation and replays every cut against **every** feasible
//! integer point of the model — each enumerable row→level assignment
//! crossed with each cluster-indicator completion. A cut that cuts off any
//! of them (the optimum included) is an invalid inequality, exactly the
//! defect class the separator's validity checkers exist to stop; the
//! final test pins those checkers by feeding them a deliberately
//! off-by-one cover.

use fbb_core::IlpAllocator;
use fbb_lp::{cuts, solve_lp, LpStatus, Model, Sense};
use fbb_testkit::gen;
use fbb_testkit::oracle::enumerate;

const CASES: u64 = 48;
const SEED: u64 = 0xC07;

/// Integer points satisfy cuts with a hair of slack for LP arithmetic;
/// binary points on integral cuts are exact, so this is generous.
const SAT_TOL: f64 = 1e-7;

/// All feasible integer points of a cluster model: every oracle-feasible
/// assignment, lifted with every budget-respecting indicator completion
/// (an open-but-unused cluster is a legal integer point too — a cut that
/// assumes minimal lifting would wrongly cut those off).
fn feasible_integer_points(pre: &fbb_core::Preprocessed, model: &Model) -> Vec<Vec<f64>> {
    let (n, p) = (pre.n_rows(), pre.levels());
    let mut points = Vec::new();
    let mut assignment = vec![0usize; n];
    loop {
        if enumerate::assignment_is_feasible(pre, &assignment) {
            for mask in 0..(1u32 << p) {
                let mut x = vec![0.0; model.var_count()];
                for (i, &level) in assignment.iter().enumerate() {
                    x[i * p + level] = 1.0;
                }
                for j in 0..p {
                    if mask & (1 << j) != 0 {
                        x[n * p + j] = 1.0;
                    }
                }
                if model.is_feasible(&x, 1e-9) {
                    points.push(x);
                }
            }
        }
        let mut carry = true;
        for digit in assignment.iter_mut() {
            *digit += 1;
            if *digit < p {
                carry = false;
                break;
            }
            *digit = 0;
        }
        if carry {
            break;
        }
    }
    points
}

#[test]
fn separated_cuts_never_cut_off_a_feasible_integer_point() {
    let mut cuts_checked = 0usize;
    let mut points_checked = 0usize;
    for case in 0..CASES {
        let mut rng = gen::case_rng(SEED, case);
        let pre = gen::random_cluster(&mut rng);
        let model = IlpAllocator::default().build_model(&pre).expect("model build");

        // Root relaxation point — the separator's real input.
        let relax = solve_lp(&model).expect("root relaxation");
        if relax.status != LpStatus::Optimal {
            // Uncompensable instance: infeasible relaxation, nothing to cut.
            continue;
        }

        let hints = IlpAllocator::structure_hints(&pre);
        // Both detection modes must yield only valid inequalities.
        for (mode, found) in [
            ("hinted", cuts::separate_cuts(&model, Some(&hints), &relax.x)),
            ("scanned", cuts::separate_cuts(&model, None, &relax.x)),
        ] {
            if found.is_empty() {
                continue;
            }
            let points = feasible_integer_points(&pre, &model);
            assert!(!points.is_empty(), "case {case}: optimal relaxation but no integer point");
            for (c, cut) in found.iter().enumerate() {
                // Every cut must actually do something at the point it was
                // separated from...
                assert!(
                    !cut.is_satisfied(&relax.x, 1e-9) || cut.is_satisfied(&relax.x, SAT_TOL),
                    "case {case} {mode} cut {c}: separated but not tight at the root"
                );
                // ...and must never exclude a feasible integer point.
                for x in &points {
                    assert!(
                        cut.is_satisfied(x, SAT_TOL),
                        "case {case} {mode} cut {c} ({:?}) cuts off a feasible integer point",
                        cut.kind
                    );
                }
                points_checked += points.len();
            }
            cuts_checked += found.len();
        }
    }
    // The streams must genuinely produce cuts, or this suite pins nothing.
    assert!(cuts_checked >= 20, "only {cuts_checked} cuts across {CASES} cases");
    assert!(points_checked > 0, "no integer points replayed");
}

#[test]
fn cuts_never_cut_off_the_enumerated_optimum() {
    // The sharpest single consequence of validity, stated directly: the
    // brute-force optimum survives every cut.
    let mut optima_checked = 0usize;
    for case in 0..CASES {
        let mut rng = gen::case_rng(SEED, case);
        let pre = gen::random_cluster(&mut rng);
        let Some(best) = enumerate::best_assignment(&pre) else { continue };
        let model = IlpAllocator::default().build_model(&pre).expect("model build");
        let relax = solve_lp(&model).expect("root relaxation");
        if relax.status != LpStatus::Optimal {
            continue;
        }
        let (n, p) = (pre.n_rows(), pre.levels());
        let mut x = vec![0.0; model.var_count()];
        for (i, &level) in best.assignment.iter().enumerate() {
            x[i * p + level] = 1.0;
            x[n * p + level] = 1.0;
        }
        assert!(model.is_feasible(&x, 1e-9), "case {case}: optimum must lift cleanly");
        for cut in cuts::separate_cuts(&model, None, &relax.x) {
            assert!(
                cut.is_satisfied(&x, SAT_TOL),
                "case {case}: {:?} cut removes the enumerated optimum {:?}",
                cut.kind,
                best.assignment
            );
        }
        optima_checked += 1;
    }
    assert!(optima_checked >= 10, "only {optima_checked} optima survived to the check");
}

#[test]
fn off_by_one_cover_is_rejected_by_the_checker() {
    // A genuine cover of `x0 + x1 + x2 ≤ 1.8` is any pair, and the valid
    // cover inequality is `x_i + x_j ≤ 1`. Tightening the right-hand side
    // by one (to 0) would cut off integer-feasible points — the checker
    // must refuse it, because it is the last line of defense between a
    // separator bug and a silently wrong "optimal" answer.
    let mut model = Model::new();
    for _ in 0..3 {
        model.add_binary(-1.0);
    }
    let row = model
        .add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Le, 1.8)
        .expect("valid row");

    assert!(cuts::cover_is_valid(&model, row, &[0, 1], 1.0), "the honest cover must pass");
    assert!(
        !cuts::cover_is_valid(&model, row, &[0, 1], 0.0),
        "an off-by-one cover rhs must be rejected"
    );
    // Same discipline on the ≥ side: complement covers assert "at least
    // one member up"; demanding two would be an invalid strengthening.
    let mut ge = Model::new();
    for _ in 0..3 {
        ge.add_binary(1.0);
    }
    let ge_row = ge
        .add_constraint(vec![(0, 3.0), (1, 3.0), (2, 3.0)], Sense::Ge, 4.0)
        .expect("valid row");
    assert!(cuts::ge_cover_is_valid(&ge, ge_row, &[0, 1, 2], 1.0));
    assert!(!cuts::ge_cover_is_valid(&ge, ge_row, &[0, 1, 2], 2.0));
}
