//! Property tests: the sparse revised simplex against the dense textbook
//! oracle, and warm-started branch & bound against cold restarts.
//!
//! The differential suites replay the seeded generator corpus; these
//! properties explore the same ground with proptest-driven shapes, leaning
//! into the cases the sparse engine handles specially — degenerate
//! (duplicated) rows, fixed variables, negative right-hand sides, and the
//! Beale cycling model — plus the B&B equivalence the warm-start path must
//! preserve: identical verdicts and objectives whether or not children
//! reuse their parent's basis.

use fbb_lp::{solve_lp, solve_mip, LpStatus, MipOptions, MipStatus, Model, Sense};
use fbb_testkit::gen::{LpInstance, LpRow, RowSense};
use fbb_testkit::oracle::dense_simplex::{self, DenseLpResult};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Integer-data LP blueprint: exact feasibility boundaries, so the engine's
/// and the oracle's tolerances cannot disagree about a verdict.
#[derive(Debug, Clone)]
struct Blueprint {
    /// Per variable `(lower, width)`; width 0 fixes the variable.
    bounds: Vec<(i32, i32)>,
    objective: Vec<i32>,
    rows: Vec<(Vec<i32>, RowSense, i32)>,
    /// Statement count for each row (> 1 piles up degeneracy).
    dup: usize,
}

impl Blueprint {
    fn instance(&self) -> LpInstance {
        let mut rows = Vec::new();
        for (coeffs, sense, rhs) in &self.rows {
            let terms: Vec<(usize, f64)> = coeffs
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(v, &c)| (v, f64::from(c)))
                .collect();
            if terms.is_empty() {
                continue;
            }
            for _ in 0..self.dup {
                rows.push(LpRow { terms: terms.clone(), sense: *sense, rhs: f64::from(*rhs) });
            }
        }
        LpInstance {
            objective: self.objective.iter().map(|&c| f64::from(c)).collect(),
            lower: self.bounds.iter().map(|&(lo, _)| f64::from(lo)).collect(),
            upper: self.bounds.iter().map(|&(lo, w)| f64::from(lo + w)).collect(),
            rows,
        }
    }
}

fn blueprint(rhs_range: std::ops::RangeInclusive<i32>) -> impl Strategy<Value = Blueprint> {
    (1usize..=5).prop_flat_map(move |n| {
        let bounds = proptest::collection::vec((-4i32..=4, 0i32..=6), n);
        let obj = proptest::collection::vec(-6i32..=6, n);
        let row = (
            proptest::collection::vec(-4i32..=4, n),
            prop_oneof![Just(RowSense::Le), Just(RowSense::Ge), Just(RowSense::Eq)],
            rhs_range.clone(),
        );
        let rows = proptest::collection::vec(row, 0..=5);
        (bounds, obj, rows, 1usize..=3)
            .prop_map(|(bounds, objective, rows, dup)| Blueprint { bounds, objective, rows, dup })
    })
}

/// Engine and oracle must agree on the verdict and, when optimal, on the
/// objective; the engine's point must satisfy the model it was given.
fn check_against_oracle(inst: &LpInstance) -> Result<(), TestCaseError> {
    let model = inst.to_model();
    let engine = solve_lp(&model);
    let oracle = dense_simplex::solve(inst);
    match (&engine, &oracle) {
        (Ok(sol), DenseLpResult::Optimal { objective, .. }) if sol.status == LpStatus::Optimal => {
            prop_assert!(
                (sol.objective - objective).abs() < 1e-5,
                "engine {} vs oracle {objective}",
                sol.objective
            );
            prop_assert!(model.is_feasible(&sol.x, 1e-6), "engine point infeasible: {:?}", sol.x);
        }
        (Ok(sol), DenseLpResult::Infeasible) if sol.status == LpStatus::Infeasible => {}
        _ => {
            return Err(TestCaseError::fail(format!(
                "engine {engine:?} disagrees with oracle {oracle:?} on {inst:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random boxed LPs — duplicated rows and zero-width (fixed) variables
    /// included — solved by both implementations.
    #[test]
    fn sparse_engine_matches_dense_oracle(bp in blueprint(-10i32..=10)) {
        check_against_oracle(&bp.instance())?;
    }

    /// All-negative right-hand sides force the signed-artificial phase 1
    /// (every residual starts below zero); the verdicts must still agree.
    #[test]
    fn negative_rhs_instances_agree(bp in blueprint(-10i32..=-1)) {
        check_against_oracle(&bp.instance())?;
    }
}

/// Beale's cycling example, boxed so the oracle can price it. The optimum
/// `(1/25, 0, 1, 0)` is far inside the box, so the bounds change nothing
/// and both solvers must land on objective −1/20.
#[test]
fn beale_cycling_model_agrees_with_oracle() {
    let inst = LpInstance {
        objective: vec![-0.75, 150.0, -0.02, 6.0],
        lower: vec![0.0; 4],
        upper: vec![100.0; 4],
        rows: vec![
            LpRow {
                terms: vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                sense: RowSense::Le,
                rhs: 0.0,
            },
            LpRow {
                terms: vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                sense: RowSense::Le,
                rhs: 0.0,
            },
            LpRow { terms: vec![(2, 1.0)], sense: RowSense::Le, rhs: 1.0 },
        ],
    };
    let engine = solve_lp(&inst.to_model()).expect("anti-cycling terminates");
    assert_eq!(engine.status, LpStatus::Optimal);
    assert!((engine.objective + 0.05).abs() < 1e-6, "objective {}", engine.objective);
    match dense_simplex::solve(&inst) {
        DenseLpResult::Optimal { objective, .. } => {
            assert!((engine.objective - objective).abs() < 1e-6)
        }
        other => panic!("oracle verdict {other:?}"),
    }
}

/// Small bounded integer program blueprint for the B&B equivalence property.
#[derive(Debug, Clone)]
struct MipBlueprint {
    /// Per variable `(lower, width)`, integer-valued, width ≤ 3.
    bounds: Vec<(i32, i32)>,
    objective: Vec<i32>,
    rows: Vec<(Vec<i32>, RowSense, i32)>,
}

fn mip_blueprint() -> impl Strategy<Value = MipBlueprint> {
    (2usize..=5).prop_flat_map(|n| {
        let bounds = proptest::collection::vec((0i32..=2, 1i32..=3), n);
        let obj = proptest::collection::vec(-6i32..=6, n);
        let row = (
            proptest::collection::vec(-3i32..=3, n),
            prop_oneof![Just(RowSense::Le), Just(RowSense::Ge)],
            -6i32..=12,
        );
        let rows = proptest::collection::vec(row, 1..=4);
        (bounds, obj, rows)
            .prop_map(|(bounds, objective, rows)| MipBlueprint { bounds, objective, rows })
    })
}

fn mip_model(bp: &MipBlueprint) -> Model {
    let mut m = Model::new();
    let vars: Vec<usize> = bp
        .bounds
        .iter()
        .zip(&bp.objective)
        .map(|(&(lo, w), &c)| m.add_integer(f64::from(lo), f64::from(lo + w), f64::from(c)))
        .collect();
    for (coeffs, sense, rhs) in &bp.rows {
        let terms: Vec<(usize, f64)> = vars
            .iter()
            .zip(coeffs)
            .filter(|&(_, &c)| c != 0)
            .map(|(&v, &c)| (v, f64::from(c)))
            .collect();
        if terms.is_empty() {
            continue;
        }
        let sense = match sense {
            RowSense::Le => Sense::Le,
            RowSense::Ge => Sense::Ge,
            RowSense::Eq => Sense::Eq,
        };
        m.add_constraint(terms, sense, f64::from(*rhs)).expect("valid terms");
    }
    m
}

/// The best integer point of `model` whose objective is worse than
/// `optimum` by more than 1e-6, found by enumerating the blueprint's box (at
/// most 4⁵ points): a feasible, non-optimal incumbent close enough to the
/// optimum that warm node re-solves reach it as a cutoff.
fn runner_up(bp: &MipBlueprint, model: &Model, optimum: f64) -> Option<(f64, Vec<f64>)> {
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut point: Vec<f64> = bp.bounds.iter().map(|&(lo, _)| f64::from(lo)).collect();
    loop {
        if model.is_feasible(&point, 1e-9) {
            let obj = model.objective_value(&point);
            if obj > optimum + 1e-6 && best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, point.clone()));
            }
        }
        // Next point, the first variable moving fastest.
        let mut k = 0;
        loop {
            let Some(&(lo, w)) = bp.bounds.get(k) else {
                return best;
            };
            if point[k] < f64::from(lo + w) {
                point[k] += 1.0;
                break;
            }
            point[k] = f64::from(lo);
            k += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Warm starts are an optimization, not a relaxation: the tree searched
    /// with inherited bases must reach the same verdict and objective as
    /// cold two-phase solves at every node, and neither run may claim a
    /// bound better than its own incumbent.
    #[test]
    fn warm_and_cold_bnb_are_equivalent(bp in mip_blueprint()) {
        let model = mip_model(&bp);
        let warm = solve_mip(&model, &MipOptions::default(), None).expect("warm run terminates");
        let cold_opts = MipOptions { warm_start: false, ..MipOptions::default() };
        let cold = solve_mip(&model, &cold_opts, None).expect("cold run terminates");
        prop_assert_eq!(warm.status, cold.status, "warm {:?} vs cold {:?}", warm.status, cold.status);
        if warm.status == MipStatus::Optimal {
            prop_assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}", warm.objective, cold.objective
            );
            prop_assert!(model.is_feasible(&warm.x, 1e-6));
            // A proven bound may never overstate the incumbent (minimization:
            // bound ≤ objective).
            prop_assert!(warm.best_bound <= warm.objective + 1e-6);
            prop_assert!(cold.best_bound <= cold.objective + 1e-6);
        }
        // Seeded with a feasible, non-optimal incumbent, warm node re-solves
        // stop at its objective as a cutoff; the cold tree never cuts off.
        if cold.status == MipStatus::Optimal {
            if let Some(seed) = runner_up(&bp, &model, cold.objective) {
                let seeded = solve_mip(&model, &MipOptions::default(), Some(seed))
                    .expect("seeded warm run terminates");
                prop_assert_eq!(seeded.status, cold.status);
                prop_assert!(
                    (seeded.objective - cold.objective).abs() < 1e-6,
                    "seeded warm {} vs cold {}", seeded.objective, cold.objective
                );
            }
        }
    }
}
