//! A feasible LP must solve `Optimal`. The paper's ILP for c6288 at β = 10%,
//! C = 3, on its Table 1 placement, strengthened by the disaggregated
//! linking rows `x_ij − y_j ≤ 0`, is feasible: every integer assignment
//! satisfies those rows. Its relaxation is degenerate (every added row has
//! a zero right-hand side), and a primal ratio test that let a near-zero
//! pivot leave among tied ratios stalled phase 1 and called it infeasible.

use fbb_bench::prepare_design;
use fbb_core::{IlpAllocator, TwoPassHeuristic};
use fbb_lp::{solve_lp, LpStatus, Model, Sense};

/// Largest bound or row violation of `x`, integrality ignored.
fn max_violation(model: &Model, x: &[f64]) -> f64 {
    let bounds = x.iter().enumerate().map(|(j, &v)| {
        let (lo, up) = model.var_bounds(j).expect("one value per variable");
        (lo - v).max(v - up)
    });
    let rows = model.rows().map(|row| {
        let lhs: f64 = row.terms.iter().map(|&(j, a)| a * x[j]).sum();
        match row.sense {
            Sense::Le => lhs - row.rhs,
            Sense::Ge => row.rhs - lhs,
            Sense::Eq => (lhs - row.rhs).abs(),
        }
    });
    bounds.chain(rows).fold(0.0, f64::max)
}

#[test]
fn disaggregated_linking_relaxation_of_c6288_solves_optimal() {
    let design = prepare_design("c6288");
    let pre = design.preprocess(0.10, 3);
    let (n, p) = (pre.n_rows(), pre.levels());
    let mut model = IlpAllocator::default().build_model(&pre).expect("well-formed model");
    let aggregated = solve_lp(&model).expect("aggregated relaxation solves");
    assert_eq!(aggregated.status, LpStatus::Optimal);

    // x[i][j] is variable i·p + j and y[j] is variable n·p + j.
    for i in 0..n {
        for j in 0..p {
            model.add_constraint(vec![(i * p + j, 1.0), (n * p + j, -1.0)], Sense::Le, 0.0).unwrap();
        }
    }
    assert_eq!(model.constraint_count(), n + pre.constraint_count() + p + 1 + n * p);

    // The heuristic's assignment is an integer point of the strengthened
    // model, so it bounds the relaxation from above.
    let heuristic = TwoPassHeuristic.solve(&pre).expect("compensable");
    let mut point = vec![0.0; n * p + p];
    for (i, &j) in heuristic.assignment.iter().enumerate() {
        point[i * p + j] = 1.0;
        point[n * p + j] = 1.0;
    }
    assert!(model.is_feasible(&point, 1e-9), "the heuristic point satisfies every row");

    let lp = solve_lp(&model).expect("strengthened relaxation solves");
    assert_eq!(lp.status, LpStatus::Optimal, "a feasible LP reported {:?}", lp.status);
    let violation = max_violation(&model, &lp.x);
    assert!(violation <= 1e-6, "the optimum violates a row or bound by {violation}");
    assert!(
        lp.objective >= aggregated.objective - 1e-6,
        "added rows cannot loosen the relaxation: {} < {}",
        lp.objective,
        aggregated.objective
    );
    assert!(
        lp.objective <= heuristic.leakage_nw + 1e-6,
        "the relaxation bounds an integer point: {} > {}",
        lp.objective,
        heuristic.leakage_nw
    );
}
