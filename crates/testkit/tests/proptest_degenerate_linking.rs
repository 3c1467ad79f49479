//! Property tests: FBB-shaped LP relaxations with disaggregated linking
//! rows, the sparse engine against the dense textbook oracle.
//!
//! The paper's ILP (Eq. 1–4) assigns each placement row one bias level,
//! demands a minimum speed-up on every path, and ties levels to a cluster
//! budget through aggregated linking rows `Σ_i x_ij − N·y_j ≤ 0`. Adding the
//! valid rows `x_ij − y_j ≤ 0` gives a tighter relaxation that is heavily
//! degenerate: every added row has a zero right-hand side, so many basic
//! slacks sit at zero together and the primal ratio test sees long runs of
//! tied ratios. The property holds the simplex's and branch & bound's
//! verdict, objective and point to the oracle's on such models, feasible
//! and infeasible, through the LP layer of the differential test.

use fbb_testkit::diff::check_lp_instance;
use fbb_testkit::gen::{LpInstance, LpRow, RowSense};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// An FBB-shaped allocation with integer data, so feasibility boundaries
/// are exact and the two solvers' tolerances cannot disagree on a verdict.
#[derive(Debug, Clone)]
struct Allocation {
    rows: usize,
    levels: usize,
    clusters: usize,
    /// Per row: the level-0 cost, then the cost step to each next level.
    costs: Vec<(i32, Vec<i32>)>,
    /// Per path: the rows it crosses (by membership mask), its speed-up
    /// per level step, and its required speed-up.
    paths: Vec<(Vec<bool>, i32, i32)>,
}

fn allocation() -> impl Strategy<Value = Allocation> {
    (2usize..=6, 2usize..=5).prop_flat_map(|(rows, levels)| {
        let costs = proptest::collection::vec(
            (1i32..=9, proptest::collection::vec(0i32..=4, levels - 1)),
            rows,
        );
        let path = (proptest::collection::vec(any::<bool>(), rows), 1i32..=3, 0i32..=12);
        let paths = proptest::collection::vec(path, 1..=4);
        (Just(rows), Just(levels), 1usize..levels, costs, paths).prop_map(
            |(rows, levels, clusters, costs, paths)| Allocation {
                rows,
                levels,
                clusters,
                costs,
                paths,
            },
        )
    })
}

impl Allocation {
    /// The relaxation over `x[i][j]` (variable `i·levels + j`) and `y[j]`
    /// (variable `rows·levels + j`), all in `[0, 1]`: Eq. 3 one-hots, Eq. 2
    /// path rows, Eq. 4 aggregated linking and budget, then the
    /// disaggregated `x_ij − y_j ≤ 0`.
    fn instance(&self) -> LpInstance {
        let (n, p) = (self.rows, self.levels);
        let x = |i: usize, j: usize| i * p + j;
        let y = |j: usize| n * p + j;
        let mut objective = Vec::with_capacity(n * p + p);
        for (base, steps) in &self.costs {
            let mut c = *base;
            objective.push(f64::from(c));
            for step in steps {
                c += step;
                objective.push(f64::from(c));
            }
        }
        objective.extend(std::iter::repeat_n(0.0, p));
        let mut rows = Vec::new();
        for i in 0..n {
            let terms = (0..p).map(|j| (x(i, j), 1.0)).collect();
            rows.push(LpRow { terms, sense: RowSense::Eq, rhs: 1.0 });
        }
        for (crosses, speedup, required) in &self.paths {
            let mut terms = Vec::new();
            for (i, _) in crosses.iter().enumerate().filter(|&(_, &c)| c) {
                for j in 1..p {
                    terms.push((x(i, j), f64::from(speedup * j as i32)));
                }
            }
            if !terms.is_empty() {
                rows.push(LpRow { terms, sense: RowSense::Ge, rhs: f64::from(*required) });
            }
        }
        for j in 0..p {
            let mut terms: Vec<(usize, f64)> = (0..n).map(|i| (x(i, j), 1.0)).collect();
            terms.push((y(j), -(n as f64)));
            rows.push(LpRow { terms, sense: RowSense::Le, rhs: 0.0 });
        }
        let budget = (0..p).map(|j| (y(j), 1.0)).collect();
        rows.push(LpRow { terms: budget, sense: RowSense::Le, rhs: self.clusters as f64 });
        for i in 0..n {
            for j in 0..p {
                rows.push(LpRow {
                    terms: vec![(x(i, j), 1.0), (y(j), -1.0)],
                    sense: RowSense::Le,
                    rhs: 0.0,
                });
            }
        }
        LpInstance { objective, lower: vec![0.0; n * p + p], upper: vec![1.0; n * p + p], rows }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random FBB-shaped relaxations, strengthened by every disaggregated
    /// linking row, solved by both implementations.
    #[test]
    fn disaggregated_linking_relaxations_match_the_oracle(a in allocation()) {
        check_lp_instance(&a.instance()).map_err(TestCaseError::fail)?;
    }
}
