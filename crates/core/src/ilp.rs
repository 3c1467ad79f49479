//! The exact ILP formulation (paper Eq. 1–5).

use std::time::Duration;

use fbb_lp::{
    solve_mip, MipOptions, MipSolution, MipStatus, Model, Sense, StructureHints, VarKind,
};

use crate::{ClusterSolution, FbbError, Preprocessed, TwoPassHeuristic};

/// Exact set-partitioning allocator.
///
/// Variables `x[i][j]` assign row `i` to bias level `j`; auxiliary binaries
/// `y[j]` open level `j` as a cluster:
///
/// * objective (Eq. 1): `min Σ L[i][j]·x[i][j]`;
/// * timing (Eq. 2): `Σ a[i][j][k]·x[i][j] ≥ b_k` for every path `k` of Π;
/// * assignment (Eq. 3): `Σ_j x[i][j] = 1` per row;
/// * cluster linking and budget (Eq. 4): `Σ_i x[i][j] ≤ N·y[j]`,
///   `Σ_j y[j] ≤ C` (the paper's big constant `F` is `N` here — the
///   tightest valid choice);
/// * integrality (Eq. 5).
///
/// The solver is warm-started with the two-pass heuristic solution and the
/// `y` variables carry branching priority, both of which prune the tree the
/// way a tuned `lp_solve` session would.
#[derive(Debug, Clone, Default)]
pub struct IlpAllocator {
    /// Wall-clock budget; `None` = run to proven optimality. Table 1's
    /// "ILP did not converge" rows correspond to hitting this limit.
    pub time_limit: Option<Duration>,
    /// Node budget for the branch & bound.
    pub node_limit: Option<usize>,
}

/// Result of an exact solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpOutcome {
    /// Best solution found, if any.
    pub solution: Option<ClusterSolution>,
    /// Whether optimality was proven.
    pub proven_optimal: bool,
    /// Residual MIP gap (0 when proven optimal).
    pub gap: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Wall-clock time.
    pub runtime: Duration,
}

impl IlpAllocator {
    /// Allocator with a time limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        IlpAllocator { time_limit: Some(limit), ..Self::default() }
    }

    /// Builds the paper's ILP for a pre-processed problem.
    ///
    /// # Errors
    ///
    /// Propagates [`FbbError::Solver`] on malformed models (cannot happen
    /// for a well-formed [`Preprocessed`]).
    pub fn build_model(&self, pre: &Preprocessed) -> Result<Model, FbbError> {
        let n = pre.n_rows();
        let p = pre.levels();
        let mut model = Model::new();

        // x[i][j] with leakage objective (Eq. 1).
        let x: Vec<Vec<usize>> = (0..n)
            .map(|i| pre.row_leakage(i).iter().map(|&l| model.add_binary(l)).collect())
            .collect();
        // y[j] cluster-open indicators, prioritized for branching.
        let y: Vec<usize> = (0..p).map(|_| model.add_binary(0.0)).collect();
        for &yj in &y {
            model.set_branch_priority(yj, 10);
        }

        // Eq. 3: each row picks exactly one level.
        for row_vars in &x {
            let terms = row_vars.iter().map(|&v| (v, 1.0)).collect();
            model.add_constraint(terms, Sense::Eq, 1.0)?;
        }

        // Eq. 2: path speed-up requirements, one row per path in path order.
        // Serial: on the Table 1 models, spawning the worker pool's threads
        // cost more than the loop they would share.
        for path in pre.paths() {
            let mut terms = Vec::new();
            for (row, reds) in path.rows() {
                for (j, &a) in reds.iter().enumerate() {
                    if a != 0.0 {
                        terms.push((x[row][j], a));
                    }
                }
            }
            // Strictly increasing indices hit the model's sorted fast path.
            terms.sort_unstable_by_key(|&(v, _)| v);
            model.add_constraint(terms, Sense::Ge, path.required_reduction_ps())?;
        }

        // Eq. 4: linking and the cluster budget.
        for j in 0..p {
            let mut terms: Vec<(usize, f64)> = (0..n).map(|i| (x[i][j], 1.0)).collect();
            terms.push((y[j], -(n as f64)));
            model.add_constraint(terms, Sense::Le, 0.0)?;
        }
        let budget = y.iter().map(|&v| (v, 1.0)).collect();
        model.add_constraint(budget, Sense::Le, pre.max_clusters as f64)?;

        Ok(model)
    }

    /// The Eq. 4 linking rows and budget row of
    /// [`IlpAllocator::build_model`]'s layout (after the Eq. 3 one-hots and
    /// the Eq. 2 path rows), for the `fbb-lp` cut separator.
    pub fn structure_hints(pre: &Preprocessed) -> StructureHints {
        let n = pre.n_rows();
        let p = pre.levels();
        let n_paths = pre.constraint_count();
        StructureHints {
            linking_rows: (n + n_paths..n + n_paths + p).collect(),
            budget_row: Some(n + n_paths + p),
        }
    }

    /// Audits a model produced by [`IlpAllocator::build_model`] against the
    /// paper's Eq. 1–5 structure: the variable layout, the Eq. 3 one-hot
    /// rows (every `x[i][j]` in *exactly one* assignment row — a dangling
    /// or doubly-assigned binary is how an encoding bug typically
    /// manifests), the Eq. 4 linking rows, and a budget row consistent with
    /// `C`. Returns one message per structural issue (empty = sound); the
    /// generic numerical defects are covered by [`Model::audit`], which
    /// this calls first.
    pub fn audit_structure(pre: &Preprocessed, model: &Model) -> Vec<String> {
        let n = pre.n_rows();
        let p = pre.levels();
        let n_paths = pre.constraint_count();
        let mut issues: Vec<String> =
            model.audit().errors().map(|d| format!("model defect: {}", d.message)).collect();

        if model.var_count() != n * p + p {
            issues.push(format!(
                "expected {} variables ({n} rows x {p} levels + {p} cluster indicators), \
                 found {}",
                n * p + p,
                model.var_count()
            ));
            return issues; // layout is off; positional checks below would mislead
        }
        if model.constraint_count() != n + n_paths + p + 1 {
            issues.push(format!(
                "expected {} constraints ({n} one-hot + {n_paths} path + {p} linking + \
                 1 budget), found {}",
                n + n_paths + p + 1,
                model.constraint_count()
            ));
            return issues;
        }
        for j in 0..n * p + p {
            if model.var_kind(j) != Some(VarKind::Integer)
                || model.var_bounds(j) != Some((0.0, 1.0))
            {
                issues.push(format!("variable {j} is not a 0/1 binary"));
            }
        }

        // Eq. 3: each x[i][j] must appear in exactly one one-hot row.
        let mut one_hot_uses = vec![0usize; n * p];
        for (i, row) in model.rows().take(n).enumerate() {
            if row.sense != Sense::Eq || row.rhs != 1.0 {
                issues.push(format!("one-hot row {i} is not an `= 1` equality"));
            }
            for &(v, a) in row.terms {
                if v >= n * p {
                    issues.push(format!(
                        "one-hot row {i} references cluster indicator y[{}]",
                        v - n * p
                    ));
                } else {
                    if a != 1.0 {
                        issues
                            .push(format!("one-hot row {i} has coefficient {a} on x[{v}]"));
                    }
                    one_hot_uses[v] += 1;
                }
            }
        }
        for (v, &uses) in one_hot_uses.iter().enumerate() {
            if uses != 1 {
                issues.push(format!(
                    "x[{}][{}] appears in {uses} one-hot rows (expected exactly 1)",
                    v / p,
                    v % p
                ));
            }
        }

        // Eq. 4 linking: Σ_i x[i][j] − N·y[j] ≤ 0 for each level j.
        for (k, row) in model.rows().skip(n + n_paths).take(p).enumerate() {
            let ok = row.sense == Sense::Le
                && row.rhs == 0.0
                && row.terms.iter().filter(|&&(v, _)| v >= n * p).count() == 1
                && row
                    .terms
                    .iter()
                    .find(|&&(v, _)| v >= n * p)
                    .is_some_and(|&(v, a)| v == n * p + k && a == -(n as f64));
            if !ok {
                issues.push(format!(
                    "linking row for level {k} does not have the `sum x - N*y <= 0` shape"
                ));
            }
        }

        // Eq. 4 budget: Σ_j y[j] ≤ C over exactly the cluster indicators.
        let budget = model.row(n + n_paths + p).expect("budget row index checked above");
        if budget.sense != Sense::Le
            || budget.rhs != pre.max_clusters as f64
            || budget.terms.len() != p
            || !budget.terms.iter().all(|&(v, a)| v >= n * p && a == 1.0)
        {
            issues.push(format!(
                "budget row is not `sum y <= C` with C = {}",
                pre.max_clusters
            ));
        }
        if pre.max_clusters == 0 {
            issues.push("cluster budget C = 0 admits no assignment".to_owned());
        } else if pre.max_clusters > p {
            issues.push(format!(
                "cluster budget C = {} exceeds the {p} ladder levels (budget is vacuous)",
                pre.max_clusters
            ));
        }
        issues
    }

    /// Solves the ILP: builds the model, warm-starts from the heuristic,
    /// and runs branch & bound.
    ///
    /// # Example
    ///
    /// ```
    /// use fbb_core::{FbbProblem, IlpAllocator};
    /// use fbb_device::{BiasLadder, BodyBiasModel, Library};
    /// use fbb_netlist::generators;
    /// use fbb_placement::{Placer, PlacerOptions};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let netlist = generators::ripple_adder("add16", 16, false)?;
    /// let library = Library::date09_45nm();
    /// let placement =
    ///     Placer::new(PlacerOptions::with_target_rows(6)).place(&netlist, &library)?;
    /// let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
    /// let pre = FbbProblem::new(&netlist, &placement, &chara, 0.05, 2)?.preprocess()?;
    ///
    /// let outcome = IlpAllocator::default().solve(&pre)?;
    /// let solution = outcome.solution.expect("feasible");
    /// assert!(outcome.proven_optimal);
    /// assert!(solution.meets_timing);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates [`FbbError::Solver`] on numerical failure.
    pub fn solve(&self, pre: &Preprocessed) -> Result<IlpOutcome, FbbError> {
        let _ilp_span = fbb_telemetry::span("ilp_solve");
        let clock = fbb_lp::deadline::Stopwatch::start();
        let model = self.build_model(pre)?;
        if fbb_telemetry::is_enabled() {
            fbb_telemetry::counter("ilp_solves", 1);
            fbb_telemetry::counter("ilp_variables", model.var_count() as u64);
            fbb_telemetry::counter("ilp_constraints", model.constraint_count() as u64);
        }
        let mip = self.solve_model(pre, &model)?;
        let runtime = clock.runtime();

        let solution = match mip.status {
            MipStatus::Optimal | MipStatus::Feasible => {
                let assignment = decode(pre, &mip.x);
                Some(ClusterSolution::from_assignment(pre, assignment))
            }
            _ => None,
        };
        Ok(IlpOutcome {
            proven_optimal: mip.status == MipStatus::Optimal,
            gap: mip.gap(),
            nodes: mip.nodes,
            runtime,
            solution,
        })
    }

    /// Runs branch & bound on `model`, the [`IlpAllocator::build_model`]
    /// model of `pre` (the warm sweep patches its budget row to
    /// `pre.max_clusters`), within this allocator's limits, warm-started
    /// from the heuristic's answer. [`IlpAllocator::solve`] and the sweep
    /// both solve through here, so a sweep cell solves as `solve` would.
    pub(crate) fn solve_model(
        &self,
        pre: &Preprocessed,
        model: &Model,
    ) -> Result<MipSolution, FbbError> {
        let incumbent = TwoPassHeuristic
            .solve(pre)
            .ok()
            .map(|sol| (sol.leakage_nw, encode(pre, &sol.assignment)));
        let options = MipOptions {
            time_limit: self.time_limit,
            node_limit: self.node_limit,
            // The builder knows which rows are Eq. 3 one-hots, Eq. 4
            // linking, and the budget; the cut separator shape-verifies
            // each hint rather than trusting the indices.
            hints: Some(Self::structure_hints(pre)),
            ..MipOptions::default()
        };
        Ok(solve_mip(model, &options, incumbent)?)
    }
}

/// Flattens an assignment into the model's variable vector (x then y).
pub(crate) fn encode(pre: &Preprocessed, assignment: &[usize]) -> Vec<f64> {
    let n = pre.n_rows();
    let p = pre.levels();
    let mut x = vec![0.0; n * p + p];
    for (i, &j) in assignment.iter().enumerate() {
        x[i * p + j] = 1.0;
    }
    let mut used: Vec<usize> = assignment.to_vec();
    used.sort_unstable();
    used.dedup();
    for j in used {
        x[n * p + j] = 1.0;
    }
    x
}

/// Reads the row assignment back out of a MIP point.
pub(crate) fn decode(pre: &Preprocessed, x: &[f64]) -> Vec<usize> {
    let p = pre.levels();
    (0..pre.n_rows())
        .map(|i| {
            (0..p)
                .max_by(|&a, &b| {
                    x[i * p + a].partial_cmp(&x[i * p + b]).expect("binary values are finite")
                })
                .expect("at least one level")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{single_bb, FbbProblem};
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn pre(beta: f64, c: usize) -> Preprocessed {
        let nl = generators::ripple_adder("a24", 24, false).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(6)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(&nl, &p, &chara, beta, c).unwrap().preprocess().unwrap()
    }

    #[test]
    fn model_dimensions_match_formulation() {
        let pre = pre(0.05, 3);
        let model = IlpAllocator::default().build_model(&pre).unwrap();
        assert_eq!(model.var_count(), pre.n_rows() * pre.levels() + pre.levels());
        assert_eq!(
            model.constraint_count(),
            pre.n_rows() + pre.constraint_count() + pre.levels() + 1
        );
    }

    #[test]
    fn generated_model_passes_both_audit_layers() {
        for (beta, c) in [(0.05, 3), (0.10, 2)] {
            let pre = pre(beta, c);
            let model = IlpAllocator::default().build_model(&pre).unwrap();
            let audit = model.audit();
            assert!(audit.is_sound(), "beta={beta} C={c}:\n{}", audit.summary());
            let issues = IlpAllocator::audit_structure(&pre, &model);
            assert!(issues.is_empty(), "beta={beta} C={c}: {issues:?}");
        }
    }

    #[test]
    fn structure_audit_catches_planted_defects() {
        let pre = pre(0.05, 3);
        let reference = IlpAllocator::default().build_model(&pre).unwrap();
        let n = pre.n_rows();
        let p = pre.levels();
        let n_paths = pre.constraint_count();

        // Rebuilds the model with one deliberate defect each, checking the
        // audit names the planted problem.
        struct Case {
            name: &'static str,
            expect: &'static str,
            build: fn(&Preprocessed) -> Model,
        }
        let cases = [
            Case {
                name: "dangling one-hot binary",
                expect: "one-hot rows",
                build: |pre| {
                    // Drop x[0][0] from its assignment row: the binary
                    // dangles (appears in 0 one-hot rows).
                    let mut m = Model::new();
                    let (n, p) = (pre.n_rows(), pre.levels());
                    for i in 0..n {
                        for &l in pre.row_leakage(i) {
                            m.add_binary(l);
                        }
                    }
                    for _ in 0..p {
                        m.add_binary(0.0);
                    }
                    for i in 0..n {
                        let terms =
                            (0..p).map(|j| (i * p + j, 1.0)).skip(usize::from(i == 0));
                        m.add_constraint(terms.collect(), Sense::Eq, 1.0).unwrap();
                    }
                    pad_to_reference(pre, m)
                },
            },
            Case {
                name: "budget inconsistent with C",
                expect: "budget row",
                build: |pre| {
                    // A valid model for a *different* budget: auditing it
                    // against the original `pre` must flag the mismatch.
                    let mut wrong = pre.clone();
                    wrong.max_clusters += 1;
                    IlpAllocator::default().build_model(&wrong).unwrap()
                },
            },
        ];
        fn pad_to_reference(pre: &Preprocessed, mut m: Model) -> Model {
            let (n, p) = (pre.n_rows(), pre.levels());
            for path in pre.paths() {
                let mut terms = Vec::new();
                for (row, reds) in path.rows() {
                    for (j, &a) in reds.iter().enumerate() {
                        if a != 0.0 {
                            terms.push((row * p + j, a));
                        }
                    }
                }
                terms.sort_unstable_by_key(|&(v, _)| v);
                m.add_constraint(terms, Sense::Ge, path.required_reduction_ps()).unwrap();
            }
            for j in 0..p {
                let mut terms: Vec<(usize, f64)> =
                    (0..n).map(|i| (i * p + j, 1.0)).collect();
                terms.push((n * p + j, -(n as f64)));
                m.add_constraint(terms, Sense::Le, 0.0).unwrap();
            }
            m.add_constraint(
                (0..p).map(|j| (n * p + j, 1.0)).collect(),
                Sense::Le,
                pre.max_clusters as f64,
            )
            .unwrap();
            m
        }

        // Sanity: the reference model and the padding helper agree.
        assert!(IlpAllocator::audit_structure(&pre, &reference).is_empty());
        assert_eq!(reference.constraint_count(), n + n_paths + p + 1);

        for case in &cases {
            let model = (case.build)(&pre);
            let issues = IlpAllocator::audit_structure(&pre, &model);
            assert!(
                issues.iter().any(|m| m.contains(case.expect)),
                "{}: expected an issue mentioning {:?}, got {issues:?}",
                case.name,
                case.expect
            );
        }
    }

    #[test]
    fn ilp_meets_timing_and_budget_and_beats_heuristic() {
        for (beta, c) in [(0.05, 2), (0.05, 3), (0.10, 2)] {
            let pre = pre(beta, c);
            let heur = TwoPassHeuristic.solve(&pre).unwrap();
            let out = IlpAllocator::default().solve(&pre).unwrap();
            let sol = out.solution.expect("feasible");
            assert!(out.proven_optimal, "beta={beta} C={c}");
            assert!(sol.meets_timing, "beta={beta} C={c}");
            assert!(sol.clusters <= c, "beta={beta} C={c}");
            assert!(
                sol.leakage_nw <= heur.leakage_nw + 1e-6,
                "beta={beta} C={c}: ilp {} > heuristic {}",
                sol.leakage_nw,
                heur.leakage_nw
            );
        }
    }

    #[test]
    fn ilp_beats_single_bb() {
        let pre = pre(0.10, 3);
        let base = single_bb(&pre).unwrap();
        let out = IlpAllocator::default().solve(&pre).unwrap();
        let sol = out.solution.unwrap();
        assert!(sol.savings_vs(&base) > 0.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pre = pre(0.05, 3);
        let assignment: Vec<usize> = (0..pre.n_rows()).map(|i| i % pre.levels()).collect();
        let x = encode(&pre, &assignment);
        assert_eq!(decode(&pre, &x), assignment);
    }

    #[test]
    fn cold_start_matches_warm_start_objective() {
        let pre = pre(0.05, 2);
        let warm = IlpAllocator::default().solve(&pre).unwrap();
        let model = IlpAllocator::default().build_model(&pre).unwrap();
        let options = MipOptions {
            hints: Some(IlpAllocator::structure_hints(&pre)),
            ..MipOptions::default()
        };
        let cold = solve_mip(&model, &options, None).unwrap();
        assert_eq!(cold.status, MipStatus::Optimal);
        let cold_leakage = pre.leakage_nw(&decode(&pre, &cold.x));
        assert!((warm.solution.unwrap().leakage_nw - cold_leakage).abs() < 1e-6);
    }

    #[test]
    fn time_limit_zero_reports_incumbent_not_optimal() {
        let pre = pre(0.05, 3);
        let out = IlpAllocator::with_time_limit(Duration::ZERO).solve(&pre).unwrap();
        assert!(!out.proven_optimal);
        // With the heuristic warm start an incumbent exists even at t=0.
        let sol = out.solution.expect("warm-started incumbent");
        assert!(sol.meets_timing);
        assert!(out.gap >= 0.0);
    }
}
