//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure function of its seed — no wall-clock enters
//! plan *construction* (expired deadlines are materialized only at execution
//! time, as `Instant::now()` itself, which is already in the past once the
//! solver checks it). Executing the plan drives every engine into its
//! degraded exits and asserts the exit is **labeled honestly**: a limited
//! solve may return `DeadlineExceeded`, `IterationLimit`, `Feasible`, or
//! `Unknown`, but never a fabricated `Optimal`, and degenerate layouts
//! (zero rows, one row, duplicated constraints) must produce the same
//! answers as their clean counterparts.

use std::time::{Duration, Instant};

use fbb_core::Preprocessed;
use fbb_lp::{solve_lp, solve_lp_with_bounds, LpError, LpStatus, MipOptions, MipStatus, Model, Sense};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::diff;
use crate::gen::{self, LpInstance, LpRow, RowSense};

/// One injectable fault / degraded scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// LP solve with an already-expired wall-clock deadline must report
    /// `LpStatus::DeadlineExceeded` in-band.
    LpDeadline,
    /// LP solve under a forced 0-iteration budget (via the `fault-inject`
    /// hooks) must surface `LpError::IterationLimit`, never `Optimal`.
    LpIterationLimit,
    /// Branch & bound with `node_limit = 1` on a fractional-relaxation model
    /// must stop with a non-`Optimal` status and a positive gap.
    MipNodeLimit,
    /// Branch & bound with a zero time limit (but a warm-start incumbent)
    /// must report `Feasible` with the incumbent, never `Optimal`.
    MipTimeLimit,
    /// A zero-row layout must produce the empty assignment everywhere, not
    /// an error.
    ZeroRowLayout,
    /// A single-row layout must still round-trip through every engine.
    SingleRowLayout,
    /// Duplicating every path constraint must not change any engine's
    /// answer.
    DuplicatedConstraints,
    /// An LP with duplicated rows and a fixed (zero-width) variable —
    /// primal degeneracy — must still match the dense oracle.
    DegenerateLp,
    /// A transposed column pair in the presolve→postsolve map (armed via
    /// the `fault-inject` hooks) must be caught by the cluster oracle: the
    /// corrupted full-space solution decodes to a wrong assignment.
    PostsolveMapSwap,
}

/// All faults, in canonical order.
const ALL_FAULTS: [Fault; 9] = [
    Fault::LpDeadline,
    Fault::LpIterationLimit,
    Fault::MipNodeLimit,
    Fault::MipTimeLimit,
    Fault::ZeroRowLayout,
    Fault::SingleRowLayout,
    Fault::DuplicatedConstraints,
    Fault::DegenerateLp,
    Fault::PostsolveMapSwap,
];

/// A seeded, deterministic sequence of fault scenarios.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Builds the plan for a seed: every fault exactly once, in a seeded
    /// order (the order is irrelevant to correctness but exercises
    /// different engine-state interleavings across cases).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(gen::splitmix64(seed));
        let mut faults = ALL_FAULTS.to_vec();
        // Fisher–Yates (the rand shim has no `shuffle`).
        for i in (1..faults.len()).rev() {
            let j = rng.gen_range(0..=i);
            faults.swap(i, j);
        }
        FaultPlan { seed, faults }
    }

    /// The planned fault sequence.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Executes every scenario; returns the first violation description.
    ///
    /// # Errors
    ///
    /// `Err(reason)` when an engine mislabels a degraded exit or a
    /// degenerate layout diverges from its clean counterpart.
    pub fn execute(&self) -> Result<(), String> {
        for (step, &fault) in self.faults.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(gen::splitmix64(
                self.seed ^ (0xFA_u64 + step as u64),
            ));
            check_fault(fault, &mut rng)
                .map_err(|reason| format!("{fault:?}: {reason}"))?;
        }
        Ok(())
    }
}

fn check_fault(fault: Fault, rng: &mut ChaCha8Rng) -> Result<(), String> {
    match fault {
        Fault::LpDeadline => lp_deadline(rng),
        Fault::LpIterationLimit => lp_iteration_limit(),
        Fault::MipNodeLimit => mip_node_limit(),
        Fault::MipTimeLimit => mip_time_limit(),
        Fault::ZeroRowLayout => zero_row_layout(),
        Fault::SingleRowLayout => single_row_layout(rng),
        Fault::DuplicatedConstraints => duplicated_constraints(rng),
        Fault::DegenerateLp => degenerate_lp(rng),
        Fault::PostsolveMapSwap => postsolve_map_swap(),
    }
}

/// A small fixed model whose solve needs at least one simplex iteration:
/// `min -x0 - x1  s.t.  x0 + x1 <= 1.5,  x in [0, 2]^2`.
fn pivoting_model() -> Model {
    let mut model = Model::new();
    model.add_continuous(0.0, 2.0, -1.0);
    model.add_continuous(0.0, 2.0, -1.0);
    model
        .add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Le, 1.5)
        .expect("valid constraint");
    model
}

fn lp_deadline(rng: &mut ChaCha8Rng) -> Result<(), String> {
    let inst = gen::random_lp(rng);
    let model = inst.to_model();
    // `Instant::now()` is already expired by the first deadline check.
    let sol = solve_lp_with_bounds(&model, None, Some(Instant::now()))
        .map_err(|e| format!("deadline must be reported in-band, got hard error {e}"))?;
    if sol.status != LpStatus::DeadlineExceeded {
        return Err(format!(
            "expired deadline produced {:?} instead of DeadlineExceeded",
            sol.status
        ));
    }
    Ok(())
}

fn lp_iteration_limit() -> Result<(), String> {
    let model = pivoting_model();
    let result = fbb_lp::fault::with_iteration_limit(0, || solve_lp(&model));
    match result {
        Err(LpError::IterationLimit) => {}
        Err(other) => return Err(format!("expected IterationLimit, got error {other}")),
        Ok(sol) => {
            return Err(format!(
                "0-iteration budget still claimed {:?} (objective {})",
                sol.status, sol.objective
            ))
        }
    }
    // The hook is scoped: the very same solve must succeed afterwards.
    let sol = solve_lp(&model).map_err(|e| format!("post-fault solve failed: {e}"))?;
    if sol.status != LpStatus::Optimal {
        return Err(format!("post-fault solve returned {:?}", sol.status));
    }
    Ok(())
}

/// `min -Σ x_i  s.t.  Σ x_i <= 2.5` over six binaries: the relaxation is
/// fractional (objective -2.5, optimum -2), so optimality cannot be proven
/// at the root.
fn knapsack_model() -> Model {
    let mut model = Model::new();
    for _ in 0..6 {
        model.add_binary(-1.0);
    }
    let terms = (0..6).map(|j| (j, 1.0)).collect();
    model.add_constraint(terms, Sense::Le, 2.5).expect("valid constraint");
    model
}

fn mip_node_limit() -> Result<(), String> {
    let model = knapsack_model();
    // The drill's premise is a fractional *root*: presolve keeps this model
    // intact, but root cover cuts could legitimately tighten it, so the
    // reductions are disabled to keep the 1-node budget provably short.
    let options = MipOptions {
        node_limit: Some(1),
        presolve: false,
        cuts: false,
        pseudocost: false,
        ..MipOptions::default()
    };
    let sol = fbb_lp::solve_mip(&model, &options, None)
        .map_err(|e| format!("node-limited solve hard-errored: {e}"))?;
    if sol.status == MipStatus::Optimal {
        return Err("1-node budget cannot prove optimality of a fractional relaxation".into());
    }
    if sol.gap() <= 0.0 {
        return Err(format!("non-optimal exit must carry a positive gap, got {}", sol.gap()));
    }
    Ok(())
}

fn mip_time_limit() -> Result<(), String> {
    let model = knapsack_model();
    let options = MipOptions { time_limit: Some(Duration::ZERO), ..MipOptions::default() };
    let incumbent = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
    let sol = fbb_lp::solve_mip(&model, &options, Some((-2.0, incumbent)))
        .map_err(|e| format!("time-limited solve hard-errored: {e}"))?;
    if sol.status != MipStatus::Feasible {
        return Err(format!(
            "zero time budget with an incumbent must report Feasible, got {:?}",
            sol.status
        ));
    }
    if (sol.objective - (-2.0)).abs() > 1e-9 {
        return Err(format!("incumbent objective -2 was not preserved, got {}", sol.objective));
    }
    if sol.gap() <= 0.0 {
        return Err(format!("limited exit must carry a positive gap, got {}", sol.gap()));
    }
    Ok(())
}

fn zero_row_layout() -> Result<(), String> {
    let pre = Preprocessed::builder(3, vec![], vec![])
        .map_err(|e| format!("zero-row tables refused: {e}"))?
        .into_problem(0.05, 2, 100.0);
    let sol = fbb_core::TwoPassHeuristic::default()
        .solve(&pre)
        .map_err(|e| format!("greedy must accept a zero-row layout, got {e}"))?;
    if !sol.assignment.is_empty() || sol.leakage_nw != 0.0 || !sol.meets_timing {
        return Err(format!(
            "greedy zero-row solution is not the empty assignment: {sol:?}"
        ));
    }
    diff::check_cluster_instance(&pre, 0.0)
}

fn single_row_layout(rng: &mut ChaCha8Rng) -> Result<(), String> {
    // A 1-row, 3-level instance with one satisfiable path.
    let delay_sum: f64 = rng.gen_range(10.0..30.0);
    let speedups = [0.0, 0.05, 0.11];
    let reds: Vec<f64> = speedups.iter().map(|s| delay_sum * s).collect();
    let required = reds[2] * rng.gen_range(0.3..0.9);
    let base_leak: f64 = rng.gen_range(1.0..5.0);
    let leakage = vec![base_leak, base_leak + 1.0, base_leak + 3.0];
    let mut builder = Preprocessed::builder(3, leakage, vec![1.0])
        .map_err(|e| format!("single-row tables refused: {e}"))?;
    builder
        .push_path(100.0 + required, required, (100.0 + required) / 1.05, &[0], &reds)
        .map_err(|e| format!("single-row path refused: {e}"))?;
    diff::check_cluster_instance(&builder.into_problem(0.05, 1, 100.0), 0.0)
}

fn duplicated_constraints(rng: &mut ChaCha8Rng) -> Result<(), String> {
    let pre = gen::random_cluster(rng);
    let doubled = gen::rebuild(&pre, pre.levels(), pre.paths().chain(pre.paths()));

    let solve = |p: &Preprocessed| -> Result<(Option<f64>, Option<Vec<usize>>), String> {
        let ilp = fbb_core::IlpAllocator::default()
            .solve(p)
            .map_err(|e| format!("ilp hard error: {e}"))?;
        let greedy = fbb_core::TwoPassHeuristic::default().solve(p).ok();
        Ok((ilp.solution.map(|s| s.leakage_nw), greedy.map(|s| s.assignment)))
    };
    let (ilp_a, greedy_a) = solve(&pre)?;
    let (ilp_b, greedy_b) = solve(&doubled)?;
    match (ilp_a, ilp_b) {
        (None, None) => {}
        (Some(a), Some(b)) if (a - b).abs() <= 1e-6 * a.abs().max(1.0) => {}
        (a, b) => {
            return Err(format!(
                "duplicating constraints changed the ILP leakage: {a:?} vs {b:?}"
            ))
        }
    }
    if greedy_a != greedy_b {
        return Err(format!(
            "duplicating constraints changed the greedy assignment: {greedy_a:?} vs {greedy_b:?}"
        ));
    }
    Ok(())
}

fn degenerate_lp(rng: &mut ChaCha8Rng) -> Result<(), String> {
    // Two free variables, one fixed at 1.0, with a duplicated equality tying
    // them together — degenerate vertices everywhere, still one optimum.
    let a: f64 = rng.gen_range(0.5..3.0);
    let row = LpRow {
        terms: vec![(0, 1.0), (1, 1.0), (2, a)],
        sense: RowSense::Eq,
        rhs: 2.0 + a,
    };
    let inst = LpInstance {
        objective: vec![1.0, 2.0, 0.0],
        lower: vec![0.0, 0.0, 1.0],
        upper: vec![4.0, 4.0, 1.0],
        rows: vec![row.clone(), row],
    };
    diff::check_lp_instance(&inst)
}

/// A 2-row × 2-level layout with a single cluster: the only feasible
/// assignment is both rows at level 1, so the optimal x-block is
/// `(0, 1, 0, 1)`. Nothing in the model is fixed, redundant, or free, so
/// presolve keeps every column and the postsolve map's first two surviving
/// columns are `x[0][0]` and `x[0][1]` — exactly the pair the armed defect
/// transposes. The corrupted solution decodes row 0 to level 0, which both
/// changes the leakage and breaks the cluster budget, so the oracle gate in
/// `check_cluster_instance` must flag it.
fn postsolve_map_swap() -> Result<(), String> {
    let mut builder = Preprocessed::builder(2, vec![1.0, 10.0, 1.0, 2.0], vec![1.0, 1.0])
        .map_err(|e| format!("fixture tables refused: {e}"))?;
    builder
        .push_path(105.0, 5.0, 100.0, &[0, 1], &[0.0, 10.0, 0.0, 10.0])
        .map_err(|e| format!("fixture path refused: {e}"))?;
    let pre = builder.into_problem(0.05, 1, 100.0);
    // Healthy engines must clear the oracle gate on the fixture...
    diff::check_cluster_instance(&pre, 0.0)
        .map_err(|e| format!("clean run failed before arming the defect: {e}"))?;
    // ...and the armed transposition must be caught by the very same gate.
    match fbb_lp::fault::with_swapped_postsolve_entries(|| diff::check_cluster_instance(&pre, 0.0))
    {
        Err(_) => Ok(()),
        Ok(()) => Err("transposed postsolve columns slipped past the cluster oracle".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_cover_every_fault() {
        let a = FaultPlan::from_seed(42);
        let b = FaultPlan::from_seed(42);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.faults().len(), ALL_FAULTS.len());
        for fault in ALL_FAULTS {
            assert!(a.faults().contains(&fault), "{fault:?} missing from plan");
        }
    }

    #[test]
    fn different_seeds_reorder_the_plan() {
        let orders: Vec<Vec<Fault>> =
            (0..8).map(|s| FaultPlan::from_seed(s).faults().to_vec()).collect();
        assert!(orders.windows(2).any(|w| w[0] != w[1]), "seed never changes the order");
    }

    #[test]
    fn every_fault_passes_on_the_healthy_engines() {
        FaultPlan::from_seed(7).execute().expect("healthy engines mislabeled a degraded exit");
    }
}
