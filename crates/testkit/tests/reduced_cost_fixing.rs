//! Reduced-cost fixing keeps branch & bound exact. Seeded random FBB-shaped
//! instances (`gen::random_cluster`) and random small binary models are
//! solved with the incumbent seeded at the enumerated optimum and at the
//! runner-up: a pin that cut the optimum off would leave the runner-up
//! standing, and `solve_mip`'s status and objective must equal the
//! enumeration's either way. The runs must pin columns, at the root and
//! at other nodes, so the agreement is not vacuous.
//!
//! One `#[test]`: the pin counts come from the process-global telemetry
//! sink, which a second test running in parallel would also write.

use fbb_core::{IlpAllocator, Preprocessed};
use fbb_lp::{solve_mip, MipOptions, MipStatus, Model, Sense};
use fbb_testkit::gen::{self, case_rng};
use fbb_testkit::oracle::enumerate;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Two seeds for an objective: the best feasible point and the best one
/// worse than it by more than 1e-6, each as `(objective, point)`.
type Seeds = (Option<(f64, Vec<f64>)>, Option<(f64, Vec<f64>)>);

/// The best and runner-up of every feasible point of a model.
fn seeds(mut feasible: Vec<(f64, Vec<f64>)>) -> Seeds {
    feasible.sort_by(|a, b| a.0.total_cmp(&b.0));
    let best = feasible.first().cloned();
    let second = best
        .as_ref()
        .and_then(|(b, _)| feasible.iter().find(|(obj, _)| *obj > b + 1e-6).cloned());
    (best, second)
}

/// `assignment` as a point of [`IlpAllocator::build_model`]'s model: the
/// `x[i][j]` one-hots row by row, then `y[j]` set for every level in use.
fn encode(pre: &Preprocessed, assignment: &[usize]) -> Vec<f64> {
    let (n, p) = (pre.n_rows(), pre.levels());
    let mut x = vec![0.0; n * p + p];
    for (i, &j) in assignment.iter().enumerate() {
        x[i * p + j] = 1.0;
        x[n * p + j] = 1.0;
    }
    x
}

/// Solves `model` seeded with each of `seeds` and holds the answer to the
/// enumerated optimum `truth` (`None`: no feasible point).
fn check_seeded(model: &Model, options: &MipOptions, truth: Option<f64>, seeds: Seeds, case: &str) {
    let Some(optimum) = truth else {
        let sol = solve_mip(model, options, None).expect("solve runs");
        assert_eq!(sol.status, MipStatus::Infeasible, "{case}: enumeration finds no point");
        return;
    };
    let (best, second) = seeds;
    for (label, seed) in [("optimum", best), ("runner-up", second)] {
        let Some(seed) = seed else { continue };
        let sol = solve_mip(model, options, Some(seed)).expect("solve runs");
        assert_eq!(sol.status, MipStatus::Optimal, "{case}, seeded at the {label}");
        assert!(
            (sol.objective - optimum).abs() <= 1e-9,
            "{case}, seeded at the {label}: objective {} vs enumerated {optimum}",
            sol.objective
        );
        assert!(model.is_feasible(&sol.x, 1e-6), "{case}, seeded at the {label}");
    }
}

/// The best and runner-up assignments of a small FBB instance, by the
/// testkit's enumeration oracle, as model points.
fn cluster_seeds(pre: &Preprocessed, model: &Model) -> Seeds {
    let mut feasible = Vec::new();
    let mut assignment = vec![0usize; pre.n_rows()];
    loop {
        if enumerate::assignment_is_feasible(pre, &assignment) {
            let point = encode(pre, &assignment);
            feasible.push((model.objective_value(&point), point));
        }
        let Some(k) = assignment.iter().position(|&l| l + 1 < pre.levels()) else { break };
        assignment[k] += 1;
        assignment[..k].iter_mut().for_each(|l| *l = 0);
    }
    seeds(feasible)
}

/// A random binary model with 4–10 columns: costs in steps of 0.1 (so the
/// runner-up often sits within 1 of the optimum) and 1–4 knapsack-style
/// rows that leave the relaxation fractional.
fn random_binary_model(rng: &mut ChaCha8Rng) -> Model {
    let n = rng.gen_range(4..=10usize);
    let mut m = Model::new();
    let vars: Vec<usize> =
        (0..n).map(|_| m.add_binary(f64::from(rng.gen_range(-30..=30i32)) / 10.0)).collect();
    for _ in 0..rng.gen_range(1..=4usize) {
        let terms: Vec<(usize, f64)> = vars
            .iter()
            .map(|&v| (v, f64::from(rng.gen_range(-2..=5i32))))
            .filter(|&(_, a)| a != 0.0)
            .collect();
        if terms.is_empty() {
            continue;
        }
        let total: f64 = terms.iter().map(|&(_, a)| a.max(0.0)).sum();
        let rhs = (total * rng.gen_range(0.2..0.8f64)).round();
        let sense = if rng.gen_bool(0.75) { Sense::Le } else { Sense::Ge };
        m.add_constraint(terms, sense, rhs).expect("valid terms");
    }
    m
}

/// Best and runner-up points of a binary model over all `2^n` points.
fn binary_seeds(model: &Model) -> Seeds {
    let n = model.var_count();
    let feasible = (0u32..1 << n)
        .map(|code| (0..n).map(|j| f64::from((code >> j) & 1)).collect::<Vec<f64>>())
        .filter(|point| model.is_feasible(point, 1e-9))
        .map(|point| (model.objective_value(&point), point))
        .collect();
    seeds(feasible)
}

#[test]
fn seeded_trees_match_enumeration_and_pin_columns() {
    fbb_telemetry::enable();
    fbb_telemetry::reset();

    for case in 0..300u64 {
        let pre = gen::random_cluster(&mut case_rng(0xF1C5, case));
        let model = IlpAllocator::default().build_model(&pre).expect("model builds");
        let options =
            MipOptions { hints: Some(IlpAllocator::structure_hints(&pre)), ..MipOptions::default() };
        let truth = enumerate::best_assignment(&pre).map(|r| r.leakage_nw);
        let seeds = cluster_seeds(&pre, &model);
        check_seeded(&model, &options, truth, seeds, &format!("cluster case {case}"));
    }
    let cluster = fbb_telemetry::snapshot();

    fbb_telemetry::reset();
    for case in 0..300u64 {
        let model = random_binary_model(&mut case_rng(0xB1A7, case));
        let seeds = binary_seeds(&model);
        let truth = seeds.0.as_ref().map(|(obj, _)| *obj);
        check_seeded(&model, &MipOptions::default(), truth, seeds, &format!("binary case {case}"));
    }
    let binary = fbb_telemetry::snapshot();
    fbb_telemetry::disable();

    for (family, snap) in [("cluster", &cluster), ("binary", &binary)] {
        let root = snap.counter("bnb_vars_fixed_root").unwrap_or(0);
        let node = snap.counter("bnb_vars_fixed_node").unwrap_or(0);
        assert!(root > 0 && node > 0, "{family} trees pinned {root} root and {node} node columns");
    }
}
