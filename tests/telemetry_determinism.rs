//! Telemetry snapshots are deterministic: one pipeline, one seed, one
//! `FBB_THREADS` setting must produce bit-identical counters and value
//! distributions on every run, and the solver-side counters must not change
//! when only the worker-pool width changes.
//!
//! Kept as a single `#[test]` because telemetry state and `FBB_THREADS` are
//! process-global; separate tests would race under the parallel test runner.

use std::collections::BTreeMap;

use fbb::core::{FbbProblem, IlpAllocator, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Library};
use fbb::netlist::generators;
use fbb::placement::{Placer, PlacerOptions};
use fbb::telemetry::Snapshot;
use fbb::variation::{MonteCarloYield, ProcessVariation};

/// Runs the full allocator + Monte-Carlo pipeline under telemetry and
/// returns the resulting snapshot.
fn instrumented_pipeline(threads: &str) -> Snapshot {
    std::env::set_var("FBB_THREADS", threads);
    fbb::telemetry::reset();
    fbb::telemetry::enable();

    let nl = generators::ripple_adder("det32", 32, false).expect("valid generator");
    let library = Library::date09_45nm();
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    let placement = Placer::new(PlacerOptions::with_target_rows(8))
        .place(&nl, &library)
        .expect("placeable");
    let pre = FbbProblem::new(&nl, &placement, &chara, 0.05, 3)
        .expect("valid")
        .preprocess()
        .expect("acyclic");
    let heur = TwoPassHeuristic::default().solve(&pre).expect("feasible");
    let ilp = IlpAllocator::default().solve(&pre).expect("solves");
    let exact = ilp.solution.expect("feasible");
    assert!(exact.leakage_nw <= heur.leakage_nw + 1e-6);

    let nominal: Vec<f64> =
        nl.gates().iter().map(|g| chara.delay_ps(g.cell, 0)).collect();
    MonteCarloYield::new(&nl, &placement, &nominal)
        .estimate(&ProcessVariation::slow_corner_45nm(), pre.dcrit_ps, 16, 42)
        .expect("acyclic");

    let snap = fbb::telemetry::snapshot();
    fbb::telemetry::disable();
    snap
}

/// Counters that legitimately depend on the worker-pool width: the pool
/// bookkeeping itself. Everything else must be invariant under
/// `FBB_THREADS`.
fn thread_invariant(counters: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .iter()
        .filter(|(name, _)| !name.starts_with("par_"))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

#[test]
fn snapshots_are_deterministic() {
    let base = instrumented_pipeline("2");

    // The pipeline actually exercised every instrumented layer.
    for key in [
        "lp_simplex_solves",
        "lp_simplex_iterations",
        "bnb_nodes_explored",
        "ilp_solves",
        "ilp_constraints",
        "core_pass_one_scans",
        "core_demotion_attempts",
        "sta_full_analyses",
        "mc_runs",
        "mc_samples",
    ] {
        assert!(
            base.counter(key).is_some_and(|v| v > 0),
            "pipeline left counter {key} empty"
        );
    }
    assert_eq!(base.counter("mc_samples"), Some(16));
    // The heuristic's two passes are timed, once each per solve (the
    // heuristic's own and the ILP's warm start).
    let pass_one = base.span("core_pass_one").expect("PassOne span recorded");
    let pass_two = base.span("core_pass_two").expect("PassTwo span recorded");
    assert!(pass_one.count > 0);
    assert_eq!(pass_one.count, pass_two.count, "one PassTwo per feasible PassOne");
    let dcrit = base.stat("mc_die_dcrit_ps").expect("per-die stats recorded");
    assert_eq!(dcrit.count, 16);

    // Same seed, same FBB_THREADS: every aggregate except wall-clock spans
    // is bit-identical.
    let repeat = instrumented_pipeline("2");
    assert_eq!(base.counters, repeat.counters, "counters drifted across runs");
    assert_eq!(base.stats, repeat.stats, "value stats drifted across runs");
    assert_eq!(
        base.spans.keys().collect::<Vec<_>>(),
        repeat.spans.keys().collect::<Vec<_>>(),
        "span set drifted across runs"
    );

    // Different worker-pool widths: solver work is scheduled differently but
    // the algorithms are width-independent, so everything outside the
    // documented exclusions matches — including across serial (1) and
    // parallel (4) code paths.
    let serial = instrumented_pipeline("1");
    let wide = instrumented_pipeline("4");
    assert_eq!(
        thread_invariant(&base.counters),
        thread_invariant(&serial.counters),
        "2 threads vs serial"
    );
    assert_eq!(
        thread_invariant(&base.counters),
        thread_invariant(&wide.counters),
        "2 threads vs 4 threads"
    );
    assert_eq!(base.stats, serial.stats, "value stats depend on FBB_THREADS");
    assert_eq!(base.stats, wide.stats, "value stats depend on FBB_THREADS");

    std::env::remove_var("FBB_THREADS");
}
