//! Pins the warm sweep's one-STA contract: the nominal timing analysis
//! reads no grid axis, so a warm `run_sweep` runs it once for the whole
//! grid, while the cold reference runs one per solved cell. A warm sweep's
//! telemetry splits it into graph build, analysis, pre-process and MIP
//! spans.
//!
//! Its own test binary, because the telemetry sink is process-global.

use std::sync::Mutex;

use fbb_core::{run_sweep, SweepGrid, SweepOptions, SweepReport};
use fbb_telemetry::Snapshot;
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};

/// Tests that enable/reset telemetry must not interleave.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Sweeps a 2-β grid under telemetry and returns the report and snapshot.
fn sweep_telemetry(options: &SweepOptions) -> (SweepReport, Snapshot) {
    // Held from the start: the timing-driven placer runs full analyses of
    // its own, which another test's enabled sink would count.
    let _guard = TELEMETRY_LOCK.lock().expect("telemetry lock poisoned");
    let netlist = generators::ripple_adder("a24", 24, false).expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(6))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    let grid = SweepGrid { betas: vec![0.03, 0.05], clusters: vec![2, 3], levels: vec![3] };

    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let report = run_sweep(&netlist, &placement, &chara, &grid, options, |_| {})
        .expect("sweep over a valid design succeeds");
    let snapshot = fbb_telemetry::snapshot();
    fbb_telemetry::disable();
    fbb_telemetry::reset();
    (report, snapshot)
}

#[test]
fn warm_sweep_runs_one_full_sta() {
    let (report, snap) = sweep_telemetry(&SweepOptions::default());
    assert_eq!(report.preprocess_count, 2, "one pre-process per beta");
    assert_eq!(
        snap.counter("sta_full_analyses"),
        Some(1),
        "a warm sweep must share one nominal analysis across every beta"
    );
}

#[test]
fn cold_sweep_runs_one_full_sta_per_solved_cell() {
    let (report, snap) = sweep_telemetry(&SweepOptions { cold: true, ..Default::default() });
    let solved = report.cells.len() - report.pruned;
    assert!(solved > 1, "the grid must solve several cells");
    assert_eq!(snap.counter("sta_full_analyses"), Some(solved as u64));
}

#[test]
fn warm_sweep_spans_split_graph_build_analysis_preprocess_and_mip() {
    let (report, snap) = sweep_telemetry(&SweepOptions::default());
    let count = |name: &str| snap.spans.get(name).map_or(0, |s| s.count);
    // One graph, one analysis, and one pre-process pass that builds both
    // β's problems on shared β-independent tables.
    assert_eq!(count("sta_graph_build"), 1);
    assert_eq!(count("sta_analyze"), 1);
    assert_eq!(count("core_preprocess"), 1);
    let solved = report.cells.len() - report.pruned;
    assert!(count("bnb_solve") >= solved as u64, "one tree per solved cell");
    assert_eq!(count("core_sweep"), 1);
}
