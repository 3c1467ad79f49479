//! Pins the warm sweep's one-STA contract: the nominal timing analysis
//! reads no grid axis, so a warm `run_sweep` runs it once for the whole
//! grid, while the cold reference runs one per solved cell.
//!
//! Its own test binary, because the telemetry sink is process-global.

use std::collections::BTreeMap;
use std::sync::Mutex;

use fbb_core::{run_sweep, SweepGrid, SweepOptions, SweepReport};
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};

/// Tests that enable/reset telemetry must not interleave.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Sweeps a 2-β grid under telemetry and returns the report and counters.
fn sweep_counters(options: &SweepOptions) -> (SweepReport, BTreeMap<String, u64>) {
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

    let _guard = TELEMETRY_LOCK.lock().expect("telemetry lock poisoned");
    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let report = run_sweep(&netlist, &placement, &chara, &grid, options, |_| {})
        .expect("sweep over a valid design succeeds");
    let counters = fbb_telemetry::snapshot().counters;
    fbb_telemetry::disable();
    fbb_telemetry::reset();
    (report, counters)
}

#[test]
fn warm_sweep_runs_one_full_sta() {
    let (report, counters) = sweep_counters(&SweepOptions::default());
    assert_eq!(report.preprocess_count, 2, "one pre-process per beta");
    assert_eq!(
        counters.get("sta_full_analyses").copied(),
        Some(1),
        "a warm sweep must share one nominal analysis across every beta"
    );
}

#[test]
fn cold_sweep_runs_one_full_sta_per_solved_cell() {
    let (report, counters) = sweep_counters(&SweepOptions { cold: true, ..Default::default() });
    let solved = report.cells.len() - report.pruned;
    assert!(solved > 1, "the grid must solve several cells");
    assert_eq!(counters.get("sta_full_analyses").copied(), Some(solved as u64));
}
