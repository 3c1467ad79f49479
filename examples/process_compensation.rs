//! Post-silicon process compensation, end to end (paper §3.1): sample a
//! slow-corner die, sense its slowdown with a critical-path monitor,
//! allocate clustered FBB, and verify the tuned die against the per-gate
//! (not uniform) degradation.
//!
//! ```text
//! cargo run --release --example process_compensation
//! ```

use fbb::core::{single_bb, FbbProblem, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Library};
use fbb::netlist::{generators, GateId};
use fbb::placement::{Placer, PlacerOptions};
use fbb::sta::TimingGraph;
use fbb::variation::{CriticalPathSensor, ProcessVariation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::alu("alu32", 32)?;
    let library = Library::date09_45nm();
    let characterization =
        library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
    let placement =
        Placer::new(PlacerOptions::with_target_rows(15)).place(&netlist, &library)?;

    // Nominal timing sign-off.
    let graph = TimingGraph::new(&netlist)?;
    let nominal: Vec<f64> =
        netlist.gates().iter().map(|g| characterization.delay_ps(g.cell, 0)).collect();
    let clock_ps = graph.analyze(&nominal).dcrit_ps();
    println!("nominal Dcrit (= clock): {clock_ps:.1} ps");

    // Fabricate a die from a slow-corner population.
    let variation = ProcessVariation::slow_corner_45nm();
    let positions: Vec<(f64, f64)> =
        (0..netlist.gate_count()).map(|i| placement.position_um(GateId::from_index(i))).collect();
    let extent = (placement.die().width_um(), placement.die().height_um());
    let die = variation.sample(42, &positions, extent);
    let degraded = die.apply(&nominal);
    let observed = graph.analyze(&degraded).dcrit_ps();
    println!(
        "fabricated die: Dcrit = {observed:.1} ps ({:+.1}% vs nominal) — {}",
        100.0 * (observed / clock_ps - 1.0),
        if observed > clock_ps { "FAILS timing" } else { "meets timing" }
    );

    // The on-chip monitor measures beta (quantized, guard-banded).
    let sensor = CriticalPathSensor::default();
    let beta = sensor.measure_beta(clock_ps, observed);
    println!("sensor reads beta = {:.1}%", beta * 100.0);

    // Allocate clustered FBB for the sensed slowdown.
    let problem = FbbProblem::new(&netlist, &placement, &characterization, beta, 3)?;
    let pre = problem.preprocess()?;
    let baseline = single_bb(&pre)?;
    let solution = TwoPassHeuristic.solve(&pre)?;
    println!(
        "allocation: {} clusters, leakage {:.1} nW ({:.1}% below block-level FBB)",
        solution.clusters,
        solution.leakage_nw,
        solution.savings_vs(&baseline)
    );

    // Apply the biases to the real (per-gate) degraded silicon and re-check.
    let tuned: Vec<f64> = degraded
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let row = placement.row_of(GateId::from_index(i)).index();
            let level = solution.assignment[row];
            d * (1.0 - characterization.speedup_fraction(level))
        })
        .collect();
    let tuned_dcrit = graph.analyze(&tuned).dcrit_ps();
    println!(
        "tuned die: Dcrit = {tuned_dcrit:.1} ps — {}",
        if tuned_dcrit <= clock_ps * 1.001 { "meets timing (rescued)" } else { "still violating" }
    );
    Ok(())
}
