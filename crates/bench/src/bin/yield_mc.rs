//! Extension experiment: Monte-Carlo parametric timing yield before and
//! after clustered-FBB compensation. This quantifies the paper's motivating
//! claim — FBB tuning "brings the slow dies back to within the range of
//! acceptable specs" — end to end: sample dies from a slow-corner process,
//! sense each die's β with a critical-path monitor, allocate row biases, and
//! re-check timing with the per-gate (not uniform!) degraded delays.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin yield_mc [-- --design c3540 --dies 40]
//! ```

use fbb_bench::{arg_parse, arg_value, prepare_design, require_table1, ArgError};
use fbb_core::{FbbProblem, TwoPassHeuristic};
use fbb_netlist::GateId;
use fbb_sta::TimingGraph;
use fbb_variation::{CriticalPathSensor, ProcessVariation};

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c3540".into());
    let dies: usize = arg_parse(&args, "--dies")?.unwrap_or(40);
    let seed: u64 = arg_parse(&args, "--seed")?.unwrap_or(0xD1E5);

    require_table1(&name)?;
    let design = prepare_design(&name);
    let graph = TimingGraph::new(&design.netlist).expect("acyclic");
    let nominal: Vec<f64> = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.characterization.delay_ps(g.cell, 0))
        .collect();
    let nominal_dcrit = graph.analyze(&nominal).dcrit_ps();
    let clock = nominal_dcrit; // sign off exactly at the nominal critical delay

    let positions: Vec<(f64, f64)> = (0..design.netlist.gate_count())
        .map(|i| design.placement.position_um(GateId::from_index(i)))
        .collect();
    let extent = (design.placement.die().width_um(), design.placement.die().height_um());
    let pv = ProcessVariation::slow_corner_45nm();
    let sensor = CriticalPathSensor::default();

    let mut pass_raw = 0usize;
    let mut pass_comp = 0usize;
    let mut leak_comp = 0.0f64;
    let mut leak_single = 0.0f64;
    let mut uncompensable = 0usize;
    for die_idx in 0..dies {
        let die = pv.sample(seed.wrapping_add(die_idx as u64), &positions, extent);
        let degraded = die.apply(&nominal);
        let observed = graph.analyze(&degraded).dcrit_ps();
        if observed <= clock {
            pass_raw += 1;
            pass_comp += 1;
            continue;
        }
        // Post-silicon calibration: sense beta, allocate, apply, re-check
        // against the *actual* per-gate degradation.
        let beta = sensor.measure_beta(nominal_dcrit, observed);
        let problem = match FbbProblem::new(
            &design.netlist,
            &design.placement,
            &design.characterization,
            beta.min(0.12),
            3,
        ) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let pre = problem.preprocess().expect("acyclic");
        let (Ok(sol), Ok(baseline)) = (TwoPassHeuristic.solve(&pre), fbb_core::single_bb(&pre))
        else {
            uncompensable += 1;
            continue;
        };
        // True silicon check: speed up each gate by its row's bias level.
        let speedup: Vec<f64> =
            (0..pre.levels()).map(|j| design.characterization.speedup_fraction(j)).collect();
        let tuned: Vec<f64> = degraded
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let row = design.placement.row_of(GateId::from_index(i)).index();
                d * (1.0 - speedup[sol.assignment[row]])
            })
            .collect();
        let tuned_dcrit = graph.analyze(&tuned).dcrit_ps();
        if tuned_dcrit <= clock * 1.0005 {
            pass_comp += 1;
            leak_comp += sol.leakage_nw;
            leak_single += baseline.leakage_nw;
        }
    }

    println!("{name}: {dies} dies, slow-corner population, clock = nominal Dcrit");
    println!("  raw yield (no tuning):         {:5.1}%", 100.0 * pass_raw as f64 / dies as f64);
    println!("  yield with clustered FBB:      {:5.1}%", 100.0 * pass_comp as f64 / dies as f64);
    if uncompensable > 0 {
        println!("  dies beyond the FBB envelope:  {uncompensable}");
    }
    if leak_single > 0.0 {
        println!(
            "  tuning leakage, clustered vs block-level FBB: {:.1} vs {:.1} nW ({:.1}% saved)",
            leak_comp,
            leak_single,
            100.0 * (leak_single - leak_comp) / leak_single
        );
    }
    Ok(())
}
