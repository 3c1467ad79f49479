//! Extension: bidirectional ABB over a die population, as in Tschanz et al.
//! (the paper's prior-art baseline, Tschanz et al. JSSC 2002). Slow dies get the paper's
//! *clustered FBB*; fast dies get uniform RBB up to their timing slack,
//! recovering leakage that the FBB-only flow leaves on the table — bounded
//! by the BTBT-limited optimum of §3.2.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin abb_bidirectional [-- --design c3540 --dies 60]
//! ```

use fbb_bench::{arg_parse, arg_value, prepare_design, ArgError};
use fbb_core::{FbbProblem, TwoPassHeuristic};
use fbb_device::rbb::RbbModel;
use fbb_netlist::GateId;
use fbb_sta::TimingGraph;
use fbb_variation::{CriticalPathSensor, ProcessVariation};

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c3540".into());
    let dies: usize = arg_parse(&args, "--dies")?.unwrap_or(60);

    let design = prepare_design(&name);
    let graph = TimingGraph::new(&design.netlist).expect("acyclic");
    let nominal: Vec<f64> = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.characterization.delay_ps(g.cell, 0))
        .collect();
    let nominal_leak: f64 = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.characterization.leakage_nw(g.cell, 0))
        .sum();
    let clock = graph.analyze(&nominal).dcrit_ps();

    let positions: Vec<(f64, f64)> = (0..design.netlist.gate_count())
        .map(|i| design.placement.position_um(GateId::from_index(i)))
        .collect();
    let extent = (design.placement.die().width_um(), design.placement.die().height_um());
    // A centred population: roughly half the dies are fast, half slow.
    let pv = ProcessVariation::typical_45nm();
    let sensor = CriticalPathSensor::default();
    let rbb = RbbModel::date09_45nm();

    let mut slow = 0usize;
    let mut fast = 0usize;
    let mut fbb_leak = 0.0f64;
    let mut rbb_leak = 0.0f64;
    let mut untouched_leak = 0.0f64;
    for die_idx in 0..dies {
        let die = pv.sample(0xABB0 + die_idx as u64, &positions, extent);
        let degraded = die.apply(&nominal);
        let observed = graph.analyze(&degraded).dcrit_ps();
        if observed > clock {
            // Slow die: clustered FBB.
            slow += 1;
            let beta = sensor.measure_beta(clock, observed).min(0.10);
            let pre = FbbProblem::new(
                &design.netlist,
                &design.placement,
                &design.characterization,
                beta,
                3,
            )
            .expect("valid")
            .preprocess()
            .expect("acyclic");
            if let Ok(sol) = TwoPassHeuristic.solve(&pre) {
                fbb_leak += sol.leakage_nw;
            } else {
                fbb_leak += nominal_leak; // beyond the envelope: ship at NBB
            }
        } else {
            // Fast die: uniform RBB inside the slack, capped at the
            // BTBT-limited optimum.
            fast += 1;
            let slack_fraction = clock / observed - 1.0;
            let within_slack = rbb.max_bias_within_slack(slack_fraction, 50);
            let optimal = rbb.optimal_bias(50);
            let v = within_slack.min(optimal);
            rbb_leak += nominal_leak * rbb.leakage_multiplier(v);
            untouched_leak += nominal_leak;
        }
    }

    println!("{name}: {dies} dies from a centred population, clock = nominal Dcrit");
    println!("  slow dies rescued with clustered FBB: {slow}");
    println!("  fast dies reverse-biased:             {fast}");
    if slow > 0 {
        println!("  mean FBB-tuned leakage:  {:.1} nW/die", fbb_leak / slow as f64);
    }
    if fast > 0 {
        println!(
            "  fast-die leakage: {:.1} nW/die with RBB vs {:.1} nW/die without ({:.1}% recovered)",
            rbb_leak / fast as f64,
            untouched_leak / fast as f64,
            100.0 * (untouched_leak - rbb_leak) / untouched_leak
        );
    }
    println!(
        "\nRBB is capped at its BTBT optimum ({}): past it, reverse bias leaks MORE (paper section 3.2)",
        rbb.optimal_bias(50)
    );
    Ok(())
}
