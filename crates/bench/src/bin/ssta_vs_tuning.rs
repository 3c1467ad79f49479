//! Extension: design-time statistical sign-off vs post-silicon FBB tuning —
//! the paper's §1 position ("post silicon tuning can complement and
//! sometimes outperform pre-silicon statistical optimization"), quantified.
//!
//! Statistical sign-off carries the process spread through SSTA and margins
//! the clock to the 3σ quantile: every die works, but every die pays the
//! clock penalty. Post-silicon tuning signs off at the *nominal* clock and
//! rescues the slow dies with clustered FBB, paying leakage only on the
//! dies (and rows) that need it.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin ssta_vs_tuning [-- --design c3540 --dies 40]
//! ```

use fbb_bench::{arg_parse, arg_value, prepare_design, ArgError};
use fbb_core::{FbbProblem, TwoPassHeuristic};
use fbb_netlist::GateId;
use fbb_sta::ssta::CanonicalDelay;
use fbb_sta::TimingGraph;
use fbb_variation::{CriticalPathSensor, ProcessVariation};

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c3540".into());
    let dies: usize = arg_parse(&args, "--dies")?.unwrap_or(40);

    let design = prepare_design(&name);
    let graph = TimingGraph::new(&design.netlist).expect("acyclic");
    let nominal: Vec<f64> = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.characterization.delay_ps(g.cell, 0))
        .collect();
    let nominal_dcrit = graph.analyze(&nominal).dcrit_ps();
    let nominal_leak: f64 = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.characterization.leakage_nw(g.cell, 0))
        .sum();

    let pv = ProcessVariation::slow_corner_45nm();

    // --- Design-time statistical sign-off (SSTA) ---------------------------
    // Map the process model onto canonical delays: the die-to-die term is
    // the shared global; the within-die terms fold into the independent part.
    let wid_sigma =
        (pv.wid_systematic_sigma.powi(2) + pv.wid_random_sigma.powi(2)).sqrt();
    let canon: Vec<CanonicalDelay> = nominal
        .iter()
        .map(|&m| {
            CanonicalDelay::new(m * (1.0 + pv.d2d_mean), m * pv.d2d_sigma, m * wid_sigma)
        })
        .collect();
    let stat_dcrit = graph.analyze_statistical(&canon);
    let signoff_clock = stat_dcrit.quantile(0.997); // 3-sigma margining
    println!("{name}: nominal Dcrit = {nominal_dcrit:.1} ps, NBB leakage = {nominal_leak:.0} nW");
    println!(
        "\nstatistical sign-off (SSTA over the slow-corner population):\n  \
         Dcrit distribution: mean {:.1} ps, sigma {:.1} ps\n  \
         3-sigma sign-off clock: {signoff_clock:.1} ps  ({:+.1}% clock penalty on every die)",
        stat_dcrit.mean,
        stat_dcrit.sigma(),
        100.0 * (signoff_clock / nominal_dcrit - 1.0)
    );

    // --- Post-silicon clustered-FBB tuning ---------------------------------
    let positions: Vec<(f64, f64)> = (0..design.netlist.gate_count())
        .map(|i| design.placement.position_um(GateId::from_index(i)))
        .collect();
    let extent = (design.placement.die().width_um(), design.placement.die().height_um());
    let sensor = CriticalPathSensor::default();
    let mut rescued = 0usize;
    let mut native_pass = 0usize;
    let mut leak_sum = 0.0;
    for die_idx in 0..dies {
        let die = pv.sample(0x55A + die_idx as u64, &positions, extent);
        let degraded = die.apply(&nominal);
        let observed = graph.analyze(&degraded).dcrit_ps();
        if observed <= nominal_dcrit {
            native_pass += 1;
            leak_sum += nominal_leak;
            continue;
        }
        let beta = sensor.measure_beta(nominal_dcrit, observed).min(0.10);
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
            // Verify on the true per-gate degradation.
            let tuned: Vec<f64> = degraded
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let row = design.placement.row_of(GateId::from_index(i)).index();
                    d * (1.0 - design.characterization.speedup_fraction(sol.assignment[row]))
                })
                .collect();
            if graph.analyze(&tuned).dcrit_ps() <= nominal_dcrit * 1.0005 {
                rescued += 1;
                leak_sum += sol.leakage_nw;
            }
        }
    }
    let tuned_yield = 100.0 * (native_pass + rescued) as f64 / dies as f64;
    println!(
        "\npost-silicon clustered FBB ({dies} sampled dies):\n  \
         sign-off clock: {nominal_dcrit:.1} ps (no clock penalty)\n  \
         yield at that clock: {tuned_yield:.1}% ({native_pass} native + {rescued} rescued)\n  \
         mean leakage: {:.0} nW/die ({:+.1}% vs NBB)",
        leak_sum / dies as f64,
        100.0 * (leak_sum / dies as f64 / nominal_leak - 1.0)
    );
    println!(
        "\nthe trade (paper section 1): margining taxes every die's clock; tuning\n\
         keeps the nominal clock and pays leakage only where the silicon is slow"
    );
    Ok(())
}
