//! Dynamic (in-field) tuning, paper §3.1: temperature and aging slowdowns
//! are time-varying, so the control loop periodically re-senses β and
//! re-runs the clustered allocation. This example drives a day-long die
//! temperature trace plus a fixed process offset through the loop with a
//! re-tune hysteresis, tracking leakage and timing over time.
//!
//! ```text
//! cargo run --release --example dynamic_tuning
//! ```

use fbb::core::{ClusterSolution, FbbProblem, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Library};
use fbb::netlist::generators;
use fbb::placement::{Placer, PlacerOptions};
use fbb::variation::{temperature_derating, CriticalPathSensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::alu("alu24", 24)?;
    let library = Library::date09_45nm();
    let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
    let placement = Placer::new(PlacerOptions::with_target_rows(12)).place(&netlist, &library)?;

    // This die came back 3% slow from process; temperature rides on top.
    let process_beta = 0.03;
    let sensor = CriticalPathSensor::default();

    // A day in the life: idle morning, load spike, hot afternoon, cooldown.
    let trace: [(u32, f64); 9] = [
        (0, 35.0),
        (3, 45.0),
        (6, 60.0),
        (9, 80.0),
        (12, 85.0),
        (15, 75.0),
        (18, 70.0),
        (21, 45.0),
        (24, 35.0),
    ];

    println!("hour  T[C]  sensed beta%  action    clusters  leak[nW]  timing");
    let mut active: Option<(f64, ClusterSolution)> = None;
    let mut retunes = 0;
    for (hour, temp) in trace {
        let total = (1.0 + process_beta) * temperature_derating(temp) - 1.0;
        let sensed = sensor.measure_beta(1.0, 1.0 + total.max(0.0));

        // Hysteresis: keep the current setting while it still covers the
        // sensed slowdown and over-biases by less than one ladder step.
        let keep = active
            .as_ref()
            .map(|&(tuned_for, _)| sensed <= tuned_for && tuned_for - sensed < 0.011)
            .unwrap_or(false);
        let action = if keep {
            "hold"
        } else {
            let pre = FbbProblem::new(&netlist, &placement, &chara, sensed, 3)?
                .preprocess()?;
            match TwoPassHeuristic.solve(&pre) {
                Ok(sol) => {
                    active = Some((sensed, sol));
                    retunes += 1;
                    "RE-TUNE"
                }
                // Beyond the FBB envelope a real system would throttle the
                // clock; keep the last setting and flag it.
                Err(_) => "THROTTLE",
            }
        };
        let (tuned_for, sol) = active.as_ref().expect("tuned at least once");
        println!(
            "{hour:>4}  {temp:>4.0}  {:>12.1}  {action:<8}  {:>8}  {:>8.1}  {}",
            sensed * 100.0,
            sol.clusters,
            sol.leakage_nw,
            if *tuned_for >= sensed { "met" } else { "VIOLATED" },
        );
    }
    println!("\nre-tunes over the day: {retunes} (hysteresis suppresses chatter)");
    Ok(())
}
