//! Ablation (DESIGN.md §6): sensitivity of the clustered-FBB savings to the
//! leakage exponent α in `L(vbs) = L0·e^{α·vbs}`. The paper's central claim
//! — cluster to avoid paying exponential leakage for uncritical rows —
//! weakens as α → 0 and strengthens with α; this sweep quantifies that.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin leakage_sensitivity [-- --design c5315]
//! ```

use fbb_bench::{arg_parse, arg_value, format_row, require_table1, ArgError};
use fbb_core::{single_bb, FbbProblem, TwoPassHeuristic};
use fbb_device::{BiasLadder, BiasVoltage, BodyBiasModel, Library};
use fbb_netlist::suite;
use fbb_placement::{Placer, PlacerOptions};

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c5315".into());
    let beta: f64 = arg_parse(&args, "--beta")?.unwrap_or(0.10);
    require_table1(&name)?;

    let netlist = suite::generate(&name).expect("table 1 design");
    let stats = suite::PAPER_TABLE1.iter().find(|s| s.name == name).expect("table 1 design");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(stats.rows as u32))
        .place(&netlist, &library)
        .expect("placeable");
    let ladder = BiasLadder::date09().expect("valid ladder");

    // The paper's calibration: alpha = ln(12.74)/0.95 ≈ 2.68 /V.
    let paper_alpha = 12.74f64.ln() / 0.95;
    let speedup = 0.21 / 0.95;

    println!(
        "{name} @ beta = {:.0}%, C = 3: savings vs leakage exponent\n",
        beta * 100.0
    );
    let widths = [10usize, 14, 12, 10];
    println!(
        "{}",
        format_row(
            &["alpha[/V]".into(), "leak@0.5V [x]".into(), "savings%".into(), "jopt".into()],
            &widths
        )
    );
    for scale in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let alpha = paper_alpha * scale;
        let model = BodyBiasModel::new(speedup, alpha, 0.95, BiasVoltage::from_millivolts(500))
            .expect("valid model");
        let chara = library.characterize(&model, &ladder);
        let pre = FbbProblem::new(&netlist, &placement, &chara, beta, 3)
            .expect("valid parameters")
            .preprocess()
            .expect("acyclic");
        let baseline = single_bb(&pre).expect("compensable");
        let sol = TwoPassHeuristic.solve(&pre).expect("feasible");
        println!(
            "{}",
            format_row(
                &[
                    format!("{alpha:.2}"),
                    format!("{:.2}", (alpha * 0.5).exp()),
                    format!("{:.2}", sol.savings_vs(&baseline)),
                    baseline.assignment[0].to_string(),
                ],
                &widths
            )
        );
    }
    println!("\nsavings grow with the leakage exponent: the steeper the exponential,");
    println!("the more a row saved from full bias is worth — the paper's core premise");
    Ok(())
}
