//! Regenerates the paper's layout analysis (**Fig. 3**, **Fig. 6**, and the
//! §5 area numbers): body-bias contact-cell utilization increase (≤ ~6 %
//! per row), well-separation area overhead (< 5 % for every Table 1
//! solution), and the bias-line routing report. `--layout` additionally
//! renders the Fig. 6 style ASCII view of the placed-and-biased design.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin area_overhead [-- --layout --design c5315]
//! ```

use fbb_bench::{arg_flag, arg_parse, arg_value, format_row, prepare_design, ArgError};
use fbb_core::{single_bb, TwoPassHeuristic};
use fbb_placement::layout;

// `--cleanup PCT` applies the well-separation cleanup post-pass (an
// extension beyond the paper) with a PCT% leakage budget before analysis.

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let show_layout = arg_flag(&args, "--layout");
    let cleanup: Option<f64> = arg_parse(&args, "--cleanup")?;
    let only: Option<String> = arg_value(&args, "--design");
    let designs: Vec<String> = only.map(|d| vec![d]).unwrap_or_else(|| {
        ["c1355", "c3540", "c5315", "c7552", "adder_128bits", "c6288", "Industrial1"]
            .map(str::to_owned)
            .to_vec()
    });

    let widths = [14usize, 5, 9, 10, 12, 11, 10];
    println!(
        "{}",
        format_row(
            &[
                "Benchmark".into(),
                "Beta".into(),
                "wellseps".into(),
                "area ovh%".into(),
                "max util+%".into(),
                "bias lines".into(),
                "overflow".into(),
            ],
            &widths
        )
    );

    for name in &designs {
        let design = prepare_design(name);
        for beta in [0.05, 0.10] {
            let pre = design.preprocess(beta, 3);
            let Ok(_baseline) = single_bb(&pre) else { continue };
            let mut sol = TwoPassHeuristic.solve(&pre).expect("feasible");
            if let Some(pct) = cleanup {
                sol.reduce_well_separations(&pre, pct);
            }
            let analysis = layout::analyze(
                &design.placement,
                design.characterization.ladder(),
                &sol.assignment,
            )
            .expect("solution respects the layout limits");
            println!(
                "{}",
                format_row(
                    &[
                        name.clone(),
                        format!("{:.0}%", beta * 100.0),
                        analysis.well_separations.to_string(),
                        format!("{:.2}", analysis.area_overhead_pct()),
                        format!("{:.1}", analysis.max_utilization_increase() * 100.0),
                        analysis.bias_lines.to_string(),
                        analysis.overflow_rows.len().to_string(),
                    ],
                    &widths
                )
            );

            if show_layout && beta == 0.10 {
                println!("\n--- {} layout at beta=10% (Fig. 6 style) ---", name);
                let art = layout::render_ascii(
                    &design.placement,
                    design.characterization.ladder(),
                    &sol.assignment,
                )
                .expect("solution respects the layout limits");
                println!("{art}");
            }
        }
    }
    println!("\npaper: well-separation area increase always below 5%; <= ~6% row utilization");
    Ok(())
}
