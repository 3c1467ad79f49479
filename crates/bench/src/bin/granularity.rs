//! Reproduces the paper's §2 granularity argument: block-level FBB (prior
//! art) wastes leakage, gate-level clustering (Kulkarni et al., TCAD'08)
//! saves the most leakage but pays "very large" area overhead for placement
//! perturbation and per-gate well separation, while the paper's row-level
//! clustering captures most of the savings at near-zero area cost.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin granularity [-- --design c3540 --beta 0.10]
//! ```

use fbb_bench::{arg_parse, arg_value, format_row, prepare_design, ArgError};
use fbb_core::{single_bb, FbbProblem, Granularity, TwoPassHeuristic};
use fbb_placement::layout;

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c3540".into());
    let beta: f64 = arg_parse(&args, "--beta")?.unwrap_or(0.10);

    let design = prepare_design(&name);
    println!(
        "{name} @ beta = {:.0}%, C = 3: clustering granularity comparison\n",
        beta * 100.0
    );
    let widths = [7usize, 7, 10, 10, 11, 12];
    println!(
        "{}",
        format_row(
            &[
                "unit".into(),
                "units".into(),
                "clusters".into(),
                "savings%".into(),
                "area ovh%".into(),
                "well seps".into(),
            ],
            &widths
        )
    );

    for granularity in [Granularity::Block, Granularity::Row, Granularity::Gate] {
        let problem = FbbProblem::new(
            &design.netlist,
            &design.placement,
            &design.characterization,
            beta,
            3,
        )
        .expect("valid parameters");
        let pre = problem.preprocess_at(granularity).expect("acyclic");
        let baseline = single_bb(&pre).expect("compensable");
        let sol = TwoPassHeuristic.solve(&pre).expect("feasible");
        assert!(sol.meets_timing);

        let (label, area, seps) = match granularity {
            Granularity::Block => ("block".to_owned(), 0.0, 0usize),
            Granularity::Row => {
                let a = layout::analyze(
                    &design.placement,
                    design.characterization.ladder(),
                    &sol.assignment,
                )
                .expect("row solutions satisfy the layout rule");
                ("row".to_owned(), a.area_overhead_pct(), a.well_separations)
            }
            Granularity::Gate => {
                let a = layout::analyze_gate_level(
                    &design.placement,
                    design.characterization.ladder(),
                    &sol.assignment,
                )
                .expect("assignment covers every gate");
                (
                    "gate".to_owned(),
                    a.area_overhead_pct(),
                    a.intra_row_separations + a.row_separations,
                )
            }
        };
        println!(
            "{}",
            format_row(
                &[
                    label,
                    pre.n_rows().to_string(),
                    sol.clusters.to_string(),
                    format!("{:.2}", sol.savings_vs(&baseline)),
                    format!("{:.2}", area),
                    seps.to_string(),
                ],
                &widths
            )
        );
    }
    println!(
        "\npaper (section 2): gate-level clustering can tune finer but its area\n\
         overhead 'becomes very large'; a row needs no internal well separation"
    );
    Ok(())
}
