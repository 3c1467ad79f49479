//! Regenerates the paper's §5 cluster sweep: c5315 at β = 5 % with the
//! cluster budget swept C = 2 … 11. The paper measured "a marginal increase
//! in leakage power savings of 2.56%", concluding that two bias voltages
//! suffice — the result that justifies the low-overhead layout style.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin cluster_sweep [-- --design c5315 --beta 0.05]
//! ```

use fbb_bench::{arg_parse, arg_value, format_row, prepare_design, require_table1, ArgError};
use fbb_core::{single_bb, TwoPassHeuristic};

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c5315".into());
    let beta: f64 = arg_parse(&args, "--beta")?.unwrap_or(0.05);

    require_table1(&name)?;
    let design = prepare_design(&name);
    println!("{name} @ beta = {:.0}%: heuristic savings vs single BB\n", beta * 100.0);
    let widths = [4usize, 10, 10, 12];
    println!(
        "{}",
        format_row(
            &["C".into(), "savings%".into(), "clusters".into(), "delta to C=2".into()],
            &widths
        )
    );

    let mut first = None;
    for c in 2..=11 {
        let pre = design.preprocess(beta, c);
        let baseline = single_bb(&pre).expect("compensable");
        let sol = TwoPassHeuristic.solve(&pre).expect("feasible");
        let savings = sol.savings_vs(&baseline);
        let base = *first.get_or_insert(savings);
        println!(
            "{}",
            format_row(
                &[
                    c.to_string(),
                    format!("{savings:.2}"),
                    sol.clusters.to_string(),
                    format!("{:+.2}", savings - base),
                ],
                &widths
            )
        );
    }
    println!("\npaper: sweeping C = 2..11 on c5315 gained only +2.56% savings");
    Ok(())
}
