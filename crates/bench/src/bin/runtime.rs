//! Regenerates the paper's §5 runtime comparison: the ILP is competitive
//! with the heuristic on small designs but orders of magnitude slower on
//! large ones ("speed-up of more than 1000X"), and fails to converge on the
//! largest two within a time budget.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin runtime [-- --beta 0.10 --clusters 2
//!     --ilp-time-limit 60 --designs c1355,c3540,...]
//! ```

use std::time::{Duration, Instant};

use fbb_bench::{arg_value, format_row, prepare_design, run_allocation};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let beta: f64 = arg_value(&args, "--beta").and_then(|v| v.parse().ok()).unwrap_or(0.10);
    let c: usize = arg_value(&args, "--clusters").and_then(|v| v.parse().ok()).unwrap_or(2);
    let limit = Duration::from_secs_f64(
        arg_value(&args, "--ilp-time-limit").and_then(|v| v.parse().ok()).unwrap_or(60.0),
    );
    let designs: Vec<String> = arg_value(&args, "--designs")
        .map(|v| v.split(',').map(str::to_owned).collect())
        .unwrap_or_else(|| {
            ["c1355", "c3540", "c5315", "c7552", "adder_128bits", "c6288", "Industrial1"]
                .map(str::to_owned)
                .to_vec()
        });

    let widths = [14usize, 6, 12, 12, 10, 10, 9];
    println!(
        "{}",
        format_row(
            &[
                "Benchmark".into(),
                "Rows".into(),
                "heur[ms]".into(),
                "ilp[ms]".into(),
                "speedup".into(),
                "optimal?".into(),
                "nodes".into(),
            ],
            &widths
        )
    );

    for name in &designs {
        let design = prepare_design(name);
        let pre = design.preprocess(beta, c);
        // Time the heuristic alone (run_allocation also runs the baseline).
        let t0 = Instant::now();
        let heur = fbb_core::TwoPassHeuristic::default().solve(&pre).expect("feasible");
        let heur_ms = t0.elapsed().as_secs_f64() * 1e3;
        let run = run_allocation(&pre, Some(limit), true).expect("feasible");
        let ilp = run.ilp.expect("ilp requested");
        let ilp_ms = ilp.runtime.as_secs_f64() * 1e3;
        let _ = heur;
        println!(
            "{}",
            format_row(
                &[
                    name.clone(),
                    pre.n_rows().to_string(),
                    format!("{heur_ms:.2}"),
                    format!("{ilp_ms:.1}"),
                    format!("{:.0}x", ilp_ms / heur_ms.max(1e-3)),
                    if ilp.proven_optimal { "yes".into() } else { format!("gap {:.1}%", ilp.gap * 100.0) },
                    ilp.nodes.to_string(),
                ],
                &widths
            )
        );
    }
    println!(
        "\npaper: ILP runtime comparable on small designs, >1000x slower on large ones;\n\
         Industrial2/3 did not converge within the time budget"
    );
}
