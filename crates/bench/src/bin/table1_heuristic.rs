//! Pins the two-pass heuristic's answers on Table 1: one line per
//! (design, β, C) cell of all nine designs (36 cells), giving the leakage
//! with its `f64` bits, the cluster count, and the row assignment.
//! `scripts/check.sh` diffs this output against
//! `tests/golden/table1_heuristic.txt`, so a change to the heuristic or to
//! the tables it reads that moves any answer shows up as a changed line.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin table1_heuristic > tests/golden/table1_heuristic.txt
//! ```

use fbb_bench::prepare_design;
use fbb_core::TwoPassHeuristic;
use fbb_netlist::suite;

fn main() {
    let heuristic = TwoPassHeuristic;
    for stats in suite::PAPER_TABLE1 {
        let name = stats.name;
        let design = prepare_design(name);
        for beta in [0.05, 0.10] {
            for clusters in [2, 3] {
                let cell = format!("{name} beta={beta:.2} C={clusters}");
                let pre = design.preprocess(beta, clusters);
                match heuristic.solve(&pre) {
                    Ok(sol) => {
                        let assignment: Vec<String> =
                            sol.assignment.iter().map(usize::to_string).collect();
                        println!(
                            "{cell} leakage_nw={:.4} bits={:016x} clusters={} assignment={}",
                            sol.leakage_nw,
                            sol.leakage_nw.to_bits(),
                            sol.clusters,
                            assignment.join(",")
                        );
                    }
                    Err(e) => println!("{cell} error {e}"),
                }
            }
        }
    }
}
