//! Pins the exact ILP answers of Table 1: one line per (design, β, C) cell
//! of the seven designs the paper solves exactly (28 cells), giving the
//! status, the leakage with its `f64` bits, and the row assignment.
//! `scripts/check.sh` diffs this output against
//! `tests/golden/table1_ilp.txt`, so a solver change that moves any answer
//! shows up as a changed line.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin table1_ilp > tests/golden/table1_ilp.txt
//! ```
//!
//! Each cell runs the default `IlpAllocator` (heuristic incumbent, no node
//! limit) under a 120 s time limit, so a cell that stops proving optimality
//! reads `feasible` instead of hanging the run.

use std::time::Duration;

use fbb_bench::prepare_design;
use fbb_core::IlpAllocator;
use fbb_netlist::suite;

const TIME_LIMIT: Duration = Duration::from_secs(120);

fn main() {
    let allocator = IlpAllocator::with_time_limit(TIME_LIMIT);
    for name in suite::ilp_tractable_names() {
        let design = prepare_design(name);
        for beta in [0.05, 0.10] {
            for clusters in [2, 3] {
                let cell = format!("{name} beta={beta:.2} C={clusters}");
                let pre = design.preprocess(beta, clusters);
                match allocator.solve(&pre) {
                    Ok(outcome) => match &outcome.solution {
                        Some(sol) => {
                            let status =
                                if outcome.proven_optimal { "optimal" } else { "feasible" };
                            let assignment: Vec<String> =
                                sol.assignment.iter().map(usize::to_string).collect();
                            println!(
                                "{cell} {status} leakage_nw={:.4} bits={:016x} assignment={}",
                                sol.leakage_nw,
                                sol.leakage_nw.to_bits(),
                                assignment.join(",")
                            );
                        }
                        None => println!("{cell} no-solution"),
                    },
                    Err(e) => println!("{cell} error {e}"),
                }
            }
        }
    }
}
