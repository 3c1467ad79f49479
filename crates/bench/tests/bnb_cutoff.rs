//! Pins the warm node re-solve's objective cutoff on a Table 1 cell. Once
//! the heuristic incumbent is in, a node whose dual simplex bound reaches
//! it is closed inside the re-solve: `bnb_nodes_cut_off` counts those
//! nodes, and each is also one of `bnb_nodes_pruned`. The cell still
//! proves optimal with its golden answer from `tests/golden/table1_ilp.txt`.

use fbb_bench::prepare_design;
use fbb_core::IlpAllocator;

const GOLDEN: &str = include_str!("../../../tests/golden/table1_ilp.txt");

#[test]
fn table1_cell_cuts_nodes_off_and_keeps_its_golden_answer() {
    let cell = "c3540 beta=0.05 C=3";
    let pre = prepare_design("c3540").preprocess(0.05, 3);

    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let outcome = IlpAllocator::default().solve(&pre).expect("the cell solves");
    let snap = fbb_telemetry::snapshot();
    fbb_telemetry::disable();

    let cut_off = snap.counter("bnb_nodes_cut_off").unwrap_or(0);
    let pruned = snap.counter("bnb_nodes_pruned").unwrap_or(0);
    assert!(cut_off > 0, "no node was cut off ({pruned} pruned)");
    assert!(cut_off <= pruned, "{cut_off} nodes cut off but only {pruned} pruned");

    // The line the `table1_ilp` bin prints for this cell.
    let sol = outcome.solution.expect("a proven cell has an answer");
    let status = if outcome.proven_optimal { "optimal" } else { "feasible" };
    let assignment: Vec<String> = sol.assignment.iter().map(usize::to_string).collect();
    let line = format!(
        "{cell} {status} leakage_nw={:.4} bits={:016x} assignment={}",
        sol.leakage_nw,
        sol.leakage_nw.to_bits(),
        assignment.join(",")
    );
    let golden = GOLDEN
        .lines()
        .find(|l| l.starts_with(&format!("{cell} ")))
        .expect("the cell has a golden line");
    assert_eq!(line, golden);
}
