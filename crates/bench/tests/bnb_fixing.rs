//! Pins reduced-cost fixing on a Table 1 cell. With the heuristic incumbent
//! in from the start, node 1's reduced costs pin columns in the root box
//! (`bnb_vars_fixed_root`), and other branching nodes pin more in their own
//! boxes (`bnb_vars_fixed_node`). The cell still proves optimal with its
//! golden answer from `tests/golden/table1_ilp.txt`.

use fbb_bench::prepare_design;
use fbb_core::IlpAllocator;

const GOLDEN: &str = include_str!("../../../tests/golden/table1_ilp.txt");

#[test]
fn table1_cell_pins_columns_and_keeps_its_golden_answer() {
    let cell = "c3540 beta=0.05 C=3";
    let pre = prepare_design("c3540").preprocess(0.05, 3);

    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let outcome = IlpAllocator::default().solve(&pre).expect("the cell solves");
    let snap = fbb_telemetry::snapshot();
    fbb_telemetry::disable();

    let root = snap.counter("bnb_vars_fixed_root").unwrap_or(0);
    let node = snap.counter("bnb_vars_fixed_node").unwrap_or(0);
    assert!(root > 0, "no column pinned at the root ({node} at other nodes)");
    assert!(node > 0, "no column pinned below the root ({root} at the root)");

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
