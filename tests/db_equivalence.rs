//! Acceptance: solving from a compiled `.fbb` database is bit-identical to
//! the cold pipeline — same heuristic assignment, same leakage down to the
//! last mantissa bit — on the paper's Table 1 designs.
//!
//! The default run covers the two smallest designs (the tier-1 budget);
//! `FBB_DB_FULL_SUITE=1 cargo test --test db_equivalence -- --ignored`
//! sweeps all nine at both paper β points.

use fbb::bench::prepare_design;
use fbb::core::{Granularity, TwoPassHeuristic};
use fbb::db::DesignDb;

/// Compiles `name`, round-trips the database through bytes, and asserts the
/// decoded instance solves identically to the cold pipeline at each β.
fn assert_design_equivalent(name: &str, betas: &[f64]) {
    let d = prepare_design(name);
    let db = DesignDb::build(
        &format!("equivalence {name}"),
        &d.netlist,
        &d.placement,
        &d.characterization,
        betas,
        &[Granularity::Row],
        3,
    )
    .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let decoded = DesignDb::decode(&db.encode_to_vec())
        .unwrap_or_else(|e| panic!("{name}: round trip failed: {e}"));

    for &beta in betas {
        let cold = d.preprocess(beta, 3);
        let warm = decoded
            .preprocessed_for(Granularity::Row, beta, 3)
            .unwrap_or_else(|| panic!("{name}: beta {beta} missing from database"));
        assert_eq!(warm, cold, "{name} beta {beta}: pre-processed instances differ");

        let cold_sol = TwoPassHeuristic.solve(&cold);
        let warm_sol = TwoPassHeuristic.solve(&warm);
        match (cold_sol, warm_sol) {
            (Ok(c), Ok(w)) => {
                assert_eq!(c.assignment, w.assignment, "{name} beta {beta}: assignments differ");
                assert_eq!(
                    c.leakage_nw.to_bits(),
                    w.leakage_nw.to_bits(),
                    "{name} beta {beta}: leakage differs ({} vs {})",
                    c.leakage_nw,
                    w.leakage_nw
                );
            }
            (Err(c), Err(w)) => {
                assert_eq!(c.to_string(), w.to_string(), "{name} beta {beta}: verdicts differ")
            }
            (c, w) => panic!("{name} beta {beta}: cold {c:?} vs compiled {w:?}"),
        }
    }
}

#[test]
fn smallest_designs_solve_identically_from_database() {
    for name in ["c1355", "c3540"] {
        assert_design_equivalent(name, &[0.05, 0.10]);
    }
}

/// The full nine-design sweep. Ignored by default (several minutes of
/// placement annealing); `scripts/check.sh` and the experiments recipe run
/// it with `FBB_DB_FULL_SUITE=1`.
#[test]
#[ignore = "full Table 1 sweep; run with FBB_DB_FULL_SUITE=1 via --ignored"]
fn full_table1_suite_solves_identically_from_database() {
    if std::env::var("FBB_DB_FULL_SUITE").as_deref() != Ok("1") {
        eprintln!("FBB_DB_FULL_SUITE not set; skipping the long sweep");
        return;
    }
    for stats in fbb::netlist::suite::PAPER_TABLE1 {
        assert_design_equivalent(stats.name, &[0.05, 0.10]);
    }
}
