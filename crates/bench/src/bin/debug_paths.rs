//! Diagnostic: path/row incidence structure of a Table 1 design.
//!
//! Prints, per (β, C), the constrained-path count, row-span histogram of the
//! constraints, per-row criticality, and the solutions' assignments —
//! used to sanity-check that generated benchmarks have paper-like structure.

use fbb_bench::{arg_parse, arg_value, prepare_design, require_table1, run_allocation, ArgError};

fn main() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--design").unwrap_or_else(|| "c3540".into());
    let beta: f64 = arg_parse(&args, "--beta")?.unwrap_or(0.05);
    let c: usize = arg_parse(&args, "--clusters")?.unwrap_or(3);

    require_table1(&name)?;
    let design = prepare_design(&name);
    let pre = design.preprocess(beta, c);
    println!("{}: {} rows, {} levels, Dcrit {:.1} ps, M = {}", name, pre.n_rows(), pre.levels(), pre.dcrit_ps, pre.constraint_count());

    let mut span_hist = std::collections::BTreeMap::new();
    for p in pre.paths() {
        *span_hist.entry(p.rows().len()).or_insert(0usize) += 1;
    }
    println!("row-span histogram (rows-touched -> #paths): {span_hist:?}");

    let row_hits: Vec<usize> = (0..pre.n_rows()).map(|r| pre.row_entries(r).len()).collect();
    println!("paths touching each row: {row_hits:?}");
    let crit: Vec<String> = pre.row_criticality().iter().map(|c| format!("{c:.1}")).collect();
    println!("row criticality: {crit:?}");

    let run = run_allocation(&pre, Some(std::time::Duration::from_secs(60)), true).unwrap();
    println!(
        "single-bb: level {} leak {:.1} nW",
        run.baseline.assignment[0], run.baseline.leakage_nw
    );
    println!(
        "heuristic: {:?} leak {:.1} ({:.2}%)",
        run.heuristic.assignment,
        run.heuristic.leakage_nw,
        run.heuristic_savings()
    );
    if let Some(ilp) = &run.ilp {
        if let Some(sol) = &ilp.solution {
            println!(
                "ilp ({}): {:?} leak {:.1} ({:.2}%) nodes {} gap {:.3}",
                if ilp.proven_optimal { "optimal" } else { "timeout" },
                sol.assignment,
                sol.leakage_nw,
                sol.savings_vs(&run.baseline),
                ilp.nodes,
                ilp.gap,
            );
        }
    }
    // Leakage distribution across rows at NBB.
    let leak: Vec<String> =
        (0..pre.n_rows()).map(|r| format!("{:.0}", pre.row_leakage(r)[0])).collect();
    println!("row NBB leakage: {leak:?}");
    Ok(())
}
