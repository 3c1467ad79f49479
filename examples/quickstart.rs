//! Quickstart: compensate a 5% slowdown on a small design with row-level
//! clustered FBB and compare against block-level (single-voltage) FBB.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fbb::core::{single_bb, FbbProblem, IlpAllocator, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Library};
use fbb::netlist::generators;
use fbb::placement::{Placer, PlacerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Optional: FBB_TELEMETRY=<path> collects solver/STA counters during the
    // run and writes them to <path> as flat JSON (see DESIGN.md).
    let telemetry_path = std::env::var("FBB_TELEMETRY").ok();
    if telemetry_path.is_some() {
        fbb::telemetry::enable();
    }

    // 1. A design: a 64-bit ripple-carry adder (generators provide ISCAS-like
    //    circuits; bring your own netlist via fbb::netlist::fmt::from_str).
    let netlist = generators::ripple_adder("adder64", 64, false)?;
    println!("design: {}", netlist.stats());

    // 2. The silicon substrate: 45 nm library, body-bias response, and the
    //    11-level 0..0.5V bias ladder from the paper.
    let library = Library::date09_45nm();
    let ladder = BiasLadder::date09()?;
    let characterization = library.characterize(&BodyBiasModel::date09_45nm(), &ladder);

    // 3. Row-based placement (12 rows).
    let placement =
        Placer::new(PlacerOptions::with_target_rows(12)).place(&netlist, &library)?;
    println!("placement: {}", placement.stats());

    // 4. The allocation problem: the die is 5% slow, at most 3 clusters.
    let problem = FbbProblem::new(&netlist, &placement, &characterization, 0.05, 3)?;
    let pre = problem.preprocess()?;
    println!(
        "Dcrit = {:.1} ps, {} timing constraints over {} rows",
        pre.dcrit_ps,
        pre.constraint_count(),
        pre.n_rows()
    );

    // 5. Solve three ways.
    let baseline = single_bb(&pre)?;
    let heuristic = TwoPassHeuristic.solve(&pre)?;
    let ilp = IlpAllocator::default().solve(&pre)?;
    let exact = ilp.solution.expect("small problem solves to optimality");

    println!("\n              leakage[nW]  clusters  savings  timing");
    for (name, sol) in
        [("single BB", &baseline), ("heuristic", &heuristic), ("ILP", &exact)]
    {
        println!(
            "  {name:<10}  {:>11.1}  {:>8}  {:>6.2}%  {}",
            sol.leakage_nw,
            sol.clusters,
            sol.savings_vs(&baseline),
            if sol.meets_timing { "met" } else { "VIOLATED" }
        );
    }

    // 6. The per-row voltages of the heuristic solution.
    print!("\nrow biases: ");
    for (row, &level) in heuristic.assignment.iter().enumerate() {
        print!("r{row}={} ", ladder.level(level));
    }
    println!();

    if let Some(path) = telemetry_path {
        let snap = fbb::telemetry::snapshot();
        snap.save_flat_json(std::path::Path::new(&path))?;
        println!("\n{}", snap.summary());
        println!("telemetry written to {path}");
    }
    Ok(())
}
