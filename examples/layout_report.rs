//! Physical-implementation view (paper §3.3, Figs. 3 and 6): place a
//! design, allocate clustered FBB, and report the layout cost — contact
//! cells, well separations, bias routing, and the ASCII floorplan.
//!
//! ```text
//! cargo run --release --example layout_report
//! ```

use fbb::core::{single_bb, FbbProblem, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Library};
use fbb::netlist::generators;
use fbb::placement::layout;
use fbb::placement::{Placer, PlacerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A c5315-class block: dual compare/select ALU.
    let netlist = generators::alu_selector("selector", 9)?;
    let library = Library::date09_45nm();
    let ladder = BiasLadder::date09()?;
    let characterization = library.characterize(&BodyBiasModel::date09_45nm(), &ladder);
    let placement =
        Placer::new(PlacerOptions::with_target_rows(10)).place(&netlist, &library)?;

    let problem = FbbProblem::new(&netlist, &placement, &characterization, 0.10, 3)?;
    let pre = problem.preprocess()?;
    let baseline = single_bb(&pre)?;
    let solution = TwoPassHeuristic.solve(&pre)?;
    println!(
        "allocation at beta = 10%: {} clusters, {:.1}% leakage below block-level FBB\n",
        solution.clusters,
        solution.savings_vs(&baseline)
    );

    let analysis = layout::analyze(&placement, &ladder, &solution.assignment)?;
    println!("layout cost (paper section 3.3):");
    println!("  bias voltages routed:    {} ({} top-metal lines)", analysis.bias_voltages, analysis.bias_lines);
    println!("  well separations:        {}", analysis.well_separations);
    println!("  area overhead:           {:.2}% (paper: always < 5%)", analysis.area_overhead_pct());
    println!(
        "  max row util increase:   {:.1}% (paper: <= ~6% for contact cells)",
        analysis.max_utilization_increase() * 100.0
    );
    println!("  rows forced to overflow: {}\n", analysis.overflow_rows.len());

    println!("{}", layout::render_ascii(&placement, &ladder, &solution.assignment)?);
    Ok(())
}
