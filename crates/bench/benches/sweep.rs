//! Warm-vs-cold grid-sweep benchmark on a composed 200k-gate design.
//!
//! The sweep orchestrator's contract is "warm is faster AND bit-identical":
//! one nominal STA per design, one pre-processing pass per β on it and one
//! ILP model per (β, P), with the budget row patched per C, must produce
//! exactly the per-cell bits a cold from-scratch solve produces. This bench
//! verifies the bit contract cell-by-cell first, then times both modes and
//! a single-thread run, and merges the numbers into `BENCH_sweep.json` at
//! the workspace root (`sweep_warm_speedup` is gated at ≥2x by check.sh,
//! see EXPERIMENTS.md).
//!
//! The design is the hierarchical composer's 200k-gate tiling: big enough
//! that the shared nominal STA (graph build plus analysis, about 60 ms on a
//! 2-CPU x86-64 host, against about 15 ms per β for the pre-process on it)
//! is worth amortizing, while the pruned constraint set stays governed by
//! the two deep multiplier blocks, so per-cell ILPs remain small. C = 1 is
//! deliberately absent from the grid — forcing one cluster on a 64-row
//! design makes the ILP's LP relaxation maximally fractional and the branch
//! & bound cost swamps the preprocessing the warm path saves.

use fbb_bench::report::{measure, workspace_file, BenchReport};
use fbb_core::{run_sweep, SweepCell, SweepGrid, SweepOptions, SweepReport};
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::{compose, ComposeOptions};
use fbb_placement::tile;
use fbb_sta::par;
use std::hint::black_box;

fn main() {
    let design =
        compose("soc200k", &ComposeOptions::with_target(200_000)).expect("palette composes");
    let nl = &design.netlist;
    let library = Library::date09_45nm();
    let placement = tile(nl, &library, 64).expect("composed design tiles");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );

    let grid = SweepGrid { betas: vec![0.03, 0.05], clusters: vec![2, 3], levels: vec![6, 11] };
    let warm = SweepOptions::default();
    let cold = SweepOptions { cold: true, ..SweepOptions::default() };

    let run = |options: &SweepOptions| -> (Vec<SweepCell>, SweepReport) {
        let mut cells = Vec::new();
        let report = run_sweep(nl, &placement, &chara, &grid, options, |c| cells.push(c.clone()))
            .expect("sweep over a valid design succeeds");
        (cells, report)
    };

    // Verify the bit contract before timing anything: every cell must match
    // in status, leakage bits, and row assignment.
    let (warm_cells, warm_report) = run(&warm);
    let (cold_cells, _) = run(&cold);
    let bit_identical = warm_cells.len() == cold_cells.len()
        && warm_cells.iter().zip(&cold_cells).all(|(w, c)| {
            w.status == c.status
                && w.leakage_nw.to_bits() == c.leakage_nw.to_bits()
                && w.assignment == c.assignment
        });

    // Single-thread curve point first (FBB_THREADS is re-read per call, so
    // flipping the env var inside one process is enough), then the default
    // pool, then the cold reference.
    std::env::set_var("FBB_THREADS", "1");
    let warm_t1 = measure(3, 1, || {
        black_box(run(&warm).1.runtime);
    });
    std::env::remove_var("FBB_THREADS");
    let warm_m = measure(3, 1, || {
        black_box(run(&warm).1.runtime);
    });
    let cold_m = measure(3, 1, || {
        black_box(run(&cold).1.runtime);
    });
    let speedup = warm_m.speedup_over(&cold_m);
    let thread_scaling = warm_m.speedup_over(&warm_t1);

    println!(
        "grid sweep on composed {}-gate design ({} blocks, {} cells):",
        nl.gate_count(),
        design.blocks.len(),
        grid.cell_count()
    );
    println!(
        "  warm pipeline       {:>12.0} ns/sweep  ({} preprocesses, {} models)",
        warm_m.median_ns, warm_report.preprocess_count, warm_report.model_builds
    );
    println!("  cold per-cell       {:>12.0} ns/sweep", cold_m.median_ns);
    println!("  warm speedup        {speedup:>12.2}x  (acceptance floor: 2x)");
    println!("  bit identical       {:>12}", bit_identical);
    if par::threads() > 1 {
        println!(
            "  thread scaling      {thread_scaling:>12.2}x  over FBB_THREADS=1 ({} threads)",
            par::threads()
        );
    } else {
        println!("  thread scaling      {thread_scaling:>12.2}x  (single-CPU host; noise only)");
    }

    let path = workspace_file("BENCH_sweep.json");
    let mut report = BenchReport::load(&path);
    report.set("sweep_gate_count", nl.gate_count() as f64);
    report.set("sweep_cells", grid.cell_count() as f64);
    report.set("sweep_warm_ns", warm_m.median_ns);
    report.set("sweep_cold_ns", cold_m.median_ns);
    report.set("sweep_warm_t1_ns", warm_t1.median_ns);
    report.set("sweep_warm_speedup", speedup);
    report.set("sweep_thread_scaling", thread_scaling);
    report.set("sweep_bit_identical", if bit_identical { 1.0 } else { 0.0 });
    report.set("sweep_warm_preprocesses", warm_report.preprocess_count as f64);
    report.set("sweep_warm_model_builds", warm_report.model_builds as f64);
    report.set("threads", par::threads() as f64);
    report.save(&path).expect("snapshot writable");
    println!("snapshot merged into {}", path.display());
}
