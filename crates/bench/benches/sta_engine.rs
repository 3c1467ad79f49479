//! STA engine benchmarks: a full analysis and serial-vs-parallel Monte
//! Carlo sampling on a Table 1 design, then a full analysis and path
//! extraction on the composed 200k-gate design. The summary numbers are
//! merged into `BENCH_sta.json` at the workspace root (see EXPERIMENTS.md).

use fbb_bench::report::{measure, workspace_file, BenchReport};
use fbb_bench::prepare_design;
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_sta::{par, TimingGraph};
use fbb_variation::{MonteCarloYield, ProcessVariation};
use std::hint::black_box;

fn main() {
    bench_speedups();
    bench_composed();
}

/// One full analysis, and serial-vs-parallel Monte Carlo, on a placed
/// Table 1 design.
fn bench_speedups() {
    let design = prepare_design("c3540");
    let nl = &design.netlist;
    let chara = &design.characterization;
    let graph = TimingGraph::new(nl).expect("acyclic");
    let nominal: Vec<f64> = nl.gates().iter().map(|g| chara.delay_ps(g.cell, 0)).collect();

    let full = measure(15, 20, || {
        black_box(graph.analyze(&nominal).dcrit_ps());
    });
    println!("c3540 ({} gates):", nl.gate_count());
    println!("  full analyze        {:>10.0} ns", full.median_ns);

    // Serial vs parallel Monte Carlo yield estimation.
    let mc = MonteCarloYield::new(nl, &design.placement, &nominal);
    let pv = ProcessVariation::slow_corner_45nm();
    let clock = graph.analyze(&nominal).dcrit_ps() * 1.05;
    std::env::set_var("FBB_THREADS", "1");
    let mc_serial = measure(5, 2, || {
        black_box(mc.estimate(&pv, clock, 64, 42).expect("acyclic"));
    });
    std::env::remove_var("FBB_THREADS");
    let mc_parallel = measure(5, 2, || {
        black_box(mc.estimate(&pv, clock, 64, 42).expect("acyclic"));
    });
    let mc_speedup = mc_parallel.speedup_over(&mc_serial);
    // The pool sizes itself: 64 dies spread across at most
    // 64 / MIN_JOBS_PER_WORKER workers, and on a single-CPU host it stays
    // serial — in that case both measurements run the same code and the
    // "speedup" is pure noise, so the snapshot records the worker count
    // alongside it to make the comparison interpretable.
    let mc_workers = par::worker_count(64);
    println!("monte carlo, 64 dies, {} of {} budgeted workers:", mc_workers, par::threads());
    println!("  serial              {:>10.0} ns/run", mc_serial.median_ns);
    println!("  parallel            {:>10.0} ns/run", mc_parallel.median_ns);
    if mc_workers > 1 {
        println!("  parallel speedup    {mc_speedup:>10.2}x");
    } else {
        println!("  parallel speedup    {mc_speedup:>10.2}x  (pool stayed serial; noise only)");
    }

    let path = workspace_file("BENCH_sta.json");
    let mut report = BenchReport::load(&path);
    report.set("sta_gate_count", nl.gate_count() as f64);
    report.set("sta_full_analyze_ns", full.median_ns);
    report.set("mc_serial_ns", mc_serial.median_ns);
    report.set("mc_parallel_ns", mc_parallel.median_ns);
    report.set("mc_parallel_speedup", mc_speedup);
    report.set("mc_workers_used", mc_workers as f64);
    report.set("threads", par::threads() as f64);
    report.save(&path).expect("snapshot writable");
    println!("snapshot merged into {}", path.display());
}

/// The same full analysis, plus path extraction, on the largest composed
/// design the sweep bench uses, so `BENCH_sta.json` records how the engine
/// holds up at the scaled workload axis (200k+ gates vs the 748-gate
/// Table 1 row).
fn bench_composed() {
    let composed = fbb_netlist::compose("soc200k", &fbb_netlist::ComposeOptions::with_target(200_000))
        .expect("palette composes");
    let nl = &composed.netlist;
    let library = Library::date09_45nm();
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    let graph = TimingGraph::new(nl).expect("acyclic");
    let nominal: Vec<f64> = nl.gates().iter().map(|g| chara.delay_ps(g.cell, 0)).collect();
    let full = measure(5, 3, || {
        black_box(graph.analyze(&nominal).dcrit_ps());
    });

    // Path extraction on the nominal analysis: the full Π, and the β = 5 %
    // constrained subset, which materializes only the paths it keeps.
    let analysis = graph.analyze(&nominal);
    let mut n_paths = (0, 0);
    let path_set = measure(5, 1, || {
        n_paths.0 = black_box(analysis.critical_path_set()).len();
    });
    let constrained = measure(5, 3, || {
        n_paths.1 = black_box(analysis.constrained_path_set(0.05)).len();
    });
    println!(
        "composed design ({} gates, {} blocks):",
        nl.gate_count(),
        composed.blocks.len()
    );
    println!("  full analyze        {:>12.0} ns", full.median_ns);
    println!("  path set            {:>12.0} ns  ({} paths)", path_set.median_ns, n_paths.0);
    println!(
        "  constrained (5%)    {:>12.0} ns  ({} paths)",
        constrained.median_ns, n_paths.1
    );

    let path = workspace_file("BENCH_sta.json");
    let mut report = BenchReport::load(&path);
    report.set("sta_composed_gate_count", nl.gate_count() as f64);
    report.set("sta_composed_blocks", composed.blocks.len() as f64);
    report.set("sta_composed_full_analyze_ns", full.median_ns);
    report.set("sta_composed_path_set_ns", path_set.median_ns);
    report.set("sta_composed_constrained_path_set_ns", constrained.median_ns);
    report.save(&path).expect("snapshot writable");
    println!("snapshot merged into {}", path.display());
}
