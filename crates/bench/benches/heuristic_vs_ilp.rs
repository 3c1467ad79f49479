//! The paper's runtime claim (§5): the two-pass heuristic is linear-time and
//! orders of magnitude faster than the exact ILP. One benchmark pair per
//! Table 1 size class that Criterion can finish quickly, plus the
//! serial-vs-parallel speedup of the worker pool's allocator consumer (ILP
//! constraint generation; the heuristic is serial), merged into
//! `BENCH_sta.json` (see EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbb_bench::report::{measure, workspace_file, BenchReport};
use fbb_bench::prepare_design;
use fbb_core::{IlpAllocator, TwoPassHeuristic};
use fbb_sta::par;
use std::hint::black_box;
use std::time::Duration;

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("fbb_allocation");
    group.sample_size(10);

    for name in ["c1355", "c3540"] {
        let design = prepare_design(name);
        let pre = design.preprocess(0.05, 3);

        group.bench_with_input(BenchmarkId::new("heuristic", name), &pre, |b, pre| {
            b.iter(|| TwoPassHeuristic::default().solve(black_box(pre)).expect("feasible"))
        });
        group.bench_with_input(BenchmarkId::new("ilp", name), &pre, |b, pre| {
            let allocator = IlpAllocator::with_time_limit(Duration::from_secs(30));
            b.iter(|| allocator.solve(black_box(pre)).expect("solves"))
        });
    }
    group.finish();

    // Heuristic-only scaling on the larger blocks (the ILP is benchmarked by
    // the `runtime` binary with explicit budgets).
    let mut group = c.benchmark_group("heuristic_scaling");
    group.sample_size(10);
    for name in ["c5315", "c6288"] {
        let design = prepare_design(name);
        let pre = design.preprocess(0.05, 3);
        group.bench_with_input(BenchmarkId::from_parameter(name), &pre, |b, pre| {
            b.iter(|| TwoPassHeuristic::default().solve(black_box(pre)).expect("feasible"))
        });
    }
    group.finish();
}

/// Serial-vs-parallel speedup of the allocators' worker-pool hot loop: the
/// ILP's per-path constraint generation.
fn bench_parallel_speedups(_c: &mut Criterion) {
    let design = prepare_design("c5315");
    let pre = design.preprocess(0.05, 4);

    std::env::set_var("FBB_THREADS", "1");
    let ilp_serial = measure(9, 25, || {
        black_box(IlpAllocator::default().build_model(&pre).expect("well-formed"));
    });
    std::env::remove_var("FBB_THREADS");
    let ilp_parallel = measure(9, 25, || {
        black_box(IlpAllocator::default().build_model(&pre).expect("well-formed"));
    });

    let ilp_speedup = ilp_parallel.speedup_over(&ilp_serial);
    println!(
        "c5315, beta=0.05, C=4, {} worker threads ({} paths):",
        par::threads(),
        pre.constraint_count()
    );
    println!(
        "  ilp constraint gen  serial {:>10.0} ns  parallel {:>10.0} ns  ({ilp_speedup:.2}x)",
        ilp_serial.median_ns, ilp_parallel.median_ns
    );

    let path = workspace_file("BENCH_sta.json");
    let mut report = BenchReport::load(&path);
    report.set("ilp_build_serial_ns", ilp_serial.median_ns);
    report.set("ilp_build_parallel_ns", ilp_parallel.median_ns);
    report.set("ilp_build_parallel_speedup", ilp_speedup);
    report.save(&path).expect("snapshot writable");
    println!("snapshot merged into {}", path.display());
}

criterion_group!(benches, bench_allocators, bench_parallel_speedups);
criterion_main!(benches);
