//! The paper's runtime claim (§5): the two-pass heuristic is linear-time and
//! orders of magnitude faster than the exact ILP. One benchmark pair per
//! Table 1 size class that Criterion can finish quickly. Both allocators
//! are serial, so there is no serial-vs-parallel pair to time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbb_bench::prepare_design;
use fbb_core::{IlpAllocator, TwoPassHeuristic};
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

criterion_group!(benches, bench_allocators);
criterion_main!(benches);
