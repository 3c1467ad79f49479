//! Ablation benchmarks for the design choices called out in DESIGN.md §6:
//! descent policy, row-ranking criterion, warm-start, and CheckTiming
//! (full vs incremental).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbb_bench::prepare_design;
use fbb_core::{check_timing, CheckState, DescentPolicy, TwoPassHeuristic};
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let design = prepare_design("c5315");
    let pre = design.preprocess(0.10, 3);

    // Descent-policy ablation: quality is reported by the binaries; here the
    // cost of each policy.
    let mut group = c.benchmark_group("descent_policy");
    group.sample_size(20);
    for policy in [DescentPolicy::MaxDrop, DescentPolicy::BlockSynchronous, DescentPolicy::Literal]
    {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    TwoPassHeuristic::with_policy(policy).solve(black_box(&pre)).expect("feasible")
                })
            },
        );
    }
    group.finish();

    // CheckTiming: full re-evaluation (paper Fig. 4) vs incremental updates.
    let assignment = vec![pre.levels() - 1; pre.n_rows()];
    c.bench_function("check_timing_full", |b| {
        b.iter(|| check_timing(black_box(&pre), black_box(&assignment)).is_ok())
    });
    c.bench_function("check_timing_incremental_sweep", |b| {
        b.iter(|| {
            let mut state = CheckState::new(&pre, assignment.clone());
            for row in 0..pre.n_rows() {
                state.try_set_level(black_box(row), 0);
            }
            state.feasible()
        })
    });
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
