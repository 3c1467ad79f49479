//! Design-database benchmark: the compile-once workflow against the cold
//! pipeline. The wall-clock comparison times "generate → place →
//! characterize → STA → path extraction → pre-process" against "decode
//! `.fbb` → look up the pre-processed instance" on Table 1 designs and
//! merges the headline numbers into `BENCH_db.json` at the workspace root
//! (see EXPERIMENTS.md).

use fbb_bench::prepare_design;
use fbb_bench::report::{measure, workspace_file, BenchReport};
use fbb_core::Granularity;
use fbb_db::DesignDb;
use std::hint::black_box;

/// Compiles a prepared design into a database at the paper's two β points.
fn compile(name: &str) -> DesignDb {
    let d = prepare_design(name);
    DesignDb::build(
        &format!("bench {name}"),
        &d.netlist,
        &d.placement,
        &d.characterization,
        &[0.05, 0.10],
        &[Granularity::Row],
        3,
    )
    .expect("Table 1 designs compile")
}

/// Compile-once vs cold wall clock, recorded per design into BENCH_db.json.
fn main() {
    let path = workspace_file("BENCH_db.json");
    let mut report = BenchReport::load(&path);

    for name in ["c1355", "c3540"] {
        // Cold: the full pre-LP pipeline, every solve invocation.
        let cold = measure(3, 1, || {
            let d = prepare_design(name);
            black_box(d.preprocess(0.05, 3).constraint_count());
        });

        // Compile once (the amortized cost)...
        let compile_once = measure(3, 1, || {
            black_box(compile(name).encode_to_vec()).len();
        });
        let bytes = compile(name).encode_to_vec();

        // ...then every later solve decodes (the one, fully verified
        // decoder `fbb solve --netlist X.fbb` uses) and looks up the
        // instance.
        let warm = measure(5, 3, || {
            let db = DesignDb::decode(&bytes).expect("round trip");
            black_box(
                db.preprocessed_for(Granularity::Row, 0.05, 3)
                    .expect("beta 0.05 compiled in")
                    .constraint_count(),
            );
        });

        let speedup = warm.speedup_over(&cold);
        println!("{name}: {} bytes compiled", bytes.len());
        println!("  cold pipeline       {:>12.0} ns/solve", cold.median_ns);
        println!("  compile once        {:>12.0} ns      (paid once)", compile_once.median_ns);
        println!("  decode + lookup     {:>12.0} ns/solve", warm.median_ns);
        println!("  warm-solve speedup  {speedup:>12.2}x");

        report.set(&format!("db_{name}_cold_pipeline_ns"), cold.median_ns);
        report.set(&format!("db_{name}_compile_ns"), compile_once.median_ns);
        report.set(&format!("db_{name}_warm_solve_ns"), warm.median_ns);
        report.set(&format!("db_{name}_warm_speedup"), speedup);
        report.set(&format!("db_{name}_bytes"), bytes.len() as f64);
    }

    report.save(&path).expect("snapshot writable");
    println!("snapshot merged into {}", path.display());
}
