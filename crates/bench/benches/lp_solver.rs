//! Solver benchmarks on FBB-shaped models: sparse LP relaxation timings,
//! branch & bound throughput, warm-vs-cold per-node iterations and the §5j
//! node reductions, merged into `BENCH_lp.json` at the workspace root (see
//! EXPERIMENTS.md). The snapshot uses the same flat `{"key": number}`
//! format as `BENCH_sta.json`, so the two files stay merge-compatible.

use fbb_bench::report::{measure, workspace_file, BenchReport};
use fbb_lp::{solve_lp, solve_mip, MipOptions, MipStatus, Model, Sense};
use std::hint::black_box;

/// A synthetic FBB-shaped model: n rows x p levels assignment + coverage.
fn fbb_like_model(rows: usize, levels: usize, paths: usize) -> Model {
    let mut m = Model::new();
    let x: Vec<Vec<usize>> = (0..rows)
        .map(|i| (0..levels).map(|j| m.add_binary((1.2f64).powi(j as i32) * (1.0 + i as f64 * 0.01))).collect())
        .collect();
    for row in &x {
        let terms = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Eq, 1.0).expect("valid");
    }
    for k in 0..paths {
        let mut terms = Vec::new();
        for (i, xi) in x.iter().enumerate() {
            if (i + k) % 3 == 0 {
                for (j, &xij) in xi.iter().enumerate() {
                    terms.push((xij, j as f64));
                }
            }
        }
        if !terms.is_empty() {
            m.add_constraint(terms, Sense::Ge, (levels / 2) as f64).expect("valid");
        }
    }
    m
}

/// The MIP variant: adds Eq.4-style cluster-open indicators and a cluster
/// budget. The assignment-only model above is integral at the root; the
/// budget makes the relaxation fractional, so branch & bound does real work
/// and the warm-start path gets exercised.
fn fbb_like_mip(rows: usize, levels: usize, paths: usize, max_clusters: usize) -> Model {
    let mut m = fbb_like_model(rows, levels, paths);
    // x[i][j] was added row-major first, so variable i*levels+j is x[i][j].
    let y: Vec<usize> = (0..levels).map(|_| m.add_binary(0.0)).collect();
    for (j, &yj) in y.iter().enumerate() {
        m.set_branch_priority(yj, 10);
        let mut terms: Vec<(usize, f64)> = (0..rows).map(|i| (i * levels + j, 1.0)).collect();
        terms.push((yj, -(rows as f64)));
        m.add_constraint(terms, Sense::Le, 0.0).expect("valid");
    }
    let budget = y.iter().map(|&v| (v, 1.0)).collect();
    m.add_constraint(budget, Sense::Le, max_clusters as f64).expect("valid");
    m
}

/// The §5j benchmark shape: like [`fbb_like_mip`], but row `i`'s cheapest
/// level is spread across the ladder (`(i·7 + 3) mod levels`), so the
/// cluster budget forces a genuine combinatorial level-selection decision.
/// The aggregated Eq.4 linking rows make the raw relaxation weak —
/// fractional cluster indicators are nearly free — which is exactly the
/// gap the disaggregated clique cuts close; the raw tree explores O(100)
/// nodes where the strengthened root is (near-)integral.
fn fbb_clustered_mip(rows: usize, levels: usize, paths: usize, max_clusters: usize) -> Model {
    let mut m = Model::new();
    let x: Vec<Vec<usize>> = (0..rows)
        .map(|i| {
            let pref = (i * 7 + 3) % levels;
            (0..levels)
                .map(|j| {
                    let dist = (j as f64 - pref as f64).abs();
                    m.add_binary(1.0 + 0.4 * dist + 0.03 * j as f64 + 0.01 * i as f64)
                })
                .collect()
        })
        .collect();
    for row in &x {
        let terms = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Eq, 1.0).expect("valid");
    }
    for k in 0..paths {
        let mut terms = Vec::new();
        for (i, xi) in x.iter().enumerate() {
            if (i + k) % 3 == 0 {
                for (j, &xij) in xi.iter().enumerate() {
                    terms.push((xij, j as f64));
                }
            }
        }
        if !terms.is_empty() {
            m.add_constraint(terms, Sense::Ge, (levels / 2) as f64).expect("valid");
        }
    }
    let y: Vec<usize> = (0..levels).map(|_| m.add_binary(0.0)).collect();
    for (j, &yj) in y.iter().enumerate() {
        m.set_branch_priority(yj, 10);
        let mut terms: Vec<(usize, f64)> = (0..rows).map(|i| (i * levels + j, 1.0)).collect();
        terms.push((yj, -(rows as f64)));
        m.add_constraint(terms, Sense::Le, 0.0).expect("valid");
    }
    let budget = y.iter().map(|&v| (v, 1.0)).collect();
    m.add_constraint(budget, Sense::Le, max_clusters as f64).expect("valid");
    m
}

/// Sparse-revised LP relaxation at three FBB sizes, B&B throughput, and
/// warm-vs-cold per-node simplex iterations. Snapshot goes to
/// `BENCH_lp.json`.
fn main() {
    let path = workspace_file("BENCH_lp.json");
    let mut report = BenchReport::load(&path);

    let sizes: [(&str, usize, usize, usize); 3] =
        [("small", 13, 11, 30), ("medium", 28, 11, 60), ("large", 56, 11, 120)];
    for (name, rows, levels, paths) in sizes {
        let model = fbb_like_model(rows, levels, paths);
        let sparse = measure(9, 3, || {
            black_box(solve_lp(&model).expect("solves"));
        });
        println!(
            "lp relaxation {name} ({rows}x{levels}, {paths} paths, {} vars x {} cons): \
             {:.0} ns/solve",
            model.var_count(),
            model.constraint_count(),
            sparse.median_ns
        );
        report.set(&format!("lp_sparse_ns_{name}"), sparse.median_ns);
    }

    // B&B throughput and the warm-start effect. Telemetry records the
    // simplex iterations every node costs; warm starts (child re-optimizes
    // from the parent basis) should need fewer than cold two-phase solves
    // of the same nodes. The §5j reductions are held off here: this number
    // isolates the *warm-start* effect, and presolve/cuts/pseudocost would
    // reshape the tree underneath the comparison.
    let raw_opts = MipOptions {
        presolve: false,
        cuts: false,
        pseudocost: false,
        ..MipOptions::default()
    };
    let mip_model = fbb_like_mip(13, 11, 30, 3);
    let warm_opts = raw_opts.clone();
    let cold_opts = MipOptions { warm_start: false, ..raw_opts.clone() };

    let probe = solve_mip(&mip_model, &warm_opts, None).expect("solves");
    assert_eq!(probe.status, MipStatus::Optimal, "bench model must solve to optimality");
    let nodes_per_solve = probe.nodes as f64;
    let mip_time = measure(7, 3, || {
        black_box(solve_mip(&mip_model, &warm_opts, None).expect("solves"));
    });
    let nodes_per_sec = nodes_per_solve / (mip_time.median_ns / 1e9);

    let node_iters_mean = |opts: &MipOptions| {
        fbb_telemetry::enable();
        fbb_telemetry::reset();
        solve_mip(&mip_model, opts, None).expect("solves");
        let snap = fbb_telemetry::snapshot();
        fbb_telemetry::disable();
        snap.stat("bnb_node_simplex_iterations").map(|s| s.mean()).unwrap_or(f64::NAN)
    };
    let warm_iters = node_iters_mean(&warm_opts);
    let cold_iters = node_iters_mean(&cold_opts);

    println!("branch & bound on 13x11 / 30 paths / 3 clusters ({nodes_per_solve} nodes):");
    println!("  throughput          {nodes_per_sec:>12.0} nodes/s");
    println!("  warm-start iters    {warm_iters:>12.2} per node");
    println!("  cold-start iters    {cold_iters:>12.2} per node");
    println!("  iteration reduction {:>12.2}x", cold_iters / warm_iters);

    report.set("bnb_nodes_per_solve", nodes_per_solve);
    report.set("bnb_nodes_per_sec", nodes_per_sec);
    report.set("bnb_warm_node_iters", warm_iters);
    report.set("bnb_cold_node_iters", cold_iters);
    report.set("bnb_warm_iter_reduction", cold_iters / warm_iters);

    // §5j: presolve + root cuts + pseudocost branching against the raw tree
    // on the clustered shape at the same three sizes. The objectives must
    // agree to within arithmetic noise — the symmetric cost ladder admits
    // alternative optima, so last-ulp differences are legitimate here;
    // bit-exactness on identical answers is pinned by
    // crates/testkit/tests/presolve_equivalence.rs. The acceptance floor is
    // a >= 1.3x node-count reduction at the largest size with wall-clock
    // no worse.
    for (name, rows, levels, paths) in sizes {
        let model = fbb_clustered_mip(rows, levels, paths, 3);
        let presolved = solve_mip(&model, &MipOptions::default(), None).expect("solves");
        let raw = solve_mip(&model, &raw_opts, None).expect("solves");
        assert_eq!(presolved.status, MipStatus::Optimal, "mip bench model must solve");
        assert!(
            (presolved.objective - raw.objective).abs()
                <= 1e-9 * raw.objective.abs().max(1.0),
            "presolved objective {} diverged from raw {}",
            presolved.objective,
            raw.objective
        );
        let raw_nodes = raw.nodes.max(1) as f64;
        let presolved_nodes = presolved.nodes.max(1) as f64;
        let reduction = raw_nodes / presolved_nodes;
        let t_presolved = measure(5, 2, || {
            black_box(solve_mip(&model, &MipOptions::default(), None).expect("solves"));
        });
        let t_raw = measure(5, 2, || {
            black_box(solve_mip(&model, &raw_opts, None).expect("solves"));
        });
        println!("b&b {name} ({rows}x{levels}, {paths} paths, 3 clusters):");
        println!("  raw tree            {raw_nodes:>12.0} nodes {:>14.0} ns", t_raw.median_ns);
        println!(
            "  presolved+cuts      {presolved_nodes:>12.0} nodes {:>14.0} ns",
            t_presolved.median_ns
        );
        println!("  node reduction      {reduction:>12.2}x");
        report.set(&format!("bnb_nodes_raw_{name}"), raw_nodes);
        report.set(&format!("bnb_nodes_presolved_{name}"), presolved_nodes);
        report.set(&format!("bnb_node_reduction_{name}"), reduction);
        report.set(&format!("bnb_ns_raw_{name}"), t_raw.median_ns);
        report.set(&format!("bnb_ns_presolved_{name}"), t_presolved.median_ns);
    }

    report.save(&path).expect("snapshot writable");
    println!("snapshot merged into {}", path.display());
}
