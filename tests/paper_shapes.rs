//! Reproduction-shape regression tests: the qualitative results the paper
//! reports must hold on the generated suite (exact magnitudes are recorded
//! in EXPERIMENTS.md; these tests pin the *shapes*).

use fbb::core::{single_bb, FbbProblem, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb::netlist::{suite, Netlist};
use fbb::placement::{Placement, PlacementOrder, Placer, PlacerOptions};

fn prepare(name: &str) -> (Netlist, Placement, Characterization) {
    let stats = suite::PAPER_TABLE1.iter().find(|s| s.name == name).expect("table 1 design");
    let nl = suite::generate(name).expect("generates");
    let library = Library::date09_45nm();
    let gridlike = matches!(name, "c6288" | "adder_128bits");
    let placement = Placer::new(PlacerOptions {
        target_rows: Some(stats.rows as u32),
        anneal_moves: 10_000,
        timing_driven: !gridlike,
        order: if gridlike { PlacementOrder::Natural } else { PlacementOrder::Cone },
        ..PlacerOptions::default()
    })
    .place(&nl, &library)
    .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    (nl, placement, chara)
}

fn savings(nl: &Netlist, p: &Placement, chara: &Characterization, beta: f64, c: usize) -> f64 {
    let pre = FbbProblem::new(nl, p, chara, beta, c)
        .expect("valid")
        .preprocess()
        .expect("acyclic");
    let base = single_bb(&pre).expect("compensable");
    let sol = TwoPassHeuristic.solve(&pre).expect("feasible");
    assert!(sol.meets_timing);
    sol.savings_vs(&base)
}

#[test]
fn savings_grow_with_slowdown() {
    // Paper: "the savings achieved is higher in case of higher beta value
    // for all the designs".
    for name in ["c1355", "c3540", "c5315"] {
        let (nl, p, chara) = prepare(name);
        let s5 = savings(&nl, &p, &chara, 0.05, 3);
        let s10 = savings(&nl, &p, &chara, 0.10, 3);
        assert!(s10 > s5, "{name}: beta=10% savings {s10:.1}% <= beta=5% {s5:.1}%");
    }
}

#[test]
fn third_cluster_gains_are_marginal() {
    // Paper: "the increase in savings achieved with C = 3 as compared to
    // C = 2 is very marginal in most of the cases".
    let mut gains = Vec::new();
    for name in ["c1355", "c3540", "c5315", "c7552"] {
        let (nl, p, chara) = prepare(name);
        let s2 = savings(&nl, &p, &chara, 0.05, 2);
        let s3 = savings(&nl, &p, &chara, 0.05, 3);
        assert!(s3 + 1e-9 >= s2, "{name}: C=3 worse than C=2");
        gains.push(s3 - s2);
    }
    let median = {
        let mut g = gains.clone();
        g.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        g[g.len() / 2]
    };
    assert!(median < 10.0, "median C=2->3 gain {median:.1}% is not 'marginal'");
}

#[test]
fn multiplier_is_the_hardest_design() {
    // Paper: c6288 shows by far the smallest savings (most cells critical).
    let (nl_m, p_m, chara) = prepare("c6288");
    let mul = savings(&nl_m, &p_m, &chara, 0.05, 3);
    for name in ["c3540", "c5315"] {
        let (nl, p, chara) = prepare(name);
        let other = savings(&nl, &p, &chara, 0.05, 3);
        assert!(
            mul < other,
            "c6288 ({mul:.1}%) should save less than {name} ({other:.1}%)"
        );
    }
}

#[test]
fn extra_clusters_beyond_three_add_little() {
    // Paper: sweeping C = 2..11 on c5315 gained only +2.56%.
    let (nl, p, chara) = prepare("c5315");
    let s2 = savings(&nl, &p, &chara, 0.05, 2);
    let s11 = savings(&nl, &p, &chara, 0.05, 11);
    assert!(s11 + 1e-9 >= s2);
    assert!(
        s11 - s2 < 8.0,
        "C=11 gains {:.2}% over C=2; the paper found this marginal (2.56%)",
        s11 - s2
    );
}

/// One golden record per design: the numbers a refactor must not silently
/// move. Formatting is pinned to 6 decimals so the files are byte-stable.
fn golden_snapshot(name: &str) -> String {
    let (nl, p, chara) = prepare(name);
    let pre = FbbProblem::new(&nl, &p, &chara, 0.05, 3)
        .expect("valid")
        .preprocess()
        .expect("acyclic");
    let base = single_bb(&pre).expect("compensable");
    let sol = TwoPassHeuristic.solve(&pre).expect("feasible");
    assert!(sol.meets_timing);
    format!(
        "{{\n  \"design\": \"{name}\",\n  \"beta\": 0.05,\n  \"max_clusters\": 3,\n  \
         \"jopt_nw\": {:.6},\n  \"clusters\": {},\n  \"leakage_ratio\": {:.6},\n  \
         \"constraints\": {}\n}}\n",
        sol.leakage_nw,
        sol.clusters,
        sol.leakage_nw / base.leakage_nw,
        pre.constraint_count(),
    )
}

#[test]
fn golden_snapshots_match() {
    // Regenerate with `UPDATE_GOLDENS=1 cargo test --test paper_shapes`.
    let update = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut drift = Vec::new();
    for name in ["c1355", "c3540", "c5315"] {
        let got = golden_snapshot(name);
        let path = dir.join(format!("{name}.json"));
        if update {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); run with UPDATE_GOLDENS=1", path.display())
        });
        if got != want {
            drift.push(format!(
                "{name}: snapshot drifted\n--- recorded\n{want}--- computed\n{got}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "{}\nIf the change is intentional, re-run with UPDATE_GOLDENS=1.",
        drift.join("\n")
    );
}

#[test]
fn constraint_count_grows_with_beta_on_the_suite() {
    for name in ["c1355", "c3540", "c5315"] {
        let (nl, p, chara) = prepare(name);
        let m5 = FbbProblem::new(&nl, &p, &chara, 0.05, 3)
            .expect("valid")
            .preprocess()
            .expect("acyclic")
            .constraint_count();
        let m10 = FbbProblem::new(&nl, &p, &chara, 0.10, 3)
            .expect("valid")
            .preprocess()
            .expect("acyclic")
            .constraint_count();
        assert!(m10 >= m5, "{name}: M(10%) {m10} < M(5%) {m5}");
        assert!(m5 >= 1);
    }
}
