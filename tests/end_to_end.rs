//! Cross-crate integration: the full paper pipeline from netlist generation
//! through placement, preprocessing, and all three allocators, with an
//! independent STA verification of the produced solutions.

use fbb::core::{single_bb, FbbProblem, IlpAllocator, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb::netlist::{generators, GateId, Netlist};
use fbb::placement::{Placement, Placer, PlacerOptions};
use fbb::sta::TimingGraph;

fn setup(gates: &str) -> (Netlist, Placement, Characterization) {
    let nl = match gates {
        "adder" => generators::ripple_adder("a48", 48, false).expect("valid generator"),
        "alu" => generators::alu("alu16", 16).expect("valid generator"),
        "mul" => generators::array_multiplier("m8", 8).expect("valid generator"),
        _ => unreachable!(),
    };
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(9))
        .place(&nl, &library)
        .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    (nl, placement, chara)
}

#[test]
fn all_allocators_agree_on_feasibility_and_ordering() {
    for design in ["adder", "alu", "mul"] {
        let (nl, placement, chara) = setup(design);
        for beta in [0.05, 0.10] {
            let pre = FbbProblem::new(&nl, &placement, &chara, beta, 3)
                .expect("valid")
                .preprocess()
                .expect("acyclic");
            let base = single_bb(&pre).expect("compensable");
            let heur = TwoPassHeuristic.solve(&pre).expect("feasible");
            let ilp = IlpAllocator::default().solve(&pre).expect("solves");
            let exact = ilp.solution.expect("feasible");

            for sol in [&base, &heur, &exact] {
                assert!(sol.meets_timing, "{design} beta={beta}: {} violates", sol.algorithm);
                assert!(sol.clusters <= 3, "{design} beta={beta}");
            }
            assert!(
                exact.leakage_nw <= heur.leakage_nw + 1e-6,
                "{design} beta={beta}: ILP {} worse than heuristic {}",
                exact.leakage_nw,
                heur.leakage_nw
            );
            assert!(heur.leakage_nw <= base.leakage_nw + 1e-6, "{design} beta={beta}");
        }
    }
}

/// The constraint set Π is a heuristic (longest path through each cell); an
/// independent full STA over the biased, degraded design must confirm the
/// compensation within a small approximation margin.
#[test]
fn solutions_hold_up_under_independent_sta() {
    let (nl, placement, chara) = setup("alu");
    let beta = 0.08;
    let problem = FbbProblem::new(&nl, &placement, &chara, beta, 3).expect("valid");
    let pre = problem.preprocess().expect("acyclic");
    let sol = TwoPassHeuristic.solve(&pre).expect("feasible");

    let graph = TimingGraph::new(&nl).expect("acyclic");
    // Note: preprocess() applies a deterministic per-instance jitter; the
    // verification must model the same silicon, so jitter is disabled for
    // this cross-check problem.
    let pre_nojitter = FbbProblem::new(&nl, &placement, &chara, beta, 3)
        .expect("valid")
        .with_instance_jitter(0.0)
        .preprocess()
        .expect("acyclic");
    let sol2 = TwoPassHeuristic.solve(&pre_nojitter).expect("feasible");
    let nominal: Vec<f64> = nl.gates().iter().map(|g| chara.delay_ps(g.cell, 0)).collect();
    let dcrit = graph.analyze(&nominal).dcrit_ps();
    let tuned: Vec<f64> = nominal
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let row = placement.row_of(GateId::from_index(i)).index();
            d * (1.0 + beta) * (1.0 - chara.speedup_fraction(sol2.assignment[row]))
        })
        .collect();
    let tuned_dcrit = graph.analyze(&tuned).dcrit_ps();
    assert!(
        tuned_dcrit <= dcrit * 1.002,
        "independent STA shows {tuned_dcrit:.1} ps vs Dcrit {dcrit:.1} ps"
    );
    let _ = sol;
}

/// An uncompensable slowdown must not just fail — the error must say *which*
/// path cannot be fixed and by how much, and that diagnosis must agree with
/// the independent brute-force oracle's analysis of the same tables.
#[test]
fn uncompensable_slowdown_is_reported_not_mis_solved() {
    use fbb::core::FbbError;
    use fbb::testkit::oracle::enumerate;

    let (nl, placement, chara) = setup("adder");
    let pre = FbbProblem::new(&nl, &placement, &chara, 0.25, 3)
        .expect("valid")
        .preprocess()
        .expect("acyclic");
    let (oracle_path, oracle_shortfall) = enumerate::uncompensable_reason(&pre)
        .expect("beta=0.25 exceeds what the ladder can recover on the adder");

    for result in [single_bb(&pre), TwoPassHeuristic.solve(&pre)] {
        match result {
            Ok(sol) => panic!("uncompensable design mis-solved by {}", sol.algorithm),
            Err(FbbError::Uncompensable { beta, worst_path, shortfall_ps }) => {
                assert_eq!(beta, 0.25);
                assert_eq!(
                    worst_path,
                    Some(oracle_path),
                    "reported worst path disagrees with the oracle"
                );
                assert!(
                    (shortfall_ps - oracle_shortfall).abs() <= 1e-6 * oracle_shortfall.abs(),
                    "shortfall {shortfall_ps} ps vs oracle {oracle_shortfall} ps"
                );
                assert!(shortfall_ps > 0.0, "shortfall must be a positive miss");
            }
            Err(other) => panic!("expected Uncompensable, got: {other}"),
        }
    }
}

#[test]
fn layout_analysis_accepts_all_solutions() {
    use fbb::placement::layout;
    let (nl, placement, chara) = setup("alu");
    let pre = FbbProblem::new(&nl, &placement, &chara, 0.10, 3)
        .expect("valid")
        .preprocess()
        .expect("acyclic");
    let sol = TwoPassHeuristic.solve(&pre).expect("feasible");
    let analysis = layout::analyze(&placement, chara.ladder(), &sol.assignment)
        .expect("C<=3 solutions satisfy the 2-voltage layout rule");
    assert!(analysis.bias_voltages <= 2);
    assert!(analysis.area_overhead_pct() < 20.0);
    let _ = nl;
}
