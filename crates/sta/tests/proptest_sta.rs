//! Property tests: STA against exhaustive path enumeration on small random
//! DAGs, and structural invariants on larger ones.
//!
//! Inputs are seeded per test name and case index; set the workspace-wide
//! `FBB_TEST_SEED` environment variable to re-roll every stream
//! reproducibly (failures print the active seed).

use std::collections::BTreeSet;

use fbb_netlist::generators::{random_logic, RandomLogicOptions};
use fbb_netlist::{GateId, Netlist};
use fbb_sta::{TimingAnalysis, TimingGraph, TimingPath};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;

fn circuit(seed: u64, gates: usize) -> Netlist {
    random_logic(
        "p",
        &RandomLogicOptions {
            target_gates: gates,
            n_inputs: 6,
            seed,
            registered: false,
            locality_window: 10,
        },
    )
    .expect("valid generator")
}

fn delays(nl: &Netlist, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..nl.gate_count()).map(|_| rng.gen_range(1.0..20.0)).collect()
}

/// Π by its definition: the longest path through every combinational gate,
/// in topological order, deduplicated by full gate-sequence equality with
/// the first occurrence kept.
fn reference_path_set(nl: &Netlist, analysis: &TimingAnalysis) -> Vec<TimingPath> {
    let mut seen = BTreeSet::new();
    nl.topo_order()
        .expect("acyclic")
        .into_iter()
        .map(|g| analysis.longest_path_through(g))
        .filter(|p| seen.insert(p.gates.clone()))
        .collect()
}

/// Element-by-element equality: same gates, same delay bits, same order.
fn assert_same_paths(got: &[TimingPath], want: &[TimingPath]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(&g.gates, &w.gates, "gates of path {}: {:?} vs {:?}", k, g.gates, w.gates);
        prop_assert_eq!(
            g.delay_ps.to_bits(),
            w.delay_ps.to_bits(),
            "delay of path {}: {} vs {}",
            k,
            g.delay_ps,
            w.delay_ps
        );
    }
    Ok(())
}

/// Exhaustively enumerates every source-to-sink path delay through DFS and
/// returns the worst delay through each gate. Only viable for small DAGs.
fn exhaustive_worst_through(nl: &Netlist, d: &[f64]) -> Vec<f64> {
    let n = nl.gate_count();
    // Worst prefix ending at each gate (recursive with memo = same DP, so
    // instead enumerate truly: DFS accumulating path delay from each source).
    let mut worst_prefix = vec![f64::NEG_INFINITY; n];
    let mut worst_suffix = vec![f64::NEG_INFINITY; n];

    // All paths from sources: iterate gates in every topological completion
    // via plain DFS enumeration.
    fn dfs_forward(nl: &Netlist, d: &[f64], gate: usize, acc: f64, worst: &mut [f64]) {
        let total = acc + d[gate];
        if total > worst[gate] {
            worst[gate] = total;
        }
        let out = nl.gates()[gate].output;
        for &sink in &nl.net(out).sinks {
            dfs_forward(nl, d, sink.index(), total, worst);
        }
    }
    fn dfs_backward(nl: &Netlist, d: &[f64], gate: usize, acc: f64, worst: &mut [f64]) {
        let total = acc + d[gate];
        if total > worst[gate] {
            worst[gate] = total;
        }
        for &input in &nl.gates()[gate].inputs {
            if let Some(driver) = nl.net(input).driver {
                dfs_backward(nl, d, driver.index(), total, worst);
            }
        }
    }
    for (id, gate) in nl.iter_gates() {
        let sources_only_pis =
            gate.inputs.iter().all(|&inp| nl.net(inp).driver.is_none());
        if sources_only_pis {
            dfs_forward(nl, d, id.index(), 0.0, &mut worst_prefix);
        }
        let is_sink = nl.net(gate.output).sinks.is_empty();
        if is_sink {
            dfs_backward(nl, d, id.index(), 0.0, &mut worst_suffix);
        }
    }
    (0..n).map(|i| worst_prefix[i] + worst_suffix[i] - d[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn longest_through_matches_exhaustive_enumeration(seed in 0u64..5_000) {
        // Small enough that full path enumeration terminates quickly
        // (path counts grow exponentially with reconvergent depth).
        let nl = circuit(seed, 22);
        let d = delays(&nl, seed ^ 0xABCD);
        let graph = TimingGraph::new(&nl).expect("acyclic");
        let analysis = graph.analyze(&d);
        let exhaustive = exhaustive_worst_through(&nl, &d);
        for (i, &expected) in exhaustive.iter().enumerate() {
            let got = analysis.longest_through_ps(GateId::from_index(i));
            prop_assert!((got - expected).abs() < 1e-6,
                "gate {i}: sta {got} vs exhaustive {expected}");
        }
    }

    #[test]
    fn dcrit_dominates_every_extracted_path(seed in 0u64..5_000) {
        let nl = circuit(seed, 150);
        let d = delays(&nl, seed ^ 0x1234);
        let graph = TimingGraph::new(&nl).expect("acyclic");
        let analysis = graph.analyze(&d);
        for path in analysis.critical_path_set() {
            prop_assert!(path.delay_ps <= analysis.dcrit_ps() + 1e-9);
            // Path delay equals the sum of its gate delays.
            let sum: f64 = path.gates.iter().map(|&g| d[g.index()]).sum();
            prop_assert!((sum - path.delay_ps).abs() < 1e-6);
            // Paths are connected chains: each gate drives the next.
            for pair in path.gates.windows(2) {
                let out = nl.gates()[pair[0].index()].output;
                prop_assert!(nl.net(out).sinks.contains(&pair[1]),
                    "path gates {} and {} are not connected", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn path_sets_match_the_deduplicating_reference(seed in 0u64..5_000, tied in any::<bool>()) {
        // Coarse delays make arrival and tail ties common, so the critical
        // links pick among equals; fine ones almost never tie.
        for registered in [false, true] {
            let nl = random_logic(
                "p",
                &RandomLogicOptions {
                    target_gates: 150,
                    n_inputs: 6,
                    seed,
                    registered,
                    locality_window: 10,
                },
            )
            .expect("valid generator");
            let d: Vec<f64> = if tied {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x71ED);
                (0..nl.gate_count()).map(|_| f64::from(rng.gen_range(1u32..4)) * 5.0).collect()
            } else {
                delays(&nl, seed ^ 0x9A7)
            };
            let graph = TimingGraph::new(&nl).expect("acyclic");
            let analysis = graph.analyze(&d);
            let reference = reference_path_set(&nl, &analysis);
            assert_same_paths(&analysis.critical_path_set(), &reference)?;
            for beta in [0.0, 0.03, 0.05, 0.10] {
                let constrained: Vec<TimingPath> = reference
                    .iter()
                    .filter(|p| p.delay_ps * (1.0 + beta) > analysis.dcrit_ps() + 1e-9)
                    .cloned()
                    .collect();
                assert_same_paths(&analysis.constrained_path_set(beta), &constrained)?;
            }
        }
    }

    #[test]
    fn scaling_delays_scales_dcrit_linearly(seed in 0u64..5_000, k in 1.1f64..3.0) {
        let nl = circuit(seed, 120);
        let d = delays(&nl, seed);
        let scaled: Vec<f64> = d.iter().map(|&x| x * k).collect();
        let graph = TimingGraph::new(&nl).expect("acyclic");
        let a = graph.analyze(&d).dcrit_ps();
        let b = graph.analyze(&scaled).dcrit_ps();
        prop_assert!((b - a * k).abs() < 1e-6 * b.max(1.0));
    }

    #[test]
    fn slack_is_nonnegative_and_zero_on_the_critical_path(seed in 0u64..5_000) {
        let nl = circuit(seed, 120);
        let d = delays(&nl, seed ^ 0x77);
        let graph = TimingGraph::new(&nl).expect("acyclic");
        let analysis = graph.analyze(&d);
        let mut min_slack = f64::INFINITY;
        for i in 0..nl.gate_count() {
            let s = analysis.slack_through_ps(GateId::from_index(i));
            prop_assert!(s > -1e-9, "negative slack {s} at gate {i}");
            min_slack = min_slack.min(s);
        }
        prop_assert!(min_slack.abs() < 1e-9, "some gate must sit on the critical path");
    }
}
