//! Pins the §5j presolve-once contract: `solve_mip` reads its model once,
//! in presolve, no matter how many warm-started children the search
//! explores. No model audit runs inside a solve; `Model::audit` reports
//! only to callers that ask for it (`fbb lint --models`).

use std::sync::Mutex;

use fbb_lp::{solve_mip, MipOptions, Model, Sense};

/// Telemetry is process-global; tests that enable/reset it must not
/// interleave (same pattern as the fbb-telemetry unit tests).
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// A covering model that genuinely branches: 15 binaries, three ≤ rows,
/// one ≥ row. The fractional ≤ 2.5 rows make the root LP vertex
/// fractional, so the search explores hundreds of nodes.
fn branching_model() -> Model {
    let mut m = Model::new();
    let vars: Vec<usize> = (0..15).map(|i| m.add_binary(-1.0 - (i as f64) * 0.3)).collect();
    for chunk in vars.chunks(5) {
        let terms = chunk.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Le, 2.5).expect("valid row");
    }
    let terms = vars.iter().map(|&v| (v, 1.0)).collect();
    m.add_constraint(terms, Sense::Ge, 3.0).expect("valid row");
    m
}

/// Solves the branching model under telemetry and returns the counters.
fn solve_counters(options: &MipOptions) -> std::collections::BTreeMap<String, u64> {
    let _guard = TELEMETRY_LOCK.lock().expect("telemetry lock poisoned");
    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let s = solve_mip(&branching_model(), options, None).expect("solve");
    assert!(s.nodes > 1, "model must branch, or the pin says nothing about children");
    let counters = fbb_telemetry::snapshot().counters;
    fbb_telemetry::disable();
    fbb_telemetry::reset();
    counters
}

#[test]
fn presolve_runs_once_per_tree() {
    let counters = solve_counters(&MipOptions::default());
    assert_eq!(
        counters.get("lp_presolve_runs").copied(),
        Some(1),
        "presolve must run exactly once per solve_mip call"
    );
    let audit_keys: Vec<&String> = counters.keys().filter(|k| k.starts_with("audit_")).collect();
    assert!(audit_keys.is_empty(), "a solve must not audit its model: {audit_keys:?}");
}

#[test]
fn presolve_off_never_runs_presolve() {
    let opts =
        MipOptions { presolve: false, cuts: false, pseudocost: false, ..MipOptions::default() };
    let counters = solve_counters(&opts);
    assert!(!counters.contains_key("lp_presolve_runs"), "presolve ran with presolve: false");
}
