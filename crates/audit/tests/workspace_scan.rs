//! Lints the actual workspace tree. This is the same scan `fbb lint` (and
//! the check.sh gate) runs; keeping it as a test means `cargo test` alone
//! catches a newly introduced violation.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/audit -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).expect("workspace root")
}

#[test]
fn workspace_is_deep_lint_clean() {
    let report = fbb_audit::audit_workspace(workspace_root()).expect("scan workspace");
    assert!(report.files_scanned > 20, "walker found too few files: {}", report.files_scanned);
    assert!(report.is_clean(), "workspace has lint violations:\n{}", report.summary());
    let stale: Vec<String> = report
        .waivers
        .iter()
        .filter(|w| !w.used)
        .map(|w| format!("{}:{} {}", w.path, w.line, w.rule))
        .collect();
    assert!(stale.is_empty(), "stale waivers present: {stale:?}");
}

#[test]
fn every_trust_boundary_entry_is_proven_panic_free() {
    let report = fbb_audit::audit_workspace(workspace_root()).expect("scan workspace");
    let deep = &report.deep;
    assert!(!deep.entries.is_empty(), "audit.toml declares trust-boundary entries");
    let unproven: Vec<&str> = deep
        .entries
        .iter()
        .filter(|e| !e.panic_free)
        .map(|e| e.entry.as_str())
        .collect();
    assert!(
        unproven.is_empty(),
        "trust-boundary entries with reachable panics: {unproven:?}\n{}",
        report.summary()
    );
    assert!(deep.parse_fns > 500, "parser found too few fns: {}", deep.parse_fns);
    assert!(deep.callgraph_edges > 1000, "call graph too sparse: {}", deep.callgraph_edges);
    assert_eq!(deep.panic_reachable, 0, "panic sites reachable from the trust boundary");
}
