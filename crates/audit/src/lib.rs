//! `fbb-audit` — repo-invariant static analysis for the clustered-FBB
//! workspace (Layer 1 of the two-layer audit stack; Layer 2, the ILP model
//! presolve auditor, lives in `fbb_lp::Model::audit`).
//!
//! A hand-rolled lexer ([`lexer`]) feeds a rule engine ([`rules`]) that
//! enforces conventions clippy cannot express:
//!
//! * **FA001** — no `==`/`!=` against float literals in the LP/STA solver
//!   paths (outside the approved `fbb_lp` approx helpers);
//! * **FA002** — no `.unwrap()` / empty-reason `.expect("")` in non-test
//!   library code;
//! * **FA003** — determinism: no wall-clock reads (`Instant::now`,
//!   `SystemTime`, `.elapsed()`) in solver layers outside the `fbb-lp`
//!   deadline module;
//! * **FA004** — telemetry names are snake_case and carry their layer's
//!   prefix (`lp_*`, `bnb_*`, `sta_*`, `difftest_*`, …);
//! * **FA005** — `fault-inject` hooks are referenced only behind the
//!   feature gate (or in crates that declare the feature in Cargo.toml);
//! * **FA006** — imports stay within std + the offline `shims/` crates.
//!
//! The deep pass (`fbb lint --deep`) feeds the same token stream through a
//! token-tree item parser ([`parse`]) into a workspace call graph
//! ([`callgraph`]) and adds the trust-boundary rules, scoped by the
//! checked-in `audit.toml` manifest ([`manifest`]):
//!
//! * **FA007** — no panic (`panic!`-family macro, `.unwrap()`,
//!   `.expect(…)`, scoped slice index) reachable from a declared
//!   trust-boundary entry;
//! * **FA008** — no unchecked `as` narrowing casts on codec paths;
//! * **FA009** — no bare slice indexing on decode paths;
//! * **FA010** — `Condvar::wait` only inside predicate loops, no lock
//!   guards held across blocking calls (`crates/serve`);
//! * **FA011** — source constants match the normative tables in
//!   `docs/FORMAT.md` / `docs/PROTOCOL.md`.
//!
//! A hit is silenced with an inline waiver on the same line or the line
//! above — `// fbb-audit: allow(FA003) reported runtime is observability
//! output` — and every waiver (used or stale) is surfaced in the report.
//! Malformed waivers are themselves violations (**FA000**).
//!
//! The `fixtures/` directory holds planted-violation files (each declaring
//! a virtual workspace path in a header comment); `audit_fixtures` lints
//! them to prove the analyzer still bites, which `scripts/check.sh` arms
//! via `fbb lint --fixtures`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod context;
pub mod deep;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use context::{FileClass, FileCtx, Waiver};
pub use manifest::Manifest;
pub use report::{AuditReport, DeepStats, Finding, TrustEntry, WaiverRecord};
pub use rules::{rule, RuleInfo, RULES};

/// Maps a workspace-relative path to the crate identifier its items are
/// qualified under (`crates/db/…` → `fbb_db`, `shims/rand/…` → `rand`,
/// everything else → the root `fbb` crate).
fn crate_ident(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        return format!("fbb_{}", parts[1].replace('-', "_"));
    }
    if parts.len() >= 2 && parts[0] == "shims" {
        return parts[1].replace('-', "_");
    }
    "fbb".to_owned()
}

/// Turns a file's inline waivers into unused [`WaiverRecord`]s.
fn waiver_records(ctx: &FileCtx) -> Vec<WaiverRecord> {
    ctx.waivers
        .iter()
        .map(|w| WaiverRecord {
            rule: w.rule.clone(),
            path: ctx.rel_path.clone(),
            line: w.line,
            reason: w.reason.clone(),
            used: false,
        })
        .collect()
}

/// Matches findings against waiver records: a waiver covers a finding of
/// its rule in its file on the same line or the line below, and is marked
/// used. FA000 (waiver hygiene) can never be waived.
fn apply_waivers(findings: &mut [Finding], waivers: &mut [WaiverRecord]) {
    for f in findings {
        if f.rule == "FA000" {
            continue;
        }
        let matched = waivers.iter_mut().find(|w| {
            w.path == f.path && w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line)
        });
        if let Some(w) = matched {
            f.waived = true;
            f.waiver_reason = Some(w.reason.clone());
            w.used = true;
        }
    }
}

/// Lints one source file. `rel_path` drives rule scoping, `class` the
/// test-code exemptions, and `declares_fault_inject` the FA005 Cargo.toml
/// escape hatch. Returns the findings (waivers already applied) and the
/// file's waiver records.
pub fn audit_source(
    rel_path: &str,
    class: FileClass,
    declares_fault_inject: bool,
    source: &str,
) -> (Vec<Finding>, Vec<WaiverRecord>) {
    let ctx = FileCtx::analyze(rel_path, class, declares_fault_inject, source);
    let mut findings = rules::check_file(&ctx);
    let mut waivers = waiver_records(&ctx);
    apply_waivers(&mut findings, &mut waivers);
    (findings, waivers)
}

/// Lints every `.rs` file in the workspace rooted at `root` with the deep
/// pass armed: shallow rules plus the parser / call-graph rules FA007–FA011
/// driven by `<root>/audit.toml` and the spec docs. Emits the
/// `audit_parse_fns` / `audit_callgraph_edges` / `audit_panic_reachable`
/// telemetry counters and attaches [`DeepStats`] to the report.
///
/// # Errors
///
/// I/O errors from the walk or the source files, a missing or unparseable
/// `audit.toml`, or unreadable spec docs.
pub fn audit_workspace_deep(root: &Path) -> io::Result<AuditReport> {
    let manifest = Manifest::load(root)?;
    let docs = deep::doc_constants(root)?;
    let files = walk::workspace_files(root)?;
    let mut report = AuditReport::default();
    let mut waivers: Vec<WaiverRecord> = Vec::new();
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(files.len());
    for file in &files {
        let bytes = fs::read(&file.abs)?;
        let source = String::from_utf8_lossy(&bytes);
        let ctx = FileCtx::analyze(&file.rel, file.class, file.declares_fault_inject, &source);
        report.findings.extend(rules::check_file(&ctx));
        waivers.extend(waiver_records(&ctx));
        ctxs.push(ctx);
    }
    let parsed: Vec<parse::ParsedFile> =
        ctxs.iter().map(|c| parse::parse_file(c, &crate_ident(&c.rel_path))).collect();
    let (deep_findings, stats) =
        deep::check_deep(&ctxs, &parsed, &manifest, &manifest.entries, &docs, true);
    report.findings.extend(deep_findings);
    apply_waivers(&mut report.findings, &mut waivers);
    fbb_telemetry::counter("audit_parse_fns", stats.parse_fns);
    fbb_telemetry::counter("audit_callgraph_edges", stats.callgraph_edges);
    fbb_telemetry::counter("audit_panic_reachable", stats.panic_reachable);
    report.deep = Some(stats);
    report.waivers = waivers;
    report.files_scanned = files.len();
    report.sort();
    Ok(report)
}

/// Lints every `.rs` file in the workspace rooted at `root`.
///
/// # Errors
///
/// I/O errors from the walk or from reading a source file.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let files = walk::workspace_files(root)?;
    let mut report = AuditReport::default();
    for file in &files {
        let bytes = fs::read(&file.abs)?;
        let source = String::from_utf8_lossy(&bytes);
        let (findings, waivers) =
            audit_source(&file.rel, file.class, file.declares_fault_inject, &source);
        report.findings.extend(findings);
        report.waivers.extend(waivers);
    }
    // The shallow pass cannot judge waivers for deep rules — only
    // `audit_workspace_deep` produces the findings they match — so it must
    // not surface them as stale.
    for w in &mut report.waivers {
        if rules::RULES.iter().any(|r| r.id == w.rule && r.deep) {
            w.used = true;
        }
    }
    report.files_scanned = files.len();
    report.sort();
    Ok(report)
}

/// Header every fixture file must start with, declaring the virtual
/// workspace path the content is linted under.
pub const FIXTURE_HEADER: &str = "// fbb-audit-fixture:";

/// Optional second header marking the fixture's crate as declaring the
/// `fault-inject` feature.
pub const FIXTURE_DECLARES: &str = "// fbb-audit-declares: fault-inject";

/// Optional header declaring a fixture's own FA007 trust-boundary entries
/// (comma-separated qualified names). Fixtures never use the workspace
/// manifest's entries — each FA007 fixture plants its own boundary.
pub const FIXTURE_ENTRIES: &str = "// fbb-audit-entries:";

/// Lints the planted-violation fixtures under `crates/audit/fixtures` of
/// the workspace rooted at `root`, with the deep rules armed. Each fixture
/// is linted as if it lived at the virtual path named in its
/// [`FIXTURE_HEADER`] line; FA007 roots come from [`FIXTURE_ENTRIES`]
/// headers, while the FA008/FA009 path scopes and the FA011 spec docs come
/// from the real workspace (the FA011 documented-but-unimplemented check
/// stays off — fixtures implement almost nothing).
///
/// # Errors
///
/// I/O errors, `InvalidData` for a fixture without a valid header, or a
/// missing/unparseable workspace `audit.toml`.
pub fn audit_fixtures(root: &Path) -> io::Result<AuditReport> {
    let manifest = Manifest::load(root)?;
    let docs = deep::doc_constants(root)?;
    let dir = root.join("crates/audit/fixtures");
    let mut paths: Vec<_> = fs::read_dir(&dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|e| e == "rs").unwrap_or(false))
        .collect();
    paths.sort();
    let mut report = AuditReport::default();
    let mut waivers: Vec<WaiverRecord> = Vec::new();
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    for path in &paths {
        let bytes = fs::read(path)?;
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let first = source.lines().next().unwrap_or("");
        let Some(virtual_path) = first.strip_prefix(FIXTURE_HEADER).map(str::trim) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: fixture must start with `{FIXTURE_HEADER} <virtual path>`",
                    path.display()
                ),
            ));
        };
        let mut declares = false;
        for line in source.lines().take(4).skip(1) {
            let line = line.trim();
            if line == FIXTURE_DECLARES {
                declares = true;
            } else if let Some(list) = line.strip_prefix(FIXTURE_ENTRIES) {
                entries.extend(
                    list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_owned),
                );
            }
        }
        let ctx =
            FileCtx::analyze(virtual_path, walk::classify(virtual_path), declares, &source);
        report.findings.extend(rules::check_file(&ctx));
        waivers.extend(waiver_records(&ctx));
        ctxs.push(ctx);
    }
    let parsed: Vec<parse::ParsedFile> =
        ctxs.iter().map(|c| parse::parse_file(c, &crate_ident(&c.rel_path))).collect();
    let (deep_findings, stats) =
        deep::check_deep(&ctxs, &parsed, &manifest, &entries, &docs, false);
    report.findings.extend(deep_findings);
    apply_waivers(&mut report.findings, &mut waivers);
    report.deep = Some(stats);
    report.waivers = waivers;
    report.files_scanned = paths.len();
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_applies_same_line_and_line_above() {
        let src = "\
use std::time::Instant;
fn f() {
    // fbb-audit: allow(FA003) runtime reporting only
    let t = Instant::now();
    let u = Instant::now(); // fbb-audit: allow(FA003) second site
    let _ = (t, u);
    let v = Instant::now();
    let _ = v;
}
";
        let (findings, waivers) =
            audit_source("crates/lp/src/x.rs", FileClass::Library, false, src);
        let fa003: Vec<&Finding> = findings.iter().filter(|f| f.rule == "FA003").collect();
        assert_eq!(fa003.len(), 3);
        assert_eq!(fa003.iter().filter(|f| f.waived).count(), 2);
        assert!(waivers.iter().all(|w| w.used));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_apply() {
        let src = "// fbb-audit: allow(FA001) wrong rule\nlet t = std::time::Instant::now();";
        let (findings, waivers) =
            audit_source("crates/lp/src/x.rs", FileClass::Library, false, src);
        assert!(findings.iter().any(|f| f.rule == "FA003" && !f.waived));
        assert!(waivers.iter().all(|w| !w.used));
    }

    #[test]
    fn fa006_flags_criterion_but_not_proptest() {
        let fa006 = |src: &str| {
            let (findings, _) =
                audit_source("crates/bench/benches/x.rs", FileClass::TestLike, false, src);
            findings.iter().filter(|f| f.rule == "FA006").count()
        };
        assert_eq!(fa006("use criterion::Criterion;\n"), 1, "no shims/criterion crate exists");
        assert_eq!(fa006("use proptest::prelude::*;\n"), 0, "shims/proptest exists");
    }

    #[test]
    fn fa000_cannot_be_waived() {
        let src = "\
// fbb-audit: allow(FA000) trying to waive the waiver rule
// fbb-audit: allow(BOGUS) unknown rule id
fn f() {}
";
        let (findings, _) = audit_source("src/x.rs", FileClass::Library, false, src);
        assert!(findings.iter().any(|f| f.rule == "FA000" && !f.waived));
    }
}
