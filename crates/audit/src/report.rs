//! Findings, waiver records, and report rendering (human table + JSON).
//!
//! The JSON writer is hand-rolled (the crate is dependency-free); output is
//! deterministic: findings sorted by path/line/rule, waivers by path/line.

use std::collections::BTreeMap;

use crate::rules::{rule, RULES};

/// One rule hit. `waived` hits are surfaced but do not fail the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (`FA001`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// Whether an inline waiver covers this finding.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waiver_reason: Option<String>,
}

/// A waiver comment found in the tree, with its use status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverRecord {
    /// Rule ID the waiver targets.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Justification text.
    pub reason: String,
    /// Whether any finding actually matched it (a stale waiver is `false`).
    pub used: bool,
}

/// One trust-boundary entry's FA007 verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustEntry {
    /// The qualified entry name from the manifest (or fixture header).
    pub entry: String,
    /// Whether the panic-reachability fixpoint proved it panic-free.
    pub panic_free: bool,
}

/// Statistics from the call-graph rules: parser/call-graph scale and the
/// per-entry trust-boundary verdicts. The counts mirror the
/// `audit_parse_fns` / `audit_callgraph_edges` / `audit_panic_reachable`
/// telemetry counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeepStats {
    /// Non-test `fn` items parsed workspace-wide.
    pub parse_fns: u64,
    /// Resolved call-graph edges.
    pub callgraph_edges: u64,
    /// Panic sites reachable from the trust boundary (0 on a clean run).
    pub panic_reachable: u64,
    /// Per-entry verdicts, in manifest order.
    pub entries: Vec<TrustEntry>,
}

/// Aggregated result of a lint run.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// All findings (violations and waived hits), sorted.
    pub findings: Vec<Finding>,
    /// Every waiver in the scanned tree, used or not.
    pub waivers: Vec<WaiverRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Parser, call-graph and trust-boundary statistics.
    pub deep: DeepStats,
}

impl AuditReport {
    /// Unwaived findings — the ones that fail the run.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Whether the run is clean (no unwaived findings).
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Rule IDs that produced at least one finding (waived or not). The
    /// fixture gate uses this to prove every rule still bites.
    pub fn rules_fired(&self) -> Vec<&'static str> {
        let mut fired: Vec<&'static str> =
            self.findings.iter().map(|f| f.rule).collect();
        fired.sort_unstable();
        fired.dedup();
        fired
    }

    /// Canonical ordering, applied once after all files are merged.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        self.waivers.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    }

    /// Per-rule violation counts (zero-count rules included).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            RULES.iter().map(|r| (r.id, 0)).collect();
        for f in self.violations() {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Human-readable report.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let violations = self.violations().count();
        for f in self.violations() {
            let info = rule(f.rule);
            s.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                f.path, f.line, f.col, f.rule, f.message
            ));
            if let Some(info) = info {
                s.push_str(&format!("    fix: {}\n", info.hint));
            }
        }
        for f in self.findings.iter().filter(|f| f.waived) {
            s.push_str(&format!(
                "{}:{}:{}: [{}] waived: {} — {}\n",
                f.path,
                f.line,
                f.col,
                f.rule,
                f.message,
                f.waiver_reason.as_deref().unwrap_or("(no reason)")
            ));
        }
        for w in self.waivers.iter().filter(|w| !w.used) {
            s.push_str(&format!(
                "{}:{}: stale waiver for {} (matched no finding): {}\n",
                w.path, w.line, w.rule, w.reason
            ));
        }
        let deep = &self.deep;
        for e in &deep.entries {
            s.push_str(&format!(
                "trust boundary: `{}` — {}\n",
                e.entry,
                if e.panic_free { "panic-free" } else { "NOT PROVEN panic-free" }
            ));
        }
        s.push_str(&format!(
            "call graph: {} fn(s), {} call edge(s), {} panic site(s) reachable from the trust \
             boundary\n",
            deep.parse_fns, deep.callgraph_edges, deep.panic_reachable
        ));
        let waived = self.findings.iter().filter(|f| f.waived).count();
        s.push_str(&format!(
            "fbb-audit: {} file(s) scanned, {violations} violation(s), {waived} waived hit(s), \
             {} waiver(s) ({} stale)\n",
            self.files_scanned,
            self.waivers.len(),
            self.waivers.iter().filter(|w| !w.used).count()
        ));
        s
    }

    /// Machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"violation_count\": {},\n", self.violations().count()));
        s.push_str("  \"rule_counts\": {");
        let counts = self.counts();
        let entries: Vec<String> =
            counts.iter().map(|(id, n)| format!("\"{id}\": {n}")).collect();
        s.push_str(&entries.join(", "));
        s.push_str("},\n");
        let deep = &self.deep;
        s.push_str("  \"deep\": {\n");
        s.push_str(&format!("    \"audit_parse_fns\": {},\n", deep.parse_fns));
        s.push_str(&format!("    \"audit_callgraph_edges\": {},\n", deep.callgraph_edges));
        s.push_str(&format!("    \"audit_panic_reachable\": {},\n", deep.panic_reachable));
        s.push_str("    \"trust_boundary\": [");
        let rows: Vec<String> = deep
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"entry\": \"{}\", \"panic_free\": {}}}",
                    json_escape(&e.entry),
                    e.panic_free
                )
            })
            .collect();
        s.push_str(&rows.join(", "));
        s.push_str("]\n  },\n");
        s.push_str("  \"violations\": [\n");
        let rows: Vec<String> = self
            .violations()
            .map(|f| {
                format!(
                    "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
                     \"message\": \"{}\"}}",
                    f.rule,
                    json_escape(&f.path),
                    f.line,
                    f.col,
                    json_escape(&f.message)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str("  \"waivers\": [\n");
        let rows: Vec<String> = self
            .waivers
            .iter()
            .map(|w| {
                format!(
                    "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"used\": {}, \
                     \"reason\": \"{}\"}}",
                    json_escape(&w.rule),
                    json_escape(&w.path),
                    w.line,
                    w.used,
                    json_escape(&w.reason)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, waived: bool) -> Finding {
        Finding {
            rule,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "a \"quoted\" message".into(),
            waived,
            waiver_reason: waived.then(|| "because".to_owned()),
        }
    }

    #[test]
    fn violations_exclude_waived() {
        let report = AuditReport {
            findings: vec![finding("FA001", false), finding("FA002", true)],
            waivers: vec![],
            files_scanned: 1,
            deep: DeepStats::default(),
        };
        assert_eq!(report.violations().count(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.rules_fired(), vec!["FA001", "FA002"]);
    }

    #[test]
    fn json_is_escaped_and_counts_match() {
        let report = AuditReport {
            findings: vec![finding("FA001", false)],
            waivers: vec![WaiverRecord {
                rule: "FA002".into(),
                path: "p.rs".into(),
                line: 1,
                reason: "r".into(),
                used: false,
            }],
            files_scanned: 2,
            deep: DeepStats::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"violation_count\": 1"));
        assert!(json.contains("\"FA001\": 1"));
        assert!(json.contains("\"used\": false"));
    }

    #[test]
    fn summary_reports_stale_waivers() {
        let report = AuditReport {
            findings: vec![],
            waivers: vec![WaiverRecord {
                rule: "FA003".into(),
                path: "p.rs".into(),
                line: 9,
                reason: "old".into(),
                used: false,
            }],
            files_scanned: 1,
            deep: DeepStats::default(),
        };
        assert!(report.is_clean());
        assert!(report.summary().contains("stale waiver for FA003"));
    }

    #[test]
    fn deep_stats_render_in_summary_and_json() {
        let report = AuditReport {
            findings: vec![],
            waivers: vec![],
            files_scanned: 3,
            deep: DeepStats {
                parse_fns: 40,
                callgraph_edges: 17,
                panic_reachable: 0,
                entries: vec![
                    TrustEntry { entry: "fbb_serve::protocol::read_frame".into(), panic_free: true },
                    TrustEntry { entry: "nope::missing".into(), panic_free: false },
                ],
            },
        };
        let summary = report.summary();
        assert!(summary.contains("`fbb_serve::protocol::read_frame` — panic-free"));
        assert!(summary.contains("`nope::missing` — NOT PROVEN"));
        assert!(summary.contains("40 fn(s), 17 call edge(s), 0 panic site(s)"));
        let json = report.to_json();
        assert!(json.contains("\"audit_parse_fns\": 40"));
        assert!(json.contains("\"audit_callgraph_edges\": 17"));
        assert!(json.contains("\"audit_panic_reachable\": 0"));
        assert!(json.contains("{\"entry\": \"fbb_serve::protocol::read_frame\", \"panic_free\": true}"));
    }
}
