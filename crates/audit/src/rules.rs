//! The rule set: repo invariants clippy cannot express.
//!
//! Every rule carries a stable ID, a one-line title, and a fix hint. A
//! finding can be waived inline with
//! `// fbb-audit: allow(RULE_ID) reason` on the same line or the line
//! directly above; every waiver is surfaced in the report.

use crate::context::{FileClass, FileCtx};
use crate::lexer::TokenKind;
use crate::report::Finding;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (`FA000`–`FA011`).
    pub id: &'static str,
    /// One-line description of the invariant.
    pub title: &'static str,
    /// How to fix a hit (or when a waiver is appropriate).
    pub hint: &'static str,
    /// One-paragraph explanation of the invariant and why it exists
    /// (`fbb lint --explain RULE` prints this).
    pub doc: &'static str,
    /// A minimal violating snippet, as planted in the rule's fixture file.
    pub example: &'static str,
    /// Whether the rule needs the deep pass (`fbb lint --deep`): parser,
    /// call graph, manifest, and spec docs.
    pub deep: bool,
}

/// All rules, in ID order.
pub const RULES: [RuleInfo; 12] = [
    RuleInfo {
        id: "FA000",
        title: "malformed fbb-audit waiver comment",
        hint: "write `// fbb-audit: allow(RULE_ID) reason` with a non-empty reason; \
               this rule itself cannot be waived",
        doc: "A waiver comment that does not parse — missing rule id, empty reason, or a \
              rule id the engine does not know — silently waives nothing, which is worse \
              than no waiver at all: the author believes a hit is covered while the gate \
              still fires (or, if the syntax were lenient, never fires again). Malformed \
              waivers are therefore violations in their own right, and FA000 itself can \
              never be waived.",
        example: "// fbb-audit: allow(FA002)\nvalue.unwrap(); // reason text is missing",
        deep: false,
    },
    RuleInfo {
        id: "FA001",
        title: "float literal compared with == / != in a solver path",
        hint: "compare through the fbb-lp approx helpers (is_zero / is_nonzero / near) \
               or on integer bit patterns (to_bits)",
        doc: "Exact equality against a float literal in the LP/STA solver paths is almost \
              always a latent bug: accumulated rounding makes `x == 0.0` false for values \
              that are zero for every numerical purpose, and the difftest harness then \
              diverges across optimization levels. The approx helpers centralize the \
              tolerance policy so it can be tuned in one place.",
        example: "if reduced_cost == 0.0 { // FA001: exact float equality\n    return None;\n}",
        deep: false,
    },
    RuleInfo {
        id: "FA002",
        title: ".unwrap() or empty-reason .expect() in non-test library code",
        hint: "propagate a Result, or use .expect(\"why this cannot fail\") with a real reason",
        doc: "Library code owes its callers an error path, not a process abort. `.unwrap()` \
              and `.expect(\"\")` encode \"this cannot fail\" without saying why, so the \
              next editor cannot check the claim. An `.expect` with a real reason is \
              allowed — it documents the invariant — and test code is exempt because a \
              panic is the correct test-failure mechanism.",
        example: "let design = cache.get(&key).unwrap(); // FA002 in library code",
        deep: false,
    },
    RuleInfo {
        id: "FA003",
        title: "wall-clock read in a deterministic solver path",
        hint: "route deadlines through the fbb-lp deadline module; wall-clock belongs only \
               there, in telemetry spans, and in explicitly waived runtime reporting",
        doc: "The solver layers must be bit-reproducible: the difftest gate compares runs \
              across optimization levels, and any `Instant::now()`/`SystemTime` read that \
              influences control flow makes results depend on machine load. All deadline \
              handling goes through `fbb_lp::deadline`, which is injectable and mocked in \
              tests; telemetry spans and waived runtime reporting are the only other \
              legitimate clock users.",
        example: "let t0 = std::time::Instant::now(); // FA003 in crates/core\nsolve(model);",
        deep: false,
    },
    RuleInfo {
        id: "FA004",
        title: "telemetry name violates the per-crate prefix convention",
        hint: "counters/stats/spans must be snake_case and carry their layer's prefix \
               (lp_/bnb_/audit_ in fbb-lp, sta_/par_ in fbb-sta, ilp_/core_ in fbb-core, \
               mc_ in fbb-variation, difftest_ in fbb-testkit, db_ in fbb-db, serve_ in \
               fbb-serve, audit_ in fbb-audit, cli_ in the CLI)",
        doc: "Telemetry names are a flat global namespace: the snapshot merges every \
              layer's counters into one table, and `fbb status` groups them by prefix. A \
              counter without its layer's prefix lands in the wrong report section and \
              can collide with another crate's name. The convention is enforced at the \
              call site (`fbb_telemetry::counter(\"lp_pivots\", …)`) because names are \
              compile-time string literals.",
        example: "fbb_telemetry::counter(\"Pivots\", 1); // FA004: not snake_case, no lp_ prefix",
        deep: false,
    },
    RuleInfo {
        id: "FA005",
        title: "fault-injection hook referenced outside a fault-inject feature gate",
        hint: "wrap the reference in #[cfg(feature = \"fault-inject\")] or declare the \
               feature explicitly on the crate's fbb-lp dependency in Cargo.toml",
        doc: "The fault-injection hooks flip solver behavior to prove the difftest harness \
              catches defects. Referenced outside the `fault-inject` feature gate they \
              would ship in release builds, where an accidentally armed hook corrupts \
              production results. A crate that declares the feature on its fbb-lp \
              dependency in Cargo.toml opts in deliberately and is exempt.",
        example: "lp::fault::with_flipped_pivot_sign(|| run()); // FA005 outside #[cfg(...)]",
        deep: false,
    },
    RuleInfo {
        id: "FA006",
        title: "import of a non-shimmed external crate",
        hint: "the offline build only provides std and the shims/ crates (rand, rand_chacha, \
               serde, proptest); add a shim or gate the dependency",
        doc: "The workspace builds fully offline: no crates.io access exists at build time, \
              so any `use` of a crate without a local shim under shims/ breaks the build \
              for everyone else. The allowed roots are std/core/alloc, the workspace's \
              fbb-* crates, and the checked-in shims. New third-party functionality means \
              writing (or extending) a shim, not adding a registry dependency.",
        example: "use regex::Regex; // FA006: no shims/regex crate exists",
        deep: false,
    },
    RuleInfo {
        id: "FA007",
        title: "panic reachable from a network trust-boundary entry",
        hint: "make every function on the call path total: return DbError/ServeError \
               instead of panicking, replace .unwrap()/.expect with error propagation, \
               and use .get(..) instead of bare indexing on decode paths",
        doc: "The functions named in audit.toml's [trust_boundary] section parse bytes \
              that arrive from the network, so any panic they can transitively reach is a \
              remote denial-of-service: one malformed frame kills the worker thread. The \
              deep pass builds a workspace call graph, walks every path from each entry, \
              and reports each reachable panic site (panic!-family macros, .unwrap(), \
              .expect(…), and — on manifest-scoped decode paths — bare slice indexing) \
              with an example call chain. An entry that resolves to no function is itself \
              a violation, so the proof cannot rot silently.",
        example: "pub fn decode(b: &[u8]) -> Header { parse_magic(b) } // entry\n\
                  fn parse_magic(b: &[u8]) -> Header { b.first().copied().unwrap().into() }",
        deep: true,
    },
    RuleInfo {
        id: "FA008",
        title: "unchecked `as` narrowing cast on a codec path",
        hint: "use try_from/try_into (propagating DbError/ServeError on overflow), \
               usize::from for widening, or mask explicitly and document why truncation \
               is intended",
        doc: "On the wire paths (crates/db, crates/serve) an `as` cast to a narrower \
              integer silently truncates attacker-controlled values: `len as usize` on a \
              32-bit target, or `count as u8` after a u64 read, turns an out-of-range \
              value into a small in-range one and defeats the length checks around it. \
              The manifest's [scopes] cast_paths confines the rule to codec crates where \
              every integer crosses a trust boundary; deliberate truncation (bit masks, \
              hashes) is waived at the site with the mask visible.",
        example: "let n = decoder.u64()? as usize; // FA008: silently truncates on 32-bit",
        deep: true,
    },
    RuleInfo {
        id: "FA009",
        title: "bare slice index on a decode path",
        hint: "use .get(..) / .get_mut(..) with an explicit error, or split_at checked \
               against the length you already validated",
        doc: "`bytes[a..b]` panics when the input is shorter than the decoder expects — \
              which on a decode path means a malformed frame aborts the process instead \
              of returning a decode error. The manifest's [scopes] index_paths confines \
              the rule to the byte-level decoders; the same sites also count as FA007 \
              panic sources, so an indexing fix discharges both rules at once. Fixed-table \
              kernels whose indices are masked to the table size are listed in [scopes] \
              exclude with a justification.",
        example: "let magic = &bytes[..8]; // FA009: panics on a short frame",
        deep: true,
    },
    RuleInfo {
        id: "FA010",
        title: "Condvar::wait outside a predicate loop, or a lock guard held across a \
                blocking call",
        hint: "wrap every wait in `while !predicate { guard = cv.wait(guard)? }`, and \
               drop (or scope) Mutex guards before accept/read/write/join/sleep calls",
        doc: "Condition variables permit spurious wakeups: a `wait` not re-checked in a \
              loop resumes on a false signal and proceeds on a violated invariant. And a \
              Mutex guard held across a blocking call (socket accept/read/write, join, \
              sleep, another wait) serializes every other thread behind one slow peer — \
              the classic server stall. The rule is scoped to crates/serve, the only \
              crate with threads, and recognizes `drop(guard)` or guard usage inside the \
              blocking statement as proof the hold is intentional.",
        example: "let g = q.jobs.lock().expect(\"poisoned\");\n\
                  let _ = q.not_empty.wait(g); // FA010: no predicate loop",
        deep: true,
    },
    RuleInfo {
        id: "FA011",
        title: "spec constant drifts from docs/FORMAT.md or docs/PROTOCOL.md",
        hint: "change the source constant and its spec table together (they are one \
               edit), or fix the doc if the code is the intended value",
        doc: "docs/FORMAT.md and docs/PROTOCOL.md are normative: external tools decode \
              .fbb containers and speak the daemon protocol from those tables alone. The \
              deep pass extracts every `NAME` = value and opcode-table row from the docs \
              and cross-checks it against the workspace's `const NAME` declarations — a \
              mismatch means shipped bytes and documented bytes disagree, which is a \
              compatibility break no test catches. A documented constant with no source \
              const is reported at the doc line so renames cannot orphan the spec.",
        example: "pub const MAX_FRAME_LEN: u32 = 4096; // docs/PROTOCOL.md says 16777216",
        deep: true,
    },
];

/// Looks up a rule by ID.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Telemetry-name prefix convention: crate-root path prefix → allowed name
/// prefixes. Crates not listed only need snake_case names.
const TELEMETRY_PREFIXES: [(&str, &[&str]); 9] = [
    ("crates/lp", &["lp_", "bnb_", "audit_"]),
    ("crates/sta", &["sta_", "par_"]),
    ("crates/core", &["ilp_", "core_"]),
    ("crates/variation", &["mc_"]),
    ("crates/testkit", &["difftest_"]),
    ("crates/db", &["db_"]),
    ("crates/serve", &["serve_"]),
    ("crates/audit", &["audit_"]),
    ("src", &["cli_"]),
];

/// Crates importable without a shim: std + the workspace's offline shims.
const ALLOWED_IMPORT_ROOTS: [&str; 12] = [
    "std",
    "core",
    "alloc",
    "proc_macro", // rustc-provided, used by the serde_derive shim
    "crate",
    "self",
    "super",
    "rand",
    "rand_chacha",
    "serde",
    "serde_derive",
    "proptest",
];

/// Runs every rule over an analyzed file; returns raw findings (waivers not
/// yet applied — the caller matches them against `ctx.waivers`).
pub fn check_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_fa000(ctx, &mut out);
    rule_fa001(ctx, &mut out);
    rule_fa002(ctx, &mut out);
    rule_fa003(ctx, &mut out);
    rule_fa004(ctx, &mut out);
    rule_fa005(ctx, &mut out);
    rule_fa006(ctx, &mut out);
    // One finding per (rule, line): repeated hits on a line collapse.
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

fn push(out: &mut Vec<Finding>, ctx: &FileCtx, id: &'static str, line: u32, col: u32, msg: String) {
    out.push(Finding {
        rule: id,
        path: ctx.rel_path.clone(),
        line,
        col,
        message: msg,
        waived: false,
        waiver_reason: None,
    });
}

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// FA000 — malformed waivers are violations wherever they appear.
fn rule_fa000(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for m in &ctx.malformed_waivers {
        push(out, ctx, "FA000", m.line, 1, m.problem.clone());
    }
    for w in &ctx.waivers {
        if rule(&w.rule).is_none() {
            push(
                out,
                ctx,
                "FA000",
                w.line,
                1,
                format!("waiver names unknown rule `{}`", w.rule),
            );
        }
    }
}

/// FA001 — no `==`/`!=` against float literals in the LP/STA solver paths.
fn rule_fa001(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !starts_with_any(&ctx.rel_path, &["crates/lp/src", "crates/sta/src"])
        || ctx.rel_path == "crates/lp/src/approx.rs"
    {
        return;
    }
    for k in 0..ctx.meaningful.len() {
        let Some(t) = ctx.mt(k) else { continue };
        if t.kind != TokenKind::Op || (t.text != "==" && t.text != "!=") || ctx.is_test(k) {
            continue;
        }
        let prev_float = k > 0 && ctx.mt(k - 1).map(|p| p.kind) == Some(TokenKind::Float);
        let next_float = ctx.mt(k + 1).map(|n| n.kind) == Some(TokenKind::Float);
        if prev_float || next_float {
            push(
                out,
                ctx,
                "FA001",
                t.line,
                t.col,
                format!("float literal compared with `{}`", t.text),
            );
        }
    }
}

/// FA002 — no `.unwrap()` / `.expect("")` in non-test library code.
fn rule_fa002(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Library || ctx.rel_path.starts_with("crates/bench") {
        return;
    }
    for k in 1..ctx.meaningful.len() {
        let (Some(prev), Some(t)) = (ctx.mt(k - 1), ctx.mt(k)) else { continue };
        if prev.text != "." || t.kind != TokenKind::Ident || ctx.is_test(k) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" => {
                let open = ctx.mt(k + 1).map(|x| x.text == "(") == Some(true);
                let close = ctx.mt(k + 2).map(|x| x.text == ")") == Some(true);
                if open && close {
                    push(out, ctx, "FA002", t.line, t.col, "`.unwrap()` in library code".into());
                }
            }
            "expect" => {
                let open = ctx.mt(k + 1).map(|x| x.text == "(") == Some(true);
                let empty = ctx.mt(k + 2).map(|x| x.str_content() == Some("")) == Some(true);
                if open && empty {
                    push(
                        out,
                        ctx,
                        "FA002",
                        t.line,
                        t.col,
                        "`.expect(\"\")` carries no reason".into(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// FA003 — determinism: no wall-clock reads in solver layers.
fn rule_fa003(ctx: &FileCtx, out: &mut Vec<Finding>) {
    // `crates/serve/src` is in scope because a daemon is exactly where an
    // ambient clock read would sneak back in: every per-request deadline
    // must run through `lp::deadline::Stopwatch`, never a process-global
    // or hand-rolled `Instant::now()`.
    let scope = [
        "crates/lp/src",
        "crates/sta/src",
        "crates/core/src",
        "crates/variation/src",
        "crates/serve/src",
    ];
    if !starts_with_any(&ctx.rel_path, &scope) || ctx.rel_path == "crates/lp/src/deadline.rs" {
        return;
    }
    for k in 0..ctx.meaningful.len() {
        let Some(t) = ctx.mt(k) else { continue };
        if t.kind != TokenKind::Ident || ctx.is_test(k) {
            continue;
        }
        let hit = match t.text.as_str() {
            "SystemTime" => Some("SystemTime"),
            "Instant" => {
                let path_now = ctx.mt(k + 1).map(|x| x.text == "::") == Some(true)
                    && ctx.mt(k + 2).map(|x| x.text == "now") == Some(true);
                path_now.then_some("Instant::now")
            }
            "elapsed" => {
                let method = k > 0
                    && ctx.mt(k - 1).map(|x| x.text == ".") == Some(true)
                    && ctx.mt(k + 1).map(|x| x.text == "(") == Some(true);
                method.then_some(".elapsed()")
            }
            _ => None,
        };
        if let Some(what) = hit {
            push(
                out,
                ctx,
                "FA003",
                t.line,
                t.col,
                format!("wall-clock read (`{what}`) in a deterministic solver path"),
            );
        }
    }
}

/// FA004 — telemetry counter/stat/span naming conventions.
fn rule_fa004(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let crate_prefixes: Option<&[&str]> = TELEMETRY_PREFIXES
        .iter()
        .find(|(root, _)| {
            ctx.rel_path.starts_with(&format!("{root}/")) || ctx.rel_path == *root
        })
        .map(|(_, p)| *p);
    for k in 2..ctx.meaningful.len() {
        let Some(t) = ctx.mt(k) else { continue };
        if t.kind != TokenKind::Ident
            || !matches!(t.text.as_str(), "counter" | "record" | "span" | "time")
            || ctx.is_test(k)
        {
            continue;
        }
        let qualified = ctx.mt(k - 1).map(|x| x.text == "::") == Some(true)
            && ctx
                .mt(k - 2)
                .map(|x| x.text == "fbb_telemetry" || x.text == "telemetry")
                == Some(true);
        if !qualified || ctx.mt(k + 1).map(|x| x.text == "(") != Some(true) {
            continue;
        }
        let Some(name_tok) = ctx.mt(k + 2) else { continue };
        let Some(name) = name_tok.str_content() else { continue };
        let snake = !name.is_empty()
            && name.chars().next().map(|c| c.is_ascii_lowercase()).unwrap_or(false)
            && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !snake {
            push(
                out,
                ctx,
                "FA004",
                name_tok.line,
                name_tok.col,
                format!("telemetry name `{name}` is not lower_snake_case"),
            );
            continue;
        }
        if let Some(prefixes) = crate_prefixes {
            if !prefixes.iter().any(|p| name.starts_with(p)) {
                push(
                    out,
                    ctx,
                    "FA004",
                    name_tok.line,
                    name_tok.col,
                    format!(
                        "telemetry name `{name}` misses this layer's prefix ({})",
                        prefixes.join(", ")
                    ),
                );
            }
        }
    }
}

/// FA005 — fault hooks stay behind the `fault-inject` feature.
fn rule_fa005(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.rel_path == "crates/lp/src/fault.rs" || ctx.declares_fault_inject {
        // fault.rs *is* the hook module (compiled only under the feature);
        // crates that enable the feature in Cargo.toml may reference hooks
        // unconditionally.
        return;
    }
    let in_lp = ctx.rel_path.starts_with("crates/lp/src");
    for k in 0..ctx.meaningful.len() {
        let Some(t) = ctx.mt(k) else { continue };
        if t.kind != TokenKind::Ident || ctx.is_fault_gated(k) || ctx.is_test(k) {
            continue;
        }
        let hook_ident =
            matches!(t.text.as_str(), "with_flipped_pivot_sign" | "with_iteration_limit");
        let fault_path = t.text == "fault"
            && k >= 2
            && ctx.mt(k - 1).map(|x| x.text == "::") == Some(true)
            && ctx
                .mt(k - 2)
                .map(|x| {
                    let seg = x.text.as_str();
                    seg == "lp" || seg == "fbb_lp" || (in_lp && seg == "crate")
                })
                == Some(true);
        if hook_ident || fault_path {
            push(
                out,
                ctx,
                "FA005",
                t.line,
                t.col,
                format!("`{}` referenced outside a fault-inject gate", t.text),
            );
        }
    }
}

/// FA006 — only shimmed/workspace crates may be imported.
fn rule_fa006(ctx: &FileCtx, out: &mut Vec<Finding>) {
    // Uniform paths: `use` may start with a module declared in this file
    // (`pub use bnb::…` in a crate root), so those names are allowed roots.
    let mut local_mods: Vec<&str> = Vec::new();
    for k in 0..ctx.meaningful.len() {
        if ctx.mt(k).map(|t| t.kind == TokenKind::Ident && t.text == "mod") == Some(true) {
            if let Some(name) = ctx.mt(k + 1) {
                if name.kind == TokenKind::Ident {
                    local_mods.push(name.text.as_str());
                }
            }
        }
    }
    for k in 0..ctx.meaningful.len() {
        let Some(t) = ctx.mt(k) else { continue };
        if t.kind != TokenKind::Ident || t.text != "use" {
            continue;
        }
        // Statement position: start of file or after `;`, `}`, `{`, an
        // attribute `]`, or visibility (`pub`, `pub(crate)`).
        let stmt = k == 0
            || ctx
                .mt(k - 1)
                .map(|p| matches!(p.text.as_str(), ";" | "}" | "{" | "]" | "pub" | ")"))
                == Some(true);
        if !stmt {
            continue;
        }
        let mut s = k + 1;
        if ctx.mt(s).map(|x| x.text == "::") == Some(true) {
            s += 1;
        }
        let Some(seg) = ctx.mt(s) else { continue };
        if seg.kind != TokenKind::Ident {
            continue; // `use {..}` grouping or macro-generated oddity
        }
        let root = seg.text.as_str();
        let allowed = ALLOWED_IMPORT_ROOTS.contains(&root)
            || root.starts_with("fbb")
            || local_mods.contains(&root);
        if !allowed {
            push(
                out,
                ctx,
                "FA006",
                seg.line,
                seg.col,
                format!("import of non-shimmed external crate `{root}`"),
            );
        }
    }
}
