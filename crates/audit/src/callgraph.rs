//! Workspace call graph over the parsed `fn` items, with the FA007
//! panic-reachability fixpoint.
//!
//! Resolution is heuristic (and documented as such in DESIGN.md §5l):
//!
//! * **Method calls** resolve by bare name against every workspace `impl`
//!   or `trait` method (never a free function of the same name) — except
//!   names on [`crate::parse::STD_METHODS`], which are treated as std
//!   calls (the under-approximation that keeps `.get(` from wiring edges
//!   into every map in the tree).
//! * **Qualified calls** (`codec::decode_meta(…)`, `Self::helper(…)`)
//!   match when the last qualifier names the callee's impl owner, its
//!   module, or its crate; `Self`/`crate`/`self` resolve against the
//!   caller's own owner/crate first.
//! * **Bare calls** resolve within the caller's file first, then its
//!   crate — imported cross-crate free functions are intentionally not
//!   chased by bare name (over-linking would drown FA007 in false chains).
//!
//! Test-gated functions neither emit edges nor count as panic sources.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{FnInfo, ParsedFile, STD_METHODS};

/// Primitive and ubiquitous std qualifiers: a call qualified by one of
/// these (`u32::try_from`, `String::from_utf8`, …) is a std call, never a
/// workspace edge.
const STD_QUALIFIERS: [&str; 28] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64", "bool", "char", "str", "String", "Vec", "VecDeque", "Box", "Arc", "Rc",
    "Option", "Result", "Ordering", "Duration", "Instant",
];

/// One function's place in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// The parsed item (sites included).
    pub info: FnInfo,
    /// Indices of functions this one calls (resolved edges only).
    pub callees: Vec<usize>,
}

/// A panic source inside one function.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// Owning function index.
    pub fn_idx: usize,
    /// 1-based line / column of the site.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human description (`\`.unwrap()\``, `\`panic!\``, `\`buf[…]\``).
    pub what: String,
}

/// The assembled graph plus resolution statistics.
#[derive(Debug)]
pub struct CallGraph {
    /// All non-test functions, indexable by the edge lists.
    pub fns: Vec<FnNode>,
    /// Total resolved edges.
    pub edge_count: u64,
}

impl CallGraph {
    /// Builds the graph from per-file parse results.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        for file in files {
            for info in &file.fns {
                if info.is_test {
                    continue;
                }
                fns.push(FnNode { info: info.clone(), callees: Vec::new() });
            }
        }
        // name → candidate indices.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, node) in fns.iter().enumerate() {
            by_name.entry(node.info.name.as_str()).or_default().push(i);
        }

        let mut edge_count = 0u64;
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for i in 0..fns.len() {
            let caller = &fns[i];
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            for call in &caller.info.calls {
                resolve(&fns, &by_name, i, call, &mut callees);
            }
            callees.remove(&i);
            edge_count += callees.len() as u64;
            edges[i] = callees.into_iter().collect();
        }
        for (node, e) in fns.iter_mut().zip(edges) {
            node.callees = e;
        }
        CallGraph { fns, edge_count }
    }

    /// Resolves a manifest entry name (suffix of a qualified path, e.g.
    /// `DesignDb::decode_verified`) to function indices.
    pub fn resolve_entry(&self, entry: &str) -> Vec<usize> {
        let want: Vec<&str> = entry.split("::").filter(|s| !s.is_empty()).collect();
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, node)| {
                let segs = &node.info.segments;
                segs.len() >= want.len()
                    && segs[segs.len() - want.len()..].iter().map(String::as_str).eq(want
                        .iter()
                        .copied())
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Breadth-first reachability from `roots`; returns, for each reached
    /// function, the root it was reached from and the call chain
    /// (function indices from root to the function, inclusive).
    pub fn reachable_from(&self, roots: &[usize]) -> BTreeMap<usize, Vec<usize>> {
        let mut chain: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = chain.entry(r) {
                e.insert(vec![r]);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            let prefix = chain.get(&i).cloned().unwrap_or_default();
            for &j in &self.fns[i].callees {
                if let std::collections::btree_map::Entry::Vacant(e) = chain.entry(j) {
                    let mut c = prefix.clone();
                    c.push(j);
                    e.insert(c);
                    queue.push_back(j);
                }
            }
        }
        chain
    }

    /// All panic sources in one function, with slice-index sites included
    /// only when `index_in_scope` says the function's file is a decode path.
    pub fn panic_sources(&self, fn_idx: usize, index_in_scope: bool) -> Vec<PanicSource> {
        let info = &self.fns[fn_idx].info;
        let mut out = Vec::new();
        for s in info.panic_macros.iter().chain(&info.unwraps) {
            out.push(PanicSource { fn_idx, line: s.line, col: s.col, what: s.what.clone() });
        }
        if index_in_scope {
            for s in &info.indexes {
                out.push(PanicSource { fn_idx, line: s.line, col: s.col, what: s.what.clone() });
            }
        }
        out
    }
}

fn resolve(
    fns: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    call: &crate::parse::CallSite,
    out: &mut BTreeSet<usize>,
) {
    let Some(candidates) = by_name.get(call.name.as_str()) else { return };
    let caller_info = &fns[caller].info;
    let caller_crate = caller_info.segments.first().map(String::as_str).unwrap_or("");

    if call.method {
        if STD_METHODS.contains(&call.name.as_str()) {
            return;
        }
        // A method call can only land on an `impl` or `trait` method, never
        // on a free function that happens to share the name.
        out.extend(candidates.iter().filter(|&&i| fns[i].info.method));
        return;
    }

    match call.qual.last().map(String::as_str) {
        None => {
            // Bare call: same file, else same crate.
            let same_file: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| fns[i].info.rel_path == caller_info.rel_path)
                .collect();
            if !same_file.is_empty() {
                out.extend(same_file);
                return;
            }
            out.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].info.segments.first().map(String::as_str)
                        == Some(caller_crate)),
            );
        }
        Some("Self") => {
            // Same impl owner as the caller.
            let owner = caller_info.segments.iter().rev().nth(1).cloned();
            out.extend(candidates.iter().copied().filter(|&i| {
                fns[i].info.segments.iter().rev().nth(1) == owner.as_ref()
            }));
        }
        Some("crate") | Some("self") | Some("super") => {
            out.extend(candidates.iter().copied().filter(|&i| {
                fns[i].info.segments.first().map(String::as_str) == Some(caller_crate)
            }));
        }
        Some(q) => {
            if STD_QUALIFIERS.contains(&q) {
                return;
            }
            // Owner, module segment, or crate ident (with `-`→`_` applied
            // by the parser) — anywhere in the callee's qualified path.
            out.extend(candidates.iter().copied().filter(|&i| {
                let segs = &fns[i].info.segments;
                segs.len() >= 2 && segs[..segs.len() - 1].iter().any(|s| s == q)
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileClass, FileCtx};
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(path, crate_ident, src)| {
                let ctx = FileCtx::analyze(path, FileClass::Library, false, src);
                parse_file(&ctx, crate_ident)
            })
            .collect();
        CallGraph::build(&parsed)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|n| n.info.name == name).expect("fn present")
    }

    #[test]
    fn qualified_and_bare_calls_link() {
        let g = graph(&[
            (
                "crates/db/src/design.rs",
                "fbb_db",
                "pub fn decode(b: &[u8]) { codec::decode_meta(b); local(b); }\nfn local(_: &[u8]) {}",
            ),
            ("crates/db/src/codec.rs", "fbb_db", "pub fn decode_meta(_: &[u8]) {}"),
        ]);
        let d = idx(&g, "decode");
        assert_eq!(g.fns[d].callees.len(), 2, "{:?}", g.fns[d].callees);
        assert!(g.edge_count >= 2);
    }

    #[test]
    fn std_methods_and_std_qualifiers_do_not_link() {
        let g = graph(&[
            (
                "crates/db/src/a.rs",
                "fbb_db",
                "pub fn f(v: &[u8]) { v.get(0); u32::try_from(1u64); }\n",
            ),
            ("crates/db/src/b.rs", "fbb_db", "impl M { pub fn get(&self) {} fn try_from() {} }"),
        ]);
        let f = idx(&g, "f");
        assert!(g.fns[f].callees.is_empty());
    }

    #[test]
    fn method_calls_link_to_workspace_impls() {
        let g = graph(&[
            ("crates/db/src/a.rs", "fbb_db", "pub fn f(p: &P) { p.validate(); }"),
            (
                "crates/netlist/src/lib.rs",
                "fbb_netlist",
                "impl Netlist { pub fn validate(&self) {} }",
            ),
        ]);
        let f = idx(&g, "f");
        let v = idx(&g, "validate");
        assert_eq!(g.fns[f].callees, vec![v]);
    }

    #[test]
    fn method_calls_skip_free_functions_of_the_same_name() {
        let g = graph(&[
            ("crates/db/src/codec.rs", "fbb_db", "pub fn f(l: &L) { l.characterize(); }"),
            ("crates/bench/src/designs.rs", "fbb_bench", "fn characterize() { panic!(\"x\"); }"),
            (
                "crates/device/src/library.rs",
                "fbb_device",
                "impl Library { pub fn characterize(&self) {} }\n\
                 trait Characterize { fn characterize(&self) {} }",
            ),
        ]);
        let f = idx(&g, "f");
        let targets: Vec<&str> =
            g.fns[f].callees.iter().map(|&i| g.fns[i].info.rel_path.as_str()).collect();
        assert_eq!(targets, vec!["crates/device/src/library.rs"; 2]);
    }

    #[test]
    fn entry_resolution_is_suffix_based_and_reachability_chains() {
        let g = graph(&[(
            "crates/serve/src/protocol.rs",
            "fbb_serve",
            "pub fn read_frame(b: &[u8]) { helper(b); }\nfn helper(b: &[u8]) { deep(b); }\n\
             fn deep(_: &[u8]) { panic!(\"x\"); }\nfn unrelated() { panic!(\"y\"); }",
        )]);
        let roots = g.resolve_entry("fbb_serve::protocol::read_frame");
        assert_eq!(roots.len(), 1);
        let reach = g.reachable_from(&roots);
        assert_eq!(reach.len(), 3, "unrelated must stay unreachable");
        let deep = idx(&g, "deep");
        assert_eq!(reach[&deep].len(), 3);
        assert_eq!(g.panic_sources(deep, false).len(), 1);
    }
}
