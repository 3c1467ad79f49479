//! Token-tree/item parser: the layer between the lexer and the deep rules.
//!
//! This is not a Rust grammar — it is a total, never-panicking structural
//! pass that recovers exactly what the deep rules need from the token
//! stream: `fn` items with their crate/module/impl-qualified names, the
//! call / method-call / macro / index / cast sites inside each body, and
//! enough block structure to know whether a `Condvar::wait` sits inside a
//! predicate loop or a lock guard is still live at a blocking call.
//!
//! Everything here is heuristic by design (see DESIGN.md §5l for the
//! soundness caveats); on arbitrary garbage input it degrades to finding
//! fewer items, never to a panic — `tests/proptest_parse.rs` pins that.

use crate::context::FileCtx;
use crate::lexer::TokenKind;

/// A source location (1-based), plus a short description of what sits there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What the site is (`\`.unwrap()\``, `\`panic!\``, the indexed
    /// expression head, the cast target, …).
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (last path segment, or the method name).
    pub name: String,
    /// Path qualifiers before the name (`codec::decode_meta(` → `["codec"]`);
    /// empty for bare calls and method calls.
    pub qual: Vec<String>,
    /// Whether this is a `.name(...)` method call.
    pub method: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// An `expr as TYPE` cast site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastSite {
    /// The target type's head identifier (`usize`, `u8`, …).
    pub target: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A `.wait(` / `.wait_timeout(` call with its loop context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitSite {
    /// `wait` or `wait_timeout`.
    pub what: String,
    /// Number of `while`/`loop`/`for` blocks enclosing the call *within the
    /// current function*. Zero means no predicate loop guards the wait.
    pub loop_depth: u32,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Simple name.
    pub name: String,
    /// Full segment path: `[crate_ident, file modules…, inline mods…,
    /// impl owner?, name]`.
    pub segments: Vec<String>,
    /// Workspace-relative path of the defining file.
    pub rel_path: String,
    /// Whether the item sits in an `impl` or `trait` block — the only
    /// items method-call syntax can reach.
    pub method: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the item is test-gated (or the file is test-like).
    pub is_test: bool,
    /// Calls made from the body (test-gated sites excluded).
    pub calls: Vec<CallSite>,
    /// Panic-macro invocations (`panic!`, `assert!`, …) in the body.
    pub panic_macros: Vec<Site>,
    /// `.unwrap()` / `.expect(` sites in the body.
    pub unwraps: Vec<Site>,
    /// Postfix `expr[…]` index sites in the body.
    pub indexes: Vec<Site>,
    /// `as TYPE` cast sites in the body.
    pub casts: Vec<CastSite>,
    /// Condvar-style `.wait(` sites with loop context.
    pub waits: Vec<WaitSite>,
    /// Blocking calls made while a lock guard bound in the same block is
    /// live and not mentioned by the call — the FA010 hold-across-block
    /// pattern. `what` names the blocking call and the guard.
    pub guard_blocking: Vec<Site>,
}

impl FnInfo {
    /// `crate::mod::Owner::name` rendering of [`FnInfo::segments`].
    pub fn qualified(&self) -> String {
        self.segments.join("::")
    }
}

/// Parse result for one file: the `fn` items and file-level constants.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnInfo>,
    /// `const NAME … = <int expr>;` items whose initializer evaluates to an
    /// integer (used by the FA011 spec-drift check). `(name, value, line)`.
    pub consts: Vec<(String, u64, u32)>,
}

/// Macros whose invocation is a panic source for FA007. `debug_assert*` is
/// deliberately absent: it vanishes in release builds.
pub const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Method names never resolved against workspace impls: they are
/// overwhelmingly std methods, and resolving e.g. `.get(` or `.lock(` by
/// bare name would wire false edges into every map and mutex in the tree.
/// This is the documented under-approximation of the call graph.
pub const STD_METHODS: [&str; 104] = [
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "bytes", "chain", "chars", "checked_add", "checked_mul", "checked_sub", "chunks", "clone",
    "cloned", "collect", "compare_exchange", "contains", "contains_key", "copied", "count",
    "dedup", "drain", "end", "ends_with", "entry", "enumerate", "eq", "extend", "fetch_add",
    "filter", "filter_map", "find", "first", "flat_map", "flatten", "fold", "from_bits", "get",
    "get_mut", "insert", "into", "into_iter", "is_empty", "is_finite", "is_nan", "iter",
    "iter_mut", "join", "keys", "last", "len", "lines", "load", "lock", "map", "map_err", "max",
    "min", "next", "notify_all", "notify_one", "ok", "ok_or", "ok_or_else", "or_default",
    "or_insert", "parse", "pop", "position", "push", "read", "recv", "retain", "rev", "send",
    "saturating_mul", "skip", "sort", "sort_by", "sort_unstable", "split", "starts_with",
    "start", "store", "strip_prefix", "sum", "take", "to_bits", "to_le_bytes", "to_owned",
    "to_string", "to_vec", "trim", "try_into", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "windows", "write", "zip",
];

/// Cast targets FA008 treats as narrowing. `u64`/`i64`/`u128`/`f64` are
/// absent: every integer this codebase casts *up* lands there.
pub const NARROW_CAST_TARGETS: [&str; 9] =
    ["u8", "u16", "u32", "i8", "i16", "i32", "isize", "usize", "f32"];

/// Method names treated as blocking for the guard-held-across-blocking-call
/// check, plus the free functions `read_frame`/`write_frame`.
const BLOCKING_METHODS: [&str; 12] = [
    "accept", "flush", "join", "read", "read_exact", "read_to_end", "recv", "send", "sleep",
    "wait", "wait_timeout", "write_all",
];
const BLOCKING_FREE_FNS: [&str; 2] = ["read_frame", "write_frame"];

/// What the next `{` at matching nesting belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pending {
    Fn(usize),
    Loop,
    Mod(String),
    Impl(Option<String>),
}

#[derive(Debug)]
struct Block {
    kind: BlockKind,
    /// Lock-guard variables bound directly in this block (name only).
    guards: Vec<String>,
}

#[derive(Debug, PartialEq, Eq)]
enum BlockKind {
    Fn(usize),
    Loop,
    Mod,
    Impl,
    Other,
}

/// Parses one analyzed file into items and sites. `crate_ident` is the
/// owning crate's package name with `-` mapped to `_` (`fbb-serve` →
/// `fbb_serve`); it becomes the first segment of every qualified name.
pub fn parse_file(ctx: &FileCtx, crate_ident: &str) -> ParsedFile {
    let mut out = ParsedFile::default();
    let file_mods = file_module_path(&ctx.rel_path);

    let mut blocks: Vec<Block> = Vec::new();
    let mut mod_stack: Vec<String> = Vec::new();
    let mut impl_stack: Vec<Option<String>> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    // Pending block kind, armed by a keyword and attached to the next `{`
    // seen at the paren/bracket nesting recorded when it was armed.
    let mut pending: Option<(Pending, i32)> = None;
    let mut paren_depth: i32 = 0;
    let mut in_use = false;

    let n = ctx.meaningful.len();
    let mut k = 0usize;
    while k < n {
        let Some(t) = ctx.mt(k) else { break };
        let text = t.text.as_str();
        let is_ident = t.kind == TokenKind::Ident;

        if in_use {
            if text == ";" {
                in_use = false;
            }
            k += 1;
            continue;
        }

        match (is_ident, text) {
            (true, "use") if stmt_position(ctx, k) => {
                in_use = true;
                k += 1;
                continue;
            }
            (true, "fn") => {
                // `fn(` is a pointer type, not an item.
                if let Some(name_tok) = ctx.mt(k + 1) {
                    if name_tok.kind == TokenKind::Ident {
                        let mut segments = vec![crate_ident.to_owned()];
                        segments.extend(file_mods.iter().cloned());
                        segments.extend(mod_stack.iter().cloned());
                        if let Some(Some(owner)) = impl_stack.last() {
                            segments.push(owner.clone());
                        }
                        segments.push(name_tok.text.clone());
                        let idx = out.fns.len();
                        out.fns.push(FnInfo {
                            name: name_tok.text.clone(),
                            segments,
                            rel_path: ctx.rel_path.clone(),
                            method: !impl_stack.is_empty(),
                            line: t.line,
                            is_test: ctx.is_test(k),
                            calls: Vec::new(),
                            panic_macros: Vec::new(),
                            unwraps: Vec::new(),
                            indexes: Vec::new(),
                            casts: Vec::new(),
                            waits: Vec::new(),
                            guard_blocking: Vec::new(),
                        });
                        pending = Some((Pending::Fn(idx), paren_depth));
                        k += 2;
                        continue;
                    }
                }
            }
            (true, "while") | (true, "loop") => {
                pending = Some((Pending::Loop, paren_depth));
            }
            // `impl Trait for Type` must not arm a loop.
            (true, "for") if !matches!(pending, Some((Pending::Impl(_), _))) => {
                pending = Some((Pending::Loop, paren_depth));
            }
            (true, "mod") => {
                if let Some(name_tok) = ctx.mt(k + 1) {
                    if name_tok.kind == TokenKind::Ident {
                        pending = Some((Pending::Mod(name_tok.text.clone()), paren_depth));
                        k += 2;
                        continue;
                    }
                }
            }
            (true, "impl") => {
                let owner = impl_owner(ctx, k + 1);
                pending = Some((Pending::Impl(owner), paren_depth));
            }
            // A trait body holds methods but names no owner type.
            (true, "trait") => pending = Some((Pending::Impl(None), paren_depth)),
            (true, "let") if fn_stack.last().is_some() && !ctx.is_test(k) => {
                if let Some(name) = guard_binding(ctx, k) {
                    if let Some(block) = blocks.last_mut() {
                        block.guards.push(name);
                    }
                }
            }
            (true, "const") if !ctx.is_test(k) => {
                if let Some((name, value, line)) = const_item(ctx, k) {
                    out.consts.push((name, value, line));
                }
            }
            (false, "(") | (false, "[") => paren_depth += 1,
            (false, ")") | (false, "]") => paren_depth -= 1,
            (false, "{") => {
                let kind = match pending.take() {
                    Some((p, d)) if d == paren_depth => match p {
                        Pending::Fn(idx) => {
                            fn_stack.push(idx);
                            BlockKind::Fn(idx)
                        }
                        Pending::Loop => BlockKind::Loop,
                        Pending::Mod(name) => {
                            mod_stack.push(name);
                            BlockKind::Mod
                        }
                        Pending::Impl(owner) => {
                            impl_stack.push(owner);
                            BlockKind::Impl
                        }
                    },
                    other => {
                        pending = other; // keep arming across struct-literal braces
                        BlockKind::Other
                    }
                };
                blocks.push(Block { kind, guards: Vec::new() });
            }
            (false, "}") => {
                if let Some(block) = blocks.pop() {
                    match block.kind {
                        BlockKind::Fn(_) => {
                            fn_stack.pop();
                        }
                        BlockKind::Mod => {
                            mod_stack.pop();
                        }
                        BlockKind::Impl => {
                            impl_stack.pop();
                        }
                        BlockKind::Loop | BlockKind::Other => {}
                    }
                }
            }
            (false, ";") => {
                // A braceless `fn` declaration (trait method, extern) never
                // gets a body: disarm a stale pending fn.
                if let Some((Pending::Fn(_), d)) = &pending {
                    if *d == paren_depth {
                        pending = None;
                    }
                }
            }
            _ => {}
        }

        // Expression-level sites only matter inside a function body.
        if let Some(&fn_idx) = fn_stack.last() {
            if !ctx.is_test(k) {
                scan_expression_site(ctx, k, fn_idx, &mut out, &blocks);
            }
        }
        k += 1;
    }
    out
}

/// True when `use` at meaningful-index `k` is in statement position.
fn stmt_position(ctx: &FileCtx, k: usize) -> bool {
    k == 0
        || ctx
            .mt(k - 1)
            .map(|p| matches!(p.text.as_str(), ";" | "}" | "{" | "]" | "pub" | ")"))
            == Some(true)
}

/// Module path implied by the file's location: `src/foo.rs` → `["foo"]`,
/// `src/foo/mod.rs` → `["foo"]`, `src/lib.rs`/`src/main.rs` → `[]`.
fn file_module_path(rel_path: &str) -> Vec<String> {
    let after_src = rel_path.rsplit_once("src/").map(|(_, p)| p).unwrap_or(rel_path);
    let mut mods: Vec<String> = after_src
        .trim_end_matches(".rs")
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if matches!(mods.last().map(String::as_str), Some("lib") | Some("main") | Some("mod")) {
        mods.pop();
    }
    mods
}

/// The owning type of an `impl` header starting after the `impl` keyword:
/// the first path's last identifier after `for` when present, otherwise
/// after the impl generics.
fn impl_owner(ctx: &FileCtx, start: usize) -> Option<String> {
    let mut angle: i32 = 0;
    let mut k = start;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while let Some(t) = ctx.mt(k) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "{") | (TokenKind::Op, ";") => break,
            (TokenKind::Op, "<") => angle += 1,
            (TokenKind::Op, ">") => angle -= 1,
            (TokenKind::Op, ">>") => angle -= 2,
            (TokenKind::Ident, "for") if angle == 0 => saw_for = true,
            (TokenKind::Ident, "where") if angle == 0 => break,
            (TokenKind::Ident, name) if angle == 0 => {
                // Track the *last* segment of each path: `codec::Decoder`.
                let slot = if saw_for { &mut after_for } else { &mut first };
                let continues_path = ctx.mt(k + 1).map(|x| x.text == "::") == Some(true);
                if slot.is_none() || !continues_path {
                    *slot = Some(name.to_owned());
                }
                if continues_path {
                    *slot = None; // keep looking for the final segment
                }
            }
            _ => {}
        }
        k += 1;
    }
    after_for.or(first)
}

/// Detects `let [mut] NAME = … .lock( … ;` — a mutex-guard binding. Returns
/// the bound name.
fn guard_binding(ctx: &FileCtx, let_k: usize) -> Option<String> {
    let mut k = let_k + 1;
    if ctx.mt(k).map(|t| t.text == "mut") == Some(true) {
        k += 1;
    }
    let name_tok = ctx.mt(k)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    if ctx.mt(k + 1).map(|t| t.text == "=") != Some(true) {
        return None;
    }
    // Scan the initializer to the statement end for a `.lock(` call.
    let mut depth = 0i32;
    let mut j = k + 2;
    let mut locks = false;
    while let Some(t) = ctx.mt(j) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => break,
            "lock" if t.kind == TokenKind::Ident => {
                let dotted = j > 0 && ctx.mt(j - 1).map(|p| p.text == ".") == Some(true);
                let called = ctx.mt(j + 1).map(|x| x.text == "(") == Some(true);
                if dotted && called {
                    locks = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    locks.then(|| name_tok.text.clone())
}

/// Parses `const NAME: TYPE = <int expr>;` at the `const` keyword. Only
/// initializers that evaluate as integer literal arithmetic participate.
fn const_item(ctx: &FileCtx, const_k: usize) -> Option<(String, u64, u32)> {
    let name_tok = ctx.mt(const_k + 1)?;
    if name_tok.kind != TokenKind::Ident || name_tok.text == "fn" {
        return None;
    }
    // Find the `=` at nesting depth 0 before the terminating `;`.
    let mut k = const_k + 2;
    let mut depth = 0i32;
    loop {
        let t = ctx.mt(k)?;
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "=" if depth == 0 => break,
            ";" => return None,
            _ => {}
        }
        k += 1;
    }
    let expr_start = k + 1;
    let mut end = expr_start;
    let mut depth = 0i32;
    while let Some(t) = ctx.mt(end) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    let value = eval_int_expr(ctx, expr_start, end)?;
    Some((name_tok.text.clone(), value, name_tok.line))
}

/// Evaluates `+`/`*` arithmetic over integer literals (with parentheses) in
/// the meaningful-token range `[start, end)`. Returns `None` on anything
/// else — unevaluable constants are simply not checked.
fn eval_int_expr(ctx: &FileCtx, start: usize, end: usize) -> Option<u64> {
    let mut terms: Vec<u64> = Vec::new(); // sum of products
    let mut product: Option<u64> = None;
    let mut k = start;
    while k < end {
        let t = ctx.mt(k)?;
        match (t.kind, t.text.as_str()) {
            (TokenKind::Int, _) => {
                let v = parse_int_literal(&t.text)?;
                product = Some(match product {
                    None => v,
                    Some(p) => p.checked_mul(v)?,
                });
                // A multiplication must follow `*`; two adjacent ints are
                // not an expression we understand.
                match ctx.mt(k + 1).map(|x| x.text.clone()) {
                    Some(op) if k + 1 < end && op == "*" => k += 1,
                    Some(op) if k + 1 < end && op == "+" => {
                        terms.push(product.take()?);
                        k += 1;
                    }
                    _ if k + 1 >= end => {}
                    _ => return None,
                }
            }
            (TokenKind::Op, "(") => {
                // Find the matching `)` and recurse.
                let mut depth = 0i32;
                let mut close = k;
                while close < end {
                    match ctx.mt(close)?.text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    close += 1;
                }
                let v = eval_int_expr(ctx, k + 1, close)?;
                product = Some(match product {
                    None => v,
                    Some(p) => p.checked_mul(v)?,
                });
                k = close;
                match ctx.mt(k + 1).map(|x| x.text.clone()) {
                    Some(op) if k + 1 < end && op == "*" => k += 1,
                    Some(op) if k + 1 < end && op == "+" => {
                        terms.push(product.take()?);
                        k += 1;
                    }
                    _ if k + 1 >= end => {}
                    _ => return None,
                }
            }
            _ => return None,
        }
        k += 1;
    }
    if let Some(p) = product {
        terms.push(p);
    }
    if terms.is_empty() {
        return None;
    }
    terms.into_iter().try_fold(0u64, u64::checked_add)
}

/// Parses an integer literal token (`164`, `0x1B3`, `16_384`, `1u8`).
pub fn parse_int_literal(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(char::is_ascii_hexdigit).collect();
        // Reject a bare `0x` and anything whose tail is not a type suffix.
        if digits.is_empty() {
            return None;
        }
        return u64::from_str_radix(&digits, 16).ok();
    }
    let digits: String = clean.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Records any call/macro/index/cast/wait site anchored at meaningful-index
/// `k` into the current function.
fn scan_expression_site(
    ctx: &FileCtx,
    k: usize,
    fn_idx: usize,
    out: &mut ParsedFile,
    blocks: &[Block],
) {
    let Some(t) = ctx.mt(k) else { return };
    let Some(f) = out.fns.get_mut(fn_idx) else { return };

    if t.kind == TokenKind::Ident {
        let next_open = ctx.mt(k + 1).map(|x| x.text == "(") == Some(true);
        let next_bang = ctx.mt(k + 1).map(|x| x.text == "!") == Some(true);
        let prev_dot = k > 0 && ctx.mt(k - 1).map(|x| x.text == ".") == Some(true);
        let prev_fn = k > 0 && ctx.mt(k - 1).map(|x| x.text == "fn") == Some(true);

        if next_bang && PANIC_MACROS.contains(&t.text.as_str()) {
            let invoked = ctx
                .mt(k + 2)
                .map(|x| matches!(x.text.as_str(), "(" | "[" | "{"))
                == Some(true);
            if invoked {
                f.panic_macros.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("`{}!`", t.text),
                });
            }
            return;
        }

        if next_open && !prev_fn {
            if prev_dot {
                match t.text.as_str() {
                    "unwrap" => {
                        if ctx.mt(k + 2).map(|x| x.text == ")") == Some(true) {
                            f.unwraps.push(Site {
                                line: t.line,
                                col: t.col,
                                what: "`.unwrap()`".into(),
                            });
                        }
                        return;
                    }
                    "expect" => {
                        f.unwraps.push(Site { line: t.line, col: t.col, what: "`.expect(…)`".into() });
                        return;
                    }
                    "wait" | "wait_timeout" => {
                        let loop_depth = current_loop_depth(blocks);
                        f.waits.push(WaitSite {
                            what: t.text.clone(),
                            loop_depth,
                            line: t.line,
                            col: t.col,
                        });
                        record_guard_blocking(ctx, k, f, blocks);
                        return;
                    }
                    _ => {}
                }
                if BLOCKING_METHODS.contains(&t.text.as_str()) {
                    record_guard_blocking(ctx, k, f, blocks);
                }
                f.calls.push(CallSite {
                    name: t.text.clone(),
                    qual: Vec::new(),
                    method: true,
                    line: t.line,
                    col: t.col,
                });
            } else {
                // Bare or path-qualified call: walk back over `Seg ::` pairs.
                let mut qual = Vec::new();
                let mut back = k;
                while back >= 2
                    && ctx.mt(back - 1).map(|x| x.text == "::") == Some(true)
                    && ctx.mt(back - 2).map(|x| x.kind == TokenKind::Ident) == Some(true)
                {
                    qual.insert(0, ctx.mt(back - 2).map(|x| x.text.clone()).unwrap_or_default());
                    back -= 2;
                }
                if BLOCKING_FREE_FNS.contains(&t.text.as_str()) {
                    record_guard_blocking(ctx, k, f, blocks);
                }
                f.calls.push(CallSite {
                    name: t.text.clone(),
                    qual,
                    method: false,
                    line: t.line,
                    col: t.col,
                });
            }
        }

        if t.text == "as" {
            if let Some(target) = ctx.mt(k + 1) {
                // `as *const T` / `as *mut T` are pointer casts; `as _` is
                // inferred. Neither is an integer narrowing.
                if target.kind == TokenKind::Ident && target.text != "_" {
                    f.casts.push(CastSite {
                        target: target.text.clone(),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
        }
        return;
    }

    if t.kind == TokenKind::Op && t.text == "[" {
        // Postfix index: `expr[` where expr just ended. Array literals,
        // attributes, types, and macro brackets all have different
        // predecessors.
        let postfix = k > 0
            && ctx
                .mt(k - 1)
                .map(|p| {
                    (p.kind == TokenKind::Ident
                        && !matches!(
                            p.text.as_str(),
                            // `let [a, b] = …` is a slice pattern, not an index.
                            "return" | "break" | "in" | "as" | "mut" | "ref" | "else" | "match"
                                | "let" | "if" | "while"
                        ))
                        || matches!(p.text.as_str(), ")" | "]" | "?")
                })
                == Some(true);
        if postfix {
            let head = ctx.mt(k - 1).map(|p| p.text.clone()).unwrap_or_default();
            f.indexes.push(Site { line: t.line, col: t.col, what: format!("`{head}[…]`") });
        }
    }
}

/// Loop nesting of the innermost function's body at the current block stack.
fn current_loop_depth(blocks: &[Block]) -> u32 {
    let mut depth = 0u32;
    for b in blocks.iter().rev() {
        match b.kind {
            BlockKind::Loop => depth += 1,
            BlockKind::Fn(_) => break,
            _ => {}
        }
    }
    depth
}

/// If a lock guard bound in a live enclosing block (within the current fn)
/// is not mentioned anywhere in the statement around the blocking call at
/// meaningful-index `k`, record a guard-held-across-blocking-call site.
fn record_guard_blocking(ctx: &FileCtx, k: usize, f: &mut FnInfo, blocks: &[Block]) {
    let mut live: Vec<&String> = Vec::new();
    for b in blocks.iter().rev() {
        live.extend(b.guards.iter());
        if matches!(b.kind, BlockKind::Fn(_)) {
            break;
        }
    }
    if live.is_empty() {
        return;
    }
    // The surrounding statement: from the previous `;`/`{`/`}` to the
    // matching `)` of the call's argument list.
    let mut start = k;
    while start > 0 {
        match ctx.mt(start - 1).map(|t| t.text.clone()).as_deref() {
            Some(";") | Some("{") | Some("}") | None => break,
            _ => start -= 1,
        }
    }
    let mut end = k + 1;
    let mut depth = 0i32;
    while let Some(t) = ctx.mt(end) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            _ => {}
        }
        end += 1;
    }
    let mentions = |name: &str| {
        (start..=end).any(|j| {
            ctx.mt(j).map(|t| t.kind == TokenKind::Ident && t.text == name) == Some(true)
        })
    };
    for guard in live {
        if !mentions(guard) {
            let t = ctx.mt(k).map(|t| (t.line, t.col, t.text.clone()));
            if let Some((line, col, name)) = t {
                f.guard_blocking.push(Site {
                    line,
                    col,
                    what: format!("`.{name}(…)` while lock guard `{guard}` is held"),
                });
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileClass, FileCtx};

    fn parsed(path: &str, src: &str) -> ParsedFile {
        let ctx = FileCtx::analyze(path, FileClass::Library, false, src);
        parse_file(&ctx, "fbb_x")
    }

    #[test]
    fn fn_items_get_crate_module_and_impl_qualifiers() {
        let p = parsed(
            "crates/x/src/codec.rs",
            "pub fn free() {}\nmod inner { fn nested() {} }\nstruct S;\nimpl S { fn m(&self) {} }\n\
             impl Clone for S { fn clone(&self) -> S { S } }",
        );
        let names: Vec<String> = p.fns.iter().map(FnInfo::qualified).collect();
        assert_eq!(
            names,
            vec![
                "fbb_x::codec::free",
                "fbb_x::codec::inner::nested",
                "fbb_x::codec::S::m",
                "fbb_x::codec::S::clone",
            ]
        );
    }

    #[test]
    fn lib_rs_has_no_file_module() {
        let p = parsed("crates/x/src/lib.rs", "fn root() {}");
        assert_eq!(p.fns[0].qualified(), "fbb_x::root");
    }

    #[test]
    fn calls_methods_and_macros_are_recorded() {
        let p = parsed(
            "crates/x/src/lib.rs",
            "fn f(d: &D) { codec::decode(d); d.verify(); helper(); panic!(\"boom\"); }",
        );
        let f = &p.fns[0];
        assert!(f.calls.iter().any(|c| c.name == "decode" && c.qual == ["codec"] && !c.method));
        assert!(f.calls.iter().any(|c| c.name == "verify" && c.method));
        assert!(f.calls.iter().any(|c| c.name == "helper" && c.qual.is_empty()));
        assert_eq!(f.panic_macros.len(), 1);
    }

    #[test]
    fn unwrap_index_and_cast_sites_are_found() {
        let p = parsed(
            "crates/x/src/lib.rs",
            "fn f(v: &[u8], n: u64) -> u8 { let x = v.first().unwrap(); let _ = v[0]; \
             let _ = [0u8; 4]; (n as u8) + *x }",
        );
        let f = &p.fns[0];
        assert_eq!(f.unwraps.len(), 1);
        assert_eq!(f.indexes.len(), 1, "array literal must not count: {:?}", f.indexes);
        assert_eq!(f.casts.len(), 1);
        assert_eq!(f.casts[0].target, "u8");
    }

    #[test]
    fn wait_inside_and_outside_loops() {
        let p = parsed(
            "crates/x/src/lib.rs",
            "fn good(cv: &Condvar, g: G) { while x { g = cv.wait(g); } }\n\
             fn bad(cv: &Condvar, g: G) { let _ = cv.wait(g); }",
        );
        assert_eq!(p.fns[0].waits[0].loop_depth, 1);
        assert_eq!(p.fns[1].waits[0].loop_depth, 0);
    }

    #[test]
    fn guard_across_blocking_call_detected_and_mention_exempts() {
        let p = parsed(
            "crates/x/src/lib.rs",
            "fn bad(m: &Mutex<u32>, s: &mut TcpStream) { let g = m.lock().expect(\"l\"); \
             s.flush(); drop(g); }\n\
             fn good(w: &Mutex<TcpStream>) { let mut s = w.lock().expect(\"l\"); s.flush(); }",
        );
        assert_eq!(p.fns[0].guard_blocking.len(), 1, "{:?}", p.fns[0].guard_blocking);
        assert!(p.fns[1].guard_blocking.is_empty());
    }

    #[test]
    fn const_arithmetic_evaluates() {
        let p = parsed(
            "crates/x/src/lib.rs",
            "pub const A: u32 = 16 * 1024 * 1024;\nconst B: usize = 16 + 6 * 24 + 4;\n\
             const C: u16 = 0x1B3;\nconst D: usize = OTHER + 4;",
        );
        assert_eq!(p.consts.len(), 3);
        assert_eq!(p.consts[0], ("A".into(), 16 * 1024 * 1024, 1));
        assert_eq!(p.consts[1].1, 164);
        assert_eq!(p.consts[2].1, 0x1B3);
    }

    #[test]
    fn test_gated_sites_are_skipped() {
        let p = parsed(
            "crates/x/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); v[0]; } }",
        );
        assert!(p.fns.iter().all(|f| f.unwraps.is_empty() && f.indexes.is_empty()));
    }
}
