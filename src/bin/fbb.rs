//! `fbb` — command-line front end for the clustered-FBB flow.
//!
//! ```text
//! fbb generate --design c1355 --out c1355.bench        # emit a suite circuit
//! fbb compile --design c1355 -o c1355.fbb              # persist the pre-LP pipeline
//! fbb sta --netlist c1355.bench                        # timing report
//! fbb solve --netlist c1355.fbb --beta 0.05 --clusters 3 --ilp --layout
//! fbb difftest --cases 256 --seed 1                    # cross-engine differential soak
//! fbb difftest --db c1355.fbb                          # oracle-check a compiled design
//! ```
//!
//! Netlist files ending in `.bench` use the ISCAS format; anything else uses
//! the native text format (`fbb::netlist::fmt`). Every `--netlist` also
//! accepts a compiled `.fbb` design database (detected by magic, not
//! extension — see `docs/FORMAT.md`); the placement, characterization, and
//! pre-processed problem are then loaded instead of recomputed, skipping
//! straight to the LP.
//!
//! A design NAME (`--design`) is a Table 1 name or a generated datapath
//! `adder:W`, `multiplier:W` or `alu:W`; `bench-serve` and `lint --models`
//! take Table 1 names only. Every subcommand reads and checks all of its
//! flags before it touches a file, a socket or a solver, and a `--` flag
//! the subcommand does not read is rejected before that.
//!
//! Exit codes are a machine-readable contract:
//!
//! * `0` — success (and, with `--require-optimal`, a proven optimum);
//! * `1` — usage error or internal failure; an unknown flag, a bad flag
//!   value (one that does not parse, or a flag with no value) or an
//!   unknown design name is a usage error whose message names the flag or
//!   the design;
//! * `2` — the instance is infeasible (uncompensable β);
//! * `3` — a time/node budget expired without an optimality proof;
//! * `4` — `difftest` found at least one engine/oracle mismatch;
//! * `5` — `lint` found repo-invariant violations or model-audit errors.
//!
//! A closed stdout does not change the code: once its reader has gone
//! (`fbb lint --fixtures | head -1`), later writes are skipped and the
//! command runs on to its own verdict. Any other failure to write stdout
//! exits 1 naming the error.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fbb::core::{
    check_timing, single_bb, FbbError, FbbProblem, Granularity, IlpAllocator, Preprocessed,
    TwoPassHeuristic,
};
use fbb::bench::report::BenchReport;
use fbb::bench::{
    arg_flag, arg_list, arg_parse, arg_seconds, arg_value, require_table1, ArgError,
};
use fbb::db::{is_design_db, DesignDb};
use fbb::device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb::lp::deadline::Stopwatch;
use fbb::serve::{Client, ServeConfig, Server, SolveRequest};
use fbb::netlist::{bench_fmt, fmt as nl_fmt, suite, Netlist};
use fbb::placement::layout;
use fbb::placement::{Placement, Placer, PlacerOptions};
use fbb::sta::TimingGraph;
use fbb::variation::{MonteCarloYield, ProcessVariation};

/// CLI outcome classes, each with a stable exit code (see the module docs).
#[derive(Debug)]
enum CliError {
    /// Bad invocation or an internal error — exit 1.
    Failure(String),
    /// The allocation problem has no solution — exit 2.
    Infeasible(String),
    /// A solver budget expired without the requested proof — exit 3.
    BudgetExpired(String),
    /// The differential harness found engine/oracle disagreement — exit 4.
    Mismatch(String),
    /// The static-analysis pass found violations — exit 5.
    LintViolations(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Infeasible(_) => 2,
            CliError::BudgetExpired(_) => 3,
            CliError::Mismatch(_) => 4,
            CliError::LintViolations(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Failure(m)
            | CliError::Infeasible(m)
            | CliError::BudgetExpired(m)
            | CliError::Mismatch(m)
            | CliError::LintViolations(m) => m,
        }
    }
}

/// Set once the reader of stdout has gone: later writes are skipped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout and flushes: the CLI's one stdout writer, behind
/// [`out!`] and [`outln!`]. A closed stdout (`BrokenPipe`) is not an
/// error: this write and every later one are dropped, so the command
/// still reaches its own verdict and exit code. Any other write error
/// exits 1 naming it.
fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<(), CliError> {
    use std::io::Write as _;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        other => other.map_err(|e| format!("cannot write to stdout: {e}").into()),
    }
}

/// `print!` through [`write_stdout`], as a `Result` for `?`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`], as a `Result` for `?`.
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failure(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Failure(msg.to_owned())
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Failure(e.to_string())
    }
}

/// Classifies an allocation error: uncompensable β is a property of the
/// instance (exit 2, with the engine's worst-path diagnosis), everything
/// else is an internal failure (exit 1).
fn classify_fbb_error(e: FbbError) -> CliError {
    match e {
        FbbError::Uncompensable { .. } => CliError::Infeasible(format!("infeasible: {e}")),
        other => CliError::Failure(other.to_string()),
    }
}

/// Parses netlist text by the path's extension: ISCAS `.bench`, else the
/// native text format. Errors read `"{path}: {reason}"`.
fn parse_netlist(path: &str, text: &str) -> Result<Netlist, String> {
    if path.ends_with(".bench") {
        bench_fmt::from_bench_str(text)
    } else {
        nl_fmt::from_str(text)
    }
    .map_err(|e| format!("{path}: {e}"))
}

/// A design ready to solve: either built cold from a netlist (parsed,
/// generated or composed; then placed and characterized) or a decoded
/// `.fbb` database, whose stored pre-processed problems are available too.
enum LoadedDesign {
    Cold(Netlist, Placement, Characterization),
    Db(DesignDb),
}

impl LoadedDesign {
    /// The netlist, placement and characterization, wherever they live.
    fn parts(&self) -> (&Netlist, &Placement, &Characterization) {
        match self {
            LoadedDesign::Cold(netlist, placement, chara) => (netlist, placement, chara),
            LoadedDesign::Db(db) => (&db.netlist, &db.placement, &db.characterization),
        }
    }

    /// The database the design was decoded from, if any.
    fn db(&self) -> Option<&DesignDb> {
        match self {
            LoadedDesign::Db(db) => Some(db),
            LoadedDesign::Cold(..) => None,
        }
    }
}

/// The single normalized error path for reading a design file. Every
/// filesystem failure — missing file, permission denied, path names a
/// directory — maps to exit 1 with one message shape, so scripts can match
/// on `cannot load design` regardless of which subcommand tripped it.
fn read_design_bytes(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path)
        .map_err(|e| CliError::Failure(format!("cannot load design {path}: {e}")))
}

/// Loads `path` as either a compiled design database (sniffed by magic) or
/// a text netlist that still needs the cold pipeline. `rows` (`--rows`)
/// only applies to the cold path — a database carries its placement.
///
/// A database goes through `DesignDb::decode`, the one decoder, which
/// re-checks the stored netlist, timing tables and pre-processed problems
/// against each other; a file that fails it exits 1 like a missing one.
fn load_design(path: &str, rows: Option<u32>) -> Result<LoadedDesign, CliError> {
    let bytes = read_design_bytes(path)?;
    if is_design_db(&bytes) {
        let db =
            DesignDb::decode(&bytes).map_err(|e| format!("cannot load design {path}: {e}"))?;
        if rows.is_some() {
            eprintln!("note: --rows ignored ({path} is a compiled database with a stored placement)");
        }
        return Ok(LoadedDesign::Db(db));
    }
    let text =
        String::from_utf8(bytes).map_err(|_| format!("{path}: neither a design database nor text"))?;
    place_cold(parse_netlist(path, &text)?, rows)
}

/// The placed, characterized design that `--netlist FILE` (a text netlist
/// or a compiled database) or `--design NAME` names, with a description of
/// its source; `None` when neither flag is given.
fn design_arg(
    args: &[String],
    rows: Option<u32>,
) -> Result<Option<(LoadedDesign, String)>, CliError> {
    if let Some(path) = arg_value(args, "--netlist") {
        Ok(Some((load_design(&path, rows)?, format!("netlist {path}"))))
    } else if let Some(name) = arg_value(args, "--design") {
        Ok(Some((place_cold(resolve_design(&name)?, rows)?, format!("generated {name}"))))
    } else {
        Ok(None)
    }
}

/// Resolves a design name to its netlist: a Table 1 name, or a generated
/// datapath `adder:W`, `multiplier:W` or `alu:W` of width `W` (at least 2
/// for a multiplier, 1 otherwise).
fn resolve_design(name: &str) -> Result<Netlist, CliError> {
    use fbb::netlist::generators::{alu, array_multiplier, ripple_adder};
    if let Some(nl) = suite::generate(name) {
        return Ok(nl);
    }
    let Some((kind, width)) = name.split_once(':') else {
        return Err(format!(
            "unknown design {name}; use a Table 1 name or adder:W / multiplier:W / alu:W"
        )
        .into());
    };
    let w: u32 = width.parse().map_err(|_| format!("bad width in {name}"))?;
    match (kind, w) {
        ("adder", 1..) => ripple_adder(name, w, false),
        ("multiplier", 2..) => array_multiplier(name, w),
        ("alu", 1..) => alu(name, w),
        ("adder" | "multiplier" | "alu", _) => return Err(format!("bad width in {name}").into()),
        (other, _) => return Err(format!("unknown generator {other}").into()),
    }
    .map_err(|e| e.to_string().into())
}

/// The paper's 45 nm library, characterized on the paper's bias ladder.
fn characterize() -> Result<Characterization, CliError> {
    let ladder = BiasLadder::date09().map_err(|e| e.to_string())?;
    Ok(Library::date09_45nm().characterize(&BodyBiasModel::date09_45nm(), &ladder))
}

/// The cold pipeline after the netlist: places it on the characterized
/// paper library at `rows` rows (`--rows`), or on a square die when `None`.
fn place_cold(netlist: Netlist, rows: Option<u32>) -> Result<LoadedDesign, CliError> {
    let chara = characterize()?;
    let options = PlacerOptions { target_rows: rows, ..PlacerOptions::default() };
    let placement =
        Placer::new(options).place(&netlist, chara.library()).map_err(|e| e.to_string())?;
    Ok(LoadedDesign::Cold(netlist, placement, chara))
}

fn save_netlist(nl: &Netlist, path: &str) -> Result<(), String> {
    let text = if path.ends_with(".bench") {
        bench_fmt::to_bench_string(nl)
    } else {
        nl_fmt::to_string(nl)
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn usage() -> &'static str {
    "usage:\n  \
     fbb generate --design NAME [--out FILE]\n  \
     fbb compile (--design NAME | --netlist FILE) -o FILE.fbb [--rows N]\n            \
     [--betas 0.05,0.10] [--clusters 3] [--granularity row,block,gate]\n  \
     fbb sta --netlist FILE [--beta 0.05]\n  \
     fbb solve --netlist FILE [--rows N] [--beta 0.05] [--clusters 3]\n            \
     [--ilp] [--ilp-time-limit SECS] [--require-optimal]\n            \
     [--layout] [--cleanup PCT] [--mc SAMPLES]\n  \
     fbb serve [--addr 127.0.0.1:7117] [--workers N] [--cache-designs N]\n            \
     [--queue-depth N]\n  \
     fbb sweep (--design NAME | --netlist FILE | --compose GATES) [--rows N]\n            \
     [--betas 0.03,0.05] [--clusters 2,3] [--levels 6,11]\n            \
     [--node-limit N] [--time-limit SECS] [--cold] [--report FILE]\n  \
     fbb bench-serve (--design TABLE1-NAME | --netlist FILE.fbb) [--addr HOST:PORT]\n            \
     [--connections 4] [--requests 64] [--beta 0.05] [--clusters 3]\n  \
     fbb difftest [--cases 64] [--seed 0] [--gap-limit 0.6] [--db FILE.fbb]\n  \
     fbb lint [--json] [--fixtures] [--models] [--designs a,b] [--root DIR]\n  \
     fbb lint (--list-rules | --explain RULE)\n\n\
     A design NAME is a Table 1 name or adder:W / multiplier:W / alu:W;\n\
     `--models --designs` takes Table 1 names only. --rows N places N rows\n\
     (default: a square die); a compiled database keeps its own placement.\n\n\
     `fbb serve` runs the allocation daemon (protocol: docs/PROTOCOL.md):\n\
     clients load a compiled design once into the in-memory cache, then\n\
     solve against it repeatedly. Response codes reuse the exit codes\n\
     below (0 ok, 1 error, 2 infeasible, 3 budget expired). SIGTERM or\n\
     the SHUTDOWN opcode answers every accepted solve before exiting.\n\
     `fbb bench-serve` drives a daemon (spawning an in-process one unless\n\
     --addr is given) and merges latency percentiles plus the cache\n\
     hit/miss split into BENCH_serve.json.\n\n\
     `fbb sweep` runs the full beta x clusters x levels grid as one warm\n\
     pipeline (one pre-process per beta, one ILP model per beta/levels,\n\
     budget RHS patched per clusters), streaming one line per cell;\n\
     --cold solves every cell from scratch instead. Results are\n\
     bit-identical either way. --compose GATES tiles the hierarchical\n\
     suite-block composer up to the requested gate count (50k-500k) and\n\
     places it with the row tiler (--rows, default 64). --node-limit\n\
     bounds each cell deterministically; --time-limit also bounds it but\n\
     makes warm-vs-cold comparison timing-dependent. A sweep that\n\
     completes every cell exits 0 even if individual cells are\n\
     infeasible or budget-expired (per-cell status is in the output).\n\n\
     `fbb compile` runs generate -> place -> characterize -> STA -> path\n\
     extraction once and persists every artifact to a versioned binary\n\
     design database (docs/FORMAT.md). sta/solve/difftest accept the .fbb\n\
     file wherever a netlist is expected and skip straight to the LP.\n\n\
     Any command also accepts --telemetry FILE: solver/STA/Monte-Carlo\n\
     counters are collected during the run, written to FILE as flat JSON,\n\
     and summarized on stderr.\n\n\
     Exit codes: 0 ok, 1 usage/internal error (an unknown flag, a bad\n\
     flag value or an unknown design name exits 1 naming it), 2\n\
     infeasible instance, 3 budget expired without an optimality proof\n\
     (--require-optimal), 4 difftest mismatch, 5 lint/model-audit\n\
     violations. A stdout closed early by its reader does not change the\n\
     code.\n\n\
     *.bench files use the ISCAS format; others use the native format."
}

/// A subcommand's entry point, given the whole argument list.
type Handler = fn(&[String]) -> Result<(), CliError>;

/// Every subcommand with its handler and the `--` flags it reads. [`run`]
/// rejects any other `--` flag before the command starts, except the
/// global `--telemetry`.
const COMMANDS: &[(&str, Handler, &[&str])] = &[
    ("generate", generate, &["--design", "--out"]),
    ("compile", compile, &[
        "--design", "--netlist", "--out", "--rows", "--betas", "--granularity", "--clusters",
    ]),
    ("sta", sta, &["--netlist", "--beta"]),
    ("solve", solve, &[
        "--netlist", "--rows", "--beta", "--clusters", "--ilp", "--ilp-time-limit",
        "--require-optimal", "--layout", "--cleanup", "--mc",
    ]),
    ("serve", serve, &["--addr", "--workers", "--cache-designs", "--queue-depth"]),
    ("sweep", sweep, &[
        "--design", "--netlist", "--compose", "--rows", "--betas", "--clusters", "--levels",
        "--node-limit", "--time-limit", "--cold", "--report",
    ]),
    ("bench-serve", bench_serve, &[
        "--design", "--netlist", "--addr", "--connections", "--requests", "--beta", "--clusters",
    ]),
    ("difftest", difftest, &[
        "--cases", "--seed", "--gap-limit", "--db", "--ilp", "--ilp-time-limit",
        "--inject-pivot-bug", "--inject-postsolve-bug",
    ]),
    ("lint", lint, &[
        "--json", "--fixtures", "--models", "--designs", "--clusters", "--root", "--list-rules",
        "--explain",
    ]),
];

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(&(name, handler, flags)) =
        COMMANDS.iter().find(|(name, ..)| args.first().is_some_and(|a| a == name))
    else {
        return Err(CliError::Failure(usage().to_owned()));
    };
    if let Some(unknown) = args[1..]
        .iter()
        .find(|a| a.starts_with("--") && *a != "--telemetry" && !flags.contains(&a.as_str()))
    {
        return Err(format!("unknown flag {unknown} for fbb {name} (see `fbb` for usage)").into());
    }
    let telemetry_path = arg_value(&args, "--telemetry");
    if telemetry_path.is_some() {
        fbb::telemetry::reset();
        fbb::telemetry::enable();
    }
    let result = handler(&args);
    if let Some(path) = telemetry_path {
        let snap = fbb::telemetry::snapshot();
        snap.save_flat_json(Path::new(&path))
            .map_err(|e| CliError::Failure(format!("cannot write telemetry to {path}: {e}")))?;
        eprintln!("\n{}", snap.summary());
        eprintln!("telemetry written to {path}");
    }
    result
}

/// `fbb difftest` — run the cross-engine differential harness.
///
/// Per-layer mismatch totals land in telemetry (`difftest_*`); any mismatch
/// exits with code 4. The hidden `--inject-pivot-bug` and
/// `--inject-postsolve-bug` flags arm the `fault-inject` planted defects
/// (a flipped simplex pivot sign, a transposed postsolve column pair) for
/// the duration of the run — they exist so scripts (and `scripts/check.sh`)
/// can prove the harness detects a real solver bug, and an armed run must
/// therefore *fail*.
fn difftest(args: &[String]) -> Result<(), CliError> {
    let cases: usize = arg_parse(args, "--cases")?.unwrap_or(64);
    let seed: u64 = arg_parse(args, "--seed")?.unwrap_or(0);
    let gap_limit: f64 = arg_parse(args, "--gap-limit")?.unwrap_or(0.6);
    let ilp_limit = arg_seconds(args, "--ilp-time-limit")?.unwrap_or(Duration::from_secs(30));
    if let Some(path) = arg_value(args, "--db") {
        return difftest_db(&path, ilp_limit, arg_flag(args, "--ilp"));
    }
    let config = fbb::testkit::DiffConfig { cases, seed, greedy_gap_limit: gap_limit };
    let runner = fbb::testkit::DiffRunner::with_config(config);
    let report = if arg_flag(args, "--inject-pivot-bug") {
        eprintln!("warning: pivot-sign defect armed; this run must report mismatches");
        fbb::lp::fault::with_flipped_pivot_sign(|| runner.run())
    } else if arg_flag(args, "--inject-postsolve-bug") {
        eprintln!("warning: postsolve-swap defect armed; this run must report mismatches");
        fbb::lp::fault::with_swapped_postsolve_entries(|| runner.run())
    } else {
        runner.run()
    };
    outln!("{}", report.summary())?;
    if report.is_clean() {
        Ok(())
    } else {
        for failure in &report.failures {
            eprintln!("mismatch: {failure}");
        }
        if report.total_mismatches() > report.failures.len() {
            eprintln!(
                "… and {} more (see telemetry difftest_* counters)",
                report.total_mismatches() - report.failures.len()
            );
        }
        Err(CliError::Mismatch(format!(
            "difftest: {} mismatches over {} cases/layer (seed {seed})",
            report.total_mismatches(),
            cases
        )))
    }
}

/// `fbb difftest --db FILE.fbb` — oracle-check every pre-processed instance
/// stored in a compiled design database.
///
/// Per entry: the heuristic's assignment must pass the independent timing
/// oracle, its reported leakage must match a from-scratch recomputation
/// bit-for-bit, and its cluster usage must respect the stored budget. With
/// `--ilp`, the exact solver additionally must not be beaten by the
/// heuristic whenever it proves optimality. Any disagreement exits 4, same
/// as the random-case harness.
fn difftest_db(path: &str, ilp_limit: Duration, run_ilp: bool) -> Result<(), CliError> {
    let bytes = read_design_bytes(path)?;
    // The same decode `solve` and `sta` use: a file they accept is a file
    // whose stored instances this oracle then checks.
    let db = DesignDb::decode(&bytes).map_err(|e| format!("cannot load design {path}: {e}"))?;
    outln!("{}", db.stats())?;
    let mut mismatches = Vec::new();
    for entry in &db.entries {
        let pre = &entry.pre;
        let tag = format!("{:?} beta={:.4}", entry.granularity, pre.beta);
        let sol = match TwoPassHeuristic.solve(pre) {
            Ok(sol) => sol,
            Err(FbbError::Uncompensable { .. }) => {
                outln!("  {tag:<24} uncompensable (oracle skipped)")?;
                continue;
            }
            Err(e) => return Err(CliError::Failure(format!("{tag}: {e}"))),
        };
        if let Err(k) = check_timing(pre, &sol.assignment) {
            mismatches.push(format!("{tag}: heuristic violates timing on path {k}"));
        }
        let recomputed = pre.leakage_nw(&sol.assignment);
        if recomputed.to_bits() != sol.leakage_nw.to_bits() {
            mismatches.push(format!(
                "{tag}: leakage mismatch (reported {} nW, recomputed {recomputed} nW)",
                sol.leakage_nw
            ));
        }
        let used = Preprocessed::cluster_count(&sol.assignment);
        if used > pre.max_clusters {
            mismatches
                .push(format!("{tag}: {used} clusters exceed budget {}", pre.max_clusters));
        }
        let mut ilp_note = String::new();
        if run_ilp {
            let out = IlpAllocator::with_time_limit(ilp_limit)
                .solve(pre)
                .map_err(|e| CliError::Failure(format!("{tag}: {e}")))?;
            if let (Some(exact), true) = (&out.solution, out.proven_optimal) {
                if sol.leakage_nw < exact.leakage_nw - 1e-6 {
                    mismatches.push(format!(
                        "{tag}: heuristic ({} nW) beats proven ILP optimum ({} nW)",
                        sol.leakage_nw, exact.leakage_nw
                    ));
                }
                ilp_note = format!("  ilp optimum {:>9.1} nW", exact.leakage_nw);
            } else {
                ilp_note = "  ilp budget expired (skipped)".to_owned();
            }
        }
        outln!(
            "  {tag:<24} heuristic {:>9.1} nW, {} clusters <= {}{ilp_note}",
            sol.leakage_nw, used, pre.max_clusters
        )?;
    }
    fbb::telemetry::counter("cli_difftest_db_runs", 1);
    if mismatches.is_empty() {
        outln!("difftest --db: {} entr{} clean", db.entries.len(), {
            if db.entries.len() == 1 {
                "y"
            } else {
                "ies"
            }
        })?;
        Ok(())
    } else {
        for m in &mismatches {
            eprintln!("mismatch: {m}");
        }
        Err(CliError::Mismatch(format!(
            "difftest --db {path}: {} mismatch(es) over {} entries",
            mismatches.len(),
            db.entries.len()
        )))
    }
}

/// `fbb lint` — the two-layer static-analysis pass (see `DESIGN.md` §5g).
///
/// Default mode lints the workspace source tree with every `fbb-audit`
/// rule: the per-file rules FA000–FA006 and the parser / call-graph rules
/// FA007–FA011 (trust-boundary panic-reachability, codec casts/indexing,
/// condvar discipline, spec-constant drift) driven by `audit.toml` and the
/// spec docs; any unwaived finding exits 5. `--fixtures` lints the planted
/// violation files instead — that run must
/// *fail* (exit 5) with every rule firing, which is how
/// `scripts/check.sh` proves the analyzer still bites (exit 1 if a rule
/// has gone blind). `--list-rules` and `--explain RULE` print the rule
/// table and its per-rule documentation. `--models` switches to Layer 2: it
/// builds the FBB ILP for the Table 1 designs at β ∈ {5 %, 10 %} and runs
/// `Model::audit` plus the Eq. 1–5 structure audit on each, exiting 5 on
/// any structural error.
fn lint(args: &[String]) -> Result<(), CliError> {
    if arg_flag(args, "--models") {
        return lint_models(args);
    }
    if arg_flag(args, "--list-rules") {
        for r in &fbb::audit::RULES {
            outln!("{}  {}", r.id, r.title)?;
        }
        return Ok(());
    }
    if let Some(id) = arg_value(args, "--explain") {
        let wanted = id.to_ascii_uppercase();
        let Some(r) = fbb::audit::rule(&wanted) else {
            return Err(CliError::Failure(format!(
                "unknown rule `{id}` (see `fbb lint --list-rules`)"
            )));
        };
        outln!("{} — {}\n", r.id, r.title)?;
        outln!("{}\n", r.doc)?;
        outln!("example:")?;
        for line in r.example.lines() {
            outln!("    {}", line.trim_start())?;
        }
        outln!("\nfix: {}", r.hint)?;
        return Ok(());
    }
    let root = match arg_value(args, "--root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => find_workspace_root()?,
    };
    let fixtures = arg_flag(args, "--fixtures");
    let report = if fixtures {
        fbb::audit::audit_fixtures(&root)
    } else {
        fbb::audit::audit_workspace(&root)
    }
    .map_err(|e| CliError::Failure(format!("lint: {e}")))?;

    if arg_flag(args, "--json") {
        outln!("{}", report.to_json())?;
    } else {
        out!("{}", report.summary())?;
    }
    fbb::telemetry::counter("cli_lint_runs", 1);

    if fixtures {
        // The fixtures exist to prove every rule still fires. A silent rule
        // is an analyzer regression — worse than a violation, so it gets
        // exit 1, not 5.
        let fired = report.rules_fired();
        let blind: Vec<&str> = fbb::audit::RULES
            .iter()
            .map(|r| r.id)
            .filter(|id| !fired.contains(id))
            .collect();
        if !blind.is_empty() {
            return Err(CliError::Failure(format!(
                "analyzer regression: rule(s) {} produced no findings on the fixtures",
                blind.join(", ")
            )));
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::LintViolations(format!(
            "fbb lint: {} violation(s) in {} file(s)",
            report.violations().count(),
            report.files_scanned
        )))
    }
}

/// Walks up from the current directory to the enclosing Cargo workspace
/// root (the directory whose `Cargo.toml` has a `[workspace]` section).
fn find_workspace_root() -> Result<std::path::PathBuf, CliError> {
    let start = std::env::current_dir()
        .map_err(|e| CliError::Failure(format!("cannot resolve current dir: {e}")))?;
    let mut dir = start.as_path();
    loop {
        if std::fs::read_to_string(dir.join("Cargo.toml"))
            .map(|t| t.contains("[workspace]"))
            .unwrap_or(false)
        {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(CliError::Failure(format!(
                    "no Cargo workspace found above {} (pass --root)",
                    start.display()
                )))
            }
        }
    }
}

/// `fbb lint --models` — Layer-2 smoke over the paper suite.
fn lint_models(args: &[String]) -> Result<(), CliError> {
    let paper: Vec<String> = suite::PAPER_TABLE1.iter().map(|s| s.name.to_owned()).collect();
    let designs = arg_list(args, "--designs", &paper)?;
    let clusters: usize = arg_parse(args, "--clusters")?.unwrap_or(3);
    for name in &designs {
        require_table1(name)?;
    }
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for name in &designs {
        let design = fbb::bench::prepare_design(name);
        for beta in [0.05f64, 0.10] {
            let pre = design.preprocess(beta, clusters);
            let model = IlpAllocator::default()
                .build_model(&pre)
                .map_err(|e| CliError::Failure(format!("{name}: {e}")))?;
            let audit = model.audit();
            let structure = IlpAllocator::audit_structure(&pre, &model);
            let n_err = audit.errors().count() + structure.len();
            let n_warn = audit.warnings().count();
            errors += n_err;
            warnings += n_warn;
            outln!(
                "{name:<14} beta={:>2.0}%  {:>6} vars {:>6} rows  {} error(s), {} warning(s)",
                beta * 100.0,
                model.var_count(),
                model.constraint_count(),
                n_err,
                n_warn
            )?;
            for d in audit.defects.iter().filter(|d| {
                matches!(d.severity, fbb::lp::Severity::Error)
            }) {
                eprintln!("  model error [{}]: {}", d.code, d.message);
            }
            for issue in &structure {
                eprintln!("  structure error: {issue}");
            }
        }
    }
    outln!(
        "model audit: {} design(s) x 2 betas, {errors} error(s), {warnings} warning(s)",
        designs.len()
    )?;
    if errors == 0 {
        Ok(())
    } else {
        Err(CliError::LintViolations(format!(
            "fbb lint --models: {errors} model-audit error(s)"
        )))
    }
}

fn generate(args: &[String]) -> Result<(), CliError> {
    let design = arg_value(args, "--design").ok_or("missing --design")?;
    let nl = resolve_design(&design)?;
    eprintln!("{}", nl.stats());
    match arg_value(args, "--out") {
        Some(path) => save_netlist(&nl, &path)?,
        None => out!("{}", nl_fmt::to_string(&nl))?,
    }
    Ok(())
}

fn sta(args: &[String]) -> Result<(), CliError> {
    let path = arg_value(args, "--netlist").ok_or("missing --netlist")?;
    let beta: f64 = arg_parse(args, "--beta")?.unwrap_or(0.0);

    // From a compiled database the report comes straight from the stored
    // timing tables (the exact jittered STA input and its extracted paths);
    // from a text netlist it is recomputed with unjittered library delays,
    // matching the historical `fbb sta` behaviour.
    let bytes = read_design_bytes(&path)?;
    let (stats, dcrit, mut paths) = if is_design_db(&bytes) {
        let db =
            DesignDb::decode(&bytes).map_err(|e| format!("cannot load design {path}: {e}"))?;
        outln!("compiled database: {}", db.stats())?;
        (db.netlist.stats(), db.timing.dcrit_ps, db.timing.paths.clone())
    } else {
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not a text netlist"))?;
        let nl = parse_netlist(&path, &text)?;
        let chara = characterize()?;
        let delays: Vec<f64> = nl.gates().iter().map(|g| chara.delay_ps(g.cell, 0)).collect();
        let graph = TimingGraph::new(&nl).map_err(|e| e.to_string())?;
        let analysis = graph.analyze(&delays);
        (nl.stats(), analysis.dcrit_ps(), analysis.critical_path_set())
    };
    outln!("{stats}")?;
    outln!("Dcrit = {dcrit:.1} ps")?;
    paths.sort_by(|a, b| b.delay_ps.partial_cmp(&a.delay_ps).expect("finite"));
    outln!("unique worst paths: {}", paths.len())?;
    if beta > 0.0 {
        let violating = paths.iter().filter(|p| p.delay_ps * (1.0 + beta) > dcrit).count();
        outln!(
            "at beta = {:.1}%: {violating} paths violate (the allocator's constraint count)",
            beta * 100.0
        )?;
    }
    outln!("\ntop paths:")?;
    for p in paths.iter().take(5) {
        outln!(
            "  {:>8.1} ps  {:>3} gates  slack {:>7.1} ps",
            p.delay_ps,
            p.len(),
            dcrit - p.delay_ps
        )?;
    }
    Ok(())
}

/// `fbb compile` — run the pre-LP pipeline once and persist every artifact
/// (netlist, placement, characterization inputs, STA tables, pre-processed
/// problems) to a versioned `.fbb` design database.
fn compile(args: &[String]) -> Result<(), CliError> {
    let out = arg_value(args, "-o")
        .or_else(|| arg_value(args, "--out"))
        .ok_or("missing -o FILE.fbb")?;
    let rows: Option<u32> = arg_parse(args, "--rows")?;
    let betas: Vec<f64> = arg_list(args, "--betas", &[0.05, 0.10])?;
    let granularities: Vec<Granularity> = arg_list(args, "--granularity", &[Granularity::Row])?;
    let clusters: usize = arg_parse(args, "--clusters")?.unwrap_or(3);
    let (design, source) = design_arg(args, rows)?.ok_or("missing --design or --netlist")?;
    let (netlist, placement, chara) = design.parts();
    eprintln!("{}", netlist.stats());
    eprintln!("{}", placement.stats());

    let db = DesignDb::build(&source, netlist, placement, chara, &betas, &granularities, clusters)
        .map_err(classify_fbb_error)?;
    let bytes = db.encode_to_vec();
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    fbb::telemetry::counter("cli_compile_runs", 1);
    outln!("compiled {}", db.stats())?;
    outln!("{} bytes -> {out} (format v{})", bytes.len(), fbb::db::FORMAT_VERSION)?;
    Ok(())
}

fn solve(args: &[String]) -> Result<(), CliError> {
    let path = arg_value(args, "--netlist").ok_or("missing --netlist")?;
    let rows: Option<u32> = arg_parse(args, "--rows")?;
    let beta: f64 = arg_parse(args, "--beta")?.unwrap_or(0.05);
    let clusters: usize = arg_parse(args, "--clusters")?.unwrap_or(3);
    let ilp_limit = arg_seconds(args, "--ilp-time-limit")?.unwrap_or(Duration::from_secs(120));
    let cleanup: Option<f64> = arg_parse(args, "--cleanup")?;
    // Monte-Carlo yield of the uncompensated die population: on by default
    // (32 dies) when telemetry is collected, opt-in via --mc otherwise.
    let mc_samples: usize =
        arg_parse(args, "--mc")?.unwrap_or(if fbb::telemetry::is_enabled() { 32 } else { 0 });
    let design = load_design(&path, rows)?;
    let (nl, placement, chara) = design.parts();
    let ladder = chara.ladder().clone();
    eprintln!("{}", nl.stats());
    eprintln!("{}", placement.stats());

    // A compiled database skips straight to the LP: the pre-processed
    // problem is looked up by (granularity, β) and the cluster budget is
    // overridden — pre-processing never reads it, so the override is exact.
    let cached = design.db().and_then(|db| db.preprocessed_for(Granularity::Row, beta, clusters));
    let pre = match cached {
        Some(pre) => {
            eprintln!("pre-processed instance loaded from database (beta {beta})");
            pre
        }
        None => {
            let missing = design.db().filter(|db| db.entry(Granularity::Row, beta).is_none());
            if let Some(db) = missing {
                eprintln!(
                    "note: beta {beta} not compiled in (available: {:?}); pre-processing from stored artifacts",
                    db.betas(Granularity::Row)
                );
            }
            FbbProblem::new(nl, placement, chara, beta, clusters)
                .map_err(|e| e.to_string())?
                .preprocess()
                .map_err(|e| e.to_string())?
        }
    };
    outln!(
        "Dcrit = {:.1} ps, beta = {:.1}%, {} constraints, C <= {clusters}",
        pre.dcrit_ps,
        beta * 100.0,
        pre.constraint_count()
    )?;

    let baseline = single_bb(&pre).map_err(classify_fbb_error)?;
    outln!(
        "\nsingle BB : level {:>2} everywhere            leakage {:>9.1} nW",
        baseline.assignment[0], baseline.leakage_nw
    )?;

    let mut sol = TwoPassHeuristic.solve(&pre).map_err(classify_fbb_error)?;
    if let Some(pct) = cleanup {
        let raised = sol.reduce_well_separations(&pre, pct);
        eprintln!("cleanup raised {raised} rows (budget {pct}%)");
    }
    outln!(
        "heuristic : {} clusters, {} well seps    leakage {:>9.1} nW  ({:.2}% saved)",
        sol.clusters,
        sol.well_separation_count(),
        sol.leakage_nw,
        sol.savings_vs(&baseline)
    )?;

    // The answer this command reports: the heuristic's, or the ILP's when
    // `--ilp` finds one. The listing, the layout, the telemetry and the
    // verification below all describe it.
    let mut answer = sol;
    if arg_flag(args, "--ilp") {
        let out = IlpAllocator::with_time_limit(ilp_limit)
            .solve(&pre)
            .map_err(classify_fbb_error)?;
        // Status wording is part of the CLI contract: the word "optimal"
        // appears if and only if the branch & bound *proved* optimality. A
        // limited solve reports its incumbent and residual gap instead.
        match (&out.solution, out.proven_optimal) {
            (Some(exact), true) => outln!(
                "ilp       : optimal (proven), {} clusters, {} well seps    leakage {:>9.1} nW  ({:.2}% saved, {} nodes)",
                exact.clusters,
                exact.well_separation_count(),
                exact.leakage_nw,
                exact.savings_vs(&baseline),
                out.nodes
            )?,
            (Some(exact), false) => outln!(
                "ilp       : time limit hit, best incumbent with gap {:.2}%, {} clusters    leakage {:>9.1} nW  ({:.2}% saved, {} nodes)",
                out.gap * 100.0,
                exact.clusters,
                exact.leakage_nw,
                exact.savings_vs(&baseline),
                out.nodes
            )?,
            (None, _) => outln!("ilp       : no solution within the time limit")?,
        }
        if arg_flag(args, "--require-optimal") && !out.proven_optimal {
            return Err(CliError::BudgetExpired(format!(
                "deadline: ILP budget ({}s) expired without an optimality proof (gap {})",
                ilp_limit.as_secs_f64(),
                if out.gap.is_finite() {
                    format!("{:.2}%", out.gap * 100.0)
                } else {
                    "unbounded".to_owned()
                }
            )));
        }
        if let Some(exact) = out.solution {
            answer = exact;
        }
    }

    out!("\nrow biases: ")?;
    for (row, &level) in answer.assignment.iter().enumerate() {
        if row % 8 == 0 {
            out!("\n  ")?;
        }
        out!("r{row:<3}={:<6} ", ladder.level(level).to_string())?;
    }
    outln!()?;

    if arg_flag(args, "--layout") {
        let art = layout::render_ascii(placement, &ladder, &answer.assignment)
            .map_err(|e| e.to_string())?;
        outln!("\n{art}")?;
    }

    fbb::telemetry::record("cli_solution_leakage_nw", answer.leakage_nw);
    fbb::telemetry::record("cli_solution_savings_pct", answer.savings_vs(&baseline));

    // Independent verification: apply the answer's biases to the degraded
    // die and re-time the whole netlist once (the allocators only checked
    // Π). It starts from the jittered nominal delays the allocators solved
    // on, the same input `Dcrit` was computed from.
    let nominal = FbbProblem::new(nl, placement, chara, beta, clusters)
        .map_err(|e| e.to_string())?
        .nominal_delays();
    let graph = TimingGraph::new(nl).map_err(|e| e.to_string())?;
    let tuned: Vec<f64> = nl
        .iter_gates()
        .map(|(id, _)| {
            let level = answer.assignment[placement.row_of(id).index()];
            nominal[id.index()] * (1.0 + beta) * (1.0 - chara.speedup_fraction(level))
        })
        .collect();
    let tuned_dcrit = graph.analyze(&tuned).dcrit_ps();
    outln!(
        "verification: biased degraded Dcrit = {:.1} ps vs target {:.1} ps ({})",
        tuned_dcrit,
        pre.dcrit_ps,
        if tuned_dcrit <= pre.dcrit_ps * 1.002 { "met" } else { "VIOLATED" }
    )?;

    if mc_samples > 0 {
        let nominal: Vec<f64> =
            nl.gates().iter().map(|g| chara.delay_ps(g.cell, 0)).collect();
        let mc = MonteCarloYield::new(nl, placement, &nominal);
        let est = mc
            .estimate(&ProcessVariation::slow_corner_45nm(), pre.dcrit_ps, mc_samples, 42)
            .map_err(|e| e.to_string())?;
        outln!(
            "monte carlo : {} dies at clock {:.1} ps: yield {:.1}%, beta mean {:.2}% / p95 {:.2}%",
            est.samples,
            pre.dcrit_ps,
            est.yield_fraction * 100.0,
            est.beta_mean * 100.0,
            est.beta_p95 * 100.0
        )?;
    }
    Ok(())
}

/// `fbb serve` — run the allocation daemon until drained.
///
/// Prints one `fbb-serve listening on ADDR` line to stdout (flushed before
/// serving, as every stdout write is) so scripts can discover an ephemeral
/// port, then blocks in the accept loop. SIGTERM/SIGINT or a SHUTDOWN
/// frame trigger a graceful drain: every accepted solve is answered, then
/// the process exits 0.
fn serve(args: &[String]) -> Result<(), CliError> {
    let config = ServeConfig {
        addr: arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7117".to_owned()),
        workers: arg_parse(args, "--workers")?.unwrap_or(0),
        cache_designs: arg_parse(args, "--cache-designs")?.unwrap_or(0),
        queue_depth: arg_parse(args, "--queue-depth")?.unwrap_or(0),
    };
    fbb::serve::install_signal_handlers();
    let server =
        Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    outln!(
        "fbb-serve listening on {} ({} workers)",
        server.local_addr(),
        config.resolved_workers()
    )?;
    server.run().map_err(|e| CliError::Failure(format!("serve: {e}")))?;
    eprintln!("fbb-serve: drained cleanly");
    Ok(())
}

/// `fbb sweep` — run the β × C × P grid over one design as a warm
/// pipeline (see `fbb::core::sweep`), streaming one line per cell.
fn sweep(args: &[String]) -> Result<(), CliError> {
    let grid = fbb::core::SweepGrid {
        betas: arg_list(args, "--betas", &[0.03, 0.05])?,
        clusters: arg_list(args, "--clusters", &[2, 3])?,
        levels: arg_list(args, "--levels", &[6, 11])?,
    };
    let options = fbb::core::SweepOptions {
        time_limit: arg_seconds(args, "--time-limit")?,
        node_limit: arg_parse(args, "--node-limit")?,
        cold: arg_flag(args, "--cold"),
    };
    let rows: Option<u32> = arg_parse(args, "--rows")?;
    let compose: Option<usize> = arg_parse(args, "--compose")?;
    let design = if let Some(target) = compose {
        let composed =
            fbb::netlist::compose("composed", &fbb::netlist::ComposeOptions::with_target(target))
                .map_err(|e| e.to_string())?;
        eprintln!(
            "composed {} gates in {} blocks ({} stitches)",
            composed.netlist.gate_count(),
            composed.blocks.len(),
            composed.stitch_gates.len()
        );
        let chara = characterize()?;
        let placement =
            fbb::placement::tile(&composed.netlist, chara.library(), rows.unwrap_or(64))
                .map_err(|e| e.to_string())?;
        LoadedDesign::Cold(composed.netlist, placement, chara)
    } else {
        design_arg(args, rows)?.ok_or("missing --design, --netlist, or --compose")?.0
    };
    let (netlist, placement, chara) = design.parts();

    outln!(
        "sweeping {} cells over {} ({} rows, {} mode)",
        grid.cell_count(),
        netlist.name(),
        placement.row_count(),
        if options.cold { "cold" } else { "warm" }
    )?;
    outln!("{:>6}  {:>4}  {:>4}  {:<10}  {:>14}  {:>7}  {:>10}", "beta", "C", "P", "status", "leakage_nw", "nodes", "ms")?;
    // The callback cannot return an error: the first failed cell line is
    // kept, and returned once the report is written.
    let mut cell_lines = Ok(());
    let report = fbb::core::run_sweep(netlist, placement, chara, &grid, &options, |cell| {
        if cell_lines.is_err() {
            return;
        }
        cell_lines = outln!(
            "{:>6.3}  {:>4}  {:>4}  {:<10}  {:>14.4}  {:>7}  {:>10.2}",
            cell.beta,
            cell.clusters,
            cell.levels,
            format!("{:?}", cell.status),
            cell.leakage_nw,
            cell.nodes,
            cell.runtime.as_secs_f64() * 1e3,
        );
    })
    .map_err(classify_fbb_error)?;
    let printed = cell_lines.and_then(|()| {
        outln!(
            "swept {} cells in {:.2} s: {} pre-processes, {} model builds, {} pruned",
            report.cells.len(),
            report.runtime.as_secs_f64(),
            report.preprocess_count,
            report.model_builds,
            report.pruned
        )
    });
    if let Some(path) = arg_value(args, "--report") {
        write_sweep_report(&report, &path)?;
        eprintln!("report written to {path}");
    }
    printed
}

/// Writes a sweep report as JSON (hand-formatted — the workspace has no
/// JSON serializer dependency; same approach as the telemetry snapshot).
fn write_sweep_report(report: &fbb::core::SweepReport, path: &str) -> Result<(), CliError> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"runtime_s\": {},\n", report.runtime.as_secs_f64()));
    out.push_str(&format!("  \"preprocess_count\": {},\n", report.preprocess_count));
    out.push_str(&format!("  \"model_builds\": {},\n", report.model_builds));
    out.push_str(&format!("  \"pruned\": {},\n", report.pruned));
    out.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"beta\": {}, \"clusters\": {}, \"levels\": {}, \"status\": \"{:?}\", \
             \"leakage_nw\": {}, \"leakage_bits\": \"{:016x}\", \"nodes\": {}, \"runtime_s\": {}}}{}\n",
            c.beta,
            c.clusters,
            c.levels,
            c.status,
            c.leakage_nw,
            c.leakage_nw.to_bits(),
            c.nodes,
            c.runtime.as_secs_f64(),
            if i + 1 < report.cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| CliError::Failure(format!("cannot write {path}: {e}")))
}

/// `fbb bench-serve` — drive a daemon with `--connections` concurrent
/// clients × `--requests` warm solves each, and merge latency percentiles,
/// the cache hit/miss split, and the cold-CLI comparison into
/// `BENCH_serve.json`.
///
/// Without `--addr` an in-process daemon on an ephemeral port is spawned
/// and drained afterwards; with `--addr` an external daemon is measured
/// (and left running). The cold baseline is the real thing: child `fbb
/// solve --netlist X.fbb` processes, decode and all, timed end to end.
fn bench_serve(args: &[String]) -> Result<(), CliError> {
    let beta: f64 = arg_parse(args, "--beta")?.unwrap_or(0.05);
    let clusters: usize = arg_parse(args, "--clusters")?.unwrap_or(3);
    let connections: usize = arg_parse(args, "--connections")?.unwrap_or(4).max(1);
    let requests: usize = arg_parse(args, "--requests")?.unwrap_or(64).max(1);

    // The design under test: a user-supplied compiled database, or a Table
    // 1 design compiled in-process at the requested β.
    let bytes: Vec<u8> = if let Some(path) = arg_value(args, "--netlist") {
        let b = read_design_bytes(&path)?;
        if !is_design_db(&b) {
            return Err(format!(
                "cannot load design {path}: not a compiled database (run fbb compile first)"
            )
            .into());
        }
        b
    } else {
        let name = arg_value(args, "--design").unwrap_or_else(|| "c1355".to_owned());
        require_table1(&name)?;
        let d = fbb::bench::prepare_design(&name);
        DesignDb::build(
            &format!("bench-serve {name}"),
            &d.netlist,
            &d.placement,
            &d.characterization,
            &[beta],
            &[Granularity::Row],
            clusters,
        )
        .map_err(classify_fbb_error)?
        .encode_to_vec()
    };

    // Cold baseline: full CLI round trips (process spawn + decode + solve)
    // through a temp file, median of 3.
    let tmp = std::env::temp_dir().join(format!("fbb-bench-serve-{}.fbb", std::process::id()));
    std::fs::write(&tmp, &bytes)
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cold_ns: Vec<u64> = Vec::new();
    for _ in 0..3 {
        let sw = Stopwatch::start();
        let status = std::process::Command::new(&exe)
            .arg("solve")
            .arg("--netlist")
            .arg(&tmp)
            .args(["--beta", &beta.to_string(), "--clusters", &clusters.to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot spawn cold solve: {e}"))?;
        if !status.success() {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!("cold `fbb solve` baseline failed ({status})").into());
        }
        cold_ns.push(sw.runtime().as_nanos() as u64);
    }
    let _ = std::fs::remove_file(&tmp);
    cold_ns.sort_unstable();
    let cold_median_ns = cold_ns[cold_ns.len() / 2];

    // The daemon: external via --addr, or in-process on an ephemeral port.
    let mut inproc = None;
    let addr = match arg_value(args, "--addr") {
        Some(addr) => addr,
        None => {
            let server = Server::bind(&ServeConfig::default())
                .map_err(|e| format!("cannot bind in-process server: {e}"))?;
            let addr = server.local_addr().to_string();
            let handle = server.shutdown_handle();
            let join = std::thread::spawn(move || server.run());
            inproc = Some((handle, join));
            addr
        }
    };

    let run_bench = || -> Result<(Vec<u64>, u64, u64), CliError> {
        let mut control = Client::connect(&addr)
            .map_err(|e| CliError::Failure(format!("cannot connect to {addr}: {e}")))?;
        let stat = |pairs: &[(String, u64)], key: &str| {
            pairs.iter().find(|(k, _)| k == key).map(|&(_, v)| v).unwrap_or(0)
        };
        let before = control.stats().map_err(|e| format!("stats: {e}"))?;

        let mut latencies: Vec<u64> = Vec::with_capacity(connections * requests);
        let worker_results: Vec<Result<Vec<u64>, String>> =
            std::thread::scope(|scope| {
                let bytes = &bytes;
                let addr = &addr;
                let handles: Vec<_> = (0..connections)
                    .map(|_| {
                        scope.spawn(move || -> Result<Vec<u64>, String> {
                            let mut client =
                                Client::connect(addr).map_err(|e| e.to_string())?;
                            let info =
                                client.load_bytes(bytes).map_err(|e| e.to_string())?;
                            let mut lats = Vec::with_capacity(requests);
                            for _ in 0..requests {
                                let sw = Stopwatch::start();
                                client
                                    .solve(SolveRequest {
                                        design_hash: info.design_hash,
                                        granularity: 1, // row
                                        beta,
                                        clusters: clusters as u64,
                                        budget_ms: 0,
                                        flags: 0,
                                    })
                                    .map_err(|e| e.to_string())?;
                                lats.push(sw.runtime().as_nanos() as u64);
                            }
                            Ok(lats)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("bench connection thread panicked"))
                    .collect()
            });
        for result in worker_results {
            latencies
                .extend(result.map_err(|e| CliError::Failure(format!("bench client: {e}")))?);
        }
        let after = control.stats().map_err(|e| format!("stats: {e}"))?;
        let hits = stat(&after, "cache_hits").saturating_sub(stat(&before, "cache_hits"));
        let misses =
            stat(&after, "cache_misses").saturating_sub(stat(&before, "cache_misses"));
        Ok((latencies, hits, misses))
    };
    let bench_result = run_bench();

    // Drain the in-process daemon even on bench failure.
    if let Some((handle, join)) = inproc {
        handle.shutdown();
        join.join()
            .map_err(|_| CliError::Failure("in-process server panicked".to_owned()))?
            .map_err(|e| CliError::Failure(format!("in-process server: {e}")))?;
    }
    let (mut latencies, hits, misses) = bench_result?;

    latencies.sort_unstable();
    let total = latencies.len();
    let pct = |p: usize| latencies[(total - 1) * p / 100];
    let (p50, p99) = (pct(50), pct(99));
    let mean = latencies.iter().sum::<u64>() / total as u64;
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let speedup = cold_median_ns as f64 / p50 as f64;

    outln!("bench-serve: {connections} connections x {requests} requests = {total} solves")?;
    outln!("  warm latency        p50 {p50:>10} ns   p99 {p99:>10} ns   mean {mean:>10} ns")?;
    outln!("  cold CLI round trip     {cold_median_ns:>10} ns   (median of {})", cold_ns.len())?;
    outln!("  p50 speedup vs CLI  {speedup:>14.2}x")?;
    outln!("  design cache        {hits} hits / {misses} misses  (hit rate {:.3})", hit_rate)?;

    let path = fbb::bench::report::workspace_file("BENCH_serve.json");
    let mut report = BenchReport::load(&path);
    report.set("serve_connections", connections as f64);
    report.set("serve_requests_total", total as f64);
    report.set("serve_warm_p50_ns", p50 as f64);
    report.set("serve_warm_p99_ns", p99 as f64);
    report.set("serve_warm_mean_ns", mean as f64);
    report.set("serve_cold_cli_ns", cold_median_ns as f64);
    report.set("serve_p50_speedup_vs_cli", speedup);
    report.set("serve_cache_hits", hits as f64);
    report.set("serve_cache_misses", misses as f64);
    report.set("serve_cache_hit_rate", hit_rate);
    report.save(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outln!("snapshot merged into {}", path.display())?;
    fbb::telemetry::counter("cli_bench_serve_runs", 1);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{}", err.message());
            ExitCode::from(err.exit_code())
        }
    }
}
