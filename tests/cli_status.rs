//! The CLI exit-code and status-wording contract, exercised through the real
//! `fbb` binary.
//!
//! Exit codes: 0 ok, 1 usage/internal error, 2 infeasible instance,
//! 3 budget expired without an optimality proof, 4 difftest mismatch,
//! 5 lint violations.
//! Wording: "optimal" appears in solve output if and only if the branch &
//! bound *proved* optimality.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fbb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbb"))
        .args(args)
        .output()
        .expect("fbb binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A 48-bit ripple adder written to a per-test temp file.
fn adder_netlist(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fbb_cli_status_{tag}_{}.nl", std::process::id()));
    let out = fbb(&["generate", "--design", "adder:48", "--out", path.to_str().expect("utf8")]);
    assert_eq!(code(&out), 0, "generate failed: {}", text(&out.stderr));
    path
}

#[test]
fn unknown_subcommand_exits_1_with_usage() {
    let out = fbb(&["frobnicate"]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("usage:"), "stderr: {}", text(&out.stderr));
}

#[test]
fn uncompensable_instance_exits_2_and_names_the_path() {
    let nl = adder_netlist("infeasible");
    let out = fbb(&[
        "solve",
        "--netlist",
        nl.to_str().expect("utf8"),
        "--beta",
        "0.25",
        "--rows",
        "9",
    ]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 2, "stderr: {stderr}");
    assert!(stderr.contains("infeasible"), "stderr: {stderr}");
    // The diagnosis must carry the *reason*: which path misses and by how much.
    assert!(stderr.contains("path"), "stderr: {stderr}");
    assert!(stderr.contains("misses Dcrit by"), "stderr: {stderr}");
    let _ = std::fs::remove_file(nl);
}

#[test]
fn expired_ilp_budget_exits_3_and_never_claims_optimality() {
    let nl = adder_netlist("budget");
    let out = fbb(&[
        "solve",
        "--netlist",
        nl.to_str().expect("utf8"),
        "--rows",
        "9",
        "--ilp",
        "--ilp-time-limit",
        "0",
        "--require-optimal",
    ]);
    let stdout = text(&out.stdout);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 3, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    assert!(
        !stdout.contains("optimal"),
        "a limited solve must not print 'optimal': {stdout}"
    );
    let _ = std::fs::remove_file(nl);
}

#[test]
fn proven_ilp_solve_exits_0_and_says_proven() {
    let nl = adder_netlist("proven");
    let out = fbb(&["solve", "--netlist", nl.to_str().expect("utf8"), "--rows", "9", "--ilp"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("optimal (proven)"), "stdout: {stdout}");
    let _ = std::fs::remove_file(nl);
}

#[test]
fn verification_line_agrees_with_its_own_numbers() {
    let nl = adder_netlist("verify");
    let path = nl.to_str().expect("utf8");
    // The heuristic's answer, and under `--ilp` the exact answer the CLI
    // then reports: each is listed and re-timed on the full graph.
    let mut listings = Vec::new();
    for extra in [&[][..], &["--ilp"][..]] {
        let mut args = vec!["solve", "--netlist", path, "--rows", "9", "--beta", "0.05"];
        args.extend_from_slice(extra);
        let out = fbb(&args);
        let stdout = text(&out.stdout);
        assert_eq!(code(&out), 0, "args {args:?}: stderr: {}", text(&out.stderr));
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("verification:")).collect();
        assert_eq!(lines.len(), 1, "stdout: {stdout}");
        let numbers = lines[0]
            .strip_prefix("verification: biased degraded Dcrit = ")
            .and_then(|rest| rest.strip_suffix(" ps (met)"))
            .unwrap_or_else(|| panic!("unexpected verification line: {}", lines[0]));
        let (dcrit, target) = numbers.split_once(" ps vs target ").expect("Dcrit and target");
        let dcrit: f64 = dcrit.parse().expect("Dcrit is a number");
        let target: f64 = target.parse().expect("target is a number");
        // `met` means Dcrit <= target * 1.002; both print to 0.1 ps, so each
        // printed value may be off by up to 0.05 ps.
        assert!(dcrit - 0.05 <= (target + 0.05) * 1.002, "{dcrit} ps vs target {target} ps");
        let listing: Vec<String> =
            stdout.lines().filter(|l| l.starts_with("  r")).map(str::to_owned).collect();
        assert!(!listing.is_empty(), "stdout: {stdout}");
        listings.push(listing);
    }
    // On this instance the exact optimum leaks less than the heuristic's
    // answer, so the two row assignments the CLI lists differ.
    assert_ne!(listings[0], listings[1], "--ilp still lists the heuristic's rows");
    let _ = std::fs::remove_file(nl);
}

#[test]
fn clean_difftest_exits_0() {
    let out = fbb(&["difftest", "--cases", "4", "--seed", "9"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("0 mismatches"), "stdout: {stdout}");
}

#[test]
fn injected_pivot_bug_exits_4_with_mismatch_details() {
    let out = fbb(&["difftest", "--cases", "48", "--seed", "3", "--inject-pivot-bug"]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 4, "stdout: {}", text(&out.stdout));
    assert!(stderr.contains("mismatch"), "stderr: {stderr}");
}

#[test]
fn lint_on_clean_workspace_exits_0() {
    let out = fbb(&["lint"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stdout: {stdout}\nstderr: {}", text(&out.stderr));
    assert!(stdout.contains("0 violation(s)"), "stdout: {stdout}");
}

#[test]
fn lint_fixtures_exits_5_with_planted_violations() {
    let out = fbb(&["lint", "--fixtures"]);
    let stdout = text(&out.stdout);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 5, "stdout: {stdout}\nstderr: {stderr}");
    // Every rule must appear in the armed run's output.
    for id in ["FA000", "FA001", "FA002", "FA003", "FA004", "FA005", "FA006"] {
        assert!(stdout.contains(id), "rule {id} missing from: {stdout}");
    }
    assert!(stderr.contains("violation"), "stderr: {stderr}");
}

#[test]
fn lint_json_is_machine_parsable_shape() {
    let out = fbb(&["lint", "--json"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("\"violation_count\": 0"), "stdout: {stdout}");
    assert!(stdout.contains("\"rule_counts\""), "stdout: {stdout}");
}

// ---------------------------------------------------------------------------
// Design-load failures: one normalized error path, always exit 1 with a
// `cannot load design PATH: reason` diagnostic — for a missing file, a
// directory, or any other filesystem refusal, across every subcommand that
// reads a design.

#[test]
fn solve_on_missing_design_exits_1_with_reason() {
    let out = fbb(&["solve", "--netlist", "/nonexistent/没有/x.fbb"]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 1, "stderr: {stderr}");
    assert!(stderr.contains("cannot load design"), "stderr: {stderr}");
    assert!(stderr.contains("/nonexistent/没有/x.fbb"), "stderr: {stderr}");
}

#[test]
fn solve_on_directory_exits_1_with_reason() {
    let dir = std::env::temp_dir().join(format!("fbb_cli_dir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = fbb(&["solve", "--netlist", dir.to_str().expect("utf8")]);
    let stderr = text(&out.stderr);
    let _ = std::fs::remove_dir(&dir);
    assert_eq!(code(&out), 1, "stderr: {stderr}");
    assert!(stderr.contains("cannot load design"), "stderr: {stderr}");
}

#[test]
fn sta_and_difftest_share_the_load_error_path() {
    for args in [
        vec!["sta", "--netlist", "/nonexistent/y.fbb"],
        vec!["difftest", "--db", "/nonexistent/y.fbb"],
        vec!["bench-serve", "--netlist", "/nonexistent/y.fbb"],
    ] {
        let out = fbb(&args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("cannot load design"),
            "args {args:?}: stderr: {stderr}"
        );
    }
}

#[test]
fn difftest_db_rejects_corruption_that_solve_would_trust() {
    // A compiled database with a flipped byte inside a section payload:
    // both decoders reject it (the container CRC catches it), and the
    // diagnostic still goes through the normalized load-error path.
    let nl = adder_netlist("corrupt");
    let db_path = std::env::temp_dir()
        .join(format!("fbb_cli_status_corrupt_{}.fbb", std::process::id()));
    let out = fbb(&[
        "compile",
        "--netlist",
        nl.to_str().expect("utf8"),
        "-o",
        db_path.to_str().expect("utf8"),
    ]);
    assert_eq!(code(&out), 0, "compile failed: {}", text(&out.stderr));
    let mut bytes = std::fs::read(&db_path).expect("compiled db readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&db_path, &bytes).expect("rewrite");
    for sub in [vec!["solve", "--netlist"], vec!["difftest", "--db"]] {
        let mut args = sub.clone();
        args.push(db_path.to_str().expect("utf8"));
        let out = fbb(&args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("cannot load design") || stderr.contains("checksum"),
            "args {args:?}: stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&nl);
}

// Time budgets: a value no `Duration` can hold is a usage error naming the
// flag (exit 1), never a panic (exit 101) — on every flag that takes one.

/// Runs `args` followed by `flag VALUE` for each unrepresentable budget and
/// checks the exit code and the message.
fn rejects_unrepresentable_budgets(args: &[&str], flag: &str) {
    for value in ["-1", "1e300", "nan"] {
        let mut full = args.to_vec();
        full.extend([flag, value]);
        let out = fbb(&full);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {full:?}: stderr: {stderr}");
        assert!(stderr.contains(&format!("bad {flag} \"{value}\"")), "args {full:?}: {stderr}");
    }
}

#[test]
fn solve_rejects_unrepresentable_ilp_time_limits() {
    let nl = adder_netlist("budget_flag");
    rejects_unrepresentable_budgets(
        &["solve", "--netlist", nl.to_str().expect("utf8"), "--rows", "9", "--ilp"],
        "--ilp-time-limit",
    );
    let _ = std::fs::remove_file(nl);
}

#[test]
fn difftest_db_rejects_unrepresentable_ilp_time_limits() {
    let db = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/adder8.fbb");
    rejects_unrepresentable_budgets(&["difftest", "--db", db, "--ilp"], "--ilp-time-limit");
}

#[test]
fn sweep_rejects_unrepresentable_time_limits() {
    rejects_unrepresentable_budgets(
        &["sweep", "--compose", "500", "--betas", "0.05", "--clusters", "2", "--levels", "3"],
        "--time-limit",
    );
}

// Flag values: a value that does not parse is a usage error naming the flag
// and the value (exit 1), never a silent fall back to the default. Each row
// pairs its bad value with an input the command cannot finish (a missing
// design, an unbindable address, an unknown Table 1 name), so a command
// that skipped the bad value stops on that input instead, without naming
// the flag.

#[test]
fn every_bad_numeric_flag_exits_1_and_names_it() {
    let missing = "/nonexistent/fbb_cli_status.nl";
    let missing_db = "/nonexistent/fbb_cli_status.fbb";
    let solve = ["solve", "--netlist", missing];
    let sta = ["sta", "--netlist", missing];
    let compile = ["compile", "--netlist", missing, "-o", "/nonexistent/out.fbb"];
    let sweep = ["sweep", "--netlist", missing];
    let serve = ["serve", "--addr", "127.0.0.1:99999"];
    let difftest = ["difftest", "--db", missing_db];
    let lint_models = ["lint", "--models", "--designs", "nonesuch"];
    let bench_serve = ["bench-serve", "--netlist", missing_db];
    let cases: &[(&[&str], &str, &str)] = &[
        (&solve, "--rows", "many"),
        (&solve, "--beta", "0,08"),
        (&solve, "--clusters", "two"),
        (&solve, "--ilp-time-limit", "soon"),
        (&solve, "--cleanup", "5%"),
        (&solve, "--mc", "-3"),
        (&sta, "--beta", "0,08"),
        (&compile, "--rows", "many"),
        (&compile, "--betas", "5%"),
        (&compile, "--clusters", "two"),
        (&sweep, "--rows", "many"),
        (&sweep, "--betas", "5%"),
        (&sweep, "--clusters", "two"),
        (&sweep, "--levels", "six"),
        (&sweep, "--node-limit", "1e3"),
        (&sweep, "--time-limit", "soon"),
        (&sweep, "--compose", "200k"),
        (&serve, "--workers", "four"),
        (&serve, "--cache-designs", "-1"),
        (&serve, "--queue-depth", "deep"),
        (&difftest, "--cases", "many"),
        (&difftest, "--seed", "0x1"),
        (&difftest, "--gap-limit", "60%"),
        (&difftest, "--ilp-time-limit", "soon"),
        (&lint_models, "--clusters", "three"),
        (&bench_serve, "--beta", "0,05"),
        (&bench_serve, "--clusters", "three"),
        (&bench_serve, "--connections", "four"),
        (&bench_serve, "--requests", "many"),
        // A flag with no value after it is as bad as a wrong value.
        (&solve, "--beta", ""),
        (&sweep, "--levels", ""),
        (&serve, "--workers", ""),
        (&difftest, "--cases", ""),
    ];
    for &(command, flag, value) in cases {
        let mut args = command.to_vec();
        args.push(flag);
        if !value.is_empty() {
            args.push(value);
        }
        let out = fbb(&args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "args {args:?}: stderr does not name the flag and value: {stderr}"
        );
    }
}

#[test]
fn sweep_design_places_the_requested_rows() {
    let out = fbb(&[
        "sweep", "--design", "c1355", "--rows", "5", "--betas", "0.05", "--clusters", "2",
        "--levels", "3",
    ]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("over c1355 (5 rows,"), "stdout: {stdout}");
}

#[test]
fn sweep_design_accepts_generator_names() {
    let out = fbb(&[
        "sweep", "--design", "adder:16", "--betas", "0.05", "--clusters", "2", "--levels", "3",
    ]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("over adder:16 ("), "stdout: {stdout}");
}

#[test]
fn table1_only_commands_reject_unknown_designs() {
    for args in [
        vec!["lint", "--models", "--designs", "nonesuch"],
        vec!["lint", "--models", "--designs", "c1355,nonesuch"],
        vec!["bench-serve", "--design", "nonesuch"],
    ] {
        let out = fbb(&args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(stderr.contains("unknown design nonesuch"), "args {args:?}: stderr: {stderr}");
    }
}

#[test]
fn generator_widths_below_the_minimum_exit_1() {
    for design in ["adder:0", "alu:0", "multiplier:1"] {
        let out = fbb(&["generate", "--design", design]);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "{design}: stderr: {stderr}");
        assert!(stderr.contains(&format!("bad width in {design}")), "{design}: stderr: {stderr}");
    }
}

#[test]
fn compile_reads_its_netlist_through_the_shared_load_path() {
    let out = fbb(&["compile", "--netlist", "/nonexistent/z.nl", "-o", "/nonexistent/z.fbb"]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 1, "stderr: {stderr}");
    assert!(stderr.contains("cannot load design /nonexistent/z.nl"), "stderr: {stderr}");
}
