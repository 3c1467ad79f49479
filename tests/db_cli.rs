//! The compile-once workflow through the real `fbb` binary: `compile`
//! produces a database that `solve`, `sta`, and `difftest --db` all accept,
//! the compiled solve is bit-identical to the cold pipeline, and corrupted
//! databases are rejected with exit 1 — never a panic, never a wrong answer.
//! That holds for a database whose CRCs match but whose tables disagree
//! with each other, too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fbb::db::{read_container, write_container, DesignDb, Encoder, SECTION_ORDER, SEC_NETL};
use fbb::netlist::Net;

fn fbb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbb")).args(args).output().expect("fbb binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn temp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fbb_db_cli_{tag}_{}.{ext}", std::process::id()))
}

/// Compiles `adder:16` to a fresh temp `.fbb` and returns its path.
fn compiled(tag: &str) -> PathBuf {
    let db = temp(tag, "fbb");
    let out = fbb(&["compile", "--design", "adder:16", "-o", db.to_str().expect("utf8")]);
    assert_eq!(code(&out), 0, "compile failed: {}", text(&out.stderr));
    db
}

#[test]
fn compiled_solve_matches_cold_solve_exactly() {
    // Cold: text netlist through the full pipeline. Same default placer
    // options on both paths, so every number must agree to the last digit.
    let nl = temp("cold", "nl");
    let out = fbb(&["generate", "--design", "adder:16", "--out", nl.to_str().expect("utf8")]);
    assert_eq!(code(&out), 0, "generate failed: {}", text(&out.stderr));
    let cold = fbb(&["solve", "--netlist", nl.to_str().expect("utf8"), "--beta", "0.05"]);
    assert_eq!(code(&cold), 0, "cold solve failed: {}", text(&cold.stderr));

    let db = compiled("solve");
    let warm = fbb(&["solve", "--netlist", db.to_str().expect("utf8"), "--beta", "0.05"]);
    assert_eq!(code(&warm), 0, "compiled solve failed: {}", text(&warm.stderr));
    assert_eq!(
        text(&cold.stdout),
        text(&warm.stdout),
        "compiled solve output differs from cold pipeline"
    );
    assert!(
        text(&warm.stderr).contains("loaded from database"),
        "compiled solve did not use the stored instance: {}",
        text(&warm.stderr)
    );

    let _ = std::fs::remove_file(nl);
    let _ = std::fs::remove_file(db);
}

#[test]
fn sta_reads_compiled_timing_tables() {
    let db = compiled("sta");
    let out = fbb(&["sta", "--netlist", db.to_str().expect("utf8"), "--beta", "0.05"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("compiled database:"), "stdout: {stdout}");
    assert!(stdout.contains("Dcrit ="), "stdout: {stdout}");
    let _ = std::fs::remove_file(db);
}

#[test]
fn difftest_db_oracle_checks_the_stored_instances() {
    let db = compiled("difftest");
    let out = fbb(&["difftest", "--db", db.to_str().expect("utf8")]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stdout: {stdout}\nstderr: {}", text(&out.stderr));
    assert!(stdout.contains("clean"), "stdout: {stdout}");
    let _ = std::fs::remove_file(db);
}

#[test]
fn truncated_database_exits_1_with_a_reason() {
    let db = compiled("truncate");
    let bytes = std::fs::read(&db).expect("compiled file exists");
    std::fs::write(&db, &bytes[..bytes.len() / 2]).expect("rewrite");
    let out = fbb(&["solve", "--netlist", db.to_str().expect("utf8")]);
    assert_eq!(code(&out), 1, "stdout: {}", text(&out.stdout));
    assert!(
        text(&out.stderr).contains("truncated"),
        "stderr should name the failure: {}",
        text(&out.stderr)
    );
    let _ = std::fs::remove_file(db);
}

#[test]
fn bit_flipped_database_exits_1_with_crc_mismatch() {
    let db = compiled("bitflip");
    let mut bytes = std::fs::read(&db).expect("compiled file exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&db, &bytes).expect("rewrite");
    let out = fbb(&["solve", "--netlist", db.to_str().expect("utf8")]);
    assert_eq!(code(&out), 1, "stdout: {}", text(&out.stdout));
    assert!(
        text(&out.stderr).to_lowercase().contains("crc"),
        "stderr should name the CRC: {}",
        text(&out.stderr)
    );
    let _ = std::fs::remove_file(db);
}

#[test]
fn compile_rejects_bad_arguments() {
    let out = fbb(&["compile", "--design", "adder:16"]);
    assert_eq!(code(&out), 1, "missing -o must be a usage error");
    let out = fbb(&["compile", "--design", "nonesuch", "-o", "/tmp/never.fbb"]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("unknown design"), "stderr: {}", text(&out.stderr));
    let db = temp("badgran", "fbb");
    let out = fbb(&[
        "compile",
        "--design",
        "adder:16",
        "-o",
        db.to_str().expect("utf8"),
        "--granularity",
        "county",
    ]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("unknown granularity"), "stderr: {}", text(&out.stderr));
}

#[test]
fn solve_falls_back_when_beta_not_compiled_in() {
    let db = compiled("fallback");
    // 0.07 was not compiled in; the CLI must pre-process from the stored
    // artifacts and still succeed.
    let out = fbb(&["solve", "--netlist", db.to_str().expect("utf8"), "--beta", "0.07"]);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(
        text(&out.stderr).contains("not compiled in"),
        "fallback should be announced: {}",
        text(&out.stderr)
    );
    let _ = std::fs::remove_file(db);
}

/// A net's record in the NETL section (docs/FORMAT.md §4.2).
fn net_record(net: &Net) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str(&net.name);
    e.varint(net.driver.map_or(0, |g| g.index() as u64 + 1));
    e.length(net.sinks.len());
    for &g in &net.sinks {
        e.varint(g.index() as u64);
    }
    e.into_vec()
}

/// Two CRC-valid copies of the database at `path` whose tables disagree:
/// (a) the first stored path delay is ×1.5, so its gates no longer sum to
/// it; (b) the first primary input's sink list also names a gate that does
/// not read that net. The encoder and the container writer recompute every
/// length and CRC, so only the semantic checks can tell.
fn inconsistent_copies(path: &Path) -> [(&'static str, Vec<u8>); 2] {
    let good = std::fs::read(path).expect("compiled file exists");
    let mut db = DesignDb::decode(&good).expect("own encoding decodes");

    let net = db.netlist.net(db.netlist.inputs()[0]).clone();
    let phantom = db
        .netlist
        .iter_gates()
        .map(|(id, _)| id)
        .find(|g| !net.sinks.contains(g))
        .expect("some gate does not read the first input");
    let mut listed = net.clone();
    listed.sinks.push(phantom);
    let (from, to) = (net_record(&net), net_record(&listed));
    let mut sections: Vec<Vec<u8>> =
        read_container(&good).expect("good container").iter().map(|s| s.to_vec()).collect();
    let netl = &mut sections[SECTION_ORDER.iter().position(|&id| id == SEC_NETL).expect("NETL")];
    let at = netl.windows(from.len()).position(|w| w == from).expect("net record found");
    assert_eq!(netl.windows(from.len()).rposition(|w| w == from), Some(at), "record is unique");
    netl.splice(at..at + from.len(), to);
    let phantom_sink = write_container(&sections);

    db.timing.paths[0].delay_ps *= 1.5;
    [("path_delay", db.encode_to_vec()), ("phantom_sink", phantom_sink)]
}

#[test]
fn solve_and_sta_refuse_databases_whose_tables_disagree() {
    let db = compiled("inconsistent");
    for (what, bytes) in inconsistent_copies(&db) {
        let bad = temp(what, "fbb");
        std::fs::write(&bad, bytes).expect("write");
        let reason = if what == "path_delay" { "path 0 stores" } else { "sink list disagrees" };
        for sub in ["sta", "solve"] {
            let out = fbb(&[sub, "--netlist", bad.to_str().expect("utf8"), "--beta", "0.05"]);
            let stderr = text(&out.stderr);
            assert_eq!(code(&out), 1, "{sub} on {what}: {}\n{stderr}", text(&out.stdout));
            assert!(
                stderr.contains("cannot load design") && stderr.contains(reason),
                "{sub} on {what}: {stderr}"
            );
        }
        let _ = std::fs::remove_file(bad);
    }
    let _ = std::fs::remove_file(db);
}
