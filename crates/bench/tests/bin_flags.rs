//! The experiment binaries read their numeric flags through the shared
//! reader (`fbb_bench::arg_parse`, `arg_seconds`): a bad value exits 1 and
//! names the flag and the value, never a silent default or a panic.

use std::process::Command;

#[test]
fn every_bad_numeric_flag_exits_1_and_names_it() {
    // Each row also names an unknown design, which the binary would panic
    // on (exit 101) if it read past its flags.
    let cases = [
        (env!("CARGO_BIN_EXE_runtime"), "--designs", "--beta", "0,10"),
        (env!("CARGO_BIN_EXE_runtime"), "--designs", "--clusters", "two"),
        (env!("CARGO_BIN_EXE_runtime"), "--designs", "--ilp-time-limit", "-1"),
        (env!("CARGO_BIN_EXE_table1"), "--designs", "--ilp-time-limit", "-1"),
        (env!("CARGO_BIN_EXE_yield_mc"), "--design", "--dies", "many"),
        (env!("CARGO_BIN_EXE_yield_mc"), "--design", "--seed", "0xD1E5"),
        (env!("CARGO_BIN_EXE_area_overhead"), "--design", "--cleanup", "3%"),
        (env!("CARGO_BIN_EXE_debug_paths"), "--design", "--beta", "0,05"),
        (env!("CARGO_BIN_EXE_debug_paths"), "--design", "--clusters", "three"),
        (env!("CARGO_BIN_EXE_granularity"), "--design", "--beta", "0,10"),
        (env!("CARGO_BIN_EXE_cluster_sweep"), "--design", "--beta", "0,05"),
        (env!("CARGO_BIN_EXE_leakage_sensitivity"), "--design", "--beta", "0,10"),
        (env!("CARGO_BIN_EXE_abb_bidirectional"), "--design", "--dies", "many"),
        (env!("CARGO_BIN_EXE_ssta_vs_tuning"), "--design", "--dies", "many"),
    ];
    for (exe, design_flag, flag, value) in cases {
        let out = Command::new(exe)
            .args([design_flag, "nonesuch", flag, value])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {flag} {value}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("bad {flag} \"{value}\"")),
            "{exe} {flag} {value}: stderr: {stderr}"
        );
    }
}
