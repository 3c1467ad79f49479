//! `fbb-benchmark`: the repository benchmark (see README.md).
//!
//! ```text
//! fbb-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! fbb-benchmark compare A_DIR B_DIR
//! ```
//!
//! `run` measures one workload (every workload of `BENCHMARK.json` without
//! `--workload`), checks every answer, prints each metric with its unit and,
//! as the last line, one JSON object, writes a result file, and exits
//! non-zero if any check failed.

mod compare;
mod designs;
mod gauge;
mod json;
mod layers;
mod metrics;
mod rng;
mod serve;
mod stats;
mod sweep;
mod table1;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;

const USAGE: &str = "usage: fbb-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
       fbb-benchmark compare A_DIR B_DIR";
const DEFAULT_SECONDS: f64 = 20.0;
/// CPU-bound spin before each workload (see [`warm_up`]).
const WARM_UP: Duration = Duration::from_millis(500);

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("compare") => compare(rest),
        Some("daemon") => serve::daemon_main(rest),
        _ => usage("a subcommand is required"),
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("fbb-benchmark: {why}\n{USAGE}");
    ExitCode::from(2)
}

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: metrics::spec().workloads.clone(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: manifest_dir().join("results"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                if !metrics::spec().workloads.iter().any(|w| w == v) {
                    return Err(format!("unknown workload {v:?}"));
                }
                parsed.workloads = vec![v.to_owned()];
                i += 1;
            }
            ("--seed", Some(v)) => {
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                i += 1;
            }
            ("--seconds", Some(v)) => {
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
                i += 1;
            }
            ("--trace", Some(v @ ("0" | "1"))) => {
                parsed.traced = v == "1";
                i += 1;
            }
            ("--trace", _) => parsed.traced = true,
            ("--out", Some(v)) => {
                parsed.out = PathBuf::from(v);
                i += 1;
            }
            (other, _) => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    // Solves run serially, in process as in the daemon child: on the
    // 2-CPU reference host a parallel sweep was 7% slower and varied more
    // from run to run.
    std::env::set_var("FBB_THREADS", "1");
    let spec = metrics::spec();
    let mut code = 0u8;
    for workload in &a.workloads {
        eprintln!(
            "fbb-benchmark: {workload} seed {} for {} s{}",
            a.seed,
            a.seconds,
            if a.traced { ", traced" } else { "" }
        );
        warm_up();
        let started = Instant::now();
        let outcome = match workload.as_str() {
            "table1_flow" => table1::run(a.seed, a.seconds, a.traced),
            "sweep_200k" => sweep::run(a.seed, a.seconds, a.traced),
            "serve_warm" => serve::run(a.seed, a.seconds, a.traced),
            other => {
                eprintln!("fbb-benchmark: BENCHMARK.json names {other:?}, which has no code");
                return ExitCode::from(2);
            }
        };
        let wall_s = started.elapsed().as_secs_f64();
        let line = outcome.result_line(spec, a.traced);
        if let Err(e) = write_result(&a, workload, &outcome, &line, wall_s) {
            eprintln!("fbb-benchmark: cannot write the result file: {e}");
        }
        print!("{}", outcome.table(spec, workload, a.seed, a.traced));
        println!("{}", line.to_string_compact());
        code = code.max(outcome.exit_code());
    }
    ExitCode::from(code)
}

/// Keeps a CPU busy for [`WARM_UP`]: on the reference host the first
/// 0.2 s of work after the CPUs idled ran up to three times slower, which
/// showed in the set-up times.
fn warm_up() {
    let until = Instant::now() + WARM_UP;
    let mut x = 0u64;
    while Instant::now() < until {
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
    }
    std::hint::black_box(x);
}

/// Writes `<out>/<workload>-seed<N>-trace<0|1>.json`: the printed result
/// plus the host fingerprint, failures, and workload records (spans in
/// traced runs).
fn write_result(
    a: &RunArgs,
    workload: &str,
    outcome: &metrics::Outcome,
    line: &Json,
    wall_s: f64,
) -> std::io::Result<()> {
    let mut fingerprint = metrics::host_fingerprint(&manifest_dir().join(".."));
    fingerprint.push(("seed".into(), Json::Num(a.seed as f64)));
    fingerprint.push(("seconds".into(), Json::Num(a.seconds)));
    fingerprint.push(("daemon_workers".into(), Json::Num(serve::WORKERS as f64)));
    let mut doc = vec![
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        ("seed".to_owned(), Json::Num(a.seed as f64)),
        ("trace".to_owned(), Json::Num(f64::from(u8::from(a.traced)))),
        ("wall_s".to_owned(), Json::Num(wall_s)),
    ];
    if let Json::Obj(members) = line {
        doc.extend(members.iter().cloned());
    }
    doc.push((
        "failures".to_owned(),
        Json::Arr(
            outcome
                .failures
                .iter()
                .map(|f| Json::Str(f.clone()))
                .collect(),
        ),
    ));
    doc.push(("fingerprint".to_owned(), Json::Obj(fingerprint)));
    doc.extend(outcome.extra.iter().cloned());
    std::fs::create_dir_all(&a.out)?;
    let path = a.out.join(format!(
        "{workload}-seed{}-trace{}.json",
        a.seed,
        u8::from(a.traced)
    ));
    std::fs::write(path, Json::Obj(doc).to_string_compact() + "\n")
}

fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare takes two result directories");
    };
    match compare::run(&metrics::spec().end_to_end, Path::new(a), Path::new(b)) {
        Ok(verdicts) if verdicts.contains(&compare::Verdict::Regressed) => ExitCode::from(1),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fbb-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}
