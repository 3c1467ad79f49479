//! `serve_warm`: closed-loop traffic against the allocation daemon, which
//! runs as a child process of this binary (`daemon` mode) started exactly
//! as `fbb serve` starts it.
//!
//! One caller — this process, on one thread and one connection — sends a
//! SOLVE, waits for its reply, checks it, and sends the next, as an on-line
//! body-bias regulation loop that waits for each answer does. The loop is
//! closed because an open one measured the host more than the daemon: at a
//! few hundred requests per second both CPUs of the 2-CPU reference host
//! idle between requests, waking them took 1–4 ms at p90 (the sender's own
//! timer fired that late), and latency from the due time varied by 26–130%
//! between runs. Back to back, each request follows the previous reply
//! within microseconds.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use fbb_core::{single_bb, Granularity, TwoPassHeuristic};
use fbb_db::DesignDb;
use fbb_serve::protocol::{SolveReply, SolveRequest};
use fbb_serve::{design_hash, Client, ClientError, ServeConfig, Server};

use crate::designs;
use crate::gauge::Gauge;
use crate::json::Json;
use crate::layers::Telemetry;
use crate::metrics::{self, Outcome};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;

/// Daemon solver threads (`fbb serve --workers`); the host has 2 CPUs. Each
/// solve runs serially (`FBB_THREADS=1` in the daemon's environment), so
/// the two workers do not oversubscribe the two CPUs with per-solve threads.
pub const WORKERS: usize = 2;
/// Untraced set-ups before and after the traffic; the median of all is
/// reported. A set-up lasts about 90 ms, so a few taken at one moment
/// varied with whatever the host was doing then.
const SETUP_REPS: (usize, usize) = (4, 8);
/// A reply slower than this ends the run as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Traffic between two gauge readings (see `gauge`): a reading takes about
/// 1.2 ms, during which no request is in flight.
const GAUGE_EVERY: Duration = Duration::from_millis(100);
/// Share of `--seconds` taken by each of the two phases of a traced run.
const TRACED_PHASE_SHARE: f64 = 0.4;

const BETAS: [f64; 2] = [0.05, 0.10];
const CLUSTERS: [usize; 2] = [2, 3];
/// Loaded in set-up and never evicted: every SOLVE hits the cache.
const DESIGNS: [&str; 4] = ["c1355", "c3540", "c6288", "Industrial1"];

// ---------------------------------------------------------------------------
// The daemon child

/// Hidden `daemon` mode: binds, prints `listening ADDR`, and serves until
/// its stdin closes (the parent ended or asked it to stop), then prints its
/// telemetry if `--telemetry` was given.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let telemetry = args.iter().any(|a| a == "--telemetry");
    if telemetry {
        fbb_telemetry::reset();
        fbb_telemetry::enable();
    }
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        ..ServeConfig::default()
    };
    fbb_serve::install_signal_handlers();
    let server = match Server::bind(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("daemon: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let handle = server.shutdown_handle();
    let served = std::thread::scope(|s| {
        s.spawn(move || {
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
            handle.shutdown();
        });
        server.run()
    });
    if telemetry {
        print!("{}", Telemetry::capture().to_lines());
        let _ = std::io::stdout().flush();
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child. Dropping it closes its stdin, which drains it.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Address it listens on.
    pub addr: String,
}

impl Daemon {
    fn spawn(telemetry: bool) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("daemon").env("FBB_THREADS", "1");
        if telemetry {
            cmd.arg("--telemetry");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    /// Peak resident set of the daemon so far, MB.
    fn peak_rss_mb(&self) -> f64 {
        metrics::peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the daemon and returns the telemetry it printed on exit.
    fn stop(mut self) -> Result<Telemetry, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not drain within 60 s".to_owned()),
                Err(e) => return Err(format!("daemon: {e}")),
            }
        }
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("daemon output: {e}"))?;
        Ok(Telemetry::from_lines(&rest))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Inputs

/// A compiled design the daemon serves.
pub struct PoolDesign {
    /// Design name.
    pub name: &'static str,
    /// `.fbb` image.
    pub bytes: Vec<u8>,
    /// Its cache key.
    pub hash: u64,
}

/// One distinct request: design, β, and C.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// Index into the pool.
    pub design: usize,
    /// β (compiled into the design).
    pub beta: f64,
    /// Cluster budget C.
    pub clusters: usize,
}

/// The in-process answer a reply must match.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `f64::to_bits` of the leakage.
    pub bits: u64,
    /// Level per row.
    pub assignment: Vec<u64>,
    /// Leakage saving against the single-BB baseline, percent.
    pub savings_pct: f64,
}

/// Everything a phase of traffic reads.
struct Inputs<'a> {
    keys: &'a [Key],
    expected: &'a [Expected],
    pool: &'a [PoolDesign],
}

fn solve_request(key: &Key, pool: &[PoolDesign]) -> SolveRequest {
    SolveRequest {
        design_hash: pool[key.design].hash,
        granularity: 1, // row
        beta: key.beta,
        clusters: key.clusters as u64,
        budget_ms: 0,
        flags: 0, // the two-pass heuristic
    }
}

/// Checks one reply: it must equal the in-process answer bit for bit.
pub fn check_reply(expected: &Expected, reply: &SolveReply) -> Result<(), String> {
    if reply.leakage_nw.to_bits() != expected.bits || reply.assignment != expected.assignment {
        return Err(format!(
            "reply {:#018x} differs from the in-process answer {:#018x}",
            reply.leakage_nw.to_bits(),
            expected.bits
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The closed-loop caller

/// One request answered correctly.
#[derive(Debug, Clone, Copy)]
pub struct Answered {
    /// Index into the key table.
    pub key: usize,
    /// When it was written.
    pub sent: Instant,
    /// When its reply was read.
    pub done: Instant,
}

impl Answered {
    /// Round trip, ms, at the reference speed.
    pub fn ms(&self, gauge: &Gauge) -> f64 {
        gauge.ms(self.sent, self.done)
    }
}

/// Sends SOLVEs over one new connection to `addr`, one in flight, in rounds
/// that ask every key once in a seeded order, until `seconds` have passed
/// (at least one round, and whole rounds only, so every key is asked
/// equally often), reading `gauge` between rounds. Each request counts in
/// `out`; a non-OK reply or one that differs from the in-process answer
/// fails it. Returns the requests answered correctly, in order.
///
/// # Errors
///
/// The connection failed, so no later request could be answered.
fn drive(
    addr: &str,
    inputs: &Inputs<'_>,
    rng: &mut Rng,
    seconds: f64,
    gauge: &mut Gauge,
    out: &mut Outcome,
) -> Result<Vec<Answered>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .stream_mut()
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut answered = Vec::new();
    let mut order: Vec<usize> = (0..inputs.keys.len()).collect();
    let start = Instant::now();
    loop {
        gauge.tick_every(GAUGE_EVERY);
        rng.shuffle(&mut order);
        for &key in &order {
            out.attempted += 1;
            let sent = Instant::now();
            let reply = client.solve(solve_request(&inputs.keys[key], inputs.pool));
            let done = Instant::now();
            match reply {
                Ok(reply) => match check_reply(&inputs.expected[key], &reply) {
                    Ok(()) => answered.push(Answered { key, sent, done }),
                    Err(e) => out.fail(format!("key {key}: {e}")),
                },
                Err(ClientError::Remote { code, message }) => {
                    out.fail(format!("key {key}: solve answered code {code}: {message}"))
                }
                Err(e) => {
                    out.fail(format!("key {key}: {e}"));
                    return Err(format!("connection lost: {e}"));
                }
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            gauge.tick();
            return Ok(answered);
        }
    }
}

/// Round trips of `answered` grouped by key, ms at the reference speed.
fn by_key_ms(answered: &[Answered], keys: usize, gauge: &Gauge) -> Vec<Vec<f64>> {
    let mut by_key = vec![Vec::new(); keys];
    for a in answered {
        by_key[a.key].push(a.ms(gauge));
    }
    by_key
}

// ---------------------------------------------------------------------------
// The workload

fn build_pool(names: &[&'static str], tr: &mut Tracer) -> Vec<PoolDesign> {
    names
        .iter()
        .map(|&name| {
            let d = designs::table1(name, tr);
            let bytes = designs::compile(&d, &BETAS, tr);
            PoolDesign {
                name,
                hash: design_hash(&bytes),
                bytes,
            }
        })
        .collect()
}

/// Runs `reps` (at least one) set-ups — compile the designs, start a
/// daemon, LOAD them — between gauge readings, pushing each one's interval
/// onto `setups`; stops all but the last daemon and returns the last pool
/// and daemon.
fn set_up(
    reps: usize,
    tr: &mut Tracer,
    gauge: &mut Gauge,
    setups: &mut Vec<(Instant, Instant)>,
) -> Result<(Vec<PoolDesign>, Daemon), String> {
    let mut last: Option<(Vec<PoolDesign>, Daemon)> = None;
    for _ in 0..reps.max(1) {
        if let Some((_, daemon)) = last.take() {
            daemon.stop()?;
        }
        gauge.tick();
        let t = Instant::now();
        let pool = build_pool(&DESIGNS, tr);
        let daemon = start_daemon(&pool, false)?;
        setups.push((t, Instant::now()));
        last = Some((pool, daemon));
    }
    gauge.tick();
    Ok(last.expect("at least one set-up"))
}

/// Starts a daemon and LOADs the pool.
fn start_daemon(pool: &[PoolDesign], telemetry: bool) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(telemetry)?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    for p in pool {
        client
            .load_bytes(&p.bytes)
            .map_err(|e| format!("load {}: {e}", p.name))?;
    }
    Ok(daemon)
}

/// The distinct requests with their in-process answers: each design decoded
/// exactly as the daemon decodes a LOAD.
fn answers(pool: &[PoolDesign], tr: &mut Tracer) -> Result<(Vec<Key>, Vec<Expected>), String> {
    let mut keys = Vec::new();
    let mut expected = Vec::new();
    for (design, p) in pool.iter().enumerate() {
        let db = tr
            .time("db.decode_verified", 0, || {
                DesignDb::decode_verified(&p.bytes)
            })
            .map_err(|e| format!("{}: {e}", p.name))?;
        for beta in BETAS {
            for clusters in CLUSTERS {
                let pre = db
                    .preprocessed_for(Granularity::Row, beta, clusters)
                    .ok_or_else(|| format!("{}: beta {beta} not compiled", p.name))?;
                let base = single_bb(&pre).map_err(|e| e.to_string())?;
                let sol = TwoPassHeuristic::default()
                    .solve(&pre)
                    .map_err(|e| e.to_string())?;
                keys.push(Key {
                    design,
                    beta,
                    clusters,
                });
                expected.push(Expected {
                    bits: sol.leakage_nw.to_bits(),
                    assignment: sol.assignment.iter().map(|&l| l as u64).collect(),
                    savings_pct: sol.savings_vs(&base),
                });
            }
        }
    }
    Ok((keys, expected))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(seed, seconds, traced, &mut out) {
        out.attempted = out.attempted.max(1);
        out.fail(e);
    }
    out
}

fn run_inner(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::new(traced);
    let mut gauge = Gauge::new();

    let mut setups = Vec::new();
    let before = if traced { 1 } else { SETUP_REPS.0 };
    let (pool, daemon) = set_up(before, &mut tr, &mut gauge, &mut setups)?;
    let (keys, expected) = answers(&pool, &mut tr)?;
    let inputs = Inputs {
        keys: &keys,
        expected: &expected,
        pool: &pool,
    };
    let savings = stats::mean(&expected.iter().map(|e| e.savings_pct).collect::<Vec<_>>());
    let mut rng = Rng::new(seed, 2);

    if !traced {
        let answered = drive(&daemon.addr, &inputs, &mut rng, seconds, &mut gauge, out)?;
        let rss = daemon.peak_rss_mb();
        daemon.stop()?;
        set_up(SETUP_REPS.1, &mut tr, &mut gauge, &mut setups)?
            .1
            .stop()?;
        // Every time at the reference speed (see `gauge`).
        let rtt: Vec<f64> = answered.iter().map(|a| a.ms(&gauge)).collect();
        let by_key = by_key_ms(&answered, keys.len(), &gauge);
        let setup_s: Vec<f64> = setups.iter().map(|&(a, b)| gauge.ms(a, b) / 1e3).collect();
        out.set("setup_s", stats::median(&setup_s));
        out.set("ops_per_s", stats::round_rate(&by_key));
        out.set("op_typical_ms", stats::typical(&by_key));
        out.set("op_tail_ms", stats::tail(&by_key));
        out.set("peak_rss_mb", rss);
        out.set("savings_pct", savings);
        out.extra.push((
            "latency_ms".into(),
            Json::Obj(
                [50.0, 90.0, 99.0, 99.9]
                    .iter()
                    .map(|&p| (format!("p{p}"), Json::Num(stats::percentile(&rtt, p))))
                    .collect(),
            ),
        ));
        out.extra.push((
            "key_median_ms".into(),
            Json::Arr(by_key.iter().map(|v| Json::Num(stats::median(v))).collect()),
        ));
        let intervals: Vec<_> = answered.iter().map(|a| (a.sent, a.done)).collect();
        out.extra.push(("gauge".into(), gauge.to_json(&intervals)));
        // Each answered request's key, as its index in `key_median_ms`.
        let keys_asked: Vec<f64> = answered.iter().map(|a| a.key as f64).collect();
        out.extra.push(("op_keys".into(), Json::nums(&keys_asked)));
        return Ok(());
    }

    // Traced: an untraced phase on a plain daemon as the overhead base, a
    // traced phase on a daemon with its telemetry on, then in-process
    // replays of the daemon's per-request work on every key.
    let share = seconds * TRACED_PHASE_SHARE;
    let base = drive(&daemon.addr, &inputs, &mut rng, share, &mut gauge, out)?;
    daemon.stop()?;
    let daemon = start_daemon(&pool, true)?;
    let measured = drive(&daemon.addr, &inputs, &mut rng, share, &mut gauge, out)?;
    let telemetry = daemon.stop()?;
    for (i, a) in measured.iter().enumerate() {
        tr.record("serve.solve", i as u64 + 1, a.sent, a.done);
    }

    let dbs = pool
        .iter()
        .map(|p| DesignDb::decode_verified(&p.bytes))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    // (start of preprocessed_for, start of the heuristic, its end) per key.
    let mut replays = vec![Vec::new(); keys.len()];
    for (k, key) in keys.iter().enumerate() {
        let db = &dbs[key.design];
        gauge.tick();
        for _ in 0..5 {
            let t = Instant::now();
            let pre = tr.time("db.preprocessed_for", k as u64, || {
                db.preprocessed_for(Granularity::Row, key.beta, key.clusters)
            });
            let pre = pre.ok_or("key not compiled")?;
            let h = Instant::now();
            let _ = tr.time("core.heuristic", k as u64, || {
                TwoPassHeuristic::default().solve(&pre)
            });
            replays[k].push((t, h, Instant::now()));
        }
    }
    gauge.tick();
    // Every time at the reference speed (see `gauge`).
    let pf_us: Vec<Vec<f64>> = replays
        .iter()
        .map(|r| r.iter().map(|&(t, h, _)| gauge.ms(t, h) * 1e3).collect())
        .collect();
    let heur_ms: Vec<Vec<f64>> = replays
        .iter()
        .map(|r| r.iter().map(|&(_, h, e)| gauge.ms(h, e)).collect())
        .collect();
    // Per key: the median round trip, and what of it the in-process work
    // does not explain.
    let rtt_by_key = by_key_ms(&measured, keys.len(), &gauge);
    let rtt_us: Vec<f64> = rtt_by_key.iter().map(|v| stats::median(v) * 1e3).collect();
    let overhead_us: Vec<f64> = (0..keys.len())
        .map(|k| rtt_us[k] - stats::median(&pf_us[k]) - stats::median(&heur_ms[k]) * 1e3)
        .collect();

    crate::layers::set_setup_metrics(&tr, 1, out);
    out.set(
        "core.heuristic_ms",
        stats::mean(&heur_ms.iter().map(|v| stats::median(v)).collect::<Vec<_>>()),
    );
    out.set(
        "db.preprocessed_for_us",
        stats::mean(&pf_us.iter().map(|v| stats::median(v)).collect::<Vec<_>>()),
    );
    out.set("db.decode_verified_ms", tr.mean_ms("db.decode_verified"));
    out.set(
        "db.bytes",
        stats::mean(
            &pool
                .iter()
                .map(|p| p.bytes.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("serve.solve_rtt_us", stats::mean(&rtt_us));
    out.set("serve.overhead_us", stats::mean(&overhead_us));
    out.set("core.heur_savings_pct", savings);
    out.set(
        "trace.overhead_pct",
        (stats::typical(&rtt_by_key) / stats::typical(&by_key_ms(&base, keys.len(), &gauge)) - 1.0)
            * 100.0,
    );
    out.extra.push((
        "daemon_counters".into(),
        Json::Obj(
            telemetry
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                .collect(),
        ),
    ));
    let (spans, summary) = tr.to_json();
    out.extra.push(("span_summary".into(), summary));
    out.extra.push(("spans".into(), spans));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-process daemon on an ephemeral port with the pool loaded,
    /// drained on drop.
    struct InProcess {
        addr: String,
        handle: fbb_serve::ShutdownHandle,
        join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    }

    impl InProcess {
        fn start(pool: &[PoolDesign]) -> Self {
            let server = Server::bind(&ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            })
            .unwrap();
            let addr = server.local_addr().to_string();
            let handle = server.shutdown_handle();
            let join = Some(std::thread::spawn(move || server.run()));
            let mut client = Client::connect(&addr).unwrap();
            for p in pool {
                client.load_bytes(&p.bytes).unwrap();
            }
            InProcess { addr, handle, join }
        }
    }

    impl Drop for InProcess {
        fn drop(&mut self) {
            self.handle.shutdown();
            if let Some(j) = self.join.take() {
                j.join().unwrap().unwrap();
            }
        }
    }

    fn fixture() -> (Vec<PoolDesign>, Vec<Key>, Vec<Expected>) {
        let pool = build_pool(&["c1355"], &mut Tracer::new(false));
        let (keys, expected) = answers(&pool, &mut Tracer::new(false)).unwrap();
        (pool, keys, expected)
    }

    #[test]
    fn whole_rounds_ask_every_key_equally_often() {
        let (pool, keys, expected) = fixture();
        let server = InProcess::start(&pool);
        let inputs = Inputs {
            keys: &keys,
            expected: &expected,
            pool: &pool,
        };
        let mut out = Outcome::default();
        let mut gauge = Gauge::new();
        let answered = drive(
            &server.addr,
            &inputs,
            &mut Rng::new(1, 9),
            0.05,
            &mut gauge,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(out.attempted, answered.len() as u64);
        // The gauge was read before the first round and after the last.
        let readings = gauge.to_json(&[]);
        assert!(
            readings
                .get("readings")
                .and_then(Json::as_array)
                .unwrap()
                .len()
                >= 2
        );
        let by_key = by_key_ms(&answered, keys.len(), &gauge);
        let rounds = by_key[0].len();
        assert!(rounds >= 1);
        assert!(by_key.iter().all(|v| v.len() == rounds));
        assert!(answered
            .iter()
            .all(|a| a.done >= a.sent && a.ms(&gauge) >= 0.0));
        // Requests go one at a time: each is sent after the previous reply.
        assert!(answered.windows(2).all(|w| w[1].sent >= w[0].done));
    }

    #[test]
    fn the_order_of_requests_is_seeded() {
        let (pool, keys, expected) = fixture();
        let server = InProcess::start(&pool);
        let inputs = Inputs {
            keys: &keys,
            expected: &expected,
            pool: &pool,
        };
        let order = |seed: u64| -> Vec<usize> {
            let mut out = Outcome::default();
            drive(
                &server.addr,
                &inputs,
                &mut Rng::new(seed, 2),
                0.0,
                &mut Gauge::new(),
                &mut out,
            )
            .unwrap()
            .iter()
            .map(|a| a.key)
            .collect()
        };
        // One round each: the same seed repeats its order, others differ.
        assert_eq!(order(4), order(4));
        assert!((5..10).any(|seed| order(seed) != order(4)));
    }

    #[test]
    fn a_planted_mismatch_fails_closed() {
        let (pool, keys, mut expected) = fixture();
        let server = InProcess::start(&pool);
        expected[0].bits ^= 1; // one flipped bit in one expected answer
        let inputs = Inputs {
            keys: &keys,
            expected: &expected,
            pool: &pool,
        };
        let mut out = Outcome::default();
        let answered = drive(
            &server.addr,
            &inputs,
            &mut Rng::new(3, 9),
            0.0,
            &mut Gauge::new(),
            &mut out,
        )
        .unwrap();
        // One round: key 0 failed, every other key was answered.
        assert_eq!(out.attempted, keys.len() as u64);
        assert_eq!(out.failed, 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("differs from the in-process answer"));
        assert!(answered.iter().all(|a| a.key != 0));
        assert_eq!(answered.len(), keys.len() - 1);
        assert!(!out.correct());
        assert_ne!(out.exit_code(), 0);
        let line = out.result_line(metrics::spec(), false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn a_design_that_is_not_loaded_fails_the_request() {
        let (pool, keys, expected) = fixture();
        let server = InProcess::start(&[]);
        let inputs = Inputs {
            keys: &keys,
            expected: &expected,
            pool: &pool,
        };
        let mut out = Outcome::default();
        let answered = drive(
            &server.addr,
            &inputs,
            &mut Rng::new(2, 9),
            0.0,
            &mut Gauge::new(),
            &mut out,
        )
        .unwrap();
        assert!(answered.is_empty());
        assert_eq!(out.failed, keys.len() as u64);
        assert!(!out.correct());
    }

    #[test]
    fn a_lost_daemon_ends_the_phase_with_an_error() {
        let (pool, keys, expected) = fixture();
        let server = InProcess::start(&pool);
        let addr = server.addr.clone();
        drop(server);
        let inputs = Inputs {
            keys: &keys,
            expected: &expected,
            pool: &pool,
        };
        let mut out = Outcome::default();
        assert!(drive(
            &addr,
            &inputs,
            &mut Rng::new(2, 9),
            0.0,
            &mut Gauge::new(),
            &mut out
        )
        .is_err());
    }
}
