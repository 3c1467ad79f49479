//! Torture suite for the `fbb serve` wire protocol and daemon, plus the
//! differential property tying the daemon's solve path to the CLI's.
//!
//! The adversarial half drives a live server over real sockets with the
//! kinds of input a framed TCP protocol actually meets: truncated frames,
//! oversized length prefixes, abrupt mid-frame disconnects, unknown
//! opcodes, and foreign protocol versions. The contract under test is the
//! one in `docs/PROTOCOL.md` §2: a framing violation is answered with one
//! diagnostic response carrying request id 0, then the connection is
//! closed — and the daemon itself survives to serve the next client.
//!
//! The differential half is the warm-path oracle: for randomly shaped
//! compiled designs, a solve through the daemon must be bit-identical
//! (leakage compared via `f64::to_bits`, assignments verbatim) to the
//! CLI's own warm path — `DesignDb::decode_fast` + `preprocessed_for` +
//! `TwoPassHeuristic` — because it *is* the same code; this test keeps it
//! that way.

use std::io::Write;
use std::net::{Shutdown, SocketAddr};

use fbb_core::{Granularity, TwoPassHeuristic};
use fbb_db::DesignDb;
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};
use fbb_serve::protocol::{self, code, op};
use fbb_serve::server::{ServeConfig, Server, ShutdownHandle};
use fbb_serve::{Client, Request, ResponseBody, SolveRequest};
use proptest::prelude::*;

/// A running daemon on an ephemeral port, shut down and join-checked by
/// [`RunningServer::stop`] (or best-effort on drop if a test panics first).
struct RunningServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    fn start(workers: usize) -> Self {
        let config = ServeConfig { workers, ..ServeConfig::default() };
        let server = Server::bind(&config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        RunningServer { addr, handle, join: Some(join) }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr.to_string()).expect("connect to test daemon")
    }

    /// Graceful drain; asserts the accept loop exited cleanly.
    fn stop(mut self) {
        self.handle.shutdown();
        let join = self.join.take().expect("server not yet stopped");
        join.join().expect("server thread panicked").expect("server run failed");
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Compiles a ripple adder of the given width into `.fbb` bytes.
fn compiled_design(width: u32) -> Vec<u8> {
    let netlist =
        generators::ripple_adder(&format!("serve:adder:{width}"), width, false)
            .expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(4))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    DesignDb::build(
        &format!("serve:adder:{width}"),
        &netlist,
        &placement,
        &chara,
        &[0.05],
        &[Granularity::Row],
        3,
    )
    .expect("compilable")
    .encode_to_vec()
}

/// Reads the single diagnostic frame the server sends for a framing
/// violation and asserts the §2 contract: non-OK code, request id 0.
fn expect_framing_rejection(client: &mut Client) {
    let payload = protocol::read_frame(client.stream_mut())
        .expect("diagnostic frame readable")
        .expect("server answers before closing");
    // Framing diagnostics carry a Message body regardless of opcode.
    let resp = protocol::decode_response(&payload, op::PING).expect("diagnostic decodes");
    assert_eq!(resp.request_id, 0, "framing violations are answered with id 0");
    assert_eq!(resp.code, code::ERROR);
    assert!(matches!(resp.body, ResponseBody::Message(_)));
    // ... and then the connection is closed.
    let eof = protocol::read_frame(client.stream_mut()).expect("clean close after diagnostic");
    assert!(eof.is_none(), "server hangs up after a framing violation");
}

#[test]
fn oversized_length_prefix_is_rejected_then_connection_closed() {
    let server = RunningServer::start(1);
    let mut client = server.connect();
    // Claim a frame far beyond MAX_FRAME_LEN; the server must refuse to
    // allocate it.
    let huge = (protocol::MAX_FRAME_LEN + 1).to_le_bytes();
    client.stream_mut().write_all(&huge).expect("prefix sent");
    expect_framing_rejection(&mut client);
    server.stop();
}

#[test]
fn truncated_frame_is_rejected_then_connection_closed() {
    let server = RunningServer::start(1);
    let mut client = server.connect();
    // Promise 64 bytes, deliver 10, then close our write half: the server
    // sees EOF mid-frame, which is a framing error, not an idle close.
    client.stream_mut().write_all(&64u32.to_le_bytes()).expect("prefix sent");
    client.stream_mut().write_all(&[0u8; 10]).expect("partial payload sent");
    client.stream_mut().shutdown(Shutdown::Write).expect("half-close");
    expect_framing_rejection(&mut client);
    server.stop();
}

#[test]
fn unknown_opcode_and_foreign_version_are_rejected() {
    let server = RunningServer::start(1);
    for frame in [
        // Valid header shape, opcode 0x7F does not exist.
        vec![protocol::PROTOCOL_VERSION, 0x7F, 9, 0, 0, 0, 0, 0, 0, 0],
        // Version 2 of the protocol has never been issued.
        vec![2u8, op::PING, 9, 0, 0, 0, 0, 0, 0, 0],
        // Shorter than the fixed header.
        vec![protocol::PROTOCOL_VERSION, op::PING, 9],
    ] {
        let mut client = server.connect();
        protocol::write_frame(client.stream_mut(), &frame).expect("frame sent");
        expect_framing_rejection(&mut client);
    }
    server.stop();
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_serving() {
    let server = RunningServer::start(1);
    {
        // Open a frame, vanish without finishing it.
        let mut rude = server.connect();
        rude.stream_mut().write_all(&1024u32.to_le_bytes()).expect("prefix sent");
        rude.stream_mut().write_all(&[0u8; 100]).expect("partial payload sent");
        // Dropping the client closes the socket abruptly.
    }
    // The daemon must shrug it off and answer the next client.
    let mut polite = server.connect();
    polite.ping().expect("daemon alive after a mid-frame disconnect");
    server.stop();
}

#[test]
fn interleaved_requests_on_one_connection_answer_every_id() {
    let server = RunningServer::start(2);
    let bytes = compiled_design(4);
    let mut client = server.connect();
    let info = client.load_bytes(&bytes).expect("design loads");

    // Fire a burst of pipelined requests — solves interleaved with pings
    // and a stats probe — without reading a single response, then drain.
    // Solve responses may arrive out of submission order (worker pool);
    // the ids must still map 1:1 onto what we sent.
    let solve = SolveRequest {
        design_hash: info.design_hash,
        granularity: 1, // row
        beta: 0.05,
        clusters: 3,
        budget_ms: 0,
        flags: 0,
    };
    let mut expected_ids = Vec::new();
    for i in 0..9 {
        let req = match i % 3 {
            0 => Request::Solve(solve.clone()),
            1 => Request::Ping,
            _ => Request::Stats,
        };
        expected_ids.push(client.send(&req).expect("pipelined send"));
    }
    let mut answered = Vec::new();
    let mut solved_leakage_bits = Vec::new();
    for _ in 0..expected_ids.len() {
        let resp = client.recv().expect("pipelined recv");
        assert_eq!(resp.code, code::OK, "body: {:?}", resp.body);
        if let ResponseBody::Solved(reply) = &resp.body {
            solved_leakage_bits.push(reply.leakage_nw.to_bits());
        }
        answered.push(resp.request_id);
    }
    answered.sort_unstable();
    let mut expected_sorted = expected_ids.clone();
    expected_sorted.sort_unstable();
    assert_eq!(answered, expected_sorted, "every request answered exactly once");

    // All three solves hit the same cached design: identical results.
    assert_eq!(solved_leakage_bits.len(), 3);
    assert!(
        solved_leakage_bits.windows(2).all(|w| w[0] == w[1]),
        "same design, same request, same bits"
    );
    server.stop();
}

#[test]
fn solve_before_load_is_a_clean_error_not_a_hangup() {
    let server = RunningServer::start(1);
    let mut client = server.connect();
    let err = client
        .solve(SolveRequest {
            design_hash: 0xDEAD_BEEF,
            granularity: 1,
            beta: 0.05,
            clusters: 3,
            budget_ms: 0,
            flags: 0,
        })
        .expect_err("unloaded design must be refused");
    match err {
        fbb_serve::ClientError::Remote { code: c, message } => {
            assert_eq!(c, code::ERROR);
            assert!(message.contains("not loaded"), "message: {message}");
        }
        other => panic!("expected a remote refusal, got {other}"),
    }
    // The connection survives an application-level error.
    client.ping().expect("connection still usable");
    server.stop();
}

/// A row SOLVE of the cached design `design_hash` at β = 0.05 with cluster
/// budget `clusters`.
fn row_solve(design_hash: u64, clusters: u64) -> SolveRequest {
    SolveRequest { design_hash, granularity: 1, beta: 0.05, clusters, budget_ms: 0, flags: 0 }
}

#[test]
fn huge_cluster_budget_answers_like_c_equals_p() {
    // C = 2^40 once sized the heuristic's candidate list and aborted the
    // daemon on a failed 26 TB allocation; a budget past P is vacuous.
    let bytes = compiled_design(4);
    let db = DesignDb::decode_fast(&bytes).expect("own encoding decodes");
    let levels = db.preprocessed_for(Granularity::Row, 0.05, 1).expect("compiled in").levels();
    let pre = db.preprocessed_for(Granularity::Row, 0.05, levels).expect("compiled in");
    let local = TwoPassHeuristic.solve(&pre).expect("adder is compensable");

    let server = RunningServer::start(1);
    let mut client = server.connect();
    let info = client.load_bytes(&bytes).expect("design loads");
    let reply = client.solve(row_solve(info.design_hash, 1 << 40)).expect("huge C answers OK");
    assert_eq!(reply.leakage_nw.to_bits(), local.leakage_nw.to_bits());
    assert_eq!(reply.clusters, local.clusters as u64);
    assert_eq!(reply.assignment, local.assignment.iter().map(|&l| l as u64).collect::<Vec<_>>());
    // The daemon is still serving.
    client.ping().expect("connection still usable");
    server.stop();
}

#[test]
fn zero_cluster_budget_names_the_budget() {
    let server = RunningServer::start(1);
    let mut client = server.connect();
    let info = client.load_bytes(&compiled_design(4)).expect("design loads");
    match client.solve(row_solve(info.design_hash, 0)).expect_err("C = 0 must be refused") {
        fbb_serve::ClientError::Remote { code: c, message } => {
            assert_eq!(c, code::ERROR);
            assert!(
                message.contains("cluster budget C = 0") && message.contains("C >= 1"),
                "message: {message}"
            );
            assert!(!message.contains("beta"), "C = 0 is not a beta problem: {message}");
        }
        other => panic!("expected a remote refusal, got {other}"),
    }
    client.ping().expect("connection still usable");
    server.stop();
}

/// The value of the STATS counter `name` on `client`'s daemon.
fn stat(client: &mut Client, name: &str) -> u64 {
    let pairs = client.stats().expect("stats answer");
    pairs.iter().find(|(key, _)| key == name).map(|&(_, value)| value).expect("counter listed")
}

#[test]
fn shutdown_during_an_inline_solve_still_answers_it() {
    // A 16x16 array multiplier over 48 rows: its heuristic solve takes
    // milliseconds in a test build, so the SHUTDOWN below usually lands
    // while the reader solves. The assertions hold however the threads are
    // scheduled: an accepted SOLVE is answered, and the drain completes.
    let netlist = generators::array_multiplier("serve:mult:16", 16).expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(48))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );
    let bytes = DesignDb::build(
        "serve:mult:16",
        &netlist,
        &placement,
        &chara,
        &[0.05],
        &[Granularity::Row],
        3,
    )
    .expect("compilable")
    .encode_to_vec();
    let db = DesignDb::decode_fast(&bytes).expect("own encoding decodes");
    let pre = db.preprocessed_for(Granularity::Row, 0.05, 3).expect("compiled in");
    let local = TwoPassHeuristic.solve(&pre).expect("multiplier is compensable");

    // One slot, so nothing else can run the SOLVE: with the queue empty
    // and nothing more from its caller, its reader answers it.
    let server = RunningServer::start(1);
    let mut solver = server.connect();
    let mut control = server.connect();
    let info = solver.load_bytes(&bytes).expect("design loads");
    let hits = stat(&mut control, "cache_hits");
    solver.send(&Request::Solve(row_solve(info.design_hash, 3))).expect("send");
    // The reader looks the design up after its draining check, so once the
    // cache hit shows, the SOLVE is accepted and its reader is solving it.
    while stat(&mut control, "cache_hits") == hits {
        std::thread::yield_now();
    }
    control.shutdown().expect("shutdown acknowledged");

    let resp = solver.recv().expect("the accepted SOLVE is answered");
    assert_eq!(resp.code, code::OK, "body: {:?}", resp.body);
    match resp.body {
        ResponseBody::Solved(reply) => {
            assert_eq!(reply.leakage_nw.to_bits(), local.leakage_nw.to_bits());
            assert_eq!(
                reply.assignment,
                local.assignment.iter().map(|&l| l as u64).collect::<Vec<_>>()
            );
        }
        other => panic!("SOLVE answered {other:?}"),
    }
    // `run()` returns Ok once the inline solve is answered.
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The daemon's warm path is the CLI's warm path: for random design
    /// shapes and cluster budgets, a SOLVE through the server is
    /// bit-identical to `decode_fast` + `preprocessed_for` +
    /// `TwoPassHeuristic` run locally — leakage compared as raw `f64`
    /// bits, assignments element for element.
    #[test]
    fn serve_solve_is_bit_identical_to_cli_warm_path(
        width in 2u32..=5,
        clusters in 1u64..=4,
    ) {
        let bytes = compiled_design(width);

        // Local oracle — exactly what `fbb solve --db` executes.
        let db = DesignDb::decode_fast(&bytes).expect("own encoding decodes");
        let pre = db
            .preprocessed_for(Granularity::Row, 0.05, clusters as usize)
            .expect("beta 0.05 compiled in");
        let local = TwoPassHeuristic.solve(&pre).expect("adder is compensable");

        // The same request through the daemon.
        let server = RunningServer::start(2);
        let mut client = server.connect();
        let info = client.load_bytes(&bytes).expect("design loads");
        let reply = client
            .solve(SolveRequest {
                design_hash: info.design_hash,
                granularity: 1, // row
                beta: 0.05,
                clusters,
                budget_ms: 0,
                flags: 0,
            })
            .expect("daemon solve succeeds");
        server.stop();

        prop_assert_eq!(reply.leakage_nw.to_bits(), local.leakage_nw.to_bits());
        prop_assert_eq!(reply.clusters, local.clusters as u64);
        prop_assert_eq!(
            reply.assignment,
            local.assignment.iter().map(|&l| l as u64).collect::<Vec<u64>>()
        );
        prop_assert!(!reply.proven_optimal, "heuristic never claims optimality");
    }
}
