//! Which thread answers a SOLVE, read from the `serve_solves` and
//! `serve_solves_inline` telemetry counters. Lives in its own test process
//! because the counters are global.
//!
//! A closed-loop caller (one request in flight) finds the queue empty, a
//! slot free and nothing more buffered, so its reader answers every SOLVE.
//! A pipelined burst written in one `write_all` reaches the reader in one
//! read, so every SOLVE but the last finds more bytes behind it and goes to
//! the queue.

use std::io::Write;

use fbb_core::Granularity;
use fbb_db::DesignDb;
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};
use fbb_serve::protocol::{self, code, op};
use fbb_serve::{Client, Request, ResponseBody, ServeConfig, Server, SolveRequest};

fn adder_db() -> Vec<u8> {
    let netlist = generators::ripple_adder("solve-paths", 8, false).expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(4))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("ladder"),
    );
    DesignDb::build(
        "solve-paths",
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

/// `(serve_solves, serve_solves_inline)` so far.
fn solve_counters() -> (u64, u64) {
    let snap = fbb_telemetry::snapshot();
    (
        snap.counter("serve_solves").unwrap_or(0),
        snap.counter("serve_solves_inline").unwrap_or(0),
    )
}

#[test]
fn closed_loop_solves_run_inline_and_a_pipelined_burst_is_queued() {
    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let server = Server::bind(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let info = client.load_bytes(&adder_db()).expect("design loads");
    let solve = SolveRequest {
        design_hash: info.design_hash,
        granularity: 1, // row
        beta: 0.05,
        clusters: 3,
        budget_ms: 0,
        flags: 0,
    };

    // Closed loop: every SOLVE is answered by the connection's reader.
    const CLOSED: u64 = 20;
    let first = client
        .solve(solve.clone())
        .expect("solve")
        .leakage_nw
        .to_bits();
    for _ in 1..CLOSED {
        assert_eq!(
            client
                .solve(solve.clone())
                .expect("solve")
                .leakage_nw
                .to_bits(),
            first
        );
    }
    assert_eq!(
        solve_counters(),
        (CLOSED, CLOSED),
        "(solves, inline) after the closed loop"
    );

    // A burst of SOLVEs in one write.
    const BURST: u64 = 16;
    let mut burst = Vec::new();
    for id in 0..BURST {
        let payload = protocol::encode_request(1000 + id, &Request::Solve(solve.clone()));
        protocol::write_frame(&mut burst, &payload).expect("in-memory frame");
    }
    client.stream_mut().write_all(&burst).expect("burst sent");
    let mut answered = Vec::new();
    for _ in 0..BURST {
        let payload = protocol::read_frame(client.stream_mut())
            .expect("reply")
            .expect("connection open");
        let resp = protocol::decode_response(&payload, op::SOLVE).expect("reply decodes");
        assert_eq!(resp.code, code::OK, "body: {:?}", resp.body);
        match resp.body {
            ResponseBody::Solved(reply) => assert_eq!(reply.leakage_nw.to_bits(), first),
            other => panic!("SOLVE answered {other:?}"),
        }
        answered.push(resp.request_id);
    }
    answered.sort_unstable();
    assert_eq!(answered, (1000..1000 + BURST).collect::<Vec<_>>());
    let (solves, inline) = solve_counters();
    assert_eq!(solves, CLOSED + BURST);
    assert!(
        inline - CLOSED <= 1,
        "{} of the burst's {BURST} SOLVEs ran inline",
        inline - CLOSED
    );

    handle.shutdown();
    join.join().expect("server thread").expect("server run");
    fbb_telemetry::disable();
}
