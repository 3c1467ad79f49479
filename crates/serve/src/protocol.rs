//! Wire protocol for the `fbb serve` daemon — the normative text lives in
//! `docs/PROTOCOL.md`; this module is its executable counterpart and the
//! constants here are pinned by `tests/protocol_spec.rs`.
//!
//! Framing: every message is a `u32` little-endian payload length followed
//! by exactly that many payload bytes. Payloads open with a fixed header —
//! `u8` protocol version, `u8` opcode (requests) or response code
//! (responses), `u64` little-endian request id — and close with an
//! opcode-specific body encoded with the same canonical primitives as the
//! `.fbb` container (`fbb_db::wire`): fixed-width little-endian scalars,
//! LEB128 varints, length-prefixed UTF-8 strings.
//!
//! Request ids are chosen by the client and echoed verbatim; a client may
//! pipeline any number of requests on one connection and match responses
//! by id (responses to solver-pool requests may arrive out of submission
//! order; see `docs/PROTOCOL.md` §4).

use std::io::{Read, Write};

use fbb_db::{Decoder, Encoder};

/// Protocol revision carried in every frame header. Bumped on any breaking
/// change to framing, opcodes, or body layouts.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on a frame payload, chosen to fit any plausible compiled
/// design (the largest Table 1 database is under 100 KiB) with two orders
/// of magnitude of headroom. A length prefix above this is a protocol
/// violation: the server answers [`code::ERROR`] and drops the connection
/// rather than allocating attacker-controlled gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Request opcodes (the second header byte of a request payload).
pub mod op {
    /// Liveness probe; empty body, empty response body.
    pub const PING: u8 = 0x01;
    /// Load a design from inline `.fbb` bytes (fully verified decode).
    pub const LOAD: u8 = 0x02;
    /// Load a design from a server-side filesystem path (the same fully
    /// verified decode).
    pub const LOAD_PATH: u8 = 0x03;
    /// Solve an allocation instance against a cached design.
    pub const SOLVE: u8 = 0x04;
    /// Snapshot of server counters.
    pub const STATS: u8 = 0x05;
    /// Begin graceful drain: finish queued work, then exit.
    pub const SHUTDOWN: u8 = 0x06;
}

/// Response codes (the second header byte of a response payload). The
/// numbering deliberately mirrors the CLI exit-code contract so a client
/// can translate a response straight into a process exit code.
pub mod code {
    /// Success — body is the opcode-specific payload.
    pub const OK: u8 = 0;
    /// Usage or internal error — body is a diagnostic string (CLI exit 1).
    pub const ERROR: u8 = 1;
    /// The allocation instance is infeasible — body is the engine's
    /// diagnosis (CLI exit 2).
    pub const INFEASIBLE: u8 = 2;
    /// The request's time budget expired — body says where (CLI exit 3).
    pub const BUDGET_EXPIRED: u8 = 3;
}

/// Solve-request flag bits.
pub mod flag {
    /// Run the exact ILP (branch & bound) instead of the two-pass
    /// heuristic.
    pub const ILP: u8 = 0b0000_0001;
    /// With [`ILP`]: an unproven incumbent is a failure
    /// ([`super::code::BUDGET_EXPIRED`]), matching `--require-optimal`.
    pub const REQUIRE_OPTIMAL: u8 = 0b0000_0010;
}

/// Protocol-layer failure: transport I/O, malformed bytes, or a violated
/// framing limit.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport error (includes unexpected mid-frame EOF).
    Io(std::io::Error),
    /// Structurally invalid payload.
    Malformed(String),
    /// Length prefix above [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Header version byte is not [`PROTOCOL_VERSION`].
    Version(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            ProtoError::Version(v) => {
                write!(f, "protocol version {v} (this build speaks {PROTOCOL_VERSION})")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<fbb_db::DbError> for ProtoError {
    fn from(e: fbb_db::DbError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// [`op::PING`]
    Ping,
    /// [`op::LOAD`] — raw `.fbb` container bytes.
    Load { bytes: Vec<u8> },
    /// [`op::LOAD_PATH`] — server-side path to a `.fbb` file.
    LoadPath { path: String },
    /// [`op::SOLVE`]
    Solve(SolveRequest),
    /// [`op::STATS`]
    Stats,
    /// [`op::SHUTDOWN`]
    Shutdown,
}

/// Body of a [`Request::Solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// FNV-1a 64 hash of the design's encoded bytes (see [`design_hash`]),
    /// as returned by the load response.
    pub design_hash: u64,
    /// Granularity selector: 0 = block, 1 = row, 2 = gate.
    pub granularity: u8,
    /// Timing degradation β the instance was compiled for.
    pub beta: f64,
    /// Cluster budget C (overrides the compiled-in budget exactly).
    pub clusters: u64,
    /// Wall-clock budget in milliseconds measured from the moment the
    /// server decoded the request, `0` = none.
    pub budget_ms: u64,
    /// [`flag`] bits.
    pub flags: u8,
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// [`code`] value.
    pub code: u8,
    /// Echo of the request id.
    pub request_id: u64,
    /// Opcode-specific body ([`ResponseBody`]).
    pub body: ResponseBody,
}

/// Decoded response body.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Empty body (PING, SHUTDOWN acks).
    Empty,
    /// Non-OK responses: human-readable diagnostic.
    Message(String),
    /// LOAD / LOAD_PATH success.
    Loaded {
        /// Cache key for subsequent solves.
        design_hash: u64,
        /// Gate count of the decoded netlist (sanity echo).
        gates: u64,
        /// `true` if this call inserted the design, `false` if it was
        /// already cached.
        fresh: bool,
    },
    /// SOLVE success.
    Solved(SolveReply),
    /// STATS success: ordered `(name, value)` counter pairs.
    Stats(Vec<(String, u64)>),
}

/// Body of a successful solve response. `leakage_nw` round-trips through
/// `f64::to_bits`, so equality against a local solve is exact, not
/// approximate — the differential tests rely on this.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReply {
    /// Objective value of the returned assignment.
    pub leakage_nw: f64,
    /// Distinct clusters used.
    pub clusters: u64,
    /// `true` iff the ILP proved optimality (always `false` for the
    /// heuristic).
    pub proven_optimal: bool,
    /// Bias level per region, in region index order.
    pub assignment: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Framing

/// Writes one frame: `u32` LE length prefix + payload, in one `write_all`
/// call, so a small frame leaves a `TCP_NODELAY` socket as one segment
/// rather than a 4-byte header segment followed by the payload.
///
/// # Errors
///
/// [`ProtoError::Oversized`] if the payload exceeds [`MAX_FRAME_LEN`];
/// otherwise transport errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtoError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload. Returns `Ok(None)` on clean EOF at a frame
/// boundary (orderly connection close).
///
/// # Errors
///
/// [`ProtoError::Oversized`] on a length prefix above [`MAX_FRAME_LEN`]
/// (the stream is unrecoverable afterwards — close it); [`ProtoError::Io`]
/// on transport failure, including EOF mid-frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let len = usize::try_from(len).map_err(|_| ProtoError::Oversized(MAX_FRAME_LEN))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Requests

/// Encodes a request payload (no length prefix).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(PROTOCOL_VERSION);
    let opcode = match req {
        Request::Ping => op::PING,
        Request::Load { .. } => op::LOAD,
        Request::LoadPath { .. } => op::LOAD_PATH,
        Request::Solve(_) => op::SOLVE,
        Request::Stats => op::STATS,
        Request::Shutdown => op::SHUTDOWN,
    };
    e.u8(opcode);
    e.u64(request_id);
    match req {
        Request::Ping | Request::Stats | Request::Shutdown => {}
        // The LOAD body is the raw `.fbb` image with no inner length — the
        // frame already delimits it, and skipping the prefix lets the
        // server slice the image out of the payload without a re-copy loop.
        Request::Load { bytes } => e.raw(bytes),
        Request::LoadPath { path } => e.str(path),
        Request::Solve(s) => {
            e.u64(s.design_hash);
            e.u8(s.granularity);
            e.f64(s.beta);
            e.varint(s.clusters);
            e.u64(s.budget_ms);
            e.u8(s.flags);
        }
    }
    e.into_vec()
}

/// Decodes a request payload. Returns `(request_id, request)`.
///
/// # Errors
///
/// [`ProtoError::Version`] on a foreign version byte (the id may not be
/// trustworthy, so none is returned); [`ProtoError::Malformed`] on any
/// structural violation, including trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let mut d = Decoder::new(payload);
    let version = d.u8("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::Version(version));
    }
    let opcode = d.u8("opcode")?;
    let request_id = d.u64("request id")?;
    // Fixed header: version (1) + opcode (1) + request id (8).
    const HEADER_LEN: usize = 10;
    let req = match opcode {
        op::PING => Request::Ping,
        op::STATS => Request::Stats,
        op::SHUTDOWN => Request::Shutdown,
        op::LOAD => {
            // Body = every byte after the header (see `encode_request`).
            let bytes = payload
                .get(HEADER_LEN..)
                .ok_or_else(|| ProtoError::Malformed("LOAD body missing".into()))?
                .to_vec();
            return Ok((request_id, Request::Load { bytes }));
        }
        op::LOAD_PATH => Request::LoadPath { path: d.str("design path")? },
        op::SOLVE => Request::Solve(SolveRequest {
            design_hash: d.u64("design hash")?,
            granularity: d.u8("granularity")?,
            beta: d.f64("beta")?,
            clusters: d.varint("cluster budget")?,
            budget_ms: d.u64("budget ms")?,
            flags: d.u8("solve flags")?,
        }),
        other => {
            return Err(ProtoError::Malformed(format!("unknown opcode 0x{other:02x}")));
        }
    };
    d.expect_end("request payload")?;
    Ok((request_id, req))
}

// ---------------------------------------------------------------------------
// Responses

/// Encodes a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(PROTOCOL_VERSION);
    e.u8(resp.code);
    e.u64(resp.request_id);
    match &resp.body {
        ResponseBody::Empty => {}
        ResponseBody::Message(m) => e.str(m),
        ResponseBody::Loaded { design_hash, gates, fresh } => {
            e.u64(*design_hash);
            e.varint(*gates);
            e.u8(u8::from(*fresh));
        }
        ResponseBody::Solved(s) => {
            e.f64(s.leakage_nw);
            e.varint(s.clusters);
            e.u8(u8::from(s.proven_optimal));
            e.length(s.assignment.len());
            for &level in &s.assignment {
                e.varint(level);
            }
        }
        ResponseBody::Stats(pairs) => {
            e.length(pairs.len());
            for (name, value) in pairs {
                e.str(name);
                e.u64(*value);
            }
        }
    }
    e.into_vec()
}

/// Decodes a response payload. The body layout depends on the request
/// opcode, which the transport does not echo — the caller supplies it.
///
/// # Errors
///
/// [`ProtoError::Version`] / [`ProtoError::Malformed`] as for requests.
pub fn decode_response(payload: &[u8], opcode: u8) -> Result<Response, ProtoError> {
    let mut d = Decoder::new(payload);
    let version = d.u8("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::Version(version));
    }
    let rcode = d.u8("response code")?;
    let request_id = d.u64("request id")?;
    let body = if rcode != code::OK {
        ResponseBody::Message(d.str("diagnostic")?)
    } else {
        match opcode {
            op::PING | op::SHUTDOWN => ResponseBody::Empty,
            op::LOAD | op::LOAD_PATH => ResponseBody::Loaded {
                design_hash: d.u64("design hash")?,
                gates: d.varint("gate count")?,
                fresh: d.u8("fresh flag")? != 0,
            },
            op::SOLVE => {
                let leakage_nw = d.f64("leakage")?;
                let clusters = d.varint("clusters used")?;
                let proven_optimal = d.u8("proven flag")? != 0;
                let n = d.length(1, "assignment length")?;
                let mut assignment = Vec::with_capacity(n);
                for _ in 0..n {
                    assignment.push(d.varint("assignment level")?);
                }
                ResponseBody::Solved(SolveReply {
                    leakage_nw,
                    clusters,
                    proven_optimal,
                    assignment,
                })
            }
            op::STATS => {
                let n = d.length(2, "stats length")?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = d.str("stat name")?;
                    let value = d.u64("stat value")?;
                    pairs.push((name, value));
                }
                ResponseBody::Stats(pairs)
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "cannot decode a response for unknown opcode 0x{other:02x}"
                )));
            }
        }
    };
    d.expect_end("response payload")?;
    Ok(Response { code: rcode, request_id, body })
}

// ---------------------------------------------------------------------------
// Design identity

/// FNV-1a 64-bit hash of a design's encoded bytes — the cache key clients
/// use to address a loaded design. Stable across processes and platforms
/// (pure byte fold, no pointer or seed input), pinned by
/// `docs/PROTOCOL.md` §5: `design_hash(b"fbb") == 0xDCC3_6A18_FEE8_35F9`.
#[must_use]
pub fn design_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Load { bytes: vec![1, 2, 3, 255] },
            Request::LoadPath { path: "designs/c1355.fbb".to_owned() },
            Request::Solve(SolveRequest {
                design_hash: 0xDEAD_BEEF_CAFE_F00D,
                granularity: 1,
                beta: 0.05,
                clusters: 3,
                budget_ms: 1500,
                flags: flag::ILP | flag::REQUIRE_OPTIMAL,
            }),
        ];
        for (i, req) in cases.into_iter().enumerate() {
            let id = 41 + i as u64;
            let payload = encode_request(id, &req);
            let (got_id, got) = decode_request(&payload).expect("round trip");
            assert_eq!(got_id, id);
            assert_eq!(got, req);
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = vec![
            (op::PING, Response { code: code::OK, request_id: 7, body: ResponseBody::Empty }),
            (
                op::SOLVE,
                Response {
                    code: code::INFEASIBLE,
                    request_id: 9,
                    body: ResponseBody::Message("uncompensable".to_owned()),
                },
            ),
            (
                op::LOAD,
                Response {
                    code: code::OK,
                    request_id: 11,
                    body: ResponseBody::Loaded { design_hash: 42, gates: 429, fresh: true },
                },
            ),
            (
                op::SOLVE,
                Response {
                    code: code::OK,
                    request_id: 13,
                    body: ResponseBody::Solved(SolveReply {
                        leakage_nw: 1234.5678,
                        clusters: 3,
                        proven_optimal: false,
                        assignment: vec![0, 2, 1, 2],
                    }),
                },
            ),
            (
                op::STATS,
                Response {
                    code: code::OK,
                    request_id: 17,
                    body: ResponseBody::Stats(vec![
                        ("cache_hits".to_owned(), 5),
                        ("cache_misses".to_owned(), 1),
                    ]),
                },
            ),
        ];
        for (opcode, resp) in cases {
            let payload = encode_response(&resp);
            let got = decode_response(&payload, opcode).expect("round trip");
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn frame_round_trip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).expect("frame 1"), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor).expect("frame 2"), Some(Vec::new()));
        assert_eq!(read_frame(&mut cursor).expect("clean eof"), None);
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Records every `write` call's bytes.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        write_frame(&mut w, b"hello").expect("write");
        assert_eq!(w.0, vec![b"\x05\0\0\0hello".to_vec()]);
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]); // promised 8, delivered 3
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Io(_))));
    }

    #[test]
    fn foreign_version_rejected() {
        let mut payload = encode_request(1, &Request::Ping);
        payload[0] = PROTOCOL_VERSION + 1;
        assert!(matches!(decode_request(&payload), Err(ProtoError::Version(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(1, &Request::Ping);
        payload.push(0);
        assert!(matches!(decode_request(&payload), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn fnv_pinned_vectors() {
        // Offset basis: hash of the empty input.
        assert_eq!(design_hash(b""), 0xCBF2_9CE4_8422_2325);
        // Classic FNV-1a test vector.
        assert_eq!(design_hash(b"a"), 0xAF63_DC4C_8601_EC8C);
        // The PROTOCOL.md §5 pin.
        assert_eq!(design_hash(b"fbb"), 0xDCC3_6A18_FEE8_35F9);
        assert_ne!(design_hash(b"fbb"), design_hash(b"fbc"));
    }
}
