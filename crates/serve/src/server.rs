//! The daemon: accept loop, per-connection readers, bounded job queue, and
//! the solver worker pool.
//!
//! # Thread architecture
//!
//! One nonblocking accept loop (the thread that called [`Server::run`])
//! spawns a reader thread per connection. Readers parse frames and answer
//! cheap requests (PING, STATS, LOAD, SHUTDOWN) themselves. A heuristic
//! SOLVE is answered by its reader too when nothing would wait for it: the
//! queue is empty, a solver slot is free, and the reader's buffer holds no
//! further bytes from the caller. So a caller with one request in flight
//! never waits for a worker to wake up. Every other SOLVE — an ILP solve
//! (seconds long; the reader keeps answering PING, STATS and SHUTDOWN
//! meanwhile), one that arrives behind queued work or while every slot is
//! busy, or one of a pipelined burst — is pushed onto a bounded queue
//! serviced by `workers` long-lived solver threads. Pushing blocks when the
//! queue is full — backpressure reaches the client as unread frames in the
//! socket buffer, never as unbounded server memory.
//!
//! Each connection has one writer handle (`Arc<Mutex<TcpStream>>`) shared
//! between its reader and the workers, so pipelined responses interleave
//! at frame granularity and never corrupt the stream. Responses to queued
//! solves may arrive out of submission order; clients match on request id.
//!
//! # Worker budget
//!
//! The solver-slot count is fixed at startup: `--workers N`, or the
//! `fbb_sta::par::threads` default when unset, resolved once in
//! [`ServeConfig::resolved_workers`]; it never grows or shrinks. That many
//! worker threads run, and that many slots live under the queue's mutex. A
//! solve runs only while it holds a slot — a worker takes one together
//! with its job, a reader takes one for an inline solve — so at most
//! `workers` solves run at once, whichever threads run them. The parallel
//! loops *inside* each solve are sized per call by
//! `fbb_sta::par::worker_count`, which reads `FBB_THREADS` every time (run
//! the daemon with `FBB_THREADS=1` to keep each solve serial).
//!
//! # Clocks
//!
//! Every per-request deadline runs through
//! [`fbb_lp::deadline::Stopwatch`], started when the request frame is
//! decoded, on both paths; queue wait counts against the client's budget.
//! There is no other clock in this crate (audit rule FA003 covers
//! `crates/serve/src`).
//!
//! # Shutdown
//!
//! A SHUTDOWN frame or a termination signal (see
//! [`install_signal_handlers`]) sets one atomic flag. The accept loop
//! stops, readers stop consuming frames once they finish the request in
//! hand (an inline solve included), workers drain the queue, and
//! [`Server::run`] returns once every accepted solve has been answered —
//! the "graceful drain" contract `scripts/check.sh` exercises.

use std::collections::VecDeque;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use fbb_core::{FbbError, Granularity, IlpAllocator, TwoPassHeuristic};
use fbb_db::DesignDb;
use fbb_lp::deadline::Stopwatch;

use crate::cache::DesignCache;
use crate::protocol::{
    self, code, design_hash, flag, ProtoError, Request, Response, ResponseBody, SolveReply,
    SolveRequest, MAX_FRAME_LEN,
};

/// How long blocked waits (queue pops, socket reads, accept polls) sleep
/// before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default bound on queued-but-unstarted solve jobs.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default design-cache capacity.
pub const DEFAULT_CACHE_DESIGNS: usize = 8;

/// Fallback ILP time limit when a solve request carries no budget,
/// mirroring the CLI's `--ilp-time-limit` default.
const DEFAULT_ILP_LIMIT: Duration = Duration::from_secs(120);

/// Daemon configuration, fully resolved before the first request.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7117` (port 0 = ephemeral).
    pub addr: String,
    /// Solver worker threads; `0` resolves to `fbb_sta::par::threads()`
    /// once at startup.
    pub workers: usize,
    /// Design-cache capacity; `0` resolves to [`DEFAULT_CACHE_DESIGNS`].
    pub cache_designs: usize,
    /// Queue bound; `0` resolves to [`DEFAULT_QUEUE_DEPTH`].
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:0".to_owned(), workers: 0, cache_designs: 0, queue_depth: 0 }
    }
}

impl ServeConfig {
    /// The solver-thread count: `--workers` if given, otherwise the
    /// `FBB_THREADS`/hardware default at startup. It sizes the daemon's
    /// pool only; loops inside a solve size themselves per call through
    /// `fbb_sta::par`.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            fbb_sta::par::threads()
        }
    }
}

/// Process-global flag set by the termination-signal handler. Separate
/// from the per-server flag so the handler (which must be a plain
/// `extern "C"` fn) needs no access to server state.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Installs handlers that turn `SIGTERM`/`SIGINT` into a graceful drain.
///
/// The handler body is a single atomic store — async-signal-safe. Uses a
/// directly declared `signal(2)` binding because the offline build has no
/// libc crate; on non-Unix targets this is a no-op and only the SHUTDOWN
/// opcode can stop the daemon.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        #[allow(unsafe_code)]
        {
            extern "C" fn on_signal(_signum: i32) {
                SIGNALLED.store(true, Ordering::SeqCst);
            }
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            // SAFETY: `signal(2)` with a handler that only performs an
            // atomic store; both arguments are valid for the lifetime of
            // the process.
            unsafe {
                // fbb-audit: allow(FA008) signal(2) takes the handler address as usize by ABI
                signal(SIGTERM, on_signal as *const () as usize);
                // fbb-audit: allow(FA008) signal(2) takes the handler address as usize by ABI
                signal(SIGINT, on_signal as *const () as usize);
            }
        }
    }
}

/// Counters behind the STATS opcode. Plain atomics so they work with
/// telemetry disabled (the daemon's steady state).
#[derive(Default)]
struct ServerStats {
    requests: AtomicU64,
    solve_ok: AtomicU64,
    solve_infeasible: AtomicU64,
    solve_budget_expired: AtomicU64,
    solve_error: AtomicU64,
}

/// Bounded MPMC queue of solve jobs with shutdown-aware blocking, and the
/// solver slots that bound how many solves run at once. Both live under one
/// mutex, so taking a slot and checking the queue is one atomic decision.
/// No code that can panic runs under that lock, so a poisoned lock still
/// guards a consistent state and is recovered rather than propagated.
struct JobQueue<J> {
    depth: usize,
    state: Mutex<QueueState<J>>,
    /// Signalled when a waiting job may have become startable: a job was
    /// pushed, a slot came back while jobs wait, or shutdown began.
    startable: Condvar,
    not_full: Condvar,
}

struct QueueState<J> {
    jobs: VecDeque<J>,
    /// Slots not held by a worker or an inline reader.
    free_slots: usize,
}

/// A solver slot, held while one solve runs and its reply is written.
/// Dropping it returns the slot — on unwind too, so a panicking solve
/// cannot strand the queue — and wakes a worker if a job is waiting.
struct Slot<'q, J> {
    queue: &'q JobQueue<J>,
}

impl<J> Drop for Slot<'_, J> {
    fn drop(&mut self) {
        let mut state = self.queue.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.free_slots += 1;
        let waiting = !state.jobs.is_empty();
        drop(state);
        if waiting {
            self.queue.startable.notify_one();
        }
    }
}

impl<J> JobQueue<J> {
    fn new(depth: usize, slots: usize) -> Self {
        JobQueue {
            depth: depth.max(1),
            state: Mutex::new(QueueState { jobs: VecDeque::new(), free_slots: slots }),
            startable: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while the queue is full (backpressure). Hands the job back if
    /// shutdown has begun: checked under the lock, so a job is never queued
    /// after the workers decided the queue was drained.
    fn push(&self, job: J, shutdown: &AtomicBool) -> Result<(), J> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Err(job);
            }
            if state.jobs.len() < self.depth {
                break;
            }
            let (guard, _) = self
                .not_full
                .wait_timeout(state, POLL_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
        state.jobs.push_back(job);
        drop(state);
        self.startable.notify_one();
        Ok(())
    }

    /// Blocks until a job and a free slot are both available and takes
    /// them together. Returns `None` once shutdown is set **and** the queue
    /// is empty — the drain guarantee.
    fn pop(&self, shutdown: &AtomicBool) -> Option<(J, Slot<'_, J>)> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.free_slots > 0 {
                if let Some(job) = state.jobs.pop_front() {
                    state.free_slots -= 1;
                    drop(state);
                    self.not_full.notify_one();
                    return Some((job, Slot { queue: self }));
                }
            }
            if shutdown.load(Ordering::SeqCst) && state.jobs.is_empty() {
                return None;
            }
            let (guard, _) = self
                .startable
                .wait_timeout(state, POLL_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// A slot for a solve run outside the queue, if one is free and no job
    /// is waiting (an inline solve never overtakes a queued one).
    fn try_slot(&self) -> Option<Slot<'_, J>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.jobs.is_empty() || state.free_slots == 0 {
            return None;
        }
        state.free_slots -= 1;
        Some(Slot { queue: self })
    }

    fn depth_now(&self) -> u64 {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).jobs.len() as u64
    }
}

/// A SOLVE to run: everything a solver needs, including the stopwatch
/// started when its frame was decoded (queue wait burns the client's
/// budget).
struct Job {
    request_id: u64,
    req: SolveRequest,
    design: Arc<DesignDb>,
    writer: Arc<Mutex<TcpStream>>,
    sw: Stopwatch,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    cache: DesignCache,
    queue: JobQueue<Job>,
    stats: ServerStats,
    shutdown: AtomicBool,
    workers: usize,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake every parked worker/reader promptly (they would also notice
        // via their poll timeout).
        self.queue.startable.notify_all();
        self.queue.not_full.notify_all();
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket. The daemon is not serving until
    /// [`Server::run`] is called.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = config.resolved_workers();
        let cache_designs = if config.cache_designs > 0 {
            config.cache_designs
        } else {
            DEFAULT_CACHE_DESIGNS
        };
        let queue_depth =
            if config.queue_depth > 0 { config.queue_depth } else { DEFAULT_QUEUE_DEPTH };
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                cache: DesignCache::new(cache_designs),
                queue: JobQueue::new(queue_depth, workers),
                stats: ServerStats::default(),
                shutdown: AtomicBool::new(false),
                workers,
            }),
        })
    }

    /// The bound address — useful with port 0 (ephemeral).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful drain from outside the protocol (tests,
    /// embedding code). Idempotent.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until drained: accepts connections, answers requests, and
    /// returns once a shutdown (opcode, signal, or
    /// [`ShutdownHandle::shutdown`]) has been requested *and* every
    /// accepted solve, queued or answered by its reader, has been answered.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors; per-connection failures are contained.
    pub fn run(&self) -> std::io::Result<()> {
        let shared = &self.shared;
        fbb_telemetry::counter("serve_starts", 1);
        std::thread::scope(|scope| {
            for _ in 0..shared.workers {
                scope.spawn(|| worker_loop(shared));
            }
            loop {
                if shared.draining() {
                    shared.begin_shutdown();
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let shared = Arc::clone(shared);
                        scope.spawn(move || handle_connection(&shared, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        // Fatal listener failure: begin drain so workers
                        // exit, then surface the error.
                        shared.begin_shutdown();
                        return Err(e);
                    }
                }
            }
            Ok(())
        })
        // Scope exit = accept loop stopped, readers finished their last
        // request and noticed the flag, workers drained the queue: the
        // drain is complete here.
    }
}

/// Clonable handle that can stop a running [`Server`].
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begins the graceful drain.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

// ---------------------------------------------------------------------------
// Connection reader

/// Reads one frame payload, polling the shutdown flag across read
/// timeouts. Returns `None` on clean EOF, client disconnect mid-frame, or
/// shutdown — all of which end the reader.
fn read_frame_polling(stream: &mut impl Read, shared: &Shared) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    // Phase 1: the length prefix. A timeout with zero bytes read is the
    // idle case — keep polling; once any byte has arrived the frame is in
    // flight and EOF becomes an error.
    while let Some(buf) = header.get_mut(got..).filter(|b| !b.is_empty()) {
        match stream.read(buf) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None) // orderly close at a frame boundary
                } else {
                    Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof.into()))
                };
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let len = usize::try_from(len).map_err(|_| ProtoError::Oversized(MAX_FRAME_LEN))?;
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while let Some(buf) = payload.get_mut(got..).filter(|b| !b.is_empty()) {
        match stream.read(buf) {
            Ok(0) => return Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Mid-frame we keep reading through a drain: the frame may
                // complete and will be answered before the reader exits.
                if shared.draining() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

fn send_response(writer: &Arc<Mutex<TcpStream>>, resp: &Response) {
    let payload = protocol::encode_response(resp);
    // Only the frame write runs under the lock, so a poisoned lock still
    // holds a usable stream and is recovered rather than propagated.
    let mut stream = writer.lock().unwrap_or_else(PoisonError::into_inner);
    // A dead peer is not a server error; the reader will see the close.
    let _ = protocol::write_frame(&mut *stream, &payload);
}

fn error_response(request_id: u64, rcode: u8, message: String) -> Response {
    Response { code: rcode, request_id, body: ResponseBody::Message(message) }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Responses are small frames that must leave immediately; without
    // TCP_NODELAY, Nagle + delayed ACK adds ~40 ms to every round trip.
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    // Buffered, so a frame costs one read syscall and the reader can see
    // whether the caller has sent more (a pipelined burst goes to the queue).
    let mut reader = BufReader::new(stream);
    fbb_telemetry::counter("serve_connections", 1);

    loop {
        let payload = match read_frame_polling(&mut reader, shared) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                // Framing violations poison the stream: answer once with
                // id 0 (the real id is unknowable) and hang up.
                send_response(&writer, &error_response(0, code::ERROR, e.to_string()));
                return;
            }
        };
        let (request_id, req) = match protocol::decode_request(&payload) {
            Ok(parsed) => parsed,
            Err(e) => {
                send_response(&writer, &error_response(0, code::ERROR, e.to_string()));
                return;
            }
        };
        let sw = Stopwatch::start();
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        fbb_telemetry::counter("serve_requests", 1);
        match req {
            Request::Ping => send_response(
                &writer,
                &Response { code: code::OK, request_id, body: ResponseBody::Empty },
            ),
            Request::Stats => {
                let resp = stats_response(shared, request_id);
                send_response(&writer, &resp);
            }
            Request::Shutdown => {
                send_response(
                    &writer,
                    &Response { code: code::OK, request_id, body: ResponseBody::Empty },
                );
                shared.begin_shutdown();
                return;
            }
            Request::Load { bytes } => {
                let resp = load_design(shared, request_id, &bytes);
                send_response(&writer, &resp);
            }
            Request::LoadPath { path } => {
                let resp = match std::fs::read(&path) {
                    Ok(bytes) => load_design(shared, request_id, &bytes),
                    Err(e) => error_response(
                        request_id,
                        code::ERROR,
                        format!("cannot load design {path}: {e}"),
                    ),
                };
                send_response(&writer, &resp);
            }
            Request::Solve(sreq) => {
                if shared.draining() {
                    send_response(
                        &writer,
                        &error_response(request_id, code::ERROR, "server is draining".to_owned()),
                    );
                    continue;
                }
                let Some(design) = shared.cache.get(sreq.design_hash) else {
                    send_response(
                        &writer,
                        &error_response(
                            request_id,
                            code::ERROR,
                            format!(
                                "design {:016x} is not loaded (LOAD or LOAD_PATH it first)",
                                sreq.design_hash
                            ),
                        ),
                    );
                    continue;
                };
                // Answer here only when nothing waits for this thread: not
                // an ILP solve, and no further bytes from the caller.
                let inline = sreq.flags & flag::ILP == 0 && reader.buffer().is_empty();
                let slot = if inline { shared.queue.try_slot() } else { None };
                let job = Job { request_id, req: sreq, design, writer: Arc::clone(&writer), sw };
                if let Some(slot) = slot {
                    fbb_telemetry::counter("serve_solves_inline", 1);
                    answer(shared, &job);
                    drop(slot);
                } else if let Err(job) = shared.queue.push(job, &shared.shutdown) {
                    send_response(
                        &writer,
                        &error_response(
                            job.request_id,
                            code::ERROR,
                            "server began draining before the job could be queued".to_owned(),
                        ),
                    );
                }
            }
        }
    }
}

/// Caches the design `bytes` encode, unless it is cached already. LOAD and
/// LOAD_PATH bytes go through the one verified decode (`docs/PROTOCOL.md`
/// §6), so only a design that passed it is ever cached.
fn load_design(shared: &Shared, request_id: u64, bytes: &[u8]) -> Response {
    let hash = design_hash(bytes);
    if let Some(db) = shared.cache.get(hash) {
        return Response {
            code: code::OK,
            request_id,
            body: ResponseBody::Loaded {
                design_hash: hash,
                gates: db.netlist.gate_count() as u64,
                fresh: false,
            },
        };
    }
    match DesignDb::decode(bytes) {
        Ok(db) => {
            let gates = db.netlist.gate_count() as u64;
            let fresh = shared.cache.insert(hash, Arc::new(db));
            Response {
                code: code::OK,
                request_id,
                body: ResponseBody::Loaded { design_hash: hash, gates, fresh },
            }
        }
        Err(e) => error_response(request_id, code::ERROR, format!("cannot load design: {e}")),
    }
}

fn stats_response(shared: &Shared, request_id: u64) -> Response {
    let cache = shared.cache.stats();
    let pairs = vec![
        ("designs_cached".to_owned(), cache.designs),
        ("cache_hits".to_owned(), cache.hits),
        ("cache_misses".to_owned(), cache.misses),
        ("cache_evictions".to_owned(), cache.evictions),
        ("requests".to_owned(), shared.stats.requests.load(Ordering::Relaxed)),
        ("solve_ok".to_owned(), shared.stats.solve_ok.load(Ordering::Relaxed)),
        ("solve_infeasible".to_owned(), shared.stats.solve_infeasible.load(Ordering::Relaxed)),
        (
            "solve_budget_expired".to_owned(),
            shared.stats.solve_budget_expired.load(Ordering::Relaxed),
        ),
        ("solve_error".to_owned(), shared.stats.solve_error.load(Ordering::Relaxed)),
        ("queue_depth".to_owned(), shared.queue.depth_now()),
        ("workers".to_owned(), shared.workers as u64),
    ];
    Response { code: code::OK, request_id, body: ResponseBody::Stats(pairs) }
}

// ---------------------------------------------------------------------------
// Solver workers

fn worker_loop(shared: &Shared) {
    while let Some((job, slot)) = shared.queue.pop(&shared.shutdown) {
        answer(shared, &job);
        drop(slot);
    }
}

/// Solves `job`, counts its outcome and writes the reply.
fn answer(shared: &Shared, job: &Job) {
    let resp = solve_job(job);
    let counter = match resp.code {
        code::OK => &shared.stats.solve_ok,
        code::INFEASIBLE => &shared.stats.solve_infeasible,
        code::BUDGET_EXPIRED => &shared.stats.solve_budget_expired,
        _ => &shared.stats.solve_error,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    fbb_telemetry::counter("serve_solves", 1);
    send_response(&job.writer, &resp);
}

/// Executes one solve with the CLI's semantics: the same lookup
/// (`preprocessed_for` — this is where `db_cache_hits` ticks), the same
/// engines, and response codes that map 1:1 onto the CLI exit contract.
fn solve_job(job: &Job) -> Response {
    let req = &job.req;
    let budget =
        if req.budget_ms > 0 { Some(Duration::from_millis(req.budget_ms)) } else { None };
    if job.sw.expired_after(budget) {
        return error_response(
            job.request_id,
            code::BUDGET_EXPIRED,
            format!("deadline: {} ms budget expired before the solve started", req.budget_ms),
        );
    }
    let granularity = match req.granularity {
        0 => Granularity::Block,
        1 => Granularity::Row,
        2 => Granularity::Gate,
        other => {
            return error_response(
                job.request_id,
                code::ERROR,
                format!("unknown granularity selector {other}"),
            );
        }
    };
    let Ok(clusters) = usize::try_from(req.clusters) else {
        return error_response(
            job.request_id,
            code::ERROR,
            format!("cluster budget {} exceeds the platform index space", req.clusters),
        );
    };
    if clusters == 0 {
        return error_response(
            job.request_id,
            code::ERROR,
            "cluster budget C = 0: a solve needs C >= 1 (the no-bias level counts as one)"
                .to_owned(),
        );
    }
    let Some(pre) = job.design.preprocessed_for(granularity, req.beta, clusters) else {
        return error_response(
            job.request_id,
            code::ERROR,
            format!(
                "beta {} not compiled in for {granularity:?} (available: {:?})",
                req.beta,
                job.design.betas(granularity)
            ),
        );
    };

    if req.flags & flag::ILP != 0 {
        // Remaining budget = client budget minus queue wait; unbudgeted
        // requests get the CLI's default ILP limit.
        let limit = match budget {
            Some(b) => b.saturating_sub(job.sw.runtime()),
            None => DEFAULT_ILP_LIMIT,
        };
        let outcome = match IlpAllocator::with_time_limit(limit).solve(&pre) {
            Ok(outcome) => outcome,
            Err(e) => return fbb_error_response(job.request_id, &e),
        };
        match (outcome.solution, outcome.proven_optimal) {
            (Some(sol), proven) => {
                if !proven && req.flags & flag::REQUIRE_OPTIMAL != 0 {
                    return error_response(
                        job.request_id,
                        code::BUDGET_EXPIRED,
                        format!(
                            "deadline: ILP budget expired without an optimality proof (gap {:.2}%)",
                            outcome.gap * 100.0
                        ),
                    );
                }
                Response {
                    code: code::OK,
                    request_id: job.request_id,
                    body: ResponseBody::Solved(SolveReply {
                        leakage_nw: sol.leakage_nw,
                        clusters: sol.clusters as u64,
                        proven_optimal: proven,
                        assignment: sol.assignment.iter().map(|&l| l as u64).collect(),
                    }),
                }
            }
            (None, _) => error_response(
                job.request_id,
                code::BUDGET_EXPIRED,
                "deadline: no incumbent within the ILP budget".to_owned(),
            ),
        }
    } else {
        match TwoPassHeuristic.solve(&pre) {
            Ok(sol) => Response {
                code: code::OK,
                request_id: job.request_id,
                body: ResponseBody::Solved(SolveReply {
                    leakage_nw: sol.leakage_nw,
                    clusters: sol.clusters as u64,
                    proven_optimal: false,
                    assignment: sol.assignment.iter().map(|&l| l as u64).collect(),
                }),
            },
            Err(e) => fbb_error_response(job.request_id, &e),
        }
    }
}

/// Maps engine errors onto the response-code contract exactly as the CLI
/// maps them onto exit codes.
fn fbb_error_response(request_id: u64, e: &FbbError) -> Response {
    match e {
        FbbError::Uncompensable { .. } => {
            error_response(request_id, code::INFEASIBLE, format!("infeasible: {e}"))
        }
        other => error_response(request_id, code::ERROR, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn a_queued_job_waits_for_the_slot_a_reader_holds() {
        let queue = JobQueue::new(4, 1);
        let shutdown = AtomicBool::new(false);
        let inline = queue.try_slot().expect("the only slot is free");
        assert!(queue.try_slot().is_none(), "one slot, and it is out");
        queue.push(7u32, &shutdown).expect("room in the queue");
        std::thread::scope(|s| {
            let (queue, shutdown) = (&queue, &shutdown);
            let (entered, entered_rx) = mpsc::channel();
            let (took, took_rx) = mpsc::channel();
            s.spawn(move || {
                entered.send(()).expect("test alive");
                let (job, slot) = queue.pop(shutdown).expect("a job before shutdown");
                took.send(job).expect("test alive");
                drop(slot);
            });
            entered_rx.recv().expect("worker started");
            // The worker is in `pop`, but no slot is free: the job waits.
            assert!(took_rx.recv_timeout(4 * POLL_INTERVAL).is_err(), "job taken without a slot");
            assert_eq!(queue.depth_now(), 1);
            // Returning the slot wakes the worker, which takes the job.
            drop(inline);
            assert_eq!(took_rx.recv_timeout(Duration::from_secs(30)), Ok(7));
        });
        assert_eq!(queue.depth_now(), 0);
        let back = queue.try_slot();
        assert!(back.is_some(), "the worker returned its slot");
    }

    #[test]
    fn an_inline_slot_never_overtakes_a_queued_job() {
        let queue = JobQueue::new(4, 2);
        let shutdown = AtomicBool::new(false);
        queue.push(1u32, &shutdown).expect("room in the queue");
        assert!(queue.try_slot().is_none(), "a job is waiting, though both slots are free");
        let (job, slot) = queue.pop(&shutdown).expect("job and slot");
        assert_eq!(job, 1);
        let inline = queue.try_slot();
        assert!(inline.is_some(), "queue empty, one slot free");
        assert!(queue.try_slot().is_none(), "both slots out");
        drop(slot);
        drop(inline);
        let all: Vec<_> = (0..2).map(|_| queue.try_slot()).collect();
        assert!(all.iter().all(Option::is_some), "both slots came back");
    }

    #[test]
    fn slots_out_never_exceed_the_worker_count() {
        const WORKERS: usize = 2;
        const READERS: usize = 4;
        const SOLVES: usize = 300;
        let queue = JobQueue::new(8, WORKERS);
        let shutdown = AtomicBool::new(false);
        let (out, peak, answered) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        // Counted after a slot is taken and before it is returned, so
        // `out` never exceeds the slots actually held.
        let solve = |slot: Slot<'_, usize>| {
            let now = out.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            out.fetch_sub(1, Ordering::SeqCst);
            answered.fetch_add(1, Ordering::SeqCst);
            drop(slot);
        };
        std::thread::scope(|s| {
            let (queue, shutdown, solve) = (&queue, &shutdown, &solve);
            for _ in 0..WORKERS {
                s.spawn(move || {
                    while let Some((_, slot)) = queue.pop(shutdown) {
                        solve(slot);
                    }
                });
            }
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(move || {
                        for i in 0..SOLVES {
                            match queue.try_slot() {
                                Some(slot) => solve(slot),
                                None => queue.push(i, shutdown).expect("no shutdown yet"),
                            }
                        }
                    })
                })
                .collect();
            for reader in readers {
                reader.join().expect("reader finished");
            }
            shutdown.store(true, Ordering::SeqCst);
            queue.startable.notify_all();
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=WORKERS).contains(&peak), "{peak} slots out at once");
        assert_eq!(answered.load(Ordering::SeqCst), READERS * SOLVES, "every job ran once");
        assert_eq!(queue.depth_now(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let queue = JobQueue::new(4, 1);
        let shutdown = AtomicBool::new(false);
        queue.push(1u32, &shutdown).expect("room in the queue");
        shutdown.store(true, Ordering::SeqCst);
        assert_eq!(queue.push(2, &shutdown), Err(2), "no job queued once draining");
        let (job, slot) = queue.pop(&shutdown).expect("a job queued before the drain runs");
        assert_eq!(job, 1);
        drop(slot);
        assert!(queue.pop(&shutdown).is_none(), "drained");
    }
}
