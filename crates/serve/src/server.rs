//! The daemon: listener, connection threads, admission, execution slots,
//! drain.
//!
//! ```text
//! accept loop ──► one thread per connection, one request at a time:
//!   read line → parse → admit ─────────► wait for a slot ──► execute ──► write
//!                       │ tenant budgets   │ cap = workers     │ singleflight
//!                       │ cap = queue_cap  │ arrival order     │ (+ cache)
//! ```
//!
//! The connection thread that reads a work request does all of the work for
//! it. A connection answers its requests strictly in order, so an executor
//! pool behind a queue would add no concurrency, only a cap, and a counter
//! does that: at most `workers` requests run at once, and at most
//! `queue_cap` admitted requests wait for a slot. A request is either
//! admitted under a live [`TenantPermit`](bootes_guard::TenantPermit) or
//! rejected immediately with a well-formed `retry_after_ms` response — the
//! daemon never queues unboundedly. Waiting requests take free slots in
//! arrival order: each draws a ticket at admission, because a plain condvar
//! wait wakes its waiters in no particular order. Concurrent requests for
//! the same `(kind, pattern, config)` cache key coalesce through a
//! [`Singleflight`] group so a burst of identical inputs costs one
//! computation.
//!
//! # Drain
//!
//! A `shutdown` request (or [`ServerHandle::shutdown`]) drains in three
//! steps:
//!
//! 1. Admission closes under the gate lock. A work request read after this
//!    is rejected with `draining`.
//! 2. The drain waits through the grace window until every work request
//!    read so far has its answer *written to its socket*, so process exit
//!    cannot race the final writes.
//! 3. If some are still open, it arms a zero-time [`bootes_guard::Budget`] —
//!    the degradation chain inside the pipeline then steps the remaining
//!    requests down to a cheap algorithm instead of abandoning them — and
//!    waits again, up to a 30 s hard deadline. Requests still waiting for a
//!    slot after that answer with a draining reject.
//!
//! The `shutdown` ack itself goes on the wire before the drain is declared
//! complete. (The daemon is std-only and cannot trap SIGTERM; the
//! protocol-level `shutdown` op is the supported drain path.)

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bootes_cache::singleflight::{FlightRole, Singleflight};
use bootes_core::{BootesPipeline, Label};
use bootes_guard::{fail_point, Budget, TenantBudgets, TenantPolicy};
use bootes_sparse::{row_pattern_hashes, CsrMatrix, MatrixFingerprint};

use crate::protocol::{decode, encode, Request, Response, ServerStats};

/// Serving configuration (see the CLI's `bootes serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address: `unix:<path>`, `tcp:<host>:<port>`, or a bare
    /// filesystem path (treated as a Unix socket). `tcp:127.0.0.1:0` binds
    /// an ephemeral port, reported by [`ServerHandle::addr`].
    pub listen: String,
    /// Requests executing at once (each runs the pipeline, which
    /// parallelizes its kernels internally).
    pub workers: usize,
    /// Admitted requests that may wait for an execution slot; past it a
    /// request is rejected.
    pub queue_cap: usize,
    /// Per-tenant admission policy.
    pub policy: TenantPolicy,
    /// Grace window for in-flight work on drain before the remaining jobs
    /// are revoked into the degradation chain.
    pub drain_grace_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "tcp:127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            policy: TenantPolicy::unlimited().with_inflight(32),
            drain_grace_ms: 2_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkOp {
    Preprocess,
    Decide,
}

const DRAINING: &str = "draining: server is shutting down";

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_admission: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_draining: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    parse_errors: AtomicU64,
    deadline_rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
}

/// Admission, execution and drain state, under one lock and one condvar.
#[derive(Default)]
struct Gate {
    /// Work requests read and not yet written back.
    open: u64,
    /// Admitted requests waiting for an execution slot.
    waiting: usize,
    /// Requests holding one of the `workers` execution slots.
    running: usize,
    /// Admission is closed; set once, by the drain's owner.
    draining: bool,
    /// The drain is complete.
    drained: bool,
    /// The ticket the next admitted request draws.
    next_ticket: u64,
    /// The ticket whose turn it is to take a free slot.
    next_turn: u64,
}

struct Shared {
    pipeline: BootesPipeline,
    config: ServeConfig,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    flights: Singleflight<Response>,
    tenants: Arc<TenantBudgets>,
    counters: Counters,
}

/// A request's hold on the gate — its `open` count or its execution slot —
/// given back on drop, so a request thread that unwinds cannot stall the
/// drain.
struct Hold<'a>(&'a Shared, fn(&mut Gate));

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        (self.1)(&mut self.0.lock_gate());
        self.0.gate_cv.notify_all();
    }
}

impl Shared {
    fn lock_gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Waits, up to `timeout`, while `busy` holds; returns the gate.
    fn wait_while(
        &self,
        timeout: Duration,
        busy: impl FnMut(&mut Gate) -> bool,
    ) -> MutexGuard<'_, Gate> {
        self.gate_cv
            .wait_timeout_while(self.lock_gate(), timeout, busy)
            .unwrap_or_else(|p| p.into_inner())
            .0
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        let gate = self.lock_gate();
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected_admission: c.rejected_admission.load(Ordering::Relaxed),
            rejected_queue: c.rejected_queue.load(Ordering::Relaxed),
            rejected_draining: c.rejected_draining.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            parse_errors: c.parse_errors.load(Ordering::Relaxed),
            deadline_rejected: c.deadline_rejected.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            queue_depth: gate.waiting as u64,
            inflight: gate.running as u64,
            draining: gate.draining,
        }
    }

    /// Waits for `ticket`'s turn at a free execution slot and takes it;
    /// `None` if the drain completed first.
    fn take_slot(&self, ticket: u64) -> Option<Hold<'_>> {
        let workers = self.config.workers.max(1);
        let mut gate = self.wait_while(Duration::MAX, |g| {
            !g.drained && (g.next_turn != ticket || g.running >= workers)
        });
        gate.waiting -= 1;
        bootes_obs::gauge_set("serve.queue.depth", gate.waiting as f64);
        if gate.drained {
            return None;
        }
        gate.running += 1;
        gate.next_turn += 1;
        drop(gate);
        // The next ticket may find a free slot too.
        self.gate_cv.notify_all();
        Some(Hold(self, |g| g.running -= 1))
    }

    fn reject_draining(&self, id: u64) -> Response {
        self.counters
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        bootes_obs::counter_add("serve.rejected.draining", 1);
        Response::reject(id, DRAINING, 1_000)
    }

    /// Closes admission (drain step 1). Returns whether this call closed it,
    /// i.e. owns the drain.
    fn close_admission(&self) -> bool {
        !std::mem::replace(&mut self.lock_gate().draining, true)
    }

    /// Executes the drain described in the module docs. Idempotent; only the
    /// first caller performs the work, later callers block until drained.
    fn drain(&self) {
        if self.close_admission() {
            self.drain_work();
            self.finish_drain();
        } else {
            self.wait_drained();
        }
    }

    /// Blocks until the drain's owner publishes completion.
    fn wait_drained(&self) {
        drop(self.wait_while(Duration::MAX, |g| !g.drained));
    }

    /// Drain steps 2 and 3: wait for every open work request to be answered.
    /// Split from [`Shared::finish_drain`] so the protocol `shutdown` owner
    /// can put its ack on the wire *between* the two — the process's main
    /// thread exits as soon as `drained` is set, and must not exit under the
    /// ack write.
    fn drain_work(&self) {
        let grace = Duration::from_millis(self.config.drain_grace_ms);
        if self.wait_while(grace, |g| g.open > 0).open == 0 {
            return;
        }
        // Revoke the stragglers. A zero-time budget makes every cooperative
        // checkpoint in the pipeline report exhaustion, so the degradation
        // chain steps running requests down to a cheap algorithm and they
        // complete (with `degraded` set) instead of running long.
        let _revoked = Budget::unlimited().with_time_ms(0).arm();
        drop(self.wait_while(Duration::from_secs(30), |g| g.open > 0));
    }

    /// Publishes drain completion: unblocks [`ServerHandle::join`], follower
    /// `shutdown` callers, requests still waiting for a slot, and the accept
    /// loop's exit check.
    fn finish_drain(&self) {
        self.lock_gate().drained = true;
        self.gate_cv.notify_all();
    }
}

/// Parsed listen address.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// One accepted (or dialed) connection, Unix or TCP.
pub(crate) enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Connects to a serve address (`unix:<path>`, `tcp:<host:port>`, or a bare
/// Unix-socket path).
pub(crate) fn connect(addr: &str) -> std::io::Result<Stream> {
    if let Some(hostport) = addr.strip_prefix("tcp:") {
        return Ok(Stream::Tcp(TcpStream::connect(hostport)?));
    }
    let path = addr.strip_prefix("unix:").unwrap_or(addr);
    #[cfg(unix)]
    {
        Ok(Stream::Unix(UnixStream::connect(path)?))
    }
    #[cfg(not(unix))]
    {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("unix sockets unavailable on this platform: {path}"),
        ))
    }
}

impl Listener {
    fn bind(spec: &str) -> std::io::Result<(Listener, String)> {
        if let Some(hostport) = spec.strip_prefix("tcp:") {
            let l = TcpListener::bind(hostport)?;
            let addr = format!("tcp:{}", l.local_addr()?);
            return Ok((Listener::Tcp(l), addr));
        }
        let path = spec.strip_prefix("unix:").unwrap_or(spec);
        #[cfg(unix)]
        {
            let path = PathBuf::from(path);
            // A stale socket file from a dead daemon would fail the bind.
            let _ = std::fs::remove_file(&path);
            let l = UnixListener::bind(&path)?;
            let addr = format!("unix:{}", path.display());
            Ok((Listener::Unix(l, path), addr))
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("unix sockets unavailable on this platform: {path}"),
            ))
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A running server: bound address plus the join/shutdown controls.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: String,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address in connectable `tcp:...` / `unix:...` form (with
    /// the actual port for an ephemeral `tcp:...:0` bind).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Counters snapshot (the in-process equivalent of the `stats` op).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Starts a graceful drain from inside the process (the protocol
    /// `shutdown` op does the same). Blocks until the drain completes.
    pub fn shutdown(&self) {
        self.shared.drain();
        // Wake the accept loop so it observes the drained flag.
        let _ = connect(&self.addr);
    }

    /// Waits for the server to drain (via [`ServerHandle::shutdown`] or a
    /// protocol `shutdown` request) and joins the accept thread. Returns the
    /// final counters.
    pub fn join(mut self) -> ServerStats {
        self.shared.wait_drained();
        // Unblock a possibly-parked accept call, then join.
        let _ = connect(&self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

/// Binds the configured address and starts the accept loop. The pipeline
/// (and the process-global artifact cache, if installed) is shared across
/// all connections.
///
/// # Errors
///
/// Propagates the bind error (bad address, busy port, unwritable socket
/// path).
pub fn start(config: ServeConfig, pipeline: BootesPipeline) -> std::io::Result<ServerHandle> {
    let (listener, addr) = Listener::bind(&config.listen)?;
    let tenants = Arc::new(TenantBudgets::new(config.policy));
    let shared = Arc::new(Shared {
        pipeline,
        config,
        gate: Mutex::new(Gate::default()),
        gate_cv: Condvar::new(),
        flights: Singleflight::new(),
        tenants,
        counters: Counters::default(),
    });
    let accept_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&shared, listener))?
    };
    Ok(ServerHandle {
        shared,
        addr,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) if shared.lock_gate().drained => break,
            Err(_) => continue,
        };
        if shared.lock_gate().drained {
            break;
        }
        // Deterministic fault injection: a failed accept drops exactly this
        // connection; the daemon itself stays up.
        if fail_point("serve.accept").is_err() {
            bootes_obs::counter_add("serve.accept.dropped", 1);
            continue;
        }
        bootes_obs::counter_add("serve.accepted_conns", 1);
        let shared = Arc::clone(shared);
        // Connection threads are detached: they exit when the client hangs
        // up, and a drained process does not wait on idle clients.
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_conn(&shared, stream));
    }
}

fn write_line(out: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    let mut line = encode(resp);
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// What the connection thread does after writing a response.
enum AfterWrite<'a> {
    /// Keep serving this connection.
    KeepOpen,
    /// A work (preprocess/decide) response: release its `open` count, so the
    /// drain sees it answered, then keep serving.
    Work(Hold<'a>),
    /// Shutdown follower: the drain already completed elsewhere; close.
    Close,
    /// Shutdown owner: the ack is now on the wire; publish drain completion
    /// (which lets the process exit), then close.
    FinishDrain,
}

fn handle_conn(shared: &Shared, stream: Stream) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        // Bytes, not `String`: a line that is not UTF-8 gets an answer like
        // any other bad line instead of ending the connection.
        let mut line = Vec::new();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim_ascii().is_empty() {
            continue;
        }
        let (resp, after) = handle_line(shared, line);
        let write_ok = write_line(&mut writer, &resp).is_ok();
        match after {
            AfterWrite::KeepOpen => {}
            // Released even on a failed write: a hung-up client discharges
            // the obligation, and the drain must not wait on it.
            AfterWrite::Work(open) => drop(open),
            AfterWrite::Close => break,
            AfterWrite::FinishDrain => {
                shared.finish_drain();
                break;
            }
        }
        if !write_ok {
            break;
        }
    }
}

/// Handles one request line; the [`AfterWrite`] verdict tells the connection
/// thread what to do once the response is written. The line is consumed:
/// it is freed once decoded, before any work waits for a slot.
fn handle_line(shared: &Shared, line: Vec<u8>) -> (Response, AfterWrite<'_>) {
    if let Err(e) = fail_point("serve.parse") {
        shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
        return (Response::err(0, e.to_string()), AfterWrite::KeepOpen);
    }
    // Trailing whitespace, the `\n` or `\r\n` included, is not part of the
    // request.
    let decoded: Result<Request, String> = std::str::from_utf8(line.trim_ascii_end())
        .map_err(|e| format!("bad request line: {e}"))
        .and_then(decode);
    drop(line);
    let req = match decoded {
        Ok(r) => r,
        Err(e) => {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            return (Response::err(0, e), AfterWrite::KeepOpen);
        }
    };
    match req.op.as_str() {
        "ping" => (Response::ack(req.id), AfterWrite::KeepOpen),
        "stats" => (
            Response {
                stats: Some(shared.stats()),
                ..Response::ack(req.id)
            },
            AfterWrite::KeepOpen,
        ),
        "shutdown" => {
            if shared.close_admission() {
                // Drain owner: do the work now, but hold back `drained`
                // until this connection has the ack on the wire — the main
                // thread exits on `drained` and must not exit under the
                // write.
                shared.drain_work();
                (Response::ack(req.id), AfterWrite::FinishDrain)
            } else {
                // A drain is already running (or done); wait, then ack.
                shared.wait_drained();
                (Response::ack(req.id), AfterWrite::Close)
            }
        }
        "preprocess" | "decide" => {
            let op = if req.op == "preprocess" {
                WorkOp::Preprocess
            } else {
                WorkOp::Decide
            };
            // Opened before any verdict: the drain waits for every work
            // response — completions, errors, and rejects alike.
            shared.lock_gate().open += 1;
            let open = Hold(shared, |g| g.open -= 1);
            (submit_work(shared, op, req), AfterWrite::Work(open))
        }
        other => (
            Response::err(req.id, format!("unknown op {other:?}")),
            AfterWrite::KeepOpen,
        ),
    }
}

/// Backoff hint scaled to the observed load: no waiting requests suggests an
/// immediate retry, many suggest waiting a beat.
fn retry_hint(depth: usize) -> u64 {
    10 + 5 * depth as u64
}

/// Admits, runs and answers one work request on the calling connection
/// thread.
fn submit_work(shared: &Shared, op: WorkOp, req: Request) -> Response {
    let deadline = req
        .deadline_ms
        .filter(|&ms| ms > 0)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    if shared.lock_gate().draining {
        return shared.reject_draining(req.id);
    }
    let Some(payload) = req.matrix else {
        return Response::err(req.id, format!("{} needs a matrix payload", req.op));
    };
    let bytes = payload.approx_bytes();
    // The payload's vectors move into the conversion and are freed with it,
    // so only the CSR matrix stays resident while the request waits and runs.
    let matrix = match payload.into_csr() {
        Ok(m) => m,
        Err(e) => return Response::err(req.id, e),
    };
    let tenant = req.tenant.unwrap_or_else(|| "default".to_string());
    // Held until the request has run; released on drop even on unwind.
    let _permit = match shared.tenants.try_admit(&tenant, bytes) {
        Ok(p) => p,
        Err(e) => {
            shared
                .counters
                .rejected_admission
                .fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("serve.rejected.admission", 1);
            let depth = shared.lock_gate().waiting;
            return Response::reject(req.id, e.to_string(), retry_hint(depth));
        }
    };
    if bootes_obs::enabled() {
        bootes_obs::counter_add(&format!("serve.tenant.bytes{{tenant={tenant}}}"), bytes);
    }
    // Admission decides under the gate lock, where the drain closes it: a
    // request is either admitted before the drain's wait begins (and is
    // executed) or observes `draining` (and is rejected) — never lost in
    // between.
    let ticket = {
        let mut gate = shared.lock_gate();
        if gate.draining {
            return shared.reject_draining(req.id);
        }
        let depth = gate.waiting;
        if depth >= shared.config.queue_cap {
            shared
                .counters
                .rejected_queue
                .fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("serve.rejected.queue_full", 1);
            return Response::reject(
                req.id,
                format!("queue full ({depth} pending)"),
                retry_hint(depth),
            );
        }
        gate.waiting += 1;
        gate.next_ticket += 1;
        bootes_obs::gauge_set("serve.queue.depth", gate.waiting as f64);
        gate.next_ticket - 1
    };
    let enqueued = Instant::now();
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    bootes_obs::counter_add("serve.accepted", 1);
    let Some(_slot) = shared.take_slot(ticket) else {
        // The drain's hard deadline passed with this request still waiting.
        return Response::reject(req.id, DRAINING, 1_000);
    };
    let queue_wait = enqueued.elapsed();
    bootes_obs::histogram_record("serve.queue.wait_ns", queue_wait.as_nanos() as u64);
    let mut resp = if deadline.is_some_and(|d| Instant::now() >= d) {
        // The deadline passed while the request waited for its slot: answer
        // with a typed rejection instead of spending the slot on a result
        // the caller has already given up on. This still counts as
        // completed — the drain invariant is "every admitted request is
        // answered", and this is its answer.
        shared
            .counters
            .deadline_rejected
            .fetch_add(1, Ordering::Relaxed);
        bootes_obs::counter_add("serve.deadline.rejected", 1);
        Response {
            deadline_exceeded: true,
            ..Response::err(
                req.id,
                format!(
                    "deadline exceeded: waited {:.1} ms in queue",
                    queue_wait.as_secs_f64() * 1e3
                ),
            )
        }
    } else {
        let started = Instant::now();
        let mut resp = execute(shared, req.id, op, &matrix);
        let exec = started.elapsed();
        bootes_obs::histogram_record("serve.exec_ns", exec.as_nanos() as u64);
        resp.exec_ms = exec.as_secs_f64() * 1e3;
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Started in time, finished late: the result is valid and is
            // delivered in full, just flagged so the caller knows.
            resp.deadline_exceeded = true;
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("serve.deadline.exceeded", 1);
        }
        resp
    };
    resp.queue_ms = queue_wait.as_secs_f64() * 1e3;
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    bootes_obs::counter_add("serve.completed", 1);
    resp
}

fn execute(shared: &Shared, id: u64, op: WorkOp, matrix: &CsrMatrix) -> Response {
    // One walk over the indices per request, as `preprocess` takes it: the
    // row hashes give the fingerprint, which keys the flight and the
    // pipeline's cache lookups alike, and a preprocess miss reuses them.
    let row_hashes = row_pattern_hashes(matrix);
    let fp = MatrixFingerprint::from_row_hashes(matrix, &row_hashes);
    let key = match op {
        WorkOp::Preprocess => shared.pipeline.reorder_key_of(&fp),
        WorkOp::Decide => shared.pipeline.decision_key_of(&fp),
    };
    // The flight's answer carries id 0; every caller stamps its own.
    let (result, role) = shared.flights.run(key, || {
        fail_point("serve.coalesce.leader").map_err(|e| e.to_string())?;
        match op {
            WorkOp::Decide => {
                let decision = shared
                    .pipeline
                    .decide_fingerprinted(matrix, &fp)
                    .map_err(|e| e.to_string())?;
                Ok(verdict(decision.label))
            }
            WorkOp::Preprocess => {
                let out = shared
                    .pipeline
                    .preprocess_fingerprinted(matrix, &fp, row_hashes)
                    .map_err(|e| e.to_string())?;
                Ok(Response {
                    permutation: Some(out.permutation.into()),
                    cache_hit: out.stats.cache_hit,
                    degraded: out.stats.is_degraded(),
                    algorithm: Some(out.stats.algorithm),
                    ..verdict(out.decision.label)
                })
            }
        }
    });
    let coalesced = role == FlightRole::Coalesced;
    if coalesced {
        shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        bootes_obs::counter_add("serve.coalesce.hits", 1);
    }
    match result {
        Ok(resp) => {
            if resp.cache_hit && !coalesced {
                shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                bootes_obs::counter_add("serve.cache.hits", 1);
            }
            Response {
                id,
                coalesced,
                ..resp
            }
        }
        Err(e) => Response {
            coalesced,
            ..Response::err(id, e)
        },
    }
}

/// A successful answer carrying the cost model's verdict.
fn verdict(label: Label) -> Response {
    let (name, k) = match label {
        Label::NoReorder => ("no-reorder", None),
        Label::Reorder(k) => ("reorder", Some(k as u64)),
    };
    Response {
        label: Some(name.to_string()),
        k,
        ..Response::ack(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::MatrixPayload;
    use bootes_core::BootesConfig;
    use bootes_workloads::gen::{clustered, GenConfig};

    fn test_pipeline() -> BootesPipeline {
        BootesPipeline::new(
            bootes_core::toy_tree(8).expect("8 is a candidate k"),
            BootesConfig::default(),
        )
        .expect("valid model")
    }

    fn test_matrix(seed: u64) -> CsrMatrix {
        clustered(&GenConfig::new(96, 96).seed(seed), 4, 0.85).expect("valid generator")
    }

    fn unix_cfg(tag: &str) -> ServeConfig {
        let path = std::env::temp_dir().join(format!(
            "bootes-serve-test-{}-{tag}.sock",
            std::process::id()
        ));
        ServeConfig {
            listen: format!("unix:{}", path.display()),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn ping_work_stats_shutdown_roundtrip() {
        let handle = start(unix_cfg("basic"), test_pipeline()).expect("server starts");
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("client connects");
        assert!(client.ping().expect("ping").ok);

        let payload = MatrixPayload::from_csr(&test_matrix(3));
        let decide = client
            .request(&Request {
                id: 1,
                op: "decide".to_string(),
                matrix: Some(payload.clone()),
                ..Request::default()
            })
            .expect("decide answers");
        assert!(decide.ok, "{:?}", decide.error);
        assert!(decide.label.is_some());

        let pre = client
            .request(&Request {
                id: 2,
                op: "preprocess".to_string(),
                matrix: Some(payload),
                ..Request::default()
            })
            .expect("preprocess answers");
        assert!(pre.ok, "{:?}", pre.error);
        let perm = pre.permutation.expect("permutation present");
        assert_eq!(perm.len(), 96);

        let stats = client.stats().expect("stats answers");
        let snap = stats.stats.expect("stats payload");
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.completed, 2);
        // Answered means off the books: nothing waits, nothing runs.
        assert_eq!((snap.queue_depth, snap.inflight), (0, 0));

        // An idle daemon drains at once, without waiting out its 2 s grace.
        let asked = Instant::now();
        assert!(client.shutdown().expect("shutdown answers").ok);
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "idle drain took {:?}",
            asked.elapsed()
        );
        let final_stats = handle.join();
        assert_eq!(final_stats.completed, 2);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let cfg = ServeConfig {
            workers: 4,
            ..unix_cfg("coalesce")
        };
        let handle = start(cfg, test_pipeline()).expect("server starts");
        let addr = handle.addr().to_string();
        let payload = MatrixPayload::from_csr(&test_matrix(11));
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let addr = addr.clone();
                let payload = payload.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("client connects");
                    client
                        .request(&Request {
                            id: i,
                            op: "preprocess".to_string(),
                            matrix: Some(payload),
                            ..Request::default()
                        })
                        .expect("answered")
                })
            })
            .collect();
        let responses: Vec<Response> = threads
            .into_iter()
            .map(|t| t.join().expect("thread joins"))
            .collect();
        let first = responses[0].permutation.clone().expect("permutation");
        for r in &responses {
            assert!(r.ok, "{:?}", r.error);
            assert_eq!(
                r.permutation.as_deref(),
                Some(first.as_slice()),
                "identical input must produce identical permutations"
            );
        }
        // With 4 workers racing 6 identical requests, at least one must have
        // been served by coalescing or by the artifact cache (both prove the
        // shared-computation path; which one wins is a scheduling race).
        let shared_serves = responses
            .iter()
            .filter(|r| r.coalesced || r.cache_hit)
            .count();
        assert!(shared_serves > 0, "no request shared the computation");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn admission_rejects_are_well_formed_and_release() {
        let cfg = ServeConfig {
            policy: TenantPolicy::unlimited().with_bytes(64),
            ..unix_cfg("admission")
        };
        let handle = start(cfg, test_pipeline()).expect("server starts");
        let mut client = Client::connect(handle.addr()).expect("client connects");
        // Any real payload exceeds a 64-byte ceiling deterministically.
        let resp = client
            .request(&Request {
                id: 9,
                op: "preprocess".to_string(),
                matrix: Some(MatrixPayload::from_csr(&test_matrix(5))),
                ..Request::default()
            })
            .expect("reject is a response, not a hangup");
        assert!(!resp.ok);
        assert!(resp.retry_after_ms.is_some(), "reject carries a retry hint");
        let err = resp.error.expect("reject carries an error");
        assert!(err.contains("tenant:default"), "{err}");
        // The rejection reserved nothing: stats still report zero admitted.
        let snap = client.stats().expect("stats").stats.expect("payload");
        assert_eq!(snap.accepted, 0);
        assert_eq!(snap.rejected_admission, 1);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn drain_during_load_loses_no_admitted_responses() {
        let cfg = ServeConfig {
            workers: 2,
            drain_grace_ms: 10_000,
            ..unix_cfg("drain")
        };
        let handle = start(cfg, test_pipeline()).expect("server starts");
        let addr = handle.addr().to_string();
        let senders: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("client connects");
                    client
                        .request(&Request {
                            id: i,
                            op: "preprocess".to_string(),
                            matrix: Some(MatrixPayload::from_csr(&test_matrix(20 + i))),
                            ..Request::default()
                        })
                        .expect("admitted request must be answered")
                })
            })
            .collect();
        // Give the requests a moment to be admitted, then drain under load.
        std::thread::sleep(Duration::from_millis(30));
        let mut shutter = Client::connect(&addr).expect("client connects");
        assert!(shutter.shutdown().expect("shutdown answers").ok);
        for t in senders {
            let resp = t.join().expect("sender joins");
            // Every admitted request got a response; late arrivals that hit
            // the draining window get a typed reject instead of a hang.
            assert!(
                resp.ok
                    || resp
                        .error
                        .as_deref()
                        .is_some_and(|e| e.contains("draining")),
                "unexpected response: {resp:?}"
            );
        }
        let stats = handle.join();
        assert_eq!(
            stats.accepted, stats.completed,
            "drain must execute everything admitted"
        );
        // New connections are refused after the drain (listener is gone).
        assert!(Client::connect(&addr).is_err());
    }
}
