//! The daemon: listener, admission, bounded queue, executor workers, drain.
//!
//! ```text
//! accept loop ──► connection threads ──► bounded queue ──► executor workers
//!                   │ parse + admission      │ cap = queue_cap   │ singleflight
//!                   │ (tenant budgets)       ▼                   ▼
//!                   └──◄─── response ◄── mpsc reply ◄─── pipeline (+ cache)
//! ```
//!
//! Every stage is bounded: a request is either admitted into the fixed-size
//! queue under a live [`TenantPermit`], or rejected immediately with a
//! well-formed `retry_after_ms` response — the daemon never queues
//! unboundedly. Executor workers run the [`BootesPipeline`]; concurrent
//! requests for the same `(kind, pattern, config)` cache key coalesce through
//! a [`Singleflight`] group so a burst of identical inputs costs one
//! computation.
//!
//! # Drain
//!
//! A `shutdown` request (or [`ServerHandle::shutdown`]) starts a graceful
//! drain: admission flips to reject-with-`draining`, the already-admitted
//! queue keeps executing, and once the grace window expires any still-running
//! work is revoked by arming a zero-time [`bootes_guard::Budget`] — the
//! degradation chain inside the pipeline then steps the remaining jobs down
//! to a cheap algorithm instead of abandoning them. Workers replying is only
//! half the contract: the drain also waits until every seen work request has
//! had its response *written to its socket* (the connection threads are
//! detached, so without that wait the process could exit between a worker's
//! reply and the final write), and the `shutdown` ack itself goes on the wire
//! before the drain is declared complete. (The daemon is std-only and cannot
//! trap SIGTERM; the protocol-level `shutdown` op is the supported drain
//! path.)

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bootes_cache::singleflight::{FlightRole, Singleflight};
use bootes_core::{BootesPipeline, Label};
use bootes_guard::{fail_point, Budget, TenantBudgets, TenantPermit, TenantPolicy};
use bootes_sparse::{CsrMatrix, MatrixFingerprint};

use crate::protocol::{decode, encode, Request, Response, ServerStats};

/// Serving configuration (see the CLI's `bootes serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address: `unix:<path>`, `tcp:<host>:<port>`, or a bare
    /// filesystem path (treated as a Unix socket). `tcp:127.0.0.1:0` binds
    /// an ephemeral port, reported by [`ServerHandle::addr`].
    pub listen: String,
    /// Executor worker threads (each runs the pipeline, which parallelizes
    /// its kernels internally).
    pub workers: usize,
    /// Bounded admission-queue capacity; a full queue rejects.
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

/// Result of one executed computation, cloned to every coalesced waiter.
#[derive(Debug, Clone)]
struct ExecOutcome {
    label: String,
    k: Option<u64>,
    permutation: Option<Vec<usize>>,
    algorithm: Option<String>,
    cache_hit: bool,
    degraded: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkOp {
    Preprocess,
    Decide,
}

struct Job {
    id: u64,
    op: WorkOp,
    matrix: CsrMatrix,
    // Held for the job's whole queue+execute lifetime; released on drop even
    // if the worker panics.
    _permit: TenantPermit,
    reply: mpsc::Sender<Response>,
    enqueued: Instant,
    /// Absolute deadline (from the request's `deadline_ms`, measured at
    /// admission). Checked at dequeue: past-deadline work is answered with a
    /// typed rejection instead of burning a worker on an answer nobody
    /// wants; work that starts in time but finishes late is still answered
    /// in full, flagged `deadline_exceeded`.
    deadline: Option<Instant>,
}

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

struct Shared {
    pipeline: BootesPipeline,
    config: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    inflight: AtomicU64,
    /// Idempotence latch: only the first drain() performs the work.
    drain_started: AtomicBool,
    /// Admission gate; flipped *under the queue lock* so no request can be
    /// enqueued concurrently with the drain's emptiness wait.
    draining: AtomicBool,
    drained: AtomicBool,
    stop_workers: AtomicBool,
    // Workers notify after finishing a job; drain waits here for idleness,
    // join() waits here for the drained flag.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Work (preprocess/decide) requests seen by admission, and work
    /// responses written back to their sockets. The drain waits for these to
    /// match: queue-empty + inflight==0 only proves the workers *replied*,
    /// not that the detached connection threads got the bytes onto the wire
    /// before the process exits.
    work_seen: AtomicU64,
    work_responded: AtomicU64,
    flights: Singleflight<ExecOutcome>,
    tenants: Arc<TenantBudgets>,
    counters: Counters,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn drained(&self) -> bool {
        self.drained.load(Ordering::Acquire)
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
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
            queue_depth: self.lock_queue().len() as u64,
            inflight: self.inflight.load(Ordering::Relaxed),
            draining: self.draining(),
        }
    }

    /// Executes the drain described in the module docs. Idempotent; only the
    /// first caller performs the work, later callers block until drained.
    fn drain(&self) {
        if self.drain_started.swap(true, Ordering::AcqRel) {
            self.wait_drained();
            return;
        }
        self.drain_work();
        self.finish_drain();
    }

    /// Blocks until another thread's drain signals completion.
    fn wait_drained(&self) {
        let mut guard = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        while !self.drained() {
            guard = self.idle_cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The drain owner's work: close admission, execute/revoke/flush the
    /// admitted jobs, then wait for their responses to reach the sockets.
    /// Split from [`Shared::finish_drain`] so the protocol `shutdown` owner
    /// can put its ack on the wire *between* the two — the process's main
    /// thread exits as soon as `drained` is set, and must not exit under the
    /// ack write.
    fn drain_work(&self) {
        // Close admission under the queue lock: every job enqueued
        // before this point is visible to the emptiness wait below, and
        // every submit after this point observes `draining` and rejects.
        {
            let _queue = self.lock_queue();
            self.draining.store(true, Ordering::Release);
        }
        // Phase 1: grace window — let admitted work finish normally.
        let deadline = Instant::now() + Duration::from_millis(self.config.drain_grace_ms);
        let idle = self.wait_idle_until(deadline);
        let hard_deadline = Instant::now() + Duration::from_secs(30);
        // Phase 2: revoke the stragglers. A zero-time budget makes every
        // cooperative checkpoint in the pipeline report exhaustion, so the
        // degradation chain steps in-flight jobs down to a cheap algorithm
        // and they complete (with `degraded` set) instead of running long.
        if !idle {
            let _revoked = Budget::unlimited().with_time_ms(0).arm();
            self.wait_idle_until(hard_deadline);
        }
        self.stop_workers.store(true, Ordering::Release);
        self.queue_cv.notify_all();
        // Safety net: if the hard deadline also passed with jobs still
        // queued, answer them with a typed reject so no connection hangs on
        // a reply channel whose worker has exited.
        let leftovers: Vec<Job> = self.lock_queue().drain(..).collect();
        for job in leftovers {
            let _ = job.reply.send(Response::reject(
                job.id,
                "draining: server is shutting down",
                1_000,
            ));
        }
        // Phase 3: delivery. The replies above (and the workers') sit in
        // per-job mpsc channels until the detached connection threads write
        // them out; wait for every seen work request's response to hit its
        // socket so process exit cannot race the final writes.
        self.wait_delivered_until(hard_deadline);
    }

    /// Publishes drain completion: unblocks [`ServerHandle::join`], follower
    /// `shutdown` callers, and the accept loop's exit check.
    fn finish_drain(&self) {
        self.drained.store(true, Ordering::Release);
        self.idle_cv.notify_all();
    }

    /// Waits until the queue is empty and no job is executing, or until
    /// `deadline`. Returns whether idleness was reached.
    fn wait_idle_until(&self, deadline: Instant) -> bool {
        let mut guard = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let idle = self.lock_queue().is_empty() && self.inflight.load(Ordering::Acquire) == 0;
            if idle {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _timeout) = self
                .idle_cv
                .wait_timeout(guard, (deadline - now).min(Duration::from_millis(50)))
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
        }
    }

    /// Waits until every seen work request has had its response written to
    /// its socket (hung-up clients count as delivered), or until `deadline`.
    /// `seen` is read live, so draining-rejects still in flight extend the
    /// wait instead of being lost to process exit.
    fn wait_delivered_until(&self, deadline: Instant) -> bool {
        let mut guard = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let delivered = self.work_responded.load(Ordering::Acquire)
                >= self.work_seen.load(Ordering::Acquire);
            if delivered {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _timeout) = self
                .idle_cv
                .wait_timeout(guard, (deadline - now).min(Duration::from_millis(50)))
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
        }
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
    workers: Vec<std::thread::JoinHandle<()>>,
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
    /// protocol `shutdown` request) and joins the worker threads. Returns
    /// the final counters.
    pub fn join(mut self) -> ServerStats {
        {
            let mut guard = self.shared.idle.lock().unwrap_or_else(|p| p.into_inner());
            while !self.shared.drained() {
                guard = self
                    .shared
                    .idle_cv
                    .wait(guard)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }
        // Unblock a possibly-parked accept call, then join.
        let _ = connect(&self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats()
    }
}

/// Binds the configured address and starts the accept loop plus the executor
/// workers. The pipeline (and the process-global artifact cache, if
/// installed) is shared across all connections.
///
/// # Errors
///
/// Propagates the bind error (bad address, busy port, unwritable socket
/// path).
pub fn start(config: ServeConfig, pipeline: BootesPipeline) -> std::io::Result<ServerHandle> {
    let (listener, addr) = Listener::bind(&config.listen)?;
    let tenants = Arc::new(TenantBudgets::new(config.policy));
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        pipeline,
        config,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        inflight: AtomicU64::new(0),
        drain_started: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        drained: AtomicBool::new(false),
        stop_workers: AtomicBool::new(false),
        idle: Mutex::new(()),
        idle_cv: Condvar::new(),
        work_seen: AtomicU64::new(0),
        work_responded: AtomicU64::new(0),
        flights: Singleflight::new(),
        tenants,
        counters: Counters::default(),
    });
    let mut worker_handles = Vec::with_capacity(workers);
    for slot in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("serve-exec-{slot}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
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
        workers: worker_handles,
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) if shared.drained() => break,
            Err(_) => continue,
        };
        if shared.drained() {
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
enum AfterWrite {
    /// Keep serving this connection.
    KeepOpen,
    /// A work (preprocess/decide) response: confirm delivery so the drain's
    /// delivery wait can account for it, then keep serving.
    ConfirmWork,
    /// Shutdown follower: the drain already completed elsewhere; close.
    Close,
    /// Shutdown owner: the ack is now on the wire; publish drain completion
    /// (which lets the process exit), then close.
    FinishDrain,
}

fn handle_conn(shared: &Arc<Shared>, stream: Stream) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (resp, after) = handle_line(shared, line);
        let write_ok = write_line(&mut writer, &resp).is_ok();
        match after {
            AfterWrite::KeepOpen => {}
            AfterWrite::ConfirmWork => {
                // Delivery is confirmed even on a failed write: a hung-up
                // client discharges the obligation, and the drain must not
                // wait on it.
                shared.work_responded.fetch_add(1, Ordering::AcqRel);
                shared.idle_cv.notify_all();
            }
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
/// it is freed once decoded, before any work waits on the queue.
fn handle_line(shared: &Arc<Shared>, line: String) -> (Response, AfterWrite) {
    if let Err(e) = fail_point("serve.parse") {
        shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
        return (Response::err(0, e.to_string()), AfterWrite::KeepOpen);
    }
    let decoded: Result<Request, String> = decode(&line);
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
            if shared.drain_started.swap(true, Ordering::AcqRel) {
                // A drain is already running (or done); wait, then ack.
                shared.wait_drained();
                (Response::ack(req.id), AfterWrite::Close)
            } else {
                // Drain owner: do the work now, but hold back `drained`
                // until this connection has the ack on the wire — the main
                // thread exits on `drained` and must not exit under the
                // write.
                shared.drain_work();
                (Response::ack(req.id), AfterWrite::FinishDrain)
            }
        }
        "preprocess" | "decide" => {
            let op = if req.op == "preprocess" {
                WorkOp::Preprocess
            } else {
                WorkOp::Decide
            };
            (submit_work(shared, op, req), AfterWrite::ConfirmWork)
        }
        other => (
            Response::err(req.id, format!("unknown op {other:?}")),
            AfterWrite::KeepOpen,
        ),
    }
}

/// Backoff hint scaled to the observed load: an empty queue suggests an
/// immediate retry, a deep one suggests waiting a beat.
fn retry_hint(depth: usize) -> u64 {
    10 + 5 * depth as u64
}

fn submit_work(shared: &Arc<Shared>, op: WorkOp, req: Request) -> Response {
    // Counted before any verdict: the drain's delivery wait covers every
    // work response — completions, errors, and rejects alike.
    shared.work_seen.fetch_add(1, Ordering::AcqRel);
    let deadline = req
        .deadline_ms
        .filter(|&ms| ms > 0)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    if shared.draining() {
        shared
            .counters
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        bootes_obs::counter_add("serve.rejected.draining", 1);
        return Response::reject(req.id, "draining: server is shutting down", 1_000);
    }
    let Some(payload) = req.matrix else {
        return Response::err(req.id, format!("{} needs a matrix payload", req.op));
    };
    let bytes = payload.approx_bytes();
    // The payload's vectors move into the conversion and are freed with it,
    // so only the CSR matrix stays resident while the job waits and runs.
    let matrix = match payload.into_csr() {
        Ok(m) => m,
        Err(e) => return Response::err(req.id, e),
    };
    let tenant = req.tenant.unwrap_or_else(|| "default".to_string());
    let permit = match shared.tenants.try_admit(&tenant, bytes) {
        Ok(p) => p,
        Err(e) => {
            shared
                .counters
                .rejected_admission
                .fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("serve.rejected.admission", 1);
            let depth = shared.lock_queue().len();
            return Response::reject(req.id, e.to_string(), retry_hint(depth));
        }
    };
    bootes_obs::counter_add(&format!("serve.tenant.bytes{{tenant={tenant}}}"), bytes);
    let (tx, rx) = mpsc::channel();
    // Rejection decisions and the enqueue happen under the queue lock:
    // drain() flips `draining` under the same lock, so a request is either
    // enqueued before the drain's emptiness wait (and gets executed) or
    // observes `draining` here (and gets rejected) — never lost in between.
    enum Verdict {
        Enqueued,
        Draining,
        QueueFull(usize),
    }
    let verdict = {
        let mut queue = shared.lock_queue();
        if shared.draining() {
            Verdict::Draining
        } else if queue.len() >= shared.config.queue_cap {
            Verdict::QueueFull(queue.len())
        } else {
            queue.push_back(Job {
                id: req.id,
                op,
                matrix,
                _permit: permit,
                reply: tx,
                enqueued: Instant::now(),
                deadline,
            });
            bootes_obs::gauge_set("serve.queue.depth", queue.len() as f64);
            Verdict::Enqueued
        }
    };
    match verdict {
        Verdict::Draining => {
            shared
                .counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("serve.rejected.draining", 1);
            return Response::reject(req.id, "draining: server is shutting down", 1_000);
        }
        Verdict::QueueFull(depth) => {
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
        Verdict::Enqueued => {}
    }
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    bootes_obs::counter_add("serve.accepted", 1);
    shared.queue_cv.notify_one();
    // Admitted work always gets its response: drain waits for the queue and
    // the in-flight jobs (so the worker side of this channel is never
    // dropped before sending), then for the delivery confirmation the
    // connection thread issues after writing what we return here.
    match rx.recv() {
        Ok(resp) => resp,
        Err(_) => Response::err(req.id, "internal: executor dropped the request"),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    bootes_obs::gauge_set("serve.queue.depth", queue.len() as f64);
                    break Some(job);
                }
                if shared.stop_workers.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(job) = job else { return };
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        let queue_wait = job.enqueued.elapsed();
        bootes_obs::histogram_record("serve.queue.wait_ns", queue_wait.as_nanos() as u64);
        let mut resp = if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // The deadline passed while the job sat in the queue: answer with
            // a typed rejection instead of spending a worker on a result the
            // caller has already given up on. This still counts as completed
            // — the drain invariant is "every admitted request is answered",
            // and this is its answer.
            shared
                .counters
                .deadline_rejected
                .fetch_add(1, Ordering::Relaxed);
            bootes_obs::counter_add("serve.deadline.rejected", 1);
            Response {
                deadline_exceeded: true,
                ..Response::err(
                    job.id,
                    format!(
                        "deadline exceeded: waited {:.1} ms in queue",
                        queue_wait.as_secs_f64() * 1e3
                    ),
                )
            }
        } else {
            let started = Instant::now();
            let mut resp = execute(shared, &job);
            let exec = started.elapsed();
            bootes_obs::histogram_record("serve.exec_ns", exec.as_nanos() as u64);
            resp.exec_ms = exec.as_secs_f64() * 1e3;
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
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
        let _ = job.reply.send(resp);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.idle_cv.notify_all();
    }
}

fn execute(shared: &Arc<Shared>, job: &Job) -> Response {
    // One fingerprint per request: it keys the flight and the pipeline's
    // cache lookups alike.
    let fp = MatrixFingerprint::of(&job.matrix);
    let key = match job.op {
        WorkOp::Preprocess => shared.pipeline.reorder_key_of(&fp),
        WorkOp::Decide => shared.pipeline.decision_key_of(&fp),
    };
    let (result, role) = shared.flights.run(key, || {
        fail_point("serve.coalesce.leader").map_err(|e| e.to_string())?;
        match job.op {
            WorkOp::Decide => {
                let decision = shared
                    .pipeline
                    .decide_fingerprinted(&job.matrix, &fp)
                    .map_err(|e| e.to_string())?;
                Ok(outcome_from_label(decision.label, None, None, false, false))
            }
            WorkOp::Preprocess => {
                let out = shared
                    .pipeline
                    .preprocess_fingerprinted(&job.matrix, &fp)
                    .map_err(|e| e.to_string())?;
                Ok(outcome_from_label(
                    out.decision.label,
                    Some(out.permutation.as_slice().to_vec()),
                    Some(out.stats.algorithm.clone()),
                    out.stats.cache_hit,
                    out.stats.is_degraded(),
                ))
            }
        }
    });
    let coalesced = role == FlightRole::Coalesced;
    if coalesced {
        shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        bootes_obs::counter_add("serve.coalesce.hits", 1);
    }
    match result {
        Ok(outcome) => {
            if outcome.cache_hit && !coalesced {
                shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                bootes_obs::counter_add("serve.cache.hits", 1);
            }
            Response {
                label: Some(outcome.label),
                k: outcome.k,
                permutation: outcome.permutation,
                algorithm: outcome.algorithm,
                cache_hit: outcome.cache_hit,
                coalesced,
                degraded: outcome.degraded,
                ..Response::ack(job.id)
            }
        }
        Err(e) => Response {
            coalesced,
            ..Response::err(job.id, e)
        },
    }
}

fn outcome_from_label(
    label: Label,
    permutation: Option<Vec<usize>>,
    algorithm: Option<String>,
    cache_hit: bool,
    degraded: bool,
) -> ExecOutcome {
    let (name, k) = match label {
        Label::NoReorder => ("no-reorder", None),
        Label::Reorder(k) => ("reorder", Some(k as u64)),
    };
    ExecOutcome {
        label: name.to_string(),
        k,
        permutation,
        algorithm,
        cache_hit,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::default_model;
    use crate::protocol::MatrixPayload;
    use bootes_core::BootesConfig;
    use bootes_workloads::gen::{clustered, GenConfig};

    fn test_pipeline() -> BootesPipeline {
        BootesPipeline::new(default_model(), BootesConfig::default()).expect("valid model")
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

        assert!(client.shutdown().expect("shutdown answers").ok);
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
