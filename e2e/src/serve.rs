//! `serve-mixed`: mixed traffic against a `bootes serve` daemon. 80% of the
//! requests resend one of the 26 Table-3 matrices the set-up preloaded (an
//! exact-key cache hit); 20% send a fresh same-family instance (a miss).
//! The JSON protocol, admission and cache reads do the work on hits, the
//! spectral pipeline on misses.
//!
//! The end-to-end metrics come from one client sending one request at a
//! time (a closed loop of one). The traced run adds open-loop Poisson
//! arrivals at 50, 100 and 200 requests per second over two connections,
//! whose latencies and sustained rate become per-layer metrics: on a
//! shared 2-vCPU host, the quartile spread of open-loop latencies at
//! 50 req/s over ten seeds was 0.17 to 0.27, set by the host's scheduling
//! rather than the code and too wide to gate on, against 0.02 to 0.11 for
//! one client's.
//!
//! Each connection has one generator thread on a nonblocking socket, which
//! sends every request when it is due and drains responses in between. A
//! request's latency runs from when it was due, so a stall also counts
//! against the requests queued behind it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bootes_accel::simulate_spgemm;
use bootes_bench::{b_operand, geomean, scaled_configs};
use bootes_core::{BootesConfig, BootesPipeline};
use bootes_serve::protocol::{decode, encode, MatrixPayload, Request, Response};
use bootes_serve::Client;
use bootes_sparse::{CsrMatrix, Permutation};

use crate::env::{self, HostSpeed, ACCELS};
use crate::layers::{shadow_reorder, EigenMemo, Replay};
use crate::report::{Metric, Outcome};
use crate::stats::{max_sustained_rate, mean, percentile, poisson_schedule, LevelVerdict};
use crate::suite::{families, Family, SCALE};
use crate::trace::{breakdown, Tracer, SHADOW};
use crate::{fresh_cache, push_layer_metrics, timed_setup, Ctx, LayerCounts};

/// Offered rates of the open-loop levels, in requests per second.
const RATES: [f64; 3] = [50.0, 100.0, 200.0];
/// Length of the discarded warm-up, in seconds.
const WARMUP_S: f64 = 2.0;
/// Share of requests that resend a preloaded suite matrix.
const HIT_SHARE: f64 = 0.8;
/// How long a level may take to answer after its last request was due.
const DRAIN: Duration = Duration::from_secs(30);
/// Slices of the sequential phase. The host's speed is sampled between
/// slices, and each slice's times are scaled by the speed around it (see
/// [`HostSpeed`]).
const SLICES: usize = 6;
/// Requests per second the sequential phase has traffic encoded for: about
/// twice the rate one client reached when the benchmark was written.
const SEQUENTIAL_MAX_RPS: f64 = 400.0;
/// Longest nap of an idle generator thread: the resolution to which
/// answers are timed.
const POLL: Duration = Duration::from_micros(100);

/// A running `bootes serve` process, shut down (or killed) on drop.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    model: PathBuf,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(ctx: &Ctx, model_json: &str) -> Result<Daemon, String> {
        let tag = std::process::id();
        let model = ctx.out_dir.join(format!("serve-{tag}.tree.json"));
        let socket = ctx.out_dir.join(format!("serve-{tag}.sock"));
        std::fs::write(&model, model_json)
            .map_err(|e| format!("write {}: {e}", model.display()))?;
        let mut child = Command::new(&ctx.bootes)
            .args(["serve", "--threads", "1", "--serve-workers", "2"])
            .args(["--queue-cap", "1024", "--max-inflight", "1024"])
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--model")
            .arg(&model)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {} serve: {e}", ctx.bootes.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let mut daemon = Daemon {
            child: Some(child),
            socket,
            model,
            stdout: None,
        };
        match lines.next() {
            Some(Ok(l)) if l.starts_with("bootes-serve listening on") => {}
            other => return Err(format!("daemon did not come up: {other:?}")),
        }
        // Keep draining stdout so the daemon's exit line never blocks.
        daemon.stdout = Some(std::thread::spawn(move || {
            lines.map_while(Result::ok).for_each(drop)
        }));
        Ok(daemon)
    }

    fn addr(&self) -> String {
        format!("unix:{}", self.socket.display())
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Drains the daemon through the protocol and waits (up to a minute)
    /// for it to exit; past that it is killed by the drop.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = Client::connect(&self.addr())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown());
        let child = self.child.as_mut().ok_or("daemon already stopped")?;
        let until = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > until {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.child = None;
        ack.map_err(|e| format!("shutdown request: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.model);
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Connections the load comes over: two, or one on a one-core machine.
fn connections() -> usize {
    env::nproc().min(2)
}

/// A request line with its id field left out: `{"id":<id>,` + this.
fn line_tail(payload: MatrixPayload) -> String {
    let line = encode(&Request {
        id: 0,
        op: "preprocess".into(),
        matrix: Some(payload),
        ..Request::default()
    });
    line.strip_prefix("{\"id\":0,")
        .expect("the id is the first field of an encoded request")
        .to_string()
}

/// What the requests are made of.
struct Inputs {
    /// The gamma pipeline the daemon serves, in process: for the warm-answer
    /// check and the traced shadow.
    replay: Replay,
    /// The Table-3 families, from which the misses are drawn.
    families: Vec<Family>,
    /// The Table-3 matrices the daemon was preloaded with.
    suite: Vec<(&'static str, CsrMatrix)>,
    /// Encoded tails of the suite requests.
    suite_tails: Vec<String>,
}

fn setup(ctx: &Ctx) -> Result<(Daemon, Inputs), String> {
    let model = env::load_model("gamma")?;
    let tree = model.to_json().map_err(|e| e.to_string())?;
    let config = BootesConfig::default();
    let pipeline = BootesPipeline::new(model, config.clone()).map_err(|e| e.to_string())?;
    let models = [pipeline.model()];
    let families = families(&models)?;
    // Resends carry the Table-3 instances whatever the seed: what a hit
    // costs depends on its size, and the seed's share of the traffic is the
    // schedule and the misses.
    let suite: Vec<(&'static str, CsrMatrix)> = families
        .iter()
        .map(|f| (f.entry.name, f.table3.clone()))
        .collect();
    let suite_tails: Vec<String> = suite
        .iter()
        .map(|(_, a)| line_tail(MatrixPayload::from_csr(a)))
        .collect();
    let daemon = Daemon::start(ctx, &tree)?;
    let mut client = Client::connect(&daemon.addr()).map_err(|e| e.to_string())?;
    for (name, a) in &suite {
        let resp = client
            .preprocess(MatrixPayload::from_csr(a), None)
            .map_err(|e| format!("preload {name}: {e}"))?;
        if !resp.ok || resp.permutation.as_ref().map(Vec::len) != Some(a.nrows()) {
            return Err(format!("preload {name} failed: {:?}", resp.error));
        }
    }
    let inputs = Inputs {
        replay: Replay::new(pipeline, config),
        families,
        suite,
        suite_tails,
    };
    Ok((daemon, inputs))
}

/// One request of a level.
enum Kind {
    /// Resend of suite matrix `i`.
    Hit(usize),
    /// A fresh matrix of suite family `family`: its full encoded tail and
    /// row count.
    Miss {
        tail: String,
        rows: usize,
        family: usize,
    },
}

impl Kind {
    /// The request line after its id field.
    fn tail<'a>(&'a self, inputs: &'a Inputs) -> &'a str {
        match self {
            Kind::Hit(m) => &inputs.suite_tails[*m],
            Kind::Miss { tail, .. } => tail,
        }
    }

    /// Rows of the matrix the request carries.
    fn rows(&self, inputs: &Inputs) -> usize {
        match self {
            Kind::Hit(m) => inputs.suite[*m].1.nrows(),
            Kind::Miss { rows, .. } => *rows,
        }
    }
}

/// How a level's requests are sent.
#[derive(Clone, Copy)]
enum Pace {
    /// Each request at its offset from the level's start (seconds), over
    /// [`connections`] connections.
    Open,
    /// One connection, each request as soon as the previous one was
    /// answered, until `seconds` have passed.
    Sequential { seconds: f64 },
}

/// A level's traffic, encoded before the level starts.
struct Plan {
    pace: Pace,
    /// Offered rate (open levels), in requests per second.
    rate: f64,
    offsets: Vec<f64>,
    kinds: Vec<Kind>,
    first_id: u64,
}

impl Plan {
    /// Poisson arrivals at `rate` for `seconds`.
    fn open(
        ctx: &Ctx,
        inputs: &Inputs,
        stream: u64,
        rate: f64,
        seconds: f64,
    ) -> Result<Plan, String> {
        let offsets = poisson_schedule(rate, seconds, ctx.sub_seed(stream));
        let kinds = mix(ctx, inputs, stream, offsets.len())?;
        Ok(Plan {
            pace: Pace::Open,
            rate,
            offsets,
            kinds,
            first_id: stream << 32,
        })
    }

    /// One request at a time for `seconds`, taken from the front of
    /// `kinds`, whose first request gets id `first_id`.
    fn sequential(kinds: Vec<Kind>, first_id: u64, seconds: f64) -> Plan {
        Plan {
            pace: Pace::Sequential { seconds },
            rate: 0.0,
            offsets: vec![0.0; kinds.len()],
            kinds,
            first_id,
        }
    }

    fn connections(&self) -> usize {
        match self.pace {
            Pace::Open => connections(),
            Pace::Sequential { .. } => 1,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len()
    }

    fn id(&self, i: usize) -> u64 {
        self.first_id + i as u64
    }
}

/// `n` requests, `HIT_SHARE` of them resends. Hits and misses each walk
/// the 26 families in a seeded order, so every level holds the same mix of
/// families; a miss is a fresh instance with its family's verdict.
fn mix(ctx: &Ctx, inputs: &Inputs, stream: u64, n: usize) -> Result<Vec<Kind>, String> {
    let families = inputs.families.len();
    let mut state = ctx.sub_seed(stream ^ 0x4D15);
    let hit_order = shuffled(families, &mut state);
    let miss_order = shuffled(families, &mut state);
    let models = [inputs.replay.pipeline().model()];
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut kinds = Vec::with_capacity(n);
    for i in 0..n {
        // Spread the misses evenly: request i is a miss when the running
        // miss count falls behind the target share.
        if ((i + 1) as f64 * (1.0 - HIT_SHARE)).floor() as usize > misses {
            let family = miss_order[misses % families];
            let a =
                inputs.families[family].draw(&models, ctx.sub_seed((stream << 32) ^ i as u64))?;
            kinds.push(Kind::Miss {
                tail: line_tail(MatrixPayload::from_csr(&a)),
                rows: a.nrows(),
                family,
            });
            misses += 1;
        } else {
            kinds.push(Kind::Hit(hit_order[hits % families]));
            hits += 1;
        }
    }
    Ok(kinds)
}

fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (crate::stats::splitmix64(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct Record {
    /// When the request's clock started: when it was due (open levels) or
    /// sent (closed). `None` if it was never sent.
    due: Option<Instant>,
    ok: bool,
    latency_ms: f64,
    late_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    cache_hit: bool,
    /// When the answer arrived.
    answered_at: Option<Instant>,
    /// The answer's permutation, kept for the traced level's shadow.
    permutation: Option<Vec<usize>>,
}

fn is_bijection(p: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    p.len() == n
        && p.iter()
            .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// One connection's traffic: its share of the plan and where to send it.
struct Conn<'a> {
    socket: &'a Path,
    inputs: &'a Inputs,
    plan: &'a Plan,
    /// The plan's requests this connection sends.
    mine: Vec<usize>,
    start: Instant,
    keep_answers: bool,
}

/// Sends the connection's requests when due and collects the answers,
/// counting each into `answered` as it arrives.
fn drive(c: Conn<'_>, answered: &AtomicUsize) -> Result<Vec<(usize, Record)>, String> {
    let Conn {
        socket,
        inputs: s,
        plan,
        mine,
        start,
        keep_answers,
    } = c;
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut records: HashMap<u64, (usize, Record)> = HashMap::new();
    let mut pending = 0usize;
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let stop_sending = match plan.pace {
        Pace::Open => start + Duration::from_secs_f64(plan.offsets.last().copied().unwrap_or(0.0)),
        Pace::Sequential { seconds } => start + Duration::from_secs_f64(seconds),
    };
    let give_up = stop_sending + DRAIN;
    loop {
        let now = Instant::now();
        let sending = next < mine.len() && (matches!(plan.pace, Pace::Open) || now < stop_sending);
        if (!sending && pending == 0) || now > give_up {
            break;
        }
        let mut progressed = false;
        while let Some(&i) = mine.get(next) {
            let due = match plan.pace {
                Pace::Open => start + Duration::from_secs_f64(plan.offsets[i]),
                Pace::Sequential { .. } if pending == 0 && now < stop_sending => now.max(start),
                Pace::Sequential { .. } => break,
            };
            if due > now {
                break;
            }
            out.extend_from_slice(format!("{{\"id\":{},", plan.id(i)).as_bytes());
            out.extend_from_slice(plan.kinds[i].tail(s).as_bytes());
            out.push(b'\n');
            let record = Record {
                due: Some(due),
                late_ms: (now - due).as_secs_f64() * 1e3,
                ..Record::default()
            };
            records.insert(plan.id(i), (i, record));
            pending += 1;
            next += 1;
            progressed = true;
        }
        while written < out.len() {
            match stream.write(&out[written..]) {
                Ok(n) => {
                    written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return Err("the daemon closed the connection".into()),
                Ok(n) => {
                    inbuf.extend_from_slice(&buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let arrived = Instant::now();
        let mut consumed = 0;
        while let Some(pos) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&inbuf[consumed..consumed + pos]).unwrap_or("");
            consumed += pos + 1;
            let resp: Response = decode(line)?;
            let Some((i, rec)) = records.get_mut(&resp.id) else {
                return Err(format!("answer with unknown id {}", resp.id));
            };
            let rows = plan.kinds[*i].rows(s);
            let due = rec.due.expect("answered requests were sent");
            rec.latency_ms = (arrived - due).as_secs_f64() * 1e3;
            rec.answered_at = Some(arrived);
            rec.queue_ms = resp.queue_ms;
            rec.exec_ms = resp.exec_ms;
            rec.cache_hit = resp.cache_hit;
            rec.ok = resp.ok
                && !resp.degraded
                && resp
                    .permutation
                    .as_deref()
                    .is_some_and(|p| is_bijection(p, rows));
            if keep_answers {
                rec.permutation = resp.permutation;
            }
            pending -= 1;
            answered.fetch_add(1, Ordering::Relaxed);
        }
        inbuf.drain(..consumed);
        if !progressed {
            // Nothing to send or read yet: nap until the next request is
            // due, but never longer than the poll interval, so answers are
            // timed to within it.
            let until_due = match (plan.pace, mine.get(next)) {
                (Pace::Open, Some(&i)) => (start + Duration::from_secs_f64(plan.offsets[i]))
                    .saturating_duration_since(arrived),
                _ => POLL,
            };
            std::thread::sleep(until_due.min(POLL));
        }
    }
    Ok(records.into_values().collect())
}

/// The outcome of one level, or of one slice of a level.
struct Level {
    plan: Plan,
    records: Vec<Record>,
    start: Instant,
    /// Unanswered requests when the last one was due, in seconds of
    /// arrivals at the offered rate.
    backlog_s: f64,
    /// Host-speed scale around the level (see [`HostSpeed`]).
    scale: f64,
}

impl Level {
    /// Answered requests per second, from the level's start to its last
    /// answer.
    fn completed_per_s(&self) -> f64 {
        let done = self.records.iter().filter(|r| r.ok).count();
        let end = self.records.iter().filter_map(|r| r.answered_at).max();
        end.map_or(0.0, |end| done as f64 / (end - self.start).as_secs_f64())
    }

    /// Latencies of the answered requests that pass `filter`.
    fn latencies(&self, filter: impl Fn(&Record) -> bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.ok && filter(r))
            .map(|r| r.latency_ms)
            .collect()
    }

    fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok).count()
    }

    fn verdict(&self) -> LevelVerdict {
        // A failed request misses every latency limit.
        let all: Vec<f64> = self
            .records
            .iter()
            .map(|r| if r.ok { r.latency_ms } else { f64::INFINITY })
            .collect();
        LevelVerdict {
            rate: self.plan.rate,
            p90_ms: percentile(&all, 0.9),
            failed: self.failed(),
            backlog_s: self.backlog_s,
        }
    }
}

fn run_level(
    socket: &Path,
    inputs: &Inputs,
    plan: Plan,
    keep_answers: bool,
) -> Result<Level, String> {
    let n = plan.len();
    let answered = AtomicUsize::new(0);
    let nconn = plan.connections();
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = start + Duration::from_secs_f64(plan.offsets.last().copied().unwrap_or(0.0));
    let (parts, backlog) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nconn)
            .map(|c| {
                let conn = Conn {
                    socket,
                    inputs,
                    plan: &plan,
                    mine: (c..n).step_by(nconn).collect(),
                    start,
                    keep_answers,
                };
                let answered = &answered;
                scope.spawn(move || drive(conn, answered))
            })
            .collect();
        std::thread::sleep(last_due.saturating_duration_since(Instant::now()));
        let backlog = n.saturating_sub(answered.load(Ordering::Relaxed));
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a generator thread panicked".into()))
            })
            .collect();
        (parts, backlog)
    });
    let mut records = vec![Record::default(); n];
    for part in parts {
        for (i, rec) in part? {
            records[i] = rec;
        }
    }
    let backlog_s = match plan.pace {
        Pace::Open => backlog as f64 / plan.rate,
        Pace::Sequential { .. } => {
            // A sequential level sends until its time is up; the rest of
            // the plan was never meant to go out.
            records.retain(|r| r.due.is_some());
            0.0
        }
    };
    Ok(Level {
        plan,
        records,
        start,
        backlog_s,
        scale: 1.0,
    })
}

/// Counts a level's requests and failures into `out`.
fn account(out: &mut Outcome, level: &Level, what: &str) {
    out.attempted += level.records.len();
    for (i, r) in level.records.iter().enumerate() {
        out.check(r.ok, || {
            let state = if r.due.is_none() {
                "never sent"
            } else if r.answered_at.is_none() {
                "unanswered"
            } else {
                "bad answer"
            };
            format!("{what} request {i}: {state}")
        });
    }
}

/// Runs `serve-mixed` for `ctx.seconds`: a discarded warm-up slice, then
/// [`SLICES`] slices of one client sending one request at a time, over one
/// continuous mix of requests, with the host's speed sampled between
/// slices while the daemon is idle. Traced: open-loop levels at each of
/// [`RATES`], then a traced 50 req/s level.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut speed = HostSpeed::new();
    let ((daemon, inputs), setup_s, setup_n) =
        timed_setup(ctx.setup_reps(), &mut speed, || setup(ctx))?;
    let mut out = Outcome::default();
    let (warmup_s, rest) = match ctx.smoke {
        true => (0.5, 2.0),
        false => (WARMUP_S, (ctx.seconds - WARMUP_S).max(3.0)),
    };
    let mut run = |out: &mut Outcome, what: &str, plan: Plan, keep: bool| {
        let mut level = run_level(&daemon.socket, &inputs, plan, keep)?;
        account(out, &level, what);
        level.scale = speed.sample();
        Ok::<Level, String>(level)
    };
    let mut counts = LayerCounts::default();
    if ctx.trace {
        let warmup = Plan::open(ctx, &inputs, 10, RATES[0], warmup_s)?;
        run(&mut out, "warm-up", warmup, false)?;
        let mut levels = Vec::new();
        for (k, &rate) in RATES.iter().enumerate() {
            let seconds = rest / if k == 0 { 3.0 } else { 6.0 };
            let plan = Plan::open(ctx, &inputs, 30 + k as u64, rate, seconds)?;
            levels.push(run(&mut out, &format!("{rate} req/s"), plan, false)?);
        }
        let plan = Plan::open(ctx, &inputs, 40, RATES[0], rest / 3.0)?;
        let traced = run(&mut out, "traced", plan, true)?;
        warm_check(&daemon, &inputs, &mut out)?;
        quality(&daemon, &inputs, &levels, &mut out, &mut counts)?;
        counts.coalesced = coalesced(&daemon)?;
        daemon.shutdown()?;
        counts.host_scale = speed.scale();
        let (metrics, notes) = level_metrics(&levels);
        out.metrics.extend(metrics);
        out.notes.extend(notes);
        return trace_level(ctx, &inputs, &levels[0], &traced, &mut counts, out);
    }
    let most = (SEQUENTIAL_MAX_RPS * (warmup_s + rest)) as usize;
    let mut pool = mix(ctx, &inputs, 20, most)?;
    let mut first_id = 20 << 32;
    // The warm-up slice, then the measured ones.
    let mut phase = Vec::with_capacity(SLICES + 1);
    for k in 0..=SLICES {
        let seconds = if k == 0 {
            warmup_s
        } else {
            rest / SLICES as f64
        };
        let plan = Plan::sequential(pool, first_id, seconds);
        let mut slice = run(&mut out, "sequential", plan, false)?;
        // The unsent rest of the mix carries over to the next slice.
        let sent = slice.records.len();
        pool = slice.plan.kinds.split_off(sent);
        slice.plan.offsets.truncate(sent);
        first_id += sent as u64;
        phase.push(slice);
    }
    let peak_rss_mb = env::peak_rss_mb(Some(daemon.pid()))?;
    warm_check(&daemon, &inputs, &mut out)?;
    // The whole phase sends one fixed sequence, so its first miss of each
    // family does not depend on how far the warm-up got.
    let speedups = quality(&daemon, &inputs, &phase, &mut out, &mut counts)?;
    let slices = &phase[1..];
    out.note("serve.coalesced", coalesced(&daemon)? as f64, "count", 1);
    daemon.shutdown()?;
    // Every sample scaled to the reference host by its slice's scale.
    let scaled = |filter: fn(&Record) -> bool, value: fn(&Record) -> f64| -> Vec<f64> {
        slices
            .iter()
            .flat_map(|l| {
                l.records
                    .iter()
                    .filter(move |r| r.ok && filter(r))
                    .map(move |r| value(r) * l.scale)
            })
            .collect()
    };
    let latency_ms = scaled(|_| true, |r| r.latency_ms);
    let miss_exec_ms = scaled(|r| !r.cache_hit, |r| r.exec_ms);
    let per_s: Vec<f64> = slices
        .iter()
        .filter(|l| !l.records.is_empty())
        .map(|l| l.completed_per_s() / l.scale)
        .collect();
    out.push("setup_s", setup_s, "s", setup_n);
    out.push("peak_rss_mb", peak_rss_mb, "MB", 1);
    out.push(
        "latency_p50_ms",
        percentile(&latency_ms, 0.5),
        "ms",
        latency_ms.len(),
    );
    out.push(
        "latency_p90_ms",
        percentile(&latency_ms, 0.9),
        "ms",
        latency_ms.len(),
    );
    out.push(
        "throughput",
        percentile(&per_s, 0.5),
        "1/s",
        latency_ms.len(),
    );
    out.push("prep_ms", mean(&miss_exec_ms), "ms", miss_exec_ms.len());
    for (j, accel) in ACCELS.iter().enumerate() {
        out.push(
            format!("speedup.{accel}"),
            speedups[j],
            "x",
            counts.simulate_s.len() / ACCELS.len(),
        );
    }
    for (name, filter) in [
        ("serve.hit_p50_ms", (|r| r.cache_hit) as fn(&Record) -> bool),
        ("serve.miss_p50_ms", |r| !r.cache_hit),
    ] {
        let v = scaled(filter, |r| r.latency_ms);
        out.note(name, percentile(&v, 0.5), "ms", v.len());
    }
    out.note_host(&speed);
    out.samples.push((
        "latency.raw".into(),
        slices
            .iter()
            .flat_map(|l| l.latencies(|_| true))
            .map(|m| m * 1e6)
            .collect(),
    ));
    Ok(out)
}

/// Requests the daemon has coalesced so far.
fn coalesced(daemon: &Daemon) -> Result<u64, String> {
    let stats = Client::connect(&daemon.addr())
        .map_err(|e| e.to_string())?
        .stats()?
        .stats
        .unwrap_or_default();
    Ok(stats.coalesced)
}

/// Per level: latency percentiles and backlog, then the highest sustained
/// rate (the per-layer metrics of a traced run); and per level the
/// failures, how late the generator sent and the achieved rate (printed
/// only).
fn level_metrics(levels: &[Level]) -> (Vec<Metric>, Vec<Metric>) {
    let (mut metrics, mut notes) = (Vec::new(), Vec::new());
    for l in levels {
        let r = l.plan.rate as u64;
        let all = l.latencies(|_| true);
        let hits = l.latencies(|r| r.cache_hit);
        let misses = l.latencies(|r| !r.cache_hit);
        let late: Vec<f64> = l.records.iter().map(|r| r.late_ms).collect();
        metrics.extend([
            Metric::new(
                format!("serve.p50_ms.r{r}"),
                percentile(&all, 0.5),
                "ms",
                all.len(),
            ),
            Metric::new(
                format!("serve.p90_ms.r{r}"),
                percentile(&all, 0.9),
                "ms",
                all.len(),
            ),
            Metric::new(
                format!("serve.hit_p50_ms.r{r}"),
                percentile(&hits, 0.5),
                "ms",
                hits.len(),
            ),
            Metric::new(
                format!("serve.miss_p50_ms.r{r}"),
                percentile(&misses, 0.5),
                "ms",
                misses.len(),
            ),
            Metric::new(format!("serve.backlog.r{r}"), l.backlog_s, "s", 1),
        ]);
        notes.extend([
            Metric::new(
                format!("serve.failed.r{r}"),
                l.failed() as f64,
                "count",
                l.records.len(),
            ),
            Metric::new(
                format!("serve.gen_late_ms_p90.r{r}"),
                percentile(&late, 0.9),
                "ms",
                late.len(),
            ),
            Metric::new(
                format!("serve.achieved_rps.r{r}"),
                l.completed_per_s(),
                "1/s",
                1,
            ),
        ]);
    }
    let verdicts: Vec<LevelVerdict> = levels.iter().map(Level::verdict).collect();
    metrics.push(Metric::new(
        "serve.max_rps",
        max_sustained_rate(&verdicts),
        "1/s",
        verdicts.len(),
    ));
    (metrics, notes)
}

/// After timing: the daemon's warm answers for the suite matrices must
/// equal an in-process `preprocess` of the same matrices.
fn warm_check(daemon: &Daemon, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let mut client = Client::connect(&daemon.addr()).map_err(|e| e.to_string())?;
    fresh_cache();
    for (name, a) in &inputs.suite {
        out.attempted += 1;
        let resp = client.preprocess(MatrixPayload::from_csr(a), None)?;
        let local = inputs
            .replay
            .pipeline()
            .preprocess(a)
            .map_err(|e| e.to_string())?;
        let same = resp.ok
            && resp.cache_hit
            && resp.permutation.as_deref() == Some(local.permutation.as_slice());
        out.check(same, || {
            format!("warm answer for {name} differs from preprocess")
        });
    }
    Ok(())
}

/// The workload's quality numbers: geomean simulated speedup, per
/// accelerator, of the daemon's answers to the first miss of each family
/// in `levels` (fresh instances drawn from the seed) over original order.
/// The answers are asked for again after timing, and must come from the
/// daemon's cache.
fn quality(
    daemon: &Daemon,
    inputs: &Inputs,
    levels: &[Level],
    out: &mut Outcome,
    counts: &mut LayerCounts,
) -> Result<[f64; 3], String> {
    let mut first_of_family = vec![None; inputs.families.len()];
    for level in levels {
        for (kind, r) in level.plan.kinds.iter().zip(&level.records) {
            if let (Kind::Miss { tail, family, .. }, true) = (kind, r.ok) {
                first_of_family[*family].get_or_insert(tail);
            }
        }
    }
    let mut client = Client::connect(&daemon.addr()).map_err(|e| e.to_string())?;
    let accels = scaled_configs(SCALE);
    let mut speedups = [Vec::new(), Vec::new(), Vec::new()];
    for tail in first_of_family.into_iter().flatten() {
        let req: Request = decode(&format!("{{\"id\":0,{tail}"))?;
        let payload = req.matrix.ok_or("a miss request lost its matrix")?;
        let a = payload.to_csr()?;
        out.attempted += 1;
        let resp = client.preprocess(payload, None)?;
        let answer = resp
            .permutation
            .filter(|_| resp.ok && resp.cache_hit)
            .and_then(|p| Permutation::try_new(p).ok())
            .filter(|p| p.len() == a.nrows());
        let Some(answer) = answer else {
            out.check(false, || {
                "a miss asked for again was no valid cached answer".into()
            });
            continue;
        };
        let b = b_operand(&a);
        let tp = Instant::now();
        let permuted = answer.apply_rows(&a).map_err(|e| e.to_string())?;
        counts.permute_s.push(tp.elapsed().as_secs_f64());
        for (j, accel) in accels.iter().enumerate() {
            let base = simulate_spgemm(&a, &b, accel).map_err(|e| e.to_string())?;
            let ts = Instant::now();
            let ours = simulate_spgemm(&permuted, &b, accel).map_err(|e| e.to_string())?;
            counts.tally_simulation(&ours, ts.elapsed().as_secs_f64());
            counts.tally_traffic(j, &ours);
            speedups[j].push(base.cycles as f64 / ours.cycles as f64);
        }
    }
    Ok(speedups.map(|v| geomean(&v)))
}

/// Builds the traced level's spans. Each request's interval is split by
/// the daemon's own queue and execution times; the in-process shadow of
/// what the daemon does with the line (decode, `to_csr`, the singleflight
/// key and the pipeline, the response encode) is fitted into them.
fn trace_level(
    ctx: &Ctx,
    inputs: &Inputs,
    untraced: &Level,
    level: &Level,
    counts: &mut LayerCounts,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let replay = &inputs.replay;
    let mut t = Tracer::since(level.start);
    // The shadow's cache holds what the daemon's held: the preloaded suite,
    // then each request of the level in the order it was due.
    fresh_cache();
    for (_, a) in &inputs.suite {
        replay.pipeline().preprocess(a).map_err(|e| e.to_string())?;
    }
    let mut memo = EigenMemo::default();
    for (i, rec) in level.records.iter().enumerate() {
        let (Some(due), Some(answered)) = (rec.due, rec.answered_at) else {
            continue;
        };
        let unit = t.record_unit(t.ns_at(due), t.ns_at(answered));
        let tail = level.plan.kinds[i].tail(inputs);
        let line = format!("{{\"id\":{},{tail}", level.plan.id(i));
        let wire = t.open(SHADOW);
        let req: Request = t.span("serve.decode", |_| decode(&line))?;
        let payload = req.matrix.ok_or("a traced request lost its matrix")?;
        let a = t.span("serve.to_csr", |_| payload.to_csr())?;
        t.close(wire);
        let exec = t.open(SHADOW);
        t.span("sparse.fingerprint", |_| replay.pipeline().reorder_key(&a));
        let r = replay.preprocess(&mut t, &a)?;
        t.close(exec);
        let encoded = t.open(SHADOW);
        let resp = Response {
            permutation: Some(r.permutation.as_slice().to_vec()),
            ..Response::ack(req.id)
        };
        t.span("serve.encode", |_| encode(&resp));
        t.close(encoded);
        counts.tally(&r);
        if let Some(cold) = &r.cold {
            let agree = shadow_reorder(
                &mut t,
                replay,
                &a,
                cold,
                &mut memo,
                &mut counts.linalg,
                true,
            )?;
            out.check(agree, || {
                format!("traced request {i}: split labels differ from cluster()")
            });
        }
        out.check(
            rec.permutation.as_deref() == Some(r.permutation.as_slice()),
            || format!("traced request {i}: the replay's permutation differs from the daemon's"),
        );
        // Lay the request out end to end: decode and to_csr, the queue
        // wait, the execution with the pipeline shadow inside, the encode.
        // The wire-side shadows shrink together if they outgrow the time
        // the daemon's numbers leave for them.
        let (pre, post) = (t.children(wire), t.children(encoded));
        let sum = |t: &Tracer, ids: &[usize]| ids.iter().map(|&k| t.duration(k)).sum::<u64>();
        let (pre_ns, post_ns) = (sum(&t, &pre), sum(&t, &post));
        let queue_ns = (rec.queue_ms * 1e6) as u64;
        let exec_ns = (rec.exec_ms * 1e6) as u64;
        let room = t.duration(unit).saturating_sub(queue_ns + exec_ns);
        let fit = (room as f64 / (pre_ns + post_ns).max(1) as f64).min(1.0);
        let start = t.spans()[unit].start_ns;
        let cursor = t.graft(&pre, unit, start, (pre_ns as f64 * fit) as u64);
        t.record("serve.queue", unit, cursor, cursor + queue_ns);
        let exec_at = cursor + queue_ns;
        let exec_span = t.record("serve.exec", unit, exec_at, exec_at + exec_ns);
        t.graft(&t.children(exec), exec_span, exec_at, exec_ns);
        t.graft(
            &post,
            unit,
            exec_at + exec_ns,
            (post_ns as f64 * fit) as u64,
        );
    }
    counts.snapshot_cache();
    let b = breakdown(t.spans());
    let traced_ms = b.e2e_ns as f64 / 1e6 / b.units.max(1) as f64;
    counts.overhead_frac = traced_ms / mean(&untraced.latencies(|_| true)) - 1.0;
    push_layer_metrics(&mut out, &b, counts);
    let ok = || level.records.iter().filter(|r| r.ok);
    let queue: Vec<f64> = ok().map(|r| r.queue_ms).collect();
    let exec_hit: Vec<f64> = ok().filter(|r| r.cache_hit).map(|r| r.exec_ms).collect();
    let exec_miss: Vec<f64> = ok().filter(|r| !r.cache_hit).map(|r| r.exec_ms).collect();
    let wire: Vec<f64> = ok()
        .map(|r| r.latency_ms - r.queue_ms - r.exec_ms)
        .collect();
    let late: Vec<f64> = level.records.iter().map(|r| r.late_ms).collect();
    let answered = queue.len();
    for (name, value, samples) in [
        ("serve.queue_ms_p50", percentile(&queue, 0.5), answered),
        ("serve.queue_ms_p90", percentile(&queue, 0.9), answered),
        (
            "serve.exec_ms_p50.hit",
            percentile(&exec_hit, 0.5),
            exec_hit.len(),
        ),
        (
            "serve.exec_ms_p50.miss",
            percentile(&exec_miss, 0.5),
            exec_miss.len(),
        ),
        ("serve.wire_ms_p50", percentile(&wire, 0.5), answered),
        ("serve.gen_late_ms_p90", percentile(&late, 0.9), late.len()),
    ] {
        out.push(name, value, "ms", samples);
    }
    out.push(
        "serve.hit_share",
        exec_hit.len() as f64 / answered.max(1) as f64,
        "frac",
        answered,
    );
    crate::dump_spans(ctx, &t)?;
    Ok(out)
}
