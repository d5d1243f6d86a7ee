//! The two `sitm-serve` workloads.
//!
//! Both are closed loops in one process: each of two client threads
//! owns one connection and waits for its replies before issuing more
//! than its window allows. The server runs with
//! `ServerConfig::default()`. The benchmark drives the wire itself
//! (`Request::encode`, `wire::write_frame`, `wire::read_frame`,
//! `Response::decode`) so that the traced run can time each of those
//! calls; funding and the final audit go through `Client` and
//! `loadgen::fund`/`loadgen::audit_total`.
//!
//! - `kv-batch`: a sliding window of 16 one-shot `TXN` requests per
//!   connection over 2^20 funded keys (4x the server's per-thread
//!   directory cache), half two-key `Add` transfers, half two-key `Get`
//!   audits.
//! - `kv-contended`: 1,024 funded keys; 7 of every 8 operations are
//!   interactive read-modify-write transfers (80% of key picks in 16
//!   hot keys, retried on `Aborted`), the 8th a one-`TXN` snapshot scan
//!   of every key.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use sitm_check::{check, Discipline};
use sitm_obs::{MetricsRegistry, SmallRng};
use sitm_serve::loadgen::{audit_total, fund, FUND_PER_KEY};
use sitm_serve::wire::{read_frame, write_frame};
use sitm_serve::{Client, Request, Response, Server, ServerConfig, TxnOp};

use crate::child;
use crate::procfs::{resident_bytes, ProcSample};
use crate::report::Outcome;
use crate::stats::{bucket_quantile, hist_delta, hist_delta_sum, median, ratio, LatHist};
use crate::trace::{self, SpanId, SpanKind, SpanLog};

/// Requests per connection folded into the request-stream digest.
pub const DIGEST_OPS: u64 = 4096;

/// Spans kept in memory per connection thread in a traced run.
const SPAN_CAP: usize = 1 << 19;

/// The shape of a kv workload's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One-shot two-key `TXN`s, `window` in flight per connection.
    Batch {
        /// Requests in flight per connection.
        window: usize,
    },
    /// Interactive transfers with a periodic full snapshot scan.
    Contended {
        /// Size of the hot key subset.
        hot_keys: u64,
        /// Percent of key picks that land in the hot subset.
        hot_pct: u64,
        /// One operation in `scan_every`, drawn at random, is a scan.
        scan_every: u64,
    },
}

/// A kv workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSpec {
    /// Workload name.
    pub name: &'static str,
    /// Funded keys.
    pub keys: u64,
    /// Client connections (one thread each).
    pub conns: usize,
    /// Request stream shape.
    pub shape: Shape,
    /// Set-ups timed per untraced run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Whether the set-ups after the run's own each run in a fresh
    /// child process rather than in this one.
    pub fresh_setups: bool,
    /// Keys and operations per connection of the certification pass.
    pub cert_keys: u64,
    /// Operations per connection of the certification pass.
    pub cert_ops: u64,
}

/// `kv-batch`.
pub const KV_BATCH: KvSpec = KvSpec {
    name: "kv-batch",
    keys: 1 << 20,
    conns: 2,
    shape: Shape::Batch { window: 16 },
    setup_reps: 5,
    fresh_setups: true,
    cert_keys: 4096,
    cert_ops: 2000,
};

/// `kv-contended`.
pub const KV_CONTENDED: KvSpec = KvSpec {
    name: "kv-contended",
    keys: 1024,
    conns: 2,
    shape: Shape::Contended {
        hot_keys: 16,
        hot_pct: 80,
        scan_every: 8,
    },
    setup_reps: 24,
    fresh_setups: false,
    cert_keys: 1024,
    cert_ops: 400,
};

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A one-shot batch (`kv-batch`).
    Txn(Vec<TxnOp>),
    /// An interactive transfer of `amount` from `a` to `b`.
    Transfer {
        /// Debited key.
        a: u64,
        /// Credited key.
        b: u64,
        /// Amount moved.
        amount: i64,
    },
    /// A snapshot scan of every key.
    Scan,
}

/// One connection's operation stream: a pure function of the workload,
/// the seed and the connection index.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SmallRng,
    keys: u64,
    shape: Shape,
}

impl Stream {
    /// The stream of connection `conn` under `seed`.
    pub fn new(spec: &KvSpec, seed: u64, conn: usize) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(256).wrapping_add(conn as u64)),
            keys: spec.keys,
            shape: spec.shape,
        }
    }

    fn pick(&mut self, hot: Option<(u64, u64)>) -> u64 {
        match hot {
            Some((hot_keys, hot_pct)) if self.rng.gen_range(0..100u64) < hot_pct => {
                self.rng.gen_range(0..hot_keys.min(self.keys))
            }
            _ => self.rng.gen_range(0..self.keys),
        }
    }

    fn pair(&mut self, hot: Option<(u64, u64)>) -> (u64, u64) {
        let a = self.pick(hot);
        let mut b = self.pick(hot);
        if b == a {
            b = (a + 1) % self.keys;
        }
        (a, b)
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self.shape {
            Shape::Batch { .. } => {
                let (a, b) = self.pair(None);
                if self.rng.gen_range(0..2u64) == 0 {
                    Op::Txn(vec![TxnOp::Get { key: a }, TxnOp::Get { key: b }])
                } else {
                    let amount = self.rng.gen_range(1..=10i64);
                    Op::Txn(vec![
                        TxnOp::Add {
                            key: a,
                            delta: -amount,
                        },
                        TxnOp::Add {
                            key: b,
                            delta: amount,
                        },
                    ])
                }
            }
            Shape::Contended {
                hot_keys,
                hot_pct,
                scan_every,
            } => {
                // Drawn rather than every 8th: fixed cadences let the
                // two connections' scans fall into lockstep for seconds
                // at a time, which shifted whole runs between
                // transfer-latency modes.
                if self.rng.gen_range(0..scan_every) == 0 {
                    Op::Scan
                } else {
                    let (a, b) = self.pair(Some((hot_keys, hot_pct)));
                    let amount = self.rng.gen_range(1..=10i64);
                    Op::Transfer { a, b, amount }
                }
            }
        }
    }
}

fn scan_request(keys: u64) -> Request {
    Request::Txn {
        ops: (0..keys).map(|key| TxnOp::Get { key }).collect(),
    }
}

/// The canonical request of an operation, as digested: batches and
/// scans are the `TXN` sent; an interactive transfer is digested as the
/// equivalent two-`Add` batch (its `WRITE` values depend on what the
/// reads return, so they are not part of the generated stream).
pub fn canonical_request(op: &Op, keys: u64) -> Request {
    match op {
        Op::Txn(ops) => Request::Txn { ops: ops.clone() },
        &Op::Transfer { a, b, amount } => Request::Txn {
            ops: vec![
                TxnOp::Add {
                    key: a,
                    delta: -amount,
                },
                TxnOp::Add {
                    key: b,
                    delta: amount,
                },
            ],
        },
        Op::Scan => scan_request(keys),
    }
}

/// FNV-1a over a byte slice, folded into `acc` (the scheme
/// `sitm_serve::loadgen` digests its request streams with).
fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Digest of the first [`DIGEST_OPS`] requests of every connection's
/// stream under `seed`: per connection FNV-1a over the encoded
/// canonical requests, combined across connections by wrapping
/// addition, as `loadgen` does.
pub fn stream_digest(spec: &KvSpec, seed: u64) -> u64 {
    (0..spec.conns)
        .map(|conn| {
            let mut stream = Stream::new(spec, seed, conn);
            (0..DIGEST_OPS).fold(0xcbf2_9ce4_8422_2325u64, |acc, _| {
                fnv1a(
                    acc,
                    &canonical_request(&stream.next_op(), spec.keys).encode(),
                )
            })
        })
        .fold(0u64, u64::wrapping_add)
}

/// One client connection, driven through the wire module directly.
struct Session {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    log: Option<SpanLog>,
    rtt: LatHist,
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Session {
    fn connect(addr: SocketAddr) -> io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Session {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            log: None,
            rtt: LatHist::default(),
        })
    }

    fn send(&mut self, req: &Request, id: u64, parent: SpanId) -> io::Result<()> {
        let Some(log) = self.log.as_mut() else {
            return write_frame(&mut self.writer, &req.encode());
        };
        let t0 = log.now();
        let body = req.encode();
        let t1 = log.now();
        write_frame(&mut self.writer, &body)?;
        let t2 = log.now();
        log.record(SpanKind::Encode, id, parent, t0, t1);
        log.record(SpanKind::Write, id, parent, t1, t2);
        Ok(())
    }

    fn flush(&mut self, id: u64, parent: SpanId) -> io::Result<()> {
        let Some(log) = self.log.as_mut() else {
            return self.writer.flush();
        };
        let t0 = log.now();
        self.writer.flush()?;
        let t1 = log.now();
        log.record(SpanKind::Flush, id, parent, t0, t1);
        Ok(())
    }

    fn recv(&mut self, id: u64, parent: SpanId) -> io::Result<Response> {
        let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection");
        let Some(log) = self.log.as_mut() else {
            let frame = read_frame(&mut self.reader)?.ok_or_else(eof)?;
            return Response::decode(&frame).map_err(invalid);
        };
        let t0 = log.now();
        let frame = read_frame(&mut self.reader)?.ok_or_else(eof)?;
        let t1 = log.now();
        let resp = Response::decode(&frame).map_err(invalid)?;
        let t2 = log.now();
        log.record(SpanKind::RecvWait, id, parent, t0, t1);
        log.record(SpanKind::Decode, id, parent, t1, t2);
        Ok(resp)
    }

    fn roundtrip(&mut self, req: &Request, id: u64, parent: SpanId) -> io::Result<Response> {
        let Some(log) = self.log.as_mut() else {
            self.send(req, id, None)?;
            self.flush(id, None)?;
            return self.recv(id, None);
        };
        let t0 = log.now();
        let span = log.open(SpanKind::RoundTrip, id, parent, t0);
        self.send(req, id, span)?;
        self.flush(id, span)?;
        let resp = self.recv(id, span)?;
        let log = self.log.as_mut().expect("traced above");
        let t1 = log.now();
        log.close(span, SpanKind::RoundTrip, t0, t1);
        self.rtt.record(t1 - t0);
        Ok(resp)
    }

    fn open_request(&mut self, id: u64) -> (SpanId, u64) {
        match self.log.as_mut() {
            Some(log) => {
                let t = log.now();
                (log.open(SpanKind::Request, id, None, t), t)
            }
            None => (None, 0),
        }
    }

    fn close_request(&mut self, span: SpanId, start: u64) {
        if let Some(log) = self.log.as_mut() {
            let t = log.now();
            log.close(span, SpanKind::Request, start, t);
        }
    }
}

/// What one connection thread did in a phase.
#[derive(Debug, Default)]
struct ConnOut {
    /// Latencies of committed transactions other than scans.
    txn: LatHist,
    /// Latencies of committed scans.
    scan: LatHist,
    checks: Outcome,
    reader_aborts: u64,
    next_id: u64,
}

impl ConnOut {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// When a phase stops issuing new operations.
#[derive(Debug, Clone, Copy)]
struct Limit {
    deadline: Instant,
    ops: u64,
}

fn batch_loop(
    s: &mut Session,
    stream: &mut Stream,
    window: usize,
    limit: Limit,
    out: &mut ConnOut,
) -> io::Result<()> {
    // (sent at, is a read audit, request id, request span, span start)
    let mut inflight: VecDeque<(Instant, bool, u64, SpanId, u64)> = VecDeque::with_capacity(window);
    let mut issued = 0u64;
    loop {
        let mut now = Instant::now();
        let mut unflushed = false;
        while inflight.len() < window && now < limit.deadline && issued < limit.ops {
            let Op::Txn(ops) = stream.next_op() else {
                unreachable!("batch streams issue TXNs")
            };
            let audit = matches!(ops[0], TxnOp::Get { .. });
            let id = out.id();
            let (span, start) = s.open_request(id);
            s.send(&Request::Txn { ops }, id, span)?;
            inflight.push_back((now, audit, id, span, start));
            out.checks.attempt(1);
            issued += 1;
            unflushed = true;
            now = Instant::now();
        }
        let Some(&(sent_at, audit, id, span, start)) = inflight.front() else {
            return Ok(());
        };
        if unflushed {
            s.flush(id, None)?;
        }
        let resp = s.recv(id, span)?;
        inflight.pop_front();
        let lat_ns = sent_at.elapsed().as_nanos() as u64;
        s.close_request(span, start);
        match resp {
            Response::TxnResult { reads, .. }
                if reads.len() == if audit { 2 } else { 0 }
                    && reads.iter().all(Option::is_some) =>
            {
                out.txn.record(lat_ns);
            }
            other => out.checks.fail(format!("TXN answered {other:?}")),
        }
    }
}

enum Attempt {
    Committed,
    Aborted,
    Failed(String),
}

fn transfer_attempt(
    s: &mut Session,
    a: u64,
    b: u64,
    amount: i64,
    id: u64,
    span: SpanId,
) -> io::Result<Attempt> {
    let step = |s: &mut Session, req: Request| s.roundtrip(&req, id, span);
    match step(s, Request::Begin)? {
        Response::Ok => {}
        other => return Ok(Attempt::Failed(format!("BEGIN answered {other:?}"))),
    }
    let mut values = [0i64; 2];
    for (slot, key) in values.iter_mut().zip([a, b]) {
        match step(s, Request::Read { key })? {
            Response::Value { value: Some(v) } => *slot = v,
            // A capped-retention store may kill the transaction here;
            // it is consumed, so just retry.
            Response::Aborted { .. } => return Ok(Attempt::Aborted),
            other => {
                step(s, Request::Abort)?;
                return Ok(Attempt::Failed(format!("READ {key} answered {other:?}")));
            }
        }
    }
    for (key, value) in [(a, values[0] - amount), (b, values[1] + amount)] {
        match step(s, Request::Write { key, value })? {
            Response::Ok => {}
            other => {
                step(s, Request::Abort)?;
                return Ok(Attempt::Failed(format!("WRITE {key} answered {other:?}")));
            }
        }
    }
    Ok(match step(s, Request::Commit)? {
        Response::Committed { .. } => Attempt::Committed,
        Response::Aborted { .. } => Attempt::Aborted,
        other => Attempt::Failed(format!("COMMIT answered {other:?}")),
    })
}

fn contended_loop(
    s: &mut Session,
    stream: &mut Stream,
    expected_total: i64,
    limit: Limit,
    out: &mut ConnOut,
) -> io::Result<()> {
    let keys = stream.keys;
    let scan = scan_request(keys);
    let mut issued = 0u64;
    while Instant::now() < limit.deadline && issued < limit.ops {
        issued += 1;
        let id = out.id();
        out.checks.attempt(1);
        let start = Instant::now();
        let (span, span_start) = s.open_request(id);
        match stream.next_op() {
            Op::Transfer { a, b, amount } => loop {
                match transfer_attempt(s, a, b, amount, id, span)? {
                    Attempt::Committed => {
                        out.txn.record(start.elapsed().as_nanos() as u64);
                        break;
                    }
                    Attempt::Aborted => {}
                    Attempt::Failed(why) => {
                        out.checks.fail(why);
                        break;
                    }
                }
            },
            Op::Scan => match s.roundtrip(&scan, id, span)? {
                Response::TxnResult { reads, .. } => {
                    let sum: i64 = reads.iter().flatten().sum();
                    if reads.len() as u64 != keys || reads.iter().any(Option::is_none) {
                        out.checks.fail(format!(
                            "scan returned {} of {keys} keys",
                            reads.iter().flatten().count()
                        ));
                    } else if sum != expected_total {
                        out.checks
                            .fail(format!("scan summed to {sum}, expected {expected_total}"));
                    } else {
                        out.scan.record(start.elapsed().as_nanos() as u64);
                    }
                }
                Response::Aborted { conflict } => {
                    out.reader_aborts += 1;
                    out.checks
                        .fail(format!("read-only scan aborted ({conflict:?})"));
                }
                other => out.checks.fail(format!("scan answered {other:?}")),
            },
            Op::Txn(_) => unreachable!("contended streams issue transfers and scans"),
        }
        s.close_request(span, span_start);
    }
    Ok(())
}

/// Runtime counters of the server's STM, read through `Server::stats()`.
#[derive(Debug, Clone, Copy, Default)]
struct StmSnap {
    commits: u64,
    aborts: u64,
    snapshot_too_old: u64,
    backoff_ns: u64,
    versions_retired: u64,
    watermark_lag_max: u64,
}

impl StmSnap {
    fn read(server: &Server) -> StmSnap {
        let s = server.stats();
        StmSnap {
            commits: s.commits(),
            aborts: s.aborts(),
            snapshot_too_old: s.snapshot_too_old_aborts(),
            backoff_ns: s.backoff_ns(),
            versions_retired: s.versions_retired(),
            watermark_lag_max: s.watermark_lag_max(),
        }
    }
}

/// One measured phase over the live sessions.
struct Phase {
    wall_s: f64,
    conns: Vec<ConnOut>,
    logs: Vec<SpanLog>,
    rtt: LatHist,
    proc: (ProcSample, ProcSample),
    reg: (MetricsRegistry, MetricsRegistry),
    stm: (StmSnap, StmSnap),
}

impl Phase {
    fn committed(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.txn.count() + c.scan.count())
            .sum()
    }

    fn txn_per_s(&self) -> f64 {
        ratio(self.committed() as f64, self.wall_s)
    }

    fn latencies(&self, scan: bool) -> LatHist {
        let mut all = LatHist::default();
        for c in &self.conns {
            all.merge(if scan { &c.scan } else { &c.txn });
        }
        all
    }

    fn counter(&self, name: &str) -> f64 {
        (self.reg.1.counter(name) - self.reg.0.counter(name)) as f64
    }
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    server: &Server,
    sessions: &mut [Session],
    streams: &mut [Stream],
    spec: &KvSpec,
    limit: (Duration, u64),
    expected_total: i64,
    epoch: Option<Instant>,
) -> Phase {
    let n = sessions.len();
    for (i, s) in sessions.iter_mut().enumerate() {
        s.log = epoch.map(|e| SpanLog::new(e, i, SPAN_CAP));
        s.rtt = LatHist::default();
    }
    let (start, done, release) = (
        Barrier::new(n + 1),
        Barrier::new(n + 1),
        Barrier::new(n + 1),
    );
    let clock: OnceLock<Limit> = OnceLock::new();
    let mut phase = thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(s, stream)| {
                let (start, done, release, clock) = (&start, &done, &release, &clock);
                scope.spawn(move || {
                    start.wait();
                    let limit = *clock.get().expect("set before the start barrier");
                    let mut out = ConnOut::default();
                    let ran = match spec.shape {
                        Shape::Batch { window } => batch_loop(s, stream, window, limit, &mut out),
                        Shape::Contended { .. } => {
                            contended_loop(s, stream, expected_total, limit, &mut out)
                        }
                    };
                    if let Err(e) = ran {
                        out.checks.fail(format!("transport: {e}"));
                    }
                    done.wait();
                    release.wait();
                    out
                })
            })
            .collect();
        let reg0 = server.metrics();
        let stm0 = StmSnap::read(server);
        let proc0 = ProcSample::read().unwrap_or_default();
        let t0 = Instant::now();
        clock
            .set(Limit {
                deadline: t0 + limit.0,
                ops: limit.1,
            })
            .expect("set once");
        start.wait();
        done.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        let proc1 = ProcSample::read().unwrap_or_default();
        let stm1 = StmSnap::read(server);
        let reg1 = server.metrics();
        release.wait();
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        Phase {
            wall_s,
            conns,
            logs: Vec::new(),
            rtt: LatHist::default(),
            proc: (proc0, proc1),
            reg: (reg0, reg1),
            stm: (stm0, stm1),
        }
    });
    for s in sessions.iter_mut() {
        phase.logs.extend(s.log.take());
        phase.rtt.merge(&s.rtt);
    }
    phase
}

/// A started, funded server with its connected sessions.
struct Setup {
    server: Server,
    sessions: Vec<Session>,
    secs: f64,
    rss_growth: u64,
}

fn setup(keys: u64, conns: usize, config: ServerConfig) -> Result<Setup, String> {
    let rss0 = resident_bytes("VmRSS");
    let t0 = Instant::now();
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let mut funder = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    fund(&mut funder, keys).map_err(|e| format!("funding: {e}"))?;
    drop(funder);
    let sessions = (0..conns)
        .map(|_| Session::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(Setup {
        server,
        sessions,
        secs,
        rss_growth: resident_bytes("VmRSS").saturating_sub(rss0),
    })
}

/// One timed set-up of the kv workload `name` in this process: server
/// start, funding and connects, then a shutdown. Returns its seconds.
///
/// # Errors
///
/// An unknown workload, or a description of the failed set-up step.
pub fn setup_once(name: &str) -> Result<f64, String> {
    let spec = [KV_BATCH, KV_CONTENDED]
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("{name} is not a kv workload"))?;
    let su = setup(spec.keys, spec.conns, ServerConfig::default())?;
    drop(su.sessions);
    su.server.shutdown();
    Ok(su.secs)
}

/// Times one set-up of `spec` in a fresh child process
/// (`--setup-once`). On `kv-batch`, a heap that an earlier server freed
/// makes funding faster or slower depending on how much of it the
/// allocator kept, so each timed set-up starts from a fresh heap, like
/// the run's own.
fn setup_in_child(spec: &KvSpec) -> Result<f64, String> {
    let args = ["--workload", spec.name, "--setup-once"].map(String::from);
    let run = child::run(&args).map_err(|e| format!("set-up child: {e}"))?;
    let secs = run
        .stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok());
    match secs {
        Some(secs) if run.status.success() => Ok(secs),
        _ => Err(format!("set-up child failed ({})", run.status)),
    }
}

/// Audits the bank total over a fresh connection and records the
/// conservation check.
fn check_conservation(server: &Server, keys: u64, expected: i64, out: &mut Outcome) {
    out.attempt(1);
    let total = Client::connect(server.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| audit_total(&mut c, keys).map_err(|e| e.to_string()));
    match total {
        Ok(t) if t == expected => {}
        Ok(t) => out.fail(format!("bank total {t}, expected {expected}")),
        Err(e) => out.fail(format!("final audit: {e}")),
    }
}

fn absorb(out: &mut Outcome, phase: &Phase) {
    for c in &phase.conns {
        out.absorb_checks(&c.checks);
    }
}

/// The short certification pass: a fresh server recording its full
/// history, the same request shape on at most `cert_keys` keys, then
/// `sitm_check` under the STM discipline. Kept out of every timed
/// phase, because history recording changes the measured program.
fn certify(spec: &KvSpec, seed: u64, expected_offset: i64, out: &mut Outcome) {
    let cert = KvSpec {
        keys: spec.keys.min(spec.cert_keys),
        ..*spec
    };
    let config = ServerConfig {
        history_capacity: 1 << 24,
        ..ServerConfig::default()
    };
    out.attempt(1);
    let mut su = match setup(cert.keys, cert.conns, config) {
        Ok(su) => su,
        Err(e) => return out.fail(format!("certification set-up: {e}")),
    };
    let expected = cert.keys as i64 * FUND_PER_KEY + expected_offset;
    let mut streams: Vec<_> = (0..cert.conns)
        .map(|c| Stream::new(&cert, seed, c))
        .collect();
    let phase = run_phase(
        &su.server,
        &mut su.sessions,
        &mut streams,
        &cert,
        (Duration::from_secs(60), cert.cert_ops),
        expected,
        None,
    );
    absorb(out, &phase);
    check_conservation(&su.server, cert.keys, expected, out);
    drop(su.sessions);
    match su.server.history() {
        Some(history) => {
            let report = check(Discipline::for_protocol("STM"), &history);
            if !report.is_ok() {
                out.fail(format!("history certification: {report}"));
            }
        }
        None => out.fail("certification server recorded no history"),
    }
    su.server.shutdown();
}

/// Runs one kv workload: set-up, the measured phase (or, traced, an
/// untraced, a traced and another untraced third), the correctness
/// checks, the extra timed set-ups and the certification pass.
///
/// `expected_offset` plants a fault into the expected bank total (0 in
/// real runs).
///
/// # Errors
///
/// A description of a set-up failure (the run produced no result).
pub fn run(
    spec: &KvSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    expected_offset: i64,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(spec.name);
    let expected = spec.keys as i64 * FUND_PER_KEY + expected_offset;
    let digest = stream_digest(spec, seed);
    println!(
        "{}: seed {seed}, request-stream digest {digest:#018x}",
        spec.name
    );

    let mut su = setup(spec.keys, spec.conns, ServerConfig::default())?;
    let mut setups = vec![su.secs];
    let bytes_per_key = su.rss_growth as f64 / spec.keys as f64;
    let mut streams: Vec<_> = (0..spec.conns)
        .map(|c| Stream::new(spec, seed, c))
        .collect();
    // Traced runs split the phase in thirds: untraced, traced,
    // untraced. Tracing overhead is the traced third against the mean of
    // the other two, so warm-up and the store's growth over the run do
    // not count as overhead.
    let limit = (
        Duration::from_secs(seconds) / if traced { 3 } else { 1 },
        u64::MAX,
    );
    let (sessions, server) = (&mut su.sessions, &su.server);
    let plain = run_phase(server, sessions, &mut streams, spec, limit, expected, None);
    let traced_phases = traced.then(|| {
        let epoch = Some(Instant::now());
        let t = run_phase(server, sessions, &mut streams, spec, limit, expected, epoch);
        let after = run_phase(server, sessions, &mut streams, spec, limit, expected, None);
        (t, after)
    });
    absorb(&mut out, &plain);
    if let Some((t, after)) = &traced_phases {
        absorb(&mut out, t);
        absorb(&mut out, after);
    }
    check_conservation(&su.server, spec.keys, expected, &mut out);
    let versions_per_key = ratio(su.server.versions_retained() as f64, spec.keys as f64);
    let peak_rss = resident_bytes("VmHWM");
    drop(su.sessions);
    su.server.shutdown();

    let committed = plain.committed() as f64;
    let cpu =
        (plain.proc.1.user_s - plain.proc.0.user_s) + (plain.proc.1.sys_s - plain.proc.0.sys_s);
    let txn = plain.latencies(false);
    let scans = plain.latencies(true);
    out.set("txn_per_s", plain.txn_per_s());
    out.set("txn_p50_us", txn.percentile(50.0) / 1e3);
    out.set(
        "txn_mean_us",
        ratio(txn.sum() as f64, txn.count() as f64) / 1e3,
    );
    out.set("txn_p99_us", txn.percentile(99.0) / 1e3);
    out.set("cpu_us_per_txn", ratio(cpu * 1e6, committed));
    out.set("peak_rss_mb", peak_rss as f64 / 1e6);
    if scans.count() > 0 {
        out.set("scan_p50_us", scans.percentile(50.0) / 1e3);
        out.set("scan_p99_us", scans.percentile(99.0) / 1e3);
    }

    if !traced {
        for _ in 1..spec.setup_reps {
            setups.push(if spec.fresh_setups {
                setup_in_child(spec)?
            } else {
                thread::sleep(crate::SETUP_GAP);
                setup_once(spec.name)?
            });
        }
        out.set("setup_s", median(&setups));
    }

    certify(spec, seed, expected_offset, &mut out);
    out.set(
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );

    if let Some((t, after)) = traced_phases {
        layer_metrics(&mut out, &t, bytes_per_key, versions_per_key);
        let untraced = (plain.txn_per_s() + after.txn_per_s()) / 2.0;
        out.set("trace.txn_per_s_delta", t.txn_per_s() - untraced);
        let path = trace::default_path(spec.name, seed);
        match trace::write_jsonl(&t.logs, &path) {
            Ok(()) => println!("{}: spans written to {}", spec.name, path.display()),
            Err(e) => eprintln!(
                "{}: could not write spans to {}: {e}",
                spec.name,
                path.display()
            ),
        }
    }
    Ok(out)
}

/// Per-layer metrics of the traced phase.
fn layer_metrics(out: &mut Outcome, t: &Phase, bytes_per_key: f64, versions_per_key: f64) {
    let txns = t.committed() as f64;
    let mean_ns = |kind| {
        let (ns, n) = trace::total(&t.logs, kind);
        ratio(ns as f64, n as f64)
    };
    let (write_ns, _) = trace::total(&t.logs, SpanKind::Write);
    let (flush_ns, _) = trace::total(&t.logs, SpanKind::Flush);
    let (_, sends) = trace::total(&t.logs, SpanKind::Encode);
    out.set("client.encode_ns", mean_ns(SpanKind::Encode));
    out.set(
        "client.write_ns",
        ratio((write_ns + flush_ns) as f64, sends as f64),
    );
    out.set("client.recv_wait_ns", mean_ns(SpanKind::RecvWait));
    out.set("wire.decode_ns", mean_ns(SpanKind::Decode));
    // Interactive round trips where there are any; otherwise each
    // pipelined TXN's send-to-reply time.
    let rtts = if t.rtt.count() == 0 {
        t.latencies(false)
    } else {
        t.rtt.clone()
    };
    out.set("client.rtt_us", rtts.percentile(50.0) / 1e3);

    let (r0, r1) = &t.reg;
    let wakeups = t.counter("serve.reactor.wakeups");
    out.set("reactor.wakeups_per_txn", ratio(wakeups, txns));
    let fpw = |r: &MetricsRegistry| r.histogram("serve.reactor.frames_per_wake").cloned();
    let (f0, f1) = (fpw(r0), fpw(r1));
    let wakes: u64 = hist_delta(f0.as_ref(), f1.as_ref())
        .iter()
        .map(|&(_, n)| n)
        .sum();
    out.set(
        "reactor.frames_per_wake",
        ratio(hist_delta_sum(f0.as_ref(), f1.as_ref()), wakes as f64),
    );
    out.set(
        "reactor.backpressure_pauses",
        t.counter("serve.backpressure.pauses"),
    );

    let batches = t.counter("serve.group_commit.batches");
    let group_txns = t.counter("serve.group_commit.txns");
    out.set("server.txns_per_batch", ratio(group_txns, batches));
    out.set(
        "server.retries_per_txn",
        ratio(t.counter("serve.group_commit.retries"), group_txns),
    );
    let flushes =
        ["size", "drain", "deadline"].map(|k| t.counter(&format!("serve.group_commit.flush.{k}")));
    let all_flushes: f64 = flushes.iter().sum();
    out.set("server.flush_size_share", ratio(flushes[0], all_flushes));
    out.set("server.flush_drain_share", ratio(flushes[1], all_flushes));
    out.set(
        "server.flush_deadline_share",
        ratio(flushes[2], all_flushes),
    );
    let p50 = |name: &str| {
        bucket_quantile(&hist_delta(r0.histogram(name), r1.histogram(name)), 0.5) / 1e3
    };
    out.set("server.txn_p50_us", p50("serve.latency_ns.txn"));
    out.set("server.read_p50_us", p50("serve.latency_ns.read"));
    out.set("server.commit_p50_us", p50("serve.latency_ns.commit"));
    let server_ns: f64 = r1
        .histograms()
        .filter(|(name, _)| name.starts_with("serve.latency_ns."))
        .map(|(name, h)| hist_delta_sum(r0.histogram(name), Some(h)))
        .sum();
    let client_ns = rtts.sum() as f64;
    out.set("server.rtt_share", ratio(server_ns, client_ns));

    out.set("store.bytes_per_key", bytes_per_key);
    out.set("store.versions_per_key", versions_per_key);
    let ticks = t.counter("serve.gc.ticks");
    out.set("store.gc_ticks", ticks);
    out.set(
        "store.gc_reclaimed_per_tick",
        ratio(t.counter("serve.gc.reclaimed"), ticks),
    );

    let (s0, s1) = t.stm;
    let (commits, aborts) = (
        (s1.commits - s0.commits) as f64,
        (s1.aborts - s0.aborts) as f64,
    );
    out.set("stm.abort_ratio", ratio(aborts, commits + aborts));
    out.set(
        "stm.backoff_ns_per_txn",
        ratio((s1.backoff_ns - s0.backoff_ns) as f64, txns),
    );
    let reader_aborts: u64 = t.conns.iter().map(|c| c.reader_aborts).sum();
    out.set(
        "stm.reader_aborts",
        (reader_aborts + s1.snapshot_too_old - s0.snapshot_too_old) as f64,
    );
    out.set(
        "stm.versions_retired_per_txn",
        ratio((s1.versions_retired - s0.versions_retired) as f64, txns),
    );
    out.set("stm.watermark_lag_max", s1.watermark_lag_max as f64);

    let (p0, p1) = t.proc;
    out.set(
        "os.user_us_per_txn",
        ratio((p1.user_s - p0.user_s) * 1e6, txns),
    );
    out.set(
        "os.sys_us_per_txn",
        ratio((p1.sys_s - p0.sys_s) * 1e6, txns),
    );
    out.set(
        "os.ctx_switches_per_txn",
        ratio(p1.ctx_switches.saturating_sub(p0.ctx_switches) as f64, txns),
    );
    let kept: usize = t.logs.iter().map(SpanLog::kept).sum();
    out.set("trace.spans", kept as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_digests() {
        for spec in [KV_BATCH, KV_CONTENDED] {
            assert_eq!(stream_digest(&spec, 1), stream_digest(&spec, 1));
            assert_ne!(stream_digest(&spec, 1), stream_digest(&spec, 2));
        }
    }

    #[test]
    fn contended_stream_scans_one_op_in_eight_and_skews_to_hot_keys() {
        let mut s = Stream::new(&KV_CONTENDED, 3, 0);
        let (mut hot, mut picks, mut scans) = (0, 0, 0);
        for _ in 0..8000 {
            match s.next_op() {
                Op::Scan => scans += 1,
                Op::Transfer { a, b, amount } => {
                    assert_ne!(a, b);
                    assert!((1..=10).contains(&amount));
                    hot += u64::from(a < 16) + u64::from(b < 16);
                    picks += 2;
                }
                Op::Txn(_) => panic!("contended streams issue no TXN ops"),
            }
        }
        assert!(hot * 100 / picks >= 70, "{hot} of {picks} picks hot");
        assert!((800..1200).contains(&scans), "{scans} scans of 8000");
    }

    #[test]
    fn batch_stream_mixes_transfers_and_audits_over_all_keys() {
        let mut s = Stream::new(&KV_BATCH, 5, 1);
        let (mut audits, mut max_key) = (0, 0);
        for _ in 0..2000 {
            let Op::Txn(ops) = s.next_op() else {
                panic!("batch streams issue TXNs")
            };
            assert_eq!(ops.len(), 2);
            assert_ne!(ops[0].key(), ops[1].key());
            max_key = max_key.max(ops[0].key()).max(ops[1].key());
            match (ops[0], ops[1]) {
                (TxnOp::Get { .. }, TxnOp::Get { .. }) => audits += 1,
                (TxnOp::Add { delta: d0, .. }, TxnOp::Add { delta: d1, .. }) => {
                    assert_eq!(d0 + d1, 0)
                }
                other => panic!("unexpected batch {other:?}"),
            }
        }
        assert!((800..1200).contains(&audits), "{audits} audits of 2000");
        assert!(max_key > KV_BATCH.keys / 2);
    }
}
