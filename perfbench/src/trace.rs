//! The traced run's span log: spans recorded by the benchmark around
//! its own calls into each layer, kept in memory and written out as
//! JSON lines when the run ends.
//!
//! Every span carries a name, start and end (nanoseconds since the
//! run's epoch), the index of its parent span in the same log, and the
//! id of the request it belongs to. Per-kind totals are kept for every
//! span, also past the memory cap, so the per-layer means cover the
//! whole traced phase.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One client transaction, first request to final reply.
    Request,
    /// One request/response exchange of an interactive transaction or
    /// a scan.
    RoundTrip,
    /// `Request::encode`.
    Encode,
    /// `wire::write_frame` into the connection's buffer.
    Write,
    /// Flushing the connection's buffer onto the socket.
    Flush,
    /// The blocking frame read for the next reply.
    RecvWait,
    /// `Response::decode`.
    Decode,
    /// One simulator grid cell (`sitm_bench::run_cell`).
    Cell,
    /// One whole Figure 7 grid.
    Grid,
}

impl SpanKind {
    const ALL: [SpanKind; 9] = [
        SpanKind::Request,
        SpanKind::RoundTrip,
        SpanKind::Encode,
        SpanKind::Write,
        SpanKind::Flush,
        SpanKind::RecvWait,
        SpanKind::Decode,
        SpanKind::Cell,
        SpanKind::Grid,
    ];

    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "kv.request",
            SpanKind::RoundTrip => "client.roundtrip",
            SpanKind::Encode => "client.encode",
            SpanKind::Write => "client.write",
            SpanKind::Flush => "client.flush",
            SpanKind::RecvWait => "client.recv_wait",
            SpanKind::Decode => "wire.decode",
            SpanKind::Cell => "sim.cell",
            SpanKind::Grid => "sim.grid",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Index of a span in its log (`None` once the log is full).
pub type SpanId = Option<u32>;

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    req: u64,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one thread.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    totals: [(u64, u64); SpanKind::ALL.len()],
}

impl SpanLog {
    /// An empty log for `thread`, timing against `epoch`, keeping at
    /// most `cap` spans in memory.
    pub fn new(epoch: Instant, thread: usize, cap: usize) -> SpanLog {
        SpanLog {
            epoch,
            thread,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
            totals: [(0, 0); SpanKind::ALL.len()],
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span whose end is not known yet; finish it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, kind: SpanKind, req: u64, parent: SpanId, start_ns: u64) -> SpanId {
        self.push(kind, req, parent, start_ns, start_ns)
    }

    /// Ends a span started with [`SpanLog::open`].
    pub fn close(&mut self, id: SpanId, kind: SpanKind, start_ns: u64, end_ns: u64) {
        let total = &mut self.totals[kind.index()];
        total.0 += end_ns.saturating_sub(start_ns);
        total.1 += 1;
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end_ns;
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        kind: SpanKind,
        req: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.push(kind, req, parent, start_ns, end_ns);
        self.close(id, kind, start_ns, end_ns);
        id
    }

    fn push(
        &mut self,
        kind: SpanKind,
        req: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            kind,
            req,
            parent,
            start_ns,
            end_ns,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Total nanoseconds and count of the finished spans of `kind`.
    pub fn total(&self, kind: SpanKind) -> (u64, u64) {
        self.totals[kind.index()]
    }

    /// Spans kept in memory.
    pub fn kept(&self) -> usize {
        self.spans.len()
    }
}

/// Sum over several logs of [`SpanLog::total`].
pub fn total(logs: &[SpanLog], kind: SpanKind) -> (u64, u64) {
    logs.iter()
        .map(|l| l.total(kind))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Where a traced run writes its spans: next to the benchmark's
/// executable, inside the build directory of the checkout.
pub fn default_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    dir.join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// Writes every kept span of `logs` as one JSON object per line:
/// `name`, `thread`, `id` (index within the thread's log), `parent`,
/// `req`, `start_ns`, `end_ns`. A first line records spans dropped past
/// the memory cap.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(logs: &[SpanLog], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    writeln!(out, "{{\"spans_dropped\":{dropped}}}")?;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"id\":{i},\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.name(),
                log.thread,
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_cover_spans_past_the_cap() {
        let mut log = SpanLog::new(Instant::now(), 0, 2);
        let parent = log.open(SpanKind::Request, 7, None, 10);
        let child = log.record(SpanKind::Encode, 7, parent, 11, 15);
        assert_eq!((parent, child), (Some(0), Some(1)));
        assert_eq!(log.record(SpanKind::Encode, 7, parent, 20, 30), None);
        log.close(parent, SpanKind::Request, 10, 40);
        assert_eq!(log.total(SpanKind::Encode), (14, 2));
        assert_eq!(log.total(SpanKind::Request), (30, 1));
        assert_eq!(log.kept(), 2);
        assert_eq!(log.dropped, 1);
        assert_eq!(log.spans[0].end_ns, 40);
    }

    #[test]
    fn written_lines_are_json_with_parent_links() {
        let mut log = SpanLog::new(Instant::now(), 3, 16);
        let root = log.open(SpanKind::Request, 1, None, 0);
        log.record(SpanKind::Decode, 1, root, 5, 9);
        log.close(root, SpanKind::Request, 0, 12);
        let path = default_path("span-test", u64::from(std::process::id()));
        write_jsonl(&[log], &path).expect("writable temp dir");
        let text = fs::read_to_string(&path).expect("just written");
        fs::remove_file(&path).expect("cleanup");
        let lines: Vec<_> = text
            .lines()
            .map(|l| sitm_obs::Json::parse(l).expect("JSON"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0]
                .get("spans_dropped")
                .and_then(sitm_obs::Json::as_u64),
            Some(0)
        );
        assert_eq!(
            lines[2].get("name").and_then(sitm_obs::Json::as_str),
            Some("wire.decode")
        );
        assert_eq!(
            lines[2].get("parent").and_then(sitm_obs::Json::as_u64),
            Some(0)
        );
        assert_eq!(
            lines[1].get("end_ns").and_then(sitm_obs::Json::as_u64),
            Some(12)
        );
    }
}
