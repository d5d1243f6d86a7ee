//! Per-transaction execution histories for the isolation oracle
//! (`sitm-check`).
//!
//! A [`History`] is a bounded in-memory log of [`TxnRecord`]s, one per
//! transaction *attempt*: its begin/commit timestamps as reported by the
//! protocol under test, its reads (with the timestamp of the version
//! each read observed), its writes and promotions, and its outcome.
//! Recorders (the simulator engine, the software STM commit path) build
//! records through [`TxnBuilder`] and push them here; the oracle in
//! `sitm-check` replays the log and machine-checks the isolation-level
//! axioms against it.
//!
//! The schema deliberately uses only plain integers and static strings
//! so this module sits at the bottom of the workspace graph, and every
//! record exports as one `sitm.txn.v1` JSONL line via [`crate::Json`].
//! Display labels of lines (the write-skew tool names `TVar`s by them)
//! travel as one `sitm.labels.v1` line, and a capacity overflow as one
//! `sitm.dropped.v1` line; [`History::from_jsonl`] reads all three back.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::Json;

/// Default bound on retained records (~1M attempts; far above any Quick
/// fuzzing run, small enough to never threaten memory).
pub const DEFAULT_HISTORY_CAPACITY: usize = 1 << 20;

/// One recorded transactional operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryOp {
    /// Global operation sequence number (total order over every
    /// recorded operation of the run; gaps are fine).
    pub seq: u64,
    /// What the operation did.
    pub kind: OpKind,
}

/// The kinds of recorded operations. `line` is the conflict-detection
/// unit of the system under test: a cache-line address in the simulator,
/// a `TVar` id in the software STM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A transactional read.
    Read {
        /// Line read.
        line: u64,
        /// Timestamp of the version the read observed (`None` when the
        /// read was served from the transaction's own write buffer, or
        /// when the protocol has no version timestamps).
        observed: Option<u64>,
    },
    /// A transactional write.
    Write {
        /// Line written.
        line: u64,
    },
    /// A read promotion (validated like a write, installs nothing).
    Promote {
        /// Line promoted.
        line: u64,
    },
}

impl OpKind {
    /// The line this operation touched.
    pub fn line(&self) -> u64 {
        match *self {
            OpKind::Read { line, .. } | OpKind::Write { line } | OpKind::Promote { line } => line,
        }
    }
}

/// How a transaction attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The attempt committed.
    Committed,
    /// The attempt aborted; the payload is the protocol's cause label.
    Aborted(&'static str),
}

/// One transaction attempt, fully recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Unique attempt id within the run.
    pub txn: u64,
    /// Executing thread.
    pub thread: usize,
    /// Timestamp epoch: protocols that recover from clock overflow by
    /// resetting the clock bump this; timestamp comparisons are only
    /// meaningful within one epoch.
    pub epoch: u64,
    /// Global sequence number of the begin.
    pub begin_seq: u64,
    /// Global sequence number of the commit/abort.
    pub end_seq: u64,
    /// Begin (snapshot) timestamp, if the protocol is timestamp-based.
    pub begin_ts: Option<u64>,
    /// Commit (end) timestamp. `None` for aborts and for read-only /
    /// promotion-only commits, which reserve no end timestamp.
    pub commit_ts: Option<u64>,
    /// How the attempt ended.
    pub outcome: TxnOutcome,
    /// Every recorded operation, in issue order.
    pub ops: Vec<HistoryOp>,
}

impl TxnRecord {
    /// Whether the attempt committed.
    pub fn committed(&self) -> bool {
        self.outcome == TxnOutcome::Committed
    }

    /// Lines this transaction wrote.
    pub fn write_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().filter_map(|op| match op.kind {
            OpKind::Write { line } => Some(line),
            _ => None,
        })
    }

    /// The record as one `sitm.txn.v1` JSON object.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| match v {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let (kind, line, observed) = match op.kind {
                    OpKind::Read { line, observed } => ("read", line, observed),
                    OpKind::Write { line } => ("write", line, None),
                    OpKind::Promote { line } => ("promote", line, None),
                };
                let mut pairs = vec![
                    ("seq", Json::Num(op.seq as f64)),
                    ("op", Json::Str(kind.to_string())),
                    ("line", Json::Num(line as f64)),
                ];
                if let Some(ts) = observed {
                    pairs.push(("observed", Json::Num(ts as f64)));
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("sitm.txn.v1".to_string())),
            ("txn", Json::Num(self.txn as f64)),
            ("thread", Json::Num(self.thread as f64)),
            ("epoch", Json::Num(self.epoch as f64)),
            ("begin_seq", Json::Num(self.begin_seq as f64)),
            ("end_seq", Json::Num(self.end_seq as f64)),
            ("begin_ts", opt(self.begin_ts)),
            ("commit_ts", opt(self.commit_ts)),
            (
                "outcome",
                match self.outcome {
                    TxnOutcome::Committed => Json::Str("committed".to_string()),
                    TxnOutcome::Aborted(cause) => Json::Str(format!("aborted:{cause}")),
                },
            ),
            ("ops", Json::Arr(ops)),
        ])
    }

    /// Parses one `sitm.txn.v1` object, the inverse of [`Self::to_json`].
    fn from_json(doc: &Json) -> Result<TxnRecord, String> {
        let outcome = match doc.get("outcome").and_then(Json::as_str) {
            Some("committed") => Some(TxnOutcome::Committed),
            Some(s) => s
                .strip_prefix("aborted:")
                .map(|c| TxnOutcome::Aborted(intern(c))),
            None => None,
        };
        let ops = doc
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("malformed \"ops\"")?;
        let ops = ops.iter().map(|op| {
            let line = num(op, "line")?;
            let kind = match op.get("op").and_then(Json::as_str) {
                Some("read") => OpKind::Read {
                    line,
                    observed: opt_num(op, "observed")?,
                },
                Some("write") => OpKind::Write { line },
                Some("promote") => OpKind::Promote { line },
                _ => return Err("malformed \"op\"".to_string()),
            };
            let seq = num(op, "seq")?;
            Ok(HistoryOp { seq, kind })
        });
        Ok(TxnRecord {
            txn: num(doc, "txn")?,
            thread: num(doc, "thread")? as usize,
            epoch: num(doc, "epoch")?,
            begin_seq: num(doc, "begin_seq")?,
            end_seq: num(doc, "end_seq")?,
            begin_ts: opt_num(doc, "begin_ts")?,
            commit_ts: opt_num(doc, "commit_ts")?,
            outcome: outcome.ok_or("malformed \"outcome\"")?,
            ops: ops.collect::<Result<_, String>>()?,
        })
    }
}

/// The integer at `key` of a parsed JSON object.
fn num(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("malformed {key:?}"))
}

/// The optional integer at `key`: absent or `null` is `None`.
fn opt_num(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => num(doc, key).map(Some),
    }
}

/// The `'static` cause label of a parsed abort. Each distinct label is
/// leaked once, so memory stays bounded by the (small) cause taxonomy.
fn intern(cause: &str) -> &'static str {
    static CAUSES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut causes = CAUSES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&known) = causes.get(cause) {
        return known;
    }
    let leaked: &'static str = Box::leak(cause.into());
    causes.insert(leaked);
    leaked
}

/// Accumulates one in-flight transaction attempt until its outcome is
/// known.
#[derive(Debug, Clone)]
pub struct TxnBuilder {
    record: TxnRecord,
}

impl TxnBuilder {
    /// Starts a record at the begin of an attempt.
    pub fn new(txn: u64, thread: usize, epoch: u64, begin_seq: u64, begin_ts: Option<u64>) -> Self {
        TxnBuilder {
            record: TxnRecord {
                txn,
                thread,
                epoch,
                begin_seq,
                end_seq: begin_seq,
                begin_ts,
                commit_ts: None,
                outcome: TxnOutcome::Committed,
                ops: Vec::new(),
            },
        }
    }

    /// Appends an operation.
    pub fn op(&mut self, seq: u64, kind: OpKind) {
        self.record.ops.push(HistoryOp { seq, kind });
    }

    /// Finishes the record as committed. `commit_ts` is `None` for
    /// commits that reserved no end timestamp (read-only, promotion-only).
    pub fn commit(mut self, end_seq: u64, commit_ts: Option<u64>) -> TxnRecord {
        self.record.end_seq = end_seq;
        self.record.commit_ts = commit_ts;
        self.record.outcome = TxnOutcome::Committed;
        self.record
    }

    /// Finishes the record as aborted with the protocol's cause label.
    pub fn abort(mut self, end_seq: u64, cause: &'static str) -> TxnRecord {
        self.record.end_seq = end_seq;
        self.record.commit_ts = None;
        self.record.outcome = TxnOutcome::Aborted(cause);
        self.record
    }
}

/// The bounded in-memory transaction log of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    records: Vec<TxnRecord>,
    /// Records discarded because the capacity bound was hit. The oracle
    /// refuses to certify a history with drops (its completeness
    /// assumptions no longer hold).
    dropped: u64,
    capacity: usize,
    /// Display labels of labelled lines.
    labels: BTreeMap<u64, Arc<str>>,
}

impl Default for History {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_HISTORY_CAPACITY)
    }
}

impl History {
    /// An empty history retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        History {
            records: Vec::new(),
            dropped: 0,
            capacity,
            labels: BTreeMap::new(),
        }
    }

    /// Appends a finished record, or counts it as dropped when the
    /// capacity bound is reached.
    pub fn push(&mut self, record: TxnRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained records, in finish order.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Retained committed records.
    pub fn committed(&self) -> impl Iterator<Item = &TxnRecord> {
        self.records.iter().filter(|r| r.committed())
    }

    /// Records discarded over the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Names `line` for display (the software STM labels the lines of
    /// labelled `TVar`s while it records).
    pub fn set_label(&mut self, line: u64, label: Arc<str>) {
        self.labels.insert(line, label);
    }

    /// The display label of `line`, if it has one.
    pub fn label(&self, line: u64) -> Option<&str> {
        self.labels.get(&line).map(|l| &**l)
    }

    /// Exports the log as JSONL: one `sitm.txn.v1` record per line,
    /// then, when present, one `sitm.labels.v1` line with the label
    /// table and one `sitm.dropped.v1` line with the drop count.
    pub fn to_jsonl(&self) -> String {
        let mut docs: Vec<Json> = self.records.iter().map(TxnRecord::to_json).collect();
        let schema = |name: &str| ("schema", Json::Str(name.to_string()));
        if !self.labels.is_empty() {
            let pair = |(&line, name): (&u64, &Arc<str>)| {
                Json::Arr(vec![Json::Num(line as f64), Json::Str(name.to_string())])
            };
            let labels = Json::Arr(self.labels.iter().map(pair).collect());
            docs.push(Json::obj([schema("sitm.labels.v1"), ("labels", labels)]));
        }
        if self.dropped > 0 {
            let dropped = Json::Num(self.dropped as f64);
            docs.push(Json::obj([schema("sitm.dropped.v1"), ("dropped", dropped)]));
        }
        docs.iter().map(|doc| doc.to_line() + "\n").collect()
    }

    /// Parses what [`Self::to_jsonl`] writes back into a history. The
    /// result has no capacity bound: its records are already in memory.
    ///
    /// # Errors
    ///
    /// Returns a [`HistoryParseError`] naming the first line that is
    /// not valid JSON or not one of the three schemas above.
    pub fn from_jsonl(text: &str) -> Result<History, HistoryParseError> {
        let mut history = History::with_capacity(usize::MAX);
        let label = |pair: &Json| match pair.as_arr()? {
            [line, Json::Str(name)] => Some((line.as_u64()?, Arc::from(name.as_str()))),
            _ => None,
        };
        for (i, raw) in text.lines().enumerate() {
            let err = |message| HistoryParseError {
                line: i + 1,
                message,
            };
            let doc = Json::parse(raw).map_err(|e| err(e.to_string()))?;
            match doc.get("schema").and_then(Json::as_str) {
                Some("sitm.txn.v1") => history.push(TxnRecord::from_json(&doc).map_err(err)?),
                Some("sitm.labels.v1") => {
                    for pair in doc.get("labels").and_then(Json::as_arr).unwrap_or_default() {
                        let (line, name) = label(pair)
                            .ok_or_else(|| err(format!("malformed label {}", pair.to_line())))?;
                        history.set_label(line, name);
                    }
                }
                Some("sitm.dropped.v1") => history.dropped = num(&doc, "dropped").map_err(err)?,
                other => return Err(err(format!("unknown schema {other:?}"))),
            }
        }
        Ok(history)
    }
}

/// A line of a history JSONL export that [`History::from_jsonl`] could
/// not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for HistoryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for HistoryParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(txn: u64) -> TxnRecord {
        let mut b = TxnBuilder::new(txn, 0, 0, 1, Some(5));
        b.op(
            2,
            OpKind::Read {
                line: 64,
                observed: Some(3),
            },
        );
        b.op(3, OpKind::Write { line: 64 });
        b.commit(4, Some(9))
    }

    #[test]
    fn builder_round_trip() {
        let r = sample_record(7);
        assert!(r.committed());
        assert_eq!(r.begin_ts, Some(5));
        assert_eq!(r.commit_ts, Some(9));
        assert_eq!(r.ops.len(), 2);
        assert_eq!(r.write_lines().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn abort_clears_commit_ts() {
        let b = TxnBuilder::new(1, 2, 0, 10, Some(11));
        let r = b.abort(12, "write-write");
        assert!(!r.committed());
        assert_eq!(r.commit_ts, None);
        assert_eq!(r.outcome, TxnOutcome::Aborted("write-write"));
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let mut h = History::with_capacity(2);
        for txn in 0..5 {
            h.push(sample_record(txn));
        }
        assert_eq!(h.len(), 2);
        assert_eq!(h.dropped(), 3);
        assert_eq!(h.committed().count(), 2);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_schema() {
        let mut h = History::default();
        h.push(sample_record(1));
        h.push(TxnBuilder::new(2, 1, 0, 5, None).abort(6, "order"));
        let text = h.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).expect("history lines parse back");
            assert_eq!(v.get("schema").and_then(Json::as_str), Some("sitm.txn.v1"));
        }
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("outcome").and_then(Json::as_str),
            Some("aborted:order")
        );
        assert_eq!(second.get("begin_ts"), Some(&Json::Null));
    }

    #[test]
    fn jsonl_round_trips_records_labels_and_drops() {
        let mut h = History::with_capacity(2);
        h.push(sample_record(1));
        h.push(TxnBuilder::new(2, 1, 0, 5, None).abort(6, "order"));
        h.push(sample_record(3));
        h.set_label(64, Arc::from("checking"));
        let back = History::from_jsonl(&h.to_jsonl()).expect("own export parses");
        assert_eq!(back.records(), h.records());
        assert_eq!(back.label(64), Some("checking"));
        assert_eq!(back.label(65), None);
        assert_eq!(back.dropped(), 1);
        assert_eq!(back.to_jsonl(), h.to_jsonl());
    }

    #[test]
    fn jsonl_errors_name_the_line() {
        let mut h = History::default();
        h.push(sample_record(1));
        let text = h.to_jsonl() + "{\"schema\":\"sitm.txn.v1\",\"txn\":2}\n";
        let err = History::from_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2: "), "{err}");
        for bad in [
            "not json",
            "{\"schema\":\"other\"}",
            "{\"schema\":\"sitm.labels.v1\",\"labels\":[[1]]}",
        ] {
            assert_eq!(History::from_jsonl(bad).unwrap_err().line, 1, "{bad}");
        }
    }
}
