//! Transactions: snapshot reads, buffered writes, commit-time
//! validation.
//!
//! The commit protocol is the software rendition of SI-TM's `TM_COMMIT`
//! (section 4.2), with TL2-style *per-variable* versioned commit locks
//! instead of any process-global lock structure:
//!
//! 1. read-only transactions commit with no timestamp and no checks;
//! 2. writers acquire the commit locks of exactly their write +
//!    validation sets in ascending `var_id` order (a global order, so
//!    commits are deadlock-free), validate first-committer-wins that no
//!    locked variable has a version newer than the snapshot
//!    (write-write conflicts; plus read/promoted-set validation under
//!    the serializable level), obtain an end timestamp from the global
//!    clock, install the new versions, and unlock.
//!
//! Because validation and installation happen while holding the locks
//! of every variable involved, the commit point is atomic with respect
//! to conflicting commits, mirroring the paper's delta-reservation
//! argument without needing it — while transactions with disjoint
//! footprints proceed fully in parallel, sharing nothing but one read
//! fold of the clock shards and one CAS on the committing thread's own
//! shard (`epoch::commit_tick`). Snapshot reads never take a lock:
//! they only wait out a commit caught mid-install on the variable
//! being read (`VarInner::wait_unlocked`), which is the section 4.2
//! half-published-write-set race — a snapshot can only cover an
//! in-flight commit's end timestamp if it folded the clock after that
//! commit floored its tick over all shards, which happens while its
//! locks are held (the atomic-visibility argument of DESIGN.md §14).
//!
//! Every transaction also registers in the epoch registry for its
//! lifetime (the `epoch::SnapshotGuard` field of [`Tx`]): the
//! registry's watermark is what lets commits garbage-collect versions
//! no live snapshot can reach (DESIGN.md §14).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use sitm_obs::{
    ForensicCause, ForensicEvent, History, OpKind, SharedForensics, TxnBuilder, TxnRecord,
};

use crate::epoch;
use crate::error::{Conflict, StmError};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::tvar::{lock_versions, TVar, VarOps};

/// Thread-safe collector of finished transaction records plus the
/// global operation sequence counter, shared by every [`Tx`] an
/// [`crate::Stm`] runtime starts when history recording is enabled
/// ([`crate::Stm::with_history`]).
#[derive(Debug)]
pub(crate) struct HistorySink {
    history: Mutex<History>,
    seq: AtomicU64,
}

impl HistorySink {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        HistorySink {
            history: Mutex::new(History::with_capacity(capacity)),
            seq: AtomicU64::new(0),
        }
    }

    /// Next global operation sequence number. `SeqCst` so sequence
    /// order agrees with the clock order commits establish.
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// A copy of the log collected so far.
    pub(crate) fn snapshot(&self) -> History {
        lock_versions(&self.history).clone()
    }
}

/// One attempt's open history record, plus the labels of the variables
/// it touched (each captured once, merged into the history's label
/// table when the record is pushed).
#[derive(Debug)]
struct OpenRecord {
    sink: Arc<HistorySink>,
    builder: TxnBuilder,
    labels: BTreeMap<u64, Arc<str>>,
}

impl OpenRecord {
    /// Finishes the record with `finish(builder, end_seq)` and pushes it.
    fn close(self, finish: impl FnOnce(TxnBuilder, u64) -> TxnRecord) {
        let record = finish(self.builder, self.sink.next_seq());
        let mut history = lock_versions(&self.sink.history);
        history.push(record);
        for (line, label) in self.labels {
            history.set_label(line, label);
        }
    }
}

/// RAII holder of a commit's per-variable locks: acquired in ascending
/// `var_id` order, released (in any order — release order cannot
/// deadlock) when dropped, including on validation failure and on
/// panic, so a dying commit can never strand a variable locked.
struct CommitLocks {
    vars: Vec<Arc<dyn VarOps>>,
}

impl CommitLocks {
    /// Locks every variable yielded by `vars`, which must arrive in
    /// ascending id order (callers iterate a `BTreeMap` keyed by id).
    fn acquire<'a>(vars: impl Iterator<Item = &'a Arc<dyn VarOps>>) -> Self {
        let mut locked: Vec<Arc<dyn VarOps>> = Vec::with_capacity(vars.size_hint().0);
        for var in vars {
            debug_assert!(
                locked.last().is_none_or(|prev| prev.id() < var.id()),
                "commit locks must be acquired in ascending id order"
            );
            var.lock_commit();
            locked.push(Arc::clone(var));
        }
        CommitLocks { vars: locked }
    }
}

impl Drop for CommitLocks {
    fn drop(&mut self) {
        for var in &self.vars {
            var.unlock_commit();
        }
    }
}

/// How strictly transactions are isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Snapshot isolation: consistent snapshot reads, aborts only on
    /// write-write conflicts. Subject to the write-skew anomaly
    /// (section 5); pair with the `sitm-skew` tooling or selective
    /// [`Tx::promote`] calls.
    #[default]
    Snapshot,
    /// Full serializability by enforcing read-write conflict detection
    /// for every read, per the paper's remark that "programmers can
    /// always enforce serializability by enforcing read-write conflict
    /// detection for all or a subset of transactions": the entire read
    /// set is validated at commit. Read-only transactions still commit
    /// without validation (their snapshot is a consistent serialization
    /// point).
    Serializable,
}

/// A pending buffered write.
struct PendingWrite {
    var: Arc<dyn VarOps>,
    value: Box<dyn Any + Send>,
}

impl std::fmt::Debug for PendingWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PendingWrite(var {})", self.var.id())
    }
}

/// An in-flight transaction. Obtained from [`crate::Stm::atomically`].
pub struct Tx {
    snapshot: u64,
    level: IsolationLevel,
    writes: BTreeMap<u64, PendingWrite>,
    /// The read log kept under `Serializable` for commit-time
    /// validation of update transactions.
    read_log: BTreeMap<u64, Arc<dyn VarOps>>,
    /// Explicitly promoted reads (validated even in read-only
    /// transactions; never create versions).
    promoted: BTreeMap<u64, Arc<dyn VarOps>>,
    /// This attempt's open record, when the runtime records histories.
    history: Option<OpenRecord>,
    /// Shared abort-forensics recorder (a no-op unless the `trace`
    /// feature is enabled), when the runtime collects forensics.
    forensics: Option<Arc<SharedForensics>>,
    /// This transaction's registration in the live-snapshot registry.
    /// Held for the whole transaction (released on drop, on every exit
    /// path), so epoch GC can never reclaim a version this snapshot
    /// might still read.
    _epoch: epoch::SnapshotGuard,
}

impl std::fmt::Debug for Tx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("snapshot", &self.snapshot)
            .field("level", &self.level)
            .field("writes", &self.writes.len())
            .finish_non_exhaustive()
    }
}

static NEXT_ATTEMPT: AtomicU64 = AtomicU64::new(1);

/// Reset the attempt-id source (model executions reuse one process;
/// see `epoch::model_reset`).
#[cfg(loom)]
pub(crate) fn model_reset() {
    NEXT_ATTEMPT.store(1, Ordering::SeqCst);
}

/// Whether the `MUTATE_SKIP_FCW_VALIDATION` mutation knob is on (model
/// builds only): re-breaks the PR 4 bug class by letting a commit that
/// conflicts with an already-committed winner escape first-committer-
/// wins detection. Exists so the models can prove they would catch it.
fn mutate_skip_fcw() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::skip_fcw_validation()
    }
    #[cfg(not(loom))]
    {
        false
    }
}

/// Whether the `MUTATE_UNFLOORED_COMMIT_TICK` mutation knob is on
/// (model builds only): re-breaks the PR 7 torn-snapshot bug by
/// flooring the commit tick at the snapshot alone, without the
/// all-shard fold taken under the commit locks.
fn mutate_unfloored_tick() -> bool {
    #[cfg(loom)]
    {
        crate::model_support::unfloored_commit_tick()
    }
    #[cfg(not(loom))]
    {
        false
    }
}

impl Tx {
    #[cfg(test)]
    pub(crate) fn begin(level: IsolationLevel) -> Self {
        Self::begin_recorded(level, None, None)
    }

    pub(crate) fn begin_recorded(
        level: IsolationLevel,
        sink: Option<Arc<HistorySink>>,
        forensics: Option<Arc<SharedForensics>>,
    ) -> Self {
        // Register in the epoch registry *and* draw the snapshot in
        // one step: the registration is published before the clock is
        // read, which is what keeps the GC watermark at or below this
        // snapshot for as long as the guard lives.
        let (snapshot, guard) = epoch::enter();
        let history = sink.map(|sink| OpenRecord {
            builder: TxnBuilder::new(
                NEXT_ATTEMPT.fetch_add(1, Ordering::Relaxed),
                epoch::thread_index(),
                0, // the 64-bit software clock never overflows
                sink.next_seq(),
                Some(snapshot),
            ),
            sink,
            labels: BTreeMap::new(),
        });
        Tx {
            snapshot,
            level,
            writes: BTreeMap::new(),
            read_log: BTreeMap::new(),
            promoted: BTreeMap::new(),
            history,
            forensics,
            _epoch: guard,
        }
    }

    /// Attributes an abort to `cause` at `var_id` in the shared
    /// forensics recorder, if one is installed. `winner_ts` is the
    /// commit timestamp of the conflicting version, when known.
    fn record_forensic(&self, cause: ForensicCause, var_id: u64, winner_ts: Option<u64>) {
        if let Some(f) = &self.forensics {
            f.record(
                epoch::thread_index(),
                cause,
                ForensicEvent {
                    line: Some(var_id),
                    winner_ts,
                    snapshot_ts: Some(self.snapshot),
                },
            );
        }
    }

    /// Appends `kind` to this attempt's open history record, if any,
    /// capturing the variable's label the first time it is touched.
    fn record_op(&mut self, kind: OpKind, label: Option<&Arc<str>>) {
        if let Some(open) = &mut self.history {
            open.builder.op(open.sink.next_seq(), kind);
            if let Some(label) = label {
                open.labels
                    .entry(kind.line())
                    .or_insert_with(|| Arc::clone(label));
            }
        }
    }

    /// This transaction's snapshot timestamp.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// Reads `var` from the transaction's snapshot (or its own buffered
    /// write). Every read in one transaction observes the same
    /// snapshot, no matter what commits in between.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict::SnapshotTooOld`] (wrapped in [`StmError`])
    /// if the snapshot's version was evicted from a *capped* variable
    /// ([`TVar::with_history`]); the retry loop restarts on a fresh
    /// snapshot. Dynamically retained variables ([`TVar::new`]) keep
    /// every version a live snapshot can reach, so reading them cannot
    /// fail.
    ///
    /// # Examples
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::snapshot();
    /// let a = TVar::new(2u64);
    /// let b = TVar::new(3u64);
    /// let product = stm.atomically(|tx| {
    ///     let a = tx.read(&a)?; // both reads: one consistent snapshot
    ///     let b = tx.read(&b)?;
    ///     Ok(a * b)
    /// });
    /// assert_eq!(product, 6);
    /// ```
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>) -> Result<T, StmError> {
        // Serve self-reads straight from the write buffer: the value
        // never touched shared state, so it needs no read logging (the
        // write itself is validated at commit, which subsumes any
        // read-set check) and costs no validation work.
        if let Some(pending) = self.writes.get(&var.id()) {
            let value = pending
                .value
                .downcast_ref::<T>()
                .expect("buffered value type matches its TVar")
                .clone();
            self.record_op(
                OpKind::Read {
                    line: var.id(),
                    observed: None,
                },
                var.inner.label.as_ref(),
            );
            return Ok(value);
        }
        if self.level == IsolationLevel::Serializable {
            self.read_log
                .entry(var.id())
                .or_insert_with(|| var.inner.clone() as Arc<dyn VarOps>);
        }
        let (value, ts) = match var.read_versioned_at(self.snapshot) {
            Ok(read) => read,
            Err(err) => {
                // The snapshot's version fell off the bounded history:
                // a capacity eviction in the forensic taxonomy.
                self.record_forensic(
                    ForensicCause::CapacityEviction,
                    var.id(),
                    Some(var.inner.newest_ts()),
                );
                return Err(err.into());
            }
        };
        self.record_op(
            OpKind::Read {
                line: var.id(),
                observed: Some(ts),
            },
            var.inner.label.as_ref(),
        );
        Ok(value)
    }

    /// Buffers a write of `value` into `var`, visible to this
    /// transaction's subsequent reads and published atomically at
    /// commit.
    pub fn write<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>, value: T) {
        self.record_op(OpKind::Write { line: var.id() }, var.inner.label.as_ref());
        self.writes.insert(
            var.id(),
            PendingWrite {
                var: var.inner.clone() as Arc<dyn VarOps>,
                value: Box::new(value),
            },
        );
    }

    /// Promotes a read: the variable is validated at commit as if
    /// written, without creating a new version — the paper's write-skew
    /// remedy ("promoted reads are inserted into the write set to
    /// trigger an abort in the case of a write skew. However, a promoted
    /// read ... does not create new data versions").
    pub fn promote<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>) {
        self.record_op(OpKind::Promote { line: var.id() }, var.inner.label.as_ref());
        self.promoted
            .entry(var.id())
            .or_insert_with(|| var.inner.clone() as Arc<dyn VarOps>);
    }

    /// Whether the transaction has buffered writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Attempts to commit. Consumes the transaction.
    pub(crate) fn commit(mut self) -> Result<CommitReceipt, Conflict> {
        let history = self.history.take();
        let result = self.commit_inner();
        if let Some(open) = history {
            open.close(|builder, seq| match result {
                Ok(receipt) => builder.commit(seq, receipt.end),
                Err(conflict) => builder.abort(seq, conflict.label()),
            });
        }
        result
    }

    /// Records a deliberate client rollback ([`crate::Stm::abort`]) in
    /// the history, as `aborted:explicit`. Installs nothing and frees
    /// every resource the transaction held (the epoch-registry slot is
    /// released by the drop at the end of this call).
    pub(crate) fn record_explicit_abort(mut self) {
        if let Some(open) = self.history.take() {
            open.close(|builder, seq| builder.abort(seq, "explicit"));
        }
    }

    /// Records the abort of a transaction whose *body* hit a conflict
    /// (e.g. [`Conflict::SnapshotTooOld`] on a read), so `commit` never
    /// runs. Without this the attempt would silently vanish from the
    /// history and the oracle would refuse to certify it.
    pub(crate) fn record_failure(mut self, conflict: Conflict) {
        if let Some(open) = self.history.take() {
            open.close(|builder, seq| builder.abort(seq, conflict.label()));
        }
    }

    /// On success returns the commit receipt: the timestamp the writes
    /// were installed at (`None` for read-only / promotion-only
    /// commits, which publish nothing and take no clock tick) plus the
    /// epoch-GC accounting of the install pass.
    fn commit_inner(self) -> Result<CommitReceipt, Conflict> {
        // Read-only transactions validate only explicit promotions: a
        // pure snapshot reader is consistent as-of its snapshot and
        // commits free of charge even under `Serializable` (it
        // serializes at its snapshot point).
        let read_only = self.writes.is_empty();
        let validate: Vec<(&u64, &Arc<dyn VarOps>)> = if read_only {
            self.promoted.iter().collect()
        } else {
            // Update transactions validate promotions plus (under
            // Serializable) the full read log.
            self.promoted.iter().chain(self.read_log.iter()).collect()
        };
        if read_only && validate.is_empty() {
            return Ok(CommitReceipt::UNPUBLISHED);
        }
        // Acquire the commit locks of exactly this transaction's write
        // + validation sets, in ascending var-id order (BTreeMap
        // iteration order), deduplicated. Disjoint transactions touch
        // disjoint locks; the guard releases everything on every exit
        // path, including panics.
        let mut lock_set: BTreeMap<u64, &Arc<dyn VarOps>> = BTreeMap::new();
        for (&id, w) in &self.writes {
            lock_set.insert(id, &w.var);
        }
        for &(&id, var) in &validate {
            lock_set.entry(id).or_insert(var);
        }
        let _locks = CommitLocks::acquire(lock_set.into_values());

        // Validation (first-committer-wins): written and
        // promoted/read-validated variables must not have versions
        // newer than the snapshot. Holding their locks pins their write
        // stamps, so a concurrent commit can neither slip a version in
        // under us nor observe ours until we release.
        for w in self.writes.values() {
            let newest = w.var.newest_ts();
            if newest > self.snapshot && !mutate_skip_fcw() {
                // First-committer-wins: the winner's install stamped
                // `newest`, which names it for forensics.
                self.record_forensic(ForensicCause::WriteWriteFcw, w.var.id(), Some(newest));
                return Err(Conflict::WriteWrite);
            }
        }
        for (id, var) in validate {
            if self.writes.contains_key(id) {
                continue; // already checked as a write
            }
            let newest = var.newest_ts();
            if newest > self.snapshot {
                self.record_forensic(ForensicCause::ReadValidation, *id, Some(newest));
                return Err(Conflict::ReadValidation);
            }
        }
        if self.writes.is_empty() {
            // Promotion-only transaction: validation passed, nothing to
            // install.
            return Ok(CommitReceipt::UNPUBLISHED);
        }

        // Publish. The end timestamp comes from this thread's clock
        // shard, floored — while every commit lock is held — above
        // both the snapshot (so `end > begin` per transaction) and a
        // fold of all shards (`clock_now`). The fold is what makes the
        // installs atomically visible: no shard held a value >= `end`
        // before this thread's tick, so any snapshot that covers `end`
        // was folded after this point — i.e. after the locks were
        // acquired — and waits out the install on every written
        // variable (`wait_unlocked`). A snapshot therefore observes
        // this commit's whole write set or none of it, never a prefix
        // (DESIGN.md §14). Each install also trims versions the
        // live-snapshot watermark proves unreachable. (The watermark
        // cannot pass our own snapshot: this transaction is still
        // registered.)
        let floor = if mutate_unfloored_tick() {
            self.snapshot // the re-broken PR 7 variant: no all-shard fold
        } else {
            self.snapshot.max(epoch::clock_now())
        };
        let end = epoch::commit_tick(floor);
        let watermark = epoch::gc_watermark(end);
        let mut retired = 0;
        for (_, w) in self.writes {
            retired += w.var.install(end, w.value, watermark);
        }
        Ok(CommitReceipt {
            end: Some(end),
            versions_retired: retired,
            watermark_lag: Some(end - watermark),
        })
    }
}

/// What a successful commit did, consumed by the runtime's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CommitReceipt {
    /// Commit timestamp of the installed writes, or `None` for
    /// read-only / promotion-only commits (which publish nothing and
    /// take no clock tick).
    pub(crate) end: Option<u64>,
    /// Versions reclaimed by epoch GC / capped eviction while
    /// installing this commit's writes.
    pub(crate) versions_retired: u64,
    /// Distance from the commit timestamp down to the GC watermark
    /// used for the install pass (`None` when nothing was installed) —
    /// the retention overhang a long-lived snapshot is currently
    /// imposing.
    pub(crate) watermark_lag: Option<u64>,
}

impl CommitReceipt {
    /// The receipt of a commit that published nothing.
    const UNPUBLISHED: CommitReceipt = CommitReceipt {
        end: None,
        versions_retired: 0,
        watermark_lag: None,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_own_write() {
        let var = TVar::new(1u32);
        let mut tx = Tx::begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(&var).unwrap(), 1);
        tx.write(&var, 2);
        assert_eq!(tx.read(&var).unwrap(), 2);
        tx.commit().unwrap();
        assert_eq!(var.load(), 2);
    }

    #[test]
    fn commit_end_covers_snapshots_issued_before_publish() {
        // Regression test for a torn-snapshot bug: begin a writer
        // early (while its own clock shard lags), advance a *different*
        // shard far ahead, then issue a snapshot. The writer's commit
        // must land above that snapshot — flooring the tick only at
        // the writer's own begin timestamp published an `end` below
        // the already-issued snapshot, so the installs became visible
        // inside a live reader's view mid-transaction.
        let var = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Snapshot);
        tx.write(&var, 1);

        let own_shard = epoch::thread_index() % epoch::SHARDS;
        let mut advanced = false;
        for _ in 0..64 {
            advanced = std::thread::spawn(move || {
                if epoch::thread_index() % epoch::SHARDS == own_shard {
                    return false; // same shard: ticking it would mask the bug
                }
                epoch::commit_tick(epoch::clock_now() + 1_000);
                true
            })
            .join()
            .expect("shard-advancing thread");
            if advanced {
                break;
            }
        }
        assert!(advanced, "no spawned thread landed on a foreign shard");

        let reader_snapshot = epoch::clock_now();
        tx.commit().unwrap();
        assert!(
            var.inner.newest_ts() > reader_snapshot,
            "a commit must never publish below an already-issued snapshot \
             (end {} <= snapshot {reader_snapshot})",
            var.inner.newest_ts()
        );
    }

    #[test]
    fn snapshot_ignores_later_commits() {
        let var = TVar::new(10u32);
        let mut reader = Tx::begin(IsolationLevel::Snapshot);
        assert_eq!(reader.read(&var).unwrap(), 10);
        // A writer commits in between.
        let mut writer = Tx::begin(IsolationLevel::Snapshot);
        writer.write(&var, 20);
        writer.commit().unwrap();
        // The reader still sees its snapshot.
        assert_eq!(reader.read(&var).unwrap(), 10);
        reader.commit().unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_second() {
        let var = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Snapshot);
        let mut b = Tx::begin(IsolationLevel::Snapshot);
        a.write(&var, 1);
        b.write(&var, 2);
        a.commit().unwrap();
        assert_eq!(b.commit(), Err(Conflict::WriteWrite));
        assert_eq!(var.load(), 1);
    }

    #[test]
    fn serializable_validates_reads() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Serializable);
        let _ = a.read(&var).unwrap();
        a.write(&other, 1);
        // Concurrent writer invalidates a's read.
        let mut w = Tx::begin(IsolationLevel::Snapshot);
        w.write(&var, 9);
        w.commit().unwrap();
        assert_eq!(a.commit(), Err(Conflict::ReadValidation));
    }

    #[test]
    fn snapshot_level_ignores_read_invalidations() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Snapshot);
        let _ = a.read(&var).unwrap();
        a.write(&other, 1);
        let mut w = Tx::begin(IsolationLevel::Snapshot);
        w.write(&var, 9);
        w.commit().unwrap();
        assert!(a.commit().is_ok());
    }

    #[test]
    fn promotion_turns_skew_into_conflict() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut a = Tx::begin(IsolationLevel::Snapshot);
        let _ = a.read(&var).unwrap();
        a.promote(&var);
        a.write(&other, 1);
        let mut w = Tx::begin(IsolationLevel::Snapshot);
        w.write(&var, 9);
        w.commit().unwrap();
        assert_eq!(a.commit(), Err(Conflict::ReadValidation));
        // The promoted read did not create a version.
        assert_eq!(var.load(), 9);
    }

    #[test]
    fn serializable_self_reads_skip_the_read_log() {
        let var = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Serializable);
        tx.write(&var, 5);
        // A read served from the write buffer must not inflate the
        // validation set.
        assert_eq!(tx.read(&var).unwrap(), 5);
        assert!(tx.read_log.is_empty(), "self-read logged nothing");
        tx.commit().unwrap();

        // A read that observed shared state *before* the write is
        // logged (and later subsumed by write validation).
        let other = TVar::new(0u32);
        let mut tx = Tx::begin(IsolationLevel::Serializable);
        let _ = tx.read(&other).unwrap();
        tx.write(&other, 1);
        assert_eq!(tx.read_log.len(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn commit_releases_every_lock_on_conflict() {
        let var = TVar::new(0u32);
        let other = TVar::new(0u32);
        let mut loser = Tx::begin(IsolationLevel::Snapshot);
        loser.write(&var, 1);
        loser.write(&other, 1);
        let mut winner = Tx::begin(IsolationLevel::Snapshot);
        winner.write(&var, 2);
        winner.commit().unwrap();
        assert_eq!(loser.commit(), Err(Conflict::WriteWrite));
        // Both variables must be unlocked again: a fresh disjoint
        // commit on each succeeds without blocking.
        for (v, val) in [(&var, 7u32), (&other, 8u32)] {
            let mut tx = Tx::begin(IsolationLevel::Snapshot);
            tx.write(v, val);
            tx.commit().unwrap();
            assert_eq!(v.load(), val);
        }
    }

    #[test]
    fn read_only_commits_even_amid_conflicts() {
        let var = TVar::new(0u32);
        let mut reader = Tx::begin(IsolationLevel::Serializable);
        let _ = reader.read(&var).unwrap();
        let mut w = Tx::begin(IsolationLevel::Snapshot);
        w.write(&var, 1);
        w.commit().unwrap();
        // Read-only: commits without validation even under
        // Serializable (its snapshot is a consistent serialization
        // point).
        assert!(reader.is_read_only());
        let receipt = reader.commit().unwrap();
        assert_eq!(receipt.end, None, "read-only commits take no tick");
        assert_eq!(receipt.versions_retired, 0);
    }
}
