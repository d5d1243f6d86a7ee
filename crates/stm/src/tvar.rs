//! Multiversioned transactional variables.
//!
//! A [`TVar<T>`] is the software analogue of an MVM cache line: it
//! keeps timestamped versions so transactions read from a consistent
//! snapshot while writers commit new versions without disturbing
//! readers. The version chain uses the same layout idiom as the
//! simulator's `version_list`: the newest version lives in an inline
//! slot (the overwhelmingly common read target), superseded versions
//! spill into an ordered list behind it.
//!
//! Retention comes in two modes (see DESIGN.md §14 for the lifecycle
//! contract):
//!
//! * **Dynamic** ([`TVar::new`], the default): superseded versions are
//!   retained exactly while a live snapshot's begin timestamp can
//!   still reach them, and reclaimed by epoch GC once the
//!   live-snapshot watermark passes them (GC runs on installs;
//!   [`TVar::compact`] trims a cold, no-longer-written variable on
//!   demand). Readers of such variables
//!   can never lose their version — [`Conflict::SnapshotTooOld`] is
//!   unreachable — which is what makes the paper's "readers never
//!   abort" property hold for arbitrarily long transactions.
//! * **Capped** ([`TVar::with_history`]): at most `cap` versions are
//!   kept under the discard-oldest policy, the software rendition of
//!   the paper's 4-version hardware cap. A reader whose snapshot
//!   predates the oldest retained version aborts with
//!   [`Conflict::SnapshotTooOld`] and retries on a fresh snapshot.
//!
//! Each variable additionally carries a TL2-style *versioned commit
//! lock* (an atomic word combining the newest write timestamp with a
//! lock bit) — the per-location software rendition of SI-TM's per-line
//! timestamped versions. Commits lock exactly the variables they wrote
//! or must validate, so transactions with disjoint footprints share no
//! synchronization state at all; see `txn.rs` for the protocol.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::Conflict;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the data if a panicking thread poisoned it
/// (version lists stay structurally valid across any panic point).
pub(crate) fn lock_versions<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Spin iterations against a held commit lock before demoting to a
/// scheduler yield. Model builds yield immediately: a modeled spin
/// read burns the preemption budget without enabling anything.
const SPIN_LIMIT: u32 = if cfg!(loom) { 1 } else { 128 };

/// Suggested cap for [`TVar::with_history`] when approximating the
/// paper's small hardware version budget (the paper finds 4 adequate;
/// the software suggestion is more generous because software snapshots
/// live longer). [`TVar::new`] no longer caps at all — it retains
/// dynamically against the live-snapshot watermark.
pub const DEFAULT_HISTORY: usize = 8;

/// Retention-cap sentinel for dynamic (watermark-driven) retention.
const DYNAMIC: usize = usize::MAX;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);

/// Reset the variable-id source (model executions reuse one process;
/// see `epoch::model_reset`).
#[cfg(loom)]
pub(crate) fn model_reset() {
    NEXT_VAR_ID.store(1, Ordering::SeqCst);
}

/// Bit 0 of [`VarInner::stamp`]: set while a committing transaction
/// holds this variable's commit lock.
const LOCK_BIT: u64 = 1;

/// The version chain: newest inline, superseded versions spilled
/// oldest-first (ascending timestamps) behind it.
#[derive(Debug)]
struct Chain<T> {
    /// Commit timestamp of the inline newest version (0 for the
    /// initial value).
    newest_ts: u64,
    /// The newest committed value — the target of every read whose
    /// snapshot is current, served without touching the spill.
    newest: T,
    /// Superseded versions in ascending timestamp order. A snapshot
    /// `s < newest_ts` is served by the last entry with `ts <= s`.
    older: VecDeque<(u64, T)>,
    /// Whether any version was ever dropped from this chain. While
    /// false the chain reaches back to the initial timestamp-0 version
    /// and every snapshot is servable.
    truncated: bool,
}

impl<T> Chain<T> {
    /// Epoch GC: drops every spilled version no snapshot at or above
    /// `watermark` can bind to, returning how many were dropped. Every
    /// snapshot that is live or can still begin has `begin_ts >=
    /// watermark` (the epoch invariant), and a snapshot `s` is served
    /// by the newest version with `ts <= s` — so the newest version
    /// with `ts <= watermark`, and everything newer, must stay;
    /// everything older is unreachable forever.
    fn trim(&mut self, watermark: u64) -> u64 {
        if self.newest_ts <= watermark {
            // The inline newest serves every surviving snapshot.
            let dead = self.older.len();
            self.older.clear();
            dead as u64
        } else {
            let reachable_from = self.older.partition_point(|&(vts, _)| vts <= watermark);
            let dead = reachable_from.saturating_sub(1);
            self.older.drain(..dead).count() as u64
        }
    }
}

#[derive(Debug)]
pub(crate) struct VarInner<T> {
    id: u64,
    pub(crate) label: Option<Arc<str>>,
    /// Retention cap: [`DYNAMIC`] for watermark-driven retention,
    /// otherwise the maximum total number of versions kept
    /// (discard-oldest).
    cap: usize,
    /// The TL2-style versioned commit-lock word:
    /// `(newest_committed_ts << 1) | lock_bit`. Commits acquire the
    /// lock bit (in ascending id order across their whole lock set),
    /// validate and install while holding it, and release it after
    /// publishing the new write stamp — so `stamp >> 1` is always the
    /// timestamp of the newest *fully installed* version, and a set
    /// lock bit marks an installation in flight.
    stamp: AtomicU64,
    chain: Mutex<Chain<T>>,
    /// Lifetime count of versions reclaimed from this chain (epoch GC
    /// and capped eviction alike) — the per-variable half of the
    /// `stm.versions_retired` counter.
    retired: AtomicU64,
}

impl<T> VarInner<T> {
    /// Spins (then yields) until no commit holds this variable's lock.
    ///
    /// Readers call this before scanning the version chain: a snapshot
    /// new enough to observe an in-flight commit's end timestamp can
    /// only exist *after* that commit floored its clock tick over all
    /// shards, which happens while the lock is held — so waiting for
    /// the release guarantees the reader sees the fully installed
    /// version (the §14 atomic-visibility argument). Commits
    /// never wait on readers, and readers never hold commit locks, so
    /// this cannot deadlock.
    fn wait_unlocked(&self) {
        let mut spins = 0u32;
        while self.stamp.load(Ordering::Acquire) & LOCK_BIT != 0 {
            spins += 1;
            if spins < SPIN_LIMIT {
                crate::sync::hint::spin_loop();
            } else {
                crate::sync::thread::yield_now();
            }
        }
    }
}

/// A transactional variable holding multiversioned values of type `T`.
///
/// Values are cloned out on read; wrap large payloads in [`Arc`] to make
/// cloning cheap. `TVar`s are created outside transactions and accessed
/// inside them via [`crate::Tx::read`] / [`crate::Tx::write`].
///
/// # Examples
///
/// ```
/// use sitm_stm::{Stm, TVar};
/// let stm = Stm::snapshot();
/// let balance = TVar::new(100u64);
/// stm.atomically(|tx| {
///     let b = tx.read(&balance)?;
///     tx.write(&balance, b + 1);
///     Ok(())
/// });
/// assert_eq!(stm.atomically(|tx| tx.read(&balance)), 101);
/// ```
#[derive(Debug)]
pub struct TVar<T> {
    pub(crate) inner: Arc<VarInner<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Creates a variable with an initial value (committed at timestamp
    /// zero, visible to every snapshot) under **dynamic retention**:
    /// superseded versions stay reachable for as long as any live
    /// snapshot can read them and are reclaimed by epoch GC afterwards,
    /// so readers of this variable never abort — not even arbitrarily
    /// long scans under heavy write churn.
    ///
    /// # Examples
    ///
    /// A long read-only scan stays consistent while writers churn:
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::snapshot();
    /// let cells: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(0)).collect();
    ///
    /// // Writers keep every cell-pair sum at zero...
    /// for k in 0..100 {
    ///     stm.atomically(|tx| {
    ///         let a = tx.read(&cells[k % 8])?;
    ///         tx.write(&cells[k % 8], a - 1);
    ///         let b = tx.read(&cells[(k + 4) % 8])?;
    ///         tx.write(&cells[(k + 4) % 8], b + 1);
    ///         Ok(())
    ///     });
    /// }
    /// // ...so a snapshot scan of all cells always sums to zero.
    /// let sum = stm.atomically(|tx| {
    ///     let mut sum = 0;
    ///     for c in &cells {
    ///         sum += tx.read(c)?;
    ///     }
    ///     Ok(sum)
    /// });
    /// assert_eq!(sum, 0);
    /// ```
    pub fn new(value: T) -> Self {
        Self::build(value, DYNAMIC, None)
    }

    /// Creates a labeled variable under dynamic retention (see
    /// [`TVar::new`]); the label appears in write-skew reports from the
    /// `sitm-skew` tooling.
    pub fn new_labeled(label: &str, value: T) -> Self {
        Self::build(value, DYNAMIC, Some(Arc::from(label)))
    }

    /// Creates a variable retaining at most `cap` versions under the
    /// discard-oldest policy — the software rendition of the paper's
    /// bounded hardware version budget. Readers whose snapshot
    /// predates the oldest retained version abort with
    /// [`Conflict::SnapshotTooOld`] and retry on a fresh snapshot;
    /// use [`TVar::new`] when long readers must never abort.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_history(value: T, cap: usize) -> Self {
        assert!(cap >= 1, "at least one version must be retained");
        Self::build(value, cap, None)
    }

    fn build(value: T, cap: usize, label: Option<Arc<str>>) -> Self {
        TVar {
            inner: Arc::new(VarInner {
                id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
                label,
                cap,
                stamp: AtomicU64::new(0),
                chain: Mutex::new(Chain {
                    newest_ts: 0,
                    newest: value,
                    older: VecDeque::new(),
                    truncated: false,
                }),
                retired: AtomicU64::new(0),
            }),
        }
    }

    /// The variable's unique id (used for deterministic lock ordering
    /// and trace correlation).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The label given at construction, if any.
    pub fn label(&self) -> Option<Arc<str>> {
        self.inner.label.clone()
    }

    /// Reads the newest committed value outside any transaction.
    pub fn load(&self) -> T {
        lock_versions(&self.inner.chain).newest.clone()
    }

    /// Reads the newest version at or below `snapshot`, waiting out any
    /// in-flight commit on this variable first (see
    /// [`VarInner::wait_unlocked`]).
    #[cfg(test)]
    pub(crate) fn read_at(&self, snapshot: u64) -> Result<T, Conflict> {
        self.read_versioned_at(snapshot).map(|(value, _)| value)
    }

    /// Reads the newest version at or below `snapshot` (waiting out any
    /// in-flight commit first), returning the value together with the
    /// commit timestamp of the version that served the read (0 for the
    /// initial value) — the observation the history recorder exports
    /// for the isolation oracle.
    pub(crate) fn read_versioned_at(&self, snapshot: u64) -> Result<(T, u64), Conflict> {
        self.inner.wait_unlocked();
        let chain = lock_versions(&self.inner.chain);
        if chain.newest_ts <= snapshot {
            return Ok((chain.newest.clone(), chain.newest_ts));
        }
        // Ascending order: the last spilled entry at or below the
        // snapshot is the one this snapshot observes.
        let at = chain.older.partition_point(|&(ts, _)| ts <= snapshot);
        match at.checked_sub(1).and_then(|i| chain.older.get(i)) {
            Some((ts, value)) => Ok((value.clone(), *ts)),
            None => {
                // An untruncated chain reaches back to timestamp 0 and
                // serves every snapshot; only capped eviction (or a
                // watermark-certified reclamation, which no live
                // snapshot can contradict) makes this reachable.
                debug_assert!(chain.truncated, "untruncated chains serve any snapshot");
                Err(Conflict::SnapshotTooOld)
            }
        }
    }

    /// Number of currently retained versions (diagnostics).
    pub fn version_count(&self) -> usize {
        1 + lock_versions(&self.inner.chain).older.len()
    }

    /// Lifetime count of versions reclaimed from this variable, by
    /// epoch GC (dynamic retention) or discard-oldest eviction (capped
    /// retention). Diagnostics; see also `StmStats::versions_retired`
    /// for the runtime-wide aggregate.
    pub fn retired_total(&self) -> u64 {
        self.inner.retired.load(Ordering::Relaxed)
    }

    /// Reclaims this variable's retired versions *now*, against a
    /// freshly scanned live-snapshot watermark, and returns how many
    /// were reclaimed.
    ///
    /// Epoch GC normally piggybacks on installs, so a variable that
    /// stops being written keeps whatever spill a since-finished long
    /// reader forced it to retain — indefinitely, if no writer ever
    /// touches it again (DESIGN.md §14). `compact` is the explicit
    /// trim hook for such cold variables; it is always safe (it drops
    /// only versions the watermark proves unreachable, so a concurrent
    /// reader can never lose its version) and never blocks commits.
    ///
    /// Reclamations made here count toward [`TVar::retired_total`] but
    /// not toward any runtime's `StmStats` aggregate — no transaction
    /// is involved. On capped variables ([`TVar::with_history`]) this
    /// is a no-op returning 0: their retention is already bounded at
    /// install time.
    ///
    /// # Examples
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    /// let stm = Stm::snapshot();
    /// let cell = TVar::new(0u32);
    /// for i in 1..=4 {
    ///     stm.atomically(|tx| {
    ///         tx.write(&cell, i);
    ///         Ok(())
    ///     });
    /// }
    /// // No snapshot is live, so everything superseded is
    /// // reclaimable without waiting for the next write.
    /// cell.compact();
    /// assert_eq!(cell.version_count(), 1);
    /// ```
    pub fn compact(&self) -> u64 {
        if self.inner.cap != DYNAMIC {
            return 0;
        }
        let watermark = crate::epoch::refresh_watermark();
        let mut chain = lock_versions(&self.inner.chain);
        let dropped = chain.trim(watermark);
        if dropped > 0 {
            chain.truncated = true;
            self.inner.retired.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }
}

/// Type-erased per-variable operations used by the commit protocol.
///
/// The locking methods implement the per-variable half of the TL2-style
/// commit: a committing transaction calls [`VarOps::lock_commit`] on
/// every written *and* validated variable in ascending id order (the
/// global order that makes concurrent commits deadlock-free), then
/// [`VarOps::newest_ts`] to validate first-committer-wins, then
/// [`VarOps::install`] for its writes, and finally
/// [`VarOps::unlock_commit`] on everything. Transactions with disjoint
/// lock sets never touch a shared lock.
pub(crate) trait VarOps: Send + Sync {
    fn id(&self) -> u64;
    /// Timestamp of the newest fully installed version (from the
    /// stamp word; never blocks).
    fn newest_ts(&self) -> u64;
    /// Acquires this variable's commit lock, spinning (then yielding)
    /// while another commit holds it.
    fn lock_commit(&self);
    /// Releases the commit lock, preserving the write stamp.
    fn unlock_commit(&self);
    /// Installs `value` (of the variable's concrete type) at `ts`,
    /// then garbage-collects the chain against `watermark` — the
    /// live-snapshot lower bound from `epoch::gc_watermark` — and
    /// returns the number of versions reclaimed. The caller must hold
    /// the commit lock; the new write stamp is published into the lock
    /// word (still locked) so it becomes the validation timestamp the
    /// instant the lock is released.
    ///
    /// # Panics
    ///
    /// Panics if `value` has the wrong type (unreachable through the
    /// typed API), `ts` is not newer than the newest version, or the
    /// commit lock is not held.
    fn install(&self, ts: u64, value: Box<dyn Any + Send>, watermark: u64) -> u64;
}

impl<T: Clone + Send + Sync + 'static> VarOps for VarInner<T> {
    fn id(&self) -> u64 {
        self.id
    }

    fn newest_ts(&self) -> u64 {
        self.stamp.load(Ordering::Acquire) >> 1
    }

    fn lock_commit(&self) {
        let mut spins = 0u32;
        loop {
            let s = self.stamp.load(Ordering::Relaxed);
            if s & LOCK_BIT == 0
                && self
                    .stamp
                    .compare_exchange_weak(s, s | LOCK_BIT, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                crate::sync::hint::spin_loop();
            } else {
                crate::sync::thread::yield_now();
            }
        }
    }

    fn unlock_commit(&self) {
        self.stamp.fetch_and(!LOCK_BIT, Ordering::Release);
    }

    fn install(&self, ts: u64, value: Box<dyn Any + Send>, watermark: u64) -> u64 {
        assert!(
            self.stamp.load(Ordering::Relaxed) & LOCK_BIT != 0,
            "install requires the commit lock"
        );
        let value = *value
            .downcast::<T>()
            .expect("pending write type matches its TVar");
        let mut chain = lock_versions(&self.chain);
        assert!(
            ts > chain.newest_ts,
            "install out of order: {ts} <= {}",
            chain.newest_ts
        );
        // Spill the superseded newest behind the inline slot, then
        // trim whatever this install made unreachable.
        let prev_ts = std::mem::replace(&mut chain.newest_ts, ts);
        let prev = std::mem::replace(&mut chain.newest, value);
        chain.older.push_back((prev_ts, prev));
        let dropped = if self.cap == DYNAMIC {
            chain.trim(watermark)
        } else {
            // Discard-oldest within the version cap.
            let mut dead = 0;
            while 1 + chain.older.len() > self.cap {
                chain.older.pop_front();
                dead += 1;
            }
            dead
        };
        if dropped > 0 {
            chain.truncated = true;
            self.retired.fetch_add(dropped, Ordering::Relaxed);
        }
        // Publish the new write stamp while still holding the lock:
        // validators that acquire this lock next see `ts` immediately.
        self.stamp.store((ts << 1) | LOCK_BIT, Ordering::Release);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installs a version through the full lock protocol, the way the
    /// commit path does, at an explicit GC watermark.
    fn install_at<T: Clone + Send + Sync + 'static>(
        v: &TVar<T>,
        ts: u64,
        value: T,
        wm: u64,
    ) -> u64 {
        v.inner.lock_commit();
        let dropped = v.inner.install(ts, Box::new(value), wm);
        v.inner.unlock_commit();
        dropped
    }

    /// Installs with the watermark pinned at zero (retain everything).
    fn install<T: Clone + Send + Sync + 'static>(v: &TVar<T>, ts: u64, value: T) {
        install_at(v, ts, value, 0);
    }

    #[test]
    fn ids_are_unique() {
        let a = TVar::new(0u32);
        let b = TVar::new(0u32);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn load_sees_newest() {
        let v = TVar::new(5u32);
        install(&v, 3, 9u32);
        assert_eq!(v.load(), 9);
    }

    #[test]
    fn read_at_respects_snapshot() {
        let v = TVar::new(1u32);
        install(&v, 10, 2u32);
        install(&v, 20, 3u32);
        assert_eq!(v.read_at(0), Ok(1));
        assert_eq!(v.read_at(15), Ok(2));
        assert_eq!(v.read_at(25), Ok(3));
    }

    #[test]
    fn dynamic_retention_keeps_everything_below_the_watermark() {
        // Watermark 0 simulates a live snapshot at the beginning of
        // time: nothing may be reclaimed.
        let v = TVar::new(0u32);
        for ts in 1..=64 {
            install(&v, ts, ts as u32);
        }
        assert_eq!(v.version_count(), 65);
        assert_eq!(v.retired_total(), 0);
        for snap in 0..=64u64 {
            assert_eq!(v.read_at(snap), Ok(snap as u32));
        }
    }

    #[test]
    fn epoch_gc_reclaims_versions_behind_the_watermark() {
        let v = TVar::new(0u32);
        for ts in 1..=10 {
            install(&v, ts, ts as u32);
        }
        // Watermark 7: versions 0..=6 are unreachable except version 7
        // does not exist... the newest at-or-below 7 is 7 itself, so
        // 0..=6 go, 7..=11 stay.
        let dropped = install_at(&v, 11, 11u32, 7);
        assert_eq!(dropped, 7);
        assert_eq!(v.retired_total(), 7);
        // Chain is now {7, 8, 9, 10, 11}.
        assert_eq!(v.version_count(), 5);
        assert_eq!(v.read_at(7), Ok(7));
        assert_eq!(v.read_at(9), Ok(9));
        assert_eq!(v.read_at(100), Ok(11));
        // Snapshots below the watermark are no longer servable — but
        // the epoch invariant says none can exist.
        assert_eq!(v.read_at(5), Err(Conflict::SnapshotTooOld));
    }

    #[test]
    fn gc_with_watermark_at_newest_keeps_only_newest() {
        let v = TVar::new(0u32);
        install(&v, 5, 1u32);
        install(&v, 10, 2u32);
        let dropped = install_at(&v, 15, 3u32, 15);
        assert_eq!(dropped, 3, "0, 5 and 10 all reclaimed");
        assert_eq!(v.version_count(), 1);
        assert_eq!(v.load(), 3);
    }

    #[test]
    fn bounded_history_evicts_oldest() {
        let v = TVar::with_history(0u32, 2);
        install(&v, 1, 1u32);
        install(&v, 2, 2u32);
        assert_eq!(v.version_count(), 2);
        assert_eq!(v.read_at(0), Err(Conflict::SnapshotTooOld));
        assert_eq!(v.read_at(1), Ok(1));
        assert_eq!(v.retired_total(), 1);
    }

    #[test]
    fn stamp_word_tracks_newest_install() {
        let v = TVar::new(0u32);
        assert_eq!(v.inner.newest_ts(), 0);
        install(&v, 7, 1u32);
        assert_eq!(v.inner.newest_ts(), 7);
        // The lock bit does not leak into the timestamp.
        v.inner.lock_commit();
        assert_eq!(v.inner.newest_ts(), 7);
        v.inner.unlock_commit();
        assert_eq!(v.inner.newest_ts(), 7);
    }

    #[test]
    fn readers_wait_out_an_in_flight_commit() {
        let v = TVar::new(0u32);
        v.inner.lock_commit();
        let reader = {
            let v = v.clone();
            std::thread::spawn(move || v.read_at(u64::MAX))
        };
        // The reader spins against the held lock; install the pending
        // version, then release — the reader must observe it.
        v.inner.install(5, Box::new(42u32), 0);
        std::thread::sleep(std::time::Duration::from_millis(10));
        v.inner.unlock_commit();
        assert_eq!(reader.join().unwrap(), Ok(42));
    }

    #[test]
    fn labels_survive() {
        let v = TVar::new_labeled("checking", 7u64);
        assert_eq!(v.label().as_deref(), Some("checking"));
        assert_eq!(v.load(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn zero_history_rejected() {
        TVar::with_history(0u8, 0);
    }

    #[test]
    #[should_panic(expected = "install out of order")]
    fn out_of_order_install_panics() {
        let v = TVar::new(0u32);
        install(&v, 5, 1u32);
        install(&v, 5, 2u32);
    }

    #[test]
    #[should_panic(expected = "requires the commit lock")]
    fn unlocked_install_panics() {
        let v = TVar::new(0u32);
        v.inner.install(5, Box::new(1u32), 0);
    }
}
