//! The STM runtime: isolation configuration, the retry loop, and
//! statistics.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(not(loom))]
use std::time::Duration;
use std::time::Instant;

use sitm_obs::{
    AtomicHistogram, ForensicsSnapshot, Histogram, History, MetricsRegistry, Observable,
    SharedForensics, SmallRng,
};

use crate::error::{Conflict, StmError};
use crate::txn::{HistorySink, IsolationLevel, Tx};

/// Commit/abort counters of an [`Stm`] runtime. Every field is a plain
/// atomic (including the retry distribution, an
/// [`AtomicHistogram`]), so recording from the commit path never takes
/// a lock and scales with committing threads.
#[derive(Debug, Default)]
pub struct StmStats {
    commits: AtomicU64,
    write_write_aborts: AtomicU64,
    snapshot_too_old_aborts: AtomicU64,
    read_validation_aborts: AtomicU64,
    /// Log2-bucketed distribution of aborted attempts per committed
    /// transaction (0 = first-try commit).
    retries: AtomicHistogram,
    /// Backoff waits performed (one per aborted attempt of
    /// [`Stm::atomically`]).
    backoffs: AtomicU64,
    /// Total host nanoseconds spent waiting in backoff.
    backoff_ns: AtomicU64,
    /// Versions reclaimed by epoch GC / capped eviction while this
    /// runtime's commits installed writes.
    versions_retired: AtomicU64,
    /// Largest observed distance from a commit timestamp down to the
    /// GC watermark it installed against — how much retention a
    /// long-lived snapshot forced at its worst.
    watermark_lag_max: AtomicU64,
}

impl StmStats {
    /// Committed transactions.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Aborts due to write-write conflicts.
    pub fn write_write_aborts(&self) -> u64 {
        self.write_write_aborts.load(Ordering::Relaxed)
    }

    /// Aborts because a snapshot outlived the bounded version history.
    pub fn snapshot_too_old_aborts(&self) -> u64 {
        self.snapshot_too_old_aborts.load(Ordering::Relaxed)
    }

    /// Aborts due to read/promotion validation (serializable mode and
    /// promoted reads).
    pub fn read_validation_aborts(&self) -> u64 {
        self.read_validation_aborts.load(Ordering::Relaxed)
    }

    /// All aborts.
    pub fn aborts(&self) -> u64 {
        self.write_write_aborts() + self.snapshot_too_old_aborts() + self.read_validation_aborts()
    }

    /// A copy of the retry distribution (aborted attempts per committed
    /// transaction, log2 buckets).
    pub fn retry_histogram(&self) -> Histogram {
        self.retries.snapshot()
    }

    /// Backoff waits performed (one per aborted [`Stm::atomically`]
    /// attempt).
    pub fn backoffs(&self) -> u64 {
        self.backoffs.load(Ordering::Relaxed)
    }

    /// Total host nanoseconds spent waiting in contention backoff.
    pub fn backoff_ns(&self) -> u64 {
        self.backoff_ns.load(Ordering::Relaxed)
    }

    /// Versions reclaimed (epoch GC on dynamically retained `TVar`s,
    /// discard-oldest eviction on capped ones) by this runtime's
    /// commits.
    pub fn versions_retired(&self) -> u64 {
        self.versions_retired.load(Ordering::Relaxed)
    }

    /// Largest observed gap between a commit timestamp and the GC
    /// watermark it installed against, in clock units — the retention
    /// overhang long-lived snapshots imposed at their worst. Zero until
    /// the first write commit.
    pub fn watermark_lag_max(&self) -> u64 {
        self.watermark_lag_max.load(Ordering::Relaxed)
    }

    fn count(&self, conflict: Conflict) {
        let counter = match conflict {
            Conflict::WriteWrite => &self.write_write_aborts,
            Conflict::SnapshotTooOld => &self.snapshot_too_old_aborts,
            Conflict::ReadValidation => &self.read_validation_aborts,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Observable for StmStats {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.count("stm.commits", self.commits());
        reg.count("stm.aborts.write_write", self.write_write_aborts());
        reg.count(
            "stm.aborts.snapshot_too_old",
            self.snapshot_too_old_aborts(),
        );
        reg.count("stm.aborts.read_validation", self.read_validation_aborts());
        reg.count("stm.backoffs", self.backoffs());
        reg.count("stm.backoff_ns", self.backoff_ns());
        reg.count("stm.versions_retired", self.versions_retired());
        reg.gauge("stm.watermark_lag_max", self.watermark_lag_max() as f64);
        reg.merge_histogram("stm.retries", &self.retries.snapshot());
    }
}

/// The software snapshot-isolation STM runtime.
///
/// An `Stm` value holds the isolation level, abort statistics and the
/// optional history and forensics recorders; the version clock is
/// process-global, so [`crate::TVar`]s may be shared freely between
/// runtimes (e.g. a snapshot-isolated fast path and a serializable
/// administrative path over the same data, the paper's "for all or a
/// subset of transactions").
///
/// # Examples
///
/// Concurrent bank transfers with a consistent read-only audit:
///
/// ```
/// use sitm_stm::{Stm, TVar};
/// use std::sync::Arc;
///
/// let stm = Arc::new(Stm::snapshot());
/// let a = TVar::new(50i64);
/// let b = TVar::new(50i64);
///
/// let total = stm.atomically(|tx| Ok(tx.read(&a)? + tx.read(&b)?));
/// assert_eq!(total, 100);
/// ```
pub struct Stm {
    level: IsolationLevel,
    stats: StmStats,
    history: Option<Arc<HistorySink>>,
    forensics: Option<Arc<SharedForensics>>,
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("level", &self.level)
            .field("stats", &self.stats)
            .field("history", &self.history.is_some())
            .field("forensics", &self.forensics.is_some())
            .finish()
    }
}

impl Stm {
    /// A runtime with plain snapshot isolation (the SI-TM model: aborts
    /// only on write-write conflicts; subject to write skew).
    pub fn snapshot() -> Self {
        Self::with_level(IsolationLevel::Snapshot)
    }

    /// A runtime enforcing serializability via commit-time read
    /// validation.
    pub fn serializable() -> Self {
        Self::with_level(IsolationLevel::Serializable)
    }

    /// A runtime with an explicit isolation level.
    pub fn with_level(level: IsolationLevel) -> Self {
        Stm {
            level,
            stats: StmStats::default(),
            history: None,
            forensics: None,
        }
    }

    /// Turns on transaction-history recording (the `sitm.txn.v1`
    /// record stream consumed by the `sitm-check` oracle and the
    /// `sitm-skew` write-skew tool): every finished attempt — committed
    /// or aborted — is appended to a bounded in-memory [`History`] of
    /// at most `capacity` records, and the labels of labelled `TVar`s
    /// go into its label table. Returns `self` for builder-style use.
    pub fn with_history(mut self, capacity: usize) -> Self {
        self.history = Some(Arc::new(HistorySink::with_capacity(capacity)));
        self
    }

    /// A snapshot of the recorded transaction history, or `None` when
    /// recording was never enabled via [`Stm::with_history`].
    pub fn history(&self) -> Option<History> {
        self.history.as_ref().map(|sink| sink.snapshot())
    }

    /// Turns on abort forensics: every abort is attributed to a
    /// [`sitm_obs::ForensicCause`] carrying the conflicting `TVar` id
    /// and the winning commit timestamp. The recorder is lock-free
    /// (per-thread sharded counters) and compiles out to a no-op unless
    /// the `trace` feature is enabled. Returns `self` for builder-style
    /// use.
    pub fn with_forensics(mut self) -> Self {
        self.forensics = Some(Arc::new(SharedForensics::new()));
        self
    }

    /// A snapshot of the forensic abort attribution, or `None` when
    /// forensics were never enabled via [`Stm::with_forensics`]. With
    /// the `trace` feature disabled the snapshot is present but empty.
    pub fn forensics(&self) -> Option<ForensicsSnapshot> {
        self.forensics.as_ref().map(|f| f.snapshot())
    }

    /// The configured isolation level.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// Commit/abort counters.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// Exports the runtime's counters and retry histogram into `reg`
    /// under the `stm.` prefix.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        Observable::export_metrics(&self.stats, reg);
    }

    /// Begins an *unmanaged* transaction on this runtime: the caller
    /// owns the returned [`Tx`], may hold it across arbitrary program
    /// points (e.g. between requests of a network session), and must
    /// finish it with [`Stm::commit`] or [`Stm::abort`]. Conflicts are
    /// **not** retried automatically — that is the caller's policy.
    ///
    /// [`Stm::atomically`] remains the right interface for closed
    /// transaction bodies; this one exists for drivers whose
    /// transaction boundaries arrive from outside (wire protocols,
    /// interactive sessions, custom retry loops).
    ///
    /// The transaction pins its snapshot in the epoch registry for as
    /// long as it lives (dropping it releases the slot), so a caller
    /// that holds a `Tx` indefinitely also holds version retention
    /// back — exactly as any long-running reader would.
    ///
    /// # Examples
    ///
    /// ```
    /// use sitm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::snapshot();
    /// let v = TVar::new(1u64);
    /// let mut tx = stm.begin();
    /// let cur = tx.read(&v).unwrap();
    /// tx.write(&v, cur + 1);
    /// let ts = stm.commit(tx).expect("no competitor");
    /// assert!(ts.is_some(), "update commits take a timestamp");
    /// assert_eq!(v.load(), 2);
    /// ```
    pub fn begin(&self) -> Tx {
        Tx::begin_recorded(self.level, self.history.clone(), self.forensics.clone())
    }

    /// Attempts to commit a transaction obtained from [`Stm::begin`],
    /// returning its commit timestamp (`None` for read-only /
    /// promotion-only commits, which publish nothing and take no clock
    /// tick). Statistics are counted exactly as for
    /// [`Stm::atomically`]-managed transactions.
    ///
    /// # Errors
    ///
    /// Returns the [`Conflict`] that aborted the attempt; the caller
    /// decides whether to retry with a fresh [`Stm::begin`].
    pub fn commit(&self, tx: Tx) -> Result<Option<u64>, Conflict> {
        match tx.commit() {
            Ok(receipt) => {
                self.stats.commits.fetch_add(1, Ordering::Relaxed);
                self.absorb_receipt(&receipt);
                Ok(receipt.end)
            }
            Err(conflict) => {
                self.stats.count(conflict);
                Err(conflict)
            }
        }
    }

    /// Abandons a transaction obtained from [`Stm::begin`] without
    /// committing: buffered writes are discarded, and when history
    /// recording is on the attempt is recorded as `aborted:explicit`
    /// (so oracle-certified histories account for every attempt a
    /// client deliberately rolled back). Dropping a `Tx` instead is
    /// also safe — it releases every resource — but leaves no history
    /// record.
    pub fn abort(&self, tx: Tx) {
        tx.record_explicit_abort();
    }

    /// Folds a commit receipt's GC accounting into the runtime stats.
    fn absorb_receipt(&self, receipt: &crate::txn::CommitReceipt) {
        if receipt.versions_retired > 0 {
            self.stats
                .versions_retired
                .fetch_add(receipt.versions_retired, Ordering::Relaxed);
        }
        if let Some(lag) = receipt.watermark_lag {
            self.stats
                .watermark_lag_max
                .fetch_max(lag, Ordering::Relaxed);
        }
    }

    /// Runs `body` transactionally, retrying on conflicts until it
    /// commits, and returns its result.
    ///
    /// The body may run multiple times; side effects other than
    /// transactional reads/writes must be idempotent. Retries use
    /// capped exponential backoff — spin, then yield, then park — with
    /// deterministic per-thread jitter; the attempts distribution and
    /// total wait time are exported through [`StmStats`].
    ///
    /// # Examples
    ///
    /// Each retry runs the body again on a *fresh* snapshot, so a body
    /// that conflicts (here: forced with an explicit [`Conflict`]
    /// through [`Stm::try_atomically`], which surfaces the conflict
    /// instead of retrying) simply reruns until it commits:
    ///
    /// ```
    /// use sitm_stm::{Conflict, Stm, TVar};
    ///
    /// let stm = Stm::snapshot();
    /// let v = TVar::new(0u64);
    ///
    /// // try_atomically: one attempt, the conflict is returned...
    /// let aborted = stm.try_atomically(&mut |tx| {
    ///     let cur = tx.read(&v)?;
    ///     tx.write(&v, cur + 1);
    ///     // A competitor slips in a commit before ours:
    ///     stm.atomically(|t| {
    ///         let c = t.read(&v)?;
    ///         t.write(&v, c + 10);
    ///         Ok(())
    ///     });
    ///     Ok(())
    /// });
    /// assert_eq!(aborted, Err(Conflict::WriteWrite));
    ///
    /// // ...while atomically would have retried on a fresh snapshot
    /// // (observing the competitor's write) and committed:
    /// stm.atomically(|tx| {
    ///     let cur = tx.read(&v)?;
    ///     tx.write(&v, cur + 1);
    ///     Ok(())
    /// });
    /// assert_eq!(v.load(), 11);
    /// ```
    pub fn atomically<T>(&self, mut body: impl FnMut(&mut Tx) -> Result<T, StmError>) -> T {
        let mut attempt = 0u32;
        loop {
            match self.try_atomically(&mut body) {
                Ok(value) => {
                    self.stats.retries.record(attempt as u64);
                    return value;
                }
                Err(conflict) => {
                    let _ = conflict;
                    let waited = Instant::now();
                    BACKOFF_RNG.with(|rng| backoff(attempt, &mut rng.borrow_mut()));
                    self.stats.backoffs.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .backoff_ns
                        .fetch_add(waited.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// Runs `body` transactionally once, returning the conflict instead
    /// of retrying. Useful for tests and for callers with their own
    /// retry policy.
    ///
    /// # Errors
    ///
    /// Returns the [`Conflict`] that aborted the attempt.
    pub fn try_atomically<T>(
        &self,
        body: &mut impl FnMut(&mut Tx) -> Result<T, StmError>,
    ) -> Result<T, Conflict> {
        let mut tx = Tx::begin_recorded(self.level, self.history.clone(), self.forensics.clone());
        match body(&mut tx) {
            Ok(value) => match tx.commit() {
                Ok(receipt) => {
                    self.stats.commits.fetch_add(1, Ordering::Relaxed);
                    self.absorb_receipt(&receipt);
                    Ok(value)
                }
                Err(conflict) => {
                    self.stats.count(conflict);
                    Err(conflict)
                }
            },
            Err(StmError::Conflict(conflict)) => {
                self.stats.count(conflict);
                tx.record_failure(conflict);
                Err(conflict)
            }
        }
    }
}

/// Seeds for the per-thread backoff jitter generators: each thread
/// draws one seed from this counter at first use, so backoff sequences
/// are deterministic per thread yet decorrelated across threads.
static BACKOFF_SEED: AtomicU64 = AtomicU64::new(0x51_7A);

thread_local! {
    static BACKOFF_RNG: RefCell<SmallRng> = RefCell::new(SmallRng::seed_from_u64(
        BACKOFF_SEED.fetch_add(1, Ordering::Relaxed),
    ));
}

/// Attempts that spin on the CPU (cheapest; conflicts usually clear in
/// nanoseconds).
#[cfg(not(loom))]
const SPIN_ATTEMPTS: u32 = 4;
/// Attempts (beyond the spin tier) that yield to the scheduler.
#[cfg(not(loom))]
const YIELD_ATTEMPTS: u32 = 8;
/// Ceiling for one parked wait — the "bounded" in bounded exponential
/// backoff. Keeps worst-case added latency per retry far below a
/// scheduler quantum while still draining convoys.
#[cfg(not(loom))]
const PARK_CAP_MICROS: u64 = 512;

/// Model-checker backoff: real spinning or parking would only stall the
/// scheduler token without exploring new interleavings, so every
/// aborted attempt collapses to one modeled yield (a single demoted
/// switch point — see `sitm-loom`'s yield handling).
#[cfg(loom)]
fn backoff(_attempt: u32, _rng: &mut SmallRng) {
    crate::sync::thread::yield_now();
}

/// Capped exponential backoff with jitter, escalating through three
/// tiers as an `atomically` transaction keeps aborting:
///
/// * attempts 0–3: busy-spin an exponentially growing, jittered
///   iteration count (nominal 8 << attempt, ±50%);
/// * attempts 4–7: yield to the scheduler a jittered 1..=2^k times;
/// * attempts ≥ 8: park the thread for an exponentially growing
///   duration, jittered within [cap/2, cap] and capped at
///   [`PARK_CAP_MICROS`], so heavily contended transactions stop
///   burning cycles without ever sleeping unboundedly.
///
/// The jitter decorrelates competing threads (the paper's §4.3
/// randomized-backoff point: deterministic equal backoffs re-collide
/// indefinitely) while staying reproducible per thread thanks to the
/// per-thread seeding of [`BACKOFF_RNG`].
#[cfg(not(loom))]
fn backoff(attempt: u32, rng: &mut SmallRng) {
    if attempt < SPIN_ATTEMPTS {
        let base = 8u64 << attempt;
        for _ in 0..rng.gen_range(base - base / 2..=base + base / 2) {
            std::hint::spin_loop();
        }
    } else if attempt < YIELD_ATTEMPTS {
        for _ in 0..rng.gen_range(1..=1u64 << (attempt - SPIN_ATTEMPTS + 1)) {
            std::thread::yield_now();
        }
    } else {
        let exp = (attempt - YIELD_ATTEMPTS).min(9);
        let cap = (1u64 << exp).min(PARK_CAP_MICROS);
        let micros = rng.gen_range(cap - cap / 2..=cap).max(1);
        std::thread::park_timeout(Duration::from_micros(micros));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counter_increments_are_not_lost() {
        let stm = Arc::new(Stm::snapshot());
        let counter = TVar::new(0u64);
        let threads = 8;
        let per_thread = 200;
        thread::scope(|s| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        stm.atomically(|tx| {
                            let v = tx.read(&counter)?;
                            tx.write(&counter, v + 1);
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(), threads * per_thread);
        assert_eq!(stm.stats().commits(), threads * per_thread);
    }

    #[test]
    fn bank_invariant_under_serializable() {
        // The Listing 1 withdraw scenario: under Serializable the
        // combined balance can never go negative.
        let stm = Arc::new(Stm::serializable());
        let checking = TVar::new(60i64);
        let saving = TVar::new(60i64);
        thread::scope(|s| {
            for from_checking in [true, false] {
                let stm = Arc::clone(&stm);
                let checking = checking.clone();
                let saving = saving.clone();
                s.spawn(move || {
                    stm.atomically(|tx| {
                        let c = tx.read(&checking)?;
                        let v = tx.read(&saving)?;
                        if c + v > 100 {
                            if from_checking {
                                tx.write(&checking, c - 100);
                            } else {
                                tx.write(&saving, v - 100);
                            }
                        }
                        Ok(())
                    });
                });
            }
        });
        let total = checking.load() + saving.load();
        assert!(total >= 0, "write skew prevented; total = {total}");
    }

    #[test]
    fn snapshot_mode_admits_write_skew() {
        // The same scenario under plain SI must (in this deterministic
        // single-threaded schedule) exhibit the anomaly — demonstrating
        // why the skew tooling exists.
        let stm = Stm::snapshot();
        let checking = TVar::new(60i64);
        let saving = TVar::new(60i64);
        // Interleave two withdrawals by hand through try_atomically
        // bodies that stop halfway... simpler: run both reads before
        // either write using two Tx values via the internal API is not
        // public; emulate with two sequential atomically calls whose
        // snapshots overlap via a held transaction.
        use crate::txn::Tx;
        let mut t1 = Tx::begin(IsolationLevel::Snapshot);
        let mut t2 = Tx::begin(IsolationLevel::Snapshot);
        let (c1, s1) = (t1.read(&checking).unwrap(), t1.read(&saving).unwrap());
        let (c2, s2) = (t2.read(&checking).unwrap(), t2.read(&saving).unwrap());
        assert!(c1 + s1 > 100 && c2 + s2 > 100);
        t1.write(&checking, c1 - 100);
        t2.write(&saving, s2 - 100);
        t1.commit().unwrap();
        t2.commit().unwrap(); // disjoint write sets: SI commits both
        assert!(
            checking.load() + saving.load() < 0,
            "write skew observed under plain SI"
        );
        let _ = stm;
    }

    #[test]
    fn promotion_fixes_the_skew() {
        let checking = TVar::new(60i64);
        let saving = TVar::new(60i64);
        use crate::txn::Tx;
        let mut t1 = Tx::begin(IsolationLevel::Snapshot);
        let mut t2 = Tx::begin(IsolationLevel::Snapshot);
        let (c1, s1) = (t1.read(&checking).unwrap(), t1.read(&saving).unwrap());
        let (c2, s2) = (t2.read(&checking).unwrap(), t2.read(&saving).unwrap());
        t1.promote(&saving); // protect the invariant's other half
        t2.promote(&checking);
        t1.write(&checking, c1 - 100);
        t2.write(&saving, s2 - 100);
        assert!(c1 + s1 > 100 && c2 + s2 > 100);
        t1.commit().unwrap();
        assert!(t2.commit().is_err(), "promotion forces the conflict");
        assert!(checking.load() + saving.load() >= 0);
    }

    #[test]
    fn long_readers_see_consistent_snapshots_under_churn() {
        // Invariant: a+b is always 100 at every commit; a long reader
        // must never observe a violated invariant.
        let stm = Arc::new(Stm::snapshot());
        let a = TVar::with_history(50i64, 64);
        let b = TVar::with_history(50i64, 64);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        thread::scope(|s| {
            for _ in 0..2 {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut k = 1;
                    while !stop.load(Ordering::Relaxed) {
                        stm.atomically(|tx| {
                            let va = tx.read(&a)?;
                            tx.write(&a, va - k);
                            let vb = tx.read(&b)?;
                            tx.write(&b, vb + k);
                            Ok(())
                        });
                        k = -k;
                    }
                });
            }
            let stm_r = Arc::clone(&stm);
            let (ar, br) = (a.clone(), b.clone());
            let stop_r = Arc::clone(&stop);
            s.spawn(move || {
                for _ in 0..500 {
                    let sum = stm_r.atomically(|tx| Ok(tx.read(&ar)? + tx.read(&br)?));
                    assert_eq!(sum, 100, "snapshot reads are consistent");
                }
                stop_r.store(true, Ordering::Relaxed);
            });
        });
    }

    #[test]
    fn stats_count_conflicts() {
        let stm = Stm::snapshot();
        let v = TVar::new(0u32);
        let mut t1 = crate::txn::Tx::begin(IsolationLevel::Snapshot);
        t1.write(&v, 1);
        stm.atomically(|tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 10);
            Ok(())
        });
        assert!(t1.commit().is_err());
        assert_eq!(stm.stats().commits(), 1);
    }

    #[cfg(not(loom))]
    #[test]
    fn backoff_is_capped_at_every_attempt() {
        // The doc promise is *bounded* exponential backoff: arbitrarily
        // high attempt numbers must produce short, capped waits instead
        // of growing without limit (or collapsing to a bare yield).
        let mut rng = SmallRng::seed_from_u64(7);
        let start = Instant::now();
        for attempt in [0, SPIN_ATTEMPTS, YIELD_ATTEMPTS, 20, 63, u32::MAX] {
            backoff(attempt, &mut rng);
        }
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "six backoffs at a {PARK_CAP_MICROS}us cap must finish quickly"
        );
    }

    #[test]
    fn contention_stats_track_backoffs() {
        let stm = Arc::new(Stm::snapshot());
        let counter = TVar::new(0u64);
        thread::scope(|s| {
            for _ in 0..4 {
                let stm = Arc::clone(&stm);
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        stm.atomically(|tx| {
                            let v = tx.read(&counter)?;
                            tx.write(&counter, v + 1);
                            Ok(())
                        });
                    }
                });
            }
        });
        let stats = stm.stats();
        assert_eq!(
            stats.backoffs(),
            stats.aborts(),
            "every aborted attempt waits exactly once"
        );
        assert_eq!(stats.retry_histogram().total(), stats.commits());
        let mut reg = sitm_obs::MetricsRegistry::new();
        stm.export_metrics(&mut reg);
        assert_eq!(reg.counter("stm.backoffs"), stats.backoffs());
        assert_eq!(reg.counter("stm.backoff_ns"), stats.backoff_ns());
    }

    #[test]
    fn forensics_are_off_by_default_and_empty_when_on() {
        let stm = Stm::snapshot();
        stm.atomically(|_tx| Ok(()));
        assert!(stm.forensics().is_none());

        let stm = Stm::snapshot().with_forensics();
        stm.atomically(|_tx| Ok(()));
        let snap = stm.forensics().expect("enabled");
        assert_eq!(snap.total, 0, "no aborts, nothing recorded");
        assert!((snap.attribution_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn forensics_attribute_every_conflict_kind() {
        use sitm_obs::ForensicCause;
        let stm = Arc::new(Stm::serializable().with_forensics());
        let v = TVar::new(0u64);
        let other = TVar::new(0u64);

        // Write-write: a competitor commits between our read and commit.
        let result = stm.try_atomically(&mut |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1);
            stm.atomically(|t| {
                let c = t.read(&v)?;
                t.write(&v, c + 10);
                Ok(())
            });
            Ok(())
        });
        assert_eq!(result, Err(Conflict::WriteWrite));

        // Read validation: serializable reader invalidated by a writer.
        let result = stm.try_atomically(&mut |tx| {
            let _ = tx.read(&v)?;
            tx.write(&other, 1);
            stm.atomically(|t| {
                let c = t.read(&v)?;
                t.write(&v, c + 1);
                Ok(())
            });
            Ok(())
        });
        assert_eq!(result, Err(Conflict::ReadValidation));

        // Snapshot-too-old: the only reachable version is evicted.
        let bounded = TVar::with_history(0u64, 1);
        let result = stm.try_atomically(&mut |tx| {
            stm.atomically(|t| {
                t.write(&bounded, 1);
                Ok(())
            });
            tx.read(&bounded)?;
            Ok(())
        });
        assert_eq!(result, Err(Conflict::SnapshotTooOld));

        let snap = stm.forensics().expect("enabled");
        assert_eq!(snap.count(ForensicCause::WriteWriteFcw), 1);
        assert_eq!(snap.count(ForensicCause::ReadValidation), 1);
        assert_eq!(snap.count(ForensicCause::CapacityEviction), 1);
        assert_eq!(snap.total, stm.stats().aborts());
        assert!((snap.attribution_rate() - 1.0).abs() < f64::EPSILON);
        assert!(
            snap.hot_lines.iter().any(|&(line, _)| line == v.id()),
            "the contended TVar shows up in the hot-line sketch"
        );
    }

    #[test]
    fn history_is_off_by_default() {
        let stm = Stm::snapshot();
        stm.atomically(|_tx| Ok(()));
        assert!(stm.history().is_none());
    }

    #[test]
    fn history_records_attempts_with_observed_versions() {
        use sitm_obs::OpKind;
        let stm = Stm::snapshot().with_history(1024);
        let v = TVar::new(0u64);
        stm.atomically(|tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1);
            Ok(())
        });
        let _ = stm.atomically(|tx| tx.read(&v));
        let h = stm.history().expect("recording enabled");
        assert_eq!(h.len(), 2);
        assert_eq!(h.dropped(), 0);

        let rmw = &h.records()[0];
        assert!(rmw.committed());
        let begin = rmw.begin_ts.expect("snapshot timestamp recorded");
        let end = rmw.commit_ts.expect("writer reserves a commit timestamp");
        assert!(end > begin);
        assert!(matches!(
            rmw.ops[0].kind,
            OpKind::Read {
                observed: Some(0),
                ..
            }
        ));
        assert!(matches!(rmw.ops[1].kind, OpKind::Write { .. }));
        assert_eq!(rmw.ops[0].kind.line(), rmw.ops[1].kind.line());
        assert!(rmw.begin_seq < rmw.ops[0].seq && rmw.ops[1].seq < rmw.end_seq);

        let reader = &h.records()[1];
        assert!(reader.committed());
        assert_eq!(
            reader.commit_ts, None,
            "read-only commits take no clock tick"
        );
        // The read observed exactly the version the writer installed.
        assert!(matches!(
            reader.ops[0].kind,
            OpKind::Read { observed, .. } if observed == Some(end)
        ));
    }

    #[test]
    fn history_captures_labels_of_labelled_variables() {
        let stm = Stm::snapshot().with_history(1024);
        let named = TVar::new_labeled("checking", 0u64);
        let anon = TVar::new(0u64);
        stm.atomically(|tx| {
            let cur = tx.read(&named)? + tx.read(&anon)?;
            tx.write(&named, cur + 1);
            tx.promote(&anon);
            Ok(())
        });
        let h = stm.history().expect("recording enabled");
        assert_eq!(h.label(named.id()), Some("checking"));
        assert_eq!(
            h.label(anon.id()),
            None,
            "unlabelled variables stay unnamed"
        );
    }

    #[test]
    fn history_labels_first_committer_wins_aborts() {
        use sitm_obs::TxnOutcome;
        let stm = Stm::snapshot().with_history(1024);
        let v = TVar::new(0u64);
        let result = stm.try_atomically(&mut |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1);
            // A competitor commits a newer version before our commit:
            // first-committer-wins must abort us.
            stm.atomically(|t| {
                let c = t.read(&v)?;
                t.write(&v, c + 10);
                Ok(())
            });
            Ok(())
        });
        assert_eq!(result, Err(Conflict::WriteWrite));
        let h = stm.history().unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.records()[0].outcome, TxnOutcome::Committed);
        assert_eq!(h.records()[1].outcome, TxnOutcome::Aborted("write-write"));
    }

    #[test]
    fn history_captures_body_conflicts() {
        use sitm_obs::TxnOutcome;
        let stm = Stm::snapshot().with_history(64);
        let v = TVar::with_history(0u64, 1);
        let result = stm.try_atomically(&mut |tx| {
            // Evict the only version our snapshot could read (capacity
            // 1: the competitor's install discards the initial image).
            stm.atomically(|t| {
                t.write(&v, 1);
                Ok(())
            });
            tx.read(&v)?;
            Ok(())
        });
        assert_eq!(result, Err(Conflict::SnapshotTooOld));
        let h = stm.history().unwrap();
        let last = h.records().last().unwrap();
        assert_eq!(last.outcome, TxnOutcome::Aborted("snapshot-too-old"));
        assert_eq!(last.commit_ts, None);
    }

    #[test]
    fn export_metrics_includes_counters_and_retry_histogram() {
        let stm = Stm::snapshot();
        let v = TVar::new(0u64);
        for _ in 0..3 {
            stm.atomically(|tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1);
                Ok(())
            });
        }
        let mut reg = sitm_obs::MetricsRegistry::new();
        stm.export_metrics(&mut reg);
        assert_eq!(reg.counter("stm.commits"), 3);
        let retries = reg.histogram("stm.retries").expect("recorded");
        assert_eq!(retries.total(), 3, "one sample per committed txn");
        assert_eq!(stm.stats().retry_histogram().total(), 3);
    }
}
