//! The epoch layer: a sharded commit clock and a live-snapshot
//! registry whose watermark drives version garbage collection.
//!
//! Two process-global structures live here (DESIGN.md §14):
//!
//! * **The sharded commit clock.** Instead of one fetch-add atomic that
//!   every committing thread serializes on, the clock is [`SHARDS`]
//!   cache-line-padded counters. A commit ticks only its own shard
//!   (chosen by thread index), and the timestamps shard `s` issues are
//!   exactly the values congruent to `s` modulo [`SHARDS`] — so every
//!   timestamp in the process is globally unique without any
//!   cross-shard coordination. Reading the clock ([`clock_now`]) takes
//!   the maximum over all shards, which is a valid snapshot point: it
//!   is at least as new as every commit that finished before the scan
//!   began. A committing transaction must floor its tick above a fold
//!   of *all* shards taken while its commit locks are held (see
//!   [`commit_tick`]) — ticking only its own shard would let a commit
//!   publish an end timestamp below an already-issued snapshot and
//!   tear that snapshot's view of the write set.
//!
//! * **The live-snapshot registry.** Every transaction registers its
//!   begin timestamp in a cache-padded per-thread slot for the
//!   duration of the transaction (an [`SnapshotGuard`] held by the
//!   `Tx`). A periodic scan folds the minimum registered begin
//!   timestamp into the monotone **watermark** — a lower bound on the
//!   begin timestamp of every transaction alive now or starting later.
//!   Version GC in `tvar.rs` trims exactly the versions no snapshot at
//!   or above the watermark can ever read.
//!
//! * **The retained-spill registry.** Install-time GC only reaches
//!   variables that keep being written. A commit whose install leaves
//!   a dynamic chain holding spill puts that variable, once, on a
//!   [`SHARDS`]-way registry (shard chosen by thread index, like the
//!   clock), and [`sweep_retained`] trims exactly the registered
//!   variables against one fresh watermark — so a sweep costs
//!   O(variables holding spill), not O(variables).
//!
//! # The watermark invariant
//!
//! `watermark() <= begin_ts` for every live and every future
//! transaction. The ordering argument (all operations here are
//! `SeqCst`, so they occur in one total order):
//!
//! 1. A beginning transaction *first* publishes a conservative
//!    timestamp into its slot (the last clock value its thread
//!    observed, which is `<=` the begin timestamp it is about to draw)
//!    and *then* reads the clock shards to form its begin timestamp.
//! 2. A watermark scan *first* reads the clock shards (call the
//!    maximum `bound`) and *then* reads the slots, folding `min` over
//!    `bound` and every non-idle slot value.
//!
//! For any transaction T and any scan C, either C's slot read precedes
//! T's slot publish in the total order — then T's later clock reads see
//! every shard value C saw, so `begin_ts(T) >= bound(C) >= result(C)`
//! — or C observes T's published value, which is `<=` `begin_ts(T)` by
//! construction. Either way the scan result is `<= begin_ts(T)`, and
//! since the watermark only moves up to a scan result (`fetch_max`),
//! the invariant holds for every transaction. §14 turns this sketch
//! into the GC safety argument.

use std::cell::Cell;
use std::sync::{Arc, Weak};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use crate::sync::Mutex;
use crate::tvar::lock_versions as lock;
use crate::tvar::VarOps;

/// Number of commit-clock shards. Timestamps issued by shard `s` are
/// congruent to `s` modulo `SHARDS`, so ticks on different shards can
/// never collide. 16 shards give 16 independent cache lines of commit
/// bandwidth — past the thread counts where the old single fetch-add
/// clock saturated. Model builds shrink to 2 so two model threads
/// always land on distinct shards (the smallest model in which a
/// trailing shard can exist at all).
pub(crate) const SHARDS: usize = if cfg!(loom) { 2 } else { 16 };

/// Registry slots available before thread registration falls back to
/// the mutex-protected overflow table. One slot is claimed per OS
/// thread (and recycled on thread exit), so only processes running
/// more than this many concurrent transactional threads pay for the
/// fallback. Model builds shrink to 2 so a three-thread model
/// exercises the slot and overflow paths in one execution.
pub(crate) const SLOT_COUNT: usize = if cfg!(loom) { 2 } else { 256 };

/// Slot value meaning "no transaction live here". `u64::MAX` so an
/// idle slot is transparent to the `min` fold of a watermark scan.
const IDLE: u64 = u64::MAX;

/// How far (in clock units) the cached watermark may trail the clock
/// before a commit triggers a rescan. Clock values advance by about
/// [`SHARDS`] per commit, so this is roughly a rescan every 64 commits
/// — cheap amortization with a bounded retention overhang. Model
/// builds rescan almost every commit so GC interleavings are in the
/// explored space.
const REFRESH_TICKS: u64 = if cfg!(loom) { 4 } else { 1024 };

/// One commit-clock shard, alone on its cache line so ticks on
/// different shards never false-share.
#[repr(align(128))]
struct ClockShard(AtomicU64);

static CLOCK: [ClockShard; SHARDS] = [const { ClockShard(AtomicU64::new(0)) }; SHARDS];

/// One live-snapshot slot, alone on its cache line. `begin` holds the
/// (conservative) begin timestamp of the slot-owning thread's
/// outermost live transaction, or [`IDLE`]. `depth` counts the
/// thread's live transactions so nested/overlapping `Tx` values on one
/// thread share the slot (the outermost begin timestamp is a lower
/// bound for all of them).
#[repr(align(128))]
struct Slot {
    begin: AtomicU64,
    depth: AtomicU64,
}

static SLOTS: [Slot; SLOT_COUNT] = [const {
    Slot {
        begin: AtomicU64::new(IDLE),
        depth: AtomicU64::new(0),
    }
}; SLOT_COUNT];

/// High-water mark of claimed slots: watermark scans only walk this
/// prefix.
static SLOTS_CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// Slot indices returned by exited threads, recycled before
/// [`SLOTS_CLAIMED`] grows.
static FREE_SLOTS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// Overflow registry for threads beyond [`SLOT_COUNT`]: one entry per
/// *transaction* (value = begin timestamp, [`IDLE`] = free). The mutex
/// itself provides the publish/scan ordering the slot path gets from
/// `SeqCst`.
static OVERFLOW: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// The live-snapshot watermark: a monotone lower bound on every live
/// and future begin timestamp. Only ever raised, via `fetch_max` of
/// scan results.
static WATERMARK: AtomicU64 = AtomicU64::new(0);

/// Clock value at the start of the last watermark scan, for the
/// [`REFRESH_TICKS`] staleness check.
static WATERMARK_STAMP: AtomicU64 = AtomicU64::new(0);

/// One shard of the retained-spill registry, alone on its cache line.
/// Entries are weak: the registry never keeps a dropped variable
/// alive, even in a process that never sweeps.
#[repr(align(128))]
struct SpillShard(Mutex<Vec<Weak<dyn VarOps>>>);

/// The retained-spill registry: every dynamic variable whose chain
/// holds spill, each exactly once (the chain's `registered` flag,
/// kept under the chain mutex, dedups). A committing thread pushes
/// onto its own shard, so registration takes no process-wide lock.
static SPILL: [SpillShard; SHARDS] = [const { SpillShard(Mutex::new(Vec::new())) }; SHARDS];

/// Dense per-thread indices: each OS thread draws one on first
/// transactional use. Doubles as the commit-clock shard selector and
/// as the thread id in history records and forensics.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, SeqCst);
    /// The registry slot this thread owns for its lifetime, if one was
    /// available.
    static THREAD_SLOT: SlotHandle = SlotHandle::claim();
    /// The newest clock value this thread has observed — the
    /// conservative timestamp published ahead of reading the clock on
    /// transaction begin (step 1 of the watermark invariant).
    static LAST_SEEN: Cell<u64> = const { Cell::new(0) };
}

/// This thread's dense index (stable for the thread's lifetime).
pub(crate) fn thread_index() -> usize {
    THREAD_INDEX.with(|&i| i)
}

/// A snapshot point: at least as new as every commit that completed
/// before this call started.
pub(crate) fn clock_now() -> u64 {
    let mut now = 0;
    for shard in &CLOCK {
        now = now.max(shard.0.load(SeqCst));
    }
    now
}

/// Draws a commit timestamp from this thread's clock shard:
/// the smallest unissued value of the shard's residue class strictly
/// greater than both the shard's current value and `at_least`.
///
/// The commit path passes `at_least = max(snapshot, clock_now())`,
/// with the [`clock_now`] fold taken **while holding every commit
/// lock**. The snapshot half guarantees `end > begin` per transaction;
/// the fold half guarantees atomic visibility of the whole write set:
/// no shard holds a value `>= end` until this tick, so a reader whose
/// snapshot covers `end` must have folded the clock after the
/// committer did — after the locks were taken — and waits out the
/// complete install on every written variable. Flooring at the
/// snapshot alone is not enough: a shard that trails the others could
/// issue an `end` below an already-issued snapshot, making the commit
/// visible mid-transaction to a live reader (a torn snapshot).
pub(crate) fn commit_tick(at_least: u64) -> u64 {
    let shard = thread_index() % SHARDS;
    let cell = &CLOCK[shard].0;
    let mut cur = cell.load(SeqCst);
    loop {
        let floor = cur.max(at_least);
        // Smallest value > floor with value % SHARDS == shard.
        let aligned = floor - floor % SHARDS as u64 + shard as u64;
        let next = if aligned > floor {
            aligned
        } else {
            aligned + SHARDS as u64
        };
        match cell.compare_exchange_weak(cur, next, SeqCst, SeqCst) {
            Ok(_) => {
                LAST_SEEN.with(|c| c.set(c.get().max(next)));
                return next;
            }
            Err(seen) => cur = seen,
        }
    }
}

/// Registration of one live transaction in the epoch registry,
/// released on drop. Held by `Tx` for its whole lifetime, so a live
/// snapshot always pins the watermark at or below its begin timestamp.
#[derive(Debug)]
pub(crate) enum SnapshotGuard {
    /// Thread-owned padded slot (shared by the thread's nested
    /// transactions via the slot's depth counter).
    Slot(usize),
    /// Per-transaction entry in the overflow table.
    Overflow(usize),
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        match *self {
            SnapshotGuard::Slot(i) => {
                let slot = &SLOTS[i];
                if slot.depth.fetch_sub(1, SeqCst) == 1 {
                    slot.begin.store(IDLE, SeqCst);
                }
            }
            SnapshotGuard::Overflow(k) => lock(&OVERFLOW)[k] = IDLE,
        }
    }
}

/// Begins a transaction's epoch: registers a conservative begin
/// timestamp, then draws the real one from the clock. Returns the
/// begin (snapshot) timestamp and the registration guard.
pub(crate) fn enter() -> (u64, SnapshotGuard) {
    let slot_idx = THREAD_SLOT.with(|s| s.idx);
    match slot_idx {
        Some(i) => {
            let slot = &SLOTS[i];
            // Publish *before* reading the clock (watermark invariant
            // step 1). Only the outermost transaction publishes: any
            // begin already registered by this thread is older, hence
            // already a lower bound for this one.
            if slot.depth.fetch_add(1, SeqCst) == 0 {
                slot.begin.store(LAST_SEEN.with(|c| c.get()), SeqCst);
                let ts = clock_now();
                // Refine the conservative value so the watermark is
                // not pinned lower than necessary.
                slot.begin.store(ts, SeqCst);
                LAST_SEEN.with(|c| c.set(ts));
                (ts, SnapshotGuard::Slot(i))
            } else {
                let ts = clock_now();
                LAST_SEEN.with(|c| c.set(ts));
                (ts, SnapshotGuard::Slot(i))
            }
        }
        None => {
            // Overflow: publish under the mutex, then read the clock.
            // A scan either runs before our insert (its lock section
            // precedes ours, so our clock reads see its bound) or
            // observes our conservative value.
            let conservative = LAST_SEEN.with(|c| c.get());
            let key = {
                let mut table = lock(&OVERFLOW);
                match table.iter().position(|&v| v == IDLE) {
                    Some(k) => {
                        table[k] = conservative;
                        k
                    }
                    None => {
                        table.push(conservative);
                        table.len() - 1
                    }
                }
            };
            let ts = clock_now();
            lock(&OVERFLOW)[key] = ts;
            LAST_SEEN.with(|c| c.set(ts));
            (ts, SnapshotGuard::Overflow(key))
        }
    }
}

/// The cached live-snapshot watermark: a lower bound on the begin
/// timestamp of every transaction currently live or yet to begin. Old
/// versions below it are unreachable and eligible for reclamation.
///
/// The cache trails the true minimum by at most the rescan interval
/// (see [`refresh_watermark`] to force a scan, e.g. from tests or
/// diagnostics).
pub fn watermark() -> u64 {
    WATERMARK.load(SeqCst)
}

/// Rescans the registry and folds the result into the watermark
/// (monotonically — the watermark never moves backwards). Returns the
/// updated watermark.
///
/// Commits call this automatically about every 64 commits; it is
/// public for tests and diagnostics that need the bound fresh *now*.
pub fn refresh_watermark() -> u64 {
    // Read the clock before the slots (watermark invariant step 2):
    // `bound` is the scan result when no transaction is live.
    let bound = clock_now();
    let mut min = bound;
    let high = SLOTS_CLAIMED.load(SeqCst).min(SLOT_COUNT);
    for slot in &SLOTS[..high] {
        // IDLE is u64::MAX: transparent to the fold.
        min = min.min(slot.begin.load(SeqCst));
    }
    for &v in lock(&OVERFLOW).iter() {
        min = min.min(v);
    }
    WATERMARK_STAMP.store(bound, SeqCst);
    WATERMARK.fetch_max(min, SeqCst).max(min)
}

/// The watermark, rescanned first if it is more than [`REFRESH_TICKS`]
/// behind `now` — the amortized form the commit path uses.
pub(crate) fn gc_watermark(now: u64) -> u64 {
    if now.saturating_sub(WATERMARK_STAMP.load(SeqCst)) >= REFRESH_TICKS {
        refresh_watermark()
    } else {
        WATERMARK.load(SeqCst)
    }
}

/// Puts `var` on the retained-spill registry. The commit path calls
/// this once per variable whose install reported it newly holding
/// spill (see `VarOps::install`).
pub(crate) fn register_spill(var: &Arc<dyn VarOps>) {
    let mut shard = lock(&SPILL[thread_index() % SHARDS].0);
    if shard.len() == shard.capacity() {
        // Before the buffer grows, drop entries of variables that no
        // longer exist, and leave room for as many pushes as there
        // are survivors: pruning stays amortised O(1) per push, and a
        // process that never sweeps holds entries only for live
        // variables.
        shard.retain(|w| w.strong_count() > 0);
        let live = shard.len();
        shard.reserve(live);
    }
    shard.push(Arc::downgrade(var));
}

/// What one [`sweep_retained`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Registered variables the pass trimmed.
    pub visited: u64,
    /// Versions reclaimed across them.
    pub reclaimed: u64,
    /// Visited variables that still hold spill (a live snapshot can
    /// reach it) and stay registered for the next pass.
    pub retained: u64,
}

/// Reclaims retained spill across the process: drains the
/// retained-spill registry, trims every registered variable against
/// one freshly scanned watermark, and re-registers only those a live
/// snapshot still pins. Its cost follows the variables that hold
/// spill, not the number of variables in existence.
///
/// Install-time GC reclaims versions only on variables that keep
/// being written; this is the sweep that releases what a finished
/// long reader pinned on variables nobody writes anymore. Like
/// [`TVar::compact`](crate::TVar::compact) it is always safe and never
/// blocks commits. Capped variables ([`TVar::with_history`]) are never
/// registered: their retention is bounded at install time.
///
/// # Examples
///
/// ```
/// use sitm_stm::{sweep_retained, Stm, TVar};
/// let stm = Stm::snapshot();
/// let cell = TVar::new(0u32);
/// stm.atomically(|tx| {
///     tx.write(&cell, 1);
///     Ok(())
/// });
/// // Nothing is written again, yet the sweep trims the cold spill.
/// sweep_retained();
/// assert_eq!(cell.version_count(), 1);
/// ```
///
/// [`TVar::with_history`]: crate::TVar::with_history
pub fn sweep_retained() -> SweepReport {
    let watermark = refresh_watermark();
    let mut report = SweepReport::default();
    for shard in &SPILL {
        let drained = std::mem::take(&mut *lock(&shard.0));
        let mut pinned = Vec::new();
        for entry in drained {
            let Some(var) = entry.upgrade() else { continue };
            report.visited += 1;
            let (reclaimed, still_spilled) = var.sweep(watermark);
            report.reclaimed += reclaimed;
            if still_spilled {
                pinned.push(entry);
            }
        }
        if !pinned.is_empty() {
            report.retained += pinned.len() as u64;
            lock(&shard.0).append(&mut pinned);
        }
    }
    report
}

/// How many registry entries name the variable with id `id` (the
/// registry models' exactly-once check).
#[cfg(all(loom, test))]
pub(crate) fn registrations(id: u64) -> usize {
    SPILL
        .iter()
        .map(|shard| {
            lock(&shard.0)
                .iter()
                .filter(|entry| entry.upgrade().is_some_and(|var| var.id() == id))
                .count()
        })
        .sum()
}

/// Number of transactions currently registered in the epoch registry
/// (diagnostics; racy by nature).
pub fn live_snapshots() -> usize {
    let high = SLOTS_CLAIMED.load(SeqCst).min(SLOT_COUNT);
    let in_slots = SLOTS[..high]
        .iter()
        .filter(|s| s.begin.load(SeqCst) != IDLE)
        .count();
    let in_overflow = lock(&OVERFLOW).iter().filter(|&&v| v != IDLE).count();
    in_slots + in_overflow
}

/// A thread's claim on one registry slot, returned to the free list
/// when the thread exits.
struct SlotHandle {
    idx: Option<usize>,
}

impl SlotHandle {
    fn claim() -> Self {
        let recycled = lock(&FREE_SLOTS).pop();
        let idx = recycled.or_else(|| {
            let i = SLOTS_CLAIMED.fetch_add(1, SeqCst);
            (i < SLOT_COUNT).then_some(i)
        });
        SlotHandle { idx }
    }
}

impl Drop for SlotHandle {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            // Recycle only a quiescent slot. A nonzero depth here means
            // a Tx was leaked (mem::forget) on this thread; losing the
            // slot keeps the registry sound at the cost of one slot.
            if SLOTS[i].depth.load(SeqCst) == 0 {
                lock(&FREE_SLOTS).push(i);
            }
        }
    }
}

/// Reset every epoch-layer global to its boot state. Model executions
/// reuse one process, so each one starts by wiping the clock, the
/// registry and the watermark; sound only while no transaction is
/// live, which the model driver guarantees (it runs this at the top
/// of the root closure, before any model thread spawns).
#[cfg(loom)]
pub(crate) fn model_reset() {
    for shard in &CLOCK {
        shard.0.store(0, SeqCst);
    }
    for slot in &SLOTS {
        slot.begin.store(IDLE, SeqCst);
        slot.depth.store(0, SeqCst);
    }
    SLOTS_CLAIMED.store(0, SeqCst);
    lock(&FREE_SLOTS).clear();
    lock(&OVERFLOW).clear();
    for shard in &SPILL {
        lock(&shard.0).clear();
    }
    WATERMARK.store(0, SeqCst);
    WATERMARK_STAMP.store(0, SeqCst);
    NEXT_THREAD_INDEX.store(0, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global clock and registry with
    // every other test in the binary (the harness runs tests on
    // threads), so they assert relative properties — monotonicity,
    // residue classes, bounds against values this test observed — not
    // absolute clock values.

    #[test]
    fn ticks_are_monotone_unique_and_shard_aligned() {
        let shard = (thread_index() % SHARDS) as u64;
        let mut prev = 0;
        for _ in 0..100 {
            let t = commit_tick(prev);
            assert!(t > prev, "ticks strictly increase");
            assert_eq!(t % SHARDS as u64, shard, "shard residue class");
            prev = t;
        }
    }

    #[test]
    fn tick_exceeds_at_least_even_far_ahead() {
        let base = clock_now();
        let t = commit_tick(base + 1_000_000);
        assert!(t > base + 1_000_000);
        assert!(clock_now() >= t, "the tick is visible to the clock");
    }

    #[test]
    fn enter_pins_watermark_below_begin() {
        let (begin, guard) = enter();
        let wm = refresh_watermark();
        assert!(
            wm <= begin,
            "watermark {wm} must not pass live begin {begin}"
        );
        drop(guard);
    }

    #[test]
    fn nested_enters_share_the_slot() {
        let (outer, g1) = enter();
        let (inner, g2) = enter();
        assert!(inner >= outer);
        // The registry still pins the *outermost* begin.
        assert!(refresh_watermark() <= outer);
        drop(g2);
        // Outer still live: watermark still pinned.
        assert!(refresh_watermark() <= outer);
        drop(g1);
    }

    #[test]
    fn watermark_is_monotone() {
        let a = refresh_watermark();
        let _ = commit_tick(0);
        let b = refresh_watermark();
        assert!(b >= a);
        assert!(watermark() >= b, "cache holds the latest scan");
    }

    #[test]
    fn watermark_advances_past_dropped_guards() {
        let (begin, guard) = enter();
        drop(guard);
        // No guard of ours is live; after ticking the clock past our
        // begin, a scan must be free to move beyond it (other tests'
        // concurrent transactions may still hold it lower, so assert
        // only against the clock bound).
        let t = commit_tick(begin);
        assert!(refresh_watermark() <= clock_now());
        assert!(t > begin);
    }

    #[test]
    fn the_registry_prunes_dropped_variables_without_a_sweep() {
        // A process that never sweeps must not accumulate entries for
        // variables it has dropped.
        for _ in 0..10_000 {
            let var: Arc<dyn VarOps> = crate::TVar::new(0u8).inner;
            register_spill(&var);
        }
        let len = lock(&SPILL[thread_index() % SHARDS].0).len();
        assert!(len < 1_000, "{len} entries for 10,000 dropped variables");
    }

    #[test]
    fn live_snapshots_counts_guards() {
        let before = live_snapshots();
        let (_, guard) = enter();
        assert!(live_snapshots() >= before.max(1));
        drop(guard);
    }
}
