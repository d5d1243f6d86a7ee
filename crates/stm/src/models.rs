//! Loom models of the STM's concurrent protocols, compiled only under
//! `--cfg loom` (`RUSTFLAGS="--cfg loom" cargo test -p sitm-stm
//! --features loom-model --lib -- loom_`).
//!
//! Each model is a small closure over the *real* crate code (routed
//! through the `sitm-loom` shims by `src/sync.rs`) that the checker
//! runs under every thread interleaving within the preemption bound.
//! Two kinds of test live here:
//!
//! * **protocol models** — assert an invariant holds on *every*
//!   interleaving: commit atomicity (no lost updates), snapshot
//!   integrity (no torn reads across clock shards), global uniqueness
//!   of sharded clock ticks, the watermark never passing a live
//!   snapshot (slot and overflow registry paths alike), and an install
//!   racing a retained-spill sweep (spill always registered, exactly
//!   once; nothing a live snapshot reaches reclaimed);
//! * **mutation checks** — flip a `model_support` knob that
//!   deliberately re-introduces a previously fixed bug (the PR 4
//!   committed-pivot FCW escape, the PR 7 unfloored commit tick) and
//!   assert the corresponding model *fails*. A model that cannot catch
//!   the bug it exists to pin is decoration; these tests keep the
//!   models honest.

use std::sync::Arc;

use sitm_loom::{model, thread};

use crate::epoch;
use crate::model_support;
use crate::stm::Stm;
use crate::tvar::TVar;
use crate::txn::{IsolationLevel, Tx};

/// Which fixed bug, if any, a model run deliberately re-introduces.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mutation {
    None,
    /// PR 4 class: skip first-committer-wins validation at commit.
    SkipFcw,
    /// PR 7 class: floor the commit tick at the snapshot only, without
    /// the all-shard fold taken under the commit locks.
    UnflooredTick,
}

/// Every model execution starts from pristine process-global state
/// with both mutation knobs set explicitly (the reset deliberately
/// leaves them alone, and test binaries run models from many threads).
fn pristine(mutation: Mutation) {
    model_support::reset();
    model_support::break_fcw_validation(mutation == Mutation::SkipFcw);
    model_support::break_commit_tick_floor(mutation == Mutation::UnflooredTick);
}

/// Two threads increment one counter through the full runtime retry
/// loop. Exercises the whole commit protocol — lock acquisition in id
/// order, FCW validation, the clock fold + tick, install, release —
/// and the abort/retry path of the loser. Any interleaving that loses
/// an update fails the final assert.
fn lost_update_model(mutation: Mutation) {
    pristine(mutation);
    let stm = Arc::new(Stm::snapshot());
    let counter = TVar::new(0u64);
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let stm = Arc::clone(&stm);
            let counter = counter.clone();
            thread::spawn(move || {
                stm.atomically(|tx| {
                    let v = tx.read(&counter)?;
                    tx.write(&counter, v + 1);
                    Ok(())
                });
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(counter.load(), 2, "lost update");
}

/// The PR 7 torn-snapshot scenario as a model: a writer updates `x`
/// and `y` in one transaction while a reader — whose clock shard it
/// first drives far ahead of the writer's — reads both in one
/// transaction. The two spawned threads draw distinct thread indices,
/// so with the 2-shard model clock they always sit on different
/// shards. On every interleaving the reader must see `x == y`: with
/// the commit tick floored only at the writer's snapshot (the
/// [`Mutation::UnflooredTick`] variant), a lagging writer shard can
/// publish *below* the reader's already-issued snapshot and tear it.
fn torn_snapshot_model(mutation: Mutation) {
    pristine(mutation);
    let x = TVar::new(0u64);
    let y = TVar::new(0u64);
    let writer = {
        let (x, y) = (x.clone(), y.clone());
        thread::spawn(move || {
            let mut tx = Tx::begin(IsolationLevel::Snapshot);
            tx.write(&x, 1);
            tx.write(&y, 1);
            tx.commit().expect("uncontended writer commits");
        })
    };
    let reader = thread::spawn(move || {
        // Race this thread's own shard far ahead of the writer's.
        epoch::commit_tick(epoch::clock_now() + 64);
        let mut tx = Tx::begin(IsolationLevel::Snapshot);
        let sx = tx.read(&x).expect("dynamic retention never evicts");
        let sy = tx.read(&y).expect("dynamic retention never evicts");
        assert_eq!(sx, sy, "torn snapshot: x={sx} y={sy}");
        tx.commit().expect("read-only commits");
    });
    writer.join();
    reader.join();
}

#[test]
fn loom_commit_path_loses_no_updates() {
    model(|| lost_update_model(Mutation::None));
}

#[test]
fn loom_snapshots_are_never_torn_across_shards() {
    model(|| torn_snapshot_model(Mutation::None));
}

#[test]
fn loom_sharded_clock_ticks_are_globally_unique() {
    model(|| {
        pristine(Mutation::None);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(|| {
                    let shard = (epoch::thread_index() % epoch::SHARDS) as u64;
                    let a = epoch::commit_tick(0);
                    let b = epoch::commit_tick(a);
                    assert!(b > a, "ticks strictly increase");
                    assert_eq!(a % epoch::SHARDS as u64, shard, "residue class");
                    assert_eq!(b % epoch::SHARDS as u64, shard, "residue class");
                    [a, b]
                })
            })
            .collect();
        let mut ticks: Vec<u64> = handles.into_iter().flat_map(|h| h.join()).collect();
        let issued = ticks.len();
        ticks.sort_unstable();
        ticks.dedup();
        assert_eq!(ticks.len(), issued, "two shards issued a colliding tick");
    });
}

#[test]
fn loom_watermark_never_passes_a_live_snapshot() {
    // Three threads against SLOT_COUNT = 2: two land in padded slots,
    // one takes the mutex-protected overflow table, so one execution
    // covers both publish/scan protocols. Each thread races its own
    // registration and scan against the others' clock ticks.
    model(|| {
        pristine(Mutation::None);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                thread::spawn(|| {
                    let (begin, guard) = epoch::enter();
                    let wm = epoch::refresh_watermark();
                    assert!(wm <= begin, "watermark {wm} passed live snapshot {begin}");
                    drop(guard);
                    epoch::commit_tick(begin);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        // Every registration is released: the scan may move up to (but
        // never past) the clock bound.
        assert!(epoch::refresh_watermark() <= epoch::clock_now());
    });
}

#[test]
fn loom_install_racing_a_spill_sweep_keeps_spill_registered_once() {
    // A parked reader pins version 0 and an earlier commit registered
    // the variable; then one writer's install races one sweep, which
    // may drain the entry while the install finds the flag already
    // set. At quiescence: spill => registered, exactly one registry
    // entry, and the reader's version survived.
    model(|| {
        pristine(Mutation::None);
        let var = TVar::new(0u64);
        let mut reader = Tx::begin(IsolationLevel::Snapshot);
        assert_eq!(reader.read(&var), Ok(0));
        let mut first = Tx::begin(IsolationLevel::Snapshot);
        first.write(&var, 1);
        first.commit().expect("uncontended commit");
        let writer = {
            let var = var.clone();
            thread::spawn(move || {
                let mut tx = Tx::begin(IsolationLevel::Snapshot);
                tx.write(&var, 2);
                tx.commit().expect("the only concurrent writer commits");
            })
        };
        let sweeper = thread::spawn(epoch::sweep_retained);
        writer.join();
        sweeper.join();

        assert_eq!(reader.read(&var), Ok(0), "a pinned version was reclaimed");
        assert_eq!(var.load(), 2);
        let (spill, registered) = var.spill_state();
        assert!(spill > 0, "the reader pins spill");
        assert!(registered, "spill {spill} without registration");
        assert_eq!(epoch::registrations(var.id()), 1, "registered once");

        // Reader gone: the next sweep reclaims the spill and unregisters.
        drop(reader);
        let swept = epoch::sweep_retained();
        assert_eq!((swept.visited, swept.retained), (1, 0));
        assert_eq!(var.spill_state(), (0, false));
        assert_eq!(epoch::registrations(var.id()), 0);
    });
}

/// The panic message out of a failing [`model`] call.
fn failure_text(result: std::thread::Result<()>) -> String {
    match result {
        Ok(()) => panic!("the mutated model passed: the model has no teeth"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("model failures carry a string payload"),
    }
}

#[test]
fn loom_mutation_skipped_fcw_validation_is_caught() {
    // Re-break the PR 4 bug class (conflicts with committed winners
    // escaping validation): the lost-update model must now find a
    // failing interleaving.
    let result = std::panic::catch_unwind(|| model(|| lost_update_model(Mutation::SkipFcw)));
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("lost update"),
        "failed for the wrong reason: {msg}"
    );
}

#[test]
fn loom_mutation_unfloored_commit_tick_is_caught() {
    // Re-break the PR 7 torn-snapshot bug (no all-shard fold under the
    // commit locks): the snapshot-integrity model must fail.
    let result =
        std::panic::catch_unwind(|| model(|| torn_snapshot_model(Mutation::UnflooredTick)));
    let msg = failure_text(result);
    assert!(
        msg.contains("loom model failed"),
        "unexpected failure: {msg}"
    );
    assert!(
        msg.contains("torn snapshot"),
        "failed for the wrong reason: {msg}"
    );
}
