//! The retained-spill registry behind `sweep_retained` (DESIGN.md §14):
//! a sweep visits exactly the variables whose commits left spill
//! behind, each once, and keeps only those a live snapshot still pins.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use sitm_stm::{sweep_retained, Stm, TVar};

/// The registry and the watermark are process-global, so these tests
/// assert exact visit counts only while no other test in this binary
/// writes or holds a snapshot.
static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the test and starts it from an empty registry (no
/// snapshot is live, so one sweep unregisters everything).
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    sweep_retained();
    assert_eq!(sweep_retained().visited, 0, "registry drained");
    guard
}

fn write(stm: &Stm, var: &TVar<u64>, value: u64) {
    stm.atomically(|tx| {
        tx.write(var, value);
        Ok(())
    });
}

#[test]
fn writes_without_live_snapshots_leave_the_registry_empty_after_one_sweep() {
    let _guard = serial();
    let stm = Stm::snapshot();
    let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
    for round in 1..=3 {
        for v in &vars {
            write(&stm, v, round);
        }
    }
    let first = sweep_retained();
    assert_eq!(first.visited, 64, "every written variable, once");
    assert_eq!(first.retained, 0, "no snapshot pins anything");
    assert!(vars.iter().all(|v| v.version_count() == 1));
    assert_eq!(sweep_retained().visited, 0, "nothing left registered");
}

#[test]
fn a_cold_variable_pinned_by_a_parked_reader_is_reclaimed_after_it_drops() {
    let _guard = serial();
    let stm = Stm::snapshot();
    let cold = TVar::new(0u64);
    let mut reader = stm.begin();
    assert_eq!(reader.read(&cold), Ok(0));
    for i in 1..=10 {
        write(&stm, &cold, i);
    }
    // The reader can reach version 0, so the sweep must keep it and
    // keep the variable registered.
    let pinned = sweep_retained();
    assert_eq!((pinned.visited, pinned.retained), (1, 1));
    assert_eq!(reader.read(&cold), Ok(0), "the pinned version survives");
    assert!(cold.version_count() > 1);
    drop(reader);
    // No further write: the first sweep after the reader drops
    // reclaims the spill and unregisters the variable.
    let released = sweep_retained();
    assert_eq!((released.visited, released.retained), (1, 0));
    assert!(released.reclaimed > 0);
    assert_eq!(cold.version_count(), 1);
    assert_eq!(sweep_retained().visited, 0);
}

#[test]
fn capped_variables_are_never_registered() {
    let _guard = serial();
    let stm = Stm::snapshot();
    let capped = TVar::with_history(0u64, 2);
    let reader = stm.begin();
    for i in 1..=10 {
        write(&stm, &capped, i);
    }
    assert_eq!(capped.version_count(), 2, "bounded at install time");
    assert_eq!(sweep_retained().visited, 0);
    drop(reader);
}

#[test]
fn no_variable_is_registered_twice() {
    let _guard = serial();
    let stm = Arc::new(Stm::snapshot());
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..32).map(TVar::new).collect());
    // A parked reader keeps every variable's spill alive, so each
    // variable stays registered across all writes and sweeps.
    let reader = stm.begin();
    // Writers on several threads (several registry shards) write the
    // same variables over and over.
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let (stm, vars) = (Arc::clone(&stm), Arc::clone(&vars));
            thread::spawn(move || {
                for round in 0..20u64 {
                    for v in vars.iter() {
                        write(&stm, v, t * 100 + round);
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    for _ in 0..2 {
        let pass = sweep_retained();
        assert_eq!(pass.visited, 32, "each variable exactly once");
        assert_eq!(pass.retained, 32, "the reader pins all of them");
    }
    drop(reader);
    let last = sweep_retained();
    assert_eq!((last.visited, last.retained), (32, 0));
    assert!(vars.iter().all(|v| v.version_count() == 1));
}

#[test]
fn dropped_variables_are_skipped_not_kept_alive() {
    let _guard = serial();
    let stm = Stm::snapshot();
    let payload = Arc::new(7u64);
    {
        let var = TVar::new(Arc::clone(&payload));
        stm.atomically(|tx| {
            tx.write(&var, Arc::new(8));
            Ok(())
        });
        // The spilled version holds the second reference.
        assert_eq!(Arc::strong_count(&payload), 2);
    }
    // The registry holds no strong reference: dropping the variable
    // dropped its versions, before any sweep ran.
    assert_eq!(Arc::strong_count(&payload), 1);
    assert_eq!(sweep_retained().visited, 0);
}
