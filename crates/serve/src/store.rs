//! The sharded key directory: `u64` keys mapped to multiversioned
//! [`TVar`]s.
//!
//! Keys live in `SHARD`-way sharded hash maps guarded by `RwLock`s.
//! The shard lock protects only the *directory* (key → `TVar` handle);
//! all value concurrency is the STM's business — once a connection
//! holds the `TVar` handle, its snapshot reads are lock-free and its
//! commits lock only the variables they wrote. Directory lookups for
//! existing keys take the read lock for an `Arc` clone, so the
//! directory is never the contention point on the hot path.
//!
//! Values are `TVar<Option<i64>>`: a key that was never `Put` (or was
//! deleted) reads as `None` at every snapshot that precedes its
//! creation, which keeps "key exists" itself snapshot-consistent — a
//! transaction that creates a key mid-flight stays invisible to
//! concurrent snapshots until its commit installs `Some`.

use std::collections::HashMap;
use std::sync::RwLock;

use sitm_stm::TVar;

/// Directory shard count. A power of two so the shard of a key is one
/// multiply + shift; 64 keeps directory write contention (key
/// creation) negligible at any realistic connection count.
pub const DIR_SHARDS: usize = 64;

/// The sharded `key → TVar` directory.
#[derive(Debug)]
pub struct Store {
    shards: Vec<RwLock<HashMap<u64, TVar<Option<i64>>>>>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

/// Fibonacci hashing: spreads sequential keys across shards.
fn shard_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % DIR_SHARDS
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store {
            shards: (0..DIR_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    /// The `TVar` behind `key`, if the key has ever been created.
    /// Read-lock only.
    pub fn lookup(&self, key: u64) -> Option<TVar<Option<i64>>> {
        self.shards[shard_of(key)]
            .read()
            .expect("store shard poisoned")
            .get(&key)
            .cloned()
    }

    /// The `TVar` behind `key`, creating it (initial value `None`,
    /// timestamp 0) if absent. Creation installs no STM version — a
    /// fresh variable reads `None` at every snapshot until a
    /// transaction commits `Some` into it.
    pub fn get_or_create(&self, key: u64) -> TVar<Option<i64>> {
        let shard = &self.shards[shard_of(key)];
        if let Some(var) = shard.read().expect("store shard poisoned").get(&key) {
            return var.clone();
        }
        shard
            .write()
            .expect("store shard poisoned")
            .entry(key)
            .or_insert_with(|| TVar::new(None))
            .clone()
    }

    /// Number of keys ever created.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").len())
            .sum()
    }

    /// Whether no key was ever created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total versions currently retained across all keys (diagnostics
    /// for the leak tests: after quiescence + compaction this returns
    /// to exactly one version per key).
    pub fn versions_retained(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("store shard poisoned")
                    .values()
                    .map(|v| v.version_count())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_stm::Stm;

    #[test]
    fn get_or_create_is_idempotent_and_lookup_sees_it() {
        let store = Store::new();
        assert!(store.lookup(9).is_none());
        let a = store.get_or_create(9);
        let b = store.get_or_create(9);
        assert_eq!(a.id(), b.id(), "one TVar per key");
        assert_eq!(store.lookup(9).unwrap().id(), a.id());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn fresh_keys_read_none_until_committed() {
        let store = Store::new();
        let stm = Stm::snapshot();
        let var = store.get_or_create(1);
        assert_eq!(stm.atomically(|tx| tx.read(&var)), None);
        stm.atomically(|tx| {
            tx.write(&var, Some(5));
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| tx.read(&var)), Some(5));
    }

    #[test]
    fn the_retained_sweep_reclaims_cold_spill() {
        let store = Store::new();
        let stm = Stm::snapshot();
        let var = store.get_or_create(3);
        // A parked reader pins versions while writers churn.
        let mut reader = stm.begin();
        for i in 0..50 {
            stm.atomically(|tx| {
                tx.write(&var, Some(i));
                Ok(())
            });
        }
        assert!(store.versions_retained() > 1);
        let _ = reader.read(&var);
        drop(reader);
        // Reader gone: the sweep reclaims everything but the newest,
        // though the key is never written again.
        assert!(sitm_stm::sweep_retained().reclaimed > 0);
        assert_eq!(store.versions_retained(), store.len());
    }
}
