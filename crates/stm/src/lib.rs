//! # sitm-stm — a software snapshot-isolation STM
//!
//! The SI-TM paper builds snapshot-isolation transactional memory in
//! hardware and names a software multiversion implementation as future
//! work; this crate is that software rendition, usable by real Rust
//! threads today:
//!
//! * [`TVar<T>`] — a multiversioned transactional variable (the software
//!   analogue of an MVM cache line). By default versions are retained
//!   *dynamically*: old versions stay alive exactly while a live
//!   snapshot can still read them and are reclaimed by epoch GC against
//!   the live-snapshot [`watermark`] afterwards, so readers — however
//!   long-running — never abort. [`TVar::with_history`] opts into the
//!   paper's bounded discard-oldest policy instead.
//! * [`Stm::atomically`] — run closures transactionally with consistent
//!   snapshot reads and commit-time **write-write** validation only:
//!   readers never abort writers and read-only transactions always
//!   commit, exactly the SI-TM property. Commit timestamps come from a
//!   sharded clock (one padded shard per thread group), so commits
//!   never serialize on a single atomic.
//! * [`IsolationLevel::Serializable`] — opt-in serializability by
//!   read-set validation, and [`Tx::promote`] for the paper's selective
//!   *read promotion* remedy against write skew.
//! * [`Stm::with_history`] — optional recording of every finished
//!   transaction attempt (snapshot, commit timestamp, read/write sets
//!   with observed versions, labels of labelled variables) as a
//!   [`sitm_obs::History`], the input both the `sitm-check` isolation
//!   oracle and the `sitm-skew` write-skew tool analyze.
//!
//! # Examples
//!
//! ```
//! use sitm_stm::{Stm, TVar};
//! use std::sync::Arc;
//! use std::thread;
//!
//! let stm = Arc::new(Stm::snapshot());
//! let hits = TVar::new(0u64);
//!
//! thread::scope(|s| {
//!     for _ in 0..4 {
//!         let stm = Arc::clone(&stm);
//!         let hits = hits.clone();
//!         s.spawn(move || {
//!             for _ in 0..100 {
//!                 stm.atomically(|tx| {
//!                     let h = tx.read(&hits)?;
//!                     tx.write(&hits, h + 1);
//!                     Ok(())
//!                 });
//!             }
//!         });
//!     }
//! });
//! assert_eq!(hits.load(), 400);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod collections;
mod epoch;
mod error;
mod stm;
mod sync;
mod tvar;
mod txn;

#[cfg(loom)]
pub mod model_support;

#[cfg(all(loom, test))]
mod models;

pub use collections::{TCounter, THashMap, TList};
pub use epoch::{live_snapshots, refresh_watermark, watermark};
pub use error::{Conflict, StmError};
pub use stm::{Stm, StmStats};
pub use tvar::{TVar, DEFAULT_HISTORY};
pub use txn::{IsolationLevel, Tx};
