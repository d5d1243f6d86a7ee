//! # sitm-skew — write-skew detection and read promotion
//!
//! Snapshot isolation is non-serializable: it permits the **write skew**
//! anomaly, where two overlapping transactions read an invariant's
//! variables and write disjoint subsets of them (section 5 of the SI-TM
//! paper; the classic example is Listing 1's bank withdraw). This crate
//! is the reproduction of the paper's dynamic-analysis tool:
//!
//! 1. record a globally ordered history of transactional operations
//!    (the paper instruments binaries with PIN; here the `sitm-stm`
//!    runtime records a [`sitm_obs::History`] via `Stm::with_history`,
//!    the same record the `sitm-check` isolation oracle reads),
//! 2. build the read-write anti-dependency graph over its overlapping
//!    committed transactions and find its cycles — the necessary
//!    condition for a write skew — with `sitm-check`'s SCC engine
//!    ([`sitm_check::graph`]),
//! 3. report each dangerous cycle and propose **read promotions** that
//!    turn the anomaly into an ordinary validation conflict
//!    ([`analyze`], [`WriteSkewReport`]).
//!
//! The analysis is best-effort in the same sense as the paper's tool:
//! it covers the schedules actually recorded, flags false positives
//! rather than missing true ones within those schedules, and its value
//! grows with test coverage.
//!
//! # Examples
//!
//! ```
//! use sitm_stm::{Stm, TVar};
//!
//! let stm = Stm::snapshot().with_history(1024);
//! let x = TVar::new_labeled("x", 1u64);
//! stm.atomically(|tx| {
//!     let v = tx.read(&x)?;
//!     tx.write(&x, v + 1);
//!     Ok(())
//! });
//! let report = sitm_skew::analyze(&stm.history().unwrap());
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;

pub use report::{analyze, Promotion, SkewFinding, SkewPattern, WriteSkewReport};
