//! `sitm-obs`: the unified observability layer for the SI-TM
//! reproduction.
//!
//! This crate is deliberately dependency-free (the build environment is
//! hermetic) and sits at the bottom of the workspace graph so every
//! other crate can use it:
//!
//! - [`trace`] — per-thread fixed-capacity ring-buffer event tracers
//!   recording the [`event`] taxonomy, compiled to zero-sized no-ops
//!   unless the `trace` cargo feature is enabled.
//! - [`metrics`] — named counters, gauges and log2-bucketed histograms
//!   behind one [`metrics::MetricsRegistry`], the lock-free
//!   [`metrics::AtomicHistogram`] for hot paths recorded from many
//!   threads, plus the [`metrics::Observable`] trait every protocol
//!   model implements.
//! - [`phase`] — the phase-cycle taxonomy the simulator charges virtual
//!   cycles to (begin / read / write / compute / validate / commit /
//!   backoff / stall).
//! - [`report`] — the versioned `sitm.run_report.v1` JSONL schema every
//!   bench binary emits via `--json`, built on the in-tree [`json`]
//!   module.
//! - [`sink`] — the thread-safe, cell-ordered JSONL aggregator used by
//!   the bench harness's parallel sweep executor (`--jobs N`).
//! - [`rng`] — a small deterministic xoshiro256++ PRNG (the workspace
//!   previously pulled `rand` for this; the hermetic build cannot).
//! - [`history`] — the per-transaction execution-history schema the
//!   isolation oracle (`sitm-check`) consumes, with bounded in-memory
//!   logging and `sitm.txn.v1` JSONL export.
//! - [`cases`] — the seeded-case driver shared by the randomized tests
//!   (env-tunable case count, failing seed always printed).
//! - [`forensics`] — structured abort attribution: the
//!   [`forensics::ForensicCause`] taxonomy, top-K hot-line sketches and
//!   conflict-age histograms, compiled out behind the `trace` feature,
//!   exported as `sitm.abort_forensics.v1` JSONL.
//! - [`chrome`] — a `chrome://tracing` JSON-array exporter for merged
//!   trace streams, reconstructing transaction-lifecycle spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod chrome;
pub mod event;
pub mod forensics;
pub mod history;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod rng;
pub mod sink;
pub mod trace;

pub use cases::{run_seeded_cases, test_cases, CASES_ENV};
pub use chrome::chrome_trace;
pub use event::{EventKind, TraceRecord};
pub use forensics::{
    ForensicCause, ForensicEvent, Forensics, ForensicsReport, ForensicsSnapshot, SharedForensics,
};
pub use history::{
    History, HistoryOp, HistoryParseError, OpKind, TxnBuilder, TxnOutcome, TxnRecord,
};
pub use json::Json;
pub use metrics::{AtomicHistogram, Histogram, MetricsRegistry, Observable};
pub use phase::{Phase, PhaseCycles};
pub use report::{ReportError, RunReport};
pub use rng::SmallRng;
pub use sink::JsonlSink;
pub use trace::{merge_traces, Tracer};
