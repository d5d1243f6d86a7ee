//! The repository's benchmark: the `sitm-serve` KV service and the
//! `sitm-sim` Figure 7 sweep, measured from outside with end-to-end and
//! per-layer metrics and checked for correctness in every run.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod child;
pub mod cli;
pub mod kv;
pub mod procfs;
pub mod report;
pub mod sim;
pub mod stats;
pub mod steady;
pub mod trace;

use std::time::Duration;

use cli::Opts;
use report::Outcome;

/// Pause before each repeated in-process set-up. On a shared 2-vCPU
/// VM, host noise moves a set-up of a few milliseconds by up to 2x from
/// one second to the next, so the set-ups are spread over several
/// seconds for their median to average over it.
pub const SETUP_GAP: Duration = Duration::from_millis(250);

/// Runs one workload with `opts`.
///
/// # Errors
///
/// A description of a failure that left the run without a result (the
/// server could not start, a set-up step failed).
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "kv-batch" => kv::run(&kv::KV_BATCH, opts.seed, opts.seconds, opts.trace, 0),
        "kv-contended" => kv::run(&kv::KV_CONTENDED, opts.seed, opts.seconds, opts.trace, 0),
        "sim-fig7" => Ok(sim::run(sim::PINNED, opts.seconds, opts.trace)),
        other => Err(format!("unknown workload {other}")),
    }
}
