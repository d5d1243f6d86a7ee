//! Multiversion serialization-graph acyclicity, the serializability
//! check for SSI-TM.
//!
//! The version order of each line is its committed writers in commit-
//! timestamp order. Edges over committed transactions:
//!
//! * **ww** — consecutive writers in the version order,
//! * **wr** — the writer of the version a read observed precedes the
//!   reader,
//! * **rw** — a reader of version `t` precedes the writer of the next
//!   version `t' > t` (the anti-dependency SSI's dangerous-structure
//!   rule approximates).
//!
//! Deliberately *not* checked: Cahill-style dangerous structures
//! (two consecutive rw edges with concurrent endpoints). That rule is
//! SSI's conservative runtime mechanism, not its correctness contract —
//! legal SSI histories may contain dangerous structures whose cycle
//! never completes, so re-running the detector here would reject
//! correct executions. The contract is serializability itself, which is
//! exactly MVSG acyclicity.

use std::collections::HashMap;

use sitm_obs::{History, OpKind, TxnRecord};

use crate::conflict::cycle_violation;
use crate::graph::{add_edge, find_cycle, Graph};
use crate::oracle::Violation;

pub(crate) fn check_mvsg(history: &History, out: &mut Vec<Violation>) {
    // Timestamps are per-epoch; each epoch's committed transactions
    // form an independent graph.
    let mut epochs: HashMap<u64, Vec<&TxnRecord>> = HashMap::new();
    for r in history.committed() {
        epochs.entry(r.epoch).or_default().push(r);
    }
    let mut epoch_ids: Vec<u64> = epochs.keys().copied().collect();
    epoch_ids.sort_unstable();
    for epoch in epoch_ids {
        check_epoch(&epochs[&epoch], out);
    }
}

fn check_epoch(committed: &[&TxnRecord], out: &mut Vec<Violation>) {
    // Version order per line: committed writers by commit timestamp.
    // (Timestamp sanity — uniqueness, commit-after-begin — is the SI
    // checker's job, which always runs before this one.)
    let mut versions_by_line: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for r in committed {
        let Some(end) = r.commit_ts else { continue };
        let mut lines: Vec<u64> = r.write_lines().collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            versions_by_line.entry(line).or_default().push((end, r.txn));
        }
    }
    for versions in versions_by_line.values_mut() {
        versions.sort_unstable();
    }

    let mut graph = Graph::new();
    for r in committed {
        graph.entry(r.txn).or_default();
    }
    for (line, versions) in &versions_by_line {
        for pair in versions.windows(2) {
            add_edge(&mut graph, pair[0].1, pair[1].1, "ww", *line);
        }
    }

    for r in committed {
        for op in &r.ops {
            let OpKind::Read {
                line,
                observed: Some(observed),
            } = op.kind
            else {
                continue;
            };
            let empty = Vec::new();
            let versions = versions_by_line.get(&line).unwrap_or(&empty);
            // wr: the writer of the observed version precedes the
            // reader. Version 0 is the pre-run image (no writer); an
            // observation matching no committed writer is flagged by
            // the SI snapshot-read check, not here.
            if observed != 0 {
                if let Some(&(_, writer)) = versions.iter().find(|&&(ts, _)| ts == observed) {
                    add_edge(&mut graph, writer, r.txn, "wr", line);
                }
            }
            // rw: the reader precedes the writer of the next version.
            if let Some(&(_, writer)) = versions.iter().find(|&&(ts, _)| ts > observed) {
                add_edge(&mut graph, r.txn, writer, "rw", line);
            }
        }
    }

    if let Some(cycle) = find_cycle(&graph) {
        out.push(cycle_violation("mvsg-cycle", &graph, cycle));
    }
}
