//! Conflict serializability for protocols without version timestamps
//! (2PL, SONTM): the precedence graph over committed transactions,
//! with edges derived from the recorder's global operation order, must
//! be acyclic.
//!
//! Edges over each conflict-detection line:
//!
//! * **ww** — committed writers in commit order (consecutive pairs;
//!   transitivity supplies the rest),
//! * **wr** — the last writer committed before a read precedes the
//!   reader,
//! * **rw** — a reader precedes the first writer committed after its
//!   read. Promotions contribute only this rw direction: a promotion
//!   validates the read against later writers but observes nothing.
//!
//! A read of a line the reader itself later commits a write to needs no
//! rw edge (its own position in the ww chain orders it before every
//! later writer).

use std::collections::HashMap;

use sitm_obs::{History, OpKind};

use crate::graph::{add_edge, find_cycle, Graph};
use crate::oracle::Violation;

pub(crate) fn check_conflict_serializable(history: &History, out: &mut Vec<Violation>) {
    let mut graph = Graph::new();

    // Committed writers of each line, in commit order. Lock-based
    // protocols publish writes at commit, so the commit's sequence
    // number is the point a writer starts conflicting with readers.
    let mut writers_by_line: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for r in history.committed() {
        graph.entry(r.txn).or_default();
        let mut lines: Vec<u64> = r.write_lines().collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            writers_by_line
                .entry(line)
                .or_default()
                .push((r.end_seq, r.txn));
        }
    }
    for writers in writers_by_line.values_mut() {
        writers.sort_unstable();
    }

    for (line, writers) in &writers_by_line {
        for pair in writers.windows(2) {
            add_edge(&mut graph, pair[0].1, pair[1].1, "ww", *line);
        }
    }

    for r in history.committed() {
        for op in &r.ops {
            let (line, observes) = match op.kind {
                OpKind::Read { line, .. } => (line, true),
                OpKind::Promote { line } => (line, false),
                OpKind::Write { .. } => continue,
            };
            let empty = Vec::new();
            let writers = writers_by_line.get(&line).unwrap_or(&empty);
            if observes {
                if let Some(&(_, writer)) = writers
                    .iter()
                    .rev()
                    .find(|&&(end, txn)| end < op.seq && txn != r.txn)
                {
                    add_edge(&mut graph, writer, r.txn, "wr", line);
                }
            }
            if let Some(&(_, writer)) = writers.iter().find(|&&(end, _)| end > op.seq) {
                // First overwriter being the reader itself means the
                // reader's own ww-chain position already orders it.
                add_edge(&mut graph, r.txn, writer, "rw", line);
            }
        }
    }

    if let Some(cycle) = find_cycle(&graph) {
        out.push(cycle_violation("conflict-cycle", &graph, cycle));
    }
}

/// Renders a cycle as a violation, spelling out each edge's kind and
/// line so the offending dependency pair is legible.
pub(crate) fn cycle_violation(rule: &'static str, graph: &Graph, cycle: Vec<u64>) -> Violation {
    let mut detail = String::new();
    for (i, &from) in cycle.iter().enumerate() {
        let to = cycle[(i + 1) % cycle.len()];
        let (kind, line) = graph[&from][&to];
        if i > 0 {
            detail.push_str(", ");
        }
        detail.push_str(&format!("txn {from} -{kind}(line {line})-> txn {to}"));
    }
    Violation {
        rule,
        txns: cycle,
        line: None,
        detail,
    }
}
