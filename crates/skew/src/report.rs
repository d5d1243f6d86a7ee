//! The analysis, its findings and the read-promotion proposals.
//!
//! [`analyze`] runs the full pipeline (history → dependency graph →
//! cycles) and produces a [`WriteSkewReport`] listing each dangerous
//! cycle, the variables involved, and the **read promotions** that
//! remove the anomaly — "the tool applies read promotion for every
//! transactional read that is part of a write skew" (section 5.1).
//!
//! Following Cahill et al. (and section 5.1 of the paper), the graph's
//! vertices are committed transactions and its edges are **read-write
//! anti-dependencies between overlapping transactions**: `A → B` when
//! `A` read a variable that `B` wrote, and the two overlapped (so `A`
//! read the version `B` replaced). A cycle is the necessary condition
//! for a write skew; reporting cycles is safe but may include false
//! positives, exactly as the paper states. Reads the transaction
//! promoted, or of variables it also wrote, are excluded: they were
//! validated at commit, so their edge cannot materialize into an
//! anomaly.

use std::collections::BTreeSet;
use std::fmt;

use sitm_check::graph::{add_edge, sccs, Graph};
use sitm_obs::{History, OpKind, TxnRecord};

/// One detected dangerous cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewFinding {
    /// Attempt ids of the transactions forming the cycle.
    pub transactions: Vec<u64>,
    /// Variables carrying the cycle's read-write anti-dependencies,
    /// with display names.
    pub variables: Vec<(u64, String)>,
}

/// A read that should be promoted to remove a detected skew:
/// `(transaction attempt id, variable id, variable name)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Promotion {
    /// The transaction whose read should be promoted.
    pub tx: u64,
    /// The variable to promote.
    pub var: u64,
    /// Display name of the variable.
    pub name: String,
}

/// The tool's output: findings plus the promotion set that fixes them.
#[derive(Debug, Clone, Default)]
pub struct WriteSkewReport {
    /// Detected dangerous cycles (possibly false positives, never
    /// missed ones within the recorded schedules).
    pub findings: Vec<SkewFinding>,
    /// Proposed read promotions (deduplicated, sorted).
    pub promotions: Vec<Promotion>,
    /// Committed transactions analyzed.
    pub transactions_analyzed: usize,
    /// Records the history dropped over its capacity bound. Nonzero
    /// means the analysis is incomplete: a dropped transaction can hide
    /// a skew.
    pub dropped: u64,
}

/// Findings grouped by the variable set they involve: the "pattern"
/// view of a report (`998 cycles over {checking, saving}` is one
/// pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewPattern {
    /// Display names of the variables carrying the cycles.
    pub variables: Vec<String>,
    /// How many dangerous cycles matched this pattern.
    pub occurrences: usize,
}

impl WriteSkewReport {
    /// Whether the history was free of dangerous structures.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings aggregated by variable set, most frequent first.
    pub fn patterns(&self) -> Vec<SkewPattern> {
        let mut counts: std::collections::BTreeMap<Vec<String>, usize> =
            std::collections::BTreeMap::new();
        for f in &self.findings {
            let key: Vec<String> = f.variables.iter().map(|(_, n)| n.clone()).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut patterns: Vec<SkewPattern> = counts
            .into_iter()
            .map(|(variables, occurrences)| SkewPattern {
                variables,
                occurrences,
            })
            .collect();
        patterns.sort_by_key(|p| std::cmp::Reverse(p.occurrences));
        patterns
    }

    /// Promotions deduplicated to `(variable name)` granularity — the
    /// actionable list for a programmer (which *reads* to promote,
    /// independent of which transaction instance exhibited the cycle).
    pub fn promotions_by_variable(&self) -> Vec<String> {
        let mut names: Vec<String> = self.promotions.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The variable names involved in any finding (convenience for
    /// assertions and UIs).
    pub fn involved_names(&self) -> BTreeSet<String> {
        self.findings
            .iter()
            .flat_map(|f| f.variables.iter().map(|(_, n)| n.clone()))
            .collect()
    }
}

impl fmt::Display for WriteSkewReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(f, "history incomplete: {} records dropped", self.dropped)?;
        }
        if self.is_clean() {
            return write!(
                f,
                "no write-skew dangerous structures in {} committed transactions",
                self.transactions_analyzed
            );
        }
        writeln!(
            f,
            "{} write-skew dangerous structure(s) in {} committed transactions:",
            self.findings.len(),
            self.transactions_analyzed
        )?;
        for (i, pattern) in self.patterns().iter().enumerate() {
            writeln!(
                f,
                "  [{}] {} cycle(s) over variables {{{}}}",
                i + 1,
                pattern.occurrences,
                pattern.variables.join(", ")
            )?;
        }
        const SHOWN: usize = 5;
        for finding in self.findings.iter().take(SHOWN) {
            let vars: Vec<&str> = finding.variables.iter().map(|(_, n)| n.as_str()).collect();
            writeln!(
                f,
                "    e.g. transactions {:?} over {{{}}}",
                finding.transactions,
                vars.join(", ")
            )?;
        }
        if self.findings.len() > SHOWN {
            writeln!(f, "    ... and {} more", self.findings.len() - SHOWN)?;
        }
        writeln!(f, "proposed read promotions (by variable):")?;
        for name in self.promotions_by_variable() {
            writeln!(f, "  promote reads of {name}")?;
        }
        Ok(())
    }
}

/// Runs the write-skew analysis over a recorded history. Aborted
/// attempts publish nothing, so only committed transactions take part.
pub fn analyze(history: &History) -> WriteSkewReport {
    // Vertices are indices in commit order.
    let mut txs: Vec<&TxnRecord> = history.committed().collect();
    txs.sort_by_key(|r| r.end_seq);
    let writes: Vec<BTreeSet<u64>> = txs.iter().map(|r| r.write_lines().collect()).collect();
    // The reads that can carry an rw anti-dependency: neither promoted
    // nor written by the reader.
    let exposed: Vec<BTreeSet<u64>> = txs
        .iter()
        .zip(&writes)
        .map(|(r, own)| {
            let (mut reads, mut promoted) = (BTreeSet::new(), BTreeSet::new());
            for op in &r.ops {
                match op.kind {
                    OpKind::Read { line, .. } => reads.insert(line),
                    OpKind::Promote { line } => promoted.insert(line),
                    OpKind::Write { .. } => false,
                };
            }
            reads.retain(|l| !promoted.contains(l) && !own.contains(l));
            reads
        })
        .collect();
    let rw = |i: usize, j: usize| exposed[i].intersection(&writes[j]).copied();

    let mut graph = Graph::new();
    for (i, a) in txs.iter().enumerate() {
        for (j, b) in txs.iter().enumerate() {
            if i != j && a.begin_seq < b.end_seq && b.begin_seq < a.end_seq {
                if let Some(line) = rw(i, j).next() {
                    add_edge(&mut graph, i as u64, j as u64, "rw", line);
                }
            }
        }
    }

    let name = |line: u64| match history.label(line) {
        Some(label) => label.to_string(),
        None => format!("var{line}"),
    };
    let mut report = WriteSkewReport {
        transactions_analyzed: txs.len(),
        dropped: history.dropped(),
        ..WriteSkewReport::default()
    };
    for component in sccs(&graph) {
        let mut variables = BTreeSet::new();
        for &r in &component {
            for &w in graph[&r].keys().filter(|w| component.contains(w)) {
                for line in rw(r as usize, w as usize) {
                    variables.insert(line);
                    report.promotions.push(Promotion {
                        tx: txs[r as usize].txn,
                        var: line,
                        name: name(line),
                    });
                }
            }
        }
        report.findings.push(SkewFinding {
            transactions: component.iter().map(|&i| txs[i as usize].txn).collect(),
            variables: variables.into_iter().map(|v| (v, name(v))).collect(),
        });
    }
    report.promotions.sort();
    report.promotions.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::TxnBuilder;

    /// Pushes a committed transaction spanning `[begin, end]` of the
    /// global order that reads `reads`, then writes `writes`.
    fn txn(h: &mut History, id: u64, span: (u64, u64), reads: &[u64], writes: &[u64]) {
        h.push(builder(id, span.0, reads, writes).commit(span.1, None));
    }

    fn builder(id: u64, begin: u64, reads: &[u64], writes: &[u64]) -> TxnBuilder {
        let mut b = TxnBuilder::new(id, 0, 0, begin, None);
        for &line in reads {
            let observed = None;
            b.op(begin, OpKind::Read { line, observed });
        }
        for &line in writes {
            b.op(begin, OpKind::Write { line });
        }
        b
    }

    fn labelled(names: &[(u64, &str)]) -> History {
        let mut h = History::default();
        for &(line, name) in names {
            h.set_label(line, name.into());
        }
        h
    }

    /// The Listing 1 banking skew end to end.
    #[test]
    fn detects_withdraw_skew_with_names() {
        let mut h = labelled(&[(10, "checking"), (11, "saving")]);
        txn(&mut h, 1, (0, 8), &[10, 11], &[10]);
        txn(&mut h, 2, (1, 9), &[10, 11], &[11]);
        let report = analyze(&h);
        assert!(!report.is_clean());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].transactions, vec![1, 2]);
        assert_eq!(
            report.involved_names(),
            BTreeSet::from(["checking".to_string(), "saving".to_string()])
        );
        // Promotions: tx1 must promote saving, tx2 must promote
        // checking.
        assert!(report
            .promotions
            .iter()
            .any(|p| p.tx == 1 && p.name == "saving"));
        assert!(report
            .promotions
            .iter()
            .any(|p| p.tx == 2 && p.name == "checking"));
        let rendered = report.to_string();
        assert!(rendered.contains("checking"));
        assert!(rendered.contains("promote read"));
        assert_eq!(report.patterns().len(), 1);
        assert_eq!(
            report.promotions_by_variable(),
            vec!["checking".to_string(), "saving".to_string()]
        );
    }

    #[test]
    fn clean_history_reports_clean() {
        let mut h = labelled(&[(5, "x")]);
        txn(&mut h, 1, (0, 3), &[5], &[5]);
        txn(&mut h, 2, (4, 6), &[5], &[]);
        let report = analyze(&h);
        assert!(report.is_clean());
        assert_eq!(
            report.to_string(),
            "no write-skew dangerous structures in 2 committed transactions"
        );
    }

    /// Only a cycle is dangerous: a one-directional anti-dependency,
    /// non-overlapping transactions, promoted reads and reads of the
    /// reader's own writes form none.
    #[test]
    fn edges_need_overlap_and_an_unprotected_read() {
        let single = |h: &mut History| {
            txn(h, 1, (0, 10), &[5], &[]);
            txn(h, 2, (1, 11), &[], &[5]);
        };
        let sequential = |h: &mut History| {
            txn(h, 1, (0, 5), &[7], &[8]);
            txn(h, 2, (6, 9), &[8], &[7]);
        };
        let promoted = |h: &mut History| {
            let mut b = builder(1, 0, &[1, 2], &[1]);
            b.op(0, OpKind::Promote { line: 2 });
            h.push(b.commit(10, None));
            txn(h, 2, (1, 11), &[1, 2], &[2]);
        };
        let own_write = |h: &mut History| {
            txn(h, 1, (0, 10), &[1, 2], &[1, 2]);
            txn(h, 2, (1, 11), &[1, 2], &[1]);
        };
        for build in [
            &single as &dyn Fn(&mut History),
            &sequential,
            &promoted,
            &own_write,
        ] {
            let mut h = History::default();
            build(&mut h);
            assert!(analyze(&h).is_clean());
        }
    }

    #[test]
    fn three_cycle_is_one_finding_over_its_variables() {
        let mut h = History::default();
        txn(&mut h, 1, (0, 20), &[1], &[2]);
        txn(&mut h, 2, (1, 21), &[2], &[3]);
        txn(&mut h, 3, (2, 22), &[3], &[1]);
        let report = analyze(&h);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].transactions, vec![1, 2, 3]);
        assert_eq!(report.promotions_by_variable(), ["var1", "var2", "var3"]);
    }

    /// Aborted attempts publish nothing and take no part.
    #[test]
    fn aborted_attempts_are_ignored() {
        let mut h = History::default();
        txn(&mut h, 1, (0, 8), &[10, 11], &[10]);
        h.push(builder(2, 1, &[10, 11], &[11]).abort(9, "write-write"));
        let report = analyze(&h);
        assert!(report.is_clean());
        assert_eq!(report.transactions_analyzed, 1);
    }

    /// A bounded history that overflowed says so.
    #[test]
    fn dropped_records_are_reported() {
        let mut h = History::with_capacity(1);
        txn(&mut h, 1, (0, 8), &[10, 11], &[10]);
        txn(&mut h, 2, (1, 9), &[10, 11], &[11]);
        let report = analyze(&h);
        assert_eq!(report.dropped, 1);
        assert!(report.is_clean(), "the skew's second half was dropped");
        assert!(report
            .to_string()
            .starts_with("history incomplete: 1 records dropped\n"));
    }
}
