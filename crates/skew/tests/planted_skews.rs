//! Randomized histories with *planted* write skews: the analyzer must
//! find every planted dangerous cycle and must not flag skew-free
//! histories. Each history is also a legal SI execution, so the
//! isolation oracle certifies it under snapshot isolation, and its MVSG
//! check flags the first planted pair exactly when one was planted.
//!
//! Each case is generated from a deterministic seed (reported on
//! failure), replacing the previous property-testing dependency.

use sitm_check::{check, Discipline};
use sitm_obs::{History, OpKind, SmallRng, TxnBuilder};
use sitm_skew::analyze;

/// Builds a history of `n_noise` non-overlapping single-variable RMW
/// transactions (never skew) and `n_planted` overlapping skew pairs on
/// dedicated variable pairs, with SI-consistent timestamps.
fn build_history(seed: u64, n_noise: usize, n_planted: usize) -> History {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut history = History::default();
    // Global sequence and commit clock; `versions[line]` is the commit
    // timestamp of the line's newest version (0: the initial image).
    let (mut seq, mut clock) = (0u64, 0u64);
    let mut next = || {
        seq += 1;
        seq
    };
    let mut versions = std::collections::HashMap::<u64, u64>::new();
    let mut next_tx = 1u64;
    // Noise: sequential RMWs over a pool of shared variables.
    for _ in 0..n_noise {
        let line = rng.gen_range(1..20u64);
        let mut b = TxnBuilder::new(next_tx, 0, 0, next(), Some(clock));
        next_tx += 1;
        let observed = Some(*versions.get(&line).unwrap_or(&0));
        b.op(next(), OpKind::Read { line, observed });
        b.op(next(), OpKind::Write { line });
        clock += 1;
        versions.insert(line, clock);
        history.push(b.commit(next(), Some(clock)));
    }
    // Planted skew pairs on fresh variable ids (disjoint from noise):
    // both read {x, y} from one snapshot, a writes x, b writes y.
    for i in 0..n_planted {
        let x = 1000 + 2 * i as u64;
        let y = x + 1;
        let mut pair: Vec<TxnBuilder> = (0..2)
            .map(|k| TxnBuilder::new(next_tx + k, k as usize, 0, next(), Some(clock)))
            .collect();
        next_tx += 2;
        for b in &mut pair {
            for line in [x, y] {
                let observed = Some(0);
                b.op(next(), OpKind::Read { line, observed });
            }
        }
        for (b, line) in pair.iter_mut().zip([x, y]) {
            b.op(next(), OpKind::Write { line });
        }
        for b in pair {
            clock += 1;
            history.push(b.commit(next(), Some(clock)));
        }
    }
    history
}

#[test]
fn planted_skews_are_all_found() {
    for case in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(0x534b_0000 + case);
        let seed = rng.gen_range(0u64..1000);
        let n_noise = rng.gen_range(0usize..30);
        let n_planted = rng.gen_range(0usize..8);

        let history = build_history(seed, n_noise, n_planted);
        let report = analyze(&history);
        assert_eq!(
            report.findings.len(),
            n_planted,
            "case {case}: exactly the planted cycles are flagged"
        );
        let si = check(Discipline::SnapshotIsolation, &history);
        assert!(si.is_ok(), "case {case}: {si}");
        let ssi = check(Discipline::SerializableSnapshot, &history);
        if n_planted == 0 {
            assert!(report.is_clean(), "case {case}");
            assert!(ssi.is_ok(), "case {case}: {ssi}");
        } else {
            // Each planted pair proposes promotions on both variables.
            assert_eq!(report.promotions.len(), 2 * n_planted, "case {case}");
            // The MVSG witness is the first planted pair, the skew
            // tool's first finding.
            assert_eq!(ssi.violations.len(), 1, "case {case}: {ssi}");
            let mut pair = ssi.violations[0].txns.clone();
            pair.sort_unstable();
            assert_eq!(ssi.violations[0].rule, "mvsg-cycle", "case {case}");
            assert_eq!(pair, report.findings[0].transactions, "case {case}");
        }
    }
}

/// Sequential (non-overlapping) RMW traffic over shared variables is
/// never flagged, at any volume.
#[test]
fn sequential_traffic_is_clean() {
    for case in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(0x534b_1000 + case);
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(1usize..100);

        let report = analyze(&build_history(seed, n, 0));
        assert!(report.is_clean(), "case {case}");
        assert_eq!(report.transactions_analyzed, n, "case {case}");
    }
}
