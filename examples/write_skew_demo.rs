//! Write-skew detection and repair, end to end (paper section 5).
//!
//! Reproduces the Listing 1 banking anomaly with the software STM:
//!
//! 1. run concurrent withdrawals under plain snapshot isolation with
//!    history recording on — the combined balance can go negative;
//! 2. feed the history to the `sitm-skew` analyzer — it finds the
//!    dangerous cycle over `checking`/`saving` and proposes read
//!    promotions;
//! 3. re-run with the proposed promotions applied — the invariant holds.
//!
//! Run with: `cargo run --release --example write_skew_demo`

use std::thread;

use sitm::skew;
use sitm::stm::{Stm, TVar};

const ROUNDS: usize = 1000;

/// Runs the two-sided withdrawal workload; `promote` applies the skew
/// fix. Returns the minimum combined balance ever committed.
fn run_bank(stm: &Stm, promote: bool) -> i64 {
    let mut min_total = i64::MAX;
    for _ in 0..ROUNDS {
        let checking = TVar::new_labeled("checking", 60i64);
        let saving = TVar::new_labeled("saving", 60i64);
        thread::scope(|s| {
            for from_checking in [true, false] {
                let checking = checking.clone();
                let saving = saving.clone();
                s.spawn(move || {
                    stm.atomically(|tx| {
                        let c = tx.read(&checking)?;
                        // Widen the overlap window so the demo shows the
                        // anomaly even on a single-CPU host.
                        std::thread::yield_now();
                        let v = tx.read(&saving)?;
                        if c + v > 100 {
                            if from_checking {
                                if promote {
                                    tx.promote(&saving);
                                }
                                tx.write(&checking, c - 100);
                            } else {
                                if promote {
                                    tx.promote(&checking);
                                }
                                tx.write(&saving, v - 100);
                            }
                        }
                        Ok(())
                    });
                });
            }
        });
        min_total = min_total.min(checking.load() + saving.load());
    }
    min_total
}

fn main() {
    // Step 1: plain SI, recorded.
    let stm = Stm::snapshot().with_history(1 << 16);
    let min_total = run_bank(&stm, false);
    println!("plain snapshot isolation: minimum combined balance = {min_total}");
    if min_total < 0 {
        println!("  -> the Listing 1 write skew fired: both withdrawals committed\n");
    } else {
        println!("  -> this run's interleavings did not trigger the skew; the");
        println!("     analyzer still finds the dangerous structure in the history\n");
    }

    // Step 2: analyze the history.
    let history = stm.history().expect("recording enabled");
    println!("analyzing {} transaction attempts...", history.len());
    let report = skew::analyze(&history);
    println!("{report}");

    // Step 3: apply the proposed promotions and re-run.
    let wants_promotion = |name: &str| report.promotions.iter().any(|p| p.name == name);
    assert!(
        report.is_clean() || (wants_promotion("checking") && wants_promotion("saving")),
        "the analyzer must pinpoint the invariant's variables"
    );
    let fixed_min = run_bank(&Stm::snapshot(), true);
    println!("with read promotion applied: minimum combined balance = {fixed_min}");
    assert!(fixed_min >= 0, "promotion removes the anomaly");
    println!("  -> invariant preserved; the skew is gone");
}
