//! The correctness checks must fire: runs with a perturbed expected bank
//! total or a perturbed pinned grid fail and report it.

use sitm_obs::Json;
use sitm_perfbench::report::result_line;
use sitm_perfbench::{kv, sim};

fn correct_field(outcome: &sitm_perfbench::report::Outcome) -> Option<bool> {
    Json::parse(&result_line(outcome, false))
        .expect("valid JSON")
        .get("correct")
        .and_then(Json::as_bool)
}

#[test]
fn wrong_expected_total_fails_every_scan() {
    let out = kv::run(&kv::KV_CONTENDED, 1, 1, false, 1).expect("set-up succeeds");
    assert!(!out.correct());
    assert_eq!(correct_field(&out), Some(false));
    assert!(
        out.failures[0].contains("scan summed to"),
        "{:?}",
        out.failures
    );
}

#[test]
fn wrong_expected_total_fails_the_conservation_audit() {
    // kv-batch issues no scans, so only the final audits can notice.
    let small = kv::KvSpec {
        keys: 4096,
        setup_reps: 1,
        ..kv::KV_BATCH
    };
    let out = kv::run(&small, 1, 1, false, 1).expect("set-up succeeds");
    assert_eq!(correct_field(&out), Some(false));
    assert_eq!(
        out.failed, 2,
        "run and certification audits: {:?}",
        out.failures
    );
    assert!(out.failures.iter().all(|f| f.contains("bank total")));
}

#[test]
fn wrong_pinned_grid_fails_exactly_the_changed_line() {
    let perturbed = sim::PINNED.replacen("      1.000", "      1.001", 1);
    assert_ne!(perturbed, sim::PINNED);
    let out = sim::run(&perturbed, 1, false);
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert_eq!(correct_field(&out), Some(false));
}
