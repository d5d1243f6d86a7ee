//! Golden-file test for the `skew_analyze` report rendering.
//!
//! The report's `Display` output is the CLI's public interface — test
//! pipelines grep it — so format drift should be a deliberate,
//! reviewed change. The fixture history (`sitm.txn.v1` JSONL, as
//! `History::to_jsonl` writes it) covers every rendering branch: the
//! Listing 1 banking skew over (checking, saving), a second independent
//! skew over (x, y), a later non-overlapping read-modify-write that
//! must stay clean, and an aborted attempt the analyzer must discard.
//! To accept an intentional format change, rerun with
//! `SITM_UPDATE_GOLDEN=1` and review the diff of
//! `tests/fixtures/banking.report`.

use std::path::Path;

use sitm_check::{check, Discipline};
use sitm_obs::History;

#[test]
fn banking_history_report_matches_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = std::fs::read_to_string(dir.join("banking.jsonl")).expect("fixture history");
    let history = History::from_jsonl(&text).expect("fixture history parses");
    assert_eq!(
        history.to_jsonl(),
        text,
        "the fixture is a canonical export"
    );
    let report = sitm_skew::analyze(&history);

    // Structural sanity first, so a drifted golden file cannot mask an
    // analysis regression.
    assert_eq!(report.transactions_analyzed, 5);
    assert_eq!(report.findings.len(), 2, "both planted skews are found");
    assert!(report
        .promotions_by_variable()
        .iter()
        .map(String::as_str)
        .eq(["checking", "saving", "x", "y"]));
    // The fixture is a legal SI execution, and not a serializable one.
    let si = check(Discipline::SnapshotIsolation, &history);
    assert!(si.is_ok(), "{si}");
    assert!(!check(Discipline::SerializableSnapshot, &history).is_ok());

    let rendered = report.to_string();
    let golden_path = dir.join("banking.report");
    if std::env::var_os("SITM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; run once with SITM_UPDATE_GOLDEN=1");
    assert_eq!(
        rendered,
        golden,
        "report format drifted from {}; if intentional, rerun with \
         SITM_UPDATE_GOLDEN=1 and review the diff",
        golden_path.display()
    );
}
