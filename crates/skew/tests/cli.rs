//! The `skew_analyze` command line: every exit code, and the banking
//! fixture's stdout against its golden report.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use sitm_obs::{History, OpKind, TxnBuilder};

/// Runs the binary with `args`, feeding `stdin`; returns the exit code,
/// stdout and stderr.
fn run(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_skew_analyze"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn skew_analyze");
    let mut pipe = child.stdin.take().expect("piped stdin");
    pipe.write_all(stdin.as_bytes()).expect("write stdin");
    drop(pipe);
    let out = child.wait_with_output().expect("skew_analyze runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    let code = out.status.code().expect("exited normally");
    (code, text(out.stdout), text(out.stderr))
}

/// A history of one read-modify-write, in a log of `capacity` records
/// that is offered `copies` of it.
fn rmw_history(capacity: usize, copies: u64) -> String {
    let mut h = History::with_capacity(capacity);
    for txn in 0..copies {
        let mut b = TxnBuilder::new(txn, 0, 0, 3 * txn, Some(txn));
        b.op(3 * txn + 1, OpKind::Write { line: 7 });
        h.push(b.commit(3 * txn + 2, Some(txn + 1)));
    }
    h.to_jsonl()
}

#[test]
fn help_exits_zero_with_usage() {
    let (code, stdout, _) = run(&["--help"], "");
    assert_eq!(code, 0);
    assert!(stdout.starts_with("usage: skew_analyze"), "{stdout}");
}

#[test]
fn unknown_flag_exits_two() {
    let (code, _, stderr) = run(&["--frobnicate"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("--frobnicate"), "{stderr}");
}

#[test]
fn malformed_line_exits_two_naming_it() {
    let text = rmw_history(8, 1) + "{\"schema\":\"sitm.txn.v1\"}\n";
    let (code, stdout, stderr) = run(&["-"], &text);
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("line 2:"), "{stderr}");
}

#[test]
fn clean_history_exits_zero() {
    let (code, stdout, _) = run(&[], &rmw_history(8, 3));
    assert_eq!(code, 0);
    assert_eq!(
        stdout,
        "no write-skew dangerous structures in 3 committed transactions\n"
    );
}

#[test]
fn incomplete_history_exits_two() {
    let (code, stdout, _) = run(&["-"], &rmw_history(1, 3));
    assert_eq!(code, 2);
    assert!(
        stdout.starts_with("history incomplete: 2 records dropped\n"),
        "{stdout}"
    );
}

#[test]
fn banking_fixture_exits_one_with_the_golden_report() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let fixture = dir.join("banking.jsonl");
    let (code, stdout, _) = run(&[fixture.to_str().expect("utf-8 path")], "");
    assert_eq!(code, 1);
    let golden = std::fs::read_to_string(dir.join("banking.report")).expect("golden report");
    assert_eq!(stdout, golden);
}
