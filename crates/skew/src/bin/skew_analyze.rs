//! Command-line write-skew analyzer: reads a transaction history in the
//! `sitm.txn.v1` JSONL form `History::to_jsonl` writes (record one with
//! `Stm::with_history`) from a file or stdin and prints the
//! dependency-cycle findings and proposed read promotions.
//!
//! ```text
//! skew_analyze history.jsonl
//! some-tool | skew_analyze -
//! ```
//!
//! Exits 1 when dangerous structures are found, so the tool slots into
//! test pipelines the way the paper describes ("corrected applications
//! never showed inconsistent behavior even after extensive testing").

use std::io::Read;
use std::process::ExitCode;

use sitm_obs::History;

const USAGE: &str = "\
usage: skew_analyze [FILE | -]

Reads a sitm.txn.v1 JSONL transaction history from FILE (default: stdin)
and reports its write-skew dangerous structures and the read promotions
that remove them.

exit status: 0 clean, 1 write skew found, 2 usage error, unreadable or
malformed input, or a history that dropped records";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [flag] if flag == "--help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        [] => "-",
        [path] if path == "-" || !path.starts_with('-') => path.as_str(),
        _ => {
            eprintln!("error: unrecognized arguments {args:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map(|_| buf)
    } else {
        std::fs::read_to_string(path)
    };
    let text = match text {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let history = match History::from_jsonl(&text) {
        Ok(history) => history,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = sitm_skew::analyze(&history);
    println!("{}", report.to_string().trim_end());
    if report.dropped > 0 {
        ExitCode::from(2)
    } else if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
