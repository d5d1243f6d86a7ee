//! `perfbench`: see `cli::USAGE`, or run with `--help`.

use std::process::ExitCode;

use sitm_obs::Json;

use sitm_perfbench::cli::{self, Command, Opts, USAGE};
use sitm_perfbench::report::{merge_lines, result_line};
use sitm_perfbench::{child, kv, run_workload, steady};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if opts.setup_once {
        match kv::setup_once(opts.workloads[0]) {
            Ok(secs) => {
                println!("{secs}");
                true
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", opts.workloads[0]);
                false
            }
        }
    } else if let Some(sets) = opts.steady {
        steady::run(&opts.workloads, sets, opts.seconds)
    } else if let [name] = opts.workloads[..] {
        run_one(name, &opts)
    } else {
        run_each_in_child(&opts)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its table and result
/// line. Returns whether every output checked out.
fn run_one(name: &str, opts: &Opts) -> bool {
    match run_workload(name, opts) {
        Ok(outcome) => {
            print!("{}", outcome.table(opts.trace));
            println!("{}", result_line(&outcome, opts.trace));
            outcome.correct()
        }
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            false
        }
    }
}

/// Runs each selected workload in a child process of its own, so that
/// each one's peak RSS and heap are its own, relays the children's
/// tables and prints one merged result line. Prints no result line if
/// a child ended without one.
fn run_each_in_child(opts: &Opts) -> bool {
    let mut lines = Vec::new();
    let mut ok = true;
    for &workload in &opts.workloads {
        let args = child::workload_args(workload, opts.seed, opts.seconds, opts.trace);
        let run = match child::run(&args) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("perfbench: {workload}: could not start: {e}");
                return false;
            }
        };
        let body: Vec<&str> = run.stdout.lines().collect();
        for l in body.iter().take(body.len().saturating_sub(1)) {
            println!("{l}");
        }
        let Some(line) = run.last_json() else {
            eprintln!("perfbench: {workload}: no result ({})", run.status);
            return false;
        };
        ok &= run.status.success() && line.get("correct").and_then(Json::as_bool) == Some(true);
        lines.push((workload, line));
    }
    match merge_lines(&lines) {
        Ok(line) => {
            println!("{line}");
            ok
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            false
        }
    }
}
