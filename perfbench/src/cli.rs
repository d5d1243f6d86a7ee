//! Strict command-line parsing: an unknown flag, a missing value or an
//! unparsable number is an error (exit 2 with usage), never a silent
//! fallback to defaults.

use std::fmt;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["kv-batch", "kv-contended", "sim-fig7"];

/// Usage text printed by `--help` and after every parse error.
pub const USAGE: &str = "\
usage: perfbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--steady N]
       perfbench --workload kv-batch|kv-contended --setup-once

  --workload NAME   kv-batch | kv-contended | sim-fig7 | all (default all)
  --seed N          workload seed; equal seeds issue equal request streams (default 1)
  --seconds N       length of the measured phase, seconds, >= 1 (default 10)
  --trace 0|1       1: report per-layer metrics from a traced run (default 0)
  --steady N        run N seeds of each selected workload as child processes and
                    print median, quartiles and spread against BENCHMARK.json bounds
  --setup-once      time one set-up of the kv workload (server start, funding,
                    connects), print its seconds as the last line and exit;
                    kv-batch times its extra set-ups this way, each in a fresh
                    process
  -h, --help        print this text

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every output checked out,
1 when a correctness check failed or the run could not complete, 2 on bad usage.";

/// Parsed options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Workloads to run, in order.
    pub workloads: Vec<&'static str>,
    /// Workload seed.
    pub seed: u64,
    /// Measured-phase length in seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// `Some(n)`: steadiness mode over `n` seeds.
    pub steady: Option<u64>,
    /// Time one kv set-up and exit.
    pub setup_once: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workloads: WORKLOADS.to_vec(),
            seed: 1,
            seconds: 10,
            trace: false,
            steady: None,
            setup_once: false,
        }
    }
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run with these options.
    Run(Opts),
    /// Print usage and exit 0.
    Help,
}

/// A command-line error; the message names the offending argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn number(flag: &str, value: &str, min: u64) -> Result<u64, UsageError> {
    match value.parse::<u64>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(UsageError(format!(
            "{flag} must be at least {min}, got {value}"
        ))),
        Err(_) => Err(UsageError(format!(
            "{flag} needs a whole number, got {value:?}"
        ))),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A [`UsageError`] for an unknown flag, a flag without its value, or a
/// value out of range.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(Command::Help);
        }
        if flag == "--setup-once" {
            opts.setup_once = true;
            continue;
        }
        let known = ["--workload", "--seed", "--seconds", "--trace", "--steady"];
        if !known.contains(&flag.as_str()) {
            return Err(UsageError(format!("unknown argument {flag:?}")));
        }
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                opts.workloads = match value.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    name => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| UsageError(format!("unknown workload {name:?}")))?],
                }
            }
            "--seed" => opts.seed = number(flag, value, 0)?,
            "--seconds" => opts.seconds = number(flag, value, 1)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(UsageError(format!("--trace takes 0 or 1, got {value:?}"))),
                }
            }
            "--steady" => opts.steady = Some(number(flag, value, 2)?),
            _ => unreachable!("flag list checked above"),
        }
    }
    if opts.setup_once && !matches!(opts.workloads[..], ["kv-batch" | "kv-contended"]) {
        return Err(UsageError(
            "--setup-once takes --workload kv-batch or kv-contended".into(),
        ));
    }
    Ok(Command::Run(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_and_driver_style_arguments() {
        assert_eq!(parse(&[]), Ok(Command::Run(Opts::default())));
        let Ok(Command::Run(o)) =
            parse(&args("--workload kv-batch --seed 7 --seconds 3 --trace 1"))
        else {
            panic!("valid arguments")
        };
        assert_eq!(o.workloads, vec!["kv-batch"]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3, true));
        assert_eq!(parse(&args("--seed 1 --help")), Ok(Command::Help));
        let Ok(Command::Run(o)) = parse(&args("--setup-once --workload kv-contended")) else {
            panic!("valid arguments")
        };
        assert!(o.setup_once);
        assert_eq!(o.workloads, vec!["kv-contended"]);
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "--pipline 256",
            "--seed",
            "--seed x",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--workload kv",
            "--steady 1",
            "--plant-fault total",
            "--setup-once",
            "--setup-once --workload sim-fig7",
            "--setup-once 1 --workload kv-batch",
            "kv-batch",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
