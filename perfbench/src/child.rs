//! Runs of this same executable as child processes, each with a fresh
//! heap and a fresh peak-RSS counter: `--workload all` runs each
//! workload in one, `--steady` each seed, and `kv-batch` times its
//! extra set-ups in them (`--setup-once`).

use std::io;
use std::process::{Command, ExitStatus};

use sitm_obs::Json;

/// What a child run printed and how it ended.
pub struct ChildRun {
    /// The child's exit status.
    pub status: ExitStatus,
    /// Everything it wrote to standard output.
    pub stdout: String,
}

impl ChildRun {
    /// The last line of standard output, parsed as JSON.
    pub fn last_json(&self) -> Option<Json> {
        self.stdout.lines().last().and_then(|l| Json::parse(l).ok())
    }
}

/// Runs this executable with `args` and waits for it to end. Standard
/// error is passed through; standard output is captured.
///
/// # Errors
///
/// The executable could not be found or started.
pub fn run(args: &[String]) -> io::Result<ChildRun> {
    let output = Command::new(std::env::current_exe()?)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    Ok(ChildRun {
        status: output.status,
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
    })
}

/// The arguments of an ordinary run of one workload.
pub fn workload_args(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<String> {
    [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec()
}
