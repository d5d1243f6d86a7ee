//! Process-wide resource readings from `/proc/self`: CPU time, memory
//! and context switches of every thread in the benchmark process (the
//! server and its load generator share it).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every mainstream Linux
/// architecture).
pub const CLOCK_TICKS_PER_S: u64 = 100;

/// User and system CPU of the whole process, in clock ticks, parsed
/// from the text of `/proc/self/stat`. The command name (field 2) may
/// itself hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3; utime and stime are 14 and 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Voluntary plus involuntary context switches from the text of one
/// task's `/proc/<pid>/task/<tid>/status`.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        status_field(status, "voluntary_ctxt_switches")?
            + status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// The number on a `<key>:  <n> [kB]` line of `/proc/<pid>/status`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k == key).then(|| v.split_whitespace().next()?.parse().ok())?
    })
}

/// CPU time the hypervisor took from this machine's virtual CPUs
/// (`steal`, the eighth number of the `cpu` line), in clock ticks, from
/// the text of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().next()?;
    let mut fields = line.split_whitespace();
    (fields.next()? == "cpu").then_some(())?;
    fields.nth(7)?.parse().ok()
}

/// Seconds of stolen CPU so far, summed over the virtual CPUs (0 where
/// `/proc/stat` cannot be read).
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(0.0, |t| t as f64 / CLOCK_TICKS_PER_S as f64)
}

/// One reading of the process's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds, all threads, live and exited.
    pub user_s: f64,
    /// System CPU seconds, all threads, live and exited.
    pub sys_s: f64,
    /// Context switches summed over the threads alive at the reading.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Reads `/proc/self/stat` and every `/proc/self/task/*/status`.
    pub fn read() -> Option<ProcSample> {
        let (utime, stime) = parse_stat_cpu_ticks(&fs::read_to_string("/proc/self/stat").ok()?)?;
        let mut ctx_switches = 0;
        for task in fs::read_dir("/proc/self/task").ok()?.flatten() {
            // A thread may exit between listing and reading.
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                ctx_switches += parse_ctx_switches(&status).unwrap_or(0);
            }
        }
        Some(ProcSample {
            user_s: utime as f64 / CLOCK_TICKS_PER_S as f64,
            sys_s: stime as f64 / CLOCK_TICKS_PER_S as f64,
            ctx_switches,
        })
    }
}

/// The process's current (`VmRSS`) or peak (`VmHWM`) resident set, in
/// bytes; 0 when `/proc` is unreadable.
pub fn resident_bytes(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, key))
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "30019 (cat) R 29974 30019 29974 0 -1 4194304 83 0 0 0 \
                    17 5 0 0 20 0 1 0 161136 2703360 306";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((17, 5)));
        // A command name with spaces and a `)` must not shift fields.
        let odd = "7 (a) b (c)) S 1 7 7 0 -1 0 0 0 0 0 1234 56 0 0 20 0 9 0";
        assert_eq!(parse_stat_cpu_ticks(odd), Some((1234, 56)));
        assert_eq!(parse_stat_cpu_ticks("7 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_lines_parse_to_numbers() {
        let status = "Name:\tperfbench\nVmHWM:\t    1792 kB\nVmRSS:\t    1700 kB\n\
                      voluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(1792));
        assert_eq!(status_field(status, "VmRSS"), Some(1700));
        assert_eq!(status_field(status, "VmSwap"), None);
        assert_eq!(parse_ctx_switches(status), Some(13));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_number_of_the_cpu_line() {
        let stat = "cpu  832989 0 260333 612864 345 0 120633 23264 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(23264));
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("intr 1 2 3 4 5 6 7 8 9\n"), None);
    }

    #[test]
    fn live_process_readings_are_plausible() {
        let sample = ProcSample::read().expect("/proc/self is readable on Linux");
        assert!(sample.user_s >= 0.0 && sample.sys_s >= 0.0);
        assert!(resident_bytes("VmHWM") >= resident_bytes("VmRSS").min(1));
        assert!(resident_bytes("VmRSS") > 0);
    }
}
