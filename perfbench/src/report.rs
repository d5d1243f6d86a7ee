//! The metric catalog and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are exactly the metric lists of the
//! repository's `BENCHMARK.json` (a test holds them equal): an
//! untraced run reports every end-to-end metric, a traced run every
//! per-layer metric, on every workload. A layer that does no work on a
//! workload reports 0 there. `EXTRA` metrics are printed in the table
//! but kept out of the result line.

use std::collections::BTreeMap;

use sitm_obs::json::Json;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: what a user of the service or the simulator sees.
///
/// The typical transaction latency is gated as a mean, not a median:
/// on `kv-contended` transfer latency has two modes of near-equal mass
/// (transfers that overlap a scan run about 2.5x slower on two vCPUs),
/// so the median falls in the gap between them and swings between
/// runs by more than any usable bound. `txn_p50_us` is still printed.
pub const END_TO_END: &[Metric] = &[
    m("txn_per_s", "1/s"),
    m("txn_mean_us", "us"),
    m("txn_p99_us", "us"),
    m("cpu_us_per_txn", "us"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// End-to-end metrics printed in the table but kept out of the result
/// line: the median (see [`END_TO_END`]) and those of a single workload
/// (the result line carries the same set on every workload).
pub const EXTRA: &[Metric] = &[
    m("txn_p50_us", "us"),
    m("scan_p50_us", "us"),
    m("scan_p99_us", "us"),
    m("fig_s", "s"),
    m("failed_ratio", "ratio"),
];

/// Per-layer metrics, named after the repository's modules.
pub const PER_LAYER: &[Metric] = &[
    m("client.encode_ns", "ns"),
    m("client.write_ns", "ns"),
    m("client.recv_wait_ns", "ns"),
    m("wire.decode_ns", "ns"),
    m("client.rtt_us", "us"),
    m("reactor.wakeups_per_txn", "count"),
    m("reactor.frames_per_wake", "count"),
    m("reactor.backpressure_pauses", "count"),
    m("server.txns_per_batch", "count"),
    m("server.retries_per_txn", "count"),
    m("server.flush_size_share", "ratio"),
    m("server.flush_drain_share", "ratio"),
    m("server.flush_deadline_share", "ratio"),
    m("server.txn_p50_us", "us"),
    m("server.read_p50_us", "us"),
    m("server.commit_p50_us", "us"),
    m("server.rtt_share", "ratio"),
    m("store.bytes_per_key", "B"),
    m("store.versions_per_key", "count"),
    m("store.gc_ticks", "count"),
    m("store.gc_reclaimed_per_tick", "count"),
    m("stm.abort_ratio", "ratio"),
    m("stm.backoff_ns_per_txn", "ns"),
    m("stm.reader_aborts", "count"),
    m("stm.versions_retired_per_txn", "count"),
    m("stm.watermark_lag_max", "count"),
    m("os.user_us_per_txn", "us"),
    m("os.sys_us_per_txn", "us"),
    m("os.ctx_switches_per_txn", "count"),
    m("sim.cell_s.2PL", "s"),
    m("sim.cell_s.SONTM", "s"),
    m("sim.cell_s.SI-TM", "s"),
    m("sim.ns_per_op.2PL", "ns"),
    m("sim.ns_per_op.SONTM", "ns"),
    m("sim.ns_per_op.SI-TM", "ns"),
    m("sim.ops", "count"),
    m("sim.useful_ratio.2PL", "ratio"),
    m("sim.useful_ratio.SONTM", "ratio"),
    m("sim.useful_ratio.SI-TM", "ratio"),
    m("sim.sweep_imbalance", "ratio"),
    m("workloads.build_ms", "ms"),
    m("trace.txn_per_s_delta", "1/s"),
    m("trace.fig_s_delta", "s"),
    m("trace.spans", "count"),
];

/// Whether `name` is a legal metric name: 1 to 64 ASCII letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The unit of any catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(EXTRA)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalog (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    /// Counts `n` attempted operations or checks.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failure and keeps its description if it is among the
    /// first few.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Folds another outcome's counts and failures into this one.
    pub fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics the result line carries: every end-to-end metric, or
    /// with `trace` every per-layer metric (0 where the layer did no
    /// work).
    pub fn line_metrics(&self, trace: bool) -> Vec<(Metric, f64)> {
        let set = if trace { PER_LAYER } else { END_TO_END };
        set.iter()
            .map(|&m| (m, self.values.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The human-readable table: every measured metric with its unit.
    pub fn table(&self, trace: bool) -> String {
        let mut out = format!("== {} ==\n", self.workload);
        let mut sets = vec![END_TO_END, EXTRA];
        if trace {
            sets.push(PER_LAYER);
        }
        for metric in sets.into_iter().flatten() {
            if let Some(v) = self.values.get(metric.name) {
                out.push_str(&format!(
                    "  {:<30} {:>16.4} {}\n",
                    metric.name, v, metric.unit
                ));
            }
        }
        out.push_str(&format!(
            "  attempted {} failed {}{}\n",
            self.attempted,
            self.failed,
            if self.correct() {
                ""
            } else {
                "  ** CHECK FAILED **"
            }
        ));
        for f in &self.failures {
            out.push_str(&format!("  failure: {f}\n"));
        }
        out
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = outcome
        .line_metrics(trace)
        .into_iter()
        .map(|(m, v)| {
            let entry = Json::obj([("value", Json::Num(v)), ("unit", Json::Str(m.unit.into()))]);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

/// The result line of several workloads from each one's own result
/// line: the counts are summed, `correct` holds only if it holds for
/// every workload, and metric names are prefixed `<workload>.`.
///
/// # Errors
///
/// A workload's line that lacks one of the contract's keys.
pub fn merge_lines(lines: &[(&str, Json)]) -> Result<String, String> {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = BTreeMap::new();
    for (workload, line) in lines {
        let fields = (
            line.get("correct").and_then(Json::as_bool),
            line.get("attempted").and_then(Json::as_u64),
            line.get("failed").and_then(Json::as_u64),
            line.get("metrics"),
        );
        let (Some(c), Some(a), Some(f), Some(Json::Obj(ms))) = fields else {
            return Err(format!("{workload}: malformed result line"));
        };
        correct &= c;
        attempted += a;
        failed += f;
        for (name, entry) in ms {
            metrics.insert(format!("{workload}.{name}"), entry.clone());
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("txn_p50_us"));
        assert!(valid_name("sim.useful_ratio.SI-TM"));
        assert!(valid_name("2pl.cells"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("micro seconds") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(EXTRA).chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
        }
        let mut names: Vec<_> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new("kv-batch");
        o.attempt(10);
        o.set("txn_per_s", 123.25);
        let line = Json::parse(&result_line(&o, false)).expect("valid JSON");
        let Json::Obj(map) = &line else {
            panic!("object")
        };
        let keys: Vec<_> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").expect("metrics");
        let Json::Obj(metrics) = metrics else {
            panic!("object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let tps = metrics.get("txn_per_s").expect("present");
        assert_eq!(tps.get("value").and_then(Json::as_f64), Some(123.25));
        assert_eq!(tps.get("unit").and_then(Json::as_str), Some("1/s"));

        o.fail("scan sum off by one");
        let line = Json::parse(&result_line(&o, true)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("object")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn merged_line_prefixes_valid_names_and_sums_counts() {
        let mut lines = Vec::new();
        for (workload, fail) in [("kv-batch", false), ("sim-fig7", true)] {
            let mut o = Outcome::new(workload);
            o.attempt(5);
            o.set("txn_per_s", 10.5);
            if fail {
                o.fail("grid line differs");
            }
            let line = Json::parse(&result_line(&o, false)).expect("valid JSON");
            lines.push((workload, line));
        }
        let merged = Json::parse(&merge_lines(&lines).expect("well formed")).expect("valid JSON");
        let Json::Obj(map) = &merged else {
            panic!("object")
        };
        let keys: Vec<_> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(merged.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(merged.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(merged.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = merged.get("metrics") else {
            panic!("object")
        };
        assert_eq!(metrics.len(), 2 * END_TO_END.len());
        assert!(
            metrics.keys().all(|k| valid_name(k)),
            "{:?}",
            metrics.keys()
        );
        let tps = &metrics["sim-fig7.txn_per_s"];
        assert_eq!(tps.get("value").and_then(Json::as_f64), Some(10.5));
        assert!(merge_lines(&[("kv-batch", Json::obj([]))]).is_err());
    }
}
