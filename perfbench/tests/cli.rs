//! End-to-end tests of the `perfbench` executable: strict usage and the
//! result line's contract.

use std::process::{Command, Output};

use sitm_obs::Json;
use sitm_perfbench::report::{valid_name, valid_unit, END_TO_END, PER_LAYER};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("last line is JSON")
}

#[test]
fn help_exits_zero_and_bad_usage_exits_two() {
    let help = perfbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: perfbench"));
    for bad in [
        &["--pipline", "256"][..],
        &["--seed"],
        &["--seconds", "ten"],
        &["--trace", "yes"],
    ] {
        let out = perfbench(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "no result line on bad usage");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: perfbench"));
    }
}

#[test]
fn kv_contended_run_reports_every_end_to_end_metric() {
    let out = perfbench(&[
        "--workload",
        "kv-contended",
        "--seconds",
        "1",
        "--seed",
        "3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(metrics.len(), END_TO_END.len());
    for m in END_TO_END {
        let entry = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value > 0.0, "{} = {value}", m.name);
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("request-stream digest"));
    assert!(stdout.contains("scan_p50_us"));
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let out = perfbench(&[
        "--workload",
        "kv-contended",
        "--seconds",
        "2",
        "--trace",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(&out);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(metrics.len(), PER_LAYER.len());
    let value = |name: &str| {
        metrics[name]
            .get("value")
            .and_then(Json::as_f64)
            .expect("value")
    };
    assert_eq!(value("stm.reader_aborts"), 0.0);
    assert!(value("client.rtt_us") > 0.0);
    assert!(value("stm.abort_ratio") > 0.0, "hot keys must conflict");
    assert!(value("trace.spans") > 0.0);
    assert_eq!(value("sim.ops"), 0.0, "the simulator does no work here");
}

#[test]
fn benchmark_json_matches_the_metric_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string();
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string();
                assert!(valid_name(&name) && valid_unit(&unit), "{name} [{unit}]");
                (name, unit)
            })
            .collect()
    };
    let catalog = |set: &[sitm_perfbench::report::Metric]| -> Vec<(String, String)> {
        set.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalog(END_TO_END));
    assert_eq!(listed("per_layer"), catalog(PER_LAYER));
    let workloads: Vec<_> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, sitm_perfbench::cli::WORKLOADS);
}

#[test]
fn setup_once_prints_its_seconds() {
    let out = perfbench(&["--workload", "kv-contended", "--setup-once"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let secs: f64 = stdout.trim().parse().expect("seconds");
    assert!(secs > 0.0 && secs < 10.0, "{secs}");
}

#[test]
fn all_runs_each_workload_in_its_own_process() {
    let out = perfbench(&["--workload", "all", "--seconds", "1", "--seed", "2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(metrics.len(), 3 * END_TO_END.len());
    assert!(
        metrics.keys().all(|k| valid_name(k)),
        "{:?}",
        metrics.keys()
    );
    let value = |name: &str| {
        metrics[name]
            .get("value")
            .and_then(Json::as_f64)
            .expect("value")
    };
    // Each workload's peak is its own: 2^20 funded keys take hundreds of
    // MB, 1,024 keys a few.
    let (batch, contended) = (
        value("kv-batch.peak_rss_mb"),
        value("kv-contended.peak_rss_mb"),
    );
    assert!(contended * 10.0 < batch, "{contended} MB vs {batch} MB");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for w in ["kv-batch", "kv-contended", "sim-fig7"] {
        assert!(
            stdout.contains(&format!("== {w} ==")),
            "{w}'s table relayed"
        );
    }
}
