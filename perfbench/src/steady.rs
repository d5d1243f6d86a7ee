//! Steadiness mode (`--steady N`): runs each selected workload N times
//! as child processes with seeds 1..=N and prints, for every
//! end-to-end metric, the median, the quartiles and the spread
//! (interquartile distance over median) against the metric's bound in
//! `BENCHMARK.json`, then each run's value in seed order. The children
//! are this same executable, so the numbers are those of ordinary runs.
//! Each run's stolen CPU time (`/proc/stat`) is printed with them: on a
//! shared virtual machine, a run that the hypervisor slowed shows there.

use std::collections::BTreeMap;

use sitm_obs::Json;

use crate::child;
use crate::procfs::steal_s;
use crate::report::END_TO_END;
use crate::stats::{median, quartiles, spread};

/// Bounds by metric name, read from a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> BTreeMap<String, f64> {
    let Ok(doc) = Json::parse(benchmark_json) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Runs the sets and prints the table. Returns whether every child
/// succeeded and every spread stayed within its bound.
pub fn run(workloads: &[&str], sets: u64, seconds: u64) -> bool {
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map(|t| bounds(&t))
        .unwrap_or_default();
    if bounds.is_empty() {
        eprintln!("steady: no bounds (BENCHMARK.json not readable in the working directory)");
    }
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for &workload in workloads {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut steals = Vec::new();
        for seed in 1..=sets {
            let steal0 = steal_s();
            let run = child::run(&child::workload_args(workload, seed, seconds, false));
            steals.push(format!("{:.2}", steal_s() - steal0));
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("steady: {workload} seed {seed} could not start: {e}");
                    ok = false;
                    continue;
                }
            };
            let line = run.last_json();
            let correct = line
                .as_ref()
                .and_then(|l| l.get("correct"))
                .and_then(Json::as_bool);
            if !run.status.success() || correct != Some(true) {
                eprintln!("steady: {workload} seed {seed} failed ({})", run.status);
                ok = false;
                continue;
            }
            let metrics = line.as_ref().and_then(|l| l.get("metrics"));
            for m in END_TO_END {
                if let Some(v) = metrics
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64)
                {
                    values.entry(m.name).or_default().push(v);
                }
            }
        }
        for m in END_TO_END {
            let Some(v) = values.get(m.name) else {
                continue;
            };
            let Some([q1, _, q3]) = quartiles(v) else {
                continue;
            };
            let s = spread(v).unwrap_or(f64::INFINITY);
            let bound = bounds.get(m.name).copied();
            let verdict = match bound {
                Some(b) if s > b => {
                    ok = false;
                    "OVER"
                }
                Some(b) if s > b / 3.0 => "wide",
                Some(_) => "ok",
                None => "-",
            };
            println!(
                "{workload:<14} {:<16} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6} {verdict}",
                m.name,
                median(v),
                q1,
                q3,
                s,
                bound.map_or("-".to_string(), |b| format!("{b}")),
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("{:<31} runs: {}", "", runs.join(" "));
        }
        println!("{workload:<14} steal_s per run: {}", steals.join(" "));
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_come_from_the_end_to_end_list() {
        let text = r#"{"end_to_end": [{"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
                        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                       "per_layer": [{"name": "x", "unit": "count", "better": "higher"}]}"#;
        let b = bounds(text);
        assert_eq!(b.len(), 2);
        assert_eq!(b["txn_per_s"], 0.15);
        assert_eq!(b["setup_s"], 0.25);
        assert!(bounds("not json").is_empty());
    }
}
