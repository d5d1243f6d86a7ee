//! `sim-fig7`: regenerates the paper's Figure 7 grid — {2PL, SONTM,
//! SI-TM} × the ten registry workloads × {8, 16, 32} simulated cores at
//! default scale — through `sitm_bench`'s parallel sweep with two jobs,
//! and checks every regenerated grid byte for byte against the pinned
//! rendering for the benchmark's settings.
//!
//! The grid's inputs are fixed by the paper, so `--seed` does not change
//! them; the simulator's own seed schedule is `sitm_bench::seed_for`.

use std::time::Instant;

use sitm_bench::{
    fmt_ratio, run_cell, seed_for, Cell, CellOutcome, GridPoint, Protocol, SweepRunner,
};
use sitm_mvm::MvmStore;
use sitm_workloads::{all_workloads, Scale};

use crate::procfs::{resident_bytes, ProcSample};
use crate::report::Outcome;
use crate::stats::{median, ratio, weighted_percentile};
use crate::trace::{self, SpanKind, SpanLog};

/// Simulated core counts of Figure 7.
pub const THREADS: [usize; 3] = [8, 16, 32];

/// Host worker threads of the sweep.
pub const JOBS: usize = 2;

/// Set-ups timed per run (`setup_s` is their median): one before the
/// grids, the rest after them, [`crate::SETUP_GAP`] apart.
const SETUP_REPS: usize = 24;

/// The `fig7_abort_rates --seeds 1` rendering at default scale: what
/// every regenerated grid must equal. Each point runs once, with the
/// simulator's first seed (`seed_for(0)`); the repository's
/// `results/fig7_abort_rates.txt` averages 3 seeds, but one keeps a
/// grid near 5 s on a 2-vCPU host, so a run can regenerate several.
pub const PINNED: &str = include_str!("../pinned/fig7_seeds1.txt");

/// The grid's points in Figure 7's display order.
pub fn points(workloads: usize) -> Vec<GridPoint> {
    let mut points = Vec::new();
    for workload in 0..workloads {
        for &cores in &THREADS {
            for protocol in Protocol::PAPER {
                points.push(GridPoint {
                    protocol,
                    workload,
                    cores,
                });
            }
        }
    }
    points
}

fn row(label: &str, cells: &[String]) -> String {
    let mut line = format!("{label:<12}");
    for c in cells {
        line.push_str(&format!(" {c:>10}"));
    }
    line.push('\n');
    line
}

/// Figure 7's text table from the points' abort rates (in [`points`]
/// order), laid out exactly as `fig7_abort_rates --seeds 1` prints it.
pub fn render(names: &[String], abort_rates: &[f64]) -> String {
    let mut out =
        String::from("Figure 7: abort rate relative to 2PL (lower is better; 1.000 = 2PL)\n\n");
    let mut it = abort_rates.iter();
    for name in names {
        out.push_str(&format!("== {name} ==\n"));
        let mut header = vec!["threads".to_string()];
        header.extend(Protocol::PAPER.iter().map(|p| p.name().to_string()));
        header.push("SI abs".to_string());
        out.push_str(&row("", &header));
        for &threads in &THREADS {
            let rates: Vec<f64> = Protocol::PAPER
                .iter()
                .map(|_| *it.next().expect("one result per point"))
                .collect();
            let base = rates[0];
            let mut cells = vec![threads.to_string()];
            cells.extend(rates.iter().map(|&r| match (base == 0.0, r == 0.0) {
                (true, true) => "0".to_string(),
                (true, false) => "inf".to_string(),
                (false, _) => fmt_ratio(r / base),
            }));
            cells.push(format!("{:.2}%", rates[2] * 100.0));
            out.push_str(&row("", &cells));
        }
        out.push('\n');
    }
    out.push_str("paper expectation (32 threads): array ~1/3000 of 2PL, list <1/30,\n");
    out.push_str("intruder ~1/50, vacation <1/100, bayes ~1/20; kmeans/labyrinth/ssca2 ~1.\n");
    out
}

/// Lines of `got` that differ from `pinned` (missing or extra lines
/// count as differing), and the pinned line count.
pub fn diff_lines(got: &str, pinned: &str) -> (u64, u64) {
    let (g, p): (Vec<_>, Vec<_>) = (got.lines().collect(), pinned.lines().collect());
    let differing = (0..g.len().max(p.len()))
        .filter(|&i| g.get(i) != p.get(i))
        .count();
    (differing as u64, p.len() as u64)
}

/// One regenerated grid.
pub struct GridRun {
    /// The rendered table.
    pub text: String,
    /// Every executed cell with its outcome, in cell order.
    pub cells: Vec<(Cell, CellOutcome)>,
    /// Wall seconds of the sweep.
    pub wall_s: f64,
}

impl GridRun {
    fn commits(&self) -> u64 {
        self.cells.iter().map(|(_, o)| o.stats.commits()).sum()
    }
}

/// Runs one cell per grid point on `runner` and renders the table.
/// With `log`, each cell's execution is recorded as a span.
pub fn run_grid(
    names: &[String],
    points: &[GridPoint],
    scale: Scale,
    runner: &SweepRunner,
    log: Option<&mut Vec<SpanLog>>,
    epoch: Instant,
) -> GridRun {
    let cells: Vec<Cell> = points
        .iter()
        .map(|p| Cell {
            protocol: p.protocol,
            scale,
            workload: p.workload,
            cores: p.cores,
            seed: seed_for(0),
        })
        .collect();
    let (outcomes, wall_ms) = match log {
        None => runner.run_timed(cells.clone(), run_cell),
        Some(logs) => {
            let (timed, wall_ms) = runner.run_timed(cells.clone(), |cell| {
                let start = epoch.elapsed().as_nanos() as u64;
                let out = run_cell(cell);
                (out, start, epoch.elapsed().as_nanos() as u64)
            });
            let grid_start = timed.iter().map(|t| t.1).min().unwrap_or(0);
            let grid_end = timed.iter().map(|t| t.2).max().unwrap_or(0);
            let mut log = SpanLog::new(epoch, logs.len(), timed.len() + 1);
            let grid = log.record(
                SpanKind::Grid,
                logs.len() as u64,
                None,
                grid_start,
                grid_end,
            );
            for (i, t) in timed.iter().enumerate() {
                log.record(SpanKind::Cell, i as u64, grid, t.1, t.2);
            }
            logs.push(log);
            (timed.into_iter().map(|t| t.0).collect(), wall_ms)
        }
    };
    let abort_rates: Vec<f64> = outcomes.iter().map(|o| o.stats.abort_rate()).collect();
    GridRun {
        text: render(names, &abort_rates),
        cells: cells.into_iter().zip(outcomes).collect(),
        wall_s: wall_ms / 1e3,
    }
}

/// The grid a run regenerates and the rendering it must reproduce.
struct Fig7<'a> {
    names: Vec<String>,
    points: Vec<GridPoint>,
    pinned: &'a str,
    epoch: Instant,
}

/// Grids run back to back until `seconds` have passed (at least one),
/// each checked against the pinned rendering. Returns them with the
/// process CPU seconds they took.
fn grids_for(
    fig: &Fig7,
    seconds: f64,
    mut logs: Option<&mut Vec<SpanLog>>,
    out: &mut Outcome,
) -> (Vec<GridRun>, f64) {
    let runner = SweepRunner::new(JOBS);
    let p0 = ProcSample::read().unwrap_or_default();
    let t0 = Instant::now();
    let mut grids = Vec::new();
    while grids.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let grid = run_grid(
            &fig.names,
            &fig.points,
            Scale::Default,
            &runner,
            logs.as_deref_mut(),
            fig.epoch,
        );
        let (differing, lines) = diff_lines(&grid.text, fig.pinned);
        out.attempt(lines);
        for _ in 0..differing {
            out.fail("a Figure 7 line differs from the pinned grid");
        }
        grids.push(grid);
    }
    let p1 = ProcSample::read().unwrap_or_default();
    (grids, (p1.user_s - p0.user_s) + (p1.sys_s - p0.sys_s))
}

fn fig_s(grids: &[GridRun]) -> f64 {
    median(&grids.iter().map(|g| g.wall_s).collect::<Vec<_>>())
}

/// One timed set-up: the registry, plus every workload's initial memory
/// image at the grid's largest core count (each cell builds its own
/// again; the first pass also warms the allocator). Returns the
/// workload names and the seconds it took.
fn setup() -> (Vec<String>, f64) {
    let t0 = Instant::now();
    let mut workloads = all_workloads(Scale::Default);
    for w in workloads.iter_mut() {
        let mut store = MvmStore::new();
        w.setup(&mut store, THREADS[THREADS.len() - 1]);
        std::hint::black_box(&store);
    }
    let secs = t0.elapsed().as_secs_f64();
    (
        workloads.iter().map(|w| w.name().to_string()).collect(),
        secs,
    )
}

/// Runs `sim-fig7`. `pinned` is the rendering every grid must equal
/// ([`PINNED`] in real runs).
pub fn run(pinned: &str, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new("sim-fig7");
    let epoch = Instant::now();

    let (names, first_setup) = setup();
    let mut setups = vec![first_setup];

    // A traced run splits the measured phase in thirds: untraced,
    // traced, untraced. Tracing overhead is the traced third against
    // the mean of the other two, so warm-up and drift over the run do
    // not count as overhead.
    let secs = seconds as f64;
    let plain_secs = if traced { secs / 3.0 } else { secs };
    let fig = Fig7 {
        points: points(names.len()),
        names,
        pinned,
        epoch,
    };
    let (plain, cpu) = grids_for(&fig, plain_secs, None, &mut out);
    let commits = plain[0].commits() as f64;
    // A simulated transaction's latency in host time: its cell's wall
    // time over the cell's commits (the cell's median over the grids
    // run). Percentiles are over transactions, so each cell weighs as
    // many commits as it made.
    let per_txn_ns: Vec<(f64, u64)> = (0..plain[0].cells.len())
        .map(|i| {
            let per_grid: Vec<f64> = plain
                .iter()
                .map(|g| {
                    ratio(
                        g.cells[i].1.wall_ms * 1e6,
                        g.cells[i].1.stats.commits() as f64,
                    )
                })
                .collect();
            (median(&per_grid), plain[0].cells[i].1.stats.commits())
        })
        .collect();
    let plain_fig_s = fig_s(&plain);
    out.set("txn_per_s", ratio(commits, plain_fig_s));
    out.set("txn_p50_us", weighted_percentile(&per_txn_ns, 50.0) / 1e3);
    let weighted_ns: f64 = per_txn_ns.iter().map(|&(ns, n)| ns * n as f64).sum();
    out.set("txn_mean_us", ratio(weighted_ns, commits) / 1e3);
    out.set("txn_p99_us", weighted_percentile(&per_txn_ns, 99.0) / 1e3);
    out.set(
        "cpu_us_per_txn",
        ratio(cpu * 1e6, commits * plain.len() as f64),
    );
    out.set("peak_rss_mb", resident_bytes("VmHWM") as f64 / 1e6);
    out.set("fig_s", plain_fig_s);

    if traced {
        let mut logs = Vec::new();
        let (traced_grids, _) = grids_for(&fig, plain_secs, Some(&mut logs), &mut out);
        let (after, _) = grids_for(&fig, plain_secs, None, &mut out);
        let traced_fig_s = fig_s(&traced_grids);
        let untraced_fig_s = (plain_fig_s + fig_s(&after)) / 2.0;
        let n = traced_grids.len() as f64;
        for p in Protocol::PAPER {
            let cells = || {
                traced_grids
                    .iter()
                    .flat_map(|g| &g.cells)
                    .filter(move |(c, _)| c.protocol == p)
            };
            let cell_ms: f64 = cells().map(|(_, o)| o.wall_ms).sum();
            let ops: u64 = cells()
                .map(|(_, o)| o.stats.reads() + o.stats.writes())
                .sum();
            let committed: u64 = cells().map(|(_, o)| o.stats.commits()).sum();
            let attempts: u64 = cells()
                .map(|(_, o)| o.stats.commits() + o.stats.aborts())
                .sum();
            let (cell_s, ns_per_op, useful) = match p {
                Protocol::TwoPl => (
                    "sim.cell_s.2PL",
                    "sim.ns_per_op.2PL",
                    "sim.useful_ratio.2PL",
                ),
                Protocol::Sontm => (
                    "sim.cell_s.SONTM",
                    "sim.ns_per_op.SONTM",
                    "sim.useful_ratio.SONTM",
                ),
                _ => (
                    "sim.cell_s.SI-TM",
                    "sim.ns_per_op.SI-TM",
                    "sim.useful_ratio.SI-TM",
                ),
            };
            out.set(cell_s, cell_ms / 1e3 / n);
            out.set(ns_per_op, ratio(cell_ms * 1e6, ops as f64));
            out.set(useful, ratio(committed as f64, attempts as f64));
        }
        let first = &traced_grids[0];
        let ops: u64 = first
            .cells
            .iter()
            .map(|(_, o)| o.stats.reads() + o.stats.writes())
            .sum();
        out.set("sim.ops", ops as f64);
        let cell_s: f64 = traced_grids
            .iter()
            .flat_map(|g| &g.cells)
            .map(|(_, o)| o.wall_ms / 1e3)
            .sum();
        let wall_s: f64 = traced_grids.iter().map(|g| g.wall_s).sum();
        out.set("sim.sweep_imbalance", ratio(wall_s * JOBS as f64, cell_s));
        out.set("trace.fig_s_delta", traced_fig_s - untraced_fig_s);
        out.set(
            "trace.txn_per_s_delta",
            ratio(commits, traced_fig_s) - ratio(commits, untraced_fig_s),
        );
        let kept: usize = logs.iter().map(SpanLog::kept).sum();
        out.set("trace.spans", kept as f64);
        let path = trace::default_path("sim-fig7", 0);
        match trace::write_jsonl(&logs, &path) {
            Ok(()) => println!("sim-fig7: spans written to {}", path.display()),
            Err(e) => eprintln!("sim-fig7: could not write spans to {}: {e}", path.display()),
        }
    }
    for _ in 1..SETUP_REPS {
        std::thread::sleep(crate::SETUP_GAP);
        setups.push(setup().1);
    }
    out.set("setup_s", median(&setups));
    if traced {
        out.set("workloads.build_ms", median(&setups) * 1e3);
    }
    out.set(
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_counts_changed_missing_and_extra_lines() {
        assert_eq!(diff_lines("a\nb\nc\n", "a\nb\nc\n"), (0, 3));
        assert_eq!(diff_lines("a\nx\nc\n", "a\nb\nc\n"), (1, 3));
        assert_eq!(diff_lines("a\nb\n", "a\nb\nc\n"), (1, 3));
        assert_eq!(diff_lines("a\nb\nc\nd\n", "a\nb\nc\n"), (1, 3));
    }

    #[test]
    fn pinned_grid_has_one_row_per_workload_and_core_count() {
        let rows = PINNED
            .lines()
            .filter(|l| l.trim_end().ends_with('%'))
            .count();
        assert_eq!(rows, 10 * THREADS.len());
    }

    #[test]
    fn quick_grid_renders_deterministically_and_a_perturbed_pin_fails() {
        let names: Vec<String> = all_workloads(Scale::Quick)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        let pts = points(names.len());
        let runner = SweepRunner::new(JOBS);
        let a = run_grid(&names, &pts, Scale::Quick, &runner, None, Instant::now());
        let mut logs = Vec::new();
        let b = run_grid(
            &names,
            &pts,
            Scale::Quick,
            &SweepRunner::new(1),
            Some(&mut logs),
            Instant::now(),
        );
        assert_eq!(
            a.text, b.text,
            "job count and tracing must not change the grid"
        );
        assert_eq!(a.cells.len(), pts.len());
        assert_eq!(logs[0].total(SpanKind::Cell).1, pts.len() as u64);
        let perturbed = a.text.replacen("1.000", "1.001", 1);
        assert_eq!(diff_lines(&a.text, &perturbed).0, 1);
    }
}
