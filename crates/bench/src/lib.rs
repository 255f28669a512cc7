//! Shared harness for the figure-reproduction experiment binaries.
//!
//! Every binary in `src/bin/` reproduces one figure of the paper (see
//! `DESIGN.md` §4 for the experiment index). This library centralises the
//! pieces they share: the scale model mapping the paper's physical setup
//! (1 TB disks, month-long traces) onto laptop-sized runs, trace
//! construction per server profile, and the policy-factory used to run the
//! same trace through xLRU, Cafe and Psychic.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod scenario;
pub mod telemetry;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    XlruCache,
};
use vcdn_obs::{WindowRing, WindowStats};
use vcdn_sim::runner::{run_grid, worker_count, Cell, GridRun};
use vcdn_sim::{ReplayConfig, ReplayReport, Replayer};
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs};

/// The paper's reference disk size (Figures 3–5, 7): 1 TB.
pub const PAPER_DISK_BYTES: u64 = 1024 * 1024 * 1024 * 1024;

/// Experiment scale: all volumes (disk, catalog, request rate) shrink by
/// the same linear factor, preserving the disk-to-working-set ratios that
/// drive the paper's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The default experiment scale (1/16 of the paper's physical setup).
    pub fn default_experiment() -> Self {
        Scale(1.0 / 16.0)
    }

    /// Reads the scale from the `--scale <f>` CLI flag (see
    /// [`arg_flag`]), if present; falls back to the default.
    pub fn from_args() -> Self {
        match arg_flag::<f64>("scale") {
            Some(v) => {
                assert!(v > 0.0 && v.is_finite(), "--scale must be positive");
                Scale(v)
            }
            None => Self::default_experiment(),
        }
    }

    /// The scaled chunk count for a paper-scale disk of `bytes`.
    pub fn disk_chunks(&self, bytes: u64, k: ChunkSize) -> u64 {
        (((bytes as f64 * self.0) / k.bytes() as f64).round() as u64).max(1)
    }

    /// Scales a server profile's volume knobs.
    pub fn profile(&self, p: ServerProfile) -> ServerProfile {
        p.scaled(self.0)
    }
}

/// The workload seed used across all experiments (recorded in
/// `EXPERIMENTS.md`; change it and every number changes together).
pub const EXPERIMENT_SEED: u64 = 20140413; // EuroSys'14 opening day

/// The value of the first `--name <value>` pair in `args`: `Ok(None)`
/// when the flag is absent, an error naming the flag and the value when
/// the value does not parse as `T`.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    match args.windows(2).find(|w| w[0] == flag) {
        None => Ok(None),
        Some(w) => w[1]
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse '{}'", w[1])),
    }
}

/// Reads a `--name <value>` CLI flag; `None` when absent, so the caller's
/// default applies. A value that does not parse ends the process with
/// exit code 2 and the [`parse_flag`] message, instead of silently
/// running at the default.
pub fn arg_flag<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Whether a bare `--name` CLI switch is present.
pub fn arg_switch(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// Writes a bench result document (plus a trailing newline) to `path`,
/// creating its directory first, and logs the path under `[tool]`.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_result(tool: &str, path: &str, json: impl std::fmt::Display) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, format!("{json}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("[{tool}] wrote {path}");
}

/// Experiment duration in days (`--days`, default 30 — the paper's
/// "one month period").
pub fn arg_days() -> u64 {
    arg_flag("days").unwrap_or(30)
}

/// Generates a scaled trace for a profile.
pub fn trace_for(profile: ServerProfile, scale: Scale, days: u64) -> Trace {
    TraceGenerator::new(scale.profile(profile), EXPERIMENT_SEED)
        .generate(DurationMs::from_days(days))
}

/// The three algorithms of the paper's main experiments, in figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Baseline LRU (context only; not in the paper's figures).
    Lru,
    /// xLRU (§5).
    Xlru,
    /// Cafe (§6).
    Cafe,
    /// Psychic (§8).
    Psychic,
}

impl Algo {
    /// The paper's three compared algorithms, in bar-group order.
    pub fn paper_three() -> [Algo; 3] {
        [Algo::Xlru, Algo::Cafe, Algo::Psychic]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Lru => "lru",
            Algo::Xlru => "xlru",
            Algo::Cafe => "cafe",
            Algo::Psychic => "psychic",
        }
    }

    /// Builds the policy for a trace (Psychic needs the trace itself).
    pub fn build(
        &self,
        trace: &Trace,
        disk_chunks: u64,
        k: ChunkSize,
        costs: CostModel,
    ) -> Box<dyn CachePolicy> {
        let cache = CacheConfig::new(disk_chunks, k, costs);
        match self {
            Algo::Lru => Box::new(LruCache::new(cache)),
            Algo::Xlru => Box::new(XlruCache::new(cache)),
            Algo::Cafe => Box::new(CafeCache::new(CafeConfig {
                cache,
                ..CafeConfig::new(disk_chunks, k, costs)
            })),
            Algo::Psychic => Box::new(PsychicCache::new(
                PsychicConfig::new(disk_chunks, k, costs),
                &trace.requests,
            )),
        }
    }
}

/// Replays `trace` through one algorithm and reports.
pub fn run_algo(
    algo: Algo,
    trace: &Trace,
    disk_chunks: u64,
    k: ChunkSize,
    costs: CostModel,
) -> ReplayReport {
    let mut policy = algo.build(trace, disk_chunks, k, costs);
    Replayer::new(ReplayConfig::bench(k, costs)).replay(trace, policy.as_mut())
}

/// Like [`run_algo`], also returning the replay's hourly traffic windows
/// (window `i` covers trace hour `i`), collected by a [`WindowRing`]
/// observer — the per-window series behind Figure 3.
pub fn run_algo_hourly(
    algo: Algo,
    trace: &Trace,
    disk_chunks: u64,
    k: ChunkSize,
    costs: CostModel,
) -> (ReplayReport, Vec<WindowStats>) {
    let mut policy = algo.build(trace, disk_chunks, k, costs);
    let mut hours = WindowRing::new(DurationMs::HOUR.as_millis(), usize::MAX);
    let report = Replayer::new(ReplayConfig::bench(k, costs)).replay_observed(
        trace,
        policy.as_mut(),
        &mut hours,
    );
    (report, hours.snapshot_windows())
}

/// Replays `trace` through xLRU, Cafe and Psychic (figure order) with
/// `run` ([`run_algo`] or [`run_algo_hourly`]) via the deterministic grid
/// runner, at most one worker per algorithm.
pub fn run_paper_three<T: Send>(
    trace: &Trace,
    disk_chunks: u64,
    k: ChunkSize,
    costs: CostModel,
    run: fn(Algo, &Trace, u64, ChunkSize, CostModel) -> T,
) -> Vec<T> {
    let cells: Vec<Cell<T>> = Algo::paper_three()
        .into_iter()
        .map(|a| Cell::new(a.name(), move || run(a, trace, disk_chunks, k, costs)))
        .collect();
    run_grid(cells, grid_workers().min(3)).values()
}

/// Worker threads for experiment grids: the `VCDN_WORKERS` environment
/// variable if set, else available parallelism (see
/// [`vcdn_sim::runner::worker_count`]).
pub fn grid_workers() -> usize {
    worker_count()
}

/// Runs an experiment grid with a shared progress/timing report on stderr:
/// one line per finished cell, then totals with the measured speedup over
/// a sequential run (sum of per-cell wall times / grid wall time).
///
/// Results are deterministic: identical (labels and values) for any worker
/// count — set `VCDN_WORKERS=1` to force a sequential run.
pub fn sweep<'a, T: Send>(title: &str, cells: Vec<Cell<'a, T>>) -> GridRun<T> {
    let workers = grid_workers();
    let total = cells.len();
    eprintln!("[{title}] {total} cells on {workers} worker(s)");
    let done = AtomicUsize::new(0);
    let done = &done;
    let wrapped: Vec<Cell<T>> = cells
        .into_iter()
        .map(|cell| {
            let (label, job) = cell.into_parts();
            let echo = label.clone();
            let title = title.to_string();
            Cell::new(label, move || {
                let t0 = Instant::now();
                let value = job();
                let i = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{title}] {i}/{total} done: {echo} ({:.2?})", t0.elapsed());
                value
            })
        })
        .collect();
    let run = run_grid(wrapped, workers);
    eprintln!(
        "[{title}] total {:.2?}; cells sum {:.2?}; speedup {:.2}x on {} worker(s)",
        run.total_wall,
        run.cell_wall_sum(),
        run.speedup(),
        run.workers,
    );
    run
}

/// Times `iters` runs of `f` (after one warm-up run) and prints the mean
/// per-iteration time. A dependency-free stand-in for a bench harness,
/// used by the `harness = false` benches under `benches/`.
pub fn bench_report(name: &str, iters: u32, mut f: impl FnMut()) -> Duration {
    assert!(iters > 0, "bench needs at least one iteration");
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed() / iters;
    println!("{name:<48} {iters:>6} iters   {per:>12.2?}/iter");
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flag_reads_values_and_defaults_when_absent() {
        let argv = args(&["bin", "--days", "4", "--csv", "--out", "x.json"]);
        assert_eq!(parse_flag::<u64>(&argv, "days"), Ok(Some(4)));
        assert_eq!(
            parse_flag::<String>(&argv, "out"),
            Ok(Some("x.json".to_string()))
        );
        assert_eq!(parse_flag::<u64>(&argv, "reps"), Ok(None));
        // A trailing flag with no value is absent, not an error.
        assert_eq!(
            parse_flag::<u64>(&args(&["bin", "--days"]), "days"),
            Ok(None)
        );
        // The first occurrence wins.
        let twice = args(&["bin", "--days", "2", "--days", "9"]);
        assert_eq!(parse_flag::<u64>(&twice, "days"), Ok(Some(2)));
    }

    #[test]
    fn parse_flag_rejects_unparsable_values() {
        let argv = args(&["bin", "--interval-mins", "6h"]);
        assert_eq!(
            parse_flag::<u64>(&argv, "interval-mins"),
            Err("--interval-mins: cannot parse '6h'".to_string())
        );
        let argv = args(&["bin", "--scale", "-"]);
        assert_eq!(
            parse_flag::<f64>(&argv, "scale"),
            Err("--scale: cannot parse '-'".to_string())
        );
    }

    #[test]
    fn scale_maps_paper_disk() {
        let s = Scale(1.0 / 16.0);
        let k = ChunkSize::DEFAULT;
        // 1 TiB / 16 = 64 GiB = 32768 chunks of 2 MiB.
        assert_eq!(s.disk_chunks(PAPER_DISK_BYTES, k), 32_768);
        assert_eq!(Scale(1e-12).disk_chunks(PAPER_DISK_BYTES, k), 1);
    }

    #[test]
    fn algo_names_and_order() {
        let names: Vec<&str> = Algo::paper_three().iter().map(Algo::name).collect();
        assert_eq!(names, vec!["xlru", "cafe", "psychic"]);
        assert_eq!(Algo::Lru.name(), "lru");
    }

    #[test]
    fn sweep_preserves_input_order() {
        let cells: Vec<Cell<u32>> = (0..6)
            .map(|i| Cell::new(format!("c{i}"), move || i * 3))
            .collect();
        let run = sweep("test-sweep", cells);
        assert_eq!(run.values(), vec![0, 3, 6, 9, 12, 15]);
    }

    #[test]
    fn bench_report_times_the_closure() {
        let mut n = 0u64;
        let per = bench_report("noop", 4, || n += 1);
        assert_eq!(n, 5); // warm-up + 4 timed iterations
        assert!(per <= Duration::from_secs(1));
    }

    #[test]
    fn all_algorithms_replay_a_tiny_trace() {
        let scale = Scale(1.0);
        let trace = trace_for(ServerProfile::tiny_test(), scale, 1);
        let k = ChunkSize::DEFAULT;
        let costs = CostModel::from_alpha(2.0).unwrap();
        for algo in [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic] {
            let report = run_algo(algo, &trace, 64, k, costs);
            assert_eq!(report.policy, algo.name());
            assert!(report.overall.total_requests() as usize == trace.len());
        }
    }
}
