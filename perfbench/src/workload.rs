//! One pass of a workload: set-up, then for every policy and server the
//! policy construction, the replay (or engine run) and, with telemetry,
//! the bundle finish and export. Every step is a span in the bench's
//! [`SpanLog`]; each (policy, server) replay is one operation that
//! either yields its counters or fails with a reason.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vcdn_core::{CacheConfig, CachePolicy, PolicyObs};
use vcdn_obs::{MetricsRegistry, MetricsSink};
use vcdn_sim::engine::{shard_requests, EngineConfig, ShardedEngine};
use vcdn_sim::observe::{TelemetryConfig, TelemetryObserver};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::{load_binary, save_binary, Trace};
use vcdn_types::json::Json;
use vcdn_types::{Request, TrafficCounter};

use crate::timing::{stats_sink, DecideStats, SpanLog, StatsSink, TimedPolicy};
use crate::{chunk_size, costs, Family, Policy, TraceFormat, Workload, SHARDS, WORKERS};

/// Where a workload's prepared trace for server `i` lives.
fn trace_path(dir: &Path, server: usize, format: TraceFormat) -> PathBuf {
    dir.join(format!("server{server}.{}", format.ext()))
}

/// Timings of the untimed write side.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrepTimes {
    /// Trace generation, summed over servers.
    pub gen_ns: u64,
    /// Encoding to the workload's format, summed over servers.
    pub encode_ns: u64,
}

/// Generates the family at `seed` and writes it in the workload's trace
/// format under `dir` (a no-op for workloads that generate in-process).
pub fn prepare(
    workload: Workload,
    family: &Family,
    seed: u64,
    dir: &Path,
) -> Result<PrepTimes, String> {
    let mut times = PrepTimes::default();
    let Some(format) = workload.trace_format() else {
        return Ok(times);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let profiles = family.profiles();
    let write = |i: usize| -> Result<PrepTimes, String> {
        let t0 = Instant::now();
        let trace = family.generate(&profiles[i], seed);
        let gen_ns = t0.elapsed().as_nanos() as u64;
        let path = trace_path(dir, i, format);
        let t0 = Instant::now();
        match format {
            TraceFormat::Vctb => save_binary(&trace, &path).map_err(|e| e.to_string()),
            TraceFormat::Jsonl => trace.save_jsonl(&path).map_err(|e| e.to_string()),
        }
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(PrepTimes {
            gen_ns,
            encode_ns: t0.elapsed().as_nanos() as u64,
        })
    };
    // The write side is untimed, so it uses both of the host's lanes.
    let servers = profiles.len();
    let parts: Vec<Result<PrepTimes, String>> = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..WORKERS)
            .map(|lane| {
                let write = &write;
                s.spawn(move || {
                    (lane..servers)
                        .step_by(WORKERS)
                        .map(write)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| vec![Err(panic_message(p))]))
            .collect()
    });
    for part in parts {
        let part = part?;
        times.gen_ns += part.gen_ns;
        times.encode_ns += part.encode_ns;
    }
    Ok(times)
}

/// Reads one trace file.
fn decode(path: &Path, format: TraceFormat) -> Result<Trace, String> {
    match format {
        TraceFormat::Vctb => load_binary(path).map_err(|e| e.to_string()),
        TraceFormat::Jsonl => Trace::load_jsonl(path).map_err(|e| e.to_string()),
    }
    .map_err(|e| format!("decode {}: {e}", path.display()))
}

/// How a pass runs, beyond the workload's fixed shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Wrap every policy in the decide-timing [`TimedPolicy`].
    pub timed: bool,
    /// Engine worker threads.
    pub workers: usize,
    /// Attach a metrics registry to the engine (its wall-clock plane).
    pub engine_obs: bool,
    /// Replay with full telemetry.
    pub telemetry: bool,
}

impl Mode {
    /// The workload's measured configuration, untraced.
    pub fn standard(workload: Workload) -> Mode {
        Mode {
            timed: false,
            workers: WORKERS,
            engine_obs: false,
            telemetry: workload == Workload::ObservedMonth,
        }
    }

    /// The same configuration with the decide-timing wrapper.
    pub fn traced(workload: Workload) -> Mode {
        Mode {
            timed: true,
            ..Mode::standard(workload)
        }
    }
}

/// The accounting one operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCounters {
    /// Full-run traffic.
    pub overall: TrafficCounter,
    /// Steady-state (second half) traffic.
    pub steady: TrafficCounter,
    /// Chunks on disk after the run, summed over shards.
    pub used_chunks: u64,
    /// Disk capacity in chunks, summed over shards.
    pub capacity_chunks: u64,
}

/// Means read from the engine's wall-clock plane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Worker batch service time, summed.
    pub service_ns: u64,
    /// Worker batch wait time: sum and count.
    pub wait_ns: u64,
    /// Batches waited for.
    pub waits: u64,
    /// Dispatcher push time: sum and count.
    pub push_ns: u64,
    /// Dispatcher pushes.
    pub pushes: u64,
}

/// What one telemetry bundle held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// Exported JSONL size.
    pub bytes: u64,
    /// Health windows.
    pub windows: u64,
    /// Watchdog alerts.
    pub alerts: u64,
}

/// One (policy, server) operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The policy.
    pub policy: Policy,
    /// The server index.
    pub server: usize,
    /// Counters, or why the operation failed.
    pub outcome: Result<OpCounters, String>,
    /// Engine queue statistics (engine passes with `engine_obs`).
    pub queue: Option<QueueStats>,
    /// Bundle statistics (telemetry passes).
    pub bundle: Option<BundleStats>,
}

/// A finished pass.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// The pass index in the span log.
    pub pass: usize,
    /// How it ran.
    pub mode: Mode,
    /// Every operation, server-major.
    pub ops: Vec<OpRecord>,
    /// Requests in the six traces (0 if set-up failed).
    pub requests: u64,
    /// Decide statistics per policy, in [`Policy::ALL`] order (empty
    /// unless the pass was timed).
    pub decide: Vec<DecideStats>,
}

/// The traces a pass replays, as set-up leaves them.
struct Inputs {
    traces: Vec<Trace>,
    /// Per-server, per-shard request streams (engine workload only).
    per_shard: Vec<Vec<Vec<Request>>>,
}

/// A workload bound to a trace family, a seed and its prepared files.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The trace family.
    pub family: Family,
    /// The workload seed.
    pub seed: u64,
    /// Where [`prepare`] wrote the traces.
    pub dir: PathBuf,
    /// Every span of every pass.
    pub log: SpanLog,
    root: usize,
    passes: usize,
}

impl Bench {
    /// Binds a workload; opens its root span.
    pub fn new(workload: Workload, family: Family, seed: u64, dir: PathBuf) -> Bench {
        let mut log = SpanLog::new();
        let root = log.open("workload", 0, None, None, None);
        Bench {
            workload,
            family,
            seed,
            dir,
            log,
            root,
            passes: 0,
        }
    }

    /// Closes the root span (call once, after the last pass).
    pub fn finish(&mut self) {
        self.log.close(self.root);
    }

    /// Runs one full pass and verifies every operation's output. Progress
    /// goes to stderr as `#plan <ops>` and one `#done` per finished
    /// operation, so a supervisor that has to kill a hung run can count
    /// the unfinished ones.
    pub fn run_pass(&mut self, mode: Mode) -> PassResult {
        let pass = self.passes;
        self.passes += 1;
        let servers = self.family.profiles().len();
        eprintln!("#plan {}", Policy::ALL.len() * servers);
        let pass_span = self.log.open("pass", pass, Some(self.root), None, None);
        let setup_span = self.log.open("setup", pass, Some(pass_span), None, None);
        let mark = self.log.spans().len();
        let inputs = catch_unwind(AssertUnwindSafe(|| self.setup(pass, setup_span)))
            .unwrap_or_else(|p| Err(panic_message(p)));
        self.log.close_open_from(mark);
        self.log.close(setup_span);

        // Server-major, so each policy's replays are spread over the whole
        // pass rather than bunched into one stretch of the host's speed.
        let sinks: Vec<StatsSink> = Policy::ALL.iter().map(|_| stats_sink()).collect();
        let mut ops = Vec::new();
        for server in 0..servers {
            for (policy, sink) in Policy::ALL.into_iter().zip(&sinks) {
                let mark = self.log.spans().len();
                let result = match &inputs {
                    Ok(inputs) => catch_unwind(AssertUnwindSafe(|| {
                        self.op(pass, pass_span, mode, policy, server, inputs, sink)
                    }))
                    .unwrap_or_else(|p| Err(panic_message(p))),
                    Err(e) => Err(format!("set-up failed: {e}")),
                };
                self.log.close_open_from(mark);
                eprintln!("#done {} {server}", policy.name());
                let (outcome, queue, bundle) = match result {
                    Ok((c, q, b)) => (Ok(c), q, b),
                    Err(e) => (Err(e), None, None),
                };
                ops.push(OpRecord {
                    policy,
                    server,
                    outcome,
                    queue,
                    bundle,
                });
            }
        }
        let decide = if mode.timed {
            sinks
                .iter()
                .map(|s| s.lock().expect("decide stats lock").clone())
                .collect()
        } else {
            Vec::new()
        };
        self.log.close(pass_span);

        let mut requests = 0;
        if let Ok(inputs) = &inputs {
            requests = inputs.traces.iter().map(|t| t.len() as u64).sum();
            for op in &mut ops {
                if let Ok(c) = &op.outcome {
                    if let Err(e) = crate::check::verify_op(c, &inputs.traces[op.server]) {
                        op.outcome = Err(e);
                    }
                }
            }
        }
        PassResult {
            pass,
            mode,
            ops,
            requests,
            decide,
        }
    }

    /// Gets the traces: generate, or decode (and slice into shards).
    fn setup(&mut self, pass: usize, parent: usize) -> Result<Inputs, String> {
        let mut inputs = Inputs {
            traces: Vec::new(),
            per_shard: Vec::new(),
        };
        for (i, profile) in self.family.profiles().iter().enumerate() {
            let trace = match self.workload.trace_format() {
                None => {
                    let s = self.log.open("generate", pass, Some(parent), None, Some(i));
                    let trace = self.family.generate(profile, self.seed);
                    self.log.close(s);
                    trace
                }
                Some(format) => {
                    let path = trace_path(&self.dir, i, format);
                    let s = self.log.open("decode", pass, Some(parent), None, Some(i));
                    let trace = decode(&path, format)?;
                    self.log.close(s);
                    trace
                }
            };
            if trace.meta.name != profile.name || trace.meta.seed != self.seed {
                return Err(format!(
                    "server {i}: trace is {}@{}, expected {}@{}",
                    trace.meta.name, trace.meta.seed, profile.name, self.seed
                ));
            }
            if self.workload == Workload::EngineQuarterDisk {
                let s = self.log.open("shard", pass, Some(parent), None, Some(i));
                inputs.per_shard.push(shard_requests(&trace, SHARDS));
                self.log.close(s);
            }
            inputs.traces.push(trace);
        }
        Ok(inputs)
    }

    #[allow(clippy::too_many_arguments)]
    fn op(
        &mut self,
        pass: usize,
        parent: usize,
        mode: Mode,
        policy: Policy,
        server: usize,
        inputs: &Inputs,
        sink: &StatsSink,
    ) -> Result<(OpCounters, Option<QueueStats>, Option<BundleStats>), String> {
        let trace = &inputs.traces[server];
        let disk = self.workload.disk_chunks(&self.family);
        let (k, costs) = (chunk_size(), costs());
        let name = policy.name();
        // Each operation times into its own sink so its decide time can
        // be charged to its own replay span, then folds into the policy's.
        let op_sink = stats_sink();
        let wrap = |p: Box<dyn CachePolicy>| {
            if mode.timed {
                TimedPolicy::wrap(p, &op_sink)
            } else {
                p
            }
        };
        let log = &mut self.log;
        let span =
            |log: &mut SpanLog, what| log.open(what, pass, Some(parent), Some(name), Some(server));

        let (counters, queue, bundle, run_span) = if self.workload == Workload::EngineQuarterDisk {
            let cfg = EngineConfig::bench(SHARDS, disk, k, costs).map_err(|e| e.to_string())?;
            let per_shard = &inputs.per_shard[server];
            let s = span(log, "build");
            let mut engine =
                ShardedEngine::try_new(cfg, |i, cache| wrap(policy.build(cache, &per_shard[i])))
                    .map_err(|e| e.to_string())?;
            log.close(s);
            let registry = Arc::new(MetricsRegistry::new());
            if mode.engine_obs {
                let sink: Arc<dyn MetricsSink> = registry.clone();
                engine.attach_obs(&sink, name);
            }
            let run = span(log, "engine");
            let report = engine.run(trace, mode.workers);
            log.close(run);
            drop(engine);
            if report.total_requests() != trace.len() as u64 {
                return Err(format!(
                    "engine handled {} of {} requests",
                    report.total_requests(),
                    trace.len()
                ));
            }
            if let Some(s) = report
                .shards
                .iter()
                .find(|s| s.used_chunks > s.capacity_chunks)
            {
                return Err(format!(
                    "shard {} holds {} chunks over capacity {}",
                    s.shard, s.used_chunks, s.capacity_chunks
                ));
            }
            let counters = OpCounters {
                overall: report.aggregate_overall(),
                steady: report.aggregate_steady(),
                used_chunks: report.shards.iter().map(|s| s.used_chunks).sum(),
                capacity_chunks: report.shards.iter().map(|s| s.capacity_chunks).sum(),
            };
            let queue = mode.engine_obs.then(|| queue_stats(&registry));
            (counters, queue, None, run)
        } else {
            let replayer = Replayer::new(ReplayConfig::bench(k, costs));
            let s = span(log, "build");
            let mut p = wrap(policy.build(CacheConfig::new(disk, k, costs), &trace.requests));
            log.close(s);
            let (report, bundle, run) = if mode.telemetry {
                let registry = Arc::new(MetricsRegistry::new());
                p.attach_obs(PolicyObs::attach(
                    Arc::clone(&registry) as Arc<dyn MetricsSink>,
                    name,
                ));
                let telemetry = TelemetryConfig::new();
                let mut observer = TelemetryObserver::new(registry, &replayer, &telemetry, name);
                observer.meta_entry("policy", Json::Str(name.into()));
                observer.meta_entry("trace", Json::Str(trace.meta.name.clone()));
                observer.meta_entry("requests", Json::Int(trace.len() as i128));
                let run = span(log, "replay");
                let report = replayer.replay_observed(trace, p.as_mut(), &mut observer);
                log.close(run);
                let s = span(log, "finish");
                let finished = observer.finish();
                log.close(s);
                let s = span(log, "export");
                let text = finished.to_jsonl();
                log.close(s);
                if finished.windows.is_empty() || text.is_empty() {
                    return Err("telemetry bundle has no windows".into());
                }
                let bundle = BundleStats {
                    bytes: text.len() as u64,
                    windows: finished.windows.len() as u64,
                    alerts: finished.alerts.len() as u64,
                };
                (report, Some(bundle), run)
            } else {
                let run = span(log, "replay");
                let report = replayer.replay(trace, p.as_mut());
                log.close(run);
                (report, None, run)
            };
            let counters = OpCounters {
                overall: report.overall,
                steady: report.steady,
                used_chunks: p.disk_used_chunks(),
                capacity_chunks: p.disk_capacity_chunks(),
            };
            drop(p);
            (counters, None, bundle, run)
        };

        let stats = op_sink.lock().expect("decide stats lock").clone();
        log.charge(run_span, stats.hist.sum);
        sink.lock().expect("decide stats lock").merge(&stats);
        Ok((counters, queue, bundle))
    }
}

/// Sums the engine's wall-clock histograms.
fn queue_stats(registry: &MetricsRegistry) -> QueueStats {
    let mut q = QueueStats::default();
    for m in registry.snapshot(false) {
        let Some(h) = &m.histogram else { continue };
        if m.name.ends_with(".span.batch_service_ns") {
            q.service_ns += h.sum;
        } else if m.name.ends_with(".span.batch_wait_ns") {
            q.wait_ns += h.sum;
            q.waits += h.count;
        } else if m.name.ends_with(".engine.span.dispatch_push_ns") {
            q.push_ns += h.sum;
            q.pushes += h.count;
        }
    }
    q
}

/// The text of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into());
    format!("panicked: {text}")
}
