//! The benchmark's measuring program. `run.py` builds it and drives it;
//! it can also be run by hand:
//!
//! ```text
//! vcdn-perfbench prep --workload <w> --seed <n> --dir <d>
//! vcdn-perfbench run  --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!                     --dir <d> --golden <file> [--write-golden]
//!                     [--history <file>]... [--spans <file>]
//! ```
//!
//! `prep` writes the workload's trace files (the untimed write side) and
//! `prep.json` with its timings. `run` measures: with `--trace 0` it
//! repeats untraced passes until `--seconds` have passed (at least
//! three) and reports every pass's set-up time, wall time and per-policy
//! req/s; with `--trace 1` it alternates untraced and traced passes,
//! adds the layer-specific passes (engine at one worker and with its
//! registry attached, telemetry off), and reports the per-layer metrics.
//! The last line of stdout is the run's JSON document.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vcdn_perfbench::check::{self, GoldenRow, RowKey};
use vcdn_perfbench::workload::{prepare, Bench, Mode, PassResult, PrepTimes};
use vcdn_perfbench::{Family, Policy, Workload, DEFAULT_SEED, SHARDS, WORKERS};
use vcdn_types::json::{self, Json};

/// Untraced passes a measuring run makes at least.
const MIN_PASSES: usize = 3;

/// No pass starts once this much time has gone, so a slow host still
/// ends well inside the supervisor's limit.
const HARD_CAP: Duration = Duration::from_secs(110);

struct Args {
    cmd: String,
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next().ok_or("missing command (prep | run)")?;
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let rest: Vec<String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let name = rest[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {}", rest[i]))?;
            if name == "write-golden" {
                flags.entry(name.into()).or_default().push(String::new());
                i += 1;
                continue;
            }
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.entry(name.into()).or_default().push(value.clone());
            i += 2;
        }
        Ok(Args { cmd, flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name).and_then(|v| v.last()) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for --{name}: {v}")),
        }
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.flags.get(name).cloned().unwrap_or_default()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vcdn-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let workload_name: String = args.get("workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name}"))?;
    let seed: u64 = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let dir: PathBuf = args.get("dir")?.ok_or("--dir is required")?;
    let family = Family::MONTH;
    match args.cmd.as_str() {
        "prep" => {
            let times = prepare(workload, &family, seed, &dir)?;
            let doc = Json::Obj(vec![
                ("gen_ns".into(), Json::Int(times.gen_ns as i128)),
                ("encode_ns".into(), Json::Int(times.encode_ns as i128)),
            ]);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            std::fs::write(dir.join("prep.json"), format!("{doc}\n")).map_err(|e| e.to_string())?;
            println!("{doc}");
            Ok(ExitCode::SUCCESS)
        }
        "run" => run(&args, workload, family, seed, dir),
        other => Err(format!("unknown command {other}")),
    }
}

fn read_prep(dir: &Path) -> PrepTimes {
    let text = std::fs::read_to_string(dir.join("prep.json")).unwrap_or_default();
    let doc = json::parse(&text).unwrap_or(Json::Null);
    let int = |k: &str| match doc.get(k) {
        Some(Json::Int(i)) => *i as u64,
        _ => 0,
    };
    PrepTimes {
        gen_ns: int("gen_ns"),
        encode_ns: int("encode_ns"),
    }
}

fn run(
    args: &Args,
    workload: Workload,
    family: Family,
    seed: u64,
    dir: PathBuf,
) -> Result<ExitCode, String> {
    let seconds: f64 = args.get("seconds")?.unwrap_or(30.0);
    let traced = args.get::<u8>("trace")?.unwrap_or(0) == 1;
    let golden_path: PathBuf = args.get("golden")?.ok_or("--golden is required")?;
    // A traced run keeps a quarter of its time for the layer passes.
    let share = if traced { 0.75 } else { 1.0 };
    let budget = Duration::from_secs_f64(seconds.max(0.0) * share);
    let prep = read_prep(&dir);
    let mut bench = Bench::new(workload, family, seed, dir);
    let start = Instant::now();
    // Past the minimum, another round starts only if it should end
    // within the budget, so a run lasts about `--seconds`.
    let out_of_time = |passes: usize, last: Duration| {
        let gone = start.elapsed();
        (passes >= MIN_PASSES && gone + last >= budget) || gone + last > HARD_CAP
    };

    let mut standard: Vec<PassResult> = Vec::new();
    let mut timed: Vec<PassResult> = Vec::new();
    let mut extras: Vec<PassResult> = Vec::new();
    loop {
        let t0 = Instant::now();
        standard.push(bench.run_pass(Mode::standard(workload)));
        if traced {
            timed.push(bench.run_pass(Mode::traced(workload)));
        }
        let passes = if traced { MIN_PASSES } else { standard.len() };
        if out_of_time(passes, t0.elapsed()) {
            break;
        }
    }
    if traced {
        match workload {
            Workload::EngineQuarterDisk => {
                extras.push(bench.run_pass(Mode {
                    workers: 1,
                    ..Mode::standard(workload)
                }));
                extras.push(bench.run_pass(Mode {
                    engine_obs: true,
                    ..Mode::standard(workload)
                }));
            }
            Workload::ObservedMonth => extras.push(bench.run_pass(Mode {
                telemetry: false,
                ..Mode::standard(workload)
            })),
            Workload::WorldMonth => {}
        }
    }
    bench.finish();
    // Output checks over every pass.
    let profiles = family.profiles();
    let server_name = |i: usize| profiles[i].name.clone();
    let mut notes: Vec<String> = Vec::new();
    let golden = if check::golden_applies(seed, &family) && !args.has("write-golden") {
        Some(check::load_golden(&golden_path))
    } else {
        None
    };
    let mut first: BTreeMap<(&str, usize), GoldenRow> = BTreeMap::new();
    let mut pinned: BTreeMap<RowKey, GoldenRow> = BTreeMap::new();
    for pass in standard.iter_mut().chain(&mut timed).chain(&mut extras) {
        for op in &mut pass.ops {
            let Ok(c) = &op.outcome else { continue };
            let row = GoldenRow {
                overall: c.overall,
                steady: c.steady,
            };
            let key = (
                workload.name().to_string(),
                op.policy.name().to_string(),
                server_name(op.server),
            );
            let id = (op.policy.name(), op.server);
            let verdict = match first.get(&id) {
                Some(prev) if *prev != row => {
                    Err("counters differ from the first pass".to_string())
                }
                _ => match &golden {
                    Some(Ok(g)) => check::check_golden(c, g.get(&key)),
                    Some(Err(e)) => Err(e.clone()),
                    None => Ok(()),
                },
            };
            first.entry(id).or_insert_with(|| row.clone());
            pinned.insert(key, row);
            if let Err(e) = verdict {
                op.outcome = Err(e);
            }
        }
    }
    match &golden {
        Some(Ok(_)) => notes.push(format!("golden: {} matched", golden_path.display())),
        Some(Err(e)) => notes.push(format!("golden: {e}")),
        None if args.has("write-golden") => {
            check::write_golden(&golden_path, &pinned)?;
            notes.push(format!(
                "golden: wrote {} rows to {}",
                pinned.len(),
                golden_path.display()
            ));
        }
        None => notes.push(format!("golden: not pinned for seed {seed}")),
    }
    let europe = profiles.iter().position(|p| p.name == "europe");
    let paper_replay = matches!(workload, Workload::WorldMonth | Workload::ObservedMonth);
    if let (true, Some(europe), true) = (paper_replay, europe, check::golden_applies(seed, &family))
    {
        for history in args.all("history") {
            if !Path::new(&history).exists() {
                notes.push(format!("history: {history}: absent"));
                continue;
            }
            let mut matched = 0;
            for op in standard[0].ops.iter_mut().filter(|o| o.server == europe) {
                let Ok(c) = &op.outcome else { continue };
                match check::check_history(Path::new(&history), op.policy.name(), c) {
                    Ok(true) => matched += 1,
                    Ok(false) => {}
                    Err(e) => op.outcome = Err(e),
                }
            }
            notes.push(format!("history: {history}: {matched} europe rows match"));
        }
    }

    let all_passes = || standard.iter().chain(&timed).chain(&extras);
    let attempted: usize = all_passes().map(|p| p.ops.len()).sum();
    let failures: Vec<String> = all_passes()
        .flat_map(|p| {
            p.ops.iter().filter_map(move |o| {
                o.outcome.as_ref().err().map(|e| {
                    format!(
                        "pass {} {} {}: {e}",
                        p.pass,
                        o.policy.name(),
                        server_name(o.server)
                    )
                })
            })
        })
        .collect();
    for f in &failures {
        eprintln!("FAIL {f}");
    }

    let run_span = workload.run_span();
    let log = &bench.log;
    let pass_ns = |r: &PassResult, name: &str| log.total_ns(r.pass, name, None);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &standard {
        let mut put = |k: String, v: f64| samples.entry(k).or_default().push(v);
        put("setup_s".into(), pass_ns(r, "setup") as f64 / 1e9);
        put("wall_s".into(), pass_ns(r, "pass") as f64 / 1e9);
        for p in Policy::ALL {
            let ns = log.total_ns(r.pass, run_span, Some(p.name())).max(1);
            put(
                format!("rps.{}", p.name()),
                r.requests as f64 * 1e9 / ns as f64,
            );
        }
    }
    // One high-water mark per process, read after the last pass.
    samples.insert("peak_rss_mb".into(), vec![peak_rss_mb()]);

    let mut layers = BTreeMap::new();
    if traced {
        layers = layer_metrics(&bench, workload, &prep, &standard, &timed, &extras);
        // Per-policy throughput comes from the untraced passes.
        for p in Policy::ALL {
            let key = format!("rps.{}", p.name());
            layers.insert(key.clone(), median(samples[&key].clone()));
        }
        layers.insert("peak_rss_mb".into(), samples["peak_rss_mb"][0]);
    }
    if let Some(path) = args.get::<PathBuf>("spans")? {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, bench.log.to_jsonl()).map_err(|e| e.to_string())?;
        notes.push(format!("spans: {}", path.display()));
    }

    let num_map = |m: &BTreeMap<String, f64>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), Json::Float(*v)))
                .collect(),
        )
    };
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Int(seed as i128)),
        ("trace".into(), Json::Int(traced as i128)),
        ("passes".into(), Json::Int(standard.len() as i128)),
        ("requests".into(), Json::Int(standard[0].requests as i128)),
        (
            "available_parallelism".into(),
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
        ("engine_workers".into(), Json::Int(WORKERS as i128)),
        ("attempted".into(), Json::Int(attempted as i128)),
        ("failed".into(), Json::Int(failures.len() as i128)),
        (
            "failures".into(),
            Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        (
            "notes".into(),
            Json::Arr(notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        (
            "samples".into(),
            Json::Obj(
                samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            Json::Arr(v.iter().map(|x| Json::Float(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("layers".into(), num_map(&layers)),
    ]);
    println!("{doc}");
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The process high-water mark (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metrics: each traced pass gives one value per metric and
/// the median is kept; the layer-specific passes add the engine and
/// telemetry comparisons. Layers a workload does not exercise read 0.
fn layer_metrics(
    bench: &Bench,
    workload: Workload,
    prep: &PrepTimes,
    standard: &[PassResult],
    timed: &[PassResult],
    extras: &[PassResult],
) -> BTreeMap<String, f64> {
    let log = &bench.log;
    let engine = workload == Workload::EngineQuarterDisk;
    let run_span = workload.run_span();
    let ms = |ns: u64| ns as f64 / 1e6;
    let pct = |x: f64, base: f64| {
        if base > 0.0 {
            (x - base) / base * 100.0
        } else {
            0.0
        }
    };
    let mut per_pass: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut put = |k: String, v: f64| per_pass.entry(k).or_default().push(v);
    for r in timed {
        let pass = r.pass;
        let req = r.requests.max(1) as f64;
        let gen_ns = match workload {
            Workload::WorldMonth => log.total_ns(pass, "generate", None),
            _ => prep.gen_ns,
        };
        let decode_ns = log.total_ns(pass, "decode", None);
        let vctb = |ns: u64| if engine { ms(ns) } else { 0.0 };
        let jsonl = |ns: u64| {
            if workload == Workload::ObservedMonth {
                ms(ns)
            } else {
                0.0
            }
        };
        put("trace.gen_ms".into(), ms(gen_ns));
        put("trace.gen_ns_per_req".into(), gen_ns as f64 / req);
        put("trace.requests".into(), r.requests as f64);
        put("trace.vctb_decode_ms".into(), vctb(decode_ns));
        put("trace.vctb_encode_ms".into(), vctb(prep.encode_ns));
        put("trace.jsonl_decode_ms".into(), jsonl(decode_ns));
        put("trace.jsonl_encode_ms".into(), jsonl(prep.encode_ns));
        put(
            "trace.shard_slice_ms".into(),
            ms(log.total_ns(pass, "shard", None)),
        );
        for (i, p) in Policy::ALL.iter().enumerate() {
            let name = p.name();
            let d = &r.decide[i];
            let run_ns = log.total_ns(pass, run_span, Some(name));
            let lanes = if engine {
                r.mode.workers.min(SHARDS)
            } else {
                1
            };
            let (hit, requested) = r
                .ops
                .iter()
                .filter(|o| o.policy == *p)
                .filter_map(|o| o.outcome.as_ref().ok())
                .fold((0u64, 0u64), |(h, t), c| {
                    (h + c.overall.hit_bytes, t + c.overall.requested_bytes())
                });
            put(
                format!("core.{name}.decide_ns_p50"),
                d.hist.quantile_upper_bound(0.50) as f64,
            );
            put(
                format!("core.{name}.decide_ns_p99"),
                d.hist.quantile_upper_bound(0.99) as f64,
            );
            put(
                format!("core.{name}.decide_share"),
                d.hist.sum as f64 / (run_ns.max(1) as f64 * lanes as f64),
            );
            put(
                format!("core.{name}.build_ms"),
                ms(log.total_ns(pass, "build", Some(name))),
            );
            put(
                format!("core.{name}.evicting_serves"),
                d.evicting_serves as f64,
            );
            put(
                format!("core.{name}.evicted_chunks"),
                d.evicted_chunks as f64,
            );
            put(
                format!("core.{name}.hit_ratio"),
                hit as f64 / requested.max(1) as f64,
            );
            let self_ns: u64 = if engine {
                0
            } else {
                log.ids(pass, "replay", Some(name))
                    .into_iter()
                    .map(|id| log.self_ns(id))
                    .sum()
            };
            put(
                format!("sim.replay.{name}.self_ns_per_req"),
                self_ns as f64 / req,
            );
        }
    }
    // The bundle side, from the traced passes that ran with telemetry.
    for r in timed.iter().filter(|r| r.mode.telemetry) {
        let (bytes, windows, alerts) = r
            .ops
            .iter()
            .filter_map(|o| o.bundle)
            .fold((0, 0, 0), |(b, w, a), s| {
                (b + s.bytes, w + s.windows, a + s.alerts)
            });
        put(
            "obs.finish_ms".into(),
            ms(log.total_ns(r.pass, "finish", None)),
        );
        put(
            "obs.export_ms".into(),
            ms(log.total_ns(r.pass, "export", None)),
        );
        put("obs.bundle_bytes".into(), bytes as f64);
        put("obs.windows".into(), windows as f64);
        put("obs.alerts".into(), alerts as f64);
    }
    let mut out: BTreeMap<String, f64> =
        per_pass.into_iter().map(|(k, v)| (k, median(v))).collect();
    for k in [
        "finish_ms",
        "export_ms",
        "bundle_bytes",
        "windows",
        "alerts",
    ] {
        out.entry(format!("obs.{k}")).or_insert(0.0);
    }

    // Untraced reference: the median over the standard passes.
    let reference = |name: &str, policy: Option<&str>| {
        median(
            standard
                .iter()
                .map(|r| log.total_ns(r.pass, name, policy) as f64)
                .collect(),
        )
    };
    let find = |pred: &dyn Fn(&Mode) -> bool| extras.iter().find(|r| pred(&r.mode));
    let telemetry_off = find(&|m| !m.telemetry && workload == Workload::ObservedMonth);
    for p in Policy::ALL {
        let name = p.name();
        let (mut speedup, mut busy, mut wait, mut push, mut obs_pct) = (0.0, 0.0, 0.0, 0.0, 0.0);
        if let Some(one) = find(&|m| m.workers == 1) {
            speedup = log.total_ns(one.pass, "engine", Some(name)) as f64
                / reference("engine", Some(name)).max(1.0);
        }
        if let Some(att) = find(&|m| m.engine_obs) {
            let qs: Vec<_> = att
                .ops
                .iter()
                .filter(|o| o.policy == p)
                .filter_map(|o| o.queue)
                .collect();
            let run_ns = log.total_ns(att.pass, "engine", Some(name)) as f64;
            let lanes = att.mode.workers.min(SHARDS) as f64;
            busy = qs.iter().map(|q| q.service_ns).sum::<u64>() as f64 / (run_ns * lanes).max(1.0);
            wait = qs.iter().map(|q| q.wait_ns).sum::<u64>() as f64
                / qs.iter().map(|q| q.waits).sum::<u64>().max(1) as f64;
            push = qs.iter().map(|q| q.push_ns).sum::<u64>() as f64
                / qs.iter().map(|q| q.pushes).sum::<u64>().max(1) as f64;
        }
        if let Some(off) = telemetry_off {
            let off_ns = log.total_ns(off.pass, "replay", Some(name)) as f64;
            obs_pct = pct(reference("replay", Some(name)), off_ns);
        }
        out.insert(format!("engine.{name}.speedup_2w"), speedup);
        out.insert(format!("engine.{name}.worker_busy_share"), busy);
        out.insert(format!("engine.{name}.queue_wait_ns_mean"), wait);
        out.insert(format!("engine.{name}.dispatch_push_ns_mean"), push);
        out.insert(format!("obs.{name}.overhead_pct"), obs_pct);
    }
    let engine_pct = find(&|m| m.engine_obs).map_or(0.0, |att| {
        pct(
            log.total_ns(att.pass, "engine", None) as f64,
            reference("engine", None),
        )
    });
    out.insert("obs.engine_overhead_pct".into(), engine_pct);
    // The traced-minus-untraced cost, pass by pass.
    let overhead: Vec<f64> = standard
        .iter()
        .zip(timed)
        .map(|(s, t)| {
            pct(
                log.total_ns(t.pass, "pass", None) as f64,
                log.total_ns(s.pass, "pass", None) as f64,
            )
        })
        .collect();
    out.insert("bench.trace_overhead_pct".into(), median(overhead));
    out
}
