//! Tests of the benchmark harness itself, on a small trace family.

use std::path::PathBuf;
use std::sync::Arc;

use vcdn_core::{CacheConfig, PolicyObs};
use vcdn_obs::{MetricsRegistry, MetricsSink};
use vcdn_perfbench::check::{check_golden, verify_op, GoldenRow};
use vcdn_perfbench::timing::{stats_sink, SpanLog, TimedPolicy};
use vcdn_perfbench::workload::{prepare, Bench, Mode, OpCounters, PassResult};
use vcdn_perfbench::{chunk_size, costs, Family, Policy, Workload, SHARDS};
use vcdn_sim::engine::{shard_requests, EngineConfig, ShardedEngine};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::Trace;

const SMALL: Family = Family {
    scale: 0.004,
    days: 4,
};

fn small_traces(seed: u64) -> Vec<Trace> {
    SMALL
        .profiles()
        .iter()
        .map(|p| SMALL.generate(p, seed))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn counters(pass: &PassResult) -> Vec<OpCounters> {
    pass.ops
        .iter()
        .map(|o| o.outcome.clone().expect("operation succeeded"))
        .collect()
}

#[test]
fn timing_wrapper_is_transparent_under_the_replayer() {
    let (k, costs) = (chunk_size(), costs());
    let replayer = Replayer::new(ReplayConfig::new(k, costs));
    let disk = SMALL.paper_disk_chunks();
    for trace in small_traces(5) {
        for policy in Policy::ALL {
            let cache = CacheConfig::new(disk, k, costs);
            let mut plain = policy.build(cache, &trace.requests);
            let want = replayer.replay(&trace, plain.as_mut());

            // The wrapper's eviction count must agree with the policy's
            // own eviction counter.
            let registry = Arc::new(MetricsRegistry::new());
            let sink = stats_sink();
            let mut timed = TimedPolicy::wrap(policy.build(cache, &trace.requests), &sink);
            timed.attach_obs(PolicyObs::attach(
                Arc::clone(&registry) as Arc<dyn MetricsSink>,
                "p",
            ));
            let got = replayer.replay(&trace, timed.as_mut());
            assert_eq!(timed.name(), policy.name());
            drop(timed);
            assert_eq!(got, want, "{} on {}", policy.name(), trace.meta.name);

            let stats = sink.lock().unwrap().clone();
            assert_eq!(stats.hist.count, trace.len() as u64);
            let evicted = registry
                .snapshot(true)
                .into_iter()
                .find(|m| m.name == "p.evicted_chunks_total")
                .map_or(0, |m| m.value);
            assert_eq!(stats.evicted_chunks, evicted, "{}", policy.name());
            assert!(stats.evicting_serves <= stats.evicted_chunks);
        }
    }
}

#[test]
fn timing_wrapper_is_transparent_under_the_engine() {
    let (k, costs) = (chunk_size(), costs());
    let disk = Workload::EngineQuarterDisk.disk_chunks(&SMALL);
    let cfg = EngineConfig::new(SHARDS, disk, k, costs).unwrap();
    let trace = &small_traces(5)[3];
    let per_shard = shard_requests(trace, SHARDS);
    for policy in Policy::ALL {
        let plain = |workers| {
            let mut e = ShardedEngine::try_new(cfg, |i, c| policy.build(c, &per_shard[i])).unwrap();
            e.run(trace, workers)
        };
        let timed = |workers| {
            let sink = stats_sink();
            let mut e = ShardedEngine::try_new(cfg, |i, c| {
                TimedPolicy::wrap(policy.build(c, &per_shard[i]), &sink)
            })
            .unwrap();
            let report = e.run(trace, workers);
            drop(e);
            assert_eq!(sink.lock().unwrap().hist.count, trace.len() as u64);
            report
        };
        let want = plain(1);
        for workers in [1, 2] {
            assert_eq!(plain(workers), want, "{} plain at {workers}", policy.name());
            assert_eq!(timed(workers), want, "{} timed at {workers}", policy.name());
        }
    }
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    let a = small_traces(11);
    let b = small_traces(11);
    let c = small_traces(12);
    assert_eq!(a[0].requests, b[0].requests);
    assert_ne!(a[0].requests, c[0].requests);

    for workload in Workload::ALL {
        let run = |seed: u64| {
            let dir = scratch(&format!("{}-{seed}", workload.name()));
            prepare(workload, &SMALL, seed, &dir).unwrap();
            let mut bench = Bench::new(workload, SMALL, seed, dir);
            let pass = bench.run_pass(Mode::standard(workload));
            counters(&pass)
        };
        let first = run(11);
        assert_eq!(first.len(), Policy::ALL.len() * 6);
        assert_eq!(first, run(11), "{}", workload.name());
        assert_ne!(first, run(12), "{}", workload.name());
    }
}

#[test]
fn traced_passes_match_untraced_and_self_times_add_up() {
    for workload in Workload::ALL {
        let dir = scratch(&format!("{}-traced", workload.name()));
        prepare(workload, &SMALL, 3, &dir).unwrap();
        let mut bench = Bench::new(workload, SMALL, 3, dir);
        let plain = bench.run_pass(Mode::standard(workload));
        let traced = bench.run_pass(Mode::traced(workload));
        bench.finish();
        assert_eq!(counters(&plain), counters(&traced), "{}", workload.name());

        let run_span = workload.run_span();
        let log = &bench.log;
        for (i, policy) in Policy::ALL.iter().enumerate() {
            let ids = log.ids(traced.pass, run_span, Some(policy.name()));
            assert_eq!(ids.len(), 6);
            let mut charged = 0;
            for id in ids {
                let span = &log.spans()[id];
                assert!(span.charged_ns > 0);
                // Decide time plus the replay's self time is the replay
                // span. (Engine decide time is spread over two workers,
                // so it has no self time of that kind.)
                if workload != Workload::EngineQuarterDisk {
                    assert_eq!(span.charged_ns + log.self_ns(id), log.dur(id));
                }
                charged += span.charged_ns;
            }
            assert_eq!(charged, traced.decide[i].hist.sum, "{}", policy.name());
        }
        // Untraced passes charge nothing.
        for id in log.ids(plain.pass, run_span, None) {
            assert_eq!(log.spans()[id].charged_ns, 0);
        }
    }
}

#[test]
fn self_time_subtracts_children_and_charged_time() {
    let mut log = SpanLog::new();
    let root = log.open("pass", 0, None, None, None);
    let child = log.open("replay", 0, Some(root), Some("lru"), Some(0));
    std::thread::sleep(std::time::Duration::from_millis(2));
    log.close(child);
    log.charge(child, 1_000);
    log.close(root);
    assert_eq!(log.self_ns(child), log.dur(child) - 1_000);
    assert_eq!(log.self_ns(root), log.dur(root) - log.dur(child));
    assert_eq!(log.total_ns(0, "replay", Some("lru")), log.dur(child));
    assert_eq!(log.total_ns(0, "replay", Some("xlru")), 0);
    let jsonl = log.to_jsonl();
    assert_eq!(jsonl.lines().count(), 2);
    assert!(jsonl.contains("\"parent\":0"));
}

#[test]
fn checks_catch_wrong_counters() {
    let trace = &small_traces(5)[0];
    let (k, costs) = (chunk_size(), costs());
    let mut policy = Policy::Lru.build(CacheConfig::new(64, k, costs), &trace.requests);
    let report = Replayer::new(ReplayConfig::new(k, costs)).replay(trace, policy.as_mut());
    let good = OpCounters {
        overall: report.overall,
        steady: report.steady,
        used_chunks: policy.disk_used_chunks(),
        capacity_chunks: 64,
    };
    assert_eq!(verify_op(&good, trace), Ok(()));

    let mut lost = good.clone();
    lost.overall.fill_bytes -= k.bytes();
    assert!(verify_op(&lost, trace)
        .unwrap_err()
        .contains("not conserved"));
    let mut over = good.clone();
    over.used_chunks = 65;
    assert!(verify_op(&over, trace).unwrap_err().contains("capacity"));

    let pinned = GoldenRow {
        overall: good.overall,
        steady: good.steady,
    };
    assert_eq!(check_golden(&good, Some(&pinned)), Ok(()));
    assert!(check_golden(&lost, Some(&pinned)).is_err());
    assert!(check_golden(&good, None).is_err());
}
