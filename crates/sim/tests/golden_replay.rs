//! Golden-output regression test for the replay engine.
//!
//! A tiny hand-written trace goes through xLRU and Cafe; the resulting
//! hit/fill/redirect byte counts are pinned to hard-coded values. Any
//! change to policy decisions, chunk accounting or the replay loop shows
//! up here as an exact-number diff, not a vague "efficiency moved".
//!
//! The trace is built by hand (not generated) so the goldens only depend
//! on the policies and the replayer, never on the workload generator.
//!
//! The same trace also pins every other loop that turns decisions into
//! traffic — the hierarchy, the fleet, the co-located group and the
//! sharded engine — as exact `(hit, fill, redirect, served, redirected)`
//! tuples, so a change to the shared accounting shows up in each of them.
//! The always-fill baselines (LFU, LRU-2, GDSP) and the off-peak
//! prefetcher are pinned the same way plus their evicted-chunk count, so
//! a change to any eviction loop shows up as well.

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, GdspCache, LfuCache, LruKCache,
    PrefetchConfig, ProactiveCafeCache, PsychicCache, PsychicConfig, XlruCache,
};
use vcdn_obs::WindowRing;
use vcdn_sim::engine::{EngineConfig, ShardedEngine};
use vcdn_sim::shard::{replay_colocated, Assignment};
use vcdn_sim::{replay_fleet, replay_hierarchy, ReplayConfig, ReplayReport, Replayer};
use vcdn_trace::{Trace, TraceMeta};
use vcdn_types::{
    ByteRange, ChunkSize, CostModel, DurationMs, Request, Timestamp, TrafficCounter, VideoId,
};

/// Chunk size: 100 bytes, so chunk counts read directly off byte ranges.
const K: u64 = 100;
/// Disk: 6 chunks — small enough that the trace forces evictions.
const DISK: u64 = 6;
/// α_F2R = 2 (the paper's headline configuration).
const ALPHA: f64 = 2.0;

/// Expected overall (hit, fill, redirect) bytes per policy.
const GOLDEN_XLRU: (u64, u64, u64) = (1_000, 1_000, 1_100);
const GOLDEN_CAFE: (u64, u64, u64) = (1_400, 900, 800);
const GOLDEN_PSYCHIC: (u64, u64, u64) = (1_600, 700, 800);

fn k() -> ChunkSize {
    ChunkSize::new(K).expect("non-zero")
}

/// The fixed trace: 14 requests over 3 videos within one hour, with
/// enough re-requests that both policies admit content and enough
/// distinct chunks (14 > DISK) that they must also evict and redirect.
fn golden_trace() -> Trace {
    let req = |video: u64, start: u64, end: u64, t: u64| {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).expect("start <= end"),
            Timestamp(t),
        )
    };
    let requests = vec![
        req(1, 0, 299, 60_000),
        req(2, 0, 199, 120_000),
        req(1, 0, 299, 180_000),
        req(3, 0, 99, 240_000),
        req(1, 100, 399, 300_000),
        req(2, 0, 199, 360_000),
        req(2, 200, 399, 420_000),
        req(1, 0, 199, 480_000),
        req(3, 0, 99, 540_000),
        req(1, 0, 399, 600_000),
        req(2, 0, 99, 660_000),
        req(3, 100, 299, 720_000),
        req(1, 200, 399, 780_000),
        req(2, 100, 399, 840_000),
    ];
    Trace::new(
        TraceMeta {
            name: "golden".into(),
            seed: 0,
            duration: DurationMs::from_hours(1),
            description: "hand-written golden-regression trace".into(),
        },
        requests,
    )
}

fn replay(policy: &mut dyn CachePolicy) -> ReplayReport {
    let trace = golden_trace();
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    Replayer::new(ReplayConfig::new(k(), costs)).replay(&trace, policy)
}

fn check(report: &ReplayReport, golden: (u64, u64, u64)) {
    let t = &report.overall;
    // Eq. 2 identity: every requested chunk byte is exactly one of
    // hit, fill or redirect.
    let requested: u64 = golden_trace()
        .requests
        .iter()
        .map(|r| r.chunk_len(k()) * K)
        .sum();
    assert_eq!(
        t.hit_bytes + t.fill_bytes + t.redirect_bytes,
        requested,
        "{}: Eq. 2 identity violated",
        report.policy
    );
    assert_eq!(
        (t.hit_bytes, t.fill_bytes, t.redirect_bytes),
        golden,
        "{}: golden hit/fill/redirect bytes changed",
        report.policy
    );
}

#[test]
fn xlru_golden_bytes() {
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    let mut cache = XlruCache::new(CacheConfig::new(DISK, k(), costs));
    let report = replay(&mut cache);
    eprintln!(
        "xlru actual: ({}, {}, {})",
        report.overall.hit_bytes, report.overall.fill_bytes, report.overall.redirect_bytes
    );
    check(&report, GOLDEN_XLRU);
}

#[test]
fn cafe_golden_bytes() {
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    let mut cache = CafeCache::new(CafeConfig::new(DISK, k(), costs));
    let report = replay(&mut cache);
    eprintln!(
        "cafe actual: ({}, {}, {})",
        report.overall.hit_bytes, report.overall.fill_bytes, report.overall.redirect_bytes
    );
    check(&report, GOLDEN_CAFE);
}

#[test]
fn psychic_golden_bytes() {
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    let trace = golden_trace();
    let mut cache = PsychicCache::new(PsychicConfig::new(DISK, k(), costs), &trace.requests);
    let report = replay(&mut cache);
    eprintln!(
        "psychic actual: ({}, {}, {})",
        report.overall.hit_bytes, report.overall.fill_bytes, report.overall.redirect_bytes
    );
    check(&report, GOLDEN_PSYCHIC);
}

#[test]
fn golden_trace_is_well_formed() {
    let trace = golden_trace();
    assert_eq!(trace.len(), 14);
    assert!(trace.requests.windows(2).all(|w| w[0].t <= w[1].t));
    // 3 videos, 14 requests, 31 requested chunks in total.
    let chunks: u64 = trace.requests.iter().map(|r| r.chunk_len(k())).sum();
    assert_eq!(chunks, 31);
}

/// `(hit, fill, redirect, served, redirected)` — the full accounting of a
/// counter, compared as one value.
type Pin = (u64, u64, u64, u64, u64);

fn pin(t: &TrafficCounter) -> Pin {
    (
        t.hit_bytes,
        t.fill_bytes,
        t.redirect_bytes,
        t.served_requests,
        t.redirected_requests,
    )
}

fn alpha2() -> CostModel {
    CostModel::from_alpha(ALPHA).expect("valid alpha")
}

/// The edge tier of the multi-tier pins: Cafe on the golden disk.
fn edge_cache() -> Box<dyn CachePolicy> {
    Box::new(CafeCache::new(CafeConfig::new(DISK, k(), alpha2())))
}

/// The parent tier: a half-size xLRU, small enough that it redirects to
/// the origin too.
fn parent_cache() -> XlruCache {
    XlruCache::new(CacheConfig::new(DISK / 2, k(), alpha2()))
}

/// A second edge's trace: the golden requests 30 s later, each for the
/// next video id, so the two edges overlap on two of four videos.
fn second_edge_trace() -> Trace {
    let golden = golden_trace();
    let requests = golden
        .requests
        .iter()
        .map(|r| {
            Request::new(
                VideoId(r.video.0 + 1),
                r.bytes,
                Timestamp(r.t.as_millis() + 30_000),
            )
        })
        .collect();
    Trace::new(
        TraceMeta {
            name: "golden-b".into(),
            ..golden.meta
        },
        requests,
    )
}

#[test]
fn hierarchy_golden_accounting() {
    let mut edge = edge_cache();
    let mut parent = parent_cache();
    let report = replay_hierarchy(&golden_trace(), edge.as_mut(), &mut parent);
    assert_eq!(pin(&report.edge), (1_400, 900, 800, 10, 4));
    assert_eq!(pin(&report.parent), (200, 400, 200, 3, 1));
    assert_eq!((report.origin_bytes, report.origin_requests), (200, 1));
}

#[test]
fn fleet_golden_accounting_one_edge() {
    let mut edges = vec![edge_cache()];
    let mut parent = parent_cache();
    let report = replay_fleet(&[golden_trace()], &mut edges, &mut parent);
    assert_eq!(pin(&report.edges[0]), (1_400, 900, 800, 10, 4));
    assert_eq!(pin(&report.parent), (200, 400, 200, 3, 1));
    assert_eq!(report.origin_bytes, 200);
}

#[test]
fn fleet_golden_accounting_two_edges() {
    let mut edges = vec![edge_cache(), edge_cache()];
    let mut parent = parent_cache();
    let report = replay_fleet(
        &[golden_trace(), second_edge_trace()],
        &mut edges,
        &mut parent,
    );
    assert_eq!(pin(&report.edges[0]), (1_400, 900, 800, 10, 4));
    assert_eq!(pin(&report.edges[1]), (1_400, 900, 800, 10, 4));
    assert_eq!(pin(&report.parent), (100, 800, 700, 4, 4));
    assert_eq!(report.origin_bytes, 700);
}

#[test]
fn colocated_golden_accounting() {
    let expected: [(Assignment, [Pin; 2], u64, u64); 2] = [
        (
            Assignment::Sharded,
            [(600, 400, 0, 5, 0), (1_200, 700, 200, 8, 1)],
            10,
            10,
        ),
        (
            Assignment::RoundRobin,
            [(400, 700, 500, 5, 2), (500, 700, 300, 5, 2)],
            8,
            12,
        ),
    ];
    for (assignment, servers, distinct, total) in expected {
        let mut caches: Vec<Box<dyn CachePolicy>> = (0..2)
            .map(|_| {
                Box::new(XlruCache::new(CacheConfig::new(DISK, k(), alpha2())))
                    as Box<dyn CachePolicy>
            })
            .collect();
        let report = replay_colocated(&golden_trace(), &mut caches, assignment);
        let got: Vec<Pin> = report.servers.iter().map(pin).collect();
        assert_eq!(got, servers, "{assignment:?}");
        assert_eq!(
            (report.distinct_cached_chunks, report.total_cached_chunks),
            (distinct, total),
            "{assignment:?}"
        );
    }
}

/// Runs the golden trace through an xLRU-sharded engine with steady state
/// from 20% of the hour (12 min), so the last three requests are steady.
fn engine_pins(shards: usize, disk: u64, workers: usize) -> (Pin, Pin) {
    let cfg = EngineConfig::new(shards, disk, k(), alpha2())
        .expect("valid engine shape")
        .with_steady_after(0.2);
    let mut engine =
        ShardedEngine::try_new(cfg, |_, cache| Box::new(XlruCache::new(cache))).expect("engine");
    let report = engine.run(&golden_trace(), workers);
    (
        pin(&report.aggregate_overall()),
        pin(&report.aggregate_steady()),
    )
}

#[test]
fn one_shard_engine_golden_accounting() {
    for workers in [1, 3] {
        let (overall, steady) = engine_pins(1, DISK, workers);
        // One shard is the plain replay: overall equals GOLDEN_XLRU.
        assert_eq!(overall, (1_000, 1_000, 1_100, 8, 6), "{workers} workers");
        assert_eq!(steady, (400, 100, 200, 2, 1), "{workers} workers");
    }
}

#[test]
fn three_shard_engine_golden_accounting() {
    for workers in [1, 3] {
        let (overall, steady) = engine_pins(3, 2 * DISK, workers);
        assert_eq!(overall, (1_300, 1_200, 600, 10, 4), "{workers} workers");
        assert_eq!(steady, (200, 300, 200, 2, 1), "{workers} workers");
    }
}

/// `(hit, fill, redirect, served, redirected, evicted chunks)`.
type EvictionPin = (u64, u64, u64, u64, u64, u64);

/// Replays the golden trace through `policy`; the evicted chunks are
/// summed over the decisions by an hourly [`WindowRing`] observer.
fn eviction_pin(policy: &mut dyn CachePolicy) -> EvictionPin {
    let mut hours = WindowRing::new(DurationMs::HOUR.as_millis(), usize::MAX);
    let report = Replayer::new(ReplayConfig::new(k(), alpha2())).replay_observed(
        &golden_trace(),
        policy,
        &mut hours,
    );
    let evicted = hours
        .snapshot_windows()
        .iter()
        .map(|w| w.evicted_chunks)
        .sum();
    let (hit, fill, redirect, served, redirected) = pin(&report.overall);
    (hit, fill, redirect, served, redirected, evicted)
}

#[test]
fn always_fill_baselines_golden_accounting() {
    let cfg = || CacheConfig::new(DISK, k(), alpha2());
    let cases: [(Box<dyn CachePolicy>, EvictionPin); 3] = [
        (Box::new(LfuCache::new(cfg())), (1_300, 1_800, 0, 14, 0, 12)),
        (
            Box::new(LruKCache::lru2(cfg())),
            (1_400, 1_700, 0, 14, 0, 11),
        ),
        (
            Box::new(GdspCache::new(cfg())),
            (1_000, 2_100, 0, 14, 0, 15),
        ),
    ];
    for (mut policy, expected) in cases {
        let got = eviction_pin(policy.as_mut());
        assert_eq!(got, expected, "{}", policy.name());
    }
}

/// Cafe with the §10 prefetcher active for the whole golden hour: at most
/// two candidates every two minutes.
#[test]
fn cafe_prefetch_golden_accounting() {
    let config = PrefetchConfig {
        offpeak_start_hour: 0.0,
        offpeak_end_hour: 1.0,
        budget_chunks_per_tick: 2,
        tick: DurationMs::from_secs(120),
    };
    let mut cache =
        ProactiveCafeCache::try_new(CafeCache::new(CafeConfig::new(DISK, k(), alpha2())), config)
            .expect("valid prefetch config");
    // The count covers decision evictions only: a chunk a prefetch
    // displaces belongs to no decision.
    assert_eq!(eviction_pin(&mut cache), (1_600, 800, 700, 11, 3, 2));
    assert_eq!(cache.prefetched_chunks(), 3);
}
