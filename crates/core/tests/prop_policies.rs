//! Randomized tests over the cache policies themselves: contract
//! invariants under arbitrary (time-ordered) request sequences.
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these loop over [`DetRng`]-generated cases; failures print the
//! case number.

use std::collections::HashSet;

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    XlruCache,
};
use vcdn_trace::rng::DetRng;
use vcdn_types::{ByteRange, ChunkId, ChunkSize, CostModel, Decision, Request, Timestamp, VideoId};

const CASES: u64 = 64;

fn k() -> ChunkSize {
    ChunkSize::new(100).expect("non-zero")
}

/// A random time-ordered request sequence over a small universe.
fn requests(rng: &mut DetRng) -> Vec<Request> {
    let n = 1 + rng.below(120) as usize;
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            let video = rng.below(8);
            let start = rng.below(900);
            let len = 1 + rng.below(399);
            t += 1 + rng.below(49);
            Request::new(
                VideoId(video),
                ByteRange::new(start, start + len).expect("start <= end"),
                Timestamp(t),
            )
        })
        .collect()
}

fn alpha(rng: &mut DetRng) -> f64 {
    [0.5, 1.0, 2.0, 4.0][rng.below(4) as usize]
}

fn disk(rng: &mut DetRng) -> u64 {
    1 + rng.below(11)
}

/// The chunks `r` asks for.
fn requested(r: &Request) -> Vec<ChunkId> {
    r.chunk_range(k())
        .iter()
        .map(|c| ChunkId::new(r.video, c))
        .collect()
}

/// Exercises one policy against the CachePolicy contract.
fn check_contract(policy: &mut dyn CachePolicy, reqs: &[Request], case: u64) {
    // Every chunk enters the cache as a fill of a served request, so this
    // shadow set tracks the cache contents exactly.
    let mut present: HashSet<ChunkId> = HashSet::new();
    for r in reqs {
        let chunks = r.chunk_len(k());
        let requested = requested(r);
        match policy.handle_request(r) {
            Decision::Serve(o) => {
                // Serve covers the whole request.
                assert_eq!(o.served_chunks(), chunks, "case {case}");
                // The tracked chunks that left the cache are this serve's
                // victims: exactly as many as it reports, and none of
                // them requested — unless the request outgrows the whole
                // disk, where LRU and xLRU keep only its tail.
                let left: Vec<ChunkId> = present
                    .iter()
                    .copied()
                    .filter(|id| !policy.contains_chunk(*id))
                    .collect();
                assert_eq!(
                    left.len() as u64,
                    o.evicted_chunks,
                    "case {case}: evicted-chunk count disagrees with the cache"
                );
                for id in &left {
                    assert!(
                        !requested.contains(id) || chunks > policy.disk_capacity_chunks(),
                        "case {case}: evicted requested {id}"
                    );
                    present.remove(id);
                }
                for id in requested {
                    if policy.contains_chunk(id) {
                        present.insert(id);
                    }
                }
            }
            Decision::Redirect => {}
        }
        // Capacity invariant.
        assert!(
            policy.disk_used_chunks() <= policy.disk_capacity_chunks(),
            "case {case}"
        );
        // Shadow set consistency: everything we believe present is
        // reported as contained (the reverse need not hold since policies
        // may keep chunks we stopped tracking).
        for id in &present {
            assert!(policy.contains_chunk(*id), "case {case}: lost chunk {id}");
        }
    }
}

#[test]
fn lru_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C0 ^ case);
        let reqs = requests(&mut rng);
        let cfg = CacheConfig::new(disk(&mut rng), k(), CostModel::balanced());
        check_contract(&mut LruCache::new(cfg), &reqs, case);
    }
}

#[test]
fn xlru_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C1 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let a = alpha(&mut rng);
        let cfg = CacheConfig::new(d, k(), CostModel::from_alpha(a).expect("valid"));
        check_contract(&mut XlruCache::new(cfg), &reqs, case);
    }
}

#[test]
fn cafe_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C2 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let mut cache = CafeCache::new(CafeConfig::new(d, k(), costs));
        check_contract(&mut cache, &reqs, case);
    }
}

#[test]
fn psychic_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C3 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let mut cache = PsychicCache::new(PsychicConfig::new(d, k(), costs), &reqs);
        check_contract(&mut cache, &reqs, case);
    }
}

#[test]
fn policies_are_deterministic() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C4 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        // Decisions carry counts only, so each step also records which
        // requested chunks the cache holds afterwards.
        let run = || -> Vec<(Decision, Vec<bool>)> {
            let mut cache = CafeCache::new(CafeConfig::new(d, k(), costs));
            reqs.iter()
                .map(|r| {
                    let d = cache.handle_request(r);
                    let cached = requested(r)
                        .into_iter()
                        .map(|id| cache.contains_chunk(id))
                        .collect();
                    (d, cached)
                })
                .collect()
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn full_hits_are_always_served() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C5 ^ case);
        let reqs = requests(&mut rng);
        // With a disk large enough to never evict, any repeated identical
        // request (same range) must be served once its chunks are in.
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let mut cache = CafeCache::new(CafeConfig::new(10_000, k(), costs));
        let mut served_once: HashSet<(VideoId, u64, u64)> = HashSet::new();
        for r in &reqs {
            let key = (r.video, r.bytes.start, r.bytes.end);
            let d = cache.handle_request(r);
            if served_once.contains(&key) {
                assert!(
                    d.is_serve(),
                    "case {case}: previously filled request redirected: {r}"
                );
                if let Decision::Serve(o) = &d {
                    assert_eq!(o.filled_chunks, 0, "case {case}: refill of cached range");
                }
            }
            if d.is_serve() {
                served_once.insert(key);
            }
        }
    }
}
