//! Related-work replacement policies (paper §3) as fill-everything
//! baselines.
//!
//! The paper's related-work discussion names the classic cache-replacement
//! families — LFU, and recency-of-K-th-access schemes like LRU-K \[17\] —
//! and argues that they attack the wrong problem for a video CDN: "earlier
//! works address the classic problem of cache replacement, whereas in our
//! case, it is about deciding between cache replacement and redirection".
//!
//! These implementations make that argument measurable: both serve every
//! request (no redirects, like [`crate::LruCache`]) and differ from plain
//! LRU only in *which* chunk they evict. The `related_work_baselines`
//! experiment shows the whole always-fill family clusters together while
//! the admission-controlled caches move with `α_F2R`.
//!
//! Greedy-Dual-Size \[7\] is deliberately omitted: with fixed-size chunks
//! and uniform fetch cost its priority `H = L + cost/size` degenerates to
//! (aged) LRU.

use vcdn_obs::PolicyObs;
use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, FastMap, Request, ServeOutcome, Timestamp,
};

use crate::{
    ds::KeyedSet,
    policy::{CacheConfig, CachePolicy},
};

/// LFU with recency tie-breaking: evicts the cached chunk with the fewest
/// accesses (ties: least recently used first).
///
/// Frequency counts persist only while the chunk is cached — "in-cache
/// LFU", the standard practical variant.
///
/// # Examples
///
/// ```
/// use vcdn_core::{baselines::LfuCache, CacheConfig, CachePolicy};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let k = ChunkSize::new(100).unwrap();
/// let mut cache = LfuCache::new(CacheConfig::new(4, k, CostModel::balanced()));
/// let r = Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(1));
/// assert!(cache.handle_request(&r).is_serve()); // LFU never redirects
/// ```
#[derive(Debug, Clone)]
pub struct LfuCache {
    config: CacheConfig,
    /// Cached chunks keyed by `count · SCALE + recency-fraction` so equal
    /// counts break toward evicting the least recently used.
    disk: KeyedSet<ChunkId>,
    counts: FastMap<ChunkId, u64>,
    last_access: FastMap<ChunkId, Timestamp>,
    obs: PolicyObs,
    /// Reusable per-request buffer: the decide path allocates nothing.
    scratch_missing: Vec<ChunkId>,
}

/// Key layout: frequency dominates, recency (ms, scaled tiny) breaks ties.
const RECENCY_SCALE: f64 = 1e-15;

impl LfuCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        LfuCache {
            config,
            disk: KeyedSet::new(),
            counts: FastMap::default(),
            last_access: FastMap::default(),
            obs: PolicyObs::noop(),
            scratch_missing: Vec::new(),
        }
    }

    /// The access count of a cached chunk (for tests).
    pub fn count_of(&self, chunk: ChunkId) -> Option<u64> {
        self.counts.get(&chunk).copied()
    }

    fn key(count: u64, t: Timestamp) -> f64 {
        count as f64 + t.as_millis() as f64 * RECENCY_SCALE
    }

    // lint: hot
    fn remove_chunk(&mut self, id: &ChunkId) {
        self.disk.remove(id);
        self.counts.remove(id);
        self.last_access.remove(id);
    }
}

impl CachePolicy for LfuCache {
    // lint: hot
    fn handle_request(&mut self, request: &Request) -> Decision {
        let now = request.t;
        let k = self.config.chunk_size;
        let range = request.chunk_range(k);
        let mut hit = 0u64;
        let mut missing = std::mem::take(&mut self.scratch_missing);
        missing.clear();
        for c in range.iter() {
            let id = ChunkId::new(request.video, c);
            if self.disk.contains(&id) {
                hit += 1;
                let count = self.counts.entry(id).or_insert(0);
                *count += 1;
                self.last_access.insert(id, now);
                self.disk.insert(id, Self::key(*count, now));
            } else {
                missing.push(id);
            }
        }
        let mut evicted_chunks = 0;
        let keep_from = missing
            .len()
            .saturating_sub(self.config.disk_chunks as usize);
        for (i, id) in missing.iter().enumerate() {
            if i < keep_from {
                continue;
            }
            if self.disk.len() as u64 >= self.config.disk_chunks {
                if let Some((victim, _)) = self.disk.smallest() {
                    self.remove_chunk(&victim);
                    evicted_chunks += 1;
                }
            }
            self.counts.insert(*id, 1);
            self.last_access.insert(*id, now);
            self.disk.insert(*id, Self::key(1, now));
        }
        let filled = missing.len() as u64;
        self.scratch_missing = missing;
        let decision = Decision::Serve(ServeOutcome {
            hit_chunks: hit,
            filled_chunks: filled,
            evicted_chunks,
        });
        self.obs.record_decision(&decision, self.disk.len() as u64);
        decision
    }

    fn name(&self) -> &'static str {
        "lfu"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.disk.len() as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.disk.contains(&chunk)
    }

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.obs = obs;
    }
}

/// LRU-K (O'Neil et al. \[17\]): evicts the chunk whose K-th most recent
/// access lies farthest in the past; chunks with fewer than K accesses
/// rank as infinitely old (classic "backward K-distance").
///
/// The paper's xLRU popularity test "shares similarities with the LRU-2
/// algorithm"; this is the chunk-level original for comparison.
#[derive(Debug, Clone)]
pub struct LruKCache {
    config: CacheConfig,
    k_history: usize,
    /// Cached chunks keyed by their K-th most recent access time (or a
    /// strongly negative key when history is shorter than K).
    disk: KeyedSet<ChunkId>,
    /// Most recent accesses per cached chunk, newest first, length ≤ K.
    history: FastMap<ChunkId, Vec<Timestamp>>,
    obs: PolicyObs,
    /// Reusable per-request buffer: the decide path allocates nothing.
    scratch_missing: Vec<ChunkId>,
}

impl LruKCache {
    /// Creates an empty cache with history depth `k_history` (LRU-2 ⇒ 2).
    ///
    /// # Panics
    ///
    /// Panics if `k_history == 0`.
    pub fn new(config: CacheConfig, k_history: usize) -> Self {
        assert!(k_history > 0, "history depth must be > 0");
        LruKCache {
            config,
            k_history,
            disk: KeyedSet::new(),
            history: FastMap::default(),
            obs: PolicyObs::noop(),
            scratch_missing: Vec::new(),
        }
    }

    /// The classic LRU-2.
    pub fn lru2(config: CacheConfig) -> Self {
        Self::new(config, 2)
    }

    fn key_of(&self, hist: &[Timestamp], now: Timestamp) -> f64 {
        match hist.get(self.k_history - 1) {
            Some(t) => t.as_millis() as f64,
            // Fewer than K accesses: infinite backward K-distance. Use the
            // (negated) first-access recency so such chunks still order
            // oldest-first among themselves.
            None => {
                let first = hist.last().map(|t| t.as_millis()).unwrap_or(0);
                -1.0 - (now.as_millis().saturating_sub(first)) as f64
            }
        }
    }

    fn touch(&mut self, id: ChunkId, now: Timestamp) {
        let hist = self.history.entry(id).or_default();
        hist.insert(0, now);
        hist.truncate(self.k_history);
        let key = self.key_of(&self.history[&id], now);
        self.disk.insert(id, key);
    }

    // lint: hot
    fn remove_chunk(&mut self, id: &ChunkId) {
        self.disk.remove(id);
        self.history.remove(id);
    }
}

impl CachePolicy for LruKCache {
    // lint: hot
    fn handle_request(&mut self, request: &Request) -> Decision {
        let now = request.t;
        let k = self.config.chunk_size;
        let range = request.chunk_range(k);
        let mut hit = 0u64;
        let mut missing = std::mem::take(&mut self.scratch_missing);
        missing.clear();
        for c in range.iter() {
            let id = ChunkId::new(request.video, c);
            if self.disk.contains(&id) {
                hit += 1;
                self.touch(id, now);
            } else {
                missing.push(id);
            }
        }
        let mut evicted_chunks = 0;
        let keep_from = missing
            .len()
            .saturating_sub(self.config.disk_chunks as usize);
        for (i, id) in missing.iter().enumerate() {
            if i < keep_from {
                continue;
            }
            if self.disk.len() as u64 >= self.config.disk_chunks {
                if let Some((victim, _)) = self.disk.smallest() {
                    self.remove_chunk(&victim);
                    evicted_chunks += 1;
                }
            }
            self.touch(*id, now);
        }
        let filled = missing.len() as u64;
        self.scratch_missing = missing;
        let decision = Decision::Serve(ServeOutcome {
            hit_chunks: hit,
            filled_chunks: filled,
            evicted_chunks,
        });
        self.obs.record_decision(&decision, self.disk.len() as u64);
        decision
    }

    fn name(&self) -> &'static str {
        "lru-k"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.disk.len() as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.disk.contains(&chunk)
    }

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.obs = obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::{ByteRange, VideoId};

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cfg(disk: u64) -> CacheConfig {
        CacheConfig::new(disk, ChunkSize::new(100).unwrap(), CostModel::balanced())
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = LfuCache::new(cfg(2));
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(1, 0, 99, 2));
        // Video 0 accessed twice more.
        c.handle_request(&req(0, 0, 99, 3));
        c.handle_request(&req(0, 0, 99, 4));
        assert_eq!(c.count_of(ChunkId::new(VideoId(0), 0)), Some(3));
        // New fill must evict video 1 (count 1 < 3).
        let d = c.handle_request(&req(9, 0, 99, 5));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted_chunks, 1);
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut c = LfuCache::new(cfg(2));
        c.handle_request(&req(0, 0, 99, 1)); // count 1, older
        c.handle_request(&req(1, 0, 99, 2)); // count 1, newer
        let d = c.handle_request(&req(9, 0, 99, 3));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted_chunks, 1);
        assert!(!c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn lfu_counts_reset_on_eviction() {
        let mut c = LfuCache::new(cfg(1));
        for t in 1..10 {
            c.handle_request(&req(0, 0, 99, t));
        }
        // Evict video 0 by filling video 1, then re-fill video 0: its old
        // count must not resurrect.
        c.handle_request(&req(1, 0, 99, 20));
        c.handle_request(&req(0, 0, 99, 30));
        assert_eq!(c.count_of(ChunkId::new(VideoId(0), 0)), Some(1));
    }

    #[test]
    fn lfu_never_redirects_and_respects_capacity() {
        let mut c = LfuCache::new(cfg(3));
        for i in 0..40 {
            assert!(c.handle_request(&req(i, 0, 299, i + 1)).is_serve());
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn lru2_prefers_chunks_with_two_accesses() {
        let mut c = LruKCache::lru2(cfg(2));
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(0, 0, 99, 2)); // v0 has 2 accesses
        c.handle_request(&req(1, 0, 99, 3)); // v1 has 1 access
                                             // v1 has infinite backward 2-distance: evicted first.
        let d = c.handle_request(&req(9, 0, 99, 4));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted_chunks, 1);
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn lru2_orders_by_second_most_recent_access() {
        let mut c = LruKCache::lru2(cfg(2));
        // v0: accesses at 1, 10 (2nd-recent = 1).
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(0, 0, 99, 10));
        // v1: accesses at 5, 6 (2nd-recent = 5 > 1).
        c.handle_request(&req(1, 0, 99, 5));
        c.handle_request(&req(1, 0, 99, 6));
        // Both have full history; v0's 2nd-recent access is older.
        let d = c.handle_request(&req(9, 0, 99, 20));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted_chunks, 1);
        assert!(!c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn lruk_history_depth_respected() {
        let mut c = LruKCache::new(cfg(4), 3);
        for t in 1..=5 {
            c.handle_request(&req(0, 0, 99, t));
        }
        // History holds at most 3 entries.
        assert_eq!(c.history[&ChunkId::new(VideoId(0), 0)].len(), 3);
        assert_eq!(
            c.history[&ChunkId::new(VideoId(0), 0)],
            vec![Timestamp(5), Timestamp(4), Timestamp(3)]
        );
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_history_rejected() {
        let _ = LruKCache::new(cfg(1), 0);
    }

    #[test]
    fn lruk_never_redirects_and_respects_capacity() {
        let mut c = LruKCache::lru2(cfg(3));
        for i in 0..40 {
            assert!(c.handle_request(&req(i % 7, 0, 299, i + 1)).is_serve());
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn oversized_requests_keep_tails() {
        let mut lfu = LfuCache::new(cfg(2));
        let d = lfu.handle_request(&req(1, 0, 499, 1));
        assert_eq!(d.serve_outcome().unwrap().filled_chunks, 5);
        assert_eq!(lfu.disk_used_chunks(), 2);
        let mut lruk = LruKCache::lru2(cfg(2));
        let d = lruk.handle_request(&req(1, 0, 499, 1));
        assert_eq!(d.serve_outcome().unwrap().filled_chunks, 5);
        assert_eq!(lruk.disk_used_chunks(), 2);
    }
}

/// Greedy-Dual-Size-Popularity (Jin & Bestavros \[13\]), specialised to
/// fixed-size chunks: priority `H(x) = L + frequency(x)` where `L` is the
/// running inflation value (the priority of the last eviction). Unlike
/// plain LFU, old popularity is implicitly aged out by the rising `L`.
///
/// Like every replacement-only policy here it serves all requests
/// (no redirects).
#[derive(Debug, Clone)]
pub struct GdspCache {
    config: CacheConfig,
    disk: KeyedSet<ChunkId>,
    counts: FastMap<ChunkId, u64>,
    /// Inflation value: priority of the most recent eviction.
    inflation: f64,
    obs: PolicyObs,
    /// Reusable per-request buffer: the decide path allocates nothing.
    scratch_missing: Vec<ChunkId>,
}

impl GdspCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        GdspCache {
            config,
            disk: KeyedSet::new(),
            counts: FastMap::default(),
            inflation: 0.0,
            obs: PolicyObs::noop(),
            scratch_missing: Vec::new(),
        }
    }

    /// The current inflation value `L` (for tests).
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    fn touch(&mut self, id: ChunkId) {
        let count = self.counts.entry(id).or_insert(0);
        *count += 1;
        // With uniform chunk size and fetch cost, H = L + frequency.
        self.disk.insert(id, self.inflation + *count as f64);
    }
}

impl CachePolicy for GdspCache {
    // lint: hot
    fn handle_request(&mut self, request: &Request) -> Decision {
        let k = self.config.chunk_size;
        let range = request.chunk_range(k);
        let mut hit = 0u64;
        let mut missing = std::mem::take(&mut self.scratch_missing);
        missing.clear();
        for c in range.iter() {
            let id = ChunkId::new(request.video, c);
            if self.disk.contains(&id) {
                hit += 1;
                self.touch(id);
            } else {
                missing.push(id);
            }
        }
        let mut evicted_chunks = 0;
        let keep_from = missing
            .len()
            .saturating_sub(self.config.disk_chunks as usize);
        for (i, id) in missing.iter().enumerate() {
            if i < keep_from {
                continue;
            }
            if self.disk.len() as u64 >= self.config.disk_chunks {
                if let Some((victim, h)) = self.disk.pop_smallest() {
                    // GDS rule: L rises to the evicted priority.
                    self.inflation = self.inflation.max(h);
                    self.counts.remove(&victim);
                    evicted_chunks += 1;
                }
            }
            self.counts.remove(id);
            self.touch(*id);
        }
        let filled = missing.len() as u64;
        self.scratch_missing = missing;
        let decision = Decision::Serve(ServeOutcome {
            hit_chunks: hit,
            filled_chunks: filled,
            evicted_chunks,
        });
        self.obs.record_decision(&decision, self.disk.len() as u64);
        decision
    }

    fn name(&self) -> &'static str {
        "gdsp"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.disk.len() as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.disk.contains(&chunk)
    }

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.obs = obs;
    }
}

#[cfg(test)]
mod gdsp_tests {
    use super::*;
    use vcdn_types::{ByteRange, VideoId};

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cfg(disk: u64) -> CacheConfig {
        CacheConfig::new(disk, ChunkSize::new(100).unwrap(), CostModel::balanced())
    }

    #[test]
    fn frequent_chunks_survive() {
        let mut c = GdspCache::new(cfg(2));
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(1, 0, 99, 2));
        for t in 3..8 {
            c.handle_request(&req(0, 0, 99, t)); // v0 heats up
        }
        let d = c.handle_request(&req(9, 0, 99, 10));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted_chunks, 1);
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn inflation_ages_out_stale_frequency() {
        // A once-hot chunk must eventually be evictable as L rises past
        // its stale priority — the property plain LFU lacks.
        let mut c = GdspCache::new(cfg(2));
        for t in 1..20 {
            c.handle_request(&req(0, 0, 99, t)); // H(v0) = 19
        }
        // Churn many one-shot videos through the other slot: each eviction
        // raises L by ~1 until newcomers outrank the stale hot chunk.
        for v in 1..60 {
            c.handle_request(&req(v, 0, 99, 100 + v));
        }
        assert!(
            !c.contains_chunk(ChunkId::new(VideoId(0), 0)),
            "inflation never aged out the stale chunk"
        );
        assert!(c.inflation() > 0.0);
    }

    #[test]
    fn never_redirects_and_respects_capacity() {
        let mut c = GdspCache::new(cfg(3));
        for i in 0..50 {
            assert!(c.handle_request(&req(i % 9, 0, 299, i + 1)).is_serve());
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn inflation_is_monotone() {
        let mut c = GdspCache::new(cfg(1));
        let mut last = 0.0;
        for v in 0..30 {
            c.handle_request(&req(v, 0, 99, v + 1));
            assert!(c.inflation() >= last);
            last = c.inflation();
        }
    }
}
