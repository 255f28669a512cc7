//! The Psychic cache (paper §8): an offline greedy aware of future
//! requests.
//!
//! Psychic "does not track any past requests"; instead it holds, for each
//! chunk `x`, the list `L_x` of its next `N` future request times (`N = 10`
//! suffices per the paper) and scores serve-vs-redirect like Cafe but with
//! the expected-future term computed *from the future itself*
//! (Eqs. 13–14):
//!
//! ```text
//! E[serve]    = |S′|·C_F + Σ_{x∈S″} Σ_{t∈L_x} (T/(t − t_now))·min(C_F, C_R)
//! E[redirect] = |S|·C_R  + Σ_{x∈S′} Σ_{t∈L_x} (T/(t − t_now))·min(C_F, C_R)
//! ```
//!
//! Eviction is Belady-style — "those requested farthest in the future" —
//! and the cache age `T` is "tracked separately as the average time that
//! the evicted chunks have stayed in the cache".
//!
//! Being offline, Psychic must replay exactly the trace it was built from;
//! this is asserted at run time.

use vcdn_obs::{DecisionDetail, PolicyObs};
use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, FastMap, Request, ServeOutcome, Timestamp, VideoId,
};

use crate::{
    ds::KeyedSet,
    policy::{CacheConfig, CachePolicy},
};

/// Minimum time-to-next-request (ms) used in divisions.
const MIN_GAP_MS: f64 = 1.0;

/// Configuration of a [`PsychicCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsychicConfig {
    /// Disk size, chunk size and cost model.
    pub cache: CacheConfig,
    /// Bound `N` on the per-chunk future list (paper: 10, "no gain with
    /// higher values").
    pub future_list_bound: usize,
}

impl PsychicConfig {
    /// The paper's configuration (`N = 10`).
    pub fn new(disk_chunks: u64, chunk_size: ChunkSize, costs: CostModel) -> Self {
        PsychicConfig {
            cache: CacheConfig::new(disk_chunks, chunk_size, costs),
            future_list_bound: 10,
        }
    }

    /// Overrides `N` (for the ablation study).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_future_list_bound(mut self, n: usize) -> Self {
        assert!(n > 0, "future list bound must be > 0");
        self.future_list_bound = n;
        self
    }
}

/// One chunk's request schedule: `(request sequence number, time)` pairs in
/// replay order, plus a cursor over the not-yet-consumed suffix.
#[derive(Debug, Clone, Default)]
struct Schedule {
    occurrences: Vec<(u32, Timestamp)>,
    cursor: usize,
}

impl Schedule {
    /// Consumes every occurrence up to and including sequence `seq`.
    fn advance(&mut self, seq: u32) {
        while self.cursor < self.occurrences.len() && self.occurrences[self.cursor].0 <= seq {
            self.cursor += 1;
        }
    }

    /// The next future occurrence's sequence number, if any.
    fn next_seq(&self) -> Option<u32> {
        self.occurrences.get(self.cursor).map(|&(s, _)| s)
    }

    /// The next (up to) `n` future request times.
    fn future_times(&self, n: usize) -> &[(u32, Timestamp)] {
        let end = (self.cursor + n).min(self.occurrences.len());
        &self.occurrences[self.cursor..end]
    }
}

/// The Psychic offline cache.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CachePolicy, PsychicCache, PsychicConfig};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let reqs = vec![
///     Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(1)),
///     Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(2)),
/// ];
/// let k = ChunkSize::new(100).unwrap();
/// let mut cache = PsychicCache::new(PsychicConfig::new(2, k, CostModel::balanced()), &reqs);
/// for r in &reqs {
///     cache.handle_request(r); // replays the same request sequence
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PsychicCache {
    config: PsychicConfig,
    schedules: FastMap<ChunkId, Schedule>,
    /// `(video, time)` per request, to assert the replayed trace matches.
    expected: Vec<(VideoId, Timestamp)>,
    seq: u32,
    /// Cached chunks keyed by next-occurrence sequence (∞ = never again);
    /// largest key = requested farthest in the future = first victim.
    disk: KeyedSet<ChunkId>,
    insert_time: FastMap<ChunkId, Timestamp>,
    /// Cumulative mean residence time (ms) of evicted chunks.
    mean_residency_ms: f64,
    evictions: u64,
    replay_start: Option<Timestamp>,
    obs: PolicyObs,
    last_detail: DecisionDetail,
    /// Reusable per-request buffers: the decide path allocates nothing.
    /// The eviction walk borrows the disk, so victims are collected
    /// before any is removed.
    scratch_present: Vec<ChunkId>,
    scratch_missing: Vec<ChunkId>,
    scratch_evicted: Vec<ChunkId>,
}

impl PsychicCache {
    /// Builds the future-request oracle for the request sequence that will
    /// be replayed (time-ordered) and an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by non-decreasing timestamp.
    pub fn new(config: PsychicConfig, requests: &[Request]) -> Self {
        assert!(
            requests.is_sorted_by_key(|r| r.t),
            "requests must be time-ordered"
        );
        let k = config.cache.chunk_size;
        let mut schedules: FastMap<ChunkId, Schedule> = FastMap::default();
        for (i, r) in requests.iter().enumerate() {
            for c in r.chunk_range(k).iter() {
                schedules
                    .entry(ChunkId::new(r.video, c))
                    .or_default()
                    .occurrences
                    .push((i as u32, r.t));
            }
        }
        PsychicCache {
            config,
            schedules,
            expected: requests.iter().map(|r| (r.video, r.t)).collect(),
            seq: 0,
            disk: KeyedSet::new(),
            insert_time: FastMap::default(),
            mean_residency_ms: 0.0,
            evictions: 0,
            replay_start: None,
            obs: PolicyObs::noop(),
            last_detail: DecisionDetail::default(),
            scratch_present: Vec::new(),
            scratch_missing: Vec::new(),
            scratch_evicted: Vec::new(),
        }
    }

    // lint: hot
    /// Psychic's cache age (ms): the average residence time of evicted
    /// chunks, or time-since-replay-start before the first eviction.
    pub fn cache_age_ms(&self, now: Timestamp) -> f64 {
        if self.evictions > 0 {
            self.mean_residency_ms
        } else {
            match self.replay_start {
                Some(s) => (now - s).as_millis() as f64,
                None => 0.0,
            }
        }
    }

    // lint: hot
    /// `Σ_{t∈L_x} T/(t − now)` for one chunk (the inner sums of
    /// Eqs. 13–14), excluding occurrences belonging to the current request.
    fn future_value(&self, id: ChunkId, now: Timestamp, t_window: f64, n: usize) -> f64 {
        let Some(s) = self.schedules.get(&id) else {
            return 0.0;
        };
        s.future_times(n)
            .iter()
            .map(|&(_, t)| t_window / ((t - now).as_millis() as f64).max(MIN_GAP_MS))
            .sum()
    }

    // lint: hot
    fn belady_key(&self, id: ChunkId) -> f64 {
        match self.schedules.get(&id).and_then(Schedule::next_seq) {
            Some(s) => s as f64,
            None => f64::INFINITY,
        }
    }

    // lint: hot
    fn evict_chunk(&mut self, victim: ChunkId, now: Timestamp) {
        self.disk.remove(&victim);
        if let Some(t0) = self.insert_time.remove(&victim) {
            let residency = (now - t0).as_millis() as f64;
            self.evictions += 1;
            // Cumulative mean: mean += (x - mean) / n.
            self.mean_residency_ms += (residency - self.mean_residency_ms) / self.evictions as f64;
        }
    }

    /// Number of evictions so far (for tests).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl CachePolicy for PsychicCache {
    // lint: hot
    fn handle_request(&mut self, request: &Request) -> Decision {
        let seq = self.seq;
        assert!(
            (seq as usize) < self.expected.len()
                && self.expected[seq as usize] == (request.video, request.t),
            "PsychicCache must replay exactly the trace it was built from \
             (request #{seq} diverges)"
        );
        self.seq += 1;
        let now = request.t;
        self.replay_start.get_or_insert(now);
        let k = self.config.cache.chunk_size;
        let capacity = self.config.cache.disk_chunks;
        let costs = self.config.cache.costs;
        let n = self.future_list_bound();

        // Consume this request's occurrences: L_x must describe the future.
        let mut present = std::mem::take(&mut self.scratch_present);
        let mut missing = std::mem::take(&mut self.scratch_missing);
        present.clear();
        missing.clear();
        let range = request.chunk_range(k);
        for c in range.iter() {
            let id = ChunkId::new(request.video, c);
            if let Some(s) = self.schedules.get_mut(&id) {
                s.advance(seq);
            }
            if self.disk.contains(&id) {
                present.push(id);
            } else {
                missing.push(id);
            }
        }

        // Present chunks' next occurrence changed: refresh Belady keys
        // regardless of the decision.
        for id in &present {
            let key = self.belady_key(*id);
            self.disk.insert(*id, key);
        }

        let warmup = (self.disk.len() as u64) < capacity;
        self.last_detail = DecisionDetail::age_only(self.cache_age_ms(now));
        let serve = if warmup || missing.is_empty() {
            true
        } else {
            let t_window = self.cache_age_ms(now);
            let evict_needed =
                ((self.disk.len() + missing.len()) as u64).saturating_sub(capacity) as usize;
            let min_cost = costs.min_cost();
            // Eq. 13. (Requested chunks are few: a linear `contains`
            // beats building a set per request.)
            let mut e_serve = missing.len() as f64 * costs.c_f();
            for (id, _) in self
                .disk
                .iter_largest_excluding(evict_needed, |id| present.contains(id))
            {
                e_serve += self.future_value(id, now, t_window, n) * min_cost;
            }
            // Eq. 14.
            let mut e_redirect = (present.len() + missing.len()) as f64 * costs.c_r();
            for id in &missing {
                e_redirect += self.future_value(*id, now, t_window, n) * min_cost;
            }
            self.last_detail = DecisionDetail::costs(e_serve, e_redirect, t_window);
            e_serve <= e_redirect
        };

        let decision = if !serve {
            Decision::Redirect
        } else {
            // Evict the cached chunks requested farthest in the future
            // (S''), then fill. Every filled chunk is genuinely stored —
            // the §2 model fetches and stores chunks to serve them, so
            // capacity is never exceeded even transiently (matching the
            // IP's constraint 10f). Requests larger than the whole disk
            // keep only their tail chunks.
            let evict_needed =
                ((self.disk.len() + missing.len()) as u64).saturating_sub(capacity) as usize;
            let mut evicted = std::mem::take(&mut self.scratch_evicted);
            evicted.clear();
            if evict_needed > 0 {
                evicted.extend(
                    self.disk
                        .iter_largest_excluding(evict_needed, |id| present.contains(id))
                        .map(|(id, _)| id),
                );
                for &v in &evicted {
                    self.evict_chunk(v, now);
                }
            }
            let evicted_chunks = evicted.len() as u64;
            self.scratch_evicted = evicted;
            let free = (capacity - self.disk.len() as u64) as usize;
            let keep_from = missing.len().saturating_sub(free);
            for id in &missing[keep_from..] {
                let key = self.belady_key(*id);
                self.disk.insert(*id, key);
                self.insert_time.insert(*id, now);
            }
            Decision::Serve(ServeOutcome {
                hit_chunks: present.len() as u64,
                filled_chunks: missing.len() as u64,
                evicted_chunks,
            })
        };
        self.scratch_present = present;
        self.scratch_missing = missing;
        self.obs.record_decision(&decision, self.disk.len() as u64);
        decision
    }

    fn name(&self) -> &'static str {
        "psychic"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.cache.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.cache.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.disk.len() as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.cache.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.disk.contains(&chunk)
    }

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.obs = obs;
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.last_detail
    }
}

impl PsychicCache {
    fn future_list_bound(&self) -> usize {
        self.config.future_list_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::ByteRange;

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn run(disk: u64, alpha: f64, reqs: Vec<Request>) -> (Vec<Decision>, PsychicCache) {
        let mut c = PsychicCache::new(
            PsychicConfig::new(
                disk,
                ChunkSize::new(100).unwrap(),
                CostModel::from_alpha(alpha).unwrap(),
            ),
            &reqs,
        );
        let ds = reqs.iter().map(|r| c.handle_request(r)).collect();
        (ds, c)
    }

    #[test]
    fn warmup_admits_everything() {
        let (ds, c) = run(
            4,
            1.0,
            vec![req(0, 0, 99, 1), req(1, 0, 99, 2), req(2, 0, 99, 3)],
        );
        assert!(ds.iter().all(Decision::is_serve));
        assert_eq!(c.disk_used_chunks(), 3);
    }

    #[test]
    fn admits_first_seen_video_with_future_demand() {
        // Unlike xLRU/Cafe, Psychic fills a never-seen file when the future
        // says it will be hot (§9.2's alpha=0.5 discussion).
        let mut reqs = vec![req(0, 0, 99, 1), req(1, 0, 99, 2)]; // warm 2-disk
                                                                 // Video 9: first request at t=100, then many more soon after.
        for i in 0..8 {
            reqs.push(req(9, 0, 99, 100 + i * 10));
        }
        let (ds, _) = run(2, 1.0, reqs);
        assert!(
            ds[2].is_serve(),
            "future-hot first-seen video must be admitted"
        );
    }

    #[test]
    fn redirects_chunks_with_no_future() {
        // One-shot request for video 9 (never again) against a disk full of
        // chunks that will be re-requested: serving would evict value.
        let reqs = vec![
            req(0, 0, 99, 1),
            req(1, 0, 99, 2),
            req(9, 0, 99, 100), // no future occurrences
            req(0, 0, 99, 200),
            req(1, 0, 99, 201),
        ];
        let (ds, _) = run(2, 1.0, reqs);
        assert!(ds[2].is_redirect(), "futureless one-shot should redirect");
        assert!(ds[3].is_serve() && ds[4].is_serve());
    }

    #[test]
    fn belady_eviction_takes_farthest_future() {
        // Disk 2. Videos 0 and 1 cached; 0 re-requested soon, 1 never
        // again. Filling video 9 (hot) must evict video 1.
        let reqs = vec![
            req(0, 0, 99, 1),
            req(1, 0, 99, 2),
            req(9, 0, 99, 10),
            req(9, 0, 99, 20),
            req(0, 0, 99, 30),
            req(9, 0, 99, 40),
        ];
        let (ds, c) = run(2, 1.0, reqs);
        // Request #2 (video 9): hot future, must be served, evicting v1.
        let o = ds[2].serve_outcome().expect("hot chunk should be filled");
        assert_eq!(o.evicted_chunks, 1);
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(9), 0)));
    }

    #[test]
    fn one_shot_request_redirected_when_it_would_displace_value() {
        // A one-shot 2-chunk request arrives while the disk holds two
        // chunks both requested again soon. Serving it would have to evict
        // the valuable chunks (fills are genuinely stored, §2 — there is
        // no serve-without-caching); under constrained ingress the
        // expected-cost comparison redirects it instead.
        let reqs = vec![
            req(0, 0, 99, 1),
            req(1, 0, 99, 2),
            req(9, 0, 199, 10), // 2 chunks, never again
            req(0, 0, 99, 20),
            req(1, 0, 99, 21),
        ];
        let (ds, c) = run(2, 2.0, reqs);
        assert!(ds[2].is_redirect(), "one-shot should be redirected");
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        // The useful chunks survived to be hits.
        let o3 = ds[3].serve_outcome().unwrap();
        let o4 = ds[4].serve_outcome().unwrap();
        assert_eq!(o3.hit_chunks, 1);
        assert_eq!(o4.hit_chunks, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut reqs = Vec::new();
        let mut t = 1;
        for round in 0..40u64 {
            for v in 0..5 {
                reqs.push(req(v, 0, 299, t));
                t += 7 + (round % 3);
            }
        }
        let mut c = PsychicCache::new(
            PsychicConfig::new(4, ChunkSize::new(100).unwrap(), CostModel::balanced()),
            &reqs,
        );
        for r in &reqs {
            c.handle_request(r);
            assert!(c.disk_used_chunks() <= 4);
        }
    }

    #[test]
    fn residency_tracking_updates_cache_age() {
        let reqs = vec![
            req(0, 0, 99, 0),
            req(1, 0, 99, 1_000),
            req(2, 0, 99, 2_000),
            req(2, 0, 99, 2_500),
            req(3, 0, 99, 3_000),
            req(3, 0, 99, 3_500),
        ];
        let (_, c) = run(2, 1.0, reqs);
        assert!(c.evictions() > 0);
        assert!(c.mean_residency_ms > 0.0);
        assert!((c.cache_age_ms(Timestamp(9_999)) - c.mean_residency_ms).abs() < 1e-9);
    }

    #[test]
    fn cache_age_before_first_eviction_is_replay_elapsed() {
        let reqs = vec![req(0, 0, 99, 1_000), req(1, 0, 99, 2_000)];
        let (_, c) = run(10, 1.0, reqs);
        assert_eq!(c.evictions(), 0);
        assert!((c.cache_age_ms(Timestamp(5_000)) - 4_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exactly the trace")]
    fn divergent_replay_detected() {
        let reqs = vec![req(0, 0, 99, 1)];
        let mut c = PsychicCache::new(
            PsychicConfig::new(2, ChunkSize::new(100).unwrap(), CostModel::balanced()),
            &reqs,
        );
        c.handle_request(&req(5, 0, 99, 1)); // different video
    }

    #[test]
    fn future_list_bound_caps_lookahead() {
        let cfg = PsychicConfig::new(2, ChunkSize::new(100).unwrap(), CostModel::balanced())
            .with_future_list_bound(3);
        assert_eq!(cfg.future_list_bound, 3);
        let mut s = Schedule::default();
        for i in 0..10u32 {
            s.occurrences.push((i, Timestamp(i as u64 * 10)));
        }
        s.advance(4);
        assert_eq!(s.future_times(3).len(), 3);
        assert_eq!(s.future_times(3)[0].0, 5);
        assert_eq!(s.next_seq(), Some(5));
        s.advance(9);
        assert_eq!(s.next_seq(), None);
        assert!(s.future_times(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "future list bound")]
    fn zero_future_bound_rejected() {
        let _ = PsychicConfig::new(1, ChunkSize::DEFAULT, CostModel::balanced())
            .with_future_list_bound(0);
    }

    #[test]
    fn full_hit_served_without_eviction() {
        let reqs = vec![req(0, 0, 99, 1), req(1, 0, 99, 2), req(0, 0, 99, 3)];
        let (ds, _) = run(2, 4.0, reqs);
        let o = ds[2].serve_outcome().unwrap();
        assert_eq!((o.hit_chunks, o.filled_chunks), (1, 0));
        assert_eq!(o.evicted_chunks, 0);
    }
}
