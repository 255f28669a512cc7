//! The replay engine: drives a request trace through a cache policy and
//! accounts traffic the way the paper's evaluation does.
//!
//! Accounting is in chunk-granularity bytes (`chunks × K`) on all three
//! buckets — hits, fills, redirects — because a chunk is fetched and
//! stored in full even when requested partially (§4.2), and a uniform unit
//! keeps the identity `hit + fill + redirect = requested` exact.
//!
//! The paper reports steady-state efficiency as "the average over the
//! second half of the month ... to exclude the initial cache warmup phase"
//! (§9); [`ReplayReport::steady`] implements exactly that. Time series
//! such as Figure 3's hourly panels are not part of the report: observe
//! the replay with a [`WindowRing`] (it implements [`ReplayObserver`]),
//! the one place that assigns requests to trace-time windows.
//!
//! `Kernel::step` is the one home of this Eq. 2 accounting rule: both
//! [`Replayer`] and the sharded engine ([`crate::engine`]) run every
//! request through it, and the multi-cache loops (hierarchy, fleet,
//! co-located) add the same [`TrafficCounter::of_decision`] delta.

use vcdn_core::CachePolicy;
use vcdn_obs::{DecisionDetail, WindowInput, WindowRing};
use vcdn_trace::Trace;
use vcdn_types::{ChunkSize, CostModel, Decision, DurationMs, Request, Timestamp, TrafficCounter};

/// Replay options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Chunk size used for byte accounting (must match the policy's).
    pub chunk_size: ChunkSize,
    /// Cost model used for efficiency reporting (must match the policy's).
    pub costs: CostModel,
    /// Fraction of the replay after which steady-state accounting begins
    /// (paper: 0.5 — the second half).
    pub steady_after: f64,
    /// Verify policy invariants (capacity, serve completeness) after every
    /// request; cheap, on by default.
    pub check_invariants: bool,
}

impl ReplayConfig {
    /// The paper's measurement setup: steady state over the second half.
    pub fn new(chunk_size: ChunkSize, costs: CostModel) -> Self {
        ReplayConfig {
            chunk_size,
            costs,
            steady_after: 0.5,
            check_invariants: true,
        }
    }

    /// Overrides the steady-state start fraction.
    pub fn with_steady_after(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "steady_after must be in [0, 1)"
        );
        self.steady_after = fraction;
        self
    }

    /// Toggles the per-request invariant walk (capacity, serve
    /// completeness). On by default; benches turn it off because the
    /// asserts sit on the replay hot loop, while tests keep it on.
    pub fn with_check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// The measurement configuration for benches and sweeps: identical to
    /// [`ReplayConfig::new`] but with the per-request invariant checks
    /// off. The invariants stay enforced by the test suite, which replays
    /// the same policies with [`ReplayConfig::new`].
    pub fn bench(chunk_size: ChunkSize, costs: CostModel) -> Self {
        Self::new(chunk_size, costs).with_check_invariants(false)
    }
}

/// Which accounting setting `policy` disagrees with, if any: chunk size
/// or cost model. [`Replayer`] panics on it; the engine returns an error.
pub(crate) fn policy_mismatch(
    policy: &dyn CachePolicy,
    chunk_size: ChunkSize,
    costs: CostModel,
) -> Option<&'static str> {
    if policy.chunk_size() != chunk_size {
        Some("chunk size")
    } else if (policy.costs().alpha() - costs.alpha()).abs() > 1e-12 {
        Some("cost model")
    } else {
        None
    }
}

/// The per-request accounting step (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    chunk_size: ChunkSize,
    /// First instant counted as steady state.
    steady_from: Timestamp,
    check_invariants: bool,
}

impl Kernel {
    /// A kernel for one run over `trace`: steady state starts at
    /// `steady_after` of the trace horizon (its declared duration, else
    /// its last timestamp plus 1 ms).
    pub(crate) fn new(
        trace: &Trace,
        chunk_size: ChunkSize,
        steady_after: f64,
        check_invariants: bool,
    ) -> Kernel {
        let horizon = if trace.meta.duration > DurationMs::ZERO {
            trace.meta.duration
        } else {
            DurationMs(trace.end_time().as_millis() + 1)
        };
        Kernel {
            chunk_size,
            steady_from: Timestamp((horizon.as_millis() as f64 * steady_after) as u64),
            check_invariants,
        }
    }

    /// Decides `request` on `policy`, checks the serve contract (when
    /// invariants are on), adds the request's traffic to `overall` and,
    /// from steady state on, to `steady`, and returns the decision with
    /// the request's window input (its queue gap left for dispatchers).
    #[inline]
    // lint: hot
    pub(crate) fn step(
        &self,
        policy: &mut dyn CachePolicy,
        request: &Request,
        overall: &mut TrafficCounter,
        steady: &mut TrafficCounter,
    ) -> (Decision, WindowInput) {
        let chunks = request.chunk_len(self.chunk_size);
        let decision = policy.handle_request(request);
        let (filled_chunks, evicted_chunks) = match &decision {
            Decision::Serve(o) => {
                if self.check_invariants {
                    assert_eq!(
                        o.served_chunks(),
                        chunks,
                        "{}: serve must cover the full request",
                        policy.name()
                    );
                    assert!(
                        policy.disk_used_chunks() <= policy.disk_capacity_chunks(),
                        "{}: capacity exceeded",
                        policy.name()
                    );
                }
                (o.filled_chunks, o.evicted_chunks)
            }
            Decision::Redirect => (0, 0),
        };
        let traffic = TrafficCounter::of_decision(&decision, chunks, self.chunk_size);
        *overall += traffic;
        if request.t >= self.steady_from {
            *steady += traffic;
        }
        let input = WindowInput {
            t_ms: request.t.as_millis(),
            traffic,
            filled_chunks,
            evicted_chunks,
            request_chunks: chunks,
            queue_gap: None,
        };
        (decision, input)
    }
}

/// Everything known about one replayed request at decision time, handed
/// to a [`ReplayObserver`].
#[derive(Debug, Clone, Copy)]
pub struct DecisionCtx<'a> {
    /// 0-based request sequence number within the replay.
    pub seq: u64,
    /// The replayed request.
    pub request: &'a Request,
    /// First requested chunk index.
    pub first_chunk: u32,
    /// The policy's decision.
    pub decision: &'a Decision,
    /// The request's accounted traffic delta, disk churn and size in
    /// chunks, exactly as the replay counted them.
    pub input: WindowInput,
    /// The policy's cost/age detail for this decision.
    pub detail: DecisionDetail,
    /// The deciding policy's name.
    pub policy: &'static str,
    /// Chunks on disk after the decision.
    pub occupancy_chunks: u64,
    /// Disk capacity in chunks.
    pub capacity_chunks: u64,
    /// Wall time the decide step (`handle_request` plus its accounting)
    /// took, when the observer asked for timing (non-deterministic —
    /// excluded from deterministic exports).
    pub latency_ns: Option<u64>,
}

/// Per-decision hook for [`Replayer::replay_observed`].
///
/// The unit type `()` is the no-op observer: its [`ReplayObserver::ACTIVE`]
/// is `false`, so the observer branch (including the `decision_detail`
/// call and the latency clock reads) compiles out of the hot loop entirely
/// and [`Replayer::replay`] keeps its unobserved cost.
pub trait ReplayObserver {
    /// Whether this observer does anything; `false` erases all observer
    /// work at compile time.
    const ACTIVE: bool = true;

    /// Whether each decide step should be wall-clock timed for
    /// [`DecisionCtx::latency_ns`]. Defaults to `false`; timing is
    /// inherently non-deterministic.
    fn wants_timing(&self) -> bool {
        false
    }

    /// Called once per replayed request, after accounting.
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>);
}

/// The no-op observer: replaying with it is identical to not observing.
impl ReplayObserver for () {
    const ACTIVE: bool = false;

    fn on_decision(&mut self, _ctx: &DecisionCtx<'_>) {}
}

/// Records every replayed request into the ring's trace-time windows.
/// Closed windows stay in the ring, so size `retain` to the windows the
/// caller wants back (read them with [`WindowRing::snapshot_windows`]).
impl ReplayObserver for WindowRing {
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        self.record(&ctx.input, &mut |_| {});
    }
}

/// Outcome of replaying one trace through one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The policy's name.
    pub policy: &'static str,
    /// Traffic over the full replay.
    pub overall: TrafficCounter,
    /// Traffic over the steady-state portion (the paper's reported
    /// numbers).
    pub steady: TrafficCounter,
    /// The cost model used for efficiency computation.
    pub costs: CostModel,
}

impl ReplayReport {
    /// Steady-state cache efficiency (Eq. 2) — the paper's headline
    /// metric.
    pub fn efficiency(&self) -> f64 {
        self.steady.efficiency(self.costs)
    }

    /// Steady-state ingress-to-egress percentage.
    pub fn ingress_pct(&self) -> f64 {
        self.steady.ingress_pct()
    }

    /// Steady-state redirected percentage of requested bytes.
    pub fn redirect_pct(&self) -> f64 {
        self.steady.redirect_pct()
    }
}

/// Drives traces through policies.
#[derive(Debug, Clone, Copy)]
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// Creates a replayer.
    pub fn new(config: ReplayConfig) -> Self {
        Replayer { config }
    }

    /// The replay configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.config
    }

    /// Replays `trace` through `policy`, returning the traffic report.
    ///
    /// # Panics
    ///
    /// Panics if the policy's chunk size or cost model disagree with the
    /// replay configuration, or (with `check_invariants`) if the policy
    /// violates its contract.
    pub fn replay(&self, trace: &Trace, policy: &mut dyn CachePolicy) -> ReplayReport {
        self.replay_observed(trace, policy, &mut ())
    }

    /// Replays `trace` through `policy`, invoking `observer` once per
    /// request. With the `()` observer this is exactly [`Replayer::replay`]
    /// — the observer branch compiles out.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Replayer::replay`].
    pub fn replay_observed<O: ReplayObserver>(
        &self,
        trace: &Trace,
        policy: &mut dyn CachePolicy,
        observer: &mut O,
    ) -> ReplayReport {
        let cfg = &self.config;
        let mismatch = policy_mismatch(policy, cfg.chunk_size, cfg.costs);
        assert!(
            mismatch.is_none(),
            "policy/replayer {} mismatch",
            mismatch.unwrap_or_default()
        );
        let kernel = Kernel::new(
            trace,
            cfg.chunk_size,
            cfg.steady_after,
            cfg.check_invariants,
        );
        let mut overall = TrafficCounter::default();
        let mut steady = TrafficCounter::default();

        let timed = O::ACTIVE && observer.wants_timing();
        for (seq, request) in trace.requests.iter().enumerate() {
            let started = timed.then(std::time::Instant::now);
            let (decision, input) = kernel.step(policy, request, &mut overall, &mut steady);
            let latency_ns = started.map(|t| t.elapsed().as_nanos() as u64);

            if O::ACTIVE {
                observer.on_decision(&DecisionCtx {
                    seq: seq as u64,
                    request,
                    first_chunk: request.chunk_range(cfg.chunk_size).start,
                    decision: &decision,
                    input,
                    detail: policy.decision_detail(),
                    policy: policy.name(),
                    occupancy_chunks: policy.disk_used_chunks(),
                    capacity_chunks: policy.disk_capacity_chunks(),
                    latency_ns,
                });
            }
        }

        ReplayReport {
            policy: policy.name(),
            overall,
            steady,
            costs: cfg.costs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::{CacheConfig, LruCache, XlruCache};
    use vcdn_trace::{TraceGenerator, TraceMeta};
    use vcdn_types::{ByteRange, ChunkSize, Request, VideoId};

    fn k100() -> ChunkSize {
        ChunkSize::new(100).unwrap()
    }

    fn mk_trace(reqs: Vec<Request>, duration_ms: u64) -> Trace {
        Trace::new(
            TraceMeta {
                name: "t".into(),
                seed: 0,
                duration: DurationMs(duration_ms),
                description: String::new(),
            },
            reqs,
        )
    }

    #[test]
    fn accounting_identity_holds() {
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 3)
            .generate(DurationMs::from_hours(8));
        let costs = CostModel::balanced();
        let cfg = ReplayConfig::new(ChunkSize::DEFAULT, costs);
        let mut cache = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut ring = WindowRing::new(DurationMs::HOUR.as_millis(), usize::MAX);
        let report = Replayer::new(cfg).replay_observed(&trace, &mut cache, &mut ring);
        // Every requested chunk-byte is a hit, fill or redirect.
        let expected: u64 = trace
            .requests
            .iter()
            .map(|r| r.chunk_len(ChunkSize::DEFAULT) * ChunkSize::DEFAULT.bytes())
            .sum();
        assert_eq!(report.overall.requested_bytes(), expected);
        assert_eq!(report.overall.total_requests() as usize, trace.len());
        // Window traffic sums to the overall counter.
        let window_sum = ring
            .snapshot_windows()
            .iter()
            .fold(TrafficCounter::default(), |acc, w| acc + w.traffic);
        assert_eq!(window_sum, report.overall);
    }

    #[test]
    fn steady_excludes_first_half() {
        // Two requests: one early, one late; steady sees only the late one.
        let reqs = vec![
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(10)),
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(900)),
        ];
        let trace = mk_trace(reqs, 1_000);
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let report = Replayer::new(ReplayConfig::new(k100(), costs)).replay(&trace, &mut cache);
        assert_eq!(report.overall.total_requests(), 2);
        assert_eq!(report.steady.total_requests(), 1);
        // The late request is a pure hit.
        assert_eq!(report.steady.hit_bytes, 100);
        assert!((report.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_hour_aligned() {
        let reqs = vec![
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(0)),
            Request::new(
                VideoId(2),
                ByteRange::new(0, 99).unwrap(),
                Timestamp(DurationMs::from_hours(2).as_millis() + 5),
            ),
        ];
        let trace = mk_trace(reqs, DurationMs::from_hours(3).as_millis());
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let mut ring = WindowRing::new(DurationMs::HOUR.as_millis(), usize::MAX);
        Replayer::new(ReplayConfig::new(k100(), costs))
            .replay_observed(&trace, &mut cache, &mut ring);
        // Window i starts at i hours: the request at 2h + 5ms is in [2].
        let requests: Vec<u64> = ring
            .snapshot_windows()
            .iter()
            .map(|w| w.traffic.total_requests())
            .collect();
        assert_eq!(requests, vec![1, 0, 1]);
    }

    /// The per-request fold `Replayer` once ran inline into the report,
    /// kept as the reference the [`WindowRing`] observer must reproduce.
    struct FoldReference {
        width_ms: u64,
        chunk_size: ChunkSize,
        windows: Vec<TrafficCounter>,
    }

    impl ReplayObserver for FoldReference {
        fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
            let widx = (ctx.request.t.as_millis() / self.width_ms) as usize;
            if self.windows.len() <= widx {
                self.windows.resize(widx + 1, TrafficCounter::default());
            }
            let chunks = ctx.request.chunk_len(self.chunk_size);
            self.windows[widx] +=
                TrafficCounter::of_decision(ctx.decision, chunks, self.chunk_size);
        }
    }

    #[test]
    fn window_ring_observer_matches_the_per_request_fold() {
        let k = ChunkSize::DEFAULT;
        let costs = CostModel::from_alpha(2.0).unwrap();
        let full = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 17)
            .generate(DurationMs::from_hours(8));
        let min = DurationMs::from_secs(60).as_millis();
        // The full trace, and a slice whose first request falls in window
        // 4 or later of a 20-minute grid, so windows 0..4 are leading
        // empties the ring must still emit.
        let late = full.window(Timestamp(95 * min), Timestamp(8 * 60 * min));
        assert!(late.requests[0].t.as_millis() >= 4 * 20 * min);
        for (trace, width_ms) in [(&full, 7 * min), (&late, 20 * min)] {
            let replayer = Replayer::new(ReplayConfig::new(k, costs));
            let mut reference = FoldReference {
                width_ms,
                chunk_size: k,
                windows: Vec::new(),
            };
            let mut cache = XlruCache::new(CacheConfig::new(64, k, costs));
            let expected = replayer.replay_observed(trace, &mut cache, &mut reference);
            let mut ring = WindowRing::new(width_ms, usize::MAX);
            let mut cache = XlruCache::new(CacheConfig::new(64, k, costs));
            let report = replayer.replay_observed(trace, &mut cache, &mut ring);
            assert_eq!(report, expected);
            let windows = ring.snapshot_windows();
            let indices: Vec<u64> = windows.iter().map(|w| w.index).collect();
            assert_eq!(
                indices,
                (0..reference.windows.len() as u64).collect::<Vec<_>>()
            );
            let traffic: Vec<TrafficCounter> = windows.iter().map(|w| w.traffic).collect();
            assert_eq!(traffic, reference.windows);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size mismatch")]
    fn chunk_size_mismatch_detected() {
        let trace = mk_trace(vec![], 10);
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let cfg = ReplayConfig::new(ChunkSize::DEFAULT, costs);
        Replayer::new(cfg).replay(&trace, &mut cache);
    }

    #[test]
    #[should_panic(expected = "cost model mismatch")]
    fn cost_mismatch_detected() {
        let trace = mk_trace(vec![], 10);
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), CostModel::balanced()));
        let cfg = ReplayConfig::new(k100(), CostModel::from_alpha(2.0).unwrap());
        Replayer::new(cfg).replay(&trace, &mut cache);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let trace = mk_trace(vec![], 0);
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let report = Replayer::new(ReplayConfig::new(k100(), costs)).replay(&trace, &mut cache);
        assert_eq!(report.overall, TrafficCounter::default());
        assert_eq!(report.efficiency(), 0.0);
        let mut ring = WindowRing::new(DurationMs::HOUR.as_millis(), 4);
        Replayer::new(ReplayConfig::new(k100(), costs))
            .replay_observed(&trace, &mut cache, &mut ring);
        assert!(ring.snapshot_windows().is_empty());
    }

    #[test]
    fn config_validation() {
        let c = ReplayConfig::new(k100(), CostModel::balanced()).with_steady_after(0.25);
        assert!((c.steady_after - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bench_config_disables_invariants_only() {
        let costs = CostModel::balanced();
        let checked = ReplayConfig::new(k100(), costs);
        let bench = ReplayConfig::bench(k100(), costs);
        assert!(checked.check_invariants);
        assert!(!bench.check_invariants);
        assert_eq!(bench.with_check_invariants(true), checked);
        // The flag only gates asserts — reports are identical either way.
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 5)
            .generate(DurationMs::from_hours(6));
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut a = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut b = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let ra = Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs)).replay(&trace, &mut a);
        let rb =
            Replayer::new(ReplayConfig::bench(ChunkSize::DEFAULT, costs)).replay(&trace, &mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "steady_after")]
    fn bad_steady_fraction_rejected() {
        let _ = ReplayConfig::new(k100(), CostModel::balanced()).with_steady_after(1.0);
    }

    /// Counts what it sees; used to check the observer contract.
    #[derive(Default)]
    struct CountingObserver {
        decisions: u64,
        serves: u64,
        redirects: u64,
        chunks: u64,
        last_seq: Option<u64>,
        saw_latency: bool,
        occupancy_ok: bool,
        timing: bool,
    }

    impl ReplayObserver for CountingObserver {
        fn wants_timing(&self) -> bool {
            self.timing
        }

        fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
            assert_eq!(ctx.seq, self.last_seq.map_or(0, |s| s + 1));
            self.last_seq = Some(ctx.seq);
            self.decisions += 1;
            self.chunks += ctx.input.request_chunks;
            match ctx.decision {
                Decision::Serve(_) => self.serves += 1,
                Decision::Redirect => self.redirects += 1,
            }
            self.saw_latency |= ctx.latency_ns.is_some();
            self.occupancy_ok = ctx.occupancy_chunks <= ctx.capacity_chunks;
        }
    }

    #[test]
    fn observer_sees_every_request_and_report_is_unchanged() {
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 11)
            .generate(DurationMs::from_hours(8));
        let costs = CostModel::from_alpha(2.0).unwrap();
        let cfg = ReplayConfig::new(ChunkSize::DEFAULT, costs);
        let mut plain = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let baseline = Replayer::new(cfg).replay(&trace, &mut plain);

        let mut observed = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut obs = CountingObserver::default();
        let report = Replayer::new(cfg).replay_observed(&trace, &mut observed, &mut obs);

        assert_eq!(report, baseline);
        assert_eq!(obs.decisions as usize, trace.len());
        assert_eq!(obs.serves, report.overall.served_requests);
        assert_eq!(obs.redirects, report.overall.redirected_requests);
        assert!(obs.occupancy_ok);
        // Timing was not requested, so no clock was read.
        assert!(!obs.saw_latency);
    }

    #[test]
    fn observer_timing_is_opt_in() {
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 11)
            .generate(DurationMs::from_hours(1));
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut obs = CountingObserver {
            timing: true,
            ..CountingObserver::default()
        };
        Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs))
            .replay_observed(&trace, &mut cache, &mut obs);
        assert!(obs.decisions > 0);
        assert!(obs.saw_latency);
    }
}
