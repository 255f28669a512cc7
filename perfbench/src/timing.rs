//! Tracing kept in the benchmark's own code: coarse spans around each
//! call into a layer, and a transparent [`CachePolicy`] wrapper that
//! times every decision into a log histogram.
//!
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus the part covered by its child spans
//! and by the aggregated decide time charged to it
//! ([`SpanLog::charge`]); per-request decisions are far too many to keep
//! as spans of their own.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use vcdn_core::{CachePolicy, DecisionDetail, PolicyObs};
use vcdn_obs::histogram::BUCKETS;
use vcdn_obs::HistogramSnapshot;
use vcdn_types::json::Json;
use vcdn_types::{ChunkId, ChunkSize, CostModel, Decision, Request};

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: `workload`, `pass`, `setup`, `generate`, `decode`,
    /// `shard`, `build`, `replay`, `engine`, `finish` or `export`.
    pub name: &'static str,
    /// The pass this span belongs to.
    pub pass: usize,
    /// The policy, for per-policy spans.
    pub policy: Option<&'static str>,
    /// The server index, for per-server spans.
    pub server: Option<usize>,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created (0 while open).
    pub end_ns: u64,
    /// Time inside this span spent in un-spanned children (decide calls).
    pub charged_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        pass: usize,
        parent: Option<usize>,
        policy: Option<&'static str>,
        server: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass,
            policy,
            server,
            parent,
            start_ns,
            end_ns: 0,
            charged_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns().max(self.spans[id].start_ns);
        self.spans[id].end_ns = end;
        self.dur(id)
    }

    /// Closes every span opened at or after `first` that is still open
    /// (the clean-up after a panicking operation).
    pub fn close_open_from(&mut self, first: usize) {
        for id in first..self.spans.len() {
            if self.spans[id].end_ns == 0 {
                self.close(id);
            }
        }
    }

    /// Charges `ns` of un-spanned child time to span `id`.
    pub fn charge(&mut self, id: usize, ns: u64) {
        self.spans[id].charged_ns += ns;
    }

    /// A span's duration.
    pub fn dur(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// A span's self time: its duration minus its child spans and the
    /// time charged to it.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(c, _)| self.dur(c))
            .sum();
        self.dur(id)
            .saturating_sub(children)
            .saturating_sub(self.spans[id].charged_ns)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ids of the spans named `name` in `pass`, optionally of one policy.
    pub fn ids(&self, pass: usize, name: &str, policy: Option<&str>) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.pass == pass && s.name == name && (policy.is_none() || s.policy == policy)
            })
            .collect()
    }

    /// Total duration of the spans named `name` in `pass`, optionally of
    /// one policy.
    pub fn total_ns(&self, pass: usize, name: &str, policy: Option<&str>) -> u64 {
        self.ids(pass, name, policy)
            .into_iter()
            .map(|i| self.dur(i))
            .sum()
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt_int = |v: Option<usize>| v.map_or(Json::Null, |x| Json::Int(x as i128));
            let line = Json::Obj(vec![
                ("id".into(), Json::Int(id as i128)),
                ("parent".into(), opt_int(s.parent)),
                ("name".into(), Json::Str(s.name.into())),
                ("pass".into(), Json::Int(s.pass as i128)),
                (
                    "policy".into(),
                    s.policy.map_or(Json::Null, |p| Json::Str(p.into())),
                ),
                ("server".into(), opt_int(s.server)),
                ("start_ns".into(), Json::Int(s.start_ns as i128)),
                ("end_ns".into(), Json::Int(s.end_ns as i128)),
                ("charged_ns".into(), Json::Int(s.charged_ns as i128)),
                ("self_ns".into(), Json::Int(self.self_ns(id) as i128)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Decide-path statistics of one or more timed policies.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideStats {
    /// Per-call `handle_request` wall time, in the shared log-histogram
    /// layout (`sum` is the total decide time).
    pub hist: HistogramSnapshot,
    /// Serves that evicted at least one chunk.
    pub evicting_serves: u64,
    /// Chunks evicted.
    pub evicted_chunks: u64,
}

impl Default for DecideStats {
    fn default() -> Self {
        DecideStats {
            hist: HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: vec![0; BUCKETS],
            },
            evicting_serves: 0,
            evicted_chunks: 0,
        }
    }
}

impl DecideStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &DecideStats) {
        self.hist.merge_from(&other.hist);
        self.evicting_serves += other.evicting_serves;
        self.evicted_chunks += other.evicted_chunks;
    }
}

/// Where timed policies deliver their statistics when dropped; shared so
/// policies owned by an engine report too.
pub type StatsSink = Arc<Mutex<DecideStats>>;

/// A fresh, empty sink.
pub fn stats_sink() -> StatsSink {
    Arc::new(Mutex::new(DecideStats::default()))
}

/// A transparent timing wrapper: forwards every call to the wrapped
/// policy, timing each `handle_request` and counting evictions from the
/// occupancy change (`before + filled − after`). Statistics are kept
/// locally and merged into the sink when the wrapper is dropped.
pub struct TimedPolicy {
    inner: Box<dyn CachePolicy>,
    local: DecideStats,
    sink: StatsSink,
}

impl TimedPolicy {
    /// Wraps `inner`, delivering statistics to `sink` on drop.
    pub fn wrap(inner: Box<dyn CachePolicy>, sink: &StatsSink) -> Box<dyn CachePolicy> {
        Box::new(TimedPolicy {
            inner,
            local: DecideStats::default(),
            sink: Arc::clone(sink),
        })
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        // A poisoned sink means another operation panicked; the numbers
        // are still sound to add.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.merge(&self.local);
    }
}

impl CachePolicy for TimedPolicy {
    fn handle_request(&mut self, request: &Request) -> Decision {
        let before = self.inner.disk_used_chunks();
        let t0 = Instant::now();
        let decision = self.inner.handle_request(request);
        let ns = t0.elapsed().as_nanos() as u64;
        self.local.hist.observe(ns);
        if let Decision::Serve(o) = &decision {
            let evicted = (before + o.filled_chunks).saturating_sub(self.inner.disk_used_chunks());
            if evicted > 0 {
                self.local.evicting_serves += 1;
                self.local.evicted_chunks += evicted;
            }
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn chunk_size(&self) -> ChunkSize {
        self.inner.chunk_size()
    }

    fn costs(&self) -> CostModel {
        self.inner.costs()
    }

    fn disk_used_chunks(&self) -> u64 {
        self.inner.disk_used_chunks()
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.inner.disk_capacity_chunks()
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.inner.contains_chunk(chunk)
    }

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.inner.attach_obs(obs);
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.inner.decision_detail()
    }
}
