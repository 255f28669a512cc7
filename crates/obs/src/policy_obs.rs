//! The per-policy instrumentation handle.
//!
//! A [`PolicyObs`] bundles a shared [`MetricsSink`] with the
//! [`MetricId`]s one cache instance registered at attach time, so the
//! policy's hot path never touches the registry's name table. Detached
//! policies hold the no-op handle; every recording method first checks
//! the cached `enabled` flag, so the disabled cost is one predictable
//! branch per call site and zero allocation.
//!
//! Metric names are scoped by an attach-time prefix (e.g. `xlru.` or
//! `s03.cafe.`), which is how several policies — or several shard
//! servers running the same policy — share one registry without
//! colliding.

use std::sync::Arc;

use vcdn_types::Decision;

use crate::registry::{MetricId, MetricKind, MetricsSink, NoopSink};

/// A policy's registered metric handles plus the sink they live in.
#[derive(Clone)]
pub struct PolicyObs {
    enabled: bool,
    sink: Arc<dyn MetricsSink>,
    serve_requests: MetricId,
    redirect_requests: MetricId,
    hit_chunks: MetricId,
    fill_chunks: MetricId,
    evicted_chunks: MetricId,
    fill_per_request: MetricId,
    eviction_batch: MetricId,
    occupancy: MetricId,
    decision_latency_ns: MetricId,
}

impl std::fmt::Debug for PolicyObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyObs")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl PolicyObs {
    /// A detached handle writing to the shared [`NoopSink`]. This is what
    /// every policy starts with; replays that don't observe never pay more
    /// than the `enabled` check.
    pub fn noop() -> PolicyObs {
        let sink: Arc<dyn MetricsSink> = NoopSink::shared();
        PolicyObs {
            enabled: false,
            serve_requests: MetricId::NOOP,
            redirect_requests: MetricId::NOOP,
            hit_chunks: MetricId::NOOP,
            fill_chunks: MetricId::NOOP,
            evicted_chunks: MetricId::NOOP,
            fill_per_request: MetricId::NOOP,
            eviction_batch: MetricId::NOOP,
            occupancy: MetricId::NOOP,
            decision_latency_ns: MetricId::NOOP,
            sink,
        }
    }

    /// Attaches to `sink`, registering this policy's metric set under
    /// `scope` (names come out as `{scope}.serve_requests_total` etc.).
    /// Registration is the only non-hot-path work; keep the handle and
    /// reuse it for the whole replay.
    pub fn attach(sink: Arc<dyn MetricsSink>, scope: &str) -> PolicyObs {
        let name = |metric: &str| format!("{scope}.{metric}");
        PolicyObs {
            enabled: sink.enabled(),
            serve_requests: sink.register(&name("serve_requests_total"), MetricKind::Counter),
            redirect_requests: sink.register(&name("redirect_requests_total"), MetricKind::Counter),
            hit_chunks: sink.register(&name("hit_chunks_total"), MetricKind::Counter),
            fill_chunks: sink.register(&name("fill_chunks_total"), MetricKind::Counter),
            evicted_chunks: sink.register(&name("evicted_chunks_total"), MetricKind::Counter),
            fill_per_request: sink
                .register(&name("fill_chunks_per_request"), MetricKind::Histogram),
            eviction_batch: sink.register(&name("eviction_batch_chunks"), MetricKind::Histogram),
            occupancy: sink.register(&name("occupancy_chunks"), MetricKind::Gauge),
            decision_latency_ns: sink
                .register(&name("decision_latency_ns"), MetricKind::TimingHistogram),
            sink,
        }
    }

    /// Whether recording does anything. Instrumented code gates optional
    /// bookkeeping (e.g. reading the clock for the latency histogram) on
    /// this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a full decision outcome — verdict counters, hit/fill
    /// chunks, the eviction batch if any — plus the resulting disk
    /// occupancy. The one call a policy makes per request.
    #[inline]
    pub fn record_decision(&self, decision: &Decision, occupancy_chunks: u64) {
        if !self.enabled {
            return;
        }
        match decision {
            Decision::Serve(o) => {
                self.sink.counter_add(self.serve_requests, 1);
                self.sink.counter_add(self.hit_chunks, o.hit_chunks);
                self.sink.counter_add(self.fill_chunks, o.filled_chunks);
                self.sink.observe(self.fill_per_request, o.filled_chunks);
                if o.evicted_chunks > 0 {
                    self.sink.counter_add(self.evicted_chunks, o.evicted_chunks);
                    self.sink.observe(self.eviction_batch, o.evicted_chunks);
                }
            }
            Decision::Redirect => self.sink.counter_add(self.redirect_requests, 1),
        }
        self.sink.gauge_set(self.occupancy, occupancy_chunks);
    }

    /// Records one decision's wall-clock latency. The metric is a
    /// [`MetricKind::TimingHistogram`], so deterministic exports skip it.
    #[inline]
    pub fn record_decision_latency_ns(&self, nanos: u64) {
        if !self.enabled {
            return;
        }
        self.sink.observe(self.decision_latency_ns, nanos);
    }
}

impl Default for PolicyObs {
    fn default() -> Self {
        PolicyObs::noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use vcdn_types::ServeOutcome;

    fn serve(hit_chunks: u64, filled_chunks: u64, evicted_chunks: u64) -> Decision {
        Decision::Serve(ServeOutcome {
            hit_chunks,
            filled_chunks,
            evicted_chunks,
        })
    }

    #[test]
    fn noop_handle_is_disabled_and_inert() {
        let obs = PolicyObs::noop();
        assert!(!obs.enabled());
        obs.record_decision(&serve(4, 2, 10), 5);
        obs.record_decision(&Decision::Redirect, 5);
        obs.record_decision_latency_ns(123);
    }

    #[test]
    fn attached_handle_routes_to_scoped_names() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = PolicyObs::attach(reg.clone(), "xlru");
        assert!(obs.enabled());
        obs.record_decision(&serve(3, 1, 0), 10);
        obs.record_decision(&serve(0, 4, 7), 20);
        obs.record_decision(&Decision::Redirect, 42);

        let snap = reg.snapshot(true);
        let get = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(get("xlru.serve_requests_total").value, 2);
        assert_eq!(get("xlru.redirect_requests_total").value, 1);
        assert_eq!(get("xlru.hit_chunks_total").value, 3);
        assert_eq!(get("xlru.fill_chunks_total").value, 5);
        assert_eq!(get("xlru.evicted_chunks_total").value, 7);
        assert_eq!(get("xlru.occupancy_chunks").value, 42);
        let fills = get("xlru.fill_chunks_per_request");
        assert_eq!(fills.value, 2);
        assert_eq!(fills.sum, 5);
        // Only the evicting serve records an eviction batch.
        let batches = get("xlru.eviction_batch_chunks");
        assert_eq!((batches.value, batches.sum), (1, 7));
    }

    #[test]
    fn two_scopes_share_one_registry_without_collisions() {
        let reg = Arc::new(MetricsRegistry::new());
        let a = PolicyObs::attach(reg.clone(), "s00.cafe");
        let b = PolicyObs::attach(reg.clone(), "s01.cafe");
        a.record_decision(&Decision::Redirect, 0);
        b.record_decision(&serve(1, 0, 0), 1);
        let snap = reg.snapshot(true);
        let get = |name: &str| snap.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("s00.cafe.redirect_requests_total"), 1);
        assert_eq!(get("s00.cafe.serve_requests_total"), 0);
        assert_eq!(get("s01.cafe.serve_requests_total"), 1);
    }

    #[test]
    fn timing_metric_is_hidden_from_deterministic_snapshots() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = PolicyObs::attach(reg.clone(), "p");
        obs.record_decision_latency_ns(1_000);
        assert!(reg
            .snapshot(true)
            .iter()
            .all(|m| m.name != "p.decision_latency_ns"));
        assert!(reg
            .snapshot(false)
            .iter()
            .any(|m| m.name == "p.decision_latency_ns" && m.value == 1));
    }
}
