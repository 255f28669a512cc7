//! The replay time-series sampler: periodic snapshots of cache behavior
//! over *trace time*.
//!
//! The paper's evaluation is time-resolved — cache-efficiency warm-up
//! curves, fill/redirect byte breakdowns and cache-age dynamics per server
//! (§9, Figs. 3, 6) — but an end-of-run aggregate throws that structure
//! away. [`ReplaySampler`] closes the gap: fed once per replayed request,
//! it is a running total over a [`WindowRing`] whose width is the sample
//! interval. The ring decides which interval each request falls in and
//! closes every elapsed interval, including empty ones, so the series is
//! a complete, evenly spaced grid; each closed interval becomes one
//! [`SeriesSample`] (its traffic, the running total, and the last
//! decision's occupancy, capacity and cache age). The sampler itself does
//! no interval arithmetic.
//!
//! Determinism: samples carry exact integer byte counters plus floats
//! derived only from them, so a sampler fed the same replay produces
//! byte-identical output regardless of wall-clock, thread count or
//! machine. The cumulative counters reproduce the replay's aggregate
//! exactly: the last sample's `cum_*` fields equal the run's overall
//! [`TrafficCounter`], making the Eq. 2 identity testable to the bit.

use vcdn_types::json::{Json, ToJson};
use vcdn_types::{CostModel, TrafficCounter};

use crate::window::{int_field, traffic_fields, WindowInput, WindowRing, WindowStats};

/// One interval's snapshot of replay behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// Interval start (trace ms).
    pub t_ms: u64,
    /// Traffic accumulated within this interval alone.
    pub interval: TrafficCounter,
    /// Traffic accumulated from replay start through this interval's end.
    pub cum: TrafficCounter,
    /// Eq. 2 efficiency over this interval alone (`0.0` for an interval
    /// with no requested bytes — the zero-request guard, not `NaN`).
    pub efficiency: f64,
    /// Eq. 2 efficiency from replay start through this interval's end.
    pub cum_efficiency: f64,
    /// Chunks on disk at the last decision at or before interval end.
    pub occupancy_chunks: u64,
    /// Disk capacity in chunks.
    pub capacity_chunks: u64,
    /// Policy cache age (ms) at the last decision observed, where the
    /// policy defines one.
    pub cache_age_ms: Option<f64>,
}

impl ToJson for SeriesSample {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type".into(), Json::Str("sample".into())),
            int_field("t_ms", self.t_ms),
        ];
        fields.extend(traffic_fields(&self.interval));
        fields.extend([
            ("efficiency".into(), Json::Float(self.efficiency)),
            int_field("cum_hit_bytes", self.cum.hit_bytes),
            int_field("cum_fill_bytes", self.cum.fill_bytes),
            int_field("cum_redirect_bytes", self.cum.redirect_bytes),
            ("cum_efficiency".into(), Json::Float(self.cum_efficiency)),
            int_field("occupancy_chunks", self.occupancy_chunks),
            int_field("capacity_chunks", self.capacity_chunks),
            ("cache_age_ms".into(), self.cache_age_ms.to_json()),
        ]);
        Json::Obj(fields)
    }
}

/// A running total over a [`WindowRing`] at the sample interval: the
/// ring decides which interval a request falls in, and each interval it
/// closes becomes one [`SeriesSample`].
///
/// Feed every request through [`ReplaySampler::record`]; call
/// [`ReplaySampler::finish`] after the replay to flush the open interval
/// and take the samples.
///
/// # Examples
///
/// ```
/// use vcdn_obs::{ReplaySampler, WindowInput};
/// use vcdn_types::{CostModel, TrafficCounter};
///
/// let at = |t_ms, traffic| WindowInput { t_ms, traffic, ..WindowInput::default() };
/// let served = TrafficCounter { hit_bytes: 80, fill_bytes: 20, served_requests: 1, ..TrafficCounter::default() };
/// let redirected = TrafficCounter { redirect_bytes: 50, redirected_requests: 1, ..TrafficCounter::default() };
/// let mut s = ReplaySampler::new(1_000, CostModel::balanced());
/// s.record(&at(100, served), 4, 8, None); // t=100ms: 80B hit, 20B fill
/// s.record(&at(2_500, redirected), 4, 8, None); // t=2.5s: 50B redirected
/// let samples = s.finish();
/// assert_eq!(samples.len(), 3); // intervals [0,1s) [1s,2s) [2s,3s)
/// assert_eq!(samples[1].interval.requested_bytes(), 0); // empty, not NaN
/// assert_eq!(samples[1].efficiency, 0.0);
/// assert_eq!(samples[2].cum.requested_bytes(), 150);
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySampler {
    ring: WindowRing,
    series: Series,
}

/// The close callback's state: the last decision's gauges and the
/// samples so far (the last sample's `cum` is the running total).
#[derive(Debug, Clone)]
struct Series {
    costs: CostModel,
    interval_ms: u64,
    occupancy_chunks: u64,
    capacity_chunks: u64,
    cache_age_ms: Option<f64>,
    samples: Vec<SeriesSample>,
}

impl Series {
    fn close(&mut self, w: &WindowStats) {
        let cum = self.samples.last().map_or(w.traffic, |s| s.cum + w.traffic);
        self.samples.push(SeriesSample {
            t_ms: w.start_ms(self.interval_ms),
            interval: w.traffic,
            cum,
            efficiency: w.traffic.efficiency(self.costs),
            cum_efficiency: cum.efficiency(self.costs),
            occupancy_chunks: self.occupancy_chunks,
            capacity_chunks: self.capacity_chunks,
            cache_age_ms: self.cache_age_ms,
        });
    }
}

impl ReplaySampler {
    /// Creates a sampler emitting one sample per `interval_ms` of trace
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ms == 0`.
    pub fn new(interval_ms: u64, costs: CostModel) -> ReplaySampler {
        assert!(interval_ms > 0, "sample interval must be > 0");
        ReplaySampler {
            // The samples are the retained series; the ring keeps one.
            ring: WindowRing::new(interval_ms, 1),
            series: Series {
                costs,
                interval_ms,
                occupancy_chunks: 0,
                capacity_chunks: 0,
                cache_age_ms: None,
                samples: Vec::new(),
            },
        }
    }

    /// The configured interval (ms).
    pub fn interval_ms(&self) -> u64 {
        self.ring.width_ms()
    }

    /// Records one decided request: `input.traffic` is its delta
    /// ([`TrafficCounter::of_decision`]); `occupancy`/`capacity` are the
    /// policy's disk state after the decision, and `cache_age_ms` the
    /// policy's cache age where defined. Intervals the request closes are
    /// sampled with the gauges of the decision before it.
    ///
    /// # Panics
    ///
    /// Panics if `input.t_ms` moves backwards past an already closed
    /// interval (replay time is non-decreasing).
    pub fn record(
        &mut self,
        input: &WindowInput,
        occupancy: u64,
        capacity: u64,
        cache_age_ms: Option<f64>,
    ) {
        let series = &mut self.series;
        self.ring.record(input, &mut |w| series.close(w));
        series.occupancy_chunks = occupancy;
        series.capacity_chunks = capacity;
        series.cache_age_ms = cache_age_ms.or(series.cache_age_ms);
    }

    /// Flushes the open interval and returns the complete series. An
    /// entirely unfed sampler returns no samples.
    pub fn finish(mut self) -> Vec<SeriesSample> {
        let series = &mut self.series;
        self.ring.finish(&mut |w| series.close(w));
        self.series.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request at `t_ms` with the given bytes; `redirect > 0` makes it a
    /// redirect, otherwise a serve.
    fn req(t_ms: u64, hit: u64, fill: u64, redirect: u64) -> WindowInput {
        WindowInput {
            t_ms,
            traffic: TrafficCounter {
                hit_bytes: hit,
                fill_bytes: fill,
                redirect_bytes: redirect,
                served_requests: u64::from(redirect == 0),
                redirected_requests: u64::from(redirect > 0),
            },
            ..WindowInput::default()
        }
    }

    #[test]
    fn cumulative_counters_match_total_exactly() {
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut s = ReplaySampler::new(500, costs);
        let mut total = TrafficCounter::default();
        for i in 0..50u64 {
            let (h, f, r) = match i % 3 {
                0 => (100, 20, 0),
                1 => (0, 0, 70),
                _ => (40, 0, 0),
            };
            let input = req(i * 97, h, f, r);
            s.record(&input, i, 100, Some(i as f64));
            total += input.traffic;
        }
        let samples = s.finish();
        let last = samples.last().unwrap();
        assert_eq!(last.cum, total);
        assert_eq!(last.cum_efficiency, total.efficiency(costs));
        // Interval counters sum to the total too.
        let sum = samples
            .iter()
            .fold(TrafficCounter::default(), |acc, w| acc + w.interval);
        assert_eq!(sum, total);
    }

    #[test]
    fn empty_intervals_are_emitted_with_zero_efficiency() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
        s.record(&req(50, 10, 0, 0), 1, 4, None);
        s.record(&req(950, 10, 0, 0), 2, 4, None);
        let samples = s.finish();
        assert_eq!(samples.len(), 10);
        for sample in &samples[1..9] {
            assert_eq!(sample.interval.requested_bytes(), 0);
            assert_eq!(sample.efficiency, 0.0);
            assert!(sample.efficiency.is_finite());
            // Cumulative state persists through the gap.
            assert_eq!(sample.cum.hit_bytes, 10);
            assert_eq!(sample.occupancy_chunks, 1);
        }
    }

    #[test]
    fn sample_grid_is_evenly_spaced() {
        let mut s = ReplaySampler::new(250, CostModel::balanced());
        s.record(&req(0, 1, 0, 0), 1, 1, None);
        s.record(&req(1_100, 1, 0, 0), 1, 1, None);
        let samples = s.finish();
        let starts: Vec<u64> = samples.iter().map(|x| x.t_ms).collect();
        assert_eq!(starts, vec![0, 250, 500, 750, 1000]);
    }

    #[test]
    fn unfed_sampler_yields_no_samples() {
        let s = ReplaySampler::new(1000, CostModel::balanced());
        assert!(s.finish().is_empty());
    }

    #[test]
    fn cache_age_holds_last_known_value() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
        s.record(&req(10, 1, 0, 0), 1, 2, Some(42.0));
        s.record(&req(150, 1, 0, 0), 1, 2, None);
        let samples = s.finish();
        assert_eq!(samples[0].cache_age_ms, Some(42.0));
        assert_eq!(samples[1].cache_age_ms, Some(42.0));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn time_reversal_is_rejected() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
        s.record(&req(500, 1, 0, 0), 1, 1, None);
        s.record(&req(10, 1, 0, 0), 1, 1, None);
    }

    #[test]
    fn sample_serialises_to_flat_object() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
        s.record(&req(10, 80, 20, 0), 3, 8, Some(7.5));
        let sample = &s.finish()[0];
        let parsed = vcdn_types::json::parse(&sample.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("sample"));
        assert_eq!(parsed.get("hit_bytes"), Some(&Json::Int(80)));
        assert_eq!(parsed.get("occupancy_chunks"), Some(&Json::Int(3)));
        assert_eq!(parsed.get("cache_age_ms"), Some(&Json::Float(7.5)));
        assert_eq!(parsed.get("efficiency"), Some(&Json::Float(0.8)));
    }
}
