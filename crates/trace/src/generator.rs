//! The trace generator: profile → time-ordered request log.
//!
//! Session start times follow an inhomogeneous Poisson process whose rate
//! tracks the profile's diurnal curve (sampled by thinning); each session
//! picks a video from the evolving catalog proportionally to its effective
//! (age-decayed) weight and expands into paced byte-range requests. Video
//! weights change continuously, so the weighted sampler is rebuilt once per
//! *epoch* (one hour), which is far finer than the popularity-decay time
//! constant.
//!
//! # Pipeline
//!
//! Rebuilding an epoch's sampler — one age-decay weight per live video,
//! then a Walker alias table — is nearly all of the generator's work, while
//! each epoch serves only a few dozen sessions. So the samplers are built
//! ahead of use on parallel *lanes*: with `L` lanes, lane `l` builds the
//! samplers of the epochs `l, l + L, l + 2L, …` (counting only epochs that
//! start a session) into two buffers that it recycles through a bounded
//! channel. The calling thread draws the videos, expands the sessions and
//! consumes the samplers strictly in epoch order.
//!
//! A sampler is a pure function of the catalog and the epoch's mid-point,
//! and only the calling thread touches the video-pick and session RNG
//! streams, so the trace is bit-identical for every lane count
//! ([`TraceGenerator::generate_on_lanes`]) and therefore for every host.
//! [`TraceGenerator::generate`] runs one lane per available core, at most
//! four.

use std::ops::Range;
use std::sync::mpsc::sync_channel;
use std::thread;

use vcdn_types::{DurationMs, Request, Timestamp};

use crate::{
    catalog::{AliasSampler, Catalog},
    dist::sample_exp,
    profile::ServerProfile,
    rng::DetRng,
    session::expand_session_into,
    trace::{Trace, TraceMeta},
};

/// Sampler-rebuild granularity.
const EPOCH: DurationMs = DurationMs::HOUR;

/// Most lanes [`TraceGenerator::generate`] builds samplers on.
const MAX_LANES: usize = 4;

/// Samplers each lane circulates: the consumer reads one while the lane
/// fills the other.
const BUFFERS_PER_LANE: usize = 2;

/// Deterministic workload generator for one server profile.
///
/// # Examples
///
/// ```
/// use vcdn_trace::{generator::TraceGenerator, profile::ServerProfile};
/// use vcdn_types::DurationMs;
///
/// let gen = TraceGenerator::new(ServerProfile::tiny_test(), 42);
/// let trace = gen.generate(DurationMs::from_hours(6));
/// assert!(!trace.is_empty());
/// // Same profile + seed => identical trace.
/// let again = TraceGenerator::new(ServerProfile::tiny_test(), 42)
///     .generate(DurationMs::from_hours(6));
/// assert_eq!(trace, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: ServerProfile,
    seed: u64,
}

/// FNV-1a hash, used to salt the seed with the profile name so two
/// profiles generated with the same numeric seed do not share a stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl TraceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: ServerProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid ServerProfile: {e}"));
        TraceGenerator { profile, seed }
    }

    /// The profile this generator draws from.
    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    /// Generates `duration` worth of requests starting at the replay epoch,
    /// building the epoch samplers on one lane per available core (at most
    /// four). The trace does not depend on the lane count.
    pub fn generate(&self, duration: DurationMs) -> Trace {
        let lanes = thread::available_parallelism().map_or(1, |n| n.get().min(MAX_LANES));
        self.generate_on_lanes(duration, lanes)
    }

    /// [`TraceGenerator::generate`] with the epoch samplers built on
    /// `lanes` parallel lanes. Every lane count yields the same trace.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn generate_on_lanes(&self, duration: DurationMs, lanes: usize) -> Trace {
        assert!(lanes > 0, "lane count must be > 0");
        let p = &self.profile;
        let mut root = DetRng::new(self.seed ^ fnv1a(&p.name));
        let mut catalog_rng = root.fork();
        let mut arrival_rng = root.fork();
        let mut pick_rng = root.fork();
        let mut session_rng = root.fork();

        let catalog = Catalog::generate(&p.catalog, duration, &mut catalog_rng);

        // Session start times: thinned Poisson at rate base·(1 + A·cos).
        let base_rate_per_ms = p.sessions_per_day / DurationMs::DAY.as_millis() as f64;
        let lambda_max = base_rate_per_ms * (1.0 + p.diurnal_amplitude);
        let mut starts: Vec<Timestamp> = Vec::new();
        let mut t = 0.0f64;
        let horizon = duration.as_millis() as f64;
        loop {
            t += sample_exp(&mut arrival_rng, lambda_max);
            if t >= horizon {
                break;
            }
            let hour_of_day = t / DurationMs::HOUR.as_millis() as f64 % 24.0;
            let accept = p.diurnal_multiplier(hour_of_day) / (1.0 + p.diurnal_amplitude);
            if arrival_rng.chance(accept) {
                starts.push(Timestamp(t as u64));
            }
        }

        // The epochs that start a session: their mid-points and sessions.
        let mut mids: Vec<Timestamp> = Vec::new();
        let mut sessions: Vec<Range<usize>> = Vec::new();
        let mut cursor = 0usize;
        let mut epoch_start = Timestamp::EPOCH;
        while epoch_start.as_millis() < duration.as_millis() {
            let epoch_end = epoch_start + EPOCH;
            let slice_end = cursor + starts[cursor..].partition_point(|s| *s < epoch_end);
            if slice_end > cursor {
                mids.push(Timestamp(epoch_start.as_millis() + EPOCH.as_millis() / 2));
                sessions.push(cursor..slice_end);
            }
            cursor = slice_end;
            epoch_start = epoch_end;
        }

        // Expand sessions epoch by epoch with each epoch's weighted sampler.
        let mut requests: Vec<Request> = Vec::new();
        pipeline_samplers(&catalog, &mids, lanes, |epoch, sampler| {
            for &start in &starts[sessions[epoch].clone()] {
                let idx = sampler.sample(&mut pick_rng);
                let video = catalog.get(idx);
                expand_session_into(
                    &mut requests,
                    video.id,
                    video.size_bytes,
                    start,
                    &p.session,
                    &mut session_rng,
                );
            }
        });

        // Sessions interleave; restore global time order (stable to keep
        // per-session request order on timestamp ties).
        requests.sort_by_key(|r| r.t);

        Trace::new(
            TraceMeta {
                name: p.name.clone(),
                seed: self.seed,
                duration,
                description: format!(
                    "synthetic profile '{}', seed {}, {} sessions",
                    p.name,
                    self.seed,
                    starts.len()
                ),
            },
            requests,
        )
    }
}

/// Builds the sampler of every mid-point in `mids` on `lanes` scoped
/// threads and hands each live one to `consume` on the calling thread, in
/// order, with its index in `mids`. Epochs with no live video are skipped.
fn pipeline_samplers(
    catalog: &Catalog,
    mids: &[Timestamp],
    lanes: usize,
    mut consume: impl FnMut(usize, &AliasSampler),
) {
    let lanes = lanes.min(mids.len());
    if lanes == 0 {
        return;
    }
    thread::scope(|scope| {
        let channels: Vec<_> = (0..lanes)
            .map(|lane| {
                let (filled_tx, filled_rx) = sync_channel::<(AliasSampler, bool)>(BUFFERS_PER_LANE);
                let (empty_tx, empty_rx) = sync_channel::<AliasSampler>(BUFFERS_PER_LANE);
                // Sized for the whole catalog up front, here on the calling
                // thread, so the lanes never allocate.
                for _ in 0..BUFFERS_PER_LANE {
                    empty_tx
                        .send(AliasSampler::with_capacity(catalog.len()))
                        .expect("lane receiver is alive");
                }
                scope.spawn(move || {
                    for &mid in mids.iter().skip(lane).step_by(lanes) {
                        // Both fail only once the consumer is gone.
                        let Ok(mut sampler) = empty_rx.recv() else {
                            return;
                        };
                        let live = catalog.rebuild_sampler_at(mid, &mut sampler);
                        if filled_tx.send((sampler, live)).is_err() {
                            return;
                        }
                    }
                });
                (filled_rx, empty_tx)
            })
            .collect();
        for epoch in 0..mids.len() {
            let (filled, empty) = &channels[epoch % lanes];
            let (sampler, live) = filled.recv().expect("sampler lane panicked");
            if live {
                consume(epoch, &sampler);
            }
            // Fails once the lane has built its last sampler and exited.
            let _ = empty.send(sampler);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use vcdn_types::VideoId;

    fn small_trace(seed: u64, hours: u64) -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), seed)
            .generate(DurationMs::from_hours(hours))
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(small_trace(1, 12), small_trace(1, 12));
        assert_ne!(small_trace(1, 12).requests, small_trace(2, 12).requests);
    }

    #[test]
    fn profile_name_salts_the_stream() {
        let mut p1 = ServerProfile::tiny_test();
        p1.name = "alpha".into();
        let mut p2 = ServerProfile::tiny_test();
        p2.name = "beta".into();
        let t1 = TraceGenerator::new(p1, 9).generate(DurationMs::from_hours(6));
        let t2 = TraceGenerator::new(p2, 9).generate(DurationMs::from_hours(6));
        assert_ne!(t1.requests, t2.requests);
    }

    #[test]
    fn volume_matches_profile_rate() {
        let trace = small_trace(3, 48);
        // 600 sessions/day for 2 days -> ~1200 sessions; each session emits
        // >= 1 request. Allow generous Poisson + session-length slack.
        let sessions: f64 = 1_200.0;
        let n = trace.len() as f64;
        assert!(
            n > sessions * 0.8,
            "too few requests: {n} for ~{sessions} sessions"
        );
        assert!(n < sessions * 20.0, "implausibly many requests: {n}");
    }

    #[test]
    fn requests_are_time_ordered_within_horizon() {
        let trace = small_trace(4, 24);
        assert!(trace.requests.windows(2).all(|w| w[0].t <= w[1].t));
        // Session tails may run slightly past the horizon (a session that
        // starts before the end keeps streaming); starts must be within.
        assert!(trace.requests[0].t.as_millis() < DurationMs::from_hours(24).as_millis());
    }

    #[test]
    fn popularity_is_skewed() {
        let trace = small_trace(5, 48);
        let mut hits: HashMap<VideoId, u64> = HashMap::new();
        for r in &trace.requests {
            *hits.entry(r.video).or_default() += 1;
        }
        let mut counts: Vec<u64> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10: u64 = counts.iter().take(counts.len() / 10 + 1).sum();
        // Top 10% of videos should draw well over a third of requests.
        assert!(
            top10 as f64 / total as f64 > 0.35,
            "popularity not skewed: top10%={}/{}",
            top10,
            total
        );
        // And a long tail of barely-requested videos must exist.
        let singletons = counts.iter().filter(|&&c| c <= 2).count();
        assert!(
            singletons as f64 / counts.len() as f64 > 0.2,
            "one-timer tail missing: {singletons}/{}",
            counts.len()
        );
    }

    #[test]
    fn diurnal_pattern_visible_in_hourly_volume() {
        let mut p = ServerProfile::tiny_test();
        p.sessions_per_day = 4_000.0; // enough samples per hour
        p.diurnal_amplitude = 0.7;
        let trace = TraceGenerator::new(p.clone(), 6).generate(DurationMs::from_days(4));
        let mut hourly = [0u64; 24];
        for r in &trace.requests {
            let h = (r.t.as_millis() / DurationMs::HOUR.as_millis()) % 24;
            hourly[h as usize] += 1;
        }
        let peak = hourly[p.peak_hour as usize % 24] as f64;
        let trough = hourly[(p.peak_hour as usize + 12) % 24] as f64;
        assert!(
            peak > trough * 1.5,
            "diurnal modulation missing: peak={peak} trough={trough}"
        );
    }

    #[test]
    fn empty_duration_yields_empty_trace() {
        let trace = TraceGenerator::new(ServerProfile::tiny_test(), 1).generate(DurationMs::ZERO);
        assert!(trace.is_empty());
    }
}
