//! Pins the generator's output: an FNV-1a digest over every request of the
//! six world servers at scale 1/256 over 7 days.
//!
//! The digest was taken from the sequential generator that rebuilt each
//! epoch's alias table from scratch. Any change to the trace — a reordered
//! float sum, a different RNG draw, a lost session — moves it, so a
//! generator rewrite that claims bit-identical output must keep it. The
//! epoch samplers are built on parallel lanes, so the digest must also
//! hold at every lane count.

use vcdn_trace::{ServerProfile, TraceGenerator};
use vcdn_types::{DurationMs, Request};

const SEED: u64 = 20140413;
const SCALE: f64 = 1.0 / 256.0;
const DAYS: u64 = 7;

/// `(requests, digest)` of the six world servers, in Figure 7 order.
const PINNED: (usize, u64) = (14_728, 11_559_128_322_920_053_164);

fn fnv1a_requests(h: &mut u64, requests: &[Request]) {
    for r in requests {
        for word in [r.video.0, r.bytes.start, r.bytes.end, r.t.as_millis()] {
            for b in word.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

fn world_digest(generate: impl Fn(&TraceGenerator, DurationMs) -> Vec<Request>) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0;
    for p in ServerProfile::world_servers() {
        let gen = TraceGenerator::new(p.scaled(SCALE), SEED);
        let requests = generate(&gen, DurationMs::from_days(DAYS));
        n += requests.len();
        fnv1a_requests(&mut h, &requests);
    }
    (n, h)
}

#[test]
fn world_servers_digest_is_pinned() {
    let got = world_digest(|g, d| g.generate(d).requests);
    assert_eq!(got, PINNED, "generator output moved: (requests, digest)");
}

#[test]
fn world_servers_digest_is_lane_count_invariant() {
    for lanes in [1, 2, 3, 8] {
        let got = world_digest(|g, d| g.generate_on_lanes(d, lanes).requests);
        assert_eq!(got, PINNED, "{lanes} lanes: (requests, digest)");
    }
}
