//! Quickstart: generate a small synthetic workload, run an
//! ingress-constrained Cafe cache over it, and print the paper's metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use vcdn::cache::{CafeCache, CafeConfig};
use vcdn::sim::{ReplayConfig, Replayer};
use vcdn::trace::{stats, ServerProfile, TraceGenerator};
use vcdn::types::{ChunkSize, CostModel, DurationMs};

fn main() {
    // 1. A deterministic synthetic workload: 2 simulated days of a small
    //    edge server's video requests (Zipf popularity, diurnal load,
    //    prefix-biased sessions).
    let profile = ServerProfile::tiny_test();
    let trace = TraceGenerator::new(profile, 42).generate(DurationMs::from_days(2));
    let k = ChunkSize::DEFAULT; // the paper's 2 MB chunks
    let s = stats::trace_stats(&trace, k);
    println!(
        "workload: {} requests over {} videos ({} unique chunks, zipf slope {:.2})",
        s.requests, s.unique_videos, s.unique_chunks, s.zipf_slope
    );

    // 2. An ingress-constrained Cafe cache: cache-filling a byte costs
    //    twice what redirecting it does (alpha_F2R = 2, the paper's
    //    default for constrained servers).
    let costs = CostModel::from_alpha(2.0).expect("2.0 is a valid alpha");
    let disk_chunks = 512; // 1 GiB of 2 MB chunks
    let mut cache = CafeCache::new(CafeConfig::new(disk_chunks, k, costs));

    // 3. Replay and report: steady state = second half. (Pass a
    //    `vcdn::obs::WindowRing` to `replay_observed` for hourly windows.)
    let report = Replayer::new(ReplayConfig::new(k, costs)).replay(&trace, &mut cache);
    println!(
        "cache: {} ({} chunk disk, {costs})",
        report.policy, disk_chunks
    );
    println!(
        "steady-state efficiency (Eq. 2): {:.3}",
        report.efficiency()
    );
    println!("ingress-to-egress: {:.1}%", report.ingress_pct());
    println!("redirected traffic: {:.1}%", report.redirect_pct());
}
