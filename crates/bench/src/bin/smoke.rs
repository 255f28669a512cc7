//! Quick calibration run: Europe profile, alpha in {1, 2}, one disk size.
//! Not a paper figure; used to sanity-check workload calibration.

use vcdn_bench::{arg_flag, run_algo, run_paper_three, trace_for, Scale, PAPER_DISK_BYTES};
use vcdn_sim::report::{eff, pct, Table};
use vcdn_trace::ServerProfile;
use vcdn_types::{ChunkSize, CostModel};

fn main() {
    let scale = Scale::from_args();
    let days: u64 = arg_flag("days").unwrap_or(10);
    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);
    eprintln!("scale={} days={days} disk={disk} chunks", scale.0);
    let t0 = std::time::Instant::now();
    let trace = trace_for(ServerProfile::europe(), scale, days);
    let stats = vcdn_trace::stats::trace_stats(&trace, k);
    eprintln!(
        "trace: {} requests, {} videos, {} chunks unique, {:.1} GiB requested, zipf~{:.2}, tail={:.2} ({:.1}s)",
        stats.requests,
        stats.unique_videos,
        stats.unique_chunks,
        stats.requested_chunk_bytes as f64 / (1u64 << 30) as f64,
        stats.zipf_slope,
        stats.tail_fraction,
        t0.elapsed().as_secs_f64()
    );
    let mut table = Table::new(vec!["alpha", "algo", "efficiency", "ingress%", "redirect%"]);
    for alpha in [1.0, 2.0] {
        let costs = CostModel::from_alpha(alpha).unwrap();
        for r in run_paper_three(&trace, disk, k, costs, run_algo) {
            table.row(vec![
                format!("{alpha}"),
                r.policy.to_string(),
                eff(r.efficiency()),
                pct(r.ingress_pct() / 100.0),
                pct(r.redirect_pct() / 100.0),
            ]);
            eprintln!(
                "  done {} alpha={alpha} ({:.1}s)",
                r.policy,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!("{}", table.render());
}
