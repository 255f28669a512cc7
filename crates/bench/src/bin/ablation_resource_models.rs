//! Ablation A7 — the §2 resource-pressure motivation, made concrete.
//!
//! The paper motivates `α_F2R > 1` with two server-side effects: disk
//! writes steal 1.2–1.3 reads each, and ingress during egress-saturated
//! hours is wasted. This ablation replays the Europe workload at several
//! α values and reports both effects through the `vcdn-sim` resource
//! models: raising α should monotonically reduce read-capacity loss and
//! wasted saturated-hour fill.
//!
//! One grid cell per α runs through the deterministic parallel runner
//! (after a sequential probe that calibrates the egress capacity); set
//! `VCDN_WORKERS` to control fan-out.
//!
//! Usage: `ablation_resource_models [--scale f] [--days n]`

use vcdn_bench::{arg_days, run_algo_hourly, sweep, trace_for, Algo, Scale, PAPER_DISK_BYTES};
use vcdn_obs::WindowStats;
use vcdn_sim::report::{bytes, eff, Table};
use vcdn_sim::runner::Cell;
use vcdn_sim::{DiskIoModel, EgressModel, ReplayReport};
use vcdn_trace::ServerProfile;
use vcdn_types::{ChunkSize, CostModel};

fn main() {
    let scale = Scale::from_args();
    let days = arg_days();
    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);
    let trace = trace_for(ServerProfile::europe(), scale, days);
    eprintln!("ablation A7: {} requests, disk={disk}", trace.len());

    // Egress capacity: set to ~70% of the busiest hour's served traffic at
    // alpha=1, so peak hours saturate (the paper's constrained regime).
    let (_, probe) = run_algo_hourly(Algo::Cafe, &trace, disk, k, CostModel::balanced());
    let peak = probe
        .iter()
        .map(|w| w.traffic.served_bytes())
        .max()
        .unwrap_or(0);
    let egress = EgressModel {
        capacity_bytes_per_window: (peak as f64 * 0.7) as u64,
    };
    let io = DiskIoModel::paper_default();

    let alphas = [0.5, 1.0, 2.0, 4.0];
    let cells: Vec<Cell<(ReplayReport, Vec<WindowStats>)>> = alphas
        .iter()
        .map(|&alpha| {
            let trace = &trace;
            let costs = CostModel::from_alpha(alpha).expect("valid alpha");
            Cell::new(format!("alpha={alpha} cafe"), move || {
                run_algo_hourly(Algo::Cafe, trace, disk, k, costs)
            })
        })
        .collect();
    let runs = sweep("ablation A7", cells).values();

    let mut table = Table::new(vec![
        "alpha",
        "efficiency",
        "ingress%",
        "read-capacity loss",
        "saturated hours",
        "wasted fill (saturated)",
    ]);
    for (alpha, (r, windows)) in alphas.iter().zip(&runs) {
        let sat = egress.summarize(windows);
        table.row(vec![
            format!("{alpha}"),
            eff(r.efficiency()),
            format!("{:.1}", r.ingress_pct()),
            format!("{:.1}%", io.read_capacity_loss(&r.steady) * 100.0),
            format!("{}/{}", sat.saturated_windows, sat.active_windows),
            bytes(sat.wasted_fill_bytes),
        ]);
    }
    println!("== Ablation A7: resource pressure vs alpha (cafe, europe) ==");
    println!("{}", table.render());
    println!(
        "paper anchor (par. 2): every write-block costs 1.2-1.3 reads; \
         fills during egress-saturated hours are wasted ingress"
    );
}
