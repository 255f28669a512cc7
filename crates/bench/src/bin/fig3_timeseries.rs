//! Figure 3 — "Ingress, redirection, and overall cache efficiency over the
//! 1-month period" (European server, 1 TB disk, α_F2R = 2).
//!
//! Replays the month-long Europe trace through xLRU, Cafe and Psychic and
//! prints (a) the paper's headline summary — the steady-state efficiency
//! deltas (paper: Cafe +10.1 %, Psychic +12.7 % over xLRU) — and (b) the
//! hourly series behind the three panels, which a `WindowRing` observer
//! collects from each replay. `--csv` emits the full hourly series;
//! default output prints a 6-hourly digest to stay readable.
//!
//! Usage: `fig3_timeseries [--scale f] [--days n] [--csv]`

use vcdn_bench::{
    arg_days, arg_switch, run_algo_hourly, run_paper_three, trace_for, Scale, PAPER_DISK_BYTES,
};
use vcdn_sim::report::{eff, Table};
use vcdn_trace::ServerProfile;
use vcdn_types::{ChunkSize, CostModel};

fn main() {
    let scale = Scale::from_args();
    let days = arg_days();
    let k = ChunkSize::DEFAULT;
    let costs = CostModel::from_alpha(2.0).expect("2.0 is a valid alpha");
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);

    eprintln!(
        "fig3: europe, {days} days, alpha=2, disk={disk} chunks (scale {})",
        scale.0
    );
    let trace = trace_for(ServerProfile::europe(), scale, days);
    eprintln!("trace: {} requests", trace.len());
    let runs = run_paper_three(&trace, disk, k, costs, run_algo_hourly);

    // Headline summary (paper: xLRU -> Cafe +10.1%, -> Psychic +12.7%).
    let base = runs[0].0.efficiency();
    let mut summary = Table::new(vec![
        "algo",
        "efficiency",
        "delta vs xlru",
        "ingress%",
        "redirect%",
        "paper delta",
    ]);
    let paper_delta = ["-", "+0.101", "+0.127"];
    for (i, (r, _)) in runs.iter().enumerate() {
        summary.row(vec![
            r.policy.to_string(),
            eff(r.efficiency()),
            if i == 0 {
                "-".into()
            } else {
                format!("{:+.3}", r.efficiency() - base)
            },
            format!("{:.1}", r.ingress_pct()),
            format!("{:.1}", r.redirect_pct()),
            paper_delta[i].to_string(),
        ]);
    }
    println!("== Figure 3 summary (steady state, second half) ==");
    println!("{}", summary.render());

    // Time series.
    let csv = arg_switch("csv");
    let step = if csv { 1 } else { 6 };
    let mut series = Table::new(vec![
        "hour",
        "xlru_ing%",
        "xlru_red%",
        "xlru_eff",
        "cafe_ing%",
        "cafe_red%",
        "cafe_eff",
        "psy_ing%",
        "psy_red%",
        "psy_eff",
    ]);
    let hours = runs.iter().map(|(_, w)| w.len()).max().unwrap_or(0);
    for h in (0..hours).step_by(step) {
        let mut row = vec![h.to_string()];
        for (_, windows) in &runs {
            match windows.get(h).map(|w| &w.traffic) {
                Some(w) => {
                    row.push(format!("{:.1}", w.ingress_pct()));
                    row.push(format!("{:.1}", w.redirect_pct()));
                    row.push(eff(w.efficiency(costs)));
                }
                None => row.extend(["-".into(), "-".into(), "-".into()]),
            }
        }
        series.row(row);
    }
    println!(
        "== Figure 3 series ({}) ==",
        if csv { "hourly CSV" } else { "6-hourly digest" }
    );
    if csv {
        println!("{}", series.to_csv());
    } else {
        println!("{}", series.render());
    }
}
