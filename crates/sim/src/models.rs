//! Server resource models for the motivation-level ablations.
//!
//! Section 2 of the paper motivates ingress-constrained operation with two
//! server-side effects that standard cache metrics do not expose:
//!
//! * **Disk-write interference** — "for every extra write-block operation
//!   we lose 1.2–1.3 reads": cache-fill writes steal IOPS from cache-hit
//!   reads.
//! * **Egress saturation** — "for a server at which the current contents
//!   suffice to ... fully utilize the egress capacity, there is no point
//!   to bring in new content upon cache misses", because the extra ingress
//!   is wasted.
//!
//! These models post-process a replay's traffic (its aggregate counters,
//! or the per-window traffic a [`vcdn_obs::WindowRing`] observer
//! collected) into the quantities that make those arguments concrete; the ablation benches
//! use them to show *why* `α_F2R > 1` is the right setting for constrained
//! servers.

use vcdn_obs::WindowStats;
use vcdn_types::float::exactly_zero;
use vcdn_types::TrafficCounter;

/// Disk read/write interference model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskIoModel {
    /// Reads lost per write-block operation (paper: 1.2–1.3).
    pub reads_lost_per_write: f64,
    /// I/O block size in bytes (reads and writes are counted in blocks).
    pub block_bytes: u64,
}

impl DiskIoModel {
    /// The paper's midpoint: 1.25 reads lost per write, 2 MB blocks.
    pub fn paper_default() -> Self {
        DiskIoModel {
            reads_lost_per_write: 1.25,
            block_bytes: 2 * 1024 * 1024,
        }
    }

    /// Read-block operations lost to cache-fill writes for a traffic
    /// aggregate.
    pub fn lost_reads(&self, traffic: &TrafficCounter) -> f64 {
        let writes = traffic.fill_bytes as f64 / self.block_bytes as f64;
        writes * self.reads_lost_per_write
    }

    /// The fraction of read capacity consumed by fill-induced interference:
    /// `lost_reads / (useful_reads + lost_reads)`. Zero when idle.
    pub fn read_capacity_loss(&self, traffic: &TrafficCounter) -> f64 {
        let useful = traffic.hit_bytes as f64 / self.block_bytes as f64;
        let lost = self.lost_reads(traffic);
        if exactly_zero(useful + lost) {
            0.0
        } else {
            lost / (useful + lost)
        }
    }
}

/// Egress (serving) capacity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgressModel {
    /// Serving capacity in bytes per metric window.
    pub capacity_bytes_per_window: u64,
}

/// Egress saturation summary over a replay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EgressSummary {
    /// Windows in which served traffic met or exceeded capacity.
    pub saturated_windows: usize,
    /// Total windows with any traffic.
    pub active_windows: usize,
    /// Bytes cache-filled during saturated windows — ingress the paper
    /// calls "wasted (and possibly harmful)".
    pub wasted_fill_bytes: u64,
}

impl EgressModel {
    /// Summarises saturation over a replay's windows (each window one
    /// metric window of the capacity's unit).
    pub fn summarize(&self, windows: &[WindowStats]) -> EgressSummary {
        let mut s = EgressSummary::default();
        for w in windows.iter().map(|w| &w.traffic) {
            if w.requested_bytes() == 0 {
                continue;
            }
            s.active_windows += 1;
            if w.served_bytes() >= self.capacity_bytes_per_window {
                s.saturated_windows += 1;
                s.wasted_fill_bytes = s.wasted_fill_bytes.saturating_add(w.fill_bytes);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(hit: u64, fill: u64, redirect: u64) -> TrafficCounter {
        let mut t = TrafficCounter::default();
        t.hit_bytes += hit;
        t.fill_bytes += fill;
        t.redirect_bytes += redirect;
        t
    }

    #[test]
    fn lost_reads_scale_with_writes() {
        let m = DiskIoModel {
            reads_lost_per_write: 1.25,
            block_bytes: 100,
        };
        let t = traffic(10_000, 400, 0);
        assert!((m.lost_reads(&t) - 4.0 * 1.25).abs() < 1e-12);
        // Read capacity loss: lost 5 blocks vs 100 useful reads.
        let loss = m.read_capacity_loss(&t);
        assert!((loss - 5.0 / 105.0).abs() < 1e-12);
    }

    #[test]
    fn no_writes_no_loss() {
        let m = DiskIoModel::paper_default();
        let t = traffic(1_000_000, 0, 500);
        assert_eq!(m.lost_reads(&t), 0.0);
        assert_eq!(m.read_capacity_loss(&t), 0.0);
        assert_eq!(m.read_capacity_loss(&TrafficCounter::default()), 0.0);
    }

    #[test]
    fn paper_default_in_documented_band() {
        let m = DiskIoModel::paper_default();
        assert!((1.2..=1.3).contains(&m.reads_lost_per_write));
    }

    #[test]
    fn egress_saturation_counts_wasted_fill() {
        let windows: Vec<WindowStats> = [
            traffic(900, 200, 0),      // sat
            traffic(100, 50, 0),       // not
            TrafficCounter::default(), // idle
            traffic(1_000, 0, 10),     // sat
        ]
        .into_iter()
        .enumerate()
        .map(|(i, traffic)| WindowStats {
            traffic,
            ..WindowStats::empty(i as u64)
        })
        .collect();
        let m = EgressModel {
            capacity_bytes_per_window: 1_000,
        };
        let s = m.summarize(&windows);
        assert_eq!(s.active_windows, 3);
        assert_eq!(s.saturated_windows, 2);
        assert_eq!(s.wasted_fill_bytes, 200);
    }
}
