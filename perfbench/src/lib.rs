//! The vcdn benchmark: month-long six-server trace replays timed end to
//! end and layer by layer.
//!
//! Three workloads share one trace family — the six
//! [`ServerProfile::world_servers`] at scale 1/16 over 30 days, 2 MiB
//! chunks, α_F2R = 2 — and the four policies LRU, xLRU, Cafe and Psychic:
//!
//! * [`Workload::WorldMonth`] generates the traces in-process and replays
//!   them through [`vcdn_sim::Replayer`] at the paper disk (Figure 7).
//! * [`Workload::EngineQuarterDisk`] decodes them from `.vctb` files and
//!   runs them through a 16-shard [`vcdn_sim::ShardedEngine`] at two
//!   workers with a quarter of the paper disk (Figure 6's smallest point).
//! * [`Workload::ObservedMonth`] decodes them from JSONL and replays them
//!   with full telemetry (observer, windows, watchdog, bundle export).
//!
//! The client is one closed loop: requests reach the cache back to back
//! and trace timestamps are logical time only. [`workload`] runs one
//! pass (set-up, policy construction, every replay, export), [`timing`]
//! holds the span log and the transparent decide-timing wrapper used by
//! the traced run, and [`check`] verifies every replay's output.

#![forbid(unsafe_code)]

pub mod check;
pub mod timing;
pub mod workload;

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    XlruCache,
};
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs, Request};

/// The workload seed of every published experiment (`EXPERIMENT_SEED`).
pub const DEFAULT_SEED: u64 = 20140413;

/// Fill-to-redirect cost ratio of the Figure 7 job.
pub const ALPHA: f64 = 2.0;

/// Policy shards of the engine workload.
pub const SHARDS: usize = 16;

/// Engine worker threads, pinned rather than taken from the host.
pub const WORKERS: usize = 2;

/// The paper's reference disk: 1 TB.
const PAPER_DISK_BYTES: u64 = 1 << 40;

/// The chunk size `K` (2 MiB).
pub fn chunk_size() -> ChunkSize {
    ChunkSize::DEFAULT
}

/// The α_F2R = 2 cost model.
pub fn costs() -> CostModel {
    CostModel::from_alpha(ALPHA).expect("alpha 2 is valid")
}

/// The trace family: every world server at one scale and duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Family {
    /// Linear volume scale (disk, catalog, request rate).
    pub scale: f64,
    /// Trace length in days.
    pub days: u64,
}

impl Family {
    /// The benchmark's family: scale 1/16, 30 days.
    pub const MONTH: Family = Family {
        scale: 1.0 / 16.0,
        days: 30,
    };

    /// The paper's 1 TB disk at this scale, in chunks (32,768 for
    /// [`Family::MONTH`]).
    pub fn paper_disk_chunks(&self) -> u64 {
        ((PAPER_DISK_BYTES as f64 * self.scale / chunk_size().bytes() as f64).round() as u64).max(1)
    }

    /// The six scaled server profiles, in Figure 7 order.
    pub fn profiles(&self) -> Vec<ServerProfile> {
        ServerProfile::world_servers()
            .into_iter()
            .map(|p| p.scaled(self.scale))
            .collect()
    }

    /// Generates one server's trace.
    pub fn generate(&self, profile: &ServerProfile, seed: u64) -> Trace {
        TraceGenerator::new(profile.clone(), seed).generate(DurationMs::from_days(self.days))
    }
}

/// The four measured policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Plain LRU.
    Lru,
    /// xLRU (§5).
    Xlru,
    /// Cafe (§6).
    Cafe,
    /// Psychic (§8), which reads the future of its own request stream.
    Psychic,
}

impl Policy {
    /// Every policy, in report order.
    pub const ALL: [Policy; 4] = [Policy::Lru, Policy::Xlru, Policy::Cafe, Policy::Psychic];

    /// The policy's name as the caches report it.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "lru",
            Policy::Xlru => "xlru",
            Policy::Cafe => "cafe",
            Policy::Psychic => "psychic",
        }
    }

    /// Builds the policy over `cache`; `future` is the request stream it
    /// will see (only Psychic reads it).
    pub fn build(self, cache: CacheConfig, future: &[Request]) -> Box<dyn CachePolicy> {
        let (disk, k, costs) = (cache.disk_chunks, cache.chunk_size, cache.costs);
        match self {
            Policy::Lru => Box::new(LruCache::new(cache)),
            Policy::Xlru => Box::new(XlruCache::new(cache)),
            Policy::Cafe => Box::new(CafeCache::new(CafeConfig {
                cache,
                ..CafeConfig::new(disk, k, costs)
            })),
            Policy::Psychic => Box::new(PsychicCache::new(
                PsychicConfig::new(disk, k, costs),
                future,
            )),
        }
    }
}

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generate in-process, replay single-threaded at the paper disk.
    WorldMonth,
    /// Decode VCTB, run a 16-shard engine at two workers, quarter disk.
    EngineQuarterDisk,
    /// Decode JSONL, replay with full telemetry at the paper disk.
    ObservedMonth,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::WorldMonth,
        Workload::EngineQuarterDisk,
        Workload::ObservedMonth,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WorldMonth => "world_month",
            Workload::EngineQuarterDisk => "engine_quarter_disk",
            Workload::ObservedMonth => "observed_month",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Total disk capacity in chunks.
    pub fn disk_chunks(self, family: &Family) -> u64 {
        match self {
            Workload::EngineQuarterDisk => family.paper_disk_chunks() / 4,
            _ => family.paper_disk_chunks(),
        }
    }

    /// The span that times one policy run over one trace.
    pub fn run_span(self) -> &'static str {
        match self {
            Workload::EngineQuarterDisk => "engine",
            _ => "replay",
        }
    }

    /// The on-disk trace format the workload decodes, if any.
    pub fn trace_format(self) -> Option<TraceFormat> {
        match self {
            Workload::WorldMonth => None,
            Workload::EngineQuarterDisk => Some(TraceFormat::Vctb),
            Workload::ObservedMonth => Some(TraceFormat::Jsonl),
        }
    }
}

/// A serialized trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The `VCTB` binary format.
    Vctb,
    /// JSON lines.
    Jsonl,
}

impl TraceFormat {
    /// File extension.
    pub fn ext(self) -> &'static str {
        match self {
            TraceFormat::Vctb => "vctb",
            TraceFormat::Jsonl => "jsonl",
        }
    }
}
