//! Output checks for every replay.
//!
//! On any seed: bytes are conserved (hit + fill + redirect equals the
//! chunk-granular bytes the trace requested), every request is either
//! served or redirected, the disk never ends over capacity, and every
//! pass of a run reproduces the first pass's counters. At the default
//! seed the counters must also equal the pinned golden rows, and the
//! Europe rows of the paper-disk replays must equal the byte counters
//! pinned in the repository's historical perf records.

use std::collections::BTreeMap;
use std::path::Path;

use vcdn_trace::Trace;
use vcdn_types::json::{self, Json};
use vcdn_types::TrafficCounter;

use crate::workload::OpCounters;
use crate::{chunk_size, Family, Workload, DEFAULT_SEED};

/// Checks one operation's counters against its trace.
pub fn verify_op(c: &OpCounters, trace: &Trace) -> Result<(), String> {
    let k = chunk_size();
    let requested: u64 = trace
        .requests
        .iter()
        .map(|r| r.chunk_len(k) * k.bytes())
        .sum();
    let o = &c.overall;
    if o.requested_bytes() != requested {
        return Err(format!(
            "bytes not conserved: hit {} + fill {} + redirect {} != requested {requested}",
            o.hit_bytes, o.fill_bytes, o.redirect_bytes
        ));
    }
    if o.total_requests() != trace.len() as u64 {
        return Err(format!(
            "served {} + redirected {} != {} requests",
            o.served_requests,
            o.redirected_requests,
            trace.len()
        ));
    }
    if c.used_chunks > c.capacity_chunks {
        return Err(format!(
            "disk holds {} chunks over capacity {}",
            c.used_chunks, c.capacity_chunks
        ));
    }
    let s = &c.steady;
    if s.requested_bytes() > o.requested_bytes() || s.total_requests() > o.total_requests() {
        return Err("steady-state traffic exceeds the full run".into());
    }
    Ok(())
}

/// The key of a golden row.
pub type RowKey = (String, String, String);

/// One pinned row: the overall and steady counters of a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRow {
    /// Full-run traffic.
    pub overall: TrafficCounter,
    /// Steady-state traffic.
    pub steady: TrafficCounter,
}

const FIELDS: [&str; 8] = [
    "hit_bytes",
    "fill_bytes",
    "redirect_bytes",
    "served",
    "redirected",
    "steady_hit_bytes",
    "steady_fill_bytes",
    "steady_redirect_bytes",
];

fn row_values(r: &GoldenRow) -> [u64; 8] {
    [
        r.overall.hit_bytes,
        r.overall.fill_bytes,
        r.overall.redirect_bytes,
        r.overall.served_requests,
        r.overall.redirected_requests,
        r.steady.hit_bytes,
        r.steady.fill_bytes,
        r.steady.redirect_bytes,
    ]
}

/// Whether the golden file applies: the default seed and family.
pub fn golden_applies(seed: u64, family: &Family) -> bool {
    seed == DEFAULT_SEED && *family == Family::MONTH
}

fn as_u64(v: Option<&Json>) -> Option<u64> {
    match v {
        Some(Json::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Reads the golden file: `(workload, policy, server) → row`.
pub fn load_golden(path: &Path) -> Result<BTreeMap<RowKey, GoldenRow>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err(format!("{}: no rows", path.display()));
    };
    let mut out = BTreeMap::new();
    for row in rows {
        let key = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(w), Some(p), Some(s)) = (key("workload"), key("policy"), key("server")) else {
            return Err(format!("{}: row without a key: {row}", path.display()));
        };
        let mut v = [0u64; 8];
        for (slot, field) in v.iter_mut().zip(FIELDS) {
            *slot = as_u64(row.get(field))
                .ok_or_else(|| format!("{}: row {w}/{p}/{s} lacks {field}", path.display()))?;
        }
        let overall = TrafficCounter {
            hit_bytes: v[0],
            fill_bytes: v[1],
            redirect_bytes: v[2],
            served_requests: v[3],
            redirected_requests: v[4],
        };
        let steady = TrafficCounter {
            hit_bytes: v[5],
            fill_bytes: v[6],
            redirect_bytes: v[7],
            ..TrafficCounter::default()
        };
        out.insert((w, p, s), GoldenRow { overall, steady });
    }
    Ok(out)
}

/// Compares one operation's counters with its golden row.
pub fn check_golden(c: &OpCounters, want: Option<&GoldenRow>) -> Result<(), String> {
    let Some(want) = want else {
        return Err("no golden row pinned".into());
    };
    let got = GoldenRow {
        overall: c.overall,
        steady: c.steady,
    };
    let (g, w) = (row_values(&got), row_values(want));
    let diff: Vec<String> = FIELDS
        .iter()
        .zip(g.iter().zip(w.iter()))
        .filter(|(_, (g, w))| g != w)
        .map(|(f, (g, w))| format!("{f} {g} != pinned {w}"))
        .collect();
    if diff.is_empty() {
        Ok(())
    } else {
        Err(format!("golden mismatch: {}", diff.join(", ")))
    }
}

/// Rewrites the golden file with `rows` replacing the rows of the same
/// keys (used once per workload to pin the default seed).
pub fn write_golden(path: &Path, rows: &BTreeMap<RowKey, GoldenRow>) -> Result<(), String> {
    let mut all = if path.exists() {
        load_golden(path)?
    } else {
        BTreeMap::new()
    };
    all.extend(rows.iter().map(|(k, v)| (k.clone(), v.clone())));
    // Workload order, then policy and server in report order, so the
    // file reads like the result tables.
    let order = |k: &RowKey| {
        let w = Workload::ALL.iter().position(|w| w.name() == k.0);
        let p = crate::Policy::ALL.iter().position(|p| p.name() == k.1);
        (w, p)
    };
    let mut keys: Vec<&RowKey> = all.keys().collect();
    keys.sort_by_key(|k| order(k));
    let mut out = format!("{{\"seed\":{DEFAULT_SEED},\"rows\":[\n");
    for (i, key) in keys.iter().enumerate() {
        let mut fields = vec![
            ("workload".to_string(), Json::Str(key.0.clone())),
            ("policy".to_string(), Json::Str(key.1.clone())),
            ("server".to_string(), Json::Str(key.2.clone())),
        ];
        for (f, v) in FIELDS.iter().zip(row_values(&all[*key])) {
            fields.push((f.to_string(), Json::Int(v as i128)));
        }
        let sep = if i + 1 < keys.len() { "," } else { "" };
        out.push_str(&format!("{}{sep}\n", Json::Obj(fields)));
    }
    out.push_str("]}\n");
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Compares `policy`'s Europe counters with a historical perf record
/// (`perf_baseline` JSON: one 1/16-scale, 30-day Europe trace at the
/// default seed). Returns `Ok(false)` when the record does not exist or
/// describes another run shape, so there is nothing to compare.
pub fn check_history(path: &Path, policy: &str, c: &OpCounters) -> Result<bool, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(false);
    };
    let doc = json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let same_shape = as_u64(doc.get("seed")) == Some(DEFAULT_SEED)
        && as_u64(doc.get("days")) == Some(Family::MONTH.days)
        && matches!(doc.get("scale"), Some(Json::Float(s)) if *s == Family::MONTH.scale);
    if !same_shape {
        return Ok(false);
    }
    let Some(Json::Arr(rows)) = doc.get("policies") else {
        return Err(format!("{}: no policies", path.display()));
    };
    let Some(row) = rows
        .iter()
        .find(|r| r.get("policy").and_then(Json::as_str) == Some(policy))
    else {
        return Ok(false);
    };
    let pairs = [
        ("overall_hit_bytes", c.overall.hit_bytes),
        ("overall_fill_bytes", c.overall.fill_bytes),
        ("overall_redirect_bytes", c.overall.redirect_bytes),
        ("steady_hit_bytes", c.steady.hit_bytes),
        ("steady_fill_bytes", c.steady.fill_bytes),
        ("steady_redirect_bytes", c.steady.redirect_bytes),
    ];
    for (field, got) in pairs {
        let want = as_u64(row.get(field));
        if want != Some(got) {
            return Err(format!(
                "{}: europe {policy} {field} {got} != recorded {want:?}",
                path.display()
            ));
        }
    }
    Ok(true)
}
