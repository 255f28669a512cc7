//! End-to-end tests of the `vcdn` command-line interface, driving the real
//! binary through generate → stats → replay → bound round trips.

use std::path::PathBuf;
use std::process::{Command, Output};

fn vcdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcdn"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_trace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vcdn-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = vcdn(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in ["gen", "stats", "replay", "bound"] {
        assert!(text.contains(cmd), "usage missing '{cmd}'");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = vcdn(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn gen_stats_replay_bound_roundtrip() {
    let path = temp_trace("roundtrip.jsonl");
    let path_s = path.to_str().expect("utf-8 path");

    // Generate.
    let out = vcdn(&[
        "gen",
        "--profile",
        "tiny",
        "--days",
        "1",
        "--seed",
        "7",
        "--out",
        path_s,
    ]);
    assert!(out.status.success(), "gen failed: {}", stderr(&out));
    assert!(stdout(&out).contains("wrote"));

    // Stats.
    let out = vcdn(&["stats", "--trace", path_s]);
    assert!(out.status.success(), "stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("unique videos"));
    assert!(text.contains("zipf slope"));

    // Replay with each algorithm.
    for algo in ["lru", "lfu", "lru2", "xlru", "cafe", "psychic"] {
        let out = vcdn(&[
            "replay",
            "--trace",
            path_s,
            "--algo",
            algo,
            "--alpha",
            "2",
            "--disk-chunks",
            "64",
        ]);
        assert!(out.status.success(), "replay {algo}: {}", stderr(&out));
        assert!(stdout(&out).contains("efficiency"));
    }

    // Disk in GB instead of chunks.
    let out = vcdn(&[
        "replay",
        "--trace",
        path_s,
        "--algo",
        "cafe",
        "--alpha",
        "1",
        "--disk-gb",
        "0.25",
    ]);
    assert!(out.status.success(), "disk-gb replay: {}", stderr(&out));

    // Bound on a truncated prefix.
    let out = vcdn(&[
        "bound",
        "--trace",
        path_s,
        "--alpha",
        "2",
        "--disk-chunks",
        "16",
        "--requests",
        "40",
    ]);
    assert!(out.status.success(), "bound failed: {}", stderr(&out));
    assert!(stdout(&out).contains("efficiency upper bound"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_requires_disk_size() {
    let path = temp_trace("nodisk.jsonl");
    let path_s = path.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", path_s]);
    let out = vcdn(&["replay", "--trace", path_s, "--algo", "cafe"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--disk-chunks or --disk-gb"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bound_rejects_zero_disk_without_panicking() {
    let path = temp_trace("zerodisk.jsonl");
    let path_s = path.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", path_s]);
    for cmd in ["bound", "replay"] {
        let out = vcdn(&[cmd, "--trace", path_s, "--disk-chunks", "0"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(
            err.contains("disk must hold at least one chunk"),
            "{cmd}: {err}"
        );
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_chunk_size_is_rejected_not_wrapped() {
    let path = temp_trace("hugechunk.jsonl");
    let path_s = path.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", path_s]);
    let out = vcdn(&["stats", "--trace", path_s, "--chunk-mb", "99999999999999"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--chunk-mb"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(stdout(&out).is_empty(), "no stats for a wrapped chunk size");
    std::fs::remove_file(&path).ok();
}

#[test]
fn gen_rejects_bad_inputs() {
    let out = vcdn(&["gen", "--profile", "mars", "--out", "/tmp/x.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown profile"));

    let out = vcdn(&["gen", "--days", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out is required"));

    let out = vcdn(&["gen", "--scale", "-1", "--out", "/tmp/x.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--scale"));
}

#[test]
fn stats_rejects_missing_file() {
    let out = vcdn(&["stats", "--trace", "/nonexistent/definitely/missing.jsonl"]);
    assert!(!out.status.success());
}

#[test]
fn flags_require_values() {
    let out = vcdn(&["gen", "--days"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("requires a value"));
}

#[test]
fn binary_trace_format_roundtrips_through_cli() {
    let path = temp_trace("bin.vctb");
    let path_s = path.to_str().expect("utf-8 path");
    let out = vcdn(&[
        "gen",
        "--profile",
        "tiny",
        "--days",
        "1",
        "--seed",
        "9",
        "--out",
        path_s,
    ]);
    assert!(out.status.success(), "gen vctb: {}", stderr(&out));
    let out = vcdn(&["stats", "--trace", path_s]);
    assert!(out.status.success(), "stats vctb: {}", stderr(&out));
    let out = vcdn(&[
        "replay",
        "--trace",
        path_s,
        "--algo",
        "xlru",
        "--alpha",
        "2",
        "--disk-chunks",
        "32",
    ]);
    assert!(out.status.success(), "replay vctb: {}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_save_and_load_through_cli() {
    let trace_path = temp_trace("snapshot-trace.jsonl");
    let state_path = temp_trace("cafe-state.json");
    let tp = trace_path.to_str().expect("utf-8");
    let sp = state_path.to_str().expect("utf-8");
    vcdn(&["gen", "--days", "1", "--seed", "3", "--out", tp]);
    // Replay saving state...
    let out = vcdn(&[
        "replay",
        "--trace",
        tp,
        "--algo",
        "cafe",
        "--alpha",
        "2",
        "--disk-chunks",
        "64",
        "--save-state",
        sp,
    ]);
    assert!(out.status.success(), "save-state: {}", stderr(&out));
    assert!(state_path.exists());
    // ...then warm-start from it.
    let out = vcdn(&[
        "replay",
        "--trace",
        tp,
        "--algo",
        "cafe",
        "--alpha",
        "2",
        "--disk-chunks",
        "64",
        "--load-state",
        sp,
    ]);
    assert!(out.status.success(), "load-state: {}", stderr(&out));
    // Unsupported algorithms refuse the flags.
    let out = vcdn(&[
        "replay",
        "--trace",
        tp,
        "--algo",
        "lru",
        "--disk-chunks",
        "8",
        "--save-state",
        sp,
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cafe and xlru only"));
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&state_path).ok();
}

/// Saves a Cafe snapshot at `--alpha 2 --disk-chunks 64` (2 MiB chunks)
/// and returns the trace and state paths.
fn saved_cafe_state(tag: &str) -> (PathBuf, PathBuf) {
    let trace_path = temp_trace(&format!("{tag}-trace.jsonl"));
    let state_path = temp_trace(&format!("{tag}-state.json"));
    let tp = trace_path.to_str().expect("utf-8");
    let sp = state_path.to_str().expect("utf-8");
    vcdn(&["gen", "--days", "1", "--seed", "3", "--out", tp]);
    let out = vcdn(&[
        "replay",
        "--trace",
        tp,
        "--algo",
        "cafe",
        "--alpha",
        "2",
        "--disk-chunks",
        "64",
        "--save-state",
        sp,
    ]);
    assert!(out.status.success(), "save-state: {}", stderr(&out));
    (trace_path, state_path)
}

/// Reloads the snapshot saved by [`saved_cafe_state`] with `flags`
/// instead of the flags it was saved with; the replay must fail with exit
/// code 1 (an error, not a panic) and an error naming the flag and both
/// values.
fn reload_with(tag: &str, flags: &[&str], expected: &[&str]) {
    let (trace_path, state_path) = saved_cafe_state(tag);
    let tp = trace_path.to_str().expect("utf-8");
    let sp = state_path.to_str().expect("utf-8");
    let mut args = vec![
        "replay",
        "--trace",
        tp,
        "--algo",
        "cafe",
        "--load-state",
        sp,
    ];
    args.extend_from_slice(flags);
    let out = vcdn(&args);
    assert_eq!(out.status.code(), Some(1), "{flags:?}: {}", stderr(&out));
    let err = stderr(&out);
    for needle in expected {
        assert!(
            err.contains(needle),
            "{flags:?}: missing '{needle}' in {err}"
        );
    }
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&state_path).ok();
}

#[test]
fn load_state_rejects_a_different_alpha() {
    // No --alpha means the default 1.0, not the snapshot's 2.
    reload_with(
        "alpha-mismatch",
        &["--disk-chunks", "64"],
        &["--alpha", "alpha 2", "alpha 1"],
    );
}

#[test]
fn load_state_rejects_a_different_chunk_size() {
    reload_with(
        "chunk-mismatch",
        &["--alpha", "2", "--disk-chunks", "64", "--chunk-mb", "4"],
        &["--chunk-mb", "2 MiB", "4 MiB"],
    );
}

#[test]
fn load_state_rejects_a_different_disk_size() {
    reload_with(
        "disk-mismatch",
        &["--alpha", "2", "--disk-chunks", "8"],
        &["--disk-chunks", "64 disk chunks", "8 disk chunks"],
    );
}
