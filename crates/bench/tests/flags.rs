//! Bench binaries must refuse a flag value they cannot parse instead of
//! silently running at the default.

use std::process::Command;

#[test]
fn unparsable_flag_value_exits_non_zero_with_the_flag_named() {
    for (bin, flag, value) in [
        (
            env!("CARGO_BIN_EXE_replay_observe"),
            "--interval-mins",
            "6h",
        ),
        (env!("CARGO_BIN_EXE_fig3_timeseries"), "--scale", "tiny"),
        (env!("CARGO_BIN_EXE_smoke"), "--days", "ten"),
    ] {
        let out = Command::new(bin)
            .args([flag, value])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {flag} {value}: {err}");
        assert!(
            err.contains(&format!("{flag}: cannot parse '{value}'")),
            "{bin}: {err}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran despite the bad flag");
    }
}
