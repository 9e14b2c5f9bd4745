//! A perf-gate binary given a malformed flag, or a `--check` snapshot
//! it cannot read, exits before measuring or writing anything.

use std::path::PathBuf;
use std::process::Command;

const GATES: [&str; 8] = [
    env!("CARGO_BIN_EXE_table3_treefit"),
    env!("CARGO_BIN_EXE_table7_predict"),
    env!("CARGO_BIN_EXE_table1_featurize"),
    env!("CARGO_BIN_EXE_table_obs"),
    env!("CARGO_BIN_EXE_table_tick"),
    env!("CARGO_BIN_EXE_table_sim"),
    env!("CARGO_BIN_EXE_table_train"),
    env!("CARGO_BIN_EXE_table_bakeoff"),
];

/// Runs every gate binary with `args` in an empty directory and checks
/// that each exits with `code`, says `message` on stderr, and leaves
/// the directory empty.
fn assert_rejected(tag: &str, args: &[&str], code: i32, message: &str) {
    let dir: PathBuf = std::env::temp_dir().join(format!("bench-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for bin in GATES {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{bin} {args:?} wrote a file");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_check_without_its_path_exits_before_measuring() {
    assert_rejected("check", &["--check"], 2, "--check needs a value");
}

#[test]
fn a_trailing_out_exits_before_measuring() {
    assert_rejected("out", &["--check", "committed.json", "--out"], 2, "--out needs a value");
}

#[test]
fn a_seed_that_is_not_a_number_exits_before_measuring() {
    assert_rejected("seed", &["--seed", "abc"], 2, "is not an unsigned integer");
}

#[test]
fn an_unreadable_committed_snapshot_exits_before_measuring() {
    assert_rejected("missing", &["--check", "missing.json"], 1, "cannot read missing.json");
}
