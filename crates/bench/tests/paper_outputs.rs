//! The paper artifacts a fresh quick-scale run still reproduces: at the
//! default seed (7), `fig2_kneedle` and `table1_datasets` print the
//! committed `results/fig2.txt` and `results/table1.txt` byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` without arguments and with telemetry off in an empty
/// directory, and checks that it exits 0, prints exactly the committed
/// `results/<file>` and leaves the directory empty.
fn assert_reproduces(tag: &str, bin: &str, file: &str) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("bench-paper-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .current_dir(&dir)
        .env_remove("MONITORLESS_OBS")
        .env_remove("MONITORLESS_TRACE")
        .output()
        .unwrap();
    assert!(out.status.success(), "{bin}: {}", String::from_utf8_lossy(&out.stderr));
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    let want = std::fs::read(&committed)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", committed.display()));
    if out.stdout != want {
        let (got, want) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&want));
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        panic!(
            "{bin} no longer prints results/{file} (first differing line: {line:?}):\n\
             --- got\n{got}--- committed\n{want}"
        );
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{bin} wrote a file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fig2_kneedle_prints_the_committed_figure_2() {
    assert_reproduces("fig2", env!("CARGO_BIN_EXE_fig2_kneedle"), "fig2.txt");
}

#[test]
fn table1_datasets_prints_the_committed_table_1() {
    assert_reproduces("table1", env!("CARGO_BIN_EXE_table1_datasets"), "table1.txt");
}
