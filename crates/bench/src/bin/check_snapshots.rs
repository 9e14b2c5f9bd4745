//! Validates every committed perf snapshot under `results/`.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin check_snapshots --release
//! ```
//!
//! The CI perf-gate matrix replays each bench with `--check` against
//! its committed `results/BENCH_<name>.json`. A truncated, hand-edited
//! or schema-drifted snapshot would turn those gates into silent
//! no-ops (a missing size row is simply never compared), so the `test`
//! job runs this checker first: every `BENCH_*.json` must parse into
//! its bench's report type (`monitorless_bench::snapshot`), carry at
//! least the committed sweep's row count, and hold only finite numbers
//! and non-empty strings (row labels such as `phase` or `backend`).
//! Snapshot files this binary does not know about fail the run —
//! registering the report type here is part of adding a new perf gate.

use std::path::Path;

use monitorless_bench::harness::read_snapshot;
use monitorless_bench::snapshot::{
    bakeoff, featurize, obs, predict, sim, table3, tick, train, Snapshot,
};
use monitorless_std::json::Json;

/// Checks one committed file, returning its row count.
type Validator = fn(&Path) -> Result<usize, String>;

const REGISTERED: [(&str, Validator); 8] = [
    (table3::BenchReport::FILE, validate::<table3::BenchReport>),
    (predict::BenchReport::FILE, validate::<predict::BenchReport>),
    (featurize::BenchReport::FILE, validate::<featurize::BenchReport>),
    (obs::BenchReport::FILE, validate::<obs::BenchReport>),
    (tick::BenchReport::FILE, validate::<tick::BenchReport>),
    (sim::BenchReport::FILE, validate::<sim::BenchReport>),
    (train::BenchReport::FILE, validate::<train::BenchReport>),
    (bakeoff::BenchReport::FILE, validate::<bakeoff::BenchReport>),
];

/// Parses `path` into its report type, then runs the checks the type
/// cannot express: the minimum row count, finite numbers and non-empty
/// strings.
fn validate<R: Snapshot>(path: &Path) -> Result<usize, String> {
    let report: R = read_snapshot(path)?;
    // Re-encoded, a `"NaN"` the parser accepted for an `f64` field is a
    // non-finite number again.
    let json = report.to_json();
    let rows = json
        .get(R::ROWS)
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    if rows < R::MIN_ROWS {
        return Err(format!(
            "{}: `{}` has {rows} rows, committed sweep needs at least {}",
            path.display(),
            R::ROWS,
            R::MIN_ROWS
        ));
    }
    well_formed(&json, "").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(rows)
}

/// Every number in `json` is finite and every string non-empty; `at`
/// is the value's position, for the error message.
fn well_formed(json: &Json, at: &str) -> Result<(), String> {
    match json {
        Json::Num(x) if !x.is_finite() => Err(format!("{at} is not a finite number")),
        Json::Str(s) if s.is_empty() => Err(format!("{at} is an empty string")),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| well_formed(item, &format!("{at}[{i}]"))),
        Json::Obj(members) => members.iter().try_for_each(|(key, value)| {
            let at = if at.is_empty() {
                key.clone()
            } else {
                format!("{at}.{key}")
            };
            well_formed(value, &at)
        }),
        _ => Ok(()),
    }
}

/// One verdict per registered snapshot under `dir`, plus a failure for
/// every `BENCH_*.json` there that is not registered.
fn check_dir(dir: &Path) -> Vec<Result<String, String>> {
    let mut verdicts: Vec<_> = REGISTERED
        .iter()
        .map(|(file, validate)| {
            let path = dir.join(file);
            validate(&path).map(|rows| format!("{}: ok ({rows} rows)", path.display()))
        })
        .collect();
    // Every committed BENCH_*.json must be registered above, so a new
    // snapshot cannot ship without a report type (and therefore a gate).
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("BENCH_")
                    && name.ends_with(".json")
                    && !REGISTERED.iter().any(|(file, _)| *file == name)
                {
                    verdicts.push(Err(format!(
                        "{}: unregistered snapshot — add its report type to check_snapshots",
                        dir.join(&name).display()
                    )));
                }
            }
        }
        Err(e) => verdicts.push(Err(format!("{}: cannot list: {e}", dir.display()))),
    }
    verdicts
}

fn main() {
    let mut failed = false;
    for verdict in check_dir(Path::new("results")) {
        match verdict {
            Ok(line) => println!("{line}"),
            Err(msg) => {
                eprintln!("snapshot check FAILED: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("all committed perf snapshots are well-formed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

    /// A scratch copy of every committed snapshot, with `edit` applied
    /// to the parsed `file` before it is written back.
    fn scratch(name: &str, file: &str, edit: impl FnOnce(&mut Json)) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("check-snapshots-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(COMMITTED).unwrap().flatten() {
            let leaf = entry.file_name().to_string_lossy().into_owned();
            if leaf.starts_with("BENCH_") {
                std::fs::copy(entry.path(), dir.join(&leaf)).unwrap();
            }
        }
        let path = dir.join(file);
        let mut json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        edit(&mut json);
        std::fs::write(&path, json.to_string()).unwrap();
        dir
    }

    /// The one failure `check_dir` reports for `dir`.
    fn failure(dir: &Path) -> String {
        let failures: Vec<String> = check_dir(dir).into_iter().filter_map(Result::err).collect();
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(failures.len(), 1, "{failures:?}");
        failures.into_iter().next().unwrap()
    }

    fn member<'j>(json: &'j mut Json, key: &str) -> &'j mut Json {
        match json {
            Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        }
    }

    fn row<'j>(json: &'j mut Json, key: &str, i: usize) -> &'j mut Json {
        match member(json, key) {
            Json::Arr(rows) => &mut rows[i],
            _ => panic!("not an array"),
        }
    }

    #[test]
    fn every_committed_snapshot_passes() {
        let verdicts = check_dir(Path::new(COMMITTED));
        assert_eq!(verdicts.len(), 8);
        for verdict in verdicts {
            assert!(verdict.is_ok(), "{verdict:?}");
        }
    }

    fn rewrites_byte_for_byte<R: Snapshot>() {
        let path = Path::new(COMMITTED).join(R::FILE);
        let report: R = read_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(monitorless_std::json::to_string(&report) + "\n", text, "{}", R::FILE);
    }

    #[test]
    fn report_types_rewrite_every_committed_snapshot_byte_for_byte() {
        rewrites_byte_for_byte::<table3::BenchReport>();
        rewrites_byte_for_byte::<predict::BenchReport>();
        rewrites_byte_for_byte::<featurize::BenchReport>();
        rewrites_byte_for_byte::<obs::BenchReport>();
        rewrites_byte_for_byte::<tick::BenchReport>();
        rewrites_byte_for_byte::<sim::BenchReport>();
        rewrites_byte_for_byte::<train::BenchReport>();
        rewrites_byte_for_byte::<bakeoff::BenchReport>();
    }

    #[test]
    fn a_missing_row_field_fails() {
        let dir = scratch("missing", "BENCH_table3.json", |j| {
            if let Json::Obj(members) = row(j, "sizes", 1) {
                members.retain(|(k, _)| k != "speedup");
            }
        });
        let msg = failure(&dir);
        assert!(msg.contains("BENCH_table3.json") && msg.contains("speedup"), "{msg}");
    }

    #[test]
    fn a_nan_value_fails() {
        let dir = scratch("nan", "BENCH_sim.json", |j| {
            *member(row(j, "sizes", 0), "speedup") = Json::Str("NaN".into());
        });
        let msg = failure(&dir);
        assert!(msg.contains("BENCH_sim.json") && msg.contains("finite"), "{msg}");
    }

    #[test]
    fn an_empty_phase_label_fails() {
        let dir = scratch("phase", "BENCH_train.json", |j| {
            *member(row(j, "sizes", 2), "phase") = Json::Str(String::new());
        });
        let msg = failure(&dir);
        assert!(msg.contains("BENCH_train.json") && msg.contains("phase"), "{msg}");
    }

    #[test]
    fn an_empty_backend_label_fails() {
        let dir = scratch("backend", "BENCH_bakeoff.json", |j| {
            *member(row(j, "cells", 4), "backend") = Json::Str(String::new());
        });
        let msg = failure(&dir);
        assert!(msg.contains("BENCH_bakeoff.json") && msg.contains("backend"), "{msg}");
    }

    #[test]
    fn a_short_row_array_fails() {
        let dir = scratch("short", "BENCH_table3.json", |j| {
            if let Json::Arr(rows) = member(j, "sizes") {
                rows.truncate(1);
            }
        });
        let msg = failure(&dir);
        assert!(msg.contains("has 1 rows, committed sweep needs at least 3"), "{msg}");
    }

    #[test]
    fn an_unregistered_snapshot_fails() {
        let dir = scratch("unregistered", "BENCH_obs.json", |_| {});
        std::fs::copy(dir.join("BENCH_obs.json"), dir.join("BENCH_x.json")).unwrap();
        let msg = failure(&dir);
        assert!(msg.contains("BENCH_x.json") && msg.contains("unregistered"), "{msg}");
    }
}
