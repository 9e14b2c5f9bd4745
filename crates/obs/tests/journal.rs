//! The journal's counts and contents through the public API.
//!
//! The trace mode and the journal are process-wide, and this file is a
//! test binary of its own with a single test, so nothing else records
//! while it runs.

use std::sync::Barrier;

use monitorless_obs as obs;
use obs::journal::JOURNAL_CAPACITY;
use obs::JournalRecord;

const THREADS: u64 = 4;
const PER_THREAD: u64 = 3_000;

/// Thread `t`'s record number `i`, every payload field derived from its
/// trace id so a torn or mixed-up record shows. `t_us` is the clock's
/// and is taken from the record being checked.
fn expected(trace: u64, t_us: u64) -> JournalRecord {
    let (t, i) = ((trace - 1) / PER_THREAD, (trace - 1) % PER_THREAD);
    JournalRecord {
        trace,
        t_us,
        name: "test.journal",
        fields: vec![("i", i as f64)],
        labels: vec![("thread", t.to_string())],
    }
}

/// The `t_us` member of one audit line.
fn t_us_of(line: &str) -> u64 {
    let rest = &line[line.find("\"t_us\":").expect("a t_us member") + 7..];
    rest[..rest.find(',').expect("more members after t_us")]
        .parse()
        .expect("an integer t_us")
}

#[test]
fn ring_mode_keeps_the_newest_records_and_counts_the_rest() {
    obs::init(&obs::TelemetryConfig::off().with_trace(obs::TraceMode::Ring));
    let start = &Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let label = t.to_string();
                start.wait();
                for i in 0..PER_THREAD {
                    let trace = t * PER_THREAD + i + 1;
                    obs::record("test.journal", trace, &[("i", i as f64)], &[("thread", &label)]);
                }
            });
        }
    });

    let total = THREADS * PER_THREAD;
    let capacity = JOURNAL_CAPACITY as u64;
    assert_eq!(
        obs::journal_stats(),
        obs::JournalStats {
            records: total,
            overwritten: total - capacity,
            queued: capacity,
        }
    );

    let drained = obs::drain();
    assert_eq!(drained.len(), JOURNAL_CAPACITY);
    let mut last = [None; THREADS as usize];
    for rec in &drained {
        assert_eq!(rec, &expected(rec.trace, rec.t_us), "torn record");
        let t = ((rec.trace - 1) / PER_THREAD) as usize;
        let prev = last[t].replace(rec.trace);
        assert!(
            prev.is_none_or(|prev| prev < rec.trace),
            "thread {t}: trace {} drained after {prev:?}",
            rec.trace
        );
    }
    assert_eq!(obs::journal_stats().queued, 0);

    // Record the drained payloads again and write them out: each audit
    // line is the drained record's rendering, stamped when re-recorded.
    for rec in &drained {
        let labels: Vec<(&str, &str)> = rec.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        obs::record(rec.name, rec.trace, &rec.fields, &labels);
    }
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-journal-audit");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("audit.jsonl");
    let written = obs::write_audit(&path).expect("write the audit file");
    assert_eq!(written, drained.len(), "write_audit counts the records it wrote");
    let text = std::fs::read_to_string(&path).expect("read the audit file back");
    std::fs::remove_dir_all(&dir).expect("remove the audit directory");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), drained.len());
    for (line, rec) in lines.iter().zip(&drained) {
        let restamped = JournalRecord {
            t_us: t_us_of(line),
            ..rec.clone()
        };
        assert_eq!(*line, restamped.to_jsonl());
    }
    assert_eq!(obs::journal_stats().queued, 0);
    assert_eq!(obs::journal_stats().overwritten, total - capacity);
}
