//! The causal event journal: a bounded ring buffer of trace-stamped
//! records.
//!
//! Where counters and histograms answer "how much / how fast", the
//! journal answers "what happened to *this* prediction": every stage of
//! the serving loop — observation ingest, featurization, model predict,
//! drift evaluation, autoscaler decision — appends one
//! [`JournalRecord`] carrying the tick's trace id, so a single
//! `trace_id` can be followed from a raw metric vector to the scaling
//! decision it caused (and to any span events emitted on the way:
//! [`crate::Span`] joins the chain via the thread's current trace).
//!
//! ## Design
//!
//! * **Bounded.** Records land in a fixed-capacity ring: a
//!   `VecDeque` behind one mutex, which the record path holds for a
//!   single push (and, when full, a pop). When the ring is full the
//!   *oldest* record is popped and counted as overwritten — an audit
//!   trail keeps its most recent history under backpressure.
//! * **Off by default.** Tracing is configured separately from metric
//!   telemetry (`MONITORLESS_TRACE` / `--trace <off|ring|jsonl>`); when
//!   off, [`record`] is a single relaxed atomic load and the serving
//!   loop's zero-allocation contract is untouched. `ring` keeps records
//!   in memory for an end-of-run [`drain`] (or
//!   [`write_audit`](crate::write_audit), which drains them into a JSONL
//!   file); `jsonl` additionally streams each record to stderr as it
//!   happens.
//! * **Trace ids.** [`next_trace`] mints process-unique ids from an
//!   atomic counter; [`enter_trace`] installs one as the thread's
//!   current trace for the duration of an RAII scope.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::config::TraceMode;
use crate::export::{json_escape, json_f64, process_start_us};
use crate::registry::lock;

/// Capacity of the global ring. 4096 records cover several seconds of a
/// busy fleet tick loop between drains.
pub const JOURNAL_CAPACITY: usize = 4096;

static MODE: AtomicU8 = AtomicU8::new(0);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static RECORDS: AtomicU64 = AtomicU64::new(0);
static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Whether journal records are currently being captured. One relaxed
/// atomic load — call sites may use it to skip argument preparation
/// (top-k extraction, name lookups) entirely.
#[inline]
pub fn trace_enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// The active trace mode.
pub fn trace_mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        1 => TraceMode::Ring,
        2 => TraceMode::Jsonl,
        _ => TraceMode::Off,
    }
}

/// Installs the trace mode (done by [`crate::init`]).
pub(crate) fn set_trace_mode(mode: TraceMode) {
    let code = match mode {
        TraceMode::Off => 0,
        TraceMode::Ring => 1,
        TraceMode::Jsonl => 2,
    };
    MODE.store(code, Ordering::Relaxed);
}

/// Mints a fresh process-unique trace id (never 0 — 0 means "no trace").
pub fn next_trace() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The thread's current trace id, if a trace scope is active.
pub fn current_trace() -> Option<u64> {
    let id = CURRENT_TRACE.with(Cell::get);
    (id != 0).then_some(id)
}

/// RAII guard installing a trace id as the thread's current trace;
/// dropping it restores the previous trace (scopes nest).
#[derive(Debug)]
#[must_use = "dropping the scope immediately uninstalls the trace id"]
pub struct TraceScope {
    prev: u64,
}

/// Makes `id` the thread's current trace until the returned scope
/// drops. Span events emitted inside the scope carry the id, joining
/// existing instrumentation to the causal chain for free.
pub fn enter_trace(id: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(id));
    TraceScope { prev }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// One audit-trail entry: a named stage of the serving loop, stamped
/// with the tick's trace id, a timestamp, numeric fields and optional
/// string labels (e.g. the top-k contributing metric names).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Trace id linking this record to the rest of its tick.
    pub trace: u64,
    /// Microseconds since process start.
    pub t_us: u64,
    /// Stage name (`"orchestrator.observe"`, `"drift.alert"`, ...).
    pub name: &'static str,
    /// Numeric payload, in insertion order.
    pub fields: Vec<(&'static str, f64)>,
    /// String payload (metric names, decisions), in insertion order.
    pub labels: Vec<(&'static str, String)>,
}

impl JournalRecord {
    /// Renders the record as one JSONL audit line.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"trace\",\"trace\":{},\"t_us\":{},\"name\":\"{}\"",
            self.trace,
            self.t_us,
            json_escape(self.name)
        );
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(k), json_f64(*v)));
            }
            out.push('}');
        }
        if !self.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// The bounded ring: a deque that never holds more than `capacity`
/// records, behind one lock shared by producers and consumers.
struct Ring {
    capacity: usize,
    records: Mutex<VecDeque<JournalRecord>>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a journal ring needs at least one slot");
        Ring {
            capacity,
            records: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Appends a record, or returns it back when the ring is full.
    #[cfg(test)]
    fn try_push(&self, rec: JournalRecord) -> Result<(), JournalRecord> {
        let mut records = lock(&self.records);
        if records.len() == self.capacity {
            return Err(rec);
        }
        records.push_back(rec);
        Ok(())
    }

    /// Removes the oldest record, or `None` when empty.
    fn try_pop(&self) -> Option<JournalRecord> {
        lock(&self.records).pop_front()
    }

    /// Appends, evicting the oldest record when full. Returns how many
    /// records were evicted to make room (0 or 1).
    fn push_overwriting(&self, rec: JournalRecord) -> u64 {
        let mut records = lock(&self.records);
        let evicted = if records.len() == self.capacity {
            records.pop_front();
            1
        } else {
            0
        };
        records.push_back(rec);
        evicted
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(JOURNAL_CAPACITY))
}

/// Appends one audit record to the journal. No-op (a single relaxed
/// load) while tracing is off; in `jsonl` mode the record also streams
/// to stderr immediately.
pub fn record(
    name: &'static str,
    trace: u64,
    fields: &[(&'static str, f64)],
    labels: &[(&'static str, &str)],
) {
    if !trace_enabled() {
        return;
    }
    let rec = JournalRecord {
        trace,
        t_us: process_start_us(),
        name,
        fields: fields.to_vec(),
        labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
    };
    if trace_mode() == TraceMode::Jsonl {
        eprintln!("{}", rec.to_jsonl());
    }
    let evicted = ring().push_overwriting(rec);
    RECORDS.fetch_add(1, Ordering::Relaxed);
    if evicted > 0 {
        OVERWRITTEN.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// Removes and returns every queued record, oldest first.
pub fn drain() -> Vec<JournalRecord> {
    let mut out = Vec::new();
    while let Some(rec) = ring().try_pop() {
        out.push(rec);
    }
    out
}

/// Drains the journal and renders it as a JSONL audit trail (one
/// record per line, oldest first).
pub fn audit_jsonl() -> String {
    jsonl_lines(&drain())
}

/// Renders `records` as JSONL, one record per line.
pub(crate) fn jsonl_lines(records: &[JournalRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_jsonl());
        out.push('\n');
    }
    out
}

/// Journal lifetime statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since process start (drained or not).
    pub records: u64,
    /// Records evicted because the ring was full.
    pub overwritten: u64,
    /// Records currently queued in the ring.
    pub queued: u64,
}

/// Current journal statistics (cheap: two atomic loads and the ring's
/// length, read under its lock).
pub fn journal_stats() -> JournalStats {
    JournalStats {
        records: RECORDS.load(Ordering::Relaxed),
        overwritten: OVERWRITTEN.load(Ordering::Relaxed),
        queued: lock(&ring().records).len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn rec(trace: u64) -> JournalRecord {
        JournalRecord {
            trace,
            t_us: 0,
            name: "test.stage",
            fields: vec![("value", 1.5)],
            labels: Vec::new(),
        }
    }

    #[test]
    fn ring_is_fifo() {
        let ring = Ring::new(8);
        for i in 0..5 {
            ring.try_push(rec(i)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(ring.try_pop().unwrap().trace, i);
        }
        assert!(ring.try_pop().is_none());
    }

    #[test]
    fn full_ring_evicts_oldest() {
        let ring = Ring::new(4);
        let mut evicted = 0;
        for i in 0..10 {
            evicted += ring.push_overwriting(rec(i));
        }
        assert_eq!(evicted, 6, "6 of 10 records must be evicted from a 4-slot ring");
        // The survivors are the 4 most recent, in order.
        let kept: Vec<u64> = std::iter::from_fn(|| ring.try_pop())
            .map(|r| r.trace)
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_pushes_are_lossless_below_capacity() {
        let ring = std::sync::Arc::new(Ring::new(1024));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.try_push(rec(t * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut seen = 0;
        while ring.try_pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 400);
    }

    /// Producer `p`'s record number `i` of a stress run, with every
    /// payload field derived from its trace so a torn record shows.
    fn stamped(p: u64, i: u64, per_producer: u64) -> JournalRecord {
        let trace = p * per_producer + i;
        JournalRecord {
            trace,
            t_us: i,
            name: "test.stress",
            fields: vec![("trace", trace as f64)],
            labels: vec![("producer", p.to_string())],
        }
    }

    #[test]
    fn overwriting_producers_and_concurrent_consumers_account_for_every_record() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let ring = &Ring::new(64);
        let producers_done = &AtomicUsize::new(0);
        // Every thread starts at once, so producers and consumers overlap.
        let start = &std::sync::Barrier::new(PRODUCERS as usize + 2);
        let (evicted, consumed) = std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    s.spawn(move || {
                        start.wait();
                        let evicted: u64 = (0..PER_PRODUCER)
                            .map(|i| ring.push_overwriting(stamped(p, i, PER_PRODUCER)))
                            .sum();
                        producers_done.fetch_add(1, Ordering::SeqCst);
                        evicted
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        // Stop with the producers: what is still queued
                        // then is the final drain's.
                        start.wait();
                        let mut popped = Vec::new();
                        while producers_done.load(Ordering::SeqCst) < PRODUCERS as usize {
                            match ring.try_pop() {
                                Some(rec) => popped.push(rec),
                                None => std::thread::yield_now(),
                            }
                        }
                        popped
                    })
                })
                .collect();
            let evicted: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            let consumed: Vec<Vec<JournalRecord>> =
                consumers.into_iter().map(|h| h.join().unwrap()).collect();
            (evicted, consumed)
        });
        let drained: Vec<JournalRecord> = std::iter::from_fn(|| ring.try_pop()).collect();

        let mut seen = std::collections::HashSet::new();
        for batch in consumed.iter().chain([&drained]) {
            let mut last: [Option<u64>; PRODUCERS as usize] = [None; PRODUCERS as usize];
            for rec in batch {
                let (p, i) = (rec.trace / PER_PRODUCER, rec.trace % PER_PRODUCER);
                assert!(p < PRODUCERS, "trace {} from no producer", rec.trace);
                assert_eq!(rec, &stamped(p, i, PER_PRODUCER), "torn record");
                let prev = last[p as usize].replace(i);
                assert!(
                    prev.is_none_or(|prev| prev < i),
                    "producer {p}: record {i} popped after {prev:?}"
                );
                assert!(seen.insert(rec.trace), "trace {} popped twice", rec.trace);
            }
        }
        let popped: usize = consumed.iter().map(Vec::len).sum();
        assert_eq!(
            popped as u64 + drained.len() as u64 + evicted,
            PRODUCERS * PER_PRODUCER,
            "{popped} popped + {} drained + {evicted} evicted",
            drained.len()
        );
    }

    #[test]
    fn jsonl_rendering_is_flat() {
        let r = JournalRecord {
            trace: 42,
            t_us: 7,
            name: "predict",
            fields: vec![("probability", 0.25), ("saturated", 1.0)],
            labels: vec![("top1", "ctr.containers.cpu.util".into())],
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"type\":\"trace\",\"trace\":42,\"t_us\":7,\"name\":\"predict\",\
             \"fields\":{\"probability\":0.25,\"saturated\":1},\
             \"labels\":{\"top1\":\"ctr.containers.cpu.util\"}}"
        );
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        assert_eq!(current_trace(), None);
        let a = next_trace();
        let b = next_trace();
        assert_ne!(a, b);
        {
            let _outer = enter_trace(a);
            assert_eq!(current_trace(), Some(a));
            {
                let _inner = enter_trace(b);
                assert_eq!(current_trace(), Some(b));
            }
            assert_eq!(current_trace(), Some(a));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn record_is_noop_when_off() {
        // Tracing is off unless a test explicitly enables it; the global
        // mode is process-wide, so only assert when it is actually off.
        if !trace_enabled() {
            let before = journal_stats().records;
            record("test.noop", 1, &[("x", 1.0)], &[]);
            assert_eq!(journal_stats().records, before);
        }
    }
}
