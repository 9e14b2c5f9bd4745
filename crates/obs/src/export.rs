//! Exporters: JSONL event stream and Prometheus-style text snapshots.
//!
//! JSON is rendered by hand — the crate is dependency-free — and the
//! emitted shapes are deliberately flat:
//!
//! ```text
//! {"type":"span","t_us":1234,"name":"sim.tick","parent":"autoscale.run","dur_us":103.2}
//! {"type":"progress","t_us":1300,"msg":"training model"}
//! {"type":"event","t_us":1400,"name":"autoscale.decision","fields":{"containers":3}}
//! {"type":"counter","name":"sim.ticks","value":600}
//! {"type":"histogram","name":"sim.tick","count":600,"p50":103.2,...}
//! ```
//!
//! The Prometheus exporter writes the usual text exposition format with
//! `monitorless_` prefixed, sanitized metric names and
//! `{quantile="..."}` summary series.

use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::config::ExportFormat;
use crate::histogram::HistogramSummary;
use crate::registry;

/// Microseconds since telemetry start (first call wins; `init` calls
/// this so the origin is process startup in practice).
pub(crate) fn process_start_us() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = START.get_or_init(Instant::now);
    start.elapsed().as_micros() as u64
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (non-finite becomes `null`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Streams one span event (JSONL mode only; called from `Span::drop`).
/// When the dropping thread has an active trace scope, the event carries
/// the trace id so existing instrumentation joins the causal chain.
pub(crate) fn emit_span_event(name: &str, parent: Option<&str>, dur_us: f64, trace: Option<u64>) {
    let parent_field = match parent {
        Some(p) => format!("\"{}\"", json_escape(p)),
        None => "null".to_string(),
    };
    let trace_field = match trace {
        Some(id) => format!(",\"trace\":{id}"),
        None => String::new(),
    };
    eprintln!(
        "{{\"type\":\"span\",\"t_us\":{},\"name\":\"{}\",\"parent\":{},\"dur_us\":{}{}}}",
        process_start_us(),
        json_escape(name),
        parent_field,
        json_f64(dur_us),
        trace_field,
    );
}

/// Emits a progress message. Default (telemetry off or Prometheus mode):
/// the message renders to stderr exactly as `eprintln!` would. JSONL
/// mode: the message becomes a machine-readable progress event.
pub fn progress(msg: &str) {
    if registry::format() == ExportFormat::Jsonl {
        eprintln!(
            "{{\"type\":\"progress\",\"t_us\":{},\"msg\":\"{}\"}}",
            process_start_us(),
            json_escape(msg),
        );
    } else {
        eprintln!("{msg}");
    }
}

/// Emits a structured discrete event (e.g. one autoscaling decision)
/// with numeric fields. Only rendered in JSONL mode; other modes drop it
/// (the associated counters/histograms still capture the aggregate).
pub fn event(name: &str, fields: &[(&str, f64)]) {
    if registry::format() != ExportFormat::Jsonl {
        return;
    }
    let mut body = String::new();
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{}\":{}", json_escape(k), json_f64(*v)));
    }
    eprintln!(
        "{{\"type\":\"event\",\"t_us\":{},\"name\":\"{}\",\"fields\":{{{}}}}}",
        process_start_us(),
        json_escape(name),
        body,
    );
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter name/value pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name/summary pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Captures the current state of the registry. When journal tracing
    /// is active, the journal's lifetime statistics are merged in as
    /// `journal.*` counters and gauges (kept in sorted name order).
    pub fn take() -> Self {
        let (mut counters, mut gauges, histograms) = registry::dump();
        if crate::journal::trace_enabled() {
            let stats = crate::journal::journal_stats();
            merge_sorted(&mut counters, "journal.overwritten".to_string(), stats.overwritten);
            merge_sorted(&mut counters, "journal.records".to_string(), stats.records);
            merge_sorted(&mut gauges, "journal.queued".to_string(), stats.queued as f64);
        }
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the given format (`Off` renders nothing).
    pub fn render(&self, format: ExportFormat) -> String {
        match format {
            ExportFormat::Off => String::new(),
            ExportFormat::Jsonl => self.to_jsonl(),
            ExportFormat::Prom => self.to_prometheus(),
        }
    }

    /// One JSON object per line, one line per metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}\n",
                json_escape(name),
                value
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}\n",
                json_escape(name),
                json_f64(*value)
            ));
        }
        for (name, s) in &self.histograms {
            out.push_str(&format!(
                concat!(
                    "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},",
                    "\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},",
                    "\"p50\":{},\"p90\":{},\"p99\":{}}}\n"
                ),
                json_escape(name),
                s.count,
                json_f64(s.sum),
                json_f64(s.min),
                json_f64(s.max),
                json_f64(s.mean),
                json_f64(s.p50),
                json_f64(s.p90),
                json_f64(s.p99),
            ));
        }
        out
    }

    /// Prometheus text exposition format. Histograms render as summaries
    /// with `quantile` labels plus `_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_f64(*value)));
        }
        for (name, s) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", prom_f64(v)));
            }
            out.push_str(&format!("{n}_sum {}\n", prom_f64(s.sum)));
            out.push_str(&format!("{n}_count {}\n", s.count));
        }
        out
    }
}

/// Inserts or overwrites `(name, value)` in a name-sorted metric list.
fn merge_sorted<T>(list: &mut Vec<(String, T)>, name: String, value: T) {
    match list.binary_search_by(|(n, _)| n.as_str().cmp(name.as_str())) {
        Ok(i) => list[i].1 = value,
        Err(i) => list.insert(i, (name, value)),
    }
}

fn prom_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("monitorless_{sanitized}")
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Writes the final snapshot to stderr in the active format. No-op when
/// telemetry is off or nothing was recorded.
pub fn report_to_stderr() {
    let format = registry::format();
    if format == ExportFormat::Off {
        return;
    }
    let snap = Snapshot::take();
    if snap.is_empty() {
        return;
    }
    eprint!("{}", snap.render(format));
}

/// Writes the final snapshot to a file in the active format. No-op when
/// telemetry is off; an empty snapshot still produces an empty file.
pub fn write_report(path: &std::path::Path) -> std::io::Result<()> {
    let format = registry::format();
    if format == ExportFormat::Off {
        return Ok(());
    }
    create_file(path)?.write_all(Snapshot::take().render(format).as_bytes())
}

/// Drains the trace journal into a JSONL audit file, one record per
/// line, oldest first ([`crate::audit_jsonl`]), and returns how many
/// records it wrote. The file is created before the drain, so records
/// stay queued when it cannot be.
pub fn write_audit(path: &std::path::Path) -> std::io::Result<usize> {
    let mut file = create_file(path)?;
    let records = crate::journal::drain();
    file.write_all(crate::journal::jsonl_lines(&records).as_bytes())?;
    Ok(records.len())
}

/// Creates (or truncates) `path`, creating its parent directory first.
fn create_file(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::File::create(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::enable_for_test;

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("tab\there"), "tab\\there");
    }

    #[test]
    fn snapshot_renders_both_formats() {
        let _guard = enable_for_test();
        registry::counter_add("export.test.requests", 3);
        registry::gauge_set("export.test.load", 0.5);
        registry::observe("export.test.latency_us", 100.0);
        let snap = Snapshot::take();
        assert!(!snap.is_empty());

        let jsonl = snap.to_jsonl();
        assert!(
            jsonl.contains("{\"type\":\"counter\",\"name\":\"export.test.requests\",\"value\":3}")
        );
        assert!(jsonl.contains("\"type\":\"gauge\",\"name\":\"export.test.load\",\"value\":0.5"));
        assert!(jsonl.contains("\"type\":\"histogram\",\"name\":\"export.test.latency_us\""));

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE monitorless_export_test_requests counter"));
        assert!(prom.contains("monitorless_export_test_requests 3"));
        assert!(prom.contains("monitorless_export_test_latency_us{quantile=\"0.5\"}"));
        assert!(prom.contains("monitorless_export_test_latency_us_count 1"));
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("sim.tick-rate"), "monitorless_sim_tick_rate");
    }

    #[test]
    fn non_finite_values_render_safely() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
    }
}
