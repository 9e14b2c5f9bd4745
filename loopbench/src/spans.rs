//! In-memory spans recorded by the benchmark around each call into a
//! layer's public API, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Layer call, e.g. `sim.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for a root).
    pub parent: Option<usize>,
    /// Tick or round the span belongs to.
    pub op: u64,
}

impl SpanRec {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder; records nothing while off.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// A recorder, recording only when `on`.
    pub fn new(origin: Instant, on: bool) -> Self {
        Spans {
            origin,
            on,
            recs: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Records a span and returns its index (`None` while off).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        Some(self.recs.len() - 1)
    }

    /// Total milliseconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .fold((0.0, 0), |(ms, n), r| (ms + r.ms(), n + 1))
    }

    /// Share of the root spans' wall time not covered by their direct
    /// children, in percent.
    pub fn unaccounted_pct(&self) -> f64 {
        let mut root_ms = 0.0;
        let mut child_ms = 0.0;
        for r in &self.recs {
            match r.parent {
                None => root_ms += r.ms(),
                Some(p) if self.recs[p].parent.is_none() => child_ms += r.ms(),
                Some(_) => {}
            }
        }
        if root_ms == 0.0 {
            return 0.0;
        }
        100.0 * (root_ms - child_ms) / root_ms
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                r.name, r.start_ns, r.end_ns, r.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_account_for_their_root() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut s = Spans::new(t0, true);
        let root = s.push("tick", None, 0, at(0), at(10));
        s.push("sim.step", root, 0, at(0), at(4));
        let orch = s.push("orchestrator.step", root, 0, at(4), at(9));
        s.push("inner", orch, 0, at(5), at(6)); // grandchildren do not count twice
        assert!((s.unaccounted_pct() - 10.0).abs() < 1e-9);
        assert_eq!(s.total("sim.step"), (4.0, 1));

        let mut off = Spans::new(t0, false);
        assert_eq!(off.push("tick", None, 0, at(0), at(1)), None);
        assert_eq!(off.total("tick"), (0.0, 0));
    }
}
