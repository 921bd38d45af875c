//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, written out once the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::Value;

/// One timed call: what was called, for which job, inside which span.
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Span recorder. When off it reads no clock and stores nothing, so an
/// untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, job: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (spans close innermost first) and returns its length.
    pub fn end(&mut self, id: Option<usize>) -> Duration {
        let Some(id) = id else {
            return Duration::ZERO;
        };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Times `f` as one span that has no children.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, job);
        let r = f();
        (r, self.end(id))
    }

    /// Self time per span name, in seconds: each span's length minus the
    /// part its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// Writes every span as one JSON line (times in microseconds from the
    /// tracer's creation).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut line = Value::table();
            line.insert("id", &id)
                .insert("name", s.name)
                .insert("job", &s.job)
                .insert("parent", &s.parent)
                .insert("start_us", &(s.start.as_secs_f64() * 1e6))
                .insert("end_us", &(s.end.as_secs_f64() * 1e6));
            text += &serde_json::to_string(&line).expect("a span always serializes");
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}
