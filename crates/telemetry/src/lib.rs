//! # rats-telemetry — metrics registry and phase spans
//!
//! A dependency-free observability substrate for the rats workspace: a
//! process-wide registry of atomic [`Counter`]s, [`Gauge`]s, fixed-bucket
//! lock-free [`Histogram`]s and labelled counter [`Family`]s, plus RAII
//! phase [`span`]s that capture wall time into histograms.
//!
//! ## Design constraints
//!
//! * **std-only.** The workspace builds offline against vendored API
//!   stand-ins; this crate uses nothing but `core::sync::atomic` and
//!   `std::sync::Mutex` (the latter only for labelled families and the
//!   registry's metric list, both off the hot path).
//! * **Const-constructible.** Every metric type has a `const fn new`, so
//!   instrumented crates declare `static` metrics with zero init cost and
//!   no once-cells.
//! * **Near-zero cost when disabled.** Recording is a relaxed atomic add.
//!   Wall-time [`span`]s additionally gate on a global [`enabled`] flag —
//!   one relaxed load — and skip the clock read entirely when telemetry
//!   is off, so the mapping hot loop pays (almost) nothing by default.
//! * **Observational only.** Nothing in the workspace branches on a
//!   metric value; schedules and reports are bit-identical with telemetry
//!   on or off (enforced by the parity suite).
//!
//! ## Usage
//!
//! ```
//! use rats_telemetry::{Counter, Histogram, Metric, Registry};
//!
//! static REQS: Counter = Counter::new("myapp_requests_total", "Requests served.");
//! static LAT: Histogram = Histogram::new(
//!     "myapp_latency_seconds",
//!     "Request latency.",
//!     rats_telemetry::TIME_BUCKETS,
//! );
//! static METRICS: &[Metric] = &[Metric::Counter(&REQS), Metric::Histogram(&LAT)];
//!
//! rats_telemetry::global().register(METRICS);
//! rats_telemetry::set_enabled(true);
//! REQS.inc();
//! {
//!     let _span = rats_telemetry::span(&LAT); // records on drop
//! }
//! let text = rats_telemetry::global().render_prometheus();
//! assert!(text.contains("myapp_requests_total 1"));
//! ```
//!
//! ## Exposition
//!
//! [`Registry::render_prometheus`] emits Prometheus text exposition
//! format 0.0.4 (`# HELP`/`# TYPE` headers, cumulative `le` buckets with
//! a terminal `+Inf`, `_sum`/`_count` series) — this is what the serve
//! protocol's `metrics` op and the `--metrics-addr` HTTP listener return.
//! [`Registry::render_json`] emits the same data as a single JSON object
//! for offline diffing (`--metrics-out`).
//!
//! Metric names under the `rats_` prefix that appear in the README's
//! Observability section are stable; anything else may change between
//! versions.

#![forbid(unsafe_code)]

mod encode;
mod metric;
mod registry;

pub use metric::{Counter, Family, Gauge, Histogram, MAX_BOUNDS};
pub use registry::{global, Metric, Registry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Default histogram bounds for wall-time phases, in seconds. Spans from
/// tens of microseconds (a single mapping round on a small DAG) to a
/// minute (a full paper-suite shard job).
pub const TIME_BUCKETS: &[f64] = &[
    25e-6, 100e-6, 500e-6, 2.5e-3, 10e-3, 50e-3, 0.25, 1.0, 5.0, 15.0, 60.0,
];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns wall-time capture on or off process-wide. Counters and gauges
/// record regardless (they are plain atomic adds); spans and duration
/// observations check this flag so the disabled cost is one relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether wall-time capture is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An RAII phase span: created by [`span`], records the elapsed wall time
/// into its histogram when dropped. When telemetry is disabled at
/// creation the guard holds no start time and drop is a no-op.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct SpanGuard {
    hist: &'static Histogram,
    start: Option<Instant>,
}

/// Opens a phase span over `hist`. Nestable; each guard is independent.
#[inline]
pub fn span(hist: &'static Histogram) -> SpanGuard {
    SpanGuard {
        hist,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.observe(start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPAN_HIST: Histogram = Histogram::new("test_span_seconds", "span test", TIME_BUCKETS);

    #[test]
    fn span_records_only_when_enabled() {
        set_enabled(false);
        {
            let _s = span(&SPAN_HIST);
        }
        assert_eq!(SPAN_HIST.count(), 0);
        set_enabled(true);
        {
            let _s = span(&SPAN_HIST);
        }
        assert_eq!(SPAN_HIST.count(), 1);
        set_enabled(false);
    }
}
