//! `rats-server` — scheduling as a long-lived service.
//!
//! The batch pipeline (`rats-dispatch`) pays its fixed costs on every
//! invocation: regenerate the scenario population, recompute every
//! step-one allocation, spawn worker processes, tear everything down.
//! This crate keeps the population and allocation costs *resident*: a
//! `campaign serve` process holds a [`WarmState`] of content-keyed caches,
//! accepts campaign submissions over a line-delimited JSON TCP protocol
//! ([`protocol`]), runs each one through the batch shard executor
//! ([`run_shard`]) on scoped compute threads of its own, and streams each
//! [`RunRecord`](rats_experiments::RunRecord) back to the submitting
//! client as it lands. Concurrent campaigns run side by side.
//!
//! The durable substrate is unchanged: every submission materializes a
//! normal campaign root (spec.json, scenarios.cache, filesystem queue,
//! hash-chained journal), so served campaigns resume after crashes and
//! remain inspectable by the batch tooling — and the merged outcome is
//! **bit-identical** to batch `spec.run()`, pinned by tests.
//!
//! Module map:
//!
//! * [`warm`] — LRU-bounded population + allocation caches with
//!   hit/miss/eviction counters.
//! * [`protocol`] — the wire messages and line framing.
//! * [`server`] — the accept loop, the submit flow, status/cancel.
//! * [`client`] — the thin client the CLI and the tests drive.
//! * [`telemetry`] — server metrics plus [`telemetry::register_all`],
//!   the one-call registration of every instrumented layer.
//! * [`metrics_http`] — the minimal `GET /metrics` listener for
//!   Prometheus-compatible scrapers.
//!
//! [`run_shard`]: rats_experiments::shard::run_shard

#![forbid(unsafe_code)]

pub mod client;
pub mod metrics_http;
pub mod protocol;
pub mod server;
pub mod telemetry;
pub mod warm;

pub use client::{Client, SubmitEnd};
pub use protocol::{Request, Response, SpecFormat, DEFAULT_ADDR};
pub use server::{Server, ServerConfig};
pub use warm::{WarmState, WarmStats};
