//! Observability layer for the maleva workspace: structured tracing,
//! metrics registries, and run-provenance manifests.
//!
//! The crate is deliberately **zero-dependency** (std only) so every
//! other crate — including the innermost hot loops in `maleva-nn` and
//! `maleva-attack` — can depend on it without widening the build.
//!
//! Five modules:
//!
//! * [`trace`] — a span-based tracer. `Span::enter("jsma.craft")`
//!   returns an RAII guard; enters, exits, and point events are written
//!   as newline-delimited JSON to a pluggable sink (file, stderr, an
//!   in-memory buffer for tests, or a null sink). When tracing is
//!   disabled — the default — every call site costs one relaxed atomic
//!   load, keeping instrumented paths bit-identical and essentially
//!   free.
//! * [`metrics`] — counters, gauges, and power-of-two latency
//!   histograms behind a [`metrics::Registry`], with a Prometheus
//!   text-exposition renderer. `maleva-serve` builds its per-server
//!   stats on these primitives; there is no process-wide registry
//!   (training and attack batches report through their spans).
//! * [`manifest`] — run-provenance manifests (seed, scale, config
//!   hash, crate versions, per-phase wall-clock) written as
//!   `manifest.json` next to `repro`/`train` outputs.
//! * [`slo`] — declarative SLO specs (latency thresholds over
//!   histograms, event ratios over counters) evaluated as multi-window
//!   burn-rate alarms against [`metrics::Registry`] snapshots, driven
//!   entirely by injected timestamps.
//! * [`report`] — aggregates a `trace.jsonl` into per-span and
//!   per-stage p50/p99 breakdowns with slowest-trace exemplars (the
//!   engine behind `maleva obs-report`).
//!
//! # Example
//!
//! ```
//! use maleva_obs::trace::{self, Sink, Span};
//!
//! let captured = trace::install_memory_sink();
//! {
//!     let mut span = Span::enter("example.work");
//!     span.record("rows", 128u64);
//!     trace::event("example.progress", &[("done", 64u64.into())]);
//! }
//! trace::install(Sink::Disabled).unwrap();
//! assert_eq!(captured.lines().len(), 3); // enter, event, exit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod manifest;
pub mod metrics;
pub mod report;
pub mod slo;
pub mod trace;

pub use manifest::{Manifest, ManifestBuilder};
pub use metrics::{Counter, Gauge, Histogram, MetricReading, Registry};
pub use slo::{BurnWindow, Objective, SloEngine, SloSpec, SloStatus};
pub use trace::{Sink, Span};
