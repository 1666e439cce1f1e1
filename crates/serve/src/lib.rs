//! `maleva-serve` — a batched TCP scoring service for the maleva
//! detector.
//!
//! The paper's detector is an operational product: a fleet of clients
//! submits PE samples and gets verdicts back. This crate is that
//! serving hot path for the reproduction — a multi-threaded
//! `std::net` server speaking newline-delimited JSON
//! (see [`protocol`]) with the structure production scorers use:
//!
//! * **sharded event loops** ([`reactor`]) — `ServeConfig::shards`
//!   independent poll-based event loops, with connections pinned to a
//!   shard by accept round-robin; each shard owns its own batch queue,
//!   LRU cache, sentinel window, and metrics, merged on read for
//!   `{"cmd": "stats"}` and the Prometheus exposition so the hot path
//!   never contends across shards;
//! * **micro-batching** ([`batch`]) — requests queue into a bounded
//!   channel; the scorer thread drains up to `max_batch` rows and runs
//!   one batched forward pass, with batched scores **bit-identical**
//!   to per-row scoring (batching is a throughput optimization, never
//!   a semantic change);
//! * **atomic hot reload** ([`reload`]) — `{"cmd": "reload"}` (or
//!   `maleva reload`) loads new weights from a pipeline/network export
//!   or a checkpoint directory, validates them, and `Arc`-swaps the
//!   model at a batch boundary: in-flight work drains against the old
//!   generation, later batches use the new one, and every response is
//!   attributable to exactly one generation;
//! * **LRU score cache** ([`cache`]) — keyed by the quantized feature
//!   vector, answering repeats without touching the network;
//! * **backpressure** — a queue at its `shed_queue_depth` bound sheds
//!   new misses with a typed [`ServeError::Overloaded`] response and a
//!   `retry_after_ms` hint instead of blocking, and shutdown drains
//!   in-flight work before stopping;
//! * **resilience** ([`fault`]) — per-request deadlines
//!   (`deadline_exceeded`), a panic-isolated scorer loop
//!   ([`batch::score_rows_isolated`]), a `{"cmd": "health"}` endpoint,
//!   and a deterministic seedable fault injector (`MALEVA_FAULTS`)
//!   driving the chaos soak tests;
//! * **metrics** ([`metrics`]) — lock-free counters and a fixed-bucket
//!   latency histogram, exposed via `{"cmd": "stats"}`;
//! * **extraction sentinel** ([`sentinel`]) — a per-client stateful
//!   query-pattern detector (near-duplicate probing and
//!   decision-boundary oscillation over the cache-key quantization)
//!   that deterministically throttles or verdict-poisons suspected
//!   model-extraction clients, inspectable via `{"cmd": "sentinel"}`;
//! * **distributed tracing** — score requests may carry a wire trace
//!   context (`trace_id`/`span_id`); the server tags its request spans
//!   and batch events with it and decomposes every request into six
//!   latency stages (`queue_wait`, `batch_wait`, `cache_lookup`,
//!   `sentinel_check`, `inference`, `serialize`), recorded both as
//!   span fields and as `serve_stage_*_us` histograms;
//! * **SLO burn-rate alarms** ([`slo`]) — declarative objectives over
//!   the live metrics (p99 latency, error rate, sentinel false-flag
//!   rate) evaluated as multi-window burn-rate alarms via
//!   `{"cmd": "slo"}`, mirrored into `slo_alarm_*` gauges and
//!   `slo.alarm` trace events.
//!
//! # Quickstart
//!
//! ```no_run
//! use maleva_core::{ExperimentContext, ExperimentScale};
//! use maleva_serve::{spawn, ServeConfig};
//!
//! let ctx = ExperimentContext::build(ExperimentScale::tiny(), 42).unwrap();
//! let handle = spawn(ctx.detector, ServeConfig::default()).unwrap();
//! println!("scoring on {}", handle.addr());
//! handle.join(); // until a client sends {"cmd": "shutdown"}
//! ```

// The crate is unsafe-free except for the `poll(2)` FFI confined to
// `reactor::sys`, which opts back in locally with a SAFETY argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
mod error;
pub mod fault;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod reload;
pub mod sentinel;
mod server;
mod shard;
pub mod slo;

pub use batch::{score_rows, score_rows_isolated, score_rows_sequential, BatchOutcome};
pub use cache::LruCache;
pub use error::ServeError;
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultSite};
pub use metrics::{Metrics, MetricsSnapshot, StageTimes};
pub use protocol::{parse_request, HealthReport, Request, ScoreResponse, TraceContext};
pub use reload::{load_model, ModelSlot, ModelVersion};
pub use sentinel::{Sentinel, SentinelAction, SentinelConfig, SentinelDecision, SentinelReport};
pub use server::{spawn, ServeConfig, ServerHandle};
pub use slo::{default_serve_slos, SloAlarmReport, SloReport, SloRuntime, SloWindowReport};
