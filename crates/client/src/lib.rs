//! `maleva-client` — a resilient TCP client for the `maleva-serve`
//! scoring protocol.
//!
//! The server can shed load (`overloaded` + `retry_after_ms`), time out
//! requests (`deadline_exceeded`), drop connections, and answer slowly;
//! this crate is the client half of that contract:
//!
//! * **deadlines** — every [`ScoreClient::score_counts`] call has an
//!   end-to-end budget covering retries and backoff sleeps;
//! * **retries with a budget** ([`backoff`]) — jittered exponential
//!   backoff (deterministic per seed), honoring the server's
//!   `retry_after_ms` hint, gated by a Finagle-style token budget so
//!   retries cannot amplify an outage;
//! * **circuit breaker** ([`breaker`]) — trips after consecutive
//!   transport failures, rejects cheaply while open, and recovers
//!   through a bounded half-open probe window that can never deadlock;
//! * **observability** — a counter for every retry, trip, rejection,
//!   and exhausted budget, in the client's own `maleva-obs` registry;
//!   every call mints a wire trace context (`trace_id` stable across
//!   retries, a fresh `span_id` per attempt) carried on the request
//!   line and mirrored in `client.request` / `client.attempt` spans,
//!   so one logical request is followable client → server in a single
//!   trace;
//! * **typed replies** ([`info`]) — every reply decodes into the
//!   `maleva-wire` body the server encoded it from (re-exported here:
//!   [`HealthReport`], [`Stats`], [`SentinelReport`], ...), so a
//!   missing or mistyped field is a [`ClientError::Protocol`], never a
//!   silent zero.
//!
//! The crate deliberately does not depend on `maleva-serve`: it shares
//! only the `maleva-wire` schema with it, and encodes its own
//! (byte-pinned) request lines.
//!
//! # Quickstart
//!
//! ```no_run
//! use maleva_client::ScoreClient;
//!
//! let mut client = ScoreClient::connect_to("127.0.0.1:7878");
//! let outcome = client.score_counts(&[0, 3, 12]).unwrap();
//! println!("{} ({:.3}) in {} attempt(s)", outcome.verdict, outcome.score, outcome.attempts);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
mod client;
mod error;
pub mod info;

pub use backoff::BackoffPolicy;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{
    encode_reload_request, encode_score_request, encode_score_request_as,
    encode_score_request_traced, ClientConfig, ClientMetrics, ClientMetricsSnapshot, ScoreClient,
    ScoreOutcome,
};
pub use error::ClientError;
pub use maleva_wire::{
    HealthReport, MetricsSnapshot, ReloadAck, SentinelClientReport, SentinelReport, SloAlarmReport,
    SloReport, SloWindowReport, Stats,
};
