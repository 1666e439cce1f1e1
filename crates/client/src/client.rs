//! The resilient scoring client: lazy connections, per-call deadlines,
//! jittered retries gated by a retry budget and a circuit breaker, and
//! a metric for every decision the resilience machinery makes.
//!
//! The retry loop only retries what the server says is transient: a
//! typed error with `"retryable": true` (or a transport failure) is
//! retried with backoff — honoring the server's `retry_after_ms` hint
//! when present — while a non-retryable refusal is surfaced
//! immediately. Transport failures feed the breaker; a typed error
//! counts as breaker *success* because the server demonstrably
//! answered.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use maleva_obs::metrics::{Counter, Registry};
use maleva_obs::trace::{self, Span};
use maleva_wire::{
    HealthReport, MetricsSnapshot, ReloadAck, ScoreResponse, SentinelReport, SloReport, Stats,
};
use serde::Serialize;
use std::sync::Arc;

use crate::backoff::BackoffPolicy;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::error::ClientError;
use crate::info::decode;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read/write socket timeout; a read that exceeds it drops the
    /// connection (the stream may be desynchronized mid-line).
    pub io_timeout: Duration,
    /// End-to-end deadline for one [`ScoreClient::score_counts`] call,
    /// including every retry and backoff sleep.
    pub call_deadline: Duration,
    /// Maximum attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker configuration.
    pub breaker: BreakerConfig,
    /// Retry-budget token cap: at most this many retries can be saved
    /// up across calls.
    pub retry_budget_cap: f64,
    /// Tokens deposited per fresh call; `deposit/1.0` bounds the
    /// steady-state retry ratio (0.2 ≈ at most 20% extra load).
    pub retry_budget_deposit: f64,
    /// Self-declared identity sent with every score request (the wire
    /// `client_id` field) for the server's sentinel; `None` lets the
    /// server fall back to the connection's peer address.
    pub client_id: Option<String>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7878".to_string(),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            call_deadline: Duration::from_secs(10),
            max_attempts: 4,
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            retry_budget_cap: 10.0,
            retry_budget_deposit: 0.5,
            client_id: None,
        }
    }
}

/// Finagle-style retry budget: fresh calls deposit a fraction of a
/// token, each retry withdraws a whole one, so retries are bounded to a
/// fraction of real traffic and cannot amplify an outage.
#[derive(Debug)]
pub(crate) struct RetryBudget {
    tokens: Mutex<f64>,
    cap: f64,
    deposit: f64,
}

impl RetryBudget {
    pub(crate) fn new(cap: f64, deposit: f64) -> Self {
        let cap = cap.max(0.0);
        RetryBudget {
            // Start full: a fresh client may retry immediately; only
            // *sustained* retrying is throttled to the deposit rate.
            tokens: Mutex::new(cap),
            cap,
            deposit: deposit.max(0.0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, f64> {
        self.tokens.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn on_call(&self) {
        let mut t = self.lock();
        *t = (*t + self.deposit).min(self.cap);
    }

    pub(crate) fn try_withdraw(&self) -> bool {
        let mut t = self.lock();
        if *t >= 1.0 {
            *t -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Counters for every resilience decision, in the client's own
/// [`Registry`].
#[derive(Debug)]
pub struct ClientMetrics {
    registry: Registry,
    /// `score_counts` calls started.
    pub requests: Arc<Counter>,
    /// Retry attempts sent (excludes each call's first attempt).
    pub retries: Arc<Counter>,
    /// Transport failures (connect/read/write, including timeouts).
    pub io_errors: Arc<Counter>,
    /// Unparseable response lines.
    pub protocol_errors: Arc<Counter>,
    /// Typed error bodies received from the server.
    pub server_errors: Arc<Counter>,
    /// Times the breaker tripped open.
    pub breaker_trips: Arc<Counter>,
    /// Calls rejected by the open breaker without touching the wire.
    pub breaker_rejections: Arc<Counter>,
    /// Calls abandoned because the retry budget was empty.
    pub budget_exhausted: Arc<Counter>,
    /// Calls abandoned at the client-side deadline.
    pub deadline_exceeded: Arc<Counter>,
    /// Fresh TCP connections established.
    pub connects: Arc<Counter>,
}

impl Default for ClientMetrics {
    fn default() -> Self {
        ClientMetrics::new()
    }
}

impl ClientMetrics {
    /// Zeroed metrics in a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter("client_requests_total", "Score calls started.");
        let retries = registry.counter("client_retries_total", "Retry attempts sent.");
        let io_errors = registry.counter("client_io_errors_total", "Transport failures.");
        let protocol_errors =
            registry.counter("client_protocol_errors_total", "Unparseable responses.");
        let server_errors =
            registry.counter("client_server_errors_total", "Typed server error bodies.");
        let breaker_trips =
            registry.counter("client_breaker_trips_total", "Circuit breaker trips.");
        let breaker_rejections = registry.counter(
            "client_breaker_rejections_total",
            "Calls rejected by the open breaker.",
        );
        let budget_exhausted = registry.counter(
            "client_budget_exhausted_total",
            "Calls abandoned on an empty retry budget.",
        );
        let deadline_exceeded = registry.counter(
            "client_deadline_exceeded_total",
            "Calls abandoned at the client deadline.",
        );
        let connects = registry.counter("client_connects_total", "TCP connections established.");
        ClientMetrics {
            registry,
            requests,
            retries,
            io_errors,
            protocol_errors,
            server_errors,
            breaker_trips,
            breaker_rejections,
            budget_exhausted,
            deadline_exceeded,
            connects,
        }
    }

    /// Prometheus text exposition of every client counter.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> ClientMetricsSnapshot {
        ClientMetricsSnapshot {
            requests: self.requests.get(),
            retries: self.retries.get(),
            io_errors: self.io_errors.get(),
            protocol_errors: self.protocol_errors.get(),
            server_errors: self.server_errors.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_rejections: self.breaker_rejections.get(),
            budget_exhausted: self.budget_exhausted.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            connects: self.connects.get(),
        }
    }
}

/// A point-in-time copy of [`ClientMetrics`] (serializable for chaos
/// artifacts).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ClientMetricsSnapshot {
    /// Score calls started.
    pub requests: u64,
    /// Retry attempts sent.
    pub retries: u64,
    /// Transport failures.
    pub io_errors: u64,
    /// Unparseable responses.
    pub protocol_errors: u64,
    /// Typed server error bodies.
    pub server_errors: u64,
    /// Circuit breaker trips.
    pub breaker_trips: u64,
    /// Calls rejected by the open breaker.
    pub breaker_rejections: u64,
    /// Calls abandoned on an empty retry budget.
    pub budget_exhausted: u64,
    /// Calls abandoned at the client deadline.
    pub deadline_exceeded: u64,
    /// TCP connections established.
    pub connects: u64,
}

/// A successful score, with how hard the client had to work for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreOutcome {
    /// Malware confidence in `[0, 1]`.
    pub score: f64,
    /// `"malware"` or `"clean"`.
    pub verdict: String,
    /// Whether the server answered from its cache.
    pub cached: bool,
    /// Server-side batch size that produced the score (0 for hits).
    pub batch_size: u64,
    /// Generation of the model that produced the score (0 = the
    /// server's boot model; each successful reload adds one).
    pub generation: u64,
    /// Attempts this call needed (1 = first try succeeded).
    pub attempts: u32,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The resilient scoring client; see the module docs for the retry
/// policy.
pub struct ScoreClient {
    config: ClientConfig,
    conn: Option<Conn>,
    breaker: CircuitBreaker,
    budget: RetryBudget,
    metrics: ClientMetrics,
    epoch: Instant,
    /// The request line buffer, reused across calls: each call encodes
    /// its counts once, and each attempt appends its own trace suffix.
    request: String,
}

impl ScoreClient {
    /// A disconnected client (connections are opened lazily per call).
    pub fn new(config: ClientConfig) -> Self {
        let breaker = CircuitBreaker::new(config.breaker.clone());
        let budget = RetryBudget::new(config.retry_budget_cap, config.retry_budget_deposit);
        ScoreClient {
            config,
            conn: None,
            breaker,
            budget,
            metrics: ClientMetrics::new(),
            epoch: Instant::now(),
            request: String::new(),
        }
    }

    /// A client for `addr` with default resilience settings.
    pub fn connect_to(addr: &str) -> Self {
        ScoreClient::new(ClientConfig {
            addr: addr.to_string(),
            ..ClientConfig::default()
        })
    }

    /// The client's resilience metrics.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Scores one sample (raw API-call counts), retrying transient
    /// failures within the configured deadline, attempt count, retry
    /// budget, and circuit breaker.
    ///
    /// Every call mints a wire `trace_id` (stable across its retries)
    /// and every attempt a fresh `span_id`; both ride on the request
    /// line so the server can tag its spans with them, making one
    /// logical request followable client → server in a single trace.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for a non-retryable refusal;
    /// [`ClientError::DeadlineExceeded`], [`ClientError::RetriesExhausted`],
    /// or [`ClientError::BudgetExhausted`] when the call gives up.
    pub fn score_counts(&mut self, counts: &[u32]) -> Result<ScoreOutcome, ClientError> {
        let trace_id = trace::mint_id();
        let mut span = Span::enter("client.request");
        span.record("trace_id", trace_id);
        let result = self.score_counts_traced(counts, trace_id);
        match &result {
            Ok(outcome) => {
                span.record("attempts", outcome.attempts as u64);
                span.record("ok", true);
            }
            Err(_) => span.record("ok", false),
        }
        result
    }

    fn score_counts_traced(
        &mut self,
        counts: &[u32],
        trace_id: u64,
    ) -> Result<ScoreOutcome, ClientError> {
        let start = Instant::now();
        self.metrics.requests.inc();
        self.budget.on_call();

        let mut line = std::mem::take(&mut self.request);
        line.clear();
        push_score_request(&mut line, counts, self.config.client_id.as_deref());
        // Every attempt's line is the call's encoding up to its closing
        // brace, then that attempt's trace suffix.
        let base = line.len() - 1;
        let result = self.score_attempts(&mut line, base, trace_id, start);
        self.request = line;
        result
    }

    fn score_attempts(
        &mut self,
        line: &mut String,
        base: usize,
        trace_id: u64,
        start: Instant,
    ) -> Result<ScoreOutcome, ClientError> {
        let mut attempts = 0u32;
        let mut last_err;
        loop {
            // Breaker gate: a rejection costs no attempt and no budget,
            // only (deadline-bounded) waiting.
            if let Err(retry_in_ms) = self.breaker.try_acquire(self.now_ms()) {
                self.metrics.breaker_rejections.inc();
                let wait = Duration::from_millis(retry_in_ms);
                let remaining = self.config.call_deadline.saturating_sub(start.elapsed());
                if wait >= remaining {
                    // Waiting out the breaker would cross the deadline:
                    // surface the breaker, not a generic timeout.
                    return Err(ClientError::CircuitOpen { retry_in_ms });
                }
                std::thread::sleep(wait);
                continue;
            }

            attempts += 1;
            // Fresh span id per attempt: retries of one logical request
            // share the trace id but are distinguishable on the wire.
            let span_id = trace::mint_id();
            line.truncate(base);
            push_trace_suffix(line, trace_id, span_id);
            line.push('\n');
            let mut attempt_span = Span::enter("client.attempt");
            attempt_span.record("trace_id", trace_id);
            attempt_span.record("span_id", span_id);
            attempt_span.record("attempt", attempts as u64);
            let outcome = self.attempt(line);
            attempt_span.record("ok", outcome.is_ok());
            drop(attempt_span);
            match outcome {
                Ok(reply) => {
                    self.breaker.on_success();
                    return Ok(ScoreOutcome {
                        score: reply.score,
                        verdict: reply.verdict,
                        cached: reply.cached,
                        batch_size: reply.batch_size,
                        generation: reply.generation,
                        attempts,
                    });
                }
                Err(err @ ClientError::Server { .. }) => {
                    // The server answered: that is breaker success even
                    // though the call failed.
                    self.breaker.on_success();
                    self.metrics.server_errors.inc();
                    if !err.is_retryable() {
                        return Err(err);
                    }
                    last_err = err;
                }
                Err(err) => {
                    if self.breaker.on_failure(self.now_ms()) {
                        self.metrics.breaker_trips.inc();
                    }
                    match &err {
                        ClientError::Protocol { .. } => self.metrics.protocol_errors.inc(),
                        _ => self.metrics.io_errors.inc(),
                    }
                    last_err = err;
                }
            }

            if attempts >= self.config.max_attempts.max(1) {
                return Err(ClientError::RetriesExhausted {
                    attempts,
                    last: Box::new(last_err),
                });
            }
            if !self.budget.try_withdraw() {
                self.metrics.budget_exhausted.inc();
                return Err(ClientError::BudgetExhausted {
                    last: Box::new(last_err),
                });
            }
            self.metrics.retries.inc();

            // Back off before the retry, honoring the server's hint
            // when it is larger than our own schedule.
            let mut wait = self.config.backoff.delay(attempts - 1);
            if let ClientError::Server {
                retry_after_ms: Some(ms),
                ..
            } = &last_err
            {
                wait = wait.max(Duration::from_millis(*ms));
            }
            self.sleep_within_deadline(wait, start)?;
        }
    }

    /// Sends one `{"cmd": ...}` command (e.g. `stats`, `health`,
    /// `shutdown`) and returns the raw single-line response. No retries
    /// — commands are diagnostics, not scoring traffic. Not for
    /// `metrics`, whose response spans multiple lines.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure.
    pub fn command(&mut self, cmd: &str) -> Result<String, ClientError> {
        self.roundtrip(&format!("{{\"cmd\":\"{cmd}\"}}\n"))
    }

    /// Sends `{"cmd":"reload","path":...}` and parses the typed
    /// acknowledgement. The path is resolved by the *server*, so it
    /// must name a pipeline/network export or checkpoint directory on
    /// the server's filesystem. No retries — a reload is an operator
    /// action, not scoring traffic.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure,
    /// [`ClientError::Protocol`] on an unparseable body, or
    /// [`ClientError::Server`] (kind `reload_failed`) when the server
    /// rejected the artifact and kept its current model.
    pub fn reload(&mut self, path: &str) -> Result<ReloadAck, ClientError> {
        let mut line = encode_reload_request(path);
        line.push('\n');
        decode(&self.roundtrip(&line)?)
    }

    /// Sends `{"cmd":"health"}` and parses the typed report.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure,
    /// [`ClientError::Protocol`] on an unparseable body, or
    /// [`ClientError::Server`] if the server answered with a typed
    /// error.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        decode(&self.command("health")?)
    }

    /// Sends `{"cmd":"stats"}` and returns the server-wide snapshot
    /// (the per-shard snapshots are in the full [`Stats`] body, which
    /// [`crate::info::decode`] reads from a raw `command("stats")`).
    ///
    /// # Errors
    ///
    /// As [`ScoreClient::health`].
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        Ok(decode::<Stats>(&self.command("stats")?)?.merged)
    }

    /// Sends `{"cmd":"sentinel"}` and parses the typed report.
    ///
    /// # Errors
    ///
    /// As [`ScoreClient::health`].
    pub fn sentinel(&mut self) -> Result<SentinelReport, ClientError> {
        decode(&self.command("sentinel")?)
    }

    /// Sends `{"cmd":"slo"}` and parses the typed burn-rate alarm
    /// report.
    ///
    /// # Errors
    ///
    /// As [`ScoreClient::health`].
    pub fn slo(&mut self) -> Result<SloReport, ClientError> {
        decode(&self.command("slo")?)
    }

    /// Sleeps `wait`, unless that would cross the call deadline — then
    /// fails the call with [`ClientError::DeadlineExceeded`].
    fn sleep_within_deadline(&self, wait: Duration, start: Instant) -> Result<(), ClientError> {
        let remaining = self.config.call_deadline.saturating_sub(start.elapsed());
        if wait >= remaining {
            self.metrics.deadline_exceeded.inc();
            return Err(ClientError::DeadlineExceeded {
                deadline_ms: self.config.call_deadline.as_millis() as u64,
            });
        }
        std::thread::sleep(wait);
        Ok(())
    }

    /// One wire attempt: write the request line (newline included),
    /// read one response line, decode it. Any transport or decode
    /// failure drops the connection (the stream may be desynchronized);
    /// a typed server error keeps it.
    fn attempt(&mut self, line: &str) -> Result<ScoreResponse, ClientError> {
        let reply = decode(&self.roundtrip(line)?);
        if let Err(ClientError::Protocol { .. }) = reply {
            self.conn = None;
        }
        reply
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, ClientError> {
        match self.try_roundtrip(line) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.conn = None;
                Err(ClientError::Io {
                    detail: e.to_string(),
                })
            }
        }
    }

    /// Sends `line`, which ends in its newline, and reads one reply
    /// line.
    fn try_roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        if self.conn.is_none() {
            self.conn = Some(self.open_conn()?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        send_line(&mut conn.writer, line)?;
        let mut resp = String::new();
        let n = conn.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        resp.truncate(resp.trim_end().len());
        Ok(resp)
    }

    fn open_conn(&self) -> std::io::Result<Conn> {
        let addr = resolve(&self.config.addr)?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        self.metrics.connects.inc();
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

/// Writes one request line, newline included, in a single `write`:
/// with `TCP_NODELAY` set, a line and its newline written apart go out
/// as two segments, and the server may wake for the first only to wait
/// for the second.
fn send_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    debug_assert!(line.ends_with('\n'), "unterminated request line");
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("`{addr}` resolved to no address"),
        )
    })
}

/// Encodes a score request line for raw API-call counts.
pub fn encode_score_request(counts: &[u32]) -> String {
    let mut line = String::new();
    push_score_request(&mut line, counts, None);
    line
}

/// Encodes a score request line carrying an explicit `client_id`.
pub fn encode_score_request_as(counts: &[u32], client_id: &str) -> String {
    let mut line = String::new();
    push_score_request(&mut line, counts, Some(client_id));
    line
}

/// Appends the score request for `counts` (and `client_id`, when
/// given) to `line`.
fn push_score_request(line: &mut String, counts: &[u32], client_id: Option<&str>) {
    // Most counts are one to three digits; the trace suffix adds ~60.
    line.reserve(96 + counts.len() * 4);
    line.push_str("{\"features\":[");
    for (i, &c) in counts.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_decimal(line, c.into());
    }
    line.push(']');
    if let Some(id) = client_id {
        line.push_str(",\"client_id\":\"");
        push_json_escaped(line, id);
        line.push('"');
    }
    line.push('}');
}

/// Appends the decimal digits of `value`.
fn push_decimal(line: &mut String, mut value: u64) {
    if value < 10 {
        // Most counts: a sample calls most APIs never or a few times.
        line.push(char::from(b'0' + value as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    line.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Encodes a `{"cmd":"reload"}` request for a server-side model path.
pub fn encode_reload_request(path: &str) -> String {
    let mut line = String::with_capacity(28 + path.len());
    line.push_str("{\"cmd\":\"reload\",\"path\":\"");
    push_json_escaped(&mut line, path);
    line.push_str("\"}");
    line
}

fn push_json_escaped(line: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            c if (c as u32) < 0x20 => line.push_str(&format!("\\u{:04x}", c as u32)),
            c => line.push(c),
        }
    }
}

/// Appends the wire trace context (`trace_id`/`span_id`) to an
/// already-encoded score request line.
///
/// The server tags its request span and batch events with these ids,
/// making the request followable client → server in one trace. Both
/// ids must be nonzero; [`trace::mint_id`] guarantees that.
pub fn encode_score_request_traced(encoded: &str, trace_id: u64, span_id: u64) -> String {
    debug_assert!(encoded.ends_with('}'), "not an encoded request: {encoded}");
    let mut line = String::with_capacity(encoded.len() + 48);
    line.push_str(&encoded[..encoded.len() - 1]);
    push_trace_suffix(&mut line, trace_id, span_id);
    line
}

/// Appends `,"trace_id":T,"span_id":S}` to a request line whose
/// closing brace was cut off.
fn push_trace_suffix(line: &mut String, trace_id: u64, span_id: u64) {
    line.push_str(",\"trace_id\":");
    push_decimal(line, trace_id);
    line.push_str(",\"span_id\":");
    push_decimal(line, span_id);
    line.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_score_requests_compactly() {
        assert_eq!(encode_score_request(&[]), "{\"features\":[]}");
        assert_eq!(encode_score_request(&[1, 0, 42]), "{\"features\":[1,0,42]}");
    }

    #[test]
    fn encodes_client_id_with_escaping() {
        assert_eq!(
            encode_score_request_as(&[1, 2], "tenant-a"),
            "{\"features\":[1,2],\"client_id\":\"tenant-a\"}"
        );
        assert_eq!(
            encode_score_request_as(&[], "a\"b\\c"),
            "{\"features\":[],\"client_id\":\"a\\\"b\\\\c\"}"
        );
        assert_eq!(
            encode_score_request_as(&[], "a\nb"),
            "{\"features\":[],\"client_id\":\"a\\u000ab\"}"
        );
    }

    #[test]
    fn encodes_reload_requests_with_escaping() {
        assert_eq!(
            encode_reload_request("model.json"),
            "{\"cmd\":\"reload\",\"path\":\"model.json\"}"
        );
        assert_eq!(
            encode_reload_request("dir\\\"x"),
            "{\"cmd\":\"reload\",\"path\":\"dir\\\\\\\"x\"}"
        );
    }

    #[test]
    fn appends_trace_context_to_encoded_requests() {
        assert_eq!(
            encode_score_request_traced(&encode_score_request(&[1, 2]), 7, 9),
            "{\"features\":[1,2],\"trace_id\":7,\"span_id\":9}"
        );
        assert_eq!(
            encode_score_request_traced(&encode_score_request_as(&[3], "tenant-a"), 1, 2),
            "{\"features\":[3],\"client_id\":\"tenant-a\",\"trace_id\":1,\"span_id\":2}"
        );
    }

    #[test]
    fn decimal_writer_matches_to_string() {
        for v in [0, 7, 9, 10, 99, 100, 4_294_967_295, 4_294_967_296, u64::MAX] {
            let mut line = String::from("x");
            push_decimal(&mut line, v);
            assert_eq!(line, format!("x{v}"));
        }
    }

    #[test]
    fn each_attempt_line_is_the_traced_encoding_plus_a_newline() {
        // The reused buffer a call builds its attempts in must put the
        // same bytes on the wire as the public encoders.
        let counts = [0, 1, 12, 345, u32::MAX];
        for client_id in [None, Some("tenant \"a\"\n")] {
            let mut line = String::new();
            push_score_request(&mut line, &counts, client_id);
            let base = line.len() - 1;
            let encoded = match client_id {
                Some(id) => encode_score_request_as(&counts, id),
                None => encode_score_request(&counts),
            };
            for (trace_id, span_id) in [(1, 2), (u64::MAX, 10), (99, u64::MAX)] {
                line.truncate(base);
                push_trace_suffix(&mut line, trace_id, span_id);
                line.push('\n');
                let want = encode_score_request_traced(&encoded, trace_id, span_id);
                assert_eq!(line, format!("{want}\n"));
            }
        }
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_line_goes_out_in_one_write() {
        let line = format!(
            "{}\n",
            encode_score_request_traced(&encode_score_request(&[3; 491]), 7, 9)
        );
        let mut writer = CountingWriter::default();
        send_line(&mut writer, &line).unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(writer.bytes, line.as_bytes());
        send_line(&mut writer, "{\"cmd\":\"stats\"}\n").unwrap();
        assert_eq!(writer.writes, 2);
    }

    #[test]
    fn parses_score_responses() {
        let line = "{\"score\":0.97,\"verdict\":\"malware\",\"cached\":false,\"batch_size\":12}";
        let reply: ScoreResponse = decode(line).unwrap();
        assert!((reply.score - 0.97).abs() < 1e-12);
        assert_eq!(reply.verdict, "malware");
        assert!(!reply.cached);
        assert_eq!(reply.batch_size, 12);
        assert_eq!(reply.generation, 0);
    }

    #[test]
    fn parses_error_responses_with_and_without_hint() {
        let line = "{\"error\":{\"kind\":\"overloaded\",\"detail\":\"q\",\
                    \"retryable\":true,\"retry_after_ms\":12}}";
        match decode::<ScoreResponse>(line).unwrap_err() {
            ClientError::Server {
                kind,
                retryable,
                retry_after_ms,
                ..
            } => {
                assert_eq!(kind, "overloaded");
                assert!(retryable);
                assert_eq!(retry_after_ms, Some(12));
            }
            other => panic!("not a server error: {other:?}"),
        }
        let line =
            "{\"error\":{\"kind\":\"wrong_dimension\",\"detail\":\"d\",\"retryable\":false}}";
        match decode::<ScoreResponse>(line).unwrap_err() {
            ClientError::Server {
                kind,
                retryable,
                retry_after_ms,
                ..
            } => {
                assert_eq!(kind, "wrong_dimension");
                assert!(!retryable);
                assert_eq!(retry_after_ms, None);
            }
            other => panic!("not a server error: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_responses() {
        for line in ["", "not json", "[1,2]", "{\"weird\":1}"] {
            assert!(
                matches!(
                    decode::<ScoreResponse>(line),
                    Err(ClientError::Protocol { .. })
                ),
                "{line:?}"
            );
        }
    }

    #[test]
    fn retry_budget_bounds_retries() {
        let b = RetryBudget::new(2.0, 0.5);
        assert!(b.try_withdraw()); // starts full (2 tokens)
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw()); // drained: sustained retries throttled
        b.on_call();
        b.on_call(); // 2 * 0.5 = 1.0 token earned back
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
        for _ in 0..100 {
            b.on_call(); // deposits cap at 2.0, not 50
        }
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
    }
}
