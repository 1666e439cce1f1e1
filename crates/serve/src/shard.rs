//! Per-shard event loop and scorer.
//!
//! Each shard is a single thread multiplexing all of its connections
//! over the poll-based readiness layer in [`crate::reactor`]. The loop
//! per iteration: adopt newly pinned connections, poll for readability
//! (timeout capped by the nearest pending request deadline), drain
//! non-blocking reads into per-connection buffers, settle completed or
//! expired in-flight requests, then process buffered lines. A
//! connection has at most one score request in flight; while it waits
//! the shard simply stops polling that socket, so pipelined bytes sit
//! in the kernel buffer under normal TCP backpressure.
//!
//! Everything a request touches on the hot path — the scoring queue,
//! the LRU cache, the sentinel window, the metrics — belongs to the
//! shard, so shards never contend with each other. The only shared
//! state is the swappable [`crate::reload::ModelSlot`] (an atomic
//! generation read per cache lookup, one `Arc` clone per batch) and
//! the fault injector.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use maleva_obs::metrics::Snapshot;
use maleva_obs::trace::{self, Span};
use maleva_wire as wire;

use crate::batch::{collect_batch, score_rows_isolated, ScoreJob, ScoredReply};
use crate::cache::{quantize_shared, LruCache};
use crate::error::ServeError;
use crate::fault::FaultSite;
use crate::metrics::{Metrics, StageTimes};
use crate::protocol::{self, Request, ScoreResponse, TraceContext};
use crate::reactor::{self, Event, Interest, Poller, Waker};
use crate::sentinel::{poison_score, Sentinel, SentinelDecision};
use crate::server::{self, suggested_retry_after_ms, Shared, READ_TICK};

/// A shard's score cache: quantized key → (score, model generation).
type ScoreCache = LruCache<Arc<[i64]>, (f64, u64)>;

/// Everything one shard owns: its metrics, cache, sentinel window, and
/// the handles other threads use to reach it (connection hand-off plus
/// waker).
pub(crate) struct ShardState {
    /// Stable shard index (the acceptor's round-robin position).
    pub(crate) index: usize,
    /// This shard's private metrics registry; captured and merged by
    /// [`crate::server::read`].
    pub(crate) metrics: Metrics,
    /// Score cache, keyed by quantized features; values carry the model
    /// generation that produced them so a reload lazily invalidates
    /// stale entries on lookup. A key is one allocation, shared with the
    /// request's job and the sentinel's distinct-key index.
    pub(crate) cache: Mutex<ScoreCache>,
    /// Per-client extraction-sentinel window for connections pinned to
    /// this shard.
    pub(crate) sentinel: Mutex<Sentinel>,
    /// Wakes the shard's poll loop (new connection, finished batch,
    /// shutdown).
    pub(crate) waker: Waker,
    /// Where the acceptor hands over accepted sockets.
    pub(crate) conn_tx: mpsc::Sender<TcpStream>,
}

impl ShardState {
    /// One capture of this shard's registry, with the cache-entries
    /// and tracked-clients gauges set first.
    pub(crate) fn capture(&self) -> Snapshot {
        let entries = self.cache.lock().map(|c| c.len()).unwrap_or(0);
        self.metrics
            .cache_entries
            .set(entries.min(i64::MAX as usize) as i64);
        if let Ok(sentinel) = self.sentinel.lock() {
            self.metrics
                .sentinel_tracked_clients
                .set(sentinel.tracked_clients().min(i64::MAX as usize) as i64);
        }
        self.metrics.registry().snapshot()
    }
}

/// One connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// The sentinel's fallback client identity when requests carry no
    /// explicit `client_id`.
    peer: String,
    /// Bytes read but not yet consumed as lines.
    inbuf: Vec<u8>,
    /// The in-flight score request, if any (at most one per
    /// connection, matching the request/response protocol).
    pending: Option<Pending>,
    /// The peer closed its write side; remaining buffered lines are
    /// still processed (a final unterminated line counts).
    eof: bool,
    /// Close and drop at the end of the iteration.
    dead: bool,
}

/// A score request waiting on its shard scorer.
struct Pending {
    rx: mpsc::Receiver<Result<ScoredReply, ServeError>>,
    span: Span,
    stages: StageTimes,
    /// Request start, for end-to-end latency.
    start: Instant,
    /// When the job was pushed onto the queue (`queue_wait` epoch).
    enqueued: Instant,
    /// Absolute deadline; past it the request resolves to a typed
    /// `deadline_exceeded` error and the reply channel is abandoned.
    deadline: Instant,
    /// Cache key to record in the sentinel on completion (`None` when
    /// the sentinel is disabled).
    sentinel_key: Option<Arc<[i64]>>,
    /// Whether the sentinel flagged this client for verdict poisoning.
    poison: bool,
    client_id: String,
}

/// How a settled [`Pending`] resolved.
enum Completion {
    Reply(Result<ScoredReply, ServeError>),
    Deadline,
    ScorerGone,
}

/// The resolved answer to one score request, carried from the staged
/// scoring logic to the single serialization exit ([`finish_score`]).
enum ScoreOutcome {
    /// A score to send; `faulted` routes the write through
    /// [`write_line_faulted`] (the historical behavior: only cache
    /// hits bypass the write-fault sites).
    Reply { resp: ScoreResponse, faulted: bool },
    /// A typed error to send (always via the faulted writer).
    Error(ServeError),
}

/// A score request either resolved synchronously (sentinel throttle,
/// cache hit, shed, enqueue failure) or went in flight. The request
/// span rides along either way.
enum ScoreStep {
    Done(ScoreOutcome, Span, StageTimes),
    Pending(Pending),
}

/// How long a blocked write may wait for the socket to drain before
/// the connection is declared dead.
const WRITE_STALL_CAP: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

pub(crate) fn shard_loop(
    shared: &Arc<Shared>,
    shard: &ShardState,
    mut poller: Poller,
    conn_rx: &Receiver<TcpStream>,
    job_tx: SyncSender<ScoreJob>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    loop {
        // Adopt newly pinned connections (dropped mid-drain: the
        // acceptor may race the shutdown flag by one hand-off).
        let mut shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        while let Ok(stream) = conn_rx.try_recv() {
            if shutting_down {
                continue;
            }
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "unknown-peer".to_string());
            conns.push(Conn {
                stream,
                peer,
                inbuf: Vec::new(),
                pending: None,
                eof: false,
                dead: false,
            });
        }

        // Poll connections that can accept a new request; in-flight and
        // closed ones are skipped, leaving backpressure to TCP.
        {
            let sources: Vec<(usize, &TcpStream, Interest)> = conns
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.dead && !c.eof && c.pending.is_none())
                .map(|(i, c)| (i, &c.stream, Interest::Readable))
                .collect();
            let timeout = poll_timeout(&conns);
            let _ = poller.poll(&sources, Some(timeout), &mut events);
        }
        for event in &events {
            if event.readable {
                read_ready(&mut conns[event.token]);
            }
        }

        // Settle in-flight requests (batch finished, scorer died, or
        // deadline passed), then process whatever lines are buffered.
        for conn in conns.iter_mut() {
            if conn.pending.is_some() {
                settle_pending(shared, shard, conn);
            }
        }
        for conn in conns.iter_mut() {
            process_lines(shared, shard, &job_tx, conn);
        }

        // Drain: keep connections with in-flight work until their
        // replies land; close everything idle.
        shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        if shutting_down {
            for conn in conns.iter_mut() {
                if conn.pending.is_none() {
                    conn.dead = true;
                }
            }
        }
        conns.retain(|c| !(c.dead || c.eof && c.pending.is_none() && c.inbuf.is_empty()));
        if shutting_down && conns.is_empty() {
            while conn_rx.try_recv().is_ok() {}
            // Dropping `job_tx` (by returning) disconnects the queue so
            // the scorer drains what is left and exits.
            drop(job_tx);
            return;
        }
    }
}

/// The poll timeout: the idle tick, shortened to the nearest pending
/// deadline so an expired request is answered promptly even if the
/// scorer is wedged.
fn poll_timeout(conns: &[Conn]) -> Duration {
    let now = Instant::now();
    let mut timeout = READ_TICK;
    for conn in conns {
        if let Some(pending) = &conn.pending {
            timeout = timeout.min(pending.deadline.saturating_duration_since(now));
        }
    }
    timeout
}

/// Drains the socket into the connection's line buffer.
fn read_ready(conn: &mut Conn) {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// What [`extract_line`] found at the front of the buffer.
#[derive(Debug, PartialEq, Eq)]
enum LineStatus {
    /// A complete request line: `inbuf[..end]` is its text (newline
    /// stripped; `\r\n` tolerated) and `inbuf[..next]` what it consumes.
    Line { end: usize, next: usize },
    /// The line exceeded the configured limit.
    TooLong,
    /// No complete line buffered yet.
    NotYet,
}

/// Finds the next line in the buffer without copying it. An oversized
/// line is detected as soon as `limit + 1` bytes are buffered without a
/// newline, without waiting for the rest. After EOF a final
/// unterminated line is served.
fn extract_line(inbuf: &[u8], eof: bool, limit: usize) -> LineStatus {
    if let Some(pos) = inbuf.iter().position(|&b| b == b'\n') {
        if pos > limit {
            return LineStatus::TooLong;
        }
        let end = if pos > 0 && inbuf[pos - 1] == b'\r' {
            pos - 1
        } else {
            pos
        };
        return LineStatus::Line { end, next: pos + 1 };
    }
    if inbuf.len() > limit {
        return LineStatus::TooLong;
    }
    if eof && !inbuf.is_empty() {
        return LineStatus::Line {
            end: inbuf.len(),
            next: inbuf.len(),
        };
    }
    LineStatus::NotYet
}

/// Processes buffered lines until the connection blocks on an
/// in-flight request, runs dry, or dies.
fn process_lines(
    shared: &Arc<Shared>,
    shard: &ShardState,
    job_tx: &SyncSender<ScoreJob>,
    conn: &mut Conn,
) {
    let limit = shared.config.max_line_bytes;
    while !conn.dead && conn.pending.is_none() {
        match extract_line(&conn.inbuf, conn.eof, limit) {
            LineStatus::NotYet => return,
            LineStatus::TooLong => {
                // Typed error, then close: the stream is out of sync.
                respond_error(shared, shard, conn, &ServeError::LineTooLong { limit });
                conn.dead = true;
                return;
            }
            LineStatus::Line { end, next } => {
                if shared.fire(&shard.metrics, FaultSite::SlowRead) {
                    std::thread::sleep(shared.injector.delay());
                }
                // The line is read in place: the buffer is lent out of
                // the connection while the line is processed, and valid
                // UTF-8 (every well-formed request) is never copied.
                let mut inbuf = std::mem::take(&mut conn.inbuf);
                let line = String::from_utf8_lossy(&inbuf[..end]);
                process_line(shared, shard, job_tx, conn, &line);
                drop(line);
                inbuf.drain(..next);
                conn.inbuf = inbuf;
            }
        }
    }
}

fn process_line(
    shared: &Arc<Shared>,
    shard: &ShardState,
    job_tx: &SyncSender<ScoreJob>,
    conn: &mut Conn,
    line: &str,
) {
    if line.trim().is_empty() {
        return;
    }
    let mut span = Span::enter("serve.request");
    match protocol::parse_request(line, shared.pipeline.features().dim()) {
        Err(e) => {
            span.record("cmd", "invalid");
            respond_error(shared, shard, conn, &e);
        }
        Ok(Request::Stats) => {
            span.record("cmd", "stats");
            let stats = server::read(shared).stats();
            send_line(shared, shard, conn, wire::encode(&stats), false);
        }
        Ok(Request::Metrics) => {
            span.record("cmd", "metrics");
            let text = server::read(shared).merged.render_prometheus();
            write_metrics_block(conn, &text);
        }
        Ok(Request::Health) => {
            span.record("cmd", "health");
            let health = server::health_report(shared);
            send_line(shared, shard, conn, wire::encode(&health), false);
        }
        Ok(Request::Sentinel) => {
            span.record("cmd", "sentinel");
            let report = server::sentinel_report(shared);
            send_line(shared, shard, conn, wire::encode(&report), false);
        }
        Ok(Request::Slo) => {
            span.record("cmd", "slo");
            let report = server::evaluate_slo(shared);
            send_line(shared, shard, conn, wire::encode(&report), false);
        }
        Ok(Request::Reload { path }) => {
            span.record("cmd", "reload");
            match server::do_reload(shared, &path) {
                Ok(ack) => {
                    span.record("generation", ack.generation);
                    send_line(shared, shard, conn, wire::encode(&ack), false);
                }
                Err(e) => respond_error(shared, shard, conn, &e),
            }
        }
        Ok(Request::Shutdown) => {
            span.record("cmd", "shutdown");
            send_line(
                shared,
                shard,
                conn,
                protocol::SHUTDOWN_ACK.to_string(),
                false,
            );
            shared.trigger_shutdown();
            conn.dead = true;
        }
        Ok(Request::Score {
            counts,
            client_id,
            trace,
        }) => {
            span.record("cmd", "score");
            if let Some(t) = trace {
                span.record("trace_id", t.trace_id);
                if t.span_id != 0 {
                    span.record("client_span", t.span_id);
                }
            }
            let cid = client_id.unwrap_or_else(|| conn.peer.clone());
            handle_score(shared, shard, job_tx, conn, &counts, &cid, trace, span);
        }
    }
}

// ---------------------------------------------------------------------------
// Score path
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn handle_score(
    shared: &Arc<Shared>,
    shard: &ShardState,
    job_tx: &SyncSender<ScoreJob>,
    conn: &mut Conn,
    counts: &[u32],
    client_id: &str,
    trace: Option<TraceContext>,
    span: Span,
) {
    shard.metrics.requests.inc();
    let start = Instant::now();
    match score_step(shared, shard, job_tx, counts, client_id, trace, span, start) {
        ScoreStep::Done(outcome, mut span, mut stages) => {
            finish_score(shared, shard, conn, &outcome, &mut stages, &mut span);
        }
        ScoreStep::Pending(pending) => conn.pending = Some(pending),
    }
}

/// Runs the synchronous part of the score pipeline — sentinel, cache,
/// admission control, enqueue — and either resolves the request or
/// leaves it in flight, accumulating per-stage time as it goes.
#[allow(clippy::too_many_arguments)]
fn score_step(
    shared: &Arc<Shared>,
    shard: &ShardState,
    job_tx: &SyncSender<ScoreJob>,
    counts: &[u32],
    client_id: &str,
    trace: Option<TraceContext>,
    mut span: Span,
    start: Instant,
) -> ScoreStep {
    let mut stages = StageTimes::default();
    let features = shared.pipeline.features().transform_counts(counts);
    let cache_key = quantize_shared(&features);

    // The sentinel rules *before* scoring, from recorded history alone,
    // so its decisions are a pure function of (seed, client history).
    let sentinel_on = shared.config.sentinel.enabled;
    let decision = if sentinel_on {
        let check = Instant::now();
        let decision = match shard.sentinel.lock() {
            Ok(mut s) => s.decide(client_id),
            Err(_) => SentinelDecision::Allow,
        };
        stages.sentinel_check += check.elapsed();
        decision
    } else {
        SentinelDecision::Allow
    };
    if let SentinelDecision::Throttle { retry_after_ms } = decision {
        shard.metrics.sentinel_throttled.inc();
        span.record("throttled", true);
        let check = Instant::now();
        sentinel_record(shard, client_id, cache_key, None);
        stages.sentinel_check += check.elapsed();
        return ScoreStep::Done(
            ScoreOutcome::Error(ServeError::Throttled { retry_after_ms }),
            span,
            stages,
        );
    }
    let poison = matches!(decision, SentinelDecision::Poison);

    // A cache entry is only valid for the generation that produced it;
    // entries from before a reload read as misses and are overwritten
    // when the re-scored batch lands (lazy invalidation).
    let lookup = Instant::now();
    let generation = shared.model.generation();
    let cached = shard
        .cache
        .lock()
        .ok()
        .and_then(|mut cache| cache.get(&*cache_key))
        .filter(|(_, cached_generation)| *cached_generation == generation)
        .map(|(score, _)| score);
    stages.cache_lookup += lookup.elapsed();
    if let Some(score) = cached {
        shard.metrics.cache_hits.inc();
        shard.metrics.record_latency(start.elapsed());
        span.record("cached", true);
        if sentinel_on {
            // History records the *true* verdict so later flip analysis
            // is about the model's boundary, not the poison stream.
            let check = Instant::now();
            sentinel_record(shard, client_id, Arc::clone(&cache_key), Some(score >= 0.5));
            stages.sentinel_check += check.elapsed();
        }
        let served = serve_score(shared, shard, poison, score, &cache_key, &mut span);
        return ScoreStep::Done(
            ScoreOutcome::Reply {
                resp: ScoreResponse::new(served, true, 0).with_generation(generation),
                faulted: false,
            },
            span,
            stages,
        );
    }
    shard.metrics.cache_misses.inc();
    span.record("cached", false);

    if shared.shutting_down.load(Ordering::SeqCst) {
        return ScoreStep::Done(ScoreOutcome::Error(ServeError::ShuttingDown), span, stages);
    }

    // Admission control: shed by observed queue depth *before* pushing,
    // so a saturated scorer rejects cheaply instead of queueing work it
    // cannot finish in time. This shard loop is the queue's only sender
    // and counts every job into `queue_depth` before sending it, so the
    // queue (sized at the same bound) never fills.
    let depth = shard.metrics.queue_depth.get().max(0) as u64;
    if depth >= shared.config.shed_queue_depth.max(1) as u64 {
        shard.metrics.shed.inc();
        shard.metrics.overloaded.inc();
        span.record("shed", true);
        let overloaded = ServeError::Overloaded {
            capacity: shared.config.shed_queue_depth,
            retry_after_ms: suggested_retry_after_ms(
                depth,
                shared.config.max_batch,
                shared.config.batch_timeout,
            ),
        };
        return ScoreStep::Done(ScoreOutcome::Error(overloaded), span, stages);
    }

    let sentinel_key = sentinel_on.then(|| Arc::clone(&cache_key));
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut job = ScoreJob::new(features, cache_key, reply_tx);
    if let Some(t) = trace {
        job.trace_id = t.trace_id;
        job.client_span = t.span_id;
    }
    // Re-stamp right before the push so `queue_wait` starts at enqueue,
    // not at job construction.
    let enqueued = Instant::now();
    job.enqueued_at = enqueued;
    shard.metrics.queue_depth.add(1);
    match job_tx.try_send(job) {
        Err(_) => {
            // The queue never fills (see the shed check above), so a
            // failed send means the scorer is gone: the server drains.
            shard.metrics.queue_depth.add(-1);
            ScoreStep::Done(ScoreOutcome::Error(ServeError::ShuttingDown), span, stages)
        }
        Ok(()) => ScoreStep::Pending(Pending {
            rx: reply_rx,
            span,
            stages,
            start,
            enqueued,
            deadline: enqueued + shared.config.request_deadline,
            sentinel_key,
            poison,
            client_id: client_id.to_string(),
        }),
    }
}

/// Checks whether the connection's in-flight request resolved — a
/// scorer reply arrived, the scorer vanished, or the deadline passed —
/// and if so writes the response.
fn settle_pending(shared: &Arc<Shared>, shard: &ShardState, conn: &mut Conn) {
    let completion = {
        let pending = conn.pending.as_ref().expect("settle without pending");
        match pending.rx.try_recv() {
            Ok(result) => Some(Completion::Reply(result)),
            Err(mpsc::TryRecvError::Empty) => {
                if Instant::now() >= pending.deadline {
                    Some(Completion::Deadline)
                } else {
                    None
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => Some(Completion::ScorerGone),
        }
    };
    let Some(completion) = completion else { return };
    let mut pending = conn.pending.take().expect("settle without pending");
    let outcome = match completion {
        Completion::Reply(Ok(reply)) => {
            // The enqueue → reply wait decomposes into the
            // scorer-measured queue and batch waits; everything else
            // (the forward pass, reply fan-out, and the wake-up gap) is
            // attributed to inference so the six stages always sum to
            // the observed wait.
            let waited = pending.enqueued.elapsed();
            pending.stages.queue_wait += reply.queue_wait;
            pending.stages.batch_wait += reply.batch_wait;
            pending.stages.inference += waited.saturating_sub(reply.queue_wait + reply.batch_wait);
            shard.metrics.record_latency(pending.start.elapsed());
            pending.span.record("batch_size", reply.batch_size as u64);
            let served = if let Some(key) = pending.sentinel_key.take() {
                let check = Instant::now();
                sentinel_record(
                    shard,
                    &pending.client_id,
                    Arc::clone(&key),
                    Some(reply.score >= 0.5),
                );
                pending.stages.sentinel_check += check.elapsed();
                serve_score(
                    shared,
                    shard,
                    pending.poison,
                    reply.score,
                    &key,
                    &mut pending.span,
                )
            } else {
                reply.score
            };
            ScoreOutcome::Reply {
                resp: ScoreResponse::new(served, false, reply.batch_size)
                    .with_generation(reply.generation),
                faulted: true,
            }
        }
        Completion::Reply(Err(e)) => ScoreOutcome::Error(e),
        Completion::Deadline => {
            // Abandon the reply channel: the scorer's eventual send
            // fails harmlessly and the connection stays in sync instead
            // of hanging on a wedged scorer.
            shard.metrics.deadline_exceeded.inc();
            pending.span.record("deadline_exceeded", true);
            ScoreOutcome::Error(ServeError::DeadlineExceeded {
                deadline_ms: shared.config.request_deadline.as_millis() as u64,
            })
        }
        Completion::ScorerGone => ScoreOutcome::Error(ServeError::Internal {
            detail: "scorer dropped the reply".to_string(),
        }),
    };
    let Pending {
        mut span,
        mut stages,
        ..
    } = pending;
    finish_score(shared, shard, conn, &outcome, &mut stages, &mut span);
}

/// The single exit for every score request: encode + write is the
/// `serialize` stage, after which the full six-stage decomposition is
/// recorded on the span and into the `serve_stage_*_us` histograms.
fn finish_score(
    shared: &Arc<Shared>,
    shard: &ShardState,
    conn: &mut Conn,
    outcome: &ScoreOutcome,
    stages: &mut StageTimes,
    span: &mut Span,
) {
    let serialize_start = Instant::now();
    let (line, faulted) = match outcome {
        ScoreOutcome::Reply { resp, faulted } => (protocol::encode_score(resp), *faulted),
        ScoreOutcome::Error(err) => {
            shard.metrics.errors.inc();
            (wire::encode(&err.body()), true)
        }
    };
    send_line(shared, shard, conn, line, faulted);
    stages.serialize = serialize_start.elapsed();
    shard.metrics.record_stages(stages);
    let [queue_wait, batch_wait, cache_lookup, sentinel_check, inference, serialize] =
        stages.as_us();
    span.record("stage_queue_wait_us", queue_wait);
    span.record("stage_batch_wait_us", batch_wait);
    span.record("stage_cache_lookup_us", cache_lookup);
    span.record("stage_sentinel_check_us", sentinel_check);
    span.record("stage_inference_us", inference);
    span.record("stage_serialize_us", serialize);
}

/// Records one query in the shard's sentinel and forwards its
/// observations to the metrics. No-op when the sentinel is disabled.
fn sentinel_record(shard: &ShardState, client_id: &str, key: Arc<[i64]>, verdict: Option<bool>) {
    let obs = match shard.sentinel.lock() {
        Ok(mut s) => s.record(client_id, key, verdict),
        Err(_) => return,
    };
    if obs.near_duplicate {
        shard.metrics.sentinel_near_duplicates.inc();
    }
    if obs.verdict_flip {
        shard.metrics.sentinel_verdict_flips.inc();
    }
    if obs.newly_flagged {
        shard.metrics.sentinel_flagged.inc();
    }
}

/// The score actually sent to the client: the true score, or — for a
/// poison-flagged client — a deterministic seed-randomized one.
fn serve_score(
    shared: &Shared,
    shard: &ShardState,
    poison: bool,
    score: f64,
    key: &[i64],
    span: &mut Span,
) -> f64 {
    if !poison {
        return score;
    }
    shard.metrics.sentinel_poisoned.inc();
    span.record("poisoned", true);
    poison_score(shared.config.sentinel.seed, key)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

fn respond_error(shared: &Arc<Shared>, shard: &ShardState, conn: &mut Conn, err: &ServeError) {
    shard.metrics.errors.inc();
    send_line(shared, shard, conn, wire::encode(&err.body()), true);
}

/// Writes one response line, marking the connection dead on failure;
/// `faulted` routes through the write-fault sites.
fn send_line(
    shared: &Arc<Shared>,
    shard: &ShardState,
    conn: &mut Conn,
    line: String,
    faulted: bool,
) {
    let result = if faulted {
        write_line_faulted(shared, shard, &mut conn.stream, line)
    } else {
        write_line(&mut conn.stream, line)
    };
    if result.is_err() {
        conn.dead = true;
    }
}

/// Writes a multi-line Prometheus exposition block over the otherwise
/// line-oriented protocol, terminated by a `# EOF` marker line
/// (OpenMetrics convention) so clients know where the block ends.
fn write_metrics_block(conn: &mut Conn, text: &str) {
    let mut block = String::with_capacity(text.len() + 8);
    block.push_str(text);
    if !block.ends_with('\n') {
        block.push('\n');
    }
    block.push_str("# EOF\n");
    if write_all_blocking(&mut conn.stream, block.as_bytes()).is_err() {
        conn.dead = true;
    }
}

/// Writes a response line on the score path, subject to write faults:
/// [`FaultSite::WriteReset`] drops the connection instead of writing,
/// [`FaultSite::SlowWrite`] splits the line into two flushed chunks
/// with a pause between them.
fn write_line_faulted(
    shared: &Shared,
    shard: &ShardState,
    stream: &mut TcpStream,
    line: String,
) -> std::io::Result<()> {
    if shared.fire(&shard.metrics, FaultSite::WriteReset) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "injected fault: write reset",
        ));
    }
    if shared.fire(&shard.metrics, FaultSite::SlowWrite) {
        let mid = line.len() / 2;
        let mut line = line.into_bytes();
        line.push(b'\n');
        write_all_blocking(stream, &line[..mid])?;
        std::thread::sleep(shared.injector.delay());
        return write_all_blocking(stream, &line[mid..]);
    }
    write_line(stream, line)
}

/// Writes one reply line and its newline in a single `write`: the
/// server sets `TCP_NODELAY`, so a newline written apart goes out as a
/// segment of its own, and the client may wake for the line only to
/// wait again for the newline.
fn write_line(stream: &mut impl ReplyStream, line: String) -> std::io::Result<()> {
    let mut line = line.into_bytes();
    line.push(b'\n');
    write_all_blocking(stream, &line)
}

/// A non-blocking socket a reply is written to, and how to wait until it
/// drains.
trait ReplyStream: Write {
    fn wait_writable(&self, timeout: Duration) -> std::io::Result<bool>;
}

impl ReplyStream for TcpStream {
    fn wait_writable(&self, timeout: Duration) -> std::io::Result<bool> {
        reactor::wait_writable(self, timeout)
    }
}

/// `write_all` over a non-blocking socket: on `WouldBlock`, waits for
/// writability (capped at [`WRITE_STALL_CAP`]) and retries. Responses
/// are small, so stalls only happen when a peer stops reading.
fn write_all_blocking(stream: &mut impl ReplyStream, mut buf: &[u8]) -> std::io::Result<()> {
    let stall_start = Instant::now();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stall_start.elapsed() > WRITE_STALL_CAP {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "write stalled past the cap",
                    ));
                }
                stream.wait_writable(Duration::from_millis(100))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scorer
// ---------------------------------------------------------------------------

pub(crate) fn scorer_loop(
    shared: &Shared,
    shard: &ShardState,
    rx: &Receiver<ScoreJob>,
    max_batch: usize,
    batch_timeout: Duration,
) {
    while let Some(jobs) = collect_batch(rx, max_batch, batch_timeout) {
        // One Arc clone per batch: a concurrent reload lands exactly at
        // a batch boundary, so every row in this batch — and the reply
        // generation each job reports — comes from one model.
        let model = shared.model.current();
        let mut span = Span::enter("serve.batch");
        // Batch execution starts here: each job's `batch_wait` stage
        // ends now, and everything until the scores are back — the
        // rows copy, any injected slow-inference fault, and the
        // forward pass itself — is attributed to `inference`.
        let exec_start = Instant::now();
        shard.metrics.queue_depth.add(-(jobs.len() as i64));
        if shared.fire(&shard.metrics, FaultSite::ScoreDelay) {
            std::thread::sleep(shared.injector.delay());
        }
        let rows: Vec<Vec<f64>> = jobs.iter().map(|j| j.features.clone()).collect();
        span.record("rows", rows.len() as u64);
        span.record("shard", shard.index as u64);
        span.record("generation", model.generation);
        // Tag the batch with every member's wire trace so a request is
        // followable into the batch that scored it.
        for job in &jobs {
            if job.trace_id != 0 {
                trace::event(
                    "serve.batch.job",
                    &[
                        ("trace_id", job.trace_id.into()),
                        ("client_span", job.client_span.into()),
                    ],
                );
            }
        }

        // BatchPanic/RowPanic fire inside the isolated scorer; with a
        // single shard (every deterministic chaos plan) only this
        // thread consumes those sites, so the delta is race-free.
        let scorer_faults = |shared: &Shared| {
            shared.injector.fired(FaultSite::BatchPanic)
                + shared.injector.fired(FaultSite::RowPanic)
        };
        let faults_before = scorer_faults(shared);
        let outcome = score_rows_isolated(&model.network, &rows, &shared.injector);
        let inference = exec_start.elapsed();
        shard
            .metrics
            .faults_injected
            .add(scorer_faults(shared) - faults_before);

        let n = jobs.len();
        shard.metrics.batches.inc();
        shard.metrics.record_batch_size(n as u64);
        if outcome.batch_failed {
            shard.metrics.scorer_panics.inc();
            span.record("batch_failed", true);
        }
        shard.metrics.row_failures.add(outcome.row_failures);
        let ok_rows = outcome.scores.iter().filter(|s| s.is_ok()).count() as u64;
        shard.metrics.rows_scored.add(ok_rows);

        if let Ok(mut cache) = shard.cache.lock() {
            for (job, score) in jobs.iter().zip(&outcome.scores) {
                if let Ok(score) = score {
                    cache.insert(Arc::clone(&job.cache_key), (*score, model.generation));
                }
            }
        }
        for (job, score) in jobs.into_iter().zip(outcome.scores) {
            // A send error means the connection died or gave up on its
            // deadline; successful scores are already cached, so the
            // work is not wasted either way.
            let reply = match score {
                Ok(score) => Ok(ScoredReply {
                    score,
                    batch_size: n,
                    queue_wait: job.received_at.saturating_duration_since(job.enqueued_at),
                    batch_wait: exec_start.saturating_duration_since(job.received_at),
                    inference,
                    generation: model.generation,
                }),
                Err(detail) => Err(ServeError::Internal { detail }),
            };
            let _ = job.reply.send(reply);
        }
        // Wake the owning event loop so replies are observed now, not
        // at the next idle tick.
        shard.waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reply stream that records every `write` it receives; with a
    /// `chunk` it takes at most that many bytes per call and answers
    /// every other call with `WouldBlock`, like a full socket buffer.
    #[derive(Default)]
    struct CountingStream {
        writes: usize,
        bytes: Vec<u8>,
        chunk: Option<usize>,
    }

    impl Write for CountingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = match self.chunk {
                Some(_) if self.writes.is_multiple_of(2) => {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                Some(chunk) => buf.len().min(chunk),
                None => buf.len(),
            };
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl ReplyStream for CountingStream {
        fn wait_writable(&self, _timeout: Duration) -> std::io::Result<bool> {
            Ok(true)
        }
    }

    #[test]
    fn a_reply_line_goes_out_in_one_write() {
        let line = protocol::encode_score(&ScoreResponse::new(0.75, false, 3));
        let mut stream = CountingStream::default();
        write_line(&mut stream, line.clone()).unwrap();
        assert_eq!(stream.writes, 1);
        assert_eq!(stream.bytes, format!("{line}\n").into_bytes());
    }

    #[test]
    fn a_stalled_reply_resumes_where_it_stopped() {
        let line = "x".repeat(50);
        let mut stream = CountingStream {
            chunk: Some(8),
            ..CountingStream::default()
        };
        write_line(&mut stream, line.clone()).unwrap();
        assert_eq!(stream.bytes, format!("{line}\n").into_bytes());
        assert_eq!(stream.writes, 13, "7 partial writes, 6 refused");
    }

    #[test]
    fn lines_are_found_in_place() {
        let line = |end, next| LineStatus::Line { end, next };
        assert_eq!(extract_line(b"{}\n{", false, 64), line(2, 3));
        assert_eq!(extract_line(b"{}\r\n", false, 64), line(2, 4));
        assert_eq!(extract_line(b"\n", false, 64), line(0, 1));
        assert_eq!(extract_line(b"{\"a\"", false, 64), LineStatus::NotYet);
        assert_eq!(extract_line(b"{\"a\"", true, 64), line(4, 4));
        assert_eq!(extract_line(b"", true, 64), LineStatus::NotYet);
        assert_eq!(extract_line(b"01234567\n", false, 8), line(8, 9));
        assert_eq!(extract_line(b"012345678\n", false, 8), LineStatus::TooLong);
        assert_eq!(extract_line(b"012345678", false, 8), LineStatus::TooLong);
    }
}
