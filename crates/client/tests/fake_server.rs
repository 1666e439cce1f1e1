//! End-to-end client behavior against scripted fake servers.
//!
//! `maleva-client` deliberately does not depend on `maleva-serve`, so
//! these tests stand up tiny scripted TCP listeners that misbehave in
//! controlled ways — close on accept, reply with typed errors, then
//! recover — and assert the retry loop, breaker, and metrics react per
//! contract. (The full-stack chaos soak against the real server lives
//! in `maleva-serve`'s test suite.)

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use maleva_client::{
    BackoffPolicy, BreakerConfig, ClientConfig, ClientError, HealthReport, MetricsSnapshot,
    ScoreClient, SentinelClientReport, SentinelReport, Stats,
};
use maleva_obs::trace::{self, Sink};
use maleva_wire::encode;

const SCORE_LINE: &str =
    "{\"score\":0.75,\"verdict\":\"malware\",\"cached\":false,\"batch_size\":3}";
const OVERLOADED_LINE: &str = "{\"error\":{\"kind\":\"overloaded\",\"detail\":\"queue full\",\
                               \"retryable\":true,\"retry_after_ms\":5}}";
const BAD_DIM_LINE: &str = "{\"error\":{\"kind\":\"wrong_dimension\",\
                            \"detail\":\"expected 3\",\"retryable\":false}}";

/// What a scripted server does with one accepted connection.
enum Script {
    /// Accept, then drop the socket without reading or writing.
    CloseImmediately,
    /// Serve one response line per entry (reading a request line before
    /// each), then close.
    Respond(Vec<&'static str>),
    /// Like `Respond`, but records every request line it reads into the
    /// shared log before answering, so tests can assert on the exact
    /// bytes the client put on the wire.
    Capture(Vec<&'static str>, Arc<Mutex<Vec<String>>>),
}

/// Runs one script per accepted connection, in order, then exits.
fn fake_server(scripts: Vec<Script>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        for script in scripts {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            match script {
                Script::CloseImmediately => drop(stream),
                Script::Respond(lines) => {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for line in lines {
                        let mut req = String::new();
                        if reader.read_line(&mut req).unwrap_or(0) == 0 {
                            break;
                        }
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                        let _ = stream.flush();
                    }
                }
                Script::Capture(lines, log) => {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for line in lines {
                        let mut req = String::new();
                        if reader.read_line(&mut req).unwrap_or(0) == 0 {
                            break;
                        }
                        log.lock().expect("log").push(req.trim_end().to_string());
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                        let _ = stream.flush();
                    }
                }
            }
        }
    });
    (addr, handle)
}

fn fast_config(addr: SocketAddr) -> ClientConfig {
    ClientConfig {
        addr: addr.to_string(),
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(2),
        call_deadline: Duration::from_secs(5),
        max_attempts: 4,
        backoff: BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            jitter_frac: 0.0,
            seed: 0,
        },
        ..ClientConfig::default()
    }
}

/// Keeps a rendered reply alive for the scripts, which take
/// `&'static str`.
fn leak(line: String) -> &'static str {
    Box::leak(line.into_boxed_str())
}

fn health_line() -> &'static str {
    leak(encode(&HealthReport {
        status: "ok".to_string(),
        queue_depth: 2,
        shed_depth: 48,
        deadline_ms: 30_000,
        overloaded: 1,
        ..HealthReport::default()
    }))
}

fn stats_line() -> &'static str {
    let merged = MetricsSnapshot {
        requests: 11,
        errors: 2,
        overloaded: 1,
        cache_hits: 5,
        cache_misses: 6,
        sentinel_throttled: 3,
        sentinel_flagged: 1,
        p99_latency_us: 256,
        ..MetricsSnapshot::default()
    };
    leak(encode(&Stats {
        shards: vec![merged.clone()],
        merged,
    }))
}

fn sentinel_line() -> &'static str {
    leak(encode(&SentinelReport {
        enabled: true,
        action: "throttle".to_string(),
        tracked_clients: 1,
        flagged_clients: 1,
        clients: vec![SentinelClientReport {
            client_id: "probe".to_string(),
            queries: 33,
            near_duplicates: 20,
            verdict_flips: 4,
            flagged: true,
            flagged_at_query: 17,
            throttled: 9,
            observed_rps: 8.0,
            ..SentinelClientReport::default()
        }],
    }))
}

#[test]
fn typed_health_helper_parses_the_report() {
    let (addr, server) = fake_server(vec![Script::Respond(vec![health_line()])]);
    let mut client = ScoreClient::new(fast_config(addr));
    let health = client.health().expect("health");
    assert_eq!(health.status, "ok");
    assert!(!health.draining);
    assert_eq!(health.queue_depth, 2);
    assert_eq!(health.overloaded, 1);
    drop(client);
    server.join().unwrap();
}

#[test]
fn typed_stats_helper_parses_the_snapshot() {
    let (addr, server) = fake_server(vec![Script::Respond(vec![stats_line()])]);
    let mut client = ScoreClient::new(fast_config(addr));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 11);
    assert_eq!(stats.cache_hits, 5);
    assert_eq!(stats.sentinel_throttled, 3);
    assert_eq!(stats.sentinel_flagged, 1);
    assert_eq!(stats.p99_latency_us, 256);
    drop(client);
    server.join().unwrap();
}

#[test]
fn typed_sentinel_helper_parses_the_report() {
    let (addr, server) = fake_server(vec![Script::Respond(vec![sentinel_line()])]);
    let mut client = ScoreClient::new(fast_config(addr));
    let report = client.sentinel().expect("sentinel");
    assert!(report.enabled);
    assert_eq!(report.action, "throttle");
    assert_eq!(report.flagged_clients, 1);
    let probe = report.client("probe").expect("row");
    assert!(probe.flagged);
    assert_eq!(probe.flagged_at_query, 17);
    assert_eq!(probe.throttled, 9);
    drop(client);
    server.join().unwrap();
}

/// A body missing a required field is a typed protocol error, not a
/// zero: the server never omits these fields, so their absence means
/// client and server disagree on the schema.
#[test]
fn missing_required_fields_are_protocol_errors_not_zeros() {
    let lines = vec![
        leak(stats_line().replacen("\"requests\":11,", "", 1)),
        leak(health_line().replacen("\"model_generation\":0,", "", 1)),
        leak(SCORE_LINE.replacen(",\"batch_size\":3", "", 1)),
    ];
    let (addr, server) = fake_server(vec![Script::Respond(lines)]);
    let mut client = ScoreClient::new(ClientConfig {
        max_attempts: 1,
        ..fast_config(addr)
    });
    let err = client.stats().expect_err("stats without `requests`");
    assert!(matches!(err, ClientError::Protocol { .. }), "{err:?}");
    let err = client
        .health()
        .expect_err("health without `model_generation`");
    assert!(matches!(err, ClientError::Protocol { .. }), "{err:?}");
    match client.score_counts(&[1, 2, 3]) {
        Err(ClientError::RetriesExhausted { last, .. }) => {
            assert!(matches!(*last, ClientError::Protocol { .. }), "{last:?}")
        }
        other => panic!("score without `batch_size` must fail to decode: {other:?}"),
    }
    assert_eq!(client.metrics().snapshot().protocol_errors, 1);
    drop(client);
    server.join().unwrap();
}

#[test]
fn configured_client_id_rides_every_score_request() {
    // The fake server can't easily capture request bytes with the
    // current Script shape, so pin the encoding helper directly and
    // assert a scripted roundtrip still succeeds with client_id set.
    assert_eq!(
        maleva_client::encode_score_request_as(&[1, 2, 3], "attacker-1"),
        "{\"features\":[1,2,3],\"client_id\":\"attacker-1\"}"
    );
    let (addr, server) = fake_server(vec![Script::Respond(vec![SCORE_LINE])]);
    let mut client = ScoreClient::new(ClientConfig {
        client_id: Some("attacker-1".to_string()),
        ..fast_config(addr)
    });
    let outcome = client.score_counts(&[1, 2, 3]).expect("score");
    assert_eq!(outcome.attempts, 1);
    drop(client);
    server.join().unwrap();
}

#[test]
fn scores_on_the_first_attempt() {
    let (addr, server) = fake_server(vec![Script::Respond(vec![SCORE_LINE])]);
    let mut client = ScoreClient::new(fast_config(addr));
    let outcome = client.score_counts(&[1, 2, 3]).expect("score");
    assert_eq!(outcome.attempts, 1);
    assert_eq!(outcome.verdict, "malware");
    assert_eq!(outcome.batch_size, 3);
    assert!((outcome.score - 0.75).abs() < 1e-12);
    let m = client.metrics().snapshot();
    assert_eq!((m.requests, m.retries, m.io_errors), (1, 0, 0));
    drop(client);
    server.join().unwrap();
}

#[test]
fn reconnects_and_retries_after_a_connection_reset() {
    let (addr, server) = fake_server(vec![
        Script::CloseImmediately,
        Script::Respond(vec![SCORE_LINE]),
    ]);
    let mut client = ScoreClient::new(fast_config(addr));
    let outcome = client.score_counts(&[1, 2, 3]).expect("score");
    assert_eq!(outcome.attempts, 2);
    let m = client.metrics().snapshot();
    assert_eq!(m.retries, 1);
    assert_eq!(m.io_errors, 1);
    assert_eq!(m.connects, 2);
    drop(client);
    server.join().unwrap();
}

#[test]
fn honors_the_servers_retry_after_hint() {
    let (addr, server) = fake_server(vec![Script::Respond(vec![OVERLOADED_LINE, SCORE_LINE])]);
    let mut client = ScoreClient::new(fast_config(addr));
    let start = Instant::now();
    let outcome = client.score_counts(&[1, 2, 3]).expect("score");
    assert_eq!(outcome.attempts, 2);
    // The hint (5 ms) dominates the 1 ms backoff.
    assert!(start.elapsed() >= Duration::from_millis(5));
    let m = client.metrics().snapshot();
    assert_eq!(m.server_errors, 1);
    assert_eq!(m.retries, 1);
    assert_eq!(m.connects, 1, "typed errors must not drop the connection");
    drop(client);
    server.join().unwrap();
}

#[test]
fn does_not_retry_non_retryable_refusals() {
    let (addr, server) = fake_server(vec![Script::Respond(vec![BAD_DIM_LINE])]);
    let mut client = ScoreClient::new(fast_config(addr));
    let err = client.score_counts(&[1, 2]).expect_err("refused");
    match &err {
        ClientError::Server {
            kind, retryable, ..
        } => {
            assert_eq!(kind, "wrong_dimension");
            assert!(!retryable);
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert!(!err.is_retryable());
    let m = client.metrics().snapshot();
    assert_eq!(m.retries, 0);
    drop(client);
    server.join().unwrap();
}

#[test]
fn gives_up_after_max_attempts_against_a_dead_server() {
    let scripts = (0..4).map(|_| Script::CloseImmediately).collect();
    let (addr, server) = fake_server(scripts);
    let mut client = ScoreClient::new(ClientConfig {
        // Breaker too lax to interfere: this test pins attempt budgets.
        breaker: BreakerConfig {
            failure_threshold: 100,
            ..BreakerConfig::default()
        },
        ..fast_config(addr)
    });
    let err = client.score_counts(&[1, 2, 3]).expect_err("dead server");
    match err {
        ClientError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 4);
            assert!(matches!(*last, ClientError::Io { .. }));
        }
        other => panic!("unexpected error {other:?}"),
    }
    let m = client.metrics().snapshot();
    assert_eq!(m.io_errors, 4);
    assert_eq!(m.retries, 3);
    drop(client);
    server.join().unwrap();
}

/// The tracer sink is process-global; serialize the tests that install
/// one so they don't capture each other's spans.
fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Extracts the number following `"key":` in a JSON line (good enough
/// for the flat integers these tests assert on).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn retries_reuse_the_trace_id_with_fresh_increasing_span_ids() {
    let _guard = sink_lock();
    let captured = trace::install_memory_sink();

    // One connection: a retryable refusal, then success — both request
    // lines land in the capture log.
    let log = Arc::new(Mutex::new(Vec::new()));
    let (addr, server) = fake_server(vec![Script::Capture(
        vec![OVERLOADED_LINE, SCORE_LINE],
        log.clone(),
    )]);
    let mut client = ScoreClient::new(fast_config(addr));
    let outcome = client.score_counts(&[1, 2, 3]).expect("score");
    assert_eq!(outcome.attempts, 2);
    drop(client);
    server.join().unwrap();
    trace::install(Sink::Disabled).expect("disable sink");

    let wire = log.lock().expect("log").clone();
    assert_eq!(
        wire.len(),
        2,
        "expected both attempts on the wire: {wire:?}"
    );
    let trace_ids: Vec<u64> = wire
        .iter()
        .map(|l| json_u64(l, "trace_id").expect("trace_id on the wire"))
        .collect();
    let span_ids: Vec<u64> = wire
        .iter()
        .map(|l| json_u64(l, "span_id").expect("span_id on the wire"))
        .collect();
    // One logical request: the trace id is stable across the retry,
    // while each attempt gets a fresh, increasing span id.
    assert_eq!(trace_ids[0], trace_ids[1], "{wire:?}");
    assert!(trace_ids[0] > 0);
    assert!(span_ids[1] > span_ids[0], "{wire:?}");
    assert!(span_ids[0] > 0);

    // The client's own spans mirror the wire context.
    let lines = captured.lines();
    let attempts: Vec<&String> = lines
        .iter()
        .filter(|l| {
            l.contains("\"name\":\"client.attempt\"")
                && json_u64(l, "trace_id") == Some(trace_ids[0])
        })
        .collect();
    assert_eq!(attempts.len(), 2, "{lines:?}");
    for (i, span) in attempts.iter().enumerate() {
        assert_eq!(json_u64(span, "span_id"), Some(span_ids[i]), "{span}");
        assert_eq!(json_u64(span, "attempt"), Some(i as u64 + 1), "{span}");
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"name\":\"client.request\"")
                && json_u64(l, "trace_id") == Some(trace_ids[0])
                && json_u64(l, "attempts") == Some(2)),
        "{lines:?}"
    );
}

#[test]
fn breaker_reopen_continues_the_same_trace() {
    let _guard = sink_lock();
    let captured = trace::install_memory_sink();

    // Two resets trip the breaker; after its cooldown the half-open
    // probe reaches a healthy capture server.
    let log = Arc::new(Mutex::new(Vec::new()));
    let (addr, server) = fake_server(vec![
        Script::CloseImmediately,
        Script::CloseImmediately,
        Script::Capture(vec![SCORE_LINE], log.clone()),
    ]);
    let mut client = ScoreClient::new(ClientConfig {
        max_attempts: 10,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 5,
            half_open_probes: 1,
            probe_timeout_ms: 1_000,
        },
        ..fast_config(addr)
    });
    let outcome = client.score_counts(&[1, 2, 3]).expect("score");
    assert_eq!(outcome.attempts, 3);
    let m = client.metrics().snapshot();
    assert_eq!(m.breaker_trips, 1);
    assert!(m.breaker_rejections >= 1);
    drop(client);
    server.join().unwrap();
    trace::install(Sink::Disabled).expect("disable sink");

    // The attempt that crossed the reopened breaker still carries the
    // call's original trace id, with a span id minted after (greater
    // than) the failed attempts'.
    let wire = log.lock().expect("log").clone();
    assert_eq!(wire.len(), 1, "{wire:?}");
    let trace_id = json_u64(&wire[0], "trace_id").expect("trace_id on the wire");
    let final_span = json_u64(&wire[0], "span_id").expect("span_id on the wire");
    let lines = captured.lines();
    let span_ids: Vec<u64> = lines
        .iter()
        .filter(|l| {
            l.contains("\"name\":\"client.attempt\"") && json_u64(l, "trace_id") == Some(trace_id)
        })
        .map(|l| json_u64(l, "span_id").expect("span_id recorded"))
        .collect();
    assert_eq!(span_ids.len(), 3, "{lines:?}");
    assert!(span_ids.windows(2).all(|w| w[1] > w[0]), "{span_ids:?}");
    assert_eq!(*span_ids.last().unwrap(), final_span);
}

#[test]
fn breaker_trips_and_rejects_without_touching_the_wire() {
    let scripts = (0..2).map(|_| Script::CloseImmediately).collect();
    let (addr, server) = fake_server(scripts);
    let mut client = ScoreClient::new(ClientConfig {
        max_attempts: 10,
        call_deadline: Duration::from_millis(300),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 60_000, // far beyond the call deadline
            half_open_probes: 1,
            probe_timeout_ms: 1_000,
        },
        ..fast_config(addr)
    });
    let err = client.score_counts(&[1, 2, 3]).expect_err("tripped");
    assert!(
        matches!(err, ClientError::CircuitOpen { retry_in_ms } if retry_in_ms > 0),
        "unexpected error {err:?}"
    );
    let m = client.metrics().snapshot();
    assert_eq!(m.breaker_trips, 1);
    assert_eq!(m.breaker_rejections, 1);
    assert_eq!(m.io_errors, 2);
    assert_eq!(m.connects, 2, "no connection after the trip");
    drop(client);
    server.join().unwrap();
}
