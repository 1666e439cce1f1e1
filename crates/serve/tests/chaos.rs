//! Chaos soak: mixed traffic from resilient clients against a live
//! server with deterministic fault injection at every site — connection
//! resets at accept, slow/partial reads and writes, dropped responses,
//! scorer panics (batch and per-row), and artificial scoring latency.
//!
//! The contract under chaos:
//!
//! * **nothing lost** — every client call terminates with a score or a
//!   typed error (no hangs, no silent drops);
//! * **nothing corrupted** — every successful reply is bit-identical to
//!   the offline oracle;
//! * **bounded error rate** — retries soak up most injected faults;
//! * **clean drain** — after the storm, health answers and shutdown
//!   joins every thread.
//!
//! The fault schedule is a pure function of the seed
//! (`MALEVA_CHAOS_SEED`, default 7), so CI can run a seed matrix and
//! any failure reproduces locally with the same seed. When
//! `MALEVA_CHAOS_OUT` names a file, the test dumps server stats, fault
//! counters, and per-client resilience metrics there as JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use maleva_client::{
    BackoffPolicy, BreakerConfig, ClientConfig, ClientError, ClientMetricsSnapshot, ScoreClient,
};
use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_serve::{
    spawn, FaultAction, FaultPlan, FaultSite, MetricsSnapshot, ServeConfig, ServerHandle,
};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 60;
const KEYSPACE: usize = 24;

/// Installs a panic hook that swallows the *intentionally injected*
/// scorer panics (their payload contains "injected fault") so the test
/// log stays readable, while forwarding every real panic.
fn quiet_injected_panics() {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context"))
}

/// The offline oracle: the bit pattern every successful reply for
/// `counts` must carry.
fn oracle_bits(counts: &[u32]) -> u64 {
    let detector = &ctx().detector;
    let features = detector.features().transform_counts(counts);
    maleva_serve::score_rows(detector.network(), std::slice::from_ref(&features))
        .expect("oracle forward")[0]
        .to_bits()
}

fn request_pool() -> Vec<(Vec<u32>, u64)> {
    let test = ctx().dataset.test();
    (0..KEYSPACE)
        .map(|i| {
            let counts = test[i % test.len()].counts().to_vec();
            let bits = oracle_bits(&counts);
            (counts, bits)
        })
        .collect()
}

fn spawn_with(config: ServeConfig) -> ServerHandle {
    spawn(ctx().detector.clone(), config).expect("spawn server")
}

fn chaos_seed() -> u64 {
    std::env::var("MALEVA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7)
}

/// Raw single-connection request helper for the targeted tests.
fn raw_roundtrips(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writer.write_all(line.as_bytes()).expect("write");
            writer.write_all(b"\n").expect("write newline");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read response");
            resp.trim_end().to_string()
        })
        .collect()
}

fn render_line(counts: &[u32]) -> String {
    let entries: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("{{\"features\":[{}]}}", entries.join(","))
}

fn score_bits(line: &str) -> u64 {
    assert!(
        line.starts_with("{\"score\":"),
        "expected a score response, got: {line}"
    );
    let rest = &line["{\"score\":".len()..];
    let end = rest.find(',').expect("fields after score");
    rest[..end].parse::<f64>().expect("score parses").to_bits()
}

/// Regression for silent job loss: with EVERY batched forward panicking,
/// the scorer loop must survive, fall back to per-row scoring, and
/// answer every request bit-identically — no dropped replies, no dead
/// scorer thread.
#[test]
fn scorer_panic_loses_no_jobs_and_keeps_scores_bit_identical() {
    quiet_injected_panics();
    let plan = FaultPlan::disabled()
        .with_seed(3)
        .with(FaultSite::BatchPanic, FaultAction::EveryNth(1));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0, // every request must reach the scorer
        batch_timeout: Duration::from_millis(1),
        faults: plan,
        ..ServeConfig::default()
    });

    let pool = request_pool();
    let lines: Vec<String> = (0..20)
        .map(|i| render_line(&pool[i % pool.len()].0))
        .collect();
    let responses = raw_roundtrips(handle.addr(), &lines);
    for (i, resp) in responses.iter().enumerate() {
        let (_, want) = &pool[i % pool.len()];
        assert_eq!(score_bits(resp), *want, "request {i} corrupted: {resp}");
    }

    let stats = handle.shutdown();
    assert_eq!(stats.requests, 20);
    assert_eq!(stats.errors, 0, "no request may be lost to a panic");
    assert_eq!(stats.rows_scored, 20);
    assert!(
        stats.scorer_panics >= 20,
        "every batch panicked: {}",
        stats.scorer_panics
    );
    assert_eq!(stats.row_failures, 0);
}

/// A poisoned row fails alone with a typed `internal` error; its
/// neighbors still get bit-exact scores and the scorer loop survives.
#[test]
fn poisoned_rows_fail_alone_with_typed_internal_errors() {
    quiet_injected_panics();
    let plan = FaultPlan::disabled()
        .with_seed(5)
        .with(FaultSite::BatchPanic, FaultAction::EveryNth(1))
        .with(FaultSite::RowPanic, FaultAction::EveryNth(5));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0,
        batch_timeout: Duration::from_millis(1),
        faults: plan,
        ..ServeConfig::default()
    });

    let pool = request_pool();
    let lines: Vec<String> = (0..20)
        .map(|i| render_line(&pool[i % pool.len()].0))
        .collect();
    let responses = raw_roundtrips(handle.addr(), &lines);

    let mut internal = 0u64;
    for (i, resp) in responses.iter().enumerate() {
        if resp.starts_with("{\"error\":") {
            assert!(
                resp.contains("\"kind\":\"internal\"") && resp.contains("injected fault"),
                "unexpected error body: {resp}"
            );
            internal += 1;
        } else {
            let (_, want) = &pool[i % pool.len()];
            assert_eq!(score_bits(resp), *want, "request {i} corrupted: {resp}");
        }
    }
    assert!(internal >= 1, "the poisoned rows must surface");
    assert!(internal <= 20 / 5 + 1, "only poisoned rows may fail");

    // The scorer is still alive: a fresh request scores cleanly.
    let extra = raw_roundtrips(handle.addr(), &[render_line(&pool[0].0)]);
    if !extra[0].starts_with("{\"error\":") {
        assert_eq!(score_bits(&extra[0]), pool[0].1);
    }

    let stats = handle.shutdown();
    assert_eq!(
        stats.row_failures,
        internal + u64::from(extra[0].starts_with("{\"error\":"))
    );
    assert_eq!(stats.errors, stats.row_failures);
}

/// A detector whose weights are all finite but overflow in the forward
/// pass scores NaN. The server fails such a row closed — a typed
/// `internal` error, never a `clean` verdict — and never caches it, so
/// the repeat is scored (and refused) again; the sentinel records no
/// verdict for it.
#[test]
fn a_non_finite_score_is_an_internal_error_and_never_cached() {
    let mut network = ctx().detector.network().clone();
    let depth = network.layers().len();
    for layer in &mut network.layers_mut()[depth - 2..] {
        for w in layer.weights_mut().as_mut_slice() {
            *w *= 1e200;
        }
    }
    let detector = ctx()
        .detector
        .clone()
        .with_network(network)
        .expect("same widths");
    let sample = ctx()
        .dataset
        .test()
        .iter()
        .map(|program| program.counts().to_vec())
        .find(|counts| {
            let features = detector.features().transform_counts(counts);
            let score = maleva_serve::score_rows(detector.network(), &[features]).unwrap()[0];
            !score.is_finite()
        })
        .expect("a test sample that overflows the scaled detector");
    let handle = spawn(
        detector,
        ServeConfig {
            sentinel: maleva_serve::SentinelConfig {
                enabled: true,
                ..Default::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");

    let line = format!(
        "{{\"features\":[{}],\"client_id\":\"overflow\"}}",
        sample
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let responses = raw_roundtrips(handle.addr(), &[line.clone(), line]);
    for resp in &responses {
        assert!(
            resp.starts_with("{\"error\":") && resp.contains("\"kind\":\"internal\""),
            "a NaN score must not reach the wire as a verdict: {resp}"
        );
    }
    assert!(
        handle.sentinel().client("overflow").is_none(),
        "the sentinel got a verdict for a failed row"
    );

    let stats = handle.shutdown();
    assert_eq!(stats.cache_hits, 0, "a failed score was cached");
    assert_eq!(stats.row_failures, 2);
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.rows_scored, 0);
}

/// With the scorer artificially slowed and a shed threshold of one
/// queued job, concurrent clients must see `overloaded` rejections
/// carrying a positive `retry_after_ms` hint.
#[test]
fn admission_control_sheds_with_a_retry_hint() {
    quiet_injected_panics();
    let plan = FaultPlan::disabled()
        .with_seed(1)
        .with(FaultSite::ScoreDelay, FaultAction::EveryNth(1))
        .with_delay(Duration::from_millis(30));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0,
        batch_timeout: Duration::from_millis(1),
        max_batch: 1, // one row per batch: the backlog stays queued
        shed_queue_depth: 1,
        faults: plan,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let pool = request_pool();
    let workers: Vec<_> = (0..8)
        .map(|c| {
            let line = render_line(&pool[c % pool.len()].0);
            std::thread::spawn(move || raw_roundtrips(addr, &[line])[0].clone())
        })
        .collect();
    let responses: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let shed: Vec<&String> = responses
        .iter()
        .filter(|r| r.starts_with("{\"error\":"))
        .collect();
    for resp in &shed {
        assert!(resp.contains("\"kind\":\"overloaded\""), "{resp}");
        assert!(resp.contains("\"retryable\":true"), "{resp}");
        let hint: u64 = resp
            .split("\"retry_after_ms\":")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .and_then(|num| num.trim().parse().ok())
            .unwrap_or_else(|| panic!("overloaded without retry_after_ms: {resp}"));
        assert!(hint > 0, "hint must be positive: {resp}");
    }

    let stats = handle.shutdown();
    assert!(
        stats.shed >= 1,
        "8 concurrent clients against a 30ms/row scorer with shed depth 1 \
         must shed at least once (shed={})",
        stats.shed
    );
    assert_eq!(stats.shed as usize, shed.len());
}

/// A wedged scorer turns into a typed `deadline_exceeded` response
/// within the configured budget — never a hanging connection.
#[test]
fn slow_scorer_yields_typed_deadline_exceeded() {
    quiet_injected_panics();
    let plan = FaultPlan::disabled()
        .with_seed(2)
        .with(FaultSite::ScoreDelay, FaultAction::EveryNth(1))
        .with_delay(Duration::from_millis(250));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0,
        batch_timeout: Duration::from_millis(1),
        request_deadline: Duration::from_millis(40),
        faults: plan,
        ..ServeConfig::default()
    });

    let pool = request_pool();
    let start = std::time::Instant::now();
    let responses = raw_roundtrips(handle.addr(), &[render_line(&pool[0].0)]);
    let elapsed = start.elapsed();
    assert!(
        responses[0].contains("\"kind\":\"deadline_exceeded\"")
            && responses[0].contains("\"retryable\":true"),
        "expected deadline_exceeded, got: {responses:?}"
    );
    assert!(
        elapsed < Duration::from_millis(200),
        "deadline response took {elapsed:?} (must beat the 250ms scorer)"
    );

    let stats = handle.shutdown();
    assert!(stats.deadline_exceeded >= 1);
}

/// `{"cmd": "health"}` exposes queue depth, drain state, and the
/// per-site fault counters.
#[test]
fn health_endpoint_reports_queue_drain_and_fault_state() {
    quiet_injected_panics();
    let plan = FaultPlan::disabled()
        .with_seed(4)
        .with(FaultSite::BatchPanic, FaultAction::EveryNth(1));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0,
        batch_timeout: Duration::from_millis(1),
        faults: plan,
        ..ServeConfig::default()
    });

    let pool = request_pool();
    let responses = raw_roundtrips(
        handle.addr(),
        &[render_line(&pool[0].0), "{\"cmd\":\"health\"}".to_string()],
    );
    let health = &responses[1];
    assert!(health.starts_with("{\"health\":{"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"draining\":false"), "{health}");
    assert!(health.contains("\"queue_depth\":"), "{health}");
    assert!(health.contains("\"scorer_panics\":1"), "{health}");
    assert!(health.contains("[\"batch_panic\",1]"), "{health}");

    // The handle-side accessors agree with the wire.
    assert_eq!(handle.health().scorer_panics, 1);
    let fired: u64 = handle
        .fault_counts()
        .into_iter()
        .map(|(_, count)| count)
        .sum();
    assert_eq!(fired, 1);
    handle.shutdown();
}

/// JSON artifact for CI: enough to diagnose a failed seed offline.
#[derive(serde::Serialize)]
struct ChaosDump {
    seed: u64,
    sent: u64,
    ok: u64,
    failed: u64,
    server: MetricsSnapshot,
    faults: Vec<(String, u64)>,
    clients: Vec<ClientMetricsSnapshot>,
}

/// The headline chaos soak — see the module docs for the contract.
#[test]
fn chaos_soak_loses_nothing_corrupts_nothing_and_drains_clean() {
    quiet_injected_panics();
    let seed = chaos_seed();
    let plan = FaultPlan::disabled()
        .with_seed(seed)
        .with(FaultSite::AcceptReset, FaultAction::EveryNth(5))
        .with(FaultSite::SlowRead, FaultAction::EveryNth(23))
        .with(FaultSite::SlowWrite, FaultAction::EveryNth(29))
        .with(FaultSite::WriteReset, FaultAction::EveryNth(17))
        .with(FaultSite::BatchPanic, FaultAction::EveryNth(7))
        .with(FaultSite::RowPanic, FaultAction::EveryNth(11))
        .with(FaultSite::ScoreDelay, FaultAction::EveryNth(5))
        .with_delay(Duration::from_millis(1));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0, // every request exercises the scorer path
        max_batch: 8,
        batch_timeout: Duration::from_millis(1),
        request_deadline: Duration::from_secs(5),
        faults: plan,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let pool = request_pool();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut client = ScoreClient::new(ClientConfig {
                    addr: addr.to_string(),
                    client_id: Some(format!("chaos-{c}")),
                    connect_timeout: Duration::from_secs(2),
                    io_timeout: Duration::from_secs(5),
                    call_deadline: Duration::from_secs(10),
                    max_attempts: 6,
                    backoff: BackoffPolicy {
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(50),
                        jitter_frac: 0.5,
                        seed: seed ^ c as u64,
                    },
                    breaker: BreakerConfig {
                        failure_threshold: 5,
                        cooldown_ms: 100,
                        half_open_probes: 1,
                        probe_timeout_ms: 1_000,
                    },
                    retry_budget_cap: 20.0,
                    retry_budget_deposit: 0.5,
                });
                let mut ok = 0u64;
                let mut failed = 0u64;
                for r in 0..REQUESTS_PER_CLIENT {
                    let (counts, want_bits) = &pool[(c * 11 + r) % pool.len()];
                    match client.score_counts(counts) {
                        Ok(outcome) => {
                            // The hard corruption bar: bit-identical to
                            // the offline oracle, chaos or not.
                            assert_eq!(
                                outcome.score.to_bits(),
                                *want_bits,
                                "client {c} request {r}: corrupted score {}",
                                outcome.score
                            );
                            ok += 1;
                        }
                        // Typed, accounted failure — acceptable, lost
                        // or hung — never.
                        Err(
                            ClientError::Server { .. }
                            | ClientError::RetriesExhausted { .. }
                            | ClientError::BudgetExhausted { .. }
                            | ClientError::DeadlineExceeded { .. }
                            | ClientError::CircuitOpen { .. },
                        ) => failed += 1,
                        Err(other) => panic!("client {c} request {r}: unexpected {other:?}"),
                    }
                }
                (ok, failed, client.metrics().snapshot())
            })
        })
        .collect();

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut clients: Vec<ClientMetricsSnapshot> = Vec::new();
    for w in workers {
        let (o, f, m) = w.join().expect("chaos worker panicked");
        ok += o;
        failed += f;
        clients.push(m);
    }
    let sent = (CLIENTS * REQUESTS_PER_CLIENT) as u64;

    // Nothing lost: every call terminated with a score or typed error.
    assert_eq!(ok + failed, sent);
    // Bounded client-visible error rate: retries soak up the chaos.
    let ok_rate = ok as f64 / sent as f64;
    assert!(
        ok_rate >= 0.85,
        "ok rate {ok_rate:.3} below bound (ok={ok}, failed={failed}, seed={seed})"
    );

    // The storm actually happened: every site fired, including at
    // least one scorer panic per run.
    let faults = handle.fault_counts();
    for (site, fired) in &faults {
        assert!(*fired >= 1, "fault site {site} never fired (seed={seed})");
    }

    // Health answers after the storm, then the drain is clean.
    let mut probe = ScoreClient::connect_to(&addr.to_string());
    let health = loop {
        // The prober is subject to accept/write faults too — retry it.
        match probe.command("health") {
            Ok(line) => break line,
            Err(ClientError::Io { .. }) => continue,
            Err(other) => panic!("health probe failed: {other:?}"),
        }
    };
    assert!(health.starts_with("{\"health\":{"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let stats = handle.shutdown();
    assert!(stats.scorer_panics >= 1, "no scorer panic in the soak");
    assert!(stats.rows_scored > 0);
    let total_retries: u64 = clients.iter().map(|m| m.retries).sum();
    assert!(
        total_retries >= 1,
        "chaos without a single retry means the faults were not felt"
    );

    if let Ok(path) = std::env::var("MALEVA_CHAOS_OUT") {
        let dump = ChaosDump {
            seed,
            sent,
            ok,
            failed,
            server: stats,
            faults: faults
                .into_iter()
                .map(|(site, fired)| (site.to_string(), fired))
                .collect(),
            clients,
        };
        let json = serde_json::to_string(&dump).expect("dump serializes");
        std::fs::write(&path, json).expect("write chaos dump");
    }
}
