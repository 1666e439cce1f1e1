//! End-to-end observability contract for the server: wire trace
//! context is honored, every score request decomposes into the six
//! canonical latency stages, and the SLO burn-rate alarms fire under
//! an injected slow-inference fault but stay silent when idle.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_obs::slo::{BurnWindow, Objective, SloSpec};
use maleva_obs::trace::{self, Sink};
use maleva_serve::{spawn, FaultAction, FaultPlan, FaultSite, ServeConfig, ServerHandle};

/// The tracer sink is process-global; serialize the tests that touch
/// it (and those that emit spans concurrently) in this binary.
fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context"))
}

fn spawn_with(config: ServeConfig) -> ServerHandle {
    spawn(ctx().detector.clone(), config).expect("spawn server")
}

/// One connection, one response line per request line.
fn raw_roundtrips(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
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

/// Sends `{"cmd":"metrics"}` and reads the multi-line exposition block
/// up to its `# EOF` marker.
fn raw_metrics_block(addr: std::net::SocketAddr) -> String {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"cmd\":\"metrics\"}\n").expect("write");
    let mut block = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read exposition line");
        if line.trim_end() == "# EOF" || line.is_empty() {
            break;
        }
        block.push_str(&line);
    }
    block
}

fn traced_score_line(counts: &[u32], trace_id: u64, span_id: u64) -> String {
    let entries: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\"features\":[{}],\"trace_id\":{trace_id},\"span_id\":{span_id}}}",
        entries.join(",")
    )
}

#[test]
fn traced_requests_decompose_into_six_stages() {
    let _guard = sink_lock();
    let captured = trace::install_memory_sink();

    // No cache so every request runs the full queue → batch → inference
    // path; tiny batch timeout keeps the test fast.
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0,
        batch_timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    let test = ctx().dataset.test();
    const N: u64 = 8;
    let lines: Vec<String> = (0..N)
        .map(|i| {
            let counts = test[i as usize % test.len()].counts();
            traced_score_line(counts, 1000 + i, 2000 + i)
        })
        .collect();
    let responses = raw_roundtrips(handle.addr(), &lines);
    for resp in &responses {
        assert!(resp.starts_with("{\"score\":"), "{resp}");
    }
    handle.shutdown();
    trace::install(Sink::Disabled).expect("disable sink");

    let captured_lines = captured.lines();
    let report = maleva_obs::report::analyze_lines(captured_lines.iter().map(|s| s.as_str()), 5);
    assert_eq!(report.parse_errors, 0, "tracer emitted unparseable lines");
    // Every score request is a staged serve.request exit whose six
    // stages account for the span duration within one bucket.
    assert!(
        report.staged_requests >= N as usize,
        "expected >= {N} staged requests, report:\n{}",
        report.render_text()
    );
    assert_eq!(
        report.stage_sum_within_tolerance,
        report.staged_requests,
        "stage decomposition leaks latency, report:\n{}",
        report.render_text()
    );
    // The inbound trace context is visible on the server side, both on
    // the request span and on the batch membership events.
    assert!(
        report.server_traces >= N as usize,
        "server-side traces missing, report:\n{}",
        report.render_text()
    );
    let batch_tagged = captured_lines
        .iter()
        .filter(|l| l.contains("\"name\":\"serve.batch.job\"") && l.contains("\"trace_id\":10"))
        .count();
    assert!(
        batch_tagged >= N as usize,
        "expected every traced job tagged in its batch, got {batch_tagged}:\n{}",
        captured_lines.join("\n")
    );
    // Exemplars carry the wire trace id, not a server-internal one.
    assert!(report
        .exemplars
        .iter()
        .all(|e| (1000..1000 + N).contains(&e.trace_id)));
}

#[test]
fn slo_alarm_fires_under_slow_inference_and_stays_silent_when_idle() {
    let _guard = sink_lock();

    // Idle soak first: default objectives, nothing happening — every
    // alarm reports silent over the wire and via the typed handle.
    let idle = spawn_with(ServeConfig::default());
    let wire = raw_roundtrips(idle.addr(), &["{\"cmd\":\"slo\"}".to_string()]);
    assert!(wire[0].starts_with("{\"slo\":{"), "{}", wire[0]);
    assert!(!wire[0].contains("\"firing\":true"), "{}", wire[0]);
    let report = idle.slo();
    assert_eq!(report.alarms.len(), 3);
    assert!(report.alarms.iter().all(|a| !a.firing), "{report:?}");
    idle.shutdown();

    // Now a server whose every inference sleeps 20ms, with a tight
    // latency SLO over a short window so the test observes a full
    // window of bad requests quickly.
    let slow = FaultPlan::disabled()
        .with(FaultSite::ScoreDelay, FaultAction::EveryNth(1))
        .with_delay(Duration::from_millis(20));
    let handle = spawn_with(ServeConfig {
        cache_capacity: 0,
        batch_timeout: Duration::from_millis(1),
        faults: slow,
        slos: vec![SloSpec {
            name: "slow_p99".to_string(),
            objective: Objective::LatencyAbove {
                histogram: "serve_request_latency_us".to_string(),
                threshold_us: 1_000,
            },
            target: 0.9,
            windows: vec![BurnWindow {
                window: Duration::from_millis(50),
                max_burn_rate: 1.0,
            }],
        }],
        ..ServeConfig::default()
    });
    // Baseline snapshot before the burst so the window has history.
    let baseline = handle.slo();
    assert!(!baseline.alarms[0].firing);

    let test = ctx().dataset.test();
    let lines: Vec<String> = (0..6)
        .map(|i| {
            let entries: Vec<String> = test[i % test.len()]
                .counts()
                .iter()
                .map(|c| c.to_string())
                .collect();
            format!("{{\"features\":[{}]}}", entries.join(","))
        })
        .collect();
    raw_roundtrips(handle.addr(), &lines);
    // Let the evaluation clock cover the 50ms window.
    std::thread::sleep(Duration::from_millis(60));

    let firing = handle.slo();
    let alarm = &firing.alarms[0];
    assert!(alarm.firing, "expected slow_p99 to fire: {firing:?}");
    assert!(alarm.windows[0].covered);
    assert!(alarm.windows[0].burn_rate > 1.0, "{alarm:?}");
    assert!(alarm.windows[0].bad >= 6, "{alarm:?}");

    // The alarm state is mirrored on the wire and in the exposition.
    let wire = raw_roundtrips(handle.addr(), &["{\"cmd\":\"slo\"}".to_string()]);
    assert!(
        wire[0].contains("\"name\":\"slow_p99\"") && wire[0].contains("\"firing\":true"),
        "{}",
        wire[0]
    );
    let exposition = raw_metrics_block(handle.addr());
    assert!(exposition.contains("slo_alarm_slow_p99 1"), "{exposition}");
    assert!(
        exposition.contains("slo_alarm_transitions_total 1"),
        "{exposition}"
    );
    handle.shutdown();
}

#[test]
fn non_finite_slo_burn_rates_are_rejected_at_spawn() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut slos = maleva_serve::default_serve_slos();
        slos[1].windows[1].max_burn_rate = bad;
        let config = ServeConfig {
            slos,
            ..ServeConfig::default()
        };
        let err = spawn(ctx().detector.clone(), config)
            .err()
            .unwrap_or_else(|| panic!("max_burn_rate {bad} was accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("error_rate"), "{err}");
    }
}
