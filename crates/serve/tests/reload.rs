//! Hot-reload soak and shard-merge consistency tests.
//!
//! The contract under test: `{"cmd": "reload"}` swaps the model
//! atomically at a batch boundary, so under concurrent traffic every
//! response is bit-identical to exactly one of the candidate models'
//! offline oracles — no request is ever scored by a half-installed
//! model — and a failed reload (bad artifact, chaos faults) leaves the
//! serving generation untouched. Separately, a `{"cmd": "stats"}`
//! taken mid-traffic on a sharded server must be snapshot-consistent:
//! the merged counters equal the per-shard sums in the same response;
//! and the Prometheus exposition and the SLO engine count every shard.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_nn::{Activation, Network, NetworkBuilder};
use maleva_obs::slo::{BurnWindow, Objective, SloSpec};
use maleva_serve::{spawn, FaultPlan, ScoreResponse, ServeConfig, ServerHandle};
use maleva_wire::{MetricsSnapshot, Stats};

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context"))
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("maleva-reload-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// An alternate network with the same shape contract as the boot model
/// but different (seed-determined) weights.
fn alternate_network(seed: u64) -> Network {
    let dim = ctx().detector.features().dim();
    NetworkBuilder::new(dim)
        .layer(8, Activation::ReLU)
        .layer(2, Activation::Identity)
        .seed(seed)
        .build()
        .expect("alternate network")
}

/// Writes `network` as a JSON export and returns the path.
fn export(dir: &std::path::Path, name: &str, network: &Network) -> String {
    let path = dir.join(name);
    std::fs::write(&path, network.to_json().expect("to_json")).expect("write export");
    path.to_str().expect("utf8 path").to_string()
}

/// Offline oracle for `counts` under an arbitrary network (through the
/// serving pipeline's feature transform).
fn oracle_bits(network: &Network, counts: &[u32]) -> u64 {
    let features = ctx().detector.features().transform_counts(counts);
    maleva_serve::score_rows(network, std::slice::from_ref(&features)).expect("oracle forward")[0]
        .to_bits()
}

fn render_line(counts: &[u32]) -> String {
    let entries: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("{{\"features\":[{}]}}", entries.join(","))
}

struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone stream");
        Wire {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write newline");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        resp.trim_end().to_string()
    }
}

/// Decodes a score reply line; anything else fails the test.
fn score_reply(line: &str) -> ScoreResponse {
    maleva_wire::decode(line)
        .unwrap_or_else(|e| panic!("expected a score response, got {line}: {e:?}"))
}

/// Every response under a reload storm is bit-identical to exactly one
/// of the candidate models, and its `generation` tag maps to that
/// model consistently — no request straddles a swap.
#[test]
fn reload_soak_every_response_belongs_to_exactly_one_model() {
    let dir = scratch("soak");
    let boot = ctx().detector.network().clone();
    let alt = alternate_network(9001);
    let boot_path = export(&dir, "boot.json", &boot);
    let alt_path = export(&dir, "alt.json", &alt);

    let handle = spawn(
        ctx().detector.clone(),
        ServeConfig {
            shards: 2,
            batch_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr();

    let test = ctx().dataset.test();
    let pool: Vec<(String, u64, u64)> = (0..12)
        .map(|i| {
            let counts = test[i % test.len()].counts();
            (
                render_line(counts),
                oracle_bits(&boot, counts),
                oracle_bits(&alt, counts),
            )
        })
        .collect();

    // Controller: alternate installing the two models while the
    // clients are mid-flight. Odd installs serve `alt`, even ones
    // (and generation 0) serve `boot` weights.
    let stop = Arc::new(AtomicBool::new(false));
    let controller = {
        let stop = Arc::clone(&stop);
        let mut client = maleva_client::ScoreClient::connect_to(&addr.to_string());
        std::thread::spawn(move || {
            let mut flips = 0u64;
            let mut last_generation = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let path = if flips.is_multiple_of(2) {
                    &alt_path
                } else {
                    &boot_path
                };
                let info = client.reload(path).expect("reload");
                assert_eq!(
                    info.generation,
                    last_generation + 1,
                    "generations are dense and monotonic"
                );
                last_generation = info.generation;
                flips += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            last_generation
        })
    };

    let workers: Vec<_> = (0..4)
        .map(|c| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                for r in 0..200 {
                    let (line, boot_bits, alt_bits) = &pool[(c * 5 + r) % pool.len()];
                    let resp = wire.roundtrip(line);
                    let reply = score_reply(&resp);
                    let (got, generation) = (reply.score.to_bits(), reply.generation);
                    // Bit-identical to exactly one candidate…
                    assert!(
                        got == *boot_bits || got == *alt_bits,
                        "client {c} request {r}: score matches neither model: {resp}"
                    );
                    // …and the generation tag agrees with the weights:
                    // odd installs are `alt`, even ones are `boot`.
                    let expect = if !generation.is_multiple_of(2) {
                        *alt_bits
                    } else {
                        *boot_bits
                    };
                    assert_eq!(
                        got, expect,
                        "client {c} request {r}: generation {generation} served \
                         the other model's bits: {resp}"
                    );
                }
            })
        })
        .collect();

    for w in workers {
        w.join().expect("client thread");
    }
    stop.store(true, Ordering::SeqCst);
    let installed = controller.join().expect("controller thread");
    assert!(installed >= 2, "the storm actually swapped models");
    assert_eq!(handle.generation(), installed);

    let stats = handle.shutdown();
    assert_eq!(stats.requests, 4 * 200, "every request counted once");
}

/// `{"cmd": "stats"}` taken mid-traffic on a 4-shard server is
/// snapshot-consistent: the merged counters equal the sums of the
/// `shards` array in the same response — the regression pin for the
/// mid-drain merge.
#[test]
fn stats_merge_is_snapshot_consistent_under_concurrent_traffic() {
    let handle = spawn(
        ctx().detector.clone(),
        ServeConfig {
            shards: 4,
            batch_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr();

    let test = ctx().dataset.test();
    let pool: Vec<String> = (0..16)
        .map(|i| render_line(test[i % test.len()].counts()))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..8)
        .map(|c| {
            let pool = pool.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                let mut r = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let resp = wire.roundtrip(&pool[(c * 3 + r) % pool.len()]);
                    assert!(resp.starts_with("{\"score\":"), "unexpected: {resp}");
                    r += 1;
                }
            })
        })
        .collect();

    let mut stats_wire = Wire::connect(addr);
    for probe in 0..25 {
        let line = stats_wire.roundtrip("{\"cmd\":\"stats\"}");
        let stats: Stats = maleva_wire::decode(&line).expect("stats body");
        assert_eq!(stats.shards.len(), 4, "one entry per shard");
        type Counter = fn(&MetricsSnapshot) -> u64;
        let counters: [(&str, Counter); 6] = [
            ("requests", |s| s.requests),
            ("errors", |s| s.errors),
            ("cache_hits", |s| s.cache_hits),
            ("cache_misses", |s| s.cache_misses),
            ("batches", |s| s.batches),
            ("rows_scored", |s| s.rows_scored),
        ];
        for (key, counter) in counters {
            let sum: u64 = stats.shards.iter().map(counter).sum();
            assert_eq!(
                counter(&stats.merged),
                sum,
                "probe {probe}: merged `{key}` diverges from its per-shard sum: {line}"
            );
        }
    }

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("client thread");
    }
    drop(handle);
}

/// Reads a `{"cmd": "metrics"}` exposition block up to its `# EOF`
/// marker.
fn metrics_block(wire: &mut Wire) -> String {
    wire.writer
        .write_all(b"{\"cmd\":\"metrics\"}\n")
        .expect("write");
    let mut block = String::new();
    loop {
        let mut line = String::new();
        wire.reader.read_line(&mut line).expect("read exposition");
        if line.trim_end() == "# EOF" || line.is_empty() {
            return block;
        }
        block.push_str(&line);
    }
}

/// The value of the unlabelled series `name` in an exposition block.
fn series(block: &str, name: &str) -> u64 {
    block
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{name}` series in {block}"))
        .parse()
        .expect("integer series value")
}

/// On a 4-shard server the Prometheus exposition and the SLO engine
/// see every shard: after traffic with malformed lines on several
/// shards stops, the exposition's counters equal the `stats` body's
/// merged view and its per-shard sums, and an `error_rate` alarm
/// counts every shard's errors.
#[test]
fn exposition_and_slo_count_every_shard() {
    let handle = spawn(
        ctx().detector.clone(),
        ServeConfig {
            shards: 4,
            batch_timeout: Duration::from_millis(1),
            slos: vec![SloSpec {
                name: "error_rate".to_string(),
                objective: Objective::EventRatio {
                    numerator: "serve_errors_total".to_string(),
                    denominator: "serve_requests_total".to_string(),
                },
                target: 0.99,
                windows: vec![BurnWindow {
                    window: Duration::from_millis(50),
                    max_burn_rate: 1.0,
                }],
            }],
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr();
    // Baseline before any traffic, so the window's history starts at 0.
    assert!(!handle.slo().alarms[0].firing);

    let test = ctx().dataset.test();
    let pool: Vec<String> = (0..16)
        .map(|i| render_line(test[i % test.len()].counts()))
        .collect();
    // Connected in order, so accept round-robin puts connection `c` on
    // shard `c % 4`; every connection off shard 0 also sends malformed
    // lines.
    let wires: Vec<Wire> = (0..8).map(|_| Wire::connect(addr)).collect();
    let workers: Vec<_> = wires
        .into_iter()
        .enumerate()
        .map(|(c, mut wire)| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                for r in 0..30 {
                    let resp = wire.roundtrip(&pool[(c * 3 + r) % pool.len()]);
                    assert!(resp.starts_with("{\"score\":"), "unexpected: {resp}");
                    if c % 4 != 0 && r % 3 == 0 {
                        let resp = wire.roundtrip("not a request");
                        assert!(resp.starts_with("{\"error\":"), "unexpected: {resp}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let mut wire = Wire::connect(addr);
    let stats: Stats = maleva_wire::decode(&wire.roundtrip("{\"cmd\":\"stats\"}")).expect("stats");
    let block = metrics_block(&mut wire);
    assert_eq!(stats.shards.len(), 4);
    assert!(
        stats.shards.iter().filter(|s| s.errors > 0).count() >= 2,
        "errors should land on several shards: {:?}",
        stats.shards.iter().map(|s| s.errors).collect::<Vec<_>>()
    );
    type Read = fn(&MetricsSnapshot) -> u64;
    let series_of: [(&str, Read); 4] = [
        ("serve_requests_total", |s| s.requests),
        ("serve_errors_total", |s| s.errors),
        ("serve_cache_hits_total", |s| s.cache_hits),
        ("serve_request_latency_us_count", |s| {
            s.latency_buckets_us.iter().sum()
        }),
    ];
    for (name, read) in series_of {
        let exposed = series(&block, name);
        assert_eq!(exposed, read(&stats.merged), "`{name}` vs merged stats");
        let per_shard: u64 = stats.shards.iter().map(read).sum();
        assert_eq!(exposed, per_shard, "`{name}` vs per-shard sum");
    }
    assert_eq!(
        stats.merged.requests,
        8 * 30,
        "every score request counted once"
    );

    // Let the evaluation clock cover the window past the baseline.
    std::thread::sleep(Duration::from_millis(60));
    let report = handle.slo();
    let window = &report.alarms[0].windows[0];
    assert!(window.covered, "{report:?}");
    assert_eq!(window.bad, stats.merged.errors, "{report:?}");
    assert_eq!(window.total, stats.merged.requests, "{report:?}");
    assert!(report.alarms[0].firing, "{report:?}");
    drop(handle);
}

/// A reload that fails — a bad artifact, with chaos faults firing
/// around it — answers with a typed `reload_failed` error and leaves
/// the serving generation coherent: scoring continues bit-identical to
/// the installed model, never a torn swap.
#[test]
fn failed_and_chaotic_reloads_never_tear_the_generation() {
    let dir = scratch("chaos");
    let boot = ctx().detector.network().clone();
    let alt = alternate_network(4242);
    let alt_path = export(&dir, "alt.json", &alt);
    let wrong = NetworkBuilder::new(ctx().detector.features().dim() + 5)
        .layer(4, Activation::ReLU)
        .layer(2, Activation::Identity)
        .seed(13)
        .build()
        .expect("wrong-shaped network");
    let wrong_path = export(&dir, "wrong.json", &wrong);

    // Aggressive deterministic faults on every site that can interleave
    // with a reload: slow reads/writes, batch/row panics, score delays.
    let faults = FaultPlan::parse(
        "seed=11,slow_read=@5,slow_write=@4,score_delay=@3,batch_panic=@7,row_panic=@6,delay_ms=2",
    )
    .expect("fault plan");
    let handle: ServerHandle = spawn(
        ctx().detector.clone(),
        ServeConfig {
            shards: 2,
            batch_timeout: Duration::from_millis(1),
            faults,
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr();

    let test = ctx().dataset.test();
    let counts = test[0].counts();
    let line = render_line(counts);
    let boot_bits = oracle_bits(&boot, counts);
    let alt_bits = oracle_bits(&alt, counts);

    let mut wire = Wire::connect(addr);
    let mut generation = 0u64;
    let mut tally: HashMap<&str, u32> = HashMap::new();
    for round in 0u32..60 {
        // Interleave: bad reload, traffic, good reload, traffic.
        let (path, should_fail) = if round.is_multiple_of(2) {
            (&wrong_path, true)
        } else {
            (&alt_path, false)
        };
        let resp = wire.roundtrip(&format!("{{\"cmd\":\"reload\",\"path\":\"{path}\"}}"));
        if should_fail {
            assert!(
                resp.contains("\"kind\":\"reload_failed\""),
                "round {round}: expected a typed reload error, got {resp}"
            );
            *tally.entry("rejected").or_default() += 1;
        } else {
            assert!(
                resp.starts_with("{\"reload\":{\"generation\":"),
                "round {round}: expected a reload ack, got {resp}"
            );
            generation += 1;
            *tally.entry("installed").or_default() += 1;
        }
        assert_eq!(
            handle.generation(),
            generation,
            "round {round}: a failed reload must not advance the generation"
        );
        // Scores keep flowing and stay bit-identical to the installed
        // model (chaos may inject typed internal errors; those are fine,
        // a wrong score is not).
        for _ in 0..3 {
            let resp = wire.roundtrip(&line);
            if resp.starts_with("{\"error\":") {
                *tally.entry("faulted").or_default() += 1;
                continue;
            }
            let want = if generation == 0 { boot_bits } else { alt_bits };
            assert_eq!(
                score_reply(&resp).score.to_bits(),
                want,
                "round {round}: score diverged from the installed model: {resp}"
            );
        }
    }
    assert_eq!(tally["rejected"], 30);
    assert_eq!(tally["installed"], 30);

    let health = handle.health();
    assert_eq!(health.model_generation, generation);
    drop(handle);
}

/// A score sent after a reload carries the generation the reload
/// acknowledged, end to end through the client.
#[test]
fn a_score_after_a_reload_reports_the_acked_generation() {
    let dir = scratch("generation");
    let alt_path = export(&dir, "alt.json", &alternate_network(77));
    let handle = spawn(ctx().detector.clone(), ServeConfig::default()).expect("spawn server");
    let mut client = maleva_client::ScoreClient::connect_to(&handle.addr().to_string());
    let counts = ctx().dataset.test()[0].counts();

    let before = client
        .score_counts(counts)
        .expect("score before the reload");
    assert_eq!(before.generation, 0, "the boot model is generation 0");
    let ack = client.reload(&alt_path).expect("reload");
    assert_eq!(ack.generation, 1);
    let after = client.score_counts(counts).expect("score after the reload");
    assert_eq!(after.generation, ack.generation);
    assert_eq!(
        after.score.to_bits(),
        oracle_bits(&alternate_network(77), counts),
        "scored by the installed model"
    );
    drop(handle);
}

/// Artifacts that used to load (or to crash the server): a file nested
/// far deeper than the JSON parser's 128-level cap, which overflowed
/// the shard thread's stack, and a model with a weight written as
/// `1e400`, which parsed to +∞ and scored every sample NaN — a score the
/// reply reads as "clean". Each is now a typed `reload_failed`: the
/// generation stays, and the shard that parsed it keeps serving.
#[test]
fn deeply_nested_and_non_finite_artifacts_fail_the_reload() {
    let dir = scratch("bad-artifacts");
    let alt = alternate_network(31);
    let alt_path = export(&dir, "alt.json", &alt);
    let nested_path = dir.join("nested.json");
    std::fs::write(&nested_path, "[".repeat(200_000)).expect("write nested file");
    let json = alt.to_json().expect("to_json");
    let at = json.find("\"data\":[").expect("weights") + "\"data\":[".len();
    let end = at + json[at..].find(',').expect("a second weight");
    let poisoned_path = dir.join("poisoned.json");
    std::fs::write(
        &poisoned_path,
        format!("{}1e400{}", &json[..at], &json[end..]),
    )
    .expect("write poisoned export");

    let handle = spawn(ctx().detector.clone(), ServeConfig::default()).expect("spawn server");
    let mut wire = Wire::connect(handle.addr());
    let ack = wire.roundtrip(&format!("{{\"cmd\":\"reload\",\"path\":\"{alt_path}\"}}"));
    assert!(ack.starts_with("{\"reload\":{\"generation\":1"), "{ack}");
    let counts = ctx().dataset.test()[0].counts();
    for (path, cause) in [
        (&nested_path, "nesting deeper than 128"),
        (&poisoned_path, "non-finite value inf in weights"),
    ] {
        let path = path.to_str().expect("utf8 path");
        let resp = wire.roundtrip(&format!("{{\"cmd\":\"reload\",\"path\":\"{path}\"}}"));
        assert!(resp.contains("\"kind\":\"reload_failed\""), "{resp}");
        assert!(resp.contains(cause), "{resp}");
        assert_eq!(handle.generation(), 1);
        let reply = score_reply(&wire.roundtrip(&render_line(counts)));
        assert_eq!(reply.generation, 1);
        assert_eq!(reply.score.to_bits(), oracle_bits(&alt, counts));
    }
    drop(handle);
}
