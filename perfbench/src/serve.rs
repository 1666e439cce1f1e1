//! The serving workloads: closed-loop scoring of the paper-width
//! detector over TCP.
//!
//! * `serve_fresh` cycles through a pool of distinct samples larger than
//!   the score cache and the sentinel window, so every request pays wire
//!   parse, the sentinel's new-key scan, a cache miss and a forward pass.
//! * `serve_repeat` draws Zipf-popular samples from a keyspace that fits
//!   in the cache, so nearly every request is a hit; a fixed number of
//!   hot reloads alternate between two detector exports during the
//!   timed phase.
//!
//! Both detectors are trained offline by a child process (an operator
//! trains offline), so training counts neither in `setup_s` nor in
//! `peak_rss_mb`. Set-up is what `maleva serve --model` pays: read and
//! parse one export, spawn the server in-process, then warm up.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use maleva_apisim::{Class, Dataset, DatasetSpec, World};
use maleva_client::{ClientConfig, ScoreClient};
use maleva_core::models::{target_model, ModelScale};
use maleva_core::DetectorPipeline;
use maleva_features::{CountTransform, FeaturePipeline};
use maleva_nn::{Network, TrainConfig, Trainer};
use maleva_serve::cache::quantize;
use maleva_serve::{spawn, SentinelAction, SentinelConfig, ServeConfig, ServerHandle};
use rand::Rng;

use crate::reference::{check_reply_any, ReferenceDetector};
use crate::stats::{self, Metric};
use crate::{layers, Outcome};

/// Load threads, one `ScoreClient` and connection each (`nproc` here).
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `serve_fresh` pool: larger than the per-shard cache (4096 entries),
/// so cycling through it never finds an entry still cached.
const FRESH_POOL: usize = 6144;
/// `serve_fresh` warm-up samples per client, disjoint from the pool.
const FRESH_WARMUP: usize = 64;
/// `serve_repeat` keyspace: fits in the cache with room to spare.
const REPEAT_KEYS: usize = 1024;
/// Zipf exponent of `serve_repeat` popularity.
const ZIPF_EXPONENT: f64 = 1.1;
/// Hot reloads per `serve_repeat` timed phase.
const RELOADS: usize = 2;
/// Hot reloads after the `serve_fresh` timed phase, which has none of
/// its own; one keeps the run short, as each takes seconds.
const FRESH_RELOADS: usize = 1;
/// Training epochs of each served detector.
const TRAIN_EPOCHS: usize = 1;
/// Client I/O timeout: well above a reload stall, so a stalled request
/// waits instead of timing out and retrying.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(120);
/// How often a phase samples the machine's steal counter.
const STEAL_SAMPLE: Duration = Duration::from_millis(25);
/// Fewest requests the latency percentiles are taken from: enough for
/// ten beyond the 99th percentile.
const MIN_UNDISTURBED: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Fresh,
    Repeat,
}

/// Where a run keeps its exports and trace files (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------------
// Offline training (child process)
// ---------------------------------------------------------------------------

/// The files the training child writes: two pipeline exports (what
/// `maleva train` writes and `reload` reads), plus the fitted features
/// and bare networks the reference detector is built from.
struct Exports {
    dir: PathBuf,
}

impl Exports {
    fn pipeline(&self, model: usize) -> PathBuf {
        self.dir.join(format!("detector_{model}.json"))
    }
    fn network(&self, model: usize) -> PathBuf {
        self.dir.join(format!("network_{model}.json"))
    }
    fn features(&self) -> PathBuf {
        self.dir.join("features.json")
    }
}

/// The benchmark's corpus, shaped like the `quick` Table I preset.
fn corpus(seed: u64) -> (World, Dataset) {
    let world = World::default();
    let dataset = world.build_dataset(&DatasetSpec::quick(), seed ^ 0xC0_4715);
    (world, dataset)
}

/// Entry point of `perfbench train-exports --seed N --out DIR`: trains
/// the two paper-width detectors and writes their exports.
pub fn train_exports(args: &[String]) -> Result<(), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("train-exports needs {flag}"))
    };
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let exports = Exports {
        dir: PathBuf::from(value("--out")?),
    };
    std::fs::create_dir_all(&exports.dir).map_err(|e| e.to_string())?;
    let (world, dataset) = corpus(seed);
    let features = FeaturePipeline::fit(CountTransform::Raw, dataset.train());
    let x = features.transform_batch(dataset.train());
    let y = Dataset::labels(dataset.train());
    let x_test = features.transform_batch(dataset.test());
    let y_test = Dataset::labels(dataset.test());
    write(
        &exports.features(),
        &serde_json::to_string(&features).map_err(|e| e.to_string())?,
    )?;
    // Each detector trains on its own half of the training split
    // (alternate rows, so both halves keep the class mix).
    for model in 0..2u64 {
        let rows: Vec<usize> = (model as usize..x.rows()).step_by(2).collect();
        let labels: Vec<usize> = rows.iter().map(|&r| y[r]).collect();
        let mut net = target_model(features.dim(), ModelScale::Paper, seed ^ (0xA11CE + model))
            .map_err(|e| e.to_string())?;
        let config = TrainConfig::new()
            .epochs(TRAIN_EPOCHS)
            .batch_size(256)
            .learning_rate(0.001)
            .seed(seed.wrapping_add(model));
        Trainer::new(config)
            .fit(&mut net, &x.select_rows(&rows), &labels)
            .map_err(|e| e.to_string())?;
        let accuracy =
            maleva_nn::loss::accuracy(&net.logits(&x_test).map_err(|e| e.to_string())?, &y_test)
                .map_err(|e| e.to_string())?;
        eprintln!("[perfbench] detector {model}: test accuracy {accuracy:.3}");
        let m = model as usize;
        write(
            &exports.network(m),
            &net.to_json().map_err(|e| e.to_string())?,
        )?;
        let pipeline = DetectorPipeline::new(world.vocab().clone(), features.clone(), net)
            .map_err(|e| e.to_string())?;
        write(
            &exports.pipeline(m),
            &pipeline.to_json().map_err(|e| e.to_string())?,
        )?;
    }
    Ok(())
}

/// Writes through a temporary name and renames, so a reader never sees
/// a half-written export.
fn write(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

fn train_in_child(seed: u64, dir: &Path) -> Result<Exports, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["train-exports", "--seed", &seed.to_string(), "--out"])
        .arg(dir)
        .status()
        .map_err(|e| format!("cannot start the training child: {e}"))?;
    if !status.success() {
        return Err(format!("training child failed: {status}"));
    }
    Ok(Exports {
        dir: dir.to_path_buf(),
    })
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Samples from the generative world, none of which the sentinel would
/// take for probing: every quantized key is distinct and no two keys are
/// within the sentinel's Hamming threshold (honest traffic is unrelated
/// samples, not one sample with a call or two inserted).
pub fn distinct_samples(seed: u64, features: &FeaturePipeline, n: usize) -> Vec<Vec<u32>> {
    let threshold = SentinelConfig::default().hamming_threshold;
    let world = World::default();
    let mut rng = maleva_apisim::rng(seed ^ 0x5A_3B1E);
    let mut samples = Vec::with_capacity(n);
    let mut keys: Vec<Vec<i64>> = Vec::with_capacity(n);
    let mut by_support: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut seen = HashSet::new();
    while samples.len() < n {
        let class = if rng.gen::<f64>() < 0.5 {
            Class::Clean
        } else {
            Class::Malware
        };
        let program = world.sample_program(class, &mut rng);
        let key = quantize(&features.transform_counts(program.counts()));
        if seen.contains(&key) {
            continue;
        }
        // Keys whose non-zero counts differ by more than the threshold
        // are that far apart already; only the rest need a scan.
        let support = key.iter().filter(|&&v| v != 0).count();
        let near = by_support
            .range(support.saturating_sub(threshold)..=support + threshold)
            .flat_map(|(_, ids)| ids)
            .any(|&i| within(&keys[i], &key, threshold));
        if near {
            continue;
        }
        by_support.entry(support).or_default().push(keys.len());
        seen.insert(key.clone());
        keys.push(key);
        samples.push(program.counts().to_vec());
    }
    samples
}

fn within(a: &[i64], b: &[i64], threshold: usize) -> bool {
    let mut d = 0;
    for (x, y) in a.iter().zip(b) {
        d += usize::from(x != y);
        if d > threshold {
            return false;
        }
    }
    true
}

/// How each load thread picks its next sample.
pub enum Picker {
    /// A shared cursor over the whole pool: a sample recurs only after
    /// every other sample in the pool was requested.
    Cycle(AtomicUsize, usize),
    /// Zipf-popular ranks mapped to keys by a seeded permutation.
    Zipf { cdf: Vec<f64>, order: Vec<usize> },
}

impl Picker {
    fn zipf(seed: u64, keys: usize) -> Picker {
        let weights: Vec<f64> = (1..=keys)
            .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let mut order: Vec<usize> = (0..keys).collect();
        let mut rng = maleva_apisim::rng(seed ^ 0x21FF);
        for i in (1..keys).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Picker::Zipf { cdf, order }
    }

    fn next(&self, rng: &mut impl Rng) -> usize {
        match self {
            Picker::Cycle(cursor, len) => cursor.fetch_add(1, Ordering::Relaxed) % len,
            Picker::Zipf { cdf, order } => {
                let u = rng.gen::<f64>();
                order[cdf.partition_point(|&c| c < u).min(order.len() - 1)]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-loop load
// ---------------------------------------------------------------------------

/// One answered score request. Times are nanoseconds since the phase
/// started.
#[derive(Debug, Clone)]
pub struct Reply {
    pub sample: usize,
    pub client: usize,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub score: f64,
    pub verdict: String,
    pub cached: bool,
    pub batch_size: u64,
}

impl Reply {
    pub fn latency_us(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e3
    }
}

/// One hot reload sent during a phase.
#[derive(Debug, Clone)]
pub struct Reload {
    pub model: usize,
    pub sent_ns: u64,
    pub ack_ns: u64,
    pub generation: u64,
}

/// What one closed-loop phase produced.
pub struct Phase {
    pub replies: Vec<Reply>,
    pub reloads: Vec<Reload>,
    pub errors: Vec<String>,
    pub elapsed: Duration,
    /// The model serving when the phase started.
    pub boot_model: usize,
    /// `(ns since the phase started, machine steal ticks so far)`, every
    /// [`STEAL_SAMPLE`].
    pub steal: Vec<(u64, u64)>,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.replies.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Latencies (µs) of the requests least disturbed by other guests. A
    /// request's disturbance is the steal counted in the sampling
    /// intervals it overlaps, widened by one interval either side as the
    /// kernel books stolen time late and in 10 ms ticks. Every
    /// undisturbed request is kept; when fewer than [`MIN_UNDISTURBED`]
    /// are, the [`MIN_UNDISTURBED`] least disturbed ones.
    pub fn undisturbed_latencies_us(&self) -> Vec<f64> {
        let stolen: Vec<(u64, u64, u64)> = (1..self.steal.len())
            .filter_map(|i| {
                let ticks = self.steal[i].1.saturating_sub(self.steal[i - 1].1);
                let from = self.steal[i.saturating_sub(2)].0;
                let to = self.steal.get(i + 1).map_or(u64::MAX, |s| s.0);
                (ticks > 0).then_some((from, to, ticks))
            })
            .collect();
        let mut ranked: Vec<(u64, u64, f64)> = self
            .replies
            .iter()
            .map(|r| {
                let disturbance = stolen
                    .iter()
                    .filter(|&&(a, b, _)| r.sent_ns < b && r.done_ns > a)
                    .map(|&(_, _, ticks)| ticks)
                    .sum();
                (disturbance, r.sent_ns, r.latency_us())
            })
            .collect();
        let clean = ranked.iter().filter(|(d, _, _)| *d == 0).count();
        ranked.sort_by_key(|&(d, sent, _)| (d, sent));
        ranked.truncate(clean.max(MIN_UNDISTURBED));
        ranked.into_iter().map(|(_, _, latency)| latency).collect()
    }
}

pub fn client_id(client: usize) -> String {
    format!("perfbench-{client}")
}

pub fn connect(addr: &str, client: Option<usize>) -> ScoreClient {
    ScoreClient::new(ClientConfig {
        addr: addr.to_string(),
        io_timeout: CLIENT_IO_TIMEOUT,
        call_deadline: CLIENT_IO_TIMEOUT * 2,
        client_id: client.map(client_id),
        ..ClientConfig::default()
    })
}

/// How long a phase drives load.
#[derive(Clone, Copy)]
pub enum Until {
    /// Until the deadline passes (the request in flight completes).
    Elapsed(Duration),
    /// Exactly this many requests per client.
    Requests(usize),
}

/// Drives `clients` in a closed loop (each waits for its verdict before
/// sending the next request), optionally hot-reloading `reloads` exports
/// at evenly spaced times through an operator connection.
pub fn closed_loop(
    clients: &mut [ScoreClient],
    samples: &[Vec<u32>],
    picker: &Picker,
    seed: u64,
    until: Until,
    reload: Option<(&mut ScoreClient, &[PathBuf], usize)>,
) -> Phase {
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let boot_model = reload.as_ref().map_or(0, |(_, _, current)| *current);
    let reloading = reload.is_some();
    // Set by the reloader once its schedule is done; ends a phase with
    // reloads instead of the deadline.
    let stop = &AtomicBool::new(false);
    let finished = AtomicBool::new(false);
    let (replies, errors, reloads, steal) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut samples = vec![(0, stats::cpu_ticks().1)];
            while !finished.load(Ordering::Relaxed) {
                std::thread::sleep(STEAL_SAMPLE);
                samples.push((since(Instant::now()), stats::cpu_ticks().1));
            }
            samples
        });
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut rng = maleva_apisim::rng(seed ^ (0x10AD + c as u64));
                    let mut replies = Vec::new();
                    let mut errors = Vec::new();
                    loop {
                        let more = match until {
                            Until::Elapsed(_) if reloading => !stop.load(Ordering::Relaxed),
                            Until::Elapsed(d) => start.elapsed() < d,
                            Until::Requests(n) => replies.len() + errors.len() < n,
                        };
                        if !more {
                            break;
                        }
                        let sample = picker.next(&mut rng);
                        let sent = Instant::now();
                        let result = client.score_counts(&samples[sample]);
                        let done = Instant::now();
                        match result {
                            Ok(o) => replies.push(Reply {
                                sample,
                                client: c,
                                sent_ns: since(sent),
                                done_ns: since(done),
                                score: o.score,
                                verdict: o.verdict,
                                cached: o.cached,
                                batch_size: o.batch_size,
                            }),
                            Err(e) => errors.push(format!("client {c}: {e}")),
                        }
                    }
                    (replies, errors)
                })
            })
            .collect();
        let reloader = reload.map(|(operator, exports, current)| {
            let Until::Elapsed(duration) = until else {
                unreachable!("reloads are scheduled in time")
            };
            scope.spawn(move || {
                // Reloads go out at even fractions of the phase, but each
                // is followed by at least `gap` of traffic, which meets the
                // lazily invalidated cache; the phase ends at the deadline
                // or `gap` after the last acknowledgement, if later.
                let gap = duration.mul_f64(0.5 / (RELOADS + 1) as f64);
                let mut model = current;
                let mut reloads = Vec::new();
                let mut errors = Vec::new();
                let mut quiet_until = Duration::ZERO;
                for k in 1..=RELOADS {
                    let due = duration.mul_f64(k as f64 / (RELOADS + 1) as f64);
                    std::thread::sleep(due.max(quiet_until).saturating_sub(start.elapsed()));
                    model = 1 - model;
                    let path = exports[model].to_string_lossy().into_owned();
                    let sent = Instant::now();
                    match operator.reload(&path) {
                        Ok(info) => reloads.push(Reload {
                            model,
                            sent_ns: since(sent),
                            ack_ns: since(Instant::now()),
                            generation: info.generation,
                        }),
                        Err(e) => errors.push(format!("reload {k}: {e}")),
                    }
                    quiet_until = start.elapsed() + gap;
                }
                std::thread::sleep(duration.max(quiet_until).saturating_sub(start.elapsed()));
                stop.store(true, Ordering::Relaxed);
                (reloads, errors)
            })
        });
        let mut replies = Vec::new();
        let mut errors = Vec::new();
        for worker in workers {
            let (r, e) = worker.join().expect("load thread panicked");
            replies.extend(r);
            errors.extend(e);
        }
        let mut reloads = Vec::new();
        if let Some(reloader) = reloader {
            let (r, e) = reloader.join().expect("reload thread panicked");
            reloads = r;
            errors.extend(e);
        }
        finished.store(true, Ordering::Relaxed);
        let steal = monitor.join().expect("steal monitor panicked");
        (replies, errors, reloads, steal)
    });
    Phase {
        replies,
        reloads,
        errors,
        elapsed: start.elapsed(),
        boot_model,
        steal,
    }
}

/// Checks every reply of a phase against the reference scores of the
/// model(s) that may have produced it. A request sent after a reload was
/// acknowledged must be scored by that reload's export (cache hits
/// included); one still in flight when a later reload was sent may come
/// from either side of it.
pub fn check_phase(phase: &Phase, refs: &[Vec<f64>], failures: &mut Vec<String>) {
    for (k, reload) in phase.reloads.iter().enumerate() {
        if k > 0 && reload.generation != phase.reloads[k - 1].generation + 1 {
            failures.push(format!("reload generations skip: {:?}", phase.reloads));
        }
        if !phase.replies.iter().any(|r| r.sent_ns >= reload.ack_ns) {
            failures.push(format!("no request followed reload {}", k + 1));
        }
    }
    for reply in &phase.replies {
        let acked = phase
            .reloads
            .iter()
            .rev()
            .find(|r| r.ack_ns <= reply.sent_ns)
            .map_or(phase.boot_model, |r| r.model);
        let mut allowed = vec![refs[acked][reply.sample]];
        for r in &phase.reloads {
            if r.ack_ns > reply.sent_ns && r.sent_ns < reply.done_ns {
                allowed.push(refs[r.model][reply.sample]);
            }
        }
        if let Err(e) = check_reply_any(reply.score, &reply.verdict, &allowed) {
            failures.push(format!(
                "client {} sample {}: {e}",
                reply.client, reply.sample
            ));
        }
    }
}

/// Hot-reloads `count` times on an idle server, stepping through
/// `exports` after `current`; used where the timed phase has no reloads
/// of its own.
pub fn idle_reloads(
    operator: &mut ScoreClient,
    exports: &[PathBuf],
    mut current: usize,
    count: usize,
) -> Result<Vec<Reload>, String> {
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    (0..count)
        .map(|_| {
            current = (current + 1) % exports.len();
            let sent = Instant::now();
            let info = operator
                .reload(&exports[current].to_string_lossy())
                .map_err(|e| format!("reload: {e}"))?;
            Ok(Reload {
                model: current,
                sent_ns: since(sent),
                ack_ns: since(Instant::now()),
                generation: info.generation,
            })
        })
        .collect()
}

/// `reload_ms`: the median reload round trip.
pub fn reload_metric(reloads: &[Reload]) -> Metric {
    let ms: Vec<f64> = reloads
        .iter()
        .map(|r| (r.ack_ns - r.sent_ns) as f64 / 1e6)
        .collect();
    Metric::new("reload_ms", "ms", stats::median(&ms), ms.len())
}

/// Reference scores of every sample under each model, computed on two
/// threads.
fn reference_scores(detectors: &[ReferenceDetector], samples: &[Vec<u32>]) -> Vec<Vec<f64>> {
    detectors
        .iter()
        .map(|detector| {
            let half = samples.len().div_ceil(2).max(1);
            std::thread::scope(|scope| {
                let parts: Vec<_> = samples
                    .chunks(half)
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .iter()
                                .map(|c| detector.score_counts(c))
                                .collect::<Vec<f64>>()
                        })
                    })
                    .collect();
                parts
                    .into_iter()
                    .flat_map(|p| p.join().expect("reference thread panicked"))
                    .collect()
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The served configuration: `ServeConfig` defaults except
/// work-conserving batching and the sentinel in throttle mode.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        batch_timeout: Duration::ZERO,
        sentinel: SentinelConfig {
            enabled: true,
            action: SentinelAction::Throttle,
            seed,
            ..SentinelConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// A running server with its connected load clients.
pub struct Server {
    pub handle: ServerHandle,
    pub clients: Vec<ScoreClient>,
    pub operator: ScoreClient,
}

/// Spawns the server and connects the load clients and the operator.
pub fn start(pipeline: DetectorPipeline, seed: u64) -> Result<Server, String> {
    let handle = spawn(pipeline, serve_config(seed)).map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr().to_string();
    Ok(Server {
        clients: (0..CLIENTS).map(|c| connect(&addr, Some(c))).collect(),
        operator: connect(&addr, None),
        handle,
    })
}

struct Setup {
    server: Server,
    seconds: f64,
    load_ms: f64,
    warmup: Phase,
}

/// One timed set-up: read and parse the export, spawn, warm up. The
/// warm-up sends `warmup` once, split between the clients.
fn set_up(export: &Path, seed: u64, warmup: &[Vec<u32>]) -> Result<Setup, String> {
    let began = Instant::now();
    let json = std::fs::read_to_string(export).map_err(|e| format!("read export: {e}"))?;
    let pipeline = DetectorPipeline::from_json(&json).map_err(|e| e.to_string())?;
    let loaded = began.elapsed();
    let mut server = start(pipeline, seed)?;
    let per_client = warmup.len() / CLIENTS;
    let picker = Picker::Cycle(AtomicUsize::new(0), warmup.len());
    let warm = closed_loop(
        &mut server.clients,
        warmup,
        &picker,
        seed,
        Until::Requests(per_client),
        None,
    );
    Ok(Setup {
        server,
        seconds: began.elapsed().as_secs_f64(),
        load_ms: stats::ms(loaded),
        warmup: warm,
    })
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

pub fn run(traffic: Traffic, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = out_dir().join("models");
    let exports = train_in_child(seed, &dir)?;
    let features: FeaturePipeline = serde_json::from_str(
        &std::fs::read_to_string(exports.features()).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let networks: Vec<Network> = (0..2)
        .map(|m| {
            let json = std::fs::read_to_string(exports.network(m)).map_err(|e| e.to_string())?;
            Network::from_json(&json).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    // Inputs: the request samples and the warm-up set.
    let (samples, warmup_range, picker) = match traffic {
        Traffic::Fresh => {
            let samples = distinct_samples(seed, &features, FRESH_POOL + CLIENTS * FRESH_WARMUP);
            (
                samples,
                FRESH_POOL..FRESH_POOL + CLIENTS * FRESH_WARMUP,
                Picker::Cycle(AtomicUsize::new(0), FRESH_POOL),
            )
        }
        Traffic::Repeat => (
            distinct_samples(seed, &features, REPEAT_KEYS),
            0..REPEAT_KEYS,
            Picker::zipf(seed, REPEAT_KEYS),
        ),
    };
    let warmup = &samples[warmup_range.clone()];
    // serve_fresh only ever scores with the boot model.
    let models = if traffic == Traffic::Repeat { 2 } else { 1 };
    let detectors: Vec<ReferenceDetector> = networks[..models]
        .iter()
        .map(|n| ReferenceDetector::with_network(&features, n))
        .collect();
    let refs = reference_scores(&detectors, &samples);
    let warm_refs: Vec<Vec<f64>> = refs
        .iter()
        .map(|r| r[warmup_range.clone()].to_vec())
        .collect();

    let mut failures = Vec::new();
    let setups = if trace { 1 } else { SETUPS };
    let mut setup_seconds = Vec::with_capacity(setups);
    let mut load_ms = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        let setup = set_up(&exports.pipeline(0), seed, warmup)?;
        setup_seconds.push(setup.seconds);
        load_ms.push(setup.load_ms);
        if let Some(e) = setup.warmup.errors.first() {
            return Err(format!("warm-up request failed: {e}"));
        }
        check_phase(&setup.warmup, &warm_refs, &mut failures);
        if let Some(previous) = kept.replace(setup) {
            previous.server.handle.shutdown();
        }
    }
    let Setup {
        mut server,
        warmup: warm,
        ..
    } = kept.expect("at least one set-up");

    let export_paths = [exports.pipeline(0), exports.pipeline(1)];
    let duration = Duration::from_secs_f64(seconds);
    let mut model = 0;
    let phase = |server: &mut Server, model: &mut usize| {
        let reload = (traffic == Traffic::Repeat).then_some((
            &mut server.operator,
            &export_paths[..],
            *model,
        ));
        let phase = closed_loop(
            &mut server.clients,
            &samples,
            &picker,
            seed,
            Until::Elapsed(duration),
            reload,
        );
        if let Some(last) = phase.reloads.last() {
            *model = last.model;
        }
        phase
    };
    let (attempts, best, steal_share) =
        stats::least_disturbed(|| Ok(phase(&mut server, &mut model)))?;
    let peak_rss = stats::peak_rss_mb();
    for attempt in &attempts {
        check_phase(attempt, &refs, &mut failures);
    }
    let untraced = &attempts[best];
    let mut phases: Vec<&Phase> = std::iter::once(&warm).chain(&attempts).collect();

    let traced = trace.then(|| {
        let sink = maleva_obs::trace::install_memory_sink();
        let traced = phase(&mut server, &mut model);
        (traced, sink)
    });
    if let Some((traced, _)) = &traced {
        check_phase(traced, &refs, &mut failures);
        phases.push(traced);
    }
    check_server(&mut server, traffic, &phases, &mut failures);

    let mut attempted = untraced.replies.len() + untraced.errors.len() + untraced.reloads.len();
    let metrics = match traced {
        None => {
            // serve_fresh keeps its timed phase free of reloads; its
            // reload round trips are measured after it, on an idle server.
            let reloads = match traffic {
                Traffic::Repeat => untraced.reloads.clone(),
                Traffic::Fresh => {
                    idle_reloads(&mut server.operator, &export_paths, model, FRESH_RELOADS)?
                }
            };
            if traffic == Traffic::Fresh {
                attempted += reloads.len();
            }
            server.handle.shutdown();
            let mut metrics = end_to_end(&setup_seconds, peak_rss, untraced);
            metrics.push(reload_metric(&reloads));
            metrics
        }
        Some((traced, sink)) => {
            let mut log = layers::TraceLog::default();
            let phase_lines = log.take(&sink);
            let input = layers::ServeInput {
                samples: &samples,
                features: &features,
                network: &networks[0],
                phase: &traced,
                detector_load_ms: &load_ms,
            };
            let mut metrics = layers::serve_layers(&input, &log.lines[phase_lines]);
            metrics.push(Metric::new(
                "obs.trace_overhead_share",
                "fraction",
                1.0 - traced.ops_per_s() / untraced.ops_per_s(),
                traced.replies.len() + untraced.replies.len(),
            ));
            server.handle.shutdown();
            let malware_rows: Vec<Vec<f64>> = samples
                .iter()
                .zip(&refs[0])
                .filter(|(_, &p)| p >= 0.5)
                .map(|(counts, _)| features.transform_counts(counts))
                .collect();
            let (_, dataset) = corpus(seed);
            metrics.extend(layers::model_replays(
                &networks[0],
                &features,
                &dataset,
                &malware_rows,
                &sink,
                &mut log,
            )?);
            metrics.push(layers::dataset_ms(&DatasetSpec::quick(), seed));
            log.finish(&sink, &format!("{}-{seed}", traffic_name(traffic)))?;
            metrics
        }
    };
    Ok(Outcome {
        attempted: attempted as u64,
        failed: untraced.errors.len() as u64,
        failures,
        metrics,
        steal_share,
    })
}

fn traffic_name(traffic: Traffic) -> &'static str {
    match traffic {
        Traffic::Fresh => "serve_fresh",
        Traffic::Repeat => "serve_repeat",
    }
}

/// Cross-checks the server's own counters against what the clients saw.
fn check_server(
    server: &mut Server,
    traffic: Traffic,
    phases: &[&Phase],
    failures: &mut Vec<String>,
) {
    let replies: Vec<&Reply> = phases.iter().flat_map(|p| &p.replies).collect();
    let hits = replies.iter().filter(|r| r.cached).count() as u64;
    match server.operator.stats() {
        Ok(stats) => {
            let total = replies.len() as u64;
            if stats.requests != total {
                failures.push(format!(
                    "server counted {} requests, clients {total}",
                    stats.requests
                ));
            }
            if stats.cache_hits != hits || stats.cache_hits + stats.cache_misses != stats.requests {
                failures.push(format!(
                    "server counted {} hits / {} misses, clients saw {hits} hits of {total}",
                    stats.cache_hits, stats.cache_misses
                ));
            }
            if stats.errors != 0 || stats.sentinel_throttled != 0 || stats.sentinel_flagged != 0 {
                failures.push(format!(
                    "server reports errors or sentinel action: {stats:?}"
                ));
            }
        }
        Err(e) => failures.push(format!("stats: {e}")),
    }
    match server.operator.sentinel() {
        Ok(report) => {
            if report.flagged_clients != 0 {
                failures.push(format!(
                    "sentinel flagged {} client(s)",
                    report.flagged_clients
                ));
            }
            for c in 0..CLIENTS {
                let sent = replies.iter().filter(|r| r.client == c).count() as u64;
                let queries = report.client(&client_id(c)).map_or(0, |r| r.queries);
                if queries != sent {
                    failures.push(format!(
                        "sentinel saw {queries} queries from client {c}, it sent {sent}"
                    ));
                }
            }
        }
        Err(e) => failures.push(format!("sentinel: {e}")),
    }
    if traffic == Traffic::Fresh && hits != 0 {
        failures.push(format!("{hits} replies were cache hits on fresh traffic"));
    }
}

/// `setup_s`, `peak_rss_mb`, `ops_per_s` and the request latency
/// percentiles of one timed phase.
fn end_to_end(setup_seconds: &[f64], peak_rss: f64, phase: &Phase) -> Vec<Metric> {
    let latencies = phase.undisturbed_latencies_us();
    let n = latencies.len();
    vec![
        Metric::new(
            "setup_s",
            "s",
            stats::median(setup_seconds),
            setup_seconds.len(),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss, 1),
        Metric::new("ops_per_s", "1/s", phase.ops_per_s(), phase.replies.len()),
        Metric::new("op_p50_us", "us", stats::percentile(&latencies, 0.5), n),
        Metric::new("op_p99_us", "us", stats::percentile(&latencies, 0.99), n),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(sample: usize, sent_ns: u64, done_ns: u64, score: f64) -> Reply {
        Reply {
            sample,
            client: 0,
            sent_ns,
            done_ns,
            score,
            verdict: if score >= 0.5 { "malware" } else { "clean" }.to_string(),
            cached: true,
            batch_size: 0,
        }
    }

    fn phase(replies: Vec<Reply>) -> Phase {
        Phase {
            replies,
            reloads: vec![Reload {
                model: 1,
                sent_ns: 100,
                ack_ns: 200,
                generation: 1,
            }],
            errors: Vec::new(),
            elapsed: Duration::from_secs(1),
            boot_model: 0,
            steal: Vec::new(),
        }
    }

    #[test]
    fn a_stale_score_after_an_acknowledged_reload_fails() {
        let refs = vec![vec![0.9], vec![0.2]];
        let mut failures = Vec::new();
        // Before the reload: the boot model; across it: either model;
        // after the acknowledgement: only the new one.
        check_phase(
            &phase(vec![
                reply(0, 10, 50, 0.9),
                reply(0, 150, 250, 0.9),
                reply(0, 150, 250, 0.2),
                reply(0, 300, 350, 0.2),
            ]),
            &refs,
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
        check_phase(&phase(vec![reply(0, 300, 350, 0.9)]), &refs, &mut failures);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn requests_near_stolen_time_are_left_out_of_the_percentiles() {
        // One request per 10 µs over 60 ms, the steal counter sampled every
        // 10 ms. It moves between 30 and 40 ms, so requests overlapping
        // 20–50 ms (that interval and one either side) are left out.
        let replies: Vec<Reply> = (0..6000)
            .map(|i| reply(0, i * 10_000, i * 10_000 + 5_000 + (i % 2) * 1_000, 0.9))
            .collect();
        let mut p = phase(replies);
        let ticks = [7, 7, 7, 7, 8, 8, 8];
        p.steal = (0..7)
            .map(|k| (k * 10_000_000, ticks[k as usize]))
            .collect();
        assert_eq!(p.undisturbed_latencies_us().len(), 3000);
        p.steal = vec![(0, 7), (60_000_000, 7)];
        assert_eq!(p.undisturbed_latencies_us().len(), 6000);
        // Stolen time all through: the 1000 least disturbed requests.
        p.steal = vec![(0, 7), (30_000_000, 8), (60_000_000, 9)];
        assert_eq!(p.undisturbed_latencies_us().len(), 1000);
    }

    #[test]
    fn request_samples_are_distinct_and_never_near_duplicates() {
        let world = World::default();
        let mut rng = maleva_apisim::rng(1);
        let features =
            FeaturePipeline::fit(CountTransform::Raw, &world.sample_batch(50, 50, &mut rng));
        let samples = distinct_samples(3, &features, 300);
        let keys: Vec<Vec<i64>> = samples
            .iter()
            .map(|c| quantize(&features.transform_counts(c)))
            .collect();
        let threshold = SentinelConfig::default().hamming_threshold;
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[..i] {
                assert!(!within(a, b, threshold));
            }
        }
    }

    #[test]
    fn zipf_picks_every_rank_and_favours_the_first() {
        let picker = Picker::zipf(5, 64);
        let mut rng = maleva_apisim::rng(9);
        let mut counts = vec![0usize; 64];
        for _ in 0..20_000 {
            counts[picker.next(&mut rng)] += 1;
        }
        let Picker::Zipf { order, .. } = &picker else {
            unreachable!()
        };
        assert!(counts.iter().all(|&c| c > 0));
        assert_eq!(counts.iter().max(), Some(&counts[order[0]]));
    }
}
