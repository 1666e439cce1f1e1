//! `obs_overhead` — micro-benchmark proving the `maleva-obs` tracer is
//! cheap enough to leave compiled into the hot paths, written as
//! `BENCH_obs.json`.
//!
//! ```text
//! obs_overhead [--seed N] [--reps R] [--out PATH] [--trace-file PATH] [--out-dir DIR]
//! ```
//!
//! Runs the two instrumented workloads — a JSMA batch attack
//! (`attack.batch` / `attack.row` spans) and a training run
//! (`train.fit` / `train.epoch` spans) — under three sink modes:
//!
//! * `disabled` — no sink installed; every span is a single relaxed
//!   atomic load (the production default),
//! * `null` — records are fully serialized then discarded (the cost of
//!   tracing itself), and
//! * `file` — records stream to a JSONL file (the cost with I/O).
//!
//! Each mode takes the best of `--reps` runs. The bench hard-fails if
//! the workload outputs are not bit-identical across modes (tracing
//! must be a pure observer) or if the null-sink overhead over disabled
//! reaches 5%.
//!
//! A third measurement prices the serving-side observability tax: a
//! loop of simulated healthy request recordings (request span, six
//! stage histograms, the latency histogram) with the default SLO
//! burn-rate engine observing and evaluating at a scrape-like cadence,
//! against the same loop without the engine — reported as
//! `slo_idle_overhead_frac` and gated by `bench_gate`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use maleva_attack::parallel::craft_batch_parallel;
use maleva_attack::Jsma;
use maleva_core::models::target_model;
use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_linalg::Matrix;
use maleva_nn::{Network, TrainConfig, Trainer};
use maleva_obs::trace;
use maleva_serve::{default_serve_slos, Metrics, SloRuntime, StageTimes};
use serde::Serialize;

/// Null-sink overhead at or above this fraction fails the bench.
const MAX_NULL_OVERHEAD: f64 = 0.05;

/// Simulated request recordings per SLO-idle loop.
const SLO_IDLE_REQUESTS: u64 = 200_000;
/// The engine evaluates once per this many recordings — a
/// metrics-scrape cadence, still far more often than production would
/// (one evaluation per ~150 µs of simulated traffic, versus every few
/// seconds from a real scraper).
const SLO_EVAL_EVERY: u64 = 1024;

struct Args {
    seed: u64,
    reps: usize,
    out: String,
    trace_file: String,
    out_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        reps: 5,
        out: "BENCH_obs.json".to_string(),
        trace_file: "obs_overhead_trace.jsonl".to_string(),
        out_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("--{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = value("seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--reps" => {
                args.reps = value("reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?
            }
            "--out" => args.out = value("out")?,
            "--trace-file" => args.trace_file = value("trace-file")?,
            "--out-dir" => args.out_dir = Some(value("out-dir")?),
            "--help" | "-h" => {
                println!(
                    "usage: obs_overhead [--seed N] [--reps R] [--out PATH] \
                     [--trace-file PATH] [--out-dir DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.reps == 0 {
        return Err("--reps must be positive".into());
    }
    // Route both artifacts (report + trace scratch file) through
    // --out-dir so local runs do not litter the repo root.
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create --out-dir {dir}: {e}"))?;
        let dir = dir.trim_end_matches('/');
        args.out = format!("{dir}/{}", args.out);
        args.trace_file = format!("{dir}/{}", args.trace_file);
    }
    Ok(args)
}

/// One workload measured under one sink mode.
#[derive(Serialize)]
struct ModeResult {
    mode: &'static str,
    best_ms: f64,
    /// Fractional slowdown over the disabled mode (0.02 = 2%).
    overhead_frac: f64,
}

/// One instrumented workload across all sink modes.
#[derive(Serialize)]
struct WorkloadResult {
    name: &'static str,
    bit_identical: bool,
    modes: Vec<ModeResult>,
}

/// The SLO-idle measurement: the cost of burn-rate evaluation over a
/// healthy request stream.
#[derive(Serialize)]
struct SloIdleResult {
    requests: u64,
    eval_every: u64,
    baseline_ms: f64,
    with_slo_ms: f64,
    /// Fractional slowdown of the recording loop with the engine on.
    overhead_frac: f64,
}

/// The whole `BENCH_obs.json` document.
#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    seed: u64,
    reps: usize,
    max_null_overhead_frac: f64,
    /// Worst null-sink overhead across workloads — the headline number.
    null_overhead_frac: f64,
    /// The SLO engine's idle tax — gated by `bench_gate`.
    slo_idle_overhead_frac: f64,
    trace_records_written: usize,
    workloads: Vec<WorkloadResult>,
    slo_idle: SloIdleResult,
}

/// Order-sensitive FNV-style fold of raw f64 bits: equal iff every
/// value is bit-identical in sequence.
fn fold_bits(acc: u64, v: f64) -> u64 {
    (acc ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
}

fn matrix_fingerprint(m: &Matrix) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            acc = fold_bits(acc, m.get(r, c));
        }
    }
    acc
}

fn network_fingerprint(net: &Network, probe: &Matrix) -> u64 {
    let p = net.predict_proba(probe).expect("probe forward");
    matrix_fingerprint(&p)
}

/// Measures `workload` once per rep and returns (best seconds,
/// fingerprint). Panics if reps disagree on the fingerprint.
fn best_of(reps: usize, workload: &dyn Fn() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut fingerprint = None;
    for _ in 0..reps {
        let t = Instant::now();
        let fp = workload();
        best = best.min(t.elapsed().as_secs_f64());
        assert!(
            *fingerprint.get_or_insert(fp) == fp,
            "workload is not deterministic across reps"
        );
    }
    (best, fingerprint.expect("reps >= 1"))
}

/// Runs one workload under disabled/null/file sinks and reports the
/// per-mode best times plus cross-mode bit-identity.
fn measure(
    name: &'static str,
    reps: usize,
    trace_file: &str,
    workload: &dyn Fn() -> u64,
) -> WorkloadResult {
    let modes: [(&'static str, trace::Sink); 3] = [
        ("disabled", trace::Sink::Disabled),
        ("null", trace::Sink::Null),
        ("file", trace::Sink::File(trace_file.into())),
    ];
    // Untimed warm-up so the first measured mode is not penalized for
    // cold caches.
    trace::install(trace::Sink::Disabled).expect("install sink");
    let _ = workload();
    let mut results = Vec::new();
    let mut fingerprints = Vec::new();
    let mut disabled_s = f64::NAN;
    for (mode, sink) in modes {
        trace::install(sink).expect("install sink");
        let (best_s, fp) = best_of(reps, workload);
        trace::flush();
        if mode == "disabled" {
            disabled_s = best_s;
        }
        fingerprints.push(fp);
        results.push(ModeResult {
            mode,
            best_ms: best_s * 1e3,
            overhead_frac: best_s / disabled_s - 1.0,
        });
    }
    trace::install(trace::Sink::Disabled).expect("reset sink");
    WorkloadResult {
        name,
        bit_identical: fingerprints.windows(2).all(|w| w[0] == w[1]),
        modes: results,
    }
}

/// One pass of the serve-shaped recording loop: a request span (sink
/// disabled, the production default), the six stage histograms, and
/// the request latency histogram — with the default SLO engine
/// evaluating every [`SLO_EVAL_EVERY`] requests when `with_slo`.
/// Returns elapsed seconds; panics if an alarm fires (the stream is
/// healthy by construction, so firing would mean a broken engine, and
/// a firing alarm does different work than an idle one).
fn slo_idle_loop(with_slo: bool) -> f64 {
    let metrics = Metrics::new();
    let slo = with_slo.then(|| SloRuntime::new(default_serve_slos(), metrics.registry()));
    let stages = StageTimes {
        queue_wait: Duration::from_micros(40),
        batch_wait: Duration::from_micros(25),
        cache_lookup: Duration::from_micros(2),
        sentinel_check: Duration::from_micros(3),
        inference: Duration::from_micros(110),
        serialize: Duration::from_micros(4),
    };
    let t = Instant::now();
    for i in 0..SLO_IDLE_REQUESTS {
        let span = trace::Span::enter("bench.request");
        metrics.record_stages(&stages);
        metrics.record_latency(Duration::from_micros(180 + (i & 63)));
        if let Some(slo) = &slo {
            if i % SLO_EVAL_EVERY == 0 {
                let report = slo.observe_and_evaluate(&metrics.registry().snapshot());
                assert!(
                    report.alarms.iter().all(|a| !a.firing),
                    "healthy stream fired an SLO alarm"
                );
            }
        }
        drop(span);
    }
    t.elapsed().as_secs_f64()
}

/// Best-of-`reps` for the recording loop with and without the engine.
fn measure_slo_idle(reps: usize) -> SloIdleResult {
    // Untimed warm-up of both shapes.
    let _ = slo_idle_loop(false);
    let _ = slo_idle_loop(true);
    let mut baseline_s = f64::INFINITY;
    let mut with_slo_s = f64::INFINITY;
    for _ in 0..reps {
        baseline_s = baseline_s.min(slo_idle_loop(false));
        with_slo_s = with_slo_s.min(slo_idle_loop(true));
    }
    SloIdleResult {
        requests: SLO_IDLE_REQUESTS,
        eval_every: SLO_EVAL_EVERY,
        baseline_ms: baseline_s * 1e3,
        with_slo_ms: with_slo_s * 1e3,
        overhead_frac: with_slo_s / baseline_s - 1.0,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[obs_overhead] building tiny context (seed={}) ...",
        args.seed
    );
    let ctx = ExperimentContext::build(ExperimentScale::tiny(), args.seed).expect("context");
    let batch = {
        let full = ctx.attack_batch();
        let idx: Vec<usize> = (0..full.rows().min(96)).collect();
        full.select_rows(&idx)
    };

    // Attack workload: the instrumented parallel JSMA batch
    // (attack.batch + one attack.row span and two counter bumps per
    // row). Two threads keeps the span interleaving multi-threaded.
    let jsma = Jsma::new(0.15, 0.025);
    let target = ctx.target();
    let attack_workload = || {
        let (adv, outcomes) = craft_batch_parallel(&jsma, target, &batch, 2).expect("craft");
        let evaded = outcomes.iter().filter(|o| o.evaded).count() as u64;
        matrix_fingerprint(&adv) ^ evaded
    };

    // Train workload: the instrumented trainer (train.fit + per-epoch
    // train.epoch spans and the train.epoch_stats event).
    let train_cfg = TrainConfig::new()
        .epochs(24)
        .batch_size(64)
        .learning_rate(0.005);
    let x = &ctx.x_train;
    let y: &[usize] = &ctx.y_train;
    let probe = {
        let idx: Vec<usize> = (0..x.rows().min(64)).collect();
        x.select_rows(&idx)
    };
    let seed = args.seed;
    let scale = ctx.scale.model_scale;
    let train_workload = move || {
        let mut net = target_model(x.cols(), scale, seed ^ 0xB0).expect("model");
        let report = Trainer::new(train_cfg.clone())
            .fit(&mut net, x, y)
            .expect("fit");
        fold_bits(network_fingerprint(&net, &probe), report.final_loss())
    };

    let workloads = vec![
        measure(
            "attack_jsma_batch",
            args.reps,
            &args.trace_file,
            &attack_workload,
        ),
        measure("train_epochs", args.reps, &args.trace_file, &train_workload),
    ];
    let trace_records_written = std::fs::read_to_string(&args.trace_file)
        .map(|s| s.lines().count())
        .unwrap_or(0);

    let null_overhead_frac = workloads
        .iter()
        .flat_map(|w| w.modes.iter())
        .filter(|m| m.mode == "null")
        .map(|m| m.overhead_frac)
        .fold(f64::NEG_INFINITY, f64::max);
    let bit_identical = workloads.iter().all(|w| w.bit_identical);

    trace::install(trace::Sink::Disabled).expect("reset sink");
    let slo_idle = measure_slo_idle(args.reps);

    for w in &workloads {
        for m in &w.modes {
            println!(
                "{:<18} {:<9} best {:>8.1} ms  overhead {:>+6.2}%",
                w.name,
                m.mode,
                m.best_ms,
                m.overhead_frac * 100.0
            );
        }
        println!("{:<18} bit_identical: {}", w.name, w.bit_identical);
    }
    println!(
        "worst null-sink overhead: {:+.2}% (limit {:.0}%), trace records written: {}",
        null_overhead_frac * 100.0,
        MAX_NULL_OVERHEAD * 100.0,
        trace_records_written
    );
    println!(
        "slo idle tax: {:>8.1} ms -> {:>8.1} ms over {} requests \
         (eval every {}), overhead {:+.2}%",
        slo_idle.baseline_ms,
        slo_idle.with_slo_ms,
        slo_idle.requests,
        slo_idle.eval_every,
        slo_idle.overhead_frac * 100.0
    );

    let report = BenchReport {
        bench: "obs_overhead",
        seed: args.seed,
        reps: args.reps,
        max_null_overhead_frac: MAX_NULL_OVERHEAD,
        null_overhead_frac,
        slo_idle_overhead_frac: slo_idle.overhead_frac,
        trace_records_written,
        workloads,
        slo_idle,
    };
    let json = serde_json::to_string_pretty(&report).expect("encode report");
    std::fs::write(&args.out, json + "\n").expect("write report");
    println!("wrote {}", args.out);

    if !bit_identical {
        eprintln!("error: workload outputs changed across sink modes");
        return ExitCode::FAILURE;
    }
    if null_overhead_frac >= MAX_NULL_OVERHEAD {
        eprintln!(
            "error: null-sink overhead {:.2}% reached the {:.0}% limit",
            null_overhead_frac * 100.0,
            MAX_NULL_OVERHEAD * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
