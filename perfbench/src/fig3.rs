//! `repro_fig3`: the paper's Figure 3 white-box security evaluation —
//! the γ sweep (3a) and the θ sweep (3b) — run through
//! `maleva_core::whitebox` exactly as `repro --exp fig3a/fig3b` runs
//! them, at the `quick` scale. Set-up is `ExperimentContext::build`
//! (corpus, features, 30-epoch target training), which `repro` pays
//! before every experiment; the timed phase is Jacobian-driven JSMA
//! crafting on the attack pool's threads. No wire, no serving.

use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use maleva_attack::parallel::{craft_batch_parallel, default_threads};
use maleva_attack::sweep::SweepAxis;
use maleva_attack::Jsma;
use maleva_core::{whitebox, ExperimentContext, ExperimentScale};
use maleva_eval::SecurityCurve;
use maleva_obs::trace::{self, Sink};

use crate::reference::{
    check_crafted, check_detection, check_evaded, check_nonincreasing, check_unit_interval,
    ReferenceDetector, ReferenceNet,
};
use crate::serve::{self, Picker, Until, CLIENTS};
use crate::stats::{self, Metric};
use crate::{layers, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Hot reloads of the context's detector per run; `reload_ms` is their
/// median.
const RELOADS: usize = 8;
/// Requests per client in the traced run's short scoring pass.
const SCORED_PER_CLIENT: usize = 256;

/// One timed phase: whole rounds of (3a, 3b) until the deadline passed.
struct Sweeps {
    curves: Vec<(SecurityCurve, SecurityCurve)>,
    /// Each round's latency: one reproduction of Figure 3, both sweeps.
    round_us: Vec<f64>,
    crafted_rows: u64,
    elapsed: Duration,
}

impl Sweeps {
    fn ops_per_s(&self) -> f64 {
        self.crafted_rows as f64 / self.elapsed.as_secs_f64()
    }
}

fn sweeps(ctx: &ExperimentContext, duration: Duration) -> Result<Sweeps, String> {
    let samples = ctx.scale.attack_samples;
    let rows = ctx.attack_batch().rows() as u64;
    let nonzero = |axis: &SweepAxis| axis.values().iter().filter(|&&v| v > 0.0).count() as u64;
    let per_round =
        rows * (nonzero(&SweepAxis::paper_gamma()) + nonzero(&SweepAxis::paper_theta()));
    let start = Instant::now();
    let mut curves = Vec::new();
    let mut round_us = Vec::new();
    while curves.is_empty() || start.elapsed() < duration {
        let round = Instant::now();
        let a = whitebox::gamma_curve(ctx, samples).map_err(|e| format!("fig3a: {e}"))?;
        let b = whitebox::theta_curve(ctx, samples).map_err(|e| format!("fig3b: {e}"))?;
        round_us.push(stats::us(round.elapsed()));
        curves.push((a, b));
    }
    Ok(Sweeps {
        crafted_rows: per_round * curves.len() as u64,
        curves,
        round_us,
        elapsed: start.elapsed(),
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut log = layers::TraceLog::default();
    let setup_sink = trace.then(trace::install_memory_sink);
    let mut setup_seconds = Vec::new();
    let mut ctx = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(ctx.take());
        let start = Instant::now();
        ctx = Some(
            ExperimentContext::build(ExperimentScale::quick(), seed)
                .map_err(|e| format!("context: {e}"))?,
        );
        setup_seconds.push(start.elapsed().as_secs_f64());
    }
    let ctx = ctx.expect("at least one set-up");
    let setup_lines = setup_sink.map(|s| log.take(&s)).unwrap_or_default();
    trace::install(Sink::Disabled).map_err(|e| e.to_string())?;

    let duration = Duration::from_secs_f64(seconds);
    let (attempts, best, steal_share) = stats::least_disturbed(|| sweeps(&ctx, duration))?;
    let peak_rss = stats::peak_rss_mb();
    let untraced = &attempts[best];
    let mut failures = Vec::new();
    verify(&ctx, untraced, &mut failures)?;
    if attempts.iter().any(|a| a.curves[0] != untraced.curves[0]) {
        failures.push("repeated timed phases disagree".to_string());
    }
    let mut attempted = untraced.crafted_rows;

    let metrics = if trace {
        let sink = trace::install_memory_sink();
        let traced = sweeps(&ctx, duration)?;
        let sweep_lines = log.take(&sink);
        verify(&ctx, &traced, &mut failures)?;
        if traced.curves[0] != untraced.curves[0] {
            failures.push("traced sweep differs from the untraced one".to_string());
        }
        let mut metrics = layers::attack_layers(&log.lines[sweep_lines]);
        metrics.push(Metric::new(
            "obs.trace_overhead_share",
            "fraction",
            1.0 - traced.ops_per_s() / untraced.ops_per_s(),
            traced.curves.len() + untraced.curves.len(),
        ));
        metrics.extend(layers::train_layers(
            &log.lines[setup_lines],
            ctx.x_train.rows(),
            &ctx.target().dims(),
        ));
        metrics.extend(scoring_layers(&ctx, seed, &sink, &mut log, &mut failures)?);
        let batch = ctx.attack_batch();
        let rows: Vec<Vec<f64>> = batch.rows_iter().map(<[f64]>::to_vec).collect();
        metrics.extend(layers::jacobian_layers(ctx.target(), &rows));
        metrics.push(layers::dataset_ms(&ExperimentScale::quick().dataset, seed));
        log.finish(&sink, &format!("repro_fig3-{seed}"))?;
        metrics
    } else {
        let reloads = detector_reloads(&ctx, seed)?;
        attempted += reloads.len() as u64;
        vec![
            Metric::new(
                "setup_s",
                "s",
                stats::median(&setup_seconds),
                setup_seconds.len(),
            ),
            Metric::new("peak_rss_mb", "MB", peak_rss, 1),
            Metric::new(
                "ops_per_s",
                "1/s",
                untraced.ops_per_s(),
                untraced.crafted_rows as usize,
            ),
            Metric::new(
                "op_p50_us",
                "us",
                stats::percentile(&untraced.round_us, 0.5),
                untraced.round_us.len(),
            ),
            Metric::new(
                "op_p99_us",
                "us",
                stats::percentile(&untraced.round_us, 0.99),
                untraced.round_us.len(),
            ),
            serve::reload_metric(&reloads),
        ]
    };
    Ok(Outcome {
        attempted,
        failed: 0,
        failures,
        metrics,
        steal_share,
    })
}

/// Checks the properties Figure 3 must have against the reference
/// forward pass. To inspect crafted rows it crafts the attack batch
/// again at every non-zero γ of Figure 3(a), as the sweep does.
fn verify(
    ctx: &ExperimentContext,
    sweeps: &Sweeps,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let mut push = |r: Result<(), String>| {
        if let Err(e) = r {
            failures.push(e);
        }
    };
    let (fig3a, fig3b) = &sweeps.curves[0];
    for (i, round) in sweeps.curves.iter().enumerate().skip(1) {
        if round != &sweeps.curves[0] {
            push(Err(format!("round {i} differs from round 0")));
        }
    }
    let batch = ctx.attack_batch();
    let reference = ReferenceNet::new(ctx.target());
    let clean_probas: Vec<f64> = batch
        .rows_iter()
        .map(|r| reference.malware_proba(r))
        .collect();
    for (label, curve) in [("fig3a", fig3a), ("fig3b", fig3b)] {
        for series in &curve.series {
            push(check_unit_interval(
                &format!("{label} {}", series.name),
                &series.values,
            ));
            push(check_detection(
                &format!("{label} {} at strength 0", series.name),
                series.values[0],
                &clean_probas,
            ));
        }
    }
    let jsma = fig3a
        .series_named("jsma:target")
        .ok_or("fig3a has no jsma:target series")?;
    push(check_nonincreasing("fig3a jsma:target", &jsma.values));

    let SweepAxis::Gamma { theta, values } = SweepAxis::paper_gamma() else {
        unreachable!("paper_gamma is a γ axis")
    };
    for (point, &gamma) in values.iter().enumerate().filter(|(_, g)| **g > 0.0) {
        let attack = Jsma::new(theta, gamma);
        let budget = attack.max_features(batch.cols());
        let (adversarial, outcomes) =
            craft_batch_parallel(&attack, ctx.target(), &batch, default_threads())
                .map_err(|e| format!("craft at γ = {gamma}: {e}"))?;
        let mut probas = Vec::with_capacity(outcomes.len());
        for (r, outcome) in outcomes.iter().enumerate() {
            push(check_crafted(batch.row(r), adversarial.row(r), budget));
            let p = reference.malware_proba(adversarial.row(r));
            if outcome.evaded {
                push(check_evaded(p));
            }
            probas.push(p);
        }
        push(check_detection(
            &format!("fig3a jsma:target at γ = {gamma}"),
            jsma.values[point],
            &probas,
        ));
    }
    Ok(())
}

/// Hot-reloads the context's trained detector into a server, as an
/// operator puts a freshly trained model live.
fn detector_reloads(ctx: &ExperimentContext, seed: u64) -> Result<Vec<serve::Reload>, String> {
    let path = serve::out_dir().join("repro_detector.json");
    let json = ctx.detector.to_json().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(serve::out_dir())
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut server = serve::start(ctx.detector.clone(), seed)?;
    let reloads = serve::idle_reloads(&mut server.operator, &[path], 0, RELOADS);
    server.handle.shutdown();
    reloads
}

/// The traced run's short scoring pass: the context's own detector
/// served over the wire to two closed-loop clients, so the serving
/// layers are measured on this workload too.
fn scoring_layers(
    ctx: &ExperimentContext,
    seed: u64,
    sink: &trace::MemoryHandle,
    log: &mut layers::TraceLog,
    failures: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let detector = &ctx.detector;
    let samples = serve::distinct_samples(seed, detector.features(), CLIENTS * SCORED_PER_CLIENT);
    let reference = ReferenceDetector::new(detector);
    let refs = vec![samples
        .iter()
        .map(|c| reference.score_counts(c))
        .collect::<Vec<f64>>()];
    let json = detector.to_json().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let pipeline = maleva_core::DetectorPipeline::from_json(&json).map_err(|e| e.to_string())?;
    let load_ms = stats::ms(start.elapsed());
    let mut server = serve::start(pipeline, seed)?;
    log.take(sink);
    let picker = Picker::Cycle(AtomicUsize::new(0), samples.len());
    let phase = serve::closed_loop(
        &mut server.clients,
        &samples,
        &picker,
        seed,
        Until::Requests(SCORED_PER_CLIENT),
        None,
    );
    serve::check_phase(&phase, &refs, failures);
    failures.extend(phase.errors.iter().cloned());
    let phase_lines = log.take(sink);
    let metrics = layers::serve_layers(
        &layers::ServeInput {
            samples: &samples,
            features: detector.features(),
            network: detector.network(),
            phase: &phase,
            detector_load_ms: &[load_ms],
        },
        &log.lines[phase_lines],
    );
    server.handle.shutdown();
    Ok(metrics)
}
