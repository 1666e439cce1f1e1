//! Traced mode: the per-layer metrics.
//!
//! A traced run installs the program's own trace sink, reads the spans
//! the program already emits (`client.request`, `serve.request` with its
//! six stage fields, `serve.batch`, `train.epoch`, `attack.row`,
//! `jsma.craft`, `attack.batch`), joins client and server spans by trace
//! id, and then replays the workload's own inputs through each layer's
//! public function. Replayed calls are timed with `Instant` and wrapped
//! in `bench.*` spans of their own, so the trace file shows them too.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use maleva_apisim::{Dataset, DatasetSpec, World};
use maleva_attack::parallel::{craft_batch_parallel, default_threads};
use maleva_attack::Jsma;
use maleva_client::{encode_score_request_as, encode_score_request_traced};
use maleva_features::FeaturePipeline;
use maleva_linalg::Matrix;
use maleva_nn::{Network, TrainConfig, Trainer};
use maleva_obs::trace::{self, MemoryHandle, Sink, Span};
use maleva_serve::cache::quantize;
use maleva_serve::protocol::{encode_score, parse_request, ScoreResponse};
use maleva_serve::{LruCache, Sentinel, ServeConfig};

use crate::serve::{client_id, out_dir, serve_config, Phase};
use crate::stats::{self, Metric};

/// Requests of the traced phase replayed through the cheap layers.
const REPLAY_REQUESTS: usize = 4096;
/// Rows replayed through the forward pass and the Jacobian.
const REPLAY_ROWS: usize = 512;
/// Training rows of the training replay on the serving workloads.
const TRAIN_REPLAY_ROWS: usize = 1024;
/// Malware rows crafted by the attack replay on the serving workloads.
const ATTACK_REPLAY_ROWS: usize = 32;

/// One line of the tracer's output, reduced to what the metrics need.
struct Record<'a> {
    line: &'a str,
    ev: &'a str,
    name: &'a str,
}

impl<'a> Record<'a> {
    fn parse(line: &'a str) -> Option<Self> {
        Some(Record {
            line,
            ev: unquote(raw(line, "ev")?),
            name: unquote(raw(line, "name")?),
        })
    }

    fn exit_of(&self, name: &str) -> bool {
        self.ev == "exit" && self.name == name
    }

    fn num(&self, key: &str) -> Option<f64> {
        raw(self.line, key)?.parse().ok()
    }

    fn flag(&self, key: &str) -> Option<bool> {
        raw(self.line, key)?.parse().ok()
    }

    fn text(&self, key: &str) -> Option<&'a str> {
        raw(self.line, key).map(unquote)
    }
}

/// The raw JSON value text of `key` in a flat tracer line.
fn raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = match rest.strip_prefix('"') {
        Some(text) => text.find('"')? + 2,
        None => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

fn unquote(v: &str) -> &str {
    v.trim_matches('"')
}

fn exits<'a>(lines: &'a [String], name: &'a str) -> impl Iterator<Item = Record<'a>> + 'a {
    lines
        .iter()
        .filter_map(|l| Record::parse(l))
        .filter(move |r| r.exit_of(name))
}

/// Times `f` once inside a `bench.*` span; returns its result and
/// duration in microseconds (the span's own bookkeeping is outside the
/// timed interval).
fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = Span::enter(span);
    let start = Instant::now();
    let result = black_box(f());
    (result, stats::us(start.elapsed()))
}

fn median_metric(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    Metric::new(name, unit, stats::median(values), values.len())
}

/// What the serving-layer metrics are computed from.
pub struct ServeInput<'a> {
    pub samples: &'a [Vec<u32>],
    pub features: &'a FeaturePipeline,
    pub network: &'a Network,
    /// The traced phase whose spans `serve_layers` reads.
    pub phase: &'a Phase,
    pub detector_load_ms: &'a [f64],
}

/// Client, wire, server-stage, cache, sentinel, feature and forward-pass
/// metrics of one traced serving phase whose trace is `lines`.
pub fn serve_layers(input: &ServeInput, lines: &[String]) -> Vec<Metric> {
    let mut metrics = span_metrics(lines);
    metrics.extend(replay_serve(input));
    metrics.extend(forward_layers(
        input.network,
        input.features,
        input.samples,
        input.phase,
    ));
    metrics.push(median_metric(
        "core.detector_load_ms",
        "ms",
        input.detector_load_ms,
    ));
    metrics
}

/// Metrics read from the program's own spans of a traced serving phase.
fn span_metrics(lines: &[String]) -> Vec<Metric> {
    let mut server_us: HashMap<u64, f64> = HashMap::new();
    let mut stages: [Vec<f64>; 6] = Default::default();
    let mut cached = 0usize;
    let mut scored = 0usize;
    for r in exits(lines, "serve.request") {
        if r.text("cmd") != Some("score") {
            continue;
        }
        scored += 1;
        cached += usize::from(r.flag("cached") == Some(true));
        if let (Some(id), Some(dur)) = (r.num("trace_id"), r.num("dur_ns")) {
            server_us.insert(id as u64, dur / 1e3);
        }
        for (values, key) in stages.iter_mut().zip(STAGES) {
            if let Some(v) = r.num(&format!("stage_{key}_us")) {
                values.push(v);
            }
        }
    }
    let mut wire = Vec::new();
    let mut retries = 0.0;
    let mut requests = 0;
    for r in exits(lines, "client.request") {
        requests += 1;
        retries += r.num("attempts").unwrap_or(1.0) - 1.0;
        if let (Some(id), Some(dur)) = (r.num("trace_id"), r.num("dur_ns")) {
            if let Some(server) = server_us.get(&(id as u64)) {
                wire.push(dur / 1e3 - server);
            }
        }
    }
    let rows: Vec<f64> = exits(lines, "serve.batch")
        .filter_map(|r| r.num("rows"))
        .collect();
    let mut metrics = vec![
        median_metric("client.wire_us", "us", &wire),
        Metric::new("client.retries", "count", retries, requests),
        Metric::new(
            "serve.batch_rows_mean",
            "rows",
            stats::mean(&rows),
            rows.len(),
        ),
        Metric::new(
            "serve.cache_hit_share",
            "fraction",
            cached as f64 / scored.max(1) as f64,
            scored,
        ),
    ];
    // Stage fields are whole microseconds, so their mean, not their
    // median, is what can show a sub-microsecond change.
    for (values, key) in stages.iter().zip(STAGES) {
        metrics.push(Metric::new(
            format!("serve.stage.{key}_us"),
            "us",
            stats::mean(values),
            values.len(),
        ));
    }
    metrics
}

const STAGES: [&str; 6] = [
    "queue_wait",
    "batch_wait",
    "cache_lookup",
    "sentinel_check",
    "inference",
    "serialize",
];

/// Replays the phase's requests, in send order, through the client
/// encoder, the server's wire parse, the feature transform, cache-key
/// quantization, the LRU cache, the sentinel and the reply encoder.
fn replay_serve(input: &ServeInput) -> Vec<Metric> {
    let mut replies: Vec<_> = input.phase.replies.iter().collect();
    replies.sort_by_key(|r| r.sent_ns);
    replies.truncate(REPLAY_REQUESTS);
    let dim = input.features.dim();
    let config: ServeConfig = serve_config(0);
    let mut cache: LruCache<Vec<i64>, (f64, u64)> = LruCache::new(config.cache_capacity);
    for counts in input.samples {
        cache.insert(quantize(&input.features.transform_counts(counts)), (0.0, 0));
    }
    let mut sentinel = Sentinel::new(config.sentinel.clone());
    let mut times: [Vec<f64>; 7] = Default::default();
    for (i, reply) in replies.iter().enumerate() {
        let counts = &input.samples[reply.sample];
        let id = client_id(reply.client);
        let (line, t) = timed("bench.client.encode", || {
            encode_score_request_traced(
                &encode_score_request_as(counts, &id),
                i as u64 + 1,
                i as u64 + 2,
            )
        });
        times[0].push(t);
        times[1].push(timed("bench.serve.parse", || parse_request(&line, dim)).1);
        let (features, t) = timed("bench.features.transform", || {
            input.features.transform_counts(counts)
        });
        times[2].push(t);
        let (key, t) = timed("bench.serve.quantize", || quantize(&features));
        times[3].push(t);
        let (hit, t) = timed("bench.serve.cache_get", || cache.get(&key));
        times[4].push(t);
        if hit.is_none() {
            cache.insert(key.clone(), (reply.score, 0));
        }
        let verdict = Some(reply.score >= 0.5);
        let (_, t) = timed("bench.serve.sentinel", || {
            let decision = sentinel.decide(&id);
            (decision, sentinel.record(&id, key, verdict))
        });
        times[5].push(t);
        let response = ScoreResponse::new(reply.score, reply.cached, reply.batch_size as usize);
        let (_, t) = timed("bench.serve.encode", || encode_score(&response));
        times[6].push(t);
    }
    [
        "client.encode_us",
        "serve.parse_us",
        "features.transform_us",
        "serve.quantize_us",
        "serve.cache_get_us",
        "serve.sentinel_us",
        "serve.encode_us",
    ]
    .iter()
    .zip(&times)
    .map(|(name, values)| median_metric(name, "us", values))
    .collect()
}

/// Forward pass at batch 1 and 2 (`predict_proba_rows`, the batch sizes
/// two closed-loop clients form), each layer's matmul + bias +
/// activation at batch 1, and the GEMM rate those matmuls achieve.
fn forward_layers(
    network: &Network,
    features: &FeaturePipeline,
    samples: &[Vec<u32>],
    phase: &Phase,
) -> Vec<Metric> {
    let rows: Vec<Vec<f64>> = phase
        .replies
        .iter()
        .take(REPLAY_ROWS)
        .map(|r| features.transform_counts(&samples[r.sample]))
        .collect();
    let mut b1 = Vec::new();
    let mut b2 = Vec::new();
    for pair in rows.chunks(2) {
        b1.push(
            timed("bench.nn.forward_b1", || {
                network.predict_proba_rows(&pair[..1])
            })
            .1,
        );
        if pair.len() == 2 {
            b2.push(timed("bench.nn.forward_b2", || network.predict_proba_rows(pair)).1);
        }
    }
    let layers = network.layers();
    let mut layer_us = vec![Vec::new(); layers.len()];
    let mut matmul_us = vec![Vec::new(); layers.len()];
    for row in &rows {
        let mut h = Matrix::row_vector(row);
        for (i, layer) in layers.iter().enumerate() {
            let _span = Span::enter("bench.nn.layer_forward");
            let start = Instant::now();
            let z = black_box(h.matmul(layer.weights()).expect("layer widths chain"));
            let mm = start.elapsed();
            let act = layer.activation();
            let out = black_box(
                z.add_row_broadcast(layer.bias())
                    .expect("bias matches layer width")
                    .map(|v| act.apply(v)),
            );
            layer_us[i].push(stats::us(start.elapsed()));
            matmul_us[i].push(stats::us(mm));
            h = out;
        }
    }
    let mut metrics = vec![
        median_metric("nn.forward_us.b1", "us", &b1),
        median_metric("nn.forward_us.b2", "us", &b2),
    ];
    for (i, values) in layer_us.iter().enumerate() {
        metrics.push(median_metric(
            &format!("nn.layer{i}_forward_us"),
            "us",
            values,
        ));
    }
    let flops = 2.0 * macs(&network.dims());
    let matmul: f64 = matmul_us.iter().map(|v| stats::median(v)).sum();
    metrics.push(Metric::new(
        "linalg.gflops.serve",
        "GFLOP/s",
        flops / (matmul * 1e3),
        rows.len(),
    ));
    metrics
}

/// Multiply-adds of one forward pass of one row.
fn macs(dims: &[usize]) -> f64 {
    dims.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
}

/// `probability_jacobian` on the given rows, and its arithmetic rate.
/// One Jacobian of a two-class network is a forward and an input-only
/// backward pass over two rows plus a one-row forward: about 10 flops
/// per weight (counted from the tensor sizes, not measured).
pub fn jacobian_layers(network: &Network, rows: &[Vec<f64>]) -> Vec<Metric> {
    let times: Vec<f64> = rows
        .iter()
        .take(REPLAY_ROWS)
        .map(|row| {
            timed("bench.nn.jacobian", || {
                network.probability_jacobian(row, 1.0)
            })
            .1
        })
        .collect();
    let flops = 10.0 * macs(&network.dims());
    vec![
        median_metric("nn.jacobian_us", "us", &times),
        Metric::new(
            "linalg.gflops.jacobian",
            "GFLOP/s",
            flops / (stats::median(&times) * 1e3),
            times.len(),
        ),
    ]
}

/// Training throughput from the program's `train.epoch` spans. A
/// training step costs about 6 flops per weight per sample (forward,
/// weight gradient, input gradient; counted from the tensor sizes).
pub fn train_layers(lines: &[String], samples_per_epoch: usize, dims: &[usize]) -> Vec<Metric> {
    let epochs: Vec<f64> = exits(lines, "train.epoch")
        .filter_map(|r| r.num("dur_ns"))
        .map(|ns| ns / 1e9)
        .collect();
    let rates: Vec<f64> = epochs
        .iter()
        .map(|s| samples_per_epoch as f64 / s)
        .collect();
    let gflops: Vec<f64> = rates.iter().map(|r| 6.0 * macs(dims) * r / 1e9).collect();
    vec![
        median_metric("nn.train_samples_per_s", "1/s", &rates),
        median_metric("linalg.gflops.train", "GFLOP/s", &gflops),
    ]
}

/// Crafting metrics from the program's `attack.row`, `jsma.craft` and
/// `attack.batch` spans.
pub fn attack_layers(lines: &[String]) -> Vec<Metric> {
    let rows: Vec<(f64, f64)> = exits(lines, "attack.row")
        .filter_map(|r| Some((r.num("t_ns")?, r.num("dur_ns")?)))
        .collect();
    let craft_us: Vec<f64> = rows.iter().map(|(_, d)| d / 1e3).collect();
    let iterations: Vec<f64> = exits(lines, "jsma.craft")
        .filter_map(|r| r.num("iterations"))
        .collect();
    // Idle share: crafting-thread time inside each batch not covered by
    // a row, as static chunks leave early finishers waiting.
    let mut offered = 0.0;
    let mut busy = 0.0;
    for batch in exits(lines, "attack.batch") {
        let (Some(end), Some(dur), Some(threads)) =
            (batch.num("t_ns"), batch.num("dur_ns"), batch.num("threads"))
        else {
            continue;
        };
        offered += dur * threads;
        busy += rows
            .iter()
            .filter(|(t, _)| *t > end - dur && *t <= end)
            .map(|(_, d)| d)
            .sum::<f64>();
    }
    vec![
        Metric::new(
            "attack.craft_us.p50",
            "us",
            stats::percentile(&craft_us, 0.5),
            craft_us.len(),
        ),
        Metric::new(
            "attack.craft_us.p99",
            "us",
            stats::percentile(&craft_us, 0.99),
            craft_us.len(),
        ),
        Metric::new(
            "attack.iterations_per_row",
            "count",
            stats::mean(&iterations),
            iterations.len(),
        ),
        Metric::new(
            "attack.idle_share",
            "fraction",
            if offered > 0.0 {
                1.0 - busy / offered
            } else {
                0.0
            },
            rows.len(),
        ),
    ]
}

/// The serving workloads' model-side replays on the served network:
/// one epoch of training on a slice of the corpus, JSMA crafting at the
/// paper's operating point on the workload's malware samples, and the
/// Jacobian behind it.
pub fn model_replays(
    network: &Network,
    features: &FeaturePipeline,
    dataset: &Dataset,
    malware_rows: &[Vec<f64>],
    sink: &MemoryHandle,
    log: &mut TraceLog,
) -> Result<Vec<Metric>, String> {
    let train = &dataset.train()[..TRAIN_REPLAY_ROWS.min(dataset.train().len())];
    let x = features.transform_batch(train);
    let y = Dataset::labels(train);
    let mut copy = network.clone();
    log.take(sink);
    Trainer::new(
        TrainConfig::new()
            .epochs(1)
            .batch_size(256)
            .learning_rate(0.001),
    )
    .fit(&mut copy, &x, &y)
    .map_err(|e| format!("training replay: {e}"))?;
    let lines = log.take(sink);
    let mut metrics = train_layers(&log.lines[lines], train.len(), &network.dims());

    let rows = &malware_rows[..ATTACK_REPLAY_ROWS.min(malware_rows.len())];
    let batch = Matrix::from_rows(rows).map_err(|e| e.to_string())?;
    craft_batch_parallel(&Jsma::new(0.1, 0.025), network, &batch, default_threads())
        .map_err(|e| format!("attack replay: {e}"))?;
    let lines = log.take(sink);
    metrics.extend(attack_layers(&log.lines[lines]));
    metrics.extend(jacobian_layers(network, rows));
    Ok(metrics)
}

/// `World::build_dataset` at `spec`, median of three.
pub fn dataset_ms(spec: &DatasetSpec, seed: u64) -> Metric {
    let world = World::default();
    let times: Vec<f64> = (0..3)
        .map(|_| timed("bench.apisim.dataset", || world.build_dataset(spec, seed)).1 / 1e3)
        .collect();
    median_metric("apisim.dataset_ms", "ms", &times)
}

/// A traced run's trace, moved out of the in-memory sink stage by stage
/// so that each stage's metrics read only that stage's lines.
#[derive(Default)]
pub struct TraceLog {
    pub lines: Vec<String>,
}

impl TraceLog {
    /// Moves everything the sink captured since the last call into the
    /// log and returns where it landed.
    pub fn take(&mut self, sink: &MemoryHandle) -> std::ops::Range<usize> {
        let start = self.lines.len();
        self.lines.extend(sink.lines());
        sink.clear();
        start..self.lines.len()
    }

    /// Turns tracing off and writes the whole trace to
    /// `out/trace-<name>.jsonl`.
    pub fn finish(mut self, sink: &MemoryHandle, name: &str) -> Result<(), String> {
        trace::install(Sink::Disabled).map_err(|e| e.to_string())?;
        self.take(sink);
        let mut text = self.lines.join("\n");
        text.push('\n');
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_of_tracer_lines() {
        let line = r#"{"ev":"exit","span":3,"name":"serve.request","thread":1,"t_ns":99604,"dur_ns":18354,"fields":{"cmd":"score","trace_id":42,"cached":true,"stage_inference_us":7}}"#;
        let r = Record::parse(line).expect("a tracer line");
        assert!(r.exit_of("serve.request"));
        assert_eq!(r.text("cmd"), Some("score"));
        assert_eq!(r.num("trace_id"), Some(42.0));
        assert_eq!(r.num("dur_ns"), Some(18354.0));
        assert_eq!(r.flag("cached"), Some(true));
        assert_eq!(r.num("stage_inference_us"), Some(7.0));
        assert_eq!(r.num("missing"), None);
    }

    #[test]
    fn idle_share_counts_uncovered_thread_time() {
        let lines: Vec<String> = [
            r#"{"ev":"exit","span":2,"name":"attack.row","thread":2,"t_ns":150,"dur_ns":50}"#,
            r#"{"ev":"exit","span":3,"name":"attack.row","thread":3,"t_ns":200,"dur_ns":100}"#,
            r#"{"ev":"exit","span":1,"name":"attack.batch","thread":1,"t_ns":200,"dur_ns":100,"fields":{"threads":2}}"#,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let metrics = attack_layers(&lines);
        let idle = metrics
            .iter()
            .find(|m| m.name == "attack.idle_share")
            .expect("idle share");
        assert!((idle.value - 0.25).abs() < 1e-12, "{}", idle.value);
    }
}
