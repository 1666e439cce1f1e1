//! `bench_gate` — the CI performance-regression gate.
//!
//! ```text
//! bench_gate [--in-dir DIR] [--baseline-dir DIR] [--max-regression F]
//!            [--only FILE]
//! ```
//!
//! Compares freshly produced bench reports (`BENCH_linalg.json`,
//! `BENCH_serve.json`, `BENCH_obs.json` in `--in-dir`, default `.`)
//! against the committed baselines in `--baseline-dir` (default
//! `bench_baselines/`) and exits non-zero if any gated metric regressed
//! by more than `--max-regression` (default 0.20, i.e. 20%).
//! `--only FILE` restricts the gate to the metrics and correctness
//! flags of a single report file, for CI jobs that produce just one.
//!
//! Only **ratio metrics** (speedups, overhead fractions) are gated:
//! ratios compare a kernel against another kernel *on the same
//! hardware*, so the gate is meaningful on any CI runner, unlike raw
//! GFLOP/s or wall-clock numbers, which the reports still carry for
//! human eyes. Correctness booleans (`bit_identical`) are enforced
//! unconditionally — a baseline cannot excuse a wrong answer.

use std::process::ExitCode;

use maleva_wire::Json;
use serde::Content;

/// Whether a bigger metric value is better or worse.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One gated metric: where it lives and how to judge it.
struct MetricSpec {
    file: &'static str,
    key: &'static str,
    direction: Direction,
    /// Absolute slack added on top of the relative threshold — keeps
    /// near-zero noise-dominated metrics (overhead fractions) from
    /// tripping the gate on measurement jitter.
    abs_slack: f64,
}

const METRICS: &[MetricSpec] = &[
    MetricSpec {
        file: "BENCH_linalg.json",
        key: "speedup_batch64",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.0,
    },
    MetricSpec {
        file: "BENCH_linalg.json",
        key: "blocked_speedup_batch64",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.0,
    },
    MetricSpec {
        file: "BENCH_linalg.json",
        // Simd-over-scalar GFLOP/s ratio on the Table IV substitute
        // shapes at batch >= 64 — the f32 micro-kernel's headline.
        key: "scalar_vs_simd",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.0,
    },
    MetricSpec {
        file: "BENCH_linalg.json",
        // `matmul` over `matmul_nt` time at the backward pass's
        // weakest shape (Jacobian and training input gradients). Every
        // layer backward runs the nt kernel; this ratio falling means it
        // slid back towards one serial chain of adds per element.
        key: "nt_vs_matmul",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.0,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        key: "batched_forward_speedup",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.0,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        key: "batched_vs_unbatched_speedup",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.0,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        // Throughput retained under fault injection (degraded phase /
        // batched phase). A resilience regression — e.g. the server
        // stalling instead of shedding, or a panic taking the scorer
        // down — collapses this ratio. Chaos makes it noisier than the
        // clean-phase ratios, hence the absolute slack.
        key: "degraded_vs_batched_speedup",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.05,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        // Throughput retained with the extraction sentinel enabled but
        // idle (sentinel_idle phase / batched phase). The sentinel adds
        // a per-request window scan; this ratio collapsing means the
        // defense started taxing the hot path.
        key: "sentinel_vs_batched_speedup",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.05,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        // Sentinel-idle p99 over batched p99 — the tail-latency side of
        // the same promise. The latency histogram buckets by powers of
        // two, so one bucket of jitter doubles this ratio; the slack
        // admits exactly that (2.0 passes against a 1.0 baseline) while
        // a real tail regression (the pre-fingerprint-index sentinel
        // measured 4.0) still trips.
        key: "sentinel_idle_p99_ratio",
        direction: Direction::LowerIsBetter,
        abs_slack: 1.0,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        // shards4 over shards1 end-to-end throughput at >= 64
        // connections. The committed baseline is the multi-core story
        // (>= 1.5x); a single-core runner legitimately measures ~1.0,
        // so the slack is wide enough that "no scaling, no regression
        // either" passes while an actual slowdown at 4 shards —
        // cross-shard contention on the hot path — still trips.
        key: "shard_scaling_speedup",
        direction: Direction::HigherIsBetter,
        abs_slack: 0.6,
    },
    MetricSpec {
        file: "BENCH_serve.json",
        // Reload-storm p99 over batched p99: hot model swaps must not
        // stall the scoring tail. Same power-of-two-bucket jitter
        // argument as `sentinel_idle_p99_ratio`, same slack.
        key: "reload_p99_ratio",
        direction: Direction::LowerIsBetter,
        abs_slack: 1.0,
    },
    MetricSpec {
        file: "BENCH_obs.json",
        key: "null_overhead_frac",
        direction: Direction::LowerIsBetter,
        abs_slack: 0.01,
    },
    MetricSpec {
        file: "BENCH_obs.json",
        // Fractional slowdown of a healthy serve-shaped recording loop
        // (request span + stage/latency histograms) with the default
        // SLO burn-rate engine evaluating at a scrape cadence. This
        // regressing means alarm evaluation started taxing the hot
        // path; near-zero and noise-dominated, hence the slack.
        key: "slo_idle_overhead_frac",
        direction: Direction::LowerIsBetter,
        abs_slack: 0.01,
    },
];

/// Files carrying a correctness boolean that must be `true`.
const CORRECTNESS_FLAGS: &[(&str, &str)] = &[
    ("BENCH_linalg.json", "bit_identical"),
    ("BENCH_linalg.json", "simd_within_tolerance"),
    ("BENCH_serve.json", "bit_identical"),
    ("BENCH_serve.json", "shard_bit_identical"),
];

/// Verdict for one gated metric.
struct Verdict {
    file: &'static str,
    key: &'static str,
    baseline: f64,
    candidate: f64,
    passed: bool,
}

/// Pure regression rule, split out for unit testing: does `candidate`
/// regress more than `max_regression` (plus `abs_slack`) vs `baseline`?
fn regressed(
    baseline: f64,
    candidate: f64,
    direction: Direction,
    max_regression: f64,
    abs_slack: f64,
) -> bool {
    match direction {
        Direction::HigherIsBetter => candidate < baseline * (1.0 - max_regression) - abs_slack,
        Direction::LowerIsBetter => candidate > baseline * (1.0 + max_regression) + abs_slack,
    }
}

fn load_json(dir: &str, file: &str) -> Result<Content, String> {
    let path = format!("{}/{}", dir.trim_end_matches('/'), file);
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str::<Json>(&raw)
        .map(Json::into_content)
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn field<'a>(doc: &'a Content, key: &str) -> Option<&'a Content> {
    match doc {
        Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_f64(doc: &Content, file: &str, key: &str) -> Result<f64, String> {
    match field(doc, key) {
        Some(Content::F64(v)) => Ok(*v),
        Some(Content::U64(v)) => Ok(*v as f64),
        Some(Content::I64(v)) => Ok(*v as f64),
        _ => Err(format!("{file} has no numeric field `{key}`")),
    }
}

struct Args {
    in_dir: String,
    baseline_dir: String,
    max_regression: f64,
    only: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        in_dir: ".".to_string(),
        baseline_dir: "bench_baselines".to_string(),
        max_regression: 0.20,
        only: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("--{name} needs a value"));
        match arg.as_str() {
            "--in-dir" => args.in_dir = value("in-dir")?,
            "--baseline-dir" => args.baseline_dir = value("baseline-dir")?,
            "--max-regression" => {
                args.max_regression = value("max-regression")?
                    .parse()
                    .map_err(|e| format!("bad --max-regression: {e}"))?;
                if !(0.0..1.0).contains(&args.max_regression) {
                    return Err("--max-regression must be in [0, 1)".into());
                }
            }
            "--only" => {
                let file = value("only")?;
                if !METRICS.iter().any(|s| s.file == file) {
                    return Err(format!("--only {file}: no gated metrics live in that file"));
                }
                args.only = Some(file);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_gate [--in-dir DIR] [--baseline-dir DIR] [--max-regression F]\n\
                     \x20                [--only FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    let selected = |file: &str| args.only.as_deref().is_none_or(|only| only == file);

    // Correctness flags: unconditional.
    for &(file, key) in CORRECTNESS_FLAGS.iter().filter(|(f, _)| selected(f)) {
        match load_json(&args.in_dir, file).and_then(|doc| match field(&doc, key) {
            Some(Content::Bool(v)) => Ok(*v),
            _ => Err(format!("{file} has no boolean field `{key}`")),
        }) {
            Ok(true) => println!("OK    {file:<18} {key} = true"),
            Ok(false) => {
                println!("FAIL  {file:<18} {key} = false (correctness contract violated)");
                failures += 1;
            }
            Err(e) => {
                println!("FAIL  {e}");
                failures += 1;
            }
        }
    }

    // Ratio metrics vs baselines.
    let mut verdicts = Vec::new();
    for spec in METRICS.iter().filter(|s| selected(s.file)) {
        let pair = load_json(&args.in_dir, spec.file).and_then(|cand| {
            let base = load_json(&args.baseline_dir, spec.file)?;
            Ok((
                get_f64(&base, spec.file, spec.key)?,
                get_f64(&cand, spec.file, spec.key)?,
            ))
        });
        match pair {
            Ok((baseline, candidate)) => {
                let passed = !regressed(
                    baseline,
                    candidate,
                    spec.direction,
                    args.max_regression,
                    spec.abs_slack,
                );
                verdicts.push(Verdict {
                    file: spec.file,
                    key: spec.key,
                    baseline,
                    candidate,
                    passed,
                });
            }
            Err(e) => {
                println!("FAIL  {e}");
                failures += 1;
            }
        }
    }
    for v in &verdicts {
        println!(
            "{}  {:<18} {:<30} baseline {:>7.3}  candidate {:>7.3}",
            if v.passed { "OK  " } else { "FAIL" },
            v.file,
            v.key,
            v.baseline,
            v.candidate
        );
        if !v.passed {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} metric(s) regressed more than {:.0}% (or failed correctness)",
            args.max_regression * 100.0
        );
        return ExitCode::FAILURE;
    }
    let flags_checked = CORRECTNESS_FLAGS
        .iter()
        .filter(|(f, _)| selected(f))
        .count();
    println!(
        "bench_gate: all {} metrics within {:.0}% of baseline",
        verdicts.len() + flags_checked,
        args.max_regression * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_is_better_trips_past_20_percent() {
        // 21% drop: fail. 19% drop: pass.
        assert!(regressed(2.0, 1.58, Direction::HigherIsBetter, 0.20, 0.0));
        assert!(!regressed(2.0, 1.62, Direction::HigherIsBetter, 0.20, 0.0));
        // Improvements always pass.
        assert!(!regressed(2.0, 2.4, Direction::HigherIsBetter, 0.20, 0.0));
    }

    #[test]
    fn lower_is_better_trips_past_20_percent_plus_slack() {
        // Overhead fraction: baseline 0.01, slack 0.01 → limit 0.022.
        assert!(regressed(0.01, 0.03, Direction::LowerIsBetter, 0.20, 0.01));
        assert!(!regressed(0.01, 0.02, Direction::LowerIsBetter, 0.20, 0.01));
        // Noise-level baselines do not trip on jitter.
        assert!(!regressed(
            0.001,
            0.009,
            Direction::LowerIsBetter,
            0.20,
            0.01
        ));
    }

    #[test]
    fn gated_metric_table_is_ratio_only() {
        // Guard against accidentally gating hardware-dependent absolutes.
        // `_vs_` marks kernel-vs-kernel comparisons (e.g.
        // `scalar_vs_simd`), which are ratios by construction.
        for spec in METRICS {
            assert!(
                spec.key.contains("speedup")
                    || spec.key.contains("frac")
                    || spec.key.contains("ratio")
                    || spec.key.contains("_vs_"),
                "{} is not a ratio metric",
                spec.key
            );
        }
    }
}
