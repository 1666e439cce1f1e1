//! `maleva` — command-line interface to the adversarial-malware toolkit.
//!
//! ```text
//! maleva train --out detector.json [--scale tiny|quick|paper] [--seed N]
//!              [--checkpoint-dir DIR [--checkpoint-every K] [--resume]]
//! maleva scan  --model detector.json --log sample.log
//! maleva score --remote HOST:PORT --log sample.log [--attempts N] [--deadline-ms T]
//! maleva gen   --out sample.log [--class malware|clean] [--seed N]
//! maleva attack --model detector.json --log sample.log [--theta T] [--gamma G] [--out evaded.log]
//! maleva info  --model detector.json
//! maleva serve --model detector.json [--addr HOST:PORT] [--max-batch N]
//!              [--batch-timeout-ms T] [--cache-cap N]
//!              [--deadline-ms T] [--shed-depth N] [--faults SPEC]
//!              [--sentinel off|throttle|poison] [--sentinel-seed N]
//! maleva blackbox [--scale S] [--seed N] [--queries BUDGET] [--report FILE]
//! maleva campaign [--scale S] [--seed N] [--queries BUDGET] [--benign N]
//!              [--sentinel off|throttle|poison] [--report FILE]
//! maleva obs-report --trace trace.jsonl [--top N] [--out FILE]
//! ```
//!
//! The model artifact is a single JSON file holding the API vocabulary,
//! the fitted feature pipeline, and the trained network — everything the
//! deployed detector of the paper's Figure 2 consists of.

use std::collections::HashMap;
use std::process::ExitCode;

use maleva_apisim::{ApiVocab, Class, World, WorldConfig};
use maleva_attack::{EvasionAttack, Jsma};
use maleva_core::{CheckpointPlan, DetectorPipeline, ExperimentContext, ExperimentScale};
use maleva_obs::trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(command, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = flags.get("threads") {
        match t.parse::<usize>() {
            Ok(n) if n > 0 => maleva_linalg::pool::set_threads(n),
            _ => {
                eprintln!("error: --threads needs a positive integer, got {t}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(b) = flags.get("backend") {
        match b.parse::<maleva_linalg::BackendKind>() {
            Ok(kind) => maleva_linalg::set_backend(Some(kind)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = flags.get("trace-out") {
        let sink = if path == "-" {
            trace::Sink::Stderr
        } else {
            trace::Sink::File(path.into())
        };
        if let Err(e) = trace::install(sink) {
            eprintln!("error: cannot open trace output {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "scan" => cmd_scan(&flags),
        "score" => cmd_score(&flags),
        "gen" => cmd_gen(&flags),
        "attack" => cmd_attack(&flags),
        "info" => cmd_info(&flags),
        "serve" => cmd_serve(&flags),
        "reload" => cmd_reload(&flags),
        "blackbox" => cmd_blackbox(&flags),
        "campaign" => cmd_campaign(&flags),
        "obs-report" => cmd_obs_report(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command: {other}")),
    };
    trace::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
maleva — adversarial-malware toolkit (reproduction of Huang et al., DSN 2019)

usage:
  maleva train  --out detector.json [--scale tiny|quick|paper] [--seed N]
                [--checkpoint-dir DIR [--checkpoint-every K] [--resume]]
  maleva scan   --model detector.json --log sample.log
  maleva score  --remote HOST:PORT --log sample.log
                [--attempts N] [--deadline-ms T]
  maleva gen    --out sample.log [--class malware|clean] [--seed N]
  maleva attack --model detector.json --log sample.log
                [--theta T] [--gamma G] [--out evaded.log]
  maleva info   --model detector.json
  maleva serve  --model detector.json [--addr HOST:PORT] [--shards N]
                [--max-batch N] [--batch-timeout-ms T] [--cache-cap N]
                [--deadline-ms T] [--shed-depth N] [--faults SPEC]
                [--sentinel off|throttle|poison] [--sentinel-seed N]
  maleva reload --remote HOST:PORT --model detector.json
  maleva blackbox [--scale tiny|quick|paper] [--seed N] [--attack-seed N]
                [--queries BUDGET] [--corpus N] [--rounds N] [--overlap F]
                [--gamma G] [--eval N] [--report FILE]
  maleva campaign [--scale tiny|quick|paper] [--seed N] [--attack-seed N]
                [--queries BUDGET] [--corpus N] [--rounds N] [--eval N]
                [--benign N] [--sentinel off|throttle|poison]
                [--sentinel-seed N] [--addr HOST:PORT] [--report FILE]
  maleva obs-report --trace trace.jsonl [--top N] [--out FILE]

serve runs --shards independent event loops (connections pinned by
accept round-robin) and injects deterministic faults when --faults (or
MALEVA_FAULTS) is set, e.g.
'seed=7,write_reset=p0.02,batch_panic=@50,delay_ms=2';
score talks to a running serve instance with retries, backoff, and a
circuit breaker instead of loading a model locally; reload hot-swaps
a running serve instance's model atomically at a batch boundary
(--model may be a pipeline/network export or a checkpoint directory
resolvable by the server)

blackbox runs the offline substitute-model attack (Figure 2) under an
oracle-query budget (0 = unlimited); campaign runs the same attack
live against a spawned (or --addr attached) serve instance with mixed
benign traffic, measuring the extraction sentinel when enabled, and
writes campaign_report.json

obs-report aggregates a --trace-out file offline: per-stage and
per-span latency percentiles, client/server trace joining, six-stage
decomposition checks, and the slowest-request exemplars

every command accepts --trace-out FILE (or '-' for stderr) to write
newline-delimited JSON spans, --threads N (or MALEVA_THREADS) to size
the linalg worker pool, and --backend pooled|simd (or MALEVA_BACKEND)
to pick the kernel every matrix product runs — pooled (default) is
bit-identical to the scalar reference, simd is the fast f32
micro-kernel with a 1e-5 tolerance contract (both variables are read
once per process);
train also writes manifest.json next to its --out artifact";

/// Flags that take no value; parsed as `"true"`.
const BOOLEAN_FLAGS: &[&str] = &["resume"];

/// Flags every command accepts.
const GLOBAL_FLAGS: &[&str] = &["trace-out", "threads", "backend"];

/// The flags `command` reads besides [`GLOBAL_FLAGS`], or `None` for a
/// name that is not a command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "train" => &[
            "out",
            "scale",
            "seed",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
        ],
        "scan" => &["model", "log"],
        "attack" => &["model", "log", "theta", "gamma", "out"],
        "score" => &["remote", "log", "attempts", "deadline-ms"],
        "gen" => &["out", "class", "seed"],
        "info" => &["model"],
        "serve" => &[
            "model",
            "addr",
            "shards",
            "max-batch",
            "batch-timeout-ms",
            "cache-cap",
            "deadline-ms",
            "shed-depth",
            "faults",
            "sentinel",
            "sentinel-seed",
            "seed",
        ],
        "reload" => &["remote", "model"],
        "blackbox" => &[
            "scale",
            "seed",
            "attack-seed",
            "queries",
            "corpus",
            "rounds",
            "overlap",
            "gamma",
            "eval",
            "report",
        ],
        "campaign" => &[
            "scale",
            "seed",
            "attack-seed",
            "queries",
            "corpus",
            "rounds",
            "overlap",
            "gamma",
            "eval",
            "benign",
            "sentinel",
            "sentinel-seed",
            "addr",
            "report",
        ],
        "obs-report" => &["trace", "top", "out"],
        _ => return None,
    })
}

/// Parses `--name value` pairs, rejecting any flag `command` does not
/// read, so a misspelt or retired flag fails instead of being ignored.
fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let known = command_flags(command);
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {key}"));
        };
        if known.is_some_and(|known| !known.contains(&name) && !GLOBAL_FLAGS.contains(&name)) {
            return Err(format!("maleva {command} has no --{name} flag"));
        }
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn seed_of(flags: &HashMap<String, String>) -> Result<u64, String> {
    flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .unwrap_or(Ok(42))
}

fn load_model(flags: &HashMap<String, String>) -> Result<DetectorPipeline, String> {
    let path = required(flags, "model")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    DetectorPipeline::from_json(&json).map_err(|e| format!("cannot load model: {e}"))
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = required(flags, "out")?;
    let seed = seed_of(flags)?;
    let scale = match flags.get("scale").map(String::as_str).unwrap_or("quick") {
        "tiny" => ExperimentScale::tiny(),
        "quick" => ExperimentScale::quick(),
        "paper" => ExperimentScale::paper(),
        other => return Err(format!("unknown scale: {other}")),
    };
    let plan = match flags.get("checkpoint-dir") {
        Some(dir) => {
            let every: usize = flags
                .get("checkpoint-every")
                .map(|s| {
                    s.parse()
                        .map_err(|e| format!("bad --checkpoint-every: {e}"))
                })
                .unwrap_or(Ok(1))?;
            if every == 0 {
                return Err("--checkpoint-every must be positive".to_string());
            }
            CheckpointPlan::new(dir, every, flags.contains_key("resume"))
        }
        None => {
            if flags.contains_key("resume") {
                return Err("--resume requires --checkpoint-dir".to_string());
            }
            CheckpointPlan::none()
        }
    };
    eprintln!("training detector (scale={}, seed={seed}) ...", scale.name);
    let scale_name = scale.name;
    let build_start = std::time::Instant::now();
    let ctx =
        ExperimentContext::build_with_checkpoints(scale, seed, plan).map_err(|e| e.to_string())?;
    let build_elapsed = build_start.elapsed();
    let (tpr, tnr) = ctx.baseline_rates().map_err(|e| e.to_string())?;
    let json = ctx.detector.to_json().map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;

    // Provenance manifest next to the model artifact.
    let manifest = maleva_obs::ManifestBuilder::new("maleva train")
        .seed(seed)
        .scale(scale_name)
        .config(&format!("train scale={scale_name} seed={seed}"))
        .crate_version("maleva-cli", env!("CARGO_PKG_VERSION"))
        .phase("build", build_elapsed)
        .extra("out", out)
        .build();
    let manifest_path = std::path::Path::new(out).with_file_name("manifest.json");
    manifest
        .write_to(&manifest_path)
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;

    println!("saved detector to {out} (malware TPR {tpr:.3}, clean TNR {tnr:.3})");
    println!("wrote provenance manifest to {}", manifest_path.display());
    Ok(())
}

fn cmd_scan(flags: &HashMap<String, String>) -> Result<(), String> {
    let detector = load_model(flags)?;
    let path = required(flags, "log")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let confidence = detector.scan_log(&text).map_err(|e| e.to_string())?;
    let verdict = if confidence >= 0.5 {
        "MALWARE"
    } else {
        "clean"
    };
    println!("{path}: {verdict} (confidence {:.2}%)", confidence * 100.0);
    Ok(())
}

/// Scores a log against a remote `maleva serve` instance through the
/// resilient client: retries with jittered backoff, honors the server's
/// `retry_after_ms` hints, and trips a circuit breaker when the server
/// is down — instead of loading a model artifact locally.
fn cmd_score(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = required(flags, "remote")?;
    let path = required(flags, "log")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let vocab = ApiVocab::standard();
    let counts = maleva_apisim::log::parse_counts(&text, &vocab);

    let defaults = maleva_client::ClientConfig::default();
    let max_attempts: u32 = flags
        .get("attempts")
        .map(|s| s.parse().map_err(|e| format!("bad --attempts: {e}")))
        .unwrap_or(Ok(defaults.max_attempts))?;
    let call_deadline = flags
        .get("deadline-ms")
        .map(|s| {
            s.parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|e| format!("bad --deadline-ms: {e}"))
        })
        .unwrap_or(Ok(defaults.call_deadline))?;
    let mut client = maleva_client::ScoreClient::new(maleva_client::ClientConfig {
        addr: addr.to_string(),
        max_attempts,
        call_deadline,
        ..defaults
    });
    let outcome = client
        .score_counts(&counts)
        .map_err(|e| format!("remote scoring failed: {e}"))?;
    let verdict = if outcome.verdict == "malware" {
        "MALWARE"
    } else {
        "clean"
    };
    println!(
        "{path}: {verdict} (confidence {:.2}%, {} attempt{}, batch of {}{})",
        outcome.score * 100.0,
        outcome.attempts,
        if outcome.attempts == 1 { "" } else { "s" },
        outcome.batch_size,
        if outcome.cached { ", cached" } else { "" },
    );
    Ok(())
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = required(flags, "out")?;
    let seed = seed_of(flags)?;
    let class = match flags.get("class").map(String::as_str).unwrap_or("malware") {
        "malware" => Class::Malware,
        "clean" => Class::Clean,
        other => return Err(format!("unknown class: {other}")),
    };
    let world = World::new(WorldConfig::default());
    let mut rng = maleva_apisim::rng(seed);
    let program = world.sample_program(class, &mut rng);
    let vocab = ApiVocab::standard();
    std::fs::write(out, program.render_log(&vocab))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: synthetic {} sample ({} family, {} API calls)",
        program.class(),
        program.family(),
        program.total_calls()
    );
    Ok(())
}

fn cmd_attack(flags: &HashMap<String, String>) -> Result<(), String> {
    let detector = load_model(flags)?;
    let path = required(flags, "log")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let theta: f64 = flags
        .get("theta")
        .map(|s| s.parse().map_err(|e| format!("bad --theta: {e}")))
        .unwrap_or(Ok(0.25))?;
    let gamma: f64 = flags
        .get("gamma")
        .map(|s| s.parse().map_err(|e| format!("bad --gamma: {e}")))
        .unwrap_or(Ok(0.05))?;

    let counts = maleva_apisim::log::parse_counts(&text, detector.vocab());
    let feats = detector.features().transform_counts(&counts);
    let before = detector.scan_log(&text).map_err(|e| e.to_string())?;
    println!("original confidence: {:.2}%", before * 100.0);

    let jsma = Jsma::new(theta, gamma).with_high_confidence();
    let outcome = jsma
        .craft(detector.network(), &feats)
        .map_err(|e| e.to_string())?;
    if outcome.perturbed_features.is_empty() {
        println!("no admissible perturbation found (already clean or budget 0)");
        return Ok(());
    }

    // Translate the feature-space perturbation back into API insertions.
    println!("suggested API-call insertions (white-box JSMA, theta {theta}, gamma {gamma}):");
    let mut modified_counts = counts.clone();
    for &j in &outcome.perturbed_features {
        let target_value = outcome.adversarial[j];
        let add = detector.features().calls_needed(j, counts[j], target_value);
        if add == 0 {
            continue;
        }
        let name = detector.vocab().name(j).unwrap_or("?");
        println!("  + {add:>3} x {name}");
        modified_counts[j] = modified_counts[j].saturating_add(add);
    }

    // Re-render a modified log and re-scan it end-to-end.
    let program = maleva_apisim::Program::new(
        maleva_apisim::Family::Dropper, // metadata only; counts drive the scan
        maleva_apisim::OsVersion::Win10,
        modified_counts,
    );
    let modified_log = program.render_log(detector.vocab());
    let after = detector
        .scan_log(&modified_log)
        .map_err(|e| e.to_string())?;
    println!("modified confidence: {:.2}%", after * 100.0);
    if let Some(out) = flags.get("out") {
        std::fs::write(out, &modified_log).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote modified log to {out}");
    }
    Ok(())
}

/// Parses the shared sentinel flags: `--sentinel off|throttle|poison`
/// (default off) and `--sentinel-seed N` (default the command's
/// `--seed`, falling back to 42).
fn sentinel_of(flags: &HashMap<String, String>) -> Result<maleva_serve::SentinelConfig, String> {
    let mut config = maleva_serve::SentinelConfig::default();
    match flags.get("sentinel").map(String::as_str).unwrap_or("off") {
        "off" => return Ok(config),
        "throttle" => {
            config.enabled = true;
            config.action = maleva_serve::SentinelAction::Throttle;
        }
        "poison" => {
            config.enabled = true;
            config.action = maleva_serve::SentinelAction::Poison;
        }
        other => return Err(format!("unknown --sentinel action: {other}")),
    }
    config.seed = match flags.get("sentinel-seed") {
        Some(s) => s.parse().map_err(|e| format!("bad --sentinel-seed: {e}"))?,
        None => seed_of(flags)?,
    };
    Ok(config)
}

/// Parses the flags shared by `blackbox` and `campaign` into a
/// [`maleva_core::blackbox::BlackboxConfig`].
fn blackbox_config_of(
    flags: &HashMap<String, String>,
    scale: &ExperimentScale,
) -> Result<maleva_core::blackbox::BlackboxConfig, String> {
    let defaults = maleva_core::blackbox::BlackboxConfig::default();
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        flags
            .get(name)
            .map(|s| s.parse().map_err(|e| format!("bad --{name}: {e}")))
            .unwrap_or(Ok(default))
    };
    let parse_f64 = |name: &str, default: f64| -> Result<f64, String> {
        flags
            .get(name)
            .map(|s| s.parse().map_err(|e| format!("bad --{name}: {e}")))
            .unwrap_or(Ok(default))
    };
    let attack_seed = match flags.get("attack-seed") {
        Some(s) => s.parse().map_err(|e| format!("bad --attack-seed: {e}"))?,
        None => seed_of(flags)?,
    };
    Ok(maleva_core::blackbox::BlackboxConfig {
        seed_corpus: parse_usize("corpus", defaults.seed_corpus)?,
        augmentation_rounds: parse_usize("rounds", defaults.augmentation_rounds)?,
        vocab_overlap: parse_f64("overlap", defaults.vocab_overlap)?,
        gamma: parse_f64("gamma", defaults.gamma)?,
        eval_samples: parse_usize("eval", scale.attack_samples.min(defaults.eval_samples))?,
        query_budget: parse_usize("queries", defaults.query_budget)?,
        seed: attack_seed,
    })
}

fn scale_of(flags: &HashMap<String, String>) -> Result<ExperimentScale, String> {
    match flags.get("scale").map(String::as_str).unwrap_or("quick") {
        "tiny" => Ok(ExperimentScale::tiny()),
        "quick" => Ok(ExperimentScale::quick()),
        "paper" => Ok(ExperimentScale::paper()),
        other => Err(format!("unknown scale: {other}")),
    }
}

/// Runs the offline black-box framework (Figure 2) and writes its
/// serializable summary as a JSON report.
fn cmd_blackbox(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed = seed_of(flags)?;
    let scale = scale_of(flags)?;
    let config = blackbox_config_of(flags, &scale)?;
    eprintln!(
        "building context (scale={}, seed={seed}) and running the substitute attack ...",
        scale.name
    );
    let ctx = ExperimentContext::build(scale, seed).map_err(|e| e.to_string())?;
    let artifacts = maleva_core::blackbox::run(&ctx, &config).map_err(|e| e.to_string())?;
    let summary = artifacts.summary();
    println!(
        "oracle queries : {} total ({} seed / {} aug / {} probe / {} eval)",
        summary.ledger.total(),
        summary.ledger.seed,
        summary.ledger.augmentation,
        summary.ledger.agreement,
        summary.ledger.evaluation
    );
    println!("substitute agreement : {:.3}", summary.oracle_agreement);
    println!(
        "evasions : {}/{} (baseline detection {:.3} -> {:.3})",
        summary.evasions, summary.attacked, summary.baseline_detection, summary.target_detection
    );
    if summary.queries_to_first_evasion > 0 {
        println!(
            "first evasion after {} oracle queries",
            summary.queries_to_first_evasion
        );
    }
    if let Some(out) = flags.get("report") {
        let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote report to {out}");
    }
    Ok(())
}

/// Runs a live campaign — the same attack through a spawned (or
/// attached) scoring server, with benign traffic and an optional
/// sentinel defense — and writes `campaign_report.json`.
fn cmd_campaign(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed = seed_of(flags)?;
    let scale = scale_of(flags)?;
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        flags
            .get(name)
            .map(|s| s.parse().map_err(|e| format!("bad --{name}: {e}")))
            .unwrap_or(Ok(default))
    };
    let defaults = maleva_campaign::CampaignConfig::default();
    let config = maleva_campaign::CampaignConfig {
        blackbox: blackbox_config_of(flags, &scale)?,
        sentinel: sentinel_of(flags)?,
        benign_workers: parse_usize("benign", defaults.benign_workers)?,
        addr: flags.get("addr").cloned(),
        ..defaults
    };
    eprintln!(
        "building context (scale={}, seed={seed}) and launching the campaign \
         (sentinel {}) ...",
        scale.name,
        if config.sentinel.enabled {
            config.sentinel.action.name()
        } else {
            "off"
        }
    );
    let ctx = ExperimentContext::build(scale, seed).map_err(|e| e.to_string())?;
    let report = maleva_campaign::run_campaign(&ctx, &config).map_err(|e| e.to_string())?;

    if report.completed {
        let attack = report.attack.as_ref().expect("completed implies summary");
        println!(
            "attack COMPLETED: {}/{} evasions (ASR {:.3}), agreement {:.3}, {} queries",
            attack.evasions,
            attack.attacked,
            report.attack_success_rate,
            attack.oracle_agreement,
            attack.ledger.total()
        );
        if report.queries_to_first_evasion > 0 {
            println!(
                "first evasion after {} oracle queries",
                report.queries_to_first_evasion
            );
        }
    } else {
        let blocked = report.blocked.as_ref().expect("incomplete implies blocked");
        println!(
            "attack BLOCKED after {} answered queries ({}: {})",
            report.oracle_queries_answered, blocked.kind, blocked.detail
        );
    }
    if report.attacker_flagged {
        println!(
            "sentinel flagged the attacker at query {}",
            report.attacker_flagged_at_query
        );
    }
    println!(
        "benign traffic: {} requests, {} throttled, {} other errors",
        report.benign.requests, report.benign.throttled, report.benign.other_errors
    );
    let out = flags
        .get("report")
        .map(String::as_str)
        .unwrap_or("campaign_report.json");
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote report to {out}");
    Ok(())
}

/// Aggregates a `--trace-out` JSONL file into the human-readable
/// latency-attribution report: per-span and per-stage percentiles,
/// client ↔ server trace joining, and the slowest-request exemplars.
fn cmd_obs_report(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = required(flags, "trace")?;
    let top: usize = flags
        .get("top")
        .map(|s| s.parse().map_err(|e| format!("bad --top: {e}")))
        .unwrap_or(Ok(maleva_obs::report::DEFAULT_TOP))?;
    let report = maleva_obs::report::analyze_file(path, top)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    if report.total_records == 0 {
        return Err(format!("{path} holds no trace records"));
    }
    let text = report.render_text();
    match flags.get("out") {
        Some(out) => {
            std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote report to {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let detector = load_model(flags)?;
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        flags
            .get(name)
            .map(|s| s.parse().map_err(|e| format!("bad --{name}: {e}")))
            .unwrap_or(Ok(default))
    };
    // --faults wins over the MALEVA_FAULTS environment variable.
    let faults = match flags.get("faults") {
        Some(spec) => {
            maleva_serve::FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?
        }
        None => {
            maleva_serve::FaultPlan::from_env().map_err(|e| format!("bad MALEVA_FAULTS: {e}"))?
        }
    };
    let defaults = maleva_serve::ServeConfig::default();
    let config = maleva_serve::ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        shards: parse_usize("shards", defaults.shards)?,
        max_batch: parse_usize("max-batch", defaults.max_batch)?,
        batch_timeout: std::time::Duration::from_millis(parse_usize(
            "batch-timeout-ms",
            defaults.batch_timeout.as_millis() as usize,
        )? as u64),
        cache_capacity: parse_usize("cache-cap", defaults.cache_capacity)?,
        max_line_bytes: defaults.max_line_bytes,
        request_deadline: std::time::Duration::from_millis(parse_usize(
            "deadline-ms",
            defaults.request_deadline.as_millis() as usize,
        )? as u64),
        shed_queue_depth: parse_usize("shed-depth", defaults.shed_queue_depth)?,
        faults,
        sentinel: sentinel_of(flags)?,
        slos: defaults.slos,
    };
    if config.sentinel.enabled {
        eprintln!(
            "extraction sentinel is ON (action {}, seed {})",
            config.sentinel.action.name(),
            config.sentinel.seed
        );
    }
    if config.faults.is_enabled() {
        eprintln!(
            "warning: fault injection is ACTIVE (seed {})",
            config.faults.seed
        );
    }
    let max_batch = config.max_batch;
    let shards = config.shards.max(1);
    let handle =
        maleva_serve::spawn(detector, config).map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "maleva-serve listening on {} ({shards} shard{}, max batch {max_batch}, \
         linalg backend {}); send {{\"cmd\":\"shutdown\"}} to stop",
        handle.addr(),
        if shards == 1 { "" } else { "s" },
        maleva_linalg::backend::effective_kind()
    );
    let stats = handle.join();
    println!(
        "served {} requests in {} batches (mean batch {:.1}, cache hit rate {:.1}%)",
        stats.requests,
        stats.batches,
        stats.mean_batch_size,
        stats.cache_hit_rate * 100.0
    );
    Ok(())
}

/// Hot-swaps a running `maleva serve` instance's model. The --model
/// path is resolved by the *server*, so it must name a pipeline or
/// network export (or checkpoint directory) on the server's
/// filesystem.
fn cmd_reload(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = required(flags, "remote")?;
    let path = required(flags, "model")?;
    let mut client = maleva_client::ScoreClient::connect_to(addr);
    let info = client
        .reload(path)
        .map_err(|e| format!("reload failed: {e}"))?;
    println!(
        "reloaded {path}: now serving model generation {} ({} parameters)",
        info.generation, info.params
    );
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let detector = load_model(flags)?;
    println!("vocabulary : {} APIs", detector.vocab().len());
    println!(
        "features   : {:?} transform, {} dims",
        detector.features().transform_kind(),
        detector.features().dim()
    );
    let dims = detector.network().dims();
    println!(
        "network    : {}-layer DNN {:?} ({} parameters)",
        dims.len(),
        dims,
        detector.network().param_count()
    );
    Ok(())
}
