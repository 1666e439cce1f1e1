//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload serve_fresh|serve_repeat|repro_fig3 \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds its inputs from `--seed`, measures for `--seconds`, checks the
//! program's outputs against an independent reference and properties of
//! the method, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones (see README.md). A failed check exits with code 1.

mod fig3;
mod layers;
mod reference;
mod serve;
mod stats;

use std::process::ExitCode;

use stats::Metric;

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// Operations attempted in the timed phase: score requests, reloads
    /// or crafted rows.
    pub attempted: u64,
    /// Of those, operations that returned an error.
    pub failed: u64,
    /// Failed correctness checks; any one fails the run.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Share of machine CPU time stolen by other guests during the
    /// timed phase: context for reading the run's timings.
    pub steal_share: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("train-exports") {
        return match serve::train_exports(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench train-exports: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload serve_fresh|serve_repeat|repro_fig3 --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_fresh" => serve::run(serve::Traffic::Fresh, args.seed, args.seconds, args.trace),
        "serve_repeat" => serve::run(serve::Traffic::Repeat, args.seed, args.seconds, args.trace),
        "repro_fig3" => fig3::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&args, &outcome)
}

/// Prints the run record (fingerprint, every metric with its sample
/// count, failed checks), keeps a copy under `out/`, and ends with the
/// one-line JSON result.
fn report(args: &Args, outcome: &Outcome) -> ExitCode {
    let mut record = String::new();
    record.push_str(&format!(
        "workload {} trace {}\n",
        args.workload,
        u8::from(args.trace)
    ));
    for (key, value) in stats::fingerprint(args.seed) {
        record.push_str(&format!("{key:<20} {value}\n"));
    }
    for m in &outcome.metrics {
        record.push_str(&format!(
            "{:<36} {:>16.4} {:<8} n={}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    record.push_str(&format!(
        "attempted {} failed {} cpu_steal_share {:.4}\n",
        outcome.attempted, outcome.failed, outcome.steal_share
    ));
    for failure in outcome.failures.iter().take(20) {
        record.push_str(&format!("CHECK FAILED: {failure}\n"));
    }
    if outcome.failures.len() > 20 {
        record.push_str(&format!("... {} more\n", outcome.failures.len() - 20));
    }
    print!("{record}");
    let dir = serve::out_dir();
    let name = format!(
        "run-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), &record))
    {
        eprintln!("perfbench: cannot keep the run record: {e}");
    }

    let correct = outcome.failures.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite number as JSON (non-finite values cannot be written, so
/// they are reported as 0 and the run record shows the sample count).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
