//! Order statistics, the metric record printed by a run, and the
//! process and machine facts every run reports next to its numbers.

use std::time::Duration;

/// One reported number: its name, unit, value and how many
/// observations stand behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0 for none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU time so far, `(all, stolen)` in clock ticks, from
/// the first line of `/proc/stat`; stolen time is what the hypervisor
/// gave to other guests while this one had work to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// The share of CPU time stolen from this machine between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        0.0
    } else {
        after.1.saturating_sub(before.1) as f64 / all as f64
    }
}

/// Above this share of machine CPU time stolen by other guests, a timed
/// phase is measured again.
const STEAL_LIMIT: f64 = 0.01;
/// Most attempts at one timed phase.
const ATTEMPTS: usize = 2;

/// Runs a timed phase until it ran with at most [`STEAL_LIMIT`] of the
/// machine's CPU time stolen by other guests, at most [`ATTEMPTS`] times.
/// On a shared host, stolen time stalls whichever thread was running,
/// which moves every timing of the phase — tail latency most — for
/// reasons outside the program. Returns every attempt (each must be
/// checked), the index of the least disturbed one, which is the one to
/// report, and its steal share. The choice depends on the machine alone,
/// never on the program's figures.
pub fn least_disturbed<T>(
    mut phase: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, usize, f64), String> {
    let mut attempts = Vec::with_capacity(ATTEMPTS);
    let (mut best, mut best_steal) = (0, f64::INFINITY);
    while attempts.len() < ATTEMPTS {
        let before = cpu_ticks();
        attempts.push(phase()?);
        let steal = steal_share(before, cpu_ticks());
        if steal < best_steal {
            (best, best_steal) = (attempts.len() - 1, steal);
        }
        if steal <= STEAL_LIMIT {
            break;
        }
    }
    Ok((attempts, best, best_steal))
}

/// The machine and build facts a run's numbers depend on, so that
/// results can be compared across commits: `(key, value)` pairs.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == "model name").then(|| value.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "linalg_backend",
            maleva_linalg::backend::effective_kind().name().to_string(),
        ),
        (
            "linalg_pool_threads",
            maleva_linalg::pool::effective_threads().to_string(),
        ),
        (
            "attack_threads",
            maleva_attack::parallel::default_threads().to_string(),
        ),
        ("commit", git_commit()),
        ("source_hash", source_hash()),
    ]
}

/// FNV-1a over the program's and the benchmark's sources (`crates/` and
/// `perfbench/src/`, in path order), so that runs from checkouts without
/// git history can still be matched to the code they measured.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(&root.join("../crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut text = String::new();
    for file in &files {
        text.push_str(&std::fs::read_to_string(file).unwrap_or_default());
    }
    format!("{:016x}", maleva_obs::manifest::fnv1a_64(&text))
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let (id, name) = line.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
