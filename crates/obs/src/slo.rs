//! Declarative SLOs evaluated as multi-window burn-rate alarms over
//! metric [`Snapshot`]s.
//!
//! An [`SloSpec`] names an objective over registered metrics — a
//! latency histogram with a threshold, or a ratio of two counters —
//! together with a target good-fraction and a set of
//! [`BurnWindow`]s. The [`SloEngine`] is fed timestamped snapshots
//! via [`SloEngine::observe`] and answers
//! [`SloEngine::evaluate`] with per-spec alarm states.
//!
//! **Burn rate** follows the SRE-workbook convention: with an error
//! budget of `1 - target`, a window's burn rate is
//! `bad_fraction / (1 - target)` — `1.0` means the budget is being
//! consumed exactly as fast as allowed, `10.0` means ten times too
//! fast. An alarm fires only when **every** configured window exceeds
//! its `max_burn_rate` (the classic multi-window AND: the long window
//! proves the problem is real, the short window proves it is still
//! happening). A window that is not yet covered by two snapshots spaced
//! at least the window apart can never fire — alarms stay silent during
//! warm-up instead of guessing.
//!
//! All timestamps are injected by the caller as [`Duration`]s from an
//! arbitrary epoch, so tests are fully deterministic: no wall clock is
//! read anywhere in this module.

use std::collections::VecDeque;
use std::time::Duration;

use crate::metrics::{Histogram, MetricReading, Snapshot};

/// What an SLO measures, in terms of metric series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Fraction of histogram samples whose (power-of-two quantized)
    /// latency exceeds `threshold_us`: a sample is *bad* when its
    /// bucket's upper bound is greater than the threshold. With
    /// `target = 0.99` this is a p99-latency SLO.
    LatencyAbove {
        /// Name of a registered histogram (microsecond samples).
        histogram: String,
        /// Latency threshold in microseconds.
        threshold_us: u64,
    },
    /// Ratio of two registered counters (`numerator / denominator`),
    /// e.g. errors over requests, or sentinel flags over requests.
    EventRatio {
        /// Counter counting bad events.
        numerator: String,
        /// Counter counting all events.
        denominator: String,
    },
}

/// One alarm window: the look-back period and the burn rate above
/// which it votes to fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// Look-back period.
    pub window: Duration,
    /// Burn rate (error-budget consumption speed, 1.0 = exactly on
    /// budget) above which this window votes to fire.
    pub max_burn_rate: f64,
}

/// A declarative SLO: an objective, a target good-fraction, and the
/// multi-window burn-rate alarm policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Alarm name, e.g. `request_p99_latency`. Also used to name the
    /// exported `slo_alarm_<name>` gauge.
    pub name: String,
    /// What to measure.
    pub objective: Objective,
    /// Target good-fraction in `[0, 1)`, e.g. `0.99` → a 1% error
    /// budget.
    pub target: f64,
    /// Alarm windows; **all** must exceed their burn rate to fire.
    pub windows: Vec<BurnWindow>,
}

/// Cumulative (bad, total) pair for one objective at one instant.
#[derive(Debug, Clone, Copy)]
struct Sample {
    bad: u64,
    total: u64,
}

/// One timestamped observation: a [`Sample`] per spec.
#[derive(Debug, Clone)]
struct Observation {
    at: Duration,
    samples: Vec<Sample>,
}

/// The state of one window at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStatus {
    /// The configured look-back period.
    pub window: Duration,
    /// The configured firing threshold.
    pub max_burn_rate: f64,
    /// Whether two snapshots at least `window` apart exist; an
    /// uncovered window never votes to fire.
    pub covered: bool,
    /// Bad events in the window (delta between snapshots).
    pub bad: u64,
    /// Total events in the window.
    pub total: u64,
    /// Measured burn rate (`bad_frac / error_budget`); 0 when the
    /// window saw no events or is uncovered.
    pub burn_rate: f64,
}

/// The state of one SLO at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The spec's name.
    pub name: String,
    /// Whether the alarm is currently firing (all windows covered and
    /// over their burn rates).
    pub firing: bool,
    /// Whether `firing` changed relative to the previous evaluation —
    /// use to emit edge-triggered events instead of spamming.
    pub changed: bool,
    /// Per-window detail, in spec order.
    pub windows: Vec<WindowStatus>,
}

/// Evaluates a set of [`SloSpec`]s over timestamped metric snapshots.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    snapshots: VecDeque<Observation>,
    /// Longest configured window, for snapshot retention.
    max_window: Duration,
    /// Previous firing state per spec, for transition detection.
    firing: Vec<bool>,
}

impl SloEngine {
    /// Creates an engine over `specs`. Specs with `target >= 1` are
    /// clamped to an epsilon error budget rather than rejected, so a
    /// misconfigured spec alarm-storms instead of dividing by zero.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let max_window = specs
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.window)
            .max()
            .unwrap_or(Duration::ZERO);
        let firing = vec![false; specs.len()];
        SloEngine {
            specs,
            snapshots: VecDeque::new(),
            max_window,
            firing,
        }
    }

    /// The configured specs, in evaluation order.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Records every objective's cumulative counts in `capture` at
    /// caller-supplied instant `at` (monotone across calls; a
    /// non-monotone timestamp is ignored rather than corrupting the
    /// history).
    pub fn observe(&mut self, at: Duration, capture: &Snapshot) {
        if let Some(last) = self.snapshots.back() {
            if at < last.at {
                return;
            }
        }
        let samples = self
            .specs
            .iter()
            .map(|spec| sample_objective(&spec.objective, capture))
            .collect();
        self.snapshots.push_back(Observation { at, samples });
        // Retain one snapshot at or beyond the longest window boundary
        // so that window stays covered; drop everything older.
        let cutoff = at.saturating_sub(self.max_window);
        while self.snapshots.len() >= 2 && self.snapshots[1].at <= cutoff {
            self.snapshots.pop_front();
        }
    }

    /// Evaluates every spec against the snapshot history as of `at`
    /// and updates the internal firing state (so `changed` flags
    /// transitions).
    pub fn evaluate(&mut self, at: Duration) -> Vec<SloStatus> {
        let mut out = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let budget = (1.0 - spec.target).max(1e-9);
            let latest = self.snapshots.back();
            let mut windows = Vec::with_capacity(spec.windows.len());
            let mut all_fire = !spec.windows.is_empty();
            for bw in &spec.windows {
                // Window baseline: the newest snapshot taken at or
                // before the window start. `checked_sub` keeps windows
                // uncovered until the clock itself has run at least one
                // window length — a t=0 snapshot is not 60s of history.
                let base = at
                    .checked_sub(bw.window)
                    .and_then(|start| self.snapshots.iter().rev().find(|s| s.at <= start));
                let (covered, bad, total) = match (base, latest) {
                    (Some(b), Some(l)) => {
                        let bad = l.samples[i].bad.saturating_sub(b.samples[i].bad);
                        let total = l.samples[i].total.saturating_sub(b.samples[i].total);
                        (true, bad, total)
                    }
                    _ => (false, 0, 0),
                };
                let bad_frac = if total == 0 {
                    0.0
                } else {
                    bad as f64 / total as f64
                };
                let burn_rate = if covered { bad_frac / budget } else { 0.0 };
                if !(covered && burn_rate > bw.max_burn_rate) {
                    all_fire = false;
                }
                windows.push(WindowStatus {
                    window: bw.window,
                    max_burn_rate: bw.max_burn_rate,
                    covered,
                    bad,
                    total,
                    burn_rate,
                });
            }
            let changed = all_fire != self.firing[i];
            self.firing[i] = all_fire;
            out.push(SloStatus {
                name: spec.name.clone(),
                firing: all_fire,
                changed,
                windows,
            });
        }
        out
    }
}

/// Reads one objective's cumulative (bad, total) counts from a
/// capture. Missing or kind-mismatched metrics read as all-zero (the
/// alarm stays silent rather than panicking inside a serving loop).
fn sample_objective(objective: &Objective, capture: &Snapshot) -> Sample {
    match objective {
        Objective::LatencyAbove {
            histogram,
            threshold_us,
        } => match capture.get(histogram) {
            Some(MetricReading::Histogram { buckets, count, .. }) => {
                let bad = buckets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| Histogram::bucket_upper(*i) > *threshold_us)
                    .map(|(_, c)| *c)
                    .sum();
                Sample { bad, total: *count }
            }
            _ => Sample { bad: 0, total: 0 },
        },
        Objective::EventRatio {
            numerator,
            denominator,
        } => {
            let read_counter = |name: &str| match capture.get(name) {
                Some(MetricReading::Counter(v)) => *v,
                _ => 0,
            };
            Sample {
                bad: read_counter(numerator),
                total: read_counter(denominator),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn p99_spec(threshold_us: u64) -> SloSpec {
        SloSpec {
            name: "request_p99_latency".into(),
            objective: Objective::LatencyAbove {
                histogram: "latency_us".into(),
                threshold_us,
            },
            target: 0.99,
            windows: vec![
                BurnWindow {
                    window: secs(60),
                    max_burn_rate: 10.0,
                },
                BurnWindow {
                    window: secs(300),
                    max_burn_rate: 10.0,
                },
            ],
        }
    }

    fn error_spec() -> SloSpec {
        SloSpec {
            name: "error_rate".into(),
            objective: Objective::EventRatio {
                numerator: "errors_total".into(),
                denominator: "requests_total".into(),
            },
            target: 0.999,
            windows: vec![BurnWindow {
                window: secs(60),
                max_burn_rate: 5.0,
            }],
        }
    }

    #[test]
    fn uncovered_windows_never_fire() {
        let r = Registry::new();
        let h = r.histogram("latency_us", "Latency.");
        for _ in 0..100 {
            h.record(1_000_000); // every sample terrible
        }
        let mut engine = SloEngine::new(vec![p99_spec(10_000)]);
        engine.observe(secs(0), &r.snapshot());
        // Only 10s of history against 60s/300s windows: silent.
        engine.observe(secs(10), &r.snapshot());
        let st = &engine.evaluate(secs(10))[0];
        assert!(!st.firing);
        assert!(st.windows.iter().all(|w| !w.covered));
    }

    #[test]
    fn sustained_bad_latency_fires_and_recovery_clears() {
        let r = Registry::new();
        let h = r.histogram("latency_us", "Latency.");
        let mut engine = SloEngine::new(vec![p99_spec(10_000)]);
        engine.observe(secs(0), &r.snapshot());
        // 400s of all-bad traffic, snapshotted every 100s.
        for t in 1..=4u64 {
            for _ in 0..100 {
                h.record(1_000_000);
            }
            engine.observe(secs(t * 100), &r.snapshot());
        }
        let st = engine.evaluate(secs(400)).remove(0);
        assert!(st.firing, "{st:?}");
        assert!(st.changed, "first firing evaluation is a transition");
        assert!(st.windows.iter().all(|w| w.covered && w.burn_rate > 10.0));
        // Traffic turns healthy: the short window clears first, and the
        // multi-window AND un-fires the alarm.
        for t in 5..=10u64 {
            for _ in 0..1000 {
                h.record(100); // fast
            }
            engine.observe(secs(t * 100), &r.snapshot());
        }
        let st = engine.evaluate(secs(1000)).remove(0);
        assert!(!st.firing, "{st:?}");
        assert!(st.changed, "recovery is a transition");
        let st = engine.evaluate(secs(1000)).remove(0);
        assert!(!st.changed, "steady state is not a transition");
    }

    #[test]
    fn short_blip_does_not_fire_the_long_window() {
        let r = Registry::new();
        let h = r.histogram("latency_us", "Latency.");
        let mut engine = SloEngine::new(vec![p99_spec(10_000)]);
        // 300s of healthy traffic to cover both windows.
        engine.observe(secs(0), &r.snapshot());
        for t in 1..=6u64 {
            for _ in 0..2000 {
                h.record(100);
            }
            engine.observe(secs(t * 50), &r.snapshot());
        }
        // A 50s blip of bad samples: the 60s window burns hot, but the
        // 300s window is diluted by the healthy majority.
        for _ in 0..300 {
            h.record(1_000_000);
        }
        engine.observe(secs(350), &r.snapshot());
        let st = engine.evaluate(secs(350)).remove(0);
        assert!(!st.firing, "{st:?}");
        assert!(st.windows[0].burn_rate > 10.0, "{st:?}");
        assert!(st.windows[1].burn_rate <= 10.0, "{st:?}");
    }

    #[test]
    fn event_ratio_objective_fires_on_error_burst() {
        let r = Registry::new();
        let errors = r.counter("errors_total", "Errors.");
        let requests = r.counter("requests_total", "Requests.");
        let mut engine = SloEngine::new(vec![error_spec()]);
        engine.observe(secs(0), &r.snapshot());
        requests.add(1000);
        engine.observe(secs(60), &r.snapshot());
        let st = engine.evaluate(secs(60)).remove(0);
        assert!(!st.firing, "no errors: {st:?}");
        // 5% errors against a 0.1% budget: burn rate 50 >> 5.
        requests.add(1000);
        errors.add(50);
        engine.observe(secs(120), &r.snapshot());
        let st = engine.evaluate(secs(120)).remove(0);
        assert!(st.firing, "{st:?}");
        assert!((st.windows[0].burn_rate - 50.0).abs() < 1.0, "{st:?}");
    }

    #[test]
    fn missing_metrics_read_as_silent() {
        let r = Registry::new();
        let mut engine = SloEngine::new(vec![p99_spec(10_000), error_spec()]);
        engine.observe(secs(0), &r.snapshot());
        engine.observe(secs(1000), &r.snapshot());
        let statuses = engine.evaluate(secs(1000));
        assert!(statuses.iter().all(|s| !s.firing), "{statuses:?}");
    }

    #[test]
    fn snapshot_history_is_pruned_to_the_longest_window() {
        let r = Registry::new();
        r.histogram("latency_us", "Latency.");
        let mut engine = SloEngine::new(vec![p99_spec(10_000)]);
        for t in 0..100u64 {
            engine.observe(secs(t * 10), &r.snapshot());
        }
        // Longest window is 300s @ 10s cadence → ~31 snapshots suffice.
        assert!(
            engine.snapshots.len() <= 33,
            "history grew unboundedly: {}",
            engine.snapshots.len()
        );
        // The 300s window is still covered after pruning.
        let st = engine.evaluate(secs(990)).remove(0);
        assert!(st.windows.iter().all(|w| w.covered), "{st:?}");
    }

    #[test]
    fn non_monotone_observations_are_ignored() {
        let r = Registry::new();
        let h = r.histogram("latency_us", "Latency.");
        let mut engine = SloEngine::new(vec![p99_spec(10_000)]);
        engine.observe(secs(100), &r.snapshot());
        h.record(1_000_000);
        engine.observe(secs(50), &r.snapshot()); // ignored
        assert_eq!(engine.snapshots.len(), 1);
    }

    #[test]
    fn latency_threshold_respects_bucket_quantization() {
        let r = Registry::new();
        let h = r.histogram("latency_us", "Latency.");
        // 900us lands in bucket [512, 1024): upper bound 1024.
        h.record(900);
        let spec = p99_spec(1024); // threshold == upper bound → good
        let s = sample_objective(&spec.objective, &r.snapshot());
        assert_eq!((s.bad, s.total), (0, 1));
        let spec = p99_spec(1023); // upper bound exceeds → bad
        let s = sample_objective(&spec.objective, &r.snapshot());
        assert_eq!((s.bad, s.total), (1, 1));
    }
}
