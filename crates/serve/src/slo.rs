//! The server's SLO surface: default objectives, the runtime that
//! evaluates them against a capture of the server's metrics, and the
//! JSON report behind `{"cmd": "slo"}`.
//!
//! The burn-rate math lives in `maleva_obs::slo` and is driven purely
//! by injected timestamps; this module supplies the wall clock (the
//! server's epoch), publishes alarm state as `slo_alarm_<name>` gauges
//! plus a `slo_alarm_transitions_total` counter, and emits a
//! `slo.alarm` trace event whenever an alarm changes state so firing
//! and recovery are visible in the same `trace.jsonl` as the requests
//! that caused them.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use maleva_obs::metrics::{Counter, Gauge, Registry, Snapshot};
use maleva_obs::slo::{BurnWindow, Objective, SloEngine, SloSpec};
use maleva_obs::trace;
pub use maleva_wire::{SloAlarmReport, SloReport, SloWindowReport};

/// The default serve-side SLOs:
///
/// * `request_p99_latency` — at most 1% of answered requests slower
///   than 250 ms (`serve_request_latency_us` above 250_000 µs).
/// * `error_rate` — at most 1% of requests answered with a typed
///   error (`serve_errors_total` / `serve_requests_total`).
/// * `sentinel_false_flag` — at most 0.5% of requests flagging a
///   client (`serve_sentinel_flagged_total` / `serve_requests_total`);
///   a benign workload should essentially never trip the sentinel.
///
/// Each alarm uses the classic two-window burn-rate pair: a short
/// window that reacts fast and a long window that filters blips; both
/// must exceed their budget-burn multiple for the alarm to fire.
pub fn default_serve_slos() -> Vec<SloSpec> {
    let windows = vec![
        BurnWindow {
            window: Duration::from_secs(60),
            max_burn_rate: 14.0,
        },
        BurnWindow {
            window: Duration::from_secs(300),
            max_burn_rate: 6.0,
        },
    ];
    vec![
        SloSpec {
            name: "request_p99_latency".to_string(),
            objective: Objective::LatencyAbove {
                histogram: "serve_request_latency_us".to_string(),
                threshold_us: 250_000,
            },
            target: 0.99,
            windows: windows.clone(),
        },
        SloSpec {
            name: "error_rate".to_string(),
            objective: Objective::EventRatio {
                numerator: "serve_errors_total".to_string(),
                denominator: "serve_requests_total".to_string(),
            },
            target: 0.99,
            windows: windows.clone(),
        },
        SloSpec {
            name: "sentinel_false_flag".to_string(),
            objective: Objective::EventRatio {
                numerator: "serve_sentinel_flagged_total".to_string(),
                denominator: "serve_requests_total".to_string(),
            },
            target: 0.995,
            windows,
        },
    ]
}

/// Checks that every alarm window's burn-rate threshold is finite. A
/// NaN or infinite threshold makes its window never or always vote to
/// fire, and `{"cmd": "slo"}` would carry it as `null`, which clients
/// reject as a protocol error.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] naming the first offending SLO.
pub(crate) fn validate_slos(specs: &[SloSpec]) -> io::Result<()> {
    for spec in specs {
        if let Some(bad) = spec.windows.iter().find(|w| !w.max_burn_rate.is_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "SLO `{}`: max_burn_rate must be finite, got {}",
                    spec.name, bad.max_burn_rate
                ),
            ));
        }
    }
    Ok(())
}

/// Evaluates the configured SLOs on demand against captures of the
/// server's metrics, mirroring alarm state into gauges and trace
/// events.
#[derive(Debug)]
pub struct SloRuntime {
    engine: Mutex<SloEngine>,
    epoch: Instant,
    /// One `slo_alarm_<name>` gauge per spec, index-aligned.
    gauges: Vec<Arc<Gauge>>,
    transitions: Arc<Counter>,
}

impl SloRuntime {
    /// Builds a runtime for `specs`, registering `slo_alarm_<name>`
    /// gauges (1 = firing) and `slo_alarm_transitions_total` in
    /// `registry`.
    pub fn new(specs: Vec<SloSpec>, registry: &Registry) -> Self {
        let gauges = specs
            .iter()
            .map(|spec| {
                registry.gauge(
                    &format!("slo_alarm_{}", spec.name),
                    &format!("Whether the {} SLO burn-rate alarm is firing.", spec.name),
                )
            })
            .collect();
        let transitions = registry.counter(
            "slo_alarm_transitions_total",
            "SLO alarm state changes (firing <-> clear).",
        );
        SloRuntime {
            engine: Mutex::new(SloEngine::new(specs)),
            epoch: Instant::now(),
            gauges,
            transitions,
        }
    }

    /// Observes `capture` at the current server uptime and evaluates
    /// every alarm — the body of `{"cmd": "slo"}`.
    pub fn observe_and_evaluate(&self, capture: &Snapshot) -> SloReport {
        self.evaluate_at(self.epoch.elapsed(), capture)
    }

    /// Deterministic entry point: observe and evaluate at an explicit
    /// uptime. Tests drive this with synthetic clocks.
    pub fn evaluate_at(&self, at: Duration, capture: &Snapshot) -> SloReport {
        let statuses = {
            let mut engine = match self.engine.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            engine.observe(at, capture);
            engine.evaluate(at)
        };
        let mut alarms = Vec::with_capacity(statuses.len());
        for (index, status) in statuses.into_iter().enumerate() {
            if let Some(gauge) = self.gauges.get(index) {
                gauge.set(i64::from(status.firing));
            }
            if status.changed {
                self.transitions.inc();
                trace::event(
                    "slo.alarm",
                    &[
                        ("name", status.name.as_str().into()),
                        ("firing", status.firing.into()),
                    ],
                );
            }
            alarms.push(SloAlarmReport {
                name: status.name,
                firing: status.firing,
                changed: status.changed,
                windows: status
                    .windows
                    .into_iter()
                    .map(|w| SloWindowReport {
                        window_ms: w.window.as_millis().min(u64::MAX as u128) as u64,
                        max_burn_rate: w.max_burn_rate,
                        burn_rate: w.burn_rate,
                        covered: w.covered,
                        bad: w.bad,
                        total: w.total,
                    })
                    .collect(),
            });
        }
        SloReport {
            evaluated_at_ms: at.as_millis().min(u64::MAX as u128) as u64,
            alarms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maleva_obs::metrics::Registry;

    #[test]
    fn default_slos_register_alarm_gauges() {
        let registry = Registry::new();
        let runtime = SloRuntime::new(default_serve_slos(), &registry);
        let report = runtime.observe_and_evaluate(&registry.snapshot());
        assert_eq!(report.alarms.len(), 3);
        assert!(report.alarms.iter().all(|a| !a.firing));
        let text = registry.render_prometheus();
        assert!(text.contains("slo_alarm_request_p99_latency 0"), "{text}");
        assert!(text.contains("slo_alarm_error_rate 0"), "{text}");
        assert!(text.contains("slo_alarm_sentinel_false_flag 0"), "{text}");
        assert!(text.contains("slo_alarm_transitions_total 0"), "{text}");
    }

    #[test]
    fn sustained_errors_fire_and_count_a_transition() {
        let registry = Registry::new();
        let requests = registry.counter("serve_requests_total", "requests");
        let errors = registry.counter("serve_errors_total", "errors");
        let spec = SloSpec {
            name: "error_rate".to_string(),
            objective: Objective::EventRatio {
                numerator: "serve_errors_total".to_string(),
                denominator: "serve_requests_total".to_string(),
            },
            target: 0.99,
            windows: vec![BurnWindow {
                window: Duration::from_millis(100),
                max_burn_rate: 2.0,
            }],
        };
        let runtime = SloRuntime::new(vec![spec], &registry);
        // Baseline at t=0, then a burst where half of all requests err.
        let r0 = runtime.evaluate_at(Duration::ZERO, &registry.snapshot());
        assert!(!r0.alarms[0].firing);
        requests.add(100);
        errors.add(50);
        let r1 = runtime.evaluate_at(Duration::from_millis(150), &registry.snapshot());
        assert!(r1.alarms[0].firing, "{r1:?}");
        assert!(r1.alarms[0].changed);
        assert!(r1.alarms[0].windows[0].burn_rate > 2.0);
        let text = registry.render_prometheus();
        assert!(text.contains("slo_alarm_error_rate 1"), "{text}");
        assert!(text.contains("slo_alarm_transitions_total 1"), "{text}");
        // Steady state afterwards: still firing, no new transition.
        let r2 = runtime.evaluate_at(Duration::from_millis(200), &registry.snapshot());
        assert!(r2.alarms[0].firing);
        assert!(!r2.alarms[0].changed);
    }
}
