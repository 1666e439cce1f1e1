//! Typed server replies, decoded into the `maleva-wire` bodies the
//! server encodes them from — so callers (the campaign harness, the
//! chaos soak) never scrape raw JSON lines, and the client never keeps
//! its own copy of a body.
//!
//! A required field that is missing or of the wrong type is a
//! [`ClientError::Protocol`], never a silent `0`, `false` or `""`.
//! Unknown fields are ignored, which keeps the client working against
//! a server that adds fields.

use maleva_wire::{Body, DecodeError};

use crate::error::ClientError;

/// Decodes one reply line as body `B` (for example
/// `decode::<HealthReport>` for a `{"cmd":"health"}` reply).
///
/// # Errors
///
/// [`ClientError::Server`] if the line carries the server's typed error
/// body; [`ClientError::Protocol`] if it is not JSON, lacks the body,
/// or the body lacks a required field.
pub fn decode<B: Body>(line: &str) -> Result<B, ClientError> {
    maleva_wire::decode(line).map_err(|e| match e {
        DecodeError::Server(body) => ClientError::Server {
            kind: body.kind,
            detail: body.detail,
            retryable: body.retryable,
            retry_after_ms: body.retry_after_ms,
        },
        DecodeError::Malformed(detail) => ClientError::Protocol { detail },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maleva_wire::{
        encode, ErrorBody, HealthReport, MetricsSnapshot, ReloadAck, SentinelClientReport,
        SentinelReport, SloAlarmReport, SloReport, SloWindowReport, Stats,
    };

    #[test]
    fn parses_a_health_body() {
        let line = encode(&HealthReport {
            status: "ok".to_string(),
            queue_depth: 3,
            shed_depth: 48,
            deadline_ms: 30_000,
            overloaded: 2,
            deadline_exceeded: 1,
            ..HealthReport::default()
        });
        let h: HealthReport = decode(&line).unwrap();
        assert_eq!(h.status, "ok");
        assert!(!h.draining);
        assert_eq!(h.queue_depth, 3);
        assert_eq!(h.shed_depth, 48);
        assert_eq!(h.deadline_ms, 30_000);
        assert_eq!(h.overloaded, 2);
        assert_eq!(h.deadline_exceeded, 1);
    }

    #[test]
    fn parses_a_reload_ack_and_reload_errors() {
        let line = "{\"reload\":{\"generation\":3,\"params\":1234}}";
        let r: ReloadAck = decode(line).unwrap();
        assert_eq!(r.generation, 3);
        assert_eq!(r.params, 1234);
        let line = encode(&ErrorBody {
            kind: "reload_failed".to_string(),
            detail: "input dimension mismatch".to_string(),
            retryable: false,
            retry_after_ms: None,
        });
        match decode::<ReloadAck>(&line) {
            Err(ClientError::Server {
                kind, retryable, ..
            }) => {
                assert_eq!(kind, "reload_failed");
                assert!(!retryable);
            }
            other => panic!("expected a server error, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_stats_body_ignoring_unknown_fields() {
        let merged = MetricsSnapshot {
            requests: 10,
            errors: 1,
            cache_hits: 4,
            cache_misses: 6,
            sentinel_throttled: 2,
            sentinel_flagged: 1,
            p99_latency_us: 512,
            ..MetricsSnapshot::default()
        };
        let line = encode(&Stats {
            shards: vec![merged.clone()],
            merged,
        })
        .replacen(
            "{\"stats\":{",
            "{\"stats\":{\"mystery_future_field\":true,",
            1,
        );
        let s = decode::<Stats>(&line).unwrap().merged;
        assert_eq!(s.requests, 10);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.sentinel_throttled, 2);
        assert_eq!(s.sentinel_flagged, 1);
        assert_eq!(s.p99_latency_us, 512);
    }

    #[test]
    fn parses_a_sentinel_body() {
        let line = encode(&SentinelReport {
            enabled: true,
            action: "throttle".to_string(),
            tracked_clients: 2,
            flagged_clients: 1,
            clients: vec![
                SentinelClientReport {
                    client_id: "attacker".to_string(),
                    queries: 40,
                    flagged: true,
                    flagged_at_query: 21,
                    throttled: 7,
                    ..SentinelClientReport::default()
                },
                SentinelClientReport {
                    client_id: "benign".to_string(),
                    queries: 9,
                    ..SentinelClientReport::default()
                },
            ],
        });
        let s: SentinelReport = decode(&line).unwrap();
        assert!(s.enabled);
        assert_eq!(s.action, "throttle");
        assert_eq!(s.tracked_clients, 2);
        assert_eq!(s.flagged_clients, 1);
        let attacker = s.client("attacker").unwrap();
        assert!(attacker.flagged);
        assert_eq!(attacker.flagged_at_query, 21);
        assert_eq!(attacker.throttled, 7);
        assert!(!s.client("benign").unwrap().flagged);
        assert!(s.client("nobody").is_none());
    }

    #[test]
    fn parses_an_slo_body() {
        let line = encode(&SloReport {
            evaluated_at_ms: 1500,
            alarms: vec![
                SloAlarmReport {
                    name: "request_p99_latency".to_string(),
                    firing: true,
                    changed: false,
                    windows: vec![SloWindowReport {
                        window_ms: 60_000,
                        max_burn_rate: 14.0,
                        burn_rate: 22.5,
                        covered: true,
                        bad: 9,
                        total: 10,
                    }],
                },
                SloAlarmReport {
                    name: "error_rate".to_string(),
                    firing: false,
                    changed: false,
                    windows: Vec::new(),
                },
            ],
        });
        let s: SloReport = decode(&line).unwrap();
        assert_eq!(s.evaluated_at_ms, 1500);
        assert_eq!(s.alarms.len(), 2);
        assert!(s.any_firing());
        let latency = s.alarm("request_p99_latency").unwrap();
        assert!(latency.firing && !latency.changed);
        let w = &latency.windows[0];
        assert_eq!(w.window_ms, 60_000);
        assert!((w.burn_rate - 22.5).abs() < 1e-9);
        assert!(w.covered);
        assert_eq!((w.bad, w.total), (9, 10));
        assert!(!s.alarm("error_rate").unwrap().firing);
        assert!(s.alarm("nobody").is_none());
    }

    #[test]
    fn error_bodies_surface_as_server_errors() {
        let line = "{\"error\":{\"kind\":\"internal\",\"detail\":\"boom\",\"retryable\":false}}";
        match decode::<HealthReport>(line).unwrap_err() {
            ClientError::Server { kind, .. } => assert_eq!(kind, "internal"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_is_a_protocol_error() {
        for line in [
            "",
            "nope",
            "{\"weird\":1}",
            "{\"health\":[1]}",
            "{\"error\":{\"detail\":\"no kind\",\"retryable\":true}}",
        ] {
            assert!(
                matches!(
                    decode::<HealthReport>(line),
                    Err(ClientError::Protocol { .. })
                ),
                "{line:?}"
            );
        }
    }
}
