//! The wire protocol: newline-delimited JSON, one request and one
//! response per line.
//!
//! Requests:
//!
//! ```text
//! {"features": [c0, c1, ..., c490]}   score one sample (raw API-call counts)
//! {"features": [...], "client_id": "tenant-a"}
//!                                     same, with an explicit client identity
//!                                     for the sentinel (defaults to the
//!                                     connection's peer address)
//! {"features": [...], "trace_id": 91, "span_id": 92}
//!                                     same, with wire trace context: the
//!                                     server tags its request/batch spans
//!                                     with the caller's trace so one logical
//!                                     request is followable client → server
//!                                     in a single trace.jsonl (ids are
//!                                     nonzero u64s minted by the client)
//! {"cmd": "stats"}                    metrics snapshot (JSON)
//! {"cmd": "metrics"}                  Prometheus text exposition, multi-line,
//!                                     terminated by a "# EOF" marker line
//! {"cmd": "health"}                   queue depth, drain state, fault counters
//! {"cmd": "sentinel"}                 per-client query-pattern state (JSON)
//! {"cmd": "slo"}                      evaluate SLO burn-rate alarms (JSON)
//! {"cmd": "reload", "path": "..."}    hot-swap the model from a pipeline or
//!                                     network JSON export, or a checkpoint
//!                                     directory; atomic at a batch boundary
//! {"cmd": "shutdown"}                 graceful drain + stop
//! ```
//!
//! Responses:
//!
//! ```text
//! {"score": 0.97, "verdict": "malware", "cached": false, "batch_size": 12}
//!                                     plus "generation": N after a reload
//!                                     (omitted while serving the boot model)
//! {"stats": {...}}                    see `MetricsSnapshot`; merged across
//!                                     shards, with a "shards" array of the
//!                                     same per-shard snapshots it was merged
//!                                     from
//! {"health": {"status": "ok", "queue_depth": 3, ...}}
//! {"sentinel": {"enabled": true, "tracked_clients": 2, ...}}
//! {"slo": {"evaluated_at_ms": 1200, "alarms": [...]}}
//! {"reload": {"generation": 1, "params": 31000}}
//! {"ok": "shutting down"}
//! {"error": {"kind": "overloaded", "detail": "...", "retryable": true,
//!            "retry_after_ms": 12}}
//! ```
//!
//! `retry_after_ms` appears only on `overloaded` and `throttled`
//! errors; every other error body carries exactly `kind`, `detail`,
//! and `retryable` (the full contract table lives in DESIGN.md §12 and
//! the README protocol reference).
//!
//! Every response body is a `maleva-wire` type, encoded with
//! `maleva_wire::encode` — the same declarations `maleva-client`
//! decodes with. Only the score reply, the hot path, keeps its own
//! [`encode_score`].
//!
//! Counts are validated strictly — finite, non-negative, integral, and
//! at most `u32::MAX` — because the features are API-call counts; any
//! violation yields a typed [`ServeError`], never a panic.

use maleva_wire::Json;
pub use maleva_wire::{HealthReport, ScoreResponse};
use serde::Content;

use crate::error::ServeError;

/// Longest accepted `client_id`, in bytes.
const MAX_CLIENT_ID_BYTES: usize = 128;

/// Wire trace context carried on a score request.
///
/// The client mints both ids: `trace_id` is stable across retries of
/// one logical request, `span_id` identifies the individual attempt.
/// The server tags its `serve.request` span and per-job batch events
/// with these ids so a request is followable client → queue → batch →
/// inference → response in one `trace.jsonl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The logical request's trace id (nonzero, stable across retries).
    pub trace_id: u64,
    /// The caller's span id for this attempt (`0` when not supplied).
    pub span_id: u64,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Score one sample given its raw API-call counts.
    Score {
        /// Raw per-API call counts, `dim` entries.
        counts: Vec<u32>,
        /// The caller's self-declared identity for sentinel tracking;
        /// `None` falls back to the connection's peer address.
        client_id: Option<String>,
        /// Wire trace context, when the caller propagated one.
        trace: Option<TraceContext>,
    },
    /// Return a metrics snapshot as JSON.
    Stats,
    /// Return Prometheus text exposition (multi-line, `# EOF`-terminated).
    Metrics,
    /// Return queue depth, drain state, and fault counters as JSON.
    Health,
    /// Return the sentinel's per-client query-pattern state as JSON.
    Sentinel,
    /// Evaluate the SLO burn-rate alarms and return their state as JSON.
    Slo,
    /// Hot-swap the model from the artifact at `path`.
    Reload {
        /// Filesystem path to a pipeline/network JSON export or a
        /// checkpoint directory.
        path: String,
    },
    /// Drain in-flight work and stop the server.
    Shutdown,
}

/// Parses one request line against the detector's feature
/// dimensionality.
///
/// # Errors
///
/// Returns the [`ServeError`] that should be sent back on the wire:
/// [`ServeError::MalformedJson`], [`ServeError::UnknownCommand`],
/// [`ServeError::WrongDimension`], or [`ServeError::InvalidFeature`].
pub fn parse_request(line: &str, dim: usize) -> Result<Request, ServeError> {
    let value = serde_json::from_str::<Json>(line)
        .map_err(|e| ServeError::MalformedJson {
            detail: e.to_string(),
        })?
        .into_content();
    let Content::Map(entries) = value else {
        return Err(ServeError::UnknownCommand {
            command: format!("non-object request ({})", type_name(&value)),
        });
    };
    if let Some((_, cmd)) = entries.iter().find(|(k, _)| k == "cmd") {
        return match cmd {
            Content::Str(s) if s == "stats" => Ok(Request::Stats),
            Content::Str(s) if s == "metrics" => Ok(Request::Metrics),
            Content::Str(s) if s == "health" => Ok(Request::Health),
            Content::Str(s) if s == "sentinel" => Ok(Request::Sentinel),
            Content::Str(s) if s == "slo" => Ok(Request::Slo),
            Content::Str(s) if s == "reload" => match entries.iter().find(|(k, _)| k == "path") {
                Some((_, Content::Str(path))) if !path.is_empty() => {
                    Ok(Request::Reload { path: path.clone() })
                }
                Some((_, other)) => Err(ServeError::UnknownCommand {
                    command: format!(
                        "reload path must be a non-empty string ({})",
                        type_name(other)
                    ),
                }),
                None => Err(ServeError::UnknownCommand {
                    command: "reload requires a \"path\"".to_string(),
                }),
            },
            Content::Str(s) if s == "shutdown" => Ok(Request::Shutdown),
            Content::Str(other) => Err(ServeError::UnknownCommand {
                command: other.clone(),
            }),
            other => Err(ServeError::UnknownCommand {
                command: format!("non-string cmd ({})", type_name(other)),
            }),
        };
    }
    let Some((_, features)) = entries.iter().find(|(k, _)| k == "features") else {
        return Err(ServeError::UnknownCommand {
            command: "object with neither \"features\" nor \"cmd\"".to_string(),
        });
    };
    let Content::Seq(values) = features else {
        return Err(ServeError::UnknownCommand {
            command: format!("non-array features ({})", type_name(features)),
        });
    };
    if values.len() != dim {
        return Err(ServeError::WrongDimension {
            expected: dim,
            actual: values.len(),
        });
    }
    let mut counts = Vec::with_capacity(dim);
    for (index, entry) in values.iter().enumerate() {
        counts.push(parse_count(index, entry)?);
    }
    let client_id = match entries.iter().find(|(k, _)| k == "client_id") {
        None => None,
        Some((_, Content::Str(s))) if !s.is_empty() && s.len() <= MAX_CLIENT_ID_BYTES => {
            Some(s.clone())
        }
        Some((_, Content::Str(_))) => {
            return Err(ServeError::UnknownCommand {
                command: format!("client_id must be 1..={MAX_CLIENT_ID_BYTES} bytes"),
            });
        }
        Some((_, other)) => {
            return Err(ServeError::UnknownCommand {
                command: format!("non-string client_id ({})", type_name(other)),
            });
        }
    };
    let trace = match parse_trace_field(&entries, "trace_id")? {
        None => None,
        Some(trace_id) => Some(TraceContext {
            trace_id,
            span_id: parse_trace_field(&entries, "span_id")?.unwrap_or(0),
        }),
    };
    Ok(Request::Score {
        counts,
        client_id,
        trace,
    })
}

/// Reads an optional trace-context id (`trace_id` / `span_id`): absent
/// is `None`; present must be a nonzero unsigned integer.
fn parse_trace_field(entries: &[(String, Content)], key: &str) -> Result<Option<u64>, ServeError> {
    match entries.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Content::U64(v))) if *v > 0 => Ok(Some(*v)),
        Some((_, other)) => Err(ServeError::UnknownCommand {
            command: format!("{key} must be a nonzero u64 ({})", type_name(other)),
        }),
    }
}

/// Validates one `features` entry as an API-call count.
fn parse_count(index: usize, entry: &Content) -> Result<u32, ServeError> {
    match *entry {
        Content::U64(v) if v <= u32::MAX as u64 => Ok(v as u32),
        Content::U64(v) => Err(ServeError::InvalidFeature {
            index,
            value: v as f64,
        }),
        Content::I64(v) => Err(ServeError::InvalidFeature {
            index,
            value: v as f64,
        }),
        Content::F64(v) => {
            if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 {
                Ok(v as u32)
            } else {
                Err(ServeError::InvalidFeature { index, value: v })
            }
        }
        ref other => Err(ServeError::InvalidFeature {
            index,
            value: match other {
                Content::Bool(true) => 1.0,
                _ => f64::NAN,
            },
        }),
    }
}

fn type_name(v: &Content) -> &'static str {
    match v {
        Content::Null => "null",
        Content::Bool(_) => "bool",
        Content::U64(_) | Content::I64(_) | Content::F64(_) => "number",
        Content::Str(_) => "string",
        Content::Seq(_) => "array",
        Content::Map(_) => "object",
    }
}

/// Encodes a score response line (no trailing newline).
pub fn encode_score(resp: &ScoreResponse) -> String {
    serde_json::to_string(resp).unwrap_or_else(|_| encode_internal_error("score encoding"))
}

/// The shutdown acknowledgement line.
pub const SHUTDOWN_ACK: &str = "{\"ok\":\"shutting down\"}";

fn encode_internal_error(what: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":\"internal\",\"detail\":\"{what} failed\",\"retryable\":false}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use maleva_wire::{
        encode, MetricsSnapshot, ReloadAck, SentinelClientReport, SentinelReport, SloAlarmReport,
        SloReport, SloWindowReport, Stats,
    };

    #[test]
    fn parses_a_well_formed_score_request() {
        let req = parse_request("{\"features\": [0, 3, 12]}", 3).unwrap();
        assert_eq!(
            req,
            Request::Score {
                counts: vec![0, 3, 12],
                client_id: None,
                trace: None,
            }
        );
    }

    #[test]
    fn parses_and_validates_trace_context() {
        let req = parse_request(
            "{\"features\": [0, 3, 12], \"trace_id\": 91, \"span_id\": 92}",
            3,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Score {
                counts: vec![0, 3, 12],
                client_id: None,
                trace: Some(TraceContext {
                    trace_id: 91,
                    span_id: 92,
                }),
            }
        );
        // A lone trace_id is accepted; span_id defaults to 0 (absent).
        let req = parse_request("{\"features\": [0, 3, 12], \"trace_id\": 7}", 3).unwrap();
        assert_eq!(
            req,
            Request::Score {
                counts: vec![0, 3, 12],
                client_id: None,
                trace: Some(TraceContext {
                    trace_id: 7,
                    span_id: 0,
                }),
            }
        );
        // A span_id without a trace_id is ignored (no context to join).
        let req = parse_request("{\"features\": [0, 3, 12], \"span_id\": 5}", 3).unwrap();
        assert!(matches!(req, Request::Score { trace: None, .. }));
        // Zero, negative, fractional, or non-numeric ids are shape errors.
        for line in [
            "{\"features\": [0, 3, 12], \"trace_id\": 0}",
            "{\"features\": [0, 3, 12], \"trace_id\": -4}",
            "{\"features\": [0, 3, 12], \"trace_id\": 1.5}",
            "{\"features\": [0, 3, 12], \"trace_id\": \"t\"}",
            "{\"features\": [0, 3, 12], \"trace_id\": 3, \"span_id\": 0}",
        ] {
            assert_eq!(
                parse_request(line, 3).unwrap_err().kind(),
                "unknown_command",
                "{line}"
            );
        }
    }

    #[test]
    fn parses_and_validates_client_id() {
        let req = parse_request("{\"features\": [0, 3, 12], \"client_id\": \"t-1\"}", 3).unwrap();
        assert_eq!(
            req,
            Request::Score {
                counts: vec![0, 3, 12],
                client_id: Some("t-1".to_string()),
                trace: None,
            }
        );
        // Empty, oversized, or non-string identities are shape errors.
        let long = "x".repeat(129);
        for line in [
            "{\"features\": [0, 3, 12], \"client_id\": \"\"}".to_string(),
            format!("{{\"features\": [0, 3, 12], \"client_id\": \"{long}\"}}"),
            "{\"features\": [0, 3, 12], \"client_id\": 7}".to_string(),
        ] {
            assert_eq!(
                parse_request(&line, 3).unwrap_err().kind(),
                "unknown_command",
                "{line}"
            );
        }
    }

    #[test]
    fn parses_commands() {
        assert_eq!(
            parse_request("{\"cmd\": \"stats\"}", 3).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request("{\"cmd\": \"metrics\"}", 3).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"cmd\": \"health\"}", 3).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request("{\"cmd\": \"sentinel\"}", 3).unwrap(),
            Request::Sentinel
        );
        assert_eq!(
            parse_request("{\"cmd\": \"slo\"}", 3).unwrap(),
            Request::Slo
        );
        assert_eq!(
            parse_request("{\"cmd\": \"shutdown\"}", 3).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_json() {
        let err = parse_request("{oops", 3).unwrap_err();
        assert_eq!(err.kind(), "malformed_json");
        // Literal NaN is not valid JSON either.
        let err = parse_request("{\"features\": [NaN, 0, 0]}", 3).unwrap_err();
        assert_eq!(err.kind(), "malformed_json");
    }

    #[test]
    fn rejects_unknown_shapes() {
        for line in [
            "42",
            "[1,2,3]",
            "{\"cmd\": \"reboot\"}",
            "{\"cmd\": 7}",
            "{\"featurez\": [1]}",
            "{\"features\": \"yes\"}",
        ] {
            assert_eq!(
                parse_request(line, 3).unwrap_err().kind(),
                "unknown_command",
                "{line}"
            );
        }
    }

    #[test]
    fn rejects_wrong_dimension() {
        assert_eq!(
            parse_request("{\"features\": [1, 2]}", 3).unwrap_err(),
            ServeError::WrongDimension {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn rejects_invalid_counts() {
        for line in [
            "{\"features\": [1, -2, 3]}",
            "{\"features\": [1, 2.5, 3]}",
            "{\"features\": [1, 1e300, 3]}",
            "{\"features\": [1, null, 3]}",
            "{\"features\": [1, \"7\", 3]}",
        ] {
            let err = parse_request(line, 3).unwrap_err();
            assert_eq!(err.kind(), "invalid_feature", "{line}");
            assert_eq!(
                match err {
                    ServeError::InvalidFeature { index, .. } => index,
                    other => panic!("unexpected {other:?}"),
                },
                1
            );
        }
    }

    #[test]
    fn score_response_derives_verdict() {
        let r = ScoreResponse::new(0.73, false, 4);
        assert_eq!(r.verdict, "malware");
        let r = ScoreResponse::new(0.21, true, 0);
        assert_eq!(r.verdict, "clean");
        let line = encode_score(&ScoreResponse::new(0.5, false, 1));
        assert!(line.contains("\"verdict\":\"malware\""));
        assert!(!line.contains('\n'));
    }

    fn error_body(line: &str) -> Vec<(String, Content)> {
        let v = serde_json::from_str::<Json>(line).unwrap().into_content();
        let Content::Map(top) = v else {
            panic!("not an object")
        };
        let Some((_, Content::Map(body))) = top.into_iter().find(|(k, _)| k == "error") else {
            panic!("no error body");
        };
        body
    }

    #[test]
    fn error_encoding_round_trips_kind_and_retry_hint() {
        let line = encode(
            &ServeError::Overloaded {
                capacity: 64,
                retry_after_ms: 12,
            }
            .body(),
        );
        let body = error_body(&line);
        assert!(body
            .iter()
            .any(|(k, v)| k == "kind" && *v == Content::Str("overloaded".into())));
        assert!(body
            .iter()
            .any(|(k, v)| k == "retryable" && *v == Content::Bool(true)));
        assert!(body
            .iter()
            .any(|(k, v)| k == "retry_after_ms" && *v == Content::U64(12)));
    }

    #[test]
    fn only_overloaded_and_throttled_carry_retry_after_ms() {
        for err in [
            ServeError::DeadlineExceeded { deadline_ms: 100 },
            ServeError::ShuttingDown,
            ServeError::MalformedJson { detail: "x".into() },
        ] {
            let body = error_body(&encode(&err.body()));
            assert!(
                !body.iter().any(|(k, _)| k == "retry_after_ms"),
                "{} should not carry retry_after_ms",
                err.kind()
            );
        }
        let body = error_body(&encode(
            &ServeError::Throttled { retry_after_ms: 25 }.body(),
        ));
        assert!(body
            .iter()
            .any(|(k, v)| k == "kind" && *v == Content::Str("throttled".into())));
        assert!(body
            .iter()
            .any(|(k, v)| k == "retryable" && *v == Content::Bool(true)));
        assert!(body
            .iter()
            .any(|(k, v)| k == "retry_after_ms" && *v == Content::U64(25)));
    }

    #[test]
    fn sentinel_report_encodes_under_a_sentinel_key() {
        let line = encode(&SentinelReport {
            enabled: true,
            action: "throttle".to_string(),
            tracked_clients: 1,
            flagged_clients: 1,
            clients: vec![SentinelClientReport {
                client_id: "attacker".to_string(),
                queries: 40,
                near_duplicates: 30,
                verdict_flips: 5,
                window_near_duplicates: 12,
                window_verdict_flips: 3,
                flagged: true,
                flagged_at_query: 20,
                throttled: 7,
                poisoned: 0,
                observed_rps: 123.4,
            }],
        });
        assert!(line.starts_with("{\"sentinel\":{"), "{line}");
        assert!(line.contains("\"flagged_clients\":1"), "{line}");
        assert!(line.contains("\"client_id\":\"attacker\""), "{line}");
        assert!(line.contains("\"flagged_at_query\":20"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn slo_report_encodes_under_an_slo_key() {
        let line = encode(&SloReport {
            evaluated_at_ms: 1200,
            alarms: vec![SloAlarmReport {
                name: "request_p99_latency".to_string(),
                firing: true,
                changed: false,
                windows: vec![SloWindowReport {
                    window_ms: 60_000,
                    max_burn_rate: 14.0,
                    burn_rate: 20.5,
                    covered: true,
                    bad: 41,
                    total: 200,
                }],
            }],
        });
        assert!(line.starts_with("{\"slo\":{"), "{line}");
        assert!(line.contains("\"evaluated_at_ms\":1200"), "{line}");
        assert!(line.contains("\"name\":\"request_p99_latency\""), "{line}");
        assert!(line.contains("\"firing\":true"), "{line}");
        assert!(line.contains("\"window_ms\":60000"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn health_encoding_includes_queue_and_fault_state() {
        let line = encode(&HealthReport {
            status: "ok".to_string(),
            draining: false,
            queue_depth: 3,
            shed_depth: 48,
            deadline_ms: 30_000,
            scorer_panics: 1,
            row_failures: 0,
            overloaded: 2,
            deadline_exceeded: 0,
            model_generation: 4,
            faults: vec![("batch_panic".to_string(), 1)],
        });
        assert!(line.starts_with("{\"health\":{"), "{line}");
        assert!(line.contains("\"queue_depth\":3"), "{line}");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert!(line.contains("\"scorer_panics\":1"), "{line}");
        assert!(line.contains("\"model_generation\":4"), "{line}");
        assert!(line.contains("batch_panic"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn parses_and_validates_reload() {
        assert_eq!(
            parse_request("{\"cmd\": \"reload\", \"path\": \"/tmp/m.json\"}", 3).unwrap(),
            Request::Reload {
                path: "/tmp/m.json".to_string()
            }
        );
        for line in [
            "{\"cmd\": \"reload\"}",
            "{\"cmd\": \"reload\", \"path\": \"\"}",
            "{\"cmd\": \"reload\", \"path\": 7}",
        ] {
            assert_eq!(
                parse_request(line, 3).unwrap_err().kind(),
                "unknown_command",
                "{line}"
            );
        }
    }

    #[test]
    fn score_encoding_carries_generation_only_after_a_reload() {
        let line = encode_score(&ScoreResponse::new(0.75, false, 4));
        assert!(line.starts_with("{\"score\":"), "{line}");
        assert!(!line.contains("generation"), "{line}");
        let line = encode_score(&ScoreResponse::new(0.75, false, 4).with_generation(2));
        assert!(line.starts_with("{\"score\":"), "{line}");
        assert!(line.ends_with(",\"generation\":2}"), "{line}");
    }

    #[test]
    fn reload_ack_encodes_generation_and_params() {
        assert_eq!(
            encode(&ReloadAck {
                generation: 3,
                params: 31_000
            }),
            "{\"reload\":{\"generation\":3,\"params\":31000}}"
        );
    }

    #[test]
    fn stats_with_shards_appends_the_per_shard_array() {
        let merged = MetricsSnapshot::default();
        let shards = vec![MetricsSnapshot::default(), MetricsSnapshot::default()];
        let line = encode(&Stats { merged, shards });
        assert!(line.starts_with("{\"stats\":{"), "{line}");
        assert!(line.contains("\"shards\":[{"), "{line}");
        // The merged body comes first, shards last, one line.
        assert!(!line.contains('\n'));
        let v = serde_json::from_str::<Json>(&line).unwrap().into_content();
        let Content::Map(top) = v else {
            panic!("not an object")
        };
        let Some((_, Content::Map(stats))) = top.into_iter().find(|(k, _)| k == "stats") else {
            panic!("no stats body");
        };
        let Some((_, Content::Seq(entries))) = stats.iter().find(|(k, _)| k == "shards") else {
            panic!("no shards array");
        };
        assert_eq!(entries.len(), 2);
    }
}
