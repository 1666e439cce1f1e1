use std::error::Error;
use std::fmt;

use maleva_wire::ErrorBody;

/// Typed protocol/service errors, each of which maps to one `error`
/// response on the wire (see [`crate::protocol`]).
///
/// Like `maleva-eval`'s `EvalError`, every variant names the condition
/// precisely so clients can branch on `kind` without parsing prose; a
/// malformed request must never panic the server or hang the
/// connection.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request line is not valid JSON.
    MalformedJson {
        /// Parser diagnostic.
        detail: String,
    },
    /// The request JSON parsed but is not a known request shape.
    UnknownCommand {
        /// The offending `cmd` value (or a shape description).
        command: String,
    },
    /// `features` has the wrong number of entries.
    WrongDimension {
        /// The detector's feature dimensionality.
        expected: usize,
        /// What the request supplied.
        actual: usize,
    },
    /// A feature count is NaN, infinite, negative, fractional, or too
    /// large to be an API-call count.
    InvalidFeature {
        /// Index of the first offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The request line exceeds the server's line-length limit.
    LineTooLong {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// Admission control shed the request: the scoring queue is at its
    /// bound. The client should back off and retry.
    Overloaded {
        /// The queue bound (`ServeConfig::shed_queue_depth`).
        capacity: usize,
        /// Server-suggested wait before retrying, in milliseconds,
        /// scaled to the current queue depth.
        retry_after_ms: u64,
    },
    /// The request could not be scored within the server's per-request
    /// deadline; the reply channel was abandoned and the connection
    /// stays usable.
    DeadlineExceeded {
        /// The configured per-request deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The sentinel flagged this client's query pattern as a probable
    /// extraction probe; the client is rate-limited. Deterministic for
    /// a given (sentinel seed, client history), so runs replay exactly.
    Throttled {
        /// Server-suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// A `{"cmd": "reload"}` could not install the new model; the
    /// server keeps serving the current generation untouched.
    ReloadFailed {
        /// What went wrong (unreadable artifact, shape mismatch, …).
        detail: String,
    },
    /// The scorer failed internally (should not happen for validated
    /// input; surfaced instead of hanging the connection).
    Internal {
        /// What went wrong.
        detail: String,
    },
}

impl ServeError {
    /// A stable machine-readable tag for the error (the wire `kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::MalformedJson { .. } => "malformed_json",
            ServeError::UnknownCommand { .. } => "unknown_command",
            ServeError::WrongDimension { .. } => "wrong_dimension",
            ServeError::InvalidFeature { .. } => "invalid_feature",
            ServeError::LineTooLong { .. } => "line_too_long",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Throttled { .. } => "throttled",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::ReloadFailed { .. } => "reload_failed",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Whether the client may retry the identical request later
    /// (transient service conditions, as opposed to malformed input).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::Throttled { .. }
        )
    }

    /// Server-suggested retry delay in milliseconds, when the error
    /// carries one (`overloaded` and `throttled` do).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { retry_after_ms, .. }
            | ServeError::Throttled { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// The `error` body this error is answered with on the wire.
    pub fn body(&self) -> ErrorBody {
        ErrorBody {
            kind: self.kind().to_string(),
            detail: self.to_string(),
            retryable: self.is_retryable(),
            retry_after_ms: self.retry_after_ms(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::MalformedJson { detail } => write!(f, "malformed JSON: {detail}"),
            ServeError::UnknownCommand { command } => write!(f, "unknown command: {command}"),
            ServeError::WrongDimension { expected, actual } => {
                write!(f, "expected {expected} features, got {actual}")
            }
            ServeError::InvalidFeature { index, value } => {
                write!(f, "feature {index} is not a valid API-call count: {value}")
            }
            ServeError::LineTooLong { limit } => {
                write!(f, "request line exceeds the {limit}-byte limit")
            }
            ServeError::Overloaded {
                capacity,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "scoring queue full ({capacity} pending); retry in {retry_after_ms} ms"
                )
            }
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "request not scored within the {deadline_ms} ms deadline")
            }
            ServeError::Throttled { retry_after_ms } => {
                write!(
                    f,
                    "query pattern flagged by the sentinel; retry in {retry_after_ms} ms"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::ReloadFailed { detail } => write!(f, "model reload failed: {detail}"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let all = [
            ServeError::MalformedJson { detail: "x".into() },
            ServeError::UnknownCommand {
                command: "x".into(),
            },
            ServeError::WrongDimension {
                expected: 1,
                actual: 2,
            },
            ServeError::InvalidFeature {
                index: 0,
                value: -1.0,
            },
            ServeError::LineTooLong { limit: 8 },
            ServeError::Overloaded {
                capacity: 4,
                retry_after_ms: 5,
            },
            ServeError::DeadlineExceeded { deadline_ms: 100 },
            ServeError::Throttled { retry_after_ms: 25 },
            ServeError::ShuttingDown,
            ServeError::ReloadFailed { detail: "x".into() },
            ServeError::Internal { detail: "x".into() },
        ];
        let kinds: std::collections::HashSet<&str> = all.iter().map(ServeError::kind).collect();
        assert_eq!(kinds.len(), all.len());
        assert!(all.iter().all(|e| !e.to_string().is_empty()));
    }

    #[test]
    fn only_transient_conditions_are_retryable() {
        let overloaded = ServeError::Overloaded {
            capacity: 1,
            retry_after_ms: 7,
        };
        assert!(overloaded.is_retryable());
        assert_eq!(overloaded.retry_after_ms(), Some(7));
        let deadline = ServeError::DeadlineExceeded { deadline_ms: 50 };
        assert!(deadline.is_retryable());
        assert_eq!(deadline.retry_after_ms(), None);
        let throttled = ServeError::Throttled { retry_after_ms: 25 };
        assert!(throttled.is_retryable());
        assert_eq!(throttled.retry_after_ms(), Some(25));
        assert!(!ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::ReloadFailed {
            detail: String::new()
        }
        .is_retryable());
        assert!(!ServeError::MalformedJson {
            detail: String::new()
        }
        .is_retryable());
    }
}
