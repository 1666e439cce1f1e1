//! `maleva-wire` — the reply bodies of the `maleva-serve` protocol,
//! declared once for both ends of the wire.
//!
//! The server encodes every reply from these types and `maleva-client`
//! decodes into the same ones, so the two ends cannot drift apart: a
//! field the server renames or drops fails the client's decode with
//! [`DecodeError::Malformed`] instead of reading as `0`, `false` or
//! `""`. Unknown fields are ignored, so a client keeps working against
//! a server that adds some.
//!
//! Each body implements [`Body`], which names the top-level key its
//! line carries it under (`{"health": {...}}`); [`encode`] and
//! [`decode`] are the one pair both ends use. A line carrying the
//! server's `{"error": {...}}` body decodes to [`DecodeError::Server`]
//! whatever body the caller expected.
//!
//! Requests are not declared here: the server validates them strictly
//! by hand (`maleva_serve::protocol::parse_request`) and the client's
//! request encoders are byte-pinned, so both keep their own code.
//!
//! The crate depends only on `serde`/`serde_json`, which keeps the
//! client free of any dependency on the server.
//!
//! ```
//! use maleva_wire::{decode, encode, DecodeError, ReloadAck};
//!
//! let line = encode(&ReloadAck { generation: 3, params: 31_000 });
//! assert_eq!(line, r#"{"reload":{"generation":3,"params":31000}}"#);
//! assert_eq!(decode::<ReloadAck>(&line).unwrap().generation, 3);
//! assert!(matches!(
//!     decode::<ReloadAck>(r#"{"reload":{"params":31000}}"#),
//!     Err(DecodeError::Malformed(_))
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::de::Error as _;
use serde::{Content, ContentDeserializer, Deserialize, DeserializeOwned, Deserializer, Serialize};

/// A whole JSON document as its raw [`Content`] tree: the vendored
/// `serde_json` has no `Value` type, but every deserializer yields the
/// tree, and this newtype captures it.
#[derive(Debug)]
pub struct Json(Content);

impl<'de> Deserialize<'de> for Json {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.content().map(Json)
    }
}

impl Json {
    /// The parsed tree.
    pub fn into_content(self) -> Content {
        self.0
    }
}

/// A reply body and the key its line carries it under.
pub trait Body: Serialize + DeserializeOwned {
    /// The reply line's single top-level key (`{"<KEY>": body}`), or
    /// `None` for a body that is the whole line (score replies).
    const KEY: Option<&'static str>;
}

/// Why [`decode`] returned no body.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The line carries the server's typed error body.
    Server(ErrorBody),
    /// The line is not the expected body: not JSON, not an object,
    /// without the body's key, or with a required field missing or of
    /// the wrong type.
    Malformed(String),
}

/// Encodes one reply line (no trailing newline).
pub fn encode<B: Body>(body: &B) -> String {
    struct Line<'a, B>(&'a B);
    impl<B: Body> Serialize for Line<'_, B> {
        fn to_content(&self) -> Content {
            let body = self.0.to_content();
            match B::KEY {
                Some(key) => Content::Map(vec![(key.to_string(), body)]),
                None => body,
            }
        }
    }
    serde_json::to_string(&Line(body)).expect("rendering a content tree cannot fail")
}

/// Decodes one reply line as body `B`.
///
/// # Errors
///
/// [`DecodeError::Server`] when the line carries the server's typed
/// error body; [`DecodeError::Malformed`] when it is not a `B` reply.
pub fn decode<B: Body>(line: &str) -> Result<B, DecodeError> {
    let malformed = |what: String| DecodeError::Malformed(format!("{what} (line: {line:?})"));
    let Json(content) =
        serde_json::from_str(line).map_err(|e| malformed(format!("reply is not JSON: {e}")))?;
    let Content::Map(mut entries) = content else {
        return Err(malformed("reply is not an object".to_string()));
    };
    if let Some(error) = take(&mut entries, "error") {
        return Err(match from_content::<ErrorBody, serde_json::Error>(error) {
            Ok(body) => DecodeError::Server(body),
            Err(e) => malformed(format!("`error` body: {e}")),
        });
    }
    let body = match B::KEY {
        Some(key) => take(&mut entries, key)
            .ok_or_else(|| malformed(format!("reply lacks a `{key}` body")))?,
        None => Content::Map(entries),
    };
    from_content::<B, serde_json::Error>(body)
        .map_err(|e| malformed(format!("`{}` body: {e}", B::KEY.unwrap_or("score"))))
}

fn take(entries: &mut Vec<(String, Content)>, key: &str) -> Option<Content> {
    let at = entries.iter().position(|(k, _)| k == key)?;
    Some(entries.remove(at).1)
}

fn from_content<T: DeserializeOwned, E: serde::de::Error>(content: Content) -> Result<T, E> {
    T::deserialize(ContentDeserializer::<E>::new(content))
}

/// The reply to a score request:
/// `{"score":0.97,"verdict":"malware","cached":false,"batch_size":12}`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ScoreResponse {
    /// Malware confidence in `[0, 1]`.
    pub score: f64,
    /// `"malware"` (score ≥ 0.5) or `"clean"`.
    pub verdict: String,
    /// Whether the score came from the cache (no forward pass ran).
    pub cached: bool,
    /// Rows in the batch that produced this score; `0` for cache hits.
    pub batch_size: u64,
    /// Generation of the model that produced the score (0 = boot
    /// model; omitted on the wire while 0 so pre-reload responses are
    /// byte-identical to the previous protocol version).
    #[serde(default)]
    pub generation: u64,
}

impl ScoreResponse {
    /// Builds a response from a score, deriving the verdict. The model
    /// generation defaults to 0 (boot model); see
    /// [`ScoreResponse::with_generation`].
    pub fn new(score: f64, cached: bool, batch_size: usize) -> Self {
        ScoreResponse {
            score,
            verdict: if score >= 0.5 { "malware" } else { "clean" }.to_string(),
            cached,
            batch_size: batch_size as u64,
            generation: 0,
        }
    }

    /// Stamps the model generation that produced the score.
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }
}

impl Serialize for ScoreResponse {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("score".to_string(), Content::F64(self.score)),
            ("verdict".to_string(), Content::Str(self.verdict.clone())),
            ("cached".to_string(), Content::Bool(self.cached)),
            ("batch_size".to_string(), Content::U64(self.batch_size)),
        ];
        if self.generation > 0 {
            fields.push(("generation".to_string(), Content::U64(self.generation)));
        }
        Content::Map(fields)
    }
}

impl Body for ScoreResponse {
    const KEY: Option<&'static str> = None;
}

/// The body of an `{"error": {...}}` reply.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ErrorBody {
    /// The stable error kind (`overloaded`, `wrong_dimension`, ...).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Whether the client may retry the same request.
    pub retryable: bool,
    /// Suggested wait before retrying, in milliseconds; on the wire only
    /// for `overloaded` and `throttled`.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
}

impl Serialize for ErrorBody {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("kind".to_string(), Content::Str(self.kind.clone())),
            ("detail".to_string(), Content::Str(self.detail.clone())),
            ("retryable".to_string(), Content::Bool(self.retryable)),
        ];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms".to_string(), Content::U64(ms)));
        }
        Content::Map(fields)
    }
}

impl Body for ErrorBody {
    const KEY: Option<&'static str> = Some("error");
}

/// The body of a `{"cmd": "health"}` reply.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"` when accepting work, `"draining"` during shutdown.
    pub status: String,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Jobs currently waiting in the scoring queue.
    pub queue_depth: u64,
    /// Queue depth at which admission control starts shedding.
    pub shed_depth: u64,
    /// The per-request deadline, in milliseconds.
    pub deadline_ms: u64,
    /// Batches whose forward pass panicked and were re-scored per row.
    pub scorer_panics: u64,
    /// Rows that failed even the per-row fallback (`internal` replies).
    pub row_failures: u64,
    /// Requests shed or rejected with `overloaded`.
    pub overloaded: u64,
    /// Requests answered with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Generation of the model currently serving (0 = boot model).
    pub model_generation: u64,
    /// Per-site injected-fault counters, `(site, fired)` in stable
    /// order; empty when fault injection is disabled.
    pub faults: Vec<(String, u64)>,
}

impl Body for HealthReport {
    const KEY: Option<&'static str> = Some("health");
}

/// The body of a `{"cmd": "reload"}` acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReloadAck {
    /// The model generation now serving.
    pub generation: u64,
    /// Parameter count of the installed network.
    pub params: u64,
}

impl Body for ReloadAck {
    const KEY: Option<&'static str> = Some("reload");
}

/// A point-in-time copy of the server's counters. The server takes one
/// per shard and merges them into the server-wide view; [`Stats`]
/// carries both.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Score requests received.
    pub requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Rows scored by the network (cache misses).
    pub rows_scored: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when no lookups.
    pub cache_hit_rate: f64,
    /// Live entries in the cache at snapshot time.
    pub cache_entries: usize,
    /// Typed error responses sent.
    pub errors: u64,
    /// Overload rejections (subset of `errors`).
    pub overloaded: u64,
    /// Admission-control rejections before the queue filled (subset of
    /// `overloaded`).
    pub shed: u64,
    /// Requests answered with `deadline_exceeded` (subset of `errors`).
    pub deadline_exceeded: u64,
    /// Batches that panicked and fell back to per-row scoring.
    pub scorer_panics: u64,
    /// Rows that failed even in per-row isolation.
    pub row_failures: u64,
    /// Faults fired by the injector.
    pub faults_injected: u64,
    /// Requests refused with `throttled` by the sentinel (subset of
    /// `errors`).
    pub sentinel_throttled: u64,
    /// Requests answered with poisoned scores.
    pub sentinel_poisoned: u64,
    /// Near-duplicate queries the sentinel observed.
    pub sentinel_near_duplicates: u64,
    /// Decision-boundary verdict flips the sentinel observed.
    pub sentinel_verdict_flips: u64,
    /// Clients newly flagged by the sentinel.
    pub sentinel_flagged: u64,
    /// Clients tracked by the sentinel at snapshot time.
    pub sentinel_tracked_clients: u64,
    /// Jobs waiting in the scoring queue at snapshot time.
    pub queue_depth: u64,
    /// `rows_scored / batches`, 0 when no batches ran.
    pub mean_batch_size: f64,
    /// Median request latency, µs (bucket upper bound).
    pub p50_latency_us: u64,
    /// 99th-percentile request latency, µs (bucket upper bound).
    pub p99_latency_us: u64,
    /// Power-of-two latency buckets: entry `i` counts requests in
    /// `[2^(i-1), 2^i)` µs; the last bucket also counts everything
    /// above.
    pub latency_buckets_us: Vec<u64>,
    /// Power-of-two batch-size buckets, same layout as latencies.
    pub batch_size_buckets: Vec<u64>,
    /// Sum of all recorded request latencies, µs (for merging).
    pub latency_sum_us: u64,
    /// Sum of all recorded batch sizes (for merging).
    pub batch_size_sum: u64,
    /// Per-stage latency buckets in pipeline order (six stages, same
    /// bucket layout as `latency_buckets_us`).
    pub stage_buckets_us: Vec<Vec<u64>>,
    /// Per-stage latency sums, µs, aligned with `stage_buckets_us`.
    pub stage_sums_us: Vec<u64>,
}

/// The body of a `{"cmd": "stats"}` reply: the merged snapshot's
/// fields followed by a `shards` array of the per-shard snapshots it
/// was merged from.
///
/// The per-shard entries carry no `shards` key of their own, which the
/// derive cannot express without flattening, so this one body
/// (de)serializes by hand around the derived [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// The server-wide snapshot; its counters equal the sums over
    /// `shards`.
    pub merged: MetricsSnapshot,
    /// One snapshot per shard, in shard order.
    pub shards: Vec<MetricsSnapshot>,
}

impl Serialize for Stats {
    fn to_content(&self) -> Content {
        let Content::Map(mut body) = self.merged.to_content() else {
            unreachable!("a derived struct serializes to a map")
        };
        body.push(("shards".to_string(), self.shards.to_content()));
        Content::Map(body)
    }
}

impl<'de> Deserialize<'de> for Stats {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let Content::Map(mut body) = d.content()? else {
            return Err(D::Error::custom("expected map for struct Stats"));
        };
        let shards =
            take(&mut body, "shards").ok_or_else(|| D::Error::custom("missing field `shards`"))?;
        Ok(Stats {
            shards: from_content::<_, D::Error>(shards)?,
            merged: from_content::<_, D::Error>(Content::Map(body))?,
        })
    }
}

impl Body for Stats {
    const KEY: Option<&'static str> = Some("stats");
}

/// Per-client row in a `{"cmd": "sentinel"}` reply.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SentinelClientReport {
    /// The client's identifier (`client_id` field, or peer address).
    pub client_id: String,
    /// Total score queries recorded.
    pub queries: u64,
    /// Total near-duplicate queries observed.
    pub near_duplicates: u64,
    /// Total verdict flips observed.
    pub verdict_flips: u64,
    /// Near-duplicates currently in the sliding window.
    pub window_near_duplicates: usize,
    /// Verdict flips currently in the sliding window.
    pub window_verdict_flips: usize,
    /// Whether this client is flagged (sticky).
    pub flagged: bool,
    /// Query index at which the client was flagged (`0` = never).
    pub flagged_at_query: u64,
    /// Queries refused with `throttled`.
    pub throttled: u64,
    /// Queries answered with poisoned scores.
    pub poisoned: u64,
    /// Observed request rate (queries per second of wall clock between
    /// first and last query) — reporting only, never a decision input.
    pub observed_rps: f64,
}

/// The body of a `{"cmd": "sentinel"}` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentinelReport {
    /// Whether the sentinel is enabled.
    pub enabled: bool,
    /// The configured action (`"throttle"` / `"poison"`).
    pub action: String,
    /// Clients currently tracked.
    pub tracked_clients: usize,
    /// Clients currently flagged.
    pub flagged_clients: usize,
    /// Per-client rows, sorted by `client_id`.
    pub clients: Vec<SentinelClientReport>,
}

impl SentinelReport {
    /// The row for `client_id`, if tracked.
    pub fn client(&self, client_id: &str) -> Option<&SentinelClientReport> {
        self.clients.iter().find(|c| c.client_id == client_id)
    }
}

impl Body for SentinelReport {
    const KEY: Option<&'static str> = Some("sentinel");
}

/// The body of a `{"cmd": "slo"}` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Server uptime at evaluation, milliseconds.
    pub evaluated_at_ms: u64,
    /// One entry per configured SLO, in spec order.
    pub alarms: Vec<SloAlarmReport>,
}

impl SloReport {
    /// The alarm named `name`, if configured.
    pub fn alarm(&self, name: &str) -> Option<&SloAlarmReport> {
        self.alarms.iter().find(|a| a.name == name)
    }

    /// Whether any configured alarm is firing.
    pub fn any_firing(&self) -> bool {
        self.alarms.iter().any(|a| a.firing)
    }
}

impl Body for SloReport {
    const KEY: Option<&'static str> = Some("slo");
}

/// Alarm state for one SLO.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloAlarmReport {
    /// The spec name (also the `slo_alarm_<name>` gauge suffix).
    pub name: String,
    /// Whether every window is covered and burning over its budget.
    pub firing: bool,
    /// Whether this evaluation flipped the alarm's state.
    pub changed: bool,
    /// Per-window burn-rate detail, in spec order.
    pub windows: Vec<SloWindowReport>,
}

/// Burn-rate detail for one alarm window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindowReport {
    /// The lookback window, milliseconds.
    pub window_ms: u64,
    /// The burn-rate multiple above which this window votes to fire.
    pub max_burn_rate: f64,
    /// The observed burn rate (bad fraction / error budget).
    pub burn_rate: f64,
    /// Whether the server has been up long enough to cover the window.
    pub covered: bool,
    /// Bad events inside the window.
    pub bad: u64,
    /// Total events inside the window.
    pub total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_appends_shards_after_the_merged_fields() {
        let stats = Stats {
            merged: MetricsSnapshot {
                requests: 3,
                ..MetricsSnapshot::default()
            },
            shards: vec![MetricsSnapshot::default()],
        };
        let line = encode(&stats);
        assert!(line.starts_with(r#"{"stats":{"requests":3,"#), "{line}");
        assert!(line.ends_with(r#""stage_sums_us":[]}]}}"#), "{line}");
        assert_eq!(line.matches("\"shards\"").count(), 1, "{line}");
        assert_eq!(decode::<Stats>(&line).unwrap(), stats);
        let without = line.replacen(",\"shards\":[", ",\"shard_list\":[", 1);
        assert!(matches!(
            decode::<Stats>(&without),
            Err(DecodeError::Malformed(_))
        ));
    }
}
