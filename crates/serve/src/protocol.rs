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
//!
//! [`parse_request`] reads a request line in one pass over its bytes:
//! the `features` array goes straight into the count vector and no
//! JSON tree is built. It accepts the JSON the vendored `serde_json`
//! parser accepts, with one difference: that parser refuses nesting
//! deeper than 128 levels, while this scanner tracks nesting without
//! recursion and has no depth limit. Up to that depth a line is
//! malformed for one exactly when it is malformed for the other.

use std::borrow::Cow;

pub use maleva_wire::{HealthReport, ScoreResponse};

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
/// Errors come in a fixed order of precedence:
///
/// 1. malformed JSON anywhere on the line;
/// 2. a line that is not an object; then, if the object has a `cmd`,
///    whatever that command makes of it; else a missing or non-array
///    `features` (all `unknown_command`);
/// 3. a `features` array whose length is not `dim`;
/// 4. the first entry that is not a count;
/// 5. a bad `client_id`, then a bad `trace_id`, then a bad `span_id`,
///    which is read only when a `trace_id` is present.
///
/// Of two members with the same key, the first wins.
///
/// # Errors
///
/// Returns the [`ServeError`] that should be sent back on the wire:
/// [`ServeError::MalformedJson`], [`ServeError::UnknownCommand`],
/// [`ServeError::WrongDimension`], or [`ServeError::InvalidFeature`].
pub fn parse_request(line: &str, dim: usize) -> Result<Request, ServeError> {
    let mut scan = Scanner {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    scan.skip_ws();
    let request = if scan.peek() == Some(b'{') {
        scan.object(dim)?.into_request(dim)
    } else {
        let kind = scan.skip_value()?;
        Err(unknown(format!("non-object request ({})", kind.name())))
    };
    scan.skip_ws();
    if scan.pos != scan.bytes.len() {
        return Err(scan.malformed("trailing characters"));
    }
    request
}

fn unknown(command: impl Into<String>) -> ServeError {
    ServeError::UnknownCommand {
        command: command.into(),
    }
}

/// The kind of a JSON value, as shape errors name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    True,
    False,
    Number,
    String,
    Array,
    Object,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::True | Kind::False => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A number literal, typed the way the vendored parser types it: an
/// integer literal is unsigned if it fits a `u64`, else signed if it
/// fits an `i64`; anything else is a float.
enum Number {
    Unsigned(u64),
    Signed(i64),
    Float(f64),
}

/// A scalar field of the request object, kept only as far as a request
/// can use it.
enum Field<'a> {
    Str(Cow<'a, str>),
    Unsigned(u64),
    Other(Kind),
}

impl Field<'_> {
    fn kind(&self) -> Kind {
        match self {
            Field::Str(_) => Kind::String,
            Field::Unsigned(_) => Kind::Number,
            Field::Other(kind) => *kind,
        }
    }
}

/// What the `features` entry held.
enum Features {
    /// Something other than an array.
    NotArray(Kind),
    /// An array of `len` entries: their counts, kept while `len <= dim`,
    /// and the index and value of the first entry that is not a count.
    Array {
        counts: Vec<u32>,
        len: usize,
        invalid: Option<(usize, f64)>,
    },
}

/// The first occurrence of each key a request reads.
#[derive(Default)]
struct Fields<'a> {
    cmd: Option<Field<'a>>,
    path: Option<Field<'a>>,
    features: Option<Features>,
    client_id: Option<Field<'a>>,
    trace_id: Option<Field<'a>>,
    span_id: Option<Field<'a>>,
}

impl Fields<'_> {
    fn into_request(self, dim: usize) -> Result<Request, ServeError> {
        if let Some(cmd) = self.cmd {
            return command(cmd, self.path);
        }
        let (counts, len, invalid) = match self.features {
            None => return Err(unknown("object with neither \"features\" nor \"cmd\"")),
            Some(Features::NotArray(kind)) => {
                return Err(unknown(format!("non-array features ({})", kind.name())))
            }
            Some(Features::Array {
                counts,
                len,
                invalid,
            }) => (counts, len, invalid),
        };
        if len != dim {
            return Err(ServeError::WrongDimension {
                expected: dim,
                actual: len,
            });
        }
        if let Some((index, value)) = invalid {
            return Err(ServeError::InvalidFeature { index, value });
        }
        let client_id = match self.client_id {
            None => None,
            Some(Field::Str(s)) if !s.is_empty() && s.len() <= MAX_CLIENT_ID_BYTES => {
                Some(s.into_owned())
            }
            Some(Field::Str(_)) => {
                return Err(unknown(format!(
                    "client_id must be 1..={MAX_CLIENT_ID_BYTES} bytes"
                )))
            }
            Some(other) => {
                return Err(unknown(format!(
                    "non-string client_id ({})",
                    other.kind().name()
                )))
            }
        };
        let trace = match trace_id(self.trace_id, "trace_id")? {
            None => None,
            Some(trace_id) => Some(TraceContext {
                trace_id,
                span_id: self::trace_id(self.span_id, "span_id")?.unwrap_or(0),
            }),
        };
        Ok(Request::Score {
            counts,
            client_id,
            trace,
        })
    }
}

/// A `cmd` request; `path` is read only by `reload`.
fn command(cmd: Field<'_>, path: Option<Field<'_>>) -> Result<Request, ServeError> {
    let name = match cmd {
        Field::Str(name) => name,
        other => return Err(unknown(format!("non-string cmd ({})", other.kind().name()))),
    };
    match &*name {
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "sentinel" => Ok(Request::Sentinel),
        "slo" => Ok(Request::Slo),
        "reload" => match path {
            Some(Field::Str(path)) if !path.is_empty() => Ok(Request::Reload {
                path: path.into_owned(),
            }),
            Some(other) => Err(unknown(format!(
                "reload path must be a non-empty string ({})",
                other.kind().name()
            ))),
            None => Err(unknown("reload requires a \"path\"")),
        },
        "shutdown" => Ok(Request::Shutdown),
        _ => Err(unknown(name)),
    }
}

/// An optional trace-context id (`trace_id` / `span_id`): absent is
/// `None`; present must be a nonzero unsigned integer.
fn trace_id(field: Option<Field<'_>>, key: &str) -> Result<Option<u64>, ServeError> {
    match field {
        None => Ok(None),
        Some(Field::Unsigned(v)) if v > 0 => Ok(Some(v)),
        Some(other) => Err(unknown(format!(
            "{key} must be a nonzero u64 ({})",
            other.kind().name()
        ))),
    }
}

/// A cursor over one request line. Every method that reads a value
/// expects the cursor on its first byte and leaves it just past the
/// value.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn malformed(&self, what: &str) -> ServeError {
        ServeError::MalformedJson {
            detail: format!("JSON error: {what} at byte {}", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), ServeError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.malformed(&format!("expected `{}`", b as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The request object, keeping the first occurrence of each key a
    /// request reads and validating everything else.
    fn object(&mut self, dim: usize) -> Result<Fields<'a>, ServeError> {
        self.pos += 1;
        let mut fields = Fields::default();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let slot = match &*key {
                "features" if fields.features.is_none() => {
                    fields.features = Some(self.features(dim)?);
                    None
                }
                "cmd" => Some(&mut fields.cmd),
                "path" => Some(&mut fields.path),
                "client_id" => Some(&mut fields.client_id),
                "trace_id" => Some(&mut fields.trace_id),
                "span_id" => Some(&mut fields.span_id),
                _ => {
                    self.skip_value()?;
                    None
                }
            };
            if let Some(slot) = slot {
                let field = self.field()?;
                slot.get_or_insert(field);
            }
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(fields);
            }
            if !self.eat(b',') {
                return Err(self.malformed("expected `,` or `}`"));
            }
        }
    }

    /// A scalar field; containers are validated and kept as their kind.
    fn field(&mut self) -> Result<Field<'a>, ServeError> {
        Ok(match self.peek() {
            Some(b'"') => Field::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Unsigned(v) => Field::Unsigned(v),
                Number::Signed(_) | Number::Float(_) => Field::Other(Kind::Number),
            },
            _ => Field::Other(self.skip_value()?),
        })
    }

    /// The `features` value, its entries read straight into counts.
    fn features(&mut self, dim: usize) -> Result<Features, ServeError> {
        if !self.eat(b'[') {
            return Ok(Features::NotArray(self.skip_value()?));
        }
        let mut counts = Vec::with_capacity(dim);
        let mut len = 0;
        let mut invalid = None;
        self.skip_ws();
        if !self.eat(b']') {
            loop {
                let (read, closed) = self.compact_counts(dim, len, &mut counts);
                len += read;
                if closed {
                    break;
                }
                // One entry in any other form.
                self.skip_ws();
                match self.count()? {
                    Ok(count) if len < dim => counts.push(count),
                    Ok(_) => {}
                    Err(value) => {
                        invalid.get_or_insert((len, value));
                    }
                }
                len += 1;
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.malformed("expected `,` or `]`"));
                }
            }
        }
        Ok(Features::Array {
            counts,
            len,
            invalid,
        })
    }

    /// Reads entries in the form the client writes them — one to nine
    /// digits directly followed by `,` or `]`, always a valid count — in
    /// one pass over the bytes, keeping counts while the array holds at
    /// most `dim`. Stops on the first entry in any other form, with the
    /// cursor on it, or past the `]`. Returns the number of entries read
    /// (`before` were read already) and whether the array closed.
    fn compact_counts(
        &mut self,
        dim: usize,
        before: usize,
        counts: &mut Vec<u32>,
    ) -> (usize, bool) {
        let start = self.pos;
        let mut entry = 0;
        let mut value = 0u32;
        let mut read = 0;
        for (i, &b) in self.bytes[start..].iter().enumerate() {
            match b {
                b'0'..=b'9' if i - entry < 9 => value = value * 10 + u32::from(b - b'0'),
                b',' | b']' if i > entry => {
                    if before + read < dim {
                        counts.push(value);
                    }
                    read += 1;
                    value = 0;
                    entry = i + 1;
                    if b == b']' {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.pos = start + entry;
        let closed = entry > 0 && self.bytes[self.pos - 1] == b']';
        (read, closed)
    }

    /// One `features` entry in any form: a count, or the value an
    /// `invalid_feature` error reports for it.
    fn count(&mut self) -> Result<Result<u32, f64>, ServeError> {
        Ok(match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Unsigned(v) => u32::try_from(v).map_err(|_| v as f64),
                Number::Signed(v) => Err(v as f64),
                Number::Float(v) => {
                    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 {
                        Ok(v as u32)
                    } else {
                        Err(v)
                    }
                }
            },
            _ => Err(match self.skip_value()? {
                Kind::True => 1.0,
                _ => f64::NAN,
            }),
        })
    }

    /// A number literal: an optional `-`, then every following digit,
    /// `.`, `e`, `E`, `+` or `-`, parsed as a whole.
    fn number(&mut self) -> Result<Number, ServeError> {
        let start = self.pos;
        self.eat(b'-');
        let mut integer = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if integer {
            if let Ok(v) = text.parse() {
                return Ok(Number::Unsigned(v));
            }
            if let Ok(v) = text.parse() {
                return Ok(Number::Signed(v));
            }
        }
        text.parse()
            .map(Number::Float)
            .map_err(|_| self.malformed(&format!("invalid number `{text}`")))
    }

    /// A string, borrowed from the line unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ServeError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.eat(b'"') {
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.malformed("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    // The plain run stopped at a backslash.
                    self.pos += 1;
                    out.push(self.escape()?);
                    let run = self.pos;
                    self.skip_plain();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Skips to the next `"` or `\` (both ASCII, so the run ends on a
    /// char boundary) or to the end of the line.
    fn skip_plain(&mut self) {
        self.pos += self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.bytes.len() - self.pos);
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, ServeError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                if !(0xD800..0xDC00).contains(&cp) {
                    return char::from_u32(cp).ok_or_else(|| self.malformed("invalid \\u escape"));
                }
                // A high surrogate: a `\u` low one must follow.
                self.expect(b'\\')?;
                self.expect(b'u')?;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.malformed("invalid low surrogate"));
                }
                return char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00))
                    .ok_or_else(|| self.malformed("invalid surrogate pair"));
            }
            _ => return Err(self.malformed("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape, read as `u32::from_str_radix`
    /// reads them.
    fn hex4(&mut self) -> Result<u32, ServeError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.malformed("truncated \\u escape"))?;
        let cp = std::str::from_utf8(digits)
            .ok()
            .and_then(|text| u32::from_str_radix(text, 16).ok())
            .ok_or_else(|| self.malformed("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn keyword(&mut self, word: &str, kind: Kind) -> Result<Kind, ServeError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(kind)
        } else {
            Err(self.malformed(&format!("expected `{word}`")))
        }
    }

    /// Validates one value of any shape without keeping it and returns
    /// its kind. Nested containers are tracked on a stack of their
    /// closing bytes rather than by recursion, so no line can exhaust
    /// the thread's stack however deep it nests.
    fn skip_value(&mut self) -> Result<Kind, ServeError> {
        let mut open: Vec<u8> = Vec::new();
        let mut outer = None;
        loop {
            let kind = match self.peek() {
                Some(b @ (b'[' | b'{')) => {
                    let (close, kind) = if b == b'[' {
                        (b']', Kind::Array)
                    } else {
                        (b'}', Kind::Object)
                    };
                    self.pos += 1;
                    self.skip_ws();
                    if !self.eat(close) {
                        outer.get_or_insert(kind);
                        open.push(close);
                        if close == b'}' {
                            self.member_key()?;
                        }
                        continue;
                    }
                    kind
                }
                Some(b'"') => {
                    self.string()?;
                    Kind::String
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                    Kind::Number
                }
                Some(b'n') => self.keyword("null", Kind::Null)?,
                Some(b't') => self.keyword("true", Kind::True)?,
                Some(b'f') => self.keyword("false", Kind::False)?,
                Some(b) => return Err(self.malformed(&format!("unexpected byte `{}`", b as char))),
                None => return Err(self.malformed("unexpected end of input")),
            };
            let top = *outer.get_or_insert(kind);
            // Close every container this value completes, up to the
            // next member or the end of the outermost value.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(top);
                };
                self.skip_ws();
                if self.eat(b',') {
                    self.skip_ws();
                    if close == b'}' {
                        self.member_key()?;
                    }
                    break;
                }
                if !self.eat(close) {
                    return Err(self.malformed(if close == b']' {
                        "expected `,` or `]`"
                    } else {
                        "expected `,` or `}`"
                    }));
                }
                open.pop();
            }
        }
    }

    /// An object member's key and colon, leaving the cursor on its value.
    fn member_key(&mut self) -> Result<(), ServeError> {
        self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
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
        encode, Json, MetricsSnapshot, ReloadAck, SentinelClientReport, SentinelReport,
        SloAlarmReport, SloReport, SloWindowReport, Stats,
    };
    use serde::Content;

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
