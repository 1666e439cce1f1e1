//! Aggregates a `trace.jsonl` file into a per-stage critical-path
//! report: p50/p99 per span name, the six-stage request breakdown, and
//! slowest-trace exemplars. Backs the `maleva obs-report` subcommand.
//!
//! The crate is zero-dependency, so this module carries its own
//! minimal JSON reader. It only needs to understand the tracer's own
//! output shape (one flat object per line, with at most one nested
//! `"fields"` object of scalar values) but is written as a small
//! general value parser so malformed lines degrade to a counted parse
//! error instead of corrupting the aggregate.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The canonical request-stage taxonomy, in pipeline order. Every
/// `serve.request` span records one `stage_<name>_us` field per entry;
/// the six stages sum (within bucket quantization) to the request
/// span's duration.
pub const STAGES: &[&str] = &[
    "queue_wait",
    "batch_wait",
    "cache_lookup",
    "sentinel_check",
    "inference",
    "serialize",
];

/// Power-of-two bucket index shared with the metrics histograms:
/// 0 holds zeros, bucket `i` covers `[2^(i-1), 2^i)`.
fn bucket_index(value: u64) -> u32 {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros()
    }
}

/// Absolute slack (µs) under which a stage-sum mismatch is attributed
/// to sub-microsecond truncation of six stage clocks plus scheduler
/// wake-up gaps, not to a missing stage.
const STAGE_SUM_ABS_SLACK_US: u64 = 16;

/// Whether the summed stages account for the request duration within
/// one power-of-two bucket (the acceptance tolerance), with a small
/// absolute floor so microsecond truncation on sub-bucket requests
/// does not register as a gap.
pub fn stage_sum_within_tolerance(dur_us: u64, stage_sum_us: u64) -> bool {
    dur_us.abs_diff(stage_sum_us) <= STAGE_SUM_ABS_SLACK_US
        || bucket_index(dur_us).abs_diff(bucket_index(stage_sum_us)) <= 1
}

// ---------------------------------------------------------------------
// Minimal JSON value parser (tracer-line subset, tolerant).

/// A parsed JSON scalar or container.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// All numbers; trace ids fit f64 in practice (< 2^53 per process).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Parser`] accepts, the vendored
/// `serde_json`'s limit. The parser recurses once per level, so a
/// deeper line is refused (one parse error) instead of overflowing the
/// stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => {
                self.depth += 1;
                let object = self.object();
                self.depth -= 1;
                object
            }
            Some(b'[') => {
                self.depth += 1;
                let array = self.array();
                self.depth -= 1;
                array
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from a
                    // &str, so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unexpected end")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

fn parse_line(line: &str) -> Result<Json, String> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Aggregation.

/// Exact nearest-rank percentile over an unsorted sample vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Duration statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Number of exit records.
    pub count: usize,
    /// Median duration (µs).
    pub p50_us: u64,
    /// 99th-percentile duration (µs).
    pub p99_us: u64,
    /// Maximum duration (µs).
    pub max_us: u64,
    /// Total duration (µs) — the critical-path weight of this name.
    pub total_us: u64,
}

/// Duration statistics for one request stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Number of requests carrying this stage.
    pub count: usize,
    /// Median stage time (µs).
    pub p50_us: u64,
    /// 99th-percentile stage time (µs).
    pub p99_us: u64,
    /// Total stage time (µs) across requests.
    pub total_us: u64,
}

/// One slow-request exemplar: the full stage vector of one of the
/// slowest traced requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Wire trace id (0 if the request carried none).
    pub trace_id: u64,
    /// Server-side span id.
    pub span: u64,
    /// Request duration (µs).
    pub dur_us: u64,
    /// `(stage, µs)` pairs in [`STAGES`] order (missing stages as 0).
    pub stages: Vec<(&'static str, u64)>,
}

/// The aggregate over one trace file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReport {
    /// Total lines read.
    pub total_records: usize,
    /// Lines that failed to parse (counted, not fatal).
    pub parse_errors: usize,
    /// Per-span-name stats, sorted by total duration descending.
    pub span_stats: Vec<SpanStat>,
    /// Per-stage stats over `serve.request` exits, in [`STAGES`] order.
    pub stage_stats: Vec<StageStat>,
    /// `serve.request` exits carrying all six stage fields.
    pub staged_requests: usize,
    /// Of those, how many had stages summing to the span duration
    /// within tolerance ([`stage_sum_within_tolerance`]).
    pub stage_sum_within_tolerance: usize,
    /// Distinct wire trace ids seen on client-side spans.
    pub client_traces: usize,
    /// Distinct wire trace ids seen on server-side request spans.
    pub server_traces: usize,
    /// Trace ids seen on **both** sides — fully joined client→server.
    pub joined_traces: usize,
    /// The slowest `serve.request` spans, worst first.
    pub exemplars: Vec<Exemplar>,
}

impl TraceReport {
    /// Fraction of staged requests whose stages sum to the request
    /// duration within tolerance (1.0 when there are none).
    pub fn stage_coverage_frac(&self) -> f64 {
        if self.staged_requests == 0 {
            1.0
        } else {
            self.stage_sum_within_tolerance as f64 / self.staged_requests as f64
        }
    }

    /// Renders the human-readable report text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace records: {} ({} parse errors)\n",
            self.total_records, self.parse_errors
        ));
        out.push_str(&format!(
            "traces: {} client-side, {} server-side, {} joined end-to-end\n",
            self.client_traces, self.server_traces, self.joined_traces
        ));
        out.push_str("\nspans (by total time):\n");
        out.push_str(&format!(
            "  {:<24} {:>8} {:>10} {:>10} {:>10}\n",
            "name", "count", "p50_us", "p99_us", "max_us"
        ));
        for s in &self.span_stats {
            out.push_str(&format!(
                "  {:<24} {:>8} {:>10} {:>10} {:>10}\n",
                s.name, s.count, s.p50_us, s.p99_us, s.max_us
            ));
        }
        if self.staged_requests > 0 {
            out.push_str(&format!(
                "\nrequest stages ({} staged requests, {:.1}% sum within ±1 bucket):\n",
                self.staged_requests,
                self.stage_coverage_frac() * 100.0
            ));
            out.push_str(&format!(
                "  {:<16} {:>8} {:>10} {:>10} {:>12}\n",
                "stage", "count", "p50_us", "p99_us", "total_us"
            ));
            for s in &self.stage_stats {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>10} {:>10} {:>12}\n",
                    s.stage, s.count, s.p50_us, s.p99_us, s.total_us
                ));
            }
        }
        if !self.exemplars.is_empty() {
            out.push_str("\nslowest requests:\n");
            for e in &self.exemplars {
                let stages: Vec<String> = e
                    .stages
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(k, v)| format!("{k}={v}us"))
                    .collect();
                out.push_str(&format!(
                    "  trace {} span {}: {}us [{}]\n",
                    e.trace_id,
                    e.span,
                    e.dur_us,
                    stages.join(" ")
                ));
            }
        }
        out
    }
}

/// How many exemplars [`analyze_lines`] keeps by default.
pub const DEFAULT_TOP: usize = 5;

/// Aggregates tracer JSONL lines into a [`TraceReport`], keeping the
/// `top` slowest request exemplars.
pub fn analyze_lines<'a>(lines: impl Iterator<Item = &'a str>, top: usize) -> TraceReport {
    let mut report = TraceReport::default();
    let mut durations: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut stage_samples: Vec<Vec<u64>> = vec![Vec::new(); STAGES.len()];
    let mut client_ids: Vec<u64> = Vec::new();
    let mut server_ids: Vec<u64> = Vec::new();
    let mut exemplars: Vec<Exemplar> = Vec::new();

    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        report.total_records += 1;
        let record = match parse_line(line) {
            Ok(r) => r,
            Err(_) => {
                report.parse_errors += 1;
                continue;
            }
        };
        let ev = record.get("ev").and_then(Json::as_str).unwrap_or("");
        let name = record.get("name").and_then(Json::as_str).unwrap_or("");
        let fields = record.get("fields");
        let field_u64 =
            |key: &str| -> Option<u64> { fields.and_then(|f| f.get(key)).and_then(Json::as_u64) };
        if ev != "exit" {
            // Trace-context linking also rides on events (e.g. batch
            // membership); count their trace ids toward the server side.
            if ev == "event" {
                if let Some(tid) = field_u64("trace_id") {
                    if name.starts_with("serve.") || name.starts_with("slo.") {
                        server_ids.push(tid);
                    }
                }
            }
            continue;
        }
        let dur_us = record.get("dur_ns").and_then(Json::as_u64).unwrap_or(0) / 1_000;
        durations.entry(name.to_string()).or_default().push(dur_us);

        let trace_id = field_u64("trace_id");
        if let Some(tid) = trace_id {
            if name.starts_with("client.") {
                client_ids.push(tid);
            } else if name.starts_with("serve.") {
                server_ids.push(tid);
            }
        }

        if name == "serve.request" {
            let stages: Vec<Option<u64>> = STAGES
                .iter()
                .map(|s| field_u64(&format!("stage_{s}_us")))
                .collect();
            if stages.iter().all(Option::is_some) {
                report.staged_requests += 1;
                let mut sum = 0u64;
                for (i, v) in stages.iter().enumerate() {
                    let v = v.unwrap_or(0);
                    stage_samples[i].push(v);
                    sum += v;
                }
                if stage_sum_within_tolerance(dur_us, sum) {
                    report.stage_sum_within_tolerance += 1;
                }
                exemplars.push(Exemplar {
                    trace_id: trace_id.unwrap_or(0),
                    span: record.get("span").and_then(Json::as_u64).unwrap_or(0),
                    dur_us,
                    stages: STAGES
                        .iter()
                        .zip(stages.iter())
                        .map(|(s, v)| (*s, v.unwrap_or(0)))
                        .collect(),
                });
                exemplars.sort_by_key(|e| std::cmp::Reverse(e.dur_us));
                exemplars.truncate(top);
            }
        }
    }

    report.span_stats = durations
        .into_iter()
        .map(|(name, mut ds)| {
            ds.sort_unstable();
            SpanStat {
                name,
                count: ds.len(),
                p50_us: percentile(&ds, 0.50),
                p99_us: percentile(&ds, 0.99),
                max_us: *ds.last().unwrap_or(&0),
                total_us: ds.iter().sum(),
            }
        })
        .collect();
    report
        .span_stats
        .sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));

    report.stage_stats = STAGES
        .iter()
        .zip(stage_samples)
        .map(|(stage, mut ds)| {
            ds.sort_unstable();
            StageStat {
                stage,
                count: ds.len(),
                p50_us: percentile(&ds, 0.50),
                p99_us: percentile(&ds, 0.99),
                total_us: ds.iter().sum(),
            }
        })
        .collect();

    client_ids.sort_unstable();
    client_ids.dedup();
    server_ids.sort_unstable();
    server_ids.dedup();
    report.client_traces = client_ids.len();
    report.server_traces = server_ids.len();
    report.joined_traces = client_ids
        .iter()
        .filter(|id| server_ids.binary_search(id).is_ok())
        .count();
    report.exemplars = exemplars;
    report
}

/// Reads and aggregates a trace file.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be read.
pub fn analyze_file(path: impl AsRef<Path>, top: usize) -> io::Result<TraceReport> {
    let text = std::fs::read_to_string(path)?;
    Ok(analyze_lines(text.lines(), top))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_line(span: u64, trace: u64, dur_us: u64, stages: [u64; 6]) -> String {
        format!(
            "{{\"ev\":\"exit\",\"span\":{span},\"name\":\"serve.request\",\"thread\":1,\
             \"t_ns\":1000,\"dur_ns\":{},\"fields\":{{\"trace_id\":{trace},\
             \"stage_queue_wait_us\":{},\"stage_batch_wait_us\":{},\
             \"stage_cache_lookup_us\":{},\"stage_sentinel_check_us\":{},\
             \"stage_inference_us\":{},\"stage_serialize_us\":{}}}}}",
            dur_us * 1000,
            stages[0],
            stages[1],
            stages[2],
            stages[3],
            stages[4],
            stages[5]
        )
    }

    fn client_line(span: u64, trace: u64, dur_us: u64) -> String {
        format!(
            "{{\"ev\":\"exit\",\"span\":{span},\"name\":\"client.request\",\"thread\":2,\
             \"t_ns\":900,\"dur_ns\":{},\"fields\":{{\"trace_id\":{trace},\"attempts\":1}}}}",
            dur_us * 1000
        )
    }

    #[test]
    fn parser_handles_tracer_shapes() {
        let v = parse_line(
            "{\"ev\":\"exit\",\"span\":3,\"name\":\"a.b\",\"thread\":1,\"t_ns\":99,\
             \"dur_ns\":18,\"fields\":{\"ok\":true,\"msg\":\"x\\\"y\",\"f\":1.5,\"n\":null}}",
        )
        .expect("parse");
        assert_eq!(v.get("span").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a.b"));
        let fields = v.get("fields").expect("fields");
        assert_eq!(fields.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(fields.get("msg").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(fields.get("f"), Some(&Json::Num(1.5)));
        assert_eq!(fields.get("n"), Some(&Json::Null));
        assert!(parse_line("{oops").is_err());
        assert!(parse_line("{}trailing").is_err());
    }

    #[test]
    fn nesting_is_refused_past_the_depth_limit() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(parse_line(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_line(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(parse_line(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(parse_line(&nested("{\"a\":", "}", MAX_DEPTH + 1)).is_err());

        // Lines far past any stack a recursive reader could survive
        // each count as one parse error.
        let deep_arrays = "[".repeat(200_000);
        let deep_objects = "{\"a\":".repeat(200_000);
        let lines = [
            deep_arrays.as_str(),
            deep_objects.as_str(),
            "{\"ev\":\"enter\",\"span\":1,\"name\":\"a\",\"thread\":1,\"t_ns\":0}",
        ];
        let report = analyze_lines(lines.into_iter(), 1);
        assert_eq!(report.total_records, 3);
        assert_eq!(report.parse_errors, 2);
    }

    #[test]
    fn aggregates_stages_and_joins_traces() {
        let lines = [
            client_line(10, 777, 510),
            request_line(11, 777, 500, [100, 200, 5, 5, 180, 10]),
            request_line(12, 778, 80, [10, 20, 2, 2, 40, 6]),
            // Server-only trace (no client span in this file).
            request_line(13, 999, 50, [5, 10, 1, 1, 30, 3]),
            "not json at all".to_string(),
        ];
        let report = analyze_lines(lines.iter().map(String::as_str), 2);
        assert_eq!(report.total_records, 5);
        assert_eq!(report.parse_errors, 1);
        assert_eq!(report.staged_requests, 3);
        assert_eq!(report.stage_sum_within_tolerance, 3);
        assert!((report.stage_coverage_frac() - 1.0).abs() < 1e-12);
        assert_eq!(report.client_traces, 1);
        assert_eq!(report.server_traces, 3);
        assert_eq!(report.joined_traces, 1);
        // Exemplars: worst first, truncated to top.
        assert_eq!(report.exemplars.len(), 2);
        assert_eq!(report.exemplars[0].trace_id, 777);
        assert_eq!(report.exemplars[0].dur_us, 500);
        // Stage stats are in taxonomy order with correct counts.
        assert_eq!(report.stage_stats.len(), STAGES.len());
        assert_eq!(report.stage_stats[0].stage, "queue_wait");
        assert_eq!(report.stage_stats[0].count, 3);
        assert_eq!(report.stage_stats[4].stage, "inference");
        assert_eq!(report.stage_stats[4].total_us, 250);
        let text = report.render_text();
        assert!(text.contains("serve.request"), "{text}");
        assert!(text.contains("queue_wait"), "{text}");
        assert!(text.contains("trace 777"), "{text}");
    }

    #[test]
    fn stage_sum_tolerance_is_one_bucket_with_truncation_floor() {
        // Exact: fine.
        assert!(stage_sum_within_tolerance(1000, 1000));
        // One bucket off: 1000 is in (512,1024], 400 in (256,512].
        assert!(stage_sum_within_tolerance(1000, 400));
        // Two buckets off: not fine.
        assert!(!stage_sum_within_tolerance(1000, 200));
        // Sub-bucket truncation noise at the tiny end is tolerated.
        assert!(stage_sum_within_tolerance(6, 0));
        assert!(!stage_sum_within_tolerance(600, 0));
    }

    #[test]
    fn requests_missing_stage_fields_are_not_staged() {
        let lines = [
            "{\"ev\":\"exit\",\"span\":4,\"name\":\"serve.request\",\"thread\":1,\
             \"t_ns\":10,\"dur_ns\":5000}"
                .to_string(),
        ];
        let report = analyze_lines(lines.iter().map(String::as_str), 5);
        assert_eq!(report.staged_requests, 0);
        assert_eq!(report.span_stats.len(), 1);
        assert_eq!(report.span_stats[0].count, 1);
        assert_eq!(report.stage_coverage_frac(), 1.0);
    }
}
