//! `parse_request` reads a request line in one pass over its bytes.
//! These properties hold it to the tree walk it replaced, kept here as
//! the reference: the whole line parsed into a `serde::Content` tree by
//! the vendored `serde_json`, then searched key by key. For every line,
//! valid or mutated, both must return the same `Request` or the same
//! error. Errors are compared in full, except `malformed_json`, whose
//! detail is the parser's own wording and is compared by kind only.

use maleva_serve::{parse_request, Request, ServeError, TraceContext};
use maleva_wire::Json;
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Content;

// ---------------------------------------------------------------------------
// The reference: the tree walk `parse_request` used to be
// ---------------------------------------------------------------------------

const MAX_CLIENT_ID_BYTES: usize = 128;

fn reference(line: &str, dim: usize) -> Result<Request, ServeError> {
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
        counts.push(reference_count(index, entry)?);
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
    let trace = match reference_trace_field(&entries, "trace_id")? {
        None => None,
        Some(trace_id) => Some(TraceContext {
            trace_id,
            span_id: reference_trace_field(&entries, "span_id")?.unwrap_or(0),
        }),
    };
    Ok(Request::Score {
        counts,
        client_id,
        trace,
    })
}

fn reference_trace_field(
    entries: &[(String, Content)],
    key: &str,
) -> Result<Option<u64>, ServeError> {
    match entries.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Content::U64(v))) if *v > 0 => Ok(Some(*v)),
        Some((_, other)) => Err(ServeError::UnknownCommand {
            command: format!("{key} must be a nonzero u64 ({})", type_name(other)),
        }),
    }
}

fn reference_count(index: usize, entry: &Content) -> Result<u32, ServeError> {
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

/// Both parsers agree on `line`: the same request, or the same error.
fn agree(line: &str, dim: usize) -> Result<(), TestCaseError> {
    let got = parse_request(line, dim);
    let want = reference(line, dim);
    let same = match (&got, &want) {
        (Ok(a), Ok(b)) => a == b,
        (Err(ServeError::MalformedJson { .. }), Err(ServeError::MalformedJson { .. })) => true,
        // Compared by bits: a non-number entry reports NaN.
        (
            Err(ServeError::InvalidFeature { index, value }),
            Err(ServeError::InvalidFeature {
                index: want_index,
                value: want_value,
            }),
        ) => index == want_index && value.to_bits() == want_value.to_bits(),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    prop_assert!(
        same,
        "dim {} line {:?}\n   got {:?}\n  want {:?}",
        dim,
        line,
        got,
        want
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Line generation
// ---------------------------------------------------------------------------

/// A request object, kept as JSON text per member so a mutation can
/// replace one piece and re-render.
#[derive(Debug, Clone)]
struct Line {
    members: Vec<(String, Value)>,
}

#[derive(Debug, Clone)]
enum Value {
    /// One JSON value's text.
    Raw(String),
    /// An array, entry by entry.
    Array(Vec<String>),
}

/// Whitespace as JSON allows it around any token, mostly none.
fn ws(rng: &mut ChaCha8Rng) -> &'static str {
    const CHOICES: [&str; 8] = ["", "", "", "", " ", "\t", "\r\n", " \n  "];
    CHOICES[rng.gen_range(0..CHOICES.len())]
}

impl Line {
    fn render(&self, rng: &mut ChaCha8Rng) -> String {
        let mut out = String::new();
        out.push_str(ws(rng));
        out.push('{');
        for (i, (key, value)) in self.members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(ws(rng));
            out.push_str(key);
            out.push_str(ws(rng));
            out.push(':');
            out.push_str(ws(rng));
            match value {
                Value::Raw(text) => out.push_str(text),
                Value::Array(entries) => {
                    out.push('[');
                    for (j, entry) in entries.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(ws(rng));
                        out.push_str(entry);
                        out.push_str(ws(rng));
                    }
                    if entries.is_empty() {
                        out.push_str(ws(rng));
                    }
                    out.push(']');
                }
            }
            out.push_str(ws(rng));
        }
        if self.members.is_empty() {
            out.push_str(ws(rng));
        }
        out.push('}');
        out.push_str(ws(rng));
        out
    }

    /// The first `features` member's entries.
    fn features_mut(&mut self) -> &mut Vec<String> {
        self.members
            .iter_mut()
            .find_map(|(key, value)| match value {
                Value::Array(entries) if key == "\"features\"" => Some(entries),
                _ => None,
            })
            .expect("a score line has a plain `features` key")
    }
}

/// A JSON string literal for `text`, each character written raw or as
/// an escape at random (astral characters as surrogate pairs).
fn json_string(rng: &mut ChaCha8Rng, text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        let escaped = match c {
            '"' => Some("\\\"".to_string()),
            '\\' => Some("\\\\".to_string()),
            '\n' => Some("\\n".to_string()),
            '\r' => Some("\\r".to_string()),
            '\t' => Some("\\t".to_string()),
            '\u{8}' => Some("\\b".to_string()),
            '\u{c}' => Some("\\f".to_string()),
            '/' if rng.gen_bool(0.5) => Some("\\/".to_string()),
            c if (c as u32) < 0x20 || rng.gen_bool(0.2) => {
                let mut units = [0u16; 2];
                Some(
                    c.encode_utf16(&mut units)
                        .iter()
                        .map(|u| {
                            if rng.gen_bool(0.5) {
                                format!("\\u{u:04x}")
                            } else {
                                format!("\\u{u:04X}")
                            }
                        })
                        .collect(),
                )
            }
            _ => None,
        };
        match escaped {
            Some(e) => out.push_str(&e),
            None => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `client_id`: ASCII, escapes, multi-byte and astral characters.
fn client_id(rng: &mut ChaCha8Rng) -> String {
    const ALPHABET: [char; 14] = [
        'a', 'Z', '7', '-', ' ', '/', '"', '\\', '\n', '\u{1}', '\u{8}', 'é', '日', '🙂',
    ];
    (0..rng.gen_range(1..12usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// A count as the client writes it.
fn count(rng: &mut ChaCha8Rng) -> String {
    let v: u32 = match rng.gen_range(0..10) {
        0 => 0,
        1 => u32::MAX,
        2 => rng.gen(),
        _ => rng.gen_range(0..1000),
    };
    v.to_string()
}

/// A nonzero trace or span id.
fn trace_id(rng: &mut ChaCha8Rng) -> String {
    match rng.gen_range(0..4) {
        0 => u64::MAX.to_string(),
        1 => rng.gen_range(1..100u64).to_string(),
        _ => rng.gen_range(1..=u64::MAX).to_string(),
    }
}

/// Any JSON value, nested at most `depth` deep.
fn any_value(rng: &mut ChaCha8Rng, depth: u32) -> String {
    let kinds = if depth == 0 { 8 } else { 10 };
    match rng.gen_range(0..kinds) {
        0 => "null".to_string(),
        1 => "true".to_string(),
        2 => "false".to_string(),
        3 => count(rng),
        4 => {
            ["-12", "-0", "0.5", "1e5", "2.5E-3", "-0.0", "1e400"][rng.gen_range(0..7)].to_string()
        }
        5 => trace_id(rng),
        6 | 7 => {
            let text = client_id(rng);
            json_string(rng, &text)
        }
        8 => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| any_value(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| {
                    let key = client_id(rng);
                    let key = json_string(rng, &key);
                    format!("{key}:{}", any_value(rng, depth - 1))
                })
                .collect();
            format!("{{{}}}", items.join(","))
        }
    }
}

/// A valid score line for `dim` features: optional `client_id`,
/// `trace_id` and `span_id`, unknown and duplicate keys, any key order.
fn score_line(rng: &mut ChaCha8Rng, dim: usize) -> Line {
    let mut members = vec![(
        "\"features\"".to_string(),
        Value::Array((0..dim).map(|_| count(rng)).collect()),
    )];
    if rng.gen_bool(0.5) {
        let id = client_id(rng);
        members.push((
            "\"client_id\"".to_string(),
            Value::Raw(json_string(rng, &id)),
        ));
    }
    if rng.gen_bool(0.5) {
        members.push(("\"trace_id\"".to_string(), Value::Raw(trace_id(rng))));
        if rng.gen_bool(0.7) {
            members.push(("\"span_id\"".to_string(), Value::Raw(trace_id(rng))));
        }
    } else if rng.gen_bool(0.2) {
        // A span id without a trace id is ignored, whatever it holds.
        members.push(("\"span_id\"".to_string(), Value::Raw(any_value(rng, 2))));
    }
    if rng.gen_bool(0.3) {
        let key = ["\"extra\"", "\"cmdx\"", "\"Features\"", "\"\""][rng.gen_range(0..4)];
        members.push((key.to_string(), Value::Raw(any_value(rng, 3))));
    }
    members.shuffle(rng);
    if rng.gen_bool(0.3) {
        // A later duplicate of a key already present: the first
        // occurrence wins, so whatever it holds changes nothing.
        let key = members[rng.gen_range(0..members.len())].0.clone();
        members.push((key, Value::Raw(any_value(rng, 2))));
    }
    Line { members }
}

/// A `cmd` line: known and unknown commands, `reload` with and without
/// a usable `path`, sometimes next to `features`.
fn command_line(rng: &mut ChaCha8Rng, dim: usize) -> Line {
    const NAMES: [&str; 9] = [
        "stats", "metrics", "health", "sentinel", "slo", "shutdown", "reload", "reload", "reboot",
    ];
    let cmd = match rng.gen_range(0..8) {
        0 => any_value(rng, 2),
        _ => {
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            json_string(rng, name)
        }
    };
    let mut members = vec![("\"cmd\"".to_string(), Value::Raw(cmd))];
    match rng.gen_range(0..4) {
        0 => {}
        1 => members.push(("\"path\"".to_string(), Value::Raw(any_value(rng, 2)))),
        2 => members.push(("\"path\"".to_string(), Value::Raw("\"\"".to_string()))),
        _ => {
            let path = json_string(rng, "/tmp/model é.json");
            members.push(("\"path\"".to_string(), Value::Raw(path)));
        }
    }
    if rng.gen_bool(0.3) {
        members.push((
            "\"features\"".to_string(),
            Value::Array((0..dim).map(|_| count(rng)).collect()),
        ));
    }
    members.shuffle(rng);
    Line { members }
}

/// Entry texts a mutation puts in place of a count.
const ENTRY_MUTATIONS: [&str; 34] = [
    "-1",
    "-0",
    "01",
    "00",
    "2.5",
    "1.0",
    "1e2",
    "1E2",
    "1e-2",
    "1e300",
    "1e400",
    "-0.0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "000000000000000000000007",
    "-9223372036854775809",
    "null",
    "true",
    "false",
    "\"3\"",
    "NaN",
    "Infinity",
    "-",
    "1.",
    ".5",
    "+1",
    "1e",
    "1-2",
    "[1]",
    "[[1,[2]],[]]",
    "{\"a\":[1,{\"b\":null}]}",
    "[]",
];

/// Text appended to a whole line.
const TRAILING: [&str; 8] = ["x", "}", " ]", ",", "{}", " 1", "\u{0}", "\"\""];

/// The dimension of a generated line: small, so that truncating at
/// every byte stays cheap.
fn small_dim(rng: &mut ChaCha8Rng) -> usize {
    rng.gen_range(1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid score and command lines parse the same way.
    #[test]
    fn valid_lines_agree(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..16 {
            let dim = small_dim(&mut rng);
            let line = score_line(&mut rng, dim).render(&mut rng);
            let parsed = parse_request(&line, dim);
            prop_assert!(
                matches!(parsed, Ok(Request::Score { .. })),
                "{:?} -> {:?}",
                line,
                parsed
            );
            agree(&line, dim)?;
            let line = command_line(&mut rng, dim).render(&mut rng);
            agree(&line, dim)?;
        }
    }

    /// Every prefix of a valid line parses the same way (almost all are
    /// malformed; the few that are not must still agree).
    #[test]
    fn truncated_lines_agree(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dim = small_dim(&mut rng);
        let line = if rng.gen_bool(0.8) {
            score_line(&mut rng, dim)
        } else {
            command_line(&mut rng, dim)
        }
        .render(&mut rng);
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            agree(&line[..end], dim)?;
        }
    }

    /// Replacing counts with numbers that are not counts, non-numbers,
    /// nested arrays and broken literals parses the same way, including
    /// which of two bad entries is reported.
    #[test]
    fn mutated_entries_agree(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..8 {
            let dim = small_dim(&mut rng);
            let mut line = score_line(&mut rng, dim);
            for _ in 0..rng.gen_range(1..=2) {
                let entries = line.features_mut();
                let at = rng.gen_range(0..entries.len());
                entries[at] = ENTRY_MUTATIONS[rng.gen_range(0..ENTRY_MUTATIONS.len())].to_string();
            }
            let text = line.render(&mut rng);
            agree(&text, dim)?;
        }
        // Each mutation alone, at the last index.
        for mutation in ENTRY_MUTATIONS {
            let dim = small_dim(&mut rng);
            let mut line = score_line(&mut rng, dim);
            *line.features_mut().last_mut().expect("dim >= 1") = mutation.to_string();
            let text = line.render(&mut rng);
            agree(&text, dim)?;
        }
    }

    /// Wrong lengths, a wrong length next to a bad entry, bad trace ids
    /// and client ids, nested `features` and trailing garbage parse the
    /// same way.
    #[test]
    fn mutated_shapes_agree(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..8 {
            let dim = small_dim(&mut rng);
            let mut line = score_line(&mut rng, dim);
            match rng.gen_range(0..6) {
                0 => {
                    let entries = line.features_mut();
                    if rng.gen_bool(0.5) {
                        entries.pop();
                    } else {
                        entries.push("5".to_string());
                    }
                    if rng.gen_bool(0.5) {
                        entries.insert(0, "-3".to_string());
                    }
                }
                1 => line.features_mut().clear(),
                2 => {
                    let nested = format!("[{}]", line.features_mut().join(","));
                    *line.features_mut() = vec![nested];
                }
                3 => {
                    let key = ["\"trace_id\"", "\"span_id\"", "\"client_id\""][rng.gen_range(0..3)];
                    let value = [
                        "0", "-4", "1.5", "\"t\"", "01", "18446744073709551616", "null", "[]",
                        "\"\"", "7",
                    ][rng.gen_range(0..10)];
                    let at = rng.gen_range(0..=line.members.len());
                    line.members.insert(at, (key.to_string(), Value::Raw(value.to_string())));
                }
                4 => {
                    let long = "é".repeat(rng.gen_range(63..=65));
                    let id = json_string(&mut rng, &long);
                    line.members.insert(0, ("\"client_id\"".to_string(), Value::Raw(id)));
                }
                _ => {}
            }
            let mut text = line.render(&mut rng);
            if rng.gen_bool(0.3) {
                text.push_str(TRAILING[rng.gen_range(0..TRAILING.len())]);
            }
            agree(&text, dim)?;
        }
    }
}

#[test]
fn non_object_lines_and_escaped_keys_agree() {
    for line in [
        "",
        " ",
        "42",
        "-0",
        "\"features\"",
        "[1,2,3]",
        "null",
        "true",
        "nul",
        "{",
        "}",
        "{}",
        "{\"features\":[1,2,3]}{}",
        "{\"feat\\u0075res\":[1,2,3]}",
        "{\"features\":[1,2,3],\"client_\\u0069d\":\"\\ud83d\\ude42\"}",
        "{\"features\":[1,2,3],\"client_id\":\"\\ud83d\"}",
        "{\"features\":[1,2,3],\"client_id\":\"\\ude42\"}",
        "{\"features\":[1,2,3],\"client_id\":\"\\u+041\"}",
        "{\"features\":[1,2,3],\"client_id\":\"\\u00e\"}",
        "{\"features\":[1,2,3],\"client_id\":\"\\x\"}",
        "{\"features\":[1,2,3],\"client_id\":\"raw\ttab\"}",
        "{\"cmd\":\"re\\u006coad\",\"path\":\"m.json\"}",
        "{\"cmd\":\"stats\",\"cmd\":7}",
        "{\"features\":[1,2,3],}",
        "{\"features\":[1,2,3,]}",
        "{,\"features\":[1,2,3]}",
        "{\"features\" [1,2,3]}",
        "{\"features\":[1 2 3]}",
        "{'features':[1,2,3]}",
        "{\"features\":[1,2,3],\"x\":tru}",
        "{\"features\":[1,2,3],\"x\":{\"a\" 1}}",
    ] {
        agree(line, 3).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The wire shape the client actually sends, at the paper's width:
/// valid, and cut at a spread of byte offsets.
#[test]
fn paper_width_client_lines_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(491);
    let counts: Vec<u32> = (0..491).map(|_| rng.gen_range(0..300)).collect();
    let line = maleva_client::encode_score_request_traced(
        &maleva_client::encode_score_request_as(&counts, "tenant-é"),
        u64::MAX,
        17,
    );
    agree(&line, 491).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        parse_request(&line, 491),
        Ok(Request::Score {
            counts,
            client_id: Some("tenant-é".to_string()),
            trace: Some(TraceContext {
                trace_id: u64::MAX,
                span_id: 17,
            }),
        })
    );
    for end in (0..line.len()).step_by(7) {
        agree(&line[..end], 491).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Nesting is tracked without recursion: a line nested far deeper than
/// a recursive parser's stack allows is answered, not a crash. (The
/// reference recurses, so it is not run on these.)
#[test]
fn deep_nesting_is_answered() {
    let depth = 200_000;
    let open = "[".repeat(depth);
    let line = format!("{{\"features\":[{open}{}]}}", "]".repeat(depth));
    assert_eq!(
        parse_request(&line, 1).unwrap_err().kind(),
        "invalid_feature"
    );
    let line = format!("{{\"features\":[0],\"x\":{open}");
    assert_eq!(
        parse_request(&line, 1).unwrap_err().kind(),
        "malformed_json"
    );
    let line = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
    assert_eq!(
        parse_request(&line, 1).unwrap_err().kind(),
        "unknown_command"
    );
}
