//! Property tests for the tracer: for arbitrary multi-threaded span
//! interleavings, the emitted JSONL must be well-formed and the span
//! stream must be balanced — every `enter` has a matching `exit`, and
//! nesting forms a valid per-thread tree.

use maleva_wire::Json;
use proptest::prelude::*;
use serde::Content;

use maleva_obs::trace::{self, Span};

fn get<'a>(map: &'a [(String, Content)], key: &str) -> Option<&'a Content> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(map: &[(String, Content)], key: &str) -> Option<u64> {
    match get(map, key)? {
        Content::U64(n) => Some(*n),
        Content::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn get_str<'a>(map: &'a [(String, Content)], key: &str) -> Option<&'a str> {
    match get(map, key)? {
        Content::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct ParsedRecord {
    ev: String,
    span: u64,
    parent: Option<u64>,
    thread: u64,
    t_ns: u64,
}

fn parse_record(line: &str) -> ParsedRecord {
    let content = serde_json::from_str::<Json>(line)
        .unwrap_or_else(|e| panic!("invalid JSON {line:?}: {e:?}"))
        .into_content();
    let Content::Map(map) = content else {
        panic!("trace line is not an object: {line:?}");
    };
    let ev = get_str(&map, "ev").expect("ev field").to_string();
    let span = get_u64(&map, "span").expect("span field");
    let parent = get_u64(&map, "parent");
    let thread = get_u64(&map, "thread").expect("thread field");
    let t_ns = get_u64(&map, "t_ns").expect("t_ns field");
    assert!(get_str(&map, "name").is_some(), "name field in {line:?}");
    if ev == "enter" {
        assert!(parent.is_some(), "enter without parent: {line:?}");
    }
    if ev == "exit" {
        assert!(
            get_u64(&map, "dur_ns").is_some(),
            "exit without dur_ns: {line:?}"
        );
    }
    ParsedRecord {
        ev,
        span,
        parent,
        thread,
        t_ns,
    }
}

/// Runs one thread's workload: a sequence of (depth, events) pairs,
/// each opening a nested span chain of that depth with point events at
/// the innermost level.
fn run_program(program: &[(usize, usize)]) {
    fn nest(depth: usize, events: usize) {
        let mut span = Span::enter("prop.span");
        span.record("depth", depth as u64);
        if depth > 1 {
            nest(depth - 1, events);
        } else {
            for i in 0..events {
                trace::event("prop.event", &[("i", (i as u64).into())]);
            }
        }
    }
    for &(depth, events) in program {
        nest(depth, events);
    }
}

/// Serializes tests in this binary that touch the global sink.
fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn check_stream(lines: &[String]) {
    use std::collections::{HashMap, HashSet};
    let records: Vec<ParsedRecord> = lines.iter().map(|l| parse_record(l)).collect();
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut seen_span_ids: HashSet<u64> = HashSet::new();
    let mut last_t: HashMap<u64, u64> = HashMap::new();
    for rec in &records {
        // Per-thread timestamps never go backwards (emission is in
        // program order within a thread).
        let prev = last_t.entry(rec.thread).or_insert(0);
        assert!(
            rec.t_ns >= *prev,
            "time went backwards on thread {}",
            rec.thread
        );
        *prev = rec.t_ns;
        let stack = stacks.entry(rec.thread).or_default();
        match rec.ev.as_str() {
            "enter" => {
                assert!(
                    seen_span_ids.insert(rec.span),
                    "duplicate span id {}",
                    rec.span
                );
                // The recorded parent is the innermost open span on
                // the same thread (0 at the root) — a valid tree.
                let expected_parent = stack.last().copied().unwrap_or(0);
                assert_eq!(rec.parent, Some(expected_parent), "bad parent for {rec:?}");
                stack.push(rec.span);
            }
            "exit" => {
                let top = stack
                    .pop()
                    .unwrap_or_else(|| panic!("exit without matching enter: {rec:?}"));
                assert_eq!(top, rec.span, "unbalanced exit: {rec:?}");
            }
            "event" => {
                // Events attach to the innermost open span (0 = root).
                let current = stack.last().copied().unwrap_or(0);
                assert_eq!(rec.span, current, "event outside its span: {rec:?}");
            }
            other => panic!("unknown ev kind {other:?}"),
        }
    }
    for (thread, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "unclosed spans on thread {thread}: {stack:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multithreaded_traces_are_wellformed_and_balanced(
        programs in prop::collection::vec(
            prop::collection::vec((1usize..=4, 0usize..=3), 1..6),
            1..4,
        )
    ) {
        let _guard = sink_lock();
        let captured = trace::install_memory_sink();
        std::thread::scope(|scope| {
            for program in &programs {
                scope.spawn(|| run_program(program));
            }
        });
        trace::install(trace::Sink::Disabled).expect("disable tracing");
        let lines = captured.lines();
        let expected_spans: usize = programs
            .iter()
            .flat_map(|p| p.iter())
            .map(|&(depth, _)| depth)
            .sum();
        let expected_events: usize = programs
            .iter()
            .flat_map(|p| p.iter())
            .map(|&(_, events)| events)
            .sum();
        prop_assert_eq!(lines.len(), 2 * expected_spans + expected_events);
        check_stream(&lines);
    }
}

#[test]
fn single_thread_deep_nesting_balances() {
    let _guard = sink_lock();
    let captured = trace::install_memory_sink();
    run_program(&[(4, 2), (1, 0), (3, 1)]);
    trace::install(trace::Sink::Disabled).expect("disable tracing");
    let lines = captured.lines();
    assert_eq!(lines.len(), 2 * (4 + 1 + 3) + 3);
    check_stream(&lines);
}
