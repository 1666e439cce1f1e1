//! The vendored `serde_json` parser recurses once per array or object
//! level. It accepts nesting up to 128 levels and refuses anything
//! deeper with an error, so a hostile document cannot overflow the
//! stack of the thread that parses it (a reload, or a client decoding
//! a reply).

use maleva_wire::Json;

fn arrays(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

fn objects(depth: usize) -> String {
    format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth))
}

/// Arrays and objects alternating, `depth` levels in all.
fn mixed(depth: usize) -> String {
    let open: String = (0..depth)
        .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
        .collect();
    let close: String = (0..depth)
        .rev()
        .map(|i| if i % 2 == 0 { "]" } else { "}" })
        .collect();
    format!("{open}null{close}")
}

fn assert_capped_at_128(shape: &str, doc: fn(usize) -> String) {
    serde_json::from_str::<Json>(&doc(128))
        .unwrap_or_else(|e| panic!("{shape} nested 128 deep must parse: {e}"));
    let err = serde_json::from_str::<Json>(&doc(129))
        .expect_err(&format!("{shape} nested 129 deep must be rejected"));
    assert!(
        err.to_string().contains("nesting deeper than 128"),
        "{shape}: {err}"
    );
}

#[test]
fn depth_128_parses_and_depth_129_is_rejected() {
    assert_capped_at_128("arrays", arrays);
    assert_capped_at_128("objects", objects);
    assert_capped_at_128("mixed", mixed);
}

/// Far past the cap, and unterminated: the parser stops at level 129
/// instead of recursing through the whole input.
#[test]
fn a_document_nested_100k_deep_is_an_error_not_a_crash() {
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<Json>(&deep).is_err());
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(serde_json::from_str::<Json>(&deep).is_err());
}

/// Depth counts open levels, not levels seen: many siblings at a
/// shallow depth are fine.
#[test]
fn siblings_do_not_add_up_to_depth() {
    let wide = format!("[{}]", vec![arrays(100); 50].join(","));
    serde_json::from_str::<Json>(&wide).expect("50 siblings, each 100 deep");
}
