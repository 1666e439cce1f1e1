//! The vendored `serde_json` string scanner: plain runs between escapes
//! are consumed in one step, so these pin that every mix of ASCII,
//! multibyte UTF-8 and escapes still decodes to exactly the text that
//! was encoded, wherever in the string the escapes fall.

/// Building blocks: ASCII runs, 2-, 3- and 4-byte UTF-8, and every
/// character the writer escapes (`"`, `\`, `\n`, `\r`, `\t`, and the
/// other control characters as `\u00XX`).
const PIECES: &[&str] = &[
    "a",
    "plain ascii run",
    "é",
    "€",
    "😀",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{0008}",
    "\u{000C}",
    "\u{0001}",
    "/",
];

fn round_trip(s: &str) {
    let json = serde_json::to_string(s).expect("encode");
    let back: String = serde_json::from_str(&json).expect("decode");
    assert_eq!(back, s, "round trip through {json}");
    // Inside a larger document the scan must stop at the right quote.
    let pair = vec![s.to_string(), format!("{s}|{s}")];
    let json = serde_json::to_string(&pair).expect("encode");
    let back: Vec<String> = serde_json::from_str(&json).expect("decode");
    assert_eq!(back, pair, "round trip through {json}");
}

#[test]
fn every_sequence_of_up_to_three_pieces_round_trips() {
    round_trip("");
    for a in PIECES {
        round_trip(a);
        for b in PIECES {
            round_trip(&format!("{a}{b}"));
            for c in PIECES {
                round_trip(&format!("{a}{b}{c}"));
            }
        }
    }
}

#[test]
fn hand_written_escapes_decode_next_to_multibyte_text() {
    let cases: &[(&str, &str)] = &[
        (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{0008}\u{000C}\n\r\t"),
        (r#""\nstart""#, "\nstart"),
        (r#""end\t""#, "end\t"),
        (r#""é\n€\t😀""#, "é\n€\t😀"),
        (r#""éé€€""#, "éé€€"),
        (r#""😀😀😀""#, "😀😀😀"),
        (r#""😀""#, "😀"),
        (r#""aA\u0000z""#, "aA\u{0000}z"),
        (r#""€\/é""#, "€/é"),
        (r#""\\\"""#, "\\\""),
        (r#""\ud83d\ude00""#, "😀"),
        (r#""x\u00e9\u20ac\ud83d\ude00y""#, "xé€😀y"),
        (r#""é\ud83d\ude00€""#, "é😀€"),
        (r#""\u20acmid😀\n""#, "€mid😀\n"),
        (r#""\uD83D\uDE00tail""#, "😀tail"),
    ];
    for (json, expected) in cases {
        let got: String = serde_json::from_str(json).expect(json);
        assert_eq!(&got, expected, "{json}");
    }
}

#[test]
fn malformed_strings_are_still_rejected() {
    for json in [
        r#""unterminated"#,
        r#""é unterminated after multibyte"#,
        r#""ends in a backslash\"#,
        r#""bad \x escape""#,
        r#""lone high \ud83d surrogate""#,
        r#""bad low \ud83dA surrogate""#,
        r#""short \u12""#,
    ] {
        assert!(serde_json::from_str::<String>(json).is_err(), "{json}");
    }
}
