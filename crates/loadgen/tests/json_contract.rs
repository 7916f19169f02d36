//! Writer↔parser contract: everything `JsonWriter` can emit must come
//! back identical through the same parser `fetch_stats` (and the TRACE
//! path) uses. The trace export serializes abort-cause names, adversarial
//! keys and nested span objects through this exact pair, so the contract
//! is pinned here with seeded proptest-style loops: deterministic,
//! reproducible from the printed seed, no external generator crate.

use std::collections::BTreeMap;

use gocc_loadgen::JsonDoc;
use gocc_telemetry::{JsonValue, JsonWriter, SplitMix64};

/// Characters chosen to hit every escaping branch: the two mandatory
/// escapes, the named control escapes, raw control bytes (`\u` escapes),
/// DEL, multi-byte UTF-8, an astral-plane scalar, and the line/paragraph
/// separators some serializers mishandle.
const CHARSET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', 'ß', '日', '🚀', '\u{2028}', '\u{2029}',
];

fn random_string(rng: &mut SplitMix64) -> String {
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| CHARSET[rng.below(CHARSET.len() as u64) as usize])
        .collect()
}

/// A random JSON value, depth-bounded. Numbers are multiples of 1/8 (or
/// integers) so the writer's fixed 3-decimal float rendering is exact and
/// the round-trip can demand full equality.
fn random_value(rng: &mut SplitMix64, depth: u32) -> JsonValue {
    let scalar_only = depth == 0;
    match rng.below(if scalar_only { 5 } else { 7 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 1),
        2 => JsonValue::Number(rng.below(1 << 40) as f64),
        3 => JsonValue::Number(rng.below(8_000) as f64 / 8.0 - 500.0),
        4 => JsonValue::String(random_string(rng)),
        5 => {
            let n = rng.below(4) as usize;
            JsonValue::Array((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(4);
            let mut map = BTreeMap::new();
            for i in 0..n {
                // A unique prefix keeps keys distinct; the adversarial
                // suffix still exercises key escaping.
                map.insert(
                    format!("k{i}-{}", random_string(rng)),
                    random_value(rng, depth - 1),
                );
            }
            JsonValue::Object(map)
        }
    }
}

/// Emits `v` through the public `JsonWriter` surface.
fn write_value(w: &mut JsonWriter, v: &JsonValue) {
    match v {
        JsonValue::Null => {
            w.null();
        }
        JsonValue::Bool(b) => {
            w.bool(*b);
        }
        JsonValue::Number(n) => {
            // Route integers through the integer emitters (the writer has
            // no general float formatter for them) and fractions through
            // the fixed-precision float path.
            if n.fract() == 0.0 && *n >= 0.0 {
                w.u64(*n as u64);
            } else if n.fract() == 0.0 {
                w.i64(*n as i64);
            } else {
                w.f64(*n);
            }
        }
        JsonValue::String(s) => {
            w.string(s);
        }
        JsonValue::Array(items) => {
            w.begin_array();
            for item in items {
                write_value(w, item);
            }
            w.end_array();
        }
        JsonValue::Object(map) => {
            w.begin_object();
            for (k, item) in map {
                w.key(k);
                write_value(w, item);
            }
            w.end_object();
        }
    }
}

#[test]
fn string_escaping_round_trips_for_adversarial_inputs() {
    let seed = 0x5EED_0001u64;
    let mut rng = SplitMix64::new(seed);
    for iter in 0..500 {
        let s = random_string(&mut rng);
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("value", &s)
            .key("nested")
            .begin_array()
            .string(&s)
            .end_array()
            .end_object();
        let text = w.finish();
        let doc = JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed:#x} iter {iter}: {e}\n{text}"));
        assert_eq!(
            doc.get("value").and_then(JsonValue::as_str),
            Some(s.as_str()),
            "seed {seed:#x} iter {iter}: field {s:?} mangled in {text}"
        );
        let arr = doc.get("nested").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_str(), Some(s.as_str()));
    }
}

#[test]
fn nested_documents_round_trip_through_the_stats_parser() {
    let seed = 0x5EED_0002u64;
    let mut rng = SplitMix64::new(seed);
    for iter in 0..300 {
        // Top level is always an object, like every wire document.
        let mut map = BTreeMap::new();
        let n = 1 + rng.below(4);
        for i in 0..n {
            map.insert(format!("f{i}-{}", random_string(&mut rng)), {
                random_value(&mut rng, 3)
            });
        }
        let model = JsonValue::Object(map);
        let mut w = JsonWriter::new();
        write_value(&mut w, &model);
        let text = w.finish();
        let parsed = JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed:#x} iter {iter}: {e}\n{text}"));
        assert_eq!(
            parsed, model,
            "seed {seed:#x} iter {iter}: round-trip diverged for {text}"
        );
    }
}

#[test]
fn stats_doc_accessors_survive_escaped_content() {
    // The exact path fetch_stats takes: raw text in, telemetry parse,
    // accessor out — with a mode string that needs every common escape.
    let mode = "gocc\"\\\n\t\u{1f}日🚀";
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("mode", mode)
        .key("overload")
        .begin_object()
        .field_u64("shed_total", 3)
        .end_object()
        .end_object();
    let raw = w.finish();
    let doc = JsonDoc {
        parsed: JsonValue::parse(&raw).expect("stats parse"),
        raw,
    };
    assert_eq!(doc.mode(), Some(mode));
    assert_eq!(
        doc.parsed
            .get("overload")
            .and_then(|o| o.get("shed_total"))
            .and_then(JsonValue::as_f64),
        Some(3.0)
    );
}
