//! Property-style round-trip tests for `pipeline::json` — the hand-rolled
//! emitter/parser every report in the workspace (simulator `SimReport`,
//! runtime `LoaderReport`, the `dstool figures` document) goes through.
//!
//! The invariant: anything [`write_string`]/[`write_f64`] emit must parse
//! back to the same value — for strings stuffed with quotes, backslashes,
//! control characters and multi-byte UTF-8, and for every finite `f64` bit
//! pattern (non-finite values map to `null` by design, JSON having no
//! `NaN`/`Infinity`).

use datastalls::pipeline::json::{escape, parse, write_f64, write_string, Value};
use proptest::prelude::*;

/// Deterministically build a nasty string from a seed: a mix of ASCII,
/// quotes, backslashes, control characters and multi-byte code points.
fn nasty_string(seed: u64, len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        'ß', '中', '🦀', '\u{2028}', '/', ':', '{', '}', '[', ']', ',',
    ];
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            POOL[(state % POOL.len() as u64) as usize]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Escaped strings survive the emit → parse round trip byte-for-byte,
    /// both as object values and as object keys.
    #[test]
    fn string_escaping_round_trips(seed in 0u64..u64::MAX, len in 0usize..64) {
        let original = nasty_string(seed, len);
        let mut doc = String::from("{\"label\":");
        write_string(&mut doc, &original);
        doc.push('}');
        let parsed = parse(&doc).expect("write_string must emit valid JSON");
        prop_assert_eq!(parsed.get("label").and_then(Value::as_str), Some(original.as_str()));

        // As a key: keys use the same escaping path.
        let mut keyed = String::from("{");
        write_string(&mut keyed, &original);
        keyed.push_str(":1}");
        let parsed = parse(&keyed).expect("escaped keys must parse");
        prop_assert_eq!(parsed.get(&original).and_then(Value::as_f64), Some(1.0));
    }

    /// `escape` agrees with `write_string` minus the surrounding quotes.
    #[test]
    fn escape_is_write_string_without_quotes(seed in 0u64..u64::MAX, len in 0usize..48) {
        let original = nasty_string(seed, len);
        let mut quoted = String::new();
        write_string(&mut quoted, &original);
        prop_assert_eq!(quoted, format!("\"{}\"", escape(&original)));
    }

    /// Every finite f64 round-trips exactly (Rust's shortest formatting is
    /// lossless); every non-finite bit pattern becomes `null`.
    #[test]
    fn f64_bit_patterns_round_trip_or_become_null(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        let mut doc = String::from("{\"x\":");
        write_f64(&mut doc, v);
        doc.push('}');
        let parsed = parse(&doc).expect("write_f64 must emit valid JSON");
        let x = parsed.get("x").expect("key present");
        if v.is_finite() {
            let back = x.as_f64().expect("finite values stay numbers");
            // Compare by bits so -0.0 and 0.0 stay distinguishable... except
            // JSON "-0" parses to -0.0, which f64 round-trips exactly.
            prop_assert_eq!(back.to_bits(), v.to_bits());
        } else {
            prop_assert_eq!(x, &Value::Null);
        }
    }

    /// Mixed documents built from the emit helpers parse to the same shape:
    /// arrays of escaped strings and numbers, arbitrarily nested one level.
    #[test]
    fn composed_documents_round_trip(
        seed in 0u64..u64::MAX,
        n in 1usize..8,
        scale in 0.0f64..1e12,
    ) {
        let mut doc = String::from("{\"items\":[");
        let mut originals = Vec::new();
        for i in 0..n {
            if i > 0 {
                doc.push(',');
            }
            let s = nasty_string(seed.wrapping_add(i as u64), 12);
            doc.push_str("{\"name\":");
            write_string(&mut doc, &s);
            doc.push_str(",\"value\":");
            write_f64(&mut doc, scale * (i as f64 + 0.5));
            doc.push('}');
            originals.push(s);
        }
        doc.push_str("]}");
        let parsed = parse(&doc).expect("composed document must parse");
        let items = parsed.get("items").and_then(Value::as_array).expect("array");
        prop_assert_eq!(items.len(), n);
        for (i, item) in items.iter().enumerate() {
            prop_assert_eq!(
                item.get("name").and_then(Value::as_str),
                Some(originals[i].as_str())
            );
            let v = item.get("value").and_then(Value::as_f64).expect("number");
            prop_assert!((v - scale * (i as f64 + 0.5)).abs() <= f64::EPSILON * v.abs());
        }
    }
}
