//! A JSON writer just large enough for the benchmark's three outputs: the
//! result line, `trace.json` and `BENCHMARK.json`. Values are built as
//! already-serialized strings and composed with [`object`] and [`array`].

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has (Rust prints the
/// shortest text that reads back to the same `f64`).
///
/// # Panics
///
/// On NaN or infinity, which JSON cannot carry: a metric that is not a
/// number is a benchmark bug, not something to write down.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot carry {v}");
    format!("{v}")
}

/// `{"k": v, ...}` from serialized values, on one line.
pub fn object<K: AsRef<str>>(pairs: &[(K, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from serialized values, on one line.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// `[v, ...]` with one item per line, indented under `indent` spaces.
pub fn array_lines(items: &[String], indent: usize) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let pad = " ".repeat(indent + 2);
    let body: Vec<String> = items.iter().map(|item| format!("{pad}{item}")).collect();
    format!("[\n{}\n{}]", body.join(",\n"), " ".repeat(indent))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(
            string("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
        assert_eq!(string("§6.6.3 — µs"), "\"§6.6.3 — µs\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(-2.5e-7), "-0.00000025");
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn nan_is_refused() {
        number(f64::NAN);
    }

    #[test]
    fn objects_and_arrays_compose() {
        let inner = object(&[("value", number(1.5)), ("unit", string("s"))]);
        assert_eq!(inner, "{\"value\": 1.5, \"unit\": \"s\"}");
        let outer = object(&[("m", inner), ("list", array(&[number(1.0), number(2.0)]))]);
        assert_eq!(
            outer,
            "{\"m\": {\"value\": 1.5, \"unit\": \"s\"}, \"list\": [1, 2]}"
        );
        assert_eq!(array(&[]), "[]");
        assert_eq!(array_lines(&[], 2), "[]");
        assert_eq!(
            array_lines(&[number(1.0), number(2.0)], 2),
            "[\n    1,\n    2\n  ]"
        );
    }
}
