//! The minimal JSON surface the query log needs: string escaping, a
//! flat object builder for emitting one JSONL record per statement, and
//! a strict validator used by the test suite (and CI) to prove every
//! emitted line is well-formed JSON with the required keys. No serde in
//! the build environment — this is the honest hand-rolled subset.

/// Escape `s` for embedding inside a JSON string literal (quotes not
/// included).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Builds one flat JSON object, keys in insertion order.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    fields: Vec<String>,
}

impl ObjectBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Add a float field; non-finite values become `null` (JSON has no
    /// Inf/NaN).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push(format!("\"{}\":{v}", escape(key)));
        self
    }

    /// Render the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Strictly parse `line` as a single JSON object and return its
/// top-level keys in order. Errors name the offending byte offset.
/// This is the validator behind the query-log schema tests: it accepts
/// exactly the JSON grammar (objects, arrays, strings with escapes,
/// numbers, booleans, null) and nothing else — trailing garbage fails.
pub fn parse_object_keys(line: &str) -> Result<Vec<String>, String> {
    let b = line.as_bytes();
    let mut pos = 0usize;
    let keys = parse_object(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(keys)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Vec<String>, String> {
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b'{') {
        return Err(format!("expected '{{' at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut keys = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(keys);
    }
    loop {
        skip_ws(b, pos);
        keys.push(parse_string(b, pos)?);
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(keys);
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(&b'{') => parse_object(b, pos).map(|_| ()),
        Some(&b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(&b'"') => parse_string(b, pos).map(|_| ()),
        Some(&b't') => expect_lit(b, pos, b"true"),
        Some(&b'f') => expect_lit(b, pos, b"false"),
        Some(&b'n') => expect_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("expected a JSON value at byte {pos}", pos = *pos)),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(&b'e') | Some(&b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(&b'+') | Some(&b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let start = *pos;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| format!("bad utf8 at byte {start}"));
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(&b'"') => out.push(b'"'),
                    Some(&b'\\') => out.push(b'\\'),
                    Some(&b'/') => out.push(b'/'),
                    Some(&b'n') => out.push(b'\n'),
                    Some(&b'r') => out.push(b'\r'),
                    Some(&b't') => out.push(b'\t'),
                    Some(&b'b') => out.push(0x08),
                    Some(&b'f') => out.push(0x0c),
                    Some(&b'u') => {
                        if *pos + 4 >= b.len() {
                            return Err(format!("truncated \\u escape at byte {pos}", pos = *pos));
                        }
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // Surrogate pairs are validated only as hex here;
                        // the log never emits astral-plane escapes.
                        if let Some(ch) = char::from_u32(hex) {
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            c if c < 0x20 => return Err(format!("raw control byte at {pos}", pos = *pos)),
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_through_validator() {
        let line = ObjectBuilder::new()
            .str("query", "select \"x\"\nfrom t")
            .u64("rows", 42)
            .f64("qerror", 1.5)
            .f64("inf", f64::INFINITY)
            .finish();
        let keys = parse_object_keys(&line).expect("valid JSON");
        assert_eq!(keys, vec!["query", "rows", "qerror", "inf"]);
        assert!(line.contains("\"inf\":null"), "{line}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(parse_object_keys("{").is_err());
        assert!(parse_object_keys("{}extra").is_err());
        assert!(parse_object_keys("{\"a\":}").is_err());
        assert!(parse_object_keys("{\"a\":1,}").is_err());
        assert!(parse_object_keys("{\"a\":01e}").is_err());
        assert!(parse_object_keys("[1,2]").is_err());
        assert!(parse_object_keys("{\"a\":\"unterminated}").is_err());
    }

    #[test]
    fn validator_accepts_nested_values() {
        let keys = parse_object_keys(
            "{\"a\": [1, -2.5, 3e4], \"b\": {\"c\": true, \"d\": null}, \"e\": \"\\u0041\"}",
        )
        .unwrap();
        assert_eq!(keys, vec!["a", "b", "e"]);
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
