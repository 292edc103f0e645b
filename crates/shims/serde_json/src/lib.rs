//! Vendored, dependency-free JSON text layer over the workspace `serde`
//! shim: renders [`serde::Value`] trees as JSON and parses JSON back into
//! them, exposing the two entry points this repository uses
//! ([`to_string`] and [`from_str`]).

use serde::Value;
use std::fmt;

/// The deepest array/object nesting [`from_str`] accepts (upstream
/// serde_json's recursion limit). The parser recurses once per level, so
/// without a cap a line of `[`s overflows the stack. The deepest JSON this
/// repository reads, a SARIF log with a code flow, nests 14 levels.
const MAX_DEPTH: usize = 128;

/// JSON encoding/decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders a value as compact JSON text. Never fails; the `Result` keeps
/// upstream's signature.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out);
    Ok(out)
}

/// Parses JSON text into a value tree.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(u) => {
            out.push_str(&u.to_string());
        }
        Value::I64(i) => {
            out.push_str(&i.to_string());
        }
        // JSON has no NaN or infinity; upstream serde_json writes `null`.
        Value::F64(x) if !x.is_finite() => out.push_str("null"),
        Value::F64(x) => {
            // `{}` prints the shortest representation that round-trips; add
            // `.0` when it would otherwise read as an integer so the token
            // parses back to F64.
            let s = x.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    /// Always on a character boundary: the parser steps over single ASCII
    /// bytes or over whole runs of string characters.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.text[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parses one array or object one level deeper, up to [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("malformed array at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("malformed object at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character in one step. All three are
            // ASCII, so the run ends on a character boundary, and each
            // input byte is read once.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.parse_escape()?),
                Some(_) => {
                    return Err(Error(format!(
                        "control character in string at byte {}",
                        self.pos
                    )))
                }
                None => return Err(Error("unterminated string".to_string())),
            }
        }
    }

    /// Decodes one escape sequence starting at the backslash under `pos`.
    /// A `\u` escape of a high surrogate must be followed by one of a low
    /// surrogate; the pair decodes to one character.
    fn parse_escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let letter = self.text.as_bytes().get(at + 1).copied();
        self.pos += 2;
        Ok(match letter {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // A surrogate left unpaired is not a character.
                char::from_u32(code)
                    .ok_or_else(|| Error(format!("unpaired surrogate at byte {at}")))?
            }
            _ => return Err(Error(format!("bad escape at byte {at}"))),
        })
    }

    /// Reads the four hex digits of a `\u` escape at `pos`.
    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| Error(format!("bad \\u escape at byte {}", self.pos)))?;
        self.pos += 4;
        Ok(code)
    }

    /// Parses `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`; a fraction
    /// or an exponent makes the number an `F64`.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat_one_of(b"-");
        let int = self.eat_one_of(b"0") || self.digits();
        let frac = !self.eat_one_of(b".") || self.digits();
        let exp = !self.eat_one_of(b"eE") || {
            self.eat_one_of(b"+-");
            self.digits()
        };
        let text = &self.text[start..self.pos];
        let value = if !(int && frac && exp) {
            None
        } else if text.contains(['.', 'e', 'E']) {
            text.parse().map(Value::F64).ok()
        } else if text.starts_with('-') {
            text.parse().map(Value::I64).ok()
        } else {
            text.parse().map(Value::U64).ok()
        };
        value.ok_or_else(|| Error(format!("invalid number `{text}` at byte {start}")))
    }

    /// Steps over the next byte if it is one of `set`.
    fn eat_one_of(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Steps over a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Value {
        Value::Str(text.to_string())
    }

    #[test]
    fn scalars_encode_and_parse() {
        assert_eq!(to_string(&Value::U64(3)).unwrap(), "3");
        assert_eq!(to_string(&Value::I64(-3)).unwrap(), "-3");
        assert_eq!(to_string(&Value::F64(1.5)).unwrap(), "1.5");
        assert_eq!(to_string(&Value::F64(2.0)).unwrap(), "2.0");
        assert_eq!(to_string(&Value::Bool(false)).unwrap(), "false");
        assert_eq!(from_str("3").unwrap(), Value::U64(3));
        assert_eq!(from_str("-3").unwrap(), Value::I64(-3));
        assert_eq!(from_str("1.5").unwrap(), Value::F64(1.5));
        assert_eq!(from_str("2.0").unwrap(), Value::F64(2.0));
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert!(from_str("1.2.3").is_err());
        assert!(from_str("-").is_err());
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let json = to_string(&Value::Array(vec![Value::F64(x)])).unwrap();
            assert_eq!(json, "[null]");
            assert_eq!(from_str(&json).unwrap(), Value::Array(vec![Value::Null]));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = s("line\n\"quote\"\tend \\ λ \u{1}");
        let json = to_string(&v).unwrap();
        assert_eq!(json, "\"line\\n\\\"quote\\\"\\tend \\\\ λ \\u0001\"");
        assert_eq!(from_str(&json).unwrap(), v);
        assert_eq!(
            from_str(r#""\u00e9\/\b\f\r""#).unwrap(),
            s("é/\u{8}\u{c}\r")
        );
        for bad in [r#""abc"#, r#""\x""#, r#""\u12""#, r#""\ud800""#] {
            assert!(from_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn follows_rfc_8259() {
        let accepted = [
            // A surrogate-pair escape, as Python's `json.dumps` writes it.
            (r#""\ud83d\ude00""#, s("😀")),
            ("\"\u{7f}\"", s("\u{7f}")),
            ("0", Value::U64(0)),
            ("-0", Value::I64(0)),
            ("10", Value::U64(10)),
            ("0.5", Value::F64(0.5)),
            ("-1.5e-3", Value::F64(-1.5e-3)),
            ("1E+5", Value::F64(1e5)),
        ];
        for (text, value) in accepted {
            assert_eq!(from_str(text), Ok(value), "{text:?}");
        }
        let rejected = [
            // `\u` takes exactly four hex digits.
            r#""\u+041x""#,
            // Lone surrogates, and a high one before a non-surrogate.
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            // Raw control characters inside a string.
            "\"a\tb\"",
            "\"\u{0}\"",
            "\"\u{1f}\"",
            // Numbers outside the grammar.
            r#"{"config_fp":01}"#,
            "00",
            "-01",
            "1.",
            "1.e5",
            "1e+",
        ];
        for text in rejected {
            assert!(from_str(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn long_mixed_string_round_trips() {
        // Multi-byte characters (2-, 3- and 4-byte UTF-8) between escapes,
        // long enough that a parser re-reading the rest of the input per
        // character would take seconds.
        let text = "ab λ€😀\"\\\n\tz".repeat(20_000);
        let json = to_string(&Value::Object(vec![("label".to_string(), s(&text))])).unwrap();
        assert_eq!(from_str(&json).unwrap().field("label"), Ok(&s(&text)));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let doc = r#"{"a":[1,-2,3.5e-1,true,null],"s":"éé\n😀","o":{}}"#;
        assert!(from_str(doc).is_ok());
        for (cut, _) in doc.char_indices().skip(1) {
            assert!(from_str(&doc[..cut]).is_err(), "{}", &doc[..cut]);
        }
    }

    #[test]
    fn containers_encode_and_parse() {
        let v = Value::Array(vec![Value::U64(1), Value::U64(2), Value::U64(3)]);
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        assert_eq!(from_str("[1, 2, 3]").unwrap(), v);
        assert_eq!(from_str("[]").unwrap(), Value::Array(Vec::new()));
        let obj = Value::Object(vec![
            ("a".to_string(), Value::Null),
            ("b".to_string(), Value::Object(Vec::new())),
        ]);
        assert_eq!(to_string(&obj).unwrap(), r#"{"a":null,"b":{}}"#);
        assert_eq!(from_str(r#"{ "a" : null , "b" : { } }"#).unwrap(), obj);
    }

    #[test]
    fn whitespace_tolerated_trailing_rejected() {
        assert_eq!(
            from_str(" [ 1 , 2 ] ").unwrap(),
            Value::Array(vec![Value::U64(1), Value::U64(2)])
        );
        assert!(from_str("3 x").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str(r#"{"a":1,}"#).is_err());
    }

    #[test]
    fn float_shortest_form_round_trips() {
        for x in [0.1, 1e300, -2.5e-10, 123456.789] {
            let json = to_string(&Value::F64(x)).unwrap();
            assert_eq!(from_str(&json).unwrap(), Value::F64(x));
        }
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        let err = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains(&format!("at byte {MAX_DEPTH}")),
            "{err}"
        );
        // Objects count toward the same limit, and an unclosed line far
        // past it fails at the limit instead of overflowing the stack.
        let objects = r#"{"a":"#.repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(from_str(&objects).is_err());
        assert!(from_str(&"[".repeat(100_000)).is_err());
    }
}
