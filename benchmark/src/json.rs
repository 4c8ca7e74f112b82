//! The little JSON this benchmark needs: an object writer and a total
//! parser. The vendored `serde` is marker traits only (vendor/README.md:
//! "actual (de)serialization" is what it does not provide), so result
//! files are written and read here.

use std::fmt::Write as _;

/// Escape `s` as the inside of a JSON string.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A number with all its digits; non-finite values become `null`, which
/// the result checker reports.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// An object under construction, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push('"');
        escape(k, &mut self.body);
        self.body.push_str("\":");
    }

    /// Add an already rendered JSON value.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    /// Add a number.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let n = num(v);
        self.raw(k, &n)
    }

    /// Add a string.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push('"');
        escape(v, &mut self.body);
        self.body.push('"');
        self
    }

    /// Add a boolean.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.raw(k, if v { "true" } else { "false" })
    }

    /// Render.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Render a list of already rendered values.
#[cfg(test)]
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// Render a list of strings.
pub fn str_array(items: &[String]) -> String {
    let mut o = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('"');
        escape(s, &mut o);
        o.push('"');
    }
    o.push(']');
    o
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in file order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `k` of an object.
    pub fn get(&self, k: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(key, _)| key == k).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array (empty otherwise).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }

    /// The members, if this is an object (empty otherwise).
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(m) => m,
            _ => &[],
        }
    }
}

/// Parse one JSON document. Total: malformed input is an `Err` naming
/// the byte offset, never a panic.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0, depth: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        if self.depth > 64 {
            return self.err("nesting too deep");
        }
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                self.depth += 1;
                let mut members = Vec::new();
                self.ws();
                if !self.eat("}") {
                    loop {
                        self.ws();
                        let k = self.string()?;
                        self.ws();
                        if !self.eat(":") {
                            return self.err("expected ':'");
                        }
                        members.push((k, self.value()?));
                        self.ws();
                        if self.eat("}") {
                            break;
                        }
                        if !self.eat(",") {
                            return self.err("expected ',' or '}'");
                        }
                    }
                }
                self.depth -= 1;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                self.i += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.ws();
                if !self.eat("]") {
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.eat("]") {
                            break;
                        }
                        if !self.eat(",") {
                            return self.err("expected ',' or ']'");
                        }
                    }
                }
                self.depth -= 1;
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.i += 1;
                }
                let txt = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                match txt.parse::<f64>() {
                    Ok(n) if !txt.is_empty() => Ok(Value::Num(n)),
                    _ => self.err("expected a value"),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected '\"'");
        }
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.s.get(self.i).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.i += 1;
            }
            match std::str::from_utf8(&self.s[start..self.i]) {
                Ok(chunk) => out.push_str(chunk),
                Err(_) => return self.err("invalid UTF-8"),
            }
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.i += 1;
                    let Some(&e) = self.s.get(self.i) else {
                        return self.err("unterminated escape");
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok());
                            let Some(c) = hex
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                            else {
                                return self.err("bad \\u escape");
                            };
                            self.i += 4;
                            out.push(c);
                        }
                        _ => return self.err("bad escape"),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_through_writer_and_parser() {
        let mut inner = Obj::new();
        inner.num("value", 1.2034).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true)
            .num("attempted", 1000.0)
            .str("note", "quote \" slash \\ newline \n tab \t bell \u{7}")
            .raw("metrics", &inner.finish())
            .raw("list", &array(&[num(1.0), num(-2.5e-7), "null".to_owned()]))
            .raw("names", &str_array(&["a.b".to_owned(), "c_d".to_owned()]));
        let v = parse(&o.finish()).expect("writer output parses");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1000.0));
        assert_eq!(
            v.get("note").and_then(Value::as_str),
            Some("quote \" slash \\ newline \n tab \t bell \u{7}")
        );
        let m = v.get("metrics").expect("metrics");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(v.get("list").map(Value::items).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("list").unwrap().items()[1].as_f64(), Some(-2.5e-7));
        assert_eq!(v.get("names").unwrap().items()[0].as_str(), Some("a.b"));
        assert_eq!(v.members().len(), 6);
    }

    #[test]
    fn every_digit_survives() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 123_456_789.125, 5e-324, 1.7976931348623157e308] {
            assert_eq!(parse(&num(x)).unwrap().as_f64(), Some(x));
        }
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in
            ["", "{", "[1,", "{\"a\" 1}", "\"abc", "{\"a\":1}x", "tru", "\"\\u12\"", "-", "[1 2]"]
        {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse(&"[".repeat(100)).is_err());
        assert_eq!(parse(" [ ] ").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }
}
