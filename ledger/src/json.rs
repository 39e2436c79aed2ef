//! Just enough JSON for the ledger to read `BENCHMARK.json` and its own
//! result files back: a value tree, a recursive-descent parser, and
//! string escaping for the writer side (results are written with
//! `format!`, field by field, so the files diff cleanly).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array (empty otherwise).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The members, if this is an object.
    #[cfg(test)]
    pub fn members(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0, depth: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON with all its digits; non-finite becomes 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Nesting the parser accepts; input is a file a user points us at.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end")),
            Some(b'{') | Some(b'[') => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return Err(self.err("nested too deeply"));
                }
                let v = if self.s[self.i] == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("bad value"))
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.i += 1;
        let mut m = BTreeMap::new();
        loop {
            self.ws();
            if self.eat("}") {
                return Ok(Json::Obj(m));
            }
            if !m.is_empty() && !self.eat(",") {
                return Err(self.err("expected , or }"));
            }
            self.ws();
            let k = self.string()?;
            self.ws();
            if !self.eat(":") {
                return Err(self.err("expected :"));
            }
            m.insert(k, self.value()?);
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.i += 1;
        let mut v = Vec::new();
        loop {
            self.ws();
            if self.eat("]") {
                return Ok(Json::Arr(v));
            }
            if !v.is_empty() && !self.eat(",") {
                return Err(self.err("expected , or ]"));
            }
            v.push(self.value()?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| self.err("bad \\u"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u"))?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_ledger_reads() {
        let v = parse(
            r#"{"command": ["cargo", "run"], "run_seconds": 10,
                "end_to_end": [{"name": "setup_s", "bound": 0.25, "better": "lower"}],
                "ok": true, "none": null, "neg": -1.5e-3, "s": "a\"b\\c\u00e9\n"}"#,
        )
        .unwrap();
        assert_eq!(v.get("run_seconds").and_then(Json::num), Some(10.0));
        assert_eq!(v.get("command").unwrap().items()[1].str(), Some("run"));
        let m = &v.get("end_to_end").unwrap().items()[0];
        assert_eq!(m.get("bound").and_then(Json::num), Some(0.25));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("neg").and_then(Json::num), Some(-0.0015));
        assert_eq!(v.get("s").and_then(Json::str), Some("a\"b\\cé\n"));
        assert_eq!(v.members().unwrap().len(), 7);
    }

    #[test]
    fn quote_round_trips_and_numbers_keep_their_digits() {
        let s = "tab\there \"quoted\" back\\slash\nline \u{1}";
        assert_eq!(parse(&quote(s)).unwrap().str(), Some(s));
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(parse(&number(1.0e-7)).unwrap().num(), Some(1.0e-7));
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"abc", "tru", "{\"a\":1}x", "[1 2]", "\"\\u12\""]
        {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse(&"[".repeat(1000)).is_err(), "deep nesting is refused, not a stack overflow");
    }
}
