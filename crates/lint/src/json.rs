//! JSON output for `hetlint --format json`, plus a minimal parser.
//!
//! The build is hermetic (no serde), so both directions are
//! hand-rolled: [`report_to_json`] serializes a [`crate::Report`] with
//! a stable field order, and [`parse`] is a small recursive-descent
//! JSON reader used by the round-trip tests and available to any gate
//! that wants to consume the report without string matching.

use crate::graph::CallGraph;
use crate::{Report, Violation};

/// Escapes a string for embedding in a JSON document (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn violation_obj(v: &Violation, indent: &str) -> String {
    let mut fields = vec![
        format!("\"rule\": {}", escape(v.rule.key())),
        format!("\"path\": {}", escape(&v.path)),
        format!("\"line\": {}", v.line),
        format!("\"message\": {}", escape(&v.message)),
    ];
    if let Some(s) = &v.suppression {
        fields.push(format!("\"reason\": {}", escape(&s.reason)));
    }
    format!("{indent}{{ {} }}", fields.join(", "))
}

fn violation_array(items: &[Violation], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let inner = format!("{indent}  ");
    let body: Vec<String> = items.iter().map(|v| violation_obj(v, &inner)).collect();
    format!("[\n{}\n{indent}]", body.join(",\n"))
}

/// Serializes a workspace report. Field order is stable; consumers may
/// rely on it for diffing artifacts across runs.
pub fn report_to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"hetlint\",\n");
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"clean\": {},\n", report.clean()));
    out.push_str(&format!(
        "  \"violations\": {},\n",
        violation_array(&report.violations, "  ")
    ));
    out.push_str(&format!(
        "  \"suppressed\": {},\n",
        violation_array(&report.suppressed, "  ")
    ));
    out.push_str(&format!(
        "  \"bad_allows\": {},\n",
        violation_array(&report.bad_allows, "  ")
    ));
    if report.unwrap_rows.is_empty() {
        out.push_str("  \"unwrap_budget\": [],\n");
    } else {
        let rows: Vec<String> = report
            .unwrap_rows
            .iter()
            .map(|(name, count, budget)| {
                format!(
                    "    {{ \"crate\": {}, \"count\": {count}, \"budget\": {budget}, \
                     \"over\": {} }}",
                    escape(name),
                    count > budget
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"unwrap_budget\": [\n{}\n  ],\n",
            rows.join(",\n")
        ));
    }
    match report.reachable_panics {
        Some((count, budget)) => out.push_str(&format!(
            "  \"reachable_panics\": {{ \"count\": {count}, \"budget\": {budget}, \
             \"over\": {} }},\n",
            count > budget
        )),
        None => out.push_str("  \"reachable_panics\": null,\n"),
    }
    if report.notes.is_empty() {
        out.push_str("  \"notes\": []\n");
    } else {
        let notes: Vec<String> = report
            .notes
            .iter()
            .map(|n| format!("    {}", escape(n)))
            .collect();
        out.push_str(&format!("  \"notes\": [\n{}\n  ]\n", notes.join(",\n")));
    }
    out.push('}');
    out
}

/// Serializes the workspace call graph for `hetlint --callgraph`.
/// Nodes carry qualified names and defining locations; edges are
/// `[from, to]` index pairs into the node array. The document
/// round-trips through [`parse`].
pub fn graph_to_json(graph: &CallGraph) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"hetlint-callgraph\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    if graph.nodes.is_empty() {
        out.push_str("  \"nodes\": [],\n");
    } else {
        let rows: Vec<String> = graph
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| {
                format!(
                    "    {{ \"id\": {id}, \"qname\": {}, \"crate\": {}, \"path\": {}, \
                     \"line\": {} }}",
                    escape(&n.qname),
                    escape(&n.crate_name),
                    escape(&n.path),
                    n.line
                )
            })
            .collect();
        out.push_str(&format!("  \"nodes\": [\n{}\n  ],\n", rows.join(",\n")));
    }
    let mut pairs: Vec<String> = Vec::new();
    for (from, row) in graph.edges.iter().enumerate() {
        for &to in row {
            pairs.push(format!("[{from}, {to}]"));
        }
    }
    if pairs.is_empty() {
        out.push_str("  \"edges\": []\n");
    } else {
        out.push_str(&format!("  \"edges\": [\n    {}\n  ]\n", pairs.join(",\n    ")));
    }
    out.push('}');
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64; the report only emits integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { chars: text.chars().collect(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing data at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            other => Err(format!(
                "expected `{want}` at offset {}, got {other:?}",
                self.pos
            )),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Value::Str),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        for want in word.chars() {
            if self.bump() != Some(want) {
                return Err(format!("malformed literal near offset {}", self.pos));
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some('-' | '+' | '.' | 'e' | 'E') | Some('0'..='9')
        ) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some(d) = self.bump().and_then(|c| c.to_digit(16)) else {
                                return Err(format!(
                                    "bad \\u escape at offset {}",
                                    self.pos
                                ));
                            };
                            code = code * 16 + d;
                        }
                        let Some(c) = char::from_u32(code) else {
                            return Err(format!("invalid codepoint \\u{code:04x}"));
                        };
                        out.push(c);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_char('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Arr(items)),
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect_char('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_char(':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Value::Obj(members)),
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(v.get("c").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn escape_round_trips() {
        let ugly = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"s\": {}}}", escape(ugly));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(ugly));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escape_parses() {
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn every_control_char_escapes_and_round_trips() {
        // U+0000..=U+001F must all be escaped (raw control bytes are
        // invalid JSON) and survive an escape → parse cycle.
        let all_controls: String = (0u32..=0x1f).map(|c| char::from_u32(c).unwrap()).collect();
        let escaped = escape(&all_controls);
        let inner = &escaped[1..escaped.len() - 1];
        assert!(
            inner.chars().all(|c| c as u32 >= 0x20),
            "escaped form must contain no raw control characters: {inner:?}"
        );
        let back = parse(&format!("{{\"s\": {escaped}}}")).unwrap();
        assert_eq!(back.get("s").and_then(Value::as_str), Some(all_controls.as_str()));
    }
}
