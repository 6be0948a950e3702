//! The workspace's one JSON module: a value type, a depth-capped
//! parser, one string escaper, a pretty and a compact writer, and the
//! `tnet-trace/v1` document (export and typed decode).
//!
//! The daemon's wire protocol (`tnet_serve::proto`), the CLI's
//! `--trace-json` export and `tnet trace` summary, the daemon's `trace`
//! reply and the bench reports all go through here, so no two of them
//! can disagree about what a document means. Std-only, like the rest of
//! the crate. Schema reference: DESIGN.md §10.
//!
//! Trace document shape:
//!
//! ```json
//! {
//!   "schema": "tnet-trace/v1",
//!   "root": {"label": "mine", "nanos": 12345, "count": 1,
//!            "children": [ ...same shape... ]},
//!   "metrics": {"exec.tasks": 42, "fsg.iso_tests": 20, ...}
//! }
//! ```

use crate::SpanNode;
use std::collections::BTreeMap;
use std::fmt::Write;

/// A JSON value. Objects keep their fields in document order, and
/// [`JVal::get`] returns the first field with a given key, so a
/// repeated key never overrides an earlier one.
#[derive(Clone, Debug, PartialEq)]
pub enum JVal {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JVal>),
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// An object with the given fields, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, JVal)>) -> JVal {
        JVal::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The first field named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JVal::Null => "null",
            JVal::Bool(_) => "bool",
            JVal::Num(_) => "number",
            JVal::Str(_) => "string",
            JVal::Arr(_) => "array",
            JVal::Obj(_) => "object",
        }
    }

    /// Serializes with 2-space indentation and a trailing newline, for
    /// files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace, for wire replies.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the current nesting level in pretty mode, `None` in
    /// compact mode.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints finite floats without an exponent and whole
            // ones without a fraction, which is valid JSON as it stands.
            // JSON has no NaN or infinity.
            JVal::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            JVal::Num(_) => out.push_str("null"),
            JVal::Str(s) => write_string(out, s),
            JVal::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                item.write(out, inner)
            }),
            JVal::Obj(fields) => {
                write_seq(out, indent, ('{', '}'), fields, |out, (k, v), inner| {
                    write_string(out, k);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                })
            }
        }
    }
}

/// Writes a bracketed, comma-separated sequence; in pretty mode each
/// item sits on its own line one level deeper, and empty sequences stay
/// `[]`/`{}`.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push(open);
    if !items.is_empty() {
        let inner = indent.map(|level| level + 1);
        for (i, it) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(level) = inner {
                newline(out, level);
            }
            item(out, it, inner);
        }
        if let Some(level) = indent {
            newline(out, level);
        }
    }
    out.push(close);
}

/// Appends `s` to `out`, JSON-escaped and in quotes. The one escaper:
/// keys and values, pretty and compact, files and wire replies.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON-escapes `s` and wraps it in quotes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

// ---------------------------------------------------------------- parser

/// Parses one JSON document; trailing non-whitespace after the value is
/// an error. Values nested deeper than `max_depth` (the top-level value
/// is depth 0) are refused before they are read, so hostile input
/// cannot exhaust the stack. `what` names the input in the messages
/// about nesting and early end, e.g. "request" or "trace".
pub fn parse(text: &str, max_depth: usize, what: &str) -> Result<JVal, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        max_depth,
        what,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after value at {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
    what: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JVal, String> {
        if depth > self.max_depth {
            return Err(format!("{} JSON nested too deeply", self.what));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b't') => self.keyword("true", JVal::Bool(true)),
            Some(b'f') => self.keyword("false", JVal::Bool(false)),
            Some(b'n') => self.keyword("null", JVal::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => Err(format!("unexpected end of {}", self.what)),
        }
    }

    fn keyword(&mut self, word: &str, val: JVal) -> Result<JVal, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JVal, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so both ends are char
        // boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JVal::Num)
            .map_err(|_| format!("bad number `{text}`"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece. Both are ASCII and never occur inside a multi-byte
            // UTF-8 sequence, so the run ends on a char boundary.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape at the backslash under `pos` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        let esc = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        match esc {
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
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or("truncated \\u escape")?;
                let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                self.pos += 4;
                // Surrogates are replaced rather than paired; no document
                // here needs astral characters.
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            other => return Err(format!("bad escape `\\{}`", other as char)),
        }
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<JVal, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JVal::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                _ => return Err("expected `,` or `]` in array".into()),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JVal, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JVal::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JVal::Obj(fields));
                }
                _ => return Err("expected `,` or `}` in object".into()),
            }
        }
    }
}

// ----------------------------------------------------------- tnet-trace/v1

/// Schema tag written into (and required from) every trace document.
pub const TRACE_SCHEMA: &str = "tnet-trace/v1";

/// Deepest JSON nesting a trace document may have. A span `d` levels
/// below the root sits at JSON depth `2d + 1` (the document object,
/// then an object and a `children` array per level), and its
/// `children` array at `2d + 2`. So 130 admits the root plus 64 levels
/// below it, and nothing deeper.
pub const TRACE_MAX_DEPTH: usize = 130;

/// Builds a `tnet-trace/v1` document from a span-tree snapshot and a
/// metrics snapshot (the output of `MetricsRegistry::snapshot`).
/// Counters above 2^53 lose precision, as any JSON number does.
pub fn trace_to_json(root: &SpanNode, metrics: &BTreeMap<String, u64>) -> JVal {
    fn span(node: &SpanNode) -> JVal {
        JVal::obj([
            ("label", JVal::Str(node.label.clone())),
            ("nanos", JVal::Num(node.nanos as f64)),
            ("count", JVal::Num(node.count as f64)),
            (
                "children",
                JVal::Arr(node.children.iter().map(span).collect()),
            ),
        ])
    }
    JVal::obj([
        ("schema", JVal::Str(TRACE_SCHEMA.into())),
        ("root", span(root)),
        (
            "metrics",
            JVal::obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.as_str(), JVal::Num(*v as f64))),
            ),
        ),
    ])
}

/// Parses and checks a `tnet-trace/v1` document and returns its span
/// tree and counters: the schema tag, a span tree under `root` (every
/// node has a string `label`, non-negative integer `nanos` and `count`,
/// and a `children` array), and a `metrics` object of non-negative
/// integers. Other top-level fields, such as the daemon reply's `ok`
/// and `op`, are ignored. Every failure is a one-line message.
pub fn decode_trace(text: &str) -> Result<(SpanNode, BTreeMap<String, u64>), String> {
    let doc =
        parse(text, TRACE_MAX_DEPTH, "trace").map_err(|e| format!("malformed trace JSON: {e}"))?;
    decode_doc(&doc).map_err(|e| format!("invalid {TRACE_SCHEMA} document: {e}"))
}

fn decode_doc(doc: &JVal) -> Result<(SpanNode, BTreeMap<String, u64>), String> {
    match doc.get("schema") {
        Some(JVal::Str(s)) if s == TRACE_SCHEMA => {}
        Some(JVal::Str(s)) => {
            return Err(format!("unexpected schema '{s}' (want '{TRACE_SCHEMA}')"));
        }
        _ => return Err("missing 'schema' string".into()),
    }
    let Some(JVal::Obj(fields)) = doc.get("metrics") else {
        return Err("missing 'metrics' object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, value) in fields {
        let value = counter(value)
            .ok_or_else(|| format!("metric '{name}' is not a non-negative integer"))?;
        // The first of repeated keys wins, as in `JVal::get`.
        metrics.entry(name.clone()).or_insert(value);
    }
    let root = decode_span(doc.get("root").ok_or("missing 'root' span")?, "root")?;
    Ok((root, metrics))
}

fn counter(v: &JVal) -> Option<u64> {
    match v {
        JVal::Num(n) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Recursion is bounded by [`TRACE_MAX_DEPTH`], which the parser has
/// already enforced.
fn decode_span(node: &JVal, path: &str) -> Result<SpanNode, String> {
    let Some(JVal::Str(label)) = node.get("label") else {
        return Err(format!("{path}: missing 'label' string"));
    };
    let field = |key: &str| {
        node.get(key)
            .and_then(counter)
            .ok_or_else(|| format!("{path}: '{key}' is not a non-negative integer"))
    };
    let (nanos, count) = (field("nanos")?, field("count")?);
    let Some(JVal::Arr(children)) = node.get("children") else {
        return Err(format!("{path}: missing 'children' array"));
    };
    let children = children
        .iter()
        .enumerate()
        .map(|(i, c)| decode_span(c, &format!("{path}.children[{i}]")))
        .collect::<Result<_, _>>()?;
    Ok(SpanNode {
        label: label.clone(),
        nanos,
        count,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use std::time::{Duration, Instant};

    fn sample_trace() -> JVal {
        let t = Tracer::new("mine");
        {
            let total = t.root().timer();
            let _ingest = total.span().time("ingest");
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("fsg.iso_tests".to_string(), 20u64);
        metrics.insert("exec.tasks".to_string(), 4u64);
        trace_to_json(&t.snapshot(), &metrics)
    }

    fn leaf(label: &str, children: Vec<JVal>) -> JVal {
        JVal::obj([
            ("label", JVal::Str(label.into())),
            ("nanos", JVal::Num(1.0)),
            ("count", JVal::Num(1.0)),
            ("children", JVal::Arr(children)),
        ])
    }

    /// A trace whose span tree is a chain `levels` spans below the root,
    /// built as text so that no deep value has to exist in memory.
    fn chain(levels: usize) -> String {
        let open = r#"{"label":"s","nanos":1,"count":1,"children":["#;
        format!(
            r#"{{"schema":"{TRACE_SCHEMA}","metrics":{{}},"root":{}{}{}}}"#,
            open.repeat(levels),
            leaf("deepest", vec![]).compact(),
            "]}".repeat(levels)
        )
    }

    #[test]
    fn round_trips() {
        let v = JVal::obj([
            ("name", JVal::Str("fsg".into())),
            ("wall_ms", JVal::Num(12.5)),
            ("iso_tests", JVal::Num(20.0)),
            ("exact", JVal::Bool(true)),
            (
                "items",
                JVal::Arr(vec![JVal::Num(1.0), JVal::Null, JVal::Str("x".into())]),
            ),
            ("empty", JVal::obj::<&str>([])),
        ]);
        for text in [v.pretty(), v.compact()] {
            assert_eq!(parse(&text, 8, "test").unwrap(), v, "{text}");
        }
        assert!(!v.compact().contains([' ', '\n']));
    }

    #[test]
    fn pretty_layout_is_two_space_indented() {
        let v = JVal::obj([
            ("a", JVal::Arr(vec![JVal::Num(1.0), JVal::Num(-0.25)])),
            ("b", JVal::Arr(vec![])),
            ("c", JVal::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    -0.25\n  ],\n  \"b\": [],\n  \"c\": null\n}\n"
        );
        assert_eq!(v.compact(), r#"{"a":[1,-0.25],"b":[],"c":null}"#);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{\"a\": }",
            "[1, 2",
            "{} trailing",
            "",
            "\"open",
            "tru",
            "-x",
        ] {
            assert!(parse(bad, 8, "test").is_err(), "{bad}");
        }
        assert_eq!(
            parse("[[1]]", 1, "request").unwrap_err(),
            "request JSON nested too deeply"
        );
        assert_eq!(
            parse(" ", 8, "trace").unwrap_err(),
            "unexpected end of trace"
        );
    }

    #[test]
    fn first_duplicate_key_wins() {
        let v = parse(r#"{"k":1,"k":2}"#, 8, "test").unwrap();
        assert_eq!(v.get("k"), Some(&JVal::Num(1.0)));
        let doc = r#"{"schema":"tnet-trace/v1","metrics":{"m":1,"m":2},
            "root":{"label":"r","nanos":0,"count":0,"children":[]}}"#;
        assert_eq!(decode_trace(doc).unwrap().1["m"], 1);
    }

    #[test]
    fn trace_round_trips_through_both_writers() {
        let doc = sample_trace();
        for text in [doc.pretty(), doc.compact()] {
            let (root, metrics) = decode_trace(&text).unwrap();
            assert_eq!(root.label, "mine");
            assert_eq!(root.find("ingest").unwrap().count, 1);
            assert_eq!(metrics["fsg.iso_tests"], 20);
            assert_eq!(trace_to_json(&root, &metrics), doc);
        }
    }

    /// One escaper covers keys and values: a span label and a metric
    /// name with a quote, a backslash, a newline and a control character
    /// come back unchanged.
    #[test]
    fn hostile_labels_and_metric_names_round_trip() {
        let nasty = "a\"b\\c\nd\u{1}e";
        let root = SpanNode {
            label: nasty.into(),
            nanos: 7,
            count: 1,
            children: vec![SpanNode {
                label: format!("child {nasty}"),
                nanos: 3,
                count: 2,
                children: vec![],
            }],
        };
        let metrics = BTreeMap::from([(nasty.to_string(), 5u64)]);
        let doc = trace_to_json(&root, &metrics);
        let compact = doc.compact();
        assert!(!compact.contains('\n'), "{compact}");
        for text in [doc.pretty(), compact] {
            assert_eq!(
                decode_trace(&text).unwrap(),
                (root.clone(), metrics.clone())
            );
        }
    }

    #[test]
    fn decoder_rejects_wrong_schema_and_shapes() {
        let set = |doc: &mut JVal, key: &str, v: JVal| {
            if let JVal::Obj(fields) = doc {
                fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
            }
        };
        let mut doc = sample_trace();
        set(&mut doc, "schema", JVal::Str("other/v9".into()));
        let err = decode_trace(&doc.compact()).unwrap_err();
        assert!(err.contains("unexpected schema"), "{err}");

        let doc = JVal::obj([("schema", JVal::Str(TRACE_SCHEMA.into()))]);
        assert!(decode_trace(&doc.compact())
            .unwrap_err()
            .contains("metrics"));

        for bad in [-1.0, 0.5, f64::INFINITY] {
            let mut doc = sample_trace();
            set(&mut doc, "metrics", JVal::obj([("bad", JVal::Num(bad))]));
            // Infinity is written as null, which is not a number either.
            let err = decode_trace(&doc.compact()).unwrap_err();
            assert!(err.contains("non-negative integer"), "{err}");
        }
        let err = decode_trace("{\"schema\": 1e999}").unwrap_err();
        assert!(err.contains("missing 'schema' string"), "{err}");
    }

    #[test]
    fn decoder_descends_into_children() {
        let mut bad_child = leaf("x", vec![]);
        if let JVal::Obj(fields) = &mut bad_child {
            fields[2].1 = JVal::Str("not a number".into());
        }
        let doc = JVal::obj([
            ("schema", JVal::Str(TRACE_SCHEMA.into())),
            ("metrics", JVal::Obj(vec![])),
            ("root", leaf("r", vec![leaf("ok", vec![]), bad_child])),
        ]);
        let err = decode_trace(&doc.pretty()).unwrap_err();
        assert!(err.contains("root.children[1]: 'count'"), "{err}");
    }

    /// The depth cap admits the root plus 64 levels and refuses the next
    /// one, with a one-line error rather than a stack overflow.
    #[test]
    fn trace_depth_cap_covers_64_span_levels() {
        let (root, _) = decode_trace(&chain(64)).unwrap();
        let mut levels = 0;
        let mut node = &root;
        while let Some(child) = node.children.first() {
            node = child;
            levels += 1;
        }
        assert_eq!(levels, 64);
        for text in [chain(65), chain(20_000), "[".repeat(200_000)] {
            let err = decode_trace(&text).unwrap_err();
            assert!(err.contains("nested too deeply"), "{err}");
            assert!(!err.contains('\n'));
        }
    }

    /// String scanning is linear: a 4 MB metrics object of short keys
    /// parses and decodes well inside the bound (the old per-character
    /// UTF-8 re-check took seconds on a 0.5 MB document).
    #[test]
    fn large_documents_parse_in_linear_time() {
        let metrics: BTreeMap<String, u64> =
            (0..400_000u64).map(|i| (format!("m.{i}"), i)).collect();
        let root = SpanNode {
            label: "r".into(),
            nanos: 0,
            count: 0,
            children: vec![],
        };
        let text = trace_to_json(&root, &metrics).compact();
        assert!(text.len() >= 4 << 20, "{} bytes", text.len());
        let started = Instant::now();
        let (_, back) = decode_trace(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(back, metrics);
        assert!(took < Duration::from_secs(2), "took {took:?}");
    }

    /// Calls the parser and the trace decoder on `text`. Both must return
    /// rather than panic, and a value the parser accepts must survive
    /// a compact round trip.
    fn check(text: &str) {
        if let Ok(v) = parse(text, 8, "test") {
            parse(&v.compact(), 8, "test").expect("compact output re-parses");
        }
        let _ = decode_trace(text);
    }

    /// Dependency-free fuzzing with a fixed seed, so a failure reproduces
    /// identically: random bytes, random draws from a structure-biased
    /// alphabet, single-byte mutations of a real trace document, and
    /// nesting storms far past both depth caps.
    #[test]
    fn deterministic_fuzz_never_panics() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            // SplitMix64: dependency-free, full-period, well-mixed.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Pure random bytes, lossily decoded as a reader of untrusted
        // input would.
        for _ in 0..2_000 {
            let len = (next() % 256) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            check(&String::from_utf8_lossy(&bytes));
        }
        // Structure-biased lines reach much deeper into the parser and
        // the decoder.
        const ALPHABET: &[&str] = &[
            "{",
            "}",
            "[",
            "]",
            "\"",
            "\\",
            ":",
            ",",
            "\u{0}",
            "op",
            "\"op\"",
            "ping",
            "null",
            "true",
            "-",
            "1e309",
            "0.5",
            "7",
            "\\u0041",
            "\\uZZZZ",
            " ",
            "\"schema\"",
            "\"tnet-trace/v1\"",
            "\"root\"",
            "\"label\"",
            "\"nanos\"",
            "\"count\"",
            "\"children\"",
            "\"metrics\"",
        ];
        for _ in 0..2_000 {
            let parts = (next() % 48) as usize;
            let line: String = (0..parts)
                .map(|_| ALPHABET[(next() as usize) % ALPHABET.len()])
                .collect();
            check(&line);
        }
        // A real trace document with random single-byte edits.
        let seeds = [sample_trace().pretty(), sample_trace().compact(), chain(8)];
        for _ in 0..2_000 {
            let mut bytes = seeds[(next() as usize) % seeds.len()].clone().into_bytes();
            for _ in 0..=(next() % 3) {
                let at = (next() as usize) % bytes.len();
                bytes[at] = (next() & 0xFF) as u8;
            }
            check(&String::from_utf8_lossy(&bytes));
        }
        // Nesting storms must error, never overflow the stack.
        for depth in [9, 64, TRACE_MAX_DEPTH + 1, 1024, 4096] {
            for text in [
                format!("{}1{}", "[".repeat(depth), "]".repeat(depth)),
                format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth)),
            ] {
                assert!(parse(&text, 8, "test").is_err());
                check(&text);
            }
        }
    }
}
