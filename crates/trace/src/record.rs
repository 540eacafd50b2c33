//! Finished-span records, field values and their canonical JSON forms.
//!
//! The tracer hands every completed span to a [`crate::sink::Sink`] as a
//! [`SpanRecord`]. Rendering is hand-rolled (this crate takes no
//! dependencies) and *canonical*: the same records always produce the same
//! bytes, which is what makes golden-trace fixtures byte-comparable.

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rendered via shortest round-trip formatting).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    /// Renders the value as a JSON scalar. Non-finite floats (not
    /// representable in JSON) are rendered as quoted strings.
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    // Debug formatting of f64 is shortest-round-trip and
                    // always contains a `.` or exponent: valid JSON.
                    format!("{v:?}")
                } else {
                    format!("\"{v}\"")
                }
            }
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(s) => format!("\"{}\"", escape_json(s)),
        }
    }
}

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// One finished span, as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Tracer-unique span id (sequential from 1).
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Static span name (the span taxonomy lives in DESIGN.md §11).
    pub name: &'static str,
    /// Clock reading at span open.
    pub start_ns: u64,
    /// Clock reading at span close.
    pub end_ns: u64,
    /// Recorded fields, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// One-line canonical JSON object for JSONL sinks.
    pub fn to_json(&self) -> String {
        let parent = match self.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let mut fields = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                fields.push(',');
            }
            fields.push_str(&format!("\"{}\":{}", escape_json(k), v.to_json()));
        }
        fields.push('}');
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"fields\":{}}}",
            self.id,
            parent,
            escape_json(self.name),
            self.start_ns,
            self.end_ns,
            fields
        )
    }
}

/// Renders a batch of span records as a deterministic nested JSON tree
/// (children attached via `parent` links, siblings ordered by id).
///
/// Timing is intentionally omitted — the tree captures *structure* (names,
/// fields, nesting), so it is stable under a real clock and byte-identical
/// under [`crate::MockClock`]. Spans whose parent is absent from the batch
/// are treated as roots (this happens when a ring-buffer sink evicted the
/// parent).
pub fn render_tree(records: &[SpanRecord]) -> String {
    let mut by_id: Vec<&SpanRecord> = records.iter().collect();
    by_id.sort_by_key(|r| r.id);
    let present: std::collections::BTreeSet<u64> = by_id.iter().map(|r| r.id).collect();
    let mut children: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in &by_id {
        match r.parent {
            Some(p) if present.contains(&p) => children.entry(p).or_default().push(r),
            _ => roots.push(r),
        }
    }

    fn render_node(
        r: &SpanRecord,
        children: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
        indent: usize,
        out: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        out.push_str(&format!("{pad}{{\n"));
        out.push_str(&format!("{pad}  \"name\": \"{}\",\n", escape_json(r.name)));
        out.push_str(&format!("{pad}  \"fields\": {{"));
        for (i, (k, v)) in r.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", escape_json(k), v.to_json()));
        }
        out.push_str("},\n");
        out.push_str(&format!("{pad}  \"children\": ["));
        let kids = children.get(&r.id);
        match kids {
            Some(kids) if !kids.is_empty() => {
                out.push('\n');
                for (i, kid) in kids.iter().enumerate() {
                    render_node(kid, children, indent + 2, out);
                    if i + 1 < kids.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&format!("{pad}  ]\n"));
            }
            _ => out.push_str("]\n"),
        }
        out.push_str(&format!("{pad}}}"));
    }

    let mut out = String::from("[\n");
    for (i, r) in roots.iter().enumerate() {
        render_node(r, &children, 1, &mut out);
        if i + 1 < roots.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            fields: Vec::new(),
        }
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn field_values_render_as_json_scalars() {
        assert_eq!(FieldValue::from(3u64).to_json(), "3");
        assert_eq!(FieldValue::from(-2i64).to_json(), "-2");
        assert_eq!(FieldValue::from(true).to_json(), "true");
        assert_eq!(FieldValue::from(1.5f64).to_json(), "1.5");
        assert_eq!(FieldValue::from(1.0f64).to_json(), "1.0");
        assert_eq!(FieldValue::from(f64::NAN).to_json(), "\"NaN\"");
        assert_eq!(FieldValue::from("a\"b").to_json(), "\"a\\\"b\"");
    }

    #[test]
    fn span_record_json_is_one_line_and_stable() {
        let mut r = rec(2, Some(1), "detect.frame");
        r.start_ns = 10;
        r.end_ns = 25;
        r.fields.push(("provenance", FieldValue::from("cached")));
        let json = r.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(
            json,
            "{\"id\":2,\"parent\":1,\"name\":\"detect.frame\",\"start_ns\":10,\
             \"end_ns\":25,\"fields\":{\"provenance\":\"cached\"}}"
        );
    }

    #[test]
    fn tree_nests_children_under_parents_in_id_order() {
        let records = vec![
            rec(3, Some(1), "b"),
            rec(1, None, "root"),
            rec(2, Some(1), "a"),
            rec(4, Some(99), "orphan"), // evicted parent => treated as root
        ];
        let tree = render_tree(&records);
        let root_pos = tree.find("\"root\"").unwrap();
        let a_pos = tree.find("\"a\"").unwrap();
        let b_pos = tree.find("\"b\"").unwrap();
        let orphan_pos = tree.find("\"orphan\"").unwrap();
        assert!(root_pos < a_pos && a_pos < b_pos && b_pos < orphan_pos);
        // Rendering twice is byte-identical.
        assert_eq!(tree, render_tree(&records));
    }
}
