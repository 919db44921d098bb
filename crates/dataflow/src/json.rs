//! The suite's one JSON writer.
//!
//! Every report the workspace emits — serving, cluster, training, runtime
//! counters, the Chrome trace, `list --json`, the `BENCH_*.json`
//! ablations — is built as a [`Json`] tree and rendered here, so the
//! rules that keep an artifact loadable hold by construction instead of
//! per call site:
//!
//! * strings (keys and values) go through one escaper;
//! * a non-finite float, or an absent `Option`, is `null` — JSON has no
//!   `NaN`/`Infinity` token, and one poisoned sample should cost one
//!   field, not the file;
//! * a block that is all defaults is left out by
//!   [`Json::with_nondefault`], so reports of runs that never exercise a
//!   subsystem do not change when it grows a counter.
//!
//! Layout is a function of the tree's shape, never of the call site: the
//! root container of a document, and any array whose elements are
//! objects, put one element per line at a two-space indent (a member of
//! an inline object that holds such an array starts its own line); every
//! other container is inline. [`Json::render_compact`] drops all
//! whitespace. There is no reader here: `benchmark/src/json.rs` parses,
//! `tests/reports_json.rs` validates.

use std::fmt::Write as _;

/// A JSON value. Build objects with [`Json::obj`] and [`Json::with`],
/// numbers through `From` (integers, shortest round-trip floats) or
/// [`Json::fixed`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A counter, printed exactly (no report carries a negative integer).
    Int(u128),
    /// A finite float, already formatted by [`Json::fixed`] or
    /// `From<f32 | f64>` — the only constructors, which is what keeps
    /// `NaN` out of the text.
    Num(String),
    /// A string, escaped on rendering.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An array of anything convertible.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A float with exactly `precision` decimals (the text of
    /// `format!("{value:.precision$}")`), `null` when non-finite.
    pub fn fixed(value: f64, precision: usize) -> Json {
        Json::from(value.is_finite().then(|| Json::Num(format!("{value:.precision$}"))))
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// When `self` is not an object — a bug at the call site.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(members) = &mut self else { panic!("Json::with on a non-object") };
        members.push((key.to_string(), value.into()));
        self
    }

    /// Appends a member unless `value` is its type's default: the
    /// emit-only-when-non-zero rule of the `shed_reasons`, `recovery`,
    /// `runtime`, `parks` and `inline_ops` blocks.
    pub fn with_nondefault<T: Default + PartialEq + Into<Json>>(self, key: &str, value: T) -> Json {
        if value == T::default() { self } else { self.with(key, value) }
    }

    /// Renders a document: the root container broken one member per
    /// line, newline-terminated.
    pub fn render(&self) -> String {
        self.rendered(true, true) + "\n"
    }

    /// Renders the value as it appears nested inside a document: the
    /// same spacing, no root break, no trailing newline.
    pub fn render_nested(&self) -> String {
        self.rendered(true, false)
    }

    /// Renders without any whitespace outside strings.
    pub fn render_compact(&self) -> String {
        self.rendered(false, false)
    }

    fn rendered(&self, pretty: bool, root: bool) -> String {
        let mut out = String::new();
        self.write(&mut out, pretty, 0, root);
        out
    }

    /// Whether the value spans lines wherever it sits.
    fn breaks(&self) -> bool {
        matches!(self, Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))))
    }

    fn write(&self, out: &mut String, pretty: bool, indent: usize, root: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                let members = items.iter().map(|v| (None, v));
                container(out, ['[', ']'], members, pretty, indent, root || self.breaks());
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                container(out, ['{', '}'], members, pretty, indent, root);
            }
        }
    }
}

/// Writes one array or object whose own line starts at `indent`.
fn container<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    pretty: bool,
    indent: usize,
    broken: bool,
) {
    let broken = broken && members.len() > 0;
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if pretty && (broken || value.breaks()) {
            let _ = write!(out, "\n{:1$}", "", indent + 2);
        } else if pretty && i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            escape(key, out);
            out.push_str(if pretty { ": " } else { ":" });
        }
        value.write(out, pretty, indent + 2, false);
    }
    if pretty && broken {
        let _ = write!(out, "\n{:indent$}", "");
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal: quote, backslash and every
/// control character escaped, everything else (non-BMP included) as is.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

// Floats take the shortest text that round-trips, `null` when non-finite.
from! {
    bool => |v| Json::Bool(v),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as u128),
    u128 => |v| Json::Int(v),
    f32 => |v| Json::from(v.is_finite().then(|| Json::Num(v.to_string()))),
    f64 => |v| Json::from(v.is_finite().then(|| Json::Num(v.to_string()))),
    &str => |v| Json::Str(v.to_string()),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        Json::from(s).render_compact()
    }

    #[test]
    fn escape_table() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(string("\u{1}\r\u{7f}"), "\"\\u0001\\u000d\\u007f\"");
        // Outside the control ranges nothing is rewritten, non-BMP included.
        assert_eq!(string("é 🦀"), "\"é 🦀\"");
        // Keys take the same path as values.
        assert_eq!(Json::obj().with("k\"\n", 1u64).render_compact(), "{\"k\\\"\\n\":1}");
    }

    #[test]
    fn non_finite_and_absent_numbers_are_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(bad), Json::Null);
            assert_eq!(Json::from(bad as f32), Json::Null);
            assert_eq!(Json::from(Some(bad as f32)), Json::Null);
            assert_eq!(Json::fixed(bad, 3), Json::Null);
        }
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(Json::from(None::<f32>).render_compact(), "null");
    }

    #[test]
    fn fixed_precision_is_the_format_macro_and_shortest_is_display() {
        let grid = [0.0, -0.0, 1.0, 0.12349, 0.0005, 2.5, 250.0, 1e-9, 123456.789, -7.125, 1e21];
        for v in grid {
            for prec in 0..=5usize {
                assert_eq!(Json::fixed(v, prec), Json::Num(format!("{v:.prec$}")), "{v} at {prec}");
            }
            assert_eq!(Json::from(v), Json::Num(format!("{v}")));
            assert_eq!(Json::from(v as f32), Json::Num(format!("{}", v as f32)));
            // An f32 widened to f64 keeps its fixed-precision text.
            assert_eq!(Json::fixed(f64::from(v as f32), 3), Json::Num(format!("{:.3}", v as f32)));
        }
        assert_eq!(Json::from(0.1f32).render_compact(), "0.1");
        assert_eq!(Json::from(u128::MAX).render_compact(), u128::MAX.to_string());
    }

    #[test]
    fn default_valued_members_are_omitted() {
        let doc = Json::obj()
            .with("kept", 0u64)
            .with_nondefault("zero", 0u64)
            .with_nondefault("seven", 7u64)
            .with_nondefault("off", false);
        assert_eq!(doc.render_nested(), "{\"kept\": 0, \"seven\": 7}");
    }

    #[test]
    fn empty_containers_never_break() {
        for empty in [Json::obj(), Json::arr(Vec::<Json>::new())] {
            let text = empty.render_compact();
            assert_eq!(empty.render_nested(), text);
            assert_eq!(empty.render(), format!("{text}\n"));
        }
        assert_eq!(Json::obj().with("a", Json::obj()).with("b", Json::arr([0u64; 0])).render(), "{\n  \"a\": {},\n  \"b\": []\n}\n");
    }

    #[test]
    fn layout_follows_the_shape_of_the_tree() {
        let row = |n: u64| Json::obj().with("n", n).with("xs", Json::arr([1u64, 2]));
        let doc = Json::obj()
            .with("name", "x")
            .with("inline", Json::obj().with("a", true).with("b", Json::Null))
            .with("rows", Json::arr([row(1).with("sub", Json::arr([row(3)])), row(2)]));
        let pretty = "{\n  \"name\": \"x\",\n  \"inline\": {\"a\": true, \"b\": null},\n  \"rows\": [\n    \
                      {\"n\": 1, \"xs\": [1, 2],\n      \"sub\": [\n        {\"n\": 3, \"xs\": [1, 2]}\n      ]},\n    \
                      {\"n\": 2, \"xs\": [1, 2]}\n  ]\n}\n";
        assert_eq!(doc.render(), pretty);
        let compact = "{\"name\":\"x\",\"inline\":{\"a\":true,\"b\":null},\"rows\":[\
                       {\"n\":1,\"xs\":[1,2],\"sub\":[{\"n\":3,\"xs\":[1,2]}]},{\"n\":2,\"xs\":[1,2]}]}";
        assert_eq!(doc.render_compact(), compact);
        // The two modes differ in whitespace outside strings only.
        assert_eq!(pretty.split_whitespace().collect::<String>(), compact);
        // A root array of objects is `list --json`'s shape.
        assert_eq!(Json::arr([row(1)]).render(), "[\n  {\"n\": 1, \"xs\": [1, 2]}\n]\n");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_a_non_object_is_a_bug() {
        let _ = Json::Null.with("k", 1u64);
    }
}
