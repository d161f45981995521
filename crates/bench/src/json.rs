//! The one writer behind the `BENCH_*.json` artifacts of `benches/`.
//! There is no serde in this tree: callers render each value (a row is
//! a `format!` string), and the writer owns the framing — one top-level
//! field per line, one array row per line — and the output path.

use std::fmt::Display;

/// A bench artifact under construction: top-level fields in insertion
/// order, each already rendered as JSON.
pub struct BenchJson {
    fields: Vec<(&'static str, String)>,
}

impl BenchJson {
    /// A document whose first field is `"schema": "<schema>"`.
    pub fn new(schema: &str) -> Self {
        let mut doc = Self { fields: Vec::new() };
        doc.string("schema", schema);
        doc
    }

    /// Add `key: value`, with `value` rendered as JSON already (a
    /// number, a boolean, `null` or an object).
    pub fn field(&mut self, key: &'static str, value: impl Display) -> &mut Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Add `key: "value"`.
    pub fn string(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.field(key, format!("\"{value}\""))
    }

    /// Add an array of rendered rows, one per line.
    pub fn rows(&mut self, key: &'static str, rows: impl IntoIterator<Item = String>) -> &mut Self {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
        let body = if rows.is_empty() {
            String::new()
        } else {
            rows.join(",\n") + "\n"
        };
        self.field(key, format!("[\n{body}  ]"))
    }

    /// The document as text.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Write the document to the path in `$out_var`, or else to `name`
    /// at the repository root, and report where on stderr.
    pub fn write(&self, out_var: &str, name: &str) {
        let out = std::env::var(out_var)
            .unwrap_or_else(|_| format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR")));
        std::fs::write(&out, self.render()).unwrap_or_else(|e| panic!("write {out}: {e}"));
        eprintln!("wrote {out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_and_rows_one_per_line() {
        let mut doc = BenchJson::new("bench-x/v1");
        doc.field("quick", true)
            .rows("rows", ["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()])
            .rows("none", Vec::new())
            .field("failed", false);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"bench-x/v1\",\n  \"quick\": true,\n  \"rows\": [\n    \
             {\"a\": 1},\n    {\"a\": 2}\n  ],\n  \"none\": [\n  ],\n  \"failed\": false\n}\n"
        );
    }
}
