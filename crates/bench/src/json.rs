//! Tiny hand-rolled JSON emission helpers.
//!
//! The build environment is offline, so the harness serialises its small,
//! fixed-shape result records by hand instead of pulling in serde. Only
//! what the result files need: string escaping, round-trippable `f64`
//! formatting, and an object/array writer with serde_json-compatible
//! 2-space pretty indentation.

/// Schema version stamped into every `BENCH_*.json` record. Bump when a
/// bench record's shape changes incompatibly, so downstream trend tooling
/// can detect mixed histories.
pub const BENCH_SCHEMA_VERSION: f64 = 1.0;

/// Short git revision of the checkout producing the record, suffixed
/// `-dirty` when the work tree has uncommitted changes, or `"unknown"`
/// outside a git work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--exclude=*"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The cargo profile the bench binary was built under.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Opens the root object of a `BENCH_*.json` record with the shared
/// provenance header every bench bin stamps: bench name, schema version,
/// git revision, and build profile. Append the record body, then hand the
/// writer to [`write_bench`].
pub fn bench_writer(bench: &str) -> Writer {
    let mut w = Writer::new();
    w.open_object(None);
    w.string(Some("bench"), bench);
    w.number(Some("schema_version"), BENCH_SCHEMA_VERSION);
    w.string(Some("git_rev"), &git_rev());
    w.string(Some("build_profile"), build_profile());
    w
}

/// Closes the root object opened by [`bench_writer`] and writes the
/// newline-terminated record to `path`.
pub fn write_bench(mut w: Writer, path: &str) {
    w.close();
    let doc = w.finish();
    std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
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

/// Formats an `f64` as a JSON number. Rust's `{:?}` is the shortest
/// round-trip form (matching what serde_json's ryu emits for the common
/// cases); non-finite values have no JSON representation and become
/// `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// An incremental pretty-printed JSON writer for the fixed shapes the
/// harness emits. Values are appended pre-rendered; the writer only
/// manages structure, commas, and indentation.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    // (is_object, has_entries) for each open scope.
    stack: Vec<(bool, bool)>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn indent(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    fn begin_entry(&mut self) {
        if let Some((_, has)) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            self.out.push('\n');
        }
        self.indent();
    }

    /// Opens the root object or a nested one (after `key` inside objects,
    /// with `key` = None inside arrays / at the root).
    pub fn open_object(&mut self, key: Option<&str>) -> &mut Self {
        self.begin_entry();
        if let Some(k) = key {
            self.out.push_str(&format!("\"{}\": ", escape(k)));
        }
        self.out.push('{');
        self.stack.push((true, false));
        self
    }

    /// Opens an array.
    pub fn open_array(&mut self, key: Option<&str>) -> &mut Self {
        self.begin_entry();
        if let Some(k) = key {
            self.out.push_str(&format!("\"{}\": ", escape(k)));
        }
        self.out.push('[');
        self.stack.push((false, false));
        self
    }

    /// Closes the innermost object/array.
    pub fn close(&mut self) -> &mut Self {
        let (is_object, has) = self.stack.pop().expect("close without open");
        if has {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(if is_object { '}' } else { ']' });
        self
    }

    /// Writes a pre-rendered value (`"quoted string"`, number, …).
    pub fn value(&mut self, key: Option<&str>, rendered: &str) -> &mut Self {
        self.begin_entry();
        if let Some(k) = key {
            self.out.push_str(&format!("\"{}\": ", escape(k)));
        }
        self.out.push_str(rendered);
        self
    }

    /// A string value.
    pub fn string(&mut self, key: Option<&str>, s: &str) -> &mut Self {
        let rendered = format!("\"{}\"", escape(s));
        self.value(key, &rendered)
    }

    /// An `f64` value.
    pub fn number(&mut self, key: Option<&str>, v: f64) -> &mut Self {
        let rendered = number(v);
        self.value(key, &rendered)
    }

    /// A boolean value.
    pub fn boolean(&mut self, key: Option<&str>, v: bool) -> &mut Self {
        self.value(key, if v { "true" } else { "false" })
    }

    /// The accumulated document.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON scope");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn bench_writer_stamps_provenance() {
        let mut w = bench_writer("test");
        w.number(Some("x"), 1.0);
        w.close();
        let doc = w.finish();
        assert!(doc.starts_with("{\n  \"bench\": \"test\",\n  \"schema_version\": 1.0,"));
        assert!(doc.contains("\"git_rev\": \""));
        assert!(doc.contains(&format!("\"build_profile\": \"{}\"", build_profile())));
        assert!(doc.contains("\"x\": 1.0"));
    }

    #[test]
    fn writer_produces_pretty_object() {
        let mut w = Writer::new();
        w.open_object(None);
        w.string(Some("name"), "x");
        w.open_array(Some("vals"));
        w.number(None, 1.0);
        w.number(None, 2.5);
        w.close();
        w.open_array(Some("empty"));
        w.close();
        w.close();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\n  \"name\": \"x\",\n  \"vals\": [\n    1.0,\n    2.5\n  ],\n  \"empty\": []\n}"
        );
    }
}
