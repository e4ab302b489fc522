//! Machine-readable lint report — hand-rolled JSON, same offline spirit
//! as the lexer (the analyzer must not pull the vendored serde shim into
//! a second build graph).

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id, e.g. `R2a/assert`.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// The full result of one workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace root the paths are relative to.
    pub root: String,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    /// Analyzer-side failures (unreadable files, bad roots) — these are
    /// *not* lint findings and map to a distinct exit code.
    pub internal_errors: Vec<String>,
}

impl Report {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                    json_str(&v.rule),
                    json_str(&v.file),
                    v.line,
                    json_str(&v.message)
                )
            })
            .collect();
        let internal_errors: Vec<String> =
            self.internal_errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\n  \"tool\": \"ftpm-analyzer\",\n  \"root\": {},\n  \
             \"files_scanned\": {},\n  \"violation_count\": {},\n  \
             \"internal_error_count\": {},\n  \"violations\": [{}],\n  \
             \"internal_errors\": [{}]\n}}\n",
            json_str(&self.root),
            self.files_scanned,
            self.violations.len(),
            self.internal_errors.len(),
            json_array_body(&violations),
            json_array_body(&internal_errors),
        )
    }
}

/// The inside of a JSON array, one element per indented line; empty for
/// no elements, so `[]` stays on one line.
fn json_array_body(items: &[String]) -> String {
    if items.is_empty() {
        return String::new();
    }
    format!("\n    {}\n  ", items.join(",\n    "))
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let mut r = Report {
            root: "/tmp/ws".into(),
            files_scanned: 2,
            ..Report::default()
        };
        r.violations.push(Violation {
            rule: "R2a/assert".into(),
            file: "crates/core/src/x.rs".into(),
            line: 7,
            message: "a \"quoted\"\nmessage\u{1}".into(),
        });
        r.internal_errors.push("crates/core/src/bad.rs: not UTF-8".into());
        let j = r.to_json();
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\"internal_error_count\": 1"));
        assert!(j.contains("\\\"quoted\\\"\\nmessage\\u0001"));
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"crates/core/src/bad.rs: not UTF-8\""));
        // Empty arrays stay well-formed.
        let empty = Report::default().to_json();
        assert!(empty.contains("\"violations\": []"));
        assert!(empty.contains("\"internal_errors\": []"));
        // The retired suppression audit left no sections behind.
        assert!(!j.contains("warning") && !j.contains("allows"));
    }
}
