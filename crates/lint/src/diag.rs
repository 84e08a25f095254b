//! Diagnostics: the `file:line: [rule] message` records every rule emits,
//! with human and machine (`--json`) renderings.

use std::fmt;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (a name from [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Sort diagnostics into the stable reporting order: by file, then line,
/// then rule name.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

fn escape_json(s: &str, out: &mut String) {
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
}

/// Render diagnostics as a JSON array (machine output for `--json`):
/// `[{"rule": …, "file": …, "line": …, "message": …}, …]`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\": \"");
        escape_json(d.rule, &mut out);
        out.push_str("\", \"file\": \"");
        escape_json(&d.file, &mut out);
        out.push_str("\", \"line\": ");
        out.push_str(&d.line.to_string());
        out.push_str(", \"message\": \"");
        escape_json(&d.message, &mut out);
        out.push_str("\"}");
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        let diags = vec![Diagnostic::new("r", "a\"b.rs", 3, "say \\ \"hi\"\n")];
        let json = render_json(&diags);
        assert!(json.contains(r#""file": "a\"b.rs""#));
        assert!(json.contains(r#"\\ \"hi\"\n"#));
    }

    #[test]
    fn sorted_order() {
        let mut diags = vec![
            Diagnostic::new("b", "z.rs", 1, "m"),
            Diagnostic::new("a", "a.rs", 9, "m"),
            Diagnostic::new("a", "a.rs", 2, "m"),
        ];
        sort(&mut diags);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[2].file, "z.rs");
    }
}
