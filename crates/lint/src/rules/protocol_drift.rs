//! Rule `protocol-drift`: `docs/PROTOCOL.md` is the normative wire spec;
//! `crates/net/src/frame.rs` implements it. This rule parses the frame
//! catalogue and error-code tables out of the document and cross-checks
//! them against the `TY_*` tag constants, the `ErrorCode` conversion
//! match arms, and `PROTOCOL_VERSION` — in both directions, so neither
//! side can gain, lose, or renumber an entry without the other.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::lexer::{int_value, Token, TokenKind};
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// This rule's name.
pub const RULE: &str = "protocol-drift";

const DOC_SUFFIX: &str = "docs/PROTOCOL.md";
const WIRE_SUFFIX: &str = "crates/net/src/frame.rs";

/// One table row or code-side entry: a number and a normalized name.
#[derive(Debug, Clone)]
struct Entry {
    line: u32,
    num: u64,
    name: String,
    /// Display name as written in its source.
    shown: String,
}

/// Cross-check the protocol document against the wire module.
pub fn check(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let doc = ws
        .docs
        .iter()
        .find(|(p, _)| p == DOC_SUFFIX || p.ends_with(DOC_SUFFIX));
    let wire = ws
        .files
        .iter()
        .find(|f| f.path == WIRE_SUFFIX || f.path.ends_with(WIRE_SUFFIX));
    let (doc, wire) = match (doc, wire) {
        (Some(d), Some(w)) => (d, w),
        (None, Some(w)) => {
            diags.push(Diagnostic::new(
                RULE,
                &w.path,
                1,
                format!(
                    "`{WIRE_SUFFIX}` is present but the normative spec `{DOC_SUFFIX}` is missing"
                ),
            ));
            return;
        }
        (Some((p, _)), None) => {
            diags.push(Diagnostic::new(
                RULE,
                p,
                1,
                format!("`{DOC_SUFFIX}` is present but the wire module `{WIRE_SUFFIX}` is missing"),
            ));
            return;
        }
        (None, None) => return,
    };
    let (doc_path, doc_text) = doc;

    let (doc_frames, doc_errors, doc_version) = parse_doc(doc_text);
    if doc_frames.is_empty() {
        diags.push(Diagnostic::new(
            RULE,
            doc_path,
            1,
            "no frame rows found under the `Frame catalogue` heading",
        ));
    }
    if doc_errors.is_empty() {
        diags.push(Diagnostic::new(
            RULE,
            doc_path,
            1,
            "no error rows found under the `Error codes` heading",
        ));
    }

    let code = wire.code_indices();
    let ty_consts = tag_constants(wire, &code);
    let to_arms = error_arms_to(wire, &code);
    let from_arms = error_arms_from(wire, &code);
    let code_version = const_value(wire, &code, "PROTOCOL_VERSION");

    cross_check(
        diags,
        "frame",
        doc_path,
        &doc_frames,
        &wire.path,
        &ty_consts,
    );
    cross_check(
        diags,
        "error code",
        doc_path,
        &doc_errors,
        &wire.path,
        &to_arms,
    );

    // `from_u16` must be the exact inverse of `to_u16`.
    let to_pairs: BTreeMap<u64, &str> = to_arms.iter().map(|e| (e.num, e.name.as_str())).collect();
    let from_pairs: BTreeMap<u64, &str> =
        from_arms.iter().map(|e| (e.num, e.name.as_str())).collect();
    if !from_arms.is_empty() && to_pairs != from_pairs {
        let line = from_arms.first().map(|e| e.line).unwrap_or(1);
        diags.push(Diagnostic::new(
            RULE,
            &wire.path,
            line,
            "`ErrorCode::from_u16` is not the inverse of `to_u16`: the match arms disagree",
        ));
    }
    if from_arms.is_empty() {
        diags.push(Diagnostic::new(
            RULE,
            &wire.path,
            1,
            "could not find `fn from_u16` match arms mapping numbers back to `ErrorCode`",
        ));
    }

    // Every tag constant must appear beyond its definition — once in the
    // encode direction (`type_byte`) and once in the decode match.
    for e in &ty_consts {
        let uses = code
            .iter()
            .filter(|&&ti| !wire.in_test[ti] && wire.tokens[ti].is_ident(&e.shown))
            .count();
        if uses < 3 {
            diags.push(Diagnostic::new(
                RULE,
                &wire.path,
                e.line,
                format!(
                    "tag constant `{}` is referenced {} time(s); it must appear in \
                     both the encode (`type_byte`) and decode match arms",
                    e.shown,
                    uses.saturating_sub(1)
                ),
            ));
        }
    }

    // The document's `(version N)` title must match `PROTOCOL_VERSION`.
    match (doc_version, code_version) {
        (Some((dl, dv)), Some((_, cv))) if dv != cv => {
            diags.push(Diagnostic::new(
                RULE,
                doc_path,
                dl,
                format!("document says protocol version {dv} but `PROTOCOL_VERSION` is {cv}"),
            ));
        }
        (None, _) => diags.push(Diagnostic::new(
            RULE,
            doc_path,
            1,
            "document title carries no `(version N)` marker to check against `PROTOCOL_VERSION`",
        )),
        (_, None) => diags.push(Diagnostic::new(
            RULE,
            &wire.path,
            1,
            "could not find a literal `PROTOCOL_VERSION` constant",
        )),
        _ => {}
    }
}

/// Compare doc rows against code entries by normalized name, both ways.
fn cross_check(
    diags: &mut Vec<Diagnostic>,
    what: &str,
    doc_path: &str,
    doc: &[Entry],
    wire_path: &str,
    code: &[Entry],
) {
    for d in doc {
        match code.iter().find(|c| c.name == d.name) {
            None => diags.push(Diagnostic::new(
                RULE,
                doc_path,
                d.line,
                format!(
                    "{what} `{}` ({}) is documented but not implemented in `{wire_path}`",
                    d.shown, d.num
                ),
            )),
            Some(c) if c.num != d.num => diags.push(Diagnostic::new(
                RULE,
                doc_path,
                d.line,
                format!(
                    "{what} `{}` is {} in the document but `{}` = {} in `{wire_path}`",
                    d.shown, d.num, c.shown, c.num
                ),
            )),
            Some(_) => {}
        }
    }
    for c in code {
        if !doc.iter().any(|d| d.name == c.name) {
            diags.push(Diagnostic::new(
                RULE,
                wire_path,
                c.line,
                format!(
                    "{what} `{}` ({}) is implemented but undocumented in `{doc_path}`",
                    c.shown, c.num
                ),
            ));
        }
    }
    // Duplicate numbers on either side are drift even when names align.
    for side in [doc, code] {
        let mut seen: BTreeMap<u64, &Entry> = BTreeMap::new();
        for e in side {
            if let Some(first) = seen.get(&e.num) {
                diags.push(Diagnostic::new(
                    RULE,
                    if std::ptr::eq(side, doc) {
                        doc_path
                    } else {
                        wire_path
                    },
                    e.line,
                    format!(
                        "{what} number {} is assigned to both `{}` and `{}`",
                        e.num, first.shown, e.shown
                    ),
                ));
            } else {
                seen.insert(e.num, e);
            }
        }
    }
}

/// Lowercase, underscore-free name used to match `TY_METRICS_REQUEST`
/// against `MetricsRequest`.
fn normalize(name: &str) -> String {
    let base = name.strip_prefix("TY_").unwrap_or(name);
    base.chars()
        .filter(|c| *c != '_')
        .flat_map(char::to_lowercase)
        .collect()
}

/// Parse the document: frame rows, error rows, `(version N)` title.
#[allow(
    clippy::type_complexity,
    reason = "one call site; splitting the triple adds nothing"
)]
fn parse_doc(text: &str) -> (Vec<Entry>, Vec<Entry>, Option<(u32, u64)>) {
    #[derive(PartialEq)]
    enum Section {
        Frames,
        Errors,
        Other,
    }
    let mut section = Section::Other;
    let mut frames = Vec::new();
    let mut errors = Vec::new();
    let mut version = None;
    for (i, raw) in text.lines().enumerate() {
        let line = (i + 1) as u32;
        let l = raw.trim();
        if l.starts_with('#') {
            let h = l.to_lowercase();
            section = if h.contains("frame catalogue") || h.contains("frame catalog") {
                Section::Frames
            } else if h.contains("error codes") {
                Section::Errors
            } else {
                Section::Other
            };
            if version.is_none() {
                if let Some(at) = l.find("(version ") {
                    let tail = &l[at + "(version ".len()..];
                    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
                    if let Ok(v) = digits.parse() {
                        version = Some((line, v));
                    }
                }
            }
            continue;
        }
        if section == Section::Other || !l.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = l.split('|').map(str::trim).collect();
        // `| 1 | Hello | … |` splits into ["", "1", "Hello", …].
        if cells.len() < 3 {
            continue;
        }
        let Ok(num) = cells[1].parse::<u64>() else {
            continue; // header or separator row
        };
        let shown = cells[2].to_string();
        if shown.is_empty() || !shown.chars().all(|c| c.is_ascii_alphanumeric()) {
            continue;
        }
        let entry = Entry {
            line,
            num,
            name: normalize(&shown),
            shown,
        };
        match section {
            Section::Frames => frames.push(entry),
            Section::Errors => errors.push(entry),
            Section::Other => {}
        }
    }
    (frames, errors, version)
}

/// All `const TY_*: u8 = N;` declarations.
fn tag_constants(file: &SourceFile, code: &[usize]) -> Vec<Entry> {
    let mut out = Vec::new();
    for k in 0..code.len() {
        let t = &file.tokens[code[k]];
        if !t.is_ident("const") || file.in_test[code[k]] {
            continue;
        }
        let Some(&name_ti) = code.get(k + 1) else {
            continue;
        };
        let name = &file.tokens[name_ti];
        if name.kind != TokenKind::Ident || !name.text.starts_with("TY_") {
            continue;
        }
        // const TY_X : u8 = N ;
        if let Some(num) = (k + 2..(k + 8).min(code.len()))
            .map(|i| &file.tokens[code[i]])
            .find(|t| t.kind == TokenKind::Number)
            .and_then(|t| int_value(&t.text))
        {
            out.push(Entry {
                line: name.line,
                num,
                name: normalize(&name.text),
                shown: name.text.clone(),
            });
        }
    }
    out
}

/// The code-token range of the body of `fn name`, if present.
fn fn_body(file: &SourceFile, code: &[usize], name: &str) -> Option<std::ops::Range<usize>> {
    for k in 0..code.len() {
        if !file.tokens[code[k]].is_ident("fn")
            || !code
                .get(k + 1)
                .is_some_and(|&n| file.tokens[n].is_ident(name))
        {
            continue;
        }
        let mut depth = 0i32;
        for (i, &ti) in code.iter().enumerate().skip(k + 2) {
            let t = &file.tokens[ti];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 2..i);
                }
            }
        }
        return Some(k + 2..code.len());
    }
    None
}

/// `ErrorCode::Name => N` arms inside `fn to_u16`.
fn error_arms_to(file: &SourceFile, code: &[usize]) -> Vec<Entry> {
    let Some(body) = fn_body(file, code, "to_u16") else {
        return Vec::new();
    };
    let tok = |i: usize| -> &Token { &file.tokens[code[i]] };
    let mut out = Vec::new();
    for i in body.clone() {
        if !tok(i).is_ident("ErrorCode") {
            continue;
        }
        // ErrorCode :: Name => N
        if i + 5 < body.end
            && tok(i + 1).is_punct(':')
            && tok(i + 2).is_punct(':')
            && tok(i + 3).kind == TokenKind::Ident
            && tok(i + 4).is_punct('=')
            && tok(i + 5).is_punct('>')
        {
            if let Some(num) = code
                .get(i + 6)
                .map(|&t| &file.tokens[t])
                .filter(|t| t.kind == TokenKind::Number)
                .and_then(|t| int_value(&t.text))
            {
                let shown = tok(i + 3).text.clone();
                out.push(Entry {
                    line: tok(i + 3).line,
                    num,
                    name: normalize(&shown),
                    shown,
                });
            }
        }
    }
    out
}

/// `N => … ErrorCode::Name …` arms inside `fn from_u16`.
fn error_arms_from(file: &SourceFile, code: &[usize]) -> Vec<Entry> {
    let Some(body) = fn_body(file, code, "from_u16") else {
        return Vec::new();
    };
    let tok = |i: usize| -> &Token { &file.tokens[code[i]] };
    let mut out = Vec::new();
    for i in body.clone() {
        if tok(i).kind != TokenKind::Number {
            continue;
        }
        let Some(num) = int_value(&tok(i).text) else {
            continue;
        };
        if !(i + 2 < body.end && tok(i + 1).is_punct('=') && tok(i + 2).is_punct('>')) {
            continue;
        }
        // Scan the arm (to the next `,` at this nesting) for ErrorCode::Name.
        let mut j = i + 3;
        let mut nest = 0i32;
        while j < body.end {
            let t = tok(j);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                nest += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if nest == 0 {
                    break;
                }
                nest -= 1;
            } else if nest == 0 && t.is_punct(',') {
                break;
            } else if t.is_ident("ErrorCode")
                && j + 3 < body.end
                && tok(j + 1).is_punct(':')
                && tok(j + 2).is_punct(':')
                && tok(j + 3).kind == TokenKind::Ident
            {
                let shown = tok(j + 3).text.clone();
                out.push(Entry {
                    line: tok(i).line,
                    num,
                    name: normalize(&shown),
                    shown,
                });
                break;
            }
            j += 1;
        }
    }
    out
}

/// The literal value of `const NAME … = N`, with its line.
fn const_value(file: &SourceFile, code: &[usize], name: &str) -> Option<(u32, u64)> {
    for k in 0..code.len() {
        if !file.tokens[code[k]].is_ident("const")
            || !code
                .get(k + 1)
                .is_some_and(|&n| file.tokens[n].is_ident(name))
        {
            continue;
        }
        let line = file.tokens[code[k + 1]].line;
        return (k + 2..(k + 9).min(code.len()))
            .map(|i| &file.tokens[code[i]])
            .find(|t| t.kind == TokenKind::Number)
            .and_then(|t| int_value(&t.text))
            .map(|v| (line, v));
    }
    None
}
