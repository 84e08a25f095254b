//! Rule `serving-index`: no direct indexing (`buf[i]`, `map[&k]`,
//! `s[a..b]`) in serving code outside tests.
//!
//! The serving crates and modules deny `clippy::indexing_slicing` and
//! `clippy::string_slice`, but those lints see only slices, arrays, `Vec`
//! and `str`: the `Index` impls of `VecDeque`, `HashMap` and `BTreeMap`
//! panic just the same and pass both. This rule cannot see types, so it
//! flags every `[` that indexes an expression; the fix is `.get(..)`.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// This rule's name.
pub const RULE: &str = "serving-index";

/// Crates whose root denies the clippy panic lints; the rule covers
/// every file under these `src/` directories.
const SERVING_CRATES: &[&str] = &["crates/engine/src/", "crates/net/src/", "crates/obs/src/"];

/// Modules that carry the same deny as a module attribute.
const SERVING_MODULES: &[&str] = &[
    "crates/storage/src/artifact.rs",
    "crates/storage/src/wal.rs",
    "crates/suffix/src/esa.rs",
];

/// Keywords that may directly precede a `[` that *starts* an expression
/// (array literal or slice pattern) rather than indexing one.
const NON_INDEXABLE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while",
];

/// True if the workspace-relative `path` is serving code.
pub fn is_serving_path(path: &str) -> bool {
    SERVING_CRATES.iter().any(|p| path.starts_with(p)) || SERVING_MODULES.contains(&path)
}

/// Flag every indexing `[` in a serving-path file's non-test code.
pub fn check(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let code = file.code_indices();
    for (k, &ti) in code.iter().enumerate() {
        let tok = &file.tokens[ti];
        if file.in_test[ti] || !tok.is_punct('[') {
            continue;
        }
        // Indexing: a `[` whose previous token ends an expression. `#[`
        // attributes, array literals (`= [`, `([`, `, [`), macro bangs
        // (`vec![`) and type positions (`: [u8; 4]`) are all excluded
        // because their previous token is not expression-ending.
        let indexes_expression = k.checked_sub(1).is_some_and(|p| {
            let p = &file.tokens[code[p]];
            match p.kind {
                TokenKind::Ident => !NON_INDEXABLE_KEYWORDS.contains(&p.text.as_str()),
                TokenKind::Punct => p.is_punct(']') || p.is_punct(')'),
                _ => false,
            }
        });
        if indexes_expression {
            diags.push(Diagnostic::new(
                RULE,
                &file.path,
                tok.line,
                "direct indexing can panic on the serving path; use `.get(..)` and \
                 handle `None`",
            ));
        }
    }
}
