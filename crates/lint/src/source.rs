//! A lexed source file plus the per-file analysis every rule needs:
//! which tokens live inside test code.

use crate::lexer::{lex, Token};

/// One lexed, analysed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The raw text (rules that read line content use this).
    pub text: String,
    /// The token stream, comments included.
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: true for tokens inside `#[cfg(test)]` or
    /// `#[test]` items, which the rules skip.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Lex and analyse `text` as the file at `path`.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into().replace('\\', "/");
        let text = text.into();
        let tokens = lex(&text);
        let in_test = mark_test_regions(&tokens);
        SourceFile {
            path,
            text,
            tokens,
            in_test,
        }
    }

    /// Indices of the non-comment tokens, in order. Most rules walk this
    /// so that comments never split a syntactic pattern.
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| !self.tokens[i].is_comment())
            .collect()
    }
}

/// Mark every token that belongs to a `#[test]` function or a
/// `#[cfg(test)]` item (typically `mod tests { … }`). Detection is
/// attribute-driven: on a test attribute, the following item — through
/// any further attributes, to its closing `;` or matching `}` — is
/// marked. `#[cfg(not(test))]` and other cfg shapes are *not* treated as
/// test code.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut k = 0usize;
    while k < code.len() {
        if let Some((attr_end, is_test)) = parse_attribute(tokens, &code, k) {
            if is_test {
                let item_end = find_item_end(tokens, &code, attr_end);
                // Mark from the opening `#` through the end of the item,
                // comments in between included.
                let from = code[k];
                let to = code.get(item_end.min(code.len() - 1)).copied().unwrap_or(0);
                for flag in in_test.iter_mut().take(to + 1).skip(from) {
                    *flag = true;
                }
                k = item_end + 1;
                continue;
            }
            k = attr_end;
            continue;
        }
        k += 1;
    }
    in_test
}

/// If `code[k]` opens an attribute (`#[...]` or `#![...]`), return the
/// code index just past its `]` and whether it is `#[test]`/`#[cfg(test)]`.
fn parse_attribute(tokens: &[Token], code: &[usize], k: usize) -> Option<(usize, bool)> {
    let tok = |i: usize| -> Option<&Token> { code.get(i).map(|&t| &tokens[t]) };
    if !tok(k)?.is_punct('#') {
        return None;
    }
    let mut j = k + 1;
    if tok(j)?.is_punct('!') {
        j += 1;
    }
    if !tok(j)?.is_punct('[') {
        return None;
    }
    let open = j;
    let mut depth = 0i32;
    let mut end = open;
    for i in open..code.len() {
        match &tokens[code[i]] {
            t if t.is_punct('[') => depth += 1,
            t if t.is_punct(']') => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            _ => {}
        }
        if i + 1 == code.len() {
            end = i;
        }
    }
    // Inner tokens, brackets excluded.
    let inner: Vec<&Token> = (open + 1..end).filter_map(tok).collect();
    let is_test = match inner.as_slice() {
        [t] => t.is_ident("test"),
        [c, p, t, q] => {
            c.is_ident("cfg") && p.is_punct('(') && t.is_ident("test") && q.is_punct(')')
        }
        _ => false,
    };
    Some((end + 1, is_test))
}

/// From code index `k` (just past an attribute), skip further attributes
/// and return the code index of the token ending the annotated item: the
/// `;` of a bodiless item, or the `}` matching its first body brace.
fn find_item_end(tokens: &[Token], code: &[usize], mut k: usize) -> usize {
    while let Some((attr_end, _)) = parse_attribute(tokens, code, k) {
        k = attr_end;
    }
    let mut depth = 0i32;
    for i in k..code.len() {
        let t = &tokens[code[i]];
        if depth == 0 && t.is_punct(';') {
            return i;
        }
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let f = SourceFile::new(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}\nfn tail() {}\n",
        );
        let unwrap_at = f
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(f.in_test[unwrap_at]);
        let tail_at = f
            .tokens
            .iter()
            .position(|t| t.is_ident("tail"))
            .expect("tail token");
        assert!(!f.in_test[tail_at]);
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let f = SourceFile::new("x.rs", "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        assert!(f.in_test.iter().all(|&b| !b));
    }

    #[test]
    fn test_attr_with_stacked_attrs() {
        let f = SourceFile::new(
            "x.rs",
            "#[test]\n#[ignore]\nfn t() { boom(); }\nfn live() {}\n",
        );
        let boom = f
            .tokens
            .iter()
            .position(|t| t.is_ident("boom"))
            .expect("boom");
        let live = f
            .tokens
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live");
        assert!(f.in_test[boom]);
        assert!(!f.in_test[live]);
    }
}
