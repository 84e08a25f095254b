//! A small hand-rolled Rust lexer: just enough token structure for the
//! lint rules, and hardened so that *no* input — valid Rust, truncated
//! Rust, or arbitrary bytes — can make it panic.
//!
//! The lexer understands the parts of the language where a naive text
//! scan goes wrong: line comments, nested block comments, string
//! literals (plain, byte, C, and raw with any `#` count), raw
//! identifiers, character literals vs. lifetimes, and numeric literals.
//! Comments are kept as tokens; rules walk
//! [`SourceFile::code_indices`](crate::SourceFile::code_indices) to skip
//! them.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (raw identifiers lex as their bare name).
    Ident,
    /// A numeric literal (integer or float, any radix, suffix included).
    Number,
    /// A string literal of any flavour, quotes and prefix included.
    Str,
    /// A character or byte-character literal, quotes included.
    Char,
    /// A lifetime such as `'a` or `'static` (leading quote included).
    Lifetime,
    /// A `//` comment, text to end of line.
    LineComment,
    /// A `/* ... */` comment (nesting-aware), delimiters included.
    BlockComment,
    /// Any other single character.
    Punct,
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The source text of the token (for raw identifiers, the name
    /// without the `r#` prefix).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// True if this token is a comment of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte length of the UTF-8 character starting with `lead` (1 for
/// malformed leads, so the scan always advances).
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Slice `src` at byte positions, tolerating boundaries that fall inside
/// a multi-byte character (possible only on malformed input).
fn slice(src: &str, start: usize, end: usize) -> String {
    match src.get(start..end) {
        Some(s) => s.to_string(),
        None => String::from_utf8_lossy(&src.as_bytes()[start.min(src.len())..end.min(src.len())])
            .into_owned(),
    }
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    at: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn peek(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.at + off).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        let text = slice(self.src, start, self.at);
        self.out.push(Token { kind, text, line });
    }

    /// Consume a `"..."` body from the opening quote, honouring `\`
    /// escapes. Unterminated strings run to end of input without panicking.
    fn string_body(&mut self) {
        debug_assert_eq!(self.peek(0), Some(b'"'));
        self.at += 1;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.at = (self.at + 2).min(self.bytes.len());
                }
                b'"' => {
                    self.at += 1;
                    return;
                }
                b'\n' => {
                    self.line += 1;
                    self.at += 1;
                }
                _ => self.at += 1,
            }
        }
    }

    /// Consume a raw string body from the opening quote: ends at `"`
    /// followed by `hashes` `#` characters.
    fn raw_string_body(&mut self, hashes: usize) {
        debug_assert_eq!(self.peek(0), Some(b'"'));
        self.at += 1;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                self.line += 1;
                self.at += 1;
                continue;
            }
            if b == b'"' {
                let tail = &self.bytes[self.at + 1..];
                if tail.len() >= hashes && tail[..hashes].iter().all(|&h| h == b'#') {
                    self.at += 1 + hashes;
                    return;
                }
            }
            self.at += 1;
        }
    }

    /// Consume a character literal from the opening `'`, or a lifetime if
    /// that is what the quote introduces. Returns the token kind used.
    fn char_or_lifetime(&mut self) -> TokenKind {
        debug_assert_eq!(self.peek(0), Some(b'\''));
        match self.peek(1) {
            Some(b'\\') => {
                // Escaped character literal: skip to the closing quote.
                self.at += 2;
                while let Some(b) = self.peek(0) {
                    match b {
                        b'\\' => self.at = (self.at + 2).min(self.bytes.len()),
                        b'\'' => {
                            self.at += 1;
                            break;
                        }
                        b'\n' => break, // unterminated; don't eat the file
                        _ => self.at += 1,
                    }
                }
                TokenKind::Char
            }
            Some(c) => {
                let len = utf8_len(c);
                if self.peek(1 + len) == Some(b'\'') && c != b'\'' {
                    // 'x' — a one-character literal (possibly multi-byte).
                    self.at += 2 + len;
                    TokenKind::Char
                } else if is_ident_start(c) {
                    // 'name — a lifetime.
                    self.at += 2;
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.at += 1;
                    }
                    TokenKind::Lifetime
                } else {
                    // A stray quote (malformed input): one punct char.
                    self.at += 1;
                    TokenKind::Punct
                }
            }
            None => {
                self.at += 1;
                TokenKind::Punct
            }
        }
    }

    /// Consume a numeric literal (digits, `_`, radix prefixes, suffixes,
    /// a decimal point followed by a digit, decimal exponents).
    fn number(&mut self) {
        let decimal = !(self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B')));
        self.at += 1;
        while let Some(b) = self.peek(0) {
            let part_of_number = b.is_ascii_alphanumeric()
                || b == b'_'
                || (b == b'.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()))
                || (decimal
                    && matches!(b, b'+' | b'-')
                    && self.at > 0
                    && matches!(self.bytes[self.at - 1], b'e' | b'E'));
            if !part_of_number {
                break;
            }
            self.at += 1;
        }
    }

    /// Handle an identifier that may instead introduce a string literal
    /// (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`, `b'…'`) or a raw
    /// identifier (`r#name`).
    fn ident_or_prefixed_literal(&mut self) {
        let start = self.at;
        let line = self.line;
        let first = self.peek(0).unwrap_or(0);
        if matches!(first, b'r' | b'b' | b'c') {
            let mut j = 1usize;
            let mut raw = first == b'r';
            if matches!(first, b'b' | b'c') && self.peek(1) == Some(b'r') {
                raw = true;
                j = 2;
            }
            let mut hashes = 0usize;
            if raw {
                while self.peek(j + hashes) == Some(b'#') {
                    hashes += 1;
                }
            }
            match self.peek(j + hashes) {
                Some(b'"') => {
                    self.at += j + hashes;
                    if raw {
                        self.raw_string_body(hashes);
                    } else {
                        self.string_body();
                    }
                    self.push(TokenKind::Str, start, line);
                    return;
                }
                Some(b'\'') if first == b'b' && j == 1 && hashes == 0 => {
                    self.at += 1;
                    let kind = self.char_or_lifetime();
                    // `b'…'` is always a byte literal, never a lifetime.
                    let kind = if kind == TokenKind::Lifetime {
                        TokenKind::Ident
                    } else {
                        kind
                    };
                    self.push(kind, start, line);
                    return;
                }
                Some(c) if first == b'r' && j == 1 && hashes == 1 && is_ident_start(c) => {
                    // Raw identifier `r#name`: token text is the bare name.
                    self.at += 2;
                    let name_start = self.at;
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.at += 1;
                    }
                    let text = slice(self.src, name_start, self.at);
                    self.out.push(Token {
                        kind: TokenKind::Ident,
                        text,
                        line,
                    });
                    return;
                }
                _ => {}
            }
        }
        // A plain identifier.
        while self.peek(0).is_some_and(is_ident_continue) {
            self.at += 1;
        }
        self.push(TokenKind::Ident, start, line);
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            let start = self.at;
            let line = self.line;
            match b {
                b'\n' => {
                    self.line += 1;
                    self.at += 1;
                }
                _ if b.is_ascii_whitespace() => self.at += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.peek(0).is_some_and(|c| c != b'\n') {
                        self.at += 1;
                    }
                    self.push(TokenKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.at += 2;
                    let mut depth = 1usize;
                    while depth > 0 {
                        match self.peek(0) {
                            None => break,
                            Some(b'\n') => {
                                self.line += 1;
                                self.at += 1;
                            }
                            Some(b'/') if self.peek(1) == Some(b'*') => {
                                depth += 1;
                                self.at += 2;
                            }
                            Some(b'*') if self.peek(1) == Some(b'/') => {
                                depth -= 1;
                                self.at += 2;
                            }
                            Some(_) => self.at += 1,
                        }
                    }
                    self.push(TokenKind::BlockComment, start, line);
                }
                b'"' => {
                    self.string_body();
                    self.push(TokenKind::Str, start, line);
                }
                b'\'' => {
                    let kind = self.char_or_lifetime();
                    self.push(kind, start, line);
                }
                _ if b.is_ascii_digit() => {
                    self.number();
                    self.push(TokenKind::Number, start, line);
                }
                _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
                _ => {
                    self.at += utf8_len(b);
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        self.out
    }
}

/// Lex `src` into a token stream. Total: never panics, for any input.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        at: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_hide_code() {
        let toks = kinds("a // b.unwrap()\n/* c /* nested */ d */ e");
        let idents: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a", "e"]);
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r##"let s = "x.unwrap()"; let r = r#"also " here"#;"##);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "unwrap"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("let c = 'x'; fn f<'a>(v: &'a str) {} let s = 'Δ';");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            2
        );
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#fn = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "fn"));
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }
}
