//! A hand-rolled Rust lexer — just enough of the language to lint with.
//!
//! The linter's rules are token-shaped ("`.and(..).count_ones()` outside
//! the bitmap kernel", "`assert!` in library code", "`CorrelationFilter`
//! built outside the approx seam"), so a full parser would be wasted weight and
//! an external crate would break the workspace's offline build (the same
//! constraint that produced the vendored serde shim). This lexer handles
//! the parts of Rust that matter for not mis-lexing real code:
//!
//! * line comments, nested block comments, and doc comments — skipped,
//!   with line numbers kept in step;
//! * string literals (plain, raw `r#"…"#` with any hash count, byte,
//!   and C strings), char literals, and the char-vs-lifetime ambiguity
//!   (`'a'` is a char, `'a` in `&'a str` is a lifetime);
//! * identifiers/keywords, numbers, and multi-char punctuation the rules
//!   care about (`::`, `=>`) — everything else comes out as single-char
//!   punctuation tokens.
//!
//! Anything inside a comment or literal is *data*, not code: a fixture
//! string containing `.unwrap()` never trips a rule, and a doc example
//! mentioning `and(..).count_ones()` stays documentation.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `match`, `unsafe`, …).
    Ident,
    /// String/char/byte/number literal. The text is kept verbatim.
    Literal,
    /// A lifetime (`'a`). Distinguished from char literals.
    Lifetime,
    /// Punctuation. `::` and `=>` come out as single tokens; everything
    /// else is one character each.
    Punct,
}

/// One lexed token: kind, byte range into the source, and 1-based line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
}

impl Lexed {
    /// The source text of token `i` (panics only on an out-of-range
    /// index, which would be a linter bug, not user data).
    pub fn text<'s>(&self, src: &'s str, i: usize) -> &'s str {
        let t = &self.tokens[i];
        &src[t.start..t.end]
    }

    /// True if token `i` is an identifier spelling `word`.
    pub fn is_ident(&self, src: &str, i: usize, word: &str) -> bool {
        i < self.tokens.len()
            && self.tokens[i].kind == TokenKind::Ident
            && self.text(src, i) == word
    }

    /// True if token `i` is punctuation spelling `p`.
    pub fn is_punct(&self, src: &str, i: usize, p: &str) -> bool {
        i < self.tokens.len()
            && self.tokens[i].kind == TokenKind::Punct
            && self.text(src, i) == p
    }

    /// Token index one past the bracketed group opening at `open` (a
    /// `[`, `(` or `{`), or the end of the stream if it never closes.
    pub fn skip_group(&self, src: &str, open: usize) -> usize {
        let mut depth = 0i32;
        for j in open..self.tokens.len() {
            if self.tokens[j].kind != TokenKind::Punct {
                continue;
            }
            match self.text(src, j) {
                "[" | "(" | "{" => depth += 1,
                "]" | ")" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len()
    }
}

/// Lexes `src`. Unterminated literals or comments simply run to the end
/// of the file — the linter reports what it can instead of failing the
/// whole pass (rustc will reject such a file anyway).
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Counts newlines in `src[from..to]` — called once per multi-line
    // token, so the quadratic worst case never materializes.
    let count_lines = |from: usize, to: usize| -> u32 {
        src.as_bytes()[from..to].iter().filter(|&&b| b == b'\n').count() as u32
    };

    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (includes doc comments `///` and `//!`).
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            i = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            line += count_lines(start, i);
            continue;
        }
        // Raw strings: r"…", r#"…"#, and byte/C-string forms br#"…"#.
        if let Some(len) = raw_string_len(&src[i..]) {
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                start: i,
                end: i + len,
                line,
            });
            line += count_lines(i, i + len);
            i += len;
            continue;
        }
        // Plain and byte strings.
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
            let q = if b == b'"' { i } else { i + 1 };
            let end = scan_quoted(bytes, q, b'"');
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                start: i,
                end,
                line,
            });
            line += count_lines(i, end);
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            if let Some(end) = char_literal_len(bytes, i) {
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    start: i,
                    end: i + end,
                    line,
                });
                i += end;
            } else {
                // Lifetime: ' followed by an identifier.
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    start: i,
                    end: j,
                    line,
                });
                i = j;
            }
            continue;
        }
        // Identifier / keyword (including raw identifiers `r#match`).
        if b == b'_' || b.is_ascii_alphabetic() {
            let start = i;
            if b == b'r' && bytes.get(i + 1) == Some(&b'#') {
                // Only if what follows is an identifier char — `r#"` was
                // already taken by the raw-string branch above.
                i += 2;
            }
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                start,
                end: i,
                line,
            });
            continue;
        }
        // Number literal (digits plus enough continuation chars to skip
        // hex/float/suffix forms in one token).
        if b.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
            {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                start,
                end: i,
                line,
            });
            continue;
        }
        // Multi-char punctuation the rules care about.
        let two = &src[i..(i + 2).min(src.len())];
        if two == "::" || two == "=>" {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                start: i,
                end: i + 2,
                line,
            });
            i += 2;
            continue;
        }
        // Everything else: single-char punctuation.
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            start: i,
            end: i + 1,
            line,
        });
        i += 1;
    }
    out
}

/// If `s` starts a raw (byte/C) string literal, its total byte length.
fn raw_string_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut p = 0usize;
    if bytes.first() == Some(&b'b') || bytes.first() == Some(&b'c') {
        p = 1;
    }
    if bytes.get(p) != Some(&b'r') {
        return None;
    }
    p += 1;
    let mut hashes = 0usize;
    while bytes.get(p + hashes) == Some(&b'#') {
        hashes += 1;
    }
    if bytes.get(p + hashes) != Some(&b'"') {
        return None;
    }
    let body_start = p + hashes + 1;
    let closer: String = format!("\"{}", "#".repeat(hashes));
    match s[body_start..].find(&closer) {
        Some(n) => Some(body_start + n + closer.len()),
        None => Some(s.len()), // unterminated: consume the rest
    }
}

/// Scans a quoted literal starting at the quote `bytes[q]`; returns the
/// index one past the closing quote (or the end of input).
fn scan_quoted(bytes: &[u8], q: usize, quote: u8) -> usize {
    let mut i = q + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b if b == quote => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// If position `i` (a `'`) starts a char literal, its byte length —
/// otherwise `None` (it's a lifetime or a stray quote).
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    // '\…' escape: always a char literal.
    if bytes.get(i + 1) == Some(&b'\\') {
        let end = scan_quoted(bytes, i, b'\'');
        return Some(end - i);
    }
    // 'x' — exactly one char then a closing quote. A lifetime like 'a
    // has no closing quote; 'static is followed by more ident chars.
    let mut j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    // Skip one UTF-8 scalar.
    let first = bytes[j];
    let width = match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    };
    j += width;
    if bytes.get(j) == Some(&b'\'') {
        // `'a'` — but `'a' ` in `x.map('a')`… still a char literal; the
        // only ambiguity left is `'a''b'` which Rust itself rejects.
        Some(j + 1 - i)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let lexed = lex(src);
        lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| src[t.start..t.end].to_string())
            .collect()
    }

    #[test]
    fn comments_are_not_code() {
        let src = "// has .unwrap() inside\nlet x = 1; /* .expect( */";
        assert_eq!(idents(src), vec!["let", "x"]);
        // The line comment still advances the line count.
        assert_eq!(lex(src).tokens[0].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn strings_are_literals() {
        let src = r##"let s = "contains .unwrap() and \" escape"; let r = r#"raw .expect("x")"# ;"##;
        // No `unwrap` or `expect` identifier tokens escape the literals.
        assert!(!idents(src).iter().any(|w| w == "unwrap" || w == "expect"));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let s = 'a'; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2, "two uses of 'a as a lifetime");
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && src[t.start..t.end].starts_with('\''))
            .count();
        assert_eq!(chars, 2, "'x' and 'a' as char literals");
    }

    #[test]
    fn multi_char_punct() {
        let src = "BoundaryPolicy::Clip => 1,";
        let lexed = lex(src);
        assert!(lexed.is_punct(src, 1, "::"));
        assert!(lexed.is_punct(src, 3, "=>"));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "let a = \"one\ntwo\";\nlet b = 1;";
        let lexed = lex(src);
        let b = lexed
            .tokens
            .iter()
            .find(|t| &src[t.start..t.end] == "b")
            .expect("b token");
        assert_eq!(b.line, 3);
    }
}
