//! A zero-dependency Rust lexer: the token stream underneath every source
//! rule.
//!
//! Rules match tokens, never raw text, so string and comment contents can
//! never look like code, and the rules that need expression structure
//! (which atomic call does an `Ordering::` belong to? is this `.lock()`
//! guard still live at that `.join()`?) get it from the token tree built on
//! top ([`crate::syntax`]). This module produces real tokens with
//! line/column positions:
//!
//! * identifiers — including raw identifiers (`r#type`) and keywords
//!   (`unsafe` is just an ident here; rules decide what it means);
//! * lifetimes (`'a`, `'_`) correctly disambiguated from char literals
//!   (`'a'`, `'\''`, `'"'`);
//! * the whole literal zoo: strings with escapes, raw strings with `#`
//!   fences (`r#"…"#`), byte strings (`b"…"`, `br#"…"#`), chars, byte
//!   chars (`b'x'`), and numbers (hex/oct/bin, floats, exponents,
//!   suffixes);
//! * comments — line, doc, and *nested* block comments — kept as tokens so
//!   the syntax pass can attach them to the code they annotate;
//! * punctuation as single-char tokens (delimiter matching only ever needs
//!   single chars; multi-char operators are adjacent puncts).
//!
//! The stream round-trips: rendering every token's exact source text (with
//! whitespace between tokens and a newline after each line comment) and
//! re-lexing reproduces the same `(kind, text)` sequence. The property
//! tests in `tests/propcheck.rs` hammer this against generated token soup
//! and real workspace sources.

/// What a token is. `text` always holds the exact source slice, so e.g. a
/// raw string keeps its `r#"…"#` fences and a doc comment keeps its
/// slashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// A lifetime (`'a`, `'_`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer or float literal, with any base prefix and suffix.
    Number,
    /// `"…"` string literal (escapes kept verbatim in `text`).
    Str,
    /// `r"…"`, `r#"…"#`, `br"…"`, … — raw (byte) string literal.
    RawStr,
    /// `b"…"` byte string literal.
    ByteStr,
    /// `'x'`, `'\n'`, `'\''`, `'"'` — char literal.
    Char,
    /// `b'x'` byte literal.
    ByteChar,
    /// `// …`, `/// …`, `//! …` — to end of line, slashes included.
    LineComment,
    /// `/* … */` with nesting, possibly spanning lines.
    BlockComment,
    /// One punctuation character (`{`, `.`, `:`, `#`, …).
    Punct,
}

/// One lexed token: kind, exact source text, and 0-based start position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    /// 0-based line the token *starts* on (block comments may span more).
    pub line: usize,
    /// 0-based column (in chars) of the token's first character.
    pub col: usize,
}

impl Token {
    /// 0-based line the token *ends* on (differs from `line` only for
    /// multi-line block comments and raw strings).
    #[must_use]
    pub fn end_line(&self) -> usize {
        self.line + self.text.chars().filter(|&c| c == '\n').count()
    }
}

/// Character cursor over the source with line/column bookkeeping.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex a whole source file into its token stream. Unterminated literals
/// and comments are tolerated (the token simply runs to end of input):
/// the lexer must never panic on the malformed code a fixture or an
/// editor buffer can hand it.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { chars: src.chars().collect(), pos: 0, line: 0, col: 0 };
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        let start = cur.pos;
        let kind = match c {
            c if c.is_whitespace() => {
                cur.bump();
                continue;
            }
            '/' if cur.peek(1) == Some('/') => {
                while cur.peek(0).is_some_and(|c| c != '\n') {
                    cur.bump();
                }
                TokenKind::LineComment
            }
            '/' if cur.peek(1) == Some('*') => {
                lex_block_comment(&mut cur);
                TokenKind::BlockComment
            }
            '\'' => lex_quote(&mut cur),
            '"' => {
                lex_str(&mut cur);
                TokenKind::Str
            }
            'r' | 'b' if raw_string_shape(&cur).is_some() => {
                let (prefix_len, hashes) = raw_string_shape(&cur).expect("checked above");
                for _ in 0..prefix_len {
                    cur.bump(); // the r / br prefix and the # fence
                }
                debug_assert_eq!(cur.peek(0), Some('"'));
                lex_raw_str(&mut cur, hashes);
                TokenKind::RawStr // br"…" and r"…" both land here
            }
            'b' if cur.peek(1) == Some('"') => {
                cur.bump();
                lex_str(&mut cur);
                TokenKind::ByteStr
            }
            'b' if cur.peek(1) == Some('\'') => {
                cur.bump();
                match lex_quote(&mut cur) {
                    TokenKind::Char => TokenKind::ByteChar,
                    // `b'static` is not valid Rust; call the pieces puncts
                    // and idents rather than inventing a byte lifetime.
                    other => other,
                }
            }
            'r' if cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) => {
                // Raw identifier: r#type, r#fn.
                cur.bump();
                cur.bump();
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                TokenKind::Ident
            }
            c if is_ident_start(c) => {
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                TokenKind::Ident
            }
            c if c.is_ascii_digit() => {
                lex_number(&mut cur);
                TokenKind::Number
            }
            _ => {
                cur.bump();
                TokenKind::Punct
            }
        };
        out.push(Token {
            kind,
            text: cur.chars[start..cur.pos].iter().collect(),
            line,
            col,
        });
    }
    out
}

/// Consume a (possibly nested) block comment, cursor at the opening `/`.
fn lex_block_comment(cur: &mut Cursor) {
    cur.bump();
    cur.bump();
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break, // unterminated: run to EOF
        }
    }
}

/// Consume a `"…"` body, cursor at the opening quote. Handles escapes and
/// line continuations (the literal may span lines).
fn lex_str(cur: &mut Cursor) {
    cur.bump();
    loop {
        match cur.peek(0) {
            Some('\\') => {
                cur.bump();
                cur.bump(); // the escaped char (any, incl. a quote)
            }
            Some('"') => {
                cur.bump();
                return;
            }
            Some(_) => {
                cur.bump();
            }
            None => return, // unterminated
        }
    }
}

/// Consume the `"…"#…#` tail of a raw string whose fence is `hashes` deep;
/// cursor at the opening quote.
fn lex_raw_str(cur: &mut Cursor, hashes: usize) {
    cur.bump();
    'scan: loop {
        match cur.peek(0) {
            Some('"') => {
                for k in 1..=hashes {
                    if cur.peek(k) != Some('#') {
                        cur.bump();
                        continue 'scan;
                    }
                }
                for _ in 0..=hashes {
                    cur.bump();
                }
                return;
            }
            Some(_) => {
                cur.bump();
            }
            None => return, // unterminated
        }
    }
}

/// If the cursor sits on a raw (byte) string opener (`r"`, `r#"`, `br##"`,
/// …), return `(prefix_len, hashes)` where `prefix_len` counts the chars
/// before the quote.
fn raw_string_shape(cur: &Cursor) -> Option<(usize, usize)> {
    let mut j = 0;
    if cur.peek(j) == Some('b') {
        j += 1;
    }
    if cur.peek(j) != Some('r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while cur.peek(j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if cur.peek(j) == Some('"') {
        Some((j, hashes))
    } else {
        None
    }
}

/// Disambiguate `'` between a char literal and a lifetime; cursor at the
/// quote. Returns the kind actually lexed.
fn lex_quote(cur: &mut Cursor) -> TokenKind {
    // An escape is always a char literal: '\n', '\'', '\u{1F600}'.
    if cur.peek(1) == Some('\\') {
        cur.bump(); // '
        cur.bump(); // backslash
        cur.bump(); // escaped char
        while cur.peek(0).is_some_and(|c| c != '\'' && c != '\n') {
            cur.bump();
        }
        cur.bump(); // closing quote (or EOL recovery)
        return TokenKind::Char;
    }
    // `'x'` (one char, then a quote) is a char literal; `'ident` with no
    // immediate closing quote is a lifetime. `'a'` beats the lifetime
    // reading, matching rustc.
    if cur.peek(1).is_some() && cur.peek(2) == Some('\'') {
        cur.bump();
        cur.bump();
        cur.bump();
        return TokenKind::Char;
    }
    if cur.peek(1).is_some_and(is_ident_start) {
        cur.bump(); // '
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        return TokenKind::Lifetime;
    }
    // A stray quote (malformed input): single punct, keep going.
    cur.bump();
    TokenKind::Punct
}

/// Consume a number, cursor at the first digit: base prefixes, digit
/// separators, a fractional part (only when followed by a digit, so `1..2`
/// and `x.0.1` tuple chains stay puncts), exponents, and type suffixes.
fn lex_number(cur: &mut Cursor) {
    let radix_prefixed = cur.peek(0) == Some('0')
        && matches!(cur.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
    cur.bump();
    if radix_prefixed {
        cur.bump();
    }
    let mut seen_dot = false;
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            // Digits, separators, suffixes, and hex digits all in one
            // class; exponent signs need one lookahead.
            if !radix_prefixed
                && matches!(c, 'e' | 'E')
                && matches!(cur.peek(1), Some('+' | '-'))
                && cur.peek(2).is_some_and(|d| d.is_ascii_digit())
            {
                cur.bump();
                cur.bump();
                continue;
            }
            cur.bump();
        } else if c == '.'
            && !seen_dot
            && !radix_prefixed
            && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
        {
            seen_dot = true;
            cur.bump();
        } else {
            break;
        }
    }
}

/// Render a token stream back to compilable-shaped source: tokens joined
/// by a single space, a newline after every line comment (nothing else
/// ends one). `lex(render(lex(src)))` equals `lex(src)` on `(kind, text)`
/// — the round-trip property.
#[must_use]
pub fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        out.push_str(&t.text);
        if t.kind == TokenKind::LineComment {
            out.push('\n');
        } else {
            out.push(' ');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_and_raw_idents() {
        let toks = kinds("unsafe fn r#type { r#fn }");
        assert_eq!(toks[0], (TokenKind::Ident, "unsafe".into()));
        assert_eq!(toks[2], (TokenKind::Ident, "r#type".into()));
        assert_eq!(toks[4], (TokenKind::Ident, "r#fn".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; let d = '\"'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert_eq!(chars.len(), 3, "{toks:?}");
        assert_eq!(chars[1].1, "'\\''");
        assert_eq!(chars[2].1, "'\"'");
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds("let s = r#\"quote \" and # inside\"#; x");
        let raw = toks.iter().find(|(k, _)| *k == TokenKind::RawStr).expect("raw string");
        assert_eq!(raw.1, "r#\"quote \" and # inside\"#");
        assert_eq!(toks.last().unwrap().1, "x", "lexing resumes after the fence");
    }

    #[test]
    fn byte_literals() {
        let toks = kinds("let a = b\"bytes\"; let c = b'x'; let r = br#\"raw\"#;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::ByteStr && t == "b\"bytes\""));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::ByteChar && t == "b'x'"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::RawStr && t == "br#\"raw\"#"));
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let toks = kinds("a /* outer /* inner */ still outer */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].0, TokenKind::BlockComment);
        assert_eq!(toks[2].1, "b");
    }

    #[test]
    fn numbers_floats_and_ranges() {
        let toks = kinds("1.5e-3 + 0xFF_u32 .. 2..3 x.0.1 1_000");
        assert_eq!(toks[0], (TokenKind::Number, "1.5e-3".into()));
        assert_eq!(toks[2], (TokenKind::Number, "0xFF_u32".into()));
        // `2..3` must lex as number, punct, punct, number; `x.0.1` lexes
        // as `x` `.` `0.1` (a float token the parser would re-split —
        // exactly what rustc's lexer produces).
        let dots = toks.iter().filter(|(k, t)| *k == TokenKind::Punct && t == ".").count();
        assert_eq!(dots, 2 + 2 + 1, "range dots stay puncts");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Number && t == "0.1"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Number && t == "1_000"));
    }

    #[test]
    fn comments_keep_their_text_and_lines() {
        let toks = lex("x // safety: the CAS wins\n/// doc\ny");
        assert_eq!(toks[1].kind, TokenKind::LineComment);
        assert_eq!(toks[1].text, "// safety: the CAS wins");
        assert_eq!(toks[1].line, 0);
        assert_eq!(toks[2].text, "/// doc");
        assert_eq!(toks[2].line, 1);
        assert_eq!(toks[3].line, 2);
    }

    #[test]
    fn multi_line_tokens_report_end_lines() {
        let toks = lex("/* a\nb\nc */ x");
        assert_eq!(toks[0].line, 0);
        assert_eq!(toks[0].end_line(), 2);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn round_trip_is_stable() {
        let src = "unsafe { q.load(Ordering::Relaxed) } // ordering: CAS retry\n\
                   let s = r#\"x \"#; let c = '\\''; for 'a in 0..1_0 {}";
        let once = lex(src);
        let twice = lex(&render(&once));
        let a: Vec<_> = once.iter().map(|t| (t.kind, t.text.clone())).collect();
        let b: Vec<_> = twice.iter().map(|t| (t.kind, t.text.clone())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in ["\"unterminated", "/* open", "'", "r###\"open", "b'", "'''"] {
            let _ = lex(src);
        }
    }
}
