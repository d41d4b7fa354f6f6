//! Property tests for the token lexer on the hard corners of Rust's
//! lexical grammar: nested block comments, raw identifiers (`r#type`),
//! quote-bearing char literals (`'"'`, `'\''`), and raw strings with `#`
//! fences.
//!
//! **Round-trip** — `lex(render(lex(src)))` equals `lex(src)` on
//! `(kind, text)`, over generated token soup and over real workspace
//! sources. `render` is the lexer's own inverse up to whitespace, so any
//! lexing ambiguity shows up as a diff here. The soup's marker words pin
//! classification too: `cmark` may only ever sit inside a comment token and
//! `smark` inside a string or char literal.

use jarvis_lint::lexer::{lex, render, Token, TokenKind};
use jarvis_stdkit::propcheck::{Config, Gen, TestResult};

/// One well-formed fragment of token soup. Marker words encode intent:
/// `cmark` only ever appears inside comments, `smark` only inside string or
/// char literals — so neither may land in any other kind of token.
fn fragment(g: &mut Gen) -> String {
    match g.u32_in(0, 13) {
        0 => format!("kmark{}", g.u32_in(0, 99)),
        1 => (*g.choose(&["r#type", "r#match", "r#fn", "r#unsafe"])).to_string(),
        2 => (*g.choose(&["{", "}", "(", ")", ";", ",", ".", "#", "&", "::", "->"])).to_string(),
        3 => (*g.choose(&["0", "42", "0x1f", "3.25", "1_000", "7u32"])).to_string(),
        4 => (*g.choose(&["'a", "'static", "'_"])).to_string(),
        5 => (*g.choose(&["'x'", "'\\''", "'\"'", "'\\n'", "'{'", "b'q'"])).to_string(),
        6 => format!("\"smark {} \\\" esc\"", g.u32_in(0, 9)),
        7 => (*g.choose(&[
            "r\"smark plain\"",
            "r#\"smark \"quoted\" inside\"#",
            "r##\"smark \"# half fence\"##",
            "br#\"smark bytes\"#",
            "b\"smark\"",
        ]))
        .to_string(),
        8 => format!("// cmark line {}", g.u32_in(0, 9)),
        9 => "/* cmark flat */".to_string(),
        10 => "/* cmark /* nested cmark */ tail cmark */".to_string(),
        11 => "/* cmark\n   multi /* deep cmark\n   */ cmark */".to_string(),
        12 => (*g.choose(&["fn", "let", "unsafe", "impl", "match", "loop"])).to_string(),
        _ => format!("kmark_{}", g.ascii_string(1, 6)),
    }
}

/// Assemble fragments with random whitespace between them. A line comment is
/// always followed by a newline so it cannot swallow the next fragment —
/// swallowing is legal lexing, but it would turn the next fragment's words
/// into comment text and void the marker invariant.
fn soup(g: &mut Gen) -> String {
    let n = g.usize_in(3, 40);
    let mut src = String::new();
    for _ in 0..n {
        let f = fragment(g);
        let line_comment = f.starts_with("//");
        src.push_str(&f);
        if line_comment {
            src.push('\n');
        }
        let sep: &str = *g.choose(&[" ", "  ", "\n", "\t", " \n  "]);
        src.push_str(sep);
    }
    src
}

fn fmt_tokens(toks: &[Token]) -> String {
    toks.iter().map(|t| format!("  {:?} {:?}\n", t.kind, t.text)).collect()
}

fn check_round_trip(src: &str, toks: &[Token]) -> TestResult {
    let again = lex(&render(toks));
    let a: Vec<(TokenKind, &str)> = toks.iter().map(|t| (t.kind, t.text.as_str())).collect();
    let b: Vec<(TokenKind, &str)> = again.iter().map(|t| (t.kind, t.text.as_str())).collect();
    if a != b {
        return Err(format!(
            "render round-trip diverged on {src:?}\nfirst:\n{}second:\n{}",
            fmt_tokens(toks),
            fmt_tokens(&again)
        ));
    }
    Ok(())
}

/// Marker words never leak out of the token kinds that own them.
fn check_markers(src: &str, toks: &[Token]) -> TestResult {
    for t in toks {
        let comment = matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment);
        let literal = matches!(
            t.kind,
            TokenKind::Str | TokenKind::RawStr | TokenKind::ByteStr | TokenKind::Char
        );
        if (t.text.contains("cmark") && !comment) || (t.text.contains("smark") && !literal) {
            return Err(format!(
                "marker word in a {:?} token {:?} at {}:{} of {src:?}",
                t.kind, t.text, t.line, t.col
            ));
        }
    }
    Ok(())
}

#[test]
fn token_soup_round_trips_and_keeps_markers_in_place() {
    Config::with_cases(300).seed(0x4a52_5649_u64).run(|g: &mut Gen| {
        let src = soup(g);
        let toks = lex(&src);
        check_round_trip(&src, &toks)?;
        check_markers(&src, &toks)
    });
}

/// The round-trip over real workspace sources — the lexer walks these files
/// on every lint run.
#[test]
fn real_sources_round_trip() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rel in [
        "crates/lint/src/lexer.rs",
        "crates/lint/src/rules.rs",
        "crates/lint/src/syntax.rs",
        "crates/lint/src/audit.rs",
        "crates/stdkit/src/sync.rs",
        "crates/stdkit/src/pool.rs",
        "crates/neural/src/simd.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect(rel);
        let toks = lex(&src);
        if let Err(e) = check_round_trip(&src, &toks) {
            panic!("{rel}: {e}");
        }
    }
}
