//! A minimal Rust token scanner.
//!
//! The parser and the lints read a token stream, not a full parse tree: one
//! that *correctly* skips string literals and keeps comments (with line
//! numbers) so waivers can be matched to the code they cover. The workspace builds offline with no
//! `syn`, so this scanner is self-contained; it understands every literal
//! form the workspace uses (raw strings, byte strings, raw identifiers,
//! nested block comments, lifetimes vs. char literals).

/// Classification of one lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident` forms, prefix kept).
    Ident,
    /// Numeric literal, suffix included (`0xAA_u64`, `1.5e-3`).
    Num,
    /// String, byte-string, or raw-string literal.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Single punctuation character.
    Punct,
    /// `// …` comment (doc comments included), text kept for waiver lookup.
    LineComment,
    /// `/* … */` comment (nesting handled), text kept for waiver lookup.
    BlockComment,
}

/// One token with its source text and 1-based starting line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// Whether this token carries meaning for the lints (not a comment).
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// Whether this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Tokenize `src`. Unterminated literals and comments are tolerated (the
/// remainder of the file becomes one token): the linter must never panic on
/// the code it audits, even mid-edit code.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        let c = b[i] as char;
        let start_line = line;
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&b'/') {
            let end = memchr_newline(b, i);
            toks.push(tok(TokKind::LineComment, &src[i..end], start_line));
            i = end;
        } else if c == '/' && b.get(i + 1) == Some(&b'*') {
            let (end, newlines) = block_comment_end(b, i);
            toks.push(tok(TokKind::BlockComment, &src[i..end], start_line));
            line += newlines;
            i = end;
        } else if c == '"' {
            let (end, newlines) = string_end(b, i + 1);
            toks.push(tok(TokKind::Str, &src[i..end], start_line));
            line += newlines;
            i = end;
        } else if c == '\'' {
            let (kind, end) = char_or_lifetime(b, i);
            toks.push(tok(kind, &src[i..end], start_line));
            i = end;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            let word = &src[i..j];
            // String-ish prefixes: r"…", r#"…"#, b"…", br#"…"#, b'…'.
            if matches!(word, "r" | "b" | "br" | "rb") {
                match b.get(j) {
                    Some(&b'"') => {
                        let raw = word != "b";
                        let (end, newlines) =
                            if raw { raw_string_end(b, j, 0) } else { string_end(b, j + 1) };
                        toks.push(tok(TokKind::Str, &src[i..end], start_line));
                        line += newlines;
                        i = end;
                        continue;
                    }
                    Some(&b'#') if word != "b" => {
                        let mut hashes = 0usize;
                        let mut k = j;
                        while b.get(k) == Some(&b'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if b.get(k) == Some(&b'"') {
                            let (end, newlines) = raw_string_end(b, k, hashes);
                            toks.push(tok(TokKind::Str, &src[i..end], start_line));
                            line += newlines;
                            i = end;
                            continue;
                        }
                        // `r#ident` raw identifier: fall through after
                        // consuming the hash and the identifier body.
                        if word == "r" && hashes == 1 {
                            let mut m = k;
                            while m < b.len() && (b[m].is_ascii_alphanumeric() || b[m] == b'_') {
                                m += 1;
                            }
                            toks.push(tok(TokKind::Ident, &src[i..m], start_line));
                            i = m;
                            continue;
                        }
                    }
                    Some(&b'\'') if word == "b" => {
                        let (_, end) = char_or_lifetime(b, j);
                        toks.push(tok(TokKind::Char, &src[i..end], start_line));
                        i = end;
                        continue;
                    }
                    _ => {}
                }
            }
            toks.push(tok(TokKind::Ident, word, start_line));
            i = j;
        } else if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() {
                let d = b[j];
                let part_of_number = d.is_ascii_alphanumeric()
                    || d == b'_'
                    || (d == b'.' && b.get(j + 1).is_some_and(u8::is_ascii_digit))
                    || ((d == b'+' || d == b'-')
                        && matches!(b.get(j - 1), Some(&b'e') | Some(&b'E')));
                if !part_of_number {
                    break;
                }
                j += 1;
            }
            toks.push(tok(TokKind::Num, &src[i..j], start_line));
            i = j;
        } else {
            toks.push(tok(TokKind::Punct, &src[i..i + c.len_utf8()], start_line));
            i += c.len_utf8();
        }
    }
    toks
}

fn tok(kind: TokKind, text: &str, line: usize) -> Tok {
    Tok { kind, text: text.to_string(), line }
}

/// Index of the `\n` ending the line starting at `i`, or `len`.
fn memchr_newline(b: &[u8], i: usize) -> usize {
    b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |p| i + p)
}

/// End offset (exclusive) of a possibly-nested `/* … */` comment starting at
/// `i`, plus the number of newlines inside it.
fn block_comment_end(b: &[u8], i: usize) -> (usize, usize) {
    let mut depth = 0usize;
    let mut j = i;
    let mut newlines = 0usize;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
            j += 1;
        } else if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
            depth += 1;
            j += 2;
        } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
            depth -= 1;
            j += 2;
            if depth == 0 {
                return (j, newlines);
            }
        } else {
            j += 1;
        }
    }
    (b.len(), newlines)
}

/// End offset (exclusive) of a `"…"` literal whose body starts at `i`, plus
/// contained newlines. Handles `\"` and `\\` escapes.
fn string_end(b: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    let mut newlines = 0usize;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, newlines),
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (b.len(), newlines)
}

/// End offset of a raw string whose opening quote is at `i` and which closes
/// with `"` followed by `hashes` `#`s, plus contained newlines.
fn raw_string_end(b: &[u8], i: usize, hashes: usize) -> (usize, usize) {
    let mut j = i + 1;
    let mut newlines = 0usize;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
            j += 1;
        } else if b[j] == b'"'
            && b[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
        {
            return (j + 1 + hashes, newlines);
        } else {
            j += 1;
        }
    }
    (b.len(), newlines)
}

/// Disambiguate `'a` (lifetime) from `'x'` / `'\n'` (char literal) starting
/// at the quote `i`; returns the kind and end offset.
fn char_or_lifetime(b: &[u8], i: usize) -> (TokKind, usize) {
    // Lifetime: quote, ident-start, ident chars, and *no* closing quote.
    let is_ident_start = |c: &u8| c.is_ascii_alphabetic() || *c == b'_';
    if b.get(i + 1).is_some_and(is_ident_start) && b.get(i + 2) != Some(&b'\'') {
        let mut j = i + 1;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        // `'static'` can't occur; anything quote-terminated here is a char
        // like `'a'`, caught by the i+2 check above for 1-char bodies.
        return (TokKind::Lifetime, j);
    }
    let mut j = i + 1;
    if b.get(j) == Some(&b'\\') {
        j += 2;
        // Multi-char escapes: \x7f, \u{…}.
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
    } else if j < b.len() {
        j += 1;
    }
    while j < b.len() && b[j] != b'\'' {
        j += 1;
    }
    (TokKind::Char, (j + 1).min(b.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn basic_tokens() {
        let ts = kinds("fn x() -> u32 { 1 }");
        assert_eq!(ts[0], (TokKind::Ident, "fn".into()));
        assert_eq!(ts[1], (TokKind::Ident, "x".into()));
        assert!(ts.iter().any(|t| t.0 == TokKind::Num && t.1 == "1"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let ts = kinds(r#"let s = "x.unwrap() /* not a comment */";"#);
        assert!(ts.iter().all(|t| t.0 != TokKind::LineComment && t.0 != TokKind::BlockComment));
        assert!(ts.iter().any(|t| t.0 == TokKind::Str));
        // The unwrap inside the string must not surface as an ident.
        assert!(!ts.iter().any(|t| t.0 == TokKind::Ident && t.1 == "unwrap"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let ts = kinds(r##"let s = r#"a "quoted" b"#; let t = "esc \" q";"##);
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Str).count(), 2);
    }

    #[test]
    fn byte_and_raw_identifiers() {
        let ts = kinds(r#"let b1 = b"bytes"; let k = r#type; let c = b'x';"#);
        assert!(ts.iter().any(|t| t.0 == TokKind::Str));
        assert!(ts.iter().any(|t| t.0 == TokKind::Ident && t.1 == "r#type"));
        assert!(ts.iter().any(|t| t.0 == TokKind::Char));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ts = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let n = '\\n'; }");
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Lifetime).count(), 2);
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Char).count(), 2);
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let src = "a\n/* one /* two */ still */\nb // tail\nc";
        let ts = lex(src);
        let b = ts.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
        let c = ts.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c.line, 4);
        assert_eq!(ts.iter().filter(|t| t.kind == TokKind::BlockComment).count(), 1);
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        let ts = kinds("let a = 0xAAAA_u64; let b = 1.5e-3; let c = 1..5;");
        assert!(ts.iter().any(|t| t.0 == TokKind::Num && t.1 == "0xAAAA_u64"));
        assert!(ts.iter().any(|t| t.0 == TokKind::Num && t.1 == "1.5e-3"));
        // Range stays three tokens: 1, .., 5.
        assert!(ts.iter().any(|t| t.0 == TokKind::Num && t.1 == "1"));
        assert!(ts.iter().any(|t| t.0 == TokKind::Num && t.1 == "5"));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"open", "/* open", "r#\"open", "'", "b'"] {
            let _ = lex(src);
        }
    }
}
