//! A minimal, lossless-enough Rust lexer.
//!
//! The linter's rules are token-pattern rules (`thread_rng` as an
//! identifier, `.` `unwrap` `(` as a call, `==` adjacent to a float
//! literal), so a full parse is unnecessary — but a naive substring grep
//! would false-positive inside string literals and comments. This lexer
//! classifies every byte of a source file as code token, comment or
//! literal, handling nested block comments, raw strings, byte strings,
//! char literals and lifetimes, so the rules only ever see real code
//! tokens while waiver scanning only ever sees comment text.
//!
//! It scans `src.as_bytes()` and allocates nothing per token: identifier,
//! punctuation and comment text are `&str` slices borrowed from the
//! source ([`Token`], [`Comment`]). ASCII stays on a byte fast path; a
//! `char` is decoded only at a non-ASCII byte, so whitespace, identifier
//! and numeric-suffix tests keep their Unicode meaning
//! (`char::is_whitespace`, `is_alphabetic`, `is_alphanumeric`). Every
//! delimiter the scanner matches is ASCII, and UTF-8 never reuses an
//! ASCII byte inside a multi-byte character, so byte-level matching stops
//! exactly where a char-level scan would. Lines are counted at `\n` and
//! columns in characters, not bytes.

/// One code token with its source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
    /// Token class and text.
    pub kind: TokKind<'a>,
}

/// Token classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Operator / punctuation, multi-character operators joined (`==`, `::`).
    Punct(&'a str),
    /// Integer literal (any radix).
    Int,
    /// Floating-point literal.
    Float,
    /// Lifetime or loop label (`'a`).
    Lifetime,
}

impl<'a> Token<'a> {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&'a str> {
        match self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The punctuation text, if this token is punctuation.
    pub fn punct(&self) -> Option<&'a str> {
        match self.kind {
            TokKind::Punct(s) => Some(s),
            _ => None,
        }
    }
}

/// A comment (line, block or doc) with the line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comment<'a> {
    /// 1-based line of the first character of the comment.
    pub line: u32,
    /// Full comment text, delimiters stripped.
    pub text: &'a str,
}

/// The lexed form of one source file, borrowing from its text.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// All code tokens in source order.
    pub tokens: Vec<Token<'a>>,
    /// All comments in source order.
    pub comments: Vec<Comment<'a>>,
}

/// Multi-character operators, longest first so greedy matching works.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// What one scan step found.
enum Lexeme<'a> {
    /// Whitespace or a literal the rules never look inside.
    Skip,
    /// A comment's text, delimiters stripped.
    Comment(&'a str),
    /// A code token.
    Token(TokKind<'a>),
}

/// Lexes `src` into code tokens and comments.
///
/// The lexer is intentionally forgiving: on malformed input (unterminated
/// string, stray byte) it resynchronises at the next character rather than
/// failing, because lint must never be the reason a build script dies on a
/// half-written file.
pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    while i < bytes.len() {
        let (end, lexeme) = scan(src, i);
        match lexeme {
            Lexeme::Skip => {}
            Lexeme::Comment(text) => out.comments.push(Comment { line, text }),
            Lexeme::Token(kind) => out.tokens.push(Token { line, col, kind }),
        }
        for &b in &bytes[i..end] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else if !is_continuation(b) {
                col += 1;
            }
        }
        i = end;
    }
    out
}

/// Scans the lexeme starting at byte `i` (a char boundary); returns the
/// byte index just past it and what it was.
fn scan(src: &str, i: usize) -> (usize, Lexeme<'_>) {
    let bytes = src.as_bytes();
    let b = bytes[i];
    let ident = |end: usize| (end, Lexeme::Token(TokKind::Ident(&src[i..end])));
    match b {
        b'\t'..=b'\r' | b' ' => {
            let run = bytes[i..]
                .iter()
                .take_while(|b| matches!(b, b'\t'..=b'\r' | b' '));
            (i + run.count(), Lexeme::Skip)
        }
        b'/' if bytes.get(i + 1) == Some(&b'/') => {
            let end = bytes[i..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |p| i + p);
            (end, Lexeme::Comment(&src[i + 2..end]))
        }
        b'/' if bytes.get(i + 1) == Some(&b'*') => {
            let end = block_comment_end(bytes, i);
            // The text stops two characters short of the end: the closing
            // `*/`, or the last two characters of an unterminated comment.
            let text_end = prev_char(bytes, prev_char(bytes, end)).max(i + 2);
            (end, Lexeme::Comment(&src[i + 2..text_end]))
        }
        b'r' | b'b' => match prefixed_literal_end(src, i) {
            Some(end) => (end, Lexeme::Skip),
            None => ident(ident_end(src, i + 1)),
        },
        b'"' => (plain_string_end(bytes, i), Lexeme::Skip),
        b'\'' => match char_literal_end(src, i) {
            Some(end) => (end, Lexeme::Skip),
            // Lifetime / label: the quote plus identifier chars.
            None => (ident_end(src, i + 1), Lexeme::Token(TokKind::Lifetime)),
        },
        b'a'..=b'z' | b'A'..=b'Z' | b'_' => ident(ident_end(src, i + 1)),
        b'0'..=b'9' => {
            let (end, is_float) = number_end(src, i);
            let kind = if is_float {
                TokKind::Float
            } else {
                TokKind::Int
            };
            (end, Lexeme::Token(kind))
        }
        0x80..=0xFF => {
            let w = utf8_len(b);
            let c = char_at(src, i).expect("every scan starts on a char boundary");
            if c.is_whitespace() {
                (i + w, Lexeme::Skip)
            } else if c.is_alphabetic() {
                ident(ident_end(src, i + w))
            } else {
                (i + w, Lexeme::Token(TokKind::Punct(&src[i..i + w])))
            }
        }
        // Operators, longest match first; else one punctuation character.
        _ => {
            let rest = &bytes[i..];
            let op = OPERATORS.iter().find(|op| rest.starts_with(op.as_bytes()));
            let end = i + op.map_or(1, |op| op.len());
            (end, Lexeme::Token(TokKind::Punct(&src[i..end])))
        }
    }
}

/// Whether `b` continues a multi-byte UTF-8 character.
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

/// Byte length of the UTF-8 character whose first byte is `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0x80..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The character starting at byte `j`, if `j` is a char boundary in range.
fn char_at(src: &str, j: usize) -> Option<char> {
    src.get(j..)?.chars().next()
}

/// Byte index of the character that ends at byte `j` (`j > 0`).
fn prev_char(bytes: &[u8], mut j: usize) -> usize {
    j -= 1;
    while is_continuation(bytes[j]) {
        j -= 1;
    }
    j
}

/// Byte index past the run of identifier characters (`_` or Unicode
/// alphanumerics) starting at `j`.
fn ident_end(src: &str, mut j: usize) -> usize {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(j) {
        if b.is_ascii_alphanumeric() || b == b'_' {
            j += 1;
        } else if !b.is_ascii() && char_at(src, j).is_some_and(char::is_alphanumeric) {
            j += utf8_len(b);
        } else {
            break;
        }
    }
    j
}

/// Byte index past the (possibly nested) block comment opening at `i`, or
/// the end of input when it is unterminated.
fn block_comment_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 2;
    let mut depth = 1u32;
    while j < bytes.len() && depth > 0 {
        match (bytes[j], bytes.get(j + 1)) {
            (b'/', Some(b'*')) => {
                depth += 1;
                j += 2;
            }
            (b'*', Some(b'/')) => {
                depth -= 1;
                j += 2;
            }
            _ => j += 1,
        }
    }
    j
}

/// If byte `i` (an `r` or `b`) starts a raw/byte string or byte char
/// (`r"`, `r#"`, `b"`, `br#"`, `b'x'`; `rb"` is not legal Rust but
/// tolerated), returns the byte index past the whole literal.
fn prefixed_literal_end(src: &str, i: usize) -> Option<usize> {
    let bytes = src.as_bytes();
    let mut j = i;
    let mut raw = false;
    // Up to two prefix letters (b, r in either order — only br/r/b are legal).
    for _ in 0..2 {
        match bytes.get(j) {
            Some(b'r') => {
                raw = true;
                j += 1;
            }
            Some(b'b') => j += 1,
            _ => break,
        }
    }
    if raw {
        let hashes = bytes[j..].iter().take_while(|&&b| b == b'#').count();
        j += hashes;
        if bytes.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        // Scan until `"` followed by `hashes` hashes.
        while j < bytes.len() {
            if bytes[j] == b'"' {
                let seen = bytes[j + 1..]
                    .iter()
                    .take(hashes)
                    .take_while(|&&b| b == b'#');
                if seen.count() == hashes {
                    return Some(j + 1 + hashes);
                }
            }
            j += 1;
        }
        return Some(bytes.len());
    }
    // Byte string b"..." (with escapes) or b'x' byte char. Prefix letters
    // followed by anything else were just an identifier starting with b/r.
    match bytes.get(j) {
        Some(b'"') => Some(plain_string_end(bytes, j)),
        Some(b'\'') => char_literal_end(src, j),
        _ => None,
    }
}

/// Byte index past the `"..."` literal opening at `i`, handling `\\` and
/// `\"` escapes; the end of input when it is unterminated.
fn plain_string_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Byte index past the char literal opening at the `'` at `i`, or `None`
/// when the quote opens a lifetime instead.
fn char_literal_end(src: &str, i: usize) -> Option<usize> {
    let bytes = src.as_bytes();
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escape: skip the escaped character, then run to the closing
        // quote (`\u{...}` spans further), stopping at a newline.
        let mut j = (i + 3).min(bytes.len());
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return Some(if bytes.get(j) == Some(&b'\'') {
            j + 1
        } else {
            j
        });
    }
    // 'x' — a char literal only if the character after the payload closes it.
    let close = i + 1 + utf8_len(next);
    (next != b'\'' && bytes.get(close) == Some(&b'\'')).then_some(close + 1)
}

/// Scans the numeric literal at `i`; returns `(end, is_float)`.
fn number_end(src: &str, i: usize) -> (usize, bool) {
    let bytes = src.as_bytes();
    let digits_end = |mut j: usize| {
        while bytes
            .get(j)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'_')
        {
            j += 1;
        }
        j
    };

    // Radix prefixes: 0x / 0o / 0b — always integers.
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'o' | b'b' | b'X')) {
        let run = bytes[i + 2..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_');
        return (i + 2 + run.count(), false);
    }

    let mut j = digits_end(i);
    let mut is_float = false;
    // Fractional part: a '.' followed by a digit, or a terminal '.' that is
    // neither a range operator (`0..n`) nor a method call (`1.max(2)`).
    if bytes.get(j) == Some(&b'.') {
        let after = char_at(src, j + 1);
        let starts_range = after == Some('.');
        let starts_method = after.is_some_and(|c| c.is_alphabetic() || c == '_');
        if !starts_range && !starts_method {
            is_float = true;
            j = digits_end(j + 1);
        }
    }
    // Exponent.
    if matches!(bytes.get(j), Some(b'e' | b'E')) {
        let mut k = j + 1;
        if matches!(bytes.get(k), Some(b'+' | b'-')) {
            k += 1;
        }
        if bytes.get(k).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            j = digits_end(k);
        }
    }
    // Type suffix (u32, f64, …).
    if char_at(src, j).is_some_and(|c| c.is_alphabetic() || c == '_') {
        is_float |= bytes[j] == b'f';
        j = ident_end(src, j);
    }
    (j, is_float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r#"
            // thread_rng in a comment
            /* and HashMap in /* a nested */ block */
            let s = "thread_rng()";
            let r = r#other; // raw-ish ident
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_owned()));
        assert!(!ids.contains(&"HashMap".to_owned()));
        assert!(ids.contains(&"r".to_owned()));
    }

    #[test]
    fn raw_and_byte_strings_are_skipped() {
        let src = "let a = r\"unwrap()\"; let b = b\"expect\"; let c = br#\"x \"q\" y\"#;";
        let ids = idents(src);
        assert_eq!(
            ids,
            vec!["let", "a", "let", "b", "let", "c"],
            "string payloads must not produce tokens"
        );
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        // 'q' and '\n' must not have produced lifetime or ident tokens.
        assert!(!idents(src).contains(&"q".to_owned()));
    }

    #[test]
    fn float_vs_int_vs_range_vs_method() {
        let toks = lex("let a = 1.5; let b = 0..10; let c = 1.max(2); let d = 3.; let e = 1e4; let f = 0x1F; let g = 2f64;");
        let floats = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Float)
            .count();
        // 1.5, 3., 1e4, 2f64 are floats; 0, 10, 1, 2, 0x1F are not.
        assert_eq!(floats, 4, "{:?}", toks.tokens);
    }

    #[test]
    fn operators_are_joined() {
        let toks = lex("a == b != c :: d .. e ..= f");
        let puncts: Vec<&str> = toks.tokens.iter().filter_map(Token::punct).collect();
        assert_eq!(puncts, vec!["==", "!=", "::", "..", "..="]);
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "let a = 1;\n// lint: allow(no-panic)\nlet b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("allow(no-panic)"));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("ab cd\nef");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (1, 4));
        assert_eq!((lexed.tokens[2].line, lexed.tokens[2].col), (2, 1));
    }

    #[test]
    fn deeply_nested_block_comments_terminate() {
        let src = "/* a /* b /* c */ d */ e */ fn ok() {}";
        assert_eq!(idents(src), vec!["fn", "ok"]);
    }

    #[test]
    fn unterminated_nested_comment_swallows_the_rest() {
        // Forgiving lexing: a half-written file must not panic; everything
        // after the unclosed `/*` is comment, not code.
        let src = "fn before() {} /* open /* still open */ fn after() {}";
        assert_eq!(idents(src), vec!["fn", "before"]);
    }

    #[test]
    fn raw_strings_with_hashes_span_lines_and_track_positions() {
        let src = "let a = r##\"multi\nline \"# quote\" unwrap()\"##;\nlet b = 1;";
        let lexed = lex(src);
        assert_eq!(idents(src), vec!["let", "a", "let", "b"]);
        let b_tok = lexed
            .tokens
            .iter()
            .find(|t| t.ident() == Some("b"))
            .expect("b survives");
        assert_eq!(
            b_tok.line, 3,
            "newlines inside raw strings still advance lines"
        );
    }

    #[test]
    fn labeled_loops_and_escaped_quote_chars() {
        let src =
            "fn f() { 'outer: loop { break 'outer; } let q = '\\''; let s: &'static str = \"\"; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3, "two labels plus 'static");
        // The escaped-quote char literal is consumed whole: the tokens after
        // it resume correctly and nothing inside it leaks out as code.
        assert_eq!(
            idents(src),
            vec!["fn", "f", "loop", "break", "let", "q", "let", "s", "str"]
        );
    }

    #[test]
    fn doc_comments_are_comments() {
        let lexed = lex("/// outer doc\n//! inner doc\nfn x() {}\n");
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(idents("/// HashMap\nfn x() {}"), vec!["fn", "x"]);
    }

    /// Edge cases whose token and comment streams are pinned below.
    const EDGE_CORPUS: &[&str] = &[
        // Non-ASCII identifiers.
        "let größe = naïve + Σx + 变量 + ünïcödé_9;",
        // U+00A0, U+2028 and U+3000 whitespace between tokens.
        "a\u{a0}b\u{2028}c\u{3000}d\t\u{b}e\r\nf",
        // Multi-byte and `\u{…}` char literals.
        "let c = 'é'; let d = '\\u{1F600}'; let e = '😀'; let f = '\\n'; let g = '\\'';",
        // `b'…'` byte chars and `r##\"…\"##` raw strings.
        "let b = b'x'; let e = b'\\''; let r = r##\"a \"# b\"##; let s = br#\"q\"#; x",
        // Unterminated literals and comments, each ending in non-ASCII text.
        "let s = \"abc é",
        "let c = '\\u{é",
        "let r = r#\"never closed ü",
        "/* open /* nested */ ÿé",
        "// trailing line comment ✓",
        // Numbers next to dots, methods and suffixes.
        "1.é 0..n 1.max(2) 2f64 1e-3 3. 0x1F 7_u8 1E+5 9.5_f32 1e",
        // Lifetimes and labels, including non-ASCII ones.
        "fn f<'a, 'ä>(x: &'a str) { 'outer: loop { break 'outer; } }",
        // Stray non-ASCII punctuation and control characters.
        "a → b € c © d \u{0} e \u{301}",
        // Doc comments and a waiver.
        "/// outer\n//! inner\n/** block doc */ fn x() {} // lint: allow(no-panic)",
    ];

    #[test]
    fn token_stream_digest_is_pinned() {
        let mut text = String::new();
        let ops = OPERATORS.join(" ");
        let packed = format!("a{}b", OPERATORS.concat());
        for src in EDGE_CORPUS
            .iter()
            .copied()
            .chain([ops.as_str(), packed.as_str()])
        {
            let lexed = lex(src);
            text.push_str(&format!("{:?}\n{:?}\n", lexed.tokens, lexed.comments));
        }
        let digest = crate::symbols::fnv1a(text.as_bytes());
        assert_eq!(digest, 0x4bbc_4a89_b8f4_c542, "token stream moved:\n{text}");
    }

    /// SplitMix64 (DESIGN.md §5), inline so the linter stays dependency-free.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// What the property test builds sources from: every delimiter the
    /// lexer matches, ASCII and multi-byte letters and digits, U+00A0 and
    /// U+2028 whitespace, a combining mark and stray symbols.
    const ALPHABET: &[char] = &[
        'a', 'b', 'r', 'e', 'f', 'x', 'E', '_', '0', '1', '9', '.', '\'', '"', '#', '/', '*', '\\',
        '\n', ' ', '\t', 'u', '{', '}', '(', ')', '<', '>', '=', '!', '&', '|', '+', '-', ':', ';',
        ',', '%', '^', 'é', 'ß', 'Σ', '变', '😀', '٣', '\u{a0}', '\u{2028}', '\u{301}', '€', '→',
        '\u{0}',
    ];

    #[test]
    fn seeded_random_sources_lex_consistently() {
        let mut rng = SplitMix64(0x6C65_7865);
        for _ in 0..20_000 {
            let len = rng.below(48);
            let src: String = (0..len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                .collect();
            let lexed = lex(&src);
            for pair in lexed.tokens.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert!(
                    (a.line, a.col) < (b.line, b.col),
                    "{src:?}: {a:?} then {b:?}"
                );
            }
            let lines: Vec<&str> = src.split('\n').collect();
            for t in &lexed.tokens {
                let (TokKind::Ident(text) | TokKind::Punct(text)) = t.kind else {
                    continue;
                };
                let line = lines[t.line as usize - 1];
                let rest = line
                    .char_indices()
                    .nth(t.col as usize - 1)
                    .map(|(k, _)| &line[k..]);
                assert!(
                    rest.is_some_and(|rest| rest.starts_with(text)),
                    "{src:?}: {t:?} is not at its position"
                );
            }
            for c in &lexed.comments {
                assert!(src.contains(c.text), "{src:?}: {c:?}");
            }
        }
    }
}
