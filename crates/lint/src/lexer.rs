//! A comment/string/raw-string-aware Rust lexer.
//!
//! Deliberately *not* a full Rust lexer: it produces a token tiling that is
//! exact enough for invariant linting — identifiers, punctuation, numeric /
//! string / char literals, lifetimes, and trivia (whitespace + comments) —
//! without external dependencies (`syn` is off the table; the workspace
//! builds offline against vendored stubs only).
//!
//! Two hard guarantees, both property-tested in `tests/lexer_prop.rs`:
//!
//! 1. **Never panics**, for arbitrary input (including invalid Rust,
//!    unterminated strings/comments, and non-ASCII text).
//! 2. **Round-trips**: tokens tile the input exactly — concatenating every
//!    token's span reproduces the source byte-for-byte.
//!
//! Known deviations from rustc's lexer, all harmless for linting purposes:
//! `1.` lexes as `Num(1)` + `Punct(.)`, and a float method call like
//! `1.0e3.sqrt()` splits at the method dot. Nested block comments and raw
//! strings with arbitrary `#` counts are handled correctly.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Run of whitespace (including newlines).
    Whitespace,
    /// `// ...` up to (not including) the newline. Doc comments included.
    LineComment,
    /// `/* ... */`, nested, possibly unterminated (runs to EOF).
    BlockComment,
    /// Identifier or keyword, e.g. `fn`, `unwrap`, `HashMap`.
    Ident,
    /// `'a`, `'_` — a lifetime or loop label.
    Lifetime,
    /// Numeric literal (int or float, any base, with suffix).
    Num,
    /// `"..."`, `b"..."`, `c"..."` — escaped string literal (prefix included).
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#` — raw string literal.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'` — char or byte literal.
    Char,
    /// Any single other character (`.`, `!`, `::` is two of these, …).
    Punct,
}

/// One token: a classified byte span of the source plus its 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Byte offset of the first byte of the span.
    pub start: usize,
    /// Byte offset one past the last byte of the span.
    pub end: usize,
    /// 1-based line number of the span's first byte.
    pub line: u32,
}

impl Tok {
    /// The token's text. `src` must be the string the token was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True for whitespace and comments.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

/// Character cursor over the source. All consumption goes through `bump`,
/// which maintains the byte offset and line count, so spans are always on
/// char boundaries and line numbers are always consistent.
struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// Byte offset of the next un-consumed char.
    offset: usize,
    /// 1-based line of the next un-consumed char.
    line: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.chars().peekable(),
            offset: 0,
            line: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    /// Peek `n` chars ahead (0 = same as `peek`). O(n), used only with n ≤ 2.
    fn peek_nth(&self, n: usize) -> Option<char> {
        self.chars.clone().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn bump_while(&mut self, mut pred: impl FnMut(char) -> bool) {
        while let Some(c) = self.peek() {
            if !pred(c) {
                break;
            }
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `src` into a complete tiling of tokens. Total function: never panics,
/// and the concatenation of all spans equals `src`.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    while let Some(c) = cur.peek() {
        let start = cur.offset;
        let line = cur.line;
        let kind = lex_one(&mut cur, c);
        // lex_one always consumes at least one char, but guard against a
        // logic bug turning into an infinite loop: force progress.
        if cur.offset == start {
            cur.bump();
        }
        toks.push(Tok {
            kind,
            start,
            end: cur.offset,
            line,
        });
    }
    toks
}

/// Dispatch on the first character; consumes one full token.
fn lex_one(cur: &mut Cursor<'_>, c: char) -> TokKind {
    if c.is_whitespace() {
        cur.bump_while(|c| c.is_whitespace());
        return TokKind::Whitespace;
    }
    if c == '/' {
        return match cur.peek_nth(1) {
            Some('/') => {
                cur.bump_while(|c| c != '\n');
                TokKind::LineComment
            }
            Some('*') => {
                lex_block_comment(cur);
                TokKind::BlockComment
            }
            _ => {
                cur.bump();
                TokKind::Punct
            }
        };
    }
    if c == '"' {
        lex_quoted(cur);
        return TokKind::Str;
    }
    if c == '\'' {
        return lex_char_or_lifetime(cur);
    }
    if c.is_ascii_digit() {
        lex_number(cur);
        return TokKind::Num;
    }
    if is_ident_start(c) {
        return lex_ident_or_prefixed_literal(cur);
    }
    cur.bump();
    TokKind::Punct
}

/// `/* ... */` with nesting; unterminated comments run to EOF.
fn lex_block_comment(cur: &mut Cursor<'_>) {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1u32;
    while depth > 0 {
        match cur.peek() {
            None => return,
            Some('*') if cur.peek_nth(1) == Some('/') => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            Some('/') if cur.peek_nth(1) == Some('*') => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            Some(_) => {
                cur.bump();
            }
        }
    }
}

/// `"..."` with `\`-escapes; unterminated strings run to EOF.
fn lex_quoted(cur: &mut Cursor<'_>) {
    cur.bump(); // opening '"'
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // whatever is escaped, even a quote
            }
            '"' => return,
            _ => {}
        }
    }
}

/// Disambiguate `'a` (lifetime / label) from `'x'` / `'\n'` (char literal).
fn lex_char_or_lifetime(cur: &mut Cursor<'_>) -> TokKind {
    // A quote followed by an escape is always a char literal.
    if cur.peek_nth(1) == Some('\\') {
        cur.bump(); // '\''
        cur.bump(); // '\\'
        cur.bump(); // escaped char
                    // Consume to the closing quote (handles '\u{1F600}').
        cur.bump_while(|c| c != '\'' && c != '\n');
        if cur.peek() == Some('\'') {
            cur.bump();
        }
        return TokKind::Char;
    }
    // 'X' — exactly one char then a closing quote.
    if cur.peek_nth(2) == Some('\'') {
        cur.bump();
        cur.bump();
        cur.bump();
        return TokKind::Char;
    }
    // Otherwise a lifetime or loop label: consume the quote + ident run.
    cur.bump();
    cur.bump_while(is_ident_continue);
    TokKind::Lifetime
}

/// Numeric literal: `0x1f_u32`, `1_000`, `1.5e-3f64`, …
fn lex_number(cur: &mut Cursor<'_>) {
    let radix_prefixed = cur.peek() == Some('0')
        && matches!(cur.peek_nth(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
    if radix_prefixed {
        cur.bump();
        cur.bump();
        cur.bump_while(|c| c.is_ascii_alphanumeric() || c == '_');
        return;
    }
    cur.bump_while(|c| c.is_ascii_digit() || c == '_');
    // Fractional part only when followed by a digit, so `1..2` and
    // `x.1.max(y)` split correctly for our purposes.
    if cur.peek() == Some('.') && cur.peek_nth(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        cur.bump_while(|c| c.is_ascii_digit() || c == '_');
    }
    // Exponent.
    if matches!(cur.peek(), Some('e' | 'E')) {
        let (sign, first_digit) = (cur.peek_nth(1), cur.peek_nth(2));
        if sign.is_some_and(|c| c.is_ascii_digit()) {
            cur.bump();
            cur.bump_while(|c| c.is_ascii_digit() || c == '_');
        } else if matches!(sign, Some('+' | '-')) && first_digit.is_some_and(|c| c.is_ascii_digit())
        {
            cur.bump();
            cur.bump();
            cur.bump_while(|c| c.is_ascii_digit() || c == '_');
        }
    }
    // Type suffix (`u32`, `f64`, `usize`).
    cur.bump_while(|c| c.is_ascii_alphanumeric() || c == '_');
}

/// An identifier, unless it is a literal prefix (`r`, `b`, `br`, `rb`, `c`,
/// `cr`) immediately followed by a string/char opener.
fn lex_ident_or_prefixed_literal(cur: &mut Cursor<'_>) -> TokKind {
    let start = cur.offset;
    cur.bump_while(is_ident_continue);
    let len = cur.offset - start;
    // Only 1–2 byte prefixes can introduce literals; longer idents never do.
    if len > 2 {
        return TokKind::Ident;
    }
    let raw_capable = {
        // We cannot slice src here (no reference kept); re-derive from length
        // and the chars we can still see is impossible, so the caller-visible
        // contract is simpler: treat any 1–2 char ident followed by a literal
        // opener as a prefix. rustc would reject invalid prefixes anyway, and
        // for linting, classifying `x"…"` as a string is the safe direction.
        true
    };
    match cur.peek() {
        Some('"') => {
            lex_quoted(cur);
            TokKind::Str
        }
        Some('#') if raw_capable && raw_string_follows(cur) => {
            lex_raw_string(cur);
            TokKind::RawStr
        }
        Some('\'') if len == 1 => {
            // b'x' byte literal; 'peek_nth' from the quote mirrors
            // lex_char_or_lifetime's disambiguation.
            match lex_char_or_lifetime(cur) {
                TokKind::Char => TokKind::Char,
                // `b'static` — a prefix then a lifetime: re-classify as ident
                // plus the lifetime we already consumed. Spans must tile, so
                // keep it one token; Lifetime is the closest classification.
                other => other,
            }
        }
        _ => TokKind::Ident,
    }
}

/// After a potential raw prefix, check `#...#"` actually opens a raw string.
fn raw_string_follows(cur: &mut Cursor<'_>) -> bool {
    let mut look = cur.chars.clone();
    loop {
        match look.next() {
            Some('#') => continue,
            Some('"') => return true,
            _ => return false,
        }
    }
}

/// `r#"..."#` (any number of `#`, including zero handled by the `"` arm of
/// the prefix dispatch). Unterminated raw strings run to EOF.
fn lex_raw_string(cur: &mut Cursor<'_>) {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek() != Some('"') {
        return; // not actually a raw string; spans still tile
    }
    cur.bump(); // opening quote
    'scan: while let Some(c) = cur.bump() {
        if c != '"' {
            continue;
        }
        // Need `hashes` consecutive '#' to close.
        for _ in 0..hashes {
            if cur.peek() == Some('#') {
                cur.bump();
            } else {
                continue 'scan;
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn round_trips(src: &str) {
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut pos = 0usize;
        for t in &toks {
            assert_eq!(t.start, pos, "gap before token in {src:?}");
            rebuilt.push_str(t.text(src));
            pos = t.end;
        }
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn comments_strings_and_raw_strings_are_opaque() {
        let src = r##"// has .unwrap() inside
let s = "panic!(\"no\")"; /* fs::write */ let r = r#"File::create"#;"##;
        let k = kinds(src);
        assert!(k.iter().any(|(_, t)| t == "let"));
        assert!(!k
            .iter()
            .any(|(kind, t)| *kind == TokKind::Ident && t == "unwrap"));
        assert!(!k
            .iter()
            .any(|(kind, t)| *kind == TokKind::Ident && t == "write"));
        assert!(!k
            .iter()
            .any(|(kind, t)| *kind == TokKind::Ident && t == "create"));
        round_trips(src);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let k = kinds(src);
        assert!(k.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert!(k.contains(&(TokKind::Char, "'x'".to_string())));
        round_trips(src);
        round_trips(r"let c = '\n'; let u = '\u{1F600}'; let b = b'x';");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let k = kinds(src);
        assert_eq!(k[0], (TokKind::Ident, "fn".to_string()));
        round_trips(src);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* abc", "r#\"abc", "'", "'\\", "b\"", "0x"] {
            round_trips(src);
        }
    }

    #[test]
    fn numbers_and_ranges() {
        round_trips("let x = 1..2; let y = 1.5e-3f64; let z = 0xff_u8; a[1].b");
        let k = kinds("1..2");
        assert_eq!(
            k,
            vec![
                (TokKind::Num, "1".to_string()),
                (TokKind::Punct, ".".to_string()),
                (TokKind::Punct, ".".to_string()),
                (TokKind::Num, "2".to_string()),
            ]
        );
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let src = "a\nb\n  c";
        let t: Vec<(String, u32)> = lex(src)
            .iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.text(src).to_string(), t.line))
            .collect();
        assert_eq!(
            t,
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 2),
                ("c".to_string(), 3)
            ]
        );
    }
}
