//! A lossless, hand-rolled Rust tokenizer, and the per-line view built
//! from it.
//!
//! Both rule families read this one lexer. The dataflow passes
//! ([`parse`](crate::parse), [`callgraph`](crate::callgraph),
//! [`taint`](crate::taint)) need real token boundaries: function headers,
//! call paths, turbofish, nested closures. The lexical rules and the
//! suppression lookups read [`line_view`], which resolves each line's
//! literals, comments and test gating from the same tokens. The build
//! environment has no registry access, so `syn`/`proc-macro2` are off the
//! table; this module is a small lexer written directly against the byte
//! stream.
//!
//! Invariants:
//!
//! * **Lossless tiling** — the tokens partition the input exactly: the
//!   concatenation of every token's span reproduces the source byte for
//!   byte. A property test in `tests/tokens_roundtrip.rs` holds this over
//!   every source file in the workspace and over generated token soup.
//! * **Never panics** — malformed input (unterminated strings or comments)
//!   degrades to a single token running to end of file.
//! * **Modern literals** — raw strings with any hash depth, byte strings,
//!   C strings (`c"…"`, `cr#"…"#`, Rust 1.77), byte chars, raw identifiers
//!   and nested block comments are all single tokens.
//!
//! Offsets are byte offsets into the source. Multi-byte UTF-8 sequences can
//! only occur *inside* tokens (string/comment/identifier interiors), never
//! across a token boundary, because every boundary byte is ASCII.

/// The lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` to end of line (newline excluded).
    LineComment,
    /// `/* … */`, nested; unterminated runs to EOF.
    BlockComment,
    /// Cooked string literals: `"…"`, `b"…"`, `c"…"`.
    Str,
    /// Raw string literals: `r"…"`, `r#"…"#`, `br#"…"#`, `cr#"…"#`.
    RawStr,
    /// Char literals: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Lifetimes and loop labels: `'a`, `'static`, `'outer`.
    Lifetime,
    /// Identifiers and keywords, including raw identifiers (`r#type`).
    Ident,
    /// Numeric literals, including suffixes and exponents.
    Number,
    /// A single punctuation byte. Multi-byte operators (`::`, `->`) are
    /// adjacent `Punct` tokens; consumers join them by span adjacency.
    Punct,
}

impl TokenKind {
    /// True for kinds whose text is literal or comment content — the kinds
    /// the rule matchers must never look inside.
    pub fn is_masked(self) -> bool {
        matches!(
            self,
            TokenKind::LineComment
                | TokenKind::BlockComment
                | TokenKind::Str
                | TokenKind::RawStr
                | TokenKind::Char
        )
    }
}

/// One token: a kind plus its byte span and starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: usize,
}

impl Token {
    /// The token's text within `src`. `src` must be the string the token
    /// was produced from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// Is this byte an identifier start? Non-ASCII bytes are treated as
/// identifier bytes so Unicode identifiers stay single tokens.
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// Does this byte extend an identifier?
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Emit a token covering `start..self.pos`, counting the newlines the
    /// span crossed.
    fn emit(&mut self, kind: TokenKind, start: usize, out: &mut Vec<Token>) {
        let line = self.line;
        self.line += self.src[start..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        out.push(Token {
            kind,
            start,
            end: self.pos,
            line,
        });
    }

    /// Consume a cooked (escaped) string body after its opening quote,
    /// through the closing quote or EOF.
    fn cooked_string_body(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => {
                    // Skip the escape introducer and the escaped byte. A
                    // backslash at EOF just ends the token.
                    self.pos = (self.pos + 2).min(self.src.len());
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Consume a raw string body after its opening quote, through `"` plus
    /// `hashes` hash bytes, or EOF.
    fn raw_string_body(&mut self, hashes: usize) {
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                let tail = &self.src[self.pos + 1..];
                if tail.len() >= hashes && tail[..hashes].iter().all(|&b| b == b'#') {
                    self.pos += 1 + hashes;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// At a `r`/`b`/`c` prefix byte: if a raw/cooked prefixed literal (or a
    /// raw identifier, or a byte char) starts here, consume it and return
    /// its kind. Otherwise leave the position untouched.
    fn prefixed_literal(&mut self) -> Option<TokenKind> {
        let b0 = self.src[self.pos];
        // `br` / `cr` two-byte raw prefixes; `r` alone.
        let raw_at = match b0 {
            b'r' => Some(1),
            b'b' | b'c' if self.peek(1) == Some(b'r') => Some(2),
            _ => None,
        };
        if let Some(skip) = raw_at {
            let mut hashes = 0;
            while self.peek(skip + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(skip + hashes) == Some(b'"') {
                self.pos += skip + hashes + 1;
                self.raw_string_body(hashes);
                return Some(TokenKind::RawStr);
            }
        }
        // Raw identifier `r#ident`.
        if b0 == b'r'
            && self.peek(1) == Some(b'#')
            && self.peek(2).map(is_ident_start).unwrap_or(false)
        {
            self.pos += 2;
            while self.peek(0).map(is_ident_continue).unwrap_or(false) {
                self.pos += 1;
            }
            return Some(TokenKind::Ident);
        }
        // Cooked prefixed strings `b"…"`, `c"…"`.
        if (b0 == b'b' || b0 == b'c') && self.peek(1) == Some(b'"') {
            self.pos += 2;
            self.cooked_string_body();
            return Some(TokenKind::Str);
        }
        // Byte char `b'x'`.
        if b0 == b'b' && self.peek(1) == Some(b'\'') {
            self.pos += 1;
            self.char_or_lifetime();
            return Some(TokenKind::Char);
        }
        None
    }

    /// At a `'`: consume either a char literal (returning `Char`) or a
    /// lifetime/label (returning `Lifetime`).
    fn char_or_lifetime(&mut self) -> TokenKind {
        debug_assert_eq!(self.peek(0), Some(b'\''));
        match self.peek(1) {
            // Escaped char literal: consume through the closing quote.
            Some(b'\\') => {
                self.pos += 2; // quote + backslash
                if self.pos < self.src.len() {
                    self.pos += 1; // the escaped byte
                }
                while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                    self.pos += 1;
                }
                self.pos = (self.pos + 1).min(self.src.len());
                TokenKind::Char
            }
            Some(next) => {
                // Width of the single character between the quotes; multi-
                // byte UTF-8 chars ('é') are one character.
                let width = if next < 0x80 {
                    1
                } else {
                    utf8_width(next) as usize
                };
                if next != b'\'' && self.peek(1 + width) == Some(b'\'') {
                    self.pos += 2 + width;
                    TokenKind::Char
                } else {
                    // Lifetime or label: `'` plus an identifier run.
                    self.pos += 1;
                    while self.peek(0).map(is_ident_continue).unwrap_or(false) {
                        self.pos += 1;
                    }
                    TokenKind::Lifetime
                }
            }
            // A quote at EOF degrades to a lone punct-like lifetime.
            None => {
                self.pos += 1;
                TokenKind::Lifetime
            }
        }
    }

    /// At a digit: consume a numeric literal, including `_` separators,
    /// radix prefixes, one fractional part, exponent signs and type
    /// suffixes. Method calls on integers (`1.max(2)`) and ranges (`1..5`)
    /// stop before the dot.
    fn number(&mut self) {
        let mut seen_dot = false;
        // Radix-prefixed literals (`0x…`, `0b…`, `0o…`) contain no
        // exponent, so an e/E inside them never absorbs a following sign.
        let radix_prefixed = self.peek(0) == Some(b'0')
            && matches!(
                self.peek(1),
                Some(b'x') | Some(b'X') | Some(b'b') | Some(b'o')
            );
        self.pos += 1;
        loop {
            match self.peek(0) {
                Some(b) if is_ident_continue(b) => self.pos += 1,
                // Exponent sign, only directly after an e/E in a decimal
                // literal (`1e-5`, `2.5E+8`).
                Some(b'+') | Some(b'-')
                    if !radix_prefixed
                        && matches!(self.src.get(self.pos - 1), Some(b'e') | Some(b'E')) =>
                {
                    self.pos += 1;
                }
                Some(b'.') if !seen_dot => {
                    match self.peek(1) {
                        // `1..5` is a range, `1.max()` a method call.
                        Some(next) if next == b'.' || is_ident_start(next) => return,
                        _ => {
                            seen_dot = true;
                            self.pos += 1;
                        }
                    }
                }
                _ => return,
            }
        }
    }
}

/// Expected UTF-8 sequence length from a leading byte; 1 for malformed
/// leads, so the lexer never stalls.
fn utf8_width(lead: u8) -> u8 {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Tokenize a whole source file. The result tiles the input: token spans
/// are contiguous, in order, and cover every byte.
pub fn tokenize(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::with_capacity(src.len() / 4);
    while lx.pos < lx.src.len() {
        let start = lx.pos;
        let b = lx.src[lx.pos];
        let kind = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                while matches!(
                    lx.peek(0),
                    Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n')
                ) {
                    lx.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if lx.peek(1) == Some(b'/') => {
                while lx.peek(0).map(|b| b != b'\n').unwrap_or(false) {
                    lx.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if lx.peek(1) == Some(b'*') => {
                lx.pos += 2;
                let mut depth = 1usize;
                while depth > 0 && lx.pos < lx.src.len() {
                    if lx.peek(0) == Some(b'*') && lx.peek(1) == Some(b'/') {
                        depth -= 1;
                        lx.pos += 2;
                    } else if lx.peek(0) == Some(b'/') && lx.peek(1) == Some(b'*') {
                        depth += 1;
                        lx.pos += 2;
                    } else {
                        lx.pos += 1;
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                lx.pos += 1;
                lx.cooked_string_body();
                TokenKind::Str
            }
            b'r' | b'b' | b'c' => match lx.prefixed_literal() {
                Some(kind) => kind,
                None => {
                    while lx.peek(0).map(is_ident_continue).unwrap_or(false) {
                        lx.pos += 1;
                    }
                    TokenKind::Ident
                }
            },
            b'\'' => lx.char_or_lifetime(),
            _ if is_ident_start(b) => {
                while lx.peek(0).map(is_ident_continue).unwrap_or(false) {
                    lx.pos += 1;
                }
                TokenKind::Ident
            }
            _ if b.is_ascii_digit() => {
                lx.number();
                TokenKind::Number
            }
            _ => {
                lx.pos += 1;
                TokenKind::Punct
            }
        };
        lx.emit(kind, start, &mut out);
    }
    out
}

/// One source line with its lexical context resolved: what the lexical
/// rules match against and where suppressions are read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The original line text.
    pub raw: String,
    /// The line with string/char literals and comments masked to spaces.
    /// Rule matching runs against this view.
    pub code: String,
    /// Comment text found on this line (line comments after their `//`,
    /// block-comment interiors without their delimiters), for suppression
    /// parsing.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]`-gated item or is the
    /// attribute/header line of one.
    pub in_test: bool,
}

/// Does an attribute gate test code? `attr` is its text from just after
/// `#[`, whitespace removed: `cfg(test)`, `cfg(all(test, …))`,
/// `cfg(any(test, …))` and `test]` gate. The line view and the parser
/// share this one list.
pub(crate) fn is_test_gate(attr: &str) -> bool {
    ["cfg(test)", "cfg(all(test", "cfg(any(test", "test]"]
        .iter()
        .any(|gate| attr.starts_with(gate))
}

/// Split a source file into lines exactly as [`str::lines`] does, and
/// resolve each line from the token stream: literal and comment text is
/// masked out of `code`, comment text is kept in `comment`, and lines of a
/// test-gated item are marked `in_test`. A test attribute (`#[test]`,
/// `#[cfg(test)]`, …) gates its item through the `}` matching the item's
/// first `{`, or up to the next `;` when the item has no body.
pub fn line_view(src: &str) -> Vec<Line> {
    let tokens = tokenize(src);
    let bytes = src.as_bytes();
    // The token holding the current byte; tokens tile the source.
    let mut t = 0;
    let mut depth: usize = 0;
    // Brace depths at which a test-gated item opened.
    let mut test_stack: Vec<usize> = Vec::new();
    // A test attribute was seen and its item's `{` has not yet opened.
    let mut pending_attr = false;
    // End of the block-comment delimiter (`/*` or `*/`) being skipped.
    let mut delim_end = 0;
    let mut line_start = 0;
    let mut out = Vec::new();
    for (idx, piece) in src.split_inclusive('\n').enumerate() {
        // What `str::lines` strips: a final `\n`, then a `\r` before it.
        let raw = piece
            .strip_suffix('\n')
            .map_or(piece, |l| l.strip_suffix('\r').unwrap_or(l));
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut in_test = pending_attr || !test_stack.is_empty();
        for (off, c) in raw.char_indices() {
            let pos = line_start + off;
            while tokens[t].end <= pos {
                t += 1;
            }
            let tok = &tokens[t];
            if tok.kind.is_masked() {
                code.push(' ');
                let is_text = match tok.kind {
                    TokenKind::LineComment => pos >= tok.start + 2,
                    TokenKind::BlockComment if pos < delim_end => false,
                    TokenKind::BlockComment => {
                        let delim = matches!(bytes[pos..], [b'/', b'*', ..] | [b'*', b'/', ..]);
                        if delim {
                            delim_end = pos + 2;
                        }
                        !delim
                    }
                    _ => false,
                };
                if is_text {
                    comment.push(c);
                }
                continue;
            }
            code.push(c);
            if tok.kind != TokenKind::Punct {
                continue;
            }
            match c {
                '#' => {
                    let squashed: String =
                        raw[off..].chars().filter(|c| !c.is_whitespace()).collect();
                    if squashed.strip_prefix("#[").is_some_and(is_test_gate) {
                        pending_attr = true;
                        in_test = true;
                    }
                }
                '{' => {
                    depth += 1;
                    if pending_attr {
                        test_stack.push(depth);
                        pending_attr = false;
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // An attribute that gated a braceless item (e.g.
                // `#[cfg(test)] use ...;`) is spent at the semicolon.
                ';' => pending_attr = false,
                _ => {}
            }
        }
        line_start += piece.len();
        out.push(Line {
            number: idx + 1,
            raw: raw.to_string(),
            code,
            comment,
            in_test,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = tokenize(src).iter().map(|t| t.text(src)).collect();
        assert_eq!(joined, src, "tokens must tile the input losslessly");
    }

    #[test]
    fn basic_items_tokenize() {
        let toks = kinds("pub fn f(x: u64) -> u64 { x + 1 }");
        assert_eq!(toks[0], (TokenKind::Ident, "pub".to_string()));
        assert_eq!(toks[2], (TokenKind::Ident, "fn".to_string()));
        assert!(toks.contains(&(TokenKind::Number, "1".to_string())));
        roundtrip("pub fn f(x: u64) -> u64 { x + 1 }");
    }

    #[test]
    fn strings_and_comments_are_single_masked_tokens() {
        let src = "let a = \"x \\\" y\"; // trailing\n/* block /* nested */ done */ b";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Str, "\"x \\\" y\"".to_string())));
        assert!(toks.contains(&(TokenKind::LineComment, "// trailing".to_string())));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::BlockComment && t.contains("nested")));
        roundtrip(src);
    }

    #[test]
    fn raw_and_c_strings_span_lines() {
        for src in [
            "let a = r#\"one \"two\"\nthree\"#; after();",
            "let a = br##\"bytes \"# inside\nmore\"##; after();",
            "let a = cr#\"c raw \"q\"\nuse std::collections::HashMap;\"#; after();",
            "let a = c\"c cooked\nstill\"; after();",
        ] {
            roundtrip(src);
            let toks = tokenize(src);
            let masked_text: String = toks
                .iter()
                .filter(|t| t.kind.is_masked())
                .map(|t| t.text(src))
                .collect();
            assert!(
                masked_text.contains('\n'),
                "literal should span lines in {src:?}"
            );
            assert!(
                toks.iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text(src) == "after"),
                "code after the literal must resurface in {src:?}"
            );
            assert!(
                !toks
                    .iter()
                    .any(|t| !t.kind.is_masked() && t.text(src).contains("HashMap")),
                "literal interior leaked into code view in {src:?}"
            );
        }
    }

    #[test]
    fn chars_lifetimes_and_raw_idents() {
        let src = "fn f<'a>(c: char) { if c == '{' { g('\\n', b'x', 'é'); } let r#type = 'l'; }";
        roundtrip(src);
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "'{'".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "'\\n'".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "b'x'".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "'é'".to_string())));
        assert!(toks.contains(&(TokenKind::Ident, "r#type".to_string())));
    }

    #[test]
    fn numbers_keep_suffixes_and_stop_at_ranges() {
        let src = "let a = 1_000u64 + 0x1f + 1.5e-9 + 2f64; let r = 1..5; let m = 1.max(2);";
        roundtrip(src);
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Number, "1_000u64".to_string())));
        assert!(toks.contains(&(TokenKind::Number, "0x1f".to_string())));
        assert!(toks.contains(&(TokenKind::Number, "1.5e-9".to_string())));
        assert!(toks.contains(&(TokenKind::Number, "2f64".to_string())));
        assert!(
            toks.contains(&(TokenKind::Number, "1".to_string())),
            "range lhs"
        );
        assert!(toks.contains(&(TokenKind::Ident, "max".to_string())));
    }

    #[test]
    fn unterminated_literals_degrade_to_eof() {
        for src in ["let a = \"open", "let a = r#\"open", "/* open", "let c = '"] {
            roundtrip(src);
        }
    }

    #[test]
    fn line_numbers_track_newlines_inside_tokens() {
        let src = "a\n/* x\ny */\nb";
        let toks = tokenize(src);
        let b = toks
            .iter()
            .find(|t| t.text(src) == "b")
            .map(|t| t.line)
            .unwrap_or(0);
        assert_eq!(b, 4);
    }

    fn code_of(src: &str) -> Vec<String> {
        line_view(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn masks_string_literals() {
        let c = code_of("let x = \"panic!(boom)\";");
        assert!(!c[0].contains("panic!"));
        assert!(c[0].contains("let x ="));
        assert!(c[0].ends_with(';'));
    }

    #[test]
    fn masks_raw_strings_with_hashes() {
        let c = code_of("let x = r#\"a \"quoted\" unwrap()\"#; x.touch();");
        assert!(!c[0].contains("unwrap"));
        assert!(c[0].contains("x.touch()"));
    }

    #[test]
    fn masks_line_and_block_comments_but_keeps_text() {
        let lines = line_view("foo(); // has .unwrap() inside\nbar(); /* block todo!() */ baz();");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("has .unwrap() inside"));
        assert!(!lines[1].code.contains("todo!"));
        assert!(lines[1].code.contains("baz()"));
        assert!(lines[1].comment.contains("block todo!()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = line_view("/* outer /* inner */ still comment unwrap() */\ncode();");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[1].code.contains("code()"));
    }

    #[test]
    fn strings_span_lines() {
        let lines = line_view("let s = \"first unwrap()\nsecond panic!\";\nafter();");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(!lines[1].code.contains("panic!"));
        assert!(lines[2].code.contains("after()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let c = code_of("fn f<'a>(x: &'a str) { if c == '{' { g('\\n'); } }");
        // The literal braces must not disturb matching — they are masked.
        assert!(c[0].contains("fn f<'a>(x: &'a str)"));
        assert!(!c[0].contains("'{'"));
        assert!(!c[0].contains("\\n"));
    }

    #[test]
    fn cfg_test_module_is_tracked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}";
        let lines = line_view(src);
        assert!(!lines[0].in_test, "library fn marked as test");
        assert!(lines[1].in_test, "attribute line");
        assert!(lines[2].in_test, "mod header");
        assert!(lines[3].in_test, "test body");
        assert!(lines[4].in_test, "closing brace");
        assert!(!lines[5].in_test, "library code after the test mod");
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn lib() { x.unwrap(); }";
        let lines = line_view(src);
        assert!(lines[1].in_test);
        assert!(!lines[2].in_test, "attribute leaked past the use item");
    }

    #[test]
    fn attr_and_brace_on_one_line() {
        let lines = line_view("#[cfg(test)] mod t { fn f() {} }\nfn lib() {}");
        assert!(lines[0].in_test);
        assert!(!lines[1].in_test);
    }

    #[test]
    fn c_strings_are_masked_including_multiline() {
        // Pre-fix, `cr#"` lexed as ident `c`, ident-continue `r`, code `#`,
        // then a cooked string the interior quote closed early — leaking
        // literal text into the code view of the following lines.
        let src = "let plan = cr#\"shard \"alpha includes\nuse std::collections::HashMap;\nand Instant::now() markers\"#;\nafter();";
        let lines = line_view(src);
        assert!(!lines[0].code.contains("alpha"));
        assert!(
            !lines[1].code.contains("HashMap"),
            "phantom code in c-string"
        );
        assert!(
            !lines[2].code.contains("Instant"),
            "phantom code in c-string"
        );
        assert!(lines[2].code.ends_with(';'));
        assert!(lines[3].code.contains("after()"));

        let c = code_of("let s = c\"panic!\"; s.touch();");
        assert!(!c[0].contains("panic!"));
        assert!(c[0].contains("s.touch()"));
    }

    #[test]
    fn byte_char_prefix_is_masked() {
        let c = code_of("if b == b'x' { f(); }");
        assert!(!c[0].contains("b'x'"));
        assert!(!c[0].contains("'x'"));
        assert!(c[0].contains("f()"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let c = code_of("let r#type = 1; other.unwrap();");
        assert!(
            c[0].contains("unwrap"),
            "raw identifier ate the rest of the line"
        );
    }

    #[test]
    fn crlf_lines_match_lf_lines() {
        let lf = "fn lib() { x.unwrap(); } // lint:allow(RL001, reason)\n\
                  let s = \"two\n  lines\"; /* block\n  comment */ f();\n\
                  #[cfg(test)]\nmod t {\n    let r = r#\"raw\"#;\n}\nafter();\n";
        let crlf = lf.replace('\n', "\r\n");
        let view = |src: &str| -> Vec<(usize, String, String, String, bool)> {
            line_view(src)
                .into_iter()
                .map(|l| (l.number, l.raw, l.code, l.comment, l.in_test))
                .collect()
        };
        assert_eq!(view(&crlf), view(lf));
        assert_eq!(line_view(&crlf).len(), crlf.lines().count());
    }
}
