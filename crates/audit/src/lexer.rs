//! A hand-rolled Rust lexer: just enough token structure for the audit
//! passes, in the house style of the `tokenflow-json` parser (byte
//! scanner, no `syn`, no regex).
//!
//! The passes only need to distinguish identifiers, literals, comments,
//! and punctuation, and to know where every token starts — so that is
//! all this lexer produces. Strings (including raw and byte strings),
//! char literals, lifetimes, and nested block comments are lexed
//! precisely so that an `unsafe` inside a string or a `HashMap` inside a
//! doc comment can never confuse a pass. `::` is the one multi-byte
//! punctuator that is coalesced, because the determinism pass matches
//! paths like `Instant::now`.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unsafe`, `HashMap`, `for`, ...).
    Ident,
    /// A numeric literal, including suffixes (`1_000u64`, `0.5`, `0xff`).
    Num,
    /// A string literal of any flavor (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation byte, except `::` which is one token.
    Punct,
    /// A `//` comment, doc or plain, text including the slashes.
    LineComment,
    /// A `/* ... */` comment (nesting handled), text including markers.
    BlockComment,
}

/// One lexeme with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The lexeme kind.
    pub kind: TokKind,
    /// The raw source text of the lexeme.
    pub text: String,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte.
    pub col: u32,
}

impl Tok {
    /// True for the comment kinds.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// True when this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True when this is a punctuator with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn text_since(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.b[start..self.pos]).into_owned()
    }

    fn line_comment(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        self.text_since(start)
    }

    fn block_comment(&mut self) -> String {
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate, we are a linter
            }
        }
        self.text_since(start)
    }

    /// Consumes a `"..."` body (opening quote already consumed by the
    /// caller when `raw_hashes` is `None`; raw strings skip escapes).
    fn string_body(&mut self, raw_hashes: Option<usize>) {
        match raw_hashes {
            None => {
                while let Some(c) = self.bump() {
                    match c {
                        b'"' => return,
                        b'\\' => {
                            self.bump();
                        }
                        _ => {}
                    }
                }
            }
            Some(hashes) => {
                while let Some(c) = self.bump() {
                    if c == b'"' {
                        let mut ok = true;
                        for i in 0..hashes {
                            if self.peek_at(i) != Some(b'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for _ in 0..hashes {
                                self.bump();
                            }
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Lexes after a `'`: a lifetime, or a char literal.
    fn lifetime_or_char(&mut self) {
        // `'a'` is a char; `'a` / `'static` / `'_` are lifetimes. The
        // disambiguator: an ident char followed by a closing quote is a
        // char literal, otherwise a run of ident chars is a lifetime.
        let first = self.peek();
        if first.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            && self.peek_at(1) != Some(b'\'')
        {
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.bump();
            }
            return; // lifetime
        }
        // Char literal: consume to the closing quote, honoring escapes.
        loop {
            match self.bump() {
                None | Some(b'\'') => return,
                Some(b'\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
    }

    fn number(&mut self) {
        loop {
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.bump();
            }
            // Exponent sign: `1e-3` / `2.5E+7`.
            let prev = self.b[self.pos - 1];
            if (prev == b'e' || prev == b'E')
                && matches!(self.peek(), Some(b'+' | b'-'))
                && self.peek_at(1).is_some_and(|c| c.is_ascii_digit())
            {
                self.bump();
                continue;
            }
            // Fraction: `1.5`, but not the range `1..5` or a method `1.max`.
            if self.peek() == Some(b'.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                continue;
            }
            return;
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes one source file. Never fails: malformed trailing constructs are
/// tolerated (this is a linter, not a compiler front end), but every
/// well-formed Rust file produces a faithful token stream.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut lx = Lexer {
        b: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = lx.peek() {
        if c.is_ascii_whitespace() {
            lx.bump();
            continue;
        }
        let (line, col, start) = (lx.line, lx.col, lx.pos);
        let kind = match c {
            b'/' if lx.peek_at(1) == Some(b'/') => {
                lx.line_comment();
                TokKind::LineComment
            }
            b'/' if lx.peek_at(1) == Some(b'*') => {
                lx.block_comment();
                TokKind::BlockComment
            }
            b'"' => {
                lx.bump();
                lx.string_body(None);
                TokKind::Str
            }
            b'r' | b'b' if raw_string_hashes(&lx).is_some() => {
                let hashes = raw_string_hashes(&lx).expect("checked");
                // Consume the prefix (`r`, `br`), the hashes, the quote.
                while lx.peek() != Some(b'"') {
                    lx.bump();
                }
                lx.bump();
                lx.string_body(Some(hashes));
                TokKind::Str
            }
            b'b' if lx.peek_at(1) == Some(b'"') => {
                lx.bump();
                lx.bump();
                lx.string_body(None);
                TokKind::Str
            }
            b'b' if lx.peek_at(1) == Some(b'\'') => {
                lx.bump();
                lx.bump();
                lx.lifetime_or_char();
                TokKind::Char
            }
            b'\'' => {
                lx.bump();
                let before = lx.pos;
                lx.lifetime_or_char();
                // Lifetimes never contain a closing quote.
                if lx.b[before..lx.pos].contains(&b'\'') {
                    TokKind::Char
                } else {
                    TokKind::Lifetime
                }
            }
            c if is_ident_start(c) => {
                while lx.peek().is_some_and(is_ident_continue) {
                    lx.bump();
                }
                TokKind::Ident
            }
            c if c.is_ascii_digit() => {
                lx.bump();
                lx.number();
                TokKind::Num
            }
            b':' if lx.peek_at(1) == Some(b':') => {
                lx.bump();
                lx.bump();
                TokKind::Punct
            }
            _ => {
                lx.bump();
                TokKind::Punct
            }
        };
        toks.push(Tok {
            kind,
            text: lx.text_since(start),
            line,
            col,
        });
    }
    toks
}

/// If the lexer sits on a raw-string prefix (`r"`, `r#`, `br#`, ...),
/// the number of hashes; `None` otherwise.
fn raw_string_hashes(lx: &Lexer) -> Option<usize> {
    let mut i = 0;
    if lx.peek_at(i) == Some(b'b') {
        i += 1;
    }
    if lx.peek_at(i) != Some(b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while lx.peek_at(i + hashes) == Some(b'#') {
        hashes += 1;
    }
    if lx.peek_at(i + hashes) == Some(b'"') {
        Some(hashes)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_idents_paths_and_positions() {
        let toks = lex("let x = Instant::now();\nmap.keys()");
        assert!(toks[3].is_ident("Instant"));
        assert!(toks[4].is_punct("::"));
        assert!(toks[5].is_ident("now"));
        assert_eq!((toks[3].line, toks[3].col), (1, 9));
        let keys = toks.iter().find(|t| t.is_ident("keys")).expect("keys");
        assert_eq!(keys.line, 2);
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
// unsafe in a line comment
/* unsafe /* nested */ still comment */
let a = "unsafe { }";
let b = r#"HashMap "quoted" unsafe"#;
let c = 'u';
let lt: &'static str = "x";
"##;
        let toks = lex(src);
        let unsafe_code_tokens = toks
            .iter()
            .filter(|t| !t.is_comment() && t.kind != TokKind::Str && t.text.contains("unsafe"))
            .count();
        assert_eq!(unsafe_code_tokens, 0);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            3,
            "two strings plus one raw string"
        );
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "'u'"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let toks = kinds("for i in 0..n { x[i] = 1.5e-3; y = 1.max(2); }");
        assert!(toks.contains(&(TokKind::Num, "0".to_string())));
        assert!(toks.contains(&(TokKind::Num, "1.5e-3".to_string())));
        assert!(toks.contains(&(TokKind::Num, "1".to_string())));
        assert!(toks.contains(&(TokKind::Ident, "max".to_string())));
    }

    #[test]
    fn byte_and_escaped_char_literals() {
        let toks = lex(r#"let nl = b'\n'; let q = '\''; let bs = b"x";"#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }
}
