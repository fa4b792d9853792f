//! The tokenizer.
//!
//! XQuery has no reserved words — every keyword is also a valid NCName
//! — so the lexer emits *names* and the parser decides contextually
//! whether `for`, `while`, `iterate`, … are keywords. The lexer also
//! exposes raw character-level access used by the parser for direct
//! element constructors, whose content is not token-structured.
//!
//! Comments `(: … :)` nest and are skipped as whitespace.

use std::borrow::Cow;
use std::fmt;

use xdm::atomic::AtomicValue;
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};

/// A token kind. Names, decimals and strings borrow the source, so
/// lexing a text allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// A name, possibly prefixed: (`prefix?`, `local`). Keywords
    /// arrive as unprefixed names.
    Name(Option<&'a str>, &'a str),
    /// `$name` — (`prefix?`, `local`).
    Var(Option<&'a str>, &'a str),
    /// `prefix:*`
    PrefixWildcard(&'a str),
    /// `*:local`
    LocalWildcard(&'a str),
    /// `*:*`
    FullWildcard,
    /// A string literal, its escapes checked.
    Str(StrLit<'a>),
    /// An integer literal.
    Int(i64),
    /// A decimal literal (raw text; exactness preserved).
    Dec(&'a str),
    /// A double literal.
    Dbl(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:=`
    ColonEq,
    /// `::`
    ColonColon,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    LtLt,
    /// `>>`
    GtGt,
    /// `/`
    Slash,
    /// `//`
    SlashSlash,
    /// `@`
    At,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `|`
    Pipe,
    /// `?`
    Question,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Is this token the given unprefixed keyword/name?
    pub fn is_name(&self, kw: &str) -> bool {
        matches!(self, Tok::Name(None, n) if *n == kw)
    }

    /// The value of a literal token, `None` for any other token. A
    /// decimal beyond `xs:decimal`'s range is an error.
    pub fn literal_value(&self) -> Option<XdmResult<AtomicValue>> {
        Some(Ok(match *self {
            Tok::Int(i) => AtomicValue::Integer(i),
            Tok::Dec(s) => match Decimal::parse(s) {
                Ok(d) => AtomicValue::Decimal(d),
                Err(e) => return Some(Err(e)),
            },
            Tok::Dbl(d) => AtomicValue::Double(d),
            Tok::Str(s) => AtomicValue::String(s.value().into()),
            _ => return None,
        }))
    }
}

/// A string literal as written: the text between its quotes, whose
/// escapes the lexer has checked. [`StrLit::value`] decodes it.
#[derive(Clone, Copy, PartialEq)]
pub struct StrLit<'a> {
    raw: &'a str,
    quote: u8,
    /// The literal holds a doubled quote or a reference.
    escaped: bool,
}

impl<'a> StrLit<'a> {
    /// The literal's value: its text with each doubled quote and each
    /// entity or character reference decoded. Borrowed when it has
    /// none.
    pub fn value(&self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        let mut rest = self.raw;
        while let Some(c) = rest.chars().next() {
            if c as u32 == u32::from(self.quote) {
                // A doubled quote: the lexer let no single one through.
                out.push(c);
                rest = &rest[2..];
            } else if let (true, Some(semi)) = (c == '&', rest.find(';')) {
                out.push(entity(&rest[1..semi]).unwrap_or(char::REPLACEMENT_CHARACTER));
                rest = &rest[semi + 1..];
            } else {
                out.push(c);
                rest = &rest[c.len_utf8()..];
            }
        }
        Cow::Owned(out)
    }
}

impl fmt::Debug for StrLit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.value(), f)
    }
}

/// The character the reference `&body;` stands for, or the lexer's
/// complaint about it.
fn entity(body: &str) -> Result<char, String> {
    let bad = || "bad character reference".to_string();
    Ok(match body {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "quot" => '"',
        "apos" => '\'',
        _ if body.starts_with("#x") || body.starts_with("#X") => {
            u32::from_str_radix(&body[2..], 16).ok().and_then(char::from_u32).ok_or_else(bad)?
        }
        _ if body.starts_with('#') => {
            body[1..].parse::<u32>().ok().and_then(char::from_u32).ok_or_else(bad)?
        }
        _ => return Err(format!("unknown entity &{body};")),
    })
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// The kind.
    pub tok: Tok<'a>,
    /// Start byte offset.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

/// The character-level scanner.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c >= 0x80
}

impl<'a> Lexer<'a> {
    /// Create a lexer over a source string.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, bytes: src.as_bytes(), pos: 0 }
    }

    /// The full source (used for error reporting and raw slices).
    pub fn source(&self) -> &'a str {
        self.src
    }

    /// Current byte position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reposition the scanner (used when the parser switches between
    /// token mode and raw constructor mode).
    pub fn set_pos(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Peek the current raw byte.
    pub fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Raw remainder of the input.
    pub fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Advance `n` raw bytes.
    pub fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn err(&self, msg: impl Into<String>) -> XdmError {
        let (line, col) = self.line_col(self.pos);
        XdmError::new(
            ErrorCode::XPST0003,
            format!("lex error at {line}:{col}: {}", msg.into()),
        )
    }

    /// 1-based line/column of a byte offset.
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        let upto = &self.src[..pos.min(self.src.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto.rfind('\n').map(|i| pos - i).unwrap_or(pos + 1);
        (line, col)
    }

    /// Skip whitespace and (nested) comments.
    pub fn skip_trivia(&mut self) -> XdmResult<()> {
        loop {
            match self.peek_byte() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.pos += 1,
                Some(b'(') if self.bytes.get(self.pos + 1) == Some(&b':') => {
                    self.skip_comment()?;
                }
                _ => return Ok(()),
            }
        }
    }

    fn skip_comment(&mut self) -> XdmResult<()> {
        debug_assert!(self.src[self.pos..].starts_with("(:"));
        let start = self.pos;
        self.pos += 2;
        let mut depth = 1;
        while depth > 0 {
            if self.pos >= self.bytes.len() {
                self.pos = start;
                return Err(self.err("unterminated comment"));
            }
            if self.src[self.pos..].starts_with("(:") {
                depth += 1;
                self.pos += 2;
            } else if self.src[self.pos..].starts_with(":)") {
                depth -= 1;
                self.pos += 2;
            } else {
                // Comments may contain arbitrary (multibyte) text:
                // advance by whole characters, not bytes.
                let c = self.src[self.pos..].chars().next().expect("in bounds");
                self.pos += c.len_utf8();
            }
        }
        Ok(())
    }

    fn read_ncname(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek_byte() {
            if is_name_char(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    fn read_string(&mut self, quote: u8) -> XdmResult<StrLit<'a>> {
        debug_assert_eq!(self.peek_byte(), Some(quote));
        self.pos += 1;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek_byte() {
                None => return Err(self.err("unterminated string literal")),
                Some(b) if b == quote => {
                    // Doubled quote is an escape.
                    if self.bytes.get(self.pos + 1) == Some(&quote) {
                        escaped = true;
                        self.pos += 2;
                    } else {
                        let raw = &self.src[start..self.pos];
                        self.pos += 1;
                        return Ok(StrLit { raw, quote, escaped });
                    }
                }
                Some(b'&') => {
                    let semi = self.src[self.pos..]
                        .find(';')
                        .ok_or_else(|| self.err("unterminated entity reference"))?;
                    entity(&self.src[self.pos + 1..self.pos + semi]).map_err(|m| self.err(m))?;
                    escaped = true;
                    self.pos += semi + 1;
                }
                // Quotes and `&` are ASCII, so stepping over a
                // multibyte character byte by byte meets neither.
                Some(_) => self.pos += 1,
            }
        }
    }

    fn read_number(&mut self) -> XdmResult<Tok<'a>> {
        let start = self.pos;
        while matches!(self.peek_byte(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_decimal = false;
        if self.peek_byte() == Some(b'.') {
            // Don't swallow `..` or `1.e` confusion: a dot followed by
            // a digit (or end/non-name) is a decimal point; `1..2`
            // must lex as 1 .. 2.
            if self.bytes.get(self.pos + 1) != Some(&b'.') {
                is_decimal = true;
                self.pos += 1;
                while matches!(self.peek_byte(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
        }
        let mut is_double = false;
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            let mut look = self.pos + 1;
            if matches!(self.bytes.get(look), Some(b'+' | b'-')) {
                look += 1;
            }
            if matches!(self.bytes.get(look), Some(b) if b.is_ascii_digit()) {
                is_double = true;
                self.pos = look;
                while matches!(self.peek_byte(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
        }
        let text = &self.src[start..self.pos];
        if is_double {
            text.parse::<f64>()
                .map(Tok::Dbl)
                .map_err(|_| self.err(format!("bad double literal {text}")))
        } else if is_decimal {
            Ok(Tok::Dec(text))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|_| self.err(format!("integer literal out of range: {text}")))
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> XdmResult<Token<'a>> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(b) = self.peek_byte() else {
            return Ok(Token { tok: Tok::Eof, start, end: start });
        };
        let tok = match b {
            b'"' | b'\'' => Tok::Str(self.read_string(b)?),
            b'0'..=b'9' => self.read_number()?,
            b'.' => {
                if matches!(self.bytes.get(self.pos + 1), Some(d) if d.is_ascii_digit()) {
                    self.read_number()?
                } else if self.bytes.get(self.pos + 1) == Some(&b'.') {
                    self.pos += 2;
                    Tok::DotDot
                } else {
                    self.pos += 1;
                    Tok::Dot
                }
            }
            b'$' => {
                self.pos += 1;
                if !matches!(self.peek_byte(), Some(c) if is_name_start(c)) {
                    return Err(self.err("expected variable name after '$'"));
                }
                let first = self.read_ncname();
                if self.peek_byte() == Some(b':')
                    && matches!(self.bytes.get(self.pos + 1), Some(&c) if is_name_start(c))
                {
                    self.pos += 1;
                    let local = self.read_ncname();
                    Tok::Var(Some(first), local)
                } else {
                    Tok::Var(None, first)
                }
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b'@' => {
                self.pos += 1;
                Tok::At
            }
            b'|' => {
                self.pos += 1;
                Tok::Pipe
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'-' => {
                self.pos += 1;
                Tok::Minus
            }
            b'?' => {
                self.pos += 1;
                Tok::Question
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b'!' => {
                if self.bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Ne
                } else {
                    return Err(self.err("unexpected '!'"));
                }
            }
            b'<' => match self.bytes.get(self.pos + 1) {
                Some(b'=') => {
                    self.pos += 2;
                    Tok::Le
                }
                Some(b'<') => {
                    self.pos += 2;
                    Tok::LtLt
                }
                _ => {
                    self.pos += 1;
                    Tok::Lt
                }
            },
            b'>' => match self.bytes.get(self.pos + 1) {
                Some(b'=') => {
                    self.pos += 2;
                    Tok::Ge
                }
                Some(b'>') => {
                    self.pos += 2;
                    Tok::GtGt
                }
                _ => {
                    self.pos += 1;
                    Tok::Gt
                }
            },
            b'/' => {
                if self.bytes.get(self.pos + 1) == Some(&b'/') {
                    self.pos += 2;
                    Tok::SlashSlash
                } else {
                    self.pos += 1;
                    Tok::Slash
                }
            }
            b':' => {
                if self.bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::ColonEq
                } else if self.bytes.get(self.pos + 1) == Some(&b':') {
                    self.pos += 2;
                    Tok::ColonColon
                } else {
                    return Err(self.err("unexpected ':'"));
                }
            }
            b'*' => {
                // `*:name`, `*:*`, or plain `*`.
                if self.bytes.get(self.pos + 1) == Some(&b':') {
                    match self.bytes.get(self.pos + 2) {
                        Some(&b'*') => {
                            self.pos += 3;
                            Tok::FullWildcard
                        }
                        Some(&c) if is_name_start(c) => {
                            self.pos += 2;
                            Tok::LocalWildcard(self.read_ncname())
                        }
                        _ => {
                            self.pos += 1;
                            Tok::Star
                        }
                    }
                } else {
                    self.pos += 1;
                    Tok::Star
                }
            }
            c if is_name_start(c) => {
                let first = self.read_ncname();
                if self.peek_byte() == Some(b':') {
                    match self.bytes.get(self.pos + 1) {
                        Some(&c2) if is_name_start(c2) => {
                            self.pos += 1;
                            let local = self.read_ncname();
                            Tok::Name(Some(first), local)
                        }
                        Some(&b'*') => {
                            self.pos += 2;
                            Tok::PrefixWildcard(first)
                        }
                        _ => Tok::Name(None, first),
                    }
                } else {
                    Tok::Name(None, first)
                }
            }
            other => {
                return Err(self.err(format!("unexpected character {:?}", other as char)))
            }
        };
        Ok(Token { tok, start, end: self.pos })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lx.next_token().unwrap();
            if t.tok == Tok::Eof {
                return out;
            }
            out.push(t.tok);
        }
    }

    #[test]
    fn names_and_qnames() {
        assert_eq!(
            toks("for $x in cus:CUSTOMER"),
            vec![
                Tok::Name(None, "for"),
                Tok::Var(None, "x"),
                Tok::Name(None, "in"),
                Tok::Name(Some("cus"), "CUSTOMER"),
            ]
        );
    }

    #[test]
    fn axis_vs_qname() {
        assert_eq!(
            toks("child::a"),
            vec![
                Tok::Name(None, "child"),
                Tok::ColonColon,
                Tok::Name(None, "a"),
            ]
        );
    }

    #[test]
    fn wildcards() {
        assert_eq!(toks("*"), vec![Tok::Star]);
        assert_eq!(toks("p:*"), vec![Tok::PrefixWildcard("p")]);
        assert_eq!(toks("*:x"), vec![Tok::LocalWildcard("x")]);
        assert_eq!(toks("*:*"), vec![Tok::FullWildcard]);
        assert_eq!(toks("2 * 3"), vec![Tok::Int(2), Tok::Star, Tok::Int(3)]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42)]);
        assert_eq!(toks("3.14"), vec![Tok::Dec("3.14")]);
        assert_eq!(toks(".5"), vec![Tok::Dec(".5")]);
        assert_eq!(toks("1e3"), vec![Tok::Dbl(1000.0)]);
        assert_eq!(toks("1.5E-1"), vec![Tok::Dbl(0.15)]);
        // `1 to 2` range over ints and the `..` trap.
        assert_eq!(toks("1..2"), vec![Tok::Int(1), Tok::DotDot, Tok::Int(2)]);
    }

    fn string_value(src: &str) -> String {
        match toks(src)[..] {
            [Tok::Str(s)] => s.value().into_owned(),
            ref other => panic!("not one string literal: {other:?}"),
        }
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(string_value("\"a\"\"b\""), "a\"b");
        assert_eq!(string_value("'it''s'"), "it's");
        assert_eq!(string_value("\"x&amp;y\""), "x&y");
        assert_eq!(string_value("\"&#65;\""), "A");
        assert_eq!(string_value("'h\u{e9}&#x41;&lt;'"), "h\u{e9}A<");
        // A literal without escapes borrows the source.
        assert!(matches!(toks("'plain'")[..], [Tok::Str(s)] if matches!(s.value(), Cow::Borrowed("plain"))));
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a := b << c >> d <= e >= f != g"),
            vec![
                Tok::Name(None, "a"),
                Tok::ColonEq,
                Tok::Name(None, "b"),
                Tok::LtLt,
                Tok::Name(None, "c"),
                Tok::GtGt,
                Tok::Name(None, "d"),
                Tok::Le,
                Tok::Name(None, "e"),
                Tok::Ge,
                Tok::Name(None, "f"),
                Tok::Ne,
                Tok::Name(None, "g"),
            ]
        );
    }

    #[test]
    fn comments_nest_and_skip() {
        assert_eq!(
            toks("1 (: outer (: inner :) still :) 2"),
            vec![Tok::Int(1), Tok::Int(2)]
        );
        let mut lx = Lexer::new("(: unterminated");
        assert!(lx.next_token().is_err());
    }

    #[test]
    fn dots_and_slashes() {
        assert_eq!(toks(". .. / //"), vec![Tok::Dot, Tok::DotDot, Tok::Slash, Tok::SlashSlash]);
    }

    #[test]
    fn prefixed_variables() {
        assert_eq!(
            toks("$ns1:profile"),
            vec![Tok::Var(Some("ns1"), "profile")]
        );
    }

    #[test]
    fn line_col_reporting() {
        let lx = Lexer::new("ab\ncd\nef");
        assert_eq!(lx.line_col(0), (1, 1));
        assert_eq!(lx.line_col(4), (2, 2));
        assert_eq!(lx.line_col(6), (3, 1));
    }
}

#[cfg(test)]
mod utf8_tests {
    use super::*;

    #[test]
    fn multibyte_text_in_comments() {
        let mut lx = Lexer::new("(: §III.B.7 — Hëllo :) 42");
        let t = lx.next_token().unwrap();
        assert_eq!(t.tok, Tok::Int(42));
    }
}
