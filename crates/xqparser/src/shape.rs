//! Query shapes: a text with its query body's literals left out.
//!
//! Texts that differ only in the literals of their query body — a page
//! offset, a department code — are one query run with different values,
//! as a data-service function is called with different arguments. The
//! plan cache keeps one plan per *shape*: the text with each of its
//! slots ([`LiteralSlot`](crate::ast::LiteralSlot)) replaced by the
//! slot's type. Two texts share a shape when they are equal byte for
//! byte outside their slots and their slots have the same types in the
//! same order; `1`, `1.0`, `1e0` and `'1'` are four types.
//!
//! A lookup cannot parse, so it reads a text in one pass of the lexer
//! ([`scan`]), which lists every literal token it meets. Only the parser
//! knows which of them are slots: a literal of the prolog, or one the
//! lexer met in a direct constructor's text, is not, and belongs to the
//! shape by its value. A [`Shape`] keeps that decision beside the text
//! it was made for, and a text matches it only with the same literal
//! tokens in the same order, the same bytes between them, and the same
//! bytes in each literal that is not a slot.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;
use std::rc::Rc;

use xdm::atomic::AtomicValue;
use xdm::decimal::Decimal;

use crate::lexer::{Lexer, Tok};

/// A literal token of a text: its span and its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Literal {
    /// Start byte offset.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
    /// The literal's type.
    pub ty: LiteralType,
}

/// The type of a literal token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiteralType {
    /// `'…'` or `"…"`
    String,
    /// `1`
    Integer,
    /// `1.0`
    Decimal,
    /// `1e0`
    Double,
}

/// Read `src` with the lexer to its end, listing its literal tokens in
/// `out`, and return the hash of its *outline*: the text between them
/// and their types. `None` when the lexer cannot read the text (a quote
/// or a lone `!` in a direct constructor's text) or a decimal is beyond
/// `xs:decimal`; such a text is cached by its exact text.
pub fn scan(src: &str, out: &mut Vec<Literal>) -> Option<u64> {
    out.clear();
    let mut lx = Lexer::new(src);
    let mut h = DefaultHasher::new();
    let mut prev = 0;
    loop {
        let t = lx.next_token().ok()?;
        let ty = match t.tok {
            Tok::Eof => break,
            Tok::Str(_) => LiteralType::String,
            Tok::Int(_) => LiteralType::Integer,
            Tok::Dec(d) => {
                Decimal::parse(d).ok()?;
                LiteralType::Decimal
            }
            Tok::Dbl(_) => LiteralType::Double,
            _ => continue,
        };
        write_run(&mut h, &src[prev..t.start]);
        ty.hash(&mut h);
        prev = t.end;
        out.push(Literal { start: t.start, end: t.end, ty });
    }
    write_run(&mut h, &src[prev..]);
    Some(h.finish())
}

/// The hash a text the lexer cannot read is cached under: that of its
/// exact text.
pub fn exact_digest(src: &str) -> u64 {
    let mut h = DefaultHasher::new();
    write_run(&mut h, src);
    h.finish()
}

/// The hash a text is cached under, given its outline's hash and
/// literal tokens from [`scan`] and which of them are slots (ascending
/// indexes into `lits`): the outline, and the bytes of every literal
/// token that is not a slot.
pub fn digest(outline: u64, src: &str, lits: &[Literal], slots: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_u64(outline);
    let mut slots = slots.iter().peekable();
    for (i, l) in lits.iter().enumerate() {
        if slots.next_if(|&&s| s as usize == i).is_none() {
            h.write_usize(i);
            write_run(&mut h, &src[l.start..l.end]);
        }
    }
    h.finish()
}

fn write_run(h: &mut DefaultHasher, run: &str) {
    h.write_usize(run.len());
    h.write(run.as_bytes());
}

/// The values of a text's slots: the literal tokens `slots` picks out
/// of `lits`, read by the lexer's rules.
pub fn slot_values(src: &str, lits: &[Literal], slots: &[u32]) -> Rc<[AtomicValue]> {
    slots.iter().map(|&i| value(&src[lits[i as usize].start..lits[i as usize].end])).collect()
}

/// The value of one literal token that [`scan`] read.
fn value(token: &str) -> AtomicValue {
    let tok = Lexer::new(token).next_token().map(|t| t.tok.literal_value());
    match tok {
        Ok(Some(Ok(v))) => v,
        _ => unreachable!("scan read {token:?} as a literal token"),
    }
}

/// The shape a plan is cached under: the text it was prepared from, that
/// text's literal tokens, and which of them are the plan's slots.
#[derive(Debug)]
pub struct Shape {
    text: Box<str>,
    literals: Box<[Literal]>,
    slots: Rc<[u32]>,
}

impl Shape {
    /// The shape of `text`, whose literal tokens [`scan`] found to be
    /// `literals` (`None` when it could not read the text), and whose
    /// parse read slots at `slot_spans`. When some slot is not one of
    /// those tokens, the shape is the exact text: it has no slots.
    pub fn new<'s>(
        text: &str,
        literals: Option<&[Literal]>,
        slot_spans: impl IntoIterator<Item = &'s Range<usize>>,
    ) -> Shape {
        let literals = literals.unwrap_or_default();
        let mut slots = Vec::new();
        let mut next = 0;
        for span in slot_spans {
            let Some(i) = literals[next..]
                .iter()
                .position(|l| l.start == span.start && l.end == span.end)
            else {
                slots.clear();
                break;
            };
            slots.push((next + i) as u32);
            next += i + 1;
        }
        Shape { text: text.into(), literals: literals.into(), slots: slots.into() }
    }

    /// The text the shape was made from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Which of the text's literal tokens are slots, ascending.
    pub fn slots(&self) -> &Rc<[u32]> {
        &self.slots
    }

    /// The hash the shape is cached under: [`digest`] of its own text,
    /// or [`exact_digest`] when the lexer could not read it.
    pub fn digest(&self, outline: Option<u64>) -> u64 {
        match outline {
            Some(o) => digest(o, &self.text, &self.literals, &self.slots),
            None => exact_digest(&self.text),
        }
    }

    /// Does `src`, whose literal tokens [`scan`] found to be `lits`, have
    /// this shape? It must have as many literal tokens of the same types,
    /// the same bytes around them, and the same bytes in each one that is
    /// not a slot. A text the lexer could not read passes no literal
    /// tokens, and matches only the exact text.
    pub fn matches(&self, src: &str, lits: &[Literal]) -> bool {
        if lits.len() != self.literals.len() {
            return false;
        }
        let (mut a, mut b) = (0, 0);
        let mut slots = self.slots.iter().peekable();
        for (i, (p, q)) in self.literals.iter().zip(lits).enumerate() {
            let slot = slots.next_if(|&&s| s as usize == i).is_some();
            if p.ty != q.ty
                || self.text[a..p.start] != src[b..q.start]
                || (!slot && self.text[p.start..p.end] != src[q.start..q.end])
            {
                return false;
            }
            (a, b) = (p.end, q.end);
        }
        self.text[a..] == src[b..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    /// The shape of a parsed text, its outline and its literal tokens.
    fn shape(src: &str) -> (Shape, Option<u64>) {
        let mut lits = Vec::new();
        let outline = scan(src, &mut lits);
        let (_, slots) = parse_query(src).unwrap();
        (Shape::new(src, outline.map(|_| &lits[..]), slots.iter().map(|(span, _)| span)), outline)
    }

    fn matches(shape: &Shape, src: &str) -> bool {
        let mut lits = Vec::new();
        match scan(src, &mut lits) {
            Some(_) => shape.matches(src, &lits),
            None => shape.matches(src, &[]),
        }
    }

    #[test]
    fn body_literals_are_slots_and_the_rest_is_text() {
        let (s, _) = shape("declare namespace p = 'urn:p'; (1, 'a', <a b='x'>5</a>, 2.5, 3e0)");
        // The prolog's URI, the attribute value and the element's text
        // are literal tokens, but not slots.
        assert_eq!(&s.slots()[..], &[1, 2, 5, 6]);
        assert!(matches(&s, "declare namespace p = 'urn:p'; (7, 'bb', <a b='x'>5</a>, 0.5, 9e9)"));
        assert!(!matches(&s, "declare namespace p = 'urn:q'; (1, 'a', <a b='x'>5</a>, 2.5, 3e0)"));
        assert!(!matches(&s, "declare namespace p = 'urn:p'; (1, 'a', <a b='y'>5</a>, 2.5, 3e0)"));
        assert!(!matches(&s, "declare namespace p = 'urn:p'; (1, 'a', <a b='x'>6</a>, 2.5, 3e0)"));
        // A type is part of the shape, and so is every other byte.
        assert!(!matches(&s, "declare namespace p = 'urn:p'; (1.0, 'a', <a b='x'>5</a>, 2.5, 3e0)"));
        assert!(!matches(&s, "declare namespace p = 'urn:p'; ('1', 'a', <a b='x'>5</a>, 2.5, 3e0)"));
        assert!(!matches(&s, "declare namespace p = 'urn:p';  (1, 'a', <a b='x'>5</a>, 2.5, 3e0)"));
        assert!(!matches(&s, "declare namespace p = 'urn:p'; (1, 'a', <a b='x'>5</a>, 2.5, 3e0) (: :)"));
    }

    #[test]
    fn slot_values_read_as_they_parse() {
        let src = "('it''s', \"&amp;&#65;\", .5, 1e3, 12)";
        let mut lits = Vec::new();
        scan(src, &mut lits).unwrap();
        let values = slot_values(src, &lits, &[0, 1, 2, 3, 4]);
        let texts: Vec<String> = values.iter().map(|v| v.string_value()).collect();
        assert_eq!(texts, ["it's", "&A", "0.5", "1000", "12"]);
    }

    #[test]
    fn unreadable_texts_and_unlisted_slots_are_exact() {
        // The lexer cannot read a quote in constructor text.
        let (s, outline) = shape("(<a>it's</a>, 1)");
        assert!(outline.is_none());
        assert!(s.slots().is_empty());
        assert!(matches(&s, "(<a>it's</a>, 1)"));
        assert!(!matches(&s, "(<a>it's</a>, 2)"));
        // The lexer reads `"</a>, 'x', <b>"` as one string, so the slot
        // `'x'` is not one of its literal tokens.
        let (s, outline) = shape("(<a>\"</a>, 'x', <b>\"</b>)");
        assert!(outline.is_some());
        assert!(s.slots().is_empty());
        assert!(matches(&s, "(<a>\"</a>, 'x', <b>\"</b>)"));
        assert!(!matches(&s, "(<a>\"</a>, 'y', <b>\"</b>)"));
    }

    #[test]
    fn out_of_range_literals_do_not_scan() {
        let mut lits = Vec::new();
        assert!(scan("99999999999999999999", &mut lits).is_none());
        assert!(scan("1.000000000000000000000000000000000000000001", &mut lits).is_none());
        assert!(scan("1.5", &mut lits).is_some());
    }
}
