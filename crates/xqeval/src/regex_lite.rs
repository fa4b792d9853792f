//! A small, self-contained backtracking regular-expression engine for
//! the `fn:tokenize`, `fn:matches`, and `fn:replace` builtins.
//!
//! Supported syntax (the XML Schema regex subset these functions see
//! in practice): literals, `.`, escapes `\d \D \s \S \w \W \\ \. \* …`,
//! character classes `[a-z]`, `[^…]`, quantifiers `* + ? {m} {m,} {m,n}`
//! (greedy), alternation `|`, grouping `(…)`, anchors `^` and `$`.
//!
//! The engine compiles to a small NFA-ish AST and matches by
//! backtracking; patterns are tiny in this workload so worst-case
//! blowup is a non-issue. A pattern with no metacharacter at all — the
//! `fn:tokenize($name, ' ')` of use case 3 — is a literal: it matches
//! exactly its own text, so it is matched with `str` search instead.

use std::ops::Range;
use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};

#[derive(Debug, Clone)]
enum Node {
    /// A literal char.
    Char(char),
    /// `.` — any char except newline.
    Any,
    /// A character class.
    Class { negated: bool, items: Vec<ClassItem> },
    /// `^`
    Start,
    /// `$`
    End,
    /// A group `(…)` of alternatives.
    Group(Vec<Vec<Node>>),
    /// A quantified node.
    Repeat { node: Box<Node>, min: u32, max: Option<u32> },
}

#[derive(Debug, Clone)]
enum ClassItem {
    Single(char),
    Range(char, char),
    Digit(bool),
    Space(bool),
    Word(bool),
}

/// A compiled regular expression.
///
/// ```
/// use std::rc::Rc;
/// use xqeval::regex_lite::Regex;
/// let rx = Regex::compile(r"\d{3}-\d{4}").unwrap();
/// assert!(rx.is_match("call 555-1234 now"));
/// assert_eq!(
///     Regex::compile(" ").unwrap().tokenize("Michael Carey").unwrap(),
///     ["Michael", "Carey"].map(Rc::<str>::from)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    matcher: Matcher,
}

#[derive(Debug, Clone)]
enum Matcher {
    /// A non-empty pattern without metacharacters: it compiles to a
    /// sequence of `Node::Char`, which matches exactly the pattern's
    /// text, so `str` search finds the same leftmost matches. It shares
    /// the pattern's text when compiled from shared text.
    Literal(Rc<str>),
    /// Alternatives for the backtracking matcher.
    Backtrack(Vec<Vec<Node>>),
}

/// The characters the pattern parser gives a meaning; a pattern free
/// of them is a literal.
fn is_meta(c: char) -> bool {
    matches!(
        c,
        '\\' | '.' | '^' | '$' | '(' | ')' | '[' | ']' | '{' | '}' | '*' | '+' | '?' | '|'
    )
}

/// Whether `pattern` compiles to [`Matcher::Literal`]: it is non-empty
/// and free of metacharacters.
fn is_literal(pattern: &str) -> bool {
    !pattern.is_empty() && !pattern.contains(is_meta)
}

fn rerr(msg: impl Into<String>) -> XdmError {
    XdmError::new(ErrorCode::FORX0002, format!("invalid regex: {}", msg.into()))
}

/// `fn:tokenize` and `fn:replace` refuse a pattern that matches the
/// zero-length string (F&O 1.0 §7.6.3–4), whatever the input; the
/// pattern itself is valid.
fn zero_length_match() -> XdmError {
    XdmError::new(ErrorCode::FORX0003, "pattern matches zero-length string")
}

struct RxParser<'a> {
    chars: Vec<char>,
    pos: usize,
    src: &'a str,
}

impl<'a> RxParser<'a> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse_alternation(&mut self) -> XdmResult<Vec<Vec<Node>>> {
        let mut alts = vec![self.parse_sequence()?];
        while self.peek() == Some('|') {
            self.next();
            alts.push(self.parse_sequence()?);
        }
        Ok(alts)
    }

    fn parse_sequence(&mut self) -> XdmResult<Vec<Node>> {
        let mut out = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            let atom = self.parse_atom()?;
            out.push(self.parse_quantifier(atom)?);
        }
        Ok(out)
    }

    fn parse_atom(&mut self) -> XdmResult<Node> {
        let c = self.next().ok_or_else(|| rerr("unexpected end"))?;
        Ok(match c {
            '.' => Node::Any,
            '^' => Node::Start,
            '$' => Node::End,
            '(' => {
                // Non-capturing prefix tolerated.
                if self.peek() == Some('?') {
                    self.next();
                    if self.peek() == Some(':') {
                        self.next();
                    } else {
                        return Err(rerr("unsupported group flag"));
                    }
                }
                let alts = self.parse_alternation()?;
                if self.next() != Some(')') {
                    return Err(rerr(format!("unbalanced group in {:?}", self.src)));
                }
                Node::Group(alts)
            }
            '[' => self.parse_class()?,
            '\\' => self.parse_escape()?,
            '*' | '+' | '?' => return Err(rerr(format!("dangling quantifier {c:?}"))),
            other => Node::Char(other),
        })
    }

    fn parse_escape(&mut self) -> XdmResult<Node> {
        let c = self.next().ok_or_else(|| rerr("dangling backslash"))?;
        Ok(match c {
            'd' => Node::Class { negated: false, items: vec![ClassItem::Digit(false)] },
            'D' => Node::Class { negated: false, items: vec![ClassItem::Digit(true)] },
            's' => Node::Class { negated: false, items: vec![ClassItem::Space(false)] },
            'S' => Node::Class { negated: false, items: vec![ClassItem::Space(true)] },
            'w' => Node::Class { negated: false, items: vec![ClassItem::Word(false)] },
            'W' => Node::Class { negated: false, items: vec![ClassItem::Word(true)] },
            'n' => Node::Char('\n'),
            'r' => Node::Char('\r'),
            't' => Node::Char('\t'),
            c @ ('\\' | '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}'
            | '|' | '^' | '$' | '-') => Node::Char(c),
            other => return Err(rerr(format!("unsupported escape \\{other}"))),
        })
    }

    fn parse_class(&mut self) -> XdmResult<Node> {
        let negated = if self.peek() == Some('^') {
            self.next();
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            let c = self.next().ok_or_else(|| rerr("unterminated class"))?;
            if c == ']' {
                if items.is_empty() {
                    // Leading ']' is a literal.
                    items.push(ClassItem::Single(']'));
                    continue;
                }
                return Ok(Node::Class { negated, items });
            }
            let lo = if c == '\\' {
                let e = self.next().ok_or_else(|| rerr("dangling backslash"))?;
                match e {
                    'd' => {
                        items.push(ClassItem::Digit(false));
                        continue;
                    }
                    's' => {
                        items.push(ClassItem::Space(false));
                        continue;
                    }
                    'w' => {
                        items.push(ClassItem::Word(false));
                        continue;
                    }
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    other => other,
                }
            } else {
                c
            };
            if self.peek() == Some('-')
                && self.chars.get(self.pos + 1).copied() != Some(']')
                && self.chars.get(self.pos + 1).is_some()
            {
                self.next(); // '-'
                let hi = self.next().ok_or_else(|| rerr("unterminated range"))?;
                if hi < lo {
                    return Err(rerr(format!("bad range {lo}-{hi}")));
                }
                items.push(ClassItem::Range(lo, hi));
            } else {
                items.push(ClassItem::Single(lo));
            }
        }
    }

    fn parse_quantifier(&mut self, node: Node) -> XdmResult<Node> {
        let (min, max) = match self.peek() {
            Some('*') => {
                self.next();
                (0, None)
            }
            Some('+') => {
                self.next();
                (1, None)
            }
            Some('?') => {
                self.next();
                (0, Some(1))
            }
            Some('{') => {
                self.next();
                let mut m = String::new();
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    m.push(self.next().unwrap());
                }
                let min: u32 = m.parse().map_err(|_| rerr("bad {m,n}"))?;
                let max = if self.peek() == Some(',') {
                    self.next();
                    let mut n = String::new();
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        n.push(self.next().unwrap());
                    }
                    if n.is_empty() { None } else { Some(n.parse().map_err(|_| rerr("bad {m,n}"))?) }
                } else {
                    Some(min)
                };
                if self.next() != Some('}') {
                    return Err(rerr("unterminated {m,n}"));
                }
                if let Some(mx) = max {
                    if mx < min {
                        return Err(rerr("max < min in {m,n}"));
                    }
                }
                (min, max)
            }
            _ => return Ok(node),
        };
        if matches!(node, Node::Start | Node::End) {
            return Err(rerr("quantifier on anchor"));
        }
        Ok(Node::Repeat { node: Box::new(node), min, max })
    }
}

fn class_matches(items: &[ClassItem], negated: bool, c: char) -> bool {
    let hit = items.iter().any(|it| match it {
        ClassItem::Single(x) => *x == c,
        ClassItem::Range(lo, hi) => (*lo..=*hi).contains(&c),
        ClassItem::Digit(neg) => c.is_ascii_digit() != *neg,
        ClassItem::Space(neg) => c.is_whitespace() != *neg,
        ClassItem::Word(neg) => (c.is_alphanumeric() || c == '_') != *neg,
    });
    hit != negated
}

impl Regex {
    /// Compile a pattern.
    pub fn compile(pattern: &str) -> XdmResult<Regex> {
        if is_literal(pattern) {
            return Ok(Regex { matcher: Matcher::Literal(Rc::from(pattern)) });
        }
        Regex::parse(pattern)
    }

    /// [`Regex::compile`] for a pattern held as shared text: a literal
    /// keeps `pattern` itself, so compiling one allocates nothing.
    pub fn compile_shared(pattern: &Rc<str>) -> XdmResult<Regex> {
        if is_literal(pattern) {
            return Ok(Regex { matcher: Matcher::Literal(pattern.clone()) });
        }
        Regex::parse(pattern)
    }

    /// Compile a pattern that is not a literal for the backtracking
    /// matcher.
    fn parse(pattern: &str) -> XdmResult<Regex> {
        let mut p = RxParser { chars: pattern.chars().collect(), pos: 0, src: pattern };
        let alts = p.parse_alternation()?;
        if p.pos != p.chars.len() {
            // p.pos is a *character* index; re-render the remainder
            // from the char vector rather than byte-slicing.
            let rest: String = p.chars[p.pos..].iter().collect();
            return Err(rerr(format!("trailing {rest:?}")));
        }
        Ok(Regex { matcher: Matcher::Backtrack(alts) })
    }

    /// Does the pattern match anywhere in `text` (fn:matches
    /// semantics)?
    pub fn is_match(&self, text: &str) -> bool {
        match &self.matcher {
            Matcher::Literal(lit) => text.contains(&**lit),
            Matcher::Backtrack(alts) => {
                let chars: Vec<char> = text.chars().collect();
                (0..=chars.len()).any(|start| self.match_alts(alts, &chars, start).is_some())
            }
        }
    }

    fn match_alts(&self, alts: &[Vec<Node>], chars: &[char], pos: usize) -> Option<usize> {
        for alt in alts {
            if let Some(end) = self.match_seq(alt, 0, chars, pos) {
                return Some(end);
            }
        }
        None
    }

    fn match_seq(
        &self,
        seq: &[Node],
        idx: usize,
        chars: &[char],
        pos: usize,
    ) -> Option<usize> {
        let Some(node) = seq.get(idx) else { return Some(pos) };
        match node {
            Node::Char(c) => {
                if chars.get(pos) == Some(c) {
                    self.match_seq(seq, idx + 1, chars, pos + 1)
                } else {
                    None
                }
            }
            Node::Any => {
                if matches!(chars.get(pos), Some(c) if *c != '\n') {
                    self.match_seq(seq, idx + 1, chars, pos + 1)
                } else {
                    None
                }
            }
            Node::Class { negated, items } => {
                if matches!(chars.get(pos), Some(c) if class_matches(items, *negated, *c)) {
                    self.match_seq(seq, idx + 1, chars, pos + 1)
                } else {
                    None
                }
            }
            Node::Start => {
                if pos == 0 {
                    self.match_seq(seq, idx + 1, chars, pos)
                } else {
                    None
                }
            }
            Node::End => {
                if pos == chars.len() {
                    self.match_seq(seq, idx + 1, chars, pos)
                } else {
                    None
                }
            }
            Node::Group(alts) => {
                // Match each alternative followed by the remainder of
                // the sequence, flattened into one concatenation so
                // backtracking works across the group boundary.
                let rest = &seq[idx + 1..];
                for alt in alts {
                    let mut combined: Vec<Node> = alt.clone();
                    combined.extend_from_slice(rest);
                    if let Some(end) = self.match_seq(&combined, 0, chars, pos) {
                        return Some(end);
                    }
                }
                None
            }
            Node::Repeat { node, min, max } => {
                self.match_repeat(node, *min, *max, seq, idx, chars, pos)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn match_repeat(
        &self,
        node: &Node,
        min: u32,
        max: Option<u32>,
        seq: &[Node],
        idx: usize,
        chars: &[char],
        pos: usize,
    ) -> Option<usize> {
        // Greedy: collect all reachable end positions, try longest
        // first.
        let mut ends = vec![pos];
        let mut cur = pos;
        let limit = max.unwrap_or(u32::MAX);
        let single = std::slice::from_ref(node);
        for _ in 0..limit {
            match self.match_seq(single, 0, chars, cur) {
                Some(next) if next > cur || ends.len() as u32 <= min => {
                    // Zero-width repeats are cut off to avoid loops.
                    if next == cur {
                        break;
                    }
                    ends.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
        if (ends.len() as u32) <= min && min > 0 {
            // Not enough repetitions (note: ends includes the 0-rep).
            if (ends.len() as u32 - 1) < min {
                return None;
            }
        }
        for (count, end) in ends.iter().enumerate().rev() {
            if (count as u32) < min {
                break;
            }
            if let Some(fin) = self.match_seq(seq, idx + 1, chars, *end) {
                return Some(fin);
            }
        }
        None
    }

    /// Split `text` on non-overlapping matches (fn:tokenize). A match
    /// of zero length is an error per the F&O spec.
    pub fn tokenize(&self, text: &str) -> XdmResult<Vec<Rc<str>>> {
        let mut out = Vec::new();
        self.tokenize_each(text, 0..usize::MAX, |t| out.push(t))?;
        Ok(out)
    }

    /// Hand `emit` the tokens of `text` at the 0-based positions inside
    /// `window`, in order. A literal pattern splits no further than the
    /// window's end and makes only the tokens inside it. Any other
    /// pattern splits the whole text first, so a zero-length match
    /// anywhere in it still raises FORX0003.
    pub fn tokenize_each(
        &self,
        text: &str,
        window: Range<usize>,
        mut emit: impl FnMut(Rc<str>),
    ) -> XdmResult<()> {
        let tokens = match &self.matcher {
            Matcher::Literal(lit) => {
                let inside = text.split(&**lit).take(window.end).skip(window.start);
                inside.for_each(|t| emit(Rc::from(t)));
                return Ok(());
            }
            Matcher::Backtrack(alts) => self.split(alts, text)?,
        };
        let inside = tokens.into_iter().take(window.end).skip(window.start);
        inside.for_each(emit);
        Ok(())
    }

    /// The backtracking matcher's whole split of `text`.
    fn split(&self, alts: &[Vec<Node>], text: &str) -> XdmResult<Vec<Rc<str>>> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = Vec::new();
        let mut token_start = 0;
        let mut pos = 0;
        while pos <= chars.len() {
            let mut matched = None;
            if let Some(end) = self.match_alts(alts, &chars, pos) {
                if end == pos {
                    return Err(zero_length_match());
                }
                matched = Some(end);
            }
            match matched {
                Some(end) => {
                    out.push(chars[token_start..pos].iter().collect::<String>().into());
                    token_start = end;
                    pos = end;
                }
                None => pos += 1,
            }
        }
        out.push(chars[token_start..].iter().collect::<String>().into());
        Ok(out)
    }

    /// Replace every match with `replacement` (no capture groups —
    /// `$n` is rejected, matching our documented subset).
    pub fn replace(&self, text: &str, replacement: &str) -> XdmResult<String> {
        if replacement.contains('$') {
            return Err(rerr("capture-group replacement not supported"));
        }
        let alts = match &self.matcher {
            Matcher::Literal(lit) => return Ok(text.replace(&**lit, replacement)),
            Matcher::Backtrack(alts) => alts,
        };
        // An empty input has no position to find a zero-length match
        // at, so ask the pattern itself.
        if self.match_alts(alts, &[], 0).is_some() {
            return Err(zero_length_match());
        }
        let chars: Vec<char> = text.chars().collect();
        let mut out = String::new();
        let mut pos = 0;
        while pos < chars.len() {
            match self.match_alts(alts, &chars, pos) {
                Some(end) if end > pos => {
                    out.push_str(replacement);
                    pos = end;
                }
                Some(_) => return Err(zero_length_match()),
                None => {
                    out.push(chars[pos]);
                    pos += 1;
                }
            }
        }
        // A trailing zero-width match is possible but rejected above.
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx(p: &str) -> Regex {
        Regex::compile(p).unwrap()
    }

    #[test]
    fn literal_and_any() {
        assert!(rx("abc").is_match("xxabcxx"));
        assert!(!rx("abc").is_match("abx"));
        assert!(rx("a.c").is_match("azc"));
        assert!(!rx("a.c").is_match("a\nc"));
    }

    #[test]
    fn classes_and_escapes() {
        assert!(rx("[a-c]+").is_match("bbb"));
        assert!(!rx("^[a-c]+$").is_match("abd"));
        assert!(rx("[^0-9]").is_match("x"));
        assert!(!rx("[^0-9]").is_match("5"));
        assert!(rx("\\d{3}").is_match("abc123"));
        assert!(rx("\\s").is_match("a b"));
        assert!(rx("\\w+").is_match("hello_world"));
        assert!(rx("\\.").is_match("a.b"));
        assert!(!rx("\\.").is_match("ab"));
    }

    #[test]
    fn quantifiers() {
        assert!(rx("^ab*c$").is_match("ac"));
        assert!(rx("^ab*c$").is_match("abbbc"));
        assert!(rx("^ab+c$").is_match("abc"));
        assert!(!rx("^ab+c$").is_match("ac"));
        assert!(rx("^ab?c$").is_match("ac"));
        assert!(!rx("^ab?c$").is_match("abbc"));
        assert!(rx("^a{2,3}$").is_match("aa"));
        assert!(rx("^a{2,3}$").is_match("aaa"));
        assert!(!rx("^a{2,3}$").is_match("aaaa"));
        assert!(rx("^a{2}$").is_match("aa"));
        assert!(rx("^a{2,}$").is_match("aaaaa"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(rx("^(cat|dog)s?$").is_match("cats"));
        assert!(rx("^(cat|dog)s?$").is_match("dog"));
        assert!(!rx("^(cat|dog)s?$").is_match("cow"));
        assert!(rx("^(ab)+$").is_match("ababab"));
        assert!(!rx("^(ab)+$").is_match("aba"));
    }

    #[test]
    fn greedy_with_backtracking() {
        assert!(rx("^a.*c$").is_match("abcabc"));
        assert!(rx("^.*b$").is_match("aaab"));
    }

    #[test]
    fn tokenize_like_paper() {
        // fn:tokenize(fn:data($emp1/Name), ' ') — the use-case-3 call.
        let t = rx(" ").tokenize("Michael Carey").unwrap();
        assert_eq!(t, ["Michael", "Carey"].map(Rc::from));
        let t = rx(",\\s*").tokenize("a, b,c").unwrap();
        assert_eq!(t, ["a", "b", "c"].map(Rc::from));
        let t = rx(" ").tokenize("single").unwrap();
        assert_eq!(t, ["single"].map(Rc::from));
        let t = rx(" ").tokenize("").unwrap();
        assert_eq!(t, [""].map(Rc::from));
    }

    #[test]
    fn tokenize_rejects_zero_width() {
        assert!(rx("a*").tokenize("bab").unwrap_err().is(ErrorCode::FORX0003));
        assert!(rx("").replace("ab", "x").unwrap_err().is(ErrorCode::FORX0003));
        assert!(rx("b*").replace("", "x").unwrap_err().is(ErrorCode::FORX0003));
    }

    #[test]
    fn replace_basics() {
        assert_eq!(rx("o").replace("foo", "0").unwrap(), "f00");
        assert_eq!(rx("\\d+").replace("a1b22c", "#").unwrap(), "a#b#c");
        assert!(rx("x").replace("y", "$1").is_err());
    }

    #[test]
    fn compile_errors() {
        for bad in ["(", "a)", "[", "*a", "a{3,2}", "\\q", "a{,}", "^*"] {
            assert!(Regex::compile(bad).is_err(), "should reject {bad:?}");
        }
    }
}
