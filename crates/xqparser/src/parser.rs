//! Recursive-descent parser for XQuery 1.0 (subset) + XUF + XQSE.
//!
//! The parser owns a [`Lexer`] plus a small token peek-buffer, and a
//! namespace-resolution stack so that QNames in the AST are already
//! *expanded* names. Direct element constructors are parsed in raw
//! character mode (their content is not token-shaped); embedded `{…}`
//! expressions switch back to token mode.

#[path = "parser_statements.rs"]
mod statements;

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use xdm::atomic::{AtomicType, AtomicValue};
use xdm::decimal::Decimal;
use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::qname::{QName, FN_NS, XML_NS, XS_NS};
use xdm::types::{ItemType, Occurrence, SequenceType};

use crate::ast::*;
use crate::lexer::{Lexer, Tok, Token};

/// The `local:` namespace for main-module local functions.
pub const LOCAL_NS: &str = "http://www.w3.org/2005/xquery-local-functions";

/// Parse a complete module (prolog + query body).
pub fn parse_module(src: &str) -> XdmResult<Module> {
    Parser::new(src, &[]).parse_module()
}

/// Parse a standalone expression with optional extra namespace
/// bindings (prefix → URI).
pub fn parse_expr(src: &str, extra_ns: &[(&str, &str)]) -> XdmResult<Expr> {
    let mut p = Parser::new(src, extra_ns);
    let e = p.parse_expr_top()?;
    p.expect_eof()?;
    Ok(e)
}

pub(crate) struct Parser<'a> {
    lx: Lexer<'a>,
    buf: VecDeque<Token>,
    ns: Vec<HashMap<String, String>>,
    pub(crate) default_element_ns: Option<String>,
    pub(crate) default_function_ns: String,
    pub(crate) boundary_space_preserve: bool,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(src: &'a str, extra_ns: &[(&str, &str)]) -> Parser<'a> {
        let mut base = HashMap::new();
        base.insert("xs".to_string(), XS_NS.to_string());
        base.insert("fn".to_string(), FN_NS.to_string());
        base.insert("xml".to_string(), XML_NS.to_string());
        base.insert("local".to_string(), LOCAL_NS.to_string());
        base.insert("err".to_string(), xdm::error::ERR_NS.to_string());
        for (p, u) in extra_ns {
            base.insert(p.to_string(), u.to_string());
        }
        Parser {
            lx: Lexer::new(src),
            buf: VecDeque::new(),
            ns: vec![base],
            default_element_ns: None,
            default_function_ns: FN_NS.to_string(),
            boundary_space_preserve: false,
        }
    }

    // -- token plumbing -------------------------------------------------

    fn fill(&mut self, n: usize) -> XdmResult<()> {
        while self.buf.len() < n {
            let t = self.lx.next_token()?;
            self.buf.push_back(t);
        }
        Ok(())
    }

    pub(crate) fn peek(&mut self) -> XdmResult<&Token> {
        self.fill(1)?;
        Ok(&self.buf[0])
    }

    pub(crate) fn peek2(&mut self) -> XdmResult<&Token> {
        self.fill(2)?;
        Ok(&self.buf[1])
    }

    pub(crate) fn peek3(&mut self) -> XdmResult<&Token> {
        self.fill(3)?;
        Ok(&self.buf[2])
    }

    pub(crate) fn next(&mut self) -> XdmResult<Token> {
        self.fill(1)?;
        Ok(self.buf.pop_front().expect("filled"))
    }

    /// Rewind the lexer to `pos`, discarding buffered tokens (used to
    /// switch into raw constructor mode).
    pub(crate) fn rewind_to(&mut self, pos: usize) {
        self.buf.clear();
        self.lx.set_pos(pos);
    }

    pub(crate) fn err_at(&self, pos: usize, msg: impl Into<String>) -> XdmError {
        let (line, col) = self.lx.line_col(pos);
        XdmError::new(
            ErrorCode::XPST0003,
            format!("parse error at {line}:{col}: {}", msg.into()),
        )
    }

    fn err_here(&mut self, msg: impl Into<String>) -> XdmError {
        let pos = self.peek().map(|t| t.start).unwrap_or(0);
        self.err_at(pos, msg)
    }

    pub(crate) fn expect_tok(&mut self, tok: Tok) -> XdmResult<Token> {
        let t = self.next()?;
        if t.tok == tok {
            Ok(t)
        } else {
            Err(self.err_at(t.start, format!("expected {:?}, found {:?}", tok, t.tok)))
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: &str) -> XdmResult<()> {
        let t = self.next()?;
        if t.tok.is_name(kw) {
            Ok(())
        } else {
            Err(self.err_at(t.start, format!("expected keyword {kw:?}, found {:?}", t.tok)))
        }
    }

    fn eat(&mut self, tok: &Tok) -> XdmResult<bool> {
        if &self.peek()?.tok == tok {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> XdmResult<bool> {
        if self.peek()?.tok.is_name(kw) {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn peek_kw(&mut self, kw: &str) -> XdmResult<bool> {
        Ok(self.peek()?.tok.is_name(kw))
    }

    pub(crate) fn expect_eof(&mut self) -> XdmResult<()> {
        let t = self.peek()?;
        if t.tok == Tok::Eof {
            Ok(())
        } else {
            let (start, tok) = (t.start, t.tok.clone());
            Err(self.err_at(start, format!("unexpected trailing {tok:?}")))
        }
    }

    // -- namespace resolution -------------------------------------------

    pub(crate) fn push_ns_frame(&mut self, decls: &[(String, String)]) {
        let mut m = HashMap::new();
        for (p, u) in decls {
            m.insert(p.clone(), u.clone());
        }
        self.ns.push(m);
    }

    pub(crate) fn pop_ns_frame(&mut self) {
        self.ns.pop();
    }

    pub(crate) fn bind_ns(&mut self, prefix: &str, uri: &str) {
        self.ns
            .last_mut()
            .expect("ns stack nonempty")
            .insert(prefix.to_string(), uri.to_string());
    }

    pub(crate) fn resolve_prefix(&self, prefix: &str) -> Option<String> {
        for frame in self.ns.iter().rev() {
            if let Some(u) = frame.get(prefix) {
                return if u.is_empty() { None } else { Some(u.clone()) };
            }
        }
        None
    }

    /// Resolve a lexical (prefix?, local) pair in a given context.
    pub(crate) fn resolve_name(
        &self,
        prefix: Option<&str>,
        local: &str,
        ctx: NameCtx,
        pos: usize,
    ) -> XdmResult<QName> {
        match prefix {
            Some(p) => {
                let uri = self.resolve_prefix(p).ok_or_else(|| {
                    self.err_at(pos, format!("undeclared namespace prefix {p:?}"))
                })?;
                Ok(QName::with_prefix_ns(p, uri, local))
            }
            None => Ok(match ctx {
                NameCtx::Element => match &self.default_element_ns {
                    Some(ns) => QName::with_ns(ns.clone(), local),
                    None => QName::new(local),
                },
                NameCtx::Function => {
                    QName::with_ns(self.default_function_ns.clone(), local)
                }
                NameCtx::Plain => QName::new(local),
            }),
        }
    }

    /// Consume a name token and resolve it.
    pub(crate) fn parse_qname(&mut self, ctx: NameCtx) -> XdmResult<QName> {
        let t = self.next()?;
        match t.tok {
            Tok::Name(p, l) => self.resolve_name(p.as_deref(), &l, ctx, t.start),
            other => Err(self.err_at(t.start, format!("expected name, found {other:?}"))),
        }
    }

    /// Consume a `$var` token and resolve it (vars have no default ns).
    pub(crate) fn parse_var_name(&mut self) -> XdmResult<QName> {
        let t = self.next()?;
        match t.tok {
            Tok::Var(p, l) => self.resolve_name(p.as_deref(), &l, NameCtx::Plain, t.start),
            other => {
                Err(self.err_at(t.start, format!("expected $variable, found {other:?}")))
            }
        }
    }

    // -- sequence types ---------------------------------------------------

    pub(crate) fn parse_sequence_type(&mut self) -> XdmResult<SequenceType> {
        if self.peek_kw("empty-sequence")? && self.peek2()?.tok == Tok::LParen {
            self.next()?;
            self.expect_tok(Tok::LParen)?;
            self.expect_tok(Tok::RParen)?;
            return Ok(SequenceType::Empty);
        }
        let item = self.parse_item_type()?;
        let occ = match self.peek()?.tok {
            Tok::Question => {
                self.next()?;
                Occurrence::ZeroOrOne
            }
            Tok::Star => {
                self.next()?;
                Occurrence::ZeroOrMore
            }
            Tok::Plus => {
                self.next()?;
                Occurrence::OneOrMore
            }
            _ => Occurrence::One,
        };
        Ok(SequenceType::Of(item, occ))
    }

    fn parse_item_type(&mut self) -> XdmResult<ItemType> {
        let t = self.peek()?.clone();
        let Tok::Name(prefix, local) = &t.tok else {
            return Err(self.err_at(t.start, "expected item type"));
        };
        let is_paren = self.peek2()?.tok == Tok::LParen;
        if prefix.is_none() && is_paren {
            match local.as_str() {
                "item" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::AnyItem);
                }
                "node" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::AnyNode);
                }
                "text" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::Text);
                }
                "comment" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::Comment);
                }
                "processing-instruction" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    // Optional target name ignored for typing.
                    if self.peek()?.tok != Tok::RParen {
                        self.next()?;
                    }
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::Pi);
                }
                "document-node" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    // Optional element(...) inner test tolerated.
                    if self.peek()?.tok != Tok::RParen {
                        self.parse_item_type()?;
                    }
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::Document);
                }
                "element" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    let name = self.parse_optional_test_name()?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::Element(name));
                }
                "attribute" => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    let name = self.parse_optional_test_name()?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ItemType::Attribute(name));
                }
                _ => {}
            }
        }
        // Atomic type name.
        let q = self.parse_qname(NameCtx::Plain)?;
        let is_xs = q.ns.as_deref() == Some(XS_NS) || q.ns.is_none();
        let at = if is_xs { AtomicType::from_local(&q.local) } else { None };
        match at {
            Some(a) => Ok(ItemType::Atomic(a)),
            None => Err(self.err_at(t.start, format!("unknown atomic type {q}"))),
        }
    }

    fn parse_optional_test_name(&mut self) -> XdmResult<Option<QName>> {
        match &self.peek()?.tok {
            Tok::RParen => Ok(None),
            Tok::Star => {
                self.next()?;
                Ok(None)
            }
            _ => {
                let q = self.parse_qname(NameCtx::Element)?;
                // Tolerate a trailing ", TypeName" which we don't model.
                if self.eat(&Tok::Comma)? {
                    self.parse_qname(NameCtx::Plain)?;
                }
                Ok(Some(q))
            }
        }
    }

    // -- expressions ------------------------------------------------------

    /// Expr ::= ExprSingle ("," ExprSingle)*
    pub(crate) fn parse_expr_top(&mut self) -> XdmResult<Expr> {
        let first = self.parse_expr_single()?;
        if self.peek()?.tok != Tok::Comma {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&Tok::Comma)? {
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Comma(items))
    }

    pub(crate) fn parse_expr_single(&mut self) -> XdmResult<Expr> {
        // Keyword-led expression forms (keywords are contextual).
        let t = self.peek()?.clone();
        if let Tok::Name(None, kw) = &t.tok {
            match kw.as_str() {
                "for" | "let" if matches!(self.peek2()?.tok, Tok::Var(_, _)) => {
                    return self.parse_flwor()
                }
                "some" | "every" if matches!(self.peek2()?.tok, Tok::Var(_, _)) => {
                    return self.parse_quantified()
                }
                "if" if self.peek2()?.tok == Tok::LParen => return self.parse_if_expr(),
                "typeswitch" if self.peek2()?.tok == Tok::LParen => {
                    return self.parse_typeswitch()
                }
                "insert" if self.peek2_is_node_kw()? => return self.parse_insert(),
                "delete" if self.peek2_is_node_kw()? => return self.parse_delete(),
                "replace"
                    if self.peek2()?.tok.is_name("node")
                        || self.peek2()?.tok.is_name("value") =>
                {
                    return self.parse_replace()
                }
                "rename" if self.peek2()?.tok.is_name("node") => {
                    return self.parse_rename()
                }
                "copy" if matches!(self.peek2()?.tok, Tok::Var(_, _)) => {
                    return self.parse_transform()
                }
                _ => {}
            }
        }
        self.parse_or()
    }

    fn peek2_is_node_kw(&mut self) -> XdmResult<bool> {
        let t = &self.peek2()?.tok;
        Ok(t.is_name("node") || t.is_name("nodes"))
    }

    fn parse_or(&mut self) -> XdmResult<Expr> {
        let mut left = self.parse_and()?;
        while self.peek_kw("or")? {
            self.next()?;
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> XdmResult<Expr> {
        let mut left = self.parse_comparison()?;
        while self.peek_kw("and")? {
            self.next()?;
            let right = self.parse_comparison()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_comparison(&mut self) -> XdmResult<Expr> {
        let left = self.parse_range()?;
        let t = self.peek()?.clone();
        let make = |c: fn(Box<Expr>, Box<Expr>) -> Expr,
                    s: &mut Self,
                    left: Expr|
         -> XdmResult<Expr> {
            s.next()?;
            let right = s.parse_range()?;
            Ok(c(Box::new(left), Box::new(right)))
        };
        match &t.tok {
            Tok::Eq => make(|a, b| Expr::General(GeneralComp::Eq, a, b), self, left),
            Tok::Ne => make(|a, b| Expr::General(GeneralComp::Ne, a, b), self, left),
            Tok::Lt => make(|a, b| Expr::General(GeneralComp::Lt, a, b), self, left),
            Tok::Le => make(|a, b| Expr::General(GeneralComp::Le, a, b), self, left),
            Tok::Gt => make(|a, b| Expr::General(GeneralComp::Gt, a, b), self, left),
            Tok::Ge => make(|a, b| Expr::General(GeneralComp::Ge, a, b), self, left),
            Tok::LtLt => make(|a, b| Expr::Node(NodeComp::Precedes, a, b), self, left),
            Tok::GtGt => make(|a, b| Expr::Node(NodeComp::Follows, a, b), self, left),
            Tok::Name(None, kw) => {
                let vc = match kw.as_str() {
                    "eq" => Some(ValueComp::Eq),
                    "ne" => Some(ValueComp::Ne),
                    "lt" => Some(ValueComp::Lt),
                    "le" => Some(ValueComp::Le),
                    "gt" => Some(ValueComp::Gt),
                    "ge" => Some(ValueComp::Ge),
                    _ => None,
                };
                if let Some(vc) = vc {
                    self.next()?;
                    let right = self.parse_range()?;
                    Ok(Expr::Value(vc, Box::new(left), Box::new(right)))
                } else if kw == "is" {
                    self.next()?;
                    let right = self.parse_range()?;
                    Ok(Expr::Node(NodeComp::Is, Box::new(left), Box::new(right)))
                } else {
                    Ok(left)
                }
            }
            _ => Ok(left),
        }
    }

    fn parse_range(&mut self) -> XdmResult<Expr> {
        let left = self.parse_additive()?;
        if self.peek_kw("to")? {
            self.next()?;
            let right = self.parse_additive()?;
            Ok(Expr::Range(Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn parse_additive(&mut self) -> XdmResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            match self.peek()?.tok {
                Tok::Plus => {
                    self.next()?;
                    let r = self.parse_multiplicative()?;
                    left = Expr::Binary(BinaryOp::Add, Box::new(left), Box::new(r));
                }
                Tok::Minus => {
                    self.next()?;
                    let r = self.parse_multiplicative()?;
                    left = Expr::Binary(BinaryOp::Sub, Box::new(left), Box::new(r));
                }
                _ => return Ok(left),
            }
        }
    }

    fn parse_multiplicative(&mut self) -> XdmResult<Expr> {
        let mut left = self.parse_union()?;
        loop {
            let op = match &self.peek()?.tok {
                Tok::Star => Some(BinaryOp::Mul),
                Tok::Name(None, k) => match k.as_str() {
                    "div" => Some(BinaryOp::Div),
                    "idiv" => Some(BinaryOp::IDiv),
                    "mod" => Some(BinaryOp::Mod),
                    _ => None,
                },
                _ => None,
            };
            match op {
                Some(op) => {
                    self.next()?;
                    let r = self.parse_union()?;
                    left = Expr::Binary(op, Box::new(left), Box::new(r));
                }
                None => return Ok(left),
            }
        }
    }

    fn parse_union(&mut self) -> XdmResult<Expr> {
        let mut left = self.parse_intersect()?;
        loop {
            let is_union =
                self.peek()?.tok == Tok::Pipe || self.peek_kw("union")?;
            if !is_union {
                return Ok(left);
            }
            self.next()?;
            let r = self.parse_intersect()?;
            left = Expr::Set(SetOp::Union, Box::new(left), Box::new(r));
        }
    }

    fn parse_intersect(&mut self) -> XdmResult<Expr> {
        let mut left = self.parse_instance_of()?;
        loop {
            let op = if self.peek_kw("intersect")? {
                SetOp::Intersect
            } else if self.peek_kw("except")? {
                SetOp::Except
            } else {
                return Ok(left);
            };
            self.next()?;
            let r = self.parse_instance_of()?;
            left = Expr::Set(op, Box::new(left), Box::new(r));
        }
    }

    fn parse_instance_of(&mut self) -> XdmResult<Expr> {
        let left = self.parse_treat_as()?;
        if self.peek_kw("instance")? && self.peek2()?.tok.is_name("of") {
            self.next()?;
            self.next()?;
            let ty = self.parse_sequence_type()?;
            Ok(Expr::InstanceOf(Box::new(left), ty))
        } else {
            Ok(left)
        }
    }

    fn parse_treat_as(&mut self) -> XdmResult<Expr> {
        let left = self.parse_castable_as()?;
        if self.peek_kw("treat")? && self.peek2()?.tok.is_name("as") {
            self.next()?;
            self.next()?;
            let ty = self.parse_sequence_type()?;
            Ok(Expr::TreatAs(Box::new(left), ty))
        } else {
            Ok(left)
        }
    }

    fn parse_castable_as(&mut self) -> XdmResult<Expr> {
        let left = self.parse_cast_as()?;
        if self.peek_kw("castable")? && self.peek2()?.tok.is_name("as") {
            self.next()?;
            self.next()?;
            let (q, opt) = self.parse_single_type()?;
            Ok(Expr::CastableAs(Box::new(left), q, opt))
        } else {
            Ok(left)
        }
    }

    fn parse_cast_as(&mut self) -> XdmResult<Expr> {
        let left = self.parse_unary()?;
        if self.peek_kw("cast")? && self.peek2()?.tok.is_name("as") {
            self.next()?;
            self.next()?;
            let (q, opt) = self.parse_single_type()?;
            Ok(Expr::CastAs(Box::new(left), q, opt))
        } else {
            Ok(left)
        }
    }

    fn parse_single_type(&mut self) -> XdmResult<(QName, bool)> {
        let q = self.parse_qname(NameCtx::Plain)?;
        let opt = self.eat(&Tok::Question)?;
        Ok((q, opt))
    }

    fn parse_unary(&mut self) -> XdmResult<Expr> {
        match self.peek()?.tok {
            Tok::Minus => {
                self.next()?;
                let e = self.parse_unary()?;
                Ok(Expr::Unary(true, Box::new(e)))
            }
            Tok::Plus => {
                self.next()?;
                let e = self.parse_unary()?;
                Ok(Expr::Unary(false, Box::new(e)))
            }
            _ => self.parse_path(),
        }
    }

    // -- paths --------------------------------------------------------

    fn parse_path(&mut self) -> XdmResult<Expr> {
        match self.peek()?.tok {
            Tok::Slash => {
                self.next()?;
                // A lone "/" selects the root; otherwise steps follow.
                if self.starts_step()? {
                    let steps = self.parse_relative_steps()?;
                    Ok(Expr::Path { start: PathStart::Root, steps })
                } else {
                    Ok(Expr::Path { start: PathStart::Root, steps: Vec::new() })
                }
            }
            Tok::SlashSlash => {
                self.next()?;
                let mut steps = vec![Step {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::Kind(KindTest::AnyKind),
                    predicates: Vec::new(),
                }];
                steps.extend(self.parse_relative_steps()?);
                Ok(Expr::Path { start: PathStart::RootDescendant, steps })
            }
            _ => {
                // Relative path: first step may be a primary/filter.
                let first = self.parse_step_expr()?;
                let mut steps = Vec::new();
                loop {
                    match self.peek()?.tok {
                        Tok::Slash => {
                            self.next()?;
                            steps.push(self.parse_axis_step()?);
                        }
                        Tok::SlashSlash => {
                            self.next()?;
                            steps.push(Step {
                                axis: Axis::DescendantOrSelf,
                                test: NodeTest::Kind(KindTest::AnyKind),
                                predicates: Vec::new(),
                            });
                            steps.push(self.parse_axis_step()?);
                        }
                        _ => break,
                    }
                }
                if steps.is_empty() {
                    Ok(first)
                } else {
                    Ok(Expr::Path { start: PathStart::Expr(Box::new(first)), steps })
                }
            }
        }
    }

    /// Does the upcoming token start an axis step?
    fn starts_step(&mut self) -> XdmResult<bool> {
        Ok(matches!(
            self.peek()?.tok,
            Tok::Name(_, _)
                | Tok::Star
                | Tok::At
                | Tok::DotDot
                | Tok::PrefixWildcard(_)
                | Tok::LocalWildcard(_)
                | Tok::FullWildcard
        ))
    }

    fn parse_relative_steps(&mut self) -> XdmResult<Vec<Step>> {
        let mut steps = vec![self.parse_axis_step()?];
        loop {
            match self.peek()?.tok {
                Tok::Slash => {
                    self.next()?;
                    steps.push(self.parse_axis_step()?);
                }
                Tok::SlashSlash => {
                    self.next()?;
                    steps.push(Step {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTest::Kind(KindTest::AnyKind),
                        predicates: Vec::new(),
                    });
                    steps.push(self.parse_axis_step()?);
                }
                _ => return Ok(steps),
            }
        }
    }

    /// A step expression in first position: an axis step or a filter
    /// (primary + predicates).
    fn parse_step_expr(&mut self) -> XdmResult<Expr> {
        let t = self.peek()?.clone();
        let is_axis_step = match &t.tok {
            Tok::At | Tok::DotDot => true,
            Tok::Star
            | Tok::PrefixWildcard(_)
            | Tok::LocalWildcard(_)
            | Tok::FullWildcard => true,
            Tok::Name(None, n) => {
                let n2 = self.peek2()?.tok.clone();
                // Computed constructors: `element N {`, `element {`,
                // `text {`, etc. are primaries, not name-test steps.
                let is_computed_ctor = match n.as_str() {
                    "element" | "attribute" | "processing-instruction" => {
                        n2 == Tok::LBrace
                            || (matches!(n2, Tok::Name(_, _))
                                && self.peek3()?.tok == Tok::LBrace)
                    }
                    "text" | "comment" | "document" => n2 == Tok::LBrace,
                    _ => false,
                };
                if is_computed_ctor {
                    false
                } else if n2 == Tok::ColonColon {
                    true
                } else if n2 == Tok::LParen {
                    // Kind tests are steps; anything else is a call.
                    matches!(
                        n.as_str(),
                        "node"
                            | "text"
                            | "comment"
                            | "element"
                            | "attribute"
                            | "document-node"
                            | "processing-instruction"
                    )
                } else {
                    true // plain name test
                }
            }
            Tok::Name(Some(_), _) => self.peek2()?.tok != Tok::LParen,
            _ => false,
        };
        if is_axis_step {
            let step = self.parse_axis_step()?;
            Ok(Expr::Path {
                start: PathStart::Expr(Box::new(Expr::ContextItem)),
                steps: vec![step],
            })
        } else {
            // Primary expression with optional predicates.
            let base = self.parse_primary()?;
            let mut preds = Vec::new();
            while self.peek()?.tok == Tok::LBracket {
                self.next()?;
                preds.push(self.parse_expr_top()?);
                self.expect_tok(Tok::RBracket)?;
            }
            if preds.is_empty() {
                Ok(base)
            } else {
                Ok(Expr::Filter { base: Box::new(base), predicates: preds })
            }
        }
    }

    fn parse_axis_step(&mut self) -> XdmResult<Step> {
        let t = self.peek()?.clone();
        let (axis, explicit) = match &t.tok {
            Tok::At => {
                self.next()?;
                (Axis::Attribute, false)
            }
            Tok::DotDot => {
                self.next()?;
                let mut step = Step {
                    axis: Axis::Parent,
                    test: NodeTest::Kind(KindTest::AnyKind),
                    predicates: Vec::new(),
                };
                while self.peek()?.tok == Tok::LBracket {
                    self.next()?;
                    step.predicates.push(self.parse_expr_top()?);
                    self.expect_tok(Tok::RBracket)?;
                }
                return Ok(step);
            }
            Tok::Name(None, n) if self.peek2()?.tok == Tok::ColonColon => {
                let axis = match n.as_str() {
                    "child" => Axis::Child,
                    "attribute" => Axis::Attribute,
                    "descendant" => Axis::Descendant,
                    "descendant-or-self" => Axis::DescendantOrSelf,
                    "self" => Axis::SelfAxis,
                    "parent" => Axis::Parent,
                    "ancestor" => Axis::Ancestor,
                    "ancestor-or-self" => Axis::AncestorOrSelf,
                    "following-sibling" => Axis::FollowingSibling,
                    "preceding-sibling" => Axis::PrecedingSibling,
                    other => {
                        return Err(
                            self.err_at(t.start, format!("unsupported axis {other}"))
                        )
                    }
                };
                self.next()?;
                self.next()?;
                (axis, true)
            }
            _ => (Axis::Child, false),
        };
        let test = self.parse_node_test(axis, explicit)?;
        let mut predicates = Vec::new();
        while self.peek()?.tok == Tok::LBracket {
            self.next()?;
            predicates.push(self.parse_expr_top()?);
            self.expect_tok(Tok::RBracket)?;
        }
        Ok(Step { axis, test, predicates })
    }

    fn parse_node_test(&mut self, axis: Axis, _explicit: bool) -> XdmResult<NodeTest> {
        let t = self.next()?;
        match t.tok {
            Tok::Star => Ok(NodeTest::AnyName),
            Tok::FullWildcard => Ok(NodeTest::AnyName),
            Tok::LocalWildcard(l) => Ok(NodeTest::AnyNs(l)),
            Tok::PrefixWildcard(p) => {
                let uri = self.resolve_prefix(&p).ok_or_else(|| {
                    self.err_at(t.start, format!("undeclared namespace prefix {p:?}"))
                })?;
                Ok(NodeTest::NsWildcard(Some(uri)))
            }
            Tok::Name(None, n) if self.peek()?.tok == Tok::LParen => {
                let kind = match n.as_str() {
                    "node" => {
                        self.expect_tok(Tok::LParen)?;
                        self.expect_tok(Tok::RParen)?;
                        KindTest::AnyKind
                    }
                    "text" => {
                        self.expect_tok(Tok::LParen)?;
                        self.expect_tok(Tok::RParen)?;
                        KindTest::Text
                    }
                    "comment" => {
                        self.expect_tok(Tok::LParen)?;
                        self.expect_tok(Tok::RParen)?;
                        KindTest::Comment
                    }
                    "document-node" => {
                        self.expect_tok(Tok::LParen)?;
                        self.expect_tok(Tok::RParen)?;
                        KindTest::Document
                    }
                    "element" => {
                        self.expect_tok(Tok::LParen)?;
                        let name = self.parse_optional_test_name()?;
                        self.expect_tok(Tok::RParen)?;
                        KindTest::Element(name)
                    }
                    "attribute" => {
                        self.expect_tok(Tok::LParen)?;
                        let name = self.parse_optional_test_name()?;
                        self.expect_tok(Tok::RParen)?;
                        KindTest::Attribute(name)
                    }
                    "processing-instruction" => {
                        self.expect_tok(Tok::LParen)?;
                        let target = match &self.peek()?.tok {
                            Tok::RParen => None,
                            Tok::Str(s) => {
                                let s = s.clone();
                                self.next()?;
                                Some(s)
                            }
                            Tok::Name(None, n) => {
                                let s = n.clone();
                                self.next()?;
                                Some(s)
                            }
                            _ => return Err(self.err_at(t.start, "bad PI target")),
                        };
                        self.expect_tok(Tok::RParen)?;
                        KindTest::Pi(target)
                    }
                    other => {
                        return Err(self.err_at(
                            t.start,
                            format!("unknown kind test {other}()"),
                        ))
                    }
                };
                Ok(NodeTest::Kind(kind))
            }
            Tok::Name(p, l) => {
                let ctx = if axis == Axis::Attribute {
                    NameCtx::Plain
                } else {
                    NameCtx::Element
                };
                let q = self.resolve_name(p.as_deref(), &l, ctx, t.start)?;
                Ok(NodeTest::Name(q))
            }
            other => Err(self.err_at(t.start, format!("expected node test, found {other:?}"))),
        }
    }

    // -- primaries ------------------------------------------------------

    fn parse_primary(&mut self) -> XdmResult<Expr> {
        let t = self.peek()?.clone();
        match &t.tok {
            Tok::Int(i) => {
                let i = *i;
                self.next()?;
                Ok(Expr::Literal(AtomicValue::Integer(i)))
            }
            Tok::Dec(s) => {
                let d = Decimal::parse(s).map_err(|e| self.err_at(t.start, e.message))?;
                self.next()?;
                Ok(Expr::Literal(AtomicValue::Decimal(d)))
            }
            Tok::Dbl(d) => {
                let d = *d;
                self.next()?;
                Ok(Expr::Literal(AtomicValue::Double(d)))
            }
            Tok::Str(s) => {
                let s = s.clone();
                self.next()?;
                Ok(Expr::Literal(AtomicValue::String(s)))
            }
            Tok::Var(_, _) => {
                let q = self.parse_var_name()?;
                Ok(Expr::VarRef(q))
            }
            Tok::Dot => {
                self.next()?;
                Ok(Expr::ContextItem)
            }
            Tok::LParen => {
                self.next()?;
                if self.eat(&Tok::RParen)? {
                    return Ok(Expr::Comma(Vec::new())); // ()
                }
                let e = self.parse_expr_top()?;
                self.expect_tok(Tok::RParen)?;
                Ok(e)
            }
            Tok::Lt => self.parse_direct_constructor(t.start),
            Tok::Name(None, kw) => {
                // Computed constructors.
                match kw.as_str() {
                    "element" | "attribute" | "processing-instruction"
                        if matches!(
                            self.peek2()?.tok,
                            Tok::Name(_, _) | Tok::LBrace
                        ) =>
                    {
                        return self.parse_computed_named(kw.clone())
                    }
                    "text" | "comment" | "document"
                        if self.peek2()?.tok == Tok::LBrace =>
                    {
                        let kind = kw.clone();
                        self.next()?;
                        self.expect_tok(Tok::LBrace)?;
                        let e = self.parse_expr_top()?;
                        self.expect_tok(Tok::RBrace)?;
                        return Ok(match kind.as_str() {
                            "text" => Expr::ComputedText(Box::new(e)),
                            "comment" => Expr::ComputedComment(Box::new(e)),
                            _ => Expr::ComputedDocument(Box::new(e)),
                        });
                    }
                    _ => {}
                }
                self.parse_call_or_error(t.start)
            }
            Tok::Name(Some(_), _) => self.parse_call_or_error(t.start),
            other => {
                Err(self.err_at(t.start, format!("unexpected token {other:?}")))
            }
        }
    }

    fn parse_call_or_error(&mut self, pos: usize) -> XdmResult<Expr> {
        // Must be a function call: QName "(" args ")".
        if self.peek2()?.tok != Tok::LParen {
            let t = self.peek()?.clone();
            return Err(self.err_at(
                pos,
                format!("unexpected name {:?} (not a function call)", t.tok),
            ));
        }
        let name = self.parse_qname(NameCtx::Function)?;
        self.expect_tok(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek()?.tok != Tok::RParen {
            loop {
                args.push(self.parse_expr_single()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect_tok(Tok::RParen)?;
        Ok(Expr::FunctionCall { name, args })
    }

    fn parse_computed_named(&mut self, kind: String) -> XdmResult<Expr> {
        self.next()?; // the keyword
        let name = if self.peek()?.tok == Tok::LBrace {
            self.next()?;
            let e = self.parse_expr_top()?;
            self.expect_tok(Tok::RBrace)?;
            NameExpr::Computed(Box::new(e))
        } else {
            let ctx = if kind == "attribute" { NameCtx::Plain } else { NameCtx::Element };
            NameExpr::Fixed(self.parse_qname(ctx)?)
        };
        self.expect_tok(Tok::LBrace)?;
        let content = if self.peek()?.tok == Tok::RBrace {
            None
        } else {
            Some(Box::new(self.parse_expr_top()?))
        };
        self.expect_tok(Tok::RBrace)?;
        Ok(match kind.as_str() {
            "element" => Expr::ComputedElement(name, content),
            "attribute" => Expr::ComputedAttribute(name, content),
            _ => Expr::ComputedPi(name, content),
        })
    }

    // -- keyword-led expressions ------------------------------------------

    fn parse_flwor(&mut self) -> XdmResult<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.peek_kw("for")? && matches!(self.peek2()?.tok, Tok::Var(_, _)) {
                self.next()?;
                loop {
                    let var = self.parse_var_name()?;
                    let pos = if self.eat_kw("at")? {
                        Some(self.parse_var_name()?)
                    } else {
                        None
                    };
                    self.expect_kw("in")?;
                    let source = self.parse_expr_single()?;
                    clauses.push(FlworClause::For { var, pos, source });
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
            } else if self.peek_kw("let")? && matches!(self.peek2()?.tok, Tok::Var(_, _)) {
                self.next()?;
                loop {
                    let var = self.parse_var_name()?;
                    let ty = if self.eat_kw("as")? {
                        Some(self.parse_sequence_type()?)
                    } else {
                        None
                    };
                    self.expect_tok(Tok::ColonEq)?;
                    let value = self.parse_expr_single()?;
                    clauses.push(FlworClause::Let { var, ty, value });
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
            } else if self.peek_kw("where")? {
                self.next()?;
                clauses.push(FlworClause::Where(self.parse_expr_single()?));
            } else if self.peek_kw("order")? && self.peek2()?.tok.is_name("by") {
                self.next()?;
                self.next()?;
                let mut specs = Vec::new();
                loop {
                    let key = self.parse_expr_single()?;
                    let mut descending = false;
                    if self.eat_kw("ascending")? {
                    } else if self.eat_kw("descending")? {
                        descending = true;
                    }
                    let mut empty_least = true;
                    if self.eat_kw("empty")? {
                        if self.eat_kw("greatest")? {
                            empty_least = false;
                        } else {
                            self.expect_kw("least")?;
                        }
                    }
                    specs.push(OrderSpec { key, descending, empty_least });
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
                clauses.push(FlworClause::OrderBy(specs));
            } else if self.peek_kw("stable")? && self.peek2()?.tok.is_name("order") {
                self.next()?; // our order-by is always stable
            } else {
                break;
            }
        }
        self.expect_kw("return")?;
        let ret = self.parse_expr_single()?;
        if clauses.is_empty() {
            return Err(self.err_here("FLWOR requires at least one clause"));
        }
        Ok(Expr::Flwor { clauses: clauses.into(), ret: Rc::new(ret) })
    }

    fn parse_quantified(&mut self) -> XdmResult<Expr> {
        let t = self.next()?; // some | every
        let quantifier = if t.tok.is_name("some") {
            Quantifier::Some
        } else {
            Quantifier::Every
        };
        let mut bindings = Vec::new();
        loop {
            let var = self.parse_var_name()?;
            self.expect_kw("in")?;
            let src = self.parse_expr_single()?;
            bindings.push((var, src));
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        self.expect_kw("satisfies")?;
        let satisfies = self.parse_expr_single()?;
        Ok(Expr::Quantified { quantifier, bindings, satisfies: Box::new(satisfies) })
    }

    fn parse_if_expr(&mut self) -> XdmResult<Expr> {
        self.next()?; // if
        self.expect_tok(Tok::LParen)?;
        let cond = self.parse_expr_top()?;
        self.expect_tok(Tok::RParen)?;
        self.expect_kw("then")?;
        let then = self.parse_expr_single()?;
        self.expect_kw("else")?;
        let els = self.parse_expr_single()?;
        Ok(Expr::If(Box::new(cond), Box::new(then), Box::new(els)))
    }

    fn parse_typeswitch(&mut self) -> XdmResult<Expr> {
        self.next()?; // typeswitch
        self.expect_tok(Tok::LParen)?;
        let operand = self.parse_expr_top()?;
        self.expect_tok(Tok::RParen)?;
        let mut cases = Vec::new();
        while self.eat_kw("case")? {
            let var = if matches!(self.peek()?.tok, Tok::Var(_, _)) {
                let v = self.parse_var_name()?;
                self.expect_kw("as")?;
                Some(v)
            } else {
                None
            };
            let ty = self.parse_sequence_type()?;
            self.expect_kw("return")?;
            let body = self.parse_expr_single()?;
            cases.push(TypeswitchCase { var, ty: Some(ty), body });
        }
        self.expect_kw("default")?;
        let var = if matches!(self.peek()?.tok, Tok::Var(_, _)) {
            Some(self.parse_var_name()?)
        } else {
            None
        };
        self.expect_kw("return")?;
        let body = self.parse_expr_single()?;
        cases.push(TypeswitchCase { var, ty: None, body });
        Ok(Expr::Typeswitch { operand: Box::new(operand), cases })
    }

    // -- XUF --------------------------------------------------------------

    fn parse_insert(&mut self) -> XdmResult<Expr> {
        self.next()?; // insert
        self.next()?; // node | nodes
        let source = self.parse_expr_single()?;
        let pos = if self.eat_kw("into")? {
            InsertPos::Into
        } else if self.eat_kw("as")? {
            let p = if self.eat_kw("first")? {
                InsertPos::FirstInto
            } else {
                self.expect_kw("last")?;
                InsertPos::LastInto
            };
            self.expect_kw("into")?;
            p
        } else if self.eat_kw("before")? {
            InsertPos::Before
        } else if self.eat_kw("after")? {
            InsertPos::After
        } else {
            return Err(self.err_here("expected into/before/after in insert"));
        };
        let target = self.parse_expr_single()?;
        Ok(Expr::Insert { source: Box::new(source), pos, target: Box::new(target) })
    }

    fn parse_delete(&mut self) -> XdmResult<Expr> {
        self.next()?; // delete
        self.next()?; // node | nodes
        let target = self.parse_expr_single()?;
        Ok(Expr::Delete(Box::new(target)))
    }

    fn parse_replace(&mut self) -> XdmResult<Expr> {
        self.next()?; // replace
        let value_of = if self.eat_kw("value")? {
            self.expect_kw("of")?;
            true
        } else {
            false
        };
        self.expect_kw("node")?;
        let target = self.parse_expr_single()?;
        self.expect_kw("with")?;
        let with = self.parse_expr_single()?;
        Ok(Expr::Replace { value_of, target: Box::new(target), with: Box::new(with) })
    }

    fn parse_rename(&mut self) -> XdmResult<Expr> {
        self.next()?; // rename
        self.expect_kw("node")?;
        let target = self.parse_expr_single()?;
        self.expect_kw("as")?;
        let new_name = self.parse_expr_single()?;
        Ok(Expr::Rename { target: Box::new(target), new_name: Box::new(new_name) })
    }

    fn parse_transform(&mut self) -> XdmResult<Expr> {
        self.next()?; // copy
        let mut copies = Vec::new();
        loop {
            let var = self.parse_var_name()?;
            self.expect_tok(Tok::ColonEq)?;
            let e = self.parse_expr_single()?;
            copies.push((var, e));
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        self.expect_kw("modify")?;
        let modify = self.parse_expr_single()?;
        self.expect_kw("return")?;
        let ret = self.parse_expr_single()?;
        Ok(Expr::Transform { copies, modify: Box::new(modify), ret: Box::new(ret) })
    }

    // -- direct constructors (raw mode) -------------------------------

    /// Called with the `<` token peeked (its start at `lt_pos`).
    fn parse_direct_constructor(&mut self, lt_pos: usize) -> XdmResult<Expr> {
        self.rewind_to(lt_pos);
        if self.lx.rest().starts_with("<!--") {
            self.lx.bump(4);
            let end = self
                .lx
                .rest()
                .find("-->")
                .ok_or_else(|| self.err_at(self.lx.pos(), "unterminated comment"))?;
            let content = self.lx.rest()[..end].to_string();
            self.lx.bump(end + 3);
            return Ok(Expr::ComputedComment(Box::new(Expr::str(content))));
        }
        if self.lx.rest().starts_with("<?") {
            self.lx.bump(2);
            let rest = self.lx.rest();
            let name_len = rest
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'-' || *b == b'_')
                .count();
            let target = rest[..name_len].to_string();
            self.lx.bump(name_len);
            let rest = self.lx.rest();
            let end = rest
                .find("?>")
                .ok_or_else(|| self.err_at(self.lx.pos(), "unterminated PI"))?;
            let content = rest[..end].trim_start().to_string();
            self.lx.bump(end + 2);
            return Ok(Expr::ComputedPi(
                NameExpr::Fixed(QName::new(target)),
                Some(Box::new(Expr::str(content))),
            ));
        }
        let elem = self.parse_direct_element()?;
        Ok(Expr::DirectElement(Box::new(elem)))
    }

    fn raw_peek(&self) -> Option<u8> {
        self.lx.peek_byte()
    }

    fn raw_err(&self, msg: impl Into<String>) -> XdmError {
        self.err_at(self.lx.pos(), msg)
    }

    fn raw_skip_ws(&mut self) {
        while matches!(self.raw_peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.lx.bump(1);
        }
    }

    fn raw_name(&mut self) -> XdmResult<String> {
        let rest = self.lx.rest();
        let len = rest
            .bytes()
            .take_while(|b| {
                b.is_ascii_alphanumeric()
                    || *b == b'_'
                    || *b == b'-'
                    || *b == b'.'
                    || *b == b':'
                    || *b >= 0x80
            })
            .count();
        if len == 0 {
            return Err(self.raw_err("expected name"));
        }
        let name = rest[..len].to_string();
        self.lx.bump(len);
        Ok(name)
    }

    /// Parse `{expr}` from raw mode: switch to token mode and back.
    fn raw_embedded_expr(&mut self) -> XdmResult<Expr> {
        debug_assert_eq!(self.raw_peek(), Some(b'{'));
        self.lx.bump(1);
        // Token mode until the matching top-level `}`.
        let e = self.parse_expr_top()?;
        // The `}` must be the next token; consume it and resume raw
        // mode at its end.
        let t = self.next()?;
        if t.tok != Tok::RBrace {
            return Err(self.err_at(t.start, "expected '}' to close embedded expression"));
        }
        self.rewind_to(t.end);
        Ok(e)
    }

    fn parse_direct_element(&mut self) -> XdmResult<DirectElement> {
        debug_assert_eq!(self.raw_peek(), Some(b'<'));
        self.lx.bump(1);
        let raw_name = self.raw_name()?;
        // Attributes.
        let mut raw_attrs: Vec<(String, Vec<AttrContent>)> = Vec::new();
        let mut ns_decls: Vec<(String, String)> = Vec::new();
        let mut self_closing = false;
        loop {
            self.raw_skip_ws();
            match self.raw_peek() {
                Some(b'/') => {
                    if !self.lx.rest().starts_with("/>") {
                        return Err(self.raw_err("expected '/>'"));
                    }
                    self.lx.bump(2);
                    self_closing = true;
                    break;
                }
                Some(b'>') => {
                    self.lx.bump(1);
                    break;
                }
                Some(_) => {
                    let aname = self.raw_name()?;
                    self.raw_skip_ws();
                    if self.raw_peek() != Some(b'=') {
                        return Err(self.raw_err("expected '=' after attribute name"));
                    }
                    self.lx.bump(1);
                    self.raw_skip_ws();
                    let parts = self.parse_attr_value_template()?;
                    if aname == "xmlns" {
                        ns_decls.push((String::new(), attr_literal(&parts, &aname, self)?));
                    } else if let Some(p) = aname.strip_prefix("xmlns:") {
                        ns_decls
                            .push((p.to_string(), attr_literal(&parts, &aname, self)?));
                    } else {
                        raw_attrs.push((aname, parts));
                    }
                }
                None => return Err(self.raw_err("unterminated start tag")),
            }
        }
        self.push_ns_frame(&ns_decls);
        // An unprefixed xmlns="" default also affects element-name
        // resolution inside the constructor.
        let saved_default = self.default_element_ns.clone();
        for (p, u) in &ns_decls {
            if p.is_empty() {
                self.default_element_ns =
                    if u.is_empty() { None } else { Some(u.clone()) };
            }
        }
        let result = (|| -> XdmResult<DirectElement> {
            let name = self.resolve_raw_qname(&raw_name, NameCtx::Element)?;
            let mut attributes = Vec::new();
            for (aname, parts) in raw_attrs {
                let q = self.resolve_raw_qname(&aname, NameCtx::Plain)?;
                attributes.push((q, parts));
            }
            let mut content = Vec::new();
            if !self_closing {
                self.parse_direct_content(&mut content)?;
                // We are at "</"; parse the end tag.
                self.lx.bump(2);
                let close = self.raw_name()?;
                if close != raw_name {
                    return Err(self.raw_err(format!(
                        "mismatched end tag </{close}> for <{raw_name}>"
                    )));
                }
                self.raw_skip_ws();
                if self.raw_peek() != Some(b'>') {
                    return Err(self.raw_err("expected '>'"));
                }
                self.lx.bump(1);
            }
            Ok(DirectElement { name, attributes, ns_decls: ns_decls.clone(), content })
        })();
        self.default_element_ns = saved_default;
        self.pop_ns_frame();
        result
    }

    fn resolve_raw_qname(&self, raw: &str, ctx: NameCtx) -> XdmResult<QName> {
        match raw.split_once(':') {
            Some((p, l)) => self.resolve_name(Some(p), l, ctx, self.lx.pos()),
            None => self.resolve_name(None, raw, ctx, self.lx.pos()),
        }
    }

    fn parse_attr_value_template(&mut self) -> XdmResult<Vec<AttrContent>> {
        let quote = match self.raw_peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.raw_err("expected quoted attribute value")),
        };
        self.lx.bump(1);
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match self.raw_peek() {
                None => return Err(self.raw_err("unterminated attribute value")),
                Some(b) if b == quote => {
                    // Doubled quote escapes itself.
                    if self.lx.rest().as_bytes().get(1) == Some(&quote) {
                        text.push(quote as char);
                        self.lx.bump(2);
                    } else {
                        self.lx.bump(1);
                        if !text.is_empty() {
                            parts.push(AttrContent::Text(std::mem::take(&mut text)));
                        }
                        return Ok(parts);
                    }
                }
                Some(b'{') => {
                    if self.lx.rest().starts_with("{{") {
                        text.push('{');
                        self.lx.bump(2);
                    } else {
                        if !text.is_empty() {
                            parts.push(AttrContent::Text(std::mem::take(&mut text)));
                        }
                        let e = self.raw_embedded_expr()?;
                        parts.push(AttrContent::Expr(e));
                    }
                }
                Some(b'}') => {
                    if self.lx.rest().starts_with("}}") {
                        text.push('}');
                        self.lx.bump(2);
                    } else {
                        return Err(self.raw_err("lone '}' in attribute value"));
                    }
                }
                Some(b'&') => {
                    let c = self.raw_entity()?;
                    text.push(c);
                }
                Some(b'<') => return Err(self.raw_err("'<' in attribute value")),
                Some(_) => {
                    let c = self.lx.rest().chars().next().unwrap();
                    text.push(c);
                    self.lx.bump(c.len_utf8());
                }
            }
        }
    }

    fn raw_entity(&mut self) -> XdmResult<char> {
        let rest = self.lx.rest();
        let semi = rest
            .find(';')
            .ok_or_else(|| self.raw_err("unterminated entity reference"))?;
        let body = &rest[1..semi];
        let c = match body {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                u32::from_str_radix(&body[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.raw_err("bad character reference"))?
            }
            _ if body.starts_with('#') => body[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| self.raw_err("bad character reference"))?,
            _ => return Err(self.raw_err(format!("unknown entity &{body};"))),
        };
        self.lx.bump(semi + 1);
        Ok(c)
    }

    fn parse_direct_content(&mut self, out: &mut Vec<DirectContent>) -> XdmResult<()> {
        let mut text = String::new();
        loop {
            let flush = |text: &mut String, out: &mut Vec<DirectContent>, preserve: bool| {
                if !text.is_empty() {
                    let keep = preserve || !text.chars().all(char::is_whitespace);
                    if keep {
                        out.push(DirectContent::Text(std::mem::take(text)));
                    } else {
                        text.clear();
                    }
                }
            };
            let rest = self.lx.rest();
            if rest.starts_with("</") {
                flush(&mut text, out, self.boundary_space_preserve);
                return Ok(()); // caller consumes the end tag
            } else if rest.starts_with("<!--") {
                flush(&mut text, out, self.boundary_space_preserve);
                self.lx.bump(4);
                let end = self
                    .lx
                    .rest()
                    .find("-->")
                    .ok_or_else(|| self.raw_err("unterminated comment"))?;
                let c = self.lx.rest()[..end].to_string();
                self.lx.bump(end + 3);
                out.push(DirectContent::Comment(c));
            } else if rest.starts_with("<![CDATA[") {
                self.lx.bump(9);
                let end = self
                    .lx
                    .rest()
                    .find("]]>")
                    .ok_or_else(|| self.raw_err("unterminated CDATA"))?;
                text.push_str(&self.lx.rest()[..end]);
                self.lx.bump(end + 3);
            } else if rest.starts_with("<?") {
                flush(&mut text, out, self.boundary_space_preserve);
                self.lx.bump(2);
                let target = self.raw_name()?;
                let end = self
                    .lx
                    .rest()
                    .find("?>")
                    .ok_or_else(|| self.raw_err("unterminated PI"))?;
                let c = self.lx.rest()[..end].trim_start().to_string();
                self.lx.bump(end + 2);
                out.push(DirectContent::Pi(target, c));
            } else if rest.starts_with('<') {
                flush(&mut text, out, self.boundary_space_preserve);
                let child = self.parse_direct_element()?;
                out.push(DirectContent::Element(Box::new(child)));
            } else if rest.starts_with("{{") {
                text.push('{');
                self.lx.bump(2);
            } else if rest.starts_with("}}") {
                text.push('}');
                self.lx.bump(2);
            } else if rest.starts_with('{') {
                flush(&mut text, out, self.boundary_space_preserve);
                let e = self.raw_embedded_expr()?;
                out.push(DirectContent::Expr(e));
            } else if rest.starts_with('}') {
                return Err(self.raw_err("lone '}' in element content"));
            } else if rest.starts_with('&') {
                let c = self.raw_entity()?;
                text.push(c);
            } else if rest.is_empty() {
                return Err(self.raw_err("unterminated element content"));
            } else {
                let c = rest.chars().next().unwrap();
                text.push(c);
                self.lx.bump(c.len_utf8());
            }
        }
    }
}

/// Reduce a parsed attribute-value template to a literal string (for
/// `xmlns` pseudo-attributes, which may not contain expressions).
fn attr_literal(
    parts: &[AttrContent],
    name: &str,
    p: &Parser<'_>,
) -> XdmResult<String> {
    let mut out = String::new();
    for part in parts {
        match part {
            AttrContent::Text(t) => out.push_str(t),
            AttrContent::Expr(_) => {
                return Err(p.err_at(
                    p.lx.pos(),
                    format!("{name} must be a literal namespace URI"),
                ))
            }
        }
    }
    Ok(out)
}

/// Which default namespace applies to an unprefixed name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NameCtx {
    /// Element/type context (default element namespace).
    Element,
    /// Function context (default function namespace).
    Function,
    /// No default (variables, attributes).
    Plain,
}
