//! XQSE statement and prolog parsing (child module of [`super`] so it
//! shares the parser's internals).
//!
//! Implements the appendix EBNF of the paper: prolog with
//! `declare [readonly] procedure` (plus the ALDSP 3.0 alternate
//! spelling `declare xqse function`), the block grammar with its
//! leading variable declarations, and every statement form.

use std::rc::Rc;

use xdm::error::XdmResult;
use xdm::qname::QName;

use crate::ast::*;
use crate::lexer::Tok;

use super::{NameCtx, Parser};

impl<'a> Parser<'a> {
    /// Parse a whole module: prolog then query body (expression or
    /// block), then EOF.
    pub(crate) fn parse_module(&mut self) -> XdmResult<Module> {
        let prolog = self.parse_prolog()?;
        let body = if self.peek()?.tok == Tok::Eof {
            QueryBody::None
        } else if self.peek()?.tok == Tok::LBrace {
            QueryBody::Block(self.parse_block()?)
        } else {
            QueryBody::Expr(self.parse_expr_top()?)
        };
        self.expect_eof()?;
        Ok(Module { prolog, body })
    }

    fn parse_prolog(&mut self) -> XdmResult<Prolog> {
        let mut prolog = Prolog::default();
        loop {
            if !self.peek()?.tok.is_name("declare") {
                break;
            }
            // Inside a block body, `declare $x` is a block decl — but
            // at prolog level `declare` is always followed by a
            // keyword name, so a `$` means we've gone too far.
            let t2 = self.peek2()?.tok.clone();
            let Tok::Name(None, what) = t2 else { break };
            match what.as_str() {
                "namespace" => {
                    self.next()?;
                    self.next()?;
                    let t = self.next()?;
                    let Tok::Name(None, prefix) = t.tok else {
                        return Err(self.err_at(t.start, "expected namespace prefix"));
                    };
                    self.expect_tok(Tok::Eq)?;
                    let uri = self.parse_string_literal()?;
                    self.bind_ns(&prefix, &uri);
                    prolog.namespaces.push((prefix, uri));
                    self.expect_tok(Tok::Semi)?;
                }
                "default" => {
                    self.next()?;
                    self.next()?;
                    if self.eat_kw("element")? {
                        self.expect_kw("namespace")?;
                        let uri = self.parse_string_literal()?;
                        self.default_element_ns =
                            if uri.is_empty() { None } else { Some(uri.clone()) };
                        prolog.default_element_ns = Some(uri);
                    } else {
                        self.expect_kw("function")?;
                        self.expect_kw("namespace")?;
                        let uri = self.parse_string_literal()?;
                        self.default_function_ns = uri.clone();
                        prolog.default_function_ns = Some(uri);
                    }
                    self.expect_tok(Tok::Semi)?;
                }
                "boundary-space" => {
                    self.next()?;
                    self.next()?;
                    if self.eat_kw("preserve")? {
                        self.boundary_space_preserve = true;
                        prolog.boundary_space_preserve = true;
                    } else {
                        self.expect_kw("strip")?;
                    }
                    self.expect_tok(Tok::Semi)?;
                }
                "variable" => {
                    self.next()?;
                    self.next()?;
                    let name = self.parse_var_name()?;
                    let ty = if self.eat_kw("as")? {
                        Some(self.parse_sequence_type()?)
                    } else {
                        None
                    };
                    let value = if self.eat_kw("external")? {
                        None
                    } else {
                        self.expect_tok(Tok::ColonEq)?;
                        Some(self.parse_expr_single()?)
                    };
                    prolog.variables.push(VarDecl { name, ty, value });
                    self.expect_tok(Tok::Semi)?;
                }
                "function" => {
                    self.next()?;
                    self.next()?;
                    prolog.functions.push(self.parse_function_decl(false)?);
                    self.expect_tok(Tok::Semi)?;
                }
                "updating" => {
                    self.next()?;
                    self.next()?;
                    self.expect_kw("function")?;
                    prolog.functions.push(self.parse_function_decl(true)?);
                    self.expect_tok(Tok::Semi)?;
                }
                "procedure" => {
                    self.next()?;
                    self.next()?;
                    prolog.procedures.push(self.parse_procedure_decl(false)?);
                    self.expect_tok(Tok::Semi)?;
                }
                "readonly" => {
                    self.next()?;
                    self.next()?;
                    self.expect_kw("procedure")?;
                    prolog.procedures.push(self.parse_procedure_decl(true)?);
                    self.expect_tok(Tok::Semi)?;
                }
                // ALDSP 3.0 alternate syntax: `declare xqse function`
                // is a readonly procedure (§III.B.9 of the paper).
                "xqse" => {
                    self.next()?;
                    self.next()?;
                    self.expect_kw("function")?;
                    prolog.procedures.push(self.parse_procedure_decl(true)?);
                    self.expect_tok(Tok::Semi)?;
                }
                "option" => {
                    self.next()?;
                    self.next()?;
                    let q = self.parse_qname(NameCtx::Plain)?;
                    let v = self.parse_string_literal()?;
                    prolog.options.push((q, v));
                    self.expect_tok(Tok::Semi)?;
                }
                _ => break,
            }
        }
        Ok(prolog)
    }

    fn parse_string_literal(&mut self) -> XdmResult<String> {
        let t = self.next()?;
        match t.tok {
            Tok::Str(s) => Ok(s),
            other => {
                Err(self.err_at(t.start, format!("expected string literal, found {other:?}")))
            }
        }
    }

    fn parse_params(&mut self) -> XdmResult<Vec<Param>> {
        self.expect_tok(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek()?.tok != Tok::RParen {
            loop {
                let name = self.parse_var_name()?;
                let ty = if self.eat_kw("as")? {
                    Some(self.parse_sequence_type()?)
                } else {
                    None
                };
                params.push(Param { name, ty });
                if !matches!(self.peek()?.tok, Tok::Comma) {
                    break;
                }
                self.next()?;
            }
        }
        self.expect_tok(Tok::RParen)?;
        Ok(params)
    }

    fn parse_function_decl(&mut self, updating: bool) -> XdmResult<Rc<FunctionDecl>> {
        let name = self.parse_qname(NameCtx::Function)?;
        let params = self.parse_params()?;
        let return_type = if self.eat_kw("as")? {
            Some(self.parse_sequence_type()?)
        } else {
            None
        };
        let body = if self.eat_kw("external")? {
            None
        } else {
            self.expect_tok(Tok::LBrace)?;
            let e = self.parse_expr_top()?;
            self.expect_tok(Tok::RBrace)?;
            Some(e)
        };
        Ok(Rc::new(FunctionDecl { name, params, return_type, body, updating }))
    }

    fn parse_procedure_decl(&mut self, readonly: bool) -> XdmResult<Rc<ProcedureDecl>> {
        let name = self.parse_qname(NameCtx::Function)?;
        let params = self.parse_params()?;
        let return_type = if self.eat_kw("as")? {
            Some(self.parse_sequence_type()?)
        } else {
            None
        };
        let body = if self.eat_kw("external")? {
            None
        } else {
            Some(self.parse_block()?)
        };
        Ok(Rc::new(ProcedureDecl { name, params, return_type, body, readonly }))
    }

    // -- blocks and statements ------------------------------------------

    /// BLOCK ::= "{" (BlockDecl ";")* ((SimpleStatement ";") |
    ///            BlockStatement (";")?)* "}"
    pub(crate) fn parse_block(&mut self) -> XdmResult<Block> {
        self.expect_tok(Tok::LBrace)?;
        let mut block = Block::default();
        // Leading block variable declarations.
        while self.peek()?.tok.is_name("declare")
            && matches!(self.peek2()?.tok, Tok::Var(_, _))
        {
            self.next()?; // declare
            loop {
                let var = self.parse_var_name()?;
                let ty = if self.eat_kw("as")? {
                    Some(self.parse_sequence_type()?)
                } else {
                    None
                };
                let init = if self.peek()?.tok == Tok::ColonEq {
                    self.next()?;
                    Some(self.parse_value_statement()?)
                } else {
                    None
                };
                block.decls.push(BlockVarDecl { var, ty, init });
                if !matches!(self.peek()?.tok, Tok::Comma) {
                    break;
                }
                self.next()?;
            }
            self.expect_tok(Tok::Semi)?;
        }
        // Statements.
        while self.peek()?.tok != Tok::RBrace {
            let (stmt, is_block_stmt) = self.parse_statement()?;
            if is_block_stmt {
                // Optional trailing semicolon.
                if self.peek()?.tok == Tok::Semi {
                    self.next()?;
                }
            } else {
                self.expect_tok(Tok::Semi)?;
            }
            block.statements.push(stmt);
        }
        self.expect_tok(Tok::RBrace)?;
        Ok(block)
    }

    /// Returns the statement and whether it is a "block statement"
    /// (whose trailing semicolon is optional per the EBNF).
    pub(crate) fn parse_statement(&mut self) -> XdmResult<(Statement, bool)> {
        let t = self.peek()?.clone();
        match &t.tok {
            Tok::LBrace => Ok((Statement::Block(self.parse_block()?), true)),
            Tok::Name(None, kw) => match kw.as_str() {
                "set" if matches!(self.peek2()?.tok, Tok::Var(_, _)) => {
                    self.next()?;
                    let var = self.parse_var_name()?;
                    self.expect_tok(Tok::ColonEq)?;
                    let value = self.parse_value_statement()?;
                    Ok((Statement::Set { var, value }, false))
                }
                "return" if self.peek2()?.tok.is_name("value") => {
                    self.next()?;
                    self.next()?;
                    let value = self.parse_value_statement()?;
                    Ok((Statement::Return(value), false))
                }
                "if" if self.peek2()?.tok == Tok::LParen => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    let cond = self.parse_expr_top()?;
                    self.expect_tok(Tok::RParen)?;
                    self.expect_kw("then")?;
                    let (then, then_is_block) = self.parse_statement()?;
                    // Lenient reading: permit `then <simple>; else` —
                    // a semicolon directly before `else` is absorbed.
                    if self.peek()?.tok == Tok::Semi && self.peek2()?.tok.is_name("else")
                    {
                        self.next()?;
                    }
                    // `else` binds to the nearest if.
                    let (els, last_block) = if self.peek()?.tok.is_name("else") {
                        self.next()?;
                        let (e, b) = self.parse_statement()?;
                        (Some(Box::new(e)), b)
                    } else {
                        (None, then_is_block)
                    };
                    // An if whose final branch is a block statement may
                    // omit the semicolon (practical reading of the
                    // paper's examples).
                    Ok((
                        Statement::If { cond, then: Box::new(then), els },
                        last_block,
                    ))
                }
                "while" if self.peek2()?.tok == Tok::LParen => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    let cond = self.parse_expr_top()?;
                    self.expect_tok(Tok::RParen)?;
                    let body = self.parse_block()?;
                    Ok((Statement::While { cond, body }, true))
                }
                "iterate" if matches!(self.peek2()?.tok, Tok::Var(_, _)) => {
                    self.next()?;
                    let var = self.parse_var_name()?;
                    let pos = if self.eat_kw("at")? {
                        Some(self.parse_var_name()?)
                    } else {
                        None
                    };
                    self.expect_kw("over")?;
                    let over = self.parse_value_statement()?;
                    let body = self.parse_block()?;
                    Ok((Statement::Iterate { var, pos, over, body }, true))
                }
                "try" if self.peek2()?.tok == Tok::LBrace => {
                    self.next()?;
                    let body = self.parse_block()?;
                    let mut catches = Vec::new();
                    while self.peek()?.tok.is_name("catch") {
                        self.next()?;
                        self.expect_tok(Tok::LParen)?;
                        let test = self.parse_catch_name_test()?;
                        let mut into_vars = Vec::new();
                        if self.eat_kw("into")? {
                            loop {
                                into_vars.push(self.parse_var_name()?);
                                if !matches!(self.peek()?.tok, Tok::Comma) {
                                    break;
                                }
                                self.next()?;
                            }
                        }
                        self.expect_tok(Tok::RParen)?;
                        let cbody = self.parse_block()?;
                        catches.push(CatchClause { test, into_vars, body: cbody });
                    }
                    if catches.is_empty() {
                        return Err(
                            self.err_at(t.start, "try requires at least one catch clause")
                        );
                    }
                    Ok((Statement::Try { body, catches }, true))
                }
                "continue" if self.peek2()?.tok == Tok::LParen => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    self.expect_tok(Tok::RParen)?;
                    Ok((Statement::Continue, false))
                }
                "break" if self.peek2()?.tok == Tok::LParen => {
                    self.next()?;
                    self.expect_tok(Tok::LParen)?;
                    self.expect_tok(Tok::RParen)?;
                    Ok((Statement::Break, false))
                }
                "procedure" if self.peek2()?.tok == Tok::LBrace => {
                    self.next()?;
                    let b = self.parse_block()?;
                    Ok((Statement::ProcedureBlock(b), true))
                }
                _ => self.parse_expr_statement(),
            },
            _ => self.parse_expr_statement(),
        }
    }

    fn parse_expr_statement(&mut self) -> XdmResult<(Statement, bool)> {
        let e = self.parse_expr_single()?;
        if e.is_syntactically_updating() {
            Ok((Statement::Update(e), false))
        } else {
            Ok((Statement::ExprStatement(e), false))
        }
    }

    /// ValueStatement ::= NonUpdatingExprSingle | ProcedureCall |
    /// ProcedureBlock. (Procedure calls parse as function calls; the
    /// engine resolves them.)
    pub(crate) fn parse_value_statement(&mut self) -> XdmResult<ValueStatement> {
        if self.peek()?.tok.is_name("procedure") && self.peek2()?.tok == Tok::LBrace {
            self.next()?;
            let b = self.parse_block()?;
            Ok(ValueStatement::ProcedureBlock(b))
        } else {
            Ok(ValueStatement::Expr(self.parse_expr_single()?))
        }
    }

    /// The NameTest of a catch clause: `*`, `*:*`, `*:local`,
    /// `prefix:*`, or a QName matching the error code.
    fn parse_catch_name_test(&mut self) -> XdmResult<NodeTest> {
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
            Tok::Name(p, l) => {
                let q = self.resolve_name(p.as_deref(), &l, NameCtx::Plain, t.start)?;
                Ok(NodeTest::Name(q))
            }
            other => {
                Err(self.err_at(t.start, format!("expected name test, found {other:?}")))
            }
        }
    }
}

/// Convenience for tests: the QName a catch test would match.
#[allow(dead_code)]
pub(crate) fn error_qname(local: &str) -> QName {
    QName::new(local)
}
