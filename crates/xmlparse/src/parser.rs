//! The XML parser: a hand-rolled scanner that builds XDM trees with
//! namespace resolution done on the fly, in one loop over an explicit
//! stack of open elements.

use std::collections::HashMap;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeHandle;
use xdm::qname::{QName, XML_NS};

/// Parser configuration.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct ParseOptions {
    /// Drop text nodes that are all-whitespace between elements
    /// ("ignorable whitespace"). Defaults to `false`: data is data.
    pub strip_whitespace: bool,
}


/// Parse a complete XML document; returns the document node.
pub fn parse(input: &str) -> XdmResult<NodeHandle> {
    Parser::new(input, ParseOptions::default()).parse_document()
}

/// Parse with options; a fragment may have leading/trailing text and
/// multiple top-level elements (useful for test fixtures and SDO
/// change summaries).
pub fn parse_fragment(input: &str, options: ParseOptions) -> XdmResult<NodeHandle> {
    Parser::new(input, options).parse_document()
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    options: ParseOptions,
}

fn err(msg: impl Into<String>, pos: usize) -> XdmError {
    XdmError::new(
        ErrorCode::FORG0001,
        format!("XML parse error at byte {pos}: {}", msg.into()),
    )
}

/// The namespace declarations in force: one binding per prefix, and
/// an undo log that closing an element rolls back to its mark. Resolving
/// a prefix is one lookup, however deep the element.
struct NsScope {
    in_force: HashMap<String, String>,
    undo: Vec<(String, Option<String>)>,
}

impl NsScope {
    fn new() -> NsScope {
        let in_force = HashMap::from([("xml".to_string(), XML_NS.to_string())]);
        NsScope { in_force, undo: Vec::new() }
    }

    fn declare(&mut self, prefix: &str, uri: &str) {
        let shadowed = self.in_force.insert(prefix.to_string(), uri.to_string());
        self.undo.push((prefix.to_string(), shadowed));
    }

    /// Undo every declaration made since `mark` (an earlier `undo.len()`).
    fn close(&mut self, mark: usize) {
        for (prefix, shadowed) in self.undo.drain(mark..).rev() {
            match shadowed {
                Some(uri) => self.in_force.insert(prefix, uri),
                None => self.in_force.remove(&prefix),
            };
        }
    }

    fn resolve(&self, prefix: &str) -> Option<&str> {
        self.in_force.get(prefix).map(String::as_str).filter(|u| !u.is_empty())
    }
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: ParseOptions) -> Parser<'a> {
        Parser { input, bytes: input.as_bytes(), pos: 0, options }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> XdmResult<()> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(err(format!("expected {s:?}"), self.pos))
        }
    }

    /// The one parser loop. The open elements are an explicit stack
    /// with the document node at the bottom, so any depth parses. With
    /// only the document open, the loop is outside every element: it
    /// skips whitespace, takes the XML declaration and a DOCTYPE before
    /// the first element only, and accepts several top-level elements.
    fn parse_document(&mut self) -> XdmResult<NodeHandle> {
        let doc = NodeHandle::new_document();
        let mut ns = NsScope::new();
        // (element, its raw name, the namespace scope's mark before it)
        let mut open: Vec<(NodeHandle, &'a str, usize)> = vec![(doc.clone(), "", 0)];
        let mut text = String::new();
        let mut seen_element = false;
        loop {
            let (parent, name, mark) = open.last().expect("the document stays open");
            let outside = open.len() == 1;
            if outside {
                self.skip_ws();
            } else if !matches!(self.peek(), Some(b'<') | None) || self.starts_with("<![CDATA[") {
                self.parse_text(&mut text)?;
                continue;
            }
            if !text.is_empty() {
                let t = std::mem::take(&mut text);
                if !self.options.strip_whitespace || !t.chars().all(char::is_whitespace) {
                    parent.append_child(&NodeHandle::new_text(parent.arena(), t))?;
                }
            }
            if !outside && self.starts_with("</") {
                self.bump(2);
                let close = self.parse_name()?;
                if close != *name {
                    return Err(err(
                        format!("mismatched end tag: expected </{name}>, found </{close}>"),
                        self.pos,
                    ));
                }
                self.skip_ws();
                self.expect(">")?;
                ns.close(*mark);
                open.pop();
            } else if self.starts_with("<!--") {
                let c = self.parse_comment()?;
                parent.append_child(&NodeHandle::new_comment(parent.arena(), c))?;
            } else if outside && !seen_element && self.starts_with("<?xml") {
                self.until("?>", "unterminated XML declaration")?;
            } else if outside && !seen_element && self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                let (t, c) = self.parse_pi()?;
                parent.append_child(&NodeHandle::new_pi(parent.arena(), t, c))?;
            } else if self.peek() == Some(b'<') {
                let mark = ns.undo.len();
                let parent = parent.clone();
                let (elem, name, self_closing) = self.start_tag(&parent, &mut ns)?;
                seen_element = true;
                if self_closing {
                    ns.close(mark);
                } else {
                    open.push((elem, name, mark));
                }
            } else if !outside {
                return Err(err("unexpected end of input in element content", self.pos));
            } else if !seen_element {
                return Err(err("expected root element", self.pos));
            } else if self.pos != self.input.len() {
                return Err(err("trailing content after document end", self.pos));
            } else {
                return Ok(doc);
            }
        }
    }

    /// Character data up to the next markup that is not a CDATA
    /// section: text runs, entity references and CDATA sections.
    fn parse_text(&mut self, text: &mut String) -> XdmResult<()> {
        loop {
            if self.starts_with("<![CDATA[") {
                self.bump(9);
                text.push_str(self.until("]]>", "unterminated CDATA")?);
            } else if self.peek() == Some(b'&') {
                text.push(self.parse_entity()?);
            } else if matches!(self.peek(), Some(b'<') | None) {
                return Ok(());
            } else {
                let start = self.pos;
                while !matches!(self.peek(), Some(b'<' | b'&') | None) {
                    self.pos += 1;
                }
                text.push_str(&self.input[start..self.pos]);
            }
        }
    }

    fn skip_doctype(&mut self) -> XdmResult<()> {
        // Skip to the matching '>' accounting for an internal subset.
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            match b {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    self.bump(1);
                    if depth == 0 {
                        return Ok(());
                    }
                    continue;
                }
                _ => {}
            }
            self.bump(1);
        }
        Err(err("unterminated DOCTYPE", self.pos))
    }

    fn parse_name(&mut self) -> XdmResult<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric()
                || b == b'_'
                || b == b'-'
                || b == b'.'
                || b == b':'
                || b >= 0x80;
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(err("expected name", self.pos));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parse one start tag (the `<` is current), declare its namespace
    /// declarations and attach the element to `parent`: the element,
    /// its raw name, and whether the tag closed itself.
    fn start_tag(
        &mut self,
        parent: &NodeHandle,
        ns: &mut NsScope,
    ) -> XdmResult<(NodeHandle, &'a str, bool)> {
        self.expect("<")?;
        let name = self.parse_name()?;
        // Attributes & namespace declarations.
        let mut raw_attrs: Vec<(&'a str, String)> = Vec::new();
        let mut ns_decls: Vec<(&'a str, String)> = Vec::new();
        let self_closing = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    break true;
                }
                Some(b'>') => {
                    self.bump(1);
                    break false;
                }
                Some(_) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let aval = self.parse_attr_value()?;
                    if aname == "xmlns" {
                        ns_decls.push(("", aval));
                    } else if let Some(p) = aname.strip_prefix("xmlns:") {
                        ns_decls.push((p, aval));
                    } else {
                        raw_attrs.push((aname, aval));
                    }
                }
                None => return Err(err("unterminated start tag", self.pos)),
            }
        };
        for (p, u) in &ns_decls {
            ns.declare(p, u);
        }
        let qname = self.resolve_qname(name, ns, true)?;
        let elem = NodeHandle::new_element(parent.arena(), qname);
        for (p, u) in ns_decls {
            elem.add_ns_decl(p, u);
        }
        parent.append_child(&elem)?;
        for (aname, aval) in raw_attrs {
            let aq = self.resolve_qname(aname, ns, false)?;
            if elem.attribute(&aq).is_some() {
                return Err(err(format!("duplicate attribute {aname}"), self.pos));
            }
            elem.set_attribute(&NodeHandle::new_attribute(elem.arena(), aq, aval))?;
        }
        Ok((elem, name, self_closing))
    }

    fn resolve_qname(&self, raw: &str, ns: &NsScope, is_element: bool) -> XdmResult<QName> {
        match raw.split_once(':') {
            Some((p, l)) => {
                let uri = ns.resolve(p).ok_or_else(|| {
                    err(format!("undeclared namespace prefix {p:?}"), self.pos)
                })?;
                Ok(QName::with_prefix_ns(p, uri, l))
            }
            None => {
                // Default namespace applies to elements only.
                if is_element {
                    match ns.resolve("") {
                        Some(uri) => Ok(QName::with_ns(uri, raw)),
                        None => Ok(QName::new(raw)),
                    }
                } else {
                    Ok(QName::new(raw))
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> XdmResult<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(err("expected quoted attribute value", self.pos)),
        };
        self.bump(1);
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.bump(1);
                    return Ok(out);
                }
                Some(b'&') => out.push(self.parse_entity()?),
                Some(b'<') => return Err(err("'<' in attribute value", self.pos)),
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' || b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
                None => return Err(err("unterminated attribute value", self.pos)),
            }
        }
    }

    fn parse_entity(&mut self) -> XdmResult<char> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        let semi = self.input[self.pos..]
            .find(';')
            .ok_or_else(|| err("unterminated entity reference", self.pos))?;
        let body = &self.input[self.pos + 1..self.pos + semi];
        let ch = match body {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let cp = u32::from_str_radix(&body[2..], 16)
                    .map_err(|_| err(format!("bad char ref &{body};"), self.pos))?;
                char::from_u32(cp)
                    .ok_or_else(|| err(format!("invalid code point {cp}"), self.pos))?
            }
            _ if body.starts_with('#') => {
                let cp: u32 = body[1..]
                    .parse()
                    .map_err(|_| err(format!("bad char ref &{body};"), self.pos))?;
                char::from_u32(cp)
                    .ok_or_else(|| err(format!("invalid code point {cp}"), self.pos))?
            }
            _ => return Err(err(format!("unknown entity &{body};"), self.pos)),
        };
        self.bump(semi + 1);
        Ok(ch)
    }

    /// The text up to the next `end`, which is consumed too; `what`
    /// names the construct if there is none.
    fn until(&mut self, end: &str, what: &str) -> XdmResult<&'a str> {
        let len = self.input[self.pos..].find(end).ok_or_else(|| err(what, self.pos))?;
        let text = &self.input[self.pos..self.pos + len];
        self.bump(len + end.len());
        Ok(text)
    }

    fn parse_comment(&mut self) -> XdmResult<&'a str> {
        self.expect("<!--")?;
        self.until("-->", "unterminated comment")
    }

    fn parse_pi(&mut self) -> XdmResult<(&'a str, &'a str)> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        self.skip_ws();
        Ok((target, self.until("?>", "unterminated processing instruction")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::node::NodeKind;

    fn root_of(doc: &NodeHandle) -> NodeHandle {
        doc.children()
            .into_iter()
            .find(|c| c.kind() == NodeKind::Element)
            .expect("document element")
    }

    #[test]
    fn basic_document() {
        let doc = parse("<a><b>1</b><c x=\"y\"/></a>").unwrap();
        let a = root_of(&doc);
        assert_eq!(a.name().unwrap().local, "a");
        assert_eq!(a.children().len(), 2);
        assert_eq!(a.string_value(), "1");
        let c = &a.children()[1];
        assert_eq!(c.attribute(&QName::new("x")).unwrap().content().unwrap(), "y");
    }

    #[test]
    fn xml_decl_comments_pis() {
        let doc = parse("<?xml version=\"1.0\"?><!-- hi --><?target data?><r/>").unwrap();
        let kinds: Vec<_> = doc.children().iter().map(|c| c.kind()).collect();
        assert_eq!(kinds, vec![NodeKind::Comment, NodeKind::Pi, NodeKind::Element]);
    }

    #[test]
    fn doctype_is_skipped() {
        let doc = parse("<!DOCTYPE html><r>ok</r>").unwrap();
        assert_eq!(root_of(&doc).string_value(), "ok");
    }

    #[test]
    fn namespaces_resolve() {
        let doc = parse(
            "<p:r xmlns:p=\"urn:p\" xmlns=\"urn:d\"><child p:a=\"1\" b=\"2\"/></p:r>",
        )
        .unwrap();
        let r = root_of(&doc);
        assert_eq!(r.name().unwrap().ns.as_deref(), Some("urn:p"));
        let child = &r.children()[0];
        // Default namespace applies to the element…
        assert_eq!(child.name().unwrap().ns.as_deref(), Some("urn:d"));
        // …but not to unprefixed attributes.
        let attrs = child.attributes();
        let pa = attrs.iter().find(|a| a.name().unwrap().local == "a").unwrap();
        assert_eq!(pa.name().unwrap().ns.as_deref(), Some("urn:p"));
        let b = attrs.iter().find(|a| a.name().unwrap().local == "b").unwrap();
        assert_eq!(b.name().unwrap().ns, None);
    }

    #[test]
    fn nested_namespace_shadowing() {
        let doc = parse("<a xmlns=\"urn:1\"><b xmlns=\"urn:2\"/><c/></a>").unwrap();
        let a = root_of(&doc);
        assert_eq!(a.children()[0].name().unwrap().ns.as_deref(), Some("urn:2"));
        assert_eq!(a.children()[1].name().unwrap().ns.as_deref(), Some("urn:1"));
    }

    #[test]
    fn undefined_default_ns_unset() {
        let doc = parse("<a xmlns=\"urn:1\"><b xmlns=\"\"/></a>").unwrap();
        let a = root_of(&doc);
        assert_eq!(a.children()[0].name().unwrap().ns, None);
    }

    #[test]
    fn entities_and_char_refs() {
        let doc = parse("<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>").unwrap();
        assert_eq!(root_of(&doc).string_value(), "<>&\"'AB");
    }

    #[test]
    fn entities_in_attributes() {
        let doc = parse("<a v=\"x&amp;y&#33;\"/>").unwrap();
        let a = root_of(&doc);
        assert_eq!(a.attribute(&QName::new("v")).unwrap().content().unwrap(), "x&y!");
    }

    #[test]
    fn cdata_sections() {
        let doc = parse("<a><![CDATA[<not-a-tag> & raw]]></a>").unwrap();
        assert_eq!(root_of(&doc).string_value(), "<not-a-tag> & raw");
    }

    #[test]
    fn cdata_merges_with_text() {
        let doc = parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        let a = root_of(&doc);
        assert_eq!(a.children().len(), 1);
        assert_eq!(a.string_value(), "xyz");
    }

    #[test]
    fn whitespace_stripping_option() {
        let xml = "<a>\n  <b>1</b>\n  <c>2</c>\n</a>";
        let keep = parse(xml).unwrap();
        assert_eq!(root_of(&keep).children().len(), 5);
        let strip = parse_fragment(xml, ParseOptions { strip_whitespace: true }).unwrap();
        assert_eq!(root_of(&strip).children().len(), 2);
    }

    #[test]
    fn fragment_with_multiple_roots() {
        let doc = parse("<a/><b/>").unwrap();
        assert_eq!(doc.children().len(), 2);
    }

    #[test]
    fn errors_are_reported() {
        for bad in [
            "<a>",                  // unterminated
            "<a></b>",              // mismatched tags
            "<a x=1/>",             // unquoted attribute
            "<a x=\"1\" x=\"2\"/>", // duplicate attribute
            "<p:a/>",               // undeclared prefix
            "<a>&nosuch;</a>",      // unknown entity
            "text only",            // no element
            "<a/><",                // trailing garbage
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn mixed_content_order_preserved() {
        let doc = parse("<a>one<b/>two<c/>three</a>").unwrap();
        let a = root_of(&doc);
        let kinds: Vec<_> = a.children().iter().map(|c| c.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                NodeKind::Text,
                NodeKind::Element,
                NodeKind::Text,
                NodeKind::Element,
                NodeKind::Text
            ]
        );
    }

    #[test]
    fn paper_figure4_sdo_datagraph_parses() {
        // The SDO datagraph shape from Figure 4 of the paper.
        let xml = r##"<sdo:datagraph xmlns:sdo="commonj.sdo">
            <changeSummary>
              <cus:CustomerProfile sdo:ref="#/sdo:datagraph/cus:CustomerProfile"
                  xmlns:cus="ld:CustomerProfile">
                <LAST_NAME>Carrey</LAST_NAME>
              </cus:CustomerProfile>
            </changeSummary>
            <cus:CustomerProfile xmlns:cus="ld:CustomerProfile">
              <LAST_NAME>Carey</LAST_NAME>
            </cus:CustomerProfile>
        </sdo:datagraph>"##;
        let doc = parse(xml).unwrap();
        let dg = root_of(&doc);
        assert_eq!(dg.name().unwrap().local, "datagraph");
        assert_eq!(dg.name().unwrap().ns.as_deref(), Some("commonj.sdo"));
    }
}
