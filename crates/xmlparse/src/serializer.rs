//! XDM → XML serialization.
//!
//! Two modes: compact (canonical-ish, no added whitespace) and pretty
//! (two-space indentation, element-only content indented). Namespace
//! declarations recorded on elements are emitted; prefixes on QNames
//! are trusted to be consistent (they come from the parser or from
//! query constructors which resolve prefixes at parse time).

use xdm::error::XdmResult;
use xdm::node::{NodeHandle, NodeKind, Visit};
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};
use xdm::Symbol;

/// Serialize a node compactly.
pub fn serialize(node: &NodeHandle) -> String {
    let mut out = String::new();
    write_node(&mut out, node, false, &mut Vec::new());
    out
}

/// Serialize a node with two-space indentation.
pub fn serialize_pretty(node: &NodeHandle) -> String {
    let mut out = String::new();
    write_node(&mut out, node, true, &mut Vec::new());
    out
}

/// Serialize a whole sequence: nodes are serialized, atomic values are
/// rendered via their string value, space-separated (the standard
/// "sequence normalization" of the XSLT/XQuery serialization spec).
pub fn serialize_sequence(seq: &Sequence) -> String {
    let mut ser = IncrementalSerializer::new();
    for item in seq.iter() {
        ser.write_item(item);
    }
    ser.finish()
}

/// [`serialize_sequence`], wrapped in `Ok`. Kept only because the
/// repository benchmark (`perfbench/`) calls it; new code should call
/// [`serialize_sequence`].
pub fn serialize_sequence_stream(seq: &Sequence) -> XdmResult<String> {
    Ok(serialize_sequence(seq))
}

/// Incremental sequence serialization: feed items one at a time and
/// take the rendered increment after each, so a consumer can emit
/// output as the evaluator produces items instead of waiting for the
/// last one. The only cross-item state of sequence normalization is the
/// atomic/atomic separator space, which lives here.
#[derive(Default)]
pub struct IncrementalSerializer {
    out: String,
    /// Start of the increment not yet handed out by [`take_delta`].
    ///
    /// [`take_delta`]: IncrementalSerializer::take_delta
    emitted: usize,
    prev_atomic: bool,
    /// [`write_node`]'s stack of open nodes, kept from item to item.
    open: Vec<Open>,
}

impl IncrementalSerializer {
    /// A fresh serializer with nothing written.
    pub fn new() -> IncrementalSerializer {
        IncrementalSerializer::default()
    }

    /// Append one item, exactly as [`serialize_sequence`] would have.
    pub fn write_item(&mut self, item: &Item) {
        match item {
            Item::Node(n) => {
                write_node(&mut self.out, n, false, &mut self.open);
                self.prev_atomic = false;
            }
            Item::Atomic(a) => {
                if self.prev_atomic {
                    self.out.push(' ');
                }
                escape(&mut self.out, &a.string_shared(), false);
                self.prev_atomic = true;
            }
        }
    }

    /// The output appended since the last `take_delta` call — what an
    /// interactive consumer flushes after each pulled item.
    pub fn take_delta(&mut self) -> &str {
        let delta = &self.out[self.emitted..];
        self.emitted = self.out.len();
        delta
    }

    /// Everything written so far, consuming the serializer.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Append `s` to `out`, escaped as text (`<`, `>`, `&`) or as a
/// double-quoted attribute value (`<`, `&`, `"`).
fn escape(out: &mut String, s: &str, attr: bool) {
    let mut rest = s;
    while let Some(i) = rest.find(['<', '&', if attr { '"' } else { '>' }]) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn write_qname(out: &mut String, q: &QName) {
    if let Some(p) = &q.prefix {
        out.push_str(p);
        out.push(':');
    }
    out.push_str(&q.local);
}

/// Write `name="value"`, the value escaped.
fn write_attribute(out: &mut String, name: &QName, value: &str) {
    write_qname(out, name);
    out.push_str("=\"");
    escape(out, value, true);
    out.push('"');
}

fn write_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Write ` xmlns[:p]="uri"` unless that declaration is in force
/// already, and put it in force. The binding in force for a prefix is
/// its innermost declaration: one an element in between rebound does
/// not count.
fn declare(out: &mut String, declared: &mut Vec<(Symbol, Symbol)>, prefix: &Symbol, uri: &Symbol) {
    if declared.iter().rev().find(|(p, _)| p == prefix).is_some_and(|(_, u)| u == uri) {
        return;
    }
    out.push_str(if prefix.is_empty() { " xmlns" } else { " xmlns:" });
    out.push_str(prefix);
    out.push_str("=\"");
    escape(out, uri, true);
    out.push('"');
    declared.push((prefix.clone(), uri.clone()));
}

/// An open document or element: the declarations made before it, its
/// own indent (pretty mode), whether its children stand on lines of
/// their own, and how many it has entered.
struct Open {
    mark: usize,
    indent: Option<usize>,
    lines: bool,
    document: bool,
    entered: usize,
}

/// Serialize `node` into `out` as it is walked. In pretty mode an
/// element whose content is all elements, comments and PIs puts each
/// child on a line of its own, elements indented two spaces a level,
/// and a document puts a line break between its children.
fn write_node(out: &mut String, node: &NodeHandle, pretty: bool, open: &mut Vec<Open>) {
    // The namespace declarations in force.
    let mut declared: Vec<(Symbol, Symbol)> = Vec::new();
    let mut walk = node.walk();
    while let Some(v) = walk.next() {
        let n = walk.node();
        let kind = n.kind();
        if v == Visit::Leave {
            let o = open.pop().expect("an open node");
            if kind == NodeKind::Element {
                if o.lines {
                    out.push('\n');
                    write_indent(out, o.indent.unwrap_or(0));
                }
                out.push_str("</");
                n.with_name(|q| write_qname(out, q.expect("element has name")));
                out.push('>');
            }
            declared.truncate(o.mark);
            continue;
        }
        // This node's indent, and whether its parent breaks the line.
        let (indent, newline) = match open.last_mut() {
            None => (pretty.then_some(0), false),
            Some(p) => {
                p.entered += 1;
                match (p.document, p.lines) {
                    (true, _) => (p.indent, p.indent.is_some() && p.entered > 1),
                    (false, true) => (p.indent.map(|d| d + 1), true),
                    (false, false) => (None, false),
                }
            }
        };
        if newline {
            out.push('\n');
        }
        let mark = declared.len();
        let content = n.content_shared();
        let content = content.as_deref().unwrap_or_default();
        match kind {
            NodeKind::Document => {
                open.push(Open { mark, indent, lines: false, document: true, entered: 0 });
                continue;
            }
            NodeKind::Element => {
                let name = n.name().expect("element has name");
                write_indent(out, indent.unwrap_or(0));
                out.push('<');
                write_qname(out, &name);
                n.with_ns_decls(|decls| {
                    for (p, u) in decls {
                        declare(out, &mut declared, p, u);
                    }
                });
                // Synthesize a declaration for the element's own prefix
                // if it is namespaced but nothing declares it
                // (constructed nodes from query land here), and undeclare
                // the default namespace for an element in none.
                match &name.ns {
                    Some(ns) => {
                        declare(out, &mut declared, &name.prefix.clone().unwrap_or_default(), ns)
                    }
                    None if name.prefix.is_none() => {
                        let default = declared.iter().rev().find(|(p, _)| p.is_empty());
                        if default.is_some_and(|(_, u)| !u.is_empty()) {
                            let none = Symbol::default();
                            declare(out, &mut declared, &none, &none);
                        }
                    }
                    None => {}
                }
                n.for_each_attribute(|aname, value| {
                    // Synthesize prefixed-attribute namespace declarations.
                    if let (Some(ns), Some(p)) = (&aname.ns, &aname.prefix) {
                        declare(out, &mut declared, p, ns);
                    }
                    out.push(' ');
                    write_attribute(out, aname, value);
                });
                if n.has_children() {
                    out.push('>');
                    let mut lines = indent.is_some();
                    if lines {
                        // Element-only content: no text child.
                        n.for_each_child(|c| lines &= c.kind() != NodeKind::Text);
                    }
                    open.push(Open { mark, indent, lines, document: false, entered: 0 });
                    continue;
                }
                out.push_str("/>");
                declared.truncate(mark);
            }
            // A bare attribute serializes as name="value" (useful in
            // diagnostics; attributes normally ride on their element).
            NodeKind::Attribute => {
                n.with_name(|q| write_attribute(out, q.expect("attribute has name"), content));
            }
            NodeKind::Text => escape(out, content, false),
            NodeKind::Comment => {
                out.push_str("<!--");
                out.push_str(content);
                out.push_str("-->");
            }
            NodeKind::Pi => {
                out.push_str("<?");
                n.with_name(|q| out.push_str(&q.expect("pi has target").local));
                if !content.is_empty() {
                    out.push(' ');
                    out.push_str(content);
                }
                out.push_str("?>");
            }
        }
        walk.skip();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use xdm::qname::QName;

    fn root_of(doc: &NodeHandle) -> NodeHandle {
        doc.children()
            .into_iter()
            .find(|c| c.kind() == NodeKind::Element)
            .unwrap()
    }

    #[test]
    fn round_trip_simple() {
        for xml in [
            "<a/>",
            "<a>text</a>",
            "<a x=\"1\" y=\"2\"><b/>mid<c>deep</c></a>",
            "<a><!--note--><?pi data?></a>",
        ] {
            let doc = parse(xml).unwrap();
            assert_eq!(serialize(&root_of(&doc)), xml);
        }
    }

    #[test]
    fn escaping_round_trip() {
        let doc = parse("<a v=\"x&amp;&quot;y\">a&lt;b&amp;c</a>").unwrap();
        let s = serialize(&root_of(&doc));
        assert_eq!(s, "<a v=\"x&amp;&quot;y\">a&lt;b&amp;c</a>");
        let again = parse(&s).unwrap();
        assert!(root_of(&again).deep_equal(&root_of(&doc)));
    }

    #[test]
    fn namespace_declarations_round_trip() {
        let xml = "<p:a xmlns:p=\"urn:p\"><p:b/></p:a>";
        let doc = parse(xml).unwrap();
        assert_eq!(serialize(&root_of(&doc)), xml);
    }

    #[test]
    fn synthesized_ns_for_constructed_nodes() {
        let e = NodeHandle::root_element(QName::with_prefix_ns("t", "urn:t", "root"));
        let s = serialize(&e);
        assert_eq!(s, "<t:root xmlns:t=\"urn:t\"/>");
        // And it must re-parse to an equivalent tree.
        let doc = parse(&s).unwrap();
        assert!(root_of(&doc).deep_equal(&e));
    }

    #[test]
    fn default_ns_synthesis() {
        let e = NodeHandle::root_element(QName::with_ns("urn:d", "root"));
        assert_eq!(serialize(&e), "<root xmlns=\"urn:d\"/>");
    }

    #[test]
    fn nested_same_ns_not_redeclared() {
        let e = NodeHandle::root_element(QName::with_prefix_ns("t", "urn:t", "a"));
        let c = NodeHandle::new_element(e.arena(), QName::with_prefix_ns("t", "urn:t", "b"));
        e.append_child(&c).unwrap();
        assert_eq!(serialize(&e), "<t:a xmlns:t=\"urn:t\"><t:b/></t:a>");
    }

    /// A declaration an ancestor made is not in force once an element
    /// in between rebinds its prefix, so the element that binds it back
    /// writes it again, for a prefix and for the default namespace.
    #[test]
    fn a_prefix_bound_back_after_a_rebinding_is_declared_again() {
        for (xml, inner, ns) in [
            (
                "<a xmlns:q=\"u1\"><b xmlns:q=\"u2\"><c xmlns:q=\"u1\" q:z=\"1\"/></b></a>",
                "<c xmlns:q=\"u1\" q:z=\"1\"/>",
                "u1",
            ),
            (
                "<a xmlns=\"u1\"><b xmlns=\"u2\"><c xmlns=\"u1\"/></b></a>",
                "<c xmlns=\"u1\"/>",
                "u1",
            ),
        ] {
            let doc = parse(xml).unwrap();
            let s = serialize(&root_of(&doc));
            assert_eq!(s, xml);
            assert!(s.contains(inner), "{s}");
            let again = parse(&s).unwrap();
            let c = root_of(&again).children()[0].children()[0].clone();
            let names: Vec<_> = std::iter::once(c.name().unwrap())
                .chain(c.attributes().iter().filter_map(|a| a.name()).filter(|q| q.ns.is_some()))
                .collect();
            let c_ns = names[0].ns.as_deref();
            assert_eq!(c_ns, if xml.contains("xmlns=") { Some(ns) } else { None });
            for q in &names[1..] {
                assert_eq!(q.ns.as_deref(), Some(ns), "{s}");
            }
            assert!(root_of(&again).deep_equal(&root_of(&doc)));
        }
    }

    #[test]
    fn pretty_printing_element_only() {
        let doc = parse("<a><b>1</b><c><d/></c></a>").unwrap();
        let pretty = serialize_pretty(&root_of(&doc));
        assert_eq!(pretty, "<a>\n  <b>1</b>\n  <c>\n    <d/>\n  </c>\n</a>");
    }

    #[test]
    fn pretty_keeps_mixed_content_inline() {
        let doc = parse("<a>one<b/>two</a>").unwrap();
        assert_eq!(serialize_pretty(&root_of(&doc)), "<a>one<b/>two</a>");
    }

    #[test]
    fn sequence_serialization() {
        use xdm::sequence::Item;
        let n = NodeHandle::root_element(QName::new("n"));
        let seq = Sequence::from_items(vec![
            Item::integer(1),
            Item::integer(2),
            Item::Node(n),
            Item::string("a<b"),
        ]);
        assert_eq!(serialize_sequence(&seq), "1 2<n/>a&lt;b");
    }

    #[test]
    fn incremental_deltas_concatenate_to_the_batch_output() {
        use xdm::sequence::Item;
        let n = NodeHandle::root_element(QName::new("n"));
        let items = vec![
            Item::integer(1),
            Item::integer(2),
            Item::Node(n),
            Item::string("a<b"),
        ];
        let mut ser = IncrementalSerializer::new();
        let mut joined = String::new();
        for it in &items {
            ser.write_item(it);
            joined.push_str(ser.take_delta());
        }
        let batch = serialize_sequence(&Sequence::from_items(items));
        assert_eq!(joined, batch);
        assert_eq!(ser.finish(), batch);
    }

    #[test]
    fn stream_serialization_matches_batch_on_eager_sequences() {
        use xdm::sequence::Item;
        let seq = Sequence::from_items(vec![Item::integer(7), Item::string("x")]);
        assert_eq!(
            serialize_sequence_stream(&seq).unwrap(),
            serialize_sequence(&seq)
        );
    }
}
