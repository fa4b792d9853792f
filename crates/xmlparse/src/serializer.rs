//! XDM → XML serialization.
//!
//! Two modes: compact (canonical-ish, no added whitespace) and pretty
//! (two-space indentation, element-only content indented). Namespace
//! declarations recorded on elements are emitted; prefixes on QNames
//! are trusted to be consistent (they come from the parser or from
//! query constructors which resolve prefixes at parse time).

use std::collections::HashSet;

use xdm::error::XdmResult;
use xdm::node::{NodeHandle, NodeKind};
use xdm::sequence::{Item, Sequence};

/// Serialize a node compactly.
pub fn serialize(node: &NodeHandle) -> String {
    let mut out = String::new();
    write_node(&mut out, node, None, &mut HashSet::new());
    out
}

/// Serialize a node with two-space indentation.
pub fn serialize_pretty(node: &NodeHandle) -> String {
    let mut out = String::new();
    write_node(&mut out, node, Some(0), &mut HashSet::new());
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
                write_node(&mut self.out, n, None, &mut HashSet::new());
                self.prev_atomic = false;
            }
            Item::Atomic(a) => {
                if self.prev_atomic {
                    self.out.push(' ');
                }
                self.out.push_str(&escape_text(&a.string_value()));
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

fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

fn write_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_node(
    out: &mut String,
    node: &NodeHandle,
    indent: Option<usize>,
    declared: &mut HashSet<(xdm::Symbol, xdm::Symbol)>,
) {
    match node.kind() {
        NodeKind::Document => {
            let mut first = true;
            for c in node.children() {
                if !first
                    && indent.is_some() {
                        out.push('\n');
                    }
                write_node(out, &c, indent, declared);
                first = false;
            }
        }
        NodeKind::Element => {
            let name = node.name().expect("element has name");
            let lex = name.lexical();
            if let Some(d) = indent {
                if d > 0 {
                    write_indent(out, d);
                }
            }
            out.push('<');
            out.push_str(&lex);
            // Namespace declarations recorded on this element.
            let mut local_declared: Vec<(xdm::Symbol, xdm::Symbol)> = Vec::new();
            for (p, u) in node.ns_decls() {
                let key = (p.clone(), u.clone());
                if declared.contains(&key) {
                    continue;
                }
                local_declared.push(key.clone());
                declared.insert(key);
                if p.is_empty() {
                    out.push_str(&format!(" xmlns=\"{}\"", escape_attr(&u)));
                } else {
                    out.push_str(&format!(" xmlns:{}=\"{}\"", p, escape_attr(&u)));
                }
            }
            // Synthesize a declaration for the element's own prefix if
            // it is namespaced but nothing declares it (constructed
            // nodes from query land here).
            if let (Some(ns), maybe_prefix) = (&name.ns, &name.prefix) {
                let p = maybe_prefix.clone().unwrap_or_default();
                let key = (p.clone(), ns.clone());
                if !declared.contains(&key) {
                    local_declared.push(key.clone());
                    declared.insert(key);
                    if p.is_empty() {
                        out.push_str(&format!(" xmlns=\"{}\"", escape_attr(ns)));
                    } else {
                        out.push_str(&format!(" xmlns:{}=\"{}\"", p, escape_attr(ns)));
                    }
                }
            }
            for a in node.attributes() {
                let aname = a.name().expect("attribute has name");
                // Synthesize prefixed-attribute namespace declarations.
                if let (Some(ns), Some(p)) = (&aname.ns, &aname.prefix) {
                    let key = (p.clone(), ns.clone());
                    if !declared.contains(&key) {
                        local_declared.push(key.clone());
                        declared.insert(key);
                        out.push_str(&format!(" xmlns:{}=\"{}\"", p, escape_attr(ns)));
                    }
                }
                out.push_str(&format!(
                    " {}=\"{}\"",
                    aname.lexical(),
                    escape_attr(&a.content().unwrap_or_default())
                ));
            }
            let children = node.children();
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                let element_only = indent.is_some()
                    && children.iter().all(|c| {
                        matches!(c.kind(), NodeKind::Element | NodeKind::Comment | NodeKind::Pi)
                    });
                for c in &children {
                    if element_only {
                        out.push('\n');
                    }
                    write_node(
                        out,
                        c,
                        if element_only { indent.map(|d| d + 1) } else { None },
                        declared,
                    );
                }
                if element_only {
                    out.push('\n');
                    write_indent(out, indent.unwrap_or(0));
                }
                out.push_str("</");
                out.push_str(&lex);
                out.push('>');
            }
            for key in local_declared {
                declared.remove(&key);
            }
        }
        NodeKind::Attribute => {
            // A bare attribute serializes as name="value" (useful in
            // diagnostics; attributes normally ride on their element).
            let aname = node.name().expect("attribute has name");
            out.push_str(&format!(
                "{}=\"{}\"",
                aname.lexical(),
                escape_attr(&node.content().unwrap_or_default())
            ));
        }
        NodeKind::Text => out.push_str(&escape_text(&node.content().unwrap_or_default())),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(&node.content().unwrap_or_default());
            out.push_str("-->");
        }
        NodeKind::Pi => {
            let name = node.name().expect("pi has target");
            out.push_str("<?");
            out.push_str(&name.local);
            let c = node.content().unwrap_or_default();
            if !c.is_empty() {
                out.push(' ');
                out.push_str(&c);
            }
            out.push_str("?>");
        }
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
