//! Service Data Objects: disconnected data graphs with change
//! summaries (§II.C, Figure 4).
//!
//! "The ALDSP APIs allow a client application to invoke a data
//! service, then operate on the results, and finally submit the
//! modified data back to the data service from whence it came. … the
//! new XML data is sent back along with a serialized change summary
//! that identifies those portions of the data that have been changed
//! and also records their previous values."

use std::cell::RefCell;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::{NodeHandle, NodeKind, Visit};
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};

/// One recorded modification: a leaf element whose text value changed.
#[derive(Debug, Clone)]
pub struct Change {
    /// The modified element (its *current* value is the new value).
    pub node: NodeHandle,
    /// The previous string value.
    pub old: String,
}

/// A disconnected data graph: instance data plus a change summary.
pub struct DataGraph {
    /// The logical data service this graph came from.
    pub service: String,
    data: Sequence,
    changes: RefCell<Vec<Change>>,
}

/// One step of an instance path: element local name plus occurrence
/// index among same-named siblings (0-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Element local name.
    pub name: String,
    /// 0-based occurrence index.
    pub index: usize,
}

impl PathStep {
    /// Parse `"NAME"` or `"NAME#2"`.
    pub fn parse(s: &str) -> PathStep {
        match s.split_once('#') {
            Some((n, i)) => PathStep {
                name: n.to_string(),
                index: i.parse().unwrap_or(0),
            },
            None => PathStep { name: s.to_string(), index: 0 },
        }
    }
}

impl DataGraph {
    /// Wrap a read result.
    pub fn new(service: String, data: Sequence) -> DataGraph {
        DataGraph { service, data, changes: RefCell::new(Vec::new()) }
    }

    /// The instance data.
    pub fn instances(&self) -> &Sequence {
        &self.data
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i`-th instance element.
    pub fn instance(&self, i: usize) -> XdmResult<NodeHandle> {
        match self.data.items().get(i) {
            Some(Item::Node(n)) => Ok(n.clone()),
            _ => Err(XdmError::new(
                ErrorCode::DSP0005,
                format!("data graph has no instance {i}"),
            )),
        }
    }

    /// Resolve a path (`["Orders", "ORDER#1", "STATUS"]`) from an
    /// instance root to a leaf element.
    pub fn resolve(&self, instance: usize, path: &[&str]) -> XdmResult<NodeHandle> {
        let mut cur = self.instance(instance)?;
        for raw in path {
            let step = PathStep::parse(raw);
            cur = elements_named(&cur, &step.name).nth(step.index).ok_or_else(|| {
                XdmError::new(
                    ErrorCode::DSP0005,
                    format!(
                        "path step {raw:?} not found under {}",
                        cur.name().map(|q| q.lexical()).unwrap_or_default()
                    ),
                )
            })?;
        }
        Ok(cur)
    }

    /// Read a value at a path.
    pub fn get_value(&self, instance: usize, path: &[&str]) -> XdmResult<String> {
        Ok(self.resolve(instance, path)?.string_value())
    }

    /// The SDO setter: change a leaf element's value, recording the
    /// old value in the change summary. Setting the same leaf twice
    /// keeps the *original* old value (SDO change-summary semantics).
    pub fn set_value(
        &self,
        instance: usize,
        path: &[&str],
        new_value: &str,
    ) -> XdmResult<()> {
        let node = self.resolve(instance, path)?;
        let old = node.string_value();
        if old == new_value {
            return Ok(());
        }
        let mut changes = self.changes.borrow_mut();
        if !changes.iter().any(|c| c.node == node) {
            changes.push(Change { node: node.clone(), old });
        }
        node.replace_value(new_value)?;
        Ok(())
    }

    /// The recorded changes.
    pub fn changes(&self) -> Vec<Change> {
        self.changes.borrow().clone()
    }

    /// True if anything was modified.
    pub fn is_changed(&self) -> bool {
        !self.changes.borrow().is_empty()
    }

    /// The recorded old value for a node, if it was changed.
    pub fn old_value_of(&self, node: &NodeHandle) -> Option<String> {
        self.changes
            .borrow()
            .iter()
            .find(|c| &c.node == node)
            .map(|c| c.old.clone())
    }

    /// Discard the change summary (after a successful submit).
    pub fn clear_changes(&self) {
        self.changes.borrow_mut().clear();
    }

    /// Serialize as the Figure-4 `<sdo:datagraph>` document: a
    /// `<changeSummary>` holding the previous values (with `sdo:ref`
    /// pointers) followed by the current data.
    pub fn to_datagraph_xml(&self) -> XdmResult<NodeHandle> {
        const SDO_NS: &str = "commonj.sdo";
        let root =
            NodeHandle::root_element(QName::with_prefix_ns("sdo", SDO_NS, "datagraph"));
        root.add_ns_decl("sdo", SDO_NS);
        let arena = root.arena().clone();
        let summary = NodeHandle::new_element(&arena, QName::new("changeSummary"));
        root.append_child(&summary)?;
        // Group changes by instance.
        for (i, item) in self.data.iter().enumerate() {
            let Item::Node(inst) = item else { continue };
            let inst_changes: Vec<Change> = self
                .changes
                .borrow()
                .iter()
                .filter(|c| c.node == *inst || c.node.ancestors().contains(inst))
                .cloned()
                .collect();
            if inst_changes.is_empty() {
                continue;
            }
            let name = inst.name().ok_or_else(|| {
                XdmError::new(ErrorCode::DSP0005, "instance is not an element")
            })?;
            let entry = NodeHandle::new_element(&arena, name.clone());
            entry.set_attribute(&NodeHandle::new_attribute(
                &arena,
                QName::with_prefix_ns("sdo", SDO_NS, "ref"),
                format!("#/sdo:datagraph/{}[{}]", name.local, i + 1),
            ))?;
            for c in &inst_changes {
                // Reconstruct the ancestor chain from the instance to
                // the changed leaf, with old value at the leaf.
                let mut chain: Vec<QName> = Vec::new();
                let mut cur = c.node.clone();
                while cur != *inst {
                    if let Some(q) = cur.name() {
                        chain.push(q);
                    }
                    match cur.parent() {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
                chain.reverse();
                let mut parent = entry.clone();
                for (depth, q) in chain.iter().enumerate() {
                    let e = NodeHandle::new_element(&arena, q.clone());
                    if depth == chain.len() - 1 {
                        e.append_child(&NodeHandle::new_text(&arena, c.old.clone()))?;
                    }
                    parent.append_child(&e)?;
                    parent = e;
                }
            }
            summary.append_child(&entry)?;
        }
        // Current data.
        for item in self.data.iter() {
            if let Item::Node(n) = item {
                root.append_child(n)?; // deep-copied across arenas
            }
        }
        Ok(root)
    }

    /// Parse a Figure-4 `<sdo:datagraph>` document back into a
    /// [`DataGraph`] — the server-side receive path: the data section
    /// becomes the instances (carrying the *new* values) and the
    /// change summary re-creates the [`Change`] records (carrying the
    /// *old* values).
    pub fn from_datagraph_xml(
        service: impl Into<String>,
        datagraph: &NodeHandle,
    ) -> XdmResult<DataGraph> {
        let bad = |msg: &str| XdmError::new(ErrorCode::DSP0005, msg.to_string());
        if datagraph.name().is_none_or(|q| q.local != "datagraph") {
            return Err(bad("expected an sdo:datagraph element"));
        }
        let summary = elements_named(datagraph, "changeSummary").next();
        let instances: Vec<NodeHandle> = datagraph
            .children()
            .into_iter()
            .filter(|c| c.kind() == NodeKind::Element && !is_named(c, "changeSummary"))
            .collect();
        let graph = DataGraph::new(
            service.into(),
            instances.iter().cloned().map(Item::Node).collect(),
        );
        let Some(summary) = summary else { return Ok(graph) };
        for entry in summary.children() {
            if entry.kind() != NodeKind::Element {
                continue;
            }
            // sdo:ref="#/sdo:datagraph/Name[i]" → instance index.
            let ref_attr = entry
                .attributes()
                .into_iter()
                .find(|a| is_named(a, "ref"))
                .map(|a| a.content().unwrap_or_default())
                .ok_or_else(|| bad("change-summary entry lacks sdo:ref"))?;
            let idx = ref_attr
                .rsplit('[')
                .next()
                .and_then(|s| s.strip_suffix(']'))
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| bad("malformed sdo:ref"))?
                .checked_sub(1)
                .ok_or_else(|| bad("sdo:ref index is 1-based"))?;
            let instance = instances
                .get(idx)
                .ok_or_else(|| bad("sdo:ref index out of range"))?;
            // Each leaf chain in the entry is one old value: the names
            // of the elements from the entry down to an element with no
            // element child. `chain[i]` holds the i-th element's name and
            // whether it has an element child.
            let mut collected = Vec::new();
            let mut chain: Vec<(String, bool)> = Vec::new();
            let mut walk = entry.walk();
            while let Some(v) = walk.next() {
                let n = walk.node();
                match v {
                    _ if n.kind() != NodeKind::Element => walk.skip(),
                    Visit::Enter => {
                        if let Some(parent) = chain.last_mut() {
                            parent.1 = true;
                        }
                        let name = n.with_name(|q| q.map(|q| q.local.to_string()));
                        chain.push((name.unwrap_or_default(), false));
                    }
                    Visit::Leave => {
                        if !chain.last().is_some_and(|e| e.1) {
                            let path: Vec<String> =
                                chain[1..].iter().map(|e| e.0.clone()).collect();
                            collected.push((path, n.string_value()));
                        }
                        chain.pop();
                    }
                }
            }
            for (path, old) in collected {
                // Resolve the same chain in the live instance. The
                // summary does not carry occurrence indexes, so gather
                // every node matching the name chain, in document order,
                // and prefer one whose current value differs from the
                // old value (i.e. the one that was actually changed).
                let mut candidates = vec![instance.clone()];
                for name in &path {
                    candidates = candidates.iter().flat_map(|c| elements_named(c, name)).collect();
                }
                let Some(first) = candidates.first().cloned() else {
                    return Err(bad("change-summary path not found in data"));
                };
                let node = candidates
                    .into_iter()
                    .find(|s| s.string_value() != old)
                    .unwrap_or(first);
                graph.changes.borrow_mut().push(Change { node, old });
            }
        }
        Ok(graph)
    }
}

/// Whether `n`'s name's local part is `local`.
fn is_named(n: &NodeHandle, local: &str) -> bool {
    n.with_name(|q| q.is_some_and(|q| *q.local == *local))
}

/// The element children of `node` whose name's local part is `local`.
fn elements_named<'a>(node: &NodeHandle, local: &'a str) -> impl Iterator<Item = NodeHandle> + 'a {
    node.children().into_iter().filter(move |c| c.kind() == NodeKind::Element && is_named(c, local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlparse::{parse, serialize};

    fn graph() -> DataGraph {
        let xml = "<CustomerProfile><CID>7</CID><LAST_NAME>Carrey</LAST_NAME>\
                   <Orders><ORDER><OID>1</OID><STATUS>OPEN</STATUS></ORDER>\
                   <ORDER><OID>2</OID><STATUS>OPEN</STATUS></ORDER></Orders>\
                   </CustomerProfile>";
        let doc = parse(xml).unwrap();
        DataGraph::new(
            "CustomerProfile".into(),
            Sequence::one(Item::Node(doc.children()[0].clone())),
        )
    }

    #[test]
    fn get_and_set_values() {
        let g = graph();
        assert_eq!(g.get_value(0, &["LAST_NAME"]).unwrap(), "Carrey");
        g.set_value(0, &["LAST_NAME"], "Carey").unwrap();
        assert_eq!(g.get_value(0, &["LAST_NAME"]).unwrap(), "Carey");
        let changes = g.changes();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].old, "Carrey");
    }

    #[test]
    fn nested_paths_with_occurrence_index() {
        let g = graph();
        assert_eq!(g.get_value(0, &["Orders", "ORDER#1", "OID"]).unwrap(), "2");
        g.set_value(0, &["Orders", "ORDER#1", "STATUS"], "SHIPPED").unwrap();
        assert_eq!(
            g.get_value(0, &["Orders", "ORDER#1", "STATUS"]).unwrap(),
            "SHIPPED"
        );
        assert_eq!(g.get_value(0, &["Orders", "ORDER", "STATUS"]).unwrap(), "OPEN");
    }

    #[test]
    fn noop_set_records_nothing() {
        let g = graph();
        g.set_value(0, &["LAST_NAME"], "Carrey").unwrap();
        assert!(!g.is_changed());
    }

    #[test]
    fn double_set_keeps_original_old_value() {
        let g = graph();
        g.set_value(0, &["LAST_NAME"], "X").unwrap();
        g.set_value(0, &["LAST_NAME"], "Y").unwrap();
        let changes = g.changes();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].old, "Carrey");
        assert_eq!(changes[0].node.string_value(), "Y");
    }

    #[test]
    fn bad_paths_error() {
        let g = graph();
        assert!(g.set_value(0, &["NOPE"], "x").is_err());
        assert!(g.set_value(3, &["LAST_NAME"], "x").is_err());
        assert!(g.get_value(0, &["Orders", "ORDER#9", "OID"]).is_err());
    }

    #[test]
    fn figure4_datagraph_serialization() {
        let g = graph();
        g.set_value(0, &["LAST_NAME"], "Carey").unwrap();
        let dg = g.to_datagraph_xml().unwrap();
        let s = serialize(&dg);
        assert!(s.starts_with("<sdo:datagraph xmlns:sdo=\"commonj.sdo\">"));
        // Change summary holds the OLD value with an sdo:ref pointer…
        assert!(s.contains("<changeSummary>"));
        assert!(s.contains("sdo:ref=\"#/sdo:datagraph/CustomerProfile[1]\""));
        assert!(s.contains("<LAST_NAME>Carrey</LAST_NAME>"));
        // …and the data section holds the NEW value.
        assert!(s.contains("<LAST_NAME>Carey</LAST_NAME>"));
    }

    #[test]
    fn datagraph_with_nested_change_reconstructs_chain() {
        let g = graph();
        g.set_value(0, &["Orders", "ORDER#1", "STATUS"], "SHIPPED").unwrap();
        let s = serialize(&g.to_datagraph_xml().unwrap());
        assert!(s.contains("<Orders><ORDER><STATUS>OPEN</STATUS></ORDER></Orders>"));
    }

    #[test]
    fn old_value_lookup_and_clear() {
        let g = graph();
        g.set_value(0, &["LAST_NAME"], "Carey").unwrap();
        let node = g.resolve(0, &["LAST_NAME"]).unwrap();
        assert_eq!(g.old_value_of(&node).as_deref(), Some("Carrey"));
        g.clear_changes();
        assert!(g.old_value_of(&node).is_none());
        assert!(!g.is_changed());
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use xmlparse::{parse, serialize};

    fn graph() -> DataGraph {
        let xml = "<CustomerProfile><CID>7</CID><LAST_NAME>Carrey</LAST_NAME>\
                   <Orders><ORDER><OID>1</OID><STATUS>OPEN</STATUS></ORDER>\
                   <ORDER><OID>2</OID><STATUS>OPEN</STATUS></ORDER></Orders>\
                   </CustomerProfile>";
        let doc = parse(xml).unwrap();
        DataGraph::new(
            "CustomerProfile".into(),
            Sequence::one(Item::Node(doc.children()[0].clone())),
        )
    }

    #[test]
    fn datagraph_xml_round_trip() {
        let g = graph();
        g.set_value(0, &["LAST_NAME"], "Carey").unwrap();
        g.set_value(0, &["Orders", "ORDER#1", "STATUS"], "SHIPPED").unwrap();
        // Serialize to the wire, re-parse on the "server side".
        let wire = serialize(&g.to_datagraph_xml().unwrap());
        let doc = parse(&wire).unwrap();
        let back =
            DataGraph::from_datagraph_xml("CustomerProfile", &doc.children()[0])
                .unwrap();
        assert_eq!(back.len(), 1);
        // New values in the data…
        assert_eq!(back.get_value(0, &["LAST_NAME"]).unwrap(), "Carey");
        assert_eq!(
            back.get_value(0, &["Orders", "ORDER#1", "STATUS"]).unwrap(),
            "SHIPPED"
        );
        // …old values restored in the change summary.
        let mut olds: Vec<String> =
            back.changes().iter().map(|c| c.old.clone()).collect();
        olds.sort();
        assert_eq!(olds, vec!["Carrey", "OPEN"]);
        // The changed node resolves to the right occurrence (ORDER#1,
        // because ORDER#0's STATUS still equals the old value "OPEN"
        // while ORDER#1's differs).
        let changed_status = back
            .changes()
            .into_iter()
            .find(|c| c.old == "OPEN")
            .unwrap();
        assert_eq!(changed_status.node.string_value(), "SHIPPED");
    }

    #[test]
    fn datagraph_without_changes_parses() {
        let g = graph();
        let wire = serialize(&g.to_datagraph_xml().unwrap());
        let doc = parse(&wire).unwrap();
        let back =
            DataGraph::from_datagraph_xml("CustomerProfile", &doc.children()[0])
                .unwrap();
        assert!(!back.is_changed());
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn paper_figure4_literal_datagraph_parses() {
        // The exact document from Figure 4.
        let xml = r##"<sdo:datagraph xmlns:sdo="commonj.sdo">
  <changeSummary>
    <cus:CustomerProfile sdo:ref="#/sdo:datagraph/cus:CustomerProfile[1]"
        xmlns:cus="ld:CustomerProfile">
      <LAST_NAME>Carrey</LAST_NAME>
    </cus:CustomerProfile>
  </changeSummary>
  <cus:CustomerProfile xmlns:cus="ld:CustomerProfile">
    <LAST_NAME>Carey</LAST_NAME>
  </cus:CustomerProfile>
</sdo:datagraph>"##;
        let doc = parse(xml).unwrap();
        let g = DataGraph::from_datagraph_xml("CustomerProfile", &doc.children()[0])
            .unwrap();
        assert_eq!(g.len(), 1);
        let changes = g.changes();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].old, "Carrey");
        assert_eq!(changes[0].node.string_value(), "Carey");
    }

    #[test]
    fn malformed_datagraphs_rejected() {
        let not_dg = parse("<x/>").unwrap();
        assert!(DataGraph::from_datagraph_xml("S", &not_dg.children()[0]).is_err());
        // Entry without sdo:ref.
        let xml = "<sdo:datagraph xmlns:sdo=\"commonj.sdo\">\
                   <changeSummary><P><A>old</A></P></changeSummary><P><A>new</A></P>\
                   </sdo:datagraph>";
        let doc = parse(xml).unwrap();
        assert!(DataGraph::from_datagraph_xml("S", &doc.children()[0]).is_err());
    }
}
