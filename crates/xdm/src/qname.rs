//! Qualified names.
//!
//! A [`QName`] is a (namespace URI, local name) pair with an optional
//! lexical prefix. Equality and hashing consider only the *expanded*
//! name — namespace URI and local part — as required by XQuery; the
//! prefix is retained purely for serialization fidelity.
//!
//! All three parts are interned [`Symbol`]s: cloning a QName copies
//! three pointers and comparing two QNames is (in the interned common
//! case) two pointer comparisons. The constructors accept anything
//! `Into<Symbol>` — `&str`, `String`, or an existing `Symbol` — so call
//! sites read as before.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::intern::Symbol;

/// Well-known namespace URIs.
pub const XS_NS: &str = "http://www.w3.org/2001/XMLSchema";
/// The `fn:` builtin-function namespace.
pub const FN_NS: &str = "http://www.w3.org/2005/xpath-functions";
/// The `xml:` namespace.
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// An expanded qualified name.
#[derive(Debug, Clone)]
pub struct QName {
    /// Lexical prefix, if any (not part of identity).
    pub prefix: Option<Symbol>,
    /// Namespace URI, if any.
    pub ns: Option<Symbol>,
    /// Local part.
    pub local: Symbol,
}

impl QName {
    /// A QName with no namespace.
    pub fn new(local: impl Into<Symbol>) -> Self {
        QName { prefix: None, ns: None, local: local.into() }
    }

    /// A QName in a namespace, without a prefix.
    pub fn with_ns(ns: impl Into<Symbol>, local: impl Into<Symbol>) -> Self {
        QName { prefix: None, ns: Some(ns.into()), local: local.into() }
    }

    /// A QName with both a prefix and a namespace.
    pub fn with_prefix_ns(
        prefix: impl Into<Symbol>,
        ns: impl Into<Symbol>,
        local: impl Into<Symbol>,
    ) -> Self {
        QName {
            prefix: Some(prefix.into()),
            ns: Some(ns.into()),
            local: local.into(),
        }
    }

    /// Parse a lexical QName (`prefix:local` or `local`). The prefix is
    /// recorded but not resolved; resolution against in-scope
    /// namespaces is the parser's/evaluator's job.
    pub fn parse_lexical(s: &str) -> Option<QName> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        match s.split_once(':') {
            Some((p, l)) => {
                if p.is_empty() || l.is_empty() || l.contains(':') {
                    None
                } else {
                    Some(QName {
                        prefix: Some(Symbol::intern(p)),
                        ns: None,
                        local: Symbol::intern(l),
                    })
                }
            }
            None => Some(QName::new(s)),
        }
    }

    /// The `xs:`-namespace QName with the given local name.
    pub fn xs(local: impl Into<Symbol>) -> Self {
        QName::with_prefix_ns("xs", XS_NS, local)
    }

    /// Expanded-name equality against namespace/local parts. Never
    /// allocates.
    pub fn matches(&self, ns: Option<&str>, local: &str) -> bool {
        self.ns.as_deref() == ns && &*self.local == local
    }

    /// Non-allocating test against a lexical form (`prefix:local` or
    /// bare `local`) — what `lexical() == s` used to spell with a
    /// fresh `String` per call.
    pub fn lexical_is(&self, s: &str) -> bool {
        match (&self.prefix, s.split_once(':')) {
            (Some(p), Some((sp, sl))) => &**p == sp && &*self.local == sl,
            (None, None) => &*self.local == s,
            _ => false,
        }
    }

    /// Non-allocating expanded-name ordering: by namespace URI, then
    /// local part. Equivalent as a sort key to comparing `clark()`
    /// strings (what the old allocating comparison sites built).
    pub fn cmp_expanded(&self, other: &QName) -> std::cmp::Ordering {
        match (&self.ns, &other.ns) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(a), Some(b)) => a.as_str().cmp(b.as_str()),
        }
        .then_with(|| self.local.as_str().cmp(other.local.as_str()))
    }

    /// The lexical form: `prefix:local` if a prefix is present, else
    /// `local`. Allocates — for display paths; comparisons should use
    /// [`QName::lexical_is`] / [`QName::matches`].
    pub fn lexical(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{}:{}", p, self.local),
            None => self.local.as_str().to_string(),
        }
    }

    /// Clark notation: `{ns}local`, used in error messages. Allocates —
    /// for display paths; comparisons should use [`QName::cmp_expanded`].
    pub fn clark(&self) -> String {
        match &self.ns {
            Some(ns) => format!("{{{}}}{}", ns, self.local),
            None => self.local.as_str().to_string(),
        }
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.ns == other.ns && self.local == other.local
    }
}
impl Eq for QName {}

impl Hash for QName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ns.hash(state);
        self.local.hash(state);
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.ns, &self.local).cmp(&(&other.ns, &other.local))
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{}:{}", p, self.local),
            None => f.write_str(&self.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(q: &QName) -> u64 {
        let mut h = DefaultHasher::new();
        q.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_ignores_prefix() {
        let a = QName::with_prefix_ns("a", "urn:x", "name");
        let b = QName::with_prefix_ns("b", "urn:x", "name");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn equality_respects_namespace() {
        let a = QName::with_ns("urn:x", "name");
        let b = QName::with_ns("urn:y", "name");
        let c = QName::new("name");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parse_lexical_forms() {
        let q = QName::parse_lexical("ns1:getProfile").unwrap();
        assert_eq!(q.prefix.as_deref(), Some("ns1"));
        assert_eq!(q.local, "getProfile");
        let q = QName::parse_lexical("CUSTOMER").unwrap();
        assert_eq!(q.prefix, None);
        assert_eq!(q.local, "CUSTOMER");
        assert!(QName::parse_lexical("").is_none());
        assert!(QName::parse_lexical(":x").is_none());
        assert!(QName::parse_lexical("a:").is_none());
        assert!(QName::parse_lexical("a:b:c").is_none());
    }

    #[test]
    fn lexical_and_clark_forms() {
        let q = QName::with_prefix_ns("xs", XS_NS, "integer");
        assert_eq!(q.lexical(), "xs:integer");
        assert_eq!(q.clark(), format!("{{{}}}integer", XS_NS));
        assert_eq!(QName::new("x").clark(), "x");
    }

    #[test]
    fn lexical_is_matches_lexical() {
        let q = QName::with_prefix_ns("xs", XS_NS, "integer");
        assert!(q.lexical_is("xs:integer"));
        assert!(!q.lexical_is("integer"));
        assert!(!q.lexical_is("fn:integer"));
        let b = QName::new("CUSTOMER");
        assert!(b.lexical_is("CUSTOMER"));
        assert!(!b.lexical_is("x:CUSTOMER"));
    }

    #[test]
    fn cmp_expanded_agrees_with_clark_sort() {
        let names = [
            QName::new("b"),
            QName::with_ns("urn:a", "z"),
            QName::new("a"),
            QName::with_ns("urn:b", "a"),
            QName::with_ns("urn:a", "a"),
        ];
        let mut by_fast = names.to_vec();
        by_fast.sort_by(|a, b| a.cmp_expanded(b));
        let mut by_clark = names.to_vec();
        by_clark.sort_by_key(|q| q.clark());
        // Same grouping by expanded name; clark's "{" byte sorts
        // namespaced names after no-namespace names, as does
        // cmp_expanded's None-first rule for ASCII names.
        assert_eq!(by_fast, by_clark);
    }
}
