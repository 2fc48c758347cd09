//! VIF nodes: the applicative node graph.
//!
//! "The VIF is specified in the AG and created through attribute
//! evaluation. … once built, the VIF can not be changed" (§4.3). Nodes are
//! therefore immutable after construction and shared through [`Rc`] — new
//! information is expressed by building new nodes that link to old ones,
//! never by mutation.
//!
//! Kinds, node names, and field names are interned [`Symbol`]s, so kind
//! checks compare integers. A node is generic — any tag, any fields — so
//! the text reader and tests can build anything, but the compiler's kinds
//! and their fields are a closed set declared in [`crate::schema`]: its
//! [`Kind`] and [`Field`] name them, its constructors build them, a
//! library load checks them, and the required-field accessors
//! ([`VifNode::node`], [`VifNode::int`], [`VifNode::str`]) read them.
//! The *text* serialization ([`crate::text`]) round-trips through
//! strings, so the on-disk interchange format never sees symbol ids.

use std::fmt;
use std::rc::Rc;

use ag_intern::{Symbol, ToSym};

use crate::schema::{Field, Kind};

/// A field value inside a [`VifNode`].
#[derive(Clone, Debug, PartialEq)]
pub enum VifValue {
    /// Absent / null.
    Nil,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (also used for enum positions and physical values).
    Int(i64),
    /// IEEE double (VHDL `REAL`).
    Real(f64),
    /// String (names, literals).
    Str(Rc<str>),
    /// Link to another node (shared — this is what makes the VIF a graph).
    Node(Rc<VifNode>),
    /// Ordered list.
    List(Rc<Vec<VifValue>>),
    /// A *foreign reference* to a separately-compiled unit, as
    /// `library.unit_key`. Written to disk as a reference; resolved into a
    /// [`VifValue::Node`] when read back ("fixup").
    Foreign(Rc<str>),
}

impl VifValue {
    /// Convenience: string value.
    pub fn str(s: impl Into<Rc<str>>) -> VifValue {
        VifValue::Str(s.into())
    }

    /// Convenience: node value.
    pub fn node(n: Rc<VifNode>) -> VifValue {
        VifValue::Node(n)
    }

    /// Convenience: list value.
    pub fn list(items: Vec<VifValue>) -> VifValue {
        VifValue::List(Rc::new(items))
    }

    /// As integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            VifValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            VifValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As node, if it is one.
    pub fn as_node(&self) -> Option<&Rc<VifNode>> {
        match self {
            VifValue::Node(n) => Some(n),
            _ => None,
        }
    }

    /// As list, if it is one.
    pub fn as_list(&self) -> Option<&[VifValue]> {
        match self {
            VifValue::List(l) => Some(l),
            _ => None,
        }
    }
}

/// An immutable VIF node: kind, optional name, ordered fields. Kind,
/// name, and field names are interned symbols.
#[derive(Clone, Debug, PartialEq)]
pub struct VifNode {
    kind: Symbol,
    name: Option<Symbol>,
    fields: Vec<(Symbol, VifValue)>,
}

impl VifNode {
    /// Starts building a node of `kind`.
    pub fn build(kind: impl ToSym) -> VifBuilder {
        VifBuilder {
            kind: kind.to_sym(),
            name: None,
            fields: Vec::new(),
        }
    }

    /// The node's kind tag as text.
    pub fn kind(&self) -> &'static str {
        self.kind.as_str()
    }

    /// The node's kind tag as a symbol — integer-comparable against the
    /// [`crate::kinds`] constants.
    pub fn kind_sym(&self) -> Symbol {
        self.kind
    }

    /// The node's schema kind ([`Kind::other`] for a tag outside the
    /// schema), for `match`ing on.
    pub fn tag(&self) -> Kind {
        Kind::of(self.kind)
    }

    /// A node from its parts (the schema's typed constructors).
    pub(crate) fn from_parts(
        kind: Symbol,
        name: Option<Symbol>,
        fields: Vec<(Symbol, VifValue)>,
    ) -> Rc<VifNode> {
        Rc::new(VifNode { kind, name, fields })
    }

    /// A copy of this node with `extra` fields appended (nodes are
    /// immutable: completing one builds a new node).
    pub fn with_fields<const N: usize>(&self, extra: [(Field, VifValue); N]) -> Rc<VifNode> {
        let mut fields = Vec::with_capacity(self.fields.len() + N);
        fields.extend(self.fields.iter().cloned());
        fields.extend(extra.into_iter().map(|(f, v)| (f.sym(), v)));
        VifNode::from_parts(self.kind, self.name, fields)
    }

    /// The node's name, if named.
    pub fn name(&self) -> Option<&'static str> {
        self.name.map(Symbol::as_str)
    }

    /// The node's name symbol, if named — the form environment keys want.
    pub fn name_sym(&self) -> Option<Symbol> {
        self.name
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[(Symbol, VifValue)] {
        &self.fields
    }

    /// Looks up a field by name.
    pub fn field(&self, name: impl ToSym) -> Option<&VifValue> {
        let name = name.to_sym();
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Field as node, or `None`.
    pub fn node_field(&self, name: impl ToSym) -> Option<&Rc<VifNode>> {
        self.field(name).and_then(VifValue::as_node)
    }

    /// Field as list, or an empty slice.
    pub fn list_field(&self, name: impl ToSym) -> &[VifValue] {
        self.field(name).and_then(VifValue::as_list).unwrap_or(&[])
    }

    /// The node elements of a list field (none when it is absent).
    pub fn nodes(&self, name: impl ToSym) -> impl Iterator<Item = &Rc<VifNode>> {
        self.list_field(name).iter().filter_map(VifValue::as_node)
    }

    /// Field as string.
    pub fn str_field(&self, name: impl ToSym) -> Option<&str> {
        self.field(name).and_then(VifValue::as_str)
    }

    /// Field as integer.
    pub fn int_field(&self, name: impl ToSym) -> Option<i64> {
        self.field(name).and_then(VifValue::as_int)
    }

    /// A required node field. Library loads check every node against the
    /// schema ([`crate::schema::check_node`]) and the typed constructors
    /// cannot leave a required field out, so only a node built by hand
    /// outside the schema can lack it; that is a bug, and panics.
    pub fn node(&self, f: Field) -> &Rc<VifNode> {
        self.required(f, VifValue::as_node)
    }

    /// A required integer field (see [`VifNode::node`]).
    pub fn int(&self, f: Field) -> i64 {
        self.required(f, VifValue::as_int)
    }

    /// A required string field (see [`VifNode::node`]).
    pub fn str(&self, f: Field) -> &str {
        self.required(f, VifValue::as_str)
    }

    /// A required string field as a shared handle, for copying it into
    /// another node without copying the text (see [`VifNode::node`]).
    pub fn str_rc(&self, f: Field) -> Rc<str> {
        self.required(f, |v| match v {
            VifValue::Str(s) => Some(Rc::clone(s)),
            _ => None,
        })
    }

    fn required<'a, T>(&'a self, f: Field, get: impl FnOnce(&'a VifValue) -> Option<T>) -> T {
        self.field(f)
            .and_then(get)
            .unwrap_or_else(|| self.unchecked(f))
    }

    #[cold]
    fn unchecked(&self, f: Field) -> ! {
        panic!(
            "`{}` node without a well-shaped `{}`: built outside the schema",
            self.kind,
            f.text()
        )
    }

    /// Number of nodes reachable from this one (counting shared nodes
    /// once) — used by the VIF-traffic experiments.
    pub fn reachable_size(self: &Rc<Self>) -> usize {
        let mut seen = std::collections::HashSet::new();
        fn walk(n: &Rc<VifNode>, seen: &mut std::collections::HashSet<*const VifNode>) {
            if !seen.insert(Rc::as_ptr(n)) {
                return;
            }
            for (_, v) in n.fields() {
                walk_value(v, seen);
            }
        }
        fn walk_value(v: &VifValue, seen: &mut std::collections::HashSet<*const VifNode>) {
            match v {
                VifValue::Node(n) => walk(n, seen),
                VifValue::List(l) => {
                    for v in l.iter() {
                        walk_value(v, seen);
                    }
                }
                _ => {}
            }
        }
        walk(self, &mut seen);
        seen.len()
    }
}

impl fmt::Display for VifNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.kind)?;
        if let Some(n) = self.name() {
            write!(f, " {n:?}")?;
        }
        write!(f, " …)")
    }
}

/// Builder for [`VifNode`] (nodes are immutable once built).
pub struct VifBuilder {
    kind: Symbol,
    name: Option<Symbol>,
    fields: Vec<(Symbol, VifValue)>,
}

impl VifBuilder {
    /// Names the node.
    pub fn name(mut self, name: impl ToSym) -> Self {
        self.name = Some(name.to_sym());
        self
    }

    /// Adds a field.
    pub fn field(mut self, name: impl ToSym, value: VifValue) -> Self {
        self.fields.push((name.to_sym(), value));
        self
    }

    /// Adds a string field.
    pub fn str_field(self, name: impl ToSym, v: impl Into<Rc<str>>) -> Self {
        self.field(name, VifValue::Str(v.into()))
    }

    /// Adds an integer field.
    pub fn int_field(self, name: impl ToSym, v: i64) -> Self {
        self.field(name, VifValue::Int(v))
    }

    /// Adds a node field.
    pub fn node_field(self, name: impl ToSym, v: Rc<VifNode>) -> Self {
        self.field(name, VifValue::Node(v))
    }

    /// Adds a list field.
    pub fn list_field(self, name: impl ToSym, v: Vec<VifValue>) -> Self {
        self.field(name, VifValue::list(v))
    }

    /// Finishes the node.
    pub fn done(self) -> Rc<VifNode> {
        Rc::new(VifNode {
            kind: self.kind,
            name: self.name,
            fields: self.fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let ty = VifNode::build("type").name("integer").done();
        let obj = VifNode::build("signal")
            .name("clk")
            .node_field("type", Rc::clone(&ty))
            .int_field("line", 12)
            .str_field("mode", "in")
            .list_field("drivers", vec![VifValue::Int(1), VifValue::Int(2)])
            .field("missing_ok", VifValue::Nil)
            .done();
        assert_eq!(obj.kind(), "signal");
        assert_eq!(obj.kind_sym(), Symbol::intern("signal"));
        assert_eq!(obj.tag(), crate::Kind::other);
        assert_eq!(obj.name(), Some("clk"));
        assert_eq!(obj.name_sym(), Some(Symbol::intern("clk")));
        assert_eq!(obj.int_field("line"), Some(12));
        assert_eq!(obj.str_field("mode"), Some("in"));
        assert_eq!(obj.node_field("type").unwrap().name(), Some("integer"));
        assert_eq!(obj.list_field("drivers").len(), 2);
        assert_eq!(obj.list_field("nonexistent").len(), 0);
        assert_eq!(obj.field("missing_ok"), Some(&VifValue::Nil));
        assert_eq!(obj.field("really_missing"), None);
        assert_eq!(obj.fields().len(), 5);
        // Symbol keys hit the same fields as strings.
        assert_eq!(obj.int_field(Symbol::intern("line")), Some(12));
    }

    #[test]
    fn reachable_counts_shared_once() {
        let shared = VifNode::build("type").name("bit").done();
        let a = VifNode::build("a")
            .node_field("t", Rc::clone(&shared))
            .done();
        let b = VifNode::build("b")
            .node_field("t", Rc::clone(&shared))
            .node_field("a", Rc::clone(&a))
            .list_field("xs", vec![VifValue::Node(Rc::clone(&shared))])
            .done();
        assert_eq!(b.reachable_size(), 3); // b, a, shared
    }

    #[test]
    fn value_accessors() {
        assert_eq!(VifValue::Int(3).as_int(), Some(3));
        assert_eq!(VifValue::str("x").as_str(), Some("x"));
        assert_eq!(VifValue::Bool(true).as_int(), None);
        let n = VifNode::build("k").done();
        assert!(VifValue::node(Rc::clone(&n)).as_node().is_some());
        assert!(VifValue::list(vec![]).as_list().is_some());
        assert_eq!(format!("{n}"), "(k …)");
    }
}
