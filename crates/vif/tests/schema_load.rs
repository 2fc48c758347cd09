//! Hostile library units meet the schema at load: for every schema kind,
//! a stored unit with a required field removed, and one with an unknown
//! field added, loads as a `VifError::Schema` naming the unit, the kind
//! and the field — never as a tree a consumer could trip over.

use std::rc::Rc;

use vhdl_vif::schema::{KindSpec, SchemaFault, Shape, SCHEMA};
use vhdl_vif::{mk, write_vif, Library, LibrarySet, VifError, VifNode, VifValue};

/// A well-formed value of each shape and link.
fn sample(shape: Shape, link: &[&str]) -> VifValue {
    let node = match link {
        [] | ["s."] => mk::s_null(),
        ["ty."] => mk::ty_marker("t", "t"),
        ["e."] => mk::e_error(mk::ty_marker("t", "t"), "m", 1),
        ["ch."] => mk::ch_others(),
        [kind] => node(SCHEMA.iter().find(|k| k.text == *kind).unwrap(), None, &[]),
        _ => unreachable!("one link at most"),
    };
    match shape {
        Shape::Node | Shape::Foreign => VifValue::Node(node),
        Shape::Int => VifValue::Int(1),
        Shape::Str => VifValue::str("x"),
        Shape::Real => VifValue::Real(0.5),
        Shape::Bool => VifValue::Bool(true),
        Shape::List => VifValue::list(vec![VifValue::Node(node)]),
    }
}

/// A `kind` node with every field of the schema except `skip`, plus the
/// `extra` fields.
fn node(kind: &KindSpec, skip: Option<usize>, extra: &[(&str, VifValue)]) -> Rc<VifNode> {
    let mut b = VifNode::build(kind.kind).name("n");
    for (i, f) in kind.fields.iter().enumerate() {
        if Some(i) != skip {
            b = b.field(f.field, sample(f.shape, f.link));
        }
    }
    for (name, v) in extra {
        b = b.field(*name, v.clone());
    }
    b.done()
}

/// Stores `root` as unit `pkg.u` of a fresh library, as text, and loads it.
fn load(root: &Rc<VifNode>) -> Result<Rc<VifNode>, VifError> {
    let work = Library::in_memory("work");
    work.put_text("pkg.u", &write_vif(root)).unwrap();
    LibrarySet::new(Rc::new(work), vec![]).load("work.pkg.u")
}

/// The schema error a load gives, as `(kind, field, fault)`.
fn schema_error(root: &Rc<VifNode>) -> (String, String, SchemaFault) {
    match load(root) {
        Err(VifError::InUnit { unit, source }) => match *source {
            VifError::Schema { kind, field, fault } => {
                assert_eq!(unit, "work.pkg.u");
                (kind, field, fault)
            }
            other => panic!("expected a schema error, got {other}"),
        },
        other => panic!("expected a schema error in unit work.pkg.u, got {other:?}"),
    }
}

#[test]
fn every_complete_kind_loads() {
    for kind in SCHEMA {
        let back = load(&node(kind, None, &[])).unwrap_or_else(|e| panic!("{}: {e}", kind.text));
        assert_eq!(back.kind(), kind.text);
    }
}

#[test]
fn every_kind_rejects_a_missing_required_field() {
    let mut checked = 0;
    for kind in SCHEMA {
        for (i, f) in kind.fields.iter().enumerate().filter(|(_, f)| f.required) {
            let got = schema_error(&node(kind, Some(i), &[]));
            let want = (
                kind.text.to_string(),
                f.field.text().to_string(),
                SchemaFault::MissingField,
            );
            assert_eq!(got, want);
            checked += 1;
        }
    }
    assert!(checked > SCHEMA.len(), "{checked} required fields");
}

#[test]
fn every_kind_rejects_an_unknown_field() {
    for kind in SCHEMA {
        let got = schema_error(&node(kind, None, &[("bogus", VifValue::Int(0))]));
        assert_eq!(
            got,
            (
                kind.text.to_string(),
                "bogus".to_string(),
                SchemaFault::UnknownField
            )
        );
    }
}

#[test]
fn wrong_shapes_and_unknown_kinds_are_rejected() {
    for kind in SCHEMA {
        for f in kind.fields {
            let wrong = match f.shape {
                Shape::Str => VifValue::Int(0),
                _ => VifValue::str("x"),
            };
            let root = VifNode::build(kind.kind).field(f.field, wrong).done();
            let (k, field, fault) = schema_error(&root);
            assert_eq!((k.as_str(), field.as_str()), (kind.text, f.field.text()));
            assert_eq!(fault, SchemaFault::WrongShape(f.shape));
        }
    }
    let root = VifNode::build("no.such.kind").done();
    let got = schema_error(&root);
    assert_eq!(
        got,
        (
            "no.such.kind".to_string(),
            String::new(),
            SchemaFault::UnknownKind
        )
    );
    // A node field linking a node of another kind, or a list holding one.
    let int = mk::ty_int("integer", "integer", 0, 9);
    let relinked = mk::e_ref(int.clone(), int.clone());
    let got = schema_error(&relinked);
    assert_eq!(
        got,
        (
            "e.ref".to_string(),
            "obj".to_string(),
            SchemaFault::WrongLink
        )
    );
    let call = mk::e_call(int.clone(), "f", "f", None, vec![VifValue::Node(int)]);
    let got = schema_error(&call);
    assert_eq!(
        got,
        (
            "e.call".to_string(),
            "args".to_string(),
            SchemaFault::WrongLink
        )
    );
    // A nested node is checked too, and the message names the unit.
    let inner = VifNode::build("e.ref").done();
    let outer = mk::s_call(inner);
    let err = load(&outer).unwrap_err().to_string();
    assert_eq!(
        err,
        "in unit `work.pkg.u`: `e.ref` node, field `ty`: missing required field"
    );
}
