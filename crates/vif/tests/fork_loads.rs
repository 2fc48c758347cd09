//! Two forks of one byte-record library load equal trees that share no
//! node, and each fork reads every unit's text exactly once.
//!
//! The unit-load counters are process-wide, so this file holds a single test
//! and no other test can move them while it runs.

use std::collections::HashSet;
use std::rc::Rc;

use vhdl_vif::{mk, vifb_stats, write_vif, Library, LibrarySet, VifNode, VifValue};

/// Every node reachable from `root`, by address.
fn nodes(root: &Rc<VifNode>, out: &mut HashSet<*const VifNode>) {
    fn value(v: &VifValue, out: &mut HashSet<*const VifNode>) {
        match v {
            VifValue::Node(n) => nodes(n, out),
            VifValue::List(items) => items.iter().for_each(|v| value(v, out)),
            _ => {}
        }
    }
    if out.insert(Rc::as_ptr(root)) {
        for (_, v) in root.fields() {
            value(v, out);
        }
    }
}

#[test]
fn forks_load_equal_trees_that_share_no_nodes() {
    // `ent` refers to `pkg` by a foreign reference and shares `bit` with it.
    let bit = mk::ty_enum("bit", "bit@t", vec![]);
    let pkg = mk::pkg("p", "p@t", vec![VifValue::Node(Rc::clone(&bit))], None);
    let uses = vec![VifValue::Foreign("work.pkg.p".into()), VifValue::Node(bit)];
    let ent = mk::pkg("e", "e@t", uses, None);

    let base = Library::in_memory("work");
    base.put_text("pkg.p", &write_vif(&pkg)).unwrap();
    base.put_text("entity.e", &write_vif(&ent)).unwrap();
    let snap = base.snapshot();
    let keys = ["work.entity.e", "work.pkg.p"];

    // Each fork loads every unit twice: once from text, once from the
    // record memo.
    let load_fork = || {
        let set = LibrarySet::new(Rc::new(Library::from_snapshot(&snap)), vec![]);
        let before = vifb_stats().text_parses;
        let trees: Vec<Rc<VifNode>> = keys.iter().map(|k| set.load(k).unwrap()).collect();
        for (k, t) in keys.iter().zip(&trees) {
            assert!(Rc::ptr_eq(&set.load(k).unwrap(), t), "{k}: record memo");
        }
        let parses = vifb_stats().text_parses - before;
        assert_eq!(parses, keys.len() as u64, "one text parse per unit");
        trees
    };
    let a = load_fork();
    let b = load_fork();

    assert_eq!(a, b);
    let mut seen_a = HashSet::new();
    a.iter().for_each(|t| nodes(t, &mut seen_a));
    let mut seen_b = HashSet::new();
    b.iter().for_each(|t| nodes(t, &mut seen_b));
    assert!(seen_a.is_disjoint(&seen_b), "forks share no node");
}
