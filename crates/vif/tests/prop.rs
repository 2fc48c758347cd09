//! Property tests for the VIF: serialization round-trips arbitrary node
//! graphs, preserves sharing, rejects corrupted text with typed errors,
//! and library history obeys the latest-compiled-architecture rule and
//! keeps its first- and last-use orders.
//!
//! Ported from proptest to the in-repo `ag-harness` framework; the input
//! space and every invariant are unchanged.

use std::rc::Rc;

use ag_harness::{check, check_eq, forall, Config, Source};
use vhdl_vif::{read_vif, write_vif, Library, VifError, VifNode, VifValue};

/// Random leaf-or-composite values (sharing is tested separately and
/// deterministically). Mirrors the old `value_strategy(depth)`.
fn value(s: &mut Source, depth: u32) -> VifValue {
    // Composites only below the depth limit; choice 0 (minimal) is Nil.
    let max_choice = if depth == 0 { 4 } else { 6 };
    match s.usize_in(0, max_choice) {
        0 => VifValue::Nil,
        1 => VifValue::Bool(s.bool()),
        2 => VifValue::Int(s.i64_in(i64::MIN, i64::MAX)),
        3 => VifValue::Real(s.f64_in(-1e9, 1e9)),
        4 => VifValue::str(s.string_of("abcxyz019 .\"\\", 12)),
        5 => VifValue::Node(node(s, depth - 1)),
        _ => VifValue::list(s.vec(0, 3, |s| value(s, depth - 1))),
    }
}

/// Random node trees, mirroring the old `node_strategy(depth)`:
/// kind `[a-z][a-z.]{0,8}`, optional name `[a-z][a-z0-9_]{0,8}`,
/// 0–4 fields named `[a-z][a-z0-9_]{0,6}`.
fn node(s: &mut Source, depth: u32) -> Rc<VifNode> {
    let kind = s.string_from("abkxyz", "abkxyz.", 8);
    let name = s.option(|s| s.string_from("abcnpq", "abcnpq019_", 8));
    let fields = s.vec(0, 4, |s| {
        let f = s.string_from("fghuvw", "fghuvw019_", 6);
        let v = value(s, depth);
        (f, v)
    });
    let mut b = VifNode::build(kind.as_str());
    if let Some(n) = name {
        b = b.name(n.as_str());
    }
    for (f, v) in fields {
        b = b.field(f.as_str(), v);
    }
    b.done()
}

fn no_foreign(r: &str) -> Result<Rc<VifNode>, VifError> {
    Err(VifError::Unresolved(r.to_string()))
}

/// write → read is the identity on arbitrary node graphs.
#[test]
fn round_trip() {
    forall!(Config::new("round_trip").cases(128), |s| {
        let n = node(s, 3);
        let text = write_vif(&n);
        let back = read_vif(&text, &mut no_foreign).unwrap();
        check_eq!(back, n);
    });
}

/// Sharing is preserved: a diamond keeps its shared leaf single.
#[test]
fn sharing_survives() {
    forall!(Config::new("sharing_survives").cases(128), |s| {
        let shared = node(s, 1);
        let a = VifNode::build("a")
            .node_field("t", Rc::clone(&shared))
            .done();
        let b = VifNode::build("b")
            .node_field("t", Rc::clone(&shared))
            .done();
        let root = VifNode::build("root")
            .node_field("l", a)
            .node_field("r", b)
            .done();
        let n_before = root.reachable_size();
        let back = read_vif(&write_vif(&root), &mut no_foreign).unwrap();
        check_eq!(back.reachable_size(), n_before);
        let l = back.node_field("l").unwrap().node_field("t").unwrap();
        let r = back.node_field("r").unwrap().node_field("t").unwrap();
        check!(Rc::ptr_eq(l, r), "diamond collapsed to one allocation");
    });
}

/// VIF text is the one byte form a library reads, so hostile text must
/// be a typed error, never a panic: a truncation before the `root` line
/// is rejected, and a byte overwritten with VIF punctuation either still
/// parses or is a syntax or resolution error.
#[test]
fn text_corruption_is_rejected_not_panicking() {
    forall!(
        Config::new("text_corruption_is_rejected_not_panicking").cases(160),
        |s| {
            let text = write_vif(&node(s, 2));
            let typed =
                |e: &VifError| matches!(e, VifError::Syntax { .. } | VifError::Unresolved(_));
            if s.bool() {
                let keep = s.usize_in(0, text.rfind("root").expect("root line"));
                let e = read_vif(&text[..keep], &mut no_foreign);
                check!(
                    e.as_ref().is_err_and(typed),
                    "truncation to {keep} bytes must be a typed error, got {e:?}"
                );
            } else {
                let mut bad = text.into_bytes();
                let i = s.usize_in(0, bad.len() - 1);
                bad[i] = *s.pick(b"#()[]\"@r-0 \n\\x");
                let bad = String::from_utf8(bad).expect("VIF text is ASCII here");
                let r = read_vif(&bad, &mut no_foreign);
                check!(
                    r.as_ref().map_or_else(typed, |_| true),
                    "byte {i} overwritten: {r:?}"
                );
            }
        }
    );
}

/// The latest-architecture rule returns the most recent put, under any
/// interleaving of architectures for any entities.
#[test]
fn latest_architecture_is_history_order() {
    forall!(
        Config::new("latest_architecture_is_history_order").cases(128),
        |s| {
            let puts = s.vec(1, 19, |s| (s.u64_in(0, 2) as u8, s.u64_in(0, 2) as u8));
            let lib = Library::in_memory("work");
            let node = VifNode::build("arch").done();
            let mut last: std::collections::HashMap<u8, u8> = Default::default();
            for (e, a) in &puts {
                lib.put(&format!("arch.e{e}.a{a}"), &node).unwrap();
                last.insert(*e, *a);
            }
            for (e, a) in last {
                check_eq!(
                    lib.latest_architecture(&format!("e{e}")),
                    Some(format!("a{a}"))
                );
            }
            check_eq!(lib.latest_architecture("zz"), None);
        }
    );
}

/// The two orders of distinct keys a library keeps beside its history,
/// first use and last use, are the history deduplicated at each key's
/// first and at its last occurrence, and survive a snapshot.
#[test]
fn use_orders_are_the_deduplicated_history() {
    forall!(
        Config::new("use_orders_are_the_deduplicated_history").cases(128),
        |s| {
            let puts = s.vec(0, 24, |s| s.u64_in(0, 5));
            let lib = Library::in_memory("work");
            let node = VifNode::build("pkg").done();
            for k in &puts {
                lib.put(&format!("pkg.p{k}"), &node).unwrap();
            }
            let history = lib.history();
            let dedup = |keys: &mut dyn Iterator<Item = &String>| {
                let mut seen = std::collections::HashSet::new();
                keys.filter(|k| seen.insert(*k))
                    .cloned()
                    .collect::<Vec<_>>()
            };
            let first = dedup(&mut history.iter());
            let mut last = dedup(&mut history.iter().rev());
            last.reverse();
            check_eq!(lib.keys_by_first_use(), first.clone());
            check_eq!(lib.keys_by_last_use(), last.clone());
            let mirror = Library::from_snapshot(&lib.snapshot());
            check_eq!(mirror.keys_by_first_use(), first);
            check_eq!(mirror.keys_by_last_use(), last);
        }
    );
}
