//! The VHDL type model, represented as VIF nodes.
//!
//! Types live in the VIF (the symbol table *is* the VIF, §4.3), so type
//! nodes must survive serialization: identity is carried by a `uid` string
//! rather than pointer equality, and the graph is kept cycle-free (a type
//! never points back at the denotations that reference it). Constructors
//! take their uid from the caller, who gets it from [`crate::uid`]: a
//! declared type's uid names its unit and declaring token, a predefined
//! one its name, an anonymous subtype its structure.
//!
//! Node kinds: `ty.enum`, `ty.int`, `ty.real`, `ty.phys`, `ty.array`,
//! `ty.record`, `ty.subtype`. Directions: `0` = `to`, `1` = `downto`.

use std::rc::Rc;

use vhdl_vif::{mk, Field, Kind, VifNode, VifValue};

use crate::uid::{RANGE_MARKER, UNIVERSAL_INT, UNIVERSAL_REAL, VOID_MARKER};

/// A shared handle to a type node.
pub type Ty = Rc<VifNode>;

/// Range direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Ascending (`to`).
    To,
    /// Descending (`downto`).
    Downto,
}

impl Dir {
    /// VIF encoding.
    pub fn encode(self) -> i64 {
        match self {
            Dir::To => 0,
            Dir::Downto => 1,
        }
    }

    /// Decodes the VIF encoding (anything nonzero is `downto`).
    pub fn decode(v: i64) -> Dir {
        if v == 0 {
            Dir::To
        } else {
            Dir::Downto
        }
    }
}

/// Builds an enumeration type. Literal *denotation* nodes are created
/// separately by the caller (they point at the type; the type stores only
/// the literal names, keeping the graph acyclic).
pub fn mk_enum(uid: String, name: &str, lits: &[&str]) -> Ty {
    mk::ty_enum(name, uid, lits.iter().map(|l| VifValue::str(*l)).collect())
}

/// Builds an integer type with inclusive bounds.
pub fn mk_int(uid: String, name: &str, lo: i64, hi: i64) -> Ty {
    mk::ty_int(name, uid, lo, hi)
}

/// Builds a floating-point type.
pub fn mk_real(uid: String, name: &str, lo: f64, hi: f64) -> Ty {
    mk::ty_real(name, uid, lo, hi)
}

/// Builds a physical type; `units` are `(name, factor)` pairs with the
/// primary unit first (factor 1). Values are stored in primary units.
pub fn mk_phys(uid: String, name: &str, lo: i64, hi: i64, units: &[(&str, i64)]) -> Ty {
    let units = units
        .iter()
        .map(|(n, f)| VifValue::Node(mk::unit(*n, *f)))
        .collect();
    mk::ty_phys(name, uid, lo, hi, units)
}

/// Builds a constrained array type (one dimension in this subset).
pub fn mk_array(
    uid: String,
    name: &str,
    index_ty: &Ty,
    lo: i64,
    hi: i64,
    dir: Dir,
    elem: &Ty,
) -> Ty {
    let (index_ty, elem) = (Rc::clone(index_ty), Rc::clone(elem));
    mk::ty_array(
        name,
        uid,
        index_ty,
        elem,
        false,
        Some(lo),
        Some(hi),
        Some(dir.encode()),
    )
}

/// Builds an unconstrained array type (`array (T range <>) of E`).
pub fn mk_array_unconstrained(uid: String, name: &str, index_ty: &Ty, elem: &Ty) -> Ty {
    let (index_ty, elem) = (Rc::clone(index_ty), Rc::clone(elem));
    mk::ty_array(name, uid, index_ty, elem, true, None, None, None)
}

/// Builds a record type from `(field_name, field_type)` pairs.
pub fn mk_record(uid: String, name: &str, elems: &[(&str, Ty)]) -> Ty {
    let elems = elems
        .iter()
        .map(|(n, t)| VifValue::Node(mk::elem(*n, Rc::clone(t))))
        .collect();
    mk::ty_record(name, uid, elems)
}

/// Builds a scalar subtype with an optional tightened range and optional
/// resolution function (a `subprog` node).
pub fn mk_subtype(
    uid: String,
    name: &str,
    base: &Ty,
    range: Option<(i64, i64, Dir)>,
    resolution: Option<Rc<VifNode>>,
) -> Ty {
    let (lo, hi, dir) = match range {
        Some((lo, hi, dir)) => (Some(lo), Some(hi), Some(dir.encode())),
        None => (None, None, None),
    };
    mk::ty_subtype(name, uid, Rc::clone(base), lo, hi, dir, resolution)
}

/// Builds an anonymous subtype of `base` (a constraint or resolution
/// written in place, e.g. `bit_vector(7 downto 0)`), named after its base;
/// its uid is structural ([`crate::uid::anon_subtype`]).
pub fn anon_subtype(
    base: &Ty,
    range: Option<(i64, i64, Dir)>,
    resolution: Option<Rc<VifNode>>,
) -> Ty {
    mk_subtype(
        crate::uid::anon_subtype(base, range, resolution.as_deref()),
        base.name().unwrap_or("anon"),
        base,
        range,
        resolution,
    )
}

/// The unique id of a type.
pub fn uid(ty: &Ty) -> &str {
    ty.str(Field::uid)
}

/// Follows `ty.subtype` links to the base type.
pub fn base_type(ty: &Ty) -> Ty {
    Rc::clone(base_ref(ty))
}

/// [`base_type`] without taking a reference count.
fn base_ref(ty: &Ty) -> &Ty {
    let mut cur = ty;
    while cur.tag() == Kind::ty_subtype {
        cur = cur.node(Field::base);
    }
    cur
}

/// `true` when both types have the same base type (the VHDL "same type"
/// check after implicit subtype conversion).
pub fn same_base(a: &Ty, b: &Ty) -> bool {
    uid(base_ref(a)) == uid(base_ref(b))
}

thread_local! {
    static UNIVERSAL: (Ty, Ty) = (
        mk::ty_int("universal_integer", UNIVERSAL_INT, i64::MIN, i64::MAX),
        mk::ty_real("universal_real", UNIVERSAL_REAL, f64::MIN, f64::MAX),
    );
}

/// The universal-integer type node, one per thread (equality is by uid,
/// so a node from another thread or a VIF file is the same type).
pub fn universal_int() -> Ty {
    UNIVERSAL.with(|u| Rc::clone(&u.0))
}

/// The universal-real type node, one per thread.
pub fn universal_real() -> Ty {
    UNIVERSAL.with(|u| Rc::clone(&u.1))
}

/// `true` if `ty` is (or constrains) the universal integer.
pub fn is_universal_int(ty: &Ty) -> bool {
    uid(ty) == UNIVERSAL_INT
}

/// `true` if `ty` is the universal real.
pub fn is_universal_real(ty: &Ty) -> bool {
    uid(ty) == UNIVERSAL_REAL
}

/// `true` when an expression of type `actual` can appear where `expected`
/// is required: same base type, or a universal literal matching the
/// expected class.
pub fn compatible(actual: &Ty, expected: &Ty) -> bool {
    if same_base(actual, expected) {
        return true;
    }
    let eb = base_ref(expected);
    (is_universal_int(actual) && eb.tag() == Kind::ty_int)
        || (is_universal_real(actual) && eb.tag() == Kind::ty_real)
}

/// Kind predicates over base types.
pub fn is_scalar(ty: &Ty) -> bool {
    matches!(
        base_ref(ty).tag(),
        Kind::ty_enum | Kind::ty_int | Kind::ty_real | Kind::ty_phys
    )
}

/// `true` for discrete types (enumeration and integer).
pub fn is_discrete(ty: &Ty) -> bool {
    matches!(base_ref(ty).tag(), Kind::ty_enum | Kind::ty_int)
}

/// `true` for one-dimensional arrays.
pub fn is_array(ty: &Ty) -> bool {
    base_ref(ty).tag() == Kind::ty_array
}

/// `true` for record types.
pub fn is_record(ty: &Ty) -> bool {
    base_ref(ty).tag() == Kind::ty_record
}

/// Element type of an array (base-resolved); `None` for a non-array.
pub fn elem_type(ty: &Ty) -> Option<Ty> {
    let b = base_ref(ty);
    (b.tag() == Kind::ty_array).then(|| Rc::clone(b.node(Field::elem)))
}

/// Index type of an array (base-resolved); `None` for a non-array.
pub fn index_type(ty: &Ty) -> Option<Ty> {
    let b = base_ref(ty);
    (b.tag() == Kind::ty_array).then(|| Rc::clone(b.node(Field::index_ty)))
}

/// The scalar bounds of a (sub)type, following subtype constraints
/// outermost-first. Enumerations use literal positions.
pub fn scalar_bounds(ty: &Ty) -> Option<(i64, i64, Dir)> {
    let mut cur = ty;
    loop {
        if let Some(r) = own_range(cur) {
            return Some(r);
        }
        match cur.tag() {
            Kind::ty_enum => {
                let n = cur.list_field(Field::lits).len() as i64;
                return Some((0, n - 1, Dir::To));
            }
            Kind::ty_subtype => cur = cur.node(Field::base),
            _ => return None,
        }
    }
}

/// The integer range a type node declares itself (`ty.int`, `ty.phys`,
/// a constrained `ty.array` or `ty.subtype`); a `ty.int` has no `dir`
/// and ascends.
fn own_range(n: &VifNode) -> Option<(i64, i64, Dir)> {
    let (lo, hi) = (n.int_field(Field::lo)?, n.int_field(Field::hi)?);
    Some((lo, hi, Dir::decode(n.int_field(Field::dir).unwrap_or(0))))
}

/// The index bounds of a constrained array (sub)type.
pub fn array_bounds(ty: &Ty) -> Option<(i64, i64, Dir)> {
    let mut cur = ty;
    loop {
        match cur.tag() {
            Kind::ty_array => return own_range(cur),
            Kind::ty_subtype => match own_range(cur) {
                Some(r) if is_array(cur) => return Some(r),
                _ => cur = cur.node(Field::base),
            },
            _ => return None,
        }
    }
}

/// Number of elements between bounds (0 for null ranges).
pub fn range_length(lo: i64, hi: i64, dir: Dir) -> i64 {
    match dir {
        Dir::To => (hi - lo + 1).max(0),
        Dir::Downto => (lo - hi + 1).max(0),
    }
}

/// Position of an enumeration literal in a type, if present.
pub fn enum_pos(ty: &Ty, lit: &str) -> Option<i64> {
    base_ref(ty)
        .list_field(Field::lits)
        .iter()
        .position(|v| v.as_str() == Some(lit))
        .map(|p| p as i64)
}

/// Resolution function attached to a subtype, if any.
pub fn resolution_of(ty: &Ty) -> Option<Rc<VifNode>> {
    let mut cur = ty;
    while cur.tag() == Kind::ty_subtype {
        if let Some(r) = cur.node_field(Field::resolution) {
            return Some(Rc::clone(r));
        }
        cur = cur.node(Field::base);
    }
    None
}

/// Physical unit factor within a physical type.
pub fn unit_factor(ty: &Ty, unit: &str) -> Option<i64> {
    base_ref(ty)
        .nodes(Field::units)
        .find(|n| n.name() == Some(unit))
        .map(|n| n.int(Field::factor))
}

/// The pseudo-type carried by `'range`/`'reverse_range` attribute values.
pub fn range_marker() -> Ty {
    mk::ty_marker("range", RANGE_MARKER)
}

/// The pseudo-type used as the expected type of procedure-call contexts.
pub fn void_marker() -> Ty {
    mk::ty_marker("void", VOID_MARKER)
}

/// `true` for the `'range` marker pseudo-type.
pub fn is_range_marker(ty: &Ty) -> bool {
    uid(ty) == RANGE_MARKER
}

/// `true` for the procedure-context marker pseudo-type.
pub fn is_void_marker(ty: &Ty) -> bool {
    uid(ty) == VOID_MARKER
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integer() -> Ty {
        mk_int(
            "integer".into(),
            "integer",
            i32::MIN as i64,
            i32::MAX as i64,
        )
    }

    fn bit() -> Ty {
        mk_enum("bit".into(), "bit", &["'0'", "'1'"])
    }

    #[test]
    fn uids_are_unique_and_identity_works() {
        let a = mk_int("t@u1.3".into(), "t", 0, 7);
        let b = mk_int("t@u1.9".into(), "t", 0, 7);
        assert_ne!(uid(&a), uid(&b));
        assert!(same_base(&a, &a));
        assert!(!same_base(&a, &b));
    }

    #[test]
    fn subtype_chains_resolve() {
        let int = integer();
        let nat = mk_subtype(
            "natural".into(),
            "natural",
            &int,
            Some((0, i32::MAX as i64, Dir::To)),
            None,
        );
        let small = mk_subtype("small".into(), "small", &nat, Some((0, 9, Dir::To)), None);
        assert!(same_base(&small, &int));
        assert!(compatible(&small, &int));
        assert_eq!(scalar_bounds(&small), Some((0, 9, Dir::To)));
        assert_eq!(scalar_bounds(&nat).unwrap().0, 0);
        assert_eq!(base_type(&small).kind(), "ty.int");
        assert!(is_discrete(&small));
        assert!(is_scalar(&small));
    }

    #[test]
    fn universal_literals_compatible_with_integers() {
        let int = mk_int("integer".into(), "integer", -100, 100);
        let re = mk_real("real".into(), "real", -1.0, 1.0);
        assert!(compatible(&universal_int(), &int));
        assert!(!compatible(&universal_int(), &re));
        assert!(compatible(&universal_real(), &re));
        assert!(is_universal_int(&universal_int()));
        assert!(is_universal_real(&universal_real()));
    }

    #[test]
    fn enums_positions_and_bounds() {
        let bit = bit();
        assert_eq!(enum_pos(&bit, "'1'"), Some(1));
        assert_eq!(enum_pos(&bit, "'x'"), None);
        assert_eq!(scalar_bounds(&bit), Some((0, 1, Dir::To)));
        let sub = anon_subtype(&bit, Some((1, 1, Dir::To)), None);
        assert_eq!(scalar_bounds(&sub), Some((1, 1, Dir::To)));
        assert_eq!(enum_pos(&sub, "'0'"), Some(0));
    }

    #[test]
    fn arrays_constrained_and_not() {
        let int = integer();
        let bit = bit();
        let bv = mk_array_unconstrained("bit_vector".into(), "bit_vector", &int, &bit);
        assert!(is_array(&bv));
        assert_eq!(array_bounds(&bv), None);
        let nib = anon_subtype(&bv, Some((3, 0, Dir::Downto)), None);
        assert_eq!(array_bounds(&nib), Some((3, 0, Dir::Downto)));
        assert!(same_base(&nib, &bv));
        assert_eq!(nib.name(), Some("bit_vector"));
        assert_eq!(uid(&elem_type(&nib).unwrap()), uid(&bit));
        let word = mk_array("word".into(), "word", &int, 0, 31, Dir::To, &bit);
        assert_eq!(array_bounds(&word), Some((0, 31, Dir::To)));
        assert_eq!(range_length(0, 31, Dir::To), 32);
        assert_eq!(range_length(3, 0, Dir::Downto), 4);
        assert_eq!(range_length(5, 2, Dir::To), 0);
    }

    #[test]
    fn physical_units() {
        let time = mk_phys(
            "time".into(),
            "time",
            i64::MIN,
            i64::MAX,
            &[("fs", 1), ("ps", 1000), ("ns", 1_000_000)],
        );
        assert_eq!(unit_factor(&time, "ns"), Some(1_000_000));
        assert_eq!(unit_factor(&time, "h"), None);
        assert!(is_scalar(&time));
        assert!(!is_discrete(&time));
    }

    #[test]
    fn records() {
        let int = mk_int("integer".into(), "integer", -10, 10);
        let pair = mk_record(
            "pair".into(),
            "pair",
            &[("x", Rc::clone(&int)), ("y", Rc::clone(&int))],
        );
        assert!(is_record(&pair));
        assert_eq!(pair.list_field(Field::elems).len(), 2);
    }

    #[test]
    fn resolution_found_through_subtypes() {
        let bit = bit();
        let f = crate::decl::mk_subprog("wired_or".into(), "wired_or", vec![], None, None);
        let rbit = anon_subtype(&bit, None, Some(Rc::clone(&f)));
        let rbit2 = mk_subtype("rbit2".into(), "rbit2", &rbit, Some((0, 1, Dir::To)), None);
        assert!(resolution_of(&rbit2).is_some());
        assert!(resolution_of(&bit).is_none());
    }
}
