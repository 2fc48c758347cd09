//! The VIF schema: every node kind the compiler produces, its fields in
//! VIF text order, and each field's value shape — the "VIF description"
//! of §2, declared once.
//!
//! Everything else about the format comes from the one `vif_schema!`
//! table below:
//!
//! - [`Kind`] and [`Field`], closed enums whose symbols are interned once
//!   per process ([`Kind::sym`], [`Field::sym`]), so a kind check or a
//!   field lookup never interns a string;
//! - the typed constructors in [`mk`], one per kind, taking the kind's
//!   fields in order (`Option`s for optional ones) and making the node
//!   in one field-vector allocation;
//! - [`check_node`], the load-time check: a library unit read from text
//!   whose nodes break the table is a [`VifError::Schema`] naming the
//!   kind and field, inside a [`VifError::InUnit`] naming the unit, so
//!   consumers read required fields through the non-`Option` accessors
//!   ([`VifNode::node`], [`VifNode::int`], [`VifNode::str`]).
//!
//! [`read_vif`](crate::read_vif) itself stays a format-only reader: any
//! kind and field parse, and only a library load applies the schema.

use std::rc::Rc;
use std::sync::OnceLock;

use ag_intern::{Symbol, ToSym};

use crate::node::{VifNode, VifValue};
use crate::text::VifError;

/// The value shape of a schema field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A link to another node.
    Node,
    /// An integer.
    Int,
    /// A string.
    Str,
    /// A real.
    Real,
    /// A boolean.
    Bool,
    /// A list (its elements are not constrained).
    List,
    /// A foreign reference to another unit, or the node it resolved to.
    Foreign,
}

impl Shape {
    /// Does `v` have this shape?
    pub fn admits(self, v: &VifValue) -> bool {
        matches!(
            (self, v),
            (Shape::Node, VifValue::Node(_))
                | (Shape::Int, VifValue::Int(_))
                | (Shape::Str, VifValue::Str(_))
                | (Shape::Real, VifValue::Real(_))
                | (Shape::Bool, VifValue::Bool(_))
                | (Shape::List, VifValue::List(_))
                | (Shape::Foreign, VifValue::Foreign(_) | VifValue::Node(_))
        )
    }
}

/// One field of a kind: name, shape, whether every node carries it, and
/// what its nodes link to.
#[derive(Clone, Copy, Debug)]
pub struct FieldSpec {
    /// The field.
    pub field: Field,
    /// Its value shape.
    pub shape: Shape,
    /// `false` for a field a node may leave out.
    pub required: bool,
    /// The kind (or, ending in `.`, the family of kinds) of the node the
    /// field links, or of each element of its list; empty for anything.
    pub link: &'static [&'static str],
}

impl FieldSpec {
    /// Is `v` a value the field's link admits?
    pub fn links(&self, v: &VifValue) -> bool {
        match (self.link, v) {
            ([], _) => true,
            ([l], VifValue::Node(n)) if l.ends_with('.') => n.kind().starts_with(l),
            ([l], VifValue::Node(n)) => n.kind() == *l,
            _ => false,
        }
    }
}

/// One kind of the schema.
#[derive(Clone, Copy, Debug)]
pub struct KindSpec {
    /// The kind.
    pub kind: Kind,
    /// Its VIF text tag.
    pub text: &'static str,
    /// Its fields in VIF text order.
    pub fields: &'static [FieldSpec],
}

/// How a loaded node breaks the schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemaFault {
    /// The kind is not in the schema.
    UnknownKind,
    /// The kind has no such field.
    UnknownField,
    /// A required field is absent.
    MissingField,
    /// The field's value has another shape than this one.
    WrongShape(Shape),
    /// The field links a node of a kind it may not
    /// ([`FieldSpec::link`]).
    WrongLink,
}

impl std::fmt::Display for SchemaFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaFault::UnknownKind => f.write_str("unknown node kind"),
            SchemaFault::UnknownField => f.write_str("unknown field"),
            SchemaFault::MissingField => f.write_str("missing required field"),
            SchemaFault::WrongShape(s) => write!(f, "field is not {s:?}"),
            SchemaFault::WrongLink => f.write_str("field links a node of the wrong kind"),
        }
    }
}

/// Interned kind and field symbols, and the kind of each symbol id.
struct Syms {
    kinds: Vec<Symbol>,
    fields: Vec<Symbol>,
    /// `by_id[symbol id]` is a kind's index + 1, or 0.
    by_id: Vec<u8>,
}

fn syms() -> &'static Syms {
    static S: OnceLock<Syms> = OnceLock::new();
    S.get_or_init(|| {
        let kinds: Vec<Symbol> = SCHEMA.iter().map(|k| Symbol::intern(k.text)).collect();
        let fields = Field::TEXTS.iter().map(|t| Symbol::intern(t)).collect();
        let top = kinds.iter().map(|s| s.id() as usize).max().unwrap_or(0);
        let mut by_id = vec![0u8; top + 1];
        for (i, s) in kinds.iter().enumerate() {
            by_id[s.id() as usize] = i as u8 + 1;
        }
        Syms {
            kinds,
            fields,
            by_id,
        }
    })
}

impl Kind {
    /// The kind's interned tag.
    pub fn sym(self) -> Symbol {
        syms().kinds[self as usize]
    }

    /// The kind tagged `sym`, or [`Kind::other`].
    pub fn of(sym: Symbol) -> Kind {
        match syms().by_id.get(sym.id() as usize) {
            Some(&i) if i > 0 => SCHEMA[i as usize - 1].kind,
            _ => Kind::other,
        }
    }

    /// The kind's schema entry (`None` for [`Kind::other`]).
    pub fn spec(self) -> Option<&'static KindSpec> {
        SCHEMA.get(self as usize)
    }
}

impl Field {
    /// The field's interned name.
    pub fn sym(self) -> Symbol {
        syms().fields[self as usize]
    }

    /// The field's VIF text name.
    pub fn text(self) -> &'static str {
        Field::TEXTS[self as usize]
    }
}

impl ToSym for Kind {
    fn to_sym(&self) -> Symbol {
        self.sym()
    }
}

impl ToSym for Field {
    fn to_sym(&self) -> Symbol {
        self.sym()
    }
}

/// Checks one node against the schema: a known kind, no unknown field,
/// every required field present, each field of its declared shape, and
/// each linked node of a kind the field admits.
///
/// # Errors
///
/// [`VifError::Schema`] naming the kind and the field.
pub fn check_node(n: &VifNode) -> Result<(), VifError> {
    let fault = |field: &str, fault| VifError::Schema {
        kind: n.kind().to_string(),
        field: field.to_string(),
        fault,
    };
    let Some(spec) = n.tag().spec() else {
        return Err(fault("", SchemaFault::UnknownKind));
    };
    let syms = syms();
    for (f, v) in n.fields() {
        let Some(fs) = spec
            .fields
            .iter()
            .find(|fs| syms.fields[fs.field as usize] == *f)
        else {
            return Err(fault(f.as_str(), SchemaFault::UnknownField));
        };
        if !fs.shape.admits(v) {
            return Err(fault(f.as_str(), SchemaFault::WrongShape(fs.shape)));
        }
        let linked_ok = match v {
            VifValue::List(items) => items.iter().all(|v| fs.links(v)),
            VifValue::Node(_) => fs.links(v),
            _ => true,
        };
        if !linked_ok {
            return Err(fault(f.as_str(), SchemaFault::WrongLink));
        }
    }
    for fs in spec.fields.iter().filter(|fs| fs.required) {
        if n.field(fs.field).is_none() {
            return Err(fault(fs.field.text(), SchemaFault::MissingField));
        }
    }
    Ok(())
}

/// A field's text: its identifier, or the spelling given for it.
macro_rules! field_text {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident = $t:literal) => {
        $t
    };
}

/// The shape of `field: Shape` or `field: opt Shape`.
macro_rules! shape {
    (opt $s:ident) => {
        Shape::$s
    };
    ($s:ident) => {
        Shape::$s
    };
}

/// Is a field `field: Shape` (required) or `field: opt Shape`?
macro_rules! required {
    (opt $s:ident) => {
        false
    };
    ($s:ident) => {
        true
    };
}

/// The Rust type a constructor takes for a field of this shape.
macro_rules! arg {
    (opt Str) => { Option<Rc<str>> };
    (opt $s:ident) => { Option<arg!($s)> };
    (Node) => { Rc<VifNode> };
    (Int) => { i64 };
    (Real) => { f64 };
    (Bool) => { bool };
    (List) => { Vec<VifValue> };
    ($s:ident) => { impl Into<Rc<str>> };
}

/// Appends a constructor argument to `fields` (an optional one only when
/// present).
macro_rules! push {
    ($fields:ident, $f:ident, opt $s:ident) => {
        if let Some(v) = $f {
            $fields.push((Field::$f.sym(), VifValue::$s(v.into())));
        }
    };
    ($fields:ident, $f:ident, $s:ident) => {
        $fields.push((Field::$f.sym(), VifValue::$s($f.into())));
    };
}

/// A constructor's node name: its `name` argument, if the kind has one.
macro_rules! name_of {
    () => {
        None
    };
    ($name:ident) => {
        Some($name.to_sym())
    };
}

/// Declares the schema: the field names (each spelled as its identifier
/// unless given as `ident = "text"`), then each kind with its text tag, a
/// `name` marker for kinds whose nodes are named, and its fields in VIF
/// text order as `field: [opt] Shape[("link")]`: the nodes a `Node`,
/// `Foreign` or `List` field links must have the kind `link`, or a kind
/// in the family `link` when it ends in `.` (`"ty."` is every type).
macro_rules! vif_schema {
    (
        fields { $($fid:ident $(= $ftext:literal)?),* $(,)? }
        kinds {
            $($(#[$m:meta])* $k:ident => $ktext:literal $($named:ident)?
                { $($kf:ident : $($ks:ident)+ $(($kt:literal))?),* $(,)? }),* $(,)?
        }
    ) => {
        /// Every field name of the schema.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Field {
            $($fid),*
        }

        impl Field {
            /// Each field's text name, in declaration order.
            pub const TEXTS: &'static [&'static str] =
                &[$(field_text!($fid $(= $ftext)?)),*];
        }

        /// Every node kind of the schema, plus [`Kind::other`] for a tag
        /// outside it.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Kind {
            $(#[doc = concat!("`", $ktext, "`")] $k,)*
            /// A kind outside the schema (test and generic nodes).
            other,
        }

        /// The schema table, indexed by [`Kind`].
        pub static SCHEMA: &[KindSpec] = &[$(KindSpec {
            kind: Kind::$k,
            text: $ktext,
            fields: &[$(FieldSpec {
                field: Field::$kf,
                shape: shape!($($ks)+),
                required: required!($($ks)+),
                link: &[$($kt)?],
            }),*],
        }),*];

        /// Typed constructors, one per kind: the node's name first for a
        /// named kind, then its fields in VIF text order, optional ones as
        /// `Option`s. Each makes its field vector in one allocation.
        pub mod mk {
            use super::*;
            $(
                #[doc = concat!("Builds a `", $ktext, "` node.")]
                $(#[$m])*
                #[allow(clippy::too_many_arguments, clippy::useless_conversion, unused_mut)]
                pub fn $k($($named: impl ToSym,)? $($kf: arg!($($ks)+)),*) -> Rc<VifNode> {
                    let mut fields = Vec::with_capacity(<[&str]>::len(&[$(stringify!($kf)),*]));
                    $(push!(fields, $kf, $($ks)+);)*
                    VifNode::from_parts(Kind::$k.sym(), name_of!($($named)?), fields)
                }
            )*
        }

        /// Each kind's interned tag as a function named after the kind
        /// (re-exported by [`crate::kinds`]).
        pub mod kind_syms {
            use super::*;
            $(#[doc = concat!("The `", $ktext, "` tag.")]
            pub fn $k() -> Symbol {
                Kind::$k.sym()
            })*
        }
    };
}

vif_schema! {
    fields {
        actual, alts, arch_name, arg, args, attr, aty, aval, base, binding, bindings, body,
        builtin, call, cfgs, choices, class, comp, concs, cond, ctx, decls, delay, dir, elem,
        elems, else_ = "else", entity, entity_name, factor, fname, formal, formal_uid,
        generic_map, generics, guard_expr, guard_sig, hi, idx, index_ty, init, insts, ival, key,
        kind, left, level, line, lits, lo, locals, mode, msg, named, obj, origin, others,
        params, pkg, port_map, ports, pos, report, resolution, ret, right, rval, sel, sens,
        severity, signal_kind, sub_name, sub_uid, target, then, timeout, transport, ty, uid,
        unconstrained, units, val, value, var, waveform,
    }
    kinds {
        // Design units; the context clause (`ctx`) is appended last.
        entity => "entity" name {
            uid: Str, generics: List("obj"), ports: List("obj"), decls: List, ctx: opt List,
        },
        arch => "arch" name {
            uid: Str, entity_name: Str, entity: Foreign("entity"), decls: List, cfgs: List,
            concs: List, ctx: opt List,
        },
        pkg => "pkg" name { uid: Str, decls: List, ctx: opt List },
        pkgbody => "pkgbody" name { uid: Str, decls: List, ctx: opt List },
        config => "config" name {
            uid: Str, entity_name: Str, arch_name: Str, bindings: List("cfgbind"),
            ctx: opt List,
        },
        /// A unit that failed to analyze.
        error => "error" {},
        /// A library clause's denotation.
        library => "library" name {},
        /// `use p.all`: every declaration of `pkg`.
        all => "all" { pkg: Node("pkg") },

        // Declarations (what an identifier can denote).
        alias => "alias" name { uid: Str, target: Node },
        attrdecl => "attrdecl" name { uid: Str, ty: Node("ty.") },
        attrspec => "attrspec" { key: Str, ty: Node("ty."), value: Node("e.") },
        component => "component" name { uid: Str, generics: List("obj"), ports: List("obj") },
        enumlit => "enumlit" name { uid: Str, ty: Node("ty."), pos: Int },
        /// Interface objects carry `origin "iface"`.
        obj => "obj" name {
            uid: Str, class: Str, mode: Str, ty: Node("ty."), init: opt Node("e."),
            signal_kind: opt Str, origin: opt Str,
        },
        physunit => "physunit" name { uid: Str, ty: Node("ty."), factor: Int },
        /// A body adds `locals`, `body` and `level` to the spec's fields.
        subprog => "subprog" name {
            uid: Str, params: List("obj"), ret: opt Node("ty."), builtin: opt Str,
            locals: opt List, body: opt List("s."), level: opt Int,
        },

        // Types (`ty.`); directions are 0 = `to`, 1 = `downto`.
        ty_array => "ty.array" name {
            uid: Str, index_ty: Node("ty."), elem: Node("ty."), unconstrained: Bool,
            lo: opt Int, hi: opt Int, dir: opt Int,
        },
        ty_enum => "ty.enum" name { uid: Str, lits: List },
        ty_int => "ty.int" name { uid: Str, lo: Int, hi: Int },
        /// The `range` and `void` pseudo-types.
        ty_marker => "ty.marker" name { uid: Str },
        ty_phys => "ty.phys" name { uid: Str, lo: Int, hi: Int, units: List("unit") },
        ty_real => "ty.real" name { uid: Str, lo: Real, hi: Real },
        ty_record => "ty.record" name { uid: Str, elems: List("elem") },
        ty_subtype => "ty.subtype" name {
            uid: Str, base: Node("ty."), lo: opt Int, hi: opt Int, dir: opt Int,
            resolution: opt Node("subprog"),
        },
        /// A record element.
        elem => "elem" name { ty: Node("ty.") },
        /// A physical unit inside `ty.phys`.
        unit => "unit" name { factor: Int },

        // Concurrent structure.
        assoc => "assoc" { formal: Str, formal_uid: Str, actual: opt Node("e.") },
        block => "block" name {
            guard_sig: opt Node("obj"), guard_expr: opt Node("e."), decls: List, concs: List,
        },
        cfgbind => "cfgbind" { comp: Str, insts: List, binding: List },
        inst => "inst" name {
            comp: Node("component"), generic_map: List("assoc"), port_map: List("assoc"),
        },
        process => "process" name { sens: List("e."), decls: List, body: List("s.") },

        // Expressions (`e.`): every one is typed.
        e_agg => "e.agg" {
            ty: Node("ty."), elems: List("e."), named: opt List("named"), others: opt Node("e."),
        },
        e_attr => "e.attr" { ty: Node("ty."), attr: Str, base: opt Node("e."), aty: opt Node("ty.") },
        e_call => "e.call" {
            ty: Node("ty."), sub_uid: Str, sub_name: Str, builtin: opt Str, args: List("e."),
        },
        /// A scalar (`ival`, `rval`) or array (`aval`) constant.
        e_const => "e.const" { ty: Node("ty."), ival: opt Int, rval: opt Real, aval: opt List },
        e_conv => "e.conv" { ty: Node("ty."), arg: Node("e.") },
        e_error => "e.error" { ty: Node("ty."), msg: Str, line: Int },
        e_field => "e.field" { ty: Node("ty."), base: Node("e."), pos: Int, fname: Str },
        e_index => "e.index" { ty: Node("ty."), base: Node("e."), idx: Node("e.") },
        e_range => "e.range" { ty: Node("ty."), left: Node("e."), right: Node("e."), dir: Int },
        e_ref => "e.ref" { ty: Node("ty."), obj: Node("obj") },
        e_slice => "e.slice" {
            ty: Node("ty."), base: Node("e."), lo: Node("e."), hi: Node("e."), dir: Int,
        },
        /// A named aggregate association over `lo..=hi`.
        named => "named" { lo: Int, hi: Int, value: Node("e.") },

        // Choices.
        ch_others => "ch.others" {},
        ch_range => "ch.range" { lo: Int, hi: Int },
        ch_val => "ch.val" { val: Int },

        // Sequential statements (`s.`).
        alt => "alt" { choices: List("ch."), body: List("s.") },
        s_assert => "s.assert" {
            cond: Node("e."), report: opt Node("e."), severity: opt Node("e."),
        },
        s_assign_sig => "s.assign_sig" {
            target: Node("e."), waveform: List("wv"), transport: Bool,
        },
        s_assign_var => "s.assign_var" { target: Node("e."), value: Node("e.") },
        s_call => "s.call" { call: Node("e.") },
        s_case => "s.case" { sel: Node("e."), alts: List("alt") },
        s_exit => "s.exit" { cond: opt Node("e.") },
        s_if => "s.if" { cond: Node("e."), then: List("s."), else_: List("s.") },
        /// `kind` is `forever`, `while` or `for`.
        s_loop => "s.loop" {
            kind: Str, var: opt Node("obj"), cond: opt Node("e."), body: List("s."),
        },
        s_next => "s.next" { cond: opt Node("e.") },
        s_null => "s.null" {},
        s_return => "s.return" { value: opt Node("e.") },
        s_wait => "s.wait" {
            sens: List("e."), cond: opt Node("e."), timeout: opt Node("e."),
        },
        /// One waveform element.
        wv => "wv" { value: Node("e."), delay: opt Node("e.") },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_fields_are_their_texts() {
        for k in SCHEMA {
            assert_eq!(k.kind.sym().as_str(), k.text);
            assert_eq!(Kind::of(k.kind.sym()), k.kind);
            assert_eq!(k.kind.spec().map(|s| s.text), Some(k.text));
        }
        for (i, t) in Field::TEXTS.iter().enumerate() {
            assert_eq!(Symbol::intern(t).as_str(), *t);
            assert_eq!(syms().fields[i], Symbol::intern(t));
        }
        for (f, text) in [
            (Field::base, "base"),
            (Field::init, "init"),
            (Field::params, "params"),
            (Field::ret, "ret"),
            (Field::ty, "ty"),
            (Field::uid, "uid"),
            (Field::else_, "else"),
        ] {
            assert_eq!(f.sym(), Symbol::intern(text));
            assert_eq!(f.text(), text);
        }
        assert_eq!(Kind::of(Symbol::intern("no.such.kind")), Kind::other);
        assert!(Kind::other.spec().is_none());
    }

    #[test]
    fn constructors_follow_the_table() {
        let ty = mk::ty_int("integer", "integer", -1, 1);
        let c = mk::e_const(Rc::clone(&ty), Some(3), None, None);
        assert_eq!(c.tag(), Kind::e_const);
        assert_eq!(c.int(Field::ival), 3);
        assert!(Rc::ptr_eq(c.node(Field::ty), &ty));
        assert_eq!(c.fields().len(), 2);
        assert_eq!(ty.name(), Some("integer"));
        assert_eq!(ty.str(Field::uid), "integer");
        for n in [&ty, &c] {
            check_node(n).unwrap();
        }
    }

    #[test]
    fn check_names_each_fault() {
        let ty = mk::ty_int("integer", "integer", -1, 1);
        let fault = |n: &VifNode| match check_node(n) {
            Err(VifError::Schema {
                kind, field, fault, ..
            }) => (kind, field, fault),
            other => panic!("{other:?}"),
        };
        let no_obj = VifNode::build(Kind::e_ref)
            .node_field(Field::ty, Rc::clone(&ty))
            .done();
        assert_eq!(
            fault(&no_obj),
            ("e.ref".into(), "obj".into(), SchemaFault::MissingField)
        );
        let extra = VifNode::build(Kind::s_null).int_field("x", 1).done();
        assert_eq!(
            fault(&extra),
            ("s.null".into(), "x".into(), SchemaFault::UnknownField)
        );
        let shape = VifNode::build(Kind::ch_val)
            .str_field(Field::val, "1")
            .done();
        assert_eq!(
            fault(&shape),
            (
                "ch.val".into(),
                "val".into(),
                SchemaFault::WrongShape(Shape::Int)
            )
        );
        let unknown = VifNode::build("mystery").done();
        assert_eq!(
            fault(&unknown),
            ("mystery".into(), "".into(), SchemaFault::UnknownKind)
        );
    }
}
