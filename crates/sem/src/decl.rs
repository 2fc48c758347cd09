//! Declaration (denotation) node constructors: objects, subprograms,
//! enumeration literals, physical units, components — the things an
//! environment binds names to. All are VIF nodes (§4.3: the VIF *is* the
//! symbol table).

use std::cell::RefCell;
use std::rc::Rc;

use vhdl_vif::{mk, Field, VifNode, VifValue};

use crate::types::Ty;
use crate::uid;

/// Object classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObjClass {
    /// `constant`.
    Constant,
    /// `signal` (including ports).
    Signal,
    /// `variable`.
    Variable,
    /// A `for`-loop index (constant within the loop).
    LoopVar,
}

impl ObjClass {
    /// VIF encoding.
    pub fn encode(self) -> &'static str {
        match self {
            ObjClass::Constant => "constant",
            ObjClass::Signal => "signal",
            ObjClass::Variable => "variable",
            ObjClass::LoopVar => "loopvar",
        }
    }

    /// Decodes the VIF encoding.
    pub fn decode(s: &str) -> Option<ObjClass> {
        Some(match s {
            "constant" => ObjClass::Constant,
            "signal" => ObjClass::Signal,
            "variable" => ObjClass::Variable,
            "loopvar" => ObjClass::LoopVar,
            _ => return None,
        })
    }
}

/// Port/parameter modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// `in` (the default).
    #[default]
    In,
    /// `out`.
    Out,
    /// `inout`.
    Inout,
    /// `buffer`.
    Buffer,
}

impl Mode {
    /// VIF encoding.
    pub fn encode(self) -> &'static str {
        match self {
            Mode::In => "in",
            Mode::Out => "out",
            Mode::Inout => "inout",
            Mode::Buffer => "buffer",
        }
    }

    /// Decodes the VIF encoding (unknown strings read as `in`).
    pub fn decode(s: &str) -> Mode {
        match s {
            "out" => Mode::Out,
            "inout" => Mode::Inout,
            "buffer" => Mode::Buffer,
            _ => Mode::In,
        }
    }
}

/// Builds an object denotation (`obj` node); `signal_kind` is `bus` or
/// `register` for a guarded signal.
pub fn mk_obj(
    uid: String,
    class: ObjClass,
    name: &str,
    ty: &Ty,
    mode: Mode,
    init: Option<Rc<VifNode>>,
    signal_kind: Option<&str>,
) -> Rc<VifNode> {
    let (class, mode) = (word(class.encode()), word(mode.encode()));
    let signal_kind = signal_kind.map(Rc::from);
    mk::obj(
        name,
        uid,
        class,
        mode,
        Rc::clone(ty),
        init,
        signal_kind,
        None,
    )
}

/// One of the fixed words `obj` nodes carry (class, mode, origin) as a
/// handle shared per thread, so an object does not copy them.
pub(crate) fn word(w: &'static str) -> Rc<str> {
    thread_local! {
        static WORDS: RefCell<Vec<Rc<str>>> = const { RefCell::new(Vec::new()) };
    }
    WORDS.with(|ws| {
        let mut ws = ws.borrow_mut();
        if let Some(r) = ws.iter().find(|r| ***r == *w) {
            return Rc::clone(r);
        }
        let r = Rc::from(w);
        ws.push(Rc::clone(&r));
        r
    })
}

/// Object's class.
pub fn obj_class(obj: &VifNode) -> Option<ObjClass> {
    ObjClass::decode(obj.str_field(Field::class)?)
}

/// The type of a typed denotation (`obj`, `enumlit`, `physunit`,
/// `attrdecl`); a function's result type is [`subprog_ret`].
pub fn obj_ty(obj: &VifNode) -> Option<Ty> {
    obj.node_field(Field::ty).cloned()
}

/// A subprogram parameter specification used by [`mk_subprog`].
#[derive(Clone, Debug)]
pub struct Param {
    /// Parameter name (lower case).
    pub name: String,
    /// Class (constant for `in` by default, signal/variable as declared).
    pub class: ObjClass,
    /// Mode.
    pub mode: Mode,
    /// Type.
    pub ty: Ty,
    /// Default expression IR, if any.
    pub default: Option<Rc<VifNode>>,
}

impl Param {
    /// An `in`-mode constant parameter — the common case.
    pub fn value(name: &str, ty: &Ty) -> Param {
        Param {
            name: name.to_string(),
            class: ObjClass::Constant,
            mode: Mode::In,
            ty: Rc::clone(ty),
            default: None,
        }
    }
}

/// Builds a subprogram denotation; each parameter's uid derives from
/// `uid` and the parameter's name. `builtin` names a runtime-support
/// operation for implicitly declared operators; user subprograms carry a
/// `body` (statement IR list) and `locals` instead, attached later via
/// [`with_body`].
pub fn mk_subprog(
    uid: String,
    name: &str,
    params: Vec<Param>,
    ret: Option<&Ty>,
    builtin: Option<&str>,
) -> Rc<VifNode> {
    let params = params
        .into_iter()
        .map(|p| {
            let puid = uid::implied(&uid, &p.name);
            VifValue::Node(mk_obj(
                puid, p.class, &p.name, &p.ty, p.mode, p.default, None,
            ))
        })
        .collect();
    mk::subprog(
        name,
        uid,
        params,
        ret.cloned(),
        builtin.map(Rc::from),
        None,
        None,
        None,
    )
}

/// Returns a copy of `subprog` with body statements and local declarations
/// attached (nodes are immutable; this builds a new node with the same
/// uid, which is what "completing" a spec with its body means).
pub fn with_body(
    subprog: &VifNode,
    locals: Vec<VifValue>,
    body: Vec<VifValue>,
    level: i64,
) -> Rc<VifNode> {
    subprog.with_fields([
        (Field::locals, VifValue::list(locals)),
        (Field::body, VifValue::list(body)),
        (Field::level, VifValue::Int(level)),
    ])
}

/// Parameter list of a subprogram.
pub fn subprog_params(sp: &VifNode) -> Vec<Rc<VifNode>> {
    sp.nodes(Field::params).cloned().collect()
}

/// The type of a subprogram's `i`th parameter, read in place.
pub fn param_ty(sp: &VifNode, i: usize) -> Option<Ty> {
    sp.list_field(Field::params)
        .get(i)
        .and_then(VifValue::as_node)
        .and_then(|p| obj_ty(p))
}

/// Return type of a function, `None` for procedures.
pub fn subprog_ret(sp: &VifNode) -> Option<Ty> {
    sp.node_field(Field::ret).cloned()
}

/// Builds an enumeration-literal denotation (overloadable).
pub fn mk_enumlit(uid: String, name: &str, ty: &Ty, pos: i64) -> Rc<VifNode> {
    mk::enumlit(name, uid, Rc::clone(ty), pos)
}

/// Builds a physical-unit denotation (overloadable).
pub fn mk_physunit(uid: String, name: &str, ty: &Ty, factor: i64) -> Rc<VifNode> {
    mk::physunit(name, uid, Rc::clone(ty), factor)
}

/// Builds a binary operator denotation with runtime-support code `code`.
pub fn mk_binop(uid: String, sym: &str, lhs: &Ty, rhs: &Ty, ret: &Ty, code: &str) -> Rc<VifNode> {
    mk_subprog(
        uid,
        sym,
        vec![Param::value("l", lhs), Param::value("r", rhs)],
        Some(ret),
        Some(code),
    )
}

/// Builds a unary operator denotation.
pub fn mk_unop(uid: String, sym: &str, arg: &Ty, ret: &Ty, code: &str) -> Rc<VifNode> {
    mk_subprog(
        uid,
        sym,
        vec![Param::value("x", arg)],
        Some(ret),
        Some(code),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{mk_enum, mk_int};

    #[test]
    fn obj_round_trip() {
        let int = mk_int("integer".into(), "integer", -10, 10);
        let o = mk_obj(
            "clk".into(),
            ObjClass::Signal,
            "clk",
            &int,
            Mode::In,
            None,
            None,
        );
        assert_eq!(o.kind(), "obj");
        assert_eq!(o.name(), Some("clk"));
        assert_eq!(obj_class(&o), Some(ObjClass::Signal));
        assert_eq!(
            crate::types::uid(&obj_ty(&o).unwrap()),
            crate::types::uid(&int)
        );
        assert_eq!(Mode::decode(o.str_field("mode").unwrap()), Mode::In);
    }

    #[test]
    fn subprog_shape() {
        let int = mk_int("integer".into(), "integer", -10, 10);
        let bit = mk_enum("bit".into(), "bit", &["'0'", "'1'"]);
        let f = mk_subprog(
            "f@u1.2".into(),
            "f",
            vec![Param::value("a", &int), Param::value("b", &bit)],
            Some(&int),
            None,
        );
        assert_eq!(subprog_params(&f).len(), 2);
        assert!(subprog_ret(&f).is_some());
        assert_eq!(f.str_field("builtin"), None);
        assert_eq!(subprog_params(&f)[1].str_field("uid"), Some("f@u1.2/b"));
        let op = mk_binop("integer/+.0".into(), "+", &int, &int, &int, "add");
        assert_eq!(op.str_field("builtin"), Some("add"));
        assert_eq!(subprog_params(&op).len(), 2);
        let neg = mk_unop("integer/-.1".into(), "-", &int, &int, "neg");
        assert_eq!(subprog_params(&neg).len(), 1);
    }

    #[test]
    fn with_body_preserves_uid() {
        let int = mk_int("integer".into(), "integer", -10, 10);
        let f = mk_subprog("f".into(), "f", vec![], Some(&int), None);
        let done = with_body(&f, vec![], vec![], 1);
        assert_eq!(done.str_field("uid"), f.str_field("uid"));
        assert_eq!(done.name(), Some("f"));
        assert!(done.field("body").is_some());
        assert_eq!(done.int_field("level"), Some(1));
    }

    #[test]
    fn classes_and_modes_decode() {
        assert_eq!(ObjClass::decode("signal"), Some(ObjClass::Signal));
        assert_eq!(ObjClass::decode("junk"), None);
        assert_eq!(Mode::decode("inout"), Mode::Inout);
        assert_eq!(Mode::decode("junk"), Mode::In);
        assert_eq!(Mode::default(), Mode::In);
    }
}
