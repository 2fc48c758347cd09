//! Typed expression and statement IR, represented as VIF nodes so compiled
//! bodies can be stored in the design library. The `e.*` and `s.*` kinds
//! and their fields are declared in [`vhdl_vif::schema`]; every
//! expression node carries a `ty`.

use std::rc::Rc;

use vhdl_vif::{mk, Field, Kind, VifNode, VifValue};

use crate::types::{self, Dir, Ty};

/// An expression IR node.
pub type Ir = Rc<VifNode>;

/// The type of an IR node.
pub fn ty_of(ir: &Ir) -> Ty {
    Rc::clone(ir.node(Field::ty))
}

/// Integer (or enum-position, or physical-base-unit) constant.
pub fn e_int(v: i64, ty: &Ty) -> Ir {
    mk::e_const(Rc::clone(ty), Some(v), None, None)
}

/// Real constant.
pub fn e_real(v: f64, ty: &Ty) -> Ir {
    mk::e_const(Rc::clone(ty), None, Some(v), None)
}

/// String/array constant, as the list of scalar element codes.
pub fn e_array_const(elems: Vec<i64>, ty: &Ty) -> Ir {
    let elems = elems.into_iter().map(VifValue::Int).collect();
    mk::e_const(Rc::clone(ty), None, None, Some(elems))
}

/// Object reference (objects are typed: `obj`, `enumlit`, `physunit`
/// and `attrdecl` all carry `ty`).
pub fn e_ref(obj: &Rc<VifNode>) -> Ir {
    mk::e_ref(Rc::clone(obj.node(Field::ty)), Rc::clone(obj))
}

/// Array indexing; `None` when `base` is not an array.
pub fn e_index(base: Ir, idx: Ir) -> Option<Ir> {
    let ety = types::elem_type(&ty_of(&base))?;
    Some(mk::e_index(ety, base, idx))
}

/// Array slice (result type: anonymous constrained subtype when bounds are
/// static, else the base array type).
pub fn e_slice(base: Ir, lo: Ir, hi: Ir, dir: Dir) -> Ir {
    let bty = ty_of(&base);
    let ty = match (const_int(&lo), const_int(&hi)) {
        (Some(l), Some(h)) => types::anon_subtype(&types::base_type(&bty), Some((l, h, dir)), None),
        _ => types::base_type(&bty),
    };
    mk::e_slice(ty, base, lo, hi, dir.encode())
}

/// Subprogram call (including implicitly declared operators, which carry a
/// `builtin` code). The subprogram is referenced by uid to keep the node
/// graph acyclic for recursion.
pub fn e_call(sub: &Rc<VifNode>, args: Vec<Ir>, ret: &Ty) -> Ir {
    mk::e_call(
        Rc::clone(ret),
        sub.str_rc(Field::uid),
        sub.name().unwrap_or_default(),
        match sub.field(Field::builtin) {
            Some(VifValue::Str(code)) => Some(Rc::clone(code)),
            _ => None,
        },
        args.into_iter().map(VifValue::Node).collect(),
    )
}

/// Constant-folds an IR node to an integer (enum position / physical base
/// value), when static.
pub fn const_int(ir: &Ir) -> Option<i64> {
    match ir.tag() {
        Kind::e_const => ir.int_field(Field::ival),
        Kind::e_ref => {
            // Constants with static initializers fold through.
            let obj = ir.node(Field::obj);
            if obj.str_field(Field::class) == Some("constant") {
                const_int(obj.node_field(Field::init)?)
            } else {
                None
            }
        }
        Kind::e_call => {
            let code = ir.str_field(Field::builtin)?;
            let args = ir.list_field(Field::args);
            let a = const_int(args.first()?.as_node()?);
            let b = args.get(1).and_then(|v| v.as_node()).and_then(const_int);
            fold_builtin(code, a?, b)
        }
        Kind::e_conv => const_int(ir.node(Field::arg)),
        _ => None,
    }
}

/// Folds a builtin operation over integer operands.
pub fn fold_builtin(code: &str, a: i64, b: Option<i64>) -> Option<i64> {
    Some(match (code, b) {
        ("add", Some(b)) => a.checked_add(b)?,
        ("sub", Some(b)) => a.checked_sub(b)?,
        ("mul", Some(b)) | ("mul_rev", Some(b)) => a.checked_mul(b)?,
        ("div", Some(b)) | ("div_phys", Some(b)) => a.checked_div(b)?,
        ("mod", Some(b)) => a.checked_rem_euclid(b)?,
        ("rem", Some(b)) => a.checked_rem(b)?,
        ("pow", Some(b)) => a.checked_pow(u32::try_from(b).ok()?)?,
        ("neg", None) => a.checked_neg()?,
        ("pos", None) => a,
        ("abs", None) => a.checked_abs()?,
        ("eq", Some(b)) => (a == b) as i64,
        ("ne", Some(b)) => (a != b) as i64,
        ("lt", Some(b)) => (a < b) as i64,
        ("le", Some(b)) => (a <= b) as i64,
        ("gt", Some(b)) => (a > b) as i64,
        ("ge", Some(b)) => (a >= b) as i64,
        ("and", Some(b)) => a & b,
        ("or", Some(b)) => a | b,
        ("xor", Some(b)) => a ^ b,
        ("nand", Some(b)) => !(a & b) & 1,
        ("nor", Some(b)) => !(a | b) & 1,
        ("not", None) => (a == 0) as i64,
        _ => return None,
    })
}

/// Signal assignment with a waveform.
pub fn s_assign_sig(target: Ir, waveform: Vec<Rc<VifNode>>, transport: bool) -> Ir {
    let waveform = waveform.into_iter().map(VifValue::Node).collect();
    mk::s_assign_sig(target, waveform, transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{mk_obj, Mode, ObjClass};
    use crate::types::{mk_array_unconstrained, mk_enum, mk_int};

    #[test]
    fn const_folding() {
        let int = mk_int(
            "integer".into(),
            "integer",
            i32::MIN as i64,
            i32::MAX as i64,
        );
        let a = e_int(6, &int);
        let b = e_int(7, &int);
        let op = crate::decl::mk_binop("*".into(), "*", &int, &int, &int, "mul");
        let call = e_call(&op, vec![a, b], &int);
        assert_eq!(const_int(&call), Some(42));
        assert_eq!(ty_of(&call).name(), Some("integer"));
    }

    #[test]
    fn fold_through_constants_and_conversions() {
        let int = mk_int("integer".into(), "integer", -100, 100);
        let c = mk_obj(
            "k".into(),
            ObjClass::Constant,
            "k",
            &int,
            Mode::In,
            Some(e_int(5, &int)),
            None,
        );
        let r = e_ref(&c);
        assert_eq!(const_int(&r), Some(5));
        let conv = mk::e_conv(Rc::clone(&int), e_int(9, &int));
        assert_eq!(const_int(&conv), Some(9));
        let v = mk_obj(
            "v".into(),
            ObjClass::Variable,
            "v",
            &int,
            Mode::In,
            None,
            None,
        );
        assert_eq!(const_int(&e_ref(&v)), None);
    }

    #[test]
    fn fold_builtin_table() {
        assert_eq!(fold_builtin("add", 2, Some(3)), Some(5));
        assert_eq!(fold_builtin("pow", 2, Some(10)), Some(1024));
        assert_eq!(fold_builtin("neg", 4, None), Some(-4));
        assert_eq!(fold_builtin("lt", 1, Some(2)), Some(1));
        assert_eq!(fold_builtin("div", 1, Some(0)), None);
        assert_eq!(fold_builtin("nonsense", 1, Some(1)), None);
        assert_eq!(fold_builtin("mod", -7, Some(3)), Some(2));
        assert_eq!(fold_builtin("rem", -7, Some(3)), Some(-1));
    }

    #[test]
    fn slice_types() {
        let int = mk_int(
            "integer".into(),
            "integer",
            i32::MIN as i64,
            i32::MAX as i64,
        );
        let bit = mk_enum("bit".into(), "bit", &["'0'", "'1'"]);
        let bv = mk_array_unconstrained("bit_vector".into(), "bit_vector", &int, &bit);
        let sig = mk_obj("v".into(), ObjClass::Signal, "v", &bv, Mode::In, None, None);
        let s = e_slice(e_ref(&sig), e_int(7, &int), e_int(4, &int), Dir::Downto);
        assert_eq!(
            crate::types::array_bounds(&ty_of(&s)),
            Some((7, 4, Dir::Downto))
        );
        let idx = e_index(e_ref(&sig), e_int(0, &int)).unwrap();
        assert_eq!(crate::types::uid(&ty_of(&idx)), crate::types::uid(&bit));
    }

    #[test]
    fn stmt_nodes_have_expected_shapes() {
        let int = mk_int("integer".into(), "integer", -10, 10);
        let v = mk_obj(
            "v".into(),
            ObjClass::Variable,
            "v",
            &int,
            Mode::In,
            None,
            None,
        );
        let assign = mk::s_assign_var(e_ref(&v), e_int(1, &int));
        assert_eq!(assign.kind(), "s.assign_var");
        let w = s_assign_sig(e_ref(&v), vec![mk::wv(e_int(0, &int), None)], true);
        assert_eq!(w.list_field("waveform").len(), 1);
        assert!(e_index(e_int(1, &int), e_int(0, &int)).is_none());
    }
}
