//! Typed expression and statement IR, represented as VIF nodes so compiled
//! bodies can be stored in the design library.
//!
//! Expression nodes (`e.*`) all carry a `ty` field:
//!
//! | kind | fields |
//! |---|---|
//! | `e.const` | `ival` / `rval` / `sval` (scalar or flattened array of scalars as a list) |
//! | `e.ref` | `obj` (object denotation) |
//! | `e.index` | `base`, `idx` |
//! | `e.slice` | `base`, `lo`, `hi`, `dir` |
//! | `e.field` | `base`, `pos`, `fname` |
//! | `e.call` | `sub_uid`, `sub_name`, `builtin?`, `args` |
//! | `e.agg` | `elems` (positional), `others?` |
//! | `e.attr` | `attr`, `base?` (signal ref), `aty?` |
//!
//! Statement nodes (`s.*`) mirror the sequential statements of the subset.

use std::rc::Rc;

use vhdl_vif::{VifNode, VifValue};

use crate::types::{self, Dir, Ty};

/// An expression IR node.
pub type Ir = Rc<VifNode>;

/// The type of an IR node.
pub fn ty_of(ir: &Ir) -> Ty {
    Rc::clone(ir.node_field("ty").expect("every e.* node carries ty"))
}

/// Integer (or enum-position, or physical-base-unit) constant.
pub fn e_int(v: i64, ty: &Ty) -> Ir {
    VifNode::build("e.const")
        .node_field("ty", Rc::clone(ty))
        .int_field("ival", v)
        .done()
}

/// Real constant.
pub fn e_real(v: f64, ty: &Ty) -> Ir {
    VifNode::build("e.const")
        .node_field("ty", Rc::clone(ty))
        .field("rval", VifValue::Real(v))
        .done()
}

/// String/array constant, as the list of scalar element codes.
pub fn e_array_const(elems: Vec<i64>, ty: &Ty) -> Ir {
    VifNode::build("e.const")
        .node_field("ty", Rc::clone(ty))
        .list_field("aval", elems.into_iter().map(VifValue::Int).collect())
        .done()
}

/// Object reference.
pub fn e_ref(obj: &Rc<VifNode>) -> Ir {
    let ty = crate::decl::obj_ty(obj).expect("objects are typed");
    VifNode::build("e.ref")
        .node_field("ty", ty)
        .node_field("obj", Rc::clone(obj))
        .done()
}

/// Array indexing.
pub fn e_index(base: Ir, idx: Ir) -> Ir {
    let ety = types::elem_type(&ty_of(&base)).expect("indexing an array");
    VifNode::build("e.index")
        .node_field("ty", ety)
        .node_field("base", base)
        .node_field("idx", idx)
        .done()
}

/// Array slice (result type: anonymous constrained subtype when bounds are
/// static, else the base array type).
pub fn e_slice(base: Ir, lo: Ir, hi: Ir, dir: Dir) -> Ir {
    let bty = ty_of(&base);
    let ty = match (const_int(&lo), const_int(&hi)) {
        (Some(l), Some(h)) => types::anon_subtype(&types::base_type(&bty), Some((l, h, dir)), None),
        _ => types::base_type(&bty),
    };
    VifNode::build("e.slice")
        .node_field("ty", ty)
        .node_field("base", base)
        .node_field("lo", lo)
        .node_field("hi", hi)
        .int_field("dir", dir.encode())
        .done()
}

/// Record field selection.
pub fn e_field(base: Ir, pos: i64, fname: &str, fty: &Ty) -> Ir {
    VifNode::build("e.field")
        .node_field("ty", Rc::clone(fty))
        .node_field("base", base)
        .int_field("pos", pos)
        .str_field("fname", fname)
        .done()
}

/// Subprogram call (including implicitly declared operators, which carry a
/// `builtin` code). The subprogram is referenced by uid to keep the node
/// graph acyclic for recursion.
pub fn e_call(sub: &Rc<VifNode>, args: Vec<Ir>, ret: &Ty) -> Ir {
    let mut b = VifNode::build("e.call")
        .node_field("ty", Rc::clone(ret))
        .str_field("sub_uid", sub.str_field("uid").unwrap_or("?"))
        .str_field("sub_name", sub.name().unwrap_or("?"));
    if let Some(code) = sub.str_field("builtin") {
        b = b.str_field("builtin", code);
    }
    b.list_field("args", args.into_iter().map(VifValue::Node).collect())
        .done()
}

/// Aggregate: positional element expressions plus an optional `others`
/// filler, already normalized from named form by the expression AG.
pub fn e_aggregate(elems: Vec<Ir>, others: Option<Ir>, ty: &Ty) -> Ir {
    let mut b = VifNode::build("e.agg")
        .node_field("ty", Rc::clone(ty))
        .list_field("elems", elems.into_iter().map(VifValue::Node).collect());
    if let Some(o) = others {
        b = b.node_field("others", o);
    }
    b.done()
}

/// Attribute value (`s'event`, `t'high`, …). `base` is the prefix IR when
/// the prefix is an object; `aty` the prefix type when it is a type mark.
pub fn e_attr(attr: &str, base: Option<Ir>, aty: Option<&Ty>, ty: &Ty) -> Ir {
    let mut b = VifNode::build("e.attr")
        .node_field("ty", Rc::clone(ty))
        .str_field("attr", attr);
    if let Some(base) = base {
        b = b.node_field("base", base);
    }
    if let Some(aty) = aty {
        b = b.node_field("aty", Rc::clone(aty));
    }
    b.done()
}

/// Type conversion.
pub fn e_conv(arg: Ir, ty: &Ty) -> Ir {
    VifNode::build("e.conv")
        .node_field("ty", Rc::clone(ty))
        .node_field("arg", arg)
        .done()
}

/// Constant-folds an IR node to an integer (enum position / physical base
/// value), when static.
pub fn const_int(ir: &Ir) -> Option<i64> {
    match ir.kind() {
        "e.const" => ir.int_field("ival"),
        "e.ref" => {
            // Constants with static initializers fold through.
            let obj = ir.node_field("obj")?;
            if obj.str_field("class") == Some("constant") {
                const_int(obj.node_field("init")?)
            } else {
                None
            }
        }
        "e.call" => {
            let code = ir.str_field("builtin")?;
            let args = ir.list_field("args");
            let a = const_int(args.first()?.as_node()?);
            let b = args.get(1).and_then(|v| v.as_node()).and_then(const_int);
            fold_builtin(code, a?, b)
        }
        "e.conv" => const_int(ir.node_field("arg")?),
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

// ---------------------------------------------------------------------------
// Statement IR constructors.
// ---------------------------------------------------------------------------

/// Variable assignment.
pub fn s_assign_var(target: Ir, value: Ir) -> Ir {
    VifNode::build("s.assign_var")
        .node_field("target", target)
        .node_field("value", value)
        .done()
}

/// One waveform element: value after optional delay.
pub fn wv(value: Ir, delay: Option<Ir>) -> Rc<VifNode> {
    let mut b = VifNode::build("wv").node_field("value", value);
    if let Some(d) = delay {
        b = b.node_field("delay", d);
    }
    b.done()
}

/// Signal assignment with a waveform.
pub fn s_assign_sig(target: Ir, waveform: Vec<Rc<VifNode>>, transport: bool) -> Ir {
    VifNode::build("s.assign_sig")
        .node_field("target", target)
        .list_field(
            "waveform",
            waveform.into_iter().map(VifValue::Node).collect(),
        )
        .field("transport", VifValue::Bool(transport))
        .done()
}

/// `if` with else-branch statement lists.
pub fn s_if(cond: Ir, then: Vec<VifValue>, els: Vec<VifValue>) -> Ir {
    VifNode::build("s.if")
        .node_field("cond", cond)
        .list_field("then", then)
        .list_field("else", els)
        .done()
}

/// `case` alternative: choice list plus body.
pub fn s_case_alt(choices: Vec<VifValue>, body: Vec<VifValue>) -> Rc<VifNode> {
    VifNode::build("alt")
        .list_field("choices", choices)
        .list_field("body", body)
        .done()
}

/// `case` statement.
pub fn s_case(sel: Ir, alts: Vec<VifValue>) -> Ir {
    VifNode::build("s.case")
        .node_field("sel", sel)
        .list_field("alts", alts)
        .done()
}

/// Loop (`kind` is `forever`, `while`, or `for`).
pub fn s_loop(
    kind: &str,
    var: Option<Rc<VifNode>>,
    cond_or_range: Option<Ir>,
    body: Vec<VifValue>,
) -> Ir {
    let mut b = VifNode::build("s.loop").str_field("kind", kind);
    if let Some(v) = var {
        b = b.node_field("var", v);
    }
    if let Some(c) = cond_or_range {
        b = b.node_field("cond", c);
    }
    b.list_field("body", body).done()
}

/// `wait [on sens] [until cond] [for timeout]`.
pub fn s_wait(sens: Vec<VifValue>, cond: Option<Ir>, timeout: Option<Ir>) -> Ir {
    let mut b = VifNode::build("s.wait").list_field("sens", sens);
    if let Some(c) = cond {
        b = b.node_field("cond", c);
    }
    if let Some(t) = timeout {
        b = b.node_field("timeout", t);
    }
    b.done()
}

/// `assert cond report msg severity sev`.
pub fn s_assert(cond: Ir, report: Option<Ir>, severity: Option<Ir>) -> Ir {
    let mut b = VifNode::build("s.assert").node_field("cond", cond);
    if let Some(r) = report {
        b = b.node_field("report", r);
    }
    if let Some(s) = severity {
        b = b.node_field("severity", s);
    }
    b.done()
}

/// Procedure call statement.
pub fn s_call(call: Ir) -> Ir {
    VifNode::build("s.call").node_field("call", call).done()
}

/// `return [expr]`.
pub fn s_return(value: Option<Ir>) -> Ir {
    let mut b = VifNode::build("s.return");
    if let Some(v) = value {
        b = b.node_field("value", v);
    }
    b.done()
}

/// `next when` / `exit when` (cond optional).
pub fn s_next_exit(is_exit: bool, cond: Option<Ir>) -> Ir {
    let mut b = VifNode::build(if is_exit { "s.exit" } else { "s.next" });
    if let Some(c) = cond {
        b = b.node_field("cond", c);
    }
    b.done()
}

/// `null`.
pub fn s_null() -> Ir {
    VifNode::build("s.null").done()
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
        let conv = e_conv(e_int(9, &int), &int);
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
        let idx = e_index(e_ref(&sig), e_int(0, &int));
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
        let assign = s_assign_var(e_ref(&v), e_int(1, &int));
        assert_eq!(assign.kind(), "s.assign_var");
        let w = s_assign_sig(e_ref(&v), vec![wv(e_int(0, &int), None)], true);
        assert_eq!(w.list_field("waveform").len(), 1);
        let i = s_if(e_int(1, &int), vec![], vec![]);
        assert_eq!(i.kind(), "s.if");
        assert_eq!(s_null().kind(), "s.null");
        assert_eq!(s_return(None).kind(), "s.return");
        assert_eq!(s_next_exit(true, None).kind(), "s.exit");
        assert_eq!(s_next_exit(false, None).kind(), "s.next");
        let wt = s_wait(vec![], Some(e_int(1, &int)), None);
        assert!(wt.node_field("cond").is_some());
        assert!(wt.node_field("timeout").is_none());
    }
}
