//! Semantic rules of the expression AG.
//!
//! Overload resolution is the classic two-direction scheme: `TYPES` flows
//! bottom-up collecting candidate result types, `EXPECTED` flows top-down
//! carrying the context type, and `IR` is built bottom-up once each
//! production can pick its unique interpretation. Each operator and call
//! node resolves once: its `CANDS` rule filters the visible overloads by
//! the operands' `TYPES` or the argument shapes, its `TYPES` are the
//! result types of `CANDS`, and its `EXPECTED(S)` and `IR` rules pick
//! from `CANDS` by the expected type. Most plumbing rules
//! (environment copies, message merges) are left to the implicit-rule
//! machinery, as the paper prescribes (§4.2).

use std::rc::Rc;

use ag_core::{AgBuilder, Dep};
use ag_intern::{Symbol, ToSym};
use ag_lalr::{Grammar, ProdId};
use vhdl_syntax::Pos;
use vhdl_vif::{mk, Field, Kind, VifNode, VifValue};

use crate::decl::{obj_ty, param_ty, subprog_params, subprog_ret};
use crate::env::Env;
use crate::expr_ag::{err_ir, ExprClasses};
use crate::ir::{self, ty_of, Ir};
use crate::lef::LefTok;
use crate::overload::{self, ArgShape, PickError};
use crate::types::{self, Dir, Ty};
use crate::value::{DenVal, Value};

// ---------------------------------------------------------------------------
// Small decoding helpers over `Value`.
// ---------------------------------------------------------------------------

fn lef(v: &Value) -> &LefTok {
    match v {
        Value::Lef(l) => l,
        other => panic!("expected lef token value, got {other:?}"),
    }
}

fn tys(v: &Value) -> Vec<Ty> {
    v.expect_list().iter().map(Value::expect_node).collect()
}

fn vtys(ts: impl IntoIterator<Item = Ty>) -> Value {
    Value::list(ts.into_iter().map(Value::Node).collect())
}

fn expected(v: &Value) -> Option<Ty> {
    match v {
        Value::MaybeNode(t) => t.clone(),
        Value::Unit => None,
        other => panic!("expected MaybeNode, got {other:?}"),
    }
}

fn env(v: &Value) -> Env {
    v.expect_env()
}

fn ir_of(v: &Value) -> Ir {
    v.expect_node()
}

// Argument-shape encoding: each entry is
// List[Str(tag), Str(name), List(types)].
fn arg_desc(tag: &str, name: &str, t: Vec<Ty>) -> Value {
    Value::list(vec![
        Value::Str(tag.into()),
        Value::Str(name.into()),
        vtys(t),
    ])
}

fn decode_args(v: &Value) -> Vec<ArgShape> {
    v.expect_list()
        .iter()
        .map(|e| {
            let parts = e.expect_list();
            let tag = parts[0].expect_str();
            let name = parts[1].expect_str();
            let t = tys(&parts[2]);
            match &*tag {
                "pos" => ArgShape::Pos(t),
                "named" => ArgShape::Named(name.to_sym(), t),
                "range" => ArgShape::Range,
                _ => ArgShape::Open,
            }
        })
        .collect()
}

// Per-argument IR encoding: Node(ir) | List[Node(l), Node(r), Int(dir)] |
// Unit (open).
fn decode_arg_irs(v: &Value) -> Vec<Value> {
    v.expect_list().to_vec()
}

/// One-element list (building block for the merged list classes).
fn one(v: Value) -> Value {
    Value::list(vec![v])
}

fn pos_of(v: &Value) -> Pos {
    lef(v).pos
}

fn first_ty(v: &Value) -> Option<Ty> {
    tys(v).into_iter().next()
}

/// `CANDS` of an operator node: the visible `sym` operators that take
/// operands offering these `TYPES`.
fn op_cands(e: &Env, sym: Symbol, operands: &[&Value]) -> Value {
    let shapes: Vec<ArgShape> = operands.iter().map(|v| ArgShape::Pos(tys(v))).collect();
    Value::cands(overload::operator_candidates(e, sym, &shapes))
}

/// `TYPES` of a node from its `CANDS`.
fn cand_types(cands: &Value) -> Value {
    vtys(overload::result_types(cands.expect_cands()))
}

/// Picks a node's interpretation from its `CANDS` by the expected type.
fn pick(cands: &Value, expected_ty: &Value) -> Result<Rc<VifNode>, PickError> {
    overload::pick(cands.expect_cands(), expected(expected_ty).as_ref())
}

/// Builds the ordered argument list for `chosen` from shapes and arg IRs.
/// Returns `Err(message)` on structural mismatch.
fn build_call_args(
    chosen: &Rc<VifNode>,
    shapes: &[ArgShape],
    arg_irs: &[Value],
) -> Result<Vec<Ir>, String> {
    let params = subprog_params(chosen);
    let mut slots: Vec<Option<Ir>> = vec![None; params.len()];
    for (i, (shape, irv)) in shapes.iter().zip(arg_irs).enumerate() {
        match shape {
            ArgShape::Pos(_) => {
                if i >= params.len() {
                    return Err("too many arguments".into());
                }
                slots[i] = Some(ir_of(irv));
            }
            ArgShape::Named(name, _) => {
                let pi = params
                    .iter()
                    .position(|p| p.name_sym() == Some(*name))
                    .ok_or_else(|| format!("no formal named `{name}`"))?;
                if slots[pi].is_some() {
                    return Err(format!("formal `{name}` associated twice"));
                }
                slots[pi] = Some(ir_of(irv));
            }
            ArgShape::Open => {}
            ArgShape::Range => return Err("a range is not a valid argument".into()),
        }
    }
    let mut out = Vec::with_capacity(params.len());
    for (p, s) in params.iter().zip(slots) {
        match s {
            Some(ir) => out.push(ir),
            None => match p.node_field(Field::init) {
                Some(d) => out.push(Rc::clone(d)),
                None => {
                    return Err(format!(
                        "no value for parameter `{}`",
                        p.name().unwrap_or("?")
                    ))
                }
            },
        }
    }
    Ok(out)
}

/// The expected type each argument position should receive under `chosen`.
fn param_expecteds(chosen: &Rc<VifNode>, shapes: &[ArgShape]) -> Vec<Option<Ty>> {
    let params = subprog_params(chosen);
    shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| match shape {
            ArgShape::Pos(_) => params.get(i).and_then(|p| obj_ty(p)),
            ArgShape::Named(name, _) => params
                .iter()
                .find(|p| p.name_sym() == Some(*name))
                .and_then(|p| obj_ty(p)),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule installation.
// ---------------------------------------------------------------------------

/// Installs all explicit semantic rules of the expression AG.
pub(crate) fn install(ab: &mut AgBuilder<Value>, g: &Grammar, c: &ExprClasses) {
    let c = *c;
    let p = |g: &Grammar, label: &str| -> ProdId {
        g.prod_by_label(label)
            .unwrap_or_else(|| panic!("missing production {label}"))
    };

    // ----- class attachment ------------------------------------------------
    let nt = |g: &Grammar, n: &str| g.symbol(n).unwrap_or_else(|| panic!("no symbol {n}"));
    let expr_chain = ["xr", "expr", "rel", "simple", "term", "factor", "primary"];
    let all_nts = [
        "xr",
        "expr",
        "rel",
        "simple",
        "term",
        "factor",
        "primary",
        "name",
        "assocs",
        "assoc",
        "aggregate",
        "elems",
        "elem",
        "chs",
        "ch",
    ];
    for n in all_nts {
        ab.attach(c.env, nt(g, n));
        ab.attach(c.msgs, nt(g, n));
    }
    for n in expr_chain {
        ab.attach(c.expected, nt(g, n));
        ab.attach(c.ir, nt(g, n));
    }
    // Every symbol with `TYPES` has `CANDS`, so chain productions copy
    // both and stay transparent.
    for n in [
        "expr",
        "rel",
        "simple",
        "term",
        "factor",
        "primary",
        "name",
        "aggregate",
    ] {
        ab.attach(c.types, nt(g, n));
        ab.attach(c.cands, nt(g, n));
    }
    ab.attach(c.expected, nt(g, "name"));
    ab.attach(c.expected, nt(g, "aggregate"));
    ab.attach(c.expected, nt(g, "chs"));
    ab.attach(c.expected, nt(g, "ch"));
    ab.attach(c.ir, nt(g, "name"));
    ab.attach(c.ir, nt(g, "aggregate"));
    ab.attach(c.den, nt(g, "name"));
    for n in ["assocs", "assoc"] {
        ab.attach(c.args, nt(g, n));
        ab.attach(c.expecteds, nt(g, n));
        ab.attach(c.irs, nt(g, n));
    }
    for n in ["elems", "elem"] {
        ab.attach(c.expecteds, nt(g, n));
        ab.attach(c.info, nt(g, n));
        ab.attach(c.irs, nt(g, n));
    }
    for n in ["chs", "ch"] {
        ab.attach(c.choice, nt(g, n));
        ab.attach(c.tags, nt(g, n));
    }

    // ----- goal ------------------------------------------------------------
    // xr ::= expr — IR is an implicit copy. Ranges build e.range nodes.
    for (label, dir) in [("xr_to", Dir::To), ("xr_downto", Dir::Downto)] {
        let pr = p(g, label);
        ab.rule(
            pr,
            0,
            c.ir,
            vec![Dep::attr(1, c.ir), Dep::attr(3, c.ir)],
            move |d| {
                let l = ir_of(&d[0]);
                let r = ir_of(&d[1]);
                Value::Node(mk::e_range(types::range_marker(), l, r, dir.encode()))
            },
        );
        // Bounds are typed bottom-up against each other: give each side the
        // other's unique type when known.
        for (occ, other) in [(1usize, 3usize), (3, 1)] {
            ab.rule(
                pr,
                occ,
                c.expected,
                vec![Dep::attr(other, c.types)],
                move |d| {
                    let ot = tys(&d[0]);
                    let concrete: Vec<&Ty> = ot
                        .iter()
                        .filter(|t| !types::is_universal_int(t) && !types::is_universal_real(t))
                        .collect();
                    if concrete.len() == 1 {
                        Value::MaybeNode(Some(Rc::clone(concrete[0])))
                    } else {
                        Value::MaybeNode(None)
                    }
                },
            );
        }
    }

    // ----- operators ---------------------------------------------------------
    let binops: [(&str, &str, usize, usize); 17] = [
        ("x_and", "and", 1, 3),
        ("x_or", "or", 1, 3),
        ("x_xor", "xor", 1, 3),
        ("x_nand", "nand", 1, 3),
        ("x_nor", "nor", 1, 3),
        ("r_eq", "=", 1, 3),
        ("r_ne", "/=", 1, 3),
        ("r_lt", "<", 1, 3),
        ("r_le", "<=", 1, 3),
        ("r_gt", ">", 1, 3),
        ("r_ge", ">=", 1, 3),
        ("s_add", "+", 1, 3),
        ("s_sub", "-", 1, 3),
        ("s_amp", "&", 1, 3),
        ("t_mul", "*", 1, 3),
        ("t_div", "/", 1, 3),
        ("f_pow", "**", 1, 3),
    ];
    for (label, sym, l_occ, r_occ) in binops {
        install_binop(ab, g, &c, p(g, label), sym, l_occ, r_occ, 2);
    }
    for (label, sym) in [("t_mod", "mod"), ("t_rem", "rem")] {
        install_binop(ab, g, &c, p(g, label), sym, 1, 3, 2);
    }
    // Unary: sign, abs, not. Operand occurrence 2, operator token occ 1.
    for (label, sym) in [
        ("s_plus", "+"),
        ("s_minus", "-"),
        ("f_abs", "abs"),
        ("f_not", "not"),
    ] {
        install_unop(ab, g, &c, p(g, label), sym, 2, 1);
    }

    // ----- literal primaries -------------------------------------------------
    let pr = p(g, "p_int");
    ab.rule(pr, 0, c.types, vec![], |_| {
        vtys(vec![types::universal_int()])
    });
    ab.rule(
        pr,
        0,
        c.ir,
        vec![Dep::attr(0, c.expected), Dep::token(1)],
        |d| {
            let t = lef(&d[1]);
            let v: i64 = t.text.parse().unwrap_or(0);
            match expected(&d[0]) {
                Some(want) if types::base_type(&want).tag() == Kind::ty_int => {
                    Value::Node(ir::e_int(v, &want))
                }
                None => Value::Node(ir::e_int(v, &types::universal_int())),
                Some(want) => Value::Node(err_ir(
                    t.pos,
                    format!(
                        "integer literal where {} is required",
                        want.name().unwrap_or("?")
                    ),
                )),
            }
        },
    );
    let pr = p(g, "p_real");
    ab.rule(pr, 0, c.types, vec![], |_| {
        vtys(vec![types::universal_real()])
    });
    ab.rule(
        pr,
        0,
        c.ir,
        vec![Dep::attr(0, c.expected), Dep::token(1)],
        |d| {
            let t = lef(&d[1]);
            let v: f64 = t.text.parse().unwrap_or(0.0);
            match expected(&d[0]) {
                Some(want) if types::base_type(&want).tag() == Kind::ty_real => {
                    Value::Node(ir::e_real(v, &want))
                }
                None => Value::Node(ir::e_real(v, &types::universal_real())),
                Some(want) => Value::Node(err_ir(
                    t.pos,
                    format!(
                        "real literal where {} is required",
                        want.name().unwrap_or("?")
                    ),
                )),
            }
        },
    );
    // String and bit-string literals are context-typed arrays.
    for (label, is_bits) in [("p_str", false), ("p_bitstr", true)] {
        let pr = p(g, label);
        ab.rule(pr, 0, c.types, vec![], |_| Value::empty_list());
        ab.rule(
            pr,
            0,
            c.ir,
            vec![Dep::attr(0, c.expected), Dep::token(1)],
            move |d| {
                let t = lef(&d[1]);
                Value::Node(string_literal_ir(t, expected(&d[0]).as_ref(), is_bits))
            },
        );
    }
    // Physical literals.
    for (label, with_lit) in [
        ("p_phys_int", true),
        ("p_phys_real", true),
        ("p_phys_unit", false),
    ] {
        let pr = p(g, label);
        let unit_occ = if with_lit { 2 } else { 1 };
        let is_real = label == "p_phys_real";
        ab.rule(pr, 0, c.types, vec![Dep::token(unit_occ)], move |d| {
            let u = lef(&d[0]);
            vtys(vec![Rc::clone(u.dens[0].node(Field::ty))])
        });
        let deps = if with_lit {
            vec![Dep::token(1), Dep::token(2)]
        } else {
            vec![Dep::token(1)]
        };
        ab.rule(pr, 0, c.ir, deps, move |d| {
            let (mag, unit) = if with_lit {
                let lit = lef(&d[0]);
                let u = lef(&d[1]);
                let m = if is_real {
                    lit.text.parse::<f64>().unwrap_or(0.0)
                } else {
                    lit.text.parse::<i64>().unwrap_or(0) as f64
                };
                (m, u)
            } else {
                (1.0, lef(&d[0]))
            };
            let factor = unit.dens[0].int(Field::factor);
            let ty = Rc::clone(unit.dens[0].node(Field::ty));
            Value::Node(ir::e_int((mag * factor as f64) as i64, &ty))
        });
    }

    // ----- names ---------------------------------------------------------------
    install_name_rules(ab, g, &c);

    // ----- qualified expressions and conversions --------------------------------
    let pr = p(g, "p_qualified");
    ab.rule(pr, 0, c.types, vec![Dep::token(1)], |d| {
        vtys(vec![Rc::clone(&lef(&d[0]).dens[0])])
    });
    ab.rule(pr, 3, c.expected, vec![Dep::token(1)], |d| {
        Value::MaybeNode(Some(Rc::clone(&lef(&d[0]).dens[0])))
    });
    // IR: implicit copy from the aggregate (the qualified type was already
    // pushed down as its expected type) — explicit to also catch errors.
    ab.rule(pr, 0, c.ir, vec![Dep::attr(3, c.ir)], |d| d[0].clone());

    let pr = p(g, "p_conv");
    ab.rule(pr, 0, c.types, vec![Dep::token(1)], |d| {
        vtys(vec![Rc::clone(&lef(&d[0]).dens[0])])
    });
    ab.rule(pr, 3, c.expected, vec![], |_| Value::MaybeNode(None));
    ab.rule(
        pr,
        0,
        c.ir,
        vec![Dep::token(1), Dep::attr(3, c.ir), Dep::attr(3, c.types)],
        |d| {
            let ty = Rc::clone(&lef(&d[0]).dens[0]);
            let arg = ir_of(&d[1]);
            let at = ty_of(&arg);
            let ok = (types::is_scalar(&at) || types::is_universal_int(&at))
                && types::is_scalar(&ty)
                || (types::is_array(&at) && types::is_array(&ty));
            if ok {
                Value::Node(mk::e_conv(ty, arg))
            } else {
                Value::Node(err_ir(
                    lef(&d[0]).pos,
                    format!(
                        "cannot convert {} to {}",
                        at.name().unwrap_or("?"),
                        ty.name().unwrap_or("?")
                    ),
                ))
            }
        },
    );

    // ----- associations -----------------------------------------------------------
    install_assoc_rules(ab, g, &c);

    // ----- aggregates ---------------------------------------------------------------
    install_aggregate_rules(ab, g, &c);
}

// ---------------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn install_binop(
    ab: &mut AgBuilder<Value>,
    _g: &Grammar,
    c: &ExprClasses,
    pr: ProdId,
    sym: &'static str,
    l: usize,
    r: usize,
    op_tok: usize,
) {
    let c = *c;
    let op = Symbol::intern(sym);
    ab.rule(
        pr,
        0,
        c.cands,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(l, c.types),
            Dep::attr(r, c.types),
        ],
        move |d| op_cands(&env(&d[0]), op, &[&d[1], &d[2]]),
    );
    ab.rule(pr, 0, c.types, vec![Dep::attr(0, c.cands)], |d| {
        cand_types(&d[0])
    });
    for (occ, idx) in [(l, 0usize), (r, 1usize)] {
        ab.rule(
            pr,
            occ,
            c.expected,
            vec![Dep::attr(0, c.expected), Dep::attr(0, c.cands)],
            move |d| Value::MaybeNode(pick(&d[1], &d[0]).ok().and_then(|op| param_ty(&op, idx))),
        );
    }
    ab.rule(
        pr,
        0,
        c.ir,
        vec![
            Dep::attr(0, c.expected),
            Dep::attr(0, c.cands),
            Dep::attr(l, c.ir),
            Dep::attr(r, c.ir),
            Dep::token(op_tok),
        ],
        move |d| {
            let pos = pos_of(&d[4]);
            match pick(&d[1], &d[0]) {
                Ok(op) => {
                    let ret = subprog_ret(&op).expect("operators are functions");
                    Value::Node(ir::e_call(&op, vec![ir_of(&d[2]), ir_of(&d[3])], &ret))
                }
                Err(PickError::NoMatch) => Value::Node(err_ir(
                    pos,
                    format!("no matching `{sym}` operator for these operands"),
                )),
                Err(PickError::Ambiguous(cands)) => Value::Node(err_ir(
                    pos,
                    format!("ambiguous `{sym}`: {}", cands.join("; ")),
                )),
            }
        },
    );
}

fn install_unop(
    ab: &mut AgBuilder<Value>,
    _g: &Grammar,
    c: &ExprClasses,
    pr: ProdId,
    sym: &'static str,
    operand: usize,
    op_tok: usize,
) {
    let c = *c;
    let op = Symbol::intern(sym);
    ab.rule(
        pr,
        0,
        c.cands,
        vec![Dep::attr(0, c.env), Dep::attr(operand, c.types)],
        move |d| op_cands(&env(&d[0]), op, &[&d[1]]),
    );
    ab.rule(pr, 0, c.types, vec![Dep::attr(0, c.cands)], |d| {
        cand_types(&d[0])
    });
    ab.rule(
        pr,
        operand,
        c.expected,
        vec![Dep::attr(0, c.expected), Dep::attr(0, c.cands)],
        |d| Value::MaybeNode(pick(&d[1], &d[0]).ok().and_then(|op| param_ty(&op, 0))),
    );
    ab.rule(
        pr,
        0,
        c.ir,
        vec![
            Dep::attr(0, c.expected),
            Dep::attr(0, c.cands),
            Dep::attr(operand, c.ir),
            Dep::token(op_tok),
        ],
        move |d| {
            let pos = pos_of(&d[3]);
            match pick(&d[1], &d[0]) {
                Ok(op) => {
                    let ret = subprog_ret(&op).expect("operators are functions");
                    Value::Node(ir::e_call(&op, vec![ir_of(&d[2])], &ret))
                }
                Err(PickError::NoMatch) => Value::Node(err_ir(
                    pos,
                    format!("no matching unary `{sym}` for this operand"),
                )),
                Err(PickError::Ambiguous(cands)) => Value::Node(err_ir(
                    pos,
                    format!("ambiguous unary `{sym}`: {}", cands.join("; ")),
                )),
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Names.
// ---------------------------------------------------------------------------

fn install_name_rules(ab: &mut AgBuilder<Value>, g: &Grammar, c: &ExprClasses) {
    let c = *c;
    let p = |label: &str| g.prod_by_label(label).expect("production exists");

    // name ::= obj
    let pr = p("n_obj");
    ab.rule(pr, 0, c.den, vec![Dep::token(1)], |d| {
        Value::Den(DenVal::ValueLike(Some(Rc::clone(&lef(&d[0]).dens[0]))))
    });
    ab.rule(pr, 0, c.types, vec![Dep::token(1)], |d| {
        match obj_ty(&lef(&d[0]).dens[0]) {
            Some(t) => vtys(vec![t]),
            None => Value::empty_list(),
        }
    });
    ab.rule(pr, 0, c.ir, vec![Dep::token(1)], |d| {
        Value::Node(ir::e_ref(&lef(&d[0]).dens[0]))
    });

    // name ::= callable (bare: enum literal, parameterless call)
    let pr = p("n_callable");
    ab.rule(pr, 0, c.den, vec![Dep::token(1)], |d| {
        Value::Den(DenVal::Overloads(Rc::new(lef(&d[0]).dens.to_vec())))
    });
    ab.rule(pr, 0, c.cands, vec![Dep::token(1)], |d| {
        Value::cands(overload::filter_by_args(&lef(&d[0]).dens, &[]))
    });
    ab.rule(pr, 0, c.types, vec![Dep::attr(0, c.cands)], |d| {
        cand_types(&d[0])
    });
    ab.rule(
        pr,
        0,
        c.ir,
        vec![
            Dep::attr(0, c.expected),
            Dep::attr(0, c.cands),
            Dep::token(1),
        ],
        |d| {
            let t = lef(&d[2]);
            match pick(&d[1], &d[0]) {
                Ok(ch) => Value::Node(bare_callable_ir(&ch, t.pos)),
                Err(PickError::NoMatch) => Value::Node(err_ir(
                    t.pos,
                    format!("`{}` does not denote a value here", t.text),
                )),
                Err(PickError::Ambiguous(cands)) => Value::Node(err_ir(
                    t.pos,
                    format!("`{}` is ambiguous: {}", t.text, cands.join("; ")),
                )),
            }
        },
    );

    // name ::= name ( assocs ) — call, index, or slice by denotation.
    let pr = p("n_apply");
    ab.rule(pr, 0, c.den, vec![Dep::attr(1, c.den)], |d| {
        match d[0].expect_den() {
            DenVal::Overloads(_) => Value::Den(DenVal::ValueLike(None)),
            DenVal::ValueLike(root) => Value::Den(DenVal::ValueLike(root.clone())),
            DenVal::Error => Value::Den(DenVal::Error),
        }
    });
    ab.rule(
        pr,
        0,
        c.cands,
        vec![Dep::attr(1, c.den), Dep::attr(3, c.args)],
        |d| match d[0].expect_den() {
            DenVal::Overloads(cands) => {
                Value::cands(overload::filter_by_args(cands, &decode_args(&d[1])))
            }
            _ => Value::cands(Vec::new()),
        },
    );
    ab.rule(
        pr,
        0,
        c.types,
        vec![
            Dep::attr(1, c.den),
            Dep::attr(1, c.types),
            Dep::attr(3, c.args),
            Dep::attr(0, c.cands),
        ],
        |d| match d[0].expect_den() {
            DenVal::Overloads(_) => cand_types(&d[3]),
            DenVal::ValueLike(_) => {
                let shapes = decode_args(&d[2]);
                let Some(bt) = first_ty(&d[1]) else {
                    return Value::empty_list();
                };
                if !types::is_array(&bt) {
                    return Value::empty_list();
                }
                if is_slice_shape(&shapes) {
                    vtys(vec![types::base_type(&bt)])
                } else {
                    match types::elem_type(&bt) {
                        Some(e) => vtys(vec![e]),
                        None => Value::empty_list(),
                    }
                }
            }
            DenVal::Error => Value::empty_list(),
        },
    );
    ab.rule(pr, 1, c.expected, vec![], |_| Value::MaybeNode(None));
    ab.rule(
        pr,
        3,
        c.expecteds,
        vec![
            Dep::attr(0, c.expected),
            Dep::attr(1, c.den),
            Dep::attr(1, c.types),
            Dep::attr(3, c.args),
            Dep::attr(0, c.cands),
        ],
        |d| {
            let shapes = decode_args(&d[3]);
            match d[1].expect_den() {
                DenVal::Overloads(_) => match pick(&d[4], &d[0]) {
                    Ok(ch) => Value::list(
                        param_expecteds(&ch, &shapes)
                            .into_iter()
                            .map(Value::MaybeNode)
                            .collect(),
                    ),
                    Err(_) => Value::list(shapes.iter().map(|_| Value::MaybeNode(None)).collect()),
                },
                _ => {
                    // Indexing/slicing: every position expects the index
                    // type.
                    let idx_ty = first_ty(&d[2]).and_then(|t| types::index_type(&t));
                    Value::list(
                        shapes
                            .iter()
                            .map(|_| Value::MaybeNode(idx_ty.clone()))
                            .collect(),
                    )
                }
            }
        },
    );
    ab.rule(
        pr,
        0,
        c.ir,
        vec![
            Dep::attr(0, c.expected),
            Dep::attr(1, c.den),
            Dep::attr(1, c.types),
            Dep::attr(1, c.ir),
            Dep::attr(3, c.args),
            Dep::attr(3, c.irs),
            Dep::token(2),
            Dep::attr(0, c.cands),
        ],
        |d| {
            let shapes = decode_args(&d[4]);
            let arg_irs = decode_arg_irs(&d[5]);
            let pos = pos_of(&d[6]);
            match d[1].expect_den() {
                DenVal::Overloads(_) => match pick(&d[7], &d[0]) {
                    Ok(ch) => match build_call_args(&ch, &shapes, &arg_irs) {
                        Ok(args) => {
                            let ret = subprog_ret(&ch).unwrap_or_else(types::void_marker);
                            Value::Node(ir::e_call(&ch, args, &ret))
                        }
                        Err(msg) => Value::Node(err_ir(pos, msg)),
                    },
                    Err(PickError::NoMatch) => {
                        Value::Node(err_ir(pos, "no matching subprogram for these arguments"))
                    }
                    Err(PickError::Ambiguous(cands)) => {
                        Value::Node(err_ir(pos, format!("ambiguous call: {}", cands.join("; "))))
                    }
                },
                DenVal::ValueLike(_) => {
                    let base = ir_of(&d[3]);
                    let bt = ty_of(&base);
                    if !types::is_array(&bt) {
                        return Value::Node(err_ir(pos, "only arrays can be indexed or sliced"));
                    }
                    if is_slice_shape(&shapes) {
                        match slice_bounds(&arg_irs[0]) {
                            Some((l, r, dir)) => Value::Node(ir::e_slice(base, l, r, dir)),
                            None => Value::Node(err_ir(pos, "bad slice range")),
                        }
                    } else if shapes.len() == 1 {
                        Value::Node(
                            ir::e_index(base, ir_of(&arg_irs[0]))
                                .unwrap_or_else(|| err_ir(pos, "only arrays can be indexed")),
                        )
                    } else {
                        Value::Node(err_ir(
                            pos,
                            "multi-dimensional indexing is outside the supported subset",
                        ))
                    }
                }
                DenVal::Error => Value::Node(err_ir(pos, "cannot apply arguments here")),
            }
        },
    );

    // name ::= name . fieldid
    let pr = p("n_field");
    ab.rule(pr, 0, c.den, vec![Dep::attr(1, c.den)], |d| d[0].clone());
    ab.rule(pr, 1, c.expected, vec![], |_| Value::MaybeNode(None));
    ab.rule(
        pr,
        0,
        c.types,
        vec![Dep::attr(1, c.types), Dep::token(3)],
        |d| {
            let fname = &lef(&d[1]).text;
            match first_ty(&d[0]).and_then(|bt| record_field(&bt, fname)) {
                Some((_, fty)) => vtys(vec![fty]),
                None => Value::empty_list(),
            }
        },
    );
    ab.rule(pr, 0, c.ir, vec![Dep::attr(1, c.ir), Dep::token(3)], |d| {
        let base = ir_of(&d[0]);
        let t = lef(&d[1]);
        match record_field(&ty_of(&base), &t.text) {
            Some((pos, fty)) => Value::Node(mk::e_field(fty, base, pos, t.text)),
            None => Value::Node(err_ir(
                t.pos,
                format!("no field `{}` on this prefix", t.text),
            )),
        }
    });

    // name ::= name ' attrid  and  tymark ' attrid
    install_attr_rules(ab, g, &c);
}

fn is_slice_shape(shapes: &[ArgShape]) -> bool {
    if shapes.len() != 1 {
        return false;
    }
    match &shapes[0] {
        ArgShape::Range => true,
        // A positional argument whose unique type is the 'range marker
        // (e.g. `v(v'range)`) slices too.
        ArgShape::Pos(t) => t.len() == 1 && types::is_range_marker(&t[0]),
        _ => false,
    }
}

/// Decodes a range-argument IR bundle (or a range-marker-typed expr like
/// `v'range`) into bounds.
fn slice_bounds(irv: &Value) -> Option<(Ir, Ir, Dir)> {
    match irv {
        Value::List(parts) if parts.len() == 3 => Some((
            parts[0].expect_node(),
            parts[1].expect_node(),
            Dir::decode(parts[2].expect_int()),
        )),
        Value::Node(n) if n.tag() == Kind::e_range => Some((
            Rc::clone(n.node(Field::left)),
            Rc::clone(n.node(Field::right)),
            Dir::decode(n.int(Field::dir)),
        )),
        _ => None,
    }
}

fn record_field(ty: &Ty, name: &str) -> Option<(i64, Ty)> {
    let b = types::base_type(ty);
    if b.tag() != Kind::ty_record {
        return None;
    }
    let found = b
        .nodes(Field::elems)
        .enumerate()
        .find(|(_, n)| n.name() == Some(name))
        .map(|(i, n)| (i as i64, Rc::clone(n.node(Field::ty))));
    found
}

fn bare_callable_ir(chosen: &Rc<VifNode>, pos: Pos) -> Ir {
    match chosen.tag() {
        Kind::enumlit => ir::e_int(chosen.int(Field::pos), chosen.node(Field::ty)),
        _ => match build_call_args(chosen, &[], &[]) {
            Ok(args) => {
                let ret = subprog_ret(chosen).unwrap_or_else(types::void_marker);
                ir::e_call(chosen, args, &ret)
            }
            Err(msg) => err_ir(pos, msg),
        },
    }
}

// ---------------------------------------------------------------------------
// Attributes ('left, 'event, 'range, user-defined…).
// ---------------------------------------------------------------------------

fn install_attr_rules(ab: &mut AgBuilder<Value>, g: &Grammar, c: &ExprClasses) {
    let c = *c;
    let p = |label: &str| g.prod_by_label(label).expect("production exists");

    // name ' attrid — prefix is a name.
    let pr = p("n_attr");
    ab.rule(pr, 0, c.den, vec![], |_| {
        Value::Den(DenVal::ValueLike(None))
    });
    ab.rule(pr, 1, c.expected, vec![], |_| Value::MaybeNode(None));
    ab.rule(
        pr,
        0,
        c.types,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(1, c.den),
            Dep::attr(1, c.types),
            Dep::token(3),
        ],
        |d| {
            let e = env(&d[0]);
            let attr = &lef(&d[3]).text;
            let root = match d[1].expect_den() {
                DenVal::ValueLike(r) => r.clone(),
                _ => None,
            };
            let prefix_ty = first_ty(&d[2]);
            vtys(attr_types(&e, attr, root.as_deref(), prefix_ty.as_ref()))
        },
    );
    ab.rule(
        pr,
        0,
        c.ir,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(1, c.den),
            Dep::attr(1, c.ir),
            Dep::token(3),
        ],
        |d| {
            let e = env(&d[0]);
            let t = lef(&d[3]);
            let root = match d[1].expect_den() {
                DenVal::ValueLike(r) => r.clone(),
                _ => None,
            };
            let base = ir_of(&d[2]);
            Value::Node(attr_ir(
                &e,
                &t.text,
                root.as_deref(),
                Some(base),
                None,
                t.pos,
            ))
        },
    );

    // tymark ' attrid — prefix is a type mark.
    let pr = p("n_tyattr");
    ab.rule(pr, 0, c.den, vec![], |_| {
        Value::Den(DenVal::ValueLike(None))
    });
    ab.rule(
        pr,
        0,
        c.types,
        vec![Dep::attr(0, c.env), Dep::token(1), Dep::token(3)],
        |d| {
            let e = env(&d[0]);
            let ty = Rc::clone(&lef(&d[1]).dens[0]);
            let attr = &lef(&d[2]).text;
            vtys(attr_types(&e, attr, None, Some(&ty)))
        },
    );
    ab.rule(
        pr,
        0,
        c.ir,
        vec![Dep::attr(0, c.env), Dep::token(1), Dep::token(3)],
        |d| {
            let e = env(&d[0]);
            let ty = Rc::clone(&lef(&d[1]).dens[0]);
            let t = lef(&d[2]);
            Value::Node(attr_ir(&e, &t.text, None, None, Some(&ty), t.pos))
        },
    );
}

/// Looks up a user-defined attribute specification: the environment binds
/// [`crate::uid::attr_key`] to an `attrspec` node. User-defined
/// attributes take precedence over predefined ones — the §3.2/§4.1
/// `X'REVERSE_RANGE` situation.
fn user_attr(e: &Env, prefix_uid: &str, attr: &str) -> Option<Rc<VifNode>> {
    e.lookup_one(crate::uid::attr_key(prefix_uid, attr))
        .map(|d| d.node)
}

fn attr_types(e: &Env, attr: &str, root: Option<&VifNode>, prefix_ty: Option<&Ty>) -> Vec<Ty> {
    // User-defined attribute on the object or on the type.
    let uids: Vec<String> = root
        .and_then(|r| r.str_field(Field::uid).map(str::to_string))
        .into_iter()
        .chain(prefix_ty.map(|t| types::uid(t).to_string()))
        .collect();
    for uid in &uids {
        if let Some(spec) = user_attr(e, uid, attr) {
            return vec![Rc::clone(spec.node(Field::ty))];
        }
    }
    let Some(pt) = prefix_ty else { return vec![] };
    match attr {
        "left" | "right" | "high" | "low" => {
            if types::is_array(pt) {
                types::index_type(pt).into_iter().collect()
            } else {
                vec![Rc::clone(pt)]
            }
        }
        "length" => vec![types::universal_int()],
        "event" | "active" => vec![crate::standard_boolean(e)],
        "last_value" => vec![Rc::clone(pt)],
        "range" | "reverse_range" => vec![types::range_marker()],
        "pos" | "val" => vec![types::universal_int()],
        _ => vec![],
    }
}

#[allow(clippy::too_many_arguments)]
fn attr_ir(
    e: &Env,
    attr: &str,
    root: Option<&VifNode>,
    base: Option<Ir>,
    tymark: Option<&Ty>,
    pos: Pos,
) -> Ir {
    // User-defined first.
    let uids: Vec<String> = root
        .and_then(|r| r.str_field(Field::uid).map(str::to_string))
        .into_iter()
        .chain(tymark.map(|t| types::uid(t).to_string()))
        .collect();
    for uid in &uids {
        if let Some(spec) = user_attr(e, uid, attr) {
            return Rc::clone(spec.node(Field::value));
        }
    }
    let pt: Option<Ty> = tymark.cloned().or_else(|| base.as_ref().map(ty_of));
    let Some(pt) = pt else {
        return err_ir(pos, format!("cannot apply attribute `{attr}` here"));
    };
    let scalar_or_index_bounds = |pt: &Ty| -> Option<(i64, i64, Dir, Ty)> {
        if types::is_array(pt) {
            let (lo, hi, dir) = types::array_bounds(pt)?;
            let it = types::index_type(pt)?;
            Some((lo, hi, dir, it))
        } else {
            let (lo, hi, dir) = types::scalar_bounds(pt)?;
            Some((lo, hi, dir, Rc::clone(pt)))
        }
    };
    match attr {
        "left" | "right" | "high" | "low" | "length" | "range" | "reverse_range" => {
            let Some((lo, hi, dir, vt)) = scalar_or_index_bounds(&pt) else {
                // Dynamic bounds (e.g. an unconstrained formal): defer the
                // attribute to run time when there is a prefix value.
                if let (Some(b), true) = (
                    base,
                    matches!(attr, "left" | "right" | "high" | "low" | "length")
                        && types::is_array(&pt),
                ) {
                    let vt = types::index_type(&pt).unwrap_or_else(types::universal_int);
                    let rt = if attr == "length" {
                        types::universal_int()
                    } else {
                        vt
                    };
                    return mk::e_attr(rt, attr, Some(b), None);
                }
                return err_ir(pos, format!("prefix of `{attr}` has no static bounds"));
            };
            // `lo`/`hi` are the left/right bounds as written.
            let (left, right) = (lo, hi);
            let (min, max) = match dir {
                Dir::To => (left, right),
                Dir::Downto => (right, left),
            };
            match attr {
                "left" => ir::e_int(left, &vt),
                "right" => ir::e_int(right, &vt),
                "high" => ir::e_int(max, &vt),
                "low" => ir::e_int(min, &vt),
                "length" => ir::e_int(
                    types::range_length(left, right, dir),
                    &types::universal_int(),
                ),
                "range" | "reverse_range" => {
                    let (l, r, d) = if attr == "range" {
                        (left, right, dir)
                    } else {
                        (
                            right,
                            left,
                            match dir {
                                Dir::To => Dir::Downto,
                                Dir::Downto => Dir::To,
                            },
                        )
                    };
                    let (l, r) = (ir::e_int(l, &vt), ir::e_int(r, &vt));
                    mk::e_range(types::range_marker(), l, r, d.encode())
                }
                _ => unreachable!(),
            }
        }
        "event" | "active" | "last_value" => match base {
            Some(b) if matches!(b.tag(), Kind::e_ref | Kind::e_index | Kind::e_field) => {
                let is_sig = root.is_some_and(|r| r.str_field(Field::class) == Some("signal"));
                if !is_sig {
                    return err_ir(pos, format!("`{attr}` requires a signal prefix"));
                }
                let ty = if attr == "last_value" {
                    Rc::clone(&pt)
                } else {
                    crate::standard_boolean(e)
                };
                mk::e_attr(ty, attr, Some(b), None)
            }
            _ => err_ir(pos, format!("`{attr}` requires a signal prefix")),
        },
        other => err_ir(pos, format!("unknown attribute `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Associations.
// ---------------------------------------------------------------------------

fn install_assoc_rules(ab: &mut AgBuilder<Value>, g: &Grammar, c: &ExprClasses) {
    let c = *c;
    let p = |label: &str| g.prod_by_label(label).expect("production exists");

    // assocs ::= assocs , assoc — split the expected list by child arity.
    let pr = p("as_more");
    ab.rule(
        pr,
        1,
        c.expecteds,
        vec![Dep::attr(0, c.expecteds), Dep::attr(1, c.args)],
        |d| {
            let full = d[0].expect_list();
            let n = d[1].expect_list().len();
            Value::list(full.iter().take(n).cloned().collect())
        },
    );
    ab.rule(
        pr,
        3,
        c.expecteds,
        vec![Dep::attr(0, c.expecteds), Dep::attr(1, c.args)],
        |d| {
            let full = d[0].expect_list();
            let n = d[1].expect_list().len();
            Value::list(full.iter().skip(n).cloned().collect())
        },
    );

    // assoc ::= expr
    let pr = p("a_pos");
    ab.rule(pr, 0, c.args, vec![Dep::attr(1, c.types)], |d| {
        one(arg_desc("pos", "", tys(&d[0])))
    });
    ab.rule(pr, 1, c.expected, vec![Dep::attr(0, c.expecteds)], |d| {
        d[0].expect_list()
            .first()
            .cloned()
            .unwrap_or(Value::MaybeNode(None))
    });
    ab.rule(pr, 0, c.irs, vec![Dep::attr(1, c.ir)], |d| {
        // An expression whose IR is an e.range ('range attribute) slots in
        // as a range argument.
        one(d[0].clone())
    });

    // assoc ::= expr to/downto expr
    for (label, dir) in [("a_to", Dir::To), ("a_downto", Dir::Downto)] {
        let pr = p(label);
        ab.rule(pr, 0, c.args, vec![], |_| {
            one(arg_desc("range", "", vec![]))
        });
        for occ in [1usize, 3] {
            ab.rule(pr, occ, c.expected, vec![Dep::attr(0, c.expecteds)], |d| {
                d[0].expect_list()
                    .first()
                    .cloned()
                    .unwrap_or(Value::MaybeNode(None))
            });
        }
        ab.rule(
            pr,
            0,
            c.irs,
            vec![Dep::attr(1, c.ir), Dep::attr(3, c.ir)],
            move |d| {
                one(Value::list(vec![
                    Value::Node(ir_of(&d[0])),
                    Value::Node(ir_of(&d[1])),
                    Value::Int(dir.encode()),
                ]))
            },
        );
    }

    // assoc ::= fieldid => expr
    let pr = p("a_named");
    ab.rule(
        pr,
        0,
        c.args,
        vec![Dep::token(1), Dep::attr(3, c.types)],
        |d| one(arg_desc("named", &lef(&d[0]).text, tys(&d[1]))),
    );
    ab.rule(pr, 3, c.expected, vec![Dep::attr(0, c.expecteds)], |d| {
        d[0].expect_list()
            .first()
            .cloned()
            .unwrap_or(Value::MaybeNode(None))
    });
    ab.rule(
        pr,
        0,
        c.irs,
        vec![Dep::attr(3, c.ir)],
        |d| one(d[0].clone()),
    );

    // assoc ::= open
    let pr = p("a_open");
    ab.rule(pr, 0, c.args, vec![], |_| one(arg_desc("open", "", vec![])));
    ab.rule(pr, 0, c.irs, vec![], |_| one(Value::Unit));
}

// ---------------------------------------------------------------------------
// Aggregates.
// ---------------------------------------------------------------------------

fn install_aggregate_rules(ab: &mut AgBuilder<Value>, g: &Grammar, c: &ExprClasses) {
    let c = *c;
    let p = |label: &str| g.prod_by_label(label).expect("production exists");

    // aggregate ::= ( elems )
    let pr = p("g_parens");
    ab.rule(pr, 0, c.types, vec![Dep::attr(2, c.info)], |d| {
        let info = d[0].expect_list();
        if is_single_positional(info) {
            // A parenthesized expression: its candidate types pass through.
            Value::list(info[0].expect_list()[1].expect_list().to_vec())
        } else {
            Value::empty_list()
        }
    });
    ab.rule(
        pr,
        2,
        c.expecteds,
        vec![Dep::attr(0, c.expected), Dep::attr(2, c.info)],
        |d| {
            let exp = expected(&d[0]);
            let info = d[1].expect_list();
            if is_single_positional(info) {
                // Parenthesized expression: pass the context through.
                return Value::list(vec![Value::MaybeNode(None), Value::MaybeNode(exp)]);
            }
            match exp {
                Some(agg_ty) if types::is_array(&agg_ty) => {
                    let elem = types::elem_type(&agg_ty);
                    Value::list(vec![Value::MaybeNode(Some(agg_ty)), Value::MaybeNode(elem)])
                }
                Some(agg_ty) if types::is_record(&agg_ty) => {
                    Value::list(vec![Value::MaybeNode(Some(agg_ty)), Value::MaybeNode(None)])
                }
                _ => Value::list(vec![Value::MaybeNode(None), Value::MaybeNode(None)]),
            }
        },
    );
    ab.rule(
        pr,
        0,
        c.ir,
        vec![
            Dep::attr(0, c.expected),
            Dep::attr(2, c.info),
            Dep::attr(2, c.irs),
            Dep::token(1),
        ],
        |d| {
            let info = d[1].expect_list();
            let irs = d[2].expect_list();
            let pos = pos_of(&d[3]);
            if is_single_positional(info) {
                // Parenthesized expression.
                let bundle = irs[0].expect_list();
                return Value::Node(bundle[1].expect_node());
            }
            let Some(agg_ty) = expected(&d[0]) else {
                return Value::Node(err_ir(
                    pos,
                    "aggregate needs a context that determines its type",
                ));
            };
            Value::Node(build_aggregate(&agg_ty, irs, pos))
        },
    );

    // elem ::= expr
    let pr = p("e_pos");
    ab.rule(pr, 0, c.info, vec![Dep::attr(1, c.types)], |d| {
        one(Value::list(vec![
            Value::list(vec![Value::list(vec![Value::Str("pos".into())])]),
            d[0].clone(),
        ]))
    });
    ab.rule(pr, 1, c.expected, vec![Dep::attr(0, c.expecteds)], |d| {
        d[0].expect_list()
            .get(1)
            .cloned()
            .unwrap_or(Value::MaybeNode(None))
    });
    ab.rule(pr, 0, c.irs, vec![Dep::attr(1, c.ir)], |d| {
        one(Value::list(vec![
            Value::list(vec![Value::list(vec![Value::Str("pos".into())])]),
            d[0].clone(),
        ]))
    });

    // elem ::= chs => expr
    let pr = p("e_named");
    ab.rule(
        pr,
        0,
        c.info,
        vec![Dep::attr(1, c.tags), Dep::attr(3, c.types)],
        |d| one(Value::list(vec![d[0].clone(), d[1].clone()])),
    );
    // Choices are typed against the aggregate's index type (arrays).
    ab.rule(pr, 1, c.expected, vec![Dep::attr(0, c.expecteds)], |d| {
        let agg = d[0].expect_list().first().cloned();
        match agg {
            Some(Value::MaybeNode(Some(t))) => Value::MaybeNode(types::index_type(&t)),
            _ => Value::MaybeNode(None),
        }
    });
    ab.rule(
        pr,
        3,
        c.expected,
        vec![Dep::attr(0, c.expecteds), Dep::attr(1, c.tags)],
        |d| {
            let slots = d[0].expect_list();
            let agg = slots.first().cloned();
            match agg {
                Some(Value::MaybeNode(Some(t))) if types::is_record(&t) => {
                    // Field choice determines the element type.
                    let tags = d[1].expect_list();
                    for tag in tags {
                        let parts = tag.expect_list();
                        if parts.first().map(Value::expect_str).as_deref() == Some("field") {
                            let fname = parts[1].expect_str();
                            if let Some((_, fty)) = record_field(&t, &fname) {
                                return Value::MaybeNode(Some(fty));
                            }
                        }
                    }
                    Value::MaybeNode(None)
                }
                _ => slots.get(1).cloned().unwrap_or(Value::MaybeNode(None)),
            }
        },
    );
    ab.rule(
        pr,
        0,
        c.irs,
        vec![Dep::attr(1, c.choice), Dep::attr(3, c.ir)],
        |d| one(Value::list(vec![d[0].clone(), d[1].clone()])),
    );

    // Choices.
    let pr = p("c_expr");
    ab.rule(pr, 0, c.tags, vec![], |_| {
        one(Value::list(vec![Value::Str("val".into())]))
    });
    ab.rule(pr, 0, c.choice, vec![Dep::attr(1, c.ir)], |d| {
        one(Value::list(vec![Value::Str("val".into()), d[0].clone()]))
    });
    for (label, dir) in [("c_to", Dir::To), ("c_downto", Dir::Downto)] {
        let pr = p(label);
        ab.rule(pr, 0, c.tags, vec![], |_| {
            one(Value::list(vec![Value::Str("range".into())]))
        });
        ab.rule(
            pr,
            0,
            c.choice,
            vec![Dep::attr(1, c.ir), Dep::attr(3, c.ir)],
            move |d| {
                one(Value::list(vec![
                    Value::Str("range".into()),
                    d[0].clone(),
                    d[1].clone(),
                    Value::Int(dir.encode()),
                ]))
            },
        );
    }
    let pr = p("c_others");
    ab.rule(pr, 0, c.tags, vec![], |_| {
        one(Value::list(vec![Value::Str("others".into())]))
    });
    ab.rule(pr, 0, c.choice, vec![], |_| {
        one(Value::list(vec![Value::Str("others".into())]))
    });
    let pr = p("c_field");
    ab.rule(pr, 0, c.tags, vec![Dep::token(1)], |d| {
        one(Value::list(vec![
            Value::Str("field".into()),
            Value::Str(lef(&d[0]).text.to_string().into()),
        ]))
    });
    ab.rule(pr, 0, c.choice, vec![Dep::token(1)], |d| {
        one(Value::list(vec![
            Value::Str("field".into()),
            Value::Str(lef(&d[0]).text.to_string().into()),
        ]))
    });
}

fn is_single_positional(info: &[Value]) -> bool {
    if info.len() != 1 {
        return false;
    }
    let tags = info[0].expect_list()[0].expect_list();
    tags.len() == 1
        && tags[0]
            .expect_list()
            .first()
            .map(Value::expect_str)
            .as_deref()
            == Some("pos")
}

/// Assembles an `e.agg` node from element IR bundles. Array aggregates
/// keep positional elements in order plus folded named/others entries;
/// record aggregates are normalized to field order.
fn build_aggregate(agg_ty: &Ty, irs: &[Value], pos: Pos) -> Ir {
    if types::is_record(agg_ty) {
        let b = types::base_type(agg_ty);
        let n_fields = b.list_field(Field::elems).len();
        let mut by_pos: Vec<Option<Ir>> = vec![None; n_fields];
        for bundle in irs {
            let parts = bundle.expect_list();
            let choices = parts[0].expect_list();
            let value = parts[1].expect_node();
            for ch in choices {
                let chp = ch.expect_list();
                match &*chp[0].expect_str() {
                    "field" => {
                        let fname = chp[1].expect_str();
                        if let Some((fp, _)) = record_field(agg_ty, &fname) {
                            by_pos[fp as usize] = Some(Rc::clone(&value));
                        }
                    }
                    "pos" => {
                        if let Some(slot) = by_pos.iter_mut().find(|s| s.is_none()) {
                            *slot = Some(Rc::clone(&value));
                        }
                    }
                    _ => {}
                }
            }
        }
        if by_pos.iter().any(Option::is_none) {
            return err_ir(pos, "record aggregate does not cover every field");
        }
        let elems = by_pos.into_iter().flatten().map(VifValue::Node).collect();
        return mk::e_agg(Rc::clone(agg_ty), elems, None, None);
    }
    if !types::is_array(agg_ty) {
        return err_ir(pos, "aggregate in a non-composite context");
    }
    // Array aggregate: positional prefix + named entries + others.
    let mut positional = Vec::new();
    let mut named: Vec<VifValue> = Vec::new();
    let mut others: Option<Ir> = None;
    for bundle in irs {
        let parts = bundle.expect_list();
        let choices = parts[0].expect_list();
        let value = parts[1].expect_node();
        for ch in choices {
            let chp = ch.expect_list();
            match &*chp[0].expect_str() {
                "pos" => positional.push(Rc::clone(&value)),
                "others" => others = Some(Rc::clone(&value)),
                "val" => {
                    let cir = chp[1].expect_node();
                    match ir::const_int(&cir) {
                        Some(v) => named.push(VifValue::Node(mk::named(v, v, Rc::clone(&value)))),
                        None => return err_ir(pos, "aggregate choice is not static"),
                    }
                }
                "range" => {
                    let l = ir::const_int(&chp[1].expect_node());
                    let r = ir::const_int(&chp[2].expect_node());
                    let dir = Dir::decode(chp[3].expect_int());
                    match (l, r) {
                        (Some(l), Some(r)) => {
                            let (lo, hi) = match dir {
                                Dir::To => (l, r),
                                Dir::Downto => (r, l),
                            };
                            named.push(VifValue::Node(mk::named(lo, hi, Rc::clone(&value))));
                        }
                        _ => return err_ir(pos, "aggregate choice range is not static"),
                    }
                }
                "field" => return err_ir(pos, "field choice in an array aggregate"),
                _ => {}
            }
        }
    }
    let positional = positional.into_iter().map(VifValue::Node).collect();
    mk::e_agg(Rc::clone(agg_ty), positional, Some(named), others)
}

/// String / bit-string literal to array constant.
fn string_literal_ir(t: &LefTok, want: Option<&Ty>, is_bits: bool) -> Ir {
    let Some(want) = want else {
        return err_ir(
            t.pos,
            "string literal needs a context that determines its type",
        );
    };
    if !types::is_array(want) {
        return err_ir(t.pos, "string literal in a non-array context");
    }
    let Some(elem) = types::elem_type(want) else {
        return err_ir(t.pos, "string literal in a non-array context");
    };
    let mut codes = Vec::new();
    if is_bits {
        let mut chars = t.text.chars();
        let base = chars.next().unwrap_or('b');
        let bits_per = match base {
            'b' => 1,
            'o' => 3,
            _ => 4,
        };
        for c in chars {
            let Some(v) = c.to_digit(16) else {
                return err_ir(t.pos, format!("bad bit-string digit `{c}`"));
            };
            for i in (0..bits_per).rev() {
                codes.push(((v >> i) & 1) as i64);
            }
        }
    } else {
        for ch in t.text.chars() {
            let lit = format!("'{ch}'");
            match types::enum_pos(&elem, &lit) {
                Some(p) => codes.push(p),
                None => {
                    return err_ir(
                        t.pos,
                        format!("`{ch}` is not a literal of {}", elem.name().unwrap_or("?")),
                    )
                }
            }
        }
    }
    ir::e_array_const(codes, want)
}
