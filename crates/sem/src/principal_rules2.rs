//! Explicit semantic rules of the principal AG — part 2: sequential
//! statements, concurrent statements (with the LRM equivalent-process
//! desugaring), and compilation units.

use std::rc::Rc;

use ag_core::{AgBuilder, Dep};
use ag_lalr::Grammar;
use vhdl_syntax::{Pos, SrcTok};
use vhdl_vif::{mk, Field, Kind, VifNode, VifValue};

use crate::decl::ObjClass;
use crate::env::{Den, Env};
use crate::ir::{self, ty_of, Ir};
use crate::msg::{Msg, Msgs};
use crate::oof::{self, U};
use crate::principal_ag::PrincipalClasses;
use crate::principal_rules::{p, with_u};
use crate::types::{self, Ty};
use crate::value::Value;

pub(crate) fn install(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    // Extra attachments for this half.
    let nt = |n: &str| g.symbol(n).unwrap_or_else(|| panic!("no nonterminal {n}"));
    for n in [
        "process_stmt",
        "block_stmt",
        "component_inst",
        "cond_signal_assign",
        "sel_signal_assign",
    ] {
        ab.attach(c.concs, nt(n));
        ab.attach(c.res, nt(n));
    }
    for n in [
        "wait_stmt",
        "assert_stmt",
        "target_stmt",
        "if_stmt",
        "case_stmt",
        "loop_stmt",
        "next_stmt",
        "exit_stmt",
        "return_stmt",
    ] {
        ab.attach(c.res, nt(n));
    }
    for n in [
        "entity_decl",
        "architecture_body",
        "package_decl",
        "package_body",
        "configuration_decl",
    ] {
        ab.attach(c.res, nt(n));
    }

    install_stmts(ab, g, c);
    install_concs(ab, g, c);
    install_units(ab, g, c);
}

/// `[List(stmts), Msgs]` bundle helpers for statement RES.
fn sres(stmts: Vec<Ir>, msgs: Msgs) -> Value {
    Value::list(vec![
        Value::list(stmts.into_iter().map(Value::Node).collect()),
        Value::Msgs(msgs),
    ])
}

/// Wires the projection rules for a `RES = [payload, Msgs]` bundle:
/// `payload_class` receives the bundle's first element, `MSGS` its second
/// (merged with the listed children's messages).
fn res_projections(
    ab: &mut AgBuilder<Value>,
    g: &Grammar,
    c: &PrincipalClasses,
    label: &str,
    payload_class: ag_core::ClassId,
    msg_children: &[usize],
) {
    let pr = p(g, label);
    let c = *c;
    ab.rule(pr, 0, payload_class, vec![Dep::attr(0, c.res)], |d| {
        d[0].expect_list()[0].clone()
    });
    let mut deps = vec![Dep::attr(0, c.res)];
    for &occ in msg_children {
        deps.push(Dep::attr(occ, c.msgs));
    }
    ab.rule(pr, 0, c.msgs, deps, |d| {
        let mut m = d[0].expect_list()[1].as_msgs().clone();
        for v in &d[1..] {
            m = Msgs::concat(&m, v.as_msgs());
        }
        Value::Msgs(m)
    });
}

fn stmt_projections(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses, label: &str) {
    res_projections(ab, g, c, label, c.stmts, &[]);
}

/// Resolves an assignment target; returns `(ir, root obj)`.
fn resolve_target(u: &U<'_>, toks: &[SrcTok]) -> (Option<Ir>, Option<Rc<VifNode>>, Msgs) {
    let a = u.ev(toks, None);
    let msgs = a.msgs.clone();
    match a.ir {
        Some(ir) => {
            let root = target_root(&ir);
            (Some(ir), root, msgs)
        }
        None => (None, None, msgs),
    }
}

/// The object at the base of a target IR.
pub(crate) fn target_root(ir: &Ir) -> Option<Rc<VifNode>> {
    match ir.tag() {
        Kind::e_ref => Some(Rc::clone(ir.node(Field::obj))),
        Kind::e_index | Kind::e_slice | Kind::e_field => target_root(ir.node(Field::base)),
        _ => None,
    }
}

fn time_ty(u: &U<'_>) -> Ty {
    Rc::clone(&u.ctx.std.std.time)
}

fn bool_ty(u: &U<'_>) -> Ty {
    Rc::clone(&u.ctx.std.std.boolean)
}

/// Evaluates one waveform descriptor list into `wv` nodes.
fn eval_waveform(u: &U<'_>, waves: &Value, target_ty: &Ty, msgs: &mut Msgs) -> Vec<Rc<VifNode>> {
    let mut out = Vec::new();
    for w in waves.expect_list() {
        let pair = w.expect_list();
        let vtoks = oof::toks_of(&pair[0]);
        let dtoks = oof::toks_of(&pair[1]);
        let va = u.ev(&vtoks, Some(target_ty));
        *msgs = Msgs::concat(msgs, &va.msgs);
        let delay = if dtoks.is_empty() {
            None
        } else {
            let da = u.ev(&dtoks, Some(&time_ty(u)));
            *msgs = Msgs::concat(msgs, &da.msgs);
            da.ir
        };
        if let Some(v) = va.ir {
            out.push(mk::wv(v, delay));
        }
    }
    out
}

fn install_stmts(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;

    // ----- assignments and calls ------------------------------------------
    let pr = p(g, "sig_assign");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::leaves(1),
            Dep::attr(3, c.info),
            Dep::attr(4, c.waves),
        ],
        |d| {
            with_u!(d, u, {
                let toks = oof::toks_of(&d[2]);
                let pos = toks.first().map(|t| t.pos).unwrap_or_default();
                let (target, root, mut msgs) = resolve_target(&u, &toks);
                let Some(target) = target else {
                    return sres(vec![], msgs);
                };
                if root.as_deref().and_then(|r| r.str_field(Field::class)) != Some("signal") {
                    msgs.push(Msg::error(pos, "target of `<=` must be a signal"));
                    return sres(vec![], msgs);
                }
                let is_in_port = root.as_deref().is_some_and(|r| {
                    r.str_field(Field::origin) == Some("iface")
                        && r.str_field(Field::mode) == Some("in")
                });
                if is_in_port {
                    msgs.push(Msg::error(pos, "cannot assign to a port of mode `in`"));
                    return sres(vec![], msgs);
                }
                let transport = matches!(d[3], Value::Bool(true));
                let wf = eval_waveform(&u, &d[4], &ty_of(&target), &mut msgs);
                sres(vec![ir::s_assign_sig(target, wf, transport)], msgs)
            })
        },
    );
    stmt_projections(ab, g, &c, "sig_assign");

    let pr = p(g, "var_assign");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::leaves(1),
            Dep::leaves(3),
        ],
        |d| {
            with_u!(d, u, {
                let toks = oof::toks_of(&d[2]);
                let pos = toks.first().map(|t| t.pos).unwrap_or_default();
                let (target, root, mut msgs) = resolve_target(&u, &toks);
                let Some(target) = target else {
                    return sres(vec![], msgs);
                };
                let cls = root.as_deref().and_then(|r| r.str_field(Field::class));
                if !matches!(cls, Some("variable") | Some("loopvar")) {
                    msgs.push(Msg::error(pos, "target of `:=` must be a variable"));
                    return sres(vec![], msgs);
                }
                if cls == Some("loopvar") {
                    msgs.push(Msg::error(pos, "loop parameter cannot be assigned"));
                    return sres(vec![], msgs);
                }
                let a = u.ev(&oof::toks_of(&d[3]), Some(&ty_of(&target)));
                msgs = Msgs::concat(&msgs, &a.msgs);
                match a.ir {
                    Some(v) => sres(vec![mk::s_assign_var(target, v)], msgs),
                    None => sres(vec![], msgs),
                }
            })
        },
    );
    stmt_projections(ab, g, &c, "var_assign");

    let pr = p(g, "proc_call");
    ab.rule(
        pr,
        0,
        c.res,
        vec![Dep::attr(0, c.env), Dep::attr(0, c.ctx), Dep::leaves(1)],
        |d| {
            with_u!(d, u, {
                let toks = oof::toks_of(&d[2]);
                let void = types::void_marker();
                let a = u.ev(&toks, Some(&void));
                match a.ir {
                    Some(call) => sres(vec![mk::s_call(call)], a.msgs),
                    None => sres(vec![], a.msgs),
                }
            })
        },
    );
    stmt_projections(ab, g, &c, "proc_call");

    // ----- wait / assert -----------------------------------------------------
    let pr = p(g, "wait_stmt");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(2, c.info),
            Dep::attr(3, c.info),
            Dep::attr(4, c.info),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let sens = resolve_signal_names(&u, &d[2], &mut msgs);
                let cond = eval_opt(&u, &d[3], Some(&bool_ty(&u)), &mut msgs);
                let timeout = eval_opt(&u, &d[4], Some(&time_ty(&u)), &mut msgs);
                sres(vec![mk::s_wait(sens, cond, timeout)], msgs)
            })
        },
    );
    stmt_projections(ab, g, &c, "wait_stmt");

    let pr = p(g, "assert_stmt");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::leaves(2),
            Dep::attr(3, c.info),
            Dep::attr(4, c.info),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let cond = u.ev(&oof::toks_of(&d[2]), Some(&bool_ty(&u)));
                msgs = Msgs::concat(&msgs, &cond.msgs);
                let Some(cond) = cond.ir else {
                    return sres(vec![], msgs);
                };
                let string_ty = Rc::clone(&u.ctx.std.std.string);
                let sev_ty = Rc::clone(&u.ctx.std.std.severity_level);
                let report = eval_opt(&u, &d[3], Some(&string_ty), &mut msgs);
                let severity = eval_opt(&u, &d[4], Some(&sev_ty), &mut msgs);
                sres(vec![mk::s_assert(cond, report, severity)], msgs)
            })
        },
    );
    stmt_projections(ab, g, &c, "assert_stmt");

    // ----- control flow ------------------------------------------------------
    let pr = p(g, "if_stmt");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::leaves(2),
            Dep::attr(4, c.stmts),
            Dep::attr(5, c.info),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let bt = bool_ty(&u);
                let mut arms: Vec<(Vec<SrcTok>, Vec<Value>)> =
                    vec![(oof::toks_of(&d[2]), d[3].expect_list().to_vec())];
                let tail = d[4].expect_list();
                for arm in tail[0].expect_list() {
                    let pairv = arm.expect_list();
                    arms.push((oof::toks_of(&pairv[0]), pairv[1].expect_list().to_vec()));
                }
                let mut els = tail[1].node_list();
                // Fold elsif arms right-to-left into nested ifs.
                for (cond_toks, stmts) in arms.into_iter().rev() {
                    let a = u.ev(&cond_toks, Some(&bt));
                    msgs = Msgs::concat(&msgs, &a.msgs);
                    let cond = match a.ir {
                        Some(c) => c,
                        None => continue,
                    };
                    let then: Vec<VifValue> = stmts
                        .iter()
                        .map(|v| VifValue::Node(v.expect_node()))
                        .collect();
                    els = vec![VifValue::Node(mk::s_if(cond, then, els))];
                }
                let stmts: Vec<Ir> = els
                    .into_iter()
                    .filter_map(|v| v.as_node().cloned())
                    .collect();
                sres(stmts, msgs)
            })
        },
    );
    res_projections(ab, g, &c, "if_stmt", c.stmts, &[4, 5]);

    let pr = p(g, "case_stmt");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::leaves(2),
            Dep::attr(4, c.alts),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let sel = u.ev(&oof::toks_of(&d[2]), None);
                msgs = Msgs::concat(&msgs, &sel.msgs);
                let Some(sel) = sel.ir else {
                    return sres(vec![], msgs);
                };
                let sel_ty = ty_of(&sel);
                let mut alts = Vec::new();
                for alt in d[3].expect_list() {
                    let pairv = alt.expect_list();
                    let choices = eval_choices(&u, &pairv[0], &sel_ty, &mut msgs);
                    let body = pairv[1].node_list();
                    alts.push(VifValue::Node(mk::alt(choices, body)));
                }
                sres(vec![mk::s_case(sel, alts)], msgs)
            })
        },
    );
    res_projections(ab, g, &c, "case_stmt", c.stmts, &[4]);
    // case_alt: collect (choices, stmts).
    let pr2 = p(g, "case_alt");
    ab.rule(
        pr2,
        0,
        c.alts,
        vec![Dep::attr(2, c.choices), Dep::attr(4, c.stmts)],
        |d| Value::list(vec![Value::list(vec![d[0].clone(), d[1].clone()])]),
    );

    let pr = p(g, "loop_stmt");
    // Loop body environment: `for` loops bind the iteration parameter.
    ab.rule(
        pr,
        3,
        c.env,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(1, c.info),
        ],
        |d| {
            with_u!(d, u, {
                match loop_var(&u, &d[2]) {
                    Some((obj, _)) => Value::Env(
                        u.env
                            .bind(obj.name().unwrap_or("?"), Den::local(Rc::clone(&obj))),
                    ),
                    None => Value::Env(u.env.clone()),
                }
            })
        },
    );
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(1, c.info),
            Dep::attr(3, c.stmts),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let info = d[2].expect_list();
                let kind = info[0].expect_str();
                let body = d[3].node_list();
                let stmt = match &*kind {
                    "forever" => mk::s_loop("forever", None, None, body),
                    "while" => {
                        let a = u.ev(&oof::toks_of(&info[1]), Some(&bool_ty(&u)));
                        msgs = Msgs::concat(&msgs, &a.msgs);
                        match a.ir {
                            Some(cond) => mk::s_loop("while", None, Some(cond), body),
                            None => return sres(vec![], msgs),
                        }
                    }
                    _ => match loop_var(&u, &d[2]) {
                        Some((obj, range)) => mk::s_loop("for", Some(obj), Some(range), body),
                        None => {
                            msgs.push(Msg::error(
                                Pos::default(),
                                "for-loop range must be a static-typed discrete range",
                            ));
                            return sres(vec![], msgs);
                        }
                    },
                };
                sres(vec![stmt], msgs)
            })
        },
    );
    res_projections(ab, g, &c, "loop_stmt", c.stmts, &[3]);

    // ----- simple statements -------------------------------------------------
    for (label, is_exit) in [("next_stmt", false), ("exit_stmt", true)] {
        let pr = p(g, label);
        ab.rule(
            pr,
            0,
            c.res,
            vec![
                Dep::attr(0, c.env),
                Dep::attr(0, c.ctx),
                Dep::attr(2, c.info),
            ],
            move |d| {
                with_u!(d, u, {
                    let mut msgs = Msgs::none();
                    let cond = eval_opt(&u, &d[2], Some(&bool_ty(&u)), &mut msgs);
                    let stmt = if is_exit {
                        mk::s_exit(cond)
                    } else {
                        mk::s_next(cond)
                    };
                    sres(vec![stmt], msgs)
                })
            },
        );
        stmt_projections(ab, g, &c, label);
    }
    let pr = p(g, "return_plain");
    ab.rule(pr, 0, c.res, vec![], |_| {
        sres(vec![mk::s_return(None)], Msgs::none())
    });
    stmt_projections(ab, g, &c, "return_plain");
    let pr = p(g, "return_value");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.ret),
            Dep::leaves(2),
        ],
        |d| {
            with_u!(d, u, {
                let ret = match &d[2] {
                    Value::MaybeNode(t) => t.clone(),
                    _ => None,
                };
                let toks = oof::toks_of(&d[3]);
                let pos = toks.first().map(|t| t.pos).unwrap_or_default();
                let Some(ret) = ret else {
                    return sres(
                        vec![],
                        Msgs::one(Msg::error(pos, "value return outside a function")),
                    );
                };
                let a = u.ev(&toks, Some(&ret));
                match a.ir {
                    Some(v) => sres(vec![mk::s_return(Some(v))], a.msgs),
                    None => sres(vec![], a.msgs),
                }
            })
        },
    );
    stmt_projections(ab, g, &c, "return_value");
    ab.rule(p(g, "null_stmt"), 0, c.stmts, vec![], |_| {
        Value::list(vec![Value::Node(mk::s_null())])
    });
}

/// Evaluates an optional token run (`INFO` = token list, empty = absent).
fn eval_opt(u: &U<'_>, v: &Value, expected: Option<&Ty>, msgs: &mut Msgs) -> Option<Ir> {
    let toks = oof::toks_of(v);
    if toks.is_empty() {
        return None;
    }
    let a = u.ev(&toks, expected);
    *msgs = Msgs::concat(msgs, &a.msgs);
    a.ir
}

/// Resolves a NAMES bundle to signal references.
fn resolve_signal_names(u: &U<'_>, v: &Value, msgs: &mut Msgs) -> Vec<VifValue> {
    let mut out = Vec::new();
    for name in v.expect_list() {
        let toks = oof::toks_of(name);
        let pos = toks.first().map(|t| t.pos).unwrap_or_default();
        let a = u.ev(&toks, None);
        *msgs = Msgs::concat(msgs, &a.msgs);
        if let Some(ir) = a.ir {
            match target_root(&ir) {
                Some(root) if root.str_field(Field::class) == Some("signal") => {
                    out.push(VifValue::Node(ir));
                }
                _ => msgs.push(Msg::error(pos, "sensitivity names must denote signals")),
            }
        }
    }
    out
}

/// Evaluates a CHOICES bundle against the selector type, folding static
/// choices.
fn eval_choices(u: &U<'_>, v: &Value, sel_ty: &Ty, msgs: &mut Msgs) -> Vec<VifValue> {
    let mut out = Vec::new();
    for ch in v.expect_list() {
        let parts = ch.expect_list();
        match &*parts[0].expect_str() {
            "others" => out.push(VifValue::Node(mk::ch_others())),
            _ => {
                let toks = oof::toks_of(&parts[1]);
                let pos = toks.first().map(|t| t.pos).unwrap_or_default();
                let a = u.ev(&toks, None);
                *msgs = Msgs::concat(msgs, &a.msgs);
                match (a.as_range(), a.ir) {
                    (Some((l, r, dir)), _) => match (ir::const_int(&l), ir::const_int(&r)) {
                        (Some(lv), Some(rv)) => {
                            let (lo, hi) = match dir {
                                types::Dir::To => (lv, rv),
                                types::Dir::Downto => (rv, lv),
                            };
                            out.push(VifValue::Node(mk::ch_range(lo, hi)));
                        }
                        _ => msgs.push(Msg::error(pos, "choice range must be static")),
                    },
                    (None, Some(cir)) => {
                        if !types::compatible(&ty_of(&cir), sel_ty) {
                            msgs.push(Msg::error(pos, "choice type does not match selector"));
                        }
                        match ir::const_int(&cir) {
                            Some(v) => out.push(VifValue::Node(mk::ch_val(v))),
                            None => msgs.push(Msg::error(pos, "choice must be static")),
                        }
                    }
                    (None, None) => {}
                }
            }
        }
    }
    out
}

/// Builds the loop variable and range IR from a `for` loop-head INFO.
fn loop_var(u: &U<'_>, info: &Value) -> Option<(Rc<VifNode>, Ir)> {
    let parts = info.expect_list();
    if &*parts[0].expect_str() != "for" {
        return None;
    }
    let var = parts[1].expect_tok();
    let a = u.ev(&oof::toks_of(&parts[2]), None);
    let range_ir = a.ir?;
    if range_ir.tag() != Kind::e_range {
        return None;
    }
    let l = range_ir.node(Field::left);
    let vty = {
        let t = ty_of(l);
        if types::is_universal_int(&t) {
            Rc::clone(&u.ctx.std.std.integer)
        } else {
            t
        }
    };
    let obj = crate::decl::mk_obj(
        u.ctx.uids.declared(&var.text, var.pos),
        ObjClass::LoopVar,
        &var.text,
        &vty,
        crate::decl::Mode::In,
        None,
        None,
    );
    Some((obj, range_ir))
}

// ---------------------------------------------------------------------------
// Concurrent statements.
// ---------------------------------------------------------------------------

fn install_concs(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;
    // Labels.
    ab.rule(
        p(g, "conc_labelled"),
        3,
        c.label,
        vec![Dep::token(1)],
        |d| d[0].clone(),
    );

    // conc_body ::= assert_stmt → a passive process.
    let pr = p(g, "cb_assert");
    ab.rule(
        pr,
        0,
        c.concs,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.label),
            Dep::attr(1, c.stmts),
        ],
        |d| {
            with_u!(d, u, {
                let stmts = d[3].node_list();
                let sens = signals_in_stmts(&stmts);
                let _ = u;
                Value::list(vec![Value::Node(process_node(
                    &label_name(&d[2], "assert", Pos::default()),
                    sens.clone(),
                    vec![],
                    with_final_wait(stmts, sens),
                ))])
            })
        },
    );
    let pr = p(g, "uc_assert");
    ab.rule(
        pr,
        0,
        c.concs,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.label),
            Dep::attr(1, c.stmts),
        ],
        |d| {
            with_u!(d, u, {
                let _ = u;
                let stmts = d[3].node_list();
                let sens = signals_in_stmts(&stmts);
                Value::list(vec![Value::Node(process_node(
                    &label_name(&d[2], "assert", Pos::default()),
                    sens.clone(),
                    vec![],
                    with_final_wait(stmts, sens),
                ))])
            })
        },
    );

    // process_stmt.
    let pr = p(g, "process_stmt");
    ab.rule(pr, 5, c.env, vec![Dep::attr(3, c.envo)], |d| d[0].clone());
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.label),
            Dep::attr(2, c.info),
            Dep::attr(3, c.decls),
            Dep::attr(5, c.stmts),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let sens = resolve_signal_names(&u, &d[3], &mut msgs);
                let decls = d[4].node_list();
                let mut body = d[5].node_list();
                // A sensitivity list is equivalent to a final `wait on` it.
                if !sens.is_empty() {
                    body.push(VifValue::Node(mk::s_wait(sens.clone(), None, None)));
                }
                let name = label_name(&d[2], "proc", Pos::default());
                Value::list(vec![
                    Value::list(vec![Value::Node(process_node(&name, sens, decls, body))]),
                    Value::Msgs(msgs),
                ])
            })
        },
    );
    conc_projections(ab, g, &c, "process_stmt", &[3, 5]);

    // block_stmt: implicit guard signal, nested concurrency.
    let pr = p(g, "block_stmt");
    let guard_env = |d: &[Value]| -> (Env, Option<Rc<VifNode>>) {
        let env = d[0].expect_env();
        let ctx = d[1].expect_ctx();
        let toks = oof::toks_of(&d[2]);
        if toks.is_empty() {
            return (env.clone(), None);
        }
        let guard = crate::decl::mk_obj(
            ctx.uids.declared("guard", toks[0].pos),
            ObjClass::Signal,
            "guard",
            &ctx.std.std.boolean,
            crate::decl::Mode::In,
            None,
            None,
        );
        (
            env.bind("guard", Den::local(Rc::clone(&guard))),
            Some(guard),
        )
    };
    {
        ab.rule(
            pr,
            3,
            c.env,
            vec![
                Dep::attr(0, c.env),
                Dep::attr(0, c.ctx),
                Dep::attr(2, c.info),
            ],
            move |d| Value::Env(guard_env(d).0),
        );
    }
    ab.rule(pr, 5, c.env, vec![Dep::attr(3, c.envo)], |d| d[0].clone());
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(2, c.info),
            Dep::attr(0, c.label),
            Dep::attr(3, c.decls),
            Dep::attr(5, c.concs),
        ],
        move |d| {
            let env = d[0].expect_env();
            let ctx = d[1].expect_ctx();
            let mut msgs = Msgs::none();
            let (genv, guard) = guard_env(d);
            let toks = oof::toks_of(&d[2]);
            let guard_expr = if toks.is_empty() {
                None
            } else {
                let u = U {
                    env: &genv,
                    ctx: &ctx,
                };
                let a = u.ev(&toks, Some(&ctx.std.std.boolean));
                msgs = Msgs::concat(&msgs, &a.msgs);
                a.ir
            };
            let _ = env;
            let node = mk::block(
                &*label_name(&d[3], "blk", Pos::default()),
                guard,
                guard_expr,
                d[4].node_list(),
                d[5].node_list(),
            );
            Value::list(vec![
                Value::list(vec![Value::Node(node)]),
                Value::Msgs(msgs),
            ])
        },
    );
    conc_projections(ab, g, &c, "block_stmt", &[3, 5]);

    // component_inst.
    let pr = p(g, "component_inst");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.label),
            Dep::leaves(1),
            Dep::attr(2, c.assocs),
            Dep::attr(3, c.assocs),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let toks = oof::toks_of(&d[3]);
                let pos = toks.first().map(|t| t.pos).unwrap_or_default();
                let comp = match u.resolve_name(&toks) {
                    Ok(dens) if dens[0].tag() == Kind::component => Rc::clone(&dens[0]),
                    Ok(_) => {
                        msgs.push(Msg::error(pos, "instantiated name is not a component"));
                        return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
                    }
                    Err(m) => {
                        msgs.push(m);
                        return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
                    }
                };
                let gmap = eval_assocs(&u, &d[4], &comp, Field::generics, &mut msgs);
                let pmap = eval_assocs(&u, &d[5], &comp, Field::ports, &mut msgs);
                let node = mk::inst(&*label_name(&d[2], "u", pos), comp, gmap, pmap);
                Value::list(vec![
                    Value::list(vec![Value::Node(node)]),
                    Value::Msgs(msgs),
                ])
            })
        },
    );
    conc_projections(ab, g, &c, "component_inst", &[]);

    // Conditional signal assignment: desugar to the LRM equivalent process.
    let pr = p(g, "cond_assign");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.label),
            Dep::leaves(1),
            Dep::attr(3, c.info),
            Dep::attr(4, c.cwaves),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let toks = oof::toks_of(&d[3]);
                let pos = toks.first().map(|t| t.pos).unwrap_or_default();
                let (target, root, m) = resolve_target(&u, &toks);
                msgs = Msgs::concat(&msgs, &m);
                let Some(target) = target else {
                    return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
                };
                if root.as_deref().and_then(|r| r.str_field(Field::class)) != Some("signal") {
                    msgs.push(Msg::error(pos, "target of `<=` must be a signal"));
                    return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
                }
                let opts = d[4].expect_list();
                let guarded = matches!(opts[0], Value::Bool(true));
                let transport = matches!(opts[1], Value::Bool(true));
                let tty = ty_of(&target);
                // Build nested ifs from the conditional waveforms.
                let mut els: Vec<VifValue> = Vec::new();
                for entry in d[5].expect_list().iter().rev() {
                    let pair = entry.expect_list();
                    let wf = eval_waveform(&u, &pair[0], &tty, &mut msgs);
                    let assign = ir::s_assign_sig(Rc::clone(&target), wf, transport);
                    let cond_toks = oof::toks_of(&pair[1]);
                    if cond_toks.is_empty() {
                        els = vec![VifValue::Node(assign)];
                    } else {
                        let a = u.ev(&cond_toks, Some(&bool_ty(&u)));
                        msgs = Msgs::concat(&msgs, &a.msgs);
                        if let Some(cond) = a.ir {
                            els = vec![VifValue::Node(mk::s_if(
                                cond,
                                vec![VifValue::Node(assign)],
                                els,
                            ))];
                        }
                    }
                }
                let stmts = guard_wrap(&u, guarded, els, &mut msgs, pos);
                let sens = signals_in_stmts(&stmts);
                let name = label_name(&d[2], "csa", pos);
                Value::list(vec![
                    Value::list(vec![Value::Node(process_node(
                        &name,
                        sens.clone(),
                        vec![],
                        with_final_wait(stmts, sens),
                    ))]),
                    Value::Msgs(msgs),
                ])
            })
        },
    );
    conc_projections(ab, g, &c, "cond_assign", &[]);

    // Selected signal assignment → case-based process.
    let pr = p(g, "sel_assign");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(0, c.label),
            Dep::leaves(2),
            Dep::leaves(4),
            Dep::attr(6, c.info),
            Dep::attr(7, c.swaves),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let sel = u.ev(&oof::toks_of(&d[3]), None);
                msgs = Msgs::concat(&msgs, &sel.msgs);
                let ttoks = oof::toks_of(&d[4]);
                let pos = ttoks.first().map(|t| t.pos).unwrap_or_default();
                let (target, root, m) = resolve_target(&u, &ttoks);
                msgs = Msgs::concat(&msgs, &m);
                let (Some(sel), Some(target)) = (sel.ir, target) else {
                    return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
                };
                if root.as_deref().and_then(|r| r.str_field(Field::class)) != Some("signal") {
                    msgs.push(Msg::error(pos, "target of `<=` must be a signal"));
                    return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
                }
                let opts = d[5].expect_list();
                let guarded = matches!(opts[0], Value::Bool(true));
                let transport = matches!(opts[1], Value::Bool(true));
                let tty = ty_of(&target);
                let sel_ty = ty_of(&sel);
                let mut alts = Vec::new();
                for pairv in d[6].expect_list() {
                    let pair = pairv.expect_list();
                    let wf = eval_waveform(&u, &pair[0], &tty, &mut msgs);
                    let assign = ir::s_assign_sig(Rc::clone(&target), wf, transport);
                    let choices = eval_choices(&u, &pair[1], &sel_ty, &mut msgs);
                    alts.push(VifValue::Node(mk::alt(
                        choices,
                        vec![VifValue::Node(assign)],
                    )));
                }
                let case = mk::s_case(sel, alts);
                let stmts = guard_wrap(&u, guarded, vec![VifValue::Node(case)], &mut msgs, pos);
                let sens = signals_in_stmts(&stmts);
                let name = label_name(&d[2], "ssa", pos);
                Value::list(vec![
                    Value::list(vec![Value::Node(process_node(
                        &name,
                        sens.clone(),
                        vec![],
                        with_final_wait(stmts, sens),
                    ))]),
                    Value::Msgs(msgs),
                ])
            })
        },
    );
    conc_projections(ab, g, &c, "sel_assign", &[]);
}

fn conc_projections(
    ab: &mut AgBuilder<Value>,
    g: &Grammar,
    c: &PrincipalClasses,
    label: &str,
    msg_children: &[usize],
) {
    res_projections(ab, g, c, label, c.concs, msg_children);
}

fn label_name(label: &Value, prefix: &str, pos: Pos) -> String {
    match label {
        Value::Tok(t) => t.text.to_string(),
        _ => format!("{prefix}_{}_{}", pos.line, pos.col),
    }
}

fn process_node(
    name: &str,
    sens: Vec<VifValue>,
    decls: Vec<VifValue>,
    body: Vec<VifValue>,
) -> Rc<VifNode> {
    mk::process(name, sens, decls, body)
}

/// Appends the implicit `wait on <sens>` of a desugared concurrent
/// statement (or `wait;` forever when there is nothing to wake on).
fn with_final_wait(mut stmts: Vec<VifValue>, sens: Vec<VifValue>) -> Vec<VifValue> {
    stmts.push(VifValue::Node(mk::s_wait(sens, None, None)));
    stmts
}

/// Wraps statements in `if guard then … end if` for guarded assignments.
fn guard_wrap(
    u: &U<'_>,
    guarded: bool,
    stmts: Vec<VifValue>,
    msgs: &mut Msgs,
    pos: Pos,
) -> Vec<VifValue> {
    if !guarded {
        return stmts;
    }
    match u.env.lookup_one("guard") {
        Some(g) if g.node.tag() == Kind::obj => {
            let cond = ir::e_ref(&g.node);
            vec![VifValue::Node(mk::s_if(cond, stmts, vec![]))]
        }
        _ => {
            msgs.push(Msg::error(
                pos,
                "guarded assignment outside a guarded block",
            ));
            stmts
        }
    }
}

/// Collects the distinct signals read by statement IR (the sensitivity of
/// the equivalent process).
fn signals_in_stmts(stmts: &[VifValue]) -> Vec<VifValue> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    fn walk(
        v: &VifValue,
        seen: &mut std::collections::HashSet<String>,
        out: &mut Vec<VifValue>,
        reading: bool,
    ) {
        match v {
            VifValue::Node(n) => {
                if n.tag() == Kind::e_ref {
                    let obj = n.node(Field::obj);
                    if reading && obj.str_field(Field::class) == Some("signal") {
                        let uid = obj.str(Field::uid).to_string();
                        if seen.insert(uid) {
                            out.push(VifValue::Node(Rc::clone(n)));
                        }
                    }
                    return;
                }
                for (fname, fv) in n.fields() {
                    // Assignment targets are written, not read.
                    let child_reading = reading && *fname != Field::target.sym();
                    walk(fv, seen, out, child_reading);
                }
            }
            VifValue::List(l) => {
                for v in l.iter() {
                    walk(v, seen, out, reading);
                }
            }
            _ => {}
        }
    }
    for s in stmts {
        walk(s, &mut seen, &mut out, true);
    }
    out
}

/// Evaluates a generic/port association list against a component's
/// formals. Produces `assoc` nodes `{formal, formal_uid, actual?}`.
fn eval_assocs(
    u: &U<'_>,
    assocs: &Value,
    comp: &Rc<VifNode>,
    formals_field: Field,
    msgs: &mut Msgs,
) -> Vec<VifValue> {
    let formals: Vec<Rc<VifNode>> = comp
        .list_field(formals_field)
        .iter()
        .filter_map(|v| v.as_node().cloned())
        .collect();
    let mut out = Vec::new();
    let mut positional = 0usize;
    for a in assocs.expect_list() {
        let parts = a.expect_list();
        let formal_toks = oof::toks_of(&parts[0]);
        let kind = parts[1].expect_str();
        let actual_toks = oof::toks_of(&parts[2]);
        let pos = actual_toks
            .first()
            .or(formal_toks.first())
            .map(|t| t.pos)
            .unwrap_or_default();
        // Find the formal: by name or position.
        let formal = if formal_toks.is_empty() {
            let f = formals.get(positional).cloned();
            positional += 1;
            f
        } else {
            let fname = formal_toks
                .iter()
                .find(|t| t.kind == vhdl_syntax::TokenKind::Id)
                .map(|t| t.text.to_string());
            match fname {
                Some(fname) => formals.iter().find(|f| f.name() == Some(&fname)).cloned(),
                None => None,
            }
        };
        let Some(formal) = formal else {
            msgs.push(Msg::error(pos, "no matching formal for association"));
            continue;
        };
        let actual = if &*kind != "open" {
            let av = u.ev(&actual_toks, Some(formal.node(Field::ty)));
            *msgs = Msgs::concat(msgs, &av.msgs);
            av.ir
        } else {
            None
        };
        let name = formal.name().unwrap_or_default();
        out.push(VifValue::Node(mk::assoc(
            name,
            formal.str_rc(Field::uid),
            actual,
        )));
    }
    out
}

// ---------------------------------------------------------------------------
// Compilation units.
// ---------------------------------------------------------------------------

fn install_units(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;

    // ----- entity ------------------------------------------------------------
    let pr = p(g, "entity_decl");
    let iface_env = |d: &[Value]| -> (Env, Vec<Rc<VifNode>>, Vec<Rc<VifNode>>, Msgs) {
        let env = d[0].expect_env();
        let ctx = d[1].expect_ctx();
        let u = U {
            env: &env,
            ctx: &ctx,
        };
        let (generics, m1) = oof::resolve_ifaces(&u, &oof::ifaces_of(&d[2]), ObjClass::Constant);
        let (ports, m2) = oof::resolve_ifaces(&u, &oof::ifaces_of(&d[3]), ObjClass::Signal);
        let mut e = env.clone();
        for obj in generics.iter().chain(&ports) {
            if let Some(n) = obj.name() {
                e = e.bind(n, Den::local(Rc::clone(obj)));
            }
        }
        (e, generics, ports, Msgs::concat(&m1, &m2))
    };
    ab.rule(
        pr,
        6,
        c.env,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(4, c.ifaces),
            Dep::attr(5, c.ifaces),
        ],
        move |d| Value::Env(iface_env(d).0),
    );
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(4, c.ifaces),
            Dep::attr(5, c.ifaces),
            Dep::token(2),
            Dep::attr(6, c.decls),
        ],
        move |d| {
            let (_, generics, ports, msgs) = iface_env(d);
            let name = d[4].expect_tok();
            let node = mk::entity(
                name.text,
                d[1].expect_ctx().uids.declared(&name.text, name.pos),
                generics.into_iter().map(VifValue::Node).collect(),
                ports.into_iter().map(VifValue::Node).collect(),
                d[5].node_list(),
                None,
            );
            Value::list(vec![
                Value::list(vec![Value::Node(node)]),
                Value::Msgs(msgs),
            ])
        },
    );
    res_projections(ab, g, &c, "entity_decl", c.units, &[6]);

    // ----- architecture --------------------------------------------------------
    let pr = p(g, "arch_body");
    let arch_env = |d: &[Value]| -> (Env, Option<Rc<VifNode>>, Msgs) {
        let env = d[0].expect_env();
        let ctx = d[1].expect_ctx();
        let toks = oof::toks_of(&d[2]);
        let pos = toks.first().map(|t| t.pos).unwrap_or_default();
        let ename = toks
            .iter()
            .find(|t| t.kind == vhdl_syntax::TokenKind::Id)
            .map(|t| t.text.to_string())
            .unwrap_or_default();
        let entity = match ctx.load_work(&format!("entity.{ename}")) {
            Ok(Some(entity)) => entity,
            Ok(None) => {
                return (
                    env.clone(),
                    None,
                    Msgs::one(Msg::error(
                        pos,
                        format!("entity `{ename}` not found in library work"),
                    )),
                )
            }
            Err(_) => return (env.clone(), None, Msgs::none()),
        };
        let mut e = oof::reimport_ctx(&env, &ctx, &entity);
        for field in [Field::generics, Field::ports, Field::decls] {
            for n in entity.nodes(field) {
                e = oof::bind_decl(&e, n);
            }
        }
        (e, Some(entity), Msgs::none())
    };
    ab.rule(
        pr,
        6,
        c.env,
        vec![Dep::attr(0, c.env), Dep::attr(0, c.ctx), Dep::leaves(4)],
        move |d| Value::Env(arch_env(d).0),
    );
    ab.rule(pr, 8, c.env, vec![Dep::attr(6, c.envo)], |d| d[0].clone());
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::leaves(4),
            Dep::token(2),
            Dep::attr(6, c.decls),
            Dep::attr(6, c.cfgs),
            Dep::attr(8, c.concs),
            Dep::attr(6, c.msgs),
            Dep::attr(8, c.msgs),
        ],
        move |d| {
            let (_, entity, msgs) = arch_env(d);
            let name = d[3].expect_tok();
            // Without its entity the body's names resolve against no
            // ports or generics: report only the entity's fault.
            let Some(entity) = entity else {
                return Value::list(vec![Value::empty_list(), Value::Msgs(msgs)]);
            };
            let msgs = Msgs::concat(&Msgs::concat(&msgs, d[7].as_msgs()), d[8].as_msgs());
            let ename = entity.name().unwrap_or("?").to_string();
            let node = mk::arch(
                name.text,
                d[1].expect_ctx().uids.declared(&name.text, name.pos),
                ename.as_str(),
                format!("work.entity.{ename}"),
                d[4].node_list(),
                to_list(&d[5]),
                d[6].node_list(),
                None,
            );
            Value::list(vec![
                Value::list(vec![Value::Node(node)]),
                Value::Msgs(msgs),
            ])
        },
    );
    res_projections(ab, g, &c, "arch_body", c.units, &[]);

    // ----- packages -------------------------------------------------------------
    let pr = p(g, "pkg_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![Dep::attr(0, c.ctx), Dep::token(2), Dep::attr(4, c.decls)],
        |d| {
            let name = d[1].expect_tok();
            let uid = d[0].expect_ctx().uids.declared(&name.text, name.pos);
            let node = mk::pkg(name.text, uid, d[2].node_list(), None);
            Value::list(vec![
                Value::list(vec![Value::Node(node)]),
                Value::Msgs(Msgs::none()),
            ])
        },
    );
    res_projections(ab, g, &c, "pkg_decl", c.units, &[4]);

    let pr = p(g, "pkg_body");
    let body_env = |d: &[Value]| -> (Env, Msgs) {
        let env = d[0].expect_env();
        let ctx = d[1].expect_ctx();
        let name = d[2].expect_tok();
        let spec = match ctx.load_work(&format!("pkg.{}", name.text)) {
            Ok(Some(spec)) => spec,
            Ok(None) => {
                return (
                    env.clone(),
                    Msgs::one(Msg::error(
                        name.pos,
                        format!("package `{}` not found for its body", name.text),
                    )),
                )
            }
            Err(_) => return (env.clone(), Msgs::none()),
        };
        let mut e = oof::reimport_ctx(&env, &ctx, &spec);
        for n in spec.nodes(Field::decls) {
            e = oof::bind_decl(&e, n);
        }
        (e, Msgs::none())
    };
    ab.rule(
        pr,
        5,
        c.env,
        vec![Dep::attr(0, c.env), Dep::attr(0, c.ctx), Dep::token(3)],
        move |d| Value::Env(body_env(d).0),
    );
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(3),
            Dep::attr(5, c.decls),
        ],
        move |d| {
            let (_, msgs) = body_env(d);
            let name = d[2].expect_tok();
            let uid = d[1].expect_ctx().uids.declared(&name.text, name.pos);
            let node = mk::pkgbody(name.text, uid, d[3].node_list(), None);
            Value::list(vec![
                Value::list(vec![Value::Node(node)]),
                Value::Msgs(msgs),
            ])
        },
    );
    res_projections(ab, g, &c, "pkg_body", c.units, &[5]);

    // ----- configuration ---------------------------------------------------------
    let pr = p(g, "config_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::leaves(4),
            Dep::attr(6, c.info),
        ],
        |d| {
            with_u!(d, u, {
                let mut msgs = Msgs::none();
                let name = d[2].expect_tok();
                let etoks = oof::toks_of(&d[3]);
                let ename = etoks
                    .iter()
                    .find(|t| t.kind == vhdl_syntax::TokenKind::Id)
                    .map(|t| t.text.to_string())
                    .unwrap_or_default();
                // Configuration processing reads (and traverses) the big
                // foreign structures — the §2.2 footnote-3 cost.
                let entity = u.ctx.load_work(&format!("entity.{ename}"));
                if matches!(entity, Ok(None)) {
                    msgs.push(Msg::error(
                        name.pos,
                        format!("entity `{ename}` not found in library work"),
                    ));
                }
                let info = d[4].expect_list();
                let arch_name = info[0].expect_tok().text.to_string();
                let arch = u.ctx.load_work(&format!("arch.{ename}.{arch_name}"));
                if matches!(arch, Ok(None)) {
                    msgs.push(Msg::error(
                        name.pos,
                        format!("architecture `{arch_name}` of `{ename}` not found"),
                    ));
                }
                // Touch the architecture's structure (traversal cost).
                if let Ok(Some(a)) = &arch {
                    let _ = a.reachable_size();
                }
                let bindings: Vec<VifValue> = info[1]
                    .expect_list()
                    .iter()
                    .map(|b| {
                        let parts = b.expect_list();
                        let insts = &parts[0];
                        let comp_toks = oof::toks_of(&parts[1]);
                        let comp_name = comp_toks
                            .iter()
                            .find(|t| t.kind == vhdl_syntax::TokenKind::Id)
                            .map(|t| t.text.to_string())
                            .unwrap_or_default();
                        // Processing a binding reads the bound entity and
                        // architecture into memory and traverses them — the
                        // dominant cost of configuration units (§2.2 fn.3).
                        let binfo = parts[2].expect_list();
                        if binfo.first().map(|v| v.expect_str()).as_deref() == Some("entity") {
                            let bname = oof::toks_of(&binfo[1])
                                .iter()
                                .rfind(|t| {
                                    t.kind == vhdl_syntax::TokenKind::Id && &*t.text != "work"
                                })
                                .map(|t| t.text.to_string())
                                .unwrap_or_default();
                            if let Some(be) =
                                u.ctx.loader.load_unit("work", &format!("entity.{bname}"))
                            {
                                let _ = be.reachable_size();
                            }
                            let barch = binfo[2].expect_str();
                            let barch = if barch.is_empty() {
                                u.ctx.loader.latest_architecture(&bname).unwrap_or_default()
                            } else {
                                barch.to_string()
                            };
                            if let Some(ba) = u
                                .ctx
                                .loader
                                .load_unit("work", &format!("arch.{bname}.{barch}"))
                            {
                                let _ = ba.reachable_size();
                            }
                        }
                        VifValue::Node(mk::cfgbind(
                            comp_name.as_str(),
                            to_list(insts),
                            to_list(&parts[2]),
                        ))
                    })
                    .collect();
                let node = mk::config(
                    name.text,
                    u.ctx.uids.declared(&name.text, name.pos),
                    ename.as_str(),
                    arch_name.as_str(),
                    bindings,
                    None,
                );
                Value::list(vec![
                    Value::list(vec![Value::Node(node)]),
                    Value::Msgs(msgs),
                ])
            })
        },
    );
    res_projections(ab, g, &c, "config_decl", c.units, &[]);
}

/// Converts a structural `Value` into a VIF value for storage.
fn to_vif(v: Value) -> VifValue {
    match v {
        Value::Unit => VifValue::Nil,
        Value::Bool(b) => VifValue::Bool(b),
        Value::Int(i) => VifValue::Int(i),
        Value::Str(s) => VifValue::Str(s),
        Value::Node(n) => VifValue::Node(n),
        Value::Tok(t) => VifValue::Str(t.text.into()),
        v @ (Value::List(_) | Value::Cat(_)) => VifValue::list(to_list(&v)),
        other => VifValue::Str(format!("{other:?}").into()),
    }
}

/// A list value's items as VIF values.
fn to_list(v: &Value) -> Vec<VifValue> {
    v.expect_list().iter().cloned().map(to_vif).collect()
}
