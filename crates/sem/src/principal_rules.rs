//! Explicit semantic rules of the principal AG — part 1: structural
//! descriptors, environment chains, and declarations. Part 2
//! (statements, concurrent statements, compilation units) lives in
//! [`crate::principal_rules2`].

use std::rc::Rc;

use ag_core::{AgBuilder, Dep};
use ag_lalr::{Grammar, ProdId};
use vhdl_vif::{mk, Field, Kind, VifNode, VifValue};

use crate::decl::{self, ObjClass};
use crate::env::Env;
use crate::ir;
use crate::msg::{Msg, Msgs};
use crate::oof::{self, DeclOut, U};
use crate::principal_ag::PrincipalClasses;
use crate::principal_rules2;
use crate::standard::implicit_decls;
use crate::types;
use crate::value::Value;

pub(crate) fn p(g: &Grammar, label: &str) -> ProdId {
    g.prod_by_label(label)
        .unwrap_or_else(|| panic!("missing production {label}"))
}

/// Decodes `[Env, List(decls), Msgs]` (a `DeclOut` bundle).
fn res_env(v: &Value) -> Env {
    v.expect_list()[0].expect_env()
}

fn res_decls(v: &Value) -> Vec<Value> {
    v.expect_list()[1].expect_list().to_vec()
}

fn res_msgs(v: &Value) -> Value {
    v.expect_list()[2].clone()
}

/// Builds a `U` bundle from the conventional first two rule args
/// (`(0,ENV)`, `(0,CTX)`).
macro_rules! with_u {
    ($d:ident, $u:ident, $body:expr) => {{
        let env = $d[0].expect_env();
        let ctx = $d[1].expect_ctx();
        let $u = U {
            env: &env,
            ctx: &ctx,
        };
        $body
    }};
}
pub(crate) use with_u;

/// Installs every explicit rule.
pub(crate) fn install(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    install_structurals(ab, g, c);
    install_context(ab, g, c);
    install_decls(ab, g, c);
    principal_rules2::install(ab, g, c);
}

// ---------------------------------------------------------------------------
// Structural descriptors (INFO and friends).
// ---------------------------------------------------------------------------

fn install_structurals(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;
    let str_info = |ab: &mut AgBuilder<Value>, label: &str, s: &'static str| {
        ab.rule(p(g, label), 0, c.info, vec![], move |_| {
            Value::Str(s.into())
        });
    };
    // Identifier lists.
    ab.rule(p(g, "ids_one"), 0, c.ids, vec![Dep::token(1)], |d| {
        Value::list(vec![d[0].clone()])
    });
    ab.rule(
        p(g, "ids_more"),
        0,
        c.ids,
        vec![Dep::attr(1, c.ids), Dep::token(3)],
        |d| Value::append(&d[0], d[1].clone()),
    );
    for label in ["enum_id", "enum_char"] {
        ab.rule(p(g, label), 0, c.ids, vec![Dep::token(1)], |d| {
            Value::list(vec![d[0].clone()])
        });
    }
    // name_list → NAMES (per-name token bundles).
    ab.rule(p(g, "names_one"), 0, c.names, vec![Dep::leaves(1)], |d| {
        Value::list(vec![d[0].clone()])
    });
    ab.rule(
        p(g, "names_more"),
        0,
        c.names,
        vec![Dep::attr(1, c.names), Dep::leaves(3)],
        |d| Value::append(&d[0], d[1].clone()),
    );
    // Small option INFO values.
    str_info(ab, "ifc_none", "");
    str_info(ab, "ifc_constant", "constant");
    str_info(ab, "ifc_signal", "signal");
    str_info(ab, "ifc_variable", "variable");
    str_info(ab, "mode_none", "");
    str_info(ab, "mode_in", "in");
    str_info(ab, "mode_out", "out");
    str_info(ab, "mode_inout", "inout");
    str_info(ab, "mode_buffer", "buffer");
    str_info(ab, "mode_linkage", "linkage");
    str_info(ab, "skind_none", "");
    str_info(ab, "skind_register", "register");
    str_info(ab, "skind_bus", "bus");
    ab.rule(p(g, "bus_none"), 0, c.info, vec![], |_| Value::Bool(false));
    ab.rule(p(g, "bus_some"), 0, c.info, vec![], |_| Value::Bool(true));
    ab.rule(p(g, "tr_none"), 0, c.info, vec![], |_| Value::Bool(false));
    ab.rule(p(g, "tr_some"), 0, c.info, vec![], |_| Value::Bool(true));
    for (label, guarded, transport) in [
        ("opt_none", false, false),
        ("opt_guarded", true, false),
        ("opt_transport", false, true),
        ("opt_guarded_transport", true, true),
    ] {
        ab.rule(p(g, label), 0, c.info, vec![], move |_| {
            Value::list(vec![Value::Bool(guarded), Value::Bool(transport)])
        });
    }
    // Optional token-run wrappers: INFO = token list (empty when absent).
    for (none_label, some_label, run_occ) in [
        ("dflt_none", "dflt_some", 2usize),
        ("until_none", "until_some", 2),
        ("tfor_none", "tfor_some", 2),
        ("report_none", "report_some", 2),
        ("sev_none", "sev_some", 2),
        ("when_none", "when_some", 2),
        ("guard_none", "guard_some", 2),
    ] {
        ab.rule(p(g, none_label), 0, c.info, vec![], |_| Value::empty_list());
        ab.rule(
            p(g, some_label),
            0,
            c.info,
            vec![Dep::leaves(run_occ)],
            |d| d[0].clone(),
        );
    }
    // Sensitivity / wait-on name lists.
    ab.rule(p(g, "sens_none"), 0, c.info, vec![], |_| {
        Value::empty_list()
    });
    ab.rule(
        p(g, "sens_some"),
        0,
        c.info,
        vec![Dep::attr(2, c.names)],
        |d| d[0].clone(),
    );
    ab.rule(p(g, "on_none"), 0, c.info, vec![], |_| Value::empty_list());
    ab.rule(
        p(g, "on_some"),
        0,
        c.info,
        vec![Dep::attr(2, c.names)],
        |d| d[0].clone(),
    );
    // Labels / designators.
    ab.rule(p(g, "lblo_none"), 0, c.info, vec![], |_| Value::Unit);
    ab.rule(p(g, "lblo_id"), 0, c.info, vec![Dep::token(1)], |d| {
        d[0].clone()
    });
    ab.rule(p(g, "desigo_none"), 0, c.info, vec![], |_| Value::Unit);
    for label in ["desigo_id", "desigo_op"] {
        ab.rule(p(g, label), 0, c.info, vec![Dep::token(1)], |d| {
            d[0].clone()
        });
    }
    for label in ["desig_id", "desig_op"] {
        ab.rule(p(g, label), 0, c.info, vec![Dep::token(1)], |d| {
            d[0].clone()
        });
    }
    // Architecture indication.
    ab.rule(p(g, "archind_none"), 0, c.info, vec![], |_| {
        Value::Str("".into())
    });
    ab.rule(p(g, "archind_some"), 0, c.info, vec![Dep::token(2)], |d| {
        Value::Str(d[0].expect_tok().text.to_string().into())
    });
    // Instantiation / entity-name lists.
    for (label, tag) in [
        ("insts_others", "others"),
        ("insts_all", "all"),
        ("enl_others", "others"),
        ("enl_all", "all"),
    ] {
        ab.rule(p(g, label), 0, c.info, vec![], move |_| {
            Value::list(vec![Value::Str(tag.into()), Value::empty_list()])
        });
    }
    for label in ["insts_ids", "enl_ids"] {
        ab.rule(p(g, label), 0, c.info, vec![Dep::attr(1, c.ids)], |d| {
            Value::list(vec![Value::Str("ids".into()), d[0].clone()])
        });
    }
    for (label, kw) in [
        ("ec_entity", "entity"),
        ("ec_architecture", "architecture"),
        ("ec_configuration", "configuration"),
        ("ec_procedure", "procedure"),
        ("ec_function", "function"),
        ("ec_package", "package"),
        ("ec_type", "type"),
        ("ec_subtype", "subtype"),
        ("ec_constant", "constant"),
        ("ec_signal", "signal"),
        ("ec_variable", "variable"),
        ("ec_component", "component"),
    ] {
        str_info(ab, label, kw);
    }
    // Subtype indications.
    ab.rule(p(g, "sti_plain"), 0, c.sti, vec![Dep::leaves(1)], |d| {
        Value::list(vec![
            d[0].clone(),
            Value::empty_list(),
            Value::Str("name".into()),
            Value::empty_list(),
        ])
    });
    ab.rule(
        p(g, "sti_resolved"),
        0,
        c.sti,
        vec![Dep::leaves(1), Dep::leaves(2)],
        |d| {
            Value::list(vec![
                d[1].clone(),
                d[0].clone(),
                Value::Str("name".into()),
                Value::empty_list(),
            ])
        },
    );
    ab.rule(
        p(g, "sti_range"),
        0,
        c.sti,
        vec![Dep::leaves(1), Dep::leaves(3)],
        |d| {
            Value::list(vec![
                d[0].clone(),
                Value::empty_list(),
                Value::Str("range".into()),
                d[1].clone(),
            ])
        },
    );
    // Interface elements.
    ab.rule(
        p(g, "iface_elem"),
        0,
        c.ifaces,
        vec![
            Dep::attr(1, c.info),
            Dep::attr(2, c.ids),
            Dep::attr(4, c.info),
            Dep::attr(5, c.sti),
            Dep::attr(6, c.info),
            Dep::attr(7, c.info),
        ],
        |d| {
            Value::list(vec![Value::list(vec![
                d[0].clone(),
                d[1].clone(),
                d[2].clone(),
                d[3].clone(),
                d[4].clone(),
                d[5].clone(),
            ])])
        },
    );
    // Type definitions.
    ab.rule(p(g, "td_enum"), 0, c.info, vec![Dep::attr(2, c.ids)], |d| {
        Value::list(vec![Value::Str("enum".into()), d[0].clone()])
    });
    ab.rule(
        p(g, "td_range"),
        0,
        c.info,
        vec![Dep::leaves(2), Dep::attr(3, c.info)],
        |d| Value::list(vec![Value::Str("range".into()), d[0].clone(), d[1].clone()]),
    );
    ab.rule(
        p(g, "td_array"),
        0,
        c.info,
        vec![Dep::leaves(3), Dep::attr(6, c.sti)],
        |d| Value::list(vec![Value::Str("array".into()), d[0].clone(), d[1].clone()]),
    );
    ab.rule(
        p(g, "td_record"),
        0,
        c.info,
        vec![Dep::attr(2, c.items)],
        |d| Value::list(vec![Value::Str("record".into()), d[0].clone()]),
    );
    ab.rule(p(g, "phys_none"), 0, c.info, vec![], |_| Value::Unit);
    ab.rule(
        p(g, "phys_some"),
        0,
        c.info,
        vec![Dep::token(2), Dep::attr(4, c.items)],
        |d| Value::list(vec![d[0].clone(), d[1].clone()]),
    );
    ab.rule(
        p(g, "secu"),
        0,
        c.items,
        vec![Dep::token(1), Dep::leaves(3)],
        |d| Value::list(vec![Value::list(vec![d[0].clone(), d[1].clone()])]),
    );
    ab.rule(
        p(g, "elem_decl"),
        0,
        c.items,
        vec![Dep::attr(1, c.ids), Dep::attr(3, c.sti)],
        |d| Value::list(vec![Value::list(vec![d[0].clone(), d[1].clone()])]),
    );
    // Subprogram specs.
    ab.rule(
        p(g, "spec_proc"),
        0,
        c.info,
        vec![Dep::attr(2, c.info), Dep::attr(3, c.ifaces)],
        |d| {
            Value::list(vec![
                Value::Str("proc".into()),
                d[0].clone(),
                d[1].clone(),
                Value::empty_list(),
            ])
        },
    );
    ab.rule(
        p(g, "spec_func"),
        0,
        c.info,
        vec![Dep::attr(2, c.info), Dep::attr(3, c.ifaces), Dep::leaves(5)],
        |d| {
            Value::list(vec![
                Value::Str("func".into()),
                d[0].clone(),
                d[1].clone(),
                d[2].clone(),
            ])
        },
    );
    // Loop heads.
    ab.rule(p(g, "lh_forever"), 0, c.info, vec![], |_| {
        Value::list(vec![Value::Str("forever".into())])
    });
    ab.rule(p(g, "lh_while"), 0, c.info, vec![Dep::leaves(2)], |d| {
        Value::list(vec![Value::Str("while".into()), d[0].clone()])
    });
    ab.rule(
        p(g, "lh_for"),
        0,
        c.info,
        vec![Dep::token(2), Dep::leaves(4)],
        |d| Value::list(vec![Value::Str("for".into()), d[0].clone(), d[1].clone()]),
    );
    // Waveforms.
    ab.rule(p(g, "we_plain"), 0, c.waves, vec![Dep::leaves(1)], |d| {
        Value::list(vec![Value::list(vec![d[0].clone(), Value::empty_list()])])
    });
    ab.rule(
        p(g, "we_after"),
        0,
        c.waves,
        vec![Dep::leaves(1), Dep::leaves(3)],
        |d| Value::list(vec![Value::list(vec![d[0].clone(), d[1].clone()])]),
    );
    ab.rule(
        p(g, "cwf_last"),
        0,
        c.cwaves,
        vec![Dep::attr(1, c.waves)],
        |d| Value::list(vec![Value::list(vec![d[0].clone(), Value::empty_list()])]),
    );
    ab.rule(
        p(g, "cwf_cond"),
        0,
        c.cwaves,
        vec![
            Dep::attr(1, c.waves),
            Dep::leaves(3),
            Dep::attr(5, c.cwaves),
        ],
        |d| {
            let mut out = vec![Value::list(vec![d[0].clone(), d[1].clone()])];
            out.extend(d[2].expect_list().iter().cloned());
            Value::list(out)
        },
    );
    ab.rule(
        p(g, "swf_one"),
        0,
        c.swaves,
        vec![Dep::attr(1, c.waves), Dep::attr(3, c.choices)],
        |d| Value::list(vec![Value::list(vec![d[0].clone(), d[1].clone()])]),
    );
    ab.rule(
        p(g, "swf_more"),
        0,
        c.swaves,
        vec![
            Dep::attr(1, c.swaves),
            Dep::attr(3, c.waves),
            Dep::attr(5, c.choices),
        ],
        |d| Value::append(&d[0], Value::list(vec![d[1].clone(), d[2].clone()])),
    );
    // Choices.
    ab.rule(
        p(g, "choice_expr"),
        0,
        c.choices,
        vec![Dep::leaves(1)],
        |d| {
            Value::list(vec![Value::list(vec![
                Value::Str("e".into()),
                d[0].clone(),
            ])])
        },
    );
    ab.rule(p(g, "choice_others"), 0, c.choices, vec![], |_| {
        Value::list(vec![Value::list(vec![
            Value::Str("others".into()),
            Value::empty_list(),
        ])])
    });
    // Associations.
    ab.rule(p(g, "assoc_pos"), 0, c.assocs, vec![Dep::leaves(1)], |d| {
        Value::list(vec![Value::list(vec![
            Value::empty_list(),
            Value::Str("expr".into()),
            d[0].clone(),
        ])])
    });
    ab.rule(
        p(g, "assoc_named"),
        0,
        c.assocs,
        vec![Dep::leaves(1), Dep::leaves(3)],
        |d| {
            Value::list(vec![Value::list(vec![
                d[0].clone(),
                Value::Str("expr".into()),
                d[1].clone(),
            ])])
        },
    );
    ab.rule(p(g, "assoc_open"), 0, c.assocs, vec![Dep::leaves(1)], |d| {
        Value::list(vec![Value::list(vec![
            d[0].clone(),
            Value::Str("open".into()),
            Value::empty_list(),
        ])])
    });
    ab.rule(p(g, "assoc_pos_open"), 0, c.assocs, vec![], |_| {
        Value::list(vec![Value::list(vec![
            Value::empty_list(),
            Value::Str("open".into()),
            Value::empty_list(),
        ])])
    });
    // Map aspects bundle.
    ab.rule(
        p(g, "map_aspects"),
        0,
        c.info,
        vec![Dep::attr(1, c.assocs), Dep::attr(2, c.assocs)],
        |d| Value::list(vec![d[0].clone(), d[1].clone()]),
    );
    // Bindings.
    ab.rule(
        p(g, "bind_entity"),
        0,
        c.info,
        vec![Dep::leaves(3), Dep::attr(4, c.info), Dep::attr(5, c.info)],
        |d| {
            Value::list(vec![
                Value::Str("entity".into()),
                d[0].clone(),
                d[1].clone(),
                d[2].clone(),
            ])
        },
    );
    ab.rule(
        p(g, "bind_config"),
        0,
        c.info,
        vec![Dep::leaves(3), Dep::attr(4, c.info)],
        |d| {
            Value::list(vec![
                Value::Str("config".into()),
                d[0].clone(),
                Value::Str("".into()),
                d[1].clone(),
            ])
        },
    );
    ab.rule(p(g, "bind_open"), 0, c.info, vec![], |_| {
        Value::list(vec![Value::Str("open".into())])
    });
    ab.rule(p(g, "compbind_none"), 0, c.info, vec![], |_| {
        Value::list(vec![Value::Str("default".into())])
    });
    // Block configurations.
    ab.rule(
        p(g, "block_config"),
        0,
        c.info,
        vec![Dep::token(2), Dep::attr(3, c.items)],
        |d| Value::list(vec![d[0].clone(), d[1].clone()]),
    );
    ab.rule(
        p(g, "comp_config"),
        0,
        c.items,
        vec![Dep::attr(2, c.info), Dep::leaves(4), Dep::attr(5, c.info)],
        |d| {
            Value::list(vec![Value::list(vec![
                d[0].clone(),
                d[1].clone(),
                d[2].clone(),
            ])])
        },
    );
    // If tails.
    ab.rule(p(g, "ift_end"), 0, c.info, vec![], |_| {
        Value::list(vec![Value::empty_list(), Value::empty_list()])
    });
    ab.rule(
        p(g, "ift_else"),
        0,
        c.info,
        vec![Dep::attr(2, c.stmts)],
        |d| Value::list(vec![Value::empty_list(), d[0].clone()]),
    );
    ab.rule(
        p(g, "ift_elsif"),
        0,
        c.info,
        vec![Dep::leaves(2), Dep::attr(4, c.stmts), Dep::attr(5, c.info)],
        |d| {
            let inner = d[2].expect_list();
            let mut arms = vec![Value::list(vec![d[0].clone(), d[1].clone()])];
            arms.extend(inner[0].expect_list().iter().cloned());
            Value::list(vec![Value::list(arms), inner[1].clone()])
        },
    );
}

// ---------------------------------------------------------------------------
// Context clauses & environment chaining.
// ---------------------------------------------------------------------------

fn install_context(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;
    // context_items chain.
    ab.rule(
        p(g, "ctxs_one"),
        0,
        c.envo,
        vec![Dep::attr(1, c.envo)],
        |d| d[0].clone(),
    );
    ab.rule(
        p(g, "ctxs_more"),
        2,
        c.env,
        vec![Dep::attr(1, c.envo)],
        |d| d[0].clone(),
    );
    ab.rule(
        p(g, "ctxs_more"),
        0,
        c.envo,
        vec![Dep::attr(2, c.envo)],
        |d| d[0].clone(),
    );
    // design_unit with context clauses.
    ab.rule(p(g, "du_ctx"), 2, c.env, vec![Dep::attr(1, c.envo)], |d| {
        d[0].clone()
    });
    // Record the unit's context clauses on the unit node so architectures
    // and package bodies can re-import them (an architecture sees its
    // entity's context).
    ab.rule(
        p(g, "du_ctx"),
        0,
        c.units,
        vec![Dep::attr(1, c.names), Dep::attr(2, c.units)],
        |d| {
            let ctx_entries = d[0]
                .expect_list()
                .iter()
                .map(|e| {
                    let parts = e.expect_list();
                    let mut segs = vec![VifValue::Str(Rc::clone(&parts[0].expect_str()))];
                    for t in parts[1].expect_list() {
                        let tok = t.expect_tok();
                        if tok.kind != vhdl_syntax::TokenKind::Dot {
                            segs.push(VifValue::Str(tok.text.into()));
                        }
                    }
                    VifValue::List(Rc::new(segs))
                })
                .collect();
            let ctx = VifValue::list(ctx_entries);
            let units: Vec<Value> = d[1]
                .expect_list()
                .iter()
                .map(|u| Value::Node(u.expect_node().with_fields([(Field::ctx, ctx.clone())])))
                .collect();
            Value::list(units)
        },
    );
    // library_clause names: each library id becomes a ["lib", id] entry.
    ab.rule(
        p(g, "lib_clause"),
        0,
        c.names,
        vec![Dep::attr(2, c.ids)],
        |d| {
            Value::list(
                d[0].expect_list()
                    .iter()
                    .map(|t| {
                        Value::list(vec![Value::Str("lib".into()), Value::list(vec![t.clone()])])
                    })
                    .collect(),
            )
        },
    );
    // use_clause names: ["use", toks] entries.
    ab.rule(
        p(g, "use_clause"),
        0,
        c.names,
        vec![Dep::attr(2, c.names)],
        |d| {
            Value::list(
                d[0].expect_list()
                    .iter()
                    .map(|toks| Value::list(vec![Value::Str("use".into()), toks.clone()]))
                    .collect(),
            )
        },
    );
    // library_clause: bind library names.
    ab.rule(
        p(g, "lib_clause"),
        0,
        c.envo,
        vec![Dep::attr(0, c.env), Dep::attr(2, c.ids)],
        |d| {
            let mut env = d[0].expect_env();
            for id in d[1].expect_list() {
                let t = id.expect_tok();
                env = env.bind(t.text, crate::env::Den::local(mk::library(t.text)));
            }
            Value::Env(env)
        },
    );
    // use_clause: import names (RES bundle so ENVO/DECLS/MSGS share it).
    ab.rule(
        p(g, "use_clause"),
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(2, c.names),
        ],
        |d| {
            with_u!(d, u, {
                let mut env = u.env.clone();
                let mut all = Vec::new();
                let mut msgs = Msgs::none();
                for name in d[2].expect_list() {
                    let toks = oof::toks_of(name);
                    let (e2, imported, m) = oof::use_import(&u, &toks, &env);
                    env = e2;
                    all.extend(imported);
                    msgs = Msgs::concat(&msgs, &m);
                }
                DeclOut {
                    envo: env,
                    decls: all,
                    msgs,
                }
                .encode()
            })
        },
    );
    ab.rule(
        p(g, "use_clause"),
        0,
        c.envo,
        vec![Dep::attr(0, c.res)],
        |d| Value::Env(res_env(&d[0])),
    );
    // A use clause exports nothing of its own.
    ab.rule(p(g, "use_clause"), 0, c.decls, vec![], |_| {
        Value::empty_list()
    });
    ab.rule(
        p(g, "use_clause"),
        0,
        c.msgs,
        vec![Dep::attr(0, c.res)],
        |d| res_msgs(&d[0]),
    );
}

// ---------------------------------------------------------------------------
// Declarations.
// ---------------------------------------------------------------------------

fn install_decls(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;
    // decl_items chaining.
    ab.rule(
        p(g, "decls_none"),
        0,
        c.envo,
        vec![Dep::attr(0, c.env)],
        |d| d[0].clone(),
    );
    ab.rule(
        p(g, "decls_more"),
        2,
        c.env,
        vec![Dep::attr(1, c.envo)],
        |d| d[0].clone(),
    );
    ab.rule(
        p(g, "decls_more"),
        0,
        c.envo,
        vec![Dep::attr(2, c.envo)],
        |d| d[0].clone(),
    );

    // Helper to wire RES-projection rules for a declaration production.
    let project = |ab: &mut AgBuilder<Value>, pr: ProdId| {
        ab.rule(pr, 0, c.envo, vec![Dep::attr(0, c.res)], |d| {
            Value::Env(res_env(&d[0]))
        });
        ab.rule(pr, 0, c.decls, vec![Dep::attr(0, c.res)], |d| {
            Value::list(res_decls(&d[0]))
        });
        ab.rule(pr, 0, c.msgs, vec![Dep::attr(0, c.res)], |d| {
            res_msgs(&d[0])
        });
    };

    // type_decl.
    let pr = p(g, "type_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::attr(4, c.info),
        ],
        |d| {
            with_u!(d, u, {
                let name = *d[2].expect_tok();
                declare_type(&u, &name, &d[3]).encode()
            })
        },
    );
    project(ab, pr);

    // subtype_decl.
    let pr = p(g, "subtype_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::attr(4, c.sti),
        ],
        |d| {
            with_u!(d, u, {
                let name = *d[2].expect_tok();
                let sti = oof::sti_of(&d[3]);
                let (ty, msgs) = oof::resolve_subtype(&u, &sti);
                match ty {
                    Some(base) => {
                        let uid = u.ctx.uids.declared(&name.text, name.pos);
                        let named = rename_type(&base, &name.text, uid);
                        let envo = u
                            .env
                            .bind(name.text, crate::env::Den::local(Rc::clone(&named)));
                        DeclOut {
                            envo,
                            decls: vec![named],
                            msgs,
                        }
                        .encode()
                    }
                    None => DeclOut {
                        envo: u.env.clone(),
                        decls: vec![],
                        msgs,
                    }
                    .encode(),
                }
            })
        },
    );
    project(ab, pr);

    // Object declarations.
    for (label, class, sti_occ, kind_occ, dflt_occ) in [
        ("constant_decl", ObjClass::Constant, 4usize, 0usize, 5usize),
        ("signal_decl", ObjClass::Signal, 4, 5, 6),
        ("variable_decl", ObjClass::Variable, 4, 0, 5),
    ] {
        let pr = p(g, label);
        let mut deps = vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(2, c.ids),
            Dep::attr(sti_occ, c.sti),
            Dep::attr(dflt_occ, c.info),
        ];
        if kind_occ != 0 {
            deps.push(Dep::attr(kind_occ, c.info));
        }
        ab.rule(pr, 0, c.res, deps, move |d| {
            with_u!(d, u, {
                let ids = d[2].expect_list().to_vec();
                let sti = oof::sti_of(&d[3]);
                let dflt = oof::toks_of(&d[4]);
                let kind = d.get(5).map(|v| v.expect_str().to_string());
                declare_objects(&u, class, &ids, &sti, &dflt, kind.as_deref()).encode()
            })
        });
        project(ab, pr);
    }

    // alias_decl: rename an existing object.
    let pr = p(g, "alias_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::leaves(6),
        ],
        |d| {
            with_u!(d, u, {
                let name = *d[2].expect_tok();
                let target_toks = oof::toks_of(&d[3]);
                match u.resolve_name(&target_toks) {
                    Ok(dens) => {
                        let uid = u.ctx.uids.declared(&name.text, name.pos);
                        let alias = mk::alias(name.text, uid, Rc::clone(&dens[0]));
                        DeclOut {
                            envo: u
                                .env
                                .bind(name.text, crate::env::Den::local(Rc::clone(&alias))),
                            decls: vec![alias],
                            msgs: Msgs::none(),
                        }
                        .encode()
                    }
                    Err(m) => DeclOut::err(u.env, m).encode(),
                }
            })
        },
    );
    project(ab, pr);

    // attribute_decl.
    let pr = p(g, "attr_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::leaves(4),
        ],
        |d| {
            with_u!(d, u, {
                let name = *d[2].expect_tok();
                let mark = oof::toks_of(&d[3]);
                match u.resolve_name(&mark) {
                    Ok(dens) if vhdl_vif::kinds::is_ty(dens[0].kind_sym()) => {
                        let uid = u.ctx.uids.declared(&name.text, name.pos);
                        let ad = mk::attrdecl(name.text, uid, Rc::clone(&dens[0]));
                        DeclOut {
                            envo: u
                                .env
                                .bind(name.text, crate::env::Den::local(Rc::clone(&ad))),
                            decls: vec![ad],
                            msgs: Msgs::none(),
                        }
                        .encode()
                    }
                    Ok(_) => {
                        DeclOut::err(u.env, Msg::error(name.pos, "attribute mark is not a type"))
                            .encode()
                    }
                    Err(m) => DeclOut::err(u.env, m).encode(),
                }
            })
        },
    );
    project(ab, pr);

    // attribute_spec: bind attr$<uid>$<name> keys.
    let pr = p(g, "attr_spec");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::attr(4, c.info),
            Dep::leaves(8),
        ],
        |d| {
            with_u!(d, u, {
                let aname = *d[2].expect_tok();
                let enl = d[3].expect_list();
                let toks = oof::toks_of(&d[4]);
                // The attribute's declared type.
                let Some(adecl) = u
                    .env
                    .lookup_one(aname.text)
                    .filter(|den| den.node.tag() == Kind::attrdecl)
                else {
                    return DeclOut::err(
                        u.env,
                        Msg::error(aname.pos, format!("`{}` is not an attribute", aname.text)),
                    )
                    .encode();
                };
                let aty = Rc::clone(adecl.node.node(Field::ty));
                let a = u.ev(&toks, Some(&aty));
                let mut msgs = a.msgs.clone();
                let Some(value) = a.ir else {
                    return DeclOut {
                        envo: u.env.clone(),
                        decls: vec![],
                        msgs,
                    }
                    .encode();
                };
                let mut env = u.env.clone();
                let mut decls = Vec::new();
                if &*enl[0].expect_str() == "ids" {
                    for id in enl[1].expect_list() {
                        let t = id.expect_tok();
                        match u.env.lookup_one(t.text) {
                            Some(target) => {
                                let uid = target.node.str_field(Field::uid).unwrap_or("?");
                                let key = crate::uid::attr_key(uid, &aname.text);
                                let spec =
                                    mk::attrspec(key.as_str(), Rc::clone(&aty), Rc::clone(&value));
                                env = env.bind(&key, crate::env::Den::local(Rc::clone(&spec)));
                                decls.push(spec);
                            }
                            None => msgs
                                .push(Msg::error(t.pos, format!("`{}` is not declared", t.text))),
                        }
                    }
                }
                DeclOut {
                    envo: env,
                    decls,
                    msgs,
                }
                .encode()
            })
        },
    );
    project(ab, pr);

    // component_decl.
    let pr = p(g, "component_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::token(2),
            Dep::attr(3, c.ifaces),
            Dep::attr(4, c.ifaces),
        ],
        |d| {
            with_u!(d, u, {
                let name = *d[2].expect_tok();
                let (generics, m1) =
                    oof::resolve_ifaces(&u, &oof::ifaces_of(&d[3]), ObjClass::Constant);
                let (ports, m2) = oof::resolve_ifaces(&u, &oof::ifaces_of(&d[4]), ObjClass::Signal);
                let node = mk::component(
                    name.text,
                    u.ctx.uids.declared(&name.text, name.pos),
                    generics.into_iter().map(VifValue::Node).collect(),
                    ports.into_iter().map(VifValue::Node).collect(),
                );
                DeclOut {
                    envo: u
                        .env
                        .bind(name.text, crate::env::Den::local(Rc::clone(&node))),
                    decls: vec![node],
                    msgs: Msgs::concat(&m1, &m2),
                }
                .encode()
            })
        },
    );
    project(ab, pr);

    // subprogram_decl (spec only).
    let pr = p(g, "subprog_decl");
    ab.rule(
        pr,
        0,
        c.res,
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(1, c.info),
        ],
        |d| {
            with_u!(d, u, {
                let (node, msgs) = oof::spec_subprog(&u, &d[2]);
                match node {
                    Some(node) => DeclOut {
                        envo: u.env.bind(
                            node.name().unwrap_or("?"),
                            crate::env::Den::local(Rc::clone(&node)),
                        ),
                        decls: vec![node],
                        msgs,
                    }
                    .encode(),
                    None => DeclOut {
                        envo: u.env.clone(),
                        decls: vec![],
                        msgs,
                    }
                    .encode(),
                }
            })
        },
    );
    project(ab, pr);

    // subprogram_body.
    install_subprogram_body(ab, g, &c);

    // config_spec: recorded for the architecture.
    let pr = p(g, "config_spec");
    ab.rule(pr, 0, c.res, vec![Dep::attr(0, c.env)], |d| {
        DeclOut {
            envo: d[0].expect_env(),
            decls: vec![],
            msgs: Msgs::none(),
        }
        .encode()
    });
    ab.rule(
        pr,
        0,
        c.cfgs,
        vec![Dep::attr(2, c.info), Dep::leaves(4), Dep::attr(5, c.info)],
        |d| {
            Value::list(vec![Value::list(vec![
                d[0].clone(),
                d[1].clone(),
                d[2].clone(),
            ])])
        },
    );
    project(ab, pr);
}

fn install_subprogram_body(ab: &mut AgBuilder<Value>, g: &Grammar, c: &PrincipalClasses) {
    let c = *c;
    let pr = p(g, "subprog_body");
    // Environment for the local declarations: outer + the subprogram (for
    // recursion) + its parameters.
    let inner_env = |d: &[Value]| -> (Env, Option<Rc<VifNode>>, Msgs) {
        let env = d[0].expect_env();
        let ctx = d[1].expect_ctx();
        let u = U {
            env: &env,
            ctx: &ctx,
        };
        let (fresh, msgs) = oof::spec_subprog(&u, &d[2]);
        let Some(fresh) = fresh else {
            return (env.clone(), None, msgs);
        };
        // Reuse a previously declared spec (same uids) when one matches.
        let node = oof::find_spec_match(&env, &fresh).unwrap_or(fresh);
        let mut e = env.bind(
            node.name().unwrap_or("?"),
            crate::env::Den::local(Rc::clone(&node)),
        );
        for param in decl::subprog_params(&node) {
            if let Some(n) = param.name() {
                e = e.bind(n, crate::env::Den::local(Rc::clone(&param)));
            }
        }
        (e, Some(node), msgs)
    };
    let base_deps = || {
        vec![
            Dep::attr(0, c.env),
            Dep::attr(0, c.ctx),
            Dep::attr(1, c.info),
        ]
    };
    ab.rule(pr, 3, c.env, base_deps(), move |d| {
        Value::Env(inner_env(d).0)
    });
    ab.rule(pr, 5, c.env, vec![Dep::attr(3, c.envo)], |d| d[0].clone());
    ab.rule(pr, 5, c.ret, base_deps(), move |d| {
        let (_, node, _) = inner_env(d);
        Value::MaybeNode(node.and_then(|n| decl::subprog_ret(&n)))
    });
    for occ in [3usize, 5] {
        ab.rule(pr, occ, c.level, vec![Dep::attr(0, c.level)], |d| {
            Value::Int(d[0].expect_int() + 1)
        });
    }
    {
        let mut deps = base_deps();
        deps.push(Dep::attr(0, c.level));
        deps.push(Dep::attr(3, c.decls));
        deps.push(Dep::attr(5, c.stmts));
        ab.rule(pr, 0, c.res, deps, move |d| {
            let env = d[0].expect_env();
            let (_, node, msgs) = inner_env(d);
            let Some(node) = node else {
                return DeclOut {
                    envo: env.clone(),
                    decls: vec![],
                    msgs,
                }
                .encode();
            };
            let level = d[3].expect_int() + 1;
            let locals = d[4].node_list();
            let body = d[5].node_list();
            let completed = decl::with_body(&node, locals, body, level);
            DeclOut {
                envo: env.bind(
                    completed.name().unwrap_or("?"),
                    crate::env::Den::local(Rc::clone(&completed)),
                ),
                decls: vec![completed],
                msgs,
            }
            .encode()
        });
    }
    ab.rule(pr, 0, c.envo, vec![Dep::attr(0, c.res)], |d| {
        Value::Env(res_env(&d[0]))
    });
    ab.rule(pr, 0, c.decls, vec![Dep::attr(0, c.res)], |d| {
        Value::list(res_decls(&d[0]))
    });
    ab.rule(
        pr,
        0,
        c.msgs,
        vec![
            Dep::attr(0, c.res),
            Dep::attr(3, c.msgs),
            Dep::attr(5, c.msgs),
        ],
        |d| {
            let m = Msgs::concat(d[1].as_msgs(), d[2].as_msgs());
            Value::Msgs(Msgs::concat(res_msgs(&d[0]).as_msgs(), &m))
        },
    );
}

/// Elaborates a type declaration (out-of-line, §2.2).
fn declare_type(u: &U<'_>, name: &vhdl_syntax::SrcTok, td: &Value) -> DeclOut {
    let parts = td.expect_list();
    let tag = parts[0].expect_str();
    let mut msgs = Msgs::none();
    let uid = u.ctx.uids.declared(&name.text, name.pos);
    let ty = match &*tag {
        "enum" => {
            let lits: Vec<String> = parts[1]
                .expect_list()
                .iter()
                .map(|t| {
                    let tk = t.expect_tok();
                    if tk.kind == vhdl_syntax::TokenKind::CharLit {
                        format!("'{}'", tk.text)
                    } else {
                        tk.text.to_string()
                    }
                })
                .collect();
            let refs: Vec<&str> = lits.iter().map(String::as_str).collect();
            Some(types::mk_enum(uid, &name.text, &refs))
        }
        "range" => {
            let toks = oof::toks_of(&parts[1]);
            let a = u.ev(&toks, None);
            msgs = Msgs::concat(&msgs, &a.msgs);
            match a.as_range() {
                Some((l, r, dir)) => match (ir::const_int(&l), ir::const_int(&r)) {
                    (Some(lv), Some(rv)) => {
                        let (lo, hi) = match dir {
                            types::Dir::To => (lv, rv),
                            types::Dir::Downto => (rv, lv),
                        };
                        match &parts[2] {
                            Value::Unit => Some(types::mk_int(uid, &name.text, lo, hi)),
                            phys => {
                                let (ty, m) = declare_phys(uid, name, lo, hi, phys);
                                msgs = Msgs::concat(&msgs, &m);
                                ty
                            }
                        }
                    }
                    _ => {
                        msgs.push(Msg::error(name.pos, "type bounds must be static"));
                        None
                    }
                },
                None => {
                    msgs.push(Msg::error(name.pos, "type definition needs a range"));
                    None
                }
            }
        }
        "array" => {
            let idx_toks = oof::toks_of(&parts[1]);
            let elem_sti = oof::sti_of(&parts[2]);
            let (elem, m) = oof::resolve_subtype(u, &elem_sti);
            msgs = Msgs::concat(&msgs, &m);
            let Some(elem) = elem else {
                return DeclOut {
                    envo: u.env.clone(),
                    decls: vec![],
                    msgs,
                };
            };
            declare_array(u, uid, name, &idx_toks, &elem, &mut msgs)
        }
        "record" => {
            let mut elems: Vec<(String, types::Ty)> = Vec::new();
            for e in parts[1].expect_list() {
                let pair = e.expect_list();
                let sti = oof::sti_of(&pair[1]);
                let (ty, m) = oof::resolve_subtype(u, &sti);
                msgs = Msgs::concat(&msgs, &m);
                if let Some(ty) = ty {
                    for id in pair[0].expect_list() {
                        elems.push((id.expect_tok().text.to_string(), Rc::clone(&ty)));
                    }
                }
            }
            let refs: Vec<(&str, types::Ty)> = elems
                .iter()
                .map(|(n, t)| (n.as_str(), Rc::clone(t)))
                .collect();
            Some(types::mk_record(uid, &name.text, &refs))
        }
        other => {
            msgs.push(Msg::error(name.pos, format!("unknown type form `{other}`")));
            None
        }
    };
    match ty {
        Some(ty) => {
            let std = &u.ctx.std.std;
            let mut decls = vec![Rc::clone(&ty)];
            decls.extend(implicit_decls(&ty, &std.boolean, &std.integer));
            let mut envo = u.env.clone();
            for d in &decls {
                envo = oof::bind_decl(&envo, d);
            }
            DeclOut { envo, decls, msgs }
        }
        None => DeclOut {
            envo: u.env.clone(),
            decls: vec![],
            msgs,
        },
    }
}

fn declare_phys(
    uid: String,
    name: &vhdl_syntax::SrcTok,
    lo: i64,
    hi: i64,
    phys: &Value,
) -> (Option<types::Ty>, Msgs) {
    let mut msgs = Msgs::none();
    let parts = phys.expect_list();
    let primary = parts[0].expect_tok();
    let mut units: Vec<(String, i64)> = vec![(primary.text.to_string(), 1)];
    for secu in parts[1].expect_list() {
        let pair = secu.expect_list();
        let uname = pair[0].expect_tok();
        let toks = oof::toks_of(&pair[1]);
        // Pattern: [int] unit_name — resolved against the units declared so
        // far (`ps = 1000 fs`).
        let (mag, unit_ref) = match toks.len() {
            1 => (1i64, &toks[0]),
            2 => (toks[0].text.parse().unwrap_or(0), &toks[1]),
            _ => {
                msgs.push(Msg::error(
                    uname.pos,
                    "secondary unit must be `[integer] unit_name`",
                ));
                continue;
            }
        };
        match units.iter().find(|(n, _)| n == &*unit_ref.text) {
            Some((_, f)) => units.push((uname.text.to_string(), mag * f)),
            None => msgs.push(Msg::error(
                unit_ref.pos,
                format!("unknown unit `{}`", unit_ref.text),
            )),
        }
    }
    let refs: Vec<(&str, i64)> = units.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    let ty = types::mk_phys(uid, &name.text, lo, hi, &refs);
    (Some(ty), msgs)
}

fn declare_array(
    u: &U<'_>,
    uid: String,
    name: &vhdl_syntax::SrcTok,
    idx_toks: &[vhdl_syntax::SrcTok],
    elem: &types::Ty,
    msgs: &mut Msgs,
) -> Option<types::Ty> {
    use vhdl_syntax::TokenKind;
    // Unconstrained form: `mark range <>`.
    let has_box = idx_toks.iter().any(|t| t.kind == TokenKind::Box);
    if has_box {
        let mark: Vec<vhdl_syntax::SrcTok> = idx_toks
            .iter()
            .take_while(|t| t.kind != TokenKind::KwRange)
            .cloned()
            .collect();
        match u.resolve_name(&mark) {
            Ok(dens) if vhdl_vif::kinds::is_ty(dens[0].kind_sym()) => {
                return Some(types::mk_array_unconstrained(
                    uid, &name.text, &dens[0], elem,
                ))
            }
            Ok(_) => {
                msgs.push(Msg::error(name.pos, "index mark is not a type"));
                return None;
            }
            Err(m) => {
                msgs.push(m);
                return None;
            }
        }
    }
    // Constrained: a discrete range.
    let a = u.ev(idx_toks, None);
    *msgs = Msgs::concat(msgs, &a.msgs);
    match a.as_range() {
        Some((l, r, dir)) => match (ir::const_int(&l), ir::const_int(&r)) {
            (Some(lv), Some(rv)) => {
                let idx_ty = ir::ty_of(&l);
                let idx_ty = if types::is_universal_int(&idx_ty) {
                    Rc::clone(&u.ctx.std.std.integer)
                } else {
                    idx_ty
                };
                Some(types::mk_array(uid, &name.text, &idx_ty, lv, rv, dir, elem))
            }
            _ => {
                msgs.push(Msg::error(name.pos, "array bounds must be static"));
                None
            }
        },
        None => {
            msgs.push(Msg::error(name.pos, "array index must be a range"));
            None
        }
    }
}

fn declare_objects(
    u: &U<'_>,
    class: ObjClass,
    ids: &[Value],
    sti: &oof::StiDesc,
    dflt: &[vhdl_syntax::SrcTok],
    signal_kind: Option<&str>,
) -> DeclOut {
    let (ty, mut msgs) = oof::resolve_subtype(u, sti);
    let Some(ty) = ty else {
        return DeclOut {
            envo: u.env.clone(),
            decls: vec![],
            msgs,
        };
    };
    let init = if dflt.is_empty() {
        None
    } else {
        let a = u.ev(dflt, Some(&ty));
        msgs = Msgs::concat(&msgs, &a.msgs);
        a.ir
    };
    let kind = signal_kind.filter(|k| !k.is_empty());
    let mut env = u.env.clone();
    let mut decls = Vec::new();
    for id in ids {
        let t = id.expect_tok();
        let obj = decl::mk_obj(
            u.ctx.uids.declared(&t.text, t.pos),
            class,
            &t.text,
            &ty,
            decl::Mode::In,
            init.clone(),
            kind,
        );
        env = env.bind(t.text, crate::env::Den::local(Rc::clone(&obj)));
        decls.push(obj);
    }
    DeclOut {
        envo: env,
        decls,
        msgs,
    }
}

/// Names a subtype declaration: a constrained subtype takes the declared
/// name and uid, a plain mark is wrapped in a named subtype of it.
fn rename_type(ty: &types::Ty, name: &str, uid: String) -> types::Ty {
    if ty.tag() != Kind::ty_subtype {
        return types::mk_subtype(uid, name, ty, None, None);
    }
    mk::ty_subtype(
        name,
        uid,
        Rc::clone(ty.node(Field::base)),
        ty.int_field(Field::lo),
        ty.int_field(Field::hi),
        ty.int_field(Field::dir),
        ty.node_field(Field::resolution).cloned(),
    )
}
