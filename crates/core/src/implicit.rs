//! Implicit semantic rule synthesis (paper §4.2).
//!
//! For every production, every *defining occurrence* — a synthesized
//! attribute of the LHS or an inherited attribute of a RHS nonterminal —
//! must have a rule. Occurrences the author left undefined get one of the
//! three implicit rule kinds, "based on whether the attribute is inherited
//! or synthesized and on information supplied in the definition of the
//! class":
//!
//! - **copy rule** `X.A = Y.A` — for an inherited occurrence, copy from the
//!   LHS; for a synthesized occurrence, copy from the single RHS occurrence
//!   of the same class;
//! - **unit rule** `X.A = u` — when no source occurrence exists;
//! - **merge rule** `X.A = m(Y.A, m(W.A, … Z.A)…)` — a fold of the class's
//!   associative merge function over all RHS occurrences.

use ag_lalr::{ProdId, SymbolId};

use crate::attr::{
    AgBuilder, AgError, AttrDir, AttrGrammar, ClassId, Dep, Implicit, Rule, RuleFunc, NO_ENTRY,
};

/// Validates `builder`'s explicit rules, synthesizes implicit rules, and
/// freezes into an [`AttrGrammar`].
pub(crate) fn complete<V: Clone + 'static>(
    builder: AgBuilder<V>,
) -> Result<AttrGrammar<V>, AgError> {
    let AgBuilder {
        grammar,
        classes,
        class_by_name,
        attrs_of,
        mut rules,
        leaf_run,
    } = builder;

    // Slot assignment: position of each (symbol, class) in node attribute
    // vectors, as a dense symbol × class table.
    let n_cls = classes.len();
    let mut slot_tab = vec![NO_ENTRY; grammar.n_symbols() * n_cls];
    for sym in grammar.symbol_ids() {
        for (i, &c) in attrs_of[sym.index()].iter().enumerate() {
            slot_tab[sym.index() * n_cls + c.index()] = dense(i);
        }
        if grammar.is_terminal(sym) && !attrs_of[sym.index()].is_empty() {
            return Err(AgError::AttachToTerminal {
                class: classes[attrs_of[sym.index()][0].index()].name.clone(),
                symbol: grammar.symbol_name(sym).to_string(),
            });
        }
    }

    let has = |sym: SymbolId, c: ClassId| slot_tab[sym.index() * n_cls + c.index()] != NO_ENTRY;
    // The rule index: per production, one row of classes for each
    // occurrence (LHS, then every RHS position).
    let mut rule_base = vec![0u32];
    for p in grammar.prod_ids() {
        rule_base.push(rule_base[p.index()] + ((grammar.rhs(p).len() + 1) * n_cls) as u32);
    }
    let mut rule_tab = vec![NO_ENTRY; rule_base[grammar.n_prods()] as usize];
    let cell =
        |p: ProdId, occ: usize, c: ClassId| rule_base[p.index()] as usize + occ * n_cls + c.index();
    let occ_symbol = |p: ProdId, occ: usize| -> Option<SymbolId> {
        if occ == 0 {
            Some(grammar.lhs(p))
        } else {
            grammar.rhs(p).get(occ - 1).copied()
        }
    };

    // Validate explicit rules.
    let mut n_explicit = 0usize;
    for p in grammar.prod_ids() {
        let plabel = grammar.prod_label(p).to_string();
        for (i, r) in rules[p.index()].iter().enumerate() {
            n_explicit += 1;
            let sym = occ_symbol(p, r.target_occ).ok_or(AgError::BadOccurrence {
                prod: plabel.clone(),
                occ: r.target_occ,
            })?;
            let cname = classes[r.class.index()].name.clone();
            if !has(sym, r.class) {
                return Err(AgError::BadDep {
                    prod: plabel.clone(),
                    dep: format!("target {}.{cname} (class not attached)", r.target_occ),
                });
            }
            let dir = classes[r.class.index()].dir;
            let defining = match dir {
                AttrDir::Synthesized => r.target_occ == 0,
                AttrDir::Inherited => r.target_occ >= 1,
            };
            if !defining {
                return Err(AgError::BadTarget {
                    prod: plabel.clone(),
                    occ: r.target_occ,
                    class: cname,
                });
            }
            let at = cell(p, r.target_occ, r.class);
            if rule_tab[at] != NO_ENTRY {
                return Err(AgError::DuplicateRule {
                    prod: plabel.clone(),
                    occ: r.target_occ,
                    class: cname,
                });
            }
            rule_tab[at] = dense(i);
            for d in &r.deps {
                match *d {
                    Dep::Attr(occ, c) => {
                        let dsym = occ_symbol(p, occ).ok_or(AgError::BadOccurrence {
                            prod: plabel.clone(),
                            occ,
                        })?;
                        if !has(dsym, c) {
                            return Err(AgError::BadDep {
                                prod: plabel.clone(),
                                dep: format!(
                                    "{occ}.{} (class not attached to `{}`)",
                                    classes[c.index()].name,
                                    grammar.symbol_name(dsym)
                                ),
                            });
                        }
                        // A usable dependency must be an *available* value:
                        // inherited on the LHS, synthesized on RHS
                        // occurrences, or a synthesized attribute of the
                        // LHS defined by a sibling rule of the same
                        // production (the projection idiom). A rule may not
                        // read a sibling *child's* inherited attribute.
                        let ddir = classes[c.index()].dir;
                        let available = match ddir {
                            AttrDir::Inherited => occ == 0,
                            AttrDir::Synthesized => true,
                        };
                        if !available {
                            return Err(AgError::BadDep {
                                prod: plabel.clone(),
                                dep: format!(
                                    "{occ}.{} ({:?} attribute not readable at this occurrence)",
                                    classes[c.index()].name,
                                    ddir
                                ),
                            });
                        }
                    }
                    Dep::Token(occ) => {
                        let dsym = occ_symbol(p, occ).ok_or(AgError::BadOccurrence {
                            prod: plabel.clone(),
                            occ,
                        })?;
                        if occ == 0 || !grammar.is_terminal(dsym) {
                            return Err(AgError::BadDep {
                                prod: plabel.clone(),
                                dep: format!("token({occ}) is not a terminal occurrence"),
                            });
                        }
                    }
                    Dep::Leaves(occ) => {
                        occ_symbol(p, occ).ok_or(AgError::BadOccurrence {
                            prod: plabel.clone(),
                            occ,
                        })?;
                        if leaf_run.is_none() {
                            return Err(AgError::BadDep {
                                prod: plabel.clone(),
                                dep: format!("leaves({occ}) without a run constructor"),
                            });
                        }
                    }
                }
            }
        }
    }

    // Synthesize implicit rules for undefined required occurrences. The
    // augmented accept production is skipped: the start symbol's inherited
    // attributes are the *inputs* of the translation, supplied to the
    // evaluator by its caller (and the goal symbol carries no attributes).
    let mut n_implicit = 0usize;
    for p in grammar.prod_ids() {
        if p == grammar.accept_prod() {
            continue;
        }
        let plabel = grammar.prod_label(p).to_string();
        // Required occurrences: syn attrs of LHS…
        let lhs = grammar.lhs(p);
        let mut required: Vec<(usize, ClassId)> = attrs_of[lhs.index()]
            .iter()
            .filter(|c| classes[c.index()].dir == AttrDir::Synthesized)
            .map(|&c| (0usize, c))
            .collect();
        // …and inh attrs of each RHS nonterminal occurrence.
        for (i, &sym) in grammar.rhs(p).iter().enumerate() {
            if grammar.is_terminal(sym) {
                continue;
            }
            for &c in &attrs_of[sym.index()] {
                if classes[c.index()].dir == AttrDir::Inherited {
                    required.push((i + 1, c));
                }
            }
        }

        for (occ, class) in required {
            let at = cell(p, occ, class);
            if rule_tab[at] != NO_ENTRY {
                continue;
            }
            let info = &classes[class.index()];
            let rule = if info.dir == AttrDir::Inherited {
                synth_inherited(&grammar, &has, p, occ, class, info, &plabel)?
            } else {
                synth_synthesized(&grammar, &has, p, class, info, &plabel)?
            };
            rule_tab[at] = dense(rules[p.index()].len());
            rules[p.index()].push(rule);
            n_implicit += 1;
        }
    }

    let transparent = grammar
        .prod_ids()
        .map(|p| transparent(&grammar, &attrs_of, &rules[p.index()], p))
        .collect();
    Ok(AttrGrammar {
        grammar,
        classes,
        class_by_name,
        attrs_of,
        slot_tab,
        rules,
        rule_tab,
        rule_base,
        transparent,
        leaf_run,
        n_explicit,
        n_implicit,
    })
}

/// A production `A → B` is transparent when `B` is one nonterminal, every
/// rule only copies, and every class of `A` is also `B`'s. Then `B`'s node
/// can stand in for `A`'s: every class the parent's rules define or read
/// at that occurrence is on `B`, with the value the copies would have
/// given it. (An inherited class of `A` that `B` lacks is read by no
/// rule, but a plan runs the parent's rule defining it, which needs a
/// slot.)
fn transparent<V>(
    grammar: &ag_lalr::Grammar,
    attrs_of: &[Vec<ClassId>],
    rules: &[Rule<V>],
    p: ProdId,
) -> bool {
    let [b] = *grammar.rhs(p) else {
        return false;
    };
    p != grammar.accept_prod()
        && !grammar.is_terminal(b)
        && rules.iter().all(|r| matches!(r.func, RuleFunc::Copy))
        && attrs_of[grammar.lhs(p).index()]
            .iter()
            .all(|c| attrs_of[b.index()].contains(c))
}

fn synth_inherited<V>(
    grammar: &ag_lalr::Grammar,
    has: &impl Fn(SymbolId, ClassId) -> bool,
    p: ProdId,
    occ: usize,
    class: ClassId,
    info: &crate::attr::ClassInfo<V>,
    plabel: &str,
) -> Result<Rule<V>, AgError> {
    let lhs = grammar.lhs(p);
    let lhs_has = has(lhs, class);
    match &info.implicit {
        Implicit::None => Err(missing(
            plabel,
            occ,
            &info.name,
            "class has no implicit rules",
        )),
        _ if lhs_has => Ok(rule(occ, class, vec![Dep::Attr(0, class)], RuleFunc::Copy)),
        Implicit::Unit(u) | Implicit::Merge { unit: Some(u), .. } => {
            Ok(rule(occ, class, vec![], RuleFunc::Unit(*u)))
        }
        _ => Err(missing(
            plabel,
            occ,
            &info.name,
            "LHS lacks the class and no unit element is declared",
        )),
    }
}

fn synth_synthesized<V>(
    grammar: &ag_lalr::Grammar,
    has: &impl Fn(SymbolId, ClassId) -> bool,
    p: ProdId,
    class: ClassId,
    info: &crate::attr::ClassInfo<V>,
    plabel: &str,
) -> Result<Rule<V>, AgError> {
    let sources: Vec<usize> = grammar
        .rhs(p)
        .iter()
        .enumerate()
        .filter(|(_, sym)| has(**sym, class))
        .map(|(i, _)| i + 1)
        .collect();
    match &info.implicit {
        Implicit::None => Err(missing(
            plabel,
            0,
            &info.name,
            "class has no implicit rules",
        )),
        _ if sources.len() == 1 => Ok(rule(
            0,
            class,
            vec![Dep::Attr(sources[0], class)],
            RuleFunc::Copy,
        )),
        Implicit::Merge { f, .. } if sources.len() >= 2 => Ok(rule(
            0,
            class,
            sources.iter().map(|&o| Dep::Attr(o, class)).collect(),
            RuleFunc::Merge(*f),
        )),
        Implicit::Unit(u) | Implicit::Merge { unit: Some(u), .. } if sources.is_empty() => {
            Ok(rule(0, class, vec![], RuleFunc::Unit(*u)))
        }
        Implicit::Copy | Implicit::Unit(_) if sources.len() >= 2 => Err(missing(
            plabel,
            0,
            &info.name,
            "multiple RHS occurrences but no merge function declared",
        )),
        _ => Err(missing(
            plabel,
            0,
            &info.name,
            "no RHS occurrence and no unit element declared",
        )),
    }
}

/// A table cell for index `i`.
fn dense(i: usize) -> u16 {
    u16::try_from(i)
        .ok()
        .filter(|&c| c != NO_ENTRY)
        .expect("attribute grammar exceeds the dense table's index range")
}

fn rule<V>(target_occ: usize, class: ClassId, deps: Vec<Dep>, func: RuleFunc<V>) -> Rule<V> {
    Rule {
        target_occ,
        class,
        deps,
        func,
    }
}

fn missing(prod: &str, occ: usize, class: &str, why: &str) -> AgError {
    AgError::MissingRule {
        prod: prod.to_string(),
        occ,
        class: class.to_string(),
        why: why.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, RuleOrigin};
    use ag_lalr::GrammarBuilder;
    use std::sync::Arc;

    /// Grammar: s ::= t t | t ; t ::= a
    fn grammar() -> Arc<ag_lalr::Grammar> {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into(), t.into()], "s_tt");
        g.prod(s, &[t.into()], "s_t");
        g.prod(t, &[a.into()], "t_a");
        g.start(s);
        Arc::new(g.build().unwrap())
    }

    #[test]
    fn copy_unit_merge_synthesis() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let p_t = g.prod_by_label("t_a").unwrap();
        let p_tt = g.prod_by_label("s_tt").unwrap();
        let p_st = g.prod_by_label("s_t").unwrap();

        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let msgs = ab.syn_merge("MSGS", || 0, |a, b| a + b);
        let env = ab.inh("ENV");
        ab.attach_all(msgs, [s, t]);
        ab.attach_all(env, [s, t]);
        // Only one explicit rule: t.MSGS = ENV (so copies/merges have a
        // source).
        ab.rule(p_t, 0, msgs, vec![Dep::attr(0, env)], |d| d[0]);
        let ag = ab.build().unwrap();

        // s_tt: s.MSGS = merge(t1.MSGS, t2.MSGS); t1.ENV, t2.ENV copies.
        let r = ag.rule_for(p_tt, 0, msgs).unwrap();
        assert_eq!(r.origin(), RuleOrigin::ImplicitMerge);
        assert_eq!(r.deps.len(), 2);
        assert_eq!(
            ag.rule_for(p_tt, 1, env).unwrap().origin(),
            RuleOrigin::ImplicitCopy
        );
        assert_eq!(
            ag.rule_for(p_tt, 2, env).unwrap().origin(),
            RuleOrigin::ImplicitCopy
        );
        // s_t: single source → copy.
        assert_eq!(
            ag.rule_for(p_st, 0, msgs).unwrap().origin(),
            RuleOrigin::ImplicitCopy
        );
        // The augmented accept production gets no rules: the start symbol's
        // inherited attributes are inputs supplied by the evaluator's
        // caller, and its synthesized attributes are the translation's
        // results.
        let goal = g.accept_prod();
        assert!(ag.rule_for(goal, 1, env).is_none());
        assert!(ag.rules(goal).is_empty());
        assert_eq!(ag.n_explicit_rules(), 1);
        // Implicit: s_tt has the MSGS merge + 2 ENV copies; s_t has a MSGS
        // copy + an ENV copy; t_a needs nothing (MSGS explicit, no
        // nonterminal on its RHS).
        assert_eq!(ag.n_implicit_rules(), 5);
    }

    #[test]
    fn transparent_takes_copies_only_and_a_class_subset() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let p_t = g.prod_by_label("t_a").unwrap();
        let p_st = g.prod_by_label("s_t").unwrap();
        // `extra` gets a class that `s` has and `t` lacks; `explicit`
        // an explicit rule in `s_t`.
        let flags = |extra: bool, explicit: bool| {
            let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
            let msgs = ab.syn_merge("MSGS", || 0, |a, b| a + b);
            let env = ab.inh("ENV");
            ab.attach_all(msgs, [s, t]);
            ab.attach_all(env, [s, t]);
            if extra {
                let level = ab.inh("LEVEL");
                ab.attach(level, s);
            }
            if explicit {
                ab.rule(p_st, 0, msgs, vec![Dep::attr(1, msgs)], |d| d[0]);
            }
            ab.rule(p_t, 0, msgs, vec![Dep::attr(0, env)], |d| d[0]);
            let ag = ab.build().unwrap();
            g.prod_ids()
                .filter(|p| ag.transparent()[p.index()])
                .map(|p| g.prod_label(p).to_string())
                .collect::<Vec<_>>()
        };
        // `s_t` only copies; `s_tt` has two symbols on its right, `t_a` a
        // terminal, and `__accept` is never reduced.
        assert_eq!(flags(false, false), ["s_t"]);
        assert!(flags(true, false).is_empty());
        assert!(flags(false, true).is_empty());
    }

    #[test]
    fn merge_fold_order_is_left_to_right() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let p_tt = g.prod_by_label("s_tt").unwrap();
        let mut ab = AgBuilder::<String>::new(Arc::clone(&g));
        let code = ab.syn_merge("CODE", String::new, |a, b| format!("{a}{b}"));
        ab.attach_all(code, [s, t]);
        let p_t = g.prod_by_label("t_a").unwrap();
        ab.rule(p_t, 0, code, vec![], |_| "x".to_string());
        let ag = ab.build().unwrap();
        let r = ag.rule_for(p_tt, 0, code).unwrap();
        let v = r.apply(&["A".to_string(), "B".to_string()]);
        assert_eq!(v, "AB");
    }

    #[test]
    fn missing_rule_error_for_plain_class() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let c = ab.class("PLAIN", AttrDir::Synthesized, Implicit::None);
        ab.attach(c, s);
        let err = ab.build().unwrap_err();
        assert!(matches!(err, AgError::MissingRule { .. }));
    }

    #[test]
    fn copy_without_merge_fails_on_two_sources() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let c = ab.syn("VAL"); // Copy only, no merge
        ab.attach_all(c, [s, t]);
        let p_t = g.prod_by_label("t_a").unwrap();
        ab.rule(p_t, 0, c, vec![], |_| 1);
        let err = ab.build().unwrap_err();
        match err {
            AgError::MissingRule { why, .. } => assert!(why.contains("no merge function")),
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn bad_target_detected() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let p_tt = g.prod_by_label("s_tt").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let v = ab.class("V", AttrDir::Synthesized, Implicit::Unit(|| 0));
        ab.attach_all(v, [s, t]);
        // Targeting a RHS occurrence with a synthesized class is illegal.
        ab.rule(p_tt, 1, v, vec![], |_| 1);
        assert!(matches!(ab.build().unwrap_err(), AgError::BadTarget { .. }));
    }

    #[test]
    fn token_dep_on_nonterminal_rejected() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let t = g.symbol("t").unwrap();
        let p_tt = g.prod_by_label("s_tt").unwrap();
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let v = ab.class("V", AttrDir::Synthesized, Implicit::Unit(|| 0));
        ab.attach_all(v, [s, t]);
        ab.rule(p_tt, 0, v, vec![Dep::token(1)], |d| d[0]);
        assert!(matches!(ab.build().unwrap_err(), AgError::BadDep { .. }));
    }

    #[test]
    fn token_run_needs_a_run_constructor_and_an_occurrence() {
        let g = grammar();
        let s = g.symbol("s").unwrap();
        let p_tt = g.prod_by_label("s_tt").unwrap();
        let with = |run: bool, occ: usize| {
            let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
            if run {
                ab.leaf_run(|v| v.len() as i64);
            }
            let v = ab.class("V", AttrDir::Synthesized, Implicit::Unit(|| 0));
            ab.attach(v, s);
            ab.rule(p_tt, 0, v, vec![Dep::leaves(occ)], |d| d[0]);
            ab.build()
        };
        assert!(matches!(
            with(false, 1).unwrap_err(),
            AgError::BadDep { .. }
        ));
        assert!(matches!(
            with(true, 3).unwrap_err(),
            AgError::BadOccurrence { occ: 3, .. }
        ));
        // The left-hand side and a nonterminal are occurrences with runs.
        assert!(with(true, 0).is_ok());
        assert!(with(true, 2).is_ok());
    }
}
