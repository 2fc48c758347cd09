//! E9 — §5.3: during development the compiler "went from a maximum of four
//! visits per node, to a maximum of five visits per node, to three visits
//! … transparently to the AG authors, who were only aware of adding and
//! deleting attributes".
//!
//! Reproduces the effect with three variants of one grammar: adding an
//! attribute dependency raises the computed visit count; refactoring it
//! away lowers it — with no change to any evaluator code, only to the
//! attribution.

use std::sync::Arc;

use ag_core::{analyze, plan, AgBuilder, AttrDir, Dep, Implicit};
use ag_harness::bench::Runner;
use ag_lalr::GrammarBuilder;

fn grammar() -> Arc<ag_lalr::Grammar> {
    let mut g = GrammarBuilder::new();
    let bit = g.terminal("bit");
    let n = g.nonterminal("n");
    let l = g.nonterminal("l");
    g.prod(n, &[l.into()], "n_l");
    g.prod(l, &[l.into(), bit.into()], "l_rec");
    g.prod(l, &[bit.into()], "l_bit");
    g.start(n);
    Arc::new(g.build().expect("grammar"))
}

/// Variant 1: VAL depends on SCALE which depends on LEN — two visits.
fn variant_two_visits(g: &Arc<ag_lalr::Grammar>) -> ag_core::AttrGrammar<i64> {
    let mut ab = AgBuilder::<i64>::new(Arc::clone(g));
    let len = ab.class("LEN", AttrDir::Synthesized, Implicit::None);
    let scale = ab.class("SCALE", AttrDir::Inherited, Implicit::None);
    let val = ab.class("VAL", AttrDir::Synthesized, Implicit::None);
    wire(&mut ab, g, len, scale, val);
    ab.build().expect("AG")
}

/// Variant 2: an extra pass — WIDTH (syn) feeds OFFSET (inh) feeds VAL,
/// and OFFSET itself depends on the visit-2 SCALE results: three visits.
fn variant_three_visits(g: &Arc<ag_lalr::Grammar>) -> ag_core::AttrGrammar<i64> {
    let mut ab = AgBuilder::<i64>::new(Arc::clone(g));
    let len = ab.class("LEN", AttrDir::Synthesized, Implicit::None);
    let scale = ab.class("SCALE", AttrDir::Inherited, Implicit::None);
    let val = ab.class("VAL", AttrDir::Synthesized, Implicit::None);
    let offset = ab.class("OFFSET", AttrDir::Inherited, Implicit::None);
    let l = g.symbol("l").expect("l");
    ab.attach(offset, l);
    wire(&mut ab, g, len, scale, val);
    let p_nl = g.prod_by_label("n_l").expect("prod");
    let p_rec = g.prod_by_label("l_rec").expect("prod");
    let p_bit = g.prod_by_label("l_bit").expect("prod");
    // OFFSET depends on VAL (computed in visit 2) → forces visit 3 usage.
    ab.rule(p_nl, 1, offset, vec![Dep::attr(1, val)], |d| d[0] % 7);
    ab.rule(p_rec, 1, offset, vec![Dep::attr(0, offset)], |d| d[0]);
    // FINAL (syn) consumes OFFSET — a third-visit output.
    let fin = ab.class("FINAL", AttrDir::Synthesized, Implicit::None);
    ab.attach(fin, l);
    let n = g.symbol("n").expect("n");
    ab.attach(fin, n);
    ab.rule(p_nl, 0, fin, vec![Dep::attr(1, fin)], |d| d[0]);
    ab.rule(
        p_rec,
        0,
        fin,
        vec![Dep::attr(1, fin), Dep::attr(0, offset)],
        |d| d[0] + d[1],
    );
    ab.rule(p_bit, 0, fin, vec![Dep::attr(0, offset)], |d| d[0]);
    ab.build().expect("AG")
}

/// Variant 3: the refactor — SCALE no longer depends on LEN (position is
/// threaded top-down instead): one visit suffices.
fn variant_one_visit(g: &Arc<ag_lalr::Grammar>) -> ag_core::AttrGrammar<i64> {
    let mut ab = AgBuilder::<i64>::new(Arc::clone(g));
    let scale = ab.class("SCALE", AttrDir::Inherited, Implicit::None);
    let val = ab.class("VAL", AttrDir::Synthesized, Implicit::None);
    let l = g.symbol("l").expect("l");
    let n = g.symbol("n").expect("n");
    ab.attach(scale, l);
    ab.attach(val, l);
    ab.attach(val, n);
    let p_nl = g.prod_by_label("n_l").expect("prod");
    let p_rec = g.prod_by_label("l_rec").expect("prod");
    let p_bit = g.prod_by_label("l_bit").expect("prod");
    ab.rule(p_nl, 1, scale, vec![], |_| 0);
    ab.rule(p_nl, 0, val, vec![Dep::attr(1, val)], |d| d[0]);
    ab.rule(p_rec, 1, scale, vec![Dep::attr(0, scale)], |d| d[0] + 1);
    ab.rule(p_rec, 0, val, vec![Dep::attr(1, val), Dep::token(2)], |d| {
        d[0] * 2 + d[1]
    });
    ab.rule(p_bit, 0, val, vec![Dep::token(1)], |d| d[0]);
    ab.build().expect("AG")
}

fn wire(
    ab: &mut AgBuilder<i64>,
    g: &ag_lalr::Grammar,
    len: ag_core::ClassId,
    scale: ag_core::ClassId,
    val: ag_core::ClassId,
) {
    let l = g.symbol("l").expect("l");
    let n = g.symbol("n").expect("n");
    ab.attach(len, l);
    ab.attach(scale, l);
    ab.attach(val, l);
    ab.attach(val, n);
    let p_nl = g.prod_by_label("n_l").expect("prod");
    let p_rec = g.prod_by_label("l_rec").expect("prod");
    let p_bit = g.prod_by_label("l_bit").expect("prod");
    // SCALE depends on LEN: the classic Knuth binary-number shape.
    ab.rule(p_nl, 1, scale, vec![Dep::attr(1, len)], |d| -d[0]);
    ab.rule(p_nl, 0, val, vec![Dep::attr(1, val)], |d| d[0]);
    ab.rule(p_rec, 0, len, vec![Dep::attr(1, len)], |d| d[0] + 1);
    ab.rule(p_rec, 1, scale, vec![Dep::attr(0, scale)], |d| d[0] + 1);
    ab.rule(
        p_rec,
        0,
        val,
        vec![Dep::attr(1, val), Dep::token(2), Dep::attr(0, scale)],
        |d| d[0] + d[1] * (1 << (d[2] + 8)),
    );
    ab.rule(p_bit, 0, len, vec![], |_| 1);
    ab.rule(
        p_bit,
        0,
        val,
        vec![Dep::token(1), Dep::attr(0, scale)],
        |d| d[0] * (1 << (d[1] + 8)),
    );
}

fn main() {
    println!("# E9 — visit-count evolution under attribution changes (paper §5.3)");
    println!();
    let g = grammar();
    let show = |name: &str, ag: &ag_core::AttrGrammar<i64>| {
        let an = analyze(ag).expect("acyclic");
        let plans = plan(ag, &an).expect("ordered");
        println!(
            "{name:<40} max visits = {}   (attributes: {}, rules: {})",
            plans.overall_max_visits(),
            ag.n_attributes(),
            ag.n_rules()
        );
        plans.overall_max_visits()
    };
    let a = show("baseline (SCALE ← LEN)", &variant_two_visits(&g));
    let b = show("add OFFSET/FINAL pass", &variant_three_visits(&g));
    let c = show("refactor: thread SCALE top-down", &variant_one_visit(&g));
    println!();
    println!(
        "visits changed {a} → {b} → {c} purely by adding/deleting attributes — the \
         evaluator schedules were recomputed automatically, \"transparently to the AG authors\" \
         (paper: 4 → 5 → 3)"
    );
    assert!(b > a && c < a);

    let mut runner = Runner::new("exp_visit_evolution").out_dir(ag_bench::out_dir());
    runner.metric("visits_baseline", a as f64, "visits");
    runner.metric("visits_extra_pass", b as f64, "visits");
    runner.metric("visits_refactored", c as f64, "visits");
    runner.finish();
}
