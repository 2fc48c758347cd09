//! Property tests for the attribute-grammar engine: the demand-driven and
//! plan-driven evaluators must agree on every well-formed AG, and the
//! implicit-rule machinery must behave like hand-written plumbing.
//!
//! Ported from proptest to the in-repo `ag-harness` framework; the input
//! space and every invariant are unchanged.

use std::sync::Arc;

use ag_core::{analyze, plan, AgBuilder, AttrDir, ClassId, DemandEval, Dep, Implicit, PlanEval};
use ag_harness::{check, check_eq, forall, Config, Source};
use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};

/// A family of randomized AGs over the list grammar
/// `l ::= l x | x` with attributes whose rules mix token values, inherited
/// context, and synthesized folds, parameterized by random coefficients.
#[derive(Debug, Clone)]
struct AgSpec {
    /// Coefficients used inside semantic rules.
    k1: i64,
    k2: i64,
    /// Whether the synthesized result also depends on the inherited depth.
    use_inh: bool,
}

fn ag_spec(s: &mut Source) -> AgSpec {
    AgSpec {
        k1: s.i64_in(-5, 5),
        k2: s.i64_in(-5, 5),
        use_inh: s.bool(),
    }
}

fn build(
    spec: &AgSpec,
) -> (
    Arc<ag_lalr::Grammar>,
    ag_core::AttrGrammar<i64>,
    ClassId,
    ClassId,
) {
    let mut g = GrammarBuilder::new();
    let x = g.terminal("x");
    let l = g.nonterminal("l");
    let p_rec = g.prod(l, &[l.into(), x.into()], "rec");
    let p_leaf = g.prod(l, &[x.into()], "leaf");
    g.start(l);
    let g = Arc::new(g.build().unwrap());
    let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
    let depth = ab.class("DEPTH", AttrDir::Inherited, Implicit::Copy);
    let sum = ab.class("SUM", AttrDir::Synthesized, Implicit::None);
    ab.attach(depth, l);
    ab.attach(sum, l);
    let (k1, k2, use_inh) = (spec.k1, spec.k2, spec.use_inh);
    // DEPTH of the nested list grows by k1 (explicit rule; the copy rule
    // would keep it constant).
    ab.rule(p_rec, 1, depth, vec![Dep::attr(0, depth)], move |d| {
        d[0] + k1
    });
    ab.rule(
        p_rec,
        0,
        sum,
        vec![Dep::attr(1, sum), Dep::token(2), Dep::attr(0, depth)],
        move |d| d[0] + d[1] * k2 + if use_inh { d[2] } else { 0 },
    );
    ab.rule(
        p_leaf,
        0,
        sum,
        vec![Dep::token(1), Dep::attr(0, depth)],
        move |d| d[0] + if use_inh { d[1] } else { 0 },
    );
    let ag = ab.build().unwrap();
    (g, ag, depth, sum)
}

/// Reference semantics computed directly.
fn reference(spec: &AgSpec, xs: &[i64], depth0: i64) -> i64 {
    // Items are derived leftmost-deepest: xs[0] is the leaf.
    let n = xs.len();
    let mut acc = 0;
    // depth at nesting level i (leaf is deepest: depth0 + k1*(n-1)).
    for (i, &v) in xs.iter().enumerate() {
        let depth = depth0 + spec.k1 * (n - 1 - i) as i64;
        let term = if i == 0 { v } else { v * spec.k2 };
        acc += term + if spec.use_inh { depth } else { 0 };
    }
    acc
}

/// Demand evaluation == plan evaluation == direct reference semantics.
#[test]
fn evaluators_agree() {
    forall!(Config::new("evaluators_agree").cases(128), |s| {
        let spec = ag_spec(s);
        let xs = s.vec(1, 11, |s| s.i64_in(-100, 99));
        let depth0 = s.i64_in(-10, 9);

        let (g, ag, depth, sum) = build(&spec);
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        let x = g.symbol("x").unwrap();
        let at = parser.parse(xs.iter().map(|&v| Token::new(x, v))).unwrap();

        let de = DemandEval::new(&ag, &at, vec![(depth, depth0)]);
        let demand = de.root_value(sum).unwrap();

        let an = analyze(&ag).unwrap();
        let plans = plan(&ag, &an).unwrap();
        let mut pe = PlanEval::new(&ag, &plans, &at);
        pe.run(vec![(depth, depth0)]).unwrap();
        let planned = pe.root_value(sum).unwrap();

        check_eq!(
            demand,
            planned,
            "spec {:?} xs {:?} depth0 {}",
            spec,
            xs,
            depth0
        );
        check_eq!(demand, reference(&spec, &xs, depth0));
    });
}

/// An implicit copy chain transports the root input unchanged to every
/// depth (the §4.2 bucket brigade), and an implicit merge computes the
/// same fold as an explicit rule would.
#[test]
fn implicit_rules_equal_explicit() {
    forall!(
        Config::new("implicit_rules_equal_explicit").cases(128),
        |s| {
            let xs = s.vec(1, 9, |s| s.i64_in(0, 49));
            let input = s.i64_in(-50, 49);

            let mut g = GrammarBuilder::new();
            let x = g.terminal("x");
            let l = g.nonterminal("l");
            g.prod(l, &[l.into(), x.into()], "rec");
            let p_leaf = g.prod(l, &[x.into()], "leaf");
            g.start(l);
            let g = Arc::new(g.build().unwrap());
            let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
            let env = ab.inh("ENV"); // implicit copy everywhere
            let total = ab.syn_merge("TOTAL", 0, |a, b| a + b); // implicit merge
            ab.attach(env, l);
            ab.attach(total, l);
            // Only the leaf has an explicit rule; `rec` relies on implicit
            // copy (ENV) + implicit copy of the single TOTAL source… the token
            // contributes nothing without an explicit rule, so TOTAL = leaf's.
            ab.rule(
                p_leaf,
                0,
                total,
                vec![Dep::token(1), Dep::attr(0, env)],
                |d| d[0] + d[1],
            );
            let ag = ab.build().unwrap();
            check!(ag.n_implicit_rules() >= 2);

            let table = ParseTable::build(&g).unwrap();
            let parser = Parser::new(&g, &table);
            let at = parser.parse(xs.iter().map(|&v| Token::new(x, v))).unwrap();
            let de = DemandEval::new(&ag, &at, vec![(env, input)]);
            // TOTAL climbs by copy rules from the leaf: xs[0] + input.
            check_eq!(de.root_value(total).unwrap(), xs[0] + input);
        }
    );
}
