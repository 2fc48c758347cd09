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
/// `l ::= l x | x` with attributes whose rules mix token values, token
/// runs, inherited context, and synthesized folds, parameterized by
/// random coefficients.
#[derive(Debug, Clone)]
struct AgSpec {
    /// Coefficients used inside semantic rules.
    k1: i64,
    k2: i64,
    /// Whether the synthesized result also depends on the inherited depth.
    use_inh: bool,
    /// The occurrence of `rec` (0 = the list, 1 = the nested list) whose
    /// token run the synthesized result also adds, if any.
    run_of: Option<usize>,
}

fn ag_spec(s: &mut Source) -> AgSpec {
    AgSpec {
        k1: s.i64_in(-5, 5),
        k2: s.i64_in(-5, 5),
        use_inh: s.bool(),
        run_of: s.bool().then(|| s.usize_in(0, 1)),
    }
}

/// The run constructor of every random AG here: a fold that tells the
/// order, the length and the values of the tokens apart.
fn run(tokens: Vec<i64>) -> i64 {
    tokens
        .iter()
        .fold(1, |a, x| a.wrapping_mul(3).wrapping_add(x + 1))
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
    ab.leaf_run(run);
    let depth = ab.class("DEPTH", AttrDir::Inherited, Implicit::Copy);
    let sum = ab.class("SUM", AttrDir::Synthesized, Implicit::None);
    ab.attach(depth, l);
    ab.attach(sum, l);
    let (k1, k2, use_inh) = (spec.k1, spec.k2, spec.use_inh);
    let mut rec_deps = vec![Dep::attr(1, sum), Dep::token(2), Dep::attr(0, depth)];
    rec_deps.extend(spec.run_of.map(Dep::leaves));
    // DEPTH of the nested list grows by k1 (explicit rule; the copy rule
    // would keep it constant).
    ab.rule(p_rec, 1, depth, vec![Dep::attr(0, depth)], move |d| {
        d[0] + k1
    });
    ab.rule(p_rec, 0, sum, rec_deps, move |d| {
        d[0] + d[1] * k2 + if use_inh { d[2] } else { 0 } + d.get(3).copied().unwrap_or(0)
    });
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
        // `rec` over xs[..=i] reads its own run or its nested list's.
        if let (Some(occ), true) = (spec.run_of, i > 0) {
            acc += run(xs[..=i - occ].to_vec());
        }
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
            let total = ab.syn_merge("TOTAL", || 0, |a, b| a + b); // implicit merge
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

/// A random precedence-chain AG: levels `N0 … Nk`, each `Ni ::= Ni+1 |
/// Ni opi Ni+1`, and `Nk ::= x | [ Nj ]`, maybe `| ( N0 )`, under
/// `s ::= N0`. Which chain productions are transparent is random: an
/// explicit rule, a class on `Ni` that `Ni+1` lacks (subset broken), or a
/// unit rule makes one opaque. The bracket production makes `Nj`'s `POS`
/// depend on its own `SIZE`, so `Nj` and the levels below it take two
/// visits. Without the parenthesis production, which carries that
/// dependency up to `N0`, the levels above take one, and the visit
/// partitions of `Nj-1 ::= Nj` differ.
#[derive(Debug, Clone)]
struct ChainSpec {
    levels: usize,
    /// Per chain production `Ni ::= Ni+1`: an explicit `VAL` rule, by its
    /// addend.
    chain_rule: Vec<Option<i64>>,
    /// Symbols (`s`, then `N0 … Nk`) carrying `TAG` and `LVL`.
    tag_on: Vec<bool>,
    lvl_on: Vec<bool>,
    /// Per binary production `Ni ::= Ni opi Ni+1`: the occurrence (0, 1
    /// or 3) whose token run its `VAL` rule also adds, if any. An operand
    /// may be the node of a lower level standing in for a transparent
    /// chain production's.
    run_of: Vec<Option<usize>>,
    /// Level the bracket production reaches.
    bracket: usize,
    /// Whether `Nk ::= ( N0 )` exists.
    paren: bool,
    mul: Vec<i64>,
    env_step: Vec<i64>,
    k_env: i64,
    k_lvl: i64,
    k_pos: i64,
}

fn chain_spec(s: &mut Source) -> ChainSpec {
    let levels = s.usize_in(2, 4);
    // One chain production in four gets an explicit rule.
    let chain_rule = (0..levels)
        .map(|_| (s.usize_in(0, 3) == 0).then(|| s.i64_in(-3, 3)))
        .collect();
    let syms = levels + 2;
    ChainSpec {
        levels,
        chain_rule,
        tag_on: (0..syms).map(|_| s.bool()).collect(),
        lvl_on: (0..syms).map(|_| s.bool()).collect(),
        run_of: (0..levels)
            .map(|_| s.bool().then(|| [0, 1, 3][s.usize_in(0, 2)]))
            .collect(),
        bracket: s.usize_in(0, levels),
        paren: s.bool(),
        mul: (0..levels).map(|_| s.i64_in(-3, 3)).collect(),
        env_step: (0..levels).map(|_| s.i64_in(-3, 3)).collect(),
        k_env: s.i64_in(-3, 3),
        k_lvl: s.i64_in(-3, 3),
        k_pos: s.i64_in(-3, 3),
    }
}

/// The grammar, its AG and the classes `[ENV, LVL, POS, VAL, SIZE, TAG]`.
fn chain_ag(
    spec: &ChainSpec,
) -> (
    Arc<ag_lalr::Grammar>,
    ag_core::AttrGrammar<i64>,
    [ClassId; 6],
) {
    let k = spec.levels;
    let mut g = GrammarBuilder::new();
    let x = g.terminal("x");
    let ops: Vec<_> = (0..k).map(|i| g.terminal(&format!("op{i}"))).collect();
    let (lp, rp, lb, rb) = (
        g.terminal("("),
        g.terminal(")"),
        g.terminal("["),
        g.terminal("]"),
    );
    let top = g.nonterminal("s");
    let n: Vec<_> = (0..=k).map(|i| g.nonterminal(&format!("N{i}"))).collect();
    g.prod(top, &[n[0].into()], "top");
    let chains: Vec<_> = (0..k)
        .map(|i| g.prod(n[i], &[n[i + 1].into()], &format!("c{i}")))
        .collect();
    let bins: Vec<_> = (0..k)
        .map(|i| {
            g.prod(
                n[i],
                &[n[i].into(), ops[i].into(), n[i + 1].into()],
                &format!("b{i}"),
            )
        })
        .collect();
    let leaf = g.prod(n[k], &[x.into()], "leaf");
    if spec.paren {
        g.prod(n[k], &[lp.into(), n[0].into(), rp.into()], "paren");
    }
    let bracket = g.prod(
        n[k],
        &[lb.into(), n[spec.bracket].into(), rb.into()],
        "bracket",
    );
    g.start(top);
    let g = Arc::new(g.build().unwrap());

    let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
    ab.leaf_run(run);
    let env = ab.inh("ENV");
    let lvl = ab.class("LVL", AttrDir::Inherited, Implicit::Unit(|| 7));
    let pos = ab.inh("POS");
    let val = ab.syn("VAL");
    let size = ab.syn_merge("SIZE", || 0, |a, b| a + b);
    let tag = ab.syn_merge("TAG", || 5, |a, b| a * 3 + b);
    let syms: Vec<_> = std::iter::once(top).chain(n.iter().copied()).collect();
    for (i, &sym) in syms.iter().enumerate() {
        for c in [env, pos, val, size] {
            ab.attach(c, sym);
        }
        if spec.tag_on[i] {
            ab.attach(tag, sym);
        }
        if spec.lvl_on[i] {
            ab.attach(lvl, sym);
        }
    }
    for i in 0..k {
        if let Some(add) = spec.chain_rule[i] {
            ab.rule(chains[i], 0, val, vec![Dep::attr(1, val)], move |d| {
                d[0] + add
            });
        }
        let (m, step) = (spec.mul[i], spec.env_step[i]);
        let mut deps = vec![Dep::attr(1, val), Dep::attr(3, val)];
        deps.extend(spec.run_of[i].map(Dep::leaves));
        ab.rule(bins[i], 0, val, deps, move |d| {
            d[0] * m + d[1] + d.get(2).copied().unwrap_or(0)
        });
        ab.rule(bins[i], 1, env, vec![Dep::attr(0, env)], move |d| {
            d[0] + step
        });
    }
    let (ke, kl, kp) = (spec.k_env, spec.k_lvl, spec.k_pos);
    let mut deps = vec![Dep::token(1), Dep::attr(0, env), Dep::attr(0, pos)];
    if spec.lvl_on[k + 1] {
        deps.push(Dep::attr(0, lvl));
    }
    ab.rule(leaf, 0, val, deps, move |d| {
        d[0] + d[1] * ke + d[2] * kp + d.get(3).map_or(0, |l| l * kl)
    });
    ab.rule(leaf, 0, size, vec![], |_| 1);
    ab.rule(bracket, 2, pos, vec![Dep::attr(2, size)], |d| d[0] * 2 + 1);
    (g, ab.build().unwrap(), [env, lvl, pos, val, size, tag])
}

/// A sentence of `N{level}`, nesting at most `depth` more brackets or
/// parentheses.
fn chain_sentence(
    s: &mut Source,
    spec: &ChainSpec,
    level: usize,
    depth: u32,
) -> Vec<(String, i64)> {
    let tok = |t: &str| (t.to_string(), 0);
    if level < spec.levels {
        if depth > 0 && s.usize_in(0, 2) == 0 {
            let mut out = chain_sentence(s, spec, level, depth - 1);
            out.push(tok(&format!("op{level}")));
            out.extend(chain_sentence(s, spec, level + 1, depth - 1));
            return out;
        }
        return chain_sentence(s, spec, level + 1, depth);
    }
    match if depth == 0 { 0 } else { s.usize_in(0, 3) } {
        1 if spec.paren => {
            let mut out = vec![tok("(")];
            out.extend(chain_sentence(s, spec, 0, depth - 1));
            out.push(tok(")"));
            out
        }
        1 | 2 => {
            let mut out = vec![tok("[")];
            out.extend(chain_sentence(s, spec, spec.bracket, depth - 1));
            out.push(tok("]"));
            out
        }
        _ => vec![("x".to_string(), s.i64_in(-9, 9))],
    }
}

/// Leaving out the nodes of transparent productions changes no root
/// value: under `DemandEval` always, and under `PlanEval` whenever every
/// production left out keeps its visit partition.
#[test]
fn elided_trees_evaluate_as_full_trees() {
    forall!(
        Config::new("elided_trees_evaluate_as_full_trees").cases(256),
        |s| {
            let spec = chain_spec(s);
            let sentence = chain_sentence(s, &spec, 0, 3);
            let (g, ag, [env, lvl, pos, val, size, tag]) = chain_ag(&spec);
            let table = ParseTable::build(&g).unwrap();
            let toks = || {
                sentence
                    .iter()
                    .map(|(t, v)| Token::new(g.symbol(t).unwrap(), *v))
            };
            let full = Parser::new(&g, &table).parse(toks()).unwrap();
            let flags = ag.transparent();
            let elided = Parser::eliding(&g, &table, flags).parse(toks()).unwrap();
            let left_out: Vec<_> = (0..full.len())
                .filter_map(|n| full.prod(n))
                .filter(|p| flags[p.index()])
                .collect();
            check_eq!(full.len() - elided.len(), left_out.len());
            let inputs = vec![(env, 3), (lvl, -2), (pos, 4)];
            let goals: Vec<ClassId> = [val, size, tag]
                .into_iter()
                .filter(|&c| ag.has_attr(g.start_symbol(), c))
                .collect();
            let demand = |tree| {
                let de = DemandEval::new(&ag, tree, inputs.clone());
                let vs: Vec<i64> = goals.iter().map(|&c| de.root_value(c).unwrap()).collect();
                (vs, de.n_rule_evals())
            };
            let (want, full_evals) = demand(&full);
            let (got, elided_evals) = demand(&elided);
            check_eq!(got, want, "spec {spec:?} sentence {sentence:?}");
            check!(elided_evals <= full_evals);

            let plans = plan(&ag, &analyze(&ag).unwrap()).unwrap();
            let planned = |tree| {
                let mut pe = PlanEval::new(&ag, &plans, tree);
                pe.run(inputs.clone()).unwrap();
                goals
                    .iter()
                    .map(|&c| pe.root_value(c).unwrap())
                    .collect::<Vec<i64>>()
            };
            check_eq!(planned(&full), want);
            if left_out.iter().all(|&p| plans.keeps_visits(&ag, p)) {
                check_eq!(
                    planned(&elided),
                    want,
                    "spec {spec:?} sentence {sentence:?}"
                );
            }
        }
    );
}
