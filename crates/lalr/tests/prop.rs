//! Property tests: the LALR parser must agree with the Earley oracle on
//! every conflict-free random grammar and random input string, and the
//! table must equal a canonical LR(1) construction merged by LR(0) core
//! on every random grammar, conflicting ones included.
//!
//! Ported from proptest to the in-repo `ag-harness` framework; the input
//! space and every invariant are unchanged. Persisted regressions live in
//! `tests/prop.seeds`.

use std::collections::{BTreeMap, BTreeSet};

use ag_harness::{check, check_eq, forall, Config, Source, TestResult};
use ag_lalr::earley::Earley;
use ag_lalr::grammar::{Grammar, GrammarBuilder, SymRef};
use ag_lalr::parser::Parser;
use ag_lalr::table::{Action, ParseTable};
use ag_lalr::{ParseTree, ProdId, SymbolId};

/// A compact description of a random grammar: for each nonterminal, a list
/// of productions; each production is a list of symbol codes. Codes
/// `0..n_terms` are terminals, the rest nonterminals.
#[derive(Debug, Clone)]
struct GrammarSpec {
    n_terms: usize,
    n_nonterms: usize,
    prods: Vec<(usize, Vec<usize>)>, // (lhs nonterminal index, rhs codes)
}

/// Mirrors the old proptest strategy: 2–4 terminals, 1–3 nonterminals,
/// between `n` and `3n - 1` productions with RHS length 0–3, then every
/// production-less nonterminal gets an empty production appended.
///
/// Draw order (documented because `tests/prop.seeds` replays raw streams):
/// n_terms, n_nonterms, n_prods, then per production lhs and rhs
/// length/codes, then the input vector.
fn grammar_spec(s: &mut Source) -> GrammarSpec {
    let n_terms = s.usize_in(2, 4);
    let n_nonterms = s.usize_in(1, 3);
    let n_codes = n_terms + n_nonterms;
    let mut prods = s.vec(n_nonterms, n_nonterms * 3 - 1, |s| {
        let lhs = s.usize_in(0, n_nonterms - 1);
        let rhs = s.vec(0, 3, |s| s.usize_in(0, n_codes - 1));
        (lhs, rhs)
    });
    for nt in 0..n_nonterms {
        if !prods.iter().any(|(lhs, _)| *lhs == nt) {
            prods.push((nt, Vec::new()));
        }
    }
    GrammarSpec {
        n_terms,
        n_nonterms,
        prods,
    }
}

fn input_codes(s: &mut Source) -> Vec<usize> {
    s.vec(0, 7, |s| s.usize_in(0, 4))
}

/// A sentence of the start symbol by random leftmost derivation, or
/// `None` when it takes more than 40 expansions.
fn derive(spec: &GrammarSpec, s: &mut Source) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    let mut todo = vec![spec.n_terms]; // the start symbol's code
    let mut budget = 40;
    while let Some(c) = todo.pop() {
        if c < spec.n_terms {
            out.push(c);
            continue;
        }
        budget -= 1;
        if budget == 0 {
            return None;
        }
        let alts: Vec<&Vec<usize>> = spec
            .prods
            .iter()
            .filter(|(lhs, _)| *lhs == c - spec.n_terms)
            .map(|(_, rhs)| rhs)
            .collect();
        todo.extend(alts[s.usize_in(0, alts.len() - 1)].iter().rev());
    }
    Some(out)
}

fn build(spec: &GrammarSpec) -> (Grammar, Vec<SymbolId>) {
    let mut g = GrammarBuilder::new();
    let terms: Vec<SymbolId> = (0..spec.n_terms)
        .map(|i| g.terminal(&format!("t{i}")))
        .collect();
    let nonterms: Vec<SymbolId> = (0..spec.n_nonterms)
        .map(|i| g.nonterminal(&format!("N{i}")))
        .collect();
    for (i, (lhs, rhs)) in spec.prods.iter().enumerate() {
        let rhs: Vec<SymRef> = rhs
            .iter()
            .map(|&c| {
                if c < spec.n_terms {
                    terms[c].into()
                } else {
                    nonterms[c - spec.n_terms].into()
                }
            })
            .collect();
        g.prod(nonterms[*lhs], &rhs, &format!("p{i}"));
    }
    g.start(nonterms[0]);
    (g.build().expect("spec guarantees well-formedness"), terms)
}

fn to_tokens(input: &[usize], terms: &[SymbolId]) -> Vec<SymbolId> {
    input
        .iter()
        .filter(|&&c| c < terms.len())
        .map(|&c| terms[c])
        .collect()
}

/// For conflict-free grammars, LALR acceptance == Earley acceptance.
#[test]
fn lalr_agrees_with_earley() {
    forall!(Config::new("lalr_agrees_with_earley").cases(256), |s| {
        let spec = grammar_spec(s);
        let input = input_codes(s);
        let (g, terms) = build(&spec);
        // Only test grammars that are LALR(1); ambiguous/conflicted random
        // grammars are skipped (the oracle comparison is about the
        // *parser*, not about conflict resolution).
        let Ok(table) = ParseTable::build(&g) else {
            return Ok(());
        };
        let parser = Parser::new(&g, &table);
        let earley = Earley::new(&g);
        let toks = to_tokens(&input, &terms);
        check_eq!(
            parser.recognize(&toks),
            earley.recognize(&toks),
            "spec {:?} input {:?}",
            spec,
            input
        );
    });
}

/// Parsing a derivable sentence yields a tree whose leaves spell the
/// sentence back (round-trip through the parse tree).
#[test]
fn parse_tree_leaves_roundtrip() {
    forall!(Config::new("parse_tree_leaves_roundtrip").cases(256), |s| {
        let spec = grammar_spec(s);
        let input = input_codes(s);
        let (g, terms) = build(&spec);
        let Ok(table) = ParseTable::build(&g) else {
            return Ok(());
        };
        let parser = Parser::new(&g, &table);
        let toks = to_tokens(&input, &terms);
        let Ok(tree) = parser.parse(toks.iter().map(|&t| ag_lalr::Token::new(t, t))) else {
            return Ok(());
        };
        let leaves: Vec<SymbolId> = (0..tree.len())
            .filter(|&n| tree.token(n).is_some())
            .map(|n| tree.symbol(n))
            .collect();
        check_eq!(leaves, toks);
    });
}

/// The parser's arena: parent links and child lists agree, the leaves
/// are the input in order, every subtree is the contiguous range of ids
/// that ends at its root, and slicing a subtree out copies exactly that
/// range (the whole tree for the root). The same holds when a random set
/// of single-nonterminal productions is elided, and the elided tree is
/// the full one with exactly those nodes left out.
#[test]
fn arena_invariants() {
    forall!(Config::new("arena_invariants").cases(512), |s| {
        let spec = grammar_spec(s);
        let Some(input) = derive(&spec, s) else {
            return Ok(());
        };
        let (g, terms) = build(&spec);
        let Ok(table) = ParseTable::build(&g) else {
            return Ok(());
        };
        let flags: Vec<bool> = g
            .prod_ids()
            .map(|p| matches!(g.rhs(p), [b] if !g.is_terminal(*b)) && s.bool())
            .collect();
        let toks = to_tokens(&input, &terms);
        let parse = |flags: &[bool]| {
            Parser::eliding(&g, &table, flags)
                .parse(toks.iter().map(|&t| ag_lalr::Token::new(t, t)))
        };
        let (Ok(full), Ok(elided)) = (parse(&[]), parse(&flags)) else {
            check!(false, "derived sentence {input:?} rejected by {spec:?}");
            return Ok(());
        };
        check_arena(&full, &toks)?;
        check_arena(&elided, &toks)?;
        let kept = |t: &ParseTree<SymbolId>| -> Vec<_> {
            (0..t.len())
                .map(|n| (t.prod(n), t.symbol(n), t.token(n).copied()))
                .filter(|(p, _, _)| !p.is_some_and(|p| flags[p.index()]))
                .collect()
        };
        check_eq!(kept(&full), kept(&elided), "flags {flags:?}");
    });
}

fn check_arena(tree: &ParseTree<SymbolId>, toks: &[SymbolId]) -> TestResult {
    check_eq!(tree.leaves(), toks);
    check!(tree.parent(tree.root()).is_none());
    for n in 0..tree.len() {
        if let Some((p, occ)) = tree.parent(n) {
            check_eq!(tree.child(p, occ), n, "node {n}");
        }
        for (i, c) in tree.children(n).enumerate() {
            check_eq!(tree.parent(c), Some((n, i + 1)), "node {n}");
        }
        // The descendants of `n`, by an explicit walk.
        let mut under = vec![n];
        let mut todo: Vec<usize> = tree.children(n).collect();
        while let Some(c) = todo.pop() {
            under.push(c);
            todo.extend(tree.children(c));
        }
        under.sort_unstable();
        let lo = n + 1 - under.len();
        check_eq!(under, (lo..=n).collect::<Vec<_>>(), "subtree of {n}");
        let sub = tree.subtree(n);
        check_eq!(sub.len(), under.len());
        for i in 0..sub.len() {
            let x = lo + i;
            check_eq!((sub.prod(i), sub.symbol(i)), (tree.prod(x), tree.symbol(x)));
            check_eq!(sub.token(i), tree.token(x));
            check!(sub.children(i).map(|c| c + lo).eq(tree.children(x)));
            if i != sub.root() {
                check_eq!(sub.parent(i).map(|(p, o)| (p + lo, o)), tree.parent(x));
            }
        }
    }
    check_eq!(tree.subtree(tree.root()), *tree);
    Ok(())
}

/// `build_lenient`'s ACTION/GOTO cells and unresolved conflicts equal
/// those of the reference LALR(1) construction below, on every random
/// grammar. States are matched from state 0 along the transitions.
#[test]
fn lalr_matches_merged_canonical_lr1() {
    forall!(
        Config::new("lalr_matches_merged_canonical_lr1").cases(512),
        |s| {
            let spec = grammar_spec(s);
            let (g, _) = build(&spec);
            let (table, conflicts) = ParseTable::build_lenient(&g);
            let reference = MergedLr1::build(&g);
            check_eq!(table.n_states(), reference.trans.len(), "spec {spec:?}");
            // `state[r]`: the table state of reference state `r`.
            let mut state = vec![None; reference.trans.len()];
            state[0] = Some(0);
            let mut todo = vec![0];
            while let Some(r) = todo.pop() {
                let m = state[r].unwrap();
                for (&x, &to) in &reference.trans[r] {
                    let target = if g.is_terminal(x) {
                        match table.action(m, x) {
                            Action::Shift(t) => Some(t),
                            _ => None,
                        }
                    } else {
                        table.goto(m, x)
                    };
                    check!(target.is_some(), "spec {spec:?}: no move on {x:?}");
                    match state[to] {
                        None => {
                            state[to] = target;
                            todo.push(to);
                        }
                        seen => check_eq!(seen, target, "spec {spec:?}"),
                    }
                }
            }
            let state: Vec<u32> = state.into_iter().map(Option::unwrap).collect();
            let mut distinct = state.clone();
            distinct.sort_unstable();
            distinct.dedup();
            check_eq!(distinct.len(), state.len(), "spec {spec:?}");

            let (actions, expected) = reference.actions(&g);
            for (r, row) in actions.iter().enumerate() {
                for t in g.terminals() {
                    let want = match row.get(&t).copied().unwrap_or(Action::Error) {
                        Action::Shift(to) => Action::Shift(state[to as usize]),
                        a => a,
                    };
                    check_eq!(table.action(state[r], t), want, "spec {spec:?}");
                }
                for nt in g.nonterminals() {
                    let want = reference.trans[r].get(&nt).map(|&to| state[to]);
                    check_eq!(table.goto(state[r], nt), want, "spec {spec:?}");
                }
            }
            let key = |st: u32, la: SymbolId, d: &str| (st, la, d.to_string());
            let mut got: Vec<_> = conflicts
                .iter()
                .map(|c| key(c.state, c.lookahead, &c.description))
                .collect();
            let mut want: Vec<_> = expected
                .iter()
                .map(|(r, la, d)| key(state[*r], *la, d))
                .collect();
            got.sort();
            want.sort();
            check_eq!(got, want, "spec {spec:?}");
        }
    );
}

/// The reference: canonical LR(1) item sets (Dragon book §4.7.2) with
/// their own FIRST sets, merged by LR(0) core (§4.7.4). A state maps each
/// of its LR(0) items to that item's lookaheads; an item with none stays
/// in the state, as in the LR(0) automaton, though it never reduces (a
/// nonterminal that derives no terminal string leaves such items).
struct MergedLr1 {
    /// Per merged state: `(production, dot) -> lookaheads`.
    items: Vec<Lr1State>,
    /// Per merged state: `symbol -> merged state`.
    trans: Vec<BTreeMap<SymbolId, usize>>,
}

/// An LR(1) item set: `(production, dot) -> lookaheads`.
type Lr1State = BTreeMap<(ProdId, usize), BTreeSet<SymbolId>>;

impl MergedLr1 {
    fn build(g: &Grammar) -> MergedLr1 {
        let (first, nullable) = first_sets(g);
        let closure = |mut set: Lr1State| {
            let mut work: Vec<(ProdId, usize)> = set.keys().copied().collect();
            while let Some((p, dot)) = work.pop() {
                let rhs = g.rhs(p);
                let Some(&b) = rhs.get(dot).filter(|b| !g.is_terminal(**b)) else {
                    continue;
                };
                // FIRST(β L) for the item [A ::= α · B β, L].
                let mut f = BTreeSet::new();
                let mut all_nullable = true;
                for s in &rhs[dot + 1..] {
                    f.extend(first[s.index()].iter().copied());
                    if !nullable[s.index()] {
                        all_nullable = false;
                        break;
                    }
                }
                if all_nullable {
                    f.extend(set[&(p, dot)].iter().copied());
                }
                for &q in g.prods_of(b) {
                    let new = !set.contains_key(&(q, 0));
                    let las = set.entry((q, 0)).or_default();
                    let before = las.len();
                    las.extend(f.iter().copied());
                    if new || las.len() > before {
                        work.push((q, 0));
                    }
                }
            }
            set
        };

        // The canonical collection.
        let start = closure(BTreeMap::from([(
            (g.accept_prod(), 0),
            BTreeSet::from([g.eof()]),
        )]));
        let mut sets = vec![start.clone()];
        let mut index = BTreeMap::from([(start, 0)]);
        let mut lr1_trans: Vec<BTreeMap<SymbolId, usize>> = Vec::new();
        let mut i = 0;
        while i < sets.len() {
            let mut moves: BTreeMap<SymbolId, Lr1State> = BTreeMap::new();
            for (&(p, dot), las) in &sets[i] {
                if let Some(&x) = g.rhs(p).get(dot) {
                    moves
                        .entry(x)
                        .or_default()
                        .insert((p, dot + 1), las.clone());
                }
            }
            let mut row = BTreeMap::new();
            for (x, kernel) in moves {
                let set = closure(kernel);
                let next = sets.len();
                let to = *index.entry(set.clone()).or_insert_with(|| {
                    sets.push(set);
                    next
                });
                row.insert(x, to);
            }
            lr1_trans.push(row);
            i += 1;
        }

        // Merge by core, numbering cores in first-seen order.
        let mut merged_of = BTreeMap::new();
        let merged: Vec<usize> = sets
            .iter()
            .map(|set| {
                let next = merged_of.len();
                *merged_of
                    .entry(set.keys().copied().collect::<Vec<_>>())
                    .or_insert(next)
            })
            .collect();
        let mut items = vec![Lr1State::new(); merged_of.len()];
        let mut trans = vec![BTreeMap::new(); merged_of.len()];
        for (i, set) in sets.iter().enumerate() {
            for (&item, las) in set {
                items[merged[i]]
                    .entry(item)
                    .or_default()
                    .extend(las.iter().copied());
            }
            for (&x, &to) in &lr1_trans[i] {
                trans[merged[i]].insert(x, merged[to]);
            }
        }
        MergedLr1 { items, trans }
    }

    /// Each state's ACTION row (shifts name reference states) and the
    /// unresolved conflicts `(state, lookahead, description)`, filled as
    /// yacc does with no precedences: shifts first, then reductions in
    /// production order; shift wins shift/reduce, the lower production
    /// reduce/reduce, and any other clash keeps the older entry.
    #[allow(clippy::type_complexity)]
    fn actions(
        &self,
        g: &Grammar,
    ) -> (
        Vec<BTreeMap<SymbolId, Action>>,
        Vec<(usize, SymbolId, String)>,
    ) {
        let mut conflicts = Vec::new();
        let mut rows = Vec::new();
        for (r, items) in self.items.iter().enumerate() {
            let mut row: BTreeMap<SymbolId, Action> = self.trans[r]
                .iter()
                .filter(|(x, _)| g.is_terminal(**x))
                .map(|(&x, &to)| (x, Action::Shift(to as u32)))
                .collect();
            for (&(p, dot), las) in items {
                if dot < g.rhs(p).len() {
                    continue;
                }
                let new = if p == g.accept_prod() {
                    Action::Accept
                } else {
                    Action::Reduce(p)
                };
                for &la in las {
                    let old = *row.entry(la).or_insert(new);
                    let description = match (old, new) {
                        (old, new) if old == new => continue,
                        (Action::Shift(_), Action::Reduce(p)) => format!(
                            "shift/reduce (unresolved, defaulted to shift): shift `{}` vs reduce [{}]",
                            g.symbol_name(la),
                            g.display_prod(p)
                        ),
                        (Action::Reduce(p1), Action::Reduce(p2)) => {
                            row.insert(la, Action::Reduce(p1.min(p2)));
                            format!(
                                "reduce/reduce: [{}] vs [{}]",
                                g.display_prod(p1),
                                g.display_prod(p2)
                            )
                        }
                        (old, new) => format!("{old:?} vs {new:?}"),
                    };
                    conflicts.push((r, la, description));
                }
            }
            rows.push(row);
        }
        (rows, conflicts)
    }
}

/// FIRST sets (terminals) and nullability by the standard fixpoint.
fn first_sets(g: &Grammar) -> (Vec<BTreeSet<SymbolId>>, Vec<bool>) {
    let mut first = vec![BTreeSet::new(); g.n_symbols()];
    let mut nullable = vec![false; g.n_symbols()];
    for t in g.terminals() {
        first[t.index()].insert(t);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for p in g.prod_ids() {
            let lhs = g.lhs(p).index();
            let mut all_nullable = true;
            for s in g.rhs(p) {
                for t in first[s.index()].clone() {
                    changed |= first[lhs].insert(t);
                }
                if !nullable[s.index()] {
                    all_nullable = false;
                    break;
                }
            }
            if all_nullable && !nullable[lhs] {
                nullable[lhs] = true;
                changed = true;
            }
        }
    }
    (first, nullable)
}

/// The regression input recorded by the old proptest run (its
/// `prop.proptest-regressions` file): a grammar where nonterminal 0 has
/// only the appended empty production and the others only empty
/// productions, on empty input. Kept as a direct test in addition to the
/// `tests/prop.seeds` replay entry, so the input survives even if the
/// draw order of `grammar_spec` ever changes.
#[test]
fn regression_empty_production_grammar() {
    // The stream persisted in tests/prop.seeds must decode to the
    // recorded regression input (the guarantee loop appends `(0, [])`).
    let mut s = Source::of_stream(vec![0x0, 0x2, 0x0, 0x1, 0x0, 0x1, 0x0, 0x2, 0x0, 0x0]);
    let spec = grammar_spec(&mut s);
    let input = input_codes(&mut s);
    assert_eq!(spec.n_terms, 2);
    assert_eq!(spec.n_nonterms, 3);
    assert_eq!(
        spec.prods,
        vec![(1, vec![]), (1, vec![]), (2, vec![]), (0, vec![])]
    );
    assert!(input.is_empty());

    let (g, terms) = build(&spec);
    let toks = to_tokens(&input, &terms);
    if let Ok(table) = ParseTable::build(&g) {
        let parser = Parser::new(&g, &table);
        let earley = Earley::new(&g);
        assert_eq!(parser.recognize(&toks), earley.recognize(&toks));
    }
}
