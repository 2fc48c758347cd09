//! LALR(1) lookahead computation.
//!
//! DeRemer & Pennello, "Efficient Computation of LALR(1) Look-Ahead Sets"
//! (TOPLAS 1982): one pass over the LR(0) automaton's nonterminal
//! transitions `(p, A)`, with no LR(1) closure and no FIRST sets.
//!
//! - `DR(p, A)` holds the terminals that the state `goto(p, A)` shifts
//!   (and end of input for `(0, start)`);
//! - `(p, A) reads (r, C)` when `r = goto(p, A)` moves on a nullable `C`,
//!   and `Read` closes `DR` over `reads`;
//! - `(p, A) includes (p', B)` when some `B ::= β A γ` with nullable `γ`
//!   leads from `p'` to `p` on `β`, and `Follow` closes `Read` over
//!   `includes`;
//! - the state `q` reached from `p'` on all of `β` reduces `B ::= β` on
//!   `Follow(p', B)` (`lookback`), merged over every such `p'`.
//!
//! Both closures are one Tarjan walk each (`digraph`), in which every
//! strongly connected component shares one set.

use crate::bitset::BitSet;
use crate::first::nullable;
use crate::grammar::{Grammar, ProdId};
use crate::lr0::Lr0Automaton;

/// The reductions of every state of `aut`: `(production, lookaheads)` in
/// production order, empty productions and the accepting
/// `__goal ::= start ·` (on end of input alone) included. Lookahead bits
/// are terminal symbol indices.
pub fn reductions(g: &Grammar, aut: &Lr0Automaton) -> Vec<Vec<(ProdId, BitSet)>> {
    let nullable = nullable(g);
    let n = g.n_symbols();
    // The nonterminal transitions `(p, A)`, by state and then symbol;
    // state `p`'s are `trans[offset[p]..offset[p + 1]]`.
    let mut trans = Vec::new();
    let mut offset = vec![0];
    for (p, st) in aut.states.iter().enumerate() {
        let nts = st.transitions.iter().filter(|t| !g.is_terminal(t.0));
        trans.extend(nts.map(|&(a, _)| (p as u32, a)));
        offset.push(trans.len());
    }
    let index = |p: u32, a| {
        let (lo, hi) = (offset[p as usize], offset[p as usize + 1]);
        lo + trans[lo..hi]
            .binary_search_by_key(&a, |t| t.1)
            .expect("transition")
    };

    let mut sets = Vec::with_capacity(trans.len() + 1);
    let mut reads = Vec::with_capacity(trans.len());
    for &(p, a) in &trans {
        let r = aut.goto(p, a);
        let mut dr = BitSet::new(n);
        let mut edges = Vec::new();
        for &(c, _) in &aut.states[r as usize].transitions {
            if g.is_terminal(c) {
                dr.insert(c.index());
            } else if nullable[c.index()] {
                edges.push(index(r, c));
            }
        }
        sets.push(dr);
        reads.push(edges);
    }
    sets[index(0, g.start_symbol())].insert(g.eof().index());
    digraph(&reads, &mut sets);

    // One walk of each production of `B` from `p'` gives both relations.
    let mut includes = vec![Vec::new(); trans.len()];
    let mut lookback = vec![Vec::new(); aut.n_states()];
    for (t, &(p, b)) in trans.iter().enumerate() {
        for &prod in g.prods_of(b) {
            let rhs = g.rhs(prod);
            // `rhs[tail..]` is the longest nullable suffix.
            let tail = rhs
                .iter()
                .rposition(|s| !nullable[s.index()])
                .map_or(0, |i| i + 1);
            let mut q = p;
            for (i, &x) in rhs.iter().enumerate() {
                if i + 1 >= tail && !g.is_terminal(x) {
                    includes[index(q, x)].push(t);
                }
                q = aut.goto(q, x);
            }
            lookback[q as usize].push((prod, t));
        }
    }
    digraph(&includes, &mut sets);

    // The accepting item reduces on end of input alone, a set of its own.
    let mut eof = BitSet::new(n);
    eof.insert(g.eof().index());
    sets.push(eof);
    let accepting = aut.goto(0, g.start_symbol()) as usize;
    lookback[accepting].push((g.accept_prod(), trans.len()));
    lookback
        .into_iter()
        .map(|mut lb| {
            lb.sort_unstable();
            let mut out: Vec<(ProdId, BitSet)> = Vec::new();
            for (prod, t) in lb {
                if out.last().is_none_or(|r| r.0 != prod) {
                    out.push((prod, BitSet::new(n)));
                }
                out.last_mut().unwrap().1.union_with(&sets[t]);
            }
            out
        })
        .collect()
}

/// Closes `sets` over `rel`: afterwards each `sets[x]` also holds
/// `sets[y]` for every `y` reachable from `x`. DeRemer & Pennello's
/// `digraph`: a Tarjan walk whose components share one set.
fn digraph(rel: &[Vec<usize>], sets: &mut [BitSet]) {
    let mut depth = vec![0; rel.len()];
    let mut stack = Vec::new();
    for x in 0..rel.len() {
        if depth[x] == 0 {
            traverse(x, rel, sets, &mut depth, &mut stack);
        }
    }
}

fn traverse(
    x: usize,
    rel: &[Vec<usize>],
    sets: &mut [BitSet],
    depth: &mut [usize],
    stack: &mut Vec<usize>,
) {
    stack.push(x);
    let d = stack.len();
    depth[x] = d;
    for &y in &rel[x] {
        if depth[y] == 0 {
            traverse(y, rel, sets, depth, stack);
        }
        depth[x] = depth[x].min(depth[y]);
        if y != x {
            let from = std::mem::replace(&mut sets[y], BitSet::new(0));
            sets[x].union_with(&from);
            sets[y] = from;
        }
    }
    if depth[x] == d {
        while let Some(top) = stack.pop() {
            depth[top] = usize::MAX;
            if top == x {
                break;
            }
            sets[top] = sets[x].clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    /// Dragon book grammar 4.20 (pointers/assignments):
    /// S ::= L = R | R ; L ::= * R | id ; R ::= L
    /// The canonical LALR table for this grammar is the book's Fig. 4.47.
    fn dragon420() -> (Grammar, Lr0Automaton, Vec<Vec<(ProdId, BitSet)>>) {
        let mut g = GrammarBuilder::new();
        let eq = g.terminal("=");
        let star = g.terminal("*");
        let id = g.terminal("id");
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let r = g.nonterminal("R");
        g.prod(s, &[l.into(), eq.into(), r.into()], "s_assign");
        g.prod(s, &[r.into()], "s_r");
        g.prod(l, &[star.into(), r.into()], "l_deref");
        g.prod(l, &[id.into()], "l_id");
        g.prod(r, &[l.into()], "r_l");
        g.start(s);
        let g = g.build().unwrap();
        let aut = Lr0Automaton::build(&g);
        let reds = reductions(&g, &aut);
        (g, aut, reds)
    }

    /// The names of the lookaheads on which `state` reduces by `label`.
    fn lookaheads<'g>(
        g: &'g Grammar,
        reds: &[Vec<(ProdId, BitSet)>],
        state: u32,
        label: &str,
    ) -> Vec<&'g str> {
        let prod = g.prod_by_label(label).unwrap();
        let (_, set) = reds[state as usize].iter().find(|r| r.0 == prod).unwrap();
        set.iter()
            .map(|i| g.symbol_name(crate::SymbolId::from_index(i)))
            .collect()
    }

    #[test]
    fn dragon420_shape() {
        let (_, aut, _) = dragon420();
        assert_eq!(aut.n_states(), 10);
    }

    /// The famous property of grammar 4.20: it is not SLR(1) (FOLLOW(R)
    /// contains `=`), but it *is* LALR(1): `R ::= L ·`, in the state
    /// reached on `L` from the start, reduces on end of input only.
    #[test]
    fn dragon420_lalr_lookaheads() {
        let (g, aut, reds) = dragon420();
        let on_l = aut.goto(0, g.symbol("L").unwrap());
        // SLR would use FOLLOW(R) = {=, $} here and report a shift/reduce
        // conflict on `=`. LALR computes the context-exact lookahead {$}:
        // this is the textbook witness that the grammar is LALR(1) but not
        // SLR(1).
        assert_eq!(lookaheads(&g, &reds, on_l, "r_l"), ["$eof"]);
        assert_eq!(reds[on_l as usize].len(), 1);
    }

    /// `L ::= id ·` reduces on `=` (L before `=` in `S ::= L = R`) and on
    /// end of input (L at the end of `R ::= L`), the two lookaheads merged
    /// from the contexts that share its state.
    #[test]
    fn l_id_reduces_on_eq_and_eof() {
        let (g, aut, reds) = dragon420();
        let on_id = aut.goto(0, g.symbol("id").unwrap());
        assert_eq!(lookaheads(&g, &reds, on_id, "l_id"), ["=", "$eof"]);
    }

    #[test]
    fn accept_item_has_eof() {
        let (g, aut, reds) = dragon420();
        let accepting = aut.goto(0, g.start_symbol());
        assert_eq!(lookaheads(&g, &reds, accepting, "__accept"), ["$eof"]);
    }

    /// An empty production reduces in the state whose closure holds it,
    /// on what follows its nonterminal there.
    #[test]
    fn empty_production_reduces_on_follow() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let b = g.terminal("b");
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into(), a.into()], "s_a");
        g.prod(s, &[b.into(), t.into()], "s_b");
        g.prod(t, &[], "t_empty");
        g.start(s);
        let g = g.build().unwrap();
        let aut = Lr0Automaton::build(&g);
        let reds = reductions(&g, &aut);
        assert_eq!(lookaheads(&g, &reds, 0, "t_empty"), ["a"]);
        assert_eq!(lookaheads(&g, &reds, aut.goto(0, b), "t_empty"), ["$eof"]);
    }
}
