//! Nullable symbols: the one fact about the grammar that the lookahead
//! pass ([`crate::lalr`]) needs beyond the LR(0) automaton. No FIRST sets
//! are computed; the `reads` relation plays their part.

use crate::grammar::Grammar;

/// Which symbols derive the empty string, indexed by symbol index
/// (terminals are never nullable), by the standard fixpoint iteration.
///
/// # Example
///
/// ```
/// use ag_lalr::{GrammarBuilder, first::nullable};
/// let mut g = GrammarBuilder::new();
/// let a = g.terminal("a");
/// let s = g.nonterminal("s");
/// let t = g.nonterminal("t");
/// g.prod(s, &[t.into(), a.into()], "s");
/// g.prod(t, &[], "t_empty");
/// g.prod(t, &[a.into()], "t_a");
/// g.start(s);
/// let g = g.build()?;
/// let nullable = nullable(&g);
/// assert!(nullable[t.index()]);
/// assert!(!nullable[s.index()] && !nullable[a.index()]);
/// # Ok::<(), ag_lalr::GrammarError>(())
/// ```
pub fn nullable(g: &Grammar) -> Vec<bool> {
    let mut nullable = vec![false; g.n_symbols()];
    let mut changed = true;
    while changed {
        changed = false;
        for p in g.prod_ids() {
            let lhs = g.lhs(p).index();
            if !nullable[lhs] && g.rhs(p).iter().all(|r| nullable[r.index()]) {
                nullable[lhs] = true;
                changed = true;
            }
        }
    }
    nullable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    /// Classic dragon-book grammar:
    /// E ::= T E'   E' ::= + T E' | ε   T ::= F T'   T' ::= * F T' | ε
    /// F ::= ( E ) | id
    #[test]
    fn dragon_nullable() {
        let mut g = GrammarBuilder::new();
        let plus = g.terminal("+");
        let star = g.terminal("*");
        let lp = g.terminal("(");
        let rp = g.terminal(")");
        let id = g.terminal("id");
        let e = g.nonterminal("E");
        let ep = g.nonterminal("E'");
        let t = g.nonterminal("T");
        let tp = g.nonterminal("T'");
        let f = g.nonterminal("F");
        g.prod(e, &[t.into(), ep.into()], "e");
        g.prod(ep, &[plus.into(), t.into(), ep.into()], "ep_plus");
        g.prod(ep, &[], "ep_empty");
        g.prod(t, &[f.into(), tp.into()], "t");
        g.prod(tp, &[star.into(), f.into(), tp.into()], "tp_star");
        g.prod(tp, &[], "tp_empty");
        g.prod(f, &[lp.into(), e.into(), rp.into()], "f_paren");
        g.prod(f, &[id.into()], "f_id");
        g.start(e);
        let g = g.build().unwrap();
        let nullable = nullable(&g);
        let named: Vec<&str> = g
            .symbol_ids()
            .filter(|s| nullable[s.index()])
            .map(|s| g.symbol_name(s))
            .collect();
        assert_eq!(named, ["E'", "T'"]);
    }

    /// A nullable chain makes its head nullable; left recursion with a
    /// terminal does not.
    #[test]
    fn nullable_chain_and_left_recursion() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        let b = g.nonterminal("b");
        let c = g.nonterminal("c");
        let r = g.nonterminal("r");
        g.prod(s, &[b.into(), r.into()], "s");
        g.prod(b, &[c.into(), c.into()], "b");
        g.prod(c, &[], "c_empty");
        g.prod(r, &[r.into(), a.into()], "r_rec");
        g.prod(r, &[a.into()], "r_a");
        g.start(s);
        let g = g.build().unwrap();
        let nullable = nullable(&g);
        assert!(nullable[b.index()] && nullable[c.index()]);
        assert!(!nullable[r.index()] && !nullable[s.index()]);
    }
}
