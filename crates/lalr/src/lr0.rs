//! LR(0) canonical collection of item sets.

use std::collections::HashMap;

use crate::grammar::{Grammar, ProdId, SymbolId};

/// A dotted production `A ::= α · β`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Item {
    /// The production.
    pub prod: ProdId,
    /// Position of the dot, `0..=rhs.len()`.
    pub dot: u32,
}

impl Item {
    /// Item with the dot at the far left of `prod`.
    pub fn start(prod: ProdId) -> Item {
        Item { prod, dot: 0 }
    }

    /// The symbol immediately after the dot, or `None` for a complete item.
    pub fn next_symbol(self, g: &Grammar) -> Option<SymbolId> {
        g.rhs(self.prod).get(self.dot as usize).copied()
    }

    /// The item with the dot advanced one position.
    pub fn advanced(self) -> Item {
        Item {
            prod: self.prod,
            dot: self.dot + 1,
        }
    }
}

/// One state of the LR(0) automaton: its kernel items and transitions.
#[derive(Clone, Debug)]
pub struct State {
    /// Kernel items (initial item of the augmented production, or items with
    /// the dot not at the far left), sorted.
    pub kernel: Vec<Item>,
    /// `(symbol, target state)` transitions, sorted by symbol.
    pub transitions: Vec<(SymbolId, u32)>,
}

/// The LR(0) canonical collection.
#[derive(Clone, Debug)]
pub struct Lr0Automaton {
    /// States; state 0 is the start state.
    pub states: Vec<State>,
}

impl Lr0Automaton {
    /// Builds the canonical collection for `g`. States are numbered in
    /// discovery order: the newest state is expanded first, and its moves
    /// are taken in symbol order.
    pub fn build(g: &Grammar) -> Lr0Automaton {
        let start_kernel = vec![Item::start(g.accept_prod())];
        let mut states = vec![State {
            kernel: start_kernel.clone(),
            transitions: Vec::new(),
        }];
        let mut index: HashMap<Vec<Item>, u32> = HashMap::from([(start_kernel, 0)]);
        let mut work = vec![0u32];
        let mut moves: Vec<(SymbolId, Item)> = Vec::new();
        let mut kernel = Vec::new();
        while let Some(si) = work.pop() {
            // Each item's move, grouped by symbol; a group is the sorted
            // kernel of its target.
            moves.clear();
            moves.extend(
                close(g, &states[si as usize].kernel)
                    .into_iter()
                    .filter_map(|item| Some((item.next_symbol(g)?, item.advanced()))),
            );
            moves.sort_unstable();
            for group in moves.chunk_by(|a, b| a.0 == b.0) {
                kernel.clear();
                kernel.extend(group.iter().map(|m| m.1));
                let target = match index.get(kernel.as_slice()) {
                    Some(&t) => t,
                    None => {
                        let id = states.len() as u32;
                        index.insert(kernel.clone(), id);
                        states.push(State {
                            kernel: kernel.clone(),
                            transitions: Vec::new(),
                        });
                        work.push(id);
                        id
                    }
                };
                states[si as usize].transitions.push((group[0].0, target));
            }
        }
        Lr0Automaton { states }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// The state reached from `s` on `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has no transition on `sym`.
    pub fn goto(&self, s: u32, sym: SymbolId) -> u32 {
        let ts = &self.states[s as usize].transitions;
        let i = ts
            .binary_search_by_key(&sym, |t| t.0)
            .expect("no transition");
        ts[i].1
    }
}

/// Computes the closure of a kernel: the kernel, then `B ::= ·γ` for every
/// nonterminal `B` after a dot, transitively, each `B` added once.
pub fn close(g: &Grammar, kernel: &[Item]) -> Vec<Item> {
    let mut items = kernel.to_vec();
    let mut added = vec![false; g.n_symbols()];
    let mut i = 0;
    while let Some(&item) = items.get(i) {
        i += 1;
        match item.next_symbol(g) {
            Some(b) if !g.is_terminal(b) && !added[b.index()] => {
                added[b.index()] = true;
                items.extend(g.prods_of(b).iter().map(|&p| Item::start(p)));
            }
            _ => {}
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    /// Dragon book grammar 4.1: E ::= E + T | T ; T ::= T * F | F ;
    /// F ::= ( E ) | id — canonical collection has 12 states.
    fn dragon41() -> Grammar {
        let mut g = GrammarBuilder::new();
        let plus = g.terminal("+");
        let star = g.terminal("*");
        let lp = g.terminal("(");
        let rp = g.terminal(")");
        let id = g.terminal("id");
        let e = g.nonterminal("E");
        let t = g.nonterminal("T");
        let f = g.nonterminal("F");
        g.prod(e, &[e.into(), plus.into(), t.into()], "e_plus");
        g.prod(e, &[t.into()], "e_t");
        g.prod(t, &[t.into(), star.into(), f.into()], "t_star");
        g.prod(t, &[f.into()], "t_f");
        g.prod(f, &[lp.into(), e.into(), rp.into()], "f_paren");
        g.prod(f, &[id.into()], "f_id");
        g.start(e);
        g.build().unwrap()
    }

    #[test]
    fn dragon41_has_twelve_states() {
        let g = dragon41();
        let a = Lr0Automaton::build(&g);
        assert_eq!(a.n_states(), 12);
    }

    #[test]
    fn start_state_closure() {
        let g = dragon41();
        let a = Lr0Automaton::build(&g);
        let c = close(&g, &a.states[0].kernel);
        // __goal::=·E, E::=·E+T, E::=·T, T::=·T*F, T::=·F, F::=·(E), F::=·id
        assert_eq!(c.len(), 7);
        assert!(c.iter().all(|i| i.dot == 0));
    }

    #[test]
    fn transitions_deterministic() {
        let g = dragon41();
        let a1 = Lr0Automaton::build(&g);
        let a2 = Lr0Automaton::build(&g);
        for (s1, s2) in a1.states.iter().zip(&a2.states) {
            assert_eq!(s1.kernel, s2.kernel);
            assert_eq!(s1.transitions, s2.transitions);
        }
    }

    #[test]
    fn item_accessors() {
        let g = dragon41();
        let p = g.prod_by_label("f_paren").unwrap();
        let i = Item::start(p);
        assert_eq!(i.next_symbol(&g), g.symbol("("));
        let i = i.advanced().advanced().advanced();
        assert_eq!(i.next_symbol(&g), None);
    }

    #[test]
    fn empty_production_state() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        let t = g.nonterminal("t");
        g.prod(s, &[t.into(), a.into()], "s");
        g.prod(t, &[], "t_empty");
        g.start(s);
        let g = g.build().unwrap();
        let aut = Lr0Automaton::build(&g);
        // Start closure contains the complete item t ::= ·
        let c = close(&g, &aut.states[0].kernel);
        let t_empty = g.prod_by_label("t_empty").unwrap();
        assert!(c.contains(&Item::start(t_empty)));
        assert_eq!(Item::start(t_empty).next_symbol(&g), None);
    }
}
