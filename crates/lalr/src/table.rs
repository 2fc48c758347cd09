//! ACTION/GOTO table construction with precedence-based conflict
//! resolution.

use std::cmp::Ordering;
use std::fmt;

use crate::grammar::{Assoc, Grammar, ProdId, SymbolId};
use crate::lalr;
use crate::lr0::Lr0Automaton;

/// One entry of the ACTION table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// No legal move: syntax error.
    Error,
    /// Shift the lookahead and go to the state.
    Shift(u32),
    /// Reduce by the production.
    Reduce(ProdId),
    /// Accept the input.
    Accept,
}

/// A table conflict that declared precedences did not resolve, for
/// diagnostics.
#[derive(Clone, Debug)]
pub struct Conflict {
    /// State in which the conflict occurs.
    pub state: u32,
    /// Lookahead terminal.
    pub lookahead: SymbolId,
    /// The lookahead terminal's name, for reports.
    pub lookahead_name: String,
    /// Human-readable description (`shift/reduce` or `reduce/reduce` with
    /// the productions involved).
    pub description: String,
}

/// Error produced when a grammar is not LALR(1) under the declared
/// precedences.
#[derive(Clone, Debug)]
pub struct TableError {
    /// All unresolved conflicts.
    pub conflicts: Vec<Conflict>,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} LALR conflict(s):", self.conflicts.len())?;
        for c in &self.conflicts {
            writeln!(
                f,
                "  state {}: {} on `{}`",
                c.state, c.description, c.lookahead_name
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for TableError {}

/// A complete LALR(1) parse table.
#[derive(Clone, Debug)]
pub struct ParseTable {
    n_states: usize,
    /// Column index per symbol (terminals only).
    term_col: Vec<Option<u32>>,
    n_terms: usize,
    action: Vec<Action>,
    /// `goto[state * n_nonterms + nt_col]`.
    nt_col: Vec<Option<u32>>,
    n_nonterms: usize,
    goto: Vec<Option<u32>>,
}

impl ParseTable {
    /// Builds the LALR(1) table for `g`.
    ///
    /// # Errors
    ///
    /// Fails with [`TableError`] listing every conflict that declared
    /// precedences could not resolve. Use [`ParseTable::build_lenient`] to
    /// get a table anyway (shift wins shift/reduce, lowest production id
    /// wins reduce/reduce — the yacc defaults).
    pub fn build(g: &Grammar) -> Result<ParseTable, TableError> {
        let (table, unresolved) = Self::construct(g);
        if unresolved.is_empty() {
            Ok(table)
        } else {
            Err(TableError {
                conflicts: unresolved,
            })
        }
    }

    /// Builds the table, resolving residual conflicts by the yacc defaults
    /// and returning them alongside the table.
    pub fn build_lenient(g: &Grammar) -> (ParseTable, Vec<Conflict>) {
        Self::construct(g)
    }

    fn construct(g: &Grammar) -> (ParseTable, Vec<Conflict>) {
        let aut = Lr0Automaton::build(g);
        let reductions = lalr::reductions(g, &aut);

        let mut term_col = vec![None; g.n_symbols()];
        let mut n_terms = 0u32;
        for t in g.terminals() {
            term_col[t.index()] = Some(n_terms);
            n_terms += 1;
        }
        let mut nt_col = vec![None; g.n_symbols()];
        let mut n_nonterms = 0u32;
        for nt in g.nonterminals() {
            nt_col[nt.index()] = Some(n_nonterms);
            n_nonterms += 1;
        }

        let n_states = aut.n_states();
        let mut action = vec![Action::Error; n_states * n_terms as usize];
        let mut goto = vec![None; n_states * n_nonterms as usize];
        let mut unresolved = Vec::new();

        for (si, state) in aut.states.iter().enumerate() {
            // Shifts and gotos from LR(0) transitions.
            for &(sym, target) in &state.transitions {
                if g.is_terminal(sym) {
                    let col = term_col[sym.index()].unwrap() as usize;
                    action[si * n_terms as usize + col] = Action::Shift(target);
                } else {
                    let col = nt_col[sym.index()].unwrap() as usize;
                    goto[si * n_nonterms as usize + col] = Some(target);
                }
            }
            // Reduces, in production order, on their LALR lookaheads.
            for &(prod, ref lookaheads) in &reductions[si] {
                for la in lookaheads.iter() {
                    let la_sym = SymbolId(la as u32);
                    let col = term_col[la].expect("lookahead must be terminal") as usize;
                    let cell = &mut action[si * n_terms as usize + col];
                    let new = if prod == g.accept_prod() {
                        Action::Accept
                    } else {
                        Action::Reduce(prod)
                    };
                    let conflict = |description| Conflict {
                        state: si as u32,
                        lookahead: la_sym,
                        lookahead_name: g.symbol_name(la_sym).to_string(),
                        description,
                    };
                    match (*cell, new) {
                        (Action::Error, n) => *cell = n,
                        (old, n) if old == n => {}
                        (Action::Shift(t), Action::Reduce(p)) => {
                            *cell = match resolve_shift_reduce(g, t, p, la_sym) {
                                Some(entry) => entry,
                                None => {
                                    unresolved.push(conflict(format!(
                                        "shift/reduce (unresolved, defaulted to shift): \
                                         shift `{}` vs reduce [{}]",
                                        g.symbol_name(la_sym),
                                        g.display_prod(p)
                                    )));
                                    Action::Shift(t)
                                }
                            };
                        }
                        (Action::Reduce(p1), Action::Reduce(p2)) => {
                            unresolved.push(conflict(format!(
                                "reduce/reduce: [{}] vs [{}]",
                                g.display_prod(p1),
                                g.display_prod(p2)
                            )));
                            *cell = Action::Reduce(p1.min(p2));
                        }
                        (old, n) => unresolved.push(conflict(format!("{old:?} vs {n:?}"))),
                    }
                }
            }
        }

        (
            ParseTable {
                n_states,
                term_col,
                n_terms: n_terms as usize,
                action,
                nt_col,
                n_nonterms: n_nonterms as usize,
                goto,
            },
            unresolved,
        )
    }

    /// Number of LR states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// ACTION entry for `state` on terminal `t`.
    pub fn action(&self, state: u32, t: SymbolId) -> Action {
        match self.term_col[t.index()] {
            Some(col) => self.action[state as usize * self.n_terms + col as usize],
            None => Action::Error,
        }
    }

    /// GOTO entry for `state` on nonterminal `nt`.
    pub fn goto(&self, state: u32, nt: SymbolId) -> Option<u32> {
        let col = self.nt_col[nt.index()]?;
        self.goto[state as usize * self.n_nonterms + col as usize]
    }

    /// All terminals with a non-error action in `state` — the "expected
    /// tokens" set used in error messages.
    pub fn expected_terminals(&self, state: u32) -> Vec<SymbolId> {
        let mut out = Vec::new();
        for (sym_idx, col) in self.term_col.iter().enumerate() {
            if let Some(col) = col {
                if self.action[state as usize * self.n_terms + *col as usize] != Action::Error {
                    out.push(SymbolId(sym_idx as u32));
                }
            }
        }
        out
    }

    /// Total number of ACTION cells that are not `Error` (table density
    /// statistic, used by the size experiments).
    pub fn n_nonerror_actions(&self) -> usize {
        self.action.iter().filter(|a| **a != Action::Error).count()
    }
}

/// The entry that declared precedences give a shift/reduce conflict on
/// `la`, or `None` when the production or the lookahead has none.
fn resolve_shift_reduce(
    g: &Grammar,
    shift_target: u32,
    prod: ProdId,
    la: SymbolId,
) -> Option<Action> {
    let (rp, assoc) = g.prod_prec(prod)?;
    let (sp, _) = g.symbol_prec(la)?;
    Some(match (rp.cmp(&sp), assoc) {
        (Ordering::Greater, _) | (Ordering::Equal, Assoc::Left) => Action::Reduce(prod),
        (Ordering::Less, _) | (Ordering::Equal, Assoc::Right) => Action::Shift(shift_target),
        (Ordering::Equal, Assoc::NonAssoc) => Action::Error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn expr_grammar(with_prec: bool) -> Grammar {
        let mut g = GrammarBuilder::new();
        let plus = g.terminal("+");
        let star = g.terminal("*");
        let num = g.terminal("num");
        let e = g.nonterminal("e");
        if with_prec {
            g.precedence(plus, 1, Assoc::Left);
            g.precedence(star, 2, Assoc::Left);
        }
        g.prod(e, &[e.into(), plus.into(), e.into()], "add");
        g.prod(e, &[e.into(), star.into(), e.into()], "mul");
        g.prod(e, &[num.into()], "num");
        g.start(e);
        g.build().unwrap()
    }

    #[test]
    fn ambiguous_without_precedence() {
        let g = expr_grammar(false);
        let err = ParseTable::build(&g).unwrap_err();
        assert!(!err.conflicts.is_empty());
        assert!(err.to_string().contains("shift/reduce"));
    }

    #[test]
    fn conflict_report_names_the_lookahead() {
        // Without precedence, `e + e` and `e * e` conflict on `+` and `*`.
        let err = ParseTable::build(&expr_grammar(false)).unwrap_err();
        let msg = err.to_string();
        for c in &err.conflicts {
            assert!(["+", "*"].contains(&c.lookahead_name.as_str()), "{msg}");
            assert!(msg.contains(&format!("on `{}`", c.lookahead_name)), "{msg}");
            assert!(
                !msg.contains(&format!("on `{}`", c.lookahead.index())),
                "{msg}"
            );
        }
    }

    /// With `+` below `*`, both left-associative, the state after `e + e`
    /// reduces on `+` and shifts `*`.
    #[test]
    fn precedence_resolves_everything() {
        let g = expr_grammar(true);
        let t = ParseTable::build(&g).unwrap();
        let sym = |name| g.symbol(name).unwrap();
        let e = t.goto(0, sym("e")).unwrap();
        let Action::Shift(plus) = t.action(e, sym("+")) else {
            panic!("no shift of `+` after `e`");
        };
        let after = t.goto(plus, sym("e")).unwrap();
        let add = g.prod_by_label("add").unwrap();
        assert_eq!(t.action(after, sym("+")), Action::Reduce(add));
        assert!(matches!(t.action(after, sym("*")), Action::Shift(_)));
    }

    #[test]
    fn unambiguous_grammar_clean() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let b = g.terminal("b");
        let s = g.nonterminal("s");
        g.prod(s, &[a.into(), s.into(), b.into()], "s_wrap");
        g.prod(s, &[], "s_empty");
        g.start(s);
        let g = g.build().unwrap();
        let t = ParseTable::build(&g).unwrap();
        assert!(t.n_states() > 0);
        assert!(t.n_nonerror_actions() > 0);
    }

    #[test]
    fn nonassoc_yields_error_entry() {
        let mut g = GrammarBuilder::new();
        let lt = g.terminal("<");
        let num = g.terminal("num");
        let e = g.nonterminal("e");
        g.precedence(lt, 1, Assoc::NonAssoc);
        g.prod(e, &[e.into(), lt.into(), e.into()], "cmp");
        g.prod(e, &[num.into()], "num");
        g.start(e);
        let g = g.build().unwrap();
        let t = ParseTable::build(&g).unwrap();
        // Find the state after parsing `e < e` — action on `<` must be Error.
        // Walk: state0 --num--> sN reduces... easier: scan all states for the
        // pattern: some state has Reduce(cmp) on eof; that state's action on
        // `<` must be Error (no chaining of nonassoc).
        let cmp = g.prod_by_label("cmp").unwrap();
        let mut seen = false;
        for s in 0..t.n_states() as u32 {
            if t.action(s, g.eof()) == Action::Reduce(cmp) {
                assert_eq!(t.action(s, lt), Action::Error);
                seen = true;
            }
        }
        assert!(seen);
    }

    #[test]
    fn expected_terminals_reports_moves() {
        let g = expr_grammar(true);
        let t = ParseTable::build(&g).unwrap();
        let exp = t.expected_terminals(0);
        let names: Vec<_> = exp.iter().map(|s| g.symbol_name(*s)).collect();
        assert_eq!(names, vec!["num"]);
    }
}
