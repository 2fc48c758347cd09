//! Table-driven shift-reduce parser building the [`ParseTree`] arena.

use std::fmt;

use crate::grammar::{Grammar, SymbolId};
use crate::table::{Action, ParseTable};
use crate::tree::ParseTree;

/// A scanner token: terminal kind plus an arbitrary value (text, position,
/// or — in cascaded evaluation — a symbol-table denotation).
#[derive(Clone, Debug, PartialEq)]
pub struct Token<V> {
    /// The terminal symbol.
    pub term: SymbolId,
    /// The value carried into attribute evaluation.
    pub value: V,
}

impl<V> Token<V> {
    /// Creates a token.
    pub fn new(term: SymbolId, value: V) -> Self {
        Token { term, value }
    }
}

/// A syntax error with enough context for a useful message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Index of the offending token in the input stream (input length if
    /// the error is at end of input).
    pub at: usize,
    /// Name of the terminal found.
    pub found: String,
    /// Names of the terminals that would have been accepted.
    pub expected: Vec<String>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "syntax error at token {}: found `{}`, expected one of: {}",
            self.at,
            self.found,
            self.expected.join(", ")
        )
    }
}

impl std::error::Error for ParseError {}

/// A reusable parser: a grammar plus its table, and the productions whose
/// nodes it leaves out of the tree.
pub struct Parser<'g> {
    grammar: &'g Grammar,
    table: &'g ParseTable,
    transparent: &'g [bool],
}

impl<'g> Parser<'g> {
    /// Wraps a grammar and its table; the tree has a node for every
    /// reduce.
    pub fn new(grammar: &'g Grammar, table: &'g ParseTable) -> Self {
        Parser::eliding(grammar, table, &[])
    }

    /// Like [`Parser::new`], but a reduce by a production flagged in
    /// `transparent` (indexed by production; missing entries are `false`)
    /// pushes no node: the production has one nonterminal on its right,
    /// and that child's subtree takes the left-hand side's place in its
    /// parent's child list. An attribute grammar computes the flags
    /// (`ag_core::AttrGrammar::transparent`) for productions whose rules
    /// only copy, so evaluation sees the same values on the smaller tree.
    pub fn eliding(grammar: &'g Grammar, table: &'g ParseTable, transparent: &'g [bool]) -> Self {
        Parser {
            grammar,
            table,
            transparent,
        }
    }

    /// Parses a token stream to a tree.
    ///
    /// The end-of-input terminal is appended automatically.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] at the first token with no legal action.
    pub fn parse<V, I>(&self, tokens: I) -> Result<ParseTree<V>, ParseError>
    where
        I: IntoIterator<Item = Token<V>>,
    {
        let g = self.grammar;
        let t = self.table;
        let mut states: Vec<u32> = vec![0];
        let mut input = tokens.into_iter();
        let mut tree = ParseTree::with_capacity(input.size_hint().0);
        // The subtree under each state but the first.
        let mut forest: Vec<u32> = Vec::new();
        let mut pos = 0usize;
        let mut lookahead: Option<Token<V>> = input.next();
        loop {
            let state = *states.last().expect("state stack never empty");
            let term = lookahead.as_ref().map_or(g.eof(), |t| t.term);
            match t.action(state, term) {
                Action::Shift(next) => {
                    let tok = lookahead.take().expect("cannot shift eof");
                    forest.push(tree.push_leaf(tok.term, tok.value));
                    states.push(next);
                    pos += 1;
                    lookahead = input.next();
                }
                Action::Reduce(prod) => {
                    let at = forest.len() - g.rhs(prod).len();
                    if !self.transparent.get(prod.index()).is_some_and(|&t| t) {
                        let id = tree.push_node(prod, g.lhs(prod), &forest[at..]);
                        forest.truncate(at);
                        forest.push(id);
                    }
                    states.truncate(at + 1);
                    let top = *states.last().expect("state stack never empty");
                    let next = t
                        .goto(top, g.lhs(prod))
                        .expect("goto must exist after reduce");
                    states.push(next);
                }
                Action::Accept => {
                    debug_assert_eq!(forest, [tree.root() as u32]);
                    return Ok(tree);
                }
                Action::Error => {
                    let expected = t
                        .expected_terminals(state)
                        .into_iter()
                        .map(|s| g.symbol_name(s).to_string())
                        .collect();
                    return Err(ParseError {
                        at: pos,
                        found: g.symbol_name(term).to_string(),
                        expected,
                    });
                }
            }
        }
    }

    /// Recognizes a token-kind sequence without building a tree (used by the
    /// property tests comparing against the Earley oracle).
    pub fn recognize(&self, terms: &[SymbolId]) -> bool {
        self.parse(terms.iter().map(|&t| Token::new(t, ()))).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{Assoc, GrammarBuilder};

    fn calc() -> (Grammar, ParseTable) {
        let mut g = GrammarBuilder::new();
        let plus = g.terminal("+");
        let star = g.terminal("*");
        let lp = g.terminal("(");
        let rp = g.terminal(")");
        let num = g.terminal("num");
        let e = g.nonterminal("e");
        g.precedence(plus, 1, Assoc::Left);
        g.precedence(star, 2, Assoc::Left);
        g.prod(e, &[e.into(), plus.into(), e.into()], "add");
        g.prod(e, &[e.into(), star.into(), e.into()], "mul");
        g.prod(e, &[lp.into(), e.into(), rp.into()], "paren");
        g.prod(e, &[num.into()], "num");
        g.start(e);
        let g = g.build().unwrap();
        let t = ParseTable::build(&g).unwrap();
        (g, t)
    }

    fn toks(g: &Grammar, s: &str) -> Vec<Token<i64>> {
        s.split_whitespace()
            .map(|w| match w.parse::<i64>() {
                Ok(n) => Token::new(g.symbol("num").unwrap(), n),
                Err(_) => Token::new(g.symbol(w).unwrap(), 0),
            })
            .collect()
    }

    fn eval(g: &Grammar, t: &ParseTree<i64>, n: usize) -> i64 {
        let Some(prod) = t.prod(n) else {
            return *t.token(n).unwrap();
        };
        match g.prod_label(prod) {
            "add" => eval(g, t, t.child(n, 1)) + eval(g, t, t.child(n, 3)),
            "mul" => eval(g, t, t.child(n, 1)) * eval(g, t, t.child(n, 3)),
            "paren" => eval(g, t, t.child(n, 2)),
            "num" => eval(g, t, t.child(n, 1)),
            other => panic!("unknown production {other}"),
        }
    }

    #[test]
    fn parses_with_precedence() {
        let (g, t) = calc();
        let p = Parser::new(&g, &t);
        let tree = p.parse(toks(&g, "1 + 2 * 3")).unwrap();
        assert_eq!(eval(&g, &tree, tree.root()), 7);
        let tree = p.parse(toks(&g, "( 1 + 2 ) * 3")).unwrap();
        assert_eq!(eval(&g, &tree, tree.root()), 9);
        // Left associativity: 10 + 2 + 3 groups as (10+2)+3.
        let tree = p.parse(toks(&g, "10 + 2 + 3")).unwrap();
        assert_eq!(eval(&g, &tree, tree.root()), 15);
    }

    #[test]
    fn reports_error_position_and_expectations() {
        let (g, t) = calc();
        let p = Parser::new(&g, &t);
        let err = p.parse(toks(&g, "1 + * 3")).unwrap_err();
        assert_eq!(err.at, 2);
        assert_eq!(err.found, "*");
        assert!(err.expected.contains(&"num".to_string()));
        assert!(err.expected.contains(&"(".to_string()));
        assert!(err.to_string().contains("syntax error"));
    }

    #[test]
    fn error_at_eof() {
        let (g, t) = calc();
        let p = Parser::new(&g, &t);
        let err = p.parse(toks(&g, "1 +")).unwrap_err();
        assert_eq!(err.at, 2);
        assert_eq!(err.found, "$eof");
    }

    #[test]
    fn empty_input_rejected_when_not_nullable() {
        let (g, t) = calc();
        let p = Parser::new(&g, &t);
        assert!(p.parse(Vec::<Token<i64>>::new()).is_err());
    }

    #[test]
    fn tree_shape_and_size() {
        let (g, t) = calc();
        let p = Parser::new(&g, &t);
        let tree = p.parse(toks(&g, "1 + 2")).unwrap();
        assert_eq!(g.prod_label(tree.prod(tree.root()).unwrap()), "add");
        assert_eq!(tree.children(tree.root()).len(), 3);
        assert_eq!(tree.len(), 6); // add(num(leaf), leaf+, num(leaf))
    }

    #[test]
    fn transparent_start_production_roots_the_tree_at_its_child() {
        // s ::= e is the start production; flagged, it pushes no node and
        // the `e` subtree is the whole tree.
        let mut g = GrammarBuilder::new();
        let plus = g.terminal("+");
        let num = g.terminal("num");
        let s = g.nonterminal("s");
        let e = g.nonterminal("e");
        let p_s = g.prod(s, &[e.into()], "s_e");
        g.prod(e, &[e.into(), plus.into(), num.into()], "add");
        g.prod(e, &[num.into()], "num");
        g.start(s);
        let g = g.build().unwrap();
        let t = ParseTable::build(&g).unwrap();
        let full = Parser::new(&g, &t).parse(toks(&g, "1 + 2")).unwrap();
        assert_eq!(full.len(), 6); // s(add(num(leaf), leaf+, leaf))
        assert_eq!(full.prod(full.root()), Some(p_s));
        let mut flags = vec![false; g.n_prods()];
        flags[p_s.index()] = true;
        let tree = Parser::eliding(&g, &t, &flags)
            .parse(toks(&g, "1 + 2"))
            .unwrap();
        assert_eq!(tree.len(), 5);
        let root = tree.root();
        assert_eq!(g.prod_label(tree.prod(root).unwrap()), "add");
        assert_eq!(tree.symbol(root), e);
        assert!(tree.parent(root).is_none());
        assert_eq!(eval(&g, &tree, root), 3);
        assert_eq!(tree, full.subtree(full.child(full.root(), 1)));
    }

    #[test]
    fn recognize_matches_parse() {
        let (g, t) = calc();
        let p = Parser::new(&g, &t);
        let num = g.symbol("num").unwrap();
        let plus = g.symbol("+").unwrap();
        assert!(p.recognize(&[num, plus, num]));
        assert!(!p.recognize(&[plus]));
    }
}
