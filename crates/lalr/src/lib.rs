//! LALR(1) parser generator.
//!
//! This crate is the parsing half of the attribute-grammar toolchain that
//! reproduces the Linguist translator-writing-system described in
//! *A VHDL Compiler Based on Attribute Grammar Methodology* (Farrow &
//! Stanculescu, PLDI 1989). It provides:
//!
//! - a [`Grammar`] representation built through [`GrammarBuilder`],
//! - the LR(0) canonical collection ([`lr0::Lr0Automaton`]),
//! - each state's reductions and their LALR(1) lookaheads, by DeRemer &
//!   Pennello's relations over the LR(0) automaton's nonterminal
//!   transitions ([`lalr`]), which need only nullability
//!   ([`first::nullable`]), no FIRST sets and no LR(1) closures,
//! - action/goto tables with precedence-based conflict resolution
//!   ([`table::ParseTable`]),
//! - a table-driven parser ([`parser`]) building one postorder arena
//!   ([`tree`]), the tree `ag-core`'s evaluators decorate,
//! - an Earley recognizer used as an oracle in property tests ([`earley`]).
//!
//! # Example
//!
//! ```
//! use ag_lalr::{GrammarBuilder, table::ParseTable, parser::{Parser, Token}};
//!
//! let mut g = GrammarBuilder::new();
//! let num = g.terminal("num");
//! let plus = g.terminal("+");
//! let expr = g.nonterminal("expr");
//! g.prod(expr, &[expr.into(), plus.into(), num.into()], "expr_plus");
//! g.prod(expr, &[num.into()], "expr_num");
//! g.start(expr);
//! let grammar = g.build().unwrap();
//! let table = ParseTable::build(&grammar).unwrap();
//! let parser = Parser::new(&grammar, &table);
//! let tree = parser
//!     .parse([Token::new(num, 1), Token::new(plus, 0), Token::new(num, 2)])
//!     .unwrap();
//! assert_eq!(grammar.prod_label(tree.prod(tree.root()).unwrap()), "expr_plus");
//! assert_eq!(tree.len(), 5); // expr_plus(expr_num(1), +, 2), postorder
//! assert_eq!(tree.leaves(), [1, 0, 2]);
//! ```

pub mod bitset;
pub mod earley;
pub mod first;
pub mod grammar;
pub mod lalr;
pub mod lr0;
pub mod parser;
pub mod table;
pub mod tree;

pub use grammar::{Assoc, Grammar, GrammarBuilder, GrammarError, ProdId, SymbolId, SymbolKind};
pub use parser::{ParseError, Parser, Token};
pub use table::{Action, Conflict, ParseTable, TableError};
pub use tree::{NodeId, ParseTree};
