//! VHDL-87 subset front end: scanner and the principal LALR(1) grammar.
//!
//! Part of the reproduction of *A VHDL Compiler Based on Attribute Grammar
//! Methodology* (Farrow & Stanculescu, PLDI 1989). The principal grammar
//! deliberately parses expressions as flat token runs — the first half of
//! the paper's *cascaded evaluation* idiom; the expression AG in
//! `vhdl-sem` re-parses them after name resolution.
//!
//! # Example
//!
//! ```
//! use vhdl_syntax::PrincipalGrammar;
//! let g = PrincipalGrammar::shared();
//! let cst = g.parse_str("entity e is end;")?;
//! // One arena in postorder: the root is last, the leaves are the tokens.
//! assert_eq!(cst.root(), cst.len() - 1);
//! assert_eq!(cst.leaves().len(), 5);
//! # Ok::<(), vhdl_syntax::FrontError>(())
//! ```

pub mod lexer;
pub mod principal;
pub mod token;

pub use lexer::{lex, LexError};
pub use principal::{FrontError, PrincipalGrammar};
pub use token::{Pos, SrcTok, TokenKind};
