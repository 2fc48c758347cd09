//! Attribute grammar engine.
//!
//! The evaluator-generator half of the toolchain reproducing Linguist from
//! *A VHDL Compiler Based on Attribute Grammar Methodology* (Farrow &
//! Stanculescu, PLDI 1989):
//!
//! - [`attr`] — attribute classes (inherited/synthesized) attached to
//!   grammar symbols, and semantic rules over occurrences, token values
//!   and the token runs under occurrences;
//! - [`implicit`] — the three kinds of implicit rule from §4.2 (copy,
//!   unit-element, merge-function), synthesized for undefined occurrences;
//! - [`deps`] — production-local and induced dependency analysis with
//!   circularity diagnostics;
//! - [`visits`] — ordered-AG visit numbers and per-production visit
//!   sequences (the "max visits" statistic of §4.1);
//! - [`eval_demand`] / [`eval_plan`] — two evaluators (demand-driven and
//!   plan-driven) decorating the parser's [`ag_lalr::ParseTree`];
//! - [`stats`] — the §4.1 statistics table;
//! - [`emit`] — renders the generated evaluator as source text (the
//!   "generated code" of Figure 2).
//!
//! # Example
//!
//! A one-attribute AG that sums the token values under a list:
//!
//! ```
//! use std::sync::Arc;
//! use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};
//! use ag_core::{AgBuilder, Dep, DemandEval};
//!
//! let mut gb = GrammarBuilder::new();
//! let num = gb.terminal("num");
//! let list = gb.nonterminal("list");
//! let p_rec = gb.prod(list, &[list.into(), num.into()], "rec");
//! let p_one = gb.prod(list, &[num.into()], "one");
//! gb.start(list);
//! let g = Arc::new(gb.build()?);
//!
//! let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
//! let sum = ab.syn("SUM");
//! ab.attach(sum, list);
//! ab.rule(p_rec, 0, sum, vec![Dep::attr(1, sum), Dep::token(2)], |d| d[0] + d[1]);
//! ab.rule(p_one, 0, sum, vec![Dep::token(1)], |d| d[0]);
//! let ag = ab.build()?;
//!
//! let table = ParseTable::build(&g)?;
//! let parser = Parser::new(&g, &table);
//! let tree = parser.parse([3i64, 4, 5].map(|v| Token::new(num, v)))?;
//! let eval = DemandEval::new(&ag, &tree, vec![]);
//! assert_eq!(eval.root_value(sum)?, 12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod attr;
pub mod deps;
pub mod emit;
pub mod eval_demand;
pub mod eval_plan;
pub mod implicit;
pub mod stats;
pub mod visits;

pub use attr::{AgBuilder, AgError, AttrDir, AttrGrammar, ClassId, Dep, Implicit, RuleOrigin};
pub use deps::{analyze, CircularityError, DepAnalysis};
pub use emit::{emit_evaluator, stripped_loc};
pub use eval_demand::{DemandEval, EvalError, MAX_DEPTH};
pub use eval_plan::PlanEval;
pub use stats::AgStats;
pub use visits::{plan, NotOrderedError, PlanOp, Plans};
