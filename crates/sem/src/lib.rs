//! VHDL semantic analysis as cascaded attribute grammars.
//!
//! Reproduces the analysis architecture of *A VHDL Compiler Based on
//! Attribute Grammar Methodology* (Farrow & Stanculescu, PLDI 1989): a
//! principal AG over the full VHDL grammar flattens every maximal
//! expression into LEF tokens resolved against the applicative
//! environment; the out-of-line [`expr_ag::expr_eval`] re-parses each LEF
//! list with the expression AG and returns the goal attributes (typed IR
//! plus diagnostics). The symbol table is the VIF (`vhdl-vif`), built
//! applicatively and stored in the design library.

pub mod analyze;
pub mod decl;
pub mod env;
pub mod expr_ag;
pub mod expr_rules;
pub mod ir;
pub mod lef;
pub mod msg;
pub mod oof;
pub mod overload;
pub mod principal_ag;
pub mod principal_rules;
pub mod principal_rules2;
pub mod standard;
pub mod types;
pub mod uid;
pub mod value;

/// The `boolean` type as visible in an environment (used by attribute
/// rules that must produce boolean results).
pub fn standard_boolean(e: &env::Env) -> types::Ty {
    e.lookup_one("boolean").map(|d| d.node).unwrap_or_else(|| {
        types::mk_enum(uid::predefined("boolean"), "boolean", &["false", "true"])
    })
}
