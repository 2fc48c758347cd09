//! Typed constants for the well-known VIF node kinds.
//!
//! The VIF schema is open (any interned symbol can tag a node — that is
//! what lets the interchange format grow declaratively, §2.2), but the
//! kinds the compiler itself produces and dispatches on are a closed set.
//! Writing `kinds::subprog()` instead of the string literal `"subprog"`
//! turns a typo into a compile error and a kind check into a `u32`
//! compare.
//!
//! Each accessor caches its [`Symbol`] in a `OnceLock`, so after first use
//! a kind constant costs one relaxed atomic load — no interner probe.

use ag_intern::Symbol;

/// Declares one function per well-known symbol, each caching its
/// [`Symbol`](crate::Symbol) in a `OnceLock`, and `all()` listing them in
/// order; `$what` names an entry in the generated docs.
macro_rules! symbols {
    ($what:literal: $($(#[$m:meta])* $name:ident => $text:literal),* $(,)?) => {
        $(
            $(#[$m])*
            #[doc = concat!("The `", $text, "` ", $what, ".")]
            pub fn $name() -> $crate::Symbol {
                static S: ::std::sync::OnceLock<$crate::Symbol> = ::std::sync::OnceLock::new();
                *S.get_or_init(|| $crate::Symbol::intern($text))
            }
        )*

        #[doc = concat!("Every well-known ", $what, ", for exhaustiveness checks in tests.")]
        pub fn all() -> Vec<$crate::Symbol> {
            vec![$($name()),*]
        }
    };
}
pub(crate) use symbols;

symbols! {
    "node kind":
    // Design units and library structure.
    alias => "alias",
    arch => "arch",
    component => "component",
    config => "config",
    entity => "entity",
    library => "library",
    package => "package",
    pkg => "pkg",
    pkgbody => "pkgbody",
    root => "root",

    // Declarations / denotations (what an identifier can denote).
    attrdecl => "attrdecl",
    attrspec => "attrspec",
    enumlit => "enumlit",
    obj => "obj",
    physunit => "physunit",
    signal => "signal",
    subprog => "subprog",
    type_ => "type",
    unit => "unit",

    // Structural pieces.
    all_ => "all",
    alt => "alt",
    assoc => "assoc",
    block => "block",
    cfgbind => "cfgbind",
    elem => "elem",
    error => "error",
    inst => "inst",
    named => "named",
    port => "port",
    process => "process",
    wv => "wv",

    // Choices.
    ch_others => "ch.others",
    ch_range => "ch.range",
    ch_val => "ch.val",

    // Expressions (`e.` prefix).
    e_agg => "e.agg",
    e_attr => "e.attr",
    e_call => "e.call",
    e_const => "e.const",
    e_conv => "e.conv",
    e_error => "e.error",
    e_field => "e.field",
    e_index => "e.index",
    e_range => "e.range",
    e_ref => "e.ref",
    e_slice => "e.slice",

    // Sequential statements (`s.` prefix).
    s_assert => "s.assert",
    s_assign_sig => "s.assign_sig",
    s_assign_var => "s.assign_var",
    s_call => "s.call",
    s_case => "s.case",
    s_exit => "s.exit",
    s_if => "s.if",
    s_loop => "s.loop",
    s_next => "s.next",
    s_null => "s.null",
    s_return => "s.return",
    s_wait => "s.wait",

    // Types (`ty.` prefix).
    ty_array => "ty.array",
    ty_enum => "ty.enum",
    ty_int => "ty.int",
    ty_marker => "ty.marker",
    ty_phys => "ty.phys",
    ty_real => "ty.real",
    ty_record => "ty.record",
    ty_subtype => "ty.subtype",
}

/// Is this kind a type denotation (`ty.*`)?
pub fn is_ty(k: Symbol) -> bool {
    k.as_str().starts_with("ty.")
}

/// Is this kind an expression node (`e.*`)?
pub fn is_expr(k: Symbol) -> bool {
    k.as_str().starts_with("e.")
}

/// Is this kind a sequential-statement node (`s.*`)?
pub fn is_stmt(k: Symbol) -> bool {
    k.as_str().starts_with("s.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_their_literals() {
        assert_eq!(subprog().as_str(), "subprog");
        assert_eq!(ty_int().as_str(), "ty.int");
        assert_eq!(type_().as_str(), "type");
        assert_eq!(all_().as_str(), "all");
        assert_eq!(s_assign_sig().as_str(), "s.assign_sig");
    }

    #[test]
    fn all_distinct() {
        let ks = all();
        let set: std::collections::HashSet<_> = ks.iter().copied().collect();
        assert_eq!(set.len(), ks.len());
    }

    #[test]
    fn prefix_predicates() {
        assert!(is_ty(ty_record()));
        assert!(!is_ty(subprog()));
        assert!(is_expr(e_call()));
        assert!(!is_expr(entity()));
        assert!(is_stmt(s_wait()));
        assert!(!is_stmt(ty_phys()));
    }

    #[test]
    fn cached_equals_freshly_interned() {
        assert_eq!(enumlit(), Symbol::intern("enumlit"));
        assert_eq!(enumlit(), Symbol::intern_ci("ENUMLIT"));
    }
}
