//! The schema's node kinds as interned [`Symbol`]s, plus predicates over
//! kind families.
//!
//! The kinds are a closed set, declared with their fields in
//! [`crate::schema`]; a node read by [`crate::read_vif`] may carry any
//! tag, but a library load rejects one outside the schema. Each
//! `kinds::subprog()`-style function is generated from that table and
//! returns the pre-interned symbol, so a kind check is a `u32` compare.

use ag_intern::Symbol;

pub use crate::schema::kind_syms::*;

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
        assert_eq!(all().as_str(), "all");
        assert_eq!(s_assign_sig().as_str(), "s.assign_sig");
    }

    #[test]
    fn all_distinct() {
        let ks: Vec<Symbol> = crate::schema::SCHEMA.iter().map(|k| k.kind.sym()).collect();
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
