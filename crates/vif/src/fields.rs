//! Typed constants for the VIF field names that overload resolution and
//! type checking read on every expression.
//!
//! `node.field("uid")` interns its name on every call; `node.field(uid())`
//! reads a [`Symbol`](crate::Symbol) cached the way [`crate::kinds`]
//! caches node kinds. Only the hot names are here: the schema stays open,
//! and any other field is still looked up by its string.

crate::kinds::symbols! {
    "field name":
    base => "base",
    init => "init",
    params => "params",
    ret => "ret",
    ty => "ty",
    uid => "uid",
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Symbol;

    #[test]
    fn constants_are_their_interned_names() {
        for (sym, text) in all()
            .into_iter()
            .zip(["base", "init", "params", "ret", "ty", "uid"])
        {
            assert_eq!(sym, Symbol::intern(text));
        }
    }
}
