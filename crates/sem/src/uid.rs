//! Uids: the one place a VIF identity is made.
//!
//! The VIF is both the symbol table and the form separately compiled
//! units exchange (§4.3), and type identity is uid string equality, so a
//! uid must name one declaration across every unit of a library. Every
//! uid here is a pure function of the unit that declares a thing and of
//! the token that declares it: the same unit text gives the same uids
//! whatever order the evaluator runs its rules in, whichever thread runs
//! it, however the text is laid out, and whatever was compiled before.
//!
//! - A declared thing (object, subprogram, type, named subtype, design
//!   unit, component, alias, attribute) is `name@<scope>.<k>`: `<scope>`
//!   is `u` and the unit's [`src_hash`], `<k>` the ordinal of the
//!   declaring token in the unit's token run. Both ignore positions, as
//!   the incremental stamp does.
//! - A predefined name of `STD.STANDARD` is `name@std`.
//! - What a type implies (enumeration literals, physical units, implicit
//!   operators and their parameters) is `<owner>/<key>`.
//! - An anonymous subtype is structural: `<base>[<left> <dir> <right>]`,
//!   then `|<resolution>` when it names a resolution function.
//! - Pseudo-types and the cascade's error object have fixed markers.
//! - An attribute specification is keyed by its target's uid
//!   ([`attr_key`]).

use std::fmt::{Display, Write};

use vhdl_syntax::{Pos, SrcTok};
use vhdl_vif::{Field, VifNode};

use crate::analyze::src_hash;
use crate::types::Dir;

/// Marker uid of the universal integer type of literals.
pub const UNIVERSAL_INT: &str = "universal_integer";
/// Marker uid of the universal real type of literals.
pub const UNIVERSAL_REAL: &str = "universal_real";
/// Marker uid of the pseudo-type of `'range` attribute values.
pub const RANGE_MARKER: &str = "range$marker";
/// Marker uid of "no value" (procedure-call context).
pub const VOID_MARKER: &str = "void$marker";
/// Marker uid of the object the cascade makes for an unresolved name.
pub const ERROR_OBJ: &str = "error$marker";

/// The uid scope of one design unit: its content hash and the positions
/// of its tokens, which map a declaring token to its ordinal.
#[derive(Debug)]
pub struct UidScope {
    scope: String,
    leaves: Vec<Pos>,
}

impl UidScope {
    /// The scope of the unit whose token run is `leaves`.
    pub fn unit(leaves: &[SrcTok]) -> UidScope {
        UidScope {
            scope: format!("u{:08x}", src_hash(leaves)),
            leaves: leaves.iter().map(|t| t.pos).collect(),
        }
    }

    /// The uid of `name`, declared by the token at `pos`.
    pub fn declared(&self, name: &str, pos: Pos) -> String {
        let k = self.leaves.partition_point(|p| *p < pos);
        let mut s = String::with_capacity(name.len() + self.scope.len() + 12);
        let _ = write!(s, "{name}@{}.{k}", self.scope);
        s
    }
}

/// The uid of a predefined name of `STD.STANDARD`.
pub fn predefined(name: &str) -> String {
    [name, "@std"].concat()
}

/// The uid of what `owner` implies under `key`.
pub fn implied(owner: &str, key: impl Display) -> String {
    let mut s = String::with_capacity(owner.len() + 16);
    let _ = write!(s, "{owner}/{key}");
    s
}

/// The environment key (and `attrspec` key) of attribute `attr` of the
/// named entity whose uid is `target`.
pub fn attr_key(target: &str, attr: &str) -> String {
    ["attr$", target, "$", attr].concat()
}

/// The structural uid of an anonymous subtype of `base`.
pub fn anon_subtype(
    base: &VifNode,
    range: Option<(i64, i64, Dir)>,
    resolution: Option<&VifNode>,
) -> String {
    let base = base.str(Field::uid);
    let res = resolution.map(|f| f.str(Field::uid));
    let mut s = String::with_capacity(base.len() + res.map_or(0, str::len) + 32);
    s.push_str(base);
    s.push('[');
    if let Some((l, r, dir)) = range {
        let dir = match dir {
            Dir::To => "to",
            Dir::Downto => "downto",
        };
        let _ = write!(s, "{l} {dir} {r}");
    }
    s.push(']');
    if let Some(res) = res {
        s.push('|');
        s.push_str(res);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl_syntax::lexer::lex;

    #[test]
    fn declared_uids_ignore_layout_and_differ_across_units() {
        let a = lex("constant k : integer := 5;").unwrap();
        let moved = lex("\n\n   constant   k : integer\n := 5;").unwrap();
        let other = lex("signal k : integer := 5;").unwrap();
        let (sa, sm, so) = (
            UidScope::unit(&a),
            UidScope::unit(&moved),
            UidScope::unit(&other),
        );
        assert_eq!(sa.declared("k", a[1].pos), sm.declared("k", moved[1].pos));
        assert_ne!(sa.declared("k", a[1].pos), so.declared("k", other[1].pos));
        assert_ne!(sa.declared("k", a[1].pos), sa.declared("k", a[0].pos));
        assert!(!sa.declared("k", a[1].pos).contains(':'));
    }

    #[test]
    fn anonymous_subtypes_are_structural() {
        let int = VifNode::build("ty.int")
            .str_field("uid", "integer@std")
            .done();
        let f = VifNode::build("subprog").str_field("uid", "f@u1.3").done();
        let r = Some((0, 9, Dir::To));
        assert_eq!(anon_subtype(&int, r, None), anon_subtype(&int, r, None));
        assert_ne!(
            anon_subtype(&int, r, None),
            anon_subtype(&int, Some((9, 0, Dir::Downto)), None)
        );
        assert_eq!(anon_subtype(&int, None, Some(&f)), "integer@std[]|f@u1.3");
    }
}
