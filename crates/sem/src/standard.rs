//! Package `STD.STANDARD` and implicit declarations.
//!
//! VHDL (like Ada) implicitly declares literals, units and operators for
//! every type declaration; this module provides both the predefined
//! types and the [`implicit_decls`] generator reused for user-defined
//! types.

use std::rc::Rc;

use vhdl_vif::{Field, Kind, VifNode};

use crate::decl::{mk_binop, mk_enumlit, mk_physunit, mk_unop};
use crate::env::{Den, Env, EnvKind, Visibility};
use crate::types::{
    self, is_array, is_discrete, mk_array_unconstrained, mk_enum, mk_int, mk_phys, mk_real,
    mk_subtype, Dir, Ty,
};
use crate::uid::{self, predefined};

/// Handles to the predefined types.
#[derive(Clone, Debug)]
pub struct Std {
    /// `boolean` — `(false, true)`.
    pub boolean: Ty,
    /// `bit` — `('0', '1')`.
    pub bit: Ty,
    /// `character` (a compact printable subset).
    pub character: Ty,
    /// `severity_level`.
    pub severity_level: Ty,
    /// `integer`.
    pub integer: Ty,
    /// `real`.
    pub real: Ty,
    /// `time` (femtosecond base unit).
    pub time: Ty,
    /// `natural`.
    pub natural: Ty,
    /// `positive`.
    pub positive: Ty,
    /// `string`.
    pub string: Ty,
    /// `bit_vector`.
    pub bit_vector: Ty,
}

/// The result of elaborating `STD.STANDARD`: the environment containing
/// all predefined names, and the type handles.
pub struct Standard {
    /// Environment with every predefined name visible.
    pub env: Env,
    /// The predefined types.
    pub std: Std,
}

/// Builds `STD.STANDARD` into a fresh environment of the given kind.
pub fn standard(kind: EnvKind) -> Standard {
    let boolean = mk_enum(predefined("boolean"), "boolean", &["false", "true"]);
    let bit = mk_enum(predefined("bit"), "bit", &["'0'", "'1'"]);
    let printable: Vec<String> = (32u8..127).map(|c| format!("'{}'", c as char)).collect();
    let printable_refs: Vec<&str> = printable.iter().map(String::as_str).collect();
    let character = mk_enum(predefined("character"), "character", &printable_refs);
    let severity_level = mk_enum(
        predefined("severity_level"),
        "severity_level",
        &["note", "warning", "error", "failure"],
    );
    let integer = mk_int(
        predefined("integer"),
        "integer",
        i32::MIN as i64,
        i32::MAX as i64,
    );
    let real = mk_real(predefined("real"), "real", f64::MIN, f64::MAX);
    let time = mk_phys(
        predefined("time"),
        "time",
        i64::MIN,
        i64::MAX,
        &[
            ("fs", 1),
            ("ps", 1_000),
            ("ns", 1_000_000),
            ("us", 1_000_000_000),
            ("ms", 1_000_000_000_000),
            ("sec", 1_000_000_000_000_000),
        ],
    );
    let natural = mk_subtype(
        predefined("natural"),
        "natural",
        &integer,
        Some((0, i32::MAX as i64, Dir::To)),
        None,
    );
    let positive = mk_subtype(
        predefined("positive"),
        "positive",
        &integer,
        Some((1, i32::MAX as i64, Dir::To)),
        None,
    );
    let string = mk_array_unconstrained(predefined("string"), "string", &positive, &character);
    let bit_vector = mk_array_unconstrained(predefined("bit_vector"), "bit_vector", &natural, &bit);

    let mut env = Env::new(kind);
    for ty in [
        &boolean,
        &bit,
        &character,
        &severity_level,
        &integer,
        &real,
        &time,
        &natural,
        &positive,
        &string,
        &bit_vector,
    ] {
        for node in std::iter::once(Rc::clone(ty)).chain(implicit_decls(ty, &boolean, &integer)) {
            let name = node.name().expect("predefined names");
            env = env.bind(
                name,
                Den {
                    node,
                    vis: Visibility::Implicit,
                },
            );
        }
    }

    Standard {
        env,
        std: Std {
            boolean,
            bit,
            character,
            severity_level,
            integer,
            real,
            time,
            natural,
            positive,
            string,
            bit_vector,
        },
    }
}

/// Everything a type declaration implicitly declares, in binding order:
/// its enumeration literals, its physical units, and its predefined
/// operators (LRM §7.2, restricted to the subset): equality and ordering
/// for scalars, arithmetic for numeric types, logical operators for
/// `boolean`/`bit` and their arrays, concatenation and relational
/// operators for one-dimensional arrays. `STD.STANDARD` and user type
/// declarations both bind this list.
///
/// Each uid derives from the type's: a literal or unit by its name, an
/// operator by its symbol and its index among that symbol's overloads.
/// `boolean` and `integer` are passed in because operator results and
/// physical scaling need them.
pub fn implicit_decls(ty: &Ty, boolean: &Ty, integer: &Ty) -> Vec<Rc<VifNode>> {
    let tuid = types::uid(ty);
    let mut out = Vec::new();
    for (pos, lit) in ty.list_field(Field::lits).iter().enumerate() {
        let lit = lit.as_str().expect("literals are strings");
        out.push(mk_enumlit(uid::implied(tuid, lit), lit, ty, pos as i64));
    }
    for u in ty.nodes(Field::units) {
        let name = u.name().unwrap_or_default();
        out.push(mk_physunit(
            uid::implied(tuid, name),
            name,
            ty,
            u.int(Field::factor),
        ));
    }
    let b = types::base_type(ty);
    // Subtypes do not redeclare operators.
    if ty.tag() == Kind::ty_subtype {
        return out;
    }
    let op_uid = |out: &[Rc<VifNode>], sym: &str| {
        let i = out.iter().filter(|d| d.name() == Some(sym)).count();
        uid::implied(tuid, format_args!("{sym}.{i}"))
    };
    let bin = |out: &mut Vec<Rc<VifNode>>, sym: &str, l: &Ty, r: &Ty, ret: &Ty, code: &str| {
        out.push(mk_binop(op_uid(out, sym), sym, l, r, ret, code));
    };
    let un = |out: &mut Vec<Rc<VifNode>>, sym: &str, code: &str| {
        out.push(mk_unop(op_uid(out, sym), sym, ty, ty, code));
    };
    match b.tag() {
        Kind::ty_enum | Kind::ty_int | Kind::ty_real | Kind::ty_phys => {
            for (sym, code) in [
                ("=", "eq"),
                ("/=", "ne"),
                ("<", "lt"),
                ("<=", "le"),
                (">", "gt"),
                (">=", "ge"),
            ] {
                bin(&mut out, sym, ty, ty, boolean, code);
            }
        }
        _ => {}
    }
    match b.tag() {
        Kind::ty_int | Kind::ty_real => {
            for (sym, code) in [("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div")] {
                bin(&mut out, sym, ty, ty, ty, code);
            }
            un(&mut out, "+", "pos");
            un(&mut out, "-", "neg");
            un(&mut out, "abs", "abs");
            if b.tag() == Kind::ty_int {
                bin(&mut out, "mod", ty, ty, ty, "mod");
                bin(&mut out, "rem", ty, ty, ty, "rem");
                bin(&mut out, "**", ty, integer, ty, "pow");
            }
        }
        Kind::ty_phys => {
            bin(&mut out, "+", ty, ty, ty, "add");
            bin(&mut out, "-", ty, ty, ty, "sub");
            un(&mut out, "-", "neg");
            un(&mut out, "abs", "abs");
            bin(&mut out, "*", ty, integer, ty, "mul");
            bin(&mut out, "*", integer, ty, ty, "mul_rev");
            bin(&mut out, "/", ty, integer, ty, "div");
            bin(&mut out, "/", ty, ty, integer, "div_phys");
        }
        Kind::ty_enum => {
            // Logical operators for the two-valued logical types.
            let lits = b.list_field(Field::lits);
            let is_logical =
                lits.len() == 2 && (b.name() == Some("boolean") || b.name() == Some("bit"));
            if is_logical {
                for (sym, code) in [
                    ("and", "and"),
                    ("or", "or"),
                    ("nand", "nand"),
                    ("nor", "nor"),
                    ("xor", "xor"),
                ] {
                    bin(&mut out, sym, ty, ty, ty, code);
                }
                un(&mut out, "not", "not");
            }
        }
        Kind::ty_array => {
            bin(&mut out, "=", ty, ty, boolean, "eq");
            bin(&mut out, "/=", ty, ty, boolean, "ne");
            bin(&mut out, "&", ty, ty, ty, "concat");
            if let Some(elem) = types::elem_type(ty) {
                bin(&mut out, "&", ty, &elem, ty, "concat_re");
                bin(&mut out, "&", &elem, ty, ty, "concat_le");
                let eb = types::base_type(&elem);
                if matches!(eb.name(), Some("bit") | Some("boolean")) {
                    for (sym, code) in [
                        ("and", "and"),
                        ("or", "or"),
                        ("nand", "nand"),
                        ("nor", "nor"),
                        ("xor", "xor"),
                    ] {
                        bin(&mut out, sym, ty, ty, ty, code);
                    }
                    un(&mut out, "not", "not");
                }
                if is_discrete(&elem) && is_array(ty) {
                    for (sym, code) in [("<", "lt"), ("<=", "le"), (">", "gt"), (">=", "ge")] {
                        bin(&mut out, sym, ty, ty, boolean, code);
                    }
                }
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_names_visible() {
        let s = standard(EnvKind::Tree);
        for name in [
            "boolean",
            "bit",
            "integer",
            "real",
            "time",
            "natural",
            "positive",
            "string",
            "bit_vector",
            "character",
            "severity_level",
        ] {
            assert!(s.env.lookup_one(name).is_some(), "missing {name}");
        }
        // Literals.
        assert!(!s.env.lookup("true").is_empty());
        assert!(!s.env.lookup("'0'").is_empty());
        assert!(!s.env.lookup("'a'").is_empty());
        // Units.
        assert!(!s.env.lookup("ns").is_empty());
        // Operators (heavily overloaded).
        assert!(s.env.lookup("+").len() >= 4);
        assert!(s.env.lookup("and").len() >= 3);
        assert!(s.env.lookup("=").len() >= 8);
        assert!(!s.env.lookup("&").is_empty());
    }

    #[test]
    fn char_literal_overloaded_between_bit_and_character() {
        let s = standard(EnvKind::Tree);
        let zeros = s.env.lookup("'0'");
        assert_eq!(zeros.len(), 2, "'0' is a literal of bit and character");
        let tys: Vec<_> = zeros
            .iter()
            .map(|d| d.node.node_field("ty").unwrap().name().unwrap().to_string())
            .collect();
        assert!(tys.contains(&"bit".to_string()));
        assert!(tys.contains(&"character".to_string()));
    }

    #[test]
    fn integer_ops_present() {
        let s = standard(EnvKind::Tree);
        let plus = s.env.lookup("+");
        // integer, real, time (binary) + unary forms.
        let int_plus = plus.iter().any(|d| {
            let p = crate::decl::subprog_params(&d.node);
            p.len() == 2 && types::same_base(&crate::decl::obj_ty(&p[0]).unwrap(), &s.std.integer)
        });
        assert!(int_plus);
        let modop = s.env.lookup("mod");
        assert!(!modop.is_empty());
        let pow = s.env.lookup("**");
        assert!(!pow.is_empty());
    }

    #[test]
    fn subtype_declares_no_new_ops() {
        let s = standard(EnvKind::Tree);
        assert!(implicit_decls(&s.std.natural, &s.std.boolean, &s.std.integer).is_empty());
    }

    #[test]
    fn bit_vector_ops() {
        let s = standard(EnvKind::Tree);
        let ops = implicit_decls(&s.std.bit_vector, &s.std.boolean, &s.std.integer);
        let syms: Vec<&str> = ops.iter().filter_map(|d| d.name()).collect();
        assert!(syms.contains(&"&"));
        assert!(syms.contains(&"and"));
        assert!(syms.contains(&"not"));
        assert!(syms.contains(&"<"));
        assert!(syms.contains(&"="));
    }

    #[test]
    fn time_scaling_ops() {
        let s = standard(EnvKind::Tree);
        let decls = implicit_decls(&s.std.time, &s.std.boolean, &s.std.integer);
        let muls: Vec<&str> = decls
            .iter()
            .filter(|d| d.name() == Some("*"))
            .filter_map(|d| d.str_field("uid"))
            .collect();
        assert_eq!(
            muls,
            ["time@std/*.0", "time@std/*.1"],
            "time*integer and integer*time"
        );
        assert!(decls
            .iter()
            .any(|d| d.str_field("uid") == Some("time@std/ns")));
    }
}
