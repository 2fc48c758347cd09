//! LEF — the intermediate language for expressions (§4.1).
//!
//! "LEF consists of a flat list of tokens … the symbol table is an
//! attribute of the principal AG … and it is used to resolve identifiers
//! so that ID is not a token of LEF; instead there are distinct tokens for
//! variable, type, subprogram, attribute, enum_literal, etc."
//!
//! [`build_lef`] turns the source tokens of one maximal expression into
//! LEF: identifiers are resolved against the environment into categorized
//! tokens carrying their denotations, expanded names (`work.pkg.item`) are
//! resolved through libraries and packages, and the `X'REVERSE_RANGE`
//! ambiguity of §3.2 is prepared for by tagging post-tick identifiers as
//! attribute names.

use std::fmt;
use std::rc::Rc;

use ag_intern::Symbol;
use vhdl_syntax::{Pos, SrcTok, TokenKind};
use vhdl_vif::{kinds, Field, Kind, VifNode};

use crate::decl::{mk_obj, Mode, ObjClass};
use crate::env::Env;
use crate::msg::{Msg, Msgs};
use crate::types;
use crate::uid::ERROR_OBJ;

/// Declares [`LefKind`] from one table, in the order the expression
/// grammar registers its terminals. `Kind => "name"` declares a category
/// of LEF's own with its terminal name; `tok Kind` admits the source
/// token of that [`TokenKind`] unchanged, as `LefKind::Tok(Kind)` under
/// the token's own name. The table generates the enum,
/// [`LefKind::name`], [`LefKind::TERMINALS`] and [`LefKind::terminal`].
macro_rules! lef_kinds {
    // Each step moves one entry into the accumulated categories
    // `[$cat]` and `terminal` arms `[$arm]`; `$n` counts the entries.
    (@ $n:expr; [$($cat:tt)*] [$($arm:tt)*]
        $(#[$m:meta])* $v:ident => $name:literal, $($rest:tt)*) => {
        lef_kinds!(@ $n + 1; [$($cat)* $(#[$m])* $v => $name,]
            [$($arm)* (LefKind::$v) => $n,] $($rest)*);
    };
    (@ $n:expr; [$($cat:tt)*] [$($arm:tt)*] tok $t:ident, $($rest:tt)*) => {
        lef_kinds!(@ $n + 1; [$($cat)*]
            [$($arm)* (LefKind::Tok(TokenKind::$t)) => $n,] $($rest)*);
    };
    (@ $n:expr; [$($(#[$m:meta])* $v:ident => $name:literal,)*]
        [$(($($k:tt)*) => $i:expr,)*]) => {
        /// Category of a LEF token: one terminal of the expression grammar.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum LefKind {
            $($(#[$m])* $v,)*
            /// A source token that reaches LEF unchanged: a literal,
            /// delimiter, operator or reserved word of the expression
            /// grammar.
            Tok(TokenKind),
        }

        impl LefKind {
            /// The expression grammar's terminals, in registration order.
            pub const TERMINALS: [LefKind; $n] = [$($($k)*,)*];

            /// Terminal name in the expression grammar.
            pub fn name(self) -> &'static str {
                match self {
                    $(LefKind::$v => $name,)*
                    LefKind::Tok(k) => k.name(),
                }
            }

            /// Position in [`LefKind::TERMINALS`], which is the symbol
            /// index of this kind's terminal in the expression grammar;
            /// `None` for a token kind the expression grammar lacks.
            pub fn terminal(self) -> Option<usize> {
                match self {
                    $($($k)* => Some($i),)*
                    LefKind::Tok(_) => None,
                }
            }
        }
    };
    ($($table:tt)*) => {
        lef_kinds!(@ 0; [] [] $($table)*);
    };
}

lef_kinds! {
    /// Object (variable/signal/constant/parameter) — carries the `obj`
    /// denotation.
    Obj => "obj",
    /// Type or subtype mark — carries the type node.
    TyMark => "tymark",
    /// Overloadable callables: subprograms and enumeration literals —
    /// carries the overload set.
    Callable => "callable",
    /// Physical unit — carries the `physunit` denotation.
    PhysUnit => "physunit",
    /// Attribute identifier (after a tick).
    AttrId => "attrid",
    /// Selector identifier: record fields, named formals, record-aggregate
    /// choices.
    FieldId => "fieldid",
    tok IntLit,
    tok RealLit,
    /// String literal.
    StrLit => "str_lit",
    /// Bit-string literal.
    BitStrLit => "bitstr_lit",
    tok LParen, tok RParen, tok Comma, tok Arrow, tok Bar, tok Tick, tok Dot,
    tok KwTo, tok KwDownto, tok KwOthers, tok KwOpen,
    tok KwAnd, tok KwOr, tok KwNand, tok KwNor, tok KwXor,
    tok Eq, tok Neq, tok Lt, tok Lte, tok Gt, tok Gte,
    tok Plus, tok Minus, tok Amp, tok Star, tok Slash, tok DoubleStar,
    tok KwMod, tok KwRem, tok KwNot, tok KwAbs,
}

/// One LEF token: category, text, position, and — for resolved identifier
/// categories — the denotations Linguist would attach as token values.
#[derive(Clone, Debug)]
pub struct LefTok {
    /// Category.
    pub kind: LefKind,
    /// Source text (lower-cased, interned).
    pub text: Symbol,
    /// Source position.
    pub pos: Pos,
    /// Denotations (`obj`/`ty.*`/`subprog`/`enumlit`/`physunit` nodes).
    pub dens: Rc<Vec<Rc<VifNode>>>,
}

impl LefTok {
    fn plain(kind: LefKind, text: Symbol, pos: Pos) -> LefTok {
        LefTok {
            kind,
            text,
            pos,
            dens: Rc::new(Vec::new()),
        }
    }
}

impl fmt::Display for LefTok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind.name(), self.text)
    }
}

/// Loads package `(library, name)` to resolve an expanded name.
pub type PkgLoader<'a> = &'a dyn Fn(&str, &str) -> Option<Rc<VifNode>>;

/// Context for LEF building: the environment and a loader for expanded
/// names through libraries.
pub struct LefCtx<'a> {
    /// The resolution environment (principal-AG `ENV` attribute).
    pub env: &'a Env,
    /// Loads `library.pkg.<name>` package nodes for expanded names.
    pub load_pkg: Option<PkgLoader<'a>>,
}

/// Looks up `name` among a package's exported declarations (visibility by
/// selection, §3.2). Overloadables accumulate.
pub fn pkg_select(pkg: &VifNode, name: &str) -> Vec<Rc<VifNode>> {
    let mut out = Vec::new();
    for n in pkg.nodes(Field::decls) {
        if n.name() == Some(name) {
            out.push(Rc::clone(n));
        }
    }
    out
}

/// Builds the LEF token list for one maximal expression. Unresolvable
/// identifiers are reported in the returned messages and replaced by an
/// error object so scanning can continue.
pub fn build_lef(toks: &[SrcTok], ctx: &LefCtx<'_>) -> (Vec<LefTok>, Msgs) {
    let mut out: Vec<LefTok> = Vec::new();
    let mut msgs = Msgs::none();
    // Pending prefix context for expanded names.
    enum Pending {
        None,
        Library(Symbol),
        Package(Rc<VifNode>),
    }
    let mut pending = Pending::None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let next_kind = toks.get(i + 1).map(|t| t.kind);
        let prev_kind = out.last().map(|t| t.kind);
        match t.kind {
            TokenKind::Id | TokenKind::CharLit | TokenKind::StringLit => {
                // A string literal is an operator-symbol call only when a
                // call's argument list follows ("and"(a, b)); otherwise it
                // is an ordinary string value.
                if t.kind == TokenKind::StringLit
                    && (next_kind != Some(TokenKind::LParen) || ctx.env.lookup(t.text).is_empty())
                {
                    out.push(LefTok::plain(LefKind::StrLit, t.text, t.pos));
                    i += 1;
                    continue;
                }
                let key: Symbol = match t.kind {
                    TokenKind::CharLit => Symbol::intern(&format!("'{}'", t.text)),
                    _ => t.text,
                };
                if prev_kind == Some(LefKind::Tok(TokenKind::Tick)) && t.kind == TokenKind::Id {
                    out.push(LefTok::plain(LefKind::AttrId, key, t.pos));
                    i += 1;
                    continue;
                }
                if prev_kind == Some(LefKind::Tok(TokenKind::Dot)) && t.kind == TokenKind::Id {
                    out.push(LefTok::plain(LefKind::FieldId, key, t.pos));
                    i += 1;
                    continue;
                }
                // Resolve through a pending expanded-name prefix or the
                // environment.
                let dens: Vec<Rc<VifNode>> = match &pending {
                    Pending::None => ctx.env.lookup(key).into_iter().map(|d| d.node).collect(),
                    Pending::Package(p) => pkg_select(p, &key),
                    Pending::Library(lib) => {
                        let loaded = ctx.load_pkg.and_then(|f| f(lib, &key));
                        match loaded {
                            Some(pkg) => {
                                pending = Pending::Package(pkg);
                                i += 1;
                                // Expect a dot next; handled on the next
                                // iteration.
                                continue;
                            }
                            None => {
                                msgs.push(Msg::error(
                                    t.pos,
                                    format!("no unit `{key}` in library `{lib}`"),
                                ));
                                vec![]
                            }
                        }
                    }
                };
                pending = Pending::None;
                if dens.is_empty() {
                    if next_kind == Some(TokenKind::Arrow) {
                        // Named formal / record-aggregate selector.
                        out.push(LefTok::plain(LefKind::FieldId, key, t.pos));
                        i += 1;
                        continue;
                    }
                    msgs.push(Msg::error(t.pos, format!("`{key}` is not declared")));
                    out.push(error_obj_tok(key, t.pos));
                    i += 1;
                    continue;
                }
                let one = |kind| LefTok {
                    kind,
                    text: key,
                    pos: t.pos,
                    dens: Rc::new(vec![Rc::clone(&dens[0])]),
                };
                match dens[0].tag() {
                    Kind::pkg => pending = Pending::Package(Rc::clone(&dens[0])),
                    Kind::library => {
                        pending = Pending::Library(
                            dens[0].name_sym().unwrap_or_else(|| Symbol::intern("work")),
                        )
                    }
                    Kind::subprog | Kind::enumlit => {
                        let dens: Vec<Rc<VifNode>> = dens
                            .into_iter()
                            .filter(|d| matches!(d.tag(), Kind::subprog | Kind::enumlit))
                            .collect();
                        out.push(LefTok {
                            kind: LefKind::Callable,
                            text: key,
                            pos: t.pos,
                            dens: Rc::new(dens),
                        });
                    }
                    _ if kinds::is_ty(dens[0].kind_sym()) => out.push(one(LefKind::TyMark)),
                    Kind::physunit => out.push(one(LefKind::PhysUnit)),
                    Kind::obj => out.push(one(LefKind::Obj)),
                    // Aliases rename objects; substitute the target.
                    Kind::alias => out.push(LefTok {
                        kind: LefKind::Obj,
                        text: key,
                        pos: t.pos,
                        dens: Rc::new(vec![Rc::clone(dens[0].node(Field::target))]),
                    }),
                    _ => {
                        msgs.push(Msg::error(
                            t.pos,
                            format!(
                                "`{key}` ({}) cannot appear in an expression",
                                dens[0].kind()
                            ),
                        ));
                        out.push(error_obj_tok(key, t.pos));
                    }
                }
                i += 1;
            }
            TokenKind::Dot => {
                // Expanded-name dots are consumed silently; the next id
                // resolves within the pending prefix.
                if let Pending::None = &pending {
                    out.push(LefTok::plain(LefKind::Tok(TokenKind::Dot), t.text, t.pos))
                }
                i += 1;
            }
            TokenKind::BitStringLit => {
                out.push(LefTok::plain(LefKind::BitStrLit, t.text, t.pos));
                i += 1;
            }
            // Only legal directly after a tick (`'range`).
            TokenKind::KwRange if prev_kind == Some(LefKind::Tok(TokenKind::Tick)) => {
                out.push(LefTok::plain(
                    LefKind::AttrId,
                    Symbol::intern("range"),
                    t.pos,
                ));
                i += 1;
            }
            TokenKind::KwRange => {
                msgs.push(Msg::error(t.pos, "`range` is not an expression token"));
                i += 1;
            }
            k if LefKind::Tok(k).terminal().is_some() => {
                out.push(LefTok::plain(LefKind::Tok(k), t.text, t.pos));
                i += 1;
            }
            k => {
                msgs.push(Msg::error(
                    t.pos,
                    format!("token `{}` cannot appear in an expression", k.name()),
                ));
                i += 1;
            }
        }
    }
    if !matches!(pending, Pending::None) {
        msgs.push(Msg::error(
            toks.last().map(|t| t.pos).unwrap_or_default(),
            "dangling package/library prefix in expression",
        ));
    }
    (out, msgs)
}

/// A synthetic error object so the scan can continue after an unresolved
/// identifier.
fn error_obj_tok(name: Symbol, pos: Pos) -> LefTok {
    let ty = types::universal_int();
    let obj = mk_obj(
        ERROR_OBJ.into(),
        ObjClass::Variable,
        &name,
        &ty,
        Mode::In,
        None,
        None,
    );
    LefTok {
        kind: LefKind::Obj,
        text: name,
        pos,
        dens: Rc::new(vec![obj]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Den, EnvKind};
    use crate::standard::standard;
    use vhdl_syntax::lexer::lex;
    use vhdl_syntax::TokenKind as T;
    use LefKind::Tok;

    fn lef_of(src: &str, env: &Env) -> (Vec<LefTok>, Msgs) {
        lef_of_tokens(&lex(src).unwrap(), env)
    }

    fn lef_of_tokens(toks: &[SrcTok], env: &Env) -> (Vec<LefTok>, Msgs) {
        build_lef(
            toks,
            &LefCtx {
                env,
                load_pkg: None,
            },
        )
    }

    fn kinds(src: &str, env: &Env) -> Vec<LefKind> {
        let (l, m) = lef_of(src, env);
        assert!(!m.has_errors(), "unexpected errors: {m}");
        l.into_iter().map(|t| t.kind).collect()
    }

    /// The paper's motivating example: X(Y) categorizes differently by
    /// what X and Y denote.
    #[test]
    fn x_of_y_categories() {
        let s = standard(EnvKind::Tree);
        let int = &s.std.integer;
        let bv = &s.std.bit_vector;
        let env = s
            .env
            .bind(
                "arr",
                Den::local(mk_obj(
                    "arr".into(),
                    ObjClass::Variable,
                    "arr",
                    bv,
                    Mode::In,
                    None,
                    None,
                )),
            )
            .bind(
                "y",
                Den::local(mk_obj(
                    "y".into(),
                    ObjClass::Variable,
                    "y",
                    int,
                    Mode::In,
                    None,
                    None,
                )),
            )
            .bind(
                "f",
                Den::local(crate::decl::mk_subprog(
                    "f".into(),
                    "f",
                    vec![],
                    Some(int),
                    None,
                )),
            );
        assert_eq!(
            kinds("f(y)", &env),
            vec![
                LefKind::Callable,
                Tok(T::LParen),
                LefKind::Obj,
                Tok(T::RParen)
            ]
        );
        assert_eq!(
            kinds("arr(y)", &env),
            vec![LefKind::Obj, Tok(T::LParen), LefKind::Obj, Tok(T::RParen)]
        );
        assert_eq!(
            kinds("integer(y)", &env),
            vec![
                LefKind::TyMark,
                Tok(T::LParen),
                LefKind::Obj,
                Tok(T::RParen)
            ]
        );
    }

    #[test]
    fn ticks_and_attrs() {
        let s = standard(EnvKind::Tree);
        let env = s.env.bind(
            "v",
            Den::local(mk_obj(
                "v".into(),
                ObjClass::Signal,
                "v",
                &s.std.bit_vector,
                Mode::In,
                None,
                None,
            )),
        );
        assert_eq!(
            kinds("v'range", &env),
            vec![LefKind::Obj, Tok(T::Tick), LefKind::AttrId]
        );
        assert_eq!(
            kinds("v'length", &env),
            vec![LefKind::Obj, Tok(T::Tick), LefKind::AttrId]
        );
        // Qualified expression: tick then lparen.
        assert_eq!(
            kinds("bit'('0')", &env),
            vec![
                LefKind::TyMark,
                Tok(T::Tick),
                Tok(T::LParen),
                LefKind::Callable,
                Tok(T::RParen)
            ]
        );
    }

    #[test]
    fn literals_units_and_operators() {
        let s = standard(EnvKind::Tree);
        assert_eq!(
            kinds("10 ns + 3", &s.env),
            vec![
                Tok(T::IntLit),
                LefKind::PhysUnit,
                Tok(T::Plus),
                Tok(T::IntLit)
            ]
        );
        assert_eq!(
            kinds("true and false", &s.env),
            vec![LefKind::Callable, Tok(T::KwAnd), LefKind::Callable]
        );
        assert_eq!(kinds("\"0101\"", &s.env), vec![LefKind::StrLit]);
        assert_eq!(kinds("x\"f\"", &s.env), vec![LefKind::BitStrLit]);
    }

    #[test]
    fn named_formal_becomes_fieldid() {
        let s = standard(EnvKind::Tree);
        let env = s.env.bind(
            "f",
            Den::local(crate::decl::mk_subprog(
                "f".into(),
                "f",
                vec![],
                Some(&s.std.integer),
                None,
            )),
        );
        let k = kinds("f(amount => 3)", &env);
        assert_eq!(
            k,
            vec![
                LefKind::Callable,
                Tok(T::LParen),
                LefKind::FieldId,
                Tok(T::Arrow),
                Tok(T::IntLit),
                Tok(T::RParen)
            ]
        );
    }

    #[test]
    fn record_field_after_dot() {
        let s = standard(EnvKind::Tree);
        let pair = crate::types::mk_record(
            "pair".into(),
            "pair",
            &[
                ("x", Rc::clone(&s.std.integer)),
                ("y", Rc::clone(&s.std.integer)),
            ],
        );
        let env = s.env.bind(
            "p",
            Den::local(mk_obj(
                "p".into(),
                ObjClass::Variable,
                "p",
                &pair,
                Mode::In,
                None,
                None,
            )),
        );
        assert_eq!(
            kinds("p.x + 1", &env),
            vec![
                LefKind::Obj,
                Tok(T::Dot),
                LefKind::FieldId,
                Tok(T::Plus),
                Tok(T::IntLit)
            ]
        );
    }

    #[test]
    fn expanded_names_through_packages() {
        let s = standard(EnvKind::Tree);
        let obj = mk_obj(
            "max".into(),
            ObjClass::Constant,
            "max",
            &s.std.integer,
            Mode::In,
            None,
            None,
        );
        let pkg = VifNode::build("pkg")
            .name("p")
            .list_field("decls", vec![vhdl_vif::VifValue::Node(Rc::clone(&obj))])
            .done();
        let env = s.env.bind("p", Den::local(Rc::clone(&pkg)));
        let (l, m) = lef_of("p.max", &env);
        assert!(!m.has_errors());
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].kind, LefKind::Obj);
        assert!(Rc::ptr_eq(&l[0].dens[0], &obj));

        // Through a library clause with a loader.
        let lib = VifNode::build("library").name("work").done();
        let env2 = s.env.bind("work", Den::local(lib));
        let loader = |libname: &str, unit: &str| -> Option<Rc<VifNode>> {
            (libname == "work" && unit == "p").then(|| Rc::clone(&pkg))
        };
        let toks = lex("work.p.max").unwrap();
        let (l2, m2) = build_lef(
            &toks,
            &LefCtx {
                env: &env2,
                load_pkg: Some(&loader),
            },
        );
        assert!(!m2.has_errors(), "{m2}");
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0].kind, LefKind::Obj);
    }

    #[test]
    fn undeclared_reported_and_scan_continues() {
        let s = standard(EnvKind::Tree);
        let (l, m) = lef_of("mystery + 1", &s.env);
        assert!(m.has_errors());
        assert!(m.to_string().contains("`mystery` is not declared"));
        assert_eq!(l.len(), 3, "scan continued past the error");
    }

    /// Each terminal is the expression-grammar symbol of its name, and
    /// exactly the 34 pass-through source tokens reach LEF as themselves,
    /// each as the terminal named by its `TokenKind`.
    #[test]
    fn pass_through_tokens_are_the_terminals_of_their_names() {
        let xt = crate::expr_ag::ExprTables::shared();
        for k in LefKind::TERMINALS {
            assert_eq!(Some(xt.terminal(k)), xt.grammar.symbol(k.name()), "{k:?}");
        }
        let s = standard(EnvKind::Tree);
        let mut passed = 0;
        for &k in TokenKind::all() {
            let (l, _) = lef_of_tokens(&[SrcTok::new(k, k.name(), Pos::default())], &s.env);
            if l.len() == 1 && l[0].kind == Tok(k) {
                assert_eq!(Some(xt.terminal(Tok(k))), xt.grammar.symbol(k.name()));
                passed += 1;
            }
        }
        assert_eq!(passed, 34);
        assert_eq!(LefKind::TERMINALS.len(), 42);
    }

    #[test]
    fn pkg_select_overloads() {
        let s = standard(EnvKind::Tree);
        let f1 = crate::decl::mk_subprog("f@1".into(), "f", vec![], Some(&s.std.integer), None);
        let f2 = crate::decl::mk_subprog("f@2".into(), "f", vec![], Some(&s.std.boolean), None);
        let pkg = VifNode::build("pkg")
            .name("p")
            .list_field(
                "decls",
                vec![
                    vhdl_vif::VifValue::Node(Rc::clone(&f1)),
                    vhdl_vif::VifValue::Node(Rc::clone(&f2)),
                ],
            )
            .done();
        assert_eq!(pkg_select(&pkg, "f").len(), 2);
        assert_eq!(pkg_select(&pkg, "g").len(), 0);
    }
}
