//! Out-of-line functions of the principal AG.
//!
//! "If a complex expression needs to be used as a semantic rule at many
//! different places in the AG then it makes sense to abstract this into an
//! out-of-line function" (§2.2) — these are those functions: subtype
//! resolution, declaration elaboration, interface lists, use-clause
//! imports. In the paper they were 45% of the compiler, written in C; here
//! they are plain Rust called from rule closures.

use std::rc::Rc;

use vhdl_syntax::{Pos, SrcTok, TokenKind};
use vhdl_vif::{mk, Field, Kind, VifNode, VifValue};

use crate::analyze::Actx;
use crate::decl::{self, Mode, ObjClass};
use crate::env::{Den, Env};
use crate::expr_ag::{expr_eval, ExprAnswer};
use crate::ir;
use crate::lef::pkg_select;
use crate::msg::{Msg, Msgs};
use crate::types::{self, Ty};
use crate::value::Value;

/// Rule context bundle: environment + analysis context.
pub struct U<'a> {
    /// Current environment.
    pub env: &'a Env,
    /// Analysis context.
    pub ctx: &'a Rc<Actx>,
}

impl U<'_> {
    /// Runs the cascade on a token run (counts the invocation — the
    /// per-expression statistic of §4.1 — and its rule instances).
    pub fn ev(&self, toks: &[SrcTok], expected: Option<&Ty>) -> ExprAnswer {
        let loader = Rc::clone(&self.ctx.loader);
        let load = move |lib: &str, name: &str| loader.load_unit(lib, &format!("pkg.{name}"));
        let answer = expr_eval(toks, self.env, expected, Some(&load));
        self.ctx.count_expr_eval(answer.rule_evals);
        answer
    }

    /// Resolves a dotted name (type marks, entity/component names, use
    /// clauses): `id`, `pkg.id`, `lib.pkg.id`, `lib.unit`, with optional
    /// trailing `.all`. Returns the matching denotations.
    ///
    /// # Errors
    ///
    /// A message naming the first unresolvable segment.
    pub fn resolve_name(&self, toks: &[SrcTok]) -> Result<Vec<Rc<VifNode>>, Msg> {
        let pos = toks.first().map(|t| t.pos).unwrap_or_default();
        let mut segs: Vec<&SrcTok> = Vec::new();
        for t in toks {
            match t.kind {
                TokenKind::Id | TokenKind::KwAll | TokenKind::StringLit => segs.push(t),
                TokenKind::Dot => {}
                _ => return Err(Msg::error(t.pos, "not a simple name")),
            }
        }
        if segs.is_empty() {
            return Err(Msg::error(pos, "empty name"));
        }
        let first = &segs[0];
        let mut dens: Vec<Rc<VifNode>> = self
            .env
            .lookup(first.text)
            .into_iter()
            .map(|d| d.node)
            .collect();
        if dens.is_empty() {
            return Err(Msg::error(
                first.pos,
                format!("`{}` is not declared", first.text),
            ));
        }
        for seg in &segs[1..] {
            let head = &dens[0];
            match head.tag() {
                Kind::library => {
                    let lib = head.name().unwrap_or("work").to_string();
                    if seg.kind == TokenKind::KwAll {
                        return Err(Msg::error(seg.pos, "`library.all` is not a name"));
                    }
                    // A unit of the library: package, entity, or
                    // configuration.
                    let found = [Kind::pkg, Kind::entity, Kind::config]
                        .iter()
                        .find_map(|k| {
                            self.ctx
                                .loader
                                .load_unit(&lib, &format!("{}.{}", k.sym(), seg.text))
                        });
                    match found {
                        Some(n) => dens = vec![n],
                        None => {
                            return Err(Msg::error(
                                seg.pos,
                                format!("no unit `{}` in library `{lib}`", seg.text),
                            ))
                        }
                    }
                }
                Kind::pkg => {
                    if seg.kind == TokenKind::KwAll {
                        // Signalled by a sentinel "all" node on top.
                        dens = vec![mk::all(Rc::clone(head))];
                        continue;
                    }
                    let found = pkg_select(head, &seg.text);
                    if found.is_empty() {
                        return Err(Msg::error(
                            seg.pos,
                            format!(
                                "no `{}` in package `{}`",
                                seg.text,
                                head.name().unwrap_or("?")
                            ),
                        ));
                    }
                    dens = found;
                }
                _ => {
                    return Err(Msg::error(
                        seg.pos,
                        format!("cannot select `{}` from a {}", seg.text, head.kind()),
                    ))
                }
            }
        }
        Ok(dens)
    }
}

/// Decoders for the Value bundles the principal rules pass around.
pub fn toks_of(v: &Value) -> Vec<SrcTok> {
    v.expect_list().iter().map(|t| *t.expect_tok()).collect()
}

/// Output of a declaration-processing function.
pub struct DeclOut {
    /// Environment after the declaration.
    pub envo: Env,
    /// Exported denotation nodes (for packages / DECLS).
    pub decls: Vec<Rc<VifNode>>,
    /// Diagnostics.
    pub msgs: Msgs,
}

impl DeclOut {
    /// Error case: environment unchanged.
    pub fn err(env: &Env, msg: Msg) -> DeclOut {
        DeclOut {
            envo: env.clone(),
            decls: Vec::new(),
            msgs: Msgs::one(msg),
        }
    }

    /// Encodes as the Value bundle `[Env, List(decls), Msgs]` used by the
    /// `RES`-style rules.
    pub fn encode(self) -> Value {
        Value::list(vec![
            Value::Env(self.envo),
            Value::list(self.decls.into_iter().map(Value::Node).collect()),
            Value::Msgs(self.msgs),
        ])
    }
}

/// Binds a denotation node into an environment by its name, an attribute
/// specification by its key. A type binds only its own name: its
/// companions (literals, units, implicit operators) travel alongside it in
/// declaration lists, so binding them here would duplicate every overload.
pub fn bind_decl(env: &Env, node: &Rc<VifNode>) -> Env {
    let key = match node.tag() {
        Kind::attrspec => Some(node.str(Field::key)),
        Kind::enumlit
        | Kind::physunit
        | Kind::subprog
        | Kind::obj
        | Kind::component
        | Kind::alias
        | Kind::pkg
        | Kind::attrdecl => node.name(),
        _ if vhdl_vif::kinds::is_ty(node.kind_sym()) => node.name(),
        _ => None,
    };
    match key {
        Some(k) => env.bind(k, Den::local(Rc::clone(node))),
        None => env.clone(),
    }
}

/// Re-imports the context clauses recorded on a unit node (`ctx` field)
/// into an environment — an architecture is analyzed "within" its
/// entity's context.
pub fn reimport_ctx(env: &Env, ctx: &Rc<Actx>, unit: &VifNode) -> Env {
    let mut e = env.clone();
    for entry in unit.list_field(Field::ctx) {
        let Some(parts) = entry.as_list() else {
            continue;
        };
        let kind = parts.first().and_then(|v| v.as_str()).unwrap_or("");
        let segs: Vec<&str> = parts[1..].iter().filter_map(|v| v.as_str()).collect();
        match kind {
            "lib" => {
                if let Some(name) = segs.first() {
                    e = e.bind(name, Den::local(mk::library(*name)));
                }
            }
            "use" => {
                // Rebuild a synthetic token run and run the import.
                let mut toks = Vec::new();
                for (i, seg) in segs.iter().enumerate() {
                    if i > 0 {
                        toks.push(SrcTok::new(TokenKind::Dot, ".", Pos::default()));
                    }
                    let kind = if *seg == "all" {
                        TokenKind::KwAll
                    } else {
                        TokenKind::Id
                    };
                    toks.push(SrcTok::new(kind, *seg, Pos::default()));
                }
                let u = U { env: &e, ctx };
                let (e2, _, _) = use_import(&u, &toks, &e);
                e = e2;
            }
            _ => {}
        }
    }
    e
}

/// Subtype-indication descriptor decoded from its Value bundle
/// `[mark_toks, res_toks, Str(form), constraint_toks]`.
pub struct StiDesc {
    /// Type-mark tokens.
    pub mark: Vec<SrcTok>,
    /// Resolution-function name tokens (empty: none).
    pub res: Vec<SrcTok>,
    /// `plain` / `paren` / `range`.
    pub form: String,
    /// Constraint tokens.
    pub constraint: Vec<SrcTok>,
}

/// Decodes the STI bundle.
pub fn sti_of(v: &Value) -> StiDesc {
    let parts = v.expect_list();
    StiDesc {
        mark: toks_of(&parts[0]),
        res: toks_of(&parts[1]),
        form: parts[2].expect_str().to_string(),
        constraint: toks_of(&parts[3]),
    }
}

/// Resolves a subtype indication to a type, applying constraints and
/// resolution functions.
pub fn resolve_subtype(u: &U<'_>, sti: &StiDesc) -> (Option<Ty>, Msgs) {
    let mut msgs = Msgs::none();
    let pos = sti.mark.first().map(|t| t.pos).unwrap_or_default();
    // In the "name" form, an index constraint rides inside the mark's
    // token run: `bit_vector(7 downto 0)`. Split it off.
    let (mark_toks, paren_constraint) =
        match sti.mark.iter().position(|t| t.kind == TokenKind::LParen) {
            Some(i) => {
                let inner: Vec<SrcTok> = sti.mark[i + 1..sti.mark.len().saturating_sub(1)].to_vec();
                (sti.mark[..i].to_vec(), Some(inner))
            }
            None => (sti.mark.clone(), None),
        };
    let (form, constraint): (&str, Vec<SrcTok>) = match sti.form.as_str() {
        "range" => ("range", sti.constraint.clone()),
        "paren" => ("paren", sti.constraint.clone()),
        _ => match paren_constraint {
            Some(cs) => ("paren", cs),
            None => ("plain", Vec::new()),
        },
    };
    let sti = StiDesc {
        mark: mark_toks,
        res: sti.res.clone(),
        form: form.to_string(),
        constraint,
    };
    let sti = &sti;
    let mark = match u.resolve_name(&sti.mark) {
        Ok(dens) => match dens.first() {
            Some(d) if vhdl_vif::kinds::is_ty(d.kind_sym()) => Rc::clone(&dens[0]),
            _ => {
                msgs.push(Msg::error(pos, "name does not denote a type"));
                return (None, msgs);
            }
        },
        Err(m) => {
            msgs.push(m);
            return (None, msgs);
        }
    };
    // Resolution function.
    let resolution = if sti.res.is_empty() {
        None
    } else {
        match u.resolve_name(&sti.res) {
            Ok(dens) => dens
                .iter()
                .find(|d| d.kind_sym() == vhdl_vif::kinds::subprog())
                .cloned(),
            Err(m) => {
                msgs.push(m);
                None
            }
        }
    };
    let constrained = match sti.form.as_str() {
        "plain" => {
            if resolution.is_some() {
                Some(types::anon_subtype(&mark, None, resolution.clone()))
            } else {
                Some(mark.clone())
            }
        }
        "paren" | "range" => {
            let a = u.ev(&sti.constraint, None);
            msgs = Msgs::concat(&msgs, &a.msgs);
            match a.as_range() {
                Some((l, r, dir)) => match (ir::const_int(&l), ir::const_int(&r)) {
                    (Some(lv), Some(rv)) => {
                        // `lo`/`hi` fields hold the left/right bounds as
                        // written; `dir` interprets them.
                        let res = if types::is_array(&mark) {
                            None
                        } else {
                            resolution.clone()
                        };
                        Some(types::anon_subtype(&mark, Some((lv, rv, dir)), res))
                    }
                    _ => {
                        msgs.push(Msg::error(pos, "constraint bounds must be static"));
                        None
                    }
                },
                None => {
                    msgs.push(Msg::error(pos, "constraint is not a range"));
                    None
                }
            }
        }
        other => {
            msgs.push(Msg::error(pos, format!("bad subtype form `{other}`")));
            None
        }
    };
    (constrained, msgs)
}

/// Interface-element descriptor decoded from
/// `[Str(class), List(id toks), Str(mode), STI, Bool(bus), List(default toks)]`.
pub struct IfaceDesc {
    /// Declared class keyword or empty.
    pub class: String,
    /// Identifier tokens.
    pub ids: Vec<SrcTok>,
    /// Mode keyword or empty.
    pub mode: String,
    /// Subtype indication bundle.
    pub sti: StiDesc,
    /// `bus` present.
    pub bus: bool,
    /// Default-expression tokens (empty: none).
    pub default: Vec<SrcTok>,
}

/// Decodes a list of interface descriptors.
pub fn ifaces_of(v: &Value) -> Vec<IfaceDesc> {
    v.expect_list()
        .iter()
        .map(|e| {
            let parts = e.expect_list();
            IfaceDesc {
                class: parts[0].expect_str().to_string(),
                ids: toks_of(&parts[1]),
                mode: parts[2].expect_str().to_string(),
                sti: sti_of(&parts[3]),
                bus: matches!(parts[4], Value::Bool(true)),
                default: toks_of(&parts[5]),
            }
        })
        .collect()
}

/// Elaborates an interface list into object nodes. `default_class` applies
/// when no class keyword was written (signals for ports, constants for
/// generics and `in` parameters).
pub fn resolve_ifaces(
    u: &U<'_>,
    ifaces: &[IfaceDesc],
    default_class: ObjClass,
) -> (Vec<Rc<VifNode>>, Msgs) {
    let mut out = Vec::new();
    let mut msgs = Msgs::none();
    for f in ifaces {
        let (ty, m) = resolve_subtype(u, &f.sti);
        msgs = Msgs::concat(&msgs, &m);
        let Some(ty) = ty else { continue };
        let class = match f.class.as_str() {
            "constant" => ObjClass::Constant,
            "signal" => ObjClass::Signal,
            "variable" => ObjClass::Variable,
            _ => default_class,
        };
        let mode = Mode::decode(&f.mode);
        let init = if f.default.is_empty() {
            None
        } else {
            let a = u.ev(&f.default, Some(&ty));
            msgs = Msgs::concat(&msgs, &a.msgs);
            a.ir
        };
        for id in &f.ids {
            // `origin` tags interface objects so mode rules (e.g. no
            // writes to `in` ports) can tell them from local declarations.
            out.push(mk::obj(
                id.text,
                u.ctx.uids.declared(&id.text, id.pos),
                decl::word(class.encode()),
                decl::word(mode.encode()),
                Rc::clone(&ty),
                init.clone(),
                f.bus.then(|| decl::word("bus")),
                Some(decl::word("iface")),
            ));
        }
    }
    (out, msgs)
}

/// Builds the subprogram node for a spec descriptor
/// `[Str(kind), Tok(designator), IFACES, List(ret toks)]`.
pub fn spec_subprog(u: &U<'_>, spec: &Value) -> (Option<Rc<VifNode>>, Msgs) {
    let parts = spec.expect_list();
    let is_func = &*parts[0].expect_str() == "func";
    let desig = *parts[1].expect_tok();
    let ifaces = ifaces_of(&parts[2]);
    let ret_toks = toks_of(&parts[3]);
    let default_class = ObjClass::Constant;
    let (params, mut msgs) = resolve_ifaces(u, &ifaces, default_class);
    let ret = if is_func {
        match u.resolve_name(&ret_toks) {
            Ok(dens) if vhdl_vif::kinds::is_ty(dens[0].kind_sym()) => Some(Rc::clone(&dens[0])),
            Ok(_) => {
                msgs.push(Msg::error(desig.pos, "return mark is not a type"));
                return (None, msgs);
            }
            Err(m) => {
                msgs.push(m);
                return (None, msgs);
            }
        }
    } else {
        None
    };
    let uid = u.ctx.uids.declared(&desig.text, desig.pos);
    let params = params.into_iter().map(VifValue::Node).collect();
    let node = mk::subprog(desig.text, uid, params, ret, None, None, None, None);
    (Some(node), msgs)
}

/// Finds a previously declared subprogram spec matching `name` and the
/// given parameter profile (for attaching bodies to specs while keeping
/// the spec's uids — separate compilation needs call sites and bodies to
/// agree).
pub fn find_spec_match(env: &Env, fresh: &VifNode) -> Option<Rc<VifNode>> {
    let name = fresh.name()?;
    let fresh_params = decl::subprog_params(fresh);
    for den in env.lookup(name) {
        if den.node.tag() != Kind::subprog || den.node.field(Field::body).is_some() {
            continue;
        }
        let params = decl::subprog_params(&den.node);
        if params.len() != fresh_params.len() {
            continue;
        }
        let tys_match = params
            .iter()
            .zip(&fresh_params)
            .all(|(a, b)| types::same_base(a.node(Field::ty), b.node(Field::ty)));
        let ret_match = match (decl::subprog_ret(&den.node), decl::subprog_ret(fresh)) {
            (Some(a), Some(b)) => types::same_base(&a, &b),
            (None, None) => true,
            _ => false,
        };
        if tys_match && ret_match {
            return Some(den.node);
        }
    }
    None
}

/// Imports a use-clause name into the environment (§3.4: whole-unit
/// `.all`, or one-by-one to dodge homograph conflicts).
pub fn use_import(u: &U<'_>, toks: &[SrcTok], env: &Env) -> (Env, Vec<Rc<VifNode>>, Msgs) {
    let mut msgs = Msgs::none();
    match u.resolve_name(toks) {
        Ok(dens) => {
            let mut env = env.clone();
            let mut imported = Vec::new();
            for d in &dens {
                if d.tag() == Kind::all {
                    let pkg = d.node(Field::pkg);
                    for n in pkg.nodes(Field::decls) {
                        env = bind_decl(&env, n);
                        imported.push(Rc::clone(n));
                    }
                } else {
                    env = bind_decl(&env, d);
                    imported.push(Rc::clone(d));
                }
            }
            (env, imported, msgs)
        }
        Err(m) => {
            msgs.push(m);
            (env.clone(), Vec::new(), msgs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvKind;
    use crate::standard::standard;
    use crate::uid::UidScope;
    use std::cell::{Cell, RefCell};
    use vhdl_syntax::lexer::lex;

    struct NoLibs;
    impl crate::analyze::UnitLoader for NoLibs {
        fn load_unit(&self, _l: &str, _k: &str) -> Option<Rc<VifNode>> {
            None
        }
        fn latest_architecture(&self, _e: &str) -> Option<String> {
            None
        }
        fn unit_keys(&self, _l: &str) -> Vec<String> {
            Vec::new()
        }
    }

    fn actx() -> Rc<Actx> {
        Rc::new(Actx {
            loader: Rc::new(NoLibs),
            std: Rc::new(standard(EnvKind::Tree)),
            expr_evals: RefCell::new(0),
            expr_rule_evals: Cell::new(0),
            uids: UidScope::unit(&lex("signal x, y : bit;").unwrap()),
        })
    }

    #[test]
    fn resolve_plain_subtype() {
        let ctx = actx();
        let env = ctx.std.env.clone();
        let u = U {
            env: &env,
            ctx: &ctx,
        };
        let sti = StiDesc {
            mark: lex("integer").unwrap(),
            res: vec![],
            form: "plain".into(),
            constraint: vec![],
        };
        let (ty, msgs) = resolve_subtype(&u, &sti);
        assert!(!msgs.has_errors(), "{msgs}");
        assert!(types::same_base(&ty.unwrap(), &ctx.std.std.integer));
    }

    #[test]
    fn resolve_range_subtype() {
        let ctx = actx();
        let env = ctx.std.env.clone();
        let u = U {
            env: &env,
            ctx: &ctx,
        };
        let sti = StiDesc {
            mark: lex("integer").unwrap(),
            res: vec![],
            form: "range".into(),
            constraint: lex("0 to 9").unwrap(),
        };
        let (ty, msgs) = resolve_subtype(&u, &sti);
        assert!(!msgs.has_errors(), "{msgs}");
        assert_eq!(
            types::scalar_bounds(&ty.unwrap()),
            Some((0, 9, types::Dir::To))
        );
        assert_eq!(*ctx.expr_evals.borrow(), 1, "one cascade invocation");
    }

    #[test]
    fn resolve_array_constraint() {
        let ctx = actx();
        let env = ctx.std.env.clone();
        let u = U {
            env: &env,
            ctx: &ctx,
        };
        let sti = StiDesc {
            mark: lex("bit_vector").unwrap(),
            res: vec![],
            form: "paren".into(),
            constraint: lex("7 downto 0").unwrap(),
        };
        let (ty, msgs) = resolve_subtype(&u, &sti);
        assert!(!msgs.has_errors(), "{msgs}");
        assert_eq!(
            types::array_bounds(&ty.unwrap()),
            Some((7, 0, types::Dir::Downto))
        );
    }

    #[test]
    fn nonstatic_constraint_rejected() {
        let ctx = actx();
        let env = ctx.std.env.clone();
        let u = U {
            env: &env,
            ctx: &ctx,
        };
        let sti = StiDesc {
            mark: lex("integer").unwrap(),
            res: vec![],
            form: "range".into(),
            constraint: lex("0 to missing_var").unwrap(),
        };
        let (ty, msgs) = resolve_subtype(&u, &sti);
        assert!(ty.is_none());
        assert!(msgs.has_errors());
    }

    #[test]
    fn declared_uids_are_deterministic() {
        let uids = &actx().uids;
        let p = Pos { line: 1, col: 8 };
        assert_eq!(uids.declared("x", p), uids.declared("x", p));
        assert_ne!(uids.declared("x", p), uids.declared("y", p));
    }
}
