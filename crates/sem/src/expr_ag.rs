//! The expression attribute grammar and `expr_eval` (§4.1).
//!
//! This is the second AG of the cascade. Its parser consumes LEF tokens —
//! already categorized by what each identifier denotes — so `X(Y)` parses
//! as a call, an indexed name, a slice, or a type conversion *by grammar*,
//! which is the paper's whole point. The generated evaluator is wrapped in
//! the out-of-line function [`expr_eval`]; the scanner that feeds it "just
//! takes the next LEF token off the front of the list".

use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use ag_core::{AgBuilder, AttrDir, AttrGrammar, ClassId, DemandEval, EvalError, Implicit};
use ag_lalr::{Grammar, GrammarBuilder, ParseTable, Parser, SymbolId, Token};
use vhdl_syntax::{Pos, SrcTok};
use vhdl_vif::{mk, Field, Kind};

use crate::env::Env;
use crate::expr_rules;
use crate::ir::Ir;
use crate::lef::{build_lef, LefCtx, LefKind, LefTok, PkgLoader};
use crate::msg::{Msg, Msgs};
use crate::types::{self, Dir, Ty};
use crate::value::Value;

/// Attribute classes of the expression AG.
#[derive(Clone, Copy, Debug)]
pub struct ExprClasses {
    /// Inherited environment (user-attribute lookups, operators).
    pub env: ClassId,
    /// Inherited expected type (`MaybeNode`).
    pub expected: ClassId,
    /// Synthesized candidate types (`List` of type nodes; empty =
    /// context-typed).
    pub types: ClassId,
    /// Synthesized overload candidates of an operator or call node
    /// (`Cands`), filtered once from its operand types or argument shapes
    /// and read by that production's `TYPES`, `EXPECTED(S)` and `IR`
    /// rules; empty elsewhere.
    pub cands: ClassId,
    /// Synthesized name denotation (`Den`).
    pub den: ClassId,
    /// Synthesized translation (`Node`, an `e.*` IR).
    pub ir: ClassId,
    /// Synthesized diagnostics.
    pub msgs: ClassId,
    /// Synthesized argument shapes on association lists.
    pub args: ClassId,
    /// Inherited per-argument expected types on association lists.
    pub expecteds: ClassId,
    /// Synthesized aggregate element info.
    pub info: ClassId,
    /// Synthesized per-element IR bundles on association/element lists.
    pub irs: ClassId,
    /// Synthesized choice descriptors on choice lists.
    pub choice: ClassId,
    /// Synthesized lightweight choice *tags* (no IRs — used by aggregate
    /// typing before expected types are known, breaking the
    /// INFO→CHOICE→IR dependency cycle).
    pub tags: ClassId,
}

/// The expression grammar over LEF categories and its LALR(1) table:
/// plain data, `Send` and `Sync`, built once per process
/// ([`ExprTables::shared`]) under the process-wide [`ExprAg::shared`].
pub struct ExprTables {
    /// The context-free grammar over LEF categories.
    pub grammar: Arc<Grammar>,
    /// Its LALR(1) table.
    pub table: ParseTable,
}

impl ExprTables {
    /// The process-wide tables, built by the first caller on any thread.
    pub fn shared() -> &'static ExprTables {
        static SHARED: OnceLock<ExprTables> = OnceLock::new();
        SHARED.get_or_init(ExprTables::new)
    }

    /// Builds the grammar and its table from scratch (benches that time
    /// generation; `expr_eval` uses [`ExprTables::shared`]).
    ///
    /// # Panics
    ///
    /// Panics if the grammar is not LALR(1) — a bug in this crate, not a
    /// user error.
    pub fn new() -> ExprTables {
        let grammar = Arc::new(build_expr_grammar());
        let table = match ParseTable::build(&grammar) {
            Ok(t) => t,
            Err(e) => panic!("expression grammar is not LALR(1):\n{e}"),
        };
        ExprTables { grammar, table }
    }

    /// Terminal symbol for a LEF kind.
    ///
    /// # Panics
    ///
    /// Panics for a token kind the expression grammar lacks, which
    /// [`build_lef`] never emits.
    pub fn terminal(&self, kind: LefKind) -> SymbolId {
        let i = kind
            .terminal()
            .expect("LEF holds only expression-grammar terminals");
        SymbolId::from_index(i)
    }
}

impl Default for ExprTables {
    fn default() -> Self {
        Self::new()
    }
}

/// The built expression AG: the attribution over a set of [`ExprTables`].
pub struct ExprAg<'t> {
    /// The grammar and table the attribution is built over.
    pub tables: &'t ExprTables,
    /// The attribute grammar.
    pub ag: AttrGrammar<Value>,
    /// The class handles.
    pub classes: ExprClasses,
}

impl ExprAg<'static> {
    /// The process-wide attribution over [`ExprTables::shared`], built by
    /// the first caller on any thread: its rules and implicit rules are
    /// `Send + Sync` and it holds no per-expression state.
    pub fn shared() -> &'static ExprAg<'static> {
        static SHARED: OnceLock<ExprAg<'static>> = OnceLock::new();
        SHARED.get_or_init(|| ExprAg::build(ExprTables::shared()))
    }
}

impl<'t> ExprAg<'t> {
    /// Builds the attribution over `tables`.
    ///
    /// # Panics
    ///
    /// Panics if the AG is malformed — a bug in this crate, not a user
    /// error.
    pub fn build(tables: &'t ExprTables) -> ExprAg<'t> {
        let mut ab = AgBuilder::<Value>::new(Arc::clone(&tables.grammar));
        let merge_list = || Implicit::Merge {
            unit: Some(Value::empty_list),
            f: Value::concat_lists,
        };
        let classes = ExprClasses {
            env: ab.class("ENV", AttrDir::Inherited, Implicit::Copy),
            expected: ab.class(
                "EXPECTED",
                AttrDir::Inherited,
                Implicit::Unit(|| Value::MaybeNode(None)),
            ),
            types: ab.class("TYPES", AttrDir::Synthesized, Implicit::Copy),
            cands: ab.class(
                "CANDS",
                AttrDir::Synthesized,
                Implicit::Unit(|| Value::cands(Vec::new())),
            ),
            den: ab.class("DEN", AttrDir::Synthesized, Implicit::Copy),
            ir: ab.class("IR", AttrDir::Synthesized, Implicit::Copy),
            msgs: ab.class(
                "MSGS",
                AttrDir::Synthesized,
                Implicit::Merge {
                    unit: Some(|| Value::Msgs(Msgs::none())),
                    f: Value::concat_msgs,
                },
            ),
            args: ab.class("ARGS", AttrDir::Synthesized, merge_list()),
            expecteds: ab.class("EXPECTEDS", AttrDir::Inherited, Implicit::Copy),
            info: ab.class("INFO", AttrDir::Synthesized, merge_list()),
            irs: ab.class("IRS", AttrDir::Synthesized, merge_list()),
            choice: ab.class("CHOICE", AttrDir::Synthesized, merge_list()),
            tags: ab.class("TAGS", AttrDir::Synthesized, merge_list()),
        };
        expr_rules::install(&mut ab, &tables.grammar, &classes);
        let ag = match ab.build() {
            Ok(ag) => ag,
            Err(e) => panic!("expression AG malformed: {e}"),
        };
        ExprAg {
            tables,
            ag,
            classes,
        }
    }
}

/// Result of evaluating one maximal expression.
#[derive(Clone, Debug)]
pub struct ExprAnswer {
    /// The translation, when analysis succeeded. A range query yields an
    /// `e.range` node.
    pub ir: Option<Ir>,
    /// Diagnostics (errors suppress `ir`).
    pub msgs: Msgs,
    /// Rule instances the expression AG ran for it (0 when the expression
    /// did not reach attribute evaluation).
    pub rule_evals: u64,
}

impl ExprAnswer {
    fn error(msgs: Msgs) -> ExprAnswer {
        ExprAnswer {
            ir: None,
            msgs,
            rule_evals: 0,
        }
    }

    /// The result type, when analysis succeeded.
    pub fn ty(&self) -> Option<Ty> {
        self.ir.as_ref().map(crate::ir::ty_of)
    }

    /// Decomposes an `e.range` result into `(left, right, dir)`.
    pub fn as_range(&self) -> Option<(Ir, Ir, Dir)> {
        let ir = self.ir.as_ref()?;
        if ir.tag() != Kind::e_range {
            return None;
        }
        Some((
            Rc::clone(ir.node(Field::left)),
            Rc::clone(ir.node(Field::right)),
            Dir::decode(ir.int(Field::dir)),
        ))
    }
}

/// The out-of-line `exprEval` function of §4.1: builds LEF from the source
/// tokens of a maximal expression, parses it with the expression grammar,
/// runs attribute evaluation, and returns the goal attributes.
///
/// `expected` narrows overload resolution (e.g. `boolean` for an `if`
/// guard, the void marker for procedure-call statements); `load_pkg`
/// resolves expanded names through libraries.
pub fn expr_eval(
    toks: &[SrcTok],
    env: &Env,
    expected: Option<&Ty>,
    load_pkg: Option<PkgLoader<'_>>,
) -> ExprAnswer {
    let _t = ag_harness::trace::span("expr-eval-cascade");
    ag_harness::trace::counter("expr-evals", 1);
    let pos = toks.first().map(|t| t.pos).unwrap_or_default();
    if toks.is_empty() {
        return ExprAnswer::error(Msgs::one(Msg::error(pos, "empty expression")));
    }
    let (lef, mut msgs) = build_lef(toks, &LefCtx { env, load_pkg });
    if msgs.has_errors() {
        return ExprAnswer::error(msgs);
    }
    let ax = ExprAg::shared();
    let xt = ax.tables;

    // The paper's trivial scanner: the next token is the head of the list.
    // Chain productions that only copy get no node, and a leaf becomes a
    // `Value` only when a rule demands its token.
    let parser = Parser::eliding(&xt.grammar, &xt.table, ax.ag.transparent());
    let parsed = parser.parse(
        lef.iter()
            .map(|t| Token::new(xt.terminal(t.kind), t.clone())),
    );
    let tree = match parsed {
        Ok(t) => t,
        Err(e) => {
            let at = lef.get(e.at).map_or(pos, |t| t.pos);
            msgs.push(Msg::error(
                at,
                format!(
                    "cannot parse expression here (found {}, expected one of: {})",
                    e.found,
                    e.expected.join(", ")
                ),
            ));
            return ExprAnswer::error(msgs);
        }
    };
    ag_harness::trace::counter("expr-tree-nodes", tree.len() as u64);

    let eval = DemandEval::new(
        &ax.ag,
        &tree,
        vec![
            (ax.classes.env, Value::Env(env.clone())),
            (
                ax.classes.expected,
                Value::MaybeNode(expected.map(Rc::clone)),
            ),
        ],
    );
    let answer = goals(&eval, pos, expected, msgs);
    ExprAnswer {
        rule_evals: eval.n_rule_evals() as u64,
        ..answer
    }
}

/// The goal attributes of an evaluated expression tree, checked against
/// the expected type.
fn goals(
    eval: &DemandEval<'_, Value, LefTok>,
    pos: Pos,
    expected: Option<&Ty>,
    mut msgs: Msgs,
) -> ExprAnswer {
    let ax = ExprAg::shared();
    let ir = match eval.root_value(ax.classes.ir) {
        Ok(Value::Node(ir)) => ir,
        Ok(other) => {
            msgs.push(Msg::error(pos, format!("internal: bad IR value {other:?}")));
            return ExprAnswer::error(msgs);
        }
        Err(e @ EvalError::TooDeep { .. }) => {
            msgs.push(Msg::error(pos, e.to_string()));
            return ExprAnswer::error(msgs);
        }
        Err(e) => {
            msgs.push(Msg::error(pos, format!("internal: {e}")));
            return ExprAnswer::error(msgs);
        }
    };
    if let Ok(v) = eval.root_value(ax.classes.msgs) {
        msgs = Msgs::concat(&msgs, v.as_msgs());
    }
    // Errors are embedded as e.error nodes; collect them.
    collect_errors(&ir, &mut msgs);
    if msgs.has_errors() {
        return ExprAnswer::error(msgs);
    }
    // Final context check.
    if let Some(want) = expected {
        let got = crate::ir::ty_of(&ir);
        let ok = if types::is_void_marker(want) {
            types::is_void_marker(&got)
        } else {
            types::compatible(&got, want)
        };
        if !ok {
            msgs.push(Msg::error(
                pos,
                format!(
                    "expression has type {}, expected {}",
                    got.name().unwrap_or("?"),
                    want.name().unwrap_or("?")
                ),
            ));
            return ExprAnswer::error(msgs);
        }
    }
    ExprAnswer {
        ir: Some(ir),
        msgs,
        rule_evals: 0,
    }
}

/// Walks an IR tree collecting embedded `e.error` diagnostics.
pub fn collect_errors(ir: &Ir, msgs: &mut Msgs) {
    if ir.tag() == Kind::e_error {
        let line = ir.int(Field::line) as u32;
        msgs.push(Msg::error(
            Pos { line, col: 1 },
            ir.str(Field::msg).to_string(),
        ));
    }
    for (_, v) in ir.fields() {
        walk_value(v, msgs);
    }
}

fn walk_value(v: &vhdl_vif::VifValue, msgs: &mut Msgs) {
    match v {
        // Only descend into IR-ish nodes; types/denotations are shared
        // and error-free.
        vhdl_vif::VifValue::Node(n)
            if vhdl_vif::kinds::is_expr(n.kind_sym())
                || vhdl_vif::kinds::is_stmt(n.kind_sym())
                || n.kind_sym() == vhdl_vif::kinds::wv() =>
        {
            collect_errors(n, msgs);
        }
        vhdl_vif::VifValue::List(l) => {
            for v in l.iter() {
                walk_value(v, msgs);
            }
        }
        _ => {}
    }
}

/// An `e.error` IR node (typed as universal integer so parents continue).
pub fn err_ir(pos: Pos, msg: impl Into<Rc<str>>) -> Ir {
    mk::e_error(types::universal_int(), msg, pos.line as i64)
}

/// Builds the expression grammar over LEF categories: the terminals come
/// first, in [`LefKind::TERMINALS`] order (so [`LefKind::terminal`] is a
/// symbol index), and every other word of a rule is a nonterminal.
fn build_expr_grammar() -> Grammar {
    let mut b = GrammarBuilder::new();
    for k in LefKind::TERMINALS {
        b.terminal(k.name());
    }
    // Goal: an expression or a discrete range.
    b.rule("xr", "expr", "xr_expr");
    b.rule("xr", "expr to expr", "xr_to");
    b.rule("xr", "expr downto expr", "xr_downto");

    // Logical level.
    b.rule("expr", "rel", "x_rel");
    for (op, label) in [
        ("and", "x_and"),
        ("or", "x_or"),
        ("xor", "x_xor"),
        ("nand", "x_nand"),
        ("nor", "x_nor"),
    ] {
        b.rule("expr", &format!("expr {op} rel"), label);
    }
    // Relational level.
    b.rule("rel", "simple", "r_simple");
    for (op, label) in [
        ("'='", "r_eq"),
        ("'/='", "r_ne"),
        ("'<'", "r_lt"),
        ("'<='", "r_le"),
        ("'>'", "r_gt"),
        ("'>='", "r_ge"),
    ] {
        b.rule("rel", &format!("simple {op} simple"), label);
    }
    // Adding level (sign binds the whole first term, per LRM).
    b.rule("simple", "term", "s_term");
    b.rule("simple", "'+' term", "s_plus");
    b.rule("simple", "'-' term", "s_minus");
    b.rule("simple", "simple '+' term", "s_add");
    b.rule("simple", "simple '-' term", "s_sub");
    b.rule("simple", "simple '&' term", "s_amp");
    // Multiplying level.
    b.rule("term", "factor", "t_factor");
    b.rule("term", "term '*' factor", "t_mul");
    b.rule("term", "term '/' factor", "t_div");
    b.rule("term", "term mod factor", "t_mod");
    b.rule("term", "term rem factor", "t_rem");
    // Factor level.
    b.rule("factor", "primary", "f_primary");
    b.rule("factor", "primary '**' primary", "f_pow");
    b.rule("factor", "abs primary", "f_abs");
    b.rule("factor", "not primary", "f_not");
    // Primaries.
    b.rule("primary", "name", "p_name");
    b.rule("primary", "int_lit", "p_int");
    b.rule("primary", "real_lit", "p_real");
    b.rule("primary", "str_lit", "p_str");
    b.rule("primary", "bitstr_lit", "p_bitstr");
    b.rule("primary", "int_lit physunit", "p_phys_int");
    b.rule("primary", "real_lit physunit", "p_phys_real");
    b.rule("primary", "physunit", "p_phys_unit");
    b.rule("primary", "aggregate", "p_agg");
    b.rule("primary", "tymark tick aggregate", "p_qualified");
    b.rule("primary", "tymark '(' expr ')'", "p_conv");
    // Names (the X(Y) family).
    b.rule("name", "obj", "n_obj");
    b.rule("name", "callable", "n_callable");
    b.rule("name", "name '(' assocs ')'", "n_apply");
    b.rule("name", "name '.' fieldid", "n_field");
    b.rule("name", "name tick attrid", "n_attr");
    b.rule("name", "tymark tick attrid", "n_tyattr");
    // Associations.
    b.rule("assocs", "assoc", "as_one");
    b.rule("assocs", "assocs ',' assoc", "as_more");
    b.rule("assoc", "expr", "a_pos");
    b.rule("assoc", "expr to expr", "a_to");
    b.rule("assoc", "expr downto expr", "a_downto");
    b.rule("assoc", "fieldid '=>' expr", "a_named");
    b.rule("assoc", "open", "a_open");
    // Aggregates / parenthesized expressions.
    b.rule("aggregate", "'(' elems ')'", "g_parens");
    b.rule("elems", "elem", "el_one");
    b.rule("elems", "elems ',' elem", "el_more");
    b.rule("elem", "expr", "e_pos");
    b.rule("elem", "chs '=>' expr", "e_named");
    b.rule("chs", "ch", "ch_one");
    b.rule("chs", "chs '|' ch", "ch_more");
    b.rule("ch", "expr", "c_expr");
    b.rule("ch", "expr to expr", "c_to");
    b.rule("ch", "expr downto expr", "c_downto");
    b.rule("ch", "others", "c_others");
    b.rule("ch", "fieldid", "c_field");

    let start = b.nonterminal("xr");
    b.start(start);
    b.build().expect("expression grammar is well-formed")
}
