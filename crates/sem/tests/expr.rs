//! End-to-end tests of the cascaded expression evaluation (§4.1):
//! source text → lexer → LEF (resolved tokens) → expression AG → typed IR.

use std::rc::Rc;

use vhdl_sem::decl::{mk_obj, mk_subprog, Mode, ObjClass, Param};
use vhdl_sem::env::{Den, Env, EnvKind};
use vhdl_sem::expr_ag::{expr_eval, ExprAnswer};
use vhdl_sem::ir::const_int;
use vhdl_sem::standard::{standard, Standard};
use vhdl_sem::types::{self, Dir};
use vhdl_syntax::lexer::lex;

fn eval(src: &str, env: &Env, expected: Option<&types::Ty>) -> ExprAnswer {
    let toks = lex(src).unwrap();
    expr_eval(&toks, env, expected, None)
}

fn ok(src: &str, env: &Env, expected: Option<&types::Ty>) -> ExprAnswer {
    let a = eval(src, env, expected);
    assert!(!a.msgs.has_errors(), "`{src}` failed:\n{}", a.msgs);
    assert!(a.ir.is_some());
    a
}

fn fail(src: &str, env: &Env, expected: Option<&types::Ty>) -> String {
    let a = eval(src, env, expected);
    assert!(a.msgs.has_errors(), "`{src}` unexpectedly succeeded");
    a.msgs.to_string()
}

fn std_env() -> Standard {
    standard(EnvKind::Tree)
}

#[test]
fn integer_arithmetic_folds() {
    let s = std_env();
    let a = ok("1 + 2 * 3", &s.env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(7));
    let a = ok("(1 + 2) * 3", &s.env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(9));
    let a = ok("2 ** 10 mod 100", &s.env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(24));
    let a = ok("abs (0 - 5)", &s.env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(5));
}

#[test]
fn unary_sign_covers_whole_term() {
    let s = std_env();
    // Per the LRM, -a*b is -(a*b).
    let a = ok("- 2 * 3", &s.env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(-6));
}

#[test]
fn boolean_and_relations() {
    let s = std_env();
    let a = ok("1 < 2 and true", &s.env, Some(&s.std.boolean));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(1));
    let a = ok("not (1 = 2)", &s.env, Some(&s.std.boolean));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(1));
}

#[test]
fn physical_time_literals() {
    let s = std_env();
    let a = ok("10 ns + 500 ps", &s.env, Some(&s.std.time));
    // femtoseconds base: 10e6 + 500e3.
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(10_500_000));
    let a = ok("2 * 5 ns", &s.env, Some(&s.std.time));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(10_000_000));
}

/// The paper's running example: the same text `X(Y)` elaborates four
/// different ways depending on what `X` denotes.
#[test]
fn x_of_y_four_ways() {
    let s = std_env();
    let int = &s.std.integer;
    let bv = types::anon_subtype(&s.std.bit_vector, Some((7, 0, Dir::Downto)), None);
    let f = mk_subprog(
        "x".into(),
        "x",
        vec![Param::value("a", int)],
        Some(int),
        None,
    );
    let arr = mk_obj(
        "x".into(),
        ObjClass::Variable,
        "x",
        &bv,
        Mode::In,
        None,
        None,
    );
    let y = mk_obj(
        "y".into(),
        ObjClass::Variable,
        "y",
        int,
        Mode::In,
        None,
        None,
    );

    // 1. subprogram call
    let env = s
        .env
        .bind("x", Den::local(Rc::clone(&f)))
        .bind("y", Den::local(Rc::clone(&y)));
    let a = ok("x(y)", &env, Some(int));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.call");

    // 2. array indexing
    let env = s
        .env
        .bind("x", Den::local(Rc::clone(&arr)))
        .bind("y", Den::local(Rc::clone(&y)));
    let a = ok("x(y)", &env, Some(&s.std.bit));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.index");

    // 3. slice by range
    let a = ok("x(3 downto 0)", &env, None);
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.slice");

    // 4. type conversion
    let yv = mk_obj(
        "y".into(),
        ObjClass::Variable,
        "y",
        int,
        Mode::In,
        None,
        None,
    );
    let env = s.env.bind("y", Den::local(yv));
    let a = ok("integer(y)", &env, Some(int));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.conv");
}

#[test]
fn enum_literals_resolve_by_context() {
    let s = std_env();
    let a = ok("'0'", &s.env, Some(&s.std.bit));
    assert!(types::same_base(&a.ty().unwrap(), &s.std.bit));
    let a = ok("'0'", &s.env, Some(&s.std.character));
    assert!(types::same_base(&a.ty().unwrap(), &s.std.character));
    // Without context it is ambiguous.
    let msg = fail("'0'", &s.env, None);
    assert!(msg.contains("ambiguous"), "{msg}");
}

#[test]
fn overloaded_functions_picked_by_expected_type() {
    let s = std_env();
    let int = &s.std.integer;
    let f_int = mk_subprog(
        "f@1".into(),
        "f",
        vec![Param::value("a", int)],
        Some(int),
        None,
    );
    let f_bool = mk_subprog(
        "f@2".into(),
        "f",
        vec![Param::value("a", int)],
        Some(&s.std.boolean),
        None,
    );
    let env = s
        .env
        .bind("f", Den::local(f_int))
        .bind("f", Den::local(f_bool));
    let a = ok("f(1)", &env, Some(int));
    assert!(types::same_base(&a.ty().unwrap(), int));
    let a = ok("f(1)", &env, Some(&s.std.boolean));
    assert!(types::same_base(&a.ty().unwrap(), &s.std.boolean));
    let msg = fail("f(1)", &env, None);
    assert!(msg.contains("ambiguous"), "{msg}");
}

#[test]
fn named_association_and_defaults() {
    let s = std_env();
    let int = &s.std.integer;
    let f = mk_subprog(
        "f".into(),
        "f",
        vec![
            Param::value("a", int),
            Param {
                default: Some(vhdl_sem::ir::e_int(40, int)),
                ..Param::value("b", int)
            },
        ],
        Some(int),
        None,
    );
    let env = s.env.bind("f", Den::local(f));
    let a = ok("f(b => 2, a => 1)", &env, Some(int));
    let call = a.ir.unwrap();
    let args = call.list_field("args");
    assert_eq!(args.len(), 2);
    assert_eq!(const_int(args[0].as_node().unwrap()), Some(1));
    assert_eq!(const_int(args[1].as_node().unwrap()), Some(2));
    // Default fills b.
    let a = ok("f(7)", &env, Some(int));
    let args2 = a.ir.unwrap();
    assert_eq!(
        const_int(args2.list_field("args")[1].as_node().unwrap()),
        Some(40)
    );
}

#[test]
fn string_and_bitstring_literals() {
    let s = std_env();
    let bv8 = types::anon_subtype(&s.std.bit_vector, Some((7, 0, Dir::Downto)), None);
    let a = ok("\"01010101\"", &s.env, Some(&bv8));
    let ir = a.ir.unwrap();
    assert_eq!(ir.kind(), "e.const");
    assert_eq!(ir.list_field("aval").len(), 8);
    let a = ok("x\"a5\"", &s.env, Some(&bv8));
    let bits: Vec<i64> =
        a.ir.unwrap()
            .list_field("aval")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
    assert_eq!(bits, vec![1, 0, 1, 0, 0, 1, 0, 1]);
    let msg = fail("\"012\"", &s.env, Some(&bv8));
    assert!(msg.contains("not a literal"), "{msg}");
}

#[test]
fn aggregates() {
    let s = std_env();
    let bv4 = types::anon_subtype(&s.std.bit_vector, Some((3, 0, Dir::Downto)), None);
    let a = ok("(others => '0')", &s.env, Some(&bv4));
    let ir = a.ir.unwrap();
    assert_eq!(ir.kind(), "e.agg");
    assert!(ir.node_field("others").is_some());
    let a = ok("('1', '0', '1', '0')", &s.env, Some(&bv4));
    assert_eq!(a.ir.unwrap().list_field("elems").len(), 4);
    let a = ok("(0 => '1', 3 => '1', others => '0')", &s.env, Some(&bv4));
    assert_eq!(a.ir.unwrap().list_field("named").len(), 2);
    let a = ok("(3 downto 2 => '1', others => '0')", &s.env, Some(&bv4));
    assert_eq!(a.ir.unwrap().list_field("named").len(), 1);
}

#[test]
fn record_aggregate_and_field_select() {
    let s = std_env();
    let int = &s.std.integer;
    let pair = types::mk_record(
        "pair".into(),
        "pair",
        &[("x", Rc::clone(int)), ("y", Rc::clone(int))],
    );
    let p = mk_obj(
        "p".into(),
        ObjClass::Variable,
        "p",
        &pair,
        Mode::In,
        None,
        None,
    );
    let env = s.env.bind("p", Den::local(p));
    let a = ok("p.x + p.y", &env, Some(int));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.call");
    let a = ok("(x => 1, y => 2)", &env, Some(&pair));
    assert_eq!(a.ir.unwrap().list_field("elems").len(), 2);
    let msg = fail("p.z", &env, Some(int));
    assert!(msg.contains("no field `z`"), "{msg}");
}

#[test]
fn attributes_on_arrays_and_types() {
    let s = std_env();
    let bv8 = types::anon_subtype(&s.std.bit_vector, Some((7, 0, Dir::Downto)), None);
    let v = mk_obj(
        "v".into(),
        ObjClass::Signal,
        "v",
        &bv8,
        Mode::In,
        None,
        None,
    );
    let env = s.env.bind("v", Den::local(v));
    let a = ok("v'length", &env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(8));
    let a = ok("v'left", &env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(7));
    let a = ok("v'low", &env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(0));
    let a = ok("integer'high", &env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(i32::MAX as i64));
    // Slice by 'range.
    let a = ok("v(v'range)", &env, None);
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.slice");
}

#[test]
fn signal_attributes() {
    let s = std_env();
    let clk = mk_obj(
        "clk".into(),
        ObjClass::Signal,
        "clk",
        &s.std.bit,
        Mode::In,
        None,
        None,
    );
    let env = s.env.bind("clk", Den::local(clk));
    let a = ok("clk'event and clk = '1'", &env, Some(&s.std.boolean));
    assert!(a.ir.is_some());
    // 'event on a variable is an error.
    let v = mk_obj(
        "v".into(),
        ObjClass::Variable,
        "v",
        &s.std.bit,
        Mode::In,
        None,
        None,
    );
    let env = s.env.bind("v", Den::local(v));
    let msg = fail("v'event", &env, Some(&s.std.boolean));
    assert!(msg.contains("requires a signal"), "{msg}");
}

/// §3.2/§4.1: a user-defined attribute hides the predefined one.
#[test]
fn user_defined_attribute_takes_precedence() {
    let s = std_env();
    let bv4 = types::anon_subtype(&s.std.bit_vector, Some((3, 0, Dir::Downto)), None);
    let t = mk_obj(
        "t".into(),
        ObjClass::Signal,
        "t",
        &bv4,
        Mode::In,
        None,
        None,
    );
    let uid = t.str_field("uid").unwrap().to_string();
    // attribute reverse_range of t : signal is 42 (integer-valued!).
    let spec = vhdl_vif::VifNode::build("attrspec")
        .node_field("ty", Rc::clone(&s.std.integer))
        .node_field("value", vhdl_sem::ir::e_int(42, &s.std.integer))
        .done();
    let env = s.env.bind("t", Den::local(Rc::clone(&t))).bind(
        vhdl_sem::uid::attr_key(&uid, "reverse_range"),
        Den::local(spec),
    );
    let a = ok("t'reverse_range", &env, Some(&s.std.integer));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(42));
    // Without the spec, 'reverse_range is the predefined range attribute.
    let env2 = s.env.bind("t", Den::local(Rc::clone(&t)));
    let a = eval("t'reverse_range", &env2, None);
    assert!(a.as_range().is_some());
}

#[test]
fn ranges_for_iteration() {
    let s = std_env();
    let a = ok("0 to 7", &s.env, None);
    let (l, r, dir) = a.as_range().unwrap();
    assert_eq!(const_int(&l), Some(0));
    assert_eq!(const_int(&r), Some(7));
    assert_eq!(dir, Dir::To);
    let a = ok("7 downto 0", &s.env, None);
    assert_eq!(a.as_range().unwrap().2, Dir::Downto);
}

#[test]
fn qualified_expressions() {
    let s = std_env();
    let a = ok("bit'('1')", &s.env, None);
    assert!(types::same_base(&a.ty().unwrap(), &s.std.bit));
    assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(1));
}

#[test]
fn procedure_call_mode() {
    let s = std_env();
    let int = &s.std.integer;
    let p0 = mk_subprog("notify".into(), "notify", vec![], None, None);
    let p1 = mk_subprog(
        "emit".into(),
        "emit",
        vec![Param::value("x", int)],
        None,
        None,
    );
    let env = s
        .env
        .bind("notify", Den::local(p0))
        .bind("emit", Den::local(p1));
    let void = types::void_marker();
    let a = ok("notify", &env, Some(&void));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.call");
    let a = ok("emit(3)", &env, Some(&void));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.call");
    // A function where a procedure is needed fails.
    let f = mk_subprog("calc".into(), "calc", vec![], Some(int), None);
    let env = s.env.bind("calc", Den::local(f));
    fail("calc", &env, Some(&void));
}

#[test]
fn concatenation() {
    let s = std_env();
    let bv = &s.std.bit_vector;
    let v = mk_obj(
        "v".into(),
        ObjClass::Variable,
        "v",
        bv,
        Mode::In,
        None,
        None,
    );
    let env = s.env.bind("v", Den::local(v));
    let a = ok("v & v", &env, Some(bv));
    assert_eq!(a.ir.as_ref().unwrap().kind(), "e.call");
    let a = ok("v & '1'", &env, Some(bv));
    assert!(a.ir.is_some());
}

#[test]
fn error_reporting_quality() {
    let s = std_env();
    let msg = fail("1 + true", &s.env, Some(&s.std.integer));
    assert!(msg.contains("no matching `+`"), "{msg}");
    let msg = fail("undeclared_thing + 1", &s.env, None);
    assert!(msg.contains("not declared"), "{msg}");
    let msg = fail("1 +", &s.env, None);
    assert!(msg.contains("cannot parse expression"), "{msg}");
}

#[test]
fn type_mismatch_against_context() {
    let s = std_env();
    let msg = fail("1 + 2", &s.env, Some(&s.std.boolean));
    assert!(
        msg.contains("no matching") || msg.contains("expected"),
        "{msg}"
    );
}

/// The cascade bounds its own demand depth. A pair of parentheses costs it
/// two levels, so `1` inside 16,000 pairs passes `MAX_DEPTH` (28,000) and
/// is a `nesting too deep` diagnostic at the expression's first token,
/// while 4,000 pairs still evaluate.
#[test]
fn deep_expression_ends_in_too_deep_in_the_cascade() {
    ag_harness::pool::run_on_stack("deep-expr", || {
        let s = std_env();
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let a = ok(&parens(4_000), &s.env, Some(&s.std.integer));
        assert_eq!(const_int(a.ir.as_ref().unwrap()), Some(1));
        let msg = fail(&parens(16_000), &s.env, Some(&s.std.integer));
        assert!(msg.contains("1:1: error: nesting too deep"), "{msg}");
    });
}

/// Binds `a` and `b`, variables of type `bit`, and two user operators
/// `"<sym>"` on `operands` bits, one returning `bit` and one `boolean`.
fn bit_env_with_two(s: &Standard, sym: &str, operands: &[&str]) -> Env {
    let bit = &s.std.bit;
    let var = |name: &str| {
        mk_obj(
            name.into(),
            ObjClass::Variable,
            name,
            bit,
            Mode::In,
            None,
            None,
        )
    };
    let op = |uid: &str, ret: &types::Ty| {
        let params = operands.iter().map(|p| Param::value(p, bit)).collect();
        mk_subprog(uid.into(), sym, params, Some(ret), None)
    };
    s.env
        .bind("a", Den::local(var("a")))
        .bind("b", Den::local(var("b")))
        .bind(sym, Den::local(op("op@1", bit)))
        .bind(sym, Den::local(op("op@2", &s.std.boolean)))
}

/// The exact text of every overload-resolution failure: a rule that
/// resolves an operator, a call or a literal must keep these words.
#[test]
fn overload_diagnostics_keep_their_text() {
    let s = std_env();
    let env = bit_env_with_two(&s, "+", &["l", "r"]);
    assert_eq!(
        fail("a + b", &env, None),
        "1:1: error: ambiguous `+`: function +(bit, bit) return boolean; \
         function +(bit, bit) return bit\n"
    );
    let env = bit_env_with_two(&s, "-", &["x"]);
    assert_eq!(
        fail("- a", &env, None),
        "1:1: error: ambiguous unary `-`: function -(bit) return boolean; \
         function -(bit) return bit\n"
    );
    assert_eq!(
        fail("abs true", &s.env, None),
        "1:1: error: no matching unary `abs` for this operand\n"
    );

    let int = &s.std.integer;
    let f = |uid: &str, ret: &types::Ty| {
        Den::local(mk_subprog(
            uid.into(),
            "f",
            vec![Param::value("a", int)],
            Some(ret),
            None,
        ))
    };
    let env = s
        .env
        .bind("f", f("f@1", int))
        .bind("f", f("f@2", &s.std.boolean));
    assert_eq!(
        fail("f(1)", &env, None),
        "1:1: error: ambiguous call: function f(integer) return boolean; \
         function f(integer) return integer\n"
    );
    assert_eq!(
        fail("f(true)", &env, None),
        "1:1: error: no matching subprogram for these arguments\n"
    );
    assert_eq!(
        fail("'0'", &s.env, None),
        "1:1: error: `'0'` is ambiguous: literal '0' of character; literal '0' of bit\n"
    );
}

/// Each operator and call node resolves its overloads once: its `CANDS`
/// rule is the only rule that reads `ENV` (beyond copying it to the
/// operands), and the rules that type, expect and translate read `CANDS`.
/// The AG still plans in at most two visits.
#[test]
fn each_overload_is_resolved_once_per_node() {
    use ag_core::Dep;

    let xag = vhdl_sem::expr_ag::ExprAg::shared();
    let (ag, c) = (&xag.ag, xag.classes);
    let g = ag.grammar();
    let operators = [
        "x_and", "x_or", "x_xor", "x_nand", "x_nor", "r_eq", "r_ne", "r_lt", "r_le", "r_gt",
        "r_ge", "s_add", "s_sub", "s_amp", "t_mul", "t_div", "t_mod", "t_rem", "f_pow", "s_plus",
        "s_minus", "f_abs", "f_not",
    ];
    let reads = |r: &ag_core::attr::Rule<_>, class| {
        r.deps
            .iter()
            .any(|d| matches!(*d, Dep::Attr(0, k) if k == class))
    };
    for label in operators.into_iter().chain(["n_callable", "n_apply"]) {
        let p = g.prod_by_label(label).expect("production");
        let rules = ag.rules(p);
        let readers: Vec<&str> = rules
            .iter()
            .filter(|r| r.class != c.env && reads(r, c.env))
            .map(|r| ag.class_name(r.class))
            .collect();
        let want: &[&str] = if operators.contains(&label) {
            &["CANDS"]
        } else {
            &[]
        };
        assert_eq!(readers, want, "{label}: rules reading ENV");
        let mut got: Vec<&str> = rules
            .iter()
            .filter(|r| reads(r, c.cands))
            .map(|r| ag.class_name(r.class))
            .collect();
        let mut want = vec!["TYPES", "IR"];
        if operators.contains(&label) {
            want.extend(
                g.rhs(p)
                    .iter()
                    .filter(|s| !g.is_terminal(**s))
                    .map(|_| "EXPECTED"),
            );
        } else if label == "n_apply" {
            want.push("EXPECTEDS");
        }
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{label}: rules reading CANDS");
    }
    let plans = ag_core::plan(ag, &ag_core::analyze(ag).expect("noncircular")).expect("ordered");
    assert_eq!(plans.overall_max_visits(), 2);
}
