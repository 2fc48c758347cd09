//! E10 — §4.1: cascaded evaluation vs *uniting productions*.
//!
//! The paper rejected the united-production approach because it caused
//! (a) parsing conflicts that must be tracked by hand and (b) duplicated
//! semantics / combined attribute sets. This harness makes both costs
//! measurable:
//!
//! 1. builds the "united" grammar fragment of §4.1 (`name ::= ID` together
//!    with the general call/index/slice/conversion productions) and counts
//!    the LALR conflicts it produces — versus zero conflicts in each half
//!    of the cascade;
//! 2. times the price the cascade pays instead: re-parsing each maximal
//!    expression's LEF tokens (`exprEval`), per expression and relative to
//!    a whole compilation.

use std::time::Instant;

use ag_harness::bench::Runner;
use ag_lalr::{GrammarBuilder, ParseTable};
use vhdl_sem::env::EnvKind;
use vhdl_sem::expr_ag::{expr_eval, ExprTables};
use vhdl_sem::standard::standard;
use vhdl_syntax::lexer::lex;

/// The §4.1 united grammar: `name ::= ID` merged with the general
/// productions `func_ref ::= name ( args )`, `args ::= arg | args , arg` —
/// "indeed, these productions are ambiguous".
fn united_grammar() -> (usize, usize) {
    let mut g = GrammarBuilder::new();
    let id = g.terminal("ID");
    let lp = g.terminal("(");
    let rp = g.terminal(")");
    let comma = g.terminal(",");
    let to = g.terminal("to");
    let expr = g.nonterminal("expr");
    let name = g.nonterminal("name");
    let func_ref = g.nonterminal("func_ref");
    let args = g.nonterminal("args");
    let arg = g.nonterminal("arg");
    let range = g.nonterminal("range");
    // United: one production for every denotation of an identifier.
    g.prod(name, &[id.into()], "name_id");
    // The "united production" for X(Y)…
    g.prod(
        expr,
        &[name.into(), lp.into(), name.into(), rp.into()],
        "united_x_of_y",
    );
    // …together with the general-purpose productions it overlaps with.
    g.prod(expr, &[name.into()], "expr_name");
    g.prod(expr, &[func_ref.into()], "expr_call");
    g.prod(
        func_ref,
        &[name.into(), lp.into(), args.into(), rp.into()],
        "call",
    );
    g.prod(args, &[arg.into()], "args_one");
    g.prod(args, &[args.into(), comma.into(), arg.into()], "args_more");
    g.prod(arg, &[expr.into()], "arg_expr");
    g.prod(arg, &[range.into()], "arg_range");
    g.prod(range, &[expr.into(), to.into(), expr.into()], "range");
    g.start(expr);
    let g = g.build().expect("grammar");
    let (_, conflicts) = ParseTable::build_lenient(&g);
    (g.n_user_prods(), conflicts.len())
}

fn main() {
    let mut runner = Runner::new("exp_cascade_ablation").out_dir(ag_bench::out_dir());
    println!("# E10 — cascaded evaluation vs united productions (paper §4.1)");
    println!();
    let (prods, conflicts) = united_grammar();
    println!(
        "united-production fragment: {prods} productions → {conflicts} LALR conflicts \
         (the paper: \"keeping track of the parsing conflicts … was confusing and error-prone\")"
    );
    let xt = ExprTables::shared();
    println!(
        "cascade: principal grammar 0 conflicts, expression grammar 0 conflicts \
         ({} productions in the expression AG — \"of a respectable size; on the order of a \
         simple AG for Pascal\")",
        xt.grammar.n_user_prods()
    );
    println!();

    // The cascade's cost: re-parsing LEF per maximal expression.
    let s = standard(EnvKind::Tree);
    let samples = [
        "1 + 2 * 3 - 4",
        "(1 + 2) * (3 + 4) mod 7",
        "true and (1 < 2) and not (3 = 4)",
        "10 ns + 5 us",
        "2 ** 8 + abs (0 - 9)",
    ];
    let toks: Vec<_> = samples.iter().map(|s| lex(s).expect("lexes")).collect();
    let n = 200usize;
    // The standard environment, and it with 50 and 500 more visible
    // declarations (bigger scopes make LEF resolution dearer, not the
    // reparse).
    let envs = [0usize, 50, 500].map(|extra| {
        let mut env = s.env.clone();
        for i in 0..extra {
            let obj = vhdl_sem::decl::mk_obj(
                format!("filler{i}"),
                vhdl_sem::decl::ObjClass::Variable,
                &format!("filler{i}"),
                &s.std.integer,
                vhdl_sem::decl::Mode::In,
                None,
                None,
            );
            env = env.bind(format!("filler{i}"), vhdl_sem::env::Den::local(obj));
        }
        env
    });
    let batch = |env: &vhdl_sem::env::Env| {
        for _ in 0..n {
            for t in &toks {
                let a = expr_eval(t, env, Some(&s.std.integer), None);
                assert!(a.ir.is_some() || a.msgs.has_errors());
            }
        }
    };
    // The three scopes are timed sample by sample in turn, so the host's
    // load drifting during the run cannot decide which reads highest.
    let [base, env50, env500] = &envs;
    let timings = runner.measure_interleaved(&mut [
        ("expr_eval_batch", &mut || batch(base)),
        ("expr_eval_batch/env+50", &mut || batch(env50)),
        ("expr_eval_batch/env+500", &mut || batch(env500)),
    ]);
    let per_expr = |i: usize| timings[i].median_secs() / (n * samples.len()) as f64 * 1e6;
    runner.metric("expr_eval_us", per_expr(0), "us/expr");
    println!(
        "exprEval (LEF build + reparse + attribute evaluation): {:.1} µs per maximal expression",
        per_expr(0)
    );
    for (i, extra) in [(1, 50), (2, 500)] {
        println!(
            "  … with {extra} extra visible declarations: {:.1} µs per expression",
            per_expr(i)
        );
        runner.metric(format!("expr_eval_us/env+{extra}"), per_expr(i), "us/expr");
    }

    // Invocation counts on a realistic compile.
    let compiler = vhdl_driver::Compiler::in_memory();
    let src = ag_bench::gen_design(6, 3);
    let t0 = Instant::now();
    let r = compiler.compile(&src).expect("compiles");
    let total = t0.elapsed().as_secs_f64();
    assert!(r.ok(), "{}", r.msgs());
    let evals: u64 = r.units.iter().map(|u| u.expr_evals).sum();
    println!(
        "whole compile: {evals} cascade invocations across {} units in {:.1} ms total",
        r.units.len(),
        total * 1e3,
    );
    runner.metric("united_conflicts", conflicts as f64, "conflicts");
    runner.metric("compile_cascade_invocations", evals as f64, "invocations");
    runner.metric("compile_ms", total * 1e3, "ms");
    runner.finish();
    println!();
    println!(
        "the cascade trades a bounded re-parse cost for zero grammar conflicts and \
         no duplicated semantics — the paper's conclusion"
    );
}
