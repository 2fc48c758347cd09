//! E2 — Figure 2: compiler size summary.
//!
//! Maps the paper's component rows onto this repository:
//!
//! - **AG** — the two attribute-grammar specifications (grammar +
//!   attribution + semantic rules);
//! - **VIF description** — the intermediate-format crate;
//! - **out-of-line func** — semantic out-of-line functions, analysis
//!   support, and code generation (the paper counts code generation inside
//!   its 46k);
//! - **interface code** — the driver and CLI;
//! - **[generated] C** — the evaluators emitted by the toolchain for both
//!   AGs (Linguist's generated C) plus the C rendition of a sample design.
//!
//! Per the paper, the simulation kernel and runtime support are *not*
//! counted, and the translator-writing system (our `ag-lalr`/`ag-core`,
//! their Linguist) is a separate product reported below the line.

use ag_bench::{loc_of, stripped_loc};
use ag_core::emit_evaluator;
use ag_harness::bench::Runner;
use vhdl_sem::expr_ag::{ExprAg, ExprTables};
use vhdl_sem::principal_ag::PrincipalAg;
use vhdl_syntax::PrincipalGrammar;

fn main() {
    let ag_spec = loc_of(&[
        "crates/syntax/src/principal.rs",
        "crates/sem/src/principal_ag.rs",
        "crates/sem/src/principal_rules.rs",
        "crates/sem/src/principal_rules2.rs",
        "crates/sem/src/expr_ag.rs",
        "crates/sem/src/expr_rules.rs",
    ]);
    let vif_desc = loc_of(&["crates/vif/src"]);
    let oof = loc_of(&[
        "crates/sem/src/oof.rs",
        "crates/sem/src/overload.rs",
        "crates/sem/src/lef.rs",
        "crates/sem/src/standard.rs",
        "crates/sem/src/types.rs",
        "crates/sem/src/decl.rs",
        "crates/sem/src/ir.rs",
        "crates/sem/src/msg.rs",
        "crates/sem/src/value.rs",
        "crates/sem/src/env.rs",
        "crates/sem/src/analyze.rs",
        "crates/syntax/src/lexer.rs",
        "crates/syntax/src/token.rs",
        "crates/codegen/src",
    ]);
    let interface = loc_of(&["crates/driver/src"]);
    let total = ag_spec + vif_desc + oof + interface;

    // Generated code: the emitted evaluators for both AGs + a sample C
    // rendition.
    let pg = PrincipalGrammar::new();
    let pag = PrincipalAg::build(&pg);
    let xt = ExprTables::new();
    let xag = ExprAg::build(&xt);
    let pplans =
        ag_core::plan(&pag.ag, &ag_core::analyze(&pag.ag).expect("acyclic")).expect("ordered");
    let xplans =
        ag_core::plan(&xag.ag, &ag_core::analyze(&xag.ag).expect("acyclic")).expect("ordered");
    let gen_principal = emit_evaluator("vhdl_principal", &pag.ag, pg.table(), &pplans);
    let gen_expr = emit_evaluator("vhdl_expr", &xag.ag, &xt.table, &xplans);

    let compiler = vhdl_driver::Compiler::in_memory();
    let src = ag_bench::gen_design(4, 3);
    let r = compiler.compile(&src).expect("compiles");
    assert!(r.ok(), "{}", r.msgs());
    let (_, c_text) = compiler.elaborate("ent0", None, None).expect("elaborates");

    let g_ag = stripped_loc(&gen_principal) + stripped_loc(&gen_expr);
    let g_c = stripped_loc(&c_text);
    let g_total = g_ag + vif_desc + oof + interface + g_c;

    println!("# E2 — Figure 2: summary of the VHDL compiler (this reproduction)");
    println!();
    println!("|                  | source |       | [generated]  |      |");
    println!("|------------------|--------|-------|--------------|------|");
    let row = |name: &str, src: usize, gen: usize| {
        println!(
            "| {name:<16} | {src:>6} | ({:>2}%) | {gen:>6}       | ({:>2}%) |",
            src * 100 / total.max(1),
            gen * 100 / g_total.max(1)
        );
    };
    row("AG", ag_spec, g_ag);
    row("VIF description", vif_desc, vif_desc);
    row("out-of-line func", oof, oof);
    row("interface code", interface, interface);
    println!(
        "| {:<16} | {total:>6} | (100%) | {g_total:>6}       | (100%) |",
        "total"
    );
    println!();
    println!(
        "paper: AG 16827 (37%) → 67919 (62%); VIF 1265 (3%); out-of-line 20845 (45%); \
         interface 7132 (15%); total 46069 → 110096"
    );
    println!();
    println!(
        "generated share of the full compiler: {:.0}% (paper: >60% \"automatically \
         generated from this attribute grammar\")",
        (g_ag + g_c) as f64 / g_total as f64 * 100.0
    );
    println!();
    println!("not counted, as in the paper:");
    println!(
        "  simulation kernel + runtime support: {} LoC",
        loc_of(&["crates/kernel/src"])
    );
    println!(
        "  translator-writing system (Linguist analogue): {} LoC",
        loc_of(&["crates/lalr/src", "crates/core/src"])
    );
    println!(
        "sample generated C for a 4-entity design: {} lines",
        c_text.lines().count()
    );

    let mut runner = Runner::new("exp_fig2_sizes").out_dir(ag_bench::out_dir());
    runner.metric("ag_spec_loc", ag_spec as f64, "loc");
    runner.metric("vif_desc_loc", vif_desc as f64, "loc");
    runner.metric("out_of_line_loc", oof as f64, "loc");
    runner.metric("interface_loc", interface as f64, "loc");
    runner.metric("total_loc", total as f64, "loc");
    runner.metric("generated_ag_loc", g_ag as f64, "loc");
    runner.metric("generated_total_loc", g_total as f64, "loc");
    runner.metric(
        "generated_share",
        (g_ag + g_c) as f64 / g_total as f64,
        "fraction",
    );
    runner.finish();
}
