//! E3 + E6: the §4.1 statistics table for both real AGs (the paper's
//! "VHDL AG" vs "expr AG" comparison), including the §4.2 claim that
//! implicit rules are more than half of all rules, the LALR table sizes
//! of both grammars, and the rule instances each AG runs analyzing the
//! `vif_digest.rs` corpus (`ag_bench::rule_instances`, the helper the
//! `rule_budget.rs` test pins).

use ag_core::{analyze, plan, AgStats};
use ag_harness::bench::Runner;
use vhdl_sem::expr_ag::{ExprAg, ExprTables};
use vhdl_sem::principal_ag::PrincipalAg;
use vhdl_syntax::PrincipalGrammar;

fn main() {
    let mut runner = Runner::new("exp_ag_stats").out_dir(ag_bench::out_dir());
    let pg = PrincipalGrammar::new();
    let pag = PrincipalAg::build(&pg);
    let xt = ExprTables::new();
    let xag = ExprAg::build(&xt);

    let visits =
        |ag: &ag_core::AttrGrammar<vhdl_sem::value::Value>| -> (String, Option<ag_core::Plans>) {
            match analyze(ag) {
                Ok(an) => match plan(ag, &an) {
                    Ok(p) => (p.overall_max_visits().to_string(), Some(p)),
                    Err(e) => (format!("n/a ({e})"), None),
                },
                Err(e) => (format!("n/a ({e})"), None),
            }
        };

    let (pv, pplan) = visits(&pag.ag);
    let (xv, xplan) = visits(&xag.ag);

    let pstats = |ag: &ag_core::AttrGrammar<vhdl_sem::value::Value>,
                  plans: &Option<ag_core::Plans>| match plans {
        Some(p) => {
            let an = analyze(ag).expect("checked");
            AgStats::gather(ag, &an, p)
        }
        None => AgStats {
            productions: ag.grammar().n_user_prods(),
            symbols: ag.grammar().n_symbols() - 2,
            attributes: ag.n_attributes(),
            rules: ag.n_rules(),
            implicit_rules: ag.n_implicit_rules(),
            max_visits: 0,
        },
    };
    let ps = pstats(&pag.ag, &pplan);
    let xs = pstats(&xag.ag, &xplan);

    println!("# E3 — AG statistics (paper §4.1 table)");
    println!();
    println!("|                 | VHDL AG | expr AG |   (paper: 503/160 …)");
    println!("|-----------------|---------|---------|");
    println!(
        "| productions     | {:>7} | {:>7} |   paper: 503 / 160",
        ps.productions, xs.productions
    );
    println!(
        "| symbols         | {:>7} | {:>7} |   paper: 355 / 101",
        ps.symbols, xs.symbols
    );
    println!(
        "| attributes      | {:>7} | {:>7} |   paper: 3509 / 446",
        ps.attributes, xs.attributes
    );
    println!(
        "| rules(implicit) | {:>4}({:>4}) | {:>4}({:>4}) |   paper: 8862(6349) / 2132(1061)",
        ps.rules, ps.implicit_rules, xs.rules, xs.implicit_rules
    );
    println!("| max visits      | {:>7} | {:>7} |   paper: 3 / 4", pv, xv);
    println!();
    println!("# E6 — implicit-rule share (paper §4.2: \"more than half\")");
    println!(
        "principal AG: {:.1}% implicit; expression AG: {:.1}% implicit",
        ps.implicit_fraction() * 100.0,
        xs.implicit_fraction() * 100.0
    );
    assert!(
        ps.implicit_fraction() > 0.5,
        "principal AG majority implicit"
    );
    let run = ag_bench::rule_instances(&ag_bench::digest_designs());
    println!();
    println!("# Rule instances analyzing the vif_digest.rs corpus");
    println!(
        "principal AG: {}; expression AG: {}; total {}",
        run.principal,
        run.expr,
        run.total()
    );
    println!();
    println!("# LALR table sizes");
    println!(
        "principal grammar: {} states, {} non-error actions",
        pg.table().n_states(),
        pg.table().n_nonerror_actions()
    );
    println!(
        "expression grammar: {} states, {} non-error actions",
        xt.table.n_states(),
        xt.table.n_nonerror_actions()
    );

    for (tag, st, frac, instances) in [
        ("vhdl_ag", &ps, ps.implicit_fraction(), run.principal),
        ("expr_ag", &xs, xs.implicit_fraction(), run.expr),
    ] {
        runner.metric(format!("{tag}/productions"), st.productions as f64, "");
        runner.metric(format!("{tag}/symbols"), st.symbols as f64, "");
        runner.metric(format!("{tag}/attributes"), st.attributes as f64, "");
        runner.metric(format!("{tag}/rules"), st.rules as f64, "");
        runner.metric(
            format!("{tag}/implicit_rules"),
            st.implicit_rules as f64,
            "",
        );
        runner.metric(format!("{tag}/implicit_fraction"), frac, "");
        runner.metric(format!("{tag}/max_visits"), st.max_visits as f64, "visits");
        runner.metric(format!("{tag}/rule_instances"), instances as f64, "");
    }
    runner.metric(
        "principal_lalr_states",
        pg.table().n_states() as f64,
        "states",
    );
    runner.metric("expr_lalr_states", xt.table.n_states() as f64, "states");
    runner.finish();
}
