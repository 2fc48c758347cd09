//! E8 — §5.2: "if AG1 is twice as large as AG2 then AG1 will need more
//! than twice as much time to be processed" — the evaluator generator
//! contains "expensive, non-linear algorithms" (LALR table construction
//! and dependency analysis).
//!
//! Times the full generation pipeline (LALR tables + dependency analysis +
//! visit sequences) over synthetic AGs of doubling size, and each step of
//! it for the two real AGs: their LALR tables and their AG analyses, apart.

use std::time::Instant;

use ag_harness::bench::Runner;

fn gen_time(n: usize) -> std::time::Duration {
    let t0 = Instant::now();
    let (g, ag) = ag_bench::synth_ag(n);
    let _table = ag_lalr::ParseTable::build(&g).expect("LALR");
    let an = ag_core::analyze(&ag).expect("acyclic");
    let _plans = ag_core::plan(&ag, &an).expect("ordered");
    t0.elapsed()
}

/// The fastest of five runs of `f`, in milliseconds; dropping what `f`
/// built is not timed.
fn best_of_5<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let built = f();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(built);
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut runner = Runner::new("exp_generator_scaling").out_dir(ag_bench::out_dir());
    println!("# E8 — AG processing time vs AG size (paper §5.2)");
    println!();
    println!("| nonterminals | productions | time (ms) | time ratio vs half size |");
    println!("|-------------:|------------:|----------:|------------------------:|");
    let sizes = [25usize, 50, 100, 200, 400];
    let mut prev: Option<f64> = None;
    for n in sizes {
        // Median of 3 runs.
        let mut ts: Vec<f64> = (0..3).map(|_| gen_time(n).as_secs_f64() * 1e3).collect();
        ts.sort_by(f64::total_cmp);
        let t = ts[1];
        let ratio = prev.map(|p| t / p);
        println!(
            "| {n:>12} | {:>11} | {t:>9.2} | {} |",
            2 * n - 1,
            match ratio {
                Some(r) => format!("{r:>22.2}x"),
                None => "                       —".to_string(),
            }
        );
        runner.metric(format!("gen_ms/{n}"), t, "ms");
        if let Some(r) = ratio {
            runner.metric(format!("ratio_vs_half/{n}"), r, "x");
        }
        prev = Some(t);
    }
    println!();
    println!("(doubling the AG should cost *more* than 2x — the paper's superlinearity claim)");
    println!();
    // The real grammars, for scale. Each step is built from scratch inside
    // its timed window, never taken from the compiler's process-wide copy,
    // and reported as the best of five builds: a single cold sample moves
    // with the host.
    let pg = vhdl_syntax::PrincipalGrammar::new();
    let xt = vhdl_sem::expr_ag::ExprTables::new();
    let t_pg = best_of_5(vhdl_syntax::PrincipalGrammar::new);
    let t_pag = best_of_5(|| {
        let pag = vhdl_sem::principal_ag::PrincipalAg::build(&pg);
        let an = ag_core::analyze(&pag.ag).expect("acyclic");
        let plans = ag_core::plan(&pag.ag, &an).expect("ordered");
        (pag, an, plans)
    });
    let t_xt = best_of_5(vhdl_sem::expr_ag::ExprTables::new);
    let t_xag = best_of_5(|| {
        let xag = vhdl_sem::expr_ag::ExprAg::build(&xt);
        let an = ag_core::analyze(&xag.ag).expect("acyclic");
        let plans = ag_core::plan(&xag.ag, &an).expect("ordered");
        (xag, an, plans)
    });
    println!(
        "real grammars (best of 5): principal tables {t_pg:.2} ms; principal AG analysis \
         {t_pag:.2} ms; expression tables {t_xt:.2} ms; expression AG build+analysis {t_xag:.2} ms"
    );
    runner.metric("principal_tables_ms", t_pg, "ms");
    runner.metric("principal_ag_analysis_ms", t_pag, "ms");
    runner.metric("expr_tables_ms", t_xt, "ms");
    runner.metric("expr_ag_analysis_ms", t_xag, "ms");
    runner.finish();
}
