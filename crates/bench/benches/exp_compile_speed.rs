//! E4 — §2.2 compile-speed and phase-breakdown claims:
//!
//! - "compiles VHDL at a little more than 1000 lines per minute" (Apollo
//!   DN4000; absolute numbers differ on modern hardware — the shape checks
//!   are the breakdown claims);
//! - host C compile: 20–30% of total (our backend = C emission +
//!   elaboration/lowering);
//! - VIF read/fix-up/write: 40–60%;
//! - "more than 80 percent of the time" on non-attribute-evaluation tasks;
//! - "the time spent walking the parse tree and evaluating attributes is a
//!   very small percent" — note: in this reproduction the cascade's
//!   expression evaluation is *inside* attr-eval, so our attr share is the
//!   honest upper bound.

use ag_harness::bench::Runner;
use vhdl_driver::{Compiler, PhaseTimes};

fn main() {
    let mut runner = Runner::new("exp_compile_speed").out_dir(ag_bench::out_dir());
    println!("# E4 — compile speed and phase breakdown (paper §2.2)");
    println!();
    println!("| units | lines | lines/min | parse% | attr% | vif-read% | vif-write% | codegen% | backend% |");
    println!("|------:|------:|----------:|-------:|------:|----------:|-----------:|---------:|---------:|");
    for units in [2usize, 8, 24] {
        let compiler = Compiler::in_memory();
        // The paper's compiler re-read foreign VIF on every reference;
        // disable the unit cache to reproduce that cost model.
        compiler.libs.work().set_cache_enabled(false);
        let src = ag_bench::gen_design(units, 3);
        let r = compiler.compile(&src).expect("compiles");
        assert!(r.ok(), "{}", r.msgs());
        let mut phases: PhaseTimes = r.phases;
        // Elaborate + emit C for every entity (the backend half).
        for u in 0..units {
            compiler
                .elaborate(&format!("ent{u}"), None, Some(&mut phases))
                .expect("elaborates");
        }
        let total = phases.total().as_secs_f64();
        let lines_per_min = r.lines as f64 / total * 60.0;
        println!(
            "| {units:>5} | {:>5} | {:>9.0} | {:>5.1}% | {:>4.1}% | {:>8.1}% | {:>9.1}% | {:>7.1}% | {:>7.1}% |",
            r.lines,
            lines_per_min,
            phases.pct(phases.parse),
            phases.pct(phases.attr_eval),
            phases.pct(phases.vif_read),
            phases.pct(phases.vif_write),
            phases.pct(phases.codegen),
            phases.pct(phases.backend),
        );
        runner.metric(format!("lines_per_min/{units}"), lines_per_min, "lines/min");
        runner.metric(format!("parse_pct/{units}"), phases.pct(phases.parse), "%");
        runner.metric(
            format!("attr_eval_pct/{units}"),
            phases.pct(phases.attr_eval),
            "%",
        );
        runner.metric(
            format!("vif_pct/{units}"),
            phases.pct(phases.vif_read) + phases.pct(phases.vif_write),
            "%",
        );
        runner.metric(
            format!("backend_pct/{units}"),
            phases.pct(phases.codegen) + phases.pct(phases.backend),
            "%",
        );
    }
    runner.finish();
    println!();
    println!("paper targets: ~1000 lines/min total; C compile 20-30%; VIF 40-60%; attr eval small");
    println!(
        "note: VIF share grows with the number of imported packages per unit; \
         the absolute attr-eval share is high because this reproduction interprets \
         the AG instead of running Linguist-style generated C (see EXPERIMENTS.md)"
    );
}
