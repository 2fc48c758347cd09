//! E1 — Figure 1: organization of the VHDL compiler.
//!
//! Drives the real pipeline over a sample design and prints the component
//! dataflow with the size of each intermediate artifact, demonstrating
//! that every box of the paper's figure exists and is exercised:
//! scanner → LALR parser → principal AG evaluator (+ symbol table as VIF,
//! exprEval cascade) → VIF to/from the library → code generation → target
//! virtual machine.
//!
//! Artifact sizes are also recorded to `results/exp_fig1_pipeline.json`.

use ag_harness::bench::Runner;
use vhdl_driver::Compiler;
use vhdl_syntax::lexer::lex;

fn main() {
    let mut r = Runner::new("exp_fig1_pipeline").out_dir(ag_bench::out_dir());
    let src = ag_bench::gen_design(3, 2);
    let compiler = Compiler::in_memory();

    let toks = lex(&src).expect("lexes");
    // The tree the principal AG decorates: transparent productions get no
    // node.
    let cst = compiler
        .analyzer
        .grammar
        .parse_eliding(&src, compiler.analyzer.pag.ag.transparent())
        .expect("parses");
    let result = compiler.compile(&src).expect("compiles");
    assert!(result.ok(), "{}", result.msgs());
    let traffic = result.traffic;
    let (program, c_text) = compiler.elaborate("ent0", None, None).expect("elaborates");
    let insns: usize = program
        .processes
        .iter()
        .map(|p| p.code.len())
        .sum::<usize>()
        + program
            .functions
            .iter()
            .map(|f| f.code.len())
            .sum::<usize>();
    let expr_evals: u64 = result.units.iter().map(|u| u.expr_evals).sum();

    println!("# E1 — Figure 1: organization of the VHDL compiler");
    println!();
    println!(
        "VHDL source ({} lines, {} tokens)",
        result.lines,
        toks.len()
    );
    println!("  |  scanner + LALR(1) parser (principal grammar)");
    println!("  v");
    println!("parse tree ({} nodes)", cst.len());
    println!("  |  principal AG evaluator (demand-driven)");
    println!("  |    - symbol table = applicative ENV in the VIF");
    println!(
        "  |    - exprEval cascade: {} maximal expressions re-parsed by the expression AG",
        expr_evals
    );
    println!("  v");
    println!(
        "VIF ({} units written, {} bytes; {} units read back, {} bytes)",
        traffic.units_written, traffic.bytes_written, traffic.units_read, traffic.bytes_read
    );
    println!("  |  elaboration + code generation");
    println!("  v");
    println!(
        "target virtual machine program ({} signals, {} processes, {} functions, {} instructions)",
        program.signals.len(),
        program.processes.len(),
        program.functions.len(),
        insns
    );
    println!("  |  C rendition (the paper's actual output format)");
    println!("  v");
    println!("generated C: {} lines", c_text.lines().count());
    println!();
    println!(
        "virtual machine modules (§2.1): Simulation Kernel, Runtime Support, VHDL I/O, Name Server"
    );
    let mut sim = sim_kernel::Simulator::new(program.clone());
    sim.run_until(sim_kernel::Time::fs(50_000_000))
        .expect("simulates");
    let st = sim.stats();
    println!(
        "smoke simulation to 50ns: {} cycles, {} events, {} instructions executed",
        st.cycles, st.events, st.insns
    );

    r.metric("source_lines", result.lines as f64, "lines");
    r.metric("tokens", toks.len() as f64, "tokens");
    r.metric("parse_tree_nodes", cst.len() as f64, "nodes");
    r.metric("expr_evals", expr_evals as f64, "invocations");
    r.metric("vif_bytes_written", traffic.bytes_written as f64, "bytes");
    r.metric("vif_bytes_read", traffic.bytes_read as f64, "bytes");
    r.metric("vm_signals", program.signals.len() as f64, "signals");
    r.metric("vm_processes", program.processes.len() as f64, "processes");
    r.metric("vm_instructions", insns as f64, "insns");
    r.metric("c_lines", c_text.lines().count() as f64, "lines");
    r.metric("sim_cycles", st.cycles as f64, "cycles");
    r.metric("sim_events", st.events as f64, "events");
    r.finish();
}
