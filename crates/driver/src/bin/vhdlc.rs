//! `vhdlc` — the command-line compiler/simulator.
//!
//! ```text
//! vhdlc [--work DIR] [--incremental]
//!       [--elab ENTITY[:ARCH]] [--config NAME]
//!       [--run TIME] [--sim-jobs N] [--vcd FILE]
//!       [--emit-c FILE] [--stats] [--trace-phases] FILE...
//! ```
//!
//! Compiles all files into the work library as one batch, optionally
//! elaborates a top unit, optionally simulates it. The files' units are
//! dependency-staged together, so the file order does not matter.
//! `--incremental` skips units whose source and dependency VIF
//! are unchanged since the last compile into the same `--work` library.
//! `--sim-jobs N` lets the kernel run a delta cycle's woken processes
//! across at most N worker threads (`--sim-jobs 0` = one per CPU). A
//! cycle goes to the workers only when its processes' instruction counts
//! from their last activations add up to at least 8,192, the measured
//! point where a second worker repays the dispatch on a 2-vCPU host;
//! lighter cycles run inline, as at N = 1. VCD, stats, and Name-Server
//! counters are byte-identical at every count.
//! `--trace-phases` prints a per-phase
//! time/allocation table of the Fig. 1 pipeline (lex → principal AG →
//! exprEval cascade → VIF → elaboration/codegen → kernel) after the run.

use std::process::ExitCode;

use ag_harness::pool::resolve_jobs;
use sim_kernel::{io::Vcd, Time};
use vhdl_driver::Compiler;

/// Counting allocator so `--trace-phases` can attribute heap traffic to
/// pipeline phases (it forwards to the system allocator; the counters are
/// two relaxed atomics, negligible against allocation cost).
#[global_allocator]
static ALLOC: ag_harness::alloc::CountingAlloc = ag_harness::alloc::CountingAlloc;

struct Args {
    work: Option<String>,
    incremental: bool,
    elab: Option<(String, Option<String>)>,
    config: Option<String>,
    run_until: Option<Time>,
    sim_jobs: usize,
    vcd: Option<String>,
    emit_c: Option<String>,
    stats: bool,
    trace_phases: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        work: None,
        incremental: false,
        elab: None,
        config: None,
        run_until: None,
        sim_jobs: 1,
        vcd: None,
        emit_c: None,
        stats: false,
        trace_phases: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--work" => out.work = Some(grab("--work")?),
            "--incremental" => out.incremental = true,
            "--elab" => {
                let v = grab("--elab")?;
                let (e, a) = match v.split_once(':') {
                    Some((e, a)) => (e.to_string(), Some(a.to_string())),
                    None => (v, None),
                };
                out.elab = Some((e, a));
            }
            "--config" => out.config = Some(grab("--config")?),
            "--run" => {
                // VHDL-style time literal (`100ns`, `2.5us`, `1sec`); a
                // bare number keeps the historical nanosecond meaning.
                out.run_until =
                    Some(Time::parse(&grab("--run")?).map_err(|e| format!("--run: {e}"))?)
            }
            // A worker count: 0 = one per CPU. Output is byte-identical
            // at any count; this only changes who does the work.
            "--sim-jobs" => {
                out.sim_jobs = grab("--sim-jobs")?
                    .parse()
                    .map(resolve_jobs)
                    .map_err(|_| "--sim-jobs needs a worker count".to_string())?
            }
            "--vcd" => out.vcd = Some(grab("--vcd")?),
            "--emit-c" => out.emit_c = Some(grab("--emit-c")?),
            "--stats" => out.stats = true,
            "--trace-phases" => out.trace_phases = true,
            "--help" | "-h" => {
                println!(
                    "usage: vhdlc [--work DIR] [--incremental] \
                     [--elab ENTITY[:ARCH]] [--config NAME] [--run TIME] \
                     [--sim-jobs N] [--vcd FILE] \
                     [--emit-c FILE] [--stats] [--trace-phases] FILE...\n\
                     --sim-jobs 0 uses one worker per CPU.\n\
                     --sim-jobs N is a ceiling: a delta cycle runs on the \
                     kernel workers only when its woken processes last ran \
                     at least 8192 instructions between them."
                );
                std::process::exit(0);
            }
            f if !f.starts_with('-') => out.files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    // Analyze on the stack `vhdld`'s sessions get, so a deep unit has the
    // same outcome in both tools.
    ag_harness::pool::run_on_stack("vhdlc", run)
}

fn run() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vhdlc: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace_phases {
        ag_harness::trace::set_enabled(true);
    }
    let compiler = match &args.work {
        Some(dir) => match Compiler::on_disk(std::path::Path::new(dir)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("vhdlc: cannot open work library: {e}");
                return ExitCode::from(2);
            }
        },
        None => Compiler::in_memory(),
    };

    // One batch: all files staged together, order-independent.
    let mut files = Vec::new();
    for f in &args.files {
        match std::fs::read_to_string(f) {
            Ok(s) => files.push((f.clone(), s)),
            Err(e) => {
                eprintln!("vhdlc: {f}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let opts = vhdl_driver::batch::BatchOptions {
        incremental: args.incremental,
        ..Default::default()
    };
    let r = compiler.compile_batch(&files, opts);
    let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    eprint!("{}", r.rendered_msgs(&names));
    if args.stats {
        eprintln!(
            "batch: {} units in {} waves, {} lines ({:.0} lines/min), wall {:?}, \
             cache hit {} miss {} cold {}, files parsed {} reused {}, vif read {} B written {} B",
            r.units.len(),
            r.waves,
            r.lines,
            r.lines_per_minute(),
            r.wall,
            r.cache.hits,
            r.cache.misses,
            r.cache.cold,
            r.cache.parsed,
            r.cache.reused,
            r.traffic.bytes_read,
            r.traffic.bytes_written
        );
    }
    if !r.ok() {
        return ExitCode::from(1);
    }
    let mut phases = r.phases;

    let program = if let Some(cfg) = &args.config {
        match compiler.elaborate_config(cfg, Some(&mut phases)) {
            Ok((p, c)) => Some((p, c)),
            Err(e) => {
                eprintln!("vhdlc: {e}");
                return ExitCode::from(1);
            }
        }
    } else if let Some((entity, arch)) = &args.elab {
        match compiler.elaborate(entity, arch.as_deref(), Some(&mut phases)) {
            Ok((p, c)) => Some((p, c)),
            Err(e) => {
                eprintln!("vhdlc: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };

    if args.stats {
        eprintln!(
            "phases: parse {:?} | attr-eval {:?} | vif-read {:?} | vif-write {:?} | codegen {:?} | backend {:?}",
            phases.parse, phases.attr_eval, phases.vif_read, phases.vif_write, phases.codegen,
            phases.backend
        );
        eprintln!("vifb: {} text parses", vhdl_vif::vifb_stats().text_parses);
    }
    if args.trace_phases {
        ag_harness::trace::counter("vifb-text-parse", vhdl_vif::vifb_stats().text_parses);
    }

    if let Some((program, c_text)) = program {
        if let Some(path) = &args.emit_c {
            if let Err(e) = std::fs::write(path, &c_text) {
                eprintln!("vhdlc: {path}: {e}");
                return ExitCode::from(2);
            }
        }
        if let Some(deadline) = args.run_until {
            let vcd = std::cell::RefCell::new(Vcd::new("1fs"));
            let mut sim = sim_kernel::Simulator::new(program);
            sim.set_jobs(args.sim_jobs);
            if args.vcd.is_some() {
                let vcd_ref = &vcd;
                sim.observe(Box::new(move |t, sig, name, v| {
                    vcd_ref.borrow_mut().change(t, sig, name, v);
                }));
            }
            match sim.run_until(deadline) {
                Ok(()) => {
                    for r in sim.reports() {
                        let sev = ["note", "warning", "error", "failure"]
                            [r.severity.clamp(0, 3) as usize];
                        println!("{} {sev}: {}", r.time, r.text);
                    }
                    if args.stats {
                        let st = sim.stats();
                        eprintln!(
                            "sim: {} cycles ({} delta), {} events, {} transactions",
                            st.cycles, st.delta_cycles, st.events, st.transactions
                        );
                        eprintln!(
                            "sched: {} calendar ops, {} procs woken, {} signals scanned",
                            st.calendar_ops, st.woken_procs, st.scanned_signals
                        );
                    }
                }
                Err(e) => {
                    eprintln!("vhdlc: simulation: {e}");
                    return ExitCode::from(1);
                }
            }
            if args.trace_phases {
                let st = sim.stats();
                ag_harness::trace::counter("sched-calendar-ops", st.calendar_ops);
                ag_harness::trace::counter("sched-woken-procs", st.woken_procs);
                ag_harness::trace::counter("sched-scanned-signals", st.scanned_signals);
            }
            if let Some(path) = &args.vcd {
                let text = vcd.borrow().finish();
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("vhdlc: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    if args.trace_phases {
        let interner = ag_intern::stats();
        ag_harness::trace::counter("interner-symbols", interner.symbols);
        ag_harness::trace::counter("interner-bytes", interner.bytes);
        eprint!("{}", ag_harness::trace::report().render());
    }
    ExitCode::SUCCESS
}
