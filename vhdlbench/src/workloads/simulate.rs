//! `simulate`: the kernel, the block compiler and the kernel pool do
//! almost all the work. Two seeded RTL pipelines are event-driven clocked
//! logic; two heavy conformance designs are delta storms with recursive
//! calls that force interpreter fallback. They are compiled in set-up,
//! and every pass runs the suite in three cells — interpreter, compiled,
//! compiled on two workers — with a VCD observer attached. One op is the
//! whole suite in one cell.
//!
//! Before set-up, a fixed number of heavy candidates run a fixed
//! instruction budget; the two that take closest to a target number of
//! cycles are chosen, so a seed changes what they compute but hardly how
//! much work they are.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use sim_kernel::io::Vcd;
use sim_kernel::{Backend, Program, RunOutcome, SimStats, Simulator, Time, Val};
use vhdl_sem::analyze::Analyzer;
use vhdl_sem::env::EnvKind;

use super::{op_ms, setup_failed};
use crate::front::{self, Top};
use crate::gen::{self, Pipeline};
use crate::harness::{self, per_pass, ratio, self_s, span_s, Ctx, Outcome, Sink};
use crate::model;
use crate::trace::{self, span};

const RTL_STAGES: [usize; 2] = [48, 96];
/// Clock edges per RTL run. Short enough that a run has the hundred
/// passes a 90th percentile with ten samples beyond it needs.
const EDGES: u64 = 120;
const HEAVY: usize = 2;
/// Passes per second of `--seconds` (a pass takes 70 to 90 ms).
const PASSES_PER_S: f64 = 11.0;
/// Heavy candidates drawn, compiled and probed. A fixed number, so the
/// memory the choice leaves behind does not depend on the seed.
const HEAVY_CANDIDATES: u64 = 12;
/// Instructions a heavy design executes on the interpreter; the cycles
/// that takes then bound every cell's run of it.
const HEAVY_INSNS: u64 = 120_000;
/// The chosen candidates are those whose budget takes closest to this
/// many cycles...
const HEAVY_CYCLES: u64 = 90;
/// ...and no more than this many.
const HEAVY_MAX_CYCLES: u64 = 400;

/// Cycle budgets, not deadlines, bound heavy runs: delta storms never
/// advance time.
const FAR_FUTURE: Time = Time {
    fs: u64::MAX / 4,
    delta: 0,
};

/// One execution configuration of the kernel, with the names of its op
/// and of the spans inside it.
struct Cell {
    /// The cell's name in `kernel.<cell>.<what>` metrics.
    name: &'static str,
    op: &'static str,
    /// Span names: simulator construction, block compilation, the run
    /// (minus observer time), the VCD observer.
    spans: [&'static str; 4],
    /// The bounded timing: the fastest pass's suite in this cell.
    part: &'static str,
    backend: Backend,
    jobs: usize,
}

const CELLS: [Cell; 3] = [
    Cell {
        name: "interp",
        op: "sim.interp",
        spans: [
            "kernel.interp.new",
            "kernel.interp.block_compile",
            "kernel.interp.run",
            "kernel.interp.vcd",
        ],
        part: "sim_interp_min_ms",
        backend: Backend::Interp,
        jobs: 1,
    },
    Cell {
        name: "compiled",
        op: "sim.compiled",
        spans: [
            "kernel.compiled.new",
            "kernel.compiled.block_compile",
            "kernel.compiled.run",
            "kernel.compiled.vcd",
        ],
        part: "sim_compiled_min_ms",
        backend: Backend::Compiled,
        jobs: 1,
    },
    Cell {
        name: "jobs2",
        op: "sim.jobs2",
        spans: [
            "kernel.jobs2.new",
            "kernel.jobs2.block_compile",
            "kernel.jobs2.run",
            "kernel.jobs2.vcd",
        ],
        part: "sim_jobs2_min_ms",
        backend: Backend::Compiled,
        jobs: 2,
    },
];

#[derive(Clone, Copy)]
enum Bound {
    Until(Time),
    Cycles(u64),
}

/// A design chosen before set-up: its source and how far to run it.
struct Input {
    name: String,
    src: String,
    top: String,
    bound: Bound,
    /// RTL pipelines: stage signal names with the model's final values,
    /// and the model's event count.
    expect: Option<(Vec<(String, i64)>, u64)>,
}

/// What one design run produced.
struct Run {
    /// Hash and length of the VCD text.
    vcd: (u64, usize),
    stats: SimStats,
    values: Vec<Option<Val>>,
}

/// Draws the suite: the RTL pipelines with their model results, and the
/// two heavy candidates whose instruction budget takes closest to
/// `HEAVY_CYCLES` cycles.
fn choose(seed: u64) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for (i, stages) in RTL_STAGES.into_iter().enumerate() {
        let p = Pipeline::generate(gen::mix(seed, 0x5254_4C00 + i as u64), stages);
        let m = model::run(&p, p.k, EDGES);
        let names = (0..=stages).map(|s| format!("tb.s{s}"));
        inputs.push(Input {
            name: format!("rtl{stages}"),
            src: p.source(),
            top: "tb".to_string(),
            bound: Bound::Until(Time::fs(Pipeline::deadline_fs(EDGES))),
            expect: Some((names.zip(m.values).collect(), m.events)),
        });
    }
    let analyzer = Analyzer::new(EnvKind::Tree);
    let mut fits = Vec::new();
    for n in 0..HEAVY_CANDIDATES {
        let d = gen::heavy_design(gen::mix(seed, 0x4845_4156 + n));
        let Ok(b) = front::build(&analyzer, &d.source, &Top::Entity(d.top.clone())) else {
            continue;
        };
        if let Some(cycles) = probe(&b.program) {
            fits.push((cycles.abs_diff(HEAVY_CYCLES), n, cycles, d));
        }
    }
    if fits.len() < HEAVY {
        return Err(format!(
            "{} of {HEAVY_CANDIDATES} heavy designs run the budget",
            fits.len()
        ));
    }
    fits.sort_by_key(|(distance, n, ..)| (*distance, *n));
    for (_, n, cycles, d) in fits.into_iter().take(HEAVY) {
        inputs.push(Input {
            name: format!("heavy{n}"),
            src: d.source,
            top: d.top,
            bound: Bound::Cycles(cycles),
            expect: None,
        });
    }
    Ok(inputs)
}

/// Runs `program` on the interpreter, a cycle at a time, until it has
/// executed the heavy instruction budget; returns the cycles that took,
/// unless the run failed, went quiet or needed too many cycles.
fn probe(program: &Program) -> Option<u64> {
    let mut sim = Simulator::new(program.clone());
    while sim.stats().cycles < HEAVY_MAX_CYCLES {
        match sim.run_slice(FAR_FUTURE, 1, &mut || false) {
            Ok(RunOutcome::CycleBudget) => {}
            _ => return None,
        }
        let st = sim.stats();
        if st.insns >= HEAVY_INSNS {
            return Some(st.cycles);
        }
    }
    None
}

/// Set-up: a fresh analyzer compiles and elaborates every design.
fn setup(inputs: &[Input]) -> Result<Vec<Program>, String> {
    let analyzer = Analyzer::new(EnvKind::Tree);
    inputs
        .iter()
        .map(|i| Ok(front::build(&analyzer, &i.src, &Top::Entity(i.top.clone()))?.program))
        .collect()
}

fn run_case(input: &Input, program: &Program, cell: &Cell) -> Result<Run, String> {
    let [new_span, compile_span, run_span, vcd_span] = cell.spans;
    let traced = trace::enabled();
    let vcd = RefCell::new(Vcd::new("1fs"));
    // Observer time is summed here and carved out of the run span once,
    // which keeps the per-change cost of tracing to two clock reads.
    let vcd_ns = StdCell::new(0u64);
    let mut sim = {
        let _s = span(new_span);
        Simulator::new(program.clone())
    };
    {
        let _s = span(compile_span);
        sim.set_backend(cell.backend);
    }
    sim.set_jobs(cell.jobs);
    sim.observe(Box::new(|t, sig, name, v| {
        if traced {
            let t0 = Instant::now();
            vcd.borrow_mut().change(t, sig, name, v);
            vcd_ns.set(vcd_ns.get() + t0.elapsed().as_nanos() as u64);
        } else {
            vcd.borrow_mut().change(t, sig, name, v);
        }
    }));
    let outcome = {
        let _s = span(run_span);
        let r = match input.bound {
            Bound::Until(t) => sim.run_until(t),
            Bound::Cycles(c) => sim.run_slice(FAR_FUTURE, c, &mut || false).map(|_| ()),
        };
        trace::carve(vcd_span, vcd_ns.get());
        r
    };
    outcome.map_err(|e| format!("{} on {}: {e}", input.name, cell.name))?;
    let values = match &input.expect {
        Some((names, _)) => names
            .iter()
            .map(|(n, _)| sim.value_by_name(n).cloned())
            .collect(),
        None => Vec::new(),
    };
    let stats = sim.stats();
    drop(sim);
    let vcd = {
        let _s = span(vcd_span);
        let text = vcd.into_inner().finish();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        text.hash(&mut h);
        (h.finish(), text.len())
    };
    Ok(Run { vcd, stats, values })
}

/// The counters the cross-cell identity check compares.
fn core(s: &SimStats) -> [u64; 6] {
    [
        s.cycles,
        s.delta_cycles,
        s.events,
        s.transactions,
        s.resumptions,
        s.insns,
    ]
}

/// Every `SimStats` counter under its per-layer metric name.
fn counters(s: &SimStats) -> [(&'static str, u64); 11] {
    [
        ("cycles", s.cycles),
        ("delta_cycles", s.delta_cycles),
        ("events", s.events),
        ("transactions", s.transactions),
        ("resumptions", s.resumptions),
        ("insns", s.insns),
        ("calendar_ops", s.calendar_ops),
        ("woken_procs", s.woken_procs),
        ("scanned_signals", s.scanned_signals),
        ("compiled_blocks", s.compiled_blocks),
        ("fallback_procs", s.fallback_procs),
    ]
}

/// Checks one run against the model and against the interpreter's run of
/// the same design.
fn check(input: &Input, cell: &Cell, run: &Run, reference: Option<&Run>, sink: &mut Sink) {
    if let Some((want, events)) = &input.expect {
        let bad = want
            .iter()
            .zip(&run.values)
            .find(|((_, v), got)| got.as_ref() != Some(&Val::Int(*v)));
        if let Some(((n, v), got)) = bad {
            sink.fail(format!(
                "{} on {}: {n} = {got:?}, model says {v}",
                input.name, cell.name
            ));
        }
        sink.check(run.stats.events == *events, || {
            format!(
                "{} on {}: {} events, model says {events}",
                input.name, cell.name, run.stats.events
            )
        });
    }
    if let Some(r) = reference {
        sink.check(r.vcd == run.vcd, || {
            format!("{}: VCD on {} differs from interp", input.name, cell.name)
        });
        sink.check(core(&r.stats) == core(&run.stats), || {
            format!(
                "{}: stats on {} {:?} differ from interp {:?}",
                input.name,
                cell.name,
                core(&run.stats),
                core(&r.stats)
            )
        });
    }
}

fn pass(inputs: &[Input], programs: &[Program], sink: &mut Sink) {
    let mut reference: Vec<Option<Run>> = Vec::new();
    for (c, cell) in CELLS.iter().enumerate() {
        let runs: Vec<_> = sink.op(cell.op, || {
            inputs
                .iter()
                .zip(programs)
                .map(|(input, program)| run_case(input, program, cell))
                .collect()
        });
        let _c = span("bench.check");
        for (i, (input, run)) in inputs.iter().zip(runs).enumerate() {
            let run = match run {
                Ok(r) => r,
                Err(e) => {
                    sink.fail(e);
                    if c == 0 {
                        reference.push(None);
                    }
                    continue;
                }
            };
            for (k, v) in counters(&run.stats) {
                sink.count(&format!("kernel.{}.{k}", cell.name), v as f64);
            }
            if c == 0 {
                check(input, cell, &run, None, sink);
                reference.push(Some(run));
            } else if let Some(r) = &reference[i] {
                check(input, cell, &run, Some(r), sink);
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = choose(ctx.seed).unwrap_or_else(|e| setup_failed(ctx, &e));
    let harness::Measured {
        setup_s, sink, log, ..
    } = harness::run(
        ctx,
        ctx.passes(PASSES_PER_S),
        &|| setup(&inputs),
        |programs, passes| {
            vec![harness::measure(ctx, 0, passes, |_, sink| {
                pass(&inputs, programs, sink)
            })]
        },
    )
    .unwrap_or_else(|e| setup_failed(ctx, &e));
    let mut layers = BTreeMap::new();
    for cell in &CELLS {
        let [new_span, compile_span, run_span, vcd_span] = cell.spans;
        let key = |what: &str| format!("kernel.{}.{what}", cell.name);
        let run_s = self_s(&log, &sink, run_span);
        layers.insert(key("new_s"), span_s(&log, &sink, new_span));
        layers.insert(key("block_compile_s"), span_s(&log, &sink, compile_span));
        layers.insert(key("run_s"), run_s);
        layers.insert(key("vcd_s"), span_s(&log, &sink, vcd_span));
        for (k, _) in counters(&SimStats::default()) {
            layers.insert(key(k), per_pass(&sink, &key(k)));
        }
        layers.insert(
            key("resume_ratio"),
            ratio(
                per_pass(&sink, &key("resumptions")),
                per_pass(&sink, &key("woken_procs")),
            ),
        );
        layers.insert(
            key("ns_per_insn"),
            ratio(run_s * 1e9, per_pass(&sink, &key("insns"))),
        );
    }
    let parts = CELLS.map(|c| (c.part, op_ms(&sink, c.op, 0.0)));
    let detail = CELLS
        .iter()
        .map(|c| {
            (
                format!("sim_{}_s", c.name),
                op_ms(&sink, c.op, 0.5) / 1e3,
                "s",
            )
        })
        .collect();
    Outcome {
        setup_s,
        sink,
        log,
        layers,
        parts,
        detail,
    }
}
