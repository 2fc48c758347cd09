//! The differential oracle: one run-observe-compare loop for every
//! byte-identity check over the kernel's execution configurations.
//!
//! A [`Cell`] names one configuration — engine ({scan stepper,
//! interpreter}) × worker count × {uninterrupted,
//! checkpoint-and-restore}. [`run_cell`] runs a program under it with a
//! VCD observer attached and collects the [`Observables`]; [`run_matrix`]
//! runs a list of cells and reports the first [`Divergence`] from the
//! reference (the first cell). The scan stepper is the seed kernel's
//! full-scan scheduler, kept as the executable reference semantics; no
//! production path runs it.
//!
//! [`gen_program`] draws random `Insn`-level programs for the matrix, so
//! the same shrinking that minimizes generated VHDL designs minimizes
//! kernel-level counterexamples too.

use std::cell::RefCell;
use std::sync::Arc;

use ag_harness::fnv1a;
use ag_harness::Source;

use crate::io::Vcd;
use crate::isa::{ArrAttrKind, FnDecl, Insn, Program, SigId, VarAddr};
use crate::rts::Op;
use crate::sim::{RunOutcome, SimError, SimStats, Simulator, TestFault};
use crate::snapshot::{Dec, Enc, SnapshotError};
use crate::value::{Time, Val};

/// How a cell executes processes and schedules cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The seed kernel's full-scan stepper (interpreted processes).
    Scan,
    /// The event-driven scheduler.
    Interp,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Scan => "scan",
            Engine::Interp => "interp",
        }
    }
}

/// One execution configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Scheduler.
    pub engine: Engine,
    /// Worker count for the process phase.
    pub jobs: usize,
    /// `Some(n)`: run slice by slice, checkpoint after the first slice,
    /// restore into a fresh simulator at `n` workers, and finish there.
    /// `None`: one simulator runs the whole budget uninterrupted.
    pub resume: Option<usize>,
}

impl Cell {
    /// An uninterrupted cell.
    pub const fn solid(engine: Engine, jobs: usize) -> Cell {
        Cell {
            engine,
            jobs,
            resume: None,
        }
    }

    /// A checkpoint-and-restore cell resuming at `resume_jobs` workers.
    pub const fn resume(engine: Engine, jobs: usize, resume_jobs: usize) -> Cell {
        Cell {
            engine,
            jobs,
            resume: Some(resume_jobs),
        }
    }

    /// Display name, e.g. `interp/j1/solid`, `interp/j4/resume`, or
    /// `interp/j4/resume-j1` when the restored run changes worker count.
    pub fn name(&self) -> String {
        let mode = match self.resume {
            None => "solid".to_string(),
            Some(j) if j == self.jobs => "resume".to_string(),
            Some(j) => format!("resume-j{j}"),
        };
        format!("{}/j{}/{mode}", self.engine.name(), self.jobs)
    }
}

/// Everything observable about one finished run.
#[derive(Clone, Debug, PartialEq)]
pub struct Observables {
    /// `Debug` of the run outcome, or `err: <display>`.
    pub outcome: String,
    /// Full VCD text.
    pub vcd: String,
    /// Final simulation time.
    pub now: Time,
    /// The full statistics block.
    pub stats: SimStats,
    /// Final value of every signal, in id order.
    pub sig_vals: Vec<Val>,
    /// Name-Server per-signal event counters.
    pub sig_events: Vec<u64>,
    /// Per-signal last-event times.
    pub sig_last: Vec<Option<Time>>,
    /// Name-Server per-process resumption counters.
    pub proc_res: Vec<u64>,
    /// The report stream: (time, severity, text).
    pub reports: Vec<(Time, i64, String)>,
}

/// The observable fields, in comparison order, for triage naming.
const OBSERVABLES: [&str; 10] = [
    "outcome",
    "vcd",
    "now",
    "stats(cycles/deltas/events/txs/resumptions/insns)",
    "signal-values",
    "signal-event-counters",
    "signal-last-event-times",
    "process-resumption-counters",
    "reports",
    "stats(full)",
];

impl Observables {
    pub(crate) fn of(
        sim: &Simulator<'_>,
        outcome: &Result<RunOutcome, SimError>,
        vcd: String,
    ) -> Observables {
        let sigs = (0..sim.program().signals.len()).map(|i| SigId(i as u32));
        Observables {
            outcome: match outcome {
                Ok(o) => format!("{o:?}"),
                Err(e) => format!("err: {e}"),
            },
            vcd,
            now: sim.now(),
            stats: sim.stats(),
            sig_vals: sigs.clone().map(|s| sim.signal_value(s).clone()).collect(),
            sig_events: sigs.clone().map(|s| sim.signal_events(s)).collect(),
            sig_last: sigs.map(|s| sim.signal_last_event(s)).collect(),
            proc_res: (0..sim.program().processes.len())
                .map(|i| sim.process_resumptions(i as u32))
                .collect(),
            reports: sim
                .reports()
                .iter()
                .map(|r| (r.time, r.severity, r.text.clone()))
                .collect(),
        }
    }

    /// The core counters every engine agrees on: cycles, delta cycles,
    /// events, transactions, resumptions, instructions. The scheduler
    /// introspection counters depend on the engine.
    fn core_stats(&self) -> (u64, u64, u64, u64, u64, u64) {
        let st = &self.stats;
        (
            st.cycles,
            st.delta_cycles,
            st.events,
            st.transactions,
            st.resumptions,
            st.insns,
        )
    }

    /// Canonical text rendering — the corpus digest input. Explicit field
    /// tags, times in fs, and `{:?}` over plain integers and strings only,
    /// so the rendering is stable across platforms and compiler versions.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "outcome {}", self.outcome);
        let _ = writeln!(out, "now {}", self.now.fs);
        let _ = writeln!(out, "stats {:?}", self.core_stats());
        for v in &self.sig_vals {
            let _ = writeln!(out, "val {v:?}");
        }
        let _ = writeln!(out, "events {:?}", self.sig_events);
        let last: Vec<u64> = self
            .sig_last
            .iter()
            .map(|t| t.map_or(u64::MAX, |t| t.fs))
            .collect();
        let _ = writeln!(out, "last {last:?}");
        let _ = writeln!(out, "res {:?}", self.proc_res);
        for (t, sev, text) in &self.reports {
            let _ = writeln!(out, "report {} {sev} {text:?}", t.fs);
        }
        out.push_str("vcd\n");
        out.push_str(&self.vcd);
        out
    }

    /// FNV-1a digest of the canonical rendering.
    pub fn digest(&self) -> u64 {
        fnv1a(0, self.canonical().as_bytes())
    }
}

/// One cell's finished run.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// The configuration that ran.
    pub cell: Cell,
    /// What it observed.
    pub obs: Observables,
    /// The checkpoint a resume cell restored from (`None` for solid
    /// cells and for runs that failed inside the first slice).
    pub blob: Option<Vec<u8>>,
}

impl CellRun {
    /// The first observable differing from `other`, if any, with the
    /// byte-position context of the difference. The full statistics block
    /// is compared only when both cells run the same engine.
    fn first_divergence(&self, other: &CellRun) -> Option<(&'static str, String)> {
        fn diff<T: PartialEq + std::fmt::Debug>(a: &T, b: &T) -> Option<String> {
            (a != b).then(|| {
                let (a, b) = (format!("{a:?}"), format!("{b:?}"));
                let at = a
                    .bytes()
                    .zip(b.bytes())
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| a.len().min(b.len()));
                // Stay on char boundaries: report text may carry UTF-8.
                let win = |s: &str| {
                    let lo = (at.saturating_sub(40)..=at.min(s.len()))
                        .find(|i| s.is_char_boundary(*i))
                        .unwrap_or(0);
                    let hi = ((at + 40).min(s.len())..=s.len())
                        .find(|i| s.is_char_boundary(*i))
                        .unwrap_or(s.len());
                    s[lo..hi].to_string()
                };
                format!("at byte {at}: ...{:?} vs ...{:?}", win(&a), win(&b))
            })
        }
        let (a, b) = (&self.obs, &other.obs);
        let full = (self.cell.engine == other.cell.engine)
            .then(|| diff(&a.stats, &b.stats))
            .flatten();
        [
            diff(&a.outcome, &b.outcome),
            diff(&a.vcd, &b.vcd),
            diff(&a.now, &b.now),
            diff(&a.core_stats(), &b.core_stats()),
            diff(&a.sig_vals, &b.sig_vals),
            diff(&a.sig_events, &b.sig_events),
            diff(&a.sig_last, &b.sig_last),
            diff(&a.proc_res, &b.proc_res),
            diff(&a.reports, &b.reports),
            full,
        ]
        .into_iter()
        .zip(OBSERVABLES)
        .find_map(|(d, name)| d.map(|detail| (name, detail)))
    }
}

/// A detected divergence between two cells.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Reference cell name.
    pub base: String,
    /// Diverging cell name.
    pub cell: String,
    /// Name of the first diverging observable, e.g. `vcd`.
    pub observable: &'static str,
    /// Byte-position context of the first difference.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vs {}: first diverging observable `{}` ({})",
            self.base, self.cell, self.observable, self.detail
        )
    }
}

/// The outcome of running one program through a list of cells.
#[derive(Clone, Debug)]
pub struct MatrixOutcome {
    /// Every cell's run, reference first.
    pub runs: Vec<CellRun>,
    /// The first divergence found, if any.
    pub divergence: Option<Divergence>,
}

impl MatrixOutcome {
    /// Digest of the reference run (meaningful when `divergence` is
    /// `None`).
    pub fn digest(&self) -> u64 {
        self.runs[0].obs.digest()
    }
}

/// Runs `program` under one cell with a VCD observer attached, toward
/// `deadline`. A solid cell runs the sum of `slices` as one uninterrupted
/// cycle budget. A resume cell runs each of `slices` in turn, stopping
/// early at any outcome other than [`RunOutcome::CycleBudget`]; when its
/// first slice ends without error it checkpoints the kernel and the VCD
/// writer there and finishes in fresh ones. `fault` arms only on
/// simulators running more than one worker — modeling a bug a parallel
/// commit would introduce.
///
/// # Errors
///
/// A [`SnapshotError`] when a checkpoint or restore fails structurally.
/// Simulation errors are data (the `outcome` observable), not errors.
pub fn run_cell(
    program: &Program,
    deadline: Time,
    slices: &[u64],
    cell: Cell,
    fault: Option<TestFault>,
) -> Result<CellRun, SnapshotError> {
    fn start<'v>(
        sim: &mut Simulator<'v>,
        vcd: &'v RefCell<Vcd>,
        jobs: usize,
        fault: Option<TestFault>,
    ) {
        sim.set_jobs(jobs);
        // Every multi-process cycle of a multi-worker cell runs on the
        // pool, however light, so the cell checks the barrier commit.
        sim.force_pool(true);
        if jobs > 1 {
            sim.set_test_fault(fault);
        }
        sim.observe(Box::new(move |t, sig, name, v| {
            vcd.borrow_mut().change(t, sig, name, v);
        }));
    }
    let vcd = RefCell::new(Vcd::new("1fs"));
    let run = |sim: &mut Simulator<'_>, budget: u64| match cell.engine {
        Engine::Scan => sim.ref_run_slice(deadline, budget),
        Engine::Interp => sim.run_slice(deadline, budget, &mut || false),
    };
    let total = [slices.iter().fold(0u64, |a, &b| a.saturating_add(b))];
    let slices = if cell.resume.is_some() {
        slices
    } else {
        &total
    };
    let mut sim = Simulator::new(program.clone());
    start(&mut sim, &vcd, cell.jobs, fault);
    let mut outcome = Ok(RunOutcome::CycleBudget);
    let mut blob = None;
    for (i, &budget) in slices.iter().enumerate() {
        outcome = run(&mut sim, budget);
        if let (0, Some(jobs), Ok(_)) = (i, cell.resume, &outcome) {
            let kernel = sim.checkpoint()?;
            let mut e = Enc::new();
            vcd.borrow().encode(&mut e);
            drop(sim);
            *vcd.borrow_mut() = Vcd::decode(&mut Dec::new(&e.into_bytes()))?;
            sim = Simulator::restore(program.clone(), &kernel)?;
            start(&mut sim, &vcd, jobs, fault);
            blob = Some(kernel);
        }
        if !matches!(outcome, Ok(RunOutcome::CycleBudget)) {
            break;
        }
    }
    let obs = Observables::of(&sim, &outcome, vcd.borrow().finish());
    Ok(CellRun { cell, obs, blob })
}

/// Runs `program` under every cell and compares each run with the
/// reference (`cells[0]`). A cell whose engine differs from the
/// reference's is also compared with the first cell of its own engine,
/// so the full statistics block is checked wherever it is meaningful.
///
/// # Errors
///
/// The first [`SnapshotError`] from [`run_cell`].
pub fn run_matrix(
    program: &Program,
    deadline: Time,
    slices: &[u64],
    cells: &[Cell],
    fault: Option<TestFault>,
) -> Result<MatrixOutcome, SnapshotError> {
    let runs = cells
        .iter()
        .map(|&cell| run_cell(program, deadline, slices, cell, fault))
        .collect::<Result<Vec<_>, _>>()?;
    let divergence = runs.iter().enumerate().skip(1).find_map(|(i, run)| {
        let peer = runs[..i]
            .iter()
            .find(|r| r.cell.engine == run.cell.engine)
            .filter(|_| runs[0].cell.engine != run.cell.engine);
        [Some(&runs[0]), peer]
            .into_iter()
            .flatten()
            .find_map(|base| {
                base.first_divergence(run)
                    .map(|(observable, detail)| Divergence {
                        base: base.cell.name(),
                        cell: run.cell.name(),
                        observable,
                        detail,
                    })
            })
    });
    Ok(MatrixOutcome { runs, divergence })
}

fn slot(n: u16) -> VarAddr {
    VarAddr { depth: 0, slot: n }
}

/// `sum(drivers) mod 4` — a resolution function with a loop and an array
/// parameter, so resolved signals exercise the reused-scratch call path.
pub fn sum_mod4() -> FnDecl {
    let code = vec![
        Insn::PushInt(0),
        Insn::StoreVar(slot(1)), // i = 0
        Insn::PushInt(0),
        Insn::StoreVar(slot(2)), // acc = 0
        Insn::LoadVar(slot(1)),  // 4: loop head
        Insn::LoadVar(slot(0)),
        Insn::ArrAttr(ArrAttrKind::Length),
        Insn::Binop(Op::Lt),
        Insn::JumpIfFalse(20),
        Insn::LoadVar(slot(2)),
        Insn::LoadVar(slot(0)),
        Insn::LoadVar(slot(1)),
        Insn::Index,
        Insn::Binop(Op::Add),
        Insn::StoreVar(slot(2)), // acc += arg[i]
        Insn::LoadVar(slot(1)),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::StoreVar(slot(1)), // i += 1
        Insn::Jump(4),
        Insn::LoadVar(slot(2)), // 20: exit
        Insn::PushInt(4),
        Insn::Binop(Op::Mod),
        Insn::Ret { has_value: true },
    ];
    FnDecl {
        name: "sum_mod4".into(),
        n_params: 1,
        n_locals: 3,
        code: Arc::new(code),
        level: 1,
    }
}

/// Pushes `counter mod m` (slot 0 holds the process's activation count).
fn push_counter_mod(code: &mut Vec<Insn>, m: i64) {
    code.extend([
        Insn::LoadVar(slot(0)),
        Insn::PushInt(m),
        Insn::Binop(Op::Mod),
    ]);
}

/// Draws a random program: 1–10 looping processes, each with 1–2 private
/// signals, plus 0–2 resolved buses (`sum_mod4`) any process may drive,
/// so buses get several writers, which the pool may split across workers.
/// Each activation bumps a counter, schedules 1–3 transactions (delta or
/// timed, inertial or transport, counter-derived or constant), maybe
/// takes a data-dependent branch, maybe divides by `counter mod k` (a
/// division fault once the counter hits a multiple of `k`), maybe
/// reports, then waits: on a random signal subset or on its own and a
/// neighbour's signal, with an optional timed, delta (`-1`) or zero-fs
/// timeout — a timeout-only zero wait is a delta storm, bounded by the
/// cycle budget. Sensitivity metadata comes from the elaborator half the
/// time and from the kernel's own code walk otherwise.
pub fn gen_program(s: &mut Source) -> Program {
    let mut prog = Program::default();
    let n_procs = s.usize_in(1, 10);
    let own: Vec<Vec<SigId>> = (0..n_procs)
        .map(|pi| {
            (0..s.usize_in(1, 2))
                .map(|j| prog.add_signal(format!("top.p{pi}.s{j}"), Val::Int(0)))
                .collect()
        })
        .collect();
    let mut bus: Vec<SigId> = Vec::new();
    let n_bus = s.usize_in(0, 2);
    if n_bus > 0 {
        let f = prog.add_function(sum_mod4());
        for r in 0..n_bus {
            let sid = prog.add_signal(format!("top.bus{r}"), Val::Int(0));
            prog.signals[sid.0 as usize].resolution = Some(f);
            bus.push(sid);
        }
    }
    let all: Vec<SigId> = own.iter().flatten().chain(&bus).copied().collect();
    for pi in 0..n_procs {
        let mut code = vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
        ];
        let targets: Vec<SigId> = own[pi].iter().chain(&bus).copied().collect();
        for _ in 0..s.usize_in(1, 3) {
            let sig = *s.pick(&targets);
            if s.bool() {
                // Counter-derived: events and no-change active cycles both
                // occur.
                push_counter_mod(&mut code, *s.pick(&[2i64, 3, 4]));
            } else {
                code.push(Insn::PushInt(s.i64_in(0, 3)));
            }
            // −1 is the "no delay" marker (delta), 0 an explicit zero
            // delay (also delta); positive delays go through the far heap.
            code.push(Insn::PushInt(*s.pick(&[-1i64, 0, 1, 2, 3, 5, 10])));
            code.push(Insn::Sched {
                sig,
                transport: s.bool(),
            });
        }
        // Data-dependent branch: an extra assignment on odd counters.
        if s.bool() {
            push_counter_mod(&mut code, 2);
            let jif_at = code.len();
            code.push(Insn::JumpIfFalse(0)); // patched below
            let sig = *s.pick(&targets);
            push_counter_mod(&mut code, 5);
            code.push(Insn::PushInt(*s.pick(&[-1i64, 1, 4])));
            code.push(Insn::Sched {
                sig,
                transport: s.bool(),
            });
            code[jif_at] = Insn::JumpIfFalse(code.len() as u32);
        }
        // Division by `counter mod k`: every engine and worker count must
        // fail at the same instruction with the same message.
        if s.usize_in(0, 3) == 0 {
            code.push(Insn::PushInt(97));
            push_counter_mod(&mut code, *s.pick(&[3i64, 5, 7, 11]));
            code.push(Insn::Binop(Op::Div));
            code.push(Insn::StoreVar(slot(1)));
        }
        // Periodic report (assert severity warning).
        if s.bool() {
            push_counter_mod(&mut code, 3);
            code.extend([Insn::PushInt(7), Insn::PushInt(1), Insn::Assert]);
        }
        let mut sens: Vec<SigId> = if s.bool() {
            s.vec(0, 3, |s| *s.pick(&all))
        } else {
            // Own signal plus the neighbour's: events cross workers.
            vec![own[pi][0], own[(pi + 1) % n_procs][0]]
        };
        sens.sort_unstable();
        sens.dedup();
        // A zero or negative timeout wakes in the next delta cycle.
        let timeout = s.option(|s| match s.usize_in(0, 2) {
            0 => s.i64_in(1, 15),
            1 => -1,
            _ => 0,
        });
        if let Some(fs) = timeout {
            code.push(Insn::PushInt(fs));
        }
        code.push(Insn::Wait {
            sens: Arc::new(sens),
            with_timeout: timeout.is_some(),
        });
        code.push(Insn::Pop);
        code.push(Insn::Jump(0));
        prog.add_process(format!("top.p{pi}"), 2, code);
    }
    if s.bool() {
        prog.finalize_sensitivity();
    }
    prog
}
