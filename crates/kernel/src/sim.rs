//! The simulation kernel: signals with projected output waveforms,
//! delta cycles, process scheduling, and the instruction executor.
//!
//! Implements the VHDL simulation cycle: advance time to the next
//! transaction or timeout, update signals (resolving multiple drivers),
//! form the event set, resume sensitive processes, and execute them until
//! they all suspend — repeating at the same instant for delta cycles.
//! "Due to the preemptive nature of signal assignments in VHDL, the effect
//! of a VHDL signal assignment is not determinable at the time of the
//! execution of the assignment" (§5.1) — hence the driver queues here.
//!
//! Scheduling is event-driven: a pending-event calendar ([`crate::sched`])
//! orders every scheduled transaction and wait timeout, a clear-list
//! replaces the per-cycle full sweep of `event`/`active` flags, and the
//! static sensitivity index limits resumption checks to processes that
//! could actually care. Per cycle the kernel touches O(activity) state,
//! not O(design size), while observable behavior (values, events,
//! statistics, observer order) is identical to the scan-based seed kernel
//! — which survives as the `ref_*` reference stepper, the
//! [`crate::oracle`]'s `Scan` engine.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::Arc;

use ag_harness::pool::Pool;

use crate::isa::{FnDecl, FnId, Insn, Program, SigAttr, SigId};
use crate::names::{NameError, NameServer, NsEntry, NsObject};
use crate::rts::{self, RtError};
use crate::sched::{CalKind, Calendar, SensIndex};
use crate::value::{ArrVal, Time, VDir, Val};

/// Per-resumption instruction budget (runaway-loop guard).
const FUEL: u64 = 50_000_000;

/// The least estimated work, in instructions, of a ready set that runs on
/// the worker pool. A dispatch costs a fixed ~11–20 µs on a 2-vCPU VM,
/// which a cycle repays only above this much work; a lighter cycle runs
/// inline. Set from a jobs-1 against jobs-2 sweep (DESIGN §14.3).
const PAR_MIN_INSNS: u64 = 8_192;

/// A diagnostic emitted by `assert`/`report`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReportEvent {
    /// When.
    pub time: Time,
    /// 0 = note, 1 = warning, 2 = error, 3 = failure.
    pub severity: i64,
    /// Message text.
    pub text: String,
}

/// Cumulative kernel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulation cycles executed (incl. delta cycles).
    pub cycles: u64,
    /// Delta (zero-time) cycles.
    pub delta_cycles: u64,
    /// Signal events (value changes).
    pub events: u64,
    /// Transactions matured.
    pub transactions: u64,
    /// Process resumptions.
    pub resumptions: u64,
    /// Instructions executed.
    pub insns: u64,
    /// Event-calendar operations (pushes plus removals).
    pub calendar_ops: u64,
    /// Processes examined for resumption (sensitivity-index candidates
    /// plus expired timeouts).
    pub woken_procs: u64,
    /// Signals examined for a value update (the active set, per cycle).
    pub scanned_signals: u64,
    /// Always 0: the block-compiled backend is retired. Kept only
    /// because `vhdlbench` reads it.
    pub compiled_blocks: u64,
    /// Always 0: the block-compiled backend is retired. Kept only
    /// because `vhdlbench` reads it.
    pub fallback_procs: u64,
}

/// A process-execution backend selector, kept only because `vhdlbench`
/// passes one to [`Simulator::set_backend`]. The interpreter is the
/// kernel's only engine; both variants select it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The instruction-at-a-time interpreter.
    #[default]
    Interp,
    /// Retired block-compiled backend; runs the interpreter.
    Compiled,
}

/// Simulation failure.
#[derive(Clone, Debug)]
pub enum SimError {
    /// Runtime-support error in a process.
    Runtime {
        /// Offending process name.
        process: String,
        /// The error.
        error: RtError,
    },
    /// An `assert … severity failure` fired.
    Failure(ReportEvent),
    /// A process exceeded its instruction budget.
    FuelExhausted(String),
    /// Two drivers on an unresolved signal.
    UnresolvedDrivers(String),
    /// A resolution function misbehaved (waited or returned nothing).
    BadResolution(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Runtime { process, error } => {
                write!(f, "runtime error in {process}: {error}")
            }
            SimError::Failure(r) => write!(f, "failure at {}: {}", r.time, r.text),
            SimError::FuelExhausted(p) => write!(f, "process {p} looped without suspending"),
            SimError::UnresolvedDrivers(s) => {
                write!(
                    f,
                    "signal {s} has multiple drivers but no resolution function"
                )
            }
            SimError::BadResolution(s) => write!(f, "bad resolution function on {s}"),
        }
    }
}

impl std::error::Error for SimError {}

pub(crate) struct Driver {
    pub(crate) proc: usize,
    /// Projected output waveform, time-ordered.
    pub(crate) tx: VecDeque<(Time, Val)>,
    /// Current driving value.
    pub(crate) driving: Val,
}

pub(crate) struct SigState {
    pub(crate) current: Val,
    pub(crate) last_value: Val,
    pub(crate) last_event: Option<Time>,
    pub(crate) event: bool,
    pub(crate) active: bool,
    /// Cumulative events on this signal (the Name Server's per-object
    /// counter).
    pub(crate) events: u64,
    pub(crate) drivers: Vec<Driver>,
}

pub(crate) struct Frame {
    pub(crate) pc: usize,
    pub(crate) locals: Vec<Val>,
    pub(crate) static_link: Option<usize>,
    pub(crate) level: u16,
    /// Which code this frame runs: the process index, or `n_procs + fn`
    /// for subprograms (see [`unit_decl`]). The executor borrows the code
    /// from the program by it, and a snapshot stores it.
    pub(crate) unit: u32,
}

/// The code and frame size of `unit`: process `unit`, or subprogram
/// `unit - n_procs`; `None` past the last subprogram.
pub(crate) fn unit_decl(program: &Program, unit: u32) -> Option<(&[Insn], usize)> {
    let u = unit as usize;
    let n_procs = program.processes.len();
    match program.processes.get(u) {
        Some(p) => Some((&p.code, p.n_locals as usize)),
        None => program
            .functions
            .get(u - n_procs)
            .map(|f| (&f.code[..], f.n_locals as usize)),
    }
}

#[derive(Default)]
pub(crate) enum ProcStatus {
    Ready,
    Suspended {
        sens: Arc<Vec<SigId>>,
        timeout: Option<Time>,
    },
    #[default]
    Halted,
}

#[derive(Default)]
pub(crate) struct ProcState {
    pub(crate) name: String,
    pub(crate) status: ProcStatus,
    pub(crate) frames: Vec<Frame>,
    pub(crate) stack: Vec<Val>,
    /// Cumulative resumptions of this process (per-object counter).
    pub(crate) resumptions: u64,
    /// Emptied locals buffers of returned frames, reused by the next
    /// calls so that a call allocates nothing once warm. Scratch: never
    /// checkpointed.
    pub(crate) spare: Vec<Vec<Val>>,
    /// The sensitivity set of the wait this process last resumed from,
    /// moved out of its status at resumption, so that the same wait
    /// re-arms by a move instead of a reference-count round trip.
    /// Scratch: never checkpointed.
    last_sens: Option<Arc<Vec<SigId>>>,
}

impl ProcState {
    /// Enters subprogram `decl`, unit `unit`: its frame's locals, in a
    /// reused buffer, are the arguments moved off the value stack and
    /// then zeros. The static link is the nearest frame one level
    /// shallower.
    fn push_call(&mut self, unit: u32, decl: &FnDecl) {
        let mut locals = self.spare.pop().unwrap_or_default();
        let at = self.stack.len() - decl.n_params as usize;
        locals.extend(self.stack.drain(at..));
        locals.resize(decl.n_locals as usize, Val::Int(0));
        let static_link = self
            .frames
            .iter()
            .rposition(|fr| fr.level + 1 == decl.level);
        self.frames.push(Frame {
            pc: 0,
            locals,
            static_link,
            level: decl.level,
            unit,
        });
    }

    /// Pops the top frame and keeps its emptied locals buffer.
    fn pop_frame(&mut self) {
        if let Some(frame) = self.frames.pop() {
            let mut locals = frame.locals;
            locals.clear();
            self.spare.push(locals);
        }
    }
}

/// One buffered signal assignment. The value is fully computed at
/// execution time (subtype conversion and element stores applied); the
/// commit half only manipulates the driver queue and the calendar.
pub(crate) struct SchedOp {
    sig: u32,
    t: Time,
    value: Val,
    transport: bool,
}

impl Default for SchedOp {
    fn default() -> SchedOp {
        SchedOp {
            sig: 0,
            t: Time::ZERO,
            value: Val::Int(0),
            transport: false,
        }
    }
}

/// The effect spans of one process activation: end positions into the
/// owning [`Effects`] buffers (each activation's span starts where the
/// previous one ended), plus its statistics and outcome.
pub(crate) struct ActRecord {
    /// Process index (`u32::MAX` for resolution-function calls).
    pid: u32,
    sched_end: u32,
    timeout_end: u32,
    report_end: u32,
    /// Instructions executed (fuel spent), flushed to `stats.insns` at
    /// commit.
    insns: u64,
    /// The activation's failure, if any: a runtime error, fuel
    /// exhaustion, or an `assert … severity failure`. Surfaced by the
    /// coordinator at commit, after the effects are applied — exactly
    /// when the unbuffered kernel surfaced it.
    failed: Option<SimError>,
}

/// Buffered side effects of one or more process activations. Every
/// activation records here instead of touching shared kernel state; the
/// coordinator replays the records at the cycle barrier in seed scan
/// order.
#[derive(Default)]
pub(crate) struct Effects {
    scheds: Vec<SchedOp>,
    /// Wait-timeout instants, committed as calendar entries. A `wait`
    /// is always the last effect of its activation, so committing
    /// schedules before timeouts preserves the unbuffered push order.
    timeouts: Vec<Time>,
    reports: Vec<ReportEvent>,
    acts: Vec<ActRecord>,
    /// The in-flight activation's pending failure (fuel exhaustion,
    /// assertion failure), folded into its [`ActRecord`] when it ends.
    cur_failed: Option<SimError>,
    /// Records the coordinator has committed so far, in order.
    committed: usize,
}

impl Effects {
    fn fail(&mut self, e: SimError) {
        self.cur_failed = Some(e);
    }

    /// Resets for reuse, keeping buffer capacity.
    fn clear(&mut self) {
        self.scheds.clear();
        self.timeouts.clear();
        self.reports.clear();
        self.acts.clear();
        self.cur_failed = None;
        self.committed = 0;
    }
}

/// One chunk of a cycle's ready set: the processes a pool worker runs
/// this cycle (empty for the inline chunk, which runs them in place) and
/// its private effects buffer. The buffers keep their capacity across
/// cycles and travel to the worker thread and back by move, so the
/// steady state allocates nothing per cycle.
#[derive(Default)]
pub(crate) struct JobBuf {
    pub(crate) procs: Vec<(u32, ProcState)>,
    pub(crate) eff: Effects,
}

/// The read-only cycle context shared by every worker during one
/// process phase. Holding clones of the simulator's `Arc`s is what makes
/// the phase safe: the coordinator cannot regain `Arc::get_mut` access to
/// the signal table until every worker has dropped its clone, which the
/// pool's job function does before it posts its buffer back.
#[derive(Clone)]
pub(crate) struct Ctx {
    program: Arc<Program>,
    signals: Arc<Vec<SigState>>,
    now: Time,
}

/// An activation-execution context: immutable simulation state plus a
/// private effects buffer. This is the kernel's only engine: one runs a
/// cycle's whole inline chunk, each pool worker wraps one around its
/// [`JobBuf`], and resolution calls wrap one around the coordinator's
/// own buffer. It never touches shared mutable kernel state, so a
/// cycle's ready set can execute on any thread in any order while the
/// buffered effects replay in seed scan order at the cycle barrier.
pub(crate) struct Exec<'e> {
    program: &'e Program,
    signals: &'e [SigState],
    now: Time,
    eff: &'e mut Effects,
    /// First index in `eff.scheds` belonging to the current activation:
    /// element stores must see this activation's earlier buffered writes
    /// (and nothing from other processes).
    act_scheds: usize,
}

/// A value-change observer (VCD writers, test probes).
pub type Observer<'a> = Box<dyn FnMut(Time, SigId, &str, &Val) + 'a>;

/// How a bounded [`Simulator::run_slice`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Nothing left to do: no pending transactions or timeouts.
    Quiescent,
    /// The next event lies beyond the slice deadline.
    DeadlineReached,
    /// The per-slice cycle budget ran out with work still pending.
    CycleBudget,
    /// The cancellation hook asked to stop.
    Cancelled,
}

/// A deliberately wrong kernel behavior, switchable at runtime, so the
/// conformance subsystem's differential oracle can prove it detects and
/// shrinks real semantic divergences (`vhdlconform run --inject-fault`).
/// Never set outside tests and the conform harness; the default-off flag
/// costs one branch on the resolution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[doc(hidden)]
#[non_exhaustive]
pub enum TestFault {
    /// Resolution commit sees only the first driver's contribution —
    /// the classic lost-update bug a broken parallel commit would
    /// produce on a multi-writer bus.
    ResolutionFirstDriverOnly,
}

/// The simulator: program + live state.
///
/// The program and the signal states live behind `Arc` so a parallel
/// cycle can hand shared read-only views to the worker pool; between
/// dispatches the coordinator holds the only clones and mutates through
/// `Simulator::sigs_mut`.
pub struct Simulator<'a> {
    pub(crate) program: Arc<Program>,
    names: NameServer,
    pub(crate) signals: Arc<Vec<SigState>>,
    pub(crate) procs: Vec<ProcState>,
    pub(crate) now: Time,
    pub(crate) reports: Vec<ReportEvent>,
    pub(crate) stats: SimStats,
    observers: Vec<Observer<'a>>,
    pub(crate) failed: Option<SimError>,
    /// Pending-event calendar: transaction maturations and wait timeouts.
    pub(crate) calendar: Calendar,
    /// Static sensitivity index (signal → processes).
    sens: SensIndex,
    /// Signals whose `event`/`active` flags are set, to clear next cycle
    /// (replaces the full per-cycle flag sweep).
    pub(crate) active_clear: Vec<u32>,
    // Per-cycle scratch worklists, reused so the hot loop allocates only
    // on capacity growth.
    due_drivers: Vec<(u32, u32)>,
    fired: Vec<u32>,
    cand: Vec<u32>,
    ready: Vec<u32>,
    /// Reused buffer for resolution-function argument vectors.
    res_scratch: Vec<Val>,
    /// Reused execution state for resolution calls.
    fn_state: ProcState,
    /// The effects buffer of resolution calls, committed after each call.
    eff: Effects,
    /// Worker count for the process-execution phase (1 = inline only).
    jobs: usize,
    /// Instructions of each process's last activation, indexed by pid:
    /// the work estimate behind the pool gate ([`PAR_MIN_INSNS`]). Learned
    /// at commit, never checkpointed; 0 for a process that has not run.
    last_insns: Vec<u32>,
    /// Sends every cycle with two or more ready processes to the pool
    /// whatever its estimate, so the oracle checks the barrier commit.
    force_pool: bool,
    /// Fixed worker pool, spawned on the first parallel cycle.
    pool: Option<Pool<(Ctx, JobBuf), JobBuf>>,
    /// Chunk buffers, reused across cycles: one per worker, and the first
    /// is also the inline chunk.
    worker_buf: Vec<JobBuf>,
    /// Deliberate misbehavior for differential-oracle self-tests.
    test_fault: Option<TestFault>,
    /// The program's fingerprint, computed by the first checkpoint that
    /// needs it or given by the caller that already knows it.
    pub(crate) fingerprint: OnceCell<u64>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator and runs every process once (elaboration-time
    /// initial execution happens on the first [`Simulator::step`]).
    pub fn new(program: Program) -> Simulator<'a> {
        let names = NameServer::from_program(&program);
        let sens = SensIndex::build(&program);
        let signals = Arc::new(
            program
                .signals
                .iter()
                .map(|s| SigState {
                    current: s.init.clone(),
                    last_value: s.init.clone(),
                    last_event: None,
                    event: false,
                    active: false,
                    events: 0,
                    drivers: Vec::new(),
                })
                .collect::<Vec<_>>(),
        );
        let procs = program
            .processes
            .iter()
            .enumerate()
            .map(|(pi, p)| ProcState {
                name: p.name.clone(),
                status: ProcStatus::Ready,
                frames: vec![Frame {
                    pc: 0,
                    locals: vec![Val::Int(0); p.n_locals as usize],
                    static_link: None,
                    level: 0,
                    unit: pi as u32,
                }],
                stack: Vec::new(),
                ..ProcState::default()
            })
            .collect();
        let last_insns = vec![0; program.processes.len()];
        Simulator {
            program: Arc::new(program),
            names,
            signals,
            procs,
            now: Time::ZERO,
            reports: Vec::new(),
            stats: SimStats::default(),
            observers: Vec::new(),
            failed: None,
            calendar: Calendar::new(),
            sens,
            active_clear: Vec::new(),
            due_drivers: Vec::new(),
            fired: Vec::new(),
            cand: Vec::new(),
            ready: Vec::new(),
            res_scratch: Vec::new(),
            fn_state: ProcState::default(),
            eff: Effects::default(),
            jobs: 1,
            last_insns,
            force_pool: false,
            pool: None,
            worker_buf: Vec::new(),
            test_fault: None,
            fingerprint: OnceCell::new(),
        }
    }

    /// Arms a deliberate kernel misbehavior (see [`TestFault`]). The
    /// conformance oracle sets this on selected configuration cells to
    /// prove divergence detection end to end; production paths never
    /// call it.
    #[doc(hidden)]
    pub fn set_test_fault(&mut self, fault: Option<TestFault>) {
        self.test_fault = fault;
    }

    /// Mutable view of the signal states. Only the coordinator between
    /// pool dispatches can take it; the pool protocol drops every
    /// worker's handle before the barrier commit, so a failure here is a
    /// kernel bug, not a race.
    pub(crate) fn sigs_mut(&mut self) -> &mut Vec<SigState> {
        Arc::get_mut(&mut self.signals).expect("signal state shared outside the process phase")
    }

    /// Sends every cycle with two or more ready processes to the pool when
    /// `jobs > 1`, bypassing the work gate. The oracle's multi-worker
    /// cells set it so that they keep checking the barrier commit on
    /// designs too light to open the gate.
    pub(crate) fn force_pool(&mut self, on: bool) {
        self.force_pool = on;
    }

    /// Does nothing: the interpreter runs every activation whichever
    /// [`Backend`] is named. Kept only because `vhdlbench` calls it.
    pub fn set_backend(&mut self, _backend: Backend) {}

    /// Sets the most workers the process-execution phase may use. `1`
    /// (the default) runs every ready process in place on the calling
    /// thread. With `n > 1`, a cycle whose ready set holds at least two
    /// processes *and* enough work to repay a pool dispatch deals it out
    /// round-robin (ready position `pos` to worker `pos % n`) and runs
    /// the chunks on a fixed pool of `n` workers, spawned on the first
    /// such cycle; every side effect is buffered per worker and
    /// committed at the cycle barrier in seed scan order. The work estimate is the sum of the ready processes'
    /// instruction counts from their last activations, and the gate is
    /// 8,192 instructions: below it a dispatch costs more than a second
    /// worker saves on a 2-vCPU host, so the cycle runs inline, exactly
    /// as at `jobs = 1`. Either way the effects are committed once, at the
    /// cycle barrier, and VCD output, statistics, and
    /// Name-Server counters are byte-identical at any worker count. Safe
    /// to change between cycles (the old pool, if any, is torn down).
    /// Clamped to 1..=64.
    pub fn set_jobs(&mut self, jobs: usize) {
        let jobs = jobs.clamp(1, 64);
        if jobs != self.jobs {
            self.jobs = jobs;
            self.pool = None;
            self.worker_buf.clear();
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Registers a value-change observer (called with time, signal, name,
    /// new value).
    pub fn observe(&mut self, f: Observer<'a>) {
        self.observers.push(f);
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.calendar_ops = self.calendar.ops;
        s
    }

    /// Reports collected so far.
    pub fn reports(&self) -> &[ReportEvent] {
        &self.reports
    }

    /// Value of a signal by id.
    pub fn signal_value(&self, sig: SigId) -> &Val {
        &self.signals[sig.0 as usize].current
    }

    /// The design's hierarchical namespace (the Name Server of §2.1).
    pub fn names(&self) -> &NameServer {
        &self.names
    }

    /// The elaborated program this simulator runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Resolves a path name to a namespace entry (case-insensitive,
    /// `:a:b` or `a.b` spellings).
    ///
    /// # Errors
    ///
    /// [`NameError`] diagnostics for unknown paths; never panics.
    pub fn resolve(&self, path: &str) -> Result<NsEntry, NameError> {
        self.names.resolve(path)
    }

    /// Resolves a glob pattern to every matching namespace entry.
    ///
    /// # Errors
    ///
    /// [`NameError`] diagnostics for malformed patterns; never panics.
    pub fn glob(&self, pattern: &str) -> Result<Vec<NsEntry>, NameError> {
        self.names.glob(pattern)
    }

    /// Cumulative events on one signal (the per-object counter the Name
    /// Server's `inspect` surface reports).
    pub fn signal_events(&self, sig: SigId) -> u64 {
        self.signals[sig.0 as usize].events
    }

    /// Time of the signal's last event, if any.
    pub fn signal_last_event(&self, sig: SigId) -> Option<Time> {
        self.signals[sig.0 as usize].last_event
    }

    /// Cumulative resumptions of one process.
    pub fn process_resumptions(&self, proc: u32) -> u64 {
        self.procs[proc as usize].resumptions
    }

    /// Static sensitivity set of one process: every signal whose event can
    /// resume it, ascending by id (elaboration metadata, surfaced for
    /// inspection).
    pub fn process_sensitivity(&self, proc: u32) -> &[SigId] {
        self.sens.of_proc(proc as usize)
    }

    /// Looks a signal up by its hierarchical name (the Name Server of
    /// §2.1). Case-insensitive; accepts `:a:b` and `a.b` spellings.
    pub fn signal_by_name(&self, path: &str) -> Option<SigId> {
        if let Ok(NsEntry {
            object: NsObject::Signal(s),
            ..
        }) = self.names.resolve(path)
        {
            return Some(s);
        }
        // Fallback: exact spelling match (signals whose declared names use
        // separators the path grammar folds away).
        self.program
            .signals
            .iter()
            .position(|s| s.name == path)
            .map(|i| SigId(i as u32))
    }

    /// Value by hierarchical name.
    pub fn value_by_name(&self, path: &str) -> Option<&Val> {
        self.signal_by_name(path).map(|s| self.signal_value(s))
    }

    /// All signal names, in id order.
    pub fn signal_names(&self) -> Vec<&str> {
        self.program
            .signals
            .iter()
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Runs until `deadline` (inclusive) or quiescence.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn run_until(&mut self, deadline: Time) -> Result<(), SimError> {
        self.run_slice(deadline, u64::MAX, &mut || false)
            .map(|_| ())
    }

    /// Runs a bounded slice: until `deadline` (inclusive), at most
    /// `max_cycles` simulation cycles, checking `cancel` between cycles —
    /// the incremental-stepping hook interactive drivers (the `vhdld`
    /// server's `run` request) use for per-request deadlines and
    /// cooperative cancellation. State is left consistent at every return,
    /// so a later slice picks up exactly where this one stopped.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn run_slice(
        &mut self,
        deadline: Time,
        max_cycles: u64,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Result<RunOutcome, SimError> {
        let _t = ag_harness::trace::span("simulate");
        self.check_failed()?;
        let mut cycles: u64 = 0;
        // Initial cycle: every process runs until its first wait.
        if self.stats.cycles == 0 {
            if cancel() {
                return Ok(RunOutcome::Cancelled);
            }
            self.execute_ready()?;
            self.stats.cycles += 1;
            cycles += 1;
        }
        loop {
            let Some(next) = self.next_time() else {
                return Ok(RunOutcome::Quiescent);
            };
            if next.fs > deadline.fs {
                return Ok(RunOutcome::DeadlineReached);
            }
            if cycles >= max_cycles {
                return Ok(RunOutcome::CycleBudget);
            }
            if cancel() {
                return Ok(RunOutcome::Cancelled);
            }
            self.step_to(next)?;
            cycles += 1;
        }
    }

    /// Runs a single simulation cycle; returns `false` at quiescence.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.check_failed()?;
        if self.stats.cycles == 0 {
            self.execute_ready()?;
            self.stats.cycles += 1;
            return Ok(true);
        }
        match self.next_time() {
            Some(next) => {
                self.step_to(next)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The earliest pending instant, from the calendar. Every entry is
    /// validated against live state (drivers' front transactions,
    /// processes' current timeouts) so preempted transactions and
    /// already-resumed waits never stall or invent a cycle; stale entries
    /// found along the way are discarded.
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        let Simulator {
            calendar,
            signals,
            procs,
            ..
        } = self;
        calendar.min_valid(|e| match e.kind {
            CalKind::Driver { sig, di } => signals[sig as usize]
                .drivers
                .get(di as usize)
                .and_then(|d| d.tx.front())
                .is_some_and(|(t, _)| *t == e.time),
            CalKind::Timeout { proc } => matches!(
                &procs[proc as usize].status,
                ProcStatus::Suspended {
                    timeout: Some(t),
                    ..
                } if *t == e.time
            ),
        })
    }

    fn step_to(&mut self, next: Time) -> Result<(), SimError> {
        self.stats.cycles += 1;
        if next.fs == self.now.fs && self.stats.cycles > 1 {
            self.stats.delta_cycles += 1;
        }
        if next.fs != self.now.fs {
            self.calendar.advance_fs(next.fs);
        }
        self.now = next;
        // Clear the previous cycle's event/active flags (clear-list: only
        // signals that had them set).
        let sigs =
            Arc::get_mut(&mut self.signals).expect("signal state shared outside the process phase");
        for si in self.active_clear.drain(..) {
            let s = &mut sigs[si as usize];
            s.event = false;
            s.active = false;
        }
        // Pull everything due at `next` out of the calendar.
        self.due_drivers.clear();
        self.cand.clear();
        self.calendar
            .pop_due(next, &mut self.due_drivers, &mut self.cand);
        // Mature the due drivers' transactions. Duplicate or stale entries
        // mature nothing and drop out here.
        self.fired.clear();
        for &(si, di) in &self.due_drivers {
            let Some(d) = sigs[si as usize].drivers.get_mut(di as usize) else {
                continue;
            };
            let mut matured = false;
            while d.tx.front().is_some_and(|(t, _)| *t <= next) {
                let (_, v) = d.tx.pop_front().expect("front checked");
                d.driving = v;
                matured = true;
                self.stats.transactions += 1;
            }
            if matured {
                self.fired.push(si);
                if let Some((t, _)) = d.tx.front() {
                    self.calendar.push(*t, CalKind::Driver { sig: si, di });
                }
            }
        }
        // Update fired signals in ascending id order — the order the seed
        // kernel's full scan used, which observers (VCD) depend on.
        self.fired.sort_unstable();
        self.fired.dedup();
        self.stats.scanned_signals += self.fired.len() as u64;
        for i in 0..self.fired.len() {
            let si = self.fired[i] as usize;
            self.active_clear.push(si as u32);
            let new_val = self.effective_value(si).map_err(|e| self.fail(e))?;
            let sig = &mut self.sigs_mut()[si];
            sig.active = true;
            let changed = new_val != sig.current;
            if changed {
                sig.last_value = std::mem::replace(&mut sig.current, new_val);
                sig.last_event = Some(next);
                sig.event = true;
                sig.events += 1;
                self.stats.events += 1;
            }
            if changed && !self.observers.is_empty() {
                let this = &mut *self;
                let name = this.program.signals[si].name.as_str();
                let current = &this.signals[si].current;
                for obs in this.observers.iter_mut() {
                    obs(next, SigId(si as u32), name, current);
                }
            }
        }
        // Resumption candidates: expired timeouts (already in `cand` from
        // the calendar) plus every process statically sensitive to a
        // signal that had an event. The wake condition itself is
        // re-checked exactly, so supersets cost nothing but a look.
        for i in 0..self.fired.len() {
            let si = self.fired[i] as usize;
            if self.signals[si].event {
                let watchers = self.sens.watchers(si);
                self.cand.extend_from_slice(watchers);
            }
        }
        self.cand.sort_unstable();
        self.cand.dedup();
        self.stats.woken_procs += self.cand.len() as u64;
        self.ready.clear();
        for i in 0..self.cand.len() {
            let pi = self.cand[i] as usize;
            let resume = match &self.procs[pi].status {
                ProcStatus::Suspended { sens, timeout } => {
                    let timed_out = timeout.is_some_and(|t| t <= next);
                    let evented = sens.iter().any(|s| self.signals[s.0 as usize].event);
                    if timed_out || evented {
                        Some(timed_out && !evented)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(timed_out) = resume {
                let p = &mut self.procs[pi];
                if let ProcStatus::Suspended { sens, .. } =
                    std::mem::replace(&mut p.status, ProcStatus::Ready)
                {
                    p.last_sens = Some(sens);
                }
                p.stack.push(Val::Int(timed_out as i64));
                p.resumptions += 1;
                self.stats.resumptions += 1;
                self.ready.push(pi as u32);
            }
        }
        self.run_ready()?;
        self.check_failed()
    }

    /// Whether the ready set's estimated work, each process's instruction
    /// count from its last activation, reaches [`PAR_MIN_INSNS`]. The
    /// estimate depends only on the program and its history, so a run
    /// takes the same path every time; either path commits the same
    /// effects in the same order.
    fn ready_pays(&self) -> bool {
        let mut work = 0;
        for &pid in &self.ready {
            work += u64::from(self.last_insns[pid as usize]);
            if work >= PAR_MIN_INSNS {
                return true;
            }
        }
        false
    }

    /// Records `e` as the run's failure and hands it back: every later
    /// step returns it and `checkpoint` refuses, whatever phase failed.
    fn fail(&mut self, e: SimError) -> SimError {
        self.failed = Some(e.clone());
        e
    }

    /// A failed run stays failed: the recorded failure, if any.
    fn check_failed(&self) -> Result<(), SimError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn effective_value(&mut self, si: usize) -> Result<Val, SimError> {
        let n_drivers = self.signals[si].drivers.len();
        let resolution = self.program.signals[si].resolution;
        match (n_drivers, resolution) {
            (0, _) => Ok(self.signals[si].current.clone()),
            (1, None) => Ok(self.signals[si].drivers[0].driving.clone()),
            (_, None) => Err(SimError::UnresolvedDrivers(
                self.program.signals[si].name.clone(),
            )),
            (_, Some(f)) => {
                // The resolution function receives the vector of driving
                // values. The vector's buffer is a reused scratch,
                // reclaimed after the call unless the function retained
                // the argument.
                let mut vals = std::mem::take(&mut self.res_scratch);
                vals.clear();
                let take = match self.test_fault {
                    Some(TestFault::ResolutionFirstDriverOnly) => 1,
                    None => n_drivers,
                };
                vals.extend(
                    self.signals[si]
                        .drivers
                        .iter()
                        .take(take)
                        .map(|d| d.driving.clone()),
                );
                let data = Arc::new(vals);
                let arg = Val::Arr(ArrVal {
                    left: 0,
                    dir: VDir::To,
                    data: Arc::clone(&data),
                });
                let out = self.call_function(f, arg);
                if let Ok(mut v) = Arc::try_unwrap(data) {
                    v.clear();
                    self.res_scratch = v;
                }
                // Commit the call's buffered effects (counted
                // instructions, reports, a possible assertion failure)
                // exactly where the unbuffered kernel applied them —
                // inside the update phase, before this signal's value
                // changes. An assertion failure lands in `self.failed`
                // and surfaces at the seed kernel's check points, not
                // here, matching the legacy control flow.
                self.commit_pending();
                out.map_err(|e| SimError::Runtime {
                    process: format!("resolution of {}", self.program.signals[si].name),
                    error: e,
                })
            }
        }
    }

    /// The initial cycle: every Ready process runs until it suspends.
    fn execute_ready(&mut self) -> Result<(), SimError> {
        let Simulator { procs, ready, .. } = self;
        ready.clear();
        ready.extend(
            (0..procs.len() as u32)
                .filter(|&pi| matches!(procs[pi as usize].status, ProcStatus::Ready)),
        );
        self.run_ready()?;
        self.check_failed()
    }

    /// Runs a pure function (resolution) on a reused scratch state: the
    /// frame's locals buffer, the value stack, and the diagnostic name all
    /// keep their capacity between calls.
    fn call_function(&mut self, f: FnId, arg: Val) -> Result<Val, RtError> {
        let mut scratch = std::mem::take(&mut self.fn_state);
        let decl = &self.program.functions[f.0 as usize];
        scratch.status = ProcStatus::Ready;
        scratch.stack.clear();
        scratch.stack.push(arg);
        scratch.name.clear();
        scratch.name.push_str("fn ");
        scratch.name.push_str(&decl.name);
        let unit = (self.program.processes.len() + f.0 as usize) as u32;
        scratch.push_call(unit, decl);
        let run = Exec {
            program: &self.program,
            signals: &self.signals,
            now: self.now,
            eff: &mut self.eff,
            act_scheds: 0,
        }
        .run_pure(&mut scratch);
        let out = match run {
            Ok(()) => scratch
                .stack
                .pop()
                .ok_or_else(|| RtError::Internal("resolution returned no value".into())),
            Err(e) => Err(e),
        };
        while !scratch.frames.is_empty() {
            scratch.pop_frame();
        }
        self.fn_state = scratch;
        out
    }

    /// The process phase: runs the cycle's ready set (`self.ready`, in
    /// ascending process order) and commits its effects at the barrier.
    /// A cycle with enough work for the pool (see [`Self::set_jobs`]) is
    /// dealt out to the workers; any other runs in place on this thread
    /// as one inline chunk. Both paths run the same [`Exec`] and commit
    /// through the same barrier, so they differ only in where the
    /// instructions execute.
    fn run_ready(&mut self) -> Result<(), SimError> {
        let chunks =
            if self.jobs > 1 && self.ready.len() >= 2 && (self.force_pool || self.ready_pays()) {
                self.run_on_pool();
                self.jobs
            } else {
                self.run_inline();
                1
            };
        self.commit_barrier(chunks)
    }

    /// Runs the whole ready set in place through one [`Exec`], recording
    /// into the first chunk buffer.
    fn run_inline(&mut self) {
        if self.worker_buf.is_empty() {
            self.worker_buf.push(JobBuf::default());
        }
        let mut ex = Exec {
            program: &self.program,
            signals: &self.signals,
            now: self.now,
            eff: &mut self.worker_buf[0].eff,
            act_scheds: 0,
        };
        for &pid in &self.ready {
            ex.run_activation(&mut self.procs[pid as usize], pid as usize);
        }
    }

    /// Runs the cycle's ready set on the worker pool: ready position
    /// `pos` runs on worker `pos % jobs`, and the chunks run concurrently
    /// against shared read-only state. The processes travel to the
    /// workers by move and are back in place on return.
    fn run_on_pool(&mut self) {
        let n = self.ready.len();
        let jobs = self.jobs;
        let used = jobs.min(n);
        self.worker_buf.resize_with(jobs, JobBuf::default);
        // Deal the ready set out round-robin, so each worker's chunk is in
        // ascending process order and its activation records line up
        // with the barrier's commit loop.
        for pos in 0..n {
            let pid = self.ready[pos];
            let proc = std::mem::take(&mut self.procs[pid as usize]);
            self.worker_buf[pos % jobs].procs.push((pid, proc));
        }
        let ctx = Ctx {
            program: Arc::clone(&self.program),
            signals: Arc::clone(&self.signals),
            now: self.now,
        };
        let pool = self.pool.get_or_insert_with(|| {
            Pool::new(jobs, "sim-worker", |_| {
                |(ctx, mut buf): (Ctx, JobBuf)| {
                    run_chunk(&ctx, &mut buf);
                    // Release the context's `Arc`s before the buffer is
                    // posted back: once the coordinator holds every buffer
                    // it expects sole ownership of the signal table again.
                    drop(ctx);
                    buf
                }
            })
        });
        // Only workers with a chunk, the first `used`, are woken; the
        // buffers travel by move and come back to the slot they left.
        for (w, buf) in self.worker_buf[..used].iter_mut().enumerate() {
            pool.post(w, (ctx.clone(), std::mem::take(buf)));
        }
        for (w, buf) in self.worker_buf[..used].iter_mut().enumerate() {
            *buf = pool.wait(w);
        }
        drop(ctx);
        for buf in self.worker_buf[..used].iter_mut() {
            for (pid, proc) in buf.procs.drain(..) {
                self.procs[pid as usize] = proc;
            }
        }
    }

    /// The cycle barrier: commits one activation record per ready
    /// position, in seed scan order, consuming each chunk's buffer front
    /// to back (position `pos` ran in chunk `pos % chunks`). The first
    /// failure in that order wins; later activations' effects are
    /// discarded, as if their processes had never run — post-error state
    /// is unobservable through the public API. A failure recorded before
    /// the process phase (a resolution call's assertion) surfaces after
    /// the first committed activation.
    fn commit_barrier(&mut self, chunks: usize) -> Result<(), SimError> {
        let mut commit = Commit {
            sigs: Arc::get_mut(&mut self.signals)
                .expect("signal state shared outside the process phase"),
            calendar: &mut self.calendar,
            reports: &mut self.reports,
            stats: &mut self.stats,
            last_insns: &mut self.last_insns,
        };
        let mut out = Ok(());
        for (pos, &pid) in self.ready.iter().enumerate() {
            let eff = &mut self.worker_buf[pos % chunks].eff;
            debug_assert_eq!(eff.acts[eff.committed].pid, pid);
            if let Err(e) = commit.next(eff) {
                self.failed = Some(e);
            }
            if let Some(e) = &self.failed {
                out = Err(e.clone());
                break;
            }
        }
        for buf in &mut self.worker_buf[..chunks] {
            buf.eff.clear();
        }
        out
    }

    /// Commits the resolution call buffered in the coordinator's own
    /// effects buffer; its assertion failure, if any, lands in
    /// `self.failed`.
    fn commit_pending(&mut self) {
        let mut commit = Commit {
            sigs: Arc::get_mut(&mut self.signals)
                .expect("signal state shared outside the process phase"),
            calendar: &mut self.calendar,
            reports: &mut self.reports,
            stats: &mut self.stats,
            last_insns: &mut self.last_insns,
        };
        if let Err(e) = commit.next(&mut self.eff) {
            self.failed = Some(e);
        }
        self.eff.clear();
    }
}

/// The commit half's mutable view of kernel state, with the signal table
/// borrowed once for a whole barrier.
struct Commit<'c> {
    sigs: &'c mut [SigState],
    calendar: &'c mut Calendar,
    reports: &'c mut Vec<ReportEvent>,
    stats: &'c mut SimStats,
    last_insns: &'c mut [u32],
}

impl Commit<'_> {
    /// Applies `eff`'s next uncommitted activation record in recorded
    /// order — driver transactions, wait timeouts, reports, statistics —
    /// then returns the activation's failure, if any. Statistics land
    /// before the failure, matching the unbuffered kernel's
    /// once-per-activation flush.
    fn next(&mut self, eff: &mut Effects) -> Result<(), SimError> {
        let ai = eff.committed;
        eff.committed += 1;
        // Each record's spans start where the previous record's ended.
        let (s0, t0, r0) = match ai.checked_sub(1).map(|p| &eff.acts[p]) {
            Some(p) => (p.sched_end, p.timeout_end, p.report_end),
            None => (0, 0, 0),
        };
        let a = &mut eff.acts[ai];
        let (pid, insns, failed) = (a.pid, a.insns, a.failed.take());
        let dpid = if pid == u32::MAX {
            usize::MAX
        } else {
            self.last_insns[pid as usize] = u32::try_from(insns).unwrap_or(u32::MAX);
            pid as usize
        };
        let a = &eff.acts[ai];
        for op in &mut eff.scheds[s0 as usize..a.sched_end as usize] {
            self.sched(dpid, std::mem::take(op));
        }
        for &t in &eff.timeouts[t0 as usize..a.timeout_end as usize] {
            self.calendar.push(t, CalKind::Timeout { proc: pid });
        }
        for ev in &mut eff.reports[r0 as usize..a.report_end as usize] {
            self.reports.push(std::mem::take(ev));
        }
        self.stats.insns += insns;
        match failed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The commit half of a signal assignment: find or create the
    /// process's driver, apply preemption, append the transaction, keep
    /// the calendar invariant. The value was computed at execution time;
    /// driver queues are untouched during the process phase, so
    /// replaying the buffered operations in seed scan order lands every
    /// queue in exactly the state the unbuffered kernel produced.
    fn sched(&mut self, pid: usize, op: SchedOp) {
        let SchedOp {
            sig,
            t,
            value,
            transport,
        } = op;
        let sig_state = &mut self.sigs[sig as usize];
        // Find or create this process's driver. Creation happens here —
        // in commit order — so driver indices are the same no matter
        // which worker ran the process.
        let di = match sig_state.drivers.iter().position(|d| d.proc == pid) {
            Some(i) => i,
            None => {
                sig_state.drivers.push(Driver {
                    proc: pid,
                    tx: VecDeque::new(),
                    driving: sig_state.current.clone(),
                });
                sig_state.drivers.len() - 1
            }
        };
        let d = &mut sig_state.drivers[di];
        if transport {
            // Transport: drop transactions at or after t, append.
            while d.tx.back().is_some_and(|(bt, _)| *bt >= t) {
                d.tx.pop_back();
            }
        } else {
            // Inertial (simplified VHDL-87 preemption): the new
            // transaction supersedes every pending one.
            d.tx.clear();
        }
        d.tx.push_back((t, value));
        // Calendar invariant: whenever a driver's queue is non-empty, an
        // entry exists at exactly the front transaction's time (see
        // [`Exec::sched`]).
        if d.tx.len() == 1 {
            self.calendar
                .push(t, CalKind::Driver { sig, di: di as u32 });
        }
    }
}

impl<'e> Exec<'e> {
    /// Runs one process activation to suspension or halt, recording its
    /// side effects as one activation record. Errors do not escape: a
    /// runtime error or pending failure rides in the record and is
    /// surfaced by the coordinator at commit, in seed scan order.
    pub(crate) fn run_activation(&mut self, proc: &mut ProcState, pid: usize) {
        self.act_scheds = self.eff.scheds.len();
        let mut fuel = FUEL;
        let result = self.exec_inner(proc, false, pid, &mut fuel);
        // Clone the name only on the error path: this runs once per
        // resumption, and a per-call clone is exactly the hot-loop
        // allocation the scheduler rewrite removed.
        let failed = match result {
            Ok(()) => self.eff.cur_failed.take(),
            Err(error) => {
                self.eff.cur_failed = None;
                Some(SimError::Runtime {
                    process: proc.name.clone(),
                    error,
                })
            }
        };
        self.eff.acts.push(ActRecord {
            pid: pid as u32,
            sched_end: self.eff.scheds.len() as u32,
            timeout_end: self.eff.timeouts.len() as u32,
            report_end: self.eff.reports.len() as u32,
            insns: FUEL - fuel,
            failed,
        });
    }

    /// Runs a pure function call (resolution) to completion, recording
    /// its effects as one activation record with the `u32::MAX` pid
    /// sentinel. The runtime error (if any) is returned to the caller —
    /// the unbuffered kernel propagated it without recording a process
    /// failure — while a pending assertion failure rides in the record.
    fn run_pure(&mut self, proc: &mut ProcState) -> Result<(), RtError> {
        self.act_scheds = self.eff.scheds.len();
        let mut fuel = FUEL;
        let out = self.exec_inner(proc, true, usize::MAX, &mut fuel);
        let failed = self.eff.cur_failed.take();
        self.eff.acts.push(ActRecord {
            pid: u32::MAX,
            sched_end: self.eff.scheds.len() as u32,
            timeout_end: self.eff.timeouts.len() as u32,
            report_end: self.eff.reports.len() as u32,
            insns: FUEL - fuel,
            failed,
        });
        out
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inner(
        &mut self,
        proc: &mut ProcState,
        pure: bool,
        pid: usize,
        fuel: &mut u64,
    ) -> Result<(), RtError> {
        'outer: loop {
            let Some(top) = proc.frames.last() else {
                proc.status = ProcStatus::Halted;
                return Ok(());
            };
            // Pin the active frame's code and pc in locals: the code is
            // borrowed from the program by the frame's unit, and `pc` only
            // touches the frame at suspension points and frame switches.
            let program: &'e Program = self.program;
            let (code, _) = unit_decl(program, top.unit).expect("frame of a known unit");
            let mut pc = top.pc;
            loop {
                let Some(insn) = code.get(pc) else {
                    // Falling off a subprogram = return; off a process = halt.
                    if proc.frames.len() > 1 {
                        proc.pop_frame();
                        continue 'outer;
                    }
                    proc.frames.last_mut().expect("frame").pc = pc;
                    proc.status = ProcStatus::Halted;
                    return Ok(());
                };
                pc += 1;
                *fuel -= 1;
                if *fuel == 0 {
                    proc.frames.last_mut().expect("frame").pc = pc;
                    self.eff.fail(SimError::FuelExhausted(proc.name.clone()));
                    proc.status = ProcStatus::Halted;
                    return Ok(());
                }
                match insn {
                    Insn::PushInt(v) => proc.stack.push(Val::Int(*v)),
                    Insn::PushReal(v) => proc.stack.push(Val::Real(*v)),
                    Insn::PushConst(v) => proc.stack.push(v.clone()),
                    Insn::MakeArr { n, left, dir } => {
                        let at = proc.stack.len() - *n as usize;
                        let data = proc.stack.split_off(at);
                        proc.stack.push(Val::arr(*left, *dir, data));
                    }
                    Insn::MakeRec { n } => {
                        let at = proc.stack.len() - *n as usize;
                        let data = proc.stack.split_off(at);
                        proc.stack.push(Val::Rec(Arc::new(data)));
                    }
                    Insn::LoadVar(a) => {
                        let v = var_frame(proc, a.depth)?.locals[a.slot as usize].clone();
                        proc.stack.push(v);
                    }
                    Insn::StoreVar(a) => {
                        let v = pop(proc)?;
                        var_frame(proc, a.depth)?.locals[a.slot as usize] = v;
                    }
                    Insn::StoreVarIndex(a) => {
                        let v = pop(proc)?;
                        let idx = pop_int(proc)?;
                        let fr = var_frame(proc, a.depth)?;
                        let slot = &mut fr.locals[a.slot as usize];
                        *slot = store_elem(slot, idx, v)?;
                    }
                    Insn::StoreVarField(a, field) => {
                        let v = pop(proc)?;
                        let fr = var_frame(proc, a.depth)?;
                        let slot = &mut fr.locals[a.slot as usize];
                        if let Val::Rec(fields) = slot {
                            let mut fs = (**fields).clone();
                            fs[*field as usize] = v;
                            *slot = Val::Rec(Arc::new(fs));
                        } else {
                            return Err(RtError::Internal("field store on non-record".into()));
                        }
                    }
                    Insn::LoadSig(s) => {
                        proc.stack.push(self.signals[s.0 as usize].current.clone());
                    }
                    Insn::LoadSigAttr(s, attr) => {
                        let sig = &self.signals[s.0 as usize];
                        let v = match attr {
                            SigAttr::Event => Val::Int(sig.event as i64),
                            SigAttr::Active => Val::Int(sig.active as i64),
                            SigAttr::LastValue => sig.last_value.clone(),
                        };
                        proc.stack.push(v);
                    }
                    Insn::Index => {
                        let idx = pop_int(proc)?;
                        let arr = pop(proc)?;
                        let a = want_arr(&arr)?;
                        let off = a.offset(idx).ok_or(RtError::IndexError { index: idx })?;
                        proc.stack.push(a.data[off].clone());
                    }
                    Insn::Slice(dir) => {
                        let right = pop_int(proc)?;
                        let left = pop_int(proc)?;
                        let arr = pop(proc)?;
                        let a = want_arr(&arr)?;
                        let (o1, o2) = (
                            a.offset(left).ok_or(RtError::IndexError { index: left })?,
                            a.offset(right)
                                .ok_or(RtError::IndexError { index: right })?,
                        );
                        let (lo, hi) = (o1.min(o2), o1.max(o2));
                        let data = a.data[lo..=hi].to_vec();
                        proc.stack.push(Val::arr(left, *dir, data));
                    }
                    Insn::ArrAttr(kind) => {
                        let v = pop(proc)?;
                        let a = want_arr(&v)?;
                        let (l, r) = (a.left, a.right());
                        let out = match kind {
                            crate::isa::ArrAttrKind::Length => a.data.len() as i64,
                            crate::isa::ArrAttrKind::Left => l,
                            crate::isa::ArrAttrKind::Right => r,
                            crate::isa::ArrAttrKind::Low => l.min(r),
                            crate::isa::ArrAttrKind::High => l.max(r),
                        };
                        proc.stack.push(Val::Int(out));
                    }
                    Insn::Field(i) => {
                        let v = pop(proc)?;
                        match v {
                            Val::Rec(fields) => proc.stack.push(fields[*i as usize].clone()),
                            _ => return Err(RtError::Internal("field on non-record".into())),
                        }
                    }
                    Insn::Binop(op) => {
                        let b = pop(proc)?;
                        let a = pop(proc)?;
                        proc.stack.push(rts::binop(*op, &a, &b)?);
                    }
                    Insn::Unop(op) => {
                        let a = pop(proc)?;
                        proc.stack.push(rts::unop(*op, &a)?);
                    }
                    Insn::RangeCheck { lo, hi } => {
                        let v = want_int(proc.stack.last().ok_or_else(underflow)?)?;
                        if v < *lo || v > *hi {
                            return Err(RtError::RangeError {
                                value: v,
                                lo: *lo,
                                hi: *hi,
                            });
                        }
                    }
                    Insn::Jump(t) => {
                        pc = *t as usize;
                    }
                    Insn::JumpIfFalse(t) => {
                        let c = pop_int(proc)? != 0;
                        if !c {
                            pc = *t as usize;
                        }
                    }
                    Insn::Sched { sig, transport } => {
                        let delay = pop_int(proc)?;
                        let value = pop(proc)?;
                        self.sched(pid, *sig, value, delay, *transport, None)?;
                    }
                    Insn::SchedIndex { sig, transport } => {
                        let delay = pop_int(proc)?;
                        let value = pop(proc)?;
                        let index = pop_int(proc)?;
                        self.sched(pid, *sig, value, delay, *transport, Some(index))?;
                    }
                    Insn::Wait { sens, with_timeout } => {
                        if pure {
                            return Err(RtError::Internal("wait in a pure function".into()));
                        }
                        let timeout = if *with_timeout {
                            let fs = pop_int(proc)?;
                            // A zero-duration wait resumes in the *next
                            // delta cycle* (LRM 8.1); `plus_fs(0)` would
                            // reset the delta and land in the past,
                            // pinning time while this process's own
                            // delta-delayed drivers starve unmatured.
                            let t = if fs <= 0 {
                                self.now.next_delta()
                            } else {
                                self.now.plus_fs(fs as u64)
                            };
                            self.eff.timeouts.push(t);
                            Some(t)
                        } else {
                            None
                        };
                        proc.frames.last_mut().expect("frame").pc = pc;
                        let sens = match proc.last_sens.take() {
                            Some(last) if Arc::ptr_eq(&last, sens) => last,
                            _ => Arc::clone(sens),
                        };
                        proc.status = ProcStatus::Suspended { sens, timeout };
                        return Ok(());
                    }
                    Insn::Call(f) => {
                        let decl = &self.program.functions[f.0 as usize];
                        let unit = (self.program.processes.len() + f.0 as usize) as u32;
                        proc.frames.last_mut().expect("frame").pc = pc;
                        proc.push_call(unit, decl);
                        continue 'outer;
                    }
                    Insn::Ret { has_value: _ } => {
                        if proc.frames.len() > 1 {
                            proc.pop_frame();
                            continue 'outer;
                        }
                        proc.frames.last_mut().expect("frame").pc = pc;
                        proc.status = ProcStatus::Halted;
                        return Ok(());
                    }
                    Insn::Assert => {
                        let severity = pop_int(proc)?;
                        let report = pop(proc)?;
                        let cond = pop_int(proc)? != 0;
                        if !cond {
                            let ev = ReportEvent {
                                time: self.now,
                                severity,
                                text: report.as_string(),
                            };
                            self.eff.reports.push(ev.clone());
                            if severity >= 3 {
                                proc.frames.last_mut().expect("frame").pc = pc;
                                self.eff.fail(SimError::Failure(ev));
                                proc.status = ProcStatus::Halted;
                                return Ok(());
                            }
                        }
                    }
                    Insn::Pop => {
                        pop(proc)?;
                    }
                    Insn::Dup => {
                        let v = proc.stack.last().ok_or_else(underflow)?.clone();
                        proc.stack.push(v);
                    }
                    Insn::Halt => {
                        proc.frames.last_mut().expect("frame").pc = pc;
                        proc.status = ProcStatus::Halted;
                        return Ok(());
                    }
                }
            }
        }
    }

    /// The execution half of a signal assignment: validate the delay,
    /// compute the transaction time and final value (subtype conversion,
    /// element update), and buffer a [`SchedOp`]. Driver queues are
    /// untouched here — the barrier commit replays the buffered
    /// operations at the barrier, in seed scan order, so the queues land
    /// in exactly the state the unbuffered kernel produced.
    fn sched(
        &mut self,
        pid: usize,
        sig: SigId,
        value: Val,
        delay_fs: i64,
        transport: bool,
        index: Option<i64>,
    ) -> Result<(), RtError> {
        if delay_fs < -1 {
            // −1 is the compiler's "no delay" marker; anything more
            // negative is a model error (LRM: delays must be non-negative).
            return Err(RtError::Internal(format!(
                "negative signal-assignment delay ({delay_fs} fs)"
            )));
        }
        let t = if delay_fs <= 0 {
            self.now.next_delta()
        } else {
            self.now.plus_fs(delay_fs as u64)
        };
        let sig_state = &self.signals[sig.0 as usize];
        // Array assignment implies a subtype conversion: the value takes
        // the target's bounds (same length required).
        let value = match (&value, &sig_state.current) {
            (Val::Arr(v), Val::Arr(t))
                if (v.left, v.dir) != (t.left, t.dir) && v.data.len() == t.data.len() =>
            {
                Val::Arr(crate::value::ArrVal {
                    left: t.left,
                    dir: t.dir,
                    data: Arc::clone(&v.data),
                })
            }
            _ => value,
        };
        // Element assignment: apply to the latest scheduled (or driving)
        // whole value. The latest pending value may still be in this
        // activation's effects buffer (the queue half of an earlier op
        // hasn't run yet); otherwise fall back to the live driver's tail,
        // then its driving value, then the signal's current value — the
        // driving value a driver created at commit would start with.
        let value = match index {
            None => value,
            Some(i) => {
                let base = self.eff.scheds[self.act_scheds..]
                    .iter()
                    .rev()
                    .find(|op| op.sig == sig.0)
                    .map(|op| op.value.clone())
                    .or_else(|| {
                        sig_state.drivers.iter().find(|d| d.proc == pid).map(|d| {
                            d.tx.back()
                                .map(|(_, v)| v.clone())
                                .unwrap_or_else(|| d.driving.clone())
                        })
                    })
                    .unwrap_or_else(|| sig_state.current.clone());
                store_elem(&base, i, value)?
            }
        };
        self.eff.scheds.push(SchedOp {
            sig: sig.0,
            t,
            value,
            transport,
        });
        Ok(())
    }
}

/// Executes one worker's chunk of the cycle's ready set against the
/// shared read-only context, buffering every side effect in `buf`. Runs
/// on the pool's workers.
fn run_chunk(ctx: &Ctx, buf: &mut JobBuf) {
    let JobBuf { procs, eff, .. } = buf;
    let mut ex = Exec {
        program: &ctx.program,
        signals: &ctx.signals,
        now: ctx.now,
        eff,
        act_scheds: 0,
    };
    for (pid, proc) in procs.iter_mut() {
        ex.run_activation(proc, *pid as usize);
    }
}

/// The seed kernel's scan-based scheduler, retained as the reference
/// stepper (the [`crate::oracle`]'s `Scan` engine; no production path
/// runs it): `ref_next_time` scans every driver and process,
/// `ref_step_to` re-walks the whole signal and process arrays, and
/// `ref_execute_ready` commits each activation before the next one runs.
/// A simulator driven exclusively through `ref_*` methods ignores the
/// calendar, the sensitivity index and the cycle barrier, and must
/// produce byte-identical observables to the event-driven path.
impl<'a> Simulator<'a> {
    fn ref_next_time(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        for sig in self.signals.iter() {
            for d in &sig.drivers {
                if let Some((t, _)) = d.tx.front() {
                    next = Some(next.map_or(*t, |n| n.min(*t)));
                }
            }
        }
        for p in &self.procs {
            if let ProcStatus::Suspended {
                timeout: Some(t), ..
            } = &p.status
            {
                next = Some(next.map_or(*t, |n| n.min(*t)));
            }
        }
        next
    }

    fn ref_step_to(&mut self, next: Time) -> Result<(), SimError> {
        self.stats.cycles += 1;
        if next.fs == self.now.fs && self.stats.cycles > 1 {
            self.stats.delta_cycles += 1;
        }
        self.now = next;
        // Clear the previous cycle's event/active flags.
        for s in self.sigs_mut().iter_mut() {
            s.event = false;
            s.active = false;
        }
        // Mature transactions and compute new signal values.
        for si in 0..self.signals.len() {
            let mut any_active = false;
            let sig = &mut Arc::get_mut(&mut self.signals)
                .expect("signal state shared outside the process phase")[si];
            for d in sig.drivers.iter_mut() {
                while d.tx.front().is_some_and(|(t, _)| *t <= next) {
                    if let Some((_, v)) = d.tx.pop_front() {
                        d.driving = v;
                        any_active = true;
                        self.stats.transactions += 1;
                    }
                }
            }
            if !any_active {
                continue;
            }
            let new_val = self.effective_value(si).map_err(|e| self.fail(e))?;
            let now = self.now;
            let sig = &mut self.sigs_mut()[si];
            sig.active = true;
            if new_val != sig.current {
                sig.last_value = sig.current.clone();
                sig.current = new_val;
                sig.last_event = Some(now);
                sig.event = true;
                sig.events += 1;
                self.stats.events += 1;
                let name = self.program.signals[si].name.clone();
                let current = self.signals[si].current.clone();
                for obs in self.observers.iter_mut() {
                    obs(now, SigId(si as u32), &name, &current);
                }
            }
        }
        // Resume processes.
        for pi in 0..self.procs.len() {
            let resume = match &self.procs[pi].status {
                ProcStatus::Suspended { sens, timeout } => {
                    let timed_out = timeout.is_some_and(|t| t <= self.now);
                    let evented = sens.iter().any(|s| self.signals[s.0 as usize].event);
                    if timed_out || evented {
                        Some(timed_out && !evented)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(timed_out) = resume {
                self.procs[pi].status = ProcStatus::Ready;
                self.procs[pi].stack.push(Val::Int(timed_out as i64));
                self.procs[pi].resumptions += 1;
                self.stats.resumptions += 1;
            }
        }
        self.ref_execute_ready()
    }

    /// Runs every Ready process in ascending order, committing each
    /// activation before the next one runs: the seed kernel's commit
    /// order, against which the oracle checks the barrier commit.
    fn ref_execute_ready(&mut self) -> Result<(), SimError> {
        for pi in 0..self.procs.len() as u32 {
            if matches!(self.procs[pi as usize].status, ProcStatus::Ready) {
                self.ready.clear();
                self.ready.push(pi);
                self.run_inline();
                self.commit_barrier(1)?;
            }
        }
        self.check_failed()
    }

    pub(crate) fn ref_run_slice(
        &mut self,
        deadline: Time,
        max_cycles: u64,
    ) -> Result<RunOutcome, SimError> {
        self.check_failed()?;
        let mut cycles: u64 = 0;
        if self.stats.cycles == 0 {
            self.ref_execute_ready()?;
            self.stats.cycles += 1;
            cycles += 1;
        }
        loop {
            let Some(next) = self.ref_next_time() else {
                return Ok(RunOutcome::Quiescent);
            };
            if next.fs > deadline.fs {
                return Ok(RunOutcome::DeadlineReached);
            }
            if cycles >= max_cycles {
                return Ok(RunOutcome::CycleBudget);
            }
            self.ref_step_to(next)?;
            cycles += 1;
        }
    }
}

fn pop(proc: &mut ProcState) -> Result<Val, RtError> {
    proc.stack.pop().ok_or_else(underflow)
}

/// Pops an integer (enumeration position, boolean, delay). The IR is
/// typed, so a mismatch is a code-generator bug — but it must surface as
/// a per-process [`RtError`], not a panic that takes the host (a `vhdld`
/// worker, a batch thread) down with it.
fn pop_int(proc: &mut ProcState) -> Result<i64, RtError> {
    match pop(proc)? {
        Val::Int(i) => Ok(i),
        v => Err(RtError::Internal(format!("expected integer, got {v}"))),
    }
}

/// Checked view of a value as an array (see [`pop_int`] on why this is an
/// error, not a panic).
fn want_arr(v: &Val) -> Result<&ArrVal, RtError> {
    match v {
        Val::Arr(a) => Ok(a),
        v => Err(RtError::Internal(format!("expected array, got {v}"))),
    }
}

/// Checked view of a value as an integer.
fn want_int(v: &Val) -> Result<i64, RtError> {
    match v {
        Val::Int(i) => Ok(*i),
        v => Err(RtError::Internal(format!("expected integer, got {v}"))),
    }
}

fn underflow() -> RtError {
    RtError::Internal("value stack underflow".into())
}

fn var_frame(proc: &mut ProcState, depth: u8) -> Result<&mut Frame, RtError> {
    let top = proc.frames.len() - 1;
    let mut idx = top;
    for _ in 0..depth {
        idx = proc.frames[idx]
            .static_link
            .ok_or_else(|| RtError::Internal("missing static link".into()))?;
    }
    Ok(&mut proc.frames[idx])
}

/// Replaces element `idx` in an array value (copy-on-write).
fn store_elem(base: &Val, idx: i64, v: Val) -> Result<Val, RtError> {
    match base {
        Val::Arr(a) => {
            let off = a.offset(idx).ok_or(RtError::IndexError { index: idx })?;
            let mut data = (*a.data).clone();
            data[off] = v;
            Ok(Val::Arr(crate::value::ArrVal {
                left: a.left,
                dir: a.dir,
                data: Arc::new(data),
            }))
        }
        _ => Err(RtError::Internal("element store on non-array".into())),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::io::Vcd;
    use crate::isa::VarAddr;
    use crate::oracle::Observables;
    use crate::rts::Op;

    /// The scan stepper records a resolution function's runtime error
    /// like the event-driven path: a two-driver bus whose resolution
    /// divides by zero fails at 1 fs, and the run stays failed.
    #[test]
    fn a_failing_resolution_stops_the_scan_stepper() {
        let mut p = Program::default();
        let res = p.add_function(FnDecl {
            name: "div0".into(),
            n_params: 1,
            n_locals: 1,
            code: Arc::new(vec![
                Insn::PushInt(1),
                Insn::PushInt(0),
                Insn::Binop(Op::Div),
                Insn::Ret { has_value: true },
            ]),
            level: 1,
        });
        let bus = p.add_signal("top.bus", Val::Int(0));
        p.signals[bus.0 as usize].resolution = Some(res);
        for name in ["top.d0", "top.d1"] {
            let sched = Insn::Sched {
                sig: bus,
                transport: false,
            };
            p.add_process(
                name,
                0,
                vec![Insn::PushInt(1), Insn::PushInt(1), sched, Insn::Halt],
            );
        }
        let mut sim = Simulator::new(p);
        let err = sim.ref_run_slice(Time::fs(10), u64::MAX).unwrap_err();
        assert_eq!(
            err.to_string(),
            "runtime error in resolution of top.bus: division by zero"
        );
        for _ in 0..3 {
            let again = sim.ref_run_slice(Time::fs(10), 1).unwrap_err();
            assert_eq!(again.to_string(), err.to_string());
        }
        assert!(matches!(
            sim.checkpoint(),
            Err(crate::snapshot::SnapshotError::Failed(_))
        ));
    }

    fn slot(n: u16) -> VarAddr {
        VarAddr { depth: 0, slot: n }
    }

    /// A clock oscillator plus `n` processes woken together on every
    /// clock edge, each folding `iters` loop rounds (17 instructions
    /// each) into its own output signal per activation.
    fn looping(n: usize, iters: i64) -> Program {
        let mut p = Program::default();
        let clk = p.add_signal("top.clk", Val::Int(0));
        p.add_process(
            "top.osc",
            0,
            vec![
                Insn::LoadSig(clk),
                Insn::Unop(Op::Not),
                Insn::PushInt(1_000),
                Insn::Sched {
                    sig: clk,
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![clk]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
        for i in 0..n {
            let out = p.add_signal(format!("top.out{i}"), Val::Int(0));
            let (acc, k) = (slot(0), slot(1));
            p.add_process(
                format!("top.w{i}"),
                2,
                vec![
                    Insn::PushInt(0),
                    Insn::StoreVar(k),
                    Insn::LoadVar(k), // 2: loop
                    Insn::PushInt(iters),
                    Insn::Binop(Op::Lt),
                    Insn::JumpIfFalse(19),
                    Insn::LoadVar(acc),
                    Insn::LoadVar(k),
                    Insn::PushInt(i as i64 + 1),
                    Insn::Binop(Op::Mul),
                    Insn::Binop(Op::Add),
                    Insn::PushInt(1_000_003),
                    Insn::Binop(Op::Mod),
                    Insn::StoreVar(acc),
                    Insn::LoadVar(k),
                    Insn::PushInt(1),
                    Insn::Binop(Op::Add),
                    Insn::StoreVar(k),
                    Insn::Jump(2),
                    Insn::LoadVar(acc), // 19: exit
                    Insn::PushInt(500),
                    Insn::Sched {
                        sig: out,
                        transport: false,
                    },
                    Insn::Wait {
                        sens: Arc::new(vec![clk]),
                        with_timeout: false,
                    },
                    Insn::Pop,
                    Insn::Jump(0),
                ],
            );
        }
        p
    }

    /// Runs `p` to 50 clock periods at `jobs` workers with a VCD
    /// observer and tracing on; returns the observables and how many
    /// worker pools the run spawned.
    fn run(p: &Program, jobs: usize) -> (Observables, u64) {
        ag_harness::trace::reset();
        ag_harness::trace::set_enabled(true);
        let vcd = RefCell::new(Vcd::new("1fs"));
        let mut sim = Simulator::new(p.clone());
        sim.set_jobs(jobs);
        sim.observe(Box::new(|t, sig, name, v| {
            vcd.borrow_mut().change(t, sig, name, v);
        }));
        let outcome = sim.run_slice(Time::fs(50_000), u64::MAX, &mut || false);
        let obs = Observables::of(&sim, &outcome, vcd.borrow().finish());
        let spawns = ag_harness::trace::counter_value("pool-spawn");
        ag_harness::trace::set_enabled(false);
        (obs, spawns)
    }

    #[test]
    fn light_cycles_never_spawn_the_pool() {
        let p = looping(8, 4);
        let (seq, _) = run(&p, 1);
        let (par, spawns) = run(&p, 4);
        assert_eq!(spawns, 0, "a light design opened the pool gate");
        assert_eq!(par, seq);
        assert!(seq.stats.cycles > 50, "{:?}", seq.stats);
    }

    #[test]
    fn oracle_cells_force_light_cycles_onto_the_pool() {
        use crate::oracle::{run_cell, Cell, Engine};
        ag_harness::trace::reset();
        ag_harness::trace::set_enabled(true);
        let cell = Cell::solid(Engine::Interp, 4);
        run_cell(&looping(8, 4), Time::fs(50_000), &[u64::MAX], cell, None).expect("runs");
        let spawns = ag_harness::trace::counter_value("pool-spawn");
        ag_harness::trace::set_enabled(false);
        assert_eq!(spawns, 1, "the oracle's jobs-4 cell ran its cycles inline");
    }

    #[test]
    fn heavy_cycles_run_on_the_pool_and_match_jobs1() {
        // Four processes of ~3,400 instructions each: ~13.6k per cycle.
        let p = looping(4, 200);
        let (seq, _) = run(&p, 1);
        for jobs in [2, 4] {
            let (par, spawns) = run(&p, jobs);
            assert_eq!(spawns, 1, "jobs={jobs}: the pool gate stayed shut");
            assert_eq!(par, seq, "jobs={jobs}");
        }
        assert!(seq.stats.insns > 50 * 4 * 3_000, "{:?}", seq.stats);
    }

    #[test]
    fn checkpoint_is_the_same_whichever_path_ran() {
        let blob = |jobs| {
            let mut sim = Simulator::new(looping(4, 200));
            sim.set_jobs(jobs);
            sim.run_until(Time::fs(20_500)).expect("runs");
            sim.checkpoint().expect("checkpoint")
        };
        assert_eq!(blob(4), blob(1));
    }
}
