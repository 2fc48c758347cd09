//! The compiled process backend: translates each process's `Insn` stream
//! into basic blocks of threaded code ahead of simulation.
//!
//! The paper compiled process bodies to C that was "combined with other
//! elements of the simulation environment"; the interpreter in [`crate::sim`]
//! replays the same stack ISA one instruction at a time instead. This
//! module recovers the compiled form inside the kernel: a one-time pass
//! splits every process (and subprogram) into basic blocks, folds runs of
//! pure value instructions into flat postfix *tapes*, and leaves the side
//! effects (variable stores, driver scheduling, assertions) as explicit
//! steps between them. Blocks end at control transfers; a `Wait` block
//! records the instruction index execution resumes at (`resume_pc`), which
//! is exactly the `Frame::pc` the interpreter would have stored — the two
//! backends can take over from each other at any suspension point.
//!
//! Tapes whose every operation stays in the integer domain additionally
//! run on a raw `i64` stack with no `Val` boxing; a type guard on every
//! local/signal leaf bails out to the generic evaluator when the runtime
//! value is not an integer, so the fast path never has to be *proven*
//! type-safe, only checked. Each tape operation corresponds to exactly one
//! source instruction and is charged one unit of fuel when evaluated, in
//! original program order, so instruction counts, fuel exhaustion, and
//! error points are identical to the interpreter's — the equivalence
//! property suite (`crate::equiv`) holds both backends to byte-identical
//! observables.
//!
//! Shapes the translator cannot prove well-formed (inconsistent stack
//! depths at a join, recursion, code that reads below its own frame's
//! stack base) make the whole process fall back to the interpreter rather
//! than risk divergence; `fallback_procs` in the statistics counts them.

use std::sync::Arc;

use crate::isa::{ArrAttrKind, FnId, Insn, Program, SigAttr, SigId, VarAddr};
use crate::rts::Op;
use crate::value::{VDir, Val};

/// One postfix tape operation. Every variant corresponds 1:1 to a pure
/// value instruction of the ISA, so evaluating a tape charges the same
/// fuel in the same order as interpreting the run it was folded from.
#[derive(Clone, Debug)]
pub(crate) enum EOp {
    /// Integer literal (`PushInt`, or `PushConst` of an integer).
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Shared constant.
    Const(Val),
    /// Local variable load (type-guarded on the integer fast path).
    Local(VarAddr),
    /// Signal effective value (type-guarded on the integer fast path).
    Sig(SigId),
    /// Signal attribute.
    Attr(SigId, SigAttr),
    /// Aggregate: pop `n`, push an array.
    MakeArr {
        /// Element count.
        n: u16,
        /// Left bound.
        left: i64,
        /// Direction.
        dir: VDir,
    },
    /// Aggregate: pop `n`, push a record.
    MakeRec {
        /// Field count.
        n: u16,
    },
    /// Pop index and array, push element.
    Index,
    /// Pop right, left, array; push slice.
    Slice(VDir),
    /// Pop record, push field.
    Field(u16),
    /// Pop array, push bound attribute.
    ArrAttr(ArrAttrKind),
    /// Binary runtime-support op.
    Binop(Op),
    /// Unary runtime-support op.
    Unop(Op),
    /// Bounds trap; value stays on the tape stack.
    RangeCheck {
        /// Low bound.
        lo: i64,
        /// High bound.
        hi: i64,
    },
}

/// A folded run of pure value instructions, evaluated on demand at its
/// consumer.
#[derive(Clone, Debug)]
pub(crate) struct Tape {
    /// Postfix operations, in original program order.
    pub(crate) ops: Vec<EOp>,
    /// Every operation has an integer-domain interpretation, so the
    /// `i64` fast path may be attempted (leaf guards still apply).
    pub(crate) int_ok: bool,
    /// The integer fast-path form, built by [`finalize_tapes`] once the
    /// tape stops growing: compact, immediate-fused, cache-friendly.
    pub(crate) int_tape: Option<IntTape>,
}

impl Tape {
    fn new(ops: Vec<EOp>, int_ok: bool) -> Tape {
        Tape {
            ops,
            int_ok,
            int_tape: None,
        }
    }
}

/// One operation of the integer fast path. Unlike [`EOp`] these are
/// small (16 bytes), carry no `Val` payloads, and fuse a pushed
/// immediate into the binop that consumes it — the shape integer
/// expression code overwhelmingly takes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum IntOp {
    /// Push an immediate.
    Imm(i64),
    /// Push a local (bails to the generic path on a non-integer).
    Local(VarAddr),
    /// Push a signal's effective value (same guard).
    Sig(SigId),
    /// Push a signal attribute (guard on `'last_value`).
    Attr(SigId, SigAttr),
    /// Pop two, push the result.
    Binop(Op),
    /// Pop one, combine with the fused immediate right operand
    /// (`x op k`): a folded `[Imm k, Binop op]` pair.
    BinopImm(Op, i64),
    /// `BinopImm(Add, k)`, split out so the checked add inlines into
    /// the dispatch loop instead of going through `int_binop`.
    AddImm(i64),
    /// `BinopImm(Mul, k)`, same rationale.
    MulImm(i64),
    /// Strength-reduced `x mod 2^n` for `n >= 0`: push `x & mask` with
    /// `mask = 2^n - 1`. Exact for every `x`: VHDL `mod` by a positive
    /// divisor yields the euclidean remainder, which for a power-of-two
    /// divisor is the low bits of the two's-complement representation.
    ModMask(i64),
    /// Pop one, push the result.
    Unop(Op),
    /// Trap when the top of the stack leaves `lo..=hi`.
    RangeCheck(i64, i64),
}

/// The compact integer form of a whole tape, plus the bookkeeping that
/// keeps its fuel accounting bit-identical to the unfused evaluation.
#[derive(Clone, Debug)]
pub(crate) struct IntTape {
    /// Fused operations.
    pub(crate) ops: Vec<IntOp>,
    /// Per fused op: how many *source* operations have completed once
    /// it finishes — the exact fuel to charge when it faults. Cold;
    /// only read on the error path.
    pub(crate) ends: Vec<u32>,
    /// Source operation count (the fuel charged on success).
    pub(crate) cost: u64,
    /// Peak value-stack depth, for one up-front reserve.
    pub(crate) max_depth: usize,
}

/// Lowers an `int_ok` tape's ops into the fused integer form. Returns
/// `None` for any op outside the integer domain (defensive: `int_ok`
/// construction should already exclude them).
fn build_int_tape(ops: &[EOp]) -> Option<IntTape> {
    let mut out: Vec<IntOp> = Vec::with_capacity(ops.len());
    let mut ends: Vec<u32> = Vec::with_capacity(ops.len());
    let mut depth = 0usize;
    let mut max_depth = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let end = (i + 1) as u32;
        match op {
            EOp::Int(v) => {
                out.push(IntOp::Imm(*v));
                depth += 1;
            }
            EOp::Local(a) => {
                out.push(IntOp::Local(*a));
                depth += 1;
            }
            EOp::Sig(s) => {
                out.push(IntOp::Sig(*s));
                depth += 1;
            }
            EOp::Attr(s, a) => {
                out.push(IntOp::Attr(*s, *a));
                depth += 1;
            }
            EOp::Binop(op) => {
                depth = depth.checked_sub(2)? + 1;
                if let Some(IntOp::Imm(k)) = out.last().copied() {
                    out.pop();
                    ends.pop();
                    out.push(match op {
                        Op::Mod if k > 0 && k.count_ones() == 1 => IntOp::ModMask(k - 1),
                        Op::Add => IntOp::AddImm(k),
                        Op::Mul | Op::MulRev => IntOp::MulImm(k),
                        _ => IntOp::BinopImm(*op, k),
                    });
                } else {
                    out.push(IntOp::Binop(*op));
                }
            }
            EOp::Unop(op) => {
                depth.checked_sub(1)?;
                out.push(IntOp::Unop(*op));
            }
            EOp::RangeCheck { lo, hi } => {
                depth.checked_sub(1)?;
                out.push(IntOp::RangeCheck(*lo, *hi));
            }
            _ => return None,
        }
        ends.push(end);
        max_depth = max_depth.max(depth);
    }
    out.shrink_to_fit();
    ends.shrink_to_fit();
    Some(IntTape {
        ops: out,
        ends,
        cost: ops.len() as u64,
        max_depth,
    })
}

/// Attaches the fused integer form to every `int_ok` tape in a finished
/// unit. Runs once the tapes stop growing (they are assembled
/// incrementally during abstract interpretation).
fn finalize_tapes(blocks: &mut [Block]) {
    fn fin(t: &mut Tape) {
        if t.int_ok {
            t.int_tape = build_int_tape(&t.ops);
        }
    }
    fn fin_arg(a: &mut Arg) {
        if let Arg::T(t) = a {
            fin(t);
        }
    }
    for b in blocks {
        for s in &mut b.steps {
            match s {
                Step::Push(t) | Step::Drop(t) => fin(t),
                Step::Store { val, .. } | Step::StoreField { val, .. } => fin_arg(val),
                Step::StoreIndex { idx, val, .. } => {
                    fin_arg(idx);
                    fin_arg(val);
                }
                Step::Sched { val, delay, .. } => {
                    fin_arg(val);
                    fin_arg(delay);
                }
                Step::SchedIndex {
                    idx, val, delay, ..
                } => {
                    fin_arg(idx);
                    fin_arg(val);
                    fin_arg(delay);
                }
                Step::Assert {
                    cond,
                    report,
                    severity,
                    ..
                } => {
                    fin_arg(cond);
                    fin_arg(report);
                    fin_arg(severity);
                }
                Step::PopRt | Step::Raw(_) => {}
            }
        }
        match &mut b.term {
            Term::Branch { cond, .. } => fin_arg(cond),
            Term::Wait {
                timeout: Some(a), ..
            } => fin_arg(a),
            _ => {}
        }
    }
}

/// An operand of a step or terminator: either already materialized on the
/// process value stack (`Rt`) or a deferred tape evaluated in place.
#[derive(Clone, Debug)]
pub(crate) enum Arg {
    /// Pop the process value stack.
    Rt,
    /// Evaluate this tape.
    T(Tape),
}

/// One side-effecting (or stack-shuffling) step inside a block.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// Materialize a tape onto the process value stack (its value is
    /// consumed across a block boundary or by a stack-order-sensitive
    /// instruction).
    Push(Tape),
    /// `Pop` of a materialized value.
    PopRt,
    /// `Pop` of a deferred tape: evaluate (for its faults and fuel) and
    /// discard.
    Drop(Tape),
    /// Execute one instruction interpreter-style on the process value
    /// stack (operands were materialized).
    Raw(Insn),
    /// `StoreVar`.
    Store {
        /// Target.
        addr: VarAddr,
        /// Value (top of stack).
        val: Arg,
    },
    /// `StoreVarIndex`: pops value, then index.
    StoreIndex {
        /// Target.
        addr: VarAddr,
        /// Element index.
        idx: Arg,
        /// Value.
        val: Arg,
    },
    /// `StoreVarField`: pops value.
    StoreField {
        /// Target.
        addr: VarAddr,
        /// Field number.
        field: u16,
        /// Value.
        val: Arg,
    },
    /// `Sched`: pops delay, then value.
    Sched {
        /// Target signal.
        sig: SigId,
        /// Transport vs inertial.
        transport: bool,
        /// Scheduled value.
        val: Arg,
        /// Delay in fs (−1 = delta).
        delay: Arg,
    },
    /// `SchedIndex`: pops delay, value, index.
    SchedIndex {
        /// Target signal.
        sig: SigId,
        /// Transport vs inertial.
        transport: bool,
        /// Element index.
        idx: Arg,
        /// Scheduled value.
        val: Arg,
        /// Delay in fs.
        delay: Arg,
    },
    /// `Assert`: pops severity, report, condition; may end the activation.
    Assert {
        /// Condition (false = report).
        cond: Arg,
        /// Message value.
        report: Arg,
        /// Severity (3 = failure).
        severity: Arg,
        /// `Frame::pc` to record when a failure halts the process.
        pc_after: u32,
    },
}

/// How a block ends.
#[derive(Clone, Debug)]
pub(crate) enum Term {
    /// Explicit `Jump` (charges one instruction).
    Jump(u32),
    /// Fallthrough into the next block (free: no source instruction).
    Fall(u32),
    /// `JumpIfFalse`.
    Branch {
        /// Condition operand.
        cond: Arg,
        /// Block when the condition is false.
        on_false: u32,
        /// Block when the condition is true (fallthrough).
        next: u32,
    },
    /// `Wait`: suspend; execution resumes at `resume_pc` / `resume_block`.
    Wait {
        /// Sensitivity set.
        sens: Arc<Vec<SigId>>,
        /// Timeout operand, when present.
        timeout: Option<Arg>,
        /// Instruction index stored into `Frame::pc` at suspension — the
        /// interpreter-compatible resume point (always a leader; the
        /// engine re-enters through `Unit::leader`).
        resume_pc: u32,
    },
    /// `Call`: push a frame, continue in the callee's unit.
    Call {
        /// Callee.
        f: FnId,
        /// Caller `Frame::pc` after the call (a block leader).
        ret_pc: u32,
    },
    /// `Ret`: pop a frame (halt when it is the process frame).
    Ret {
        /// `Frame::pc` recorded on a process-level return.
        end_pc: u32,
    },
    /// `Halt`.
    Halt {
        /// `Frame::pc` recorded at the halt.
        end_pc: u32,
    },
    /// Ran past the end of the code: return from a subprogram, halt a
    /// process. Charges nothing (the interpreter's fetch fails before the
    /// fuel is touched).
    FallOff {
        /// `Frame::pc` recorded on a process-level fall-off.
        end_pc: u32,
    },
    /// Unreachable block (jump-target bookkeeping only).
    Dead,
}

/// A basic block: zero or more steps, then a terminator.
#[derive(Debug)]
pub(crate) struct Block {
    /// Steps, in order.
    pub(crate) steps: Vec<Step>,
    /// Exit.
    pub(crate) term: Term,
}

/// One compiled code unit (a process body or a subprogram body).
#[derive(Debug)]
pub(crate) struct Unit {
    /// Blocks, in leader order.
    pub(crate) blocks: Vec<Block>,
    /// Instruction index → block index for every leader; `u32::MAX`
    /// elsewhere. Length `code.len() + 1` (the end is a leader).
    pub(crate) leader: Vec<u32>,
    /// Every subprogram this unit calls (for transitive fallback).
    pub(crate) calls: Vec<FnId>,
    /// For subprograms: net value-stack effect of a call, when every exit
    /// agrees (callers need it to keep tracking stack depths).
    pub(crate) net: Option<isize>,
}

/// The whole program, compiled. Unit `i` for `i < n_procs` is process
/// `i`; unit `n_procs + f` is subprogram `f`.
#[derive(Debug)]
pub(crate) struct CompiledProgram {
    /// Compiled units; `None` marks an interpreter-fallback unit.
    pub(crate) units: Vec<Option<Unit>>,
    /// Process count (units below this index are processes).
    pub(crate) n_procs: usize,
    /// Per process: may it run compiled (its unit and every transitively
    /// called unit compiled successfully)?
    pub(crate) proc_ok: Vec<bool>,
    /// Processes forced onto the interpreter.
    pub(crate) n_fallback: u64,
}

impl CompiledProgram {
    /// Unit index for a subprogram.
    pub(crate) fn fn_unit(&self, f: FnId) -> usize {
        self.n_procs + f.0 as usize
    }
}

/// Compiles every process and subprogram of `prog`. Infallible: shapes
/// the translator cannot handle become per-process interpreter fallbacks.
pub(crate) fn compile(prog: &Program) -> CompiledProgram {
    let n_procs = prog.processes.len();
    let mut c = Compiler {
        prog,
        fn_done: vec![FnState::NotStarted; prog.functions.len()],
        fn_units: Vec::new(),
    };
    c.fn_units = (0..prog.functions.len()).map(|_| None).collect();
    // Subprograms first (callers need their net stack effect), then
    // processes.
    for f in 0..prog.functions.len() {
        c.fn_net(FnId(f as u32));
    }
    let mut units: Vec<Option<Unit>> = Vec::with_capacity(n_procs + prog.functions.len());
    for p in &prog.processes {
        units.push(c.build_unit(&p.code, false).ok());
    }
    for fu in std::mem::take(&mut c.fn_units) {
        units.push(fu);
    }
    // A process runs compiled only when its unit and every transitively
    // reachable callee unit compiled.
    let mut proc_ok = vec![false; n_procs];
    for (pi, ok) in proc_ok.iter_mut().enumerate() {
        *ok = closure_ok(&units, n_procs, pi);
    }
    let n_fallback = proc_ok.iter().filter(|ok| !**ok).count() as u64;
    CompiledProgram {
        units,
        n_procs,
        proc_ok,
        n_fallback,
    }
}

/// Is every unit reachable from process `pi` through `Call` compiled?
fn closure_ok(units: &[Option<Unit>], n_procs: usize, pi: usize) -> bool {
    let mut seen = vec![pi];
    let mut work = vec![pi];
    while let Some(u) = work.pop() {
        let Some(unit) = units.get(u).and_then(|u| u.as_ref()) else {
            return false;
        };
        for f in &unit.calls {
            let fu = n_procs + f.0 as usize;
            if !seen.contains(&fu) {
                seen.push(fu);
                work.push(fu);
            }
        }
    }
    true
}

#[derive(Clone, Copy, PartialEq)]
enum FnState {
    NotStarted,
    InProgress,
    Done(Option<isize>),
}

struct Compiler<'p> {
    prog: &'p Program,
    fn_done: Vec<FnState>,
    fn_units: Vec<Option<Unit>>,
}

impl Compiler<'_> {
    /// Net value-stack effect of calling subprogram `f`, compiling its
    /// unit on first use. `None` (unknown: recursion, fallback, or
    /// disagreeing exits) makes the *caller* fall back.
    fn fn_net(&mut self, f: FnId) -> Option<isize> {
        let i = f.0 as usize;
        match self.fn_done[i] {
            FnState::Done(net) => net,
            FnState::InProgress => None, // recursion: depth unknowable
            FnState::NotStarted => {
                self.fn_done[i] = FnState::InProgress;
                let code = Arc::clone(&self.prog.functions[i].code);
                let built = self.build_unit(&code, true).ok();
                let net = built.as_ref().and_then(|u| u.net);
                self.fn_units[i] = built;
                self.fn_done[i] = FnState::Done(net);
                net
            }
        }
    }

    /// Translates one code body into blocks, or reports why it cannot be.
    fn build_unit(&mut self, code: &[Insn], is_fn: bool) -> Result<Unit, String> {
        let len = code.len();
        // Leaders: entry, the end, every jump target, and the instruction
        // after every control transfer.
        let mut is_leader = vec![false; len + 1];
        is_leader[0] = true;
        is_leader[len] = true;
        for (pc, insn) in code.iter().enumerate() {
            match insn {
                Insn::Jump(t) | Insn::JumpIfFalse(t) => {
                    is_leader[(*t as usize).min(len)] = true;
                    is_leader[pc + 1] = true;
                }
                Insn::Wait { .. } | Insn::Call(_) | Insn::Ret { .. } | Insn::Halt => {
                    is_leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        let mut leader = vec![u32::MAX; len + 1];
        let mut starts: Vec<usize> = Vec::new();
        for (pc, l) in is_leader.iter().enumerate() {
            if *l {
                leader[pc] = starts.len() as u32;
                starts.push(pc);
            }
        }
        let n_blocks = starts.len();
        let block_of = |pc: usize| leader[pc.min(len)];
        // Depth-tracking worklist from the entry block; each block is
        // translated on first reach, when its entry depth is known.
        let mut entry: Vec<Option<usize>> = vec![None; n_blocks];
        let mut blocks: Vec<Option<Block>> = (0..n_blocks).map(|_| None).collect();
        let mut calls: Vec<FnId> = Vec::new();
        let mut exits: Vec<isize> = Vec::new(); // fn net candidates
        let mut work: Vec<u32> = Vec::new();
        entry[block_of(0) as usize] = Some(0);
        work.push(block_of(0));
        while let Some(bi) = work.pop() {
            if blocks[bi as usize].is_some() {
                continue;
            }
            let start = starts[bi as usize];
            let end = starts.get(bi as usize + 1).copied().unwrap_or(len).min(len);
            let depth = entry[bi as usize].expect("reached block has a depth");
            let (block, succs, exit) =
                self.sim_block(code, start, end, depth, &block_of, &mut calls)?;
            for (succ, d) in succs {
                let s = succ as usize;
                match entry[s] {
                    Some(prev) if prev != d => {
                        return Err(format!(
                            "join at block {s} with disagreeing stack depths {prev} vs {d}"
                        ));
                    }
                    Some(_) => {}
                    None => {
                        entry[s] = Some(d);
                        work.push(succ);
                    }
                }
            }
            if let Some(e) = exit {
                exits.push(e);
            }
            blocks[bi as usize] = Some(block);
        }
        let mut blocks: Vec<Block> = blocks
            .into_iter()
            .map(|b| {
                b.unwrap_or(Block {
                    steps: Vec::new(),
                    term: Term::Dead,
                })
            })
            .collect();
        finalize_tapes(&mut blocks);
        calls.sort_unstable_by_key(|f| f.0);
        calls.dedup();
        let net = if is_fn && exits.windows(2).all(|w| w[0] == w[1]) {
            exits.first().copied()
        } else {
            None
        };
        Ok(Unit {
            blocks,
            leader,
            calls,
            net,
        })
    }

    /// Translates the instruction range `[start, end)` given its entry
    /// stack depth. Returns the block, its successors with their entry
    /// depths, and — when the block exits the unit — the exit depth.
    #[allow(clippy::too_many_lines)]
    fn sim_block(
        &mut self,
        code: &[Insn],
        start: usize,
        end: usize,
        entry_depth: usize,
        block_of: &dyn Fn(usize) -> u32,
        calls: &mut Vec<FnId>,
    ) -> Result<(Block, Vec<(u32, usize)>, Option<isize>), String> {
        enum E {
            Rt,
            T(Tape),
        }
        let mut abs: Vec<E> = (0..entry_depth).map(|_| E::Rt).collect();
        let mut steps: Vec<Step> = Vec::new();
        // Materialize every deferred tape except the top `keep` entries
        // (pending values that cross a side effect or a block boundary
        // must exist on the real stack, in program order).
        fn materialize(abs: &mut [E], steps: &mut Vec<Step>, keep: usize) {
            let upto = abs.len().saturating_sub(keep);
            for e in abs.iter_mut().take(upto) {
                if let E::T(tape) = std::mem::replace(e, E::Rt) {
                    steps.push(Step::Push(tape));
                }
            }
        }
        // Pop one operand as a step/terminator argument.
        fn pop_arg(abs: &mut Vec<E>) -> Result<Arg, String> {
            match abs.pop() {
                Some(E::Rt) => Ok(Arg::Rt),
                Some(E::T(t)) => Ok(Arg::T(t)),
                None => Err("value-stack underflow during translation".into()),
            }
        }
        // Fold the top `n` operands and `op` into one tape; when any
        // operand is already materialized, fall back to a Raw step so the
        // real stack keeps interpreter order.
        fn combine(
            abs: &mut Vec<E>,
            steps: &mut Vec<Step>,
            n: usize,
            op: EOp,
            int_op: bool,
            insn: &Insn,
        ) -> Result<(), String> {
            if abs.len() < n {
                return Err("value-stack underflow during translation".into());
            }
            let all_tapes = abs[abs.len() - n..].iter().all(|e| matches!(e, E::T(_)));
            if all_tapes {
                let mut ops = Vec::new();
                let mut int_ok = int_op;
                for e in abs.drain(abs.len() - n..) {
                    let E::T(t) = e else { unreachable!() };
                    int_ok &= t.int_ok;
                    ops.extend(t.ops);
                }
                ops.push(op);
                abs.push(E::T(Tape::new(ops, int_ok)));
            } else {
                materialize(abs, steps, 0);
                steps.push(Step::Raw(insn.clone()));
                abs.truncate(abs.len() - n);
                abs.push(E::Rt);
            }
            Ok(())
        }
        fn leaf(abs: &mut Vec<E>, op: EOp, int_ok: bool) {
            abs.push(E::T(Tape::new(vec![op], int_ok)));
        }
        let int_binop = |op: Op| {
            use Op::*;
            matches!(
                op,
                Add | Sub
                    | Mul
                    | MulRev
                    | Div
                    | DivPhys
                    | Mod
                    | Rem
                    | Pow
                    | Eq
                    | Ne
                    | Lt
                    | Le
                    | Gt
                    | Ge
                    | And
                    | Or
                    | Nand
                    | Nor
                    | Xor
            )
        };
        let int_unop = |op: Op| {
            use Op::*;
            matches!(op, Neg | Pos | Abs | Not | ToInt)
        };
        let mut pc = start;
        while pc < end {
            let insn = &code[pc];
            let next_pc = pc + 1;
            match insn {
                // Pure value producers: defer onto a tape.
                Insn::PushInt(v) => leaf(&mut abs, EOp::Int(*v), true),
                Insn::PushReal(v) => leaf(&mut abs, EOp::Real(*v), false),
                Insn::PushConst(v) => match v {
                    Val::Int(i) => leaf(&mut abs, EOp::Int(*i), true),
                    _ => leaf(&mut abs, EOp::Const(v.clone()), false),
                },
                Insn::LoadVar(a) => leaf(&mut abs, EOp::Local(*a), true),
                Insn::LoadSig(s) => leaf(&mut abs, EOp::Sig(*s), true),
                Insn::LoadSigAttr(s, attr) => leaf(&mut abs, EOp::Attr(*s, *attr), true),
                // Pure combiners.
                Insn::MakeArr { n, left, dir } => combine(
                    &mut abs,
                    &mut steps,
                    *n as usize,
                    EOp::MakeArr {
                        n: *n,
                        left: *left,
                        dir: *dir,
                    },
                    false,
                    insn,
                )?,
                Insn::MakeRec { n } => combine(
                    &mut abs,
                    &mut steps,
                    *n as usize,
                    EOp::MakeRec { n: *n },
                    false,
                    insn,
                )?,
                Insn::Index => combine(&mut abs, &mut steps, 2, EOp::Index, false, insn)?,
                Insn::Slice(dir) => {
                    combine(&mut abs, &mut steps, 3, EOp::Slice(*dir), false, insn)?
                }
                Insn::Field(i) => combine(&mut abs, &mut steps, 1, EOp::Field(*i), false, insn)?,
                Insn::ArrAttr(k) => {
                    combine(&mut abs, &mut steps, 1, EOp::ArrAttr(*k), false, insn)?
                }
                Insn::Binop(op) => {
                    combine(
                        &mut abs,
                        &mut steps,
                        2,
                        EOp::Binop(*op),
                        int_binop(*op),
                        insn,
                    )?;
                }
                Insn::Unop(op) => {
                    combine(&mut abs, &mut steps, 1, EOp::Unop(*op), int_unop(*op), insn)?;
                }
                Insn::RangeCheck { lo, hi } => match abs.last_mut() {
                    Some(E::T(t)) => {
                        t.ops.push(EOp::RangeCheck { lo: *lo, hi: *hi });
                    }
                    Some(E::Rt) => steps.push(Step::Raw(insn.clone())),
                    None => return Err("value-stack underflow during translation".into()),
                },
                Insn::Dup => {
                    if abs.is_empty() {
                        return Err("value-stack underflow during translation".into());
                    }
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::Raw(Insn::Dup));
                    abs.push(E::Rt);
                }
                Insn::Pop => match pop_arg(&mut abs)? {
                    Arg::Rt => steps.push(Step::PopRt),
                    Arg::T(t) => {
                        materialize(&mut abs, &mut steps, 0);
                        steps.push(Step::Drop(t));
                    }
                },
                // Side effects: pop args, materialize the rest, emit a step.
                Insn::StoreVar(a) => {
                    let val = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::Store { addr: *a, val });
                }
                Insn::StoreVarIndex(a) => {
                    let val = pop_arg(&mut abs)?;
                    let idx = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::StoreIndex { addr: *a, idx, val });
                }
                Insn::StoreVarField(a, field) => {
                    let val = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::StoreField {
                        addr: *a,
                        field: *field,
                        val,
                    });
                }
                Insn::Sched { sig, transport } => {
                    let delay = pop_arg(&mut abs)?;
                    let val = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::Sched {
                        sig: *sig,
                        transport: *transport,
                        val,
                        delay,
                    });
                }
                Insn::SchedIndex { sig, transport } => {
                    let delay = pop_arg(&mut abs)?;
                    let val = pop_arg(&mut abs)?;
                    let idx = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::SchedIndex {
                        sig: *sig,
                        transport: *transport,
                        idx,
                        val,
                        delay,
                    });
                }
                Insn::Assert => {
                    let severity = pop_arg(&mut abs)?;
                    let report = pop_arg(&mut abs)?;
                    let cond = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    steps.push(Step::Assert {
                        cond,
                        report,
                        severity,
                        pc_after: next_pc as u32,
                    });
                }
                // Terminators.
                Insn::Jump(t) => {
                    materialize(&mut abs, &mut steps, 0);
                    let to = block_of(*t as usize);
                    return Ok((
                        Block {
                            steps,
                            term: Term::Jump(to),
                        },
                        vec![(to, abs.len())],
                        None,
                    ));
                }
                Insn::JumpIfFalse(t) => {
                    let cond = pop_arg(&mut abs)?;
                    materialize(&mut abs, &mut steps, 0);
                    let on_false = block_of(*t as usize);
                    let next = block_of(next_pc);
                    return Ok((
                        Block {
                            steps,
                            term: Term::Branch {
                                cond,
                                on_false,
                                next,
                            },
                        },
                        vec![(on_false, abs.len()), (next, abs.len())],
                        None,
                    ));
                }
                Insn::Wait { sens, with_timeout } => {
                    let timeout = if *with_timeout {
                        Some(pop_arg(&mut abs)?)
                    } else {
                        None
                    };
                    materialize(&mut abs, &mut steps, 0);
                    let resume_block = block_of(next_pc);
                    // The scheduler pushes the timed-out flag at resumption.
                    let succs = vec![(resume_block, abs.len() + 1)];
                    return Ok((
                        Block {
                            steps,
                            term: Term::Wait {
                                sens: Arc::clone(sens),
                                timeout,
                                resume_pc: next_pc as u32,
                            },
                        },
                        succs,
                        None,
                    ));
                }
                Insn::Call(f) => {
                    // Arguments travel on the real stack; the callee's net
                    // effect keeps the depth tracking going.
                    materialize(&mut abs, &mut steps, 0);
                    calls.push(*f);
                    let n_params = self.prog.functions[f.0 as usize].n_params as usize;
                    if abs.len() < n_params {
                        return Err("value-stack underflow during translation".into());
                    }
                    let net = self.fn_net(*f).ok_or_else(|| {
                        format!(
                            "callee {} has unknown stack effect",
                            self.prog.functions[f.0 as usize].name
                        )
                    })?;
                    let after = abs.len() as isize - n_params as isize + net;
                    let after = usize::try_from(after)
                        .map_err(|_| "value-stack underflow during translation".to_string())?;
                    let ret = block_of(next_pc);
                    return Ok((
                        Block {
                            steps,
                            term: Term::Call {
                                f: *f,
                                ret_pc: next_pc as u32,
                            },
                        },
                        vec![(ret, after)],
                        None,
                    ));
                }
                Insn::Ret { has_value: _ } => {
                    materialize(&mut abs, &mut steps, 0);
                    // Exit depth is absolute: unit-level tracking starts
                    // at 0, so this IS the call's net stack effect.
                    return Ok((
                        Block {
                            steps,
                            term: Term::Ret {
                                end_pc: next_pc as u32,
                            },
                        },
                        Vec::new(),
                        Some(abs.len() as isize),
                    ));
                }
                Insn::Halt => {
                    materialize(&mut abs, &mut steps, 0);
                    return Ok((
                        Block {
                            steps,
                            term: Term::Halt {
                                end_pc: next_pc as u32,
                            },
                        },
                        Vec::new(),
                        None,
                    ));
                }
            }
            pc = next_pc;
        }
        // No terminator in the range: fall through to the next leader, or
        // off the end of the code.
        materialize(&mut abs, &mut steps, 0);
        if pc >= code.len() {
            // The end pseudo-block (or a block ending exactly at the
            // code's end): running past the last instruction returns from
            // a subprogram / halts a process.
            return Ok((
                Block {
                    steps,
                    term: Term::FallOff { end_pc: pc as u32 },
                },
                Vec::new(),
                Some(abs.len() as isize),
            ));
        }
        let to = block_of(pc);
        Ok((
            Block {
                steps,
                term: Term::Fall(to),
            },
            vec![(to, abs.len())],
            None,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Insn;

    fn slot(n: u16) -> VarAddr {
        VarAddr { depth: 0, slot: n }
    }

    /// The canonical oscillator shape compiles into blocks with a folded
    /// tape feeding the scheduler step and an explicit wait terminator.
    #[test]
    fn oscillator_shape_compiles() {
        let mut p = Program::default();
        let clk = p.add_signal("clk", Val::Int(0));
        p.add_process(
            "osc",
            1,
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
        let cp = compile(&p);
        assert_eq!(cp.n_procs, 1);
        assert!(cp.proc_ok[0], "oscillator must compile");
        assert_eq!(cp.n_fallback, 0);
        let unit = cp.units[0].as_ref().unwrap();
        // Entry block: one Sched step (value + delay as tapes), Wait term.
        let b0 = &unit.blocks[unit.leader[0] as usize];
        assert!(matches!(b0.term, Term::Wait { resume_pc: 5, .. }));
        assert!(
            matches!(
                &b0.steps[..],
                [Step::Sched {
                    val: Arg::T(_),
                    delay: Arg::T(_),
                    ..
                }]
            ),
            "sched consumes deferred tapes: {:?}",
            b0.steps
        );
        // Resume block: pop the timed-out flag, jump back to the entry.
        let b1 = &unit.blocks[unit.leader[5] as usize];
        assert!(matches!(&b1.steps[..], [Step::PopRt]));
        assert!(matches!(b1.term, Term::Jump(t) if t == unit.leader[0]));
    }

    /// Integer-only expressions fold into `int_ok` tapes; array ops do
    /// not.
    #[test]
    fn int_tapes_are_marked() {
        let mut p = Program::default();
        p.add_process(
            "arith",
            1,
            vec![
                Insn::LoadVar(slot(0)),
                Insn::PushInt(3),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                Insn::Halt,
            ],
        );
        let cp = compile(&p);
        let unit = cp.units[0].as_ref().unwrap();
        let b0 = &unit.blocks[0];
        let Step::Store {
            val: Arg::T(tape), ..
        } = &b0.steps[0]
        else {
            panic!("expected a store of a tape: {:?}", b0.steps);
        };
        assert!(tape.int_ok);
        assert_eq!(tape.ops.len(), 3, "one tape op per instruction");
    }

    /// A stack depth disagreement at a join falls back instead of
    /// compiling wrong code.
    #[test]
    fn inconsistent_join_falls_back() {
        let mut p = Program::default();
        p.add_process(
            "bad",
            1,
            vec![
                // if (v) goto 4; push an extra value; 4: halt — the halt
                // block is reached with depths 0 and 1.
                Insn::LoadVar(slot(0)),
                Insn::JumpIfFalse(4),
                Insn::PushInt(7),
                Insn::Jump(4),
                Insn::Halt,
            ],
        );
        let cp = compile(&p);
        assert!(!cp.proc_ok[0]);
        assert_eq!(cp.n_fallback, 1);
    }

    /// Recursive subprograms poison every calling process, but only those.
    #[test]
    fn recursion_falls_back_transitively() {
        let mut p = Program::default();
        let f = p.add_function(crate::isa::FnDecl {
            name: "rec".into(),
            n_params: 1,
            n_locals: 1,
            code: Arc::new(vec![
                Insn::LoadVar(slot(0)),
                Insn::Call(FnId(0)),
                Insn::Ret { has_value: true },
            ]),
            level: 1,
        });
        p.add_process(
            "caller",
            1,
            vec![Insn::PushInt(1), Insn::Call(f), Insn::Pop, Insn::Halt],
        );
        p.add_process("clean", 1, vec![Insn::Halt]);
        let cp = compile(&p);
        assert!(!cp.proc_ok[0], "recursion cannot be depth-tracked");
        assert!(cp.proc_ok[1], "unrelated process still compiles");
        assert_eq!(cp.n_fallback, 1);
    }

    /// Both backends must exhaust their fuel budget on exactly the same
    /// instruction: the budget is charged per instruction *before*
    /// execution, and bulk-charged integer tapes may not smear that
    /// boundary.
    #[test]
    fn fuel_exhaustion_boundary_identical_across_backends() {
        use crate::sim::{Backend, Simulator};
        use crate::value::Time;
        // A runaway counter loop that never suspends: 5 instructions per
        // iteration, so a 1000-instruction budget dies mid-iteration.
        let mut prog = Program::default();
        prog.add_process(
            "top.spin",
            1,
            vec![
                Insn::LoadVar(slot(0)),
                Insn::PushInt(1),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                Insn::Jump(0),
            ],
        );
        let run = |backend: Backend| {
            let mut sim = Simulator::new(prog.clone());
            sim.set_backend(backend);
            sim.set_fuel_budget(1000);
            let outcome = sim.run_slice(Time::fs(10), u64::MAX, &mut || false);
            let st = sim.stats();
            (outcome.map_err(|e| e.to_string()), st.insns, st.cycles)
        };
        let interp = run(Backend::Interp);
        assert_eq!(
            interp.0,
            Err("process top.spin looped without suspending".to_string())
        );
        assert_eq!(interp.1, 1000, "the exhausting instruction is charged");
        assert_eq!(run(Backend::Compiled), interp);
    }

    /// Values produced before a branch and consumed after it are
    /// materialized onto the real stack and combined via Raw steps.
    #[test]
    fn cross_block_values_materialize() {
        let mut p = Program::default();
        p.add_process(
            "crossing",
            1,
            vec![
                Insn::PushInt(5), // value crossing the branch
                Insn::LoadVar(slot(0)),
                Insn::JumpIfFalse(4),
                Insn::Jump(4),
                Insn::PushInt(2),     // 4:
                Insn::Binop(Op::Add), // consumes the crossing value (Rt)
                Insn::StoreVar(slot(0)),
                Insn::Halt,
            ],
        );
        let cp = compile(&p);
        assert!(cp.proc_ok[0]);
        let unit = cp.units[0].as_ref().unwrap();
        let b0 = &unit.blocks[0];
        assert!(
            matches!(&b0.steps[..], [Step::Push(_)]),
            "crossing value pushed for real: {:?}",
            b0.steps
        );
        let bj = &unit.blocks[unit.leader[4] as usize];
        assert!(
            bj.steps
                .iter()
                .any(|s| matches!(s, Step::Raw(Insn::Binop(_)))),
            "mixed Rt/tape operands combine via Raw: {:?}",
            bj.steps
        );
    }
}
