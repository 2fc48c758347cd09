//! Steady-state allocation budget for the kernel hot loop, measured with
//! the harness counting allocator.
//!
//! The scheduler rewrite put the per-cycle path on an allocation diet:
//! observer callbacks borrow the signal name instead of cloning it, the
//! per-cycle worklists and flag clear-list are reused buffers, and
//! resolution calls reuse a scratch argument vector plus a scratch
//! execution state. Subprogram calls reuse the locals buffers of
//! returned frames and borrow their code. This test pins that down:
//! after a warm-up run (so every reused buffer has reached its steady
//! capacity), a further simulation window must stay within its budget,
//! which is zero everywhere but on the resolution path.
//!
//! One test function on purpose: the counting allocator is process-global,
//! and parallel test threads would bleed into each other's windows.

use std::cell::Cell;
use std::sync::Arc;

use sim_kernel::{FnDecl, Insn, Op, Program, SigId, Simulator, Time, Val, VarAddr};

#[global_allocator]
static ALLOC: ag_harness::alloc::CountingAlloc = ag_harness::alloc::CountingAlloc;

fn slot(n: u16) -> VarAddr {
    VarAddr { depth: 0, slot: n }
}

/// `clk <= not clk after <period>; wait on clk;` — one event per cycle,
/// no resolution.
fn oscillator(period_fs: i64) -> Program {
    let mut p = Program::default();
    let clk = p.add_signal("top.clk", Val::Int(0));
    p.add_process(
        "top.osc",
        0,
        vec![
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(period_fs),
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
    p
}

/// Two drivers on a resolved bus, each toggling every `period_fs` via a
/// wait-for timeout — every cycle runs the resolution function.
fn resolved_bus(period_fs: i64) -> (Program, SigId) {
    let mut p = Program::default();
    let f = p.add_function(FnDecl {
        name: "wired_or".into(),
        n_params: 1,
        n_locals: 3,
        code: Arc::new(vec![
            Insn::PushInt(0),
            Insn::StoreVar(slot(1)),
            Insn::PushInt(0),
            Insn::StoreVar(slot(2)),
            Insn::LoadVar(slot(1)), // 4: loop
            Insn::LoadVar(slot(0)),
            Insn::ArrAttr(sim_kernel::ArrAttrKind::Length),
            Insn::Binop(Op::Lt),
            Insn::JumpIfFalse(20),
            Insn::LoadVar(slot(2)),
            Insn::LoadVar(slot(0)),
            Insn::LoadVar(slot(1)),
            Insn::Index,
            Insn::Binop(Op::Or),
            Insn::StoreVar(slot(2)),
            Insn::LoadVar(slot(1)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(1)),
            Insn::Jump(4),
            Insn::LoadVar(slot(2)), // 20: exit
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    });
    let bus = p.add_signal("top.bus", Val::Int(0));
    p.signals[bus.0 as usize].resolution = Some(f);
    for pi in 0..2 {
        p.add_process(
            format!("top.d{pi}"),
            1,
            vec![
                Insn::LoadVar(slot(0)),
                Insn::PushInt(1),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                Insn::LoadVar(slot(0)),
                Insn::PushInt(2),
                Insn::Binop(Op::Mod),
                Insn::PushInt(-1),
                Insn::Sched {
                    sig: bus,
                    transport: false,
                },
                Insn::PushInt(period_fs),
                Insn::Wait {
                    sens: Arc::new(vec![]),
                    with_timeout: true,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    (p, bus)
}

/// A clock and one registered stage, `q <= step(q, 3)` on each rising
/// edge, where `step(x, g) = (x * 7 + g + 11) mod 1009`.
fn rtl_stage(half_period_fs: i64) -> (Program, SigId) {
    let mut p = Program::default();
    let step = p.add_function(FnDecl {
        name: "step".into(),
        n_params: 2,
        n_locals: 2,
        code: Arc::new(vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(7),
            Insn::Binop(Op::Mul),
            Insn::LoadVar(slot(1)),
            Insn::Binop(Op::Add),
            Insn::PushInt(11),
            Insn::Binop(Op::Add),
            Insn::PushInt(1009),
            Insn::Binop(Op::Mod),
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    });
    let clk = p.add_signal("top.clk", Val::Int(0));
    let q = p.add_signal("top.q", Val::Int(0));
    p.add_process(
        "top.osc",
        0,
        vec![
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(half_period_fs),
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
    p.add_process(
        "top.stage",
        0,
        vec![
            Insn::Wait {
                sens: Arc::new(vec![clk]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::LoadSig(clk),
            Insn::JumpIfFalse(0),
            Insn::LoadSig(q),
            Insn::PushInt(3),
            Insn::Call(step),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: q,
                transport: false,
            },
            Insn::Jump(0),
        ],
    );
    p.finalize_sensitivity();
    (p, q)
}

#[test]
fn steady_state_allocation_budget() {
    // --- Resolved bus: every other cycle calls the resolution function.
    // The scratch reuse leaves one small Arc box per call (the Val::Arr
    // argument is refcounted): 1,000 allocations in this 2,000-cycle
    // window. The seed kernel also re-allocated the argument vector, the
    // function's locals, its frame stack, and a formatted diagnostic
    // name per call. This window runs first because its budget has room
    // for the test harness's own start-up allocations, which can land in
    // the first window of the process.
    let (p, bus) = resolved_bus(1_000);
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(1_000_000)).unwrap(); // warm-up
    let cycles0 = sim.stats().cycles;
    let before = ag_harness::alloc::stats();
    sim.run_until(Time::fs(2_000_000)).unwrap();
    let after = ag_harness::alloc::stats();
    let cycles = sim.stats().cycles - cycles0;
    assert!(cycles >= 999, "window ran: {cycles} cycles");
    let allocs = after.allocations - before.allocations;
    assert!(
        allocs <= cycles * 103 / 200,
        "resolution steady state allocates too much: {allocs} allocations for {cycles} cycles"
    );
    assert_eq!(sim.signal_value(bus), sim.signal_value(bus)); // bus alive

    // --- Oscillator with an observer: the observer must not cost an
    // allocation per event (the seed kernel cloned the signal name and
    // value for every callback).
    let hits = Cell::new(0u64);
    let mut sim = Simulator::new(oscillator(1_000));
    let hits_ref = &hits;
    sim.observe(Box::new(move |_, _, name, _| {
        assert_eq!(name, "top.clk");
        hits_ref.set(hits_ref.get() + 1);
    }));
    sim.run_until(Time::fs(1_000_000)).unwrap(); // warm-up: 1000 events
    let warm_events = hits.get();
    let before = ag_harness::alloc::stats();
    sim.run_until(Time::fs(2_000_000)).unwrap();
    let after = ag_harness::alloc::stats();
    let events = hits.get() - warm_events;
    assert!(events >= 999, "window ran: {events} events");
    let allocs = after.allocations - before.allocations;
    // Steady state: worklists, calendar, flags and the cycle's effects
    // buffer all reuse capacity, and tracing is off. Seed kernel: ≥2
    // allocations per event just for the observer's name + value clones.
    assert_eq!(
        allocs, 0,
        "oscillator steady state allocates: {allocs} allocations for {events} events"
    );

    // --- An RTL pipeline stage: on each rising clock edge the stage
    // calls a two-parameter function and schedules its result, the shape
    // of every stage of `vhdlbench`'s `simulate` pipelines. A warm call
    // reuses a returned frame's locals buffer and borrows its code, so the
    // stage allocates nothing per activation (the seed kernel allocated
    // the argument vector and the locals of every call).
    let (p, q) = rtl_stage(500);
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(1_000_000)).unwrap(); // warm-up
    let res0 = sim.process_resumptions(1);
    let before = ag_harness::alloc::stats();
    sim.run_until(Time::fs(2_000_000)).unwrap();
    let after = ag_harness::alloc::stats();
    let activations = sim.process_resumptions(1) - res0;
    assert!(
        activations >= 1_999,
        "window ran: {activations} activations"
    );
    assert_ne!(sim.signal_value(q), &Val::Int(0), "the stage computed");
    let allocs = after.allocations - before.allocations;
    assert_eq!(
        allocs, 0,
        "the RTL stage allocates: {allocs} allocations for {activations} activations"
    );

    // --- Parallel steady state: eight concurrently-woken oscillators at
    // jobs=4, each counting a 150-round loop per activation (~1,360
    // instructions), so every cycle's ready set (~10.9k instructions)
    // opens the pool gate and takes the worker-pool path (round-robin
    // dispatch, buffered execution on worker threads, barrier commit).
    // After warm-up — pool threads spawned, per-worker effect buffers and
    // chunk lists at steady capacity — the parallel cycle must be as
    // allocation-free as the sequential one. The counting allocator is
    // process-global, so worker-thread allocations are in the window too.
    let mut p = Program::default();
    for i in 0..8 {
        let clk = p.add_signal(format!("top.clk{i}"), Val::Int(0));
        p.add_process(
            format!("top.osc{i}"),
            1,
            vec![
                Insn::PushInt(0),
                Insn::StoreVar(slot(0)),
                Insn::LoadVar(slot(0)), // 2: loop
                Insn::PushInt(150),
                Insn::Binop(Op::Lt),
                Insn::JumpIfFalse(11),
                Insn::LoadVar(slot(0)),
                Insn::PushInt(1),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                Insn::Jump(2),
                Insn::LoadSig(clk), // 11: exit
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
    }
    p.finalize_sensitivity();
    // Tracing counts pool spawns: one spawn shows that the design opens
    // the pool gate, and since every cycle carries the same work, every
    // cycle of the window below runs on the pool.
    ag_harness::trace::reset();
    ag_harness::trace::set_enabled(true);
    let mut sim = Simulator::new(p);
    sim.set_jobs(4);
    sim.run_until(Time::fs(1_000_000)).unwrap(); // warm-up
    assert_eq!(
        ag_harness::trace::counter_value("pool-spawn"),
        1,
        "the parallel design never reached the pool"
    );
    let cycles0 = sim.stats().cycles;
    let before = ag_harness::alloc::stats();
    sim.run_until(Time::fs(2_000_000)).unwrap();
    let after = ag_harness::alloc::stats();
    let cycles = sim.stats().cycles - cycles0;
    assert!(cycles >= 999, "window ran: {cycles} cycles");
    let allocs = after.allocations - before.allocations;
    assert_eq!(
        allocs, 0,
        "parallel steady state allocates: {allocs} allocations for {cycles} cycles at jobs=4"
    );
}
