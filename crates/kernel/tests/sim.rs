//! Kernel integration tests: hand-assembled programs driving the full
//! simulation cycle.

use std::sync::Arc;

use sim_kernel::{
    FnDecl, Insn, Op, Program, RunOutcome, SigAttr, SimError, Simulator, SnapshotError, Time, Val,
    VarAddr,
};

fn addr(slot: u16) -> VarAddr {
    VarAddr { depth: 0, slot }
}

/// A free-running clock: `clk <= not clk after 5 ns; wait on clk;`.
#[test]
fn oscillating_clock() {
    let mut p = Program::default();
    let clk = p.add_signal("top.clk", Val::Int(0));
    let code = vec![
        // not clk
        Insn::LoadSig(clk),
        Insn::Unop(Op::Not),
        Insn::PushInt(5_000_000), // 5 ns in fs
        Insn::Sched {
            sig: clk,
            transport: false,
        },
        Insn::Wait {
            sens: Arc::new(vec![clk]),
            with_timeout: false,
        },
        Insn::Pop, // timed_out flag
        Insn::Jump(0),
    ];
    p.add_process("top.osc", 0, code);
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(52_000_000)).unwrap();
    // 5ns period toggles: t=5,10,…,50 → 10 events.
    let st = sim.stats();
    assert_eq!(st.events, 10);
    assert_eq!(sim.signal_value(clk), &Val::Int(0));
    assert_eq!(sim.now().fs, 50_000_000);
    assert!(st.resumptions >= 10);
}

/// Delta cycles: a chain a → b → c settles in the same instant across
/// deltas.
#[test]
fn delta_cycle_chain() {
    let mut p = Program::default();
    let a = p.add_signal("a", Val::Int(0));
    let b = p.add_signal("b", Val::Int(0));
    let c = p.add_signal("c", Val::Int(0));
    // driver: a <= 1 after 1 fs; wait forever.
    p.add_process(
        "drv",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(1),
            Insn::Sched {
                sig: a,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    // b <= a (delta); wait on a.
    p.add_process(
        "p1",
        0,
        vec![
            Insn::LoadSig(a),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: b,
                transport: false,
            },
            Insn::Wait {
                sens: Arc::new(vec![a]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    // c <= b (delta); wait on b.
    p.add_process(
        "p2",
        0,
        vec![
            Insn::LoadSig(b),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: c,
                transport: false,
            },
            Insn::Wait {
                sens: Arc::new(vec![b]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(10)).unwrap();
    assert_eq!(sim.signal_value(c), &Val::Int(1));
    let st = sim.stats();
    assert!(st.delta_cycles >= 2, "chain needs deltas: {st:?}");
    assert_eq!(sim.now().fs, 1, "all settling happened at 1 fs");
}

/// Two drivers require a resolution function; wired-or resolves them.
#[test]
fn resolved_signal_wired_or() {
    let mut p = Program::default();
    // Resolution: fold OR over the drivers vector (param 0).
    // locals: 0 = vec, 1 = i, 2 = acc
    let res_code = vec![
        // acc := 0; i := 0
        Insn::PushInt(0),
        Insn::StoreVar(addr(2)),
        Insn::PushInt(0),
        Insn::StoreVar(addr(1)),
        // loop: if i >= len: exit — len is data length; use Index error
        // avoidance by explicit count: we rely on a 2-driver vector.
        Insn::LoadVar(addr(0)),
        Insn::LoadVar(addr(1)),
        Insn::Index,
        Insn::LoadVar(addr(2)),
        Insn::Binop(Op::Or),
        Insn::StoreVar(addr(2)),
        Insn::LoadVar(addr(1)),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::Dup,
        Insn::StoreVar(addr(1)),
        Insn::PushInt(2),
        Insn::Binop(Op::Lt),
        Insn::JumpIfFalse(19),
        Insn::Jump(4),
        Insn::LoadVar(addr(2)),
        Insn::Ret { has_value: true },
    ];
    let res = p.add_function(FnDecl {
        name: "wired_or".into(),
        n_params: 1,
        n_locals: 3,
        code: Arc::new(res_code),
        level: 1,
    });
    let s = p.add_signal("bus", Val::Int(0));
    p.signals[s.0 as usize].resolution = Some(res);
    // Driver A: bus <= 1 after 2fs.
    p.add_process(
        "da",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(2),
            Insn::Sched {
                sig: s,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    // Driver B: bus <= 0 after 2fs.
    p.add_process(
        "db",
        0,
        vec![
            Insn::PushInt(0),
            Insn::PushInt(2),
            Insn::Sched {
                sig: s,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(5)).unwrap();
    assert_eq!(sim.signal_value(s), &Val::Int(1), "1 or 0 = 1");
}

/// Multiple drivers without resolution is an error.
#[test]
fn unresolved_multiple_drivers_error() {
    let mut p = Program::default();
    let s = p.add_signal("s", Val::Int(0));
    for name in ["p1", "p2"] {
        p.add_process(
            name,
            0,
            vec![
                Insn::PushInt(1),
                Insn::PushInt(1),
                Insn::Sched {
                    sig: s,
                    transport: false,
                },
                Insn::Halt,
            ],
        );
    }
    let mut sim = Simulator::new(p);
    let err = sim.run_until(Time::fs(5)).unwrap_err();
    assert!(matches!(err, SimError::UnresolvedDrivers(_)));
}

/// Wait with timeout resumes with the timed-out flag; `'event` visible in
/// the resumption cycle.
#[test]
fn wait_timeout_and_event_attr() {
    let mut p = Program::default();
    let clk = p.add_signal("clk", Val::Int(0));
    let saw_event = p.add_signal("saw_event", Val::Int(0));
    let timed = p.add_signal("timed", Val::Int(0));
    // Stimulus: clk <= 1 after 3 fs.
    p.add_process(
        "stim",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(3),
            Insn::Sched {
                sig: clk,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    // Waiter: wait on clk for 10 fs → resumed by event → saw_event <= clk'event.
    // Then wait for 5 fs (pure timeout) → timed <= flag.
    p.add_process(
        "waiter",
        0,
        vec![
            Insn::PushInt(10),
            Insn::Wait {
                sens: Arc::new(vec![clk]),
                with_timeout: true,
            },
            Insn::Pop, // not timed out
            Insn::LoadSigAttr(clk, SigAttr::Event),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: saw_event,
                transport: false,
            },
            Insn::PushInt(5),
            Insn::Wait {
                sens: Arc::new(vec![]),
                with_timeout: true,
            },
            // timed-out flag on stack
            Insn::PushInt(-1),
            Insn::Sched {
                sig: timed,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(20)).unwrap();
    assert_eq!(sim.signal_value(saw_event), &Val::Int(1));
    assert_eq!(sim.signal_value(timed), &Val::Int(1));
}

/// Inertial vs transport preemption.
#[test]
fn preemption_semantics() {
    // Inertial: a second assignment cancels the pending first.
    let mut p = Program::default();
    let s = p.add_signal("s", Val::Int(0));
    p.add_process(
        "p",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(10),
            Insn::Sched {
                sig: s,
                transport: false,
            },
            Insn::PushInt(2),
            Insn::PushInt(5),
            Insn::Sched {
                sig: s,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(20)).unwrap();
    assert_eq!(sim.signal_value(s), &Val::Int(2), "first tx preempted");
    assert_eq!(sim.stats().transactions, 1);

    // Transport: both arrive in order.
    let mut p = Program::default();
    let s = p.add_signal("s", Val::Int(0));
    p.add_process(
        "p",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(5),
            Insn::Sched {
                sig: s,
                transport: true,
            },
            Insn::PushInt(2),
            Insn::PushInt(10),
            Insn::Sched {
                sig: s,
                transport: true,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(7)).unwrap();
    assert_eq!(sim.signal_value(s), &Val::Int(1));
    sim.run_until(Time::fs(20)).unwrap();
    assert_eq!(sim.signal_value(s), &Val::Int(2));
    assert_eq!(sim.stats().transactions, 2);
}

/// Nested subprograms reach up-level variables through static links — the
/// feature the paper notes C could not express directly.
#[test]
fn static_links_uplevel_access() {
    let mut p = Program::default();
    let out = p.add_signal("out", Val::Int(0));
    // inner(): returns outer_local + 1 via an up-level load (depth 1).
    let inner = p.add_function(FnDecl {
        name: "inner".into(),
        n_params: 0,
        n_locals: 0,
        code: Arc::new(vec![
            Insn::LoadVar(VarAddr { depth: 1, slot: 0 }),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::Ret { has_value: true },
        ]),
        level: 2,
    });
    // outer(): local0 := 41; return inner().
    let outer = p.add_function(FnDecl {
        name: "outer".into(),
        n_params: 0,
        n_locals: 1,
        code: Arc::new(vec![
            Insn::PushInt(41),
            Insn::StoreVar(addr(0)),
            Insn::Call(inner),
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    });
    p.add_process(
        "p",
        0,
        vec![
            Insn::Call(outer),
            Insn::PushInt(1),
            Insn::Sched {
                sig: out,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(5)).unwrap();
    assert_eq!(sim.signal_value(out), &Val::Int(42));
}

/// Assertion reports and failure severity.
#[test]
fn assertions() {
    let mut p = Program::default();
    // Report text: character codes are printable offsets ('b'-32 etc.).
    let text = Val::arr(
        1,
        sim_kernel::VDir::To,
        "boom".chars().map(|c| Val::Int(c as i64 - 32)).collect(),
    );
    p.add_process(
        "p",
        0,
        vec![
            Insn::PushInt(0), // false condition
            Insn::PushConst(text.clone()),
            Insn::PushInt(1), // warning
            Insn::Assert,
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(1)).unwrap();
    assert_eq!(sim.reports().len(), 1);
    assert_eq!(sim.reports()[0].text, "boom");
    assert_eq!(sim.reports()[0].severity, 1);

    // Severity failure aborts.
    let mut p = Program::default();
    p.add_process(
        "p",
        0,
        vec![
            Insn::PushInt(0),
            Insn::PushConst(text),
            Insn::PushInt(3),
            Insn::Assert,
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    let err = sim.run_until(Time::fs(1)).unwrap_err();
    assert!(matches!(err, SimError::Failure(_)));
}

/// Element-wise signal scheduling (s(i) <= v).
#[test]
fn element_assignment() {
    let mut p = Program::default();
    let s = p.add_signal("v", Val::bits(&[0, 0, 0, 0]));
    p.add_process(
        "p",
        0,
        vec![
            Insn::PushInt(2), // index
            Insn::PushInt(1), // value
            Insn::PushInt(1), // delay
            Insn::SchedIndex {
                sig: s,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    sim.run_until(Time::fs(5)).unwrap();
    assert_eq!(sim.signal_value(s), &Val::bits(&[0, 1, 0, 0]));
}

/// Observers see every event (the VCD hook).
#[test]
fn observers_and_nameserver() {
    let mut p = Program::default();
    let clk = p.add_signal("top.clk", Val::Int(0));
    p.add_process(
        "p",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(2),
            Insn::Sched {
                sig: clk,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let changes = std::cell::RefCell::new(Vec::new());
    let mut sim = Simulator::new(p);
    sim.observe(Box::new(|t, _, name, v| {
        changes.borrow_mut().push((t, name.to_string(), v.clone()));
    }));
    sim.run_until(Time::fs(5)).unwrap();
    let ch = changes.borrow();
    assert_eq!(ch.len(), 1);
    assert_eq!(ch[0].1, "top.clk");
    assert_eq!(ch[0].2, Val::Int(1));
    drop(ch);
    assert_eq!(sim.signal_by_name("top.clk"), Some(clk));
    assert_eq!(sim.value_by_name("top.clk"), Some(&Val::Int(1)));
    assert!(sim.signal_by_name("nope").is_none());
    assert_eq!(sim.signal_names(), vec!["top.clk"]);
}

/// Fuel guard: a non-suspending loop is detected, not hung.
#[test]
fn runaway_process_detected() {
    let mut p = Program::default();
    p.add_process("p", 0, vec![Insn::Jump(0)]);
    let mut sim = Simulator::new(p);
    let err = sim.run_until(Time::fs(1)).unwrap_err();
    assert!(matches!(err, SimError::FuelExhausted(_)));
}

/// Quiescence: a process suspended with no timeout and nothing scheduled
/// must yield `Quiescent` — not a hang, busy loop, or `DeadlineReached`.
#[test]
fn quiescent_without_timeout_no_hang() {
    let mut p = Program::default();
    let s = p.add_signal("top.s", Val::Int(0));
    p.add_process(
        "top.p",
        0,
        vec![
            Insn::Wait {
                sens: Arc::new(vec![s]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    let mut sim = Simulator::new(p);
    let out = sim
        .run_slice(Time::fs(1_000), u64::MAX, &mut || false)
        .unwrap();
    assert_eq!(out, RunOutcome::Quiescent);
    assert_eq!(sim.stats().cycles, 1); // just the initial cycle
    assert_eq!(sim.now(), Time::ZERO);
}

/// A preempted-then-empty driver (transport tx at 10 fs wiped by an
/// inertial assignment at 2 fs) must not leave a stale pending entry that
/// produces a spurious cycle at 10 fs or stalls quiescence.
#[test]
fn preempted_empty_driver_reaches_quiescence() {
    let mut p = Program::default();
    let s = p.add_signal("top.s", Val::Int(0));
    p.add_process(
        "top.p",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(10),
            Insn::Sched {
                sig: s,
                transport: true,
            },
            Insn::PushInt(2),
            Insn::PushInt(2),
            Insn::Sched {
                sig: s,
                transport: false, // inertial: preempts the 10 fs tx
            },
            Insn::Wait {
                sens: Arc::new(vec![]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    let mut sim = Simulator::new(p);
    let out = sim
        .run_slice(Time::fs(100), u64::MAX, &mut || false)
        .unwrap();
    assert_eq!(out, RunOutcome::Quiescent);
    assert_eq!(sim.now(), Time::fs(2)); // never visited the preempted 10 fs
    assert_eq!(sim.stats().cycles, 2);
    assert_eq!(sim.signal_value(s), &Val::Int(2));
    assert_eq!(sim.stats().events, 1);
}

/// Stale calendar entries must not mask `DeadlineReached`: with real work
/// pending past the deadline, a slice stops there — at the right time.
#[test]
fn stale_entries_do_not_stall_deadline() {
    let mut p = Program::default();
    let s = p.add_signal("top.s", Val::Int(0));
    let far = p.add_signal("top.far", Val::Int(0));
    p.add_process(
        "top.preempt",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(50),
            Insn::Sched {
                sig: s,
                transport: true,
            },
            Insn::PushInt(2),
            Insn::PushInt(2),
            Insn::Sched {
                sig: s,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    p.add_process(
        "top.later",
        0,
        vec![
            Insn::PushInt(1),
            Insn::PushInt(1_000),
            Insn::Sched {
                sig: far,
                transport: false,
            },
            Insn::Halt,
        ],
    );
    let mut sim = Simulator::new(p);
    let out = sim
        .run_slice(Time::fs(100), u64::MAX, &mut || false)
        .unwrap();
    assert_eq!(out, RunOutcome::DeadlineReached);
    assert_eq!(sim.now(), Time::fs(2)); // stale 50 fs entry never fired
                                        // A later slice picks the pending work up.
    let out = sim
        .run_slice(Time::fs(2_000), u64::MAX, &mut || false)
        .unwrap();
    assert_eq!(out, RunOutcome::Quiescent);
    assert_eq!(sim.now(), Time::fs(1_000));
    assert_eq!(sim.signal_value(far), &Val::Int(1));
}

/// `wait for 0 ns` resumes in the *next* delta cycle (LRM 8.1), so a
/// zero-timeout process's own delta-delayed drivers must mature: the
/// storm interleaves with signal updates instead of pinning time at
/// delta 0 and starving the driver queue. Regression for a bug where
/// the zero timeout was computed as `now.plus_fs(0)` — a delta-reset
/// instant in the past — found by the vhdl-conform generator.
#[test]
fn zero_timeout_storm_matures_own_drivers() {
    let mut p = Program::default();
    let s = p.add_signal("top.s", Val::Int(0));
    // v := v + 1; s <= v (delta); wait for 0 ns;  — forever.
    let code = vec![
        Insn::LoadVar(addr(0)),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::StoreVar(addr(0)),
        Insn::LoadVar(addr(0)),
        Insn::PushInt(-1), // no-delay marker → next delta
        Insn::Sched {
            sig: s,
            transport: false,
        },
        Insn::PushInt(0), // wait for 0 ns
        Insn::Wait {
            sens: Arc::new(vec![]),
            with_timeout: true,
        },
        Insn::Pop,
        Insn::Jump(0),
    ];
    p.add_process("top.storm", 1, code);
    let mut sim = Simulator::new(p);
    let out = sim
        .run_slice(Time::fs(u64::MAX / 4), 10, &mut || false)
        .unwrap();
    assert_eq!(out, RunOutcome::CycleBudget);
    let st = sim.stats();
    assert_eq!(sim.now().fs, 0, "storm never advances time");
    // Every cycle after the first matures the previous cycle's delta
    // transaction; the signal value tracks the variable.
    assert_eq!(st.transactions, 9);
    assert_eq!(st.events, 9);
    assert!(
        matches!(sim.signal_value(s), Val::Int(n) if *n >= 2),
        "driver starved at {:?}",
        sim.signal_value(s)
    );
}

/// `[k := 0; while k < iters loop k := k + 1; end loop]` at `base`:
/// busy work that makes an activation heavy enough for the pool gate.
fn busy(base: u32, k: VarAddr, iters: i64) -> Vec<Insn> {
    vec![
        Insn::PushInt(0),
        Insn::StoreVar(k),
        Insn::LoadVar(k), // base + 2: loop
        Insn::PushInt(iters),
        Insn::Binop(Op::Lt),
        Insn::JumpIfFalse(base + 11),
        Insn::LoadVar(k),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::StoreVar(k),
        Insn::Jump(base + 2),
    ]
}

/// A report text value (`as_string` offsets character codes by 32).
fn text(s: &str) -> Val {
    Val::arr(
        1,
        sim_kernel::VDir::To,
        s.chars().map(|c| Val::Int(c as i64 - 32)).collect(),
    )
}

/// The failure semantics of one cycle, pinned at every worker count:
/// three processes wake on each `clk` edge, each spending ~3,600
/// instructions (so from the second edge on, a two-worker cycle runs on
/// the pool). On the third edge the low-pid `top.bad` schedules a
/// transaction and then fails its assertion. `top.a`, below it, has
/// already scheduled; `top.late`, above it, would report and schedule.
/// The failure is the error; the effects of every activation before it
/// in process order are committed (their transactions pending, their
/// instructions counted); nothing of `top.late`'s third activation is
/// seen; and the simulator stays failed.
#[test]
fn a_failing_activation_stops_its_cycle_the_same_at_every_worker_count() {
    let mut p = Program::default();
    let clk = p.add_signal("top.clk", Val::Int(0));
    let a = p.add_signal("top.a", Val::Int(0));
    let b = p.add_signal("top.b", Val::Int(0));
    let c = p.add_signal("top.c", Val::Int(0));
    let on_clk = |tail: Vec<Insn>| {
        let mut code = vec![
            Insn::Wait {
                sens: Arc::new(vec![clk]),
                with_timeout: false,
            },
            Insn::Pop,
        ];
        code.extend(busy(2, addr(0), 400));
        code.extend(tail);
        code.push(Insn::Jump(0));
        code
    };
    let toggle = |s, delay| {
        vec![
            Insn::LoadSig(s),
            Insn::Unop(Op::Not),
            Insn::PushInt(delay),
            Insn::Sched {
                sig: s,
                transport: false,
            },
        ]
    };
    // pid 0: a <= not a after 1 fs.
    p.add_process("top.a", 1, on_clk(toggle(a, 1)));
    // pid 1: n := n + 1; b <= n; assert n < 3 report "bad" severity failure.
    p.add_process(
        "top.bad",
        2,
        on_clk(vec![
            Insn::LoadVar(addr(1)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(addr(1)),
            Insn::LoadVar(addr(1)),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: b,
                transport: false,
            },
            Insn::LoadVar(addr(1)),
            Insn::PushInt(3),
            Insn::Binop(Op::Lt),
            Insn::PushConst(text("bad")),
            Insn::PushInt(3),
            Insn::Assert,
        ]),
    );
    // pid 2: report "late" severity note; c <= not c.
    let mut late = vec![
        Insn::PushInt(0),
        Insn::PushConst(text("late")),
        Insn::PushInt(0),
        Insn::Assert,
    ];
    late.extend(toggle(c, -1));
    p.add_process("top.late", 1, on_clk(late));
    // pid 3: three clk edges at 100, 200 and 300 fs, then halt.
    let mut osc = Vec::new();
    for (v, t) in [(1, 100), (0, 200), (1, 300)] {
        osc.extend([
            Insn::PushInt(v),
            Insn::PushInt(t),
            Insn::Sched {
                sig: clk,
                transport: true,
            },
        ]);
    }
    osc.push(Insn::Halt);
    p.add_process("top.osc", 0, osc);
    p.finalize_sensitivity();

    for jobs in [1, 2] {
        ag_harness::trace::reset();
        ag_harness::trace::set_enabled(true);
        let mut sim = Simulator::new(p.clone());
        sim.set_jobs(jobs);
        let err = sim.run_until(Time::fs(1_000)).unwrap_err();
        let spawns = ag_harness::trace::counter_value("pool-spawn");
        ag_harness::trace::set_enabled(false);
        assert_eq!(spawns, u64::from(jobs > 1), "jobs={jobs}: pool spawns");
        let SimError::Failure(ev) = &err else {
            panic!("jobs={jobs}: expected a failure, got {err:?}");
        };
        assert_eq!(
            (ev.time, ev.severity, ev.text.as_str()),
            (Time::fs(300), 3, "bad"),
            "jobs={jobs}"
        );
        let reports: Vec<_> = sim
            .reports()
            .iter()
            .map(|r| (r.time.fs, r.severity, r.text.as_str()))
            .collect();
        assert_eq!(
            reports,
            [(100, 0, "late"), (200, 0, "late"), (300, 3, "bad")],
            "jobs={jobs}"
        );
        let values: Vec<_> = [clk, a, b, c].map(|s| sim.signal_value(s).clone()).into();
        assert_eq!(
            values,
            [Val::Int(1), Val::Int(0), Val::Int(2), Val::Int(0)],
            "jobs={jobs}: clk, a, b, c"
        );
        let stats = sim.stats();
        let want = sim_kernel::SimStats {
            cycles: 8,
            delta_cycles: 2,
            events: 9,
            transactions: 9,
            resumptions: 9,
            insns: 28_950,
            calendar_ops: 20,
            woken_procs: 9,
            scanned_signals: 9,
            compiled_blocks: 0,
            fallback_procs: 0,
        };
        assert_eq!(stats, want, "jobs={jobs}");
        for pid in 0..3 {
            assert_eq!(sim.process_resumptions(pid), 3, "jobs={jobs}: pid {pid}");
        }
        // The simulator stays failed: a further step is the same error
        // and changes nothing.
        let again = sim.step().unwrap_err();
        assert_eq!(again.to_string(), err.to_string(), "jobs={jobs}");
        assert_eq!(sim.stats(), stats, "jobs={jobs}");
        assert_eq!(sim.reports().len(), 3, "jobs={jobs}");
    }
}

/// A two-driver bus whose resolution function divides by zero: both
/// drivers schedule at 100 fs, so the update phase at 100 fs calls the
/// resolution and fails; a clock keeps the calendar busy after it.
fn failing_bus() -> Program {
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
        let drive = vec![
            Insn::PushInt(1),
            Insn::PushInt(100),
            Insn::Sched {
                sig: bus,
                transport: false,
            },
            Insn::Halt,
        ];
        p.add_process(name, 0, drive);
    }
    let clk = p.add_signal("top.clk", Val::Int(0));
    p.add_process(
        "top.osc",
        0,
        vec![
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(50),
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
    p.finalize_sensitivity();
    p
}

/// A resolution function's runtime error stops the simulator the way a
/// process's does, at every worker count: the run fails at 100 fs, every
/// later step is the same error, and a checkpoint is refused. (The scan
/// stepper's case is `sim::tests::a_failing_resolution_stops_the_scan_stepper`.)
#[test]
fn a_failing_resolution_leaves_the_simulator_failed_at_every_worker_count() {
    let p = failing_bus();
    for jobs in [1, 2] {
        let mut sim = Simulator::new(p.clone());
        sim.set_jobs(jobs);
        let err = sim.run_until(Time::fs(1_000)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "runtime error in resolution of top.bus: division by zero",
            "jobs={jobs}"
        );
        assert_eq!(sim.now(), Time::fs(100), "jobs={jobs}");
        for _ in 0..3 {
            let again = sim.step().unwrap_err();
            assert_eq!(again.to_string(), err.to_string(), "jobs={jobs}");
        }
        assert_eq!(sim.now(), Time::fs(100), "jobs={jobs}");
        assert!(
            matches!(sim.checkpoint(), Err(SnapshotError::Failed(_))),
            "jobs={jobs}: a failed run is not resumable"
        );
    }
}
