//! E11 — supporting benchmarks of the target virtual machine (§2.1).
//!
//! The paper reports no simulator numbers (it cites the companion CompCon
//! '88 paper), so these benches characterize our kernel: event throughput,
//! delta-cycle chains, and resolution-function overhead.
//!
//! Timed with the in-repo `ag-harness` runner; results land in
//! `results/exp_kernel.json`.

use ag_harness::bench::{fmt_ns, Runner};
use std::hint::black_box;
use std::sync::Arc;

use sim_kernel::{FnDecl, FnId, Insn, Op, Program, SimStats, Simulator, Time, Val, VarAddr};

/// A free-running oscillator program.
fn oscillator() -> Program {
    let mut p = Program::default();
    let clk = p.add_signal("clk", Val::Int(0));
    p.add_process(
        "osc",
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
    p
}

/// Installs `lcg(x)` — `reps` chained rounds of `((x*1103515245 +
/// 12345) mod 2^31 * 75 + 74) mod 2^31` as one long pure-integer
/// expression — as a shared function: the compute-bearing body the
/// interpreter's fetch loop grinds through. It is a *function* so that
/// every process in a bench shares one hot code body, the way
/// elaborated designs share subprograms (500 private copies would
/// benchmark cache misses, not dispatch).
fn add_lcg_fn(p: &mut Program, reps: usize) -> FnId {
    let x = VarAddr { depth: 0, slot: 0 };
    let mut code = vec![Insn::LoadVar(x)];
    for _ in 0..reps {
        for (op, k) in [
            (Op::Mul, 1_103_515_245),
            (Op::Add, 12_345),
            (Op::Mod, 1 << 31),
            (Op::Mul, 75),
            (Op::Add, 74),
            (Op::Mod, 1 << 31),
        ] {
            code.push(Insn::PushInt(k));
            code.push(Insn::Binop(op));
        }
    }
    code.push(Insn::Ret { has_value: true });
    p.add_function(FnDecl {
        name: "lcg".into(),
        n_params: 1,
        n_locals: 1,
        code: Arc::new(code),
        level: 1,
    })
}

/// Appends `x := lcg(x)`.
fn push_lcg_call(code: &mut Vec<Insn>, x: VarAddr, f: FnId) {
    code.push(Insn::LoadVar(x));
    code.push(Insn::Call(f));
    code.push(Insn::StoreVar(x));
}

/// Rounds of the LCG chain per activation in the compute-bearing
/// benches: enough arithmetic that per-instruction dispatch cost, not
/// fixed per-cycle kernel cost, dominates.
const LCG_REPS: usize = 50;

/// The oscillator with a compute-bearing body: every activation toggles
/// the clock and grinds `LCG_REPS` rounds of integer arithmetic.
fn compute_oscillator() -> Program {
    let mut p = Program::default();
    let clk = p.add_signal("clk", Val::Int(0));
    let lcg = add_lcg_fn(&mut p, LCG_REPS);
    let mut code = vec![
        Insn::LoadSig(clk),
        Insn::Unop(Op::Not),
        Insn::PushInt(1_000),
        Insn::Sched {
            sig: clk,
            transport: false,
        },
    ];
    push_lcg_call(&mut code, VarAddr { depth: 0, slot: 0 }, lcg);
    code.extend([
        Insn::Wait {
            sens: Arc::new(vec![clk]),
            with_timeout: false,
        },
        Insn::Pop,
        Insn::Jump(0),
    ]);
    p.add_process("osc", 1, code);
    p
}

/// Runs `p` to `deadline` with at most `jobs` kernel workers and
/// returns the stats.
fn run_jobs(p: &Program, deadline: u64, jobs: usize) -> SimStats {
    let mut sim = Simulator::new(p.clone());
    sim.set_jobs(jobs);
    sim.run_until(Time::fs(deadline)).expect("runs");
    sim.stats()
}

/// A chain of `n` delta-coupled repeaters driven by an oscillator.
fn delta_chain(n: usize) -> Program {
    let mut p = oscillator();
    let mut prev = sim_kernel::SigId(0);
    for i in 0..n {
        let s = p.add_signal(format!("s{i}"), Val::Int(0));
        p.add_process(
            format!("r{i}"),
            0,
            vec![
                Insn::LoadSig(prev),
                Insn::PushInt(-1),
                Insn::Sched {
                    sig: s,
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![prev]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
        prev = s;
    }
    p
}

/// Two drivers on a wired-or bus toggling against each other.
fn resolved_bus() -> Program {
    let mut p = Program::default();
    let res = p.add_function(FnDecl {
        name: "wired_or".into(),
        n_params: 1,
        n_locals: 1,
        code: Arc::new(vec![
            // or of exactly two drivers
            Insn::LoadVar(VarAddr { depth: 0, slot: 0 }),
            Insn::PushInt(0),
            Insn::Index,
            Insn::LoadVar(VarAddr { depth: 0, slot: 0 }),
            Insn::PushInt(1),
            Insn::Index,
            Insn::Binop(Op::Or),
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    });
    let bus = p.add_signal("bus", Val::Int(0));
    p.signals[bus.0 as usize].resolution = Some(res);
    for (name, phase) in [("d1", 1_000i64), ("d2", 1_700)] {
        p.add_process(
            name,
            1,
            vec![
                // v := not v; bus <= v after phase.
                Insn::LoadVar(VarAddr { depth: 0, slot: 0 }),
                Insn::Unop(Op::Not),
                Insn::Dup,
                Insn::StoreVar(VarAddr { depth: 0, slot: 0 }),
                Insn::PushInt(phase),
                Insn::Sched {
                    sig: bus,
                    transport: false,
                },
                Insn::PushInt(phase),
                Insn::Wait {
                    sens: Arc::new(vec![]),
                    with_timeout: true,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    p
}

/// A sparse design: `total` signals, each with a watcher process, but only
/// `active` of them driven by oscillators. An event-driven scheduler pays
/// for the `active` few; a scan-based one pays for all 1000 every cycle.
fn sparse_activity(active: usize, total: usize) -> Program {
    let mut p = Program::default();
    let sigs: Vec<sim_kernel::SigId> = (0..total)
        .map(|i| p.add_signal(format!("s{i}"), Val::Int(0)))
        .collect();
    for (i, &s) in sigs.iter().enumerate() {
        p.add_process(
            format!("w{i}"),
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
    }
    for (i, &s) in sigs.iter().take(active).enumerate() {
        p.add_process(
            format!("drv{i}"),
            0,
            vec![
                Insn::LoadSig(s),
                Insn::Unop(Op::Not),
                Insn::PushInt(1_000),
                Insn::Sched {
                    sig: s,
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![s]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    p
}

/// Many processes sleeping on staggered `wait for` timeouts — calendar
/// traffic plus a compute-bearing body: each wakeup grinds the LCG
/// chain before sleeping again.
fn timeout_storm(n_procs: usize) -> Program {
    let mut p = Program::default();
    let lcg = add_lcg_fn(&mut p, LCG_REPS);
    for i in 0..n_procs {
        let period = ((i % 13) as i64 + 1) * 100;
        let mut code = vec![
            Insn::PushInt(period),
            Insn::Wait {
                sens: Arc::new(vec![]),
                with_timeout: true,
            },
            Insn::Pop,
        ];
        push_lcg_call(&mut code, VarAddr { depth: 0, slot: 0 }, lcg);
        code.push(Insn::Jump(0));
        p.add_process(format!("t{i}"), 1, code);
    }
    p
}

fn main() {
    println!("# E11 — target virtual machine characterization (paper §2.1)");
    println!();
    let mut r = Runner::new("exp_kernel")
        .iters(10)
        .out_dir(ag_bench::out_dir());

    let osc = compute_oscillator();
    let osc_deadline = 100_000 * 1_000;
    let s_i = r.measure("oscillator_100k_events/interp", || {
        let st = run_jobs(&osc, osc_deadline, 1);
        assert!(st.events >= 100_000);
        black_box(st)
    });
    println!(
        "oscillator, 100k events, interp:    median {}",
        fmt_ns(s_i.median_ns)
    );
    {
        let st = run_jobs(&osc, osc_deadline, 1);
        r.metric(
            "oscillator_events_per_sec",
            st.events as f64 / s_i.median_secs(),
            "events/s",
        );
    }

    for n in [4usize, 16, 64] {
        let s = r.measure(format!("delta_chain/{n}"), || {
            let mut sim = Simulator::new(delta_chain(n));
            sim.run_until(Time::fs(200 * 1_000)).expect("runs");
            black_box(sim.stats())
        });
        println!(
            "delta chain, n={n:<3}:            median {}",
            fmt_ns(s.median_ns)
        );
    }

    let p = resolved_bus();
    let s = r.measure("resolved_bus_10k_cycles", || {
        let mut sim = Simulator::new(p.clone());
        sim.run_until(Time::fs(10_000 * 1_000)).expect("runs");
        black_box(sim.stats())
    });
    println!(
        "resolved bus, 10k cycles:      median {}",
        fmt_ns(s.median_ns)
    );

    for k in [1usize, 10, 100] {
        let p = sparse_activity(k, 1_000);
        let s = r.measure(format!("sparse_activity/{k}-of-1000"), || {
            let mut sim = Simulator::new(p.clone());
            sim.run_until(Time::fs(200 * 1_000)).expect("runs");
            assert!(sim.stats().events >= 200 * k as u64);
            black_box(sim.stats())
        });
        println!(
            "sparse activity, {k:>3}/1000:     median {}",
            fmt_ns(s.median_ns)
        );
    }

    let p = timeout_storm(500);
    let storm_deadline = 100 * 1_000;
    let s_i = r.measure("timeout_storm/interp", || {
        black_box(run_jobs(&p, storm_deadline, 1))
    });
    println!(
        "timeout storm, 500 procs, interp:   median {}",
        fmt_ns(s_i.median_ns)
    );

    // The pool side: the storm's cycles carry enough work to open the
    // kernel's pool gate, so two workers run them on the pool. The
    // counters must match one worker's, and tracing must see the pool
    // spawn, before the clock runs.
    {
        ag_harness::trace::reset();
        ag_harness::trace::set_enabled(true);
        let b = run_jobs(&p, storm_deadline, 2);
        let spawns = ag_harness::trace::counter_value("pool-spawn");
        ag_harness::trace::set_enabled(false);
        assert_eq!(spawns, 1, "timeout storm must reach the kernel pool");
        assert_eq!(
            b,
            run_jobs(&p, storm_deadline, 1),
            "jobs 2 disagrees with jobs 1 on timeout storm"
        );
    }
    let s_j = r.measure("timeout_storm/interp/jobs2", || {
        black_box(run_jobs(&p, storm_deadline, 2))
    });
    println!(
        "timeout storm, interp, 2 workers:   median {}",
        fmt_ns(s_j.median_ns)
    );
    let jobs2_speedup = s_i.median_ns as f64 / s_j.median_ns as f64;
    println!("timeout storm 2-worker speedup:     {jobs2_speedup:.2}x");
    r.metric("timeout_storm_jobs2_speedup", jobs2_speedup, "x");

    r.finish();
}
