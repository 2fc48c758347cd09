//! The kernel's differential oracle suite.
//!
//! Random `Insn`-level programs run through every execution
//! configuration: the scan stepper (the reference semantics), the
//! event-driven interpreter at 1/2/4/8 workers, and
//! checkpoint-and-restore cells that resume at another worker count. Every observable must match byte for byte — VCD text,
//! statistics, Name-Server counters, final values, reports, the run
//! outcome — with the full statistics block compared within an engine.
//! Fixed programs pin the edge cases random search rarely reaches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ag_harness::{check_eq, forall, shrink_stream, Config, Failed, Source, TestResult};
use sim_kernel::oracle::{
    gen_program, run_cell, run_matrix, sum_mod4, Cell, Engine, MatrixOutcome,
};
use sim_kernel::{FnDecl, FnId, Insn, Op, Program, SigId, TestFault, Time, Val, VarAddr};

fn slot(n: u16) -> VarAddr {
    VarAddr { depth: 0, slot: n }
}

/// The full matrix; the scan stepper is the reference.
const CELLS: [Cell; 7] = [
    Cell::solid(Engine::Scan, 1),
    Cell::solid(Engine::Interp, 1),
    Cell::solid(Engine::Interp, 2),
    Cell::solid(Engine::Interp, 4),
    Cell::solid(Engine::Interp, 8),
    Cell::resume(Engine::Interp, 4, 1),
    Cell::resume(Engine::Interp, 1, 4),
];

/// Draws a program, a deadline, and a cycle budget split into 1–3
/// slices. Solid cells run the budget uninterrupted; resume cells step
/// through the slices, checkpointing after the first, and must land on
/// the same state.
fn gen_case(s: &mut Source) -> (Program, Time, Vec<u64>) {
    let prog = gen_program(s);
    let deadline = Time::fs(s.u64_in(5, 60));
    let mut slices = vec![s.u64_in(20, 200)];
    for _ in 0..s.usize_in(0, 2) {
        let last = slices.pop().unwrap();
        if last < 2 {
            slices.push(last);
            break;
        }
        let cut = s.u64_in(1, last - 1);
        slices.extend([cut, last - cut]);
    }
    (prog, deadline, slices)
}

/// Runs a drawn case through the full matrix under an optional fault;
/// any divergence fails. Returns the case with its matrix run.
fn run_case(
    s: &mut Source,
    fault: Option<TestFault>,
) -> Result<(Program, Time, Vec<u64>, MatrixOutcome), Failed> {
    let (prog, deadline, slices) = gen_case(s);
    let out = run_matrix(&prog, deadline, &slices, &CELLS, fault)
        .map_err(|e| Failed::new(format!("checkpoint/restore: {e}")))?;
    match &out.divergence {
        Some(d) => Err(Failed::new(d.to_string())),
        None => Ok((prog, deadline, slices, out)),
    }
}

fn matrix_prop(s: &mut Source, fault: Option<TestFault>) -> TestResult {
    run_case(s, fault).map(drop)
}

#[test]
fn every_configuration_matches_the_scan_reference() {
    // Cases whose resume cells checkpointed mid-budget, and cases where
    // they checkpointed after the first slice stopped early at the
    // deadline or at quiescence (the state `vhdld` checkpoints).
    let (mid_budget, early) = (AtomicUsize::new(0), AtomicUsize::new(0));
    forall!(
        Config::new("every_configuration_matches_the_scan_reference").cases(96),
        |s| {
            let (prog, deadline, slices, out) = run_case(s, None)?;
            // Every resume cell checkpoints unless the first slice failed.
            let first = run_cell(
                &prog,
                deadline,
                &slices[..1],
                Cell::solid(Engine::Interp, 1),
                None,
            )
            .map_err(|e| Failed::new(e.to_string()))?
            .obs
            .outcome;
            let healthy = !first.starts_with("err");
            for run in out.runs.iter().filter(|r| r.cell.resume.is_some()) {
                check_eq!(
                    run.blob.is_some(),
                    healthy,
                    "{} after {first}",
                    run.cell.name()
                );
            }
            if healthy {
                let counter = if first == "CycleBudget" {
                    &mid_budget
                } else {
                    &early
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            // Checkpoints are taken at cycle barriers, where state does not
            // depend on the worker count.
            let blob = |name: &str| {
                out.runs
                    .iter()
                    .find(|r| r.cell.name() == name)
                    .unwrap()
                    .blob
                    .clone()
            };
            check_eq!(
                blob("interp/j4/resume-j1"),
                blob("interp/j1/resume-j4"),
                "checkpoint blob must be worker-count-independent"
            );
        }
    );
    let (mid_budget, early) = (mid_budget.into_inner(), early.into_inner());
    assert!(
        mid_budget > 0 && early > 0,
        "checkpoints: {mid_budget} mid-budget, {early} at an early stop"
    );
}

/// With `ResolutionFirstDriverOnly` armed on the multi-worker cells, the
/// matrix must catch the lost bus update within a fixed seed range, and
/// shrinking must leave a program that still diverges — and conforms once
/// the fault is gone.
#[test]
fn injected_fault_is_caught_and_shrunk() {
    let fault = Some(TestFault::ResolutionFirstDriverOnly);
    let failing = (0..64u64)
        .find_map(|seed| {
            let mut s = Source::from_seed(seed);
            matrix_prop(&mut s, fault).is_err().then(|| s.drawn())
        })
        .expect("a multi-writer bus divergence within 64 seeds");
    let (shrunk, msg) =
        shrink_stream(|s| matrix_prop(s, fault), failing, 128).expect("the failing stream replays");
    // The fault arms only on multi-worker cells: the first of them is the
    // first to diverge.
    assert!(
        msg.msg.starts_with("scan/j1/solid vs interp/j2/solid"),
        "{}",
        msg.msg
    );
    assert!(matrix_prop(&mut Source::of_stream(shrunk.clone()), fault).is_err());
    assert!(matrix_prop(&mut Source::of_stream(shrunk), None).is_ok());
}

fn assert_conforms(out: &MatrixOutcome) {
    if let Some(d) = &out.divergence {
        panic!("{d}");
    }
}

/// A fixed program with every feature at once: transport and inertial
/// drivers, a resolved bus, cross sensitivity with timeouts.
#[test]
fn fixed_program_matches_across_the_matrix() {
    let mut prog = Program::default();
    let a = prog.add_signal("top.a", Val::Int(0));
    let b = prog.add_signal("top.b", Val::Int(0));
    let f = prog.add_function(sum_mod4());
    let bus = prog.add_signal("top.bus", Val::Int(0));
    prog.signals[bus.0 as usize].resolution = Some(f);
    for (pi, (mine, other)) in [(a, b), (b, a)].into_iter().enumerate() {
        prog.add_process(
            format!("top.p{pi}"),
            1,
            vec![
                Insn::LoadVar(slot(0)),
                Insn::PushInt(1),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                // mine <= counter mod 2 after 2 fs (transport);
                Insn::LoadVar(slot(0)),
                Insn::PushInt(2),
                Insn::Binop(Op::Mod),
                Insn::PushInt(2),
                Insn::Sched {
                    sig: mine,
                    transport: true,
                },
                // bus <= counter mod 3, delta (inertial preemption);
                Insn::LoadVar(slot(0)),
                Insn::PushInt(3),
                Insn::Binop(Op::Mod),
                Insn::PushInt(-1),
                Insn::Sched {
                    sig: bus,
                    transport: false,
                },
                // wait on the other signal, 3 fs timeout.
                Insn::PushInt(3),
                Insn::Wait {
                    sens: Arc::new(vec![other]),
                    with_timeout: true,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    prog.finalize_sensitivity();
    let out = run_matrix(&prog, Time::fs(40), &[17, 500], &CELLS, None).unwrap();
    assert_conforms(&out);
}

/// A run that dies of arithmetic overflow fails at the same instruction
/// with the same message and instruction count everywhere.
#[test]
fn runtime_error_boundary_identical_across_the_matrix() {
    let mut prog = Program::default();
    let clk = prog.add_signal("top.clk", Val::Int(0));
    // x := x * 2 + 1 every delta cycle: overflows i64 after 62 rounds.
    prog.add_process(
        "top.grow",
        1,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(2),
            Insn::Binop(Op::Mul),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(1),
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
    prog.finalize_sensitivity();
    let out = run_matrix(&prog, Time::fs(10_000), &[u64::MAX], &CELLS, None).unwrap();
    assert_conforms(&out);
    assert_eq!(
        out.runs[0].obs.outcome,
        "err: runtime error in top.grow: arithmetic overflow"
    );
}

/// VHDL `mod` by a power of two is the euclidean remainder for negative
/// `x` too, where a truncated `%` or a bit mask on the wrong sign would
/// give a negative answer.
#[test]
fn mod_by_power_of_two_matches_interp_for_negative_operands() {
    let mut prog = Program::default();
    let clk = prog.add_signal("top.clk", Val::Int(0));
    let rem = prog.add_signal("top.rem", Val::Int(0));
    // x := x - 7; rem <= x mod 8 (delta): x dives negative on the first
    // activation and stays there.
    prog.add_process(
        "top.neg",
        1,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(7),
            Insn::Binop(Op::Sub),
            Insn::StoreVar(slot(0)),
            Insn::LoadVar(slot(0)),
            Insn::PushInt(8),
            Insn::Binop(Op::Mod),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: rem,
                transport: false,
            },
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(1),
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
    prog.finalize_sensitivity();
    let cells = [Cell::solid(Engine::Scan, 1), Cell::solid(Engine::Interp, 1)];
    let out = run_matrix(&prog, Time::fs(100), &[u64::MAX], &cells, None).unwrap();
    assert_conforms(&out);
    // Euclidean, not truncated: -7k mod 8 is always in 0..8.
    match &out.runs[1].obs.sig_vals[rem.0 as usize] {
        Val::Int(v) => assert!((0..8).contains(v), "euclidean remainder, got {v}"),
        other => panic!("integer remainder expected, got {other:?}"),
    }
}

/// The injected fault must really change behaviour, and only where armed:
/// a two-writer resolved bus resolves to the first driver alone on a
/// multi-worker cell, and to the true sum on a sequential one.
#[test]
fn test_fault_breaks_resolution_commit_on_parallel_cells_only() {
    let mut prog = Program::default();
    let f = prog.add_function(sum_mod4());
    let bus = prog.add_signal("top.bus", Val::Int(0));
    prog.signals[bus.0 as usize].resolution = Some(f);
    // Two one-shot drivers, 1 and 2: faithful resolution sums to 3.
    for (pi, v) in [1i64, 2].into_iter().enumerate() {
        prog.add_process(
            format!("top.p{pi}"),
            0,
            vec![
                Insn::PushInt(v),
                Insn::PushInt(1),
                Insn::Sched {
                    sig: bus,
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Halt,
            ],
        );
    }
    prog.finalize_sensitivity();
    let fault = Some(TestFault::ResolutionFirstDriverOnly);
    let bus_at = |jobs| {
        let run = run_cell(
            &prog,
            Time::fs(5),
            &[u64::MAX],
            Cell::solid(Engine::Interp, jobs),
            fault,
        );
        run.unwrap().obs.sig_vals[bus.0 as usize].clone()
    };
    assert_eq!(bus_at(1), Val::Int(3));
    assert_eq!(bus_at(2), Val::Int(1));
}

/// Interpreter cells at the given worker counts, sequential first.
fn interp_at(jobs: &[usize]) -> Vec<Cell> {
    jobs.iter()
        .map(|&j| Cell::solid(Engine::Interp, j))
        .collect()
}

/// A process counting activations and driving `sig <= counter mod m`.
fn counting_driver(sig: SigId, m: i64, delay: i64) -> Vec<Insn> {
    vec![
        Insn::LoadVar(slot(0)),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::StoreVar(slot(0)),
        Insn::LoadVar(slot(0)),
        Insn::PushInt(m),
        Insn::Binop(Op::Mod),
        Insn::PushInt(delay),
        Insn::Sched {
            sig,
            transport: false,
        },
    ]
}

/// Worker split edge case: processes with empty sensitivity
/// (timeout-only) share cycles with signal-sensitive ones — every one
/// must land on a worker and commit in order.
#[test]
fn empty_sensitivity_process_is_deterministic() {
    let mut prog = Program::default();
    let sigs: Vec<SigId> = (0..6)
        .map(|i| prog.add_signal(format!("top.s{i}"), Val::Int(0)))
        .collect();
    for (i, &sig) in sigs.iter().enumerate() {
        let mut code = counting_driver(sig, 2, 1);
        if i % 2 == 0 {
            // Timeout-only: wait 2 fs with no sensitivity at all.
            code.push(Insn::PushInt(2));
            code.push(Insn::Wait {
                sens: Arc::new(vec![]),
                with_timeout: true,
            });
        } else {
            code.push(Insn::Wait {
                sens: Arc::new(vec![sig]),
                with_timeout: false,
            });
        }
        code.extend([Insn::Pop, Insn::Jump(0)]);
        prog.add_process(format!("top.p{i}"), 1, code);
    }
    prog.finalize_sensitivity();
    let out = run_matrix(&prog, Time::fs(50), &[500], &interp_at(&[1, 2, 4]), None).unwrap();
    assert_conforms(&out);
}

/// Worker split edge case: seven processes on one resolved bus are dealt
/// out round-robin, so one signal's drivers execute on different workers,
/// unevenly at jobs 3. Buffered commits must still produce the sequential
/// driver order.
#[test]
fn shared_signal_split_across_partitions() {
    let mut prog = Program::default();
    let f = prog.add_function(sum_mod4());
    let bus = prog.add_signal("top.bus", Val::Int(0));
    prog.signals[bus.0 as usize].resolution = Some(f);
    let tick = prog.add_signal("top.tick", Val::Int(0));
    let wait_tick = [
        Insn::Wait {
            sens: Arc::new(vec![tick]),
            with_timeout: false,
        },
        Insn::Pop,
        Insn::Jump(0),
    ];
    // The clock drives tick every fs; six writers sense tick and drive the
    // bus, so all seven are ready in the same cycles.
    let mut clk = counting_driver(tick, 2, 1);
    clk.extend(wait_tick.clone());
    prog.add_process("top.clk", 1, clk);
    for i in 0..6 {
        let mut code = counting_driver(bus, i + 2, -1);
        code.extend(wait_tick.clone());
        prog.add_process(format!("top.w{i}"), 1, code);
    }
    prog.finalize_sensitivity();
    let out = run_matrix(
        &prog,
        Time::fs(40),
        &[800],
        &interp_at(&[1, 2, 3, 4, 8]),
        None,
    )
    .unwrap();
    assert_conforms(&out);
}

/// Worker split edge case: a process calling a recursive subprogram (a
/// frame stack several deep at each activation) sharing a cycle — and,
/// when the ready set outnumbers the workers, a worker — with plain
/// oscillators.
#[test]
fn recursive_caller_shares_a_worker() {
    let mut prog = Program::default();
    // rec(n) = if n > 0 { rec(n - 1) } else { 0 }.
    let f = prog.add_function(FnDecl {
        name: "rec".into(),
        n_params: 1,
        n_locals: 1,
        code: Arc::new(vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(0),
            Insn::Binop(Op::Gt),
            Insn::JumpIfFalse(9),
            Insn::LoadVar(slot(0)),
            Insn::PushInt(-1),
            Insn::Binop(Op::Add),
            Insn::Call(FnId(0)),
            Insn::Ret { has_value: true },
            Insn::PushInt(0), // 9: base case
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    });
    let sigs: Vec<SigId> = (0..5)
        .map(|i| prog.add_signal(format!("top.s{i}"), Val::Int(0)))
        .collect();
    // Process 0 calls the recursive function every activation.
    prog.add_process(
        "top.fallback",
        2,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
            Insn::LoadVar(slot(0)),
            Insn::PushInt(4),
            Insn::Binop(Op::Mod),
            Insn::Call(f),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: sigs[0],
                transport: false,
            },
            Insn::PushInt(1),
            Insn::Wait {
                sens: Arc::new(vec![]),
                with_timeout: true,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    // Four plain oscillators.
    for (i, &sig) in sigs.iter().enumerate().skip(1) {
        prog.add_process(
            format!("top.osc{i}"),
            1,
            vec![
                Insn::LoadSig(sig),
                Insn::Unop(Op::Not),
                Insn::PushInt(1),
                Insn::Sched {
                    sig,
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![sig]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    prog.finalize_sensitivity();
    let out = run_matrix(&prog, Time::fs(60), &[600], &interp_at(&[1, 2, 4]), None).unwrap();
    assert_conforms(&out);
}
