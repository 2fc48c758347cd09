//! Seeded, deterministic random VHDL design generator.
//!
//! Every design is drawn from an [`ag_harness::Source`] choice stream, so
//! the same stream always yields byte-identical VHDL text — which makes a
//! stream a complete, replayable, *shrinkable* description of a test
//! case. The generator deliberately aims at the kernel's hard corners:
//!
//! - resolved buses with several writer processes (the §2.1 bus-resolution
//!   machinery, and the surface a broken parallel commit shows up on);
//! - inertial vs `transport` waveforms with colliding delays;
//! - `wait for 0 ns` processes (delta storms that never advance time);
//! - cross-process sensitivity webs (`wait on` lists, sensitivity-list
//!   processes, and concurrent assignments reading other processes'
//!   signals);
//! - runtime faults: division by an expression that eventually reaches
//!   zero, so every configuration must fail at the same instant with the
//!   same message;
//! - a recursive subprogram (frame stacks several calls deep at a
//!   suspension);
//! - structural hierarchy: leaf entities instantiated via component
//!   declarations, so designs are genuinely multi-unit.
//!
//! Every unresolved signal has exactly one writer (tracked during
//! generation), so generated designs are well-typed by construction: any
//! analyzer rejection is a generator bug and fails the conformance
//! property immediately.

use std::fmt::Write as _;

use ag_harness::Source;

/// Generator size profile: the same machinery emits shrunk minimal cases
/// and bench-scale heavy fixtures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// A handful of processes; cycle budgets in the hundreds. The fuzzing
    /// and corpus profile.
    Small,
    /// Tens of processes over a wide signal fabric; cycle budgets in the
    /// tens of thousands. The realistic-input profile for `exp_kernel`.
    Heavy,
}

impl Profile {
    /// The corpus-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Small => "small",
            Profile::Heavy => "heavy",
        }
    }

    /// Parses the corpus-file spelling.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "small" => Some(Profile::Small),
            "heavy" => Some(Profile::Heavy),
            _ => None,
        }
    }
}

/// A generated test case: the design text plus how long to run it.
#[derive(Clone, Debug)]
pub struct Design {
    /// Complete VHDL source (package + leaf entities + top).
    pub source: String,
    /// Name of the top entity to elaborate (always `top`).
    pub top: String,
    /// Total simulation-cycle budget for a conformance run. Cycle
    /// budgets, not deadlines, bound the run so zero-delay delta storms
    /// terminate; checkpoint cells split this budget at its midpoint.
    pub cycles: u64,
}

/// Integer expression over a process's own variable `v` and readable
/// signals: a `mod`-bounded polynomial, so values stay small and runtime
/// division hazards are the *only* intentional fault sites.
fn int_expr(s: &mut Source, reads: &[String]) -> String {
    let var = || "v".to_string();
    let base = match s.usize_in(0, 2) {
        0 => var(),
        1 if !reads.is_empty() => s.pick(reads).clone(),
        _ => format!("{}", s.i64_in(0, 9)),
    };
    match s.usize_in(0, 3) {
        0 => format!("({base} + {}) mod {}", s.i64_in(1, 7), s.i64_in(2, 9)),
        1 => format!(
            "({base} * {} + {}) mod {}",
            s.i64_in(2, 5),
            s.i64_in(0, 7),
            s.i64_in(3, 16)
        ),
        2 if !reads.is_empty() => {
            let other = s.pick(reads).clone();
            format!("({base} + {other}) mod {}", s.i64_in(2, 9))
        }
        _ => base,
    }
}

/// A bit-valued expression over readable bit signals.
fn bit_expr(s: &mut Source, bit_reads: &[String]) -> String {
    match s.usize_in(0, 2) {
        0 | 1 if !bit_reads.is_empty() => {
            let a = s.pick(bit_reads).clone();
            if s.bool() {
                format!("not {a}")
            } else {
                let b = s.pick(bit_reads).clone();
                let op = *s.pick(&["and", "or", "xor"]);
                format!("{a} {op} {b}")
            }
        }
        _ => format!("'{}'", s.u64_in(0, 1)),
    }
}

/// An `after` clause: `None` is a delta assignment; zero is an explicit
/// zero delay (also delta, but a distinct kernel marker); positive values
/// go through the far calendar.
fn delay(s: &mut Source) -> String {
    match *s.pick(&[-1i64, 0, 1, 2, 3, 5]) {
        -1 => String::new(),
        d => format!(" after {d} ns"),
    }
}

/// A waveform of 1–2 elements with strictly increasing delays —
/// multi-element waveforms are where inertial preemption bites.
fn waveform(s: &mut Source, value: impl Fn(&mut Source) -> String) -> String {
    let first_delay = *s.pick(&[-1i64, 0, 1, 2, 3, 5]);
    let v1 = value(s);
    if first_delay >= 0 && s.bool() {
        let v2 = value(s);
        let d2 = first_delay + s.i64_in(1, 4);
        format!("{v1} after {first_delay} ns, {v2} after {d2} ns")
    } else if first_delay >= 0 {
        format!("{v1} after {first_delay} ns")
    } else {
        v1
    }
}

/// Per-profile size knobs.
struct Knobs {
    procs: usize,
    buses: usize,
    leaves: usize,
    stmts_hi: usize,
    cycles_lo: u64,
    cycles_hi: u64,
    /// 1-in-N chance a division hazard goes unguarded (0 = always
    /// guarded). Heavy designs always guard, so they run their full
    /// cycle budget instead of dying at the first zero denominator.
    div_unguard: u64,
}

fn knobs(s: &mut Source, profile: Profile) -> Knobs {
    match profile {
        Profile::Small => Knobs {
            procs: s.usize_in(1, 4),
            buses: s.usize_in(0, 2),
            leaves: s.usize_in(0, 2),
            stmts_hi: 4,
            cycles_lo: 20,
            cycles_hi: 300,
            div_unguard: 3,
        },
        Profile::Heavy => Knobs {
            procs: s.usize_in(24, 48),
            buses: s.usize_in(2, 5),
            leaves: s.usize_in(2, 6),
            stmts_hi: 6,
            cycles_lo: 10_000,
            cycles_hi: 30_000,
            div_unguard: 0,
        },
    }
}

/// Draws one random well-typed design.
pub fn gen_design(s: &mut Source, profile: Profile) -> Design {
    let k = knobs(s, profile);
    let mut src = String::new();

    // ---- Shared package: resolution + helpers -------------------------
    // Resolution body is drawn: xor-fold is order-insensitive but
    // contribution-sensitive (drops show up); or/sum variants differ in
    // how driver disagreement surfaces.
    let res_kind = s.usize_in(0, 2);
    let res_body = match res_kind {
        0 => "acc := acc xor drivers(i);",
        1 => "acc := acc or drivers(i);",
        _ => "if drivers(i) = '1' then acc := not acc; end if;",
    };
    let mix_mul = s.i64_in(2, 6);
    let mix_add = s.i64_in(1, 99);
    let mix_mod = *s.pick(&[64i64, 128, 256, 1024]);
    src.push_str("-- generated by vhdl-conform; do not edit (regenerate from the choice stream)\n");
    src.push_str("package conf_pkg is\n");
    src.push_str("  function rfun (drivers : bit_vector) return bit;\n");
    src.push_str("  subtype rbit is rfun bit;\n");
    src.push_str("  function mix (x : integer) return integer;\n");
    src.push_str("  function rec (n : integer) return integer;\n");
    src.push_str("end conf_pkg;\n");
    src.push_str("package body conf_pkg is\n");
    src.push_str("  function rfun (drivers : bit_vector) return bit is\n");
    src.push_str("    variable acc : bit := '0';\n");
    src.push_str("  begin\n");
    src.push_str("    for i in 0 to drivers'length - 1 loop\n");
    let _ = writeln!(src, "      {res_body}");
    src.push_str("    end loop;\n");
    src.push_str("    return acc;\n");
    src.push_str("  end rfun;\n");
    src.push_str("  function mix (x : integer) return integer is\n");
    src.push_str("  begin\n");
    let _ = writeln!(src, "    return (x * {mix_mul} + {mix_add}) mod {mix_mod};");
    src.push_str("  end mix;\n");
    // Recursion: a call chain several frames deep.
    src.push_str("  function rec (n : integer) return integer is\n");
    src.push_str("  begin\n");
    src.push_str("    if n < 2 then\n");
    src.push_str("      return n;\n");
    src.push_str("    end if;\n");
    src.push_str("    return rec(n - 1) + rec(n - 2);\n");
    src.push_str("  end rec;\n");
    src.push_str("end conf_pkg;\n");

    // ---- Leaf entity (structural hierarchy) ---------------------------
    let leaf_mul = s.i64_in(2, 5);
    let leaf_add = s.i64_in(0, 9);
    let leaf_delay = s.i64_in(1, 3);
    if k.leaves > 0 {
        src.push_str("entity leaf is\n");
        src.push_str("  port (a : in integer; y : out integer);\n");
        src.push_str("end leaf;\n");
        src.push_str("architecture b of leaf is\n");
        src.push_str("begin\n");
        let _ = writeln!(
            src,
            "  y <= (a * {leaf_mul} + {leaf_add}) mod 512 after {leaf_delay} ns;"
        );
        src.push_str("end b;\n");
    }

    // ---- Top-level fabric ---------------------------------------------
    // Ownership discipline: unresolved signals (integer, bit) get exactly
    // one writer — a process, a concurrent assignment, or a leaf
    // instance. Resolved buses may be written by anyone.
    let n_procs = k.procs;
    let buses: Vec<String> = (0..k.buses).map(|i| format!("bus{i}")).collect();
    // Per-process owned signals.
    let mut int_sigs: Vec<String> = Vec::new(); // one per process: s{i}
    let mut clk_sigs: Vec<String> = Vec::new(); // one per process: clk{i}
    for i in 0..n_procs {
        int_sigs.push(format!("s{i}"));
        clk_sigs.push(format!("clk{i}"));
    }
    // Web signals: written by concurrent assignments; read anywhere.
    let n_webs = s.usize_in(0, (n_procs / 2).max(1));
    let webs: Vec<String> = (0..n_webs).map(|i| format!("w{i}")).collect();
    // Leaf instance outputs.
    let leaves: Vec<String> = (0..k.leaves).map(|i| format!("ly{i}")).collect();

    src.push_str("use work.conf_pkg.all;\n");
    src.push_str("entity top is end;\n");
    src.push_str("architecture gen of top is\n");
    if k.leaves > 0 {
        src.push_str("  component leaf\n");
        src.push_str("    port (a : in integer; y : out integer);\n");
        src.push_str("  end component;\n");
    }
    for b in &buses {
        let _ = writeln!(src, "  signal {b} : rbit := '0';");
    }
    for (sigs, ty, init) in [
        (&int_sigs, "integer", "0"),
        (&clk_sigs, "bit", "'0'"),
        (&webs, "integer", "0"),
        (&leaves, "integer", "0"),
    ] {
        for sig in sigs.iter() {
            let _ = writeln!(src, "  signal {sig} : {ty} := {init};");
        }
    }
    src.push_str("begin\n");

    // Concurrent assignments: the sensitivity web. Each reads 1–2 other
    // integer signals, with an optional delay.
    for (wi, w) in webs.iter().enumerate() {
        let a = s.pick(&int_sigs).clone();
        let expr = if s.bool() {
            let b = s.pick(&int_sigs).clone();
            format!("({a} + {b}) mod {}", s.i64_in(4, 32))
        } else {
            format!("({a} * {} + {wi}) mod {}", s.i64_in(2, 4), s.i64_in(4, 32))
        };
        let _ = writeln!(src, "  cw{wi} : {w} <= {expr}{};", delay(s));
    }
    // Leaf instances: inputs from the integer fabric.
    for (li, ly) in leaves.iter().enumerate() {
        let a = s.pick(&int_sigs).clone();
        let _ = writeln!(src, "  u{li} : leaf port map (a => {a}, y => {ly});");
    }

    // Everything any process may read.
    let int_reads: Vec<String> = int_sigs
        .iter()
        .chain(webs.iter())
        .chain(leaves.iter())
        .cloned()
        .collect();
    let bit_reads: Vec<String> = clk_sigs.iter().chain(buses.iter()).cloned().collect();

    for pi in 0..n_procs {
        let own_int = &int_sigs[pi];
        let own_clk = &clk_sigs[pi];
        // A sensitivity-list process may not contain wait statements; it
        // exists to exercise the elaborator's static-sensitivity
        // metadata. Drawn rarely; the rest end with an explicit wait.
        let sens_style = s.usize_in(0, 5) == 0;
        if sens_style {
            let mut sens: Vec<String> = s.vec(1, 3, |s| s.pick(&int_reads).clone());
            sens.sort();
            sens.dedup();
            let _ = writeln!(src, "  p{pi} : process ({})", sens.join(", "));
        } else {
            let _ = writeln!(src, "  p{pi} : process");
        }
        let _ = writeln!(src, "    variable v : integer := {};", s.i64_in(0, 7));
        src.push_str("  begin\n");

        let n_stmts = s.usize_in(1, k.stmts_hi);
        for _ in 0..n_stmts {
            match s.usize_in(0, 9) {
                // Variable churn through the shared helper.
                0 | 1 => {
                    let e = int_expr(s, &int_reads);
                    let _ = writeln!(src, "    v := mix(v + ({e}));");
                }
                // Own integer signal, possibly transport, possibly a
                // colliding two-element waveform.
                2 | 3 => {
                    let tr = if s.bool() { "transport " } else { "" };
                    let wf = waveform(s, |s| int_expr(s, &int_reads));
                    let _ = writeln!(src, "    {own_int} <= {tr}{wf};");
                }
                // Bus write: the multi-writer resolved corner.
                4 | 5 if !buses.is_empty() => {
                    let b = s.pick(&buses).clone();
                    let tr = if s.bool() { "transport " } else { "" };
                    let wf = waveform(s, |s| bit_expr(s, &bit_reads));
                    let _ = writeln!(src, "    {b} <= {tr}{wf};");
                }
                // Clock toggle (keeps time advancing).
                4 | 5 => {
                    let d = s.i64_in(1, 3);
                    let _ = writeln!(src, "    {own_clk} <= not {own_clk} after {d} ns;");
                }
                // Conditional block around an own-signal write.
                6 => {
                    let m = s.i64_in(2, 4);
                    let e = int_expr(s, &int_reads);
                    let _ = writeln!(src, "    if v mod {m} = 1 then");
                    let _ = writeln!(src, "      {own_int} <= ({e}) + 1{};", delay(s));
                    src.push_str("    else\n");
                    let _ = writeln!(src, "      v := (v + {}) mod 97;", s.i64_in(1, 9));
                    src.push_str("    end if;\n");
                }
                // Assertion/report stream.
                7 => {
                    let m = s.i64_in(3, 9);
                    let _ = writeln!(
                        src,
                        "    assert v mod {m} /= 1 report \"p{pi} v={m}k+1\" severity note;"
                    );
                }
                // Division hazard: the denominator walks with v and
                // eventually hits zero in some designs — every
                // configuration must die identically.
                8 => {
                    let m = s.i64_in(2, 6);
                    let add = s.i64_in(0, 3);
                    let den = format!("(v + s{pi}) mod {m}");
                    let unguarded = k.div_unguard > 0 && s.u64_in(1, k.div_unguard) == 1;
                    if unguarded {
                        let _ = writeln!(src, "    v := (v + {add}) / ({den});");
                    } else {
                        let _ = writeln!(src, "    if {den} /= 0 then");
                        let _ = writeln!(src, "      v := (v + {add}) / ({den});");
                        src.push_str("    end if;\n");
                    }
                }
                // Recursive call.
                _ => {
                    let n = s.i64_in(3, 9);
                    let _ = writeln!(src, "    v := (v + rec({n})) mod 256;");
                }
            }
        }

        // Suspension: sensitivity-list processes end implicitly; others
        // draw a wait shape. A plain `wait;` only when the process also
        // has nothing periodic to do is avoided — cycle budgets make even
        // pathological shapes safe.
        if !sens_style {
            // Keep the design alive: ensure this process re-arms its own
            // clock sometimes, so at least one timed event usually exists.
            if s.bool() {
                let d = s.i64_in(1, 3);
                let _ = writeln!(src, "    {own_clk} <= not {own_clk} after {d} ns;");
            }
            match s.usize_in(0, 4) {
                0 => {
                    let mut sens: Vec<String> = s.vec(1, 3, |s| s.pick(&bit_reads).clone());
                    sens.extend(s.vec(0, 2, |s| s.pick(&int_reads).clone()));
                    sens.sort();
                    sens.dedup();
                    let _ = writeln!(src, "    wait on {};", sens.join(", "));
                }
                1 => {
                    let mut sens: Vec<String> = s.vec(1, 3, |s| s.pick(&int_reads).clone());
                    sens.sort();
                    sens.dedup();
                    let t = s.i64_in(1, 6);
                    let _ = writeln!(src, "    wait on {} for {t} ns;", sens.join(", "));
                }
                2 => {
                    let _ = writeln!(src, "    wait for {} ns;", s.i64_in(1, 6));
                }
                // The delta-storm shape: resumes in the same instant,
                // forever; only cycle budgets bound it.
                3 => src.push_str("    wait for 0 ns;\n"),
                _ => src.push_str("    wait;\n"),
            }
        }
        let _ = writeln!(src, "  end process;");
    }
    src.push_str("end gen;\n");

    let cycles = s.u64_in(k.cycles_lo, k.cycles_hi);
    Design {
        source: src,
        top: "top".to_string(),
        cycles,
    }
}
