//! Differential property of `vhdld`'s per-session program cache: seeded
//! scripts of edits, `analyze`, `elaborate`, `run`, `trace`, `checkpoint`
//! and `restore` run on two sessions, one with its kept programs and one
//! whose kept programs are dropped before every `elaborate` and `restore`.
//! Every reply (but its `reused` flag) and the VCD must be byte-identical,
//! and after every `elaborate` and `restore` the cached session's program
//! must have the fingerprint of a fresh elaboration over a copy of its
//! library.

use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ag_harness::Rng;
use sim_kernel::snapshot::program_fingerprint;
use vhdl_server::json::{obj, Json};
use vhdl_server::metrics::Metrics;
use vhdl_server::session::{RequestCtl, Session};
use vhdl_vif::{Library, LibrarySet};

const FULL_ADDER: &str = include_str!("../../../examples/full_adder.vhd");

/// Scripts per run and requests per script.
const SCRIPTS: u64 = 12;
const STEPS: usize = 24;

/// The design's editable versions: the full adder as it is, with one
/// gate changed, and with the testbench's stimulus moved.
fn versions() -> Vec<String> {
    vec![
        FULL_ADDER.to_string(),
        FULL_ADDER.replace("y <= a xor b;", "y <= a or b;"),
        FULL_ADDER.replace("a <= '1' after 10 ns;", "a <= '1' after 12 ns;"),
    ]
}

/// A second architecture of `and2`, which the latest-architecture rule
/// binds once it is analyzed.
const ALT_AND: &str = "architecture alt of and2 is\nbegin\n  y <= a or b;\nend alt;\n";

fn files(named: &[(&str, &str)]) -> Json {
    obj([(
        "files",
        Json::Arr(
            named
                .iter()
                .map(|(n, t)| obj([("name", Json::str(*n)), ("text", Json::str(*t))]))
                .collect(),
        ),
    )])
}

/// One reply as comparable text: `Ok` results without their `reused`
/// flag, errors as they are.
fn comparable(reply: &Result<Json, String>) -> String {
    match reply {
        Ok(Json::Obj(fields)) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "reused")
                .cloned()
                .collect(),
        )
        .to_text(),
        Ok(other) => other.to_text(),
        Err(e) => format!("error: {e}"),
    }
}

/// A top: an entity and the architecture named for it, if any.
type Top = (&'static str, Option<&'static str>);

const TOPS: [Top; 3] = [("tb", None), ("tb", Some("bench")), ("full_adder", None)];

/// The fingerprint of `top` freshly elaborated over a copy of
/// `session`'s library.
fn fresh_fingerprint(session: &Session, (entity, arch): Top) -> u64 {
    let work = Library::from_snapshot(&session.libs().work().snapshot());
    let libs = Rc::new(LibrarySet::new(Rc::new(work), vec![]));
    let program = vhdl_codegen::elaborate(&libs, entity, arch).expect("fresh elaboration");
    program_fingerprint(&program)
}

/// Runs one script; returns the cached session's program hits.
fn script(seed: u64) -> u64 {
    let shutting_down = AtomicBool::new(false);
    let metrics = Mutex::new(Metrics::default());
    let ctl = || RequestCtl {
        wall_deadline: Instant::now() + Duration::from_secs(60),
        shutting_down: &shutting_down,
        metrics: &metrics,
    };
    let versions = versions();
    let mut rng = Rng::new(seed);
    let mut kept = Session::new(None, 1);
    let mut fresh = Session::new(None, 1);
    // Checkpoints taken so far, each with its top.
    let mut snapshots: Vec<(Json, Top)> = Vec::new();
    // The top of the current simulator.
    let mut current = TOPS[0];
    let mut log = Vec::new();
    let first = files(&[("fa.vhd", &versions[0])]);
    for session in [&mut kept, &mut fresh] {
        session.handle("analyze", &first, &ctl()).expect("analyze");
    }
    for step in 0..STEPS {
        let pick = |rng: &mut Rng, n: usize| rng.u64_in(0, n as u64 - 1) as usize;
        let (op, params, top) = match rng.u64_in(0, 9) {
            0 | 1 => {
                let v = &versions[pick(&mut rng, versions.len())];
                let mut params = if rng.u64_in(0, 3) == 0 {
                    files(&[("fa.vhd", v), ("alt.vhd", ALT_AND)])
                } else {
                    files(&[("fa.vhd", v)])
                };
                // A full re-analysis stores unchanged units again, which
                // moves them last in the history and rebinds by the
                // latest-architecture rule with no text changed.
                if let (Json::Obj(fields), 0) = (&mut params, rng.u64_in(0, 2)) {
                    fields.push(("incremental".to_string(), Json::Bool(false)));
                }
                ("analyze", params, current)
            }
            2 | 3 => {
                let top = TOPS[pick(&mut rng, TOPS.len())];
                let arch = top.1.map_or(Json::Null, Json::str);
                let params = obj([("entity", Json::str(top.0)), ("arch", arch)]);
                ("elaborate", params, top)
            }
            4 | 5 => {
                let ns = rng.u64_in(1, 15);
                let params = obj([("for", Json::str(format!("{ns} ns")))]);
                ("run", params, current)
            }
            6 => ("trace", obj([("glob", Json::str("*"))]), current),
            7 => ("checkpoint", obj([]), current),
            _ if snapshots.is_empty() => ("vcd", obj([]), current),
            _ => {
                let (snap, top) = &snapshots[pick(&mut rng, snapshots.len())];
                ("restore", obj([("snapshot", snap.clone())]), *top)
            }
        };
        fresh.forget_programs();
        let a = kept.handle(op, &params, &ctl());
        let b = fresh.handle(op, &params, &ctl());
        log.push(format!("{op} -> {}", comparable(&a)));
        assert_eq!(
            comparable(&a),
            comparable(&b),
            "seed {seed:#x} step {step}: {op} differs with and without kept programs\n{}",
            log.join("\n")
        );
        if let Ok(reply) = &a {
            match op {
                "elaborate" | "restore" => {
                    current = top;
                    let sim = kept.simulator().expect("a simulator after success");
                    let want = fresh_fingerprint(&kept, top);
                    assert_eq!(
                        program_fingerprint(sim.program()),
                        want,
                        "seed {seed:#x} step {step}: {op} served a stale program\n{}",
                        log.join("\n")
                    );
                    assert_eq!(sim.fingerprint(), want, "seed {seed:#x} step {step}");
                }
                "checkpoint" => {
                    snapshots.push((reply.get("snapshot").expect("snapshot").clone(), current));
                }
                _ => {}
            }
        }
    }
    let vcd = |s: &mut Session| s.handle("vcd", &obj([]), &ctl()).map(|j| j.to_text());
    assert_eq!(
        vcd(&mut kept),
        vcd(&mut fresh),
        "seed {seed:#x}: VCD differs"
    );
    assert_eq!(
        fresh.program_counts().0,
        0,
        "an emptied cache serves nothing"
    );
    kept.program_counts().0
}

#[test]
fn kept_programs_match_fresh_elaboration() {
    ag_harness::pool::run_on_stack("program-cache", || {
        let hits: u64 = (1..=SCRIPTS)
            .map(|seed| script(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .sum();
        assert!(hits > 0, "no script was served a kept program");
    });
}
