//! `vhdlconform` — drive the generative differential-conformance suite.
//!
//! ```text
//! vhdlconform generate --seed N [--profile small|heavy] [--out DIR | --show]
//! vhdlconform run --seed-dir DIR [--inject-fault] [--update]
//! vhdlconform run --fresh N [--seed BASE] [--profile P] [--inject-fault] [--out DIR]
//! vhdlconform triage --seed-dir DIR --case NAME
//! ```
//!
//! Exit status: 0 = all cases conform, 1 = divergence/digest drift/
//! rejection (reproducer printed and, with `--out`, filed), 2 = usage.

use std::path::PathBuf;
use std::process::ExitCode;

use ag_harness::Source;
use sim_kernel::TestFault;
use vhdl_conform::{fuzz, gen_design, load_dir, replay, Case, CaseVerdict, Profile};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         vhdlconform generate --seed N [--profile small|heavy] [--out DIR | --show]\n  \
         vhdlconform run --seed-dir DIR [--inject-fault] [--update]\n  \
         vhdlconform run --fresh N [--seed BASE] [--profile small|heavy] [--inject-fault] [--out DIR]\n  \
         vhdlconform triage --seed-dir DIR --case NAME"
    );
    ExitCode::from(2)
}

struct Opts {
    seed: u64,
    profile: Profile,
    seed_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    fresh: Option<u64>,
    case: Option<String>,
    inject_fault: bool,
    update: bool,
    show: bool,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        seed: 1,
        profile: Profile::Small,
        seed_dir: None,
        out: None,
        fresh: None,
        case: None,
        inject_fault: false,
        update: false,
        show: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => o.seed = parse_u64(it.next()?)?,
            "--profile" => o.profile = Profile::parse(it.next()?)?,
            "--seed-dir" => o.seed_dir = Some(PathBuf::from(it.next()?)),
            "--out" => o.out = Some(PathBuf::from(it.next()?)),
            "--fresh" => o.fresh = Some(parse_u64(it.next()?)?),
            "--case" => o.case = Some(it.next()?.clone()),
            "--inject-fault" => o.inject_fault = true,
            "--update" => o.update = true,
            "--show" => o.show = true,
            _ => return None,
        }
    }
    Some(o)
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn fault_of(o: &Opts) -> Option<TestFault> {
    o.inject_fault
        .then_some(TestFault::ResolutionFirstDriverOnly)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(opts) = parse_opts(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "run" => cmd_run(&opts),
        "triage" => cmd_triage(&opts),
        _ => usage(),
    }
}

/// Generate one design from a seed: print it, or file it as a corpus
/// case (with golden digest when the matrix agrees).
fn cmd_generate(o: &Opts) -> ExitCode {
    let mut s = Source::from_seed(o.seed);
    let design = gen_design(&mut s, o.profile);
    if o.show || o.out.is_none() {
        print!("{}", design.source);
        eprintln!(
            "-- top {} cycles {} ({} draws, profile {})",
            design.top,
            design.cycles,
            s.drawn().len(),
            o.profile.name()
        );
        return ExitCode::SUCCESS;
    }
    let mut case = Case {
        name: format!("seed_{:#x}_{}", o.seed, o.profile.name()),
        note: format!("generated from seed {:#x}", o.seed),
        profile: o.profile,
        stream: s.drawn(),
        digest: None,
    };
    match replay(&case, None) {
        CaseVerdict::Pass { digest } => case.digest = Some(digest),
        CaseVerdict::Diverged(d, _) => {
            eprintln!(
                "seed {:#x} diverges ({d}); filing digest-less reproducer",
                o.seed
            );
        }
        CaseVerdict::Error(e) => {
            eprintln!("seed {:#x} rejected: {e}", o.seed);
            return ExitCode::FAILURE;
        }
        CaseVerdict::DigestDrift { .. } => unreachable!("fresh case has no digest"),
    }
    let dir = o.out.as_ref().unwrap();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let path = dir.join(format!("{}.case", case.name));
    if let Err(e) = std::fs::write(&path, case.render()) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("filed {}", path.display());
    ExitCode::SUCCESS
}

/// Run conformance: either replay a corpus directory, or fuzz fresh
/// seeds (shrinking and optionally filing any failure).
fn cmd_run(o: &Opts) -> ExitCode {
    if let Some(count) = o.fresh {
        return run_fresh(o, count);
    }
    let Some(dir) = &o.seed_dir else {
        eprintln!("run: need --seed-dir or --fresh");
        return ExitCode::from(2);
    };
    let cases = match load_dir(dir) {
        Ok(cs) => cs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if cases.is_empty() {
        eprintln!("{}: no .case files", dir.display());
        return ExitCode::FAILURE;
    }
    let fault = fault_of(o);
    let mut failed = 0usize;
    for case in &cases {
        match replay(case, fault) {
            CaseVerdict::Pass { digest } => {
                println!(
                    "ok   {} ({} cells byte-identical, digest {digest:#x})",
                    case.name,
                    vhdl_conform::oracle::CELLS.len()
                );
            }
            CaseVerdict::DigestDrift { want, got } => {
                failed += 1;
                if o.update {
                    let path = dir.join(format!("{}.case", case.name));
                    let mut updated = case.clone();
                    updated.digest = Some(got);
                    match std::fs::write(&path, updated.render()) {
                        Ok(()) => {
                            failed -= 1;
                            println!("upd  {} (digest {want:#x} -> {got:#x})", case.name);
                        }
                        Err(e) => eprintln!("FAIL {}: update failed: {e}", case.name),
                    }
                } else {
                    println!(
                        "FAIL {}: semantic drift — matrix agrees but digest {got:#x} != golden {want:#x}",
                        case.name
                    );
                }
            }
            CaseVerdict::Diverged(d, _) => {
                failed += 1;
                println!("FAIL {}: {d}", case.name);
                let rep =
                    vhdl_conform::shrink_failure(0, case.stream.clone(), case.profile, fault, 2048);
                println!("{}", rep.triage());
                println!("minimized reproducer: stream {} draws", rep.stream.len());
            }
            CaseVerdict::Error(e) => {
                failed += 1;
                println!("FAIL {}: {e}", case.name);
            }
        }
    }
    println!(
        "{} of {} corpus cases conform",
        cases.len() - failed,
        cases.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_fresh(o: &Opts, count: u64) -> ExitCode {
    let fault = fault_of(o);
    let mut done = 0u64;
    let rep = fuzz(o.seed, count, o.profile, fault, 4096, &mut |_, _, _| {
        done += 1;
    });
    match rep {
        None => {
            println!(
                "{done} fresh {} cases conform (seeds {:#x}..{:#x})",
                o.profile.name(),
                o.seed,
                o.seed + count
            );
            ExitCode::SUCCESS
        }
        Some(rep) => {
            println!("{}", rep.triage());
            println!("minimized reproducer: stream {} draws", rep.stream.len());
            if let Some(dir) = &o.out {
                let name = format!("repro_{:#x}", rep.seed);
                let case = rep.to_case(&name);
                if std::fs::create_dir_all(dir).is_ok() {
                    let path = dir.join(format!("{name}.case"));
                    match std::fs::write(&path, case.render()) {
                        Ok(()) => println!("filed {}", path.display()),
                        Err(e) => eprintln!("{}: {e}", path.display()),
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// Re-run one corpus case and print its full triage report (source,
/// matrix result, digest).
fn cmd_triage(o: &Opts) -> ExitCode {
    let Some(dir) = &o.seed_dir else {
        eprintln!("triage: need --seed-dir");
        return ExitCode::from(2);
    };
    let Some(name) = &o.case else {
        eprintln!("triage: need --case NAME");
        return ExitCode::from(2);
    };
    let path = dir.join(format!("{name}.case"));
    let case = match Case::load(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let design = case.design();
    println!(
        "-- case {} (profile {}, {} draws, {} cycles)",
        case.name,
        case.profile.name(),
        case.stream.len(),
        design.cycles
    );
    if !case.note.is_empty() {
        println!("-- note: {}", case.note);
    }
    print!("{}", design.source);
    let fault = fault_of(o);
    match replay(&case, fault) {
        CaseVerdict::Pass { digest } => {
            println!("-- verdict: conforms, digest {digest:#x}");
            ExitCode::SUCCESS
        }
        CaseVerdict::DigestDrift { want, got } => {
            println!("-- verdict: semantic drift, digest {got:#x} != golden {want:#x}");
            ExitCode::FAILURE
        }
        CaseVerdict::Diverged(d, out) => {
            println!("-- verdict: DIVERGED: {d}");
            for run in &out.runs {
                println!(
                    "--   {}: outcome {}, digest {:#x}",
                    run.cell.name(),
                    run.obs.outcome,
                    run.obs.digest()
                );
            }
            ExitCode::FAILURE
        }
        CaseVerdict::Error(e) => {
            println!("-- verdict: rejected: {e}");
            ExitCode::FAILURE
        }
    }
}
