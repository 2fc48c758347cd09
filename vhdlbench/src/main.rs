//! `vhdlbench` — one seeded benchmark over the compiler, the simulation
//! kernel, the `vhdld` server and the batch driver.
//!
//! ```text
//! vhdlbench --seed N [--workload W] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]
//! vhdlbench compare PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC] [--bench FILE]
//! ```
//!
//! Without `--workload` every workload runs in its own child process (this
//! binary, re-executed), so peak memory is per workload. See `README.md`.

mod compare;
mod front;
mod gen;
mod harness;
mod model;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage:
  vhdlbench --seed N [--workload W] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]
  vhdlbench compare PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC] [--bench FILE]";

/// Nominal run length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`); it fixes each workload's pass count.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut seed = None;
    let mut a = Args {
        seed: 0,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(".vhdlbench"),
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("a number")?;
                seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--workload" => a.workload = Some(value("a name")?),
            "--seconds" => {
                let v = value("a number")?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> i32 {
    let epoch = Instant::now();
    let a = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vhdlbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("vhdlbench: cannot create {}: {e}", a.out.display());
        return 2;
    }
    let Some(workload) = a.workload else {
        // One child process per workload, one after another.
        let exe = match std::env::current_exe() {
            Ok(e) => e,
            Err(e) => {
                eprintln!("vhdlbench: cannot find own executable: {e}");
                return 2;
            }
        };
        for w in workloads::NAMES {
            match std::process::Command::new(&exe)
                .args(args)
                .args(["--workload", w])
                .status()
            {
                Ok(s) if s.success() => {}
                Ok(s) => return s.code().unwrap_or(1),
                Err(e) => {
                    eprintln!("vhdlbench: cannot run the {w} workload: {e}");
                    return 1;
                }
            }
        }
        return 0;
    };
    let ctx = harness::Ctx {
        workload,
        seed: a.seed,
        seconds: if a.smoke { a.seconds / 20.0 } else { a.seconds },
        trace: a.trace,
        smoke: a.smoke,
        out: a.out,
        epoch,
    };
    let outcome = workloads::run(&ctx).expect("workload name checked while parsing");
    if harness::report(&ctx, outcome) {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}
