//! Fresh-seed fuzzing, integrated shrinking, and triage reports.
//!
//! The fuzz loop generates a design from a seeded [`Source`], runs the
//! configuration matrix, and on any failure (divergence *or* pipeline
//! rejection — both mean the system is wrong somewhere) hands the
//! recorded choice stream to `ag_harness::shrink_stream`. The shrink
//! property regenerates a design from the edited stream and re-runs the
//! matrix, so the minimized stream is a complete reproducer: it replays
//! to a small VHDL design that still fails the same way.

use ag_harness::{shrink_stream, Failed, Source, TestResult};
use sim_kernel::oracle::Divergence;
use sim_kernel::TestFault;

use crate::corpus::Case;
use crate::gen::{gen_design, Design, Profile};
use crate::oracle::run_matrix;

/// Why one generated case failed conformance.
#[derive(Clone, Debug)]
pub enum Failure {
    /// Two matrix cells disagreed.
    Diverged(Divergence),
    /// The pipeline rejected the generated design (generator bug) or a
    /// checkpoint step broke.
    Error(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Diverged(d) => write!(f, "{d}"),
            Failure::Error(m) => write!(f, "{m}"),
        }
    }
}

/// A fuzz failure shrunk to a minimized reproducer.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// Seed that produced the original failure.
    pub seed: u64,
    /// Generator profile.
    pub profile: Profile,
    /// Minimized choice stream.
    pub stream: Vec<u64>,
    /// The failure the minimized stream still exhibits.
    pub failure: Failure,
    /// The minimized design.
    pub design: Design,
}

impl Reproducer {
    /// The corpus case filing this reproducer (digest-less until the
    /// underlying bug is fixed and a golden snapshot exists).
    pub fn to_case(&self, name: &str) -> Case {
        Case {
            name: name.to_string(),
            note: format!(
                "seed {:#x}: {}",
                self.seed,
                one_line(&self.failure.to_string())
            ),
            profile: self.profile,
            stream: self.stream.clone(),
            digest: None,
        }
    }

    /// A human-readable triage report: what failed, where the matrix
    /// first disagreed, and the minimized source.
    pub fn triage(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== vhdl-conform triage ==");
        let _ = writeln!(out, "seed:     {:#x}", self.seed);
        let _ = writeln!(out, "profile:  {}", self.profile.name());
        let _ = writeln!(
            out,
            "stream:   {} draws (minimized reproducer)",
            self.stream.len()
        );
        match &self.failure {
            Failure::Diverged(d) => {
                let _ = writeln!(out, "kind:     configuration divergence");
                let _ = writeln!(out, "cells:    {} vs {}", d.base, d.cell);
                let _ = writeln!(out, "first diverging observable: {}", d.observable);
                let _ = writeln!(out, "detail:   {}", d.detail);
            }
            Failure::Error(m) => {
                let _ = writeln!(out, "kind:     pipeline rejection");
                let _ = writeln!(out, "detail:   {m}");
            }
        }
        let _ = writeln!(out, "cycles:   {}", self.design.cycles);
        let _ = writeln!(out, "-- minimized design ({}) --", self.design.top);
        out.push_str(&self.design.source);
        out
    }
}

fn one_line(s: &str) -> String {
    s.replace('\n', " ")
}

/// The property the fuzzer and the shrinker share: draw a design, run
/// the matrix, fail on divergence or rejection.
fn matrix_prop(s: &mut Source, profile: Profile, fault: Option<TestFault>) -> TestResult {
    let design = gen_design(s, profile);
    match run_matrix(&design, fault) {
        Err(e) => Err(Failed::new(e.to_string())),
        Ok(out) => match out.divergence {
            Some(d) => Err(Failed::new(d.to_string())),
            None => Ok(()),
        },
    }
}

/// Progress callback: `(case index, seed, failed?)` after each case.
pub type Progress<'a> = dyn FnMut(u64, u64, bool) + 'a;

/// Runs `count` fresh seeds starting at `seed_base`. Returns the first
/// failure, shrunk to a minimized reproducer, or `None` when every case
/// passed.
pub fn fuzz(
    seed_base: u64,
    count: u64,
    profile: Profile,
    fault: Option<TestFault>,
    shrink_budget: u32,
    progress: &mut Progress<'_>,
) -> Option<Reproducer> {
    for i in 0..count {
        let seed = seed_base.wrapping_add(i);
        let mut s = Source::from_seed(seed);
        let design = gen_design(&mut s, profile);
        let failure = match run_matrix(&design, fault) {
            Err(e) => Some(Failure::Error(e.to_string())),
            Ok(out) => out.divergence.map(Failure::Diverged),
        };
        progress(i, seed, failure.is_some());
        if failure.is_none() {
            continue;
        }
        return Some(shrink_failure(
            seed,
            s.drawn(),
            profile,
            fault,
            shrink_budget,
        ));
    }
    None
}

/// Shrinks a known-failing stream into a [`Reproducer`]. Falls back to
/// the original stream when replay no longer fails (flaky failures can't
/// happen here — generation and the matrix are deterministic — so this
/// fallback is defensive only).
pub fn shrink_failure(
    seed: u64,
    stream: Vec<u64>,
    profile: Profile,
    fault: Option<TestFault>,
    shrink_budget: u32,
) -> Reproducer {
    let prop = |s: &mut Source| matrix_prop(s, profile, fault);
    let (stream, msg) = shrink_stream(prop, stream.clone(), shrink_budget)
        .unwrap_or((stream, Failed::new("failure did not replay")));
    let mut s = Source::of_stream(stream.clone());
    let design = gen_design(&mut s, profile);
    let failure = match run_matrix(&design, fault) {
        Err(e) => Failure::Error(e.to_string()),
        Ok(out) => match out.divergence {
            Some(d) => Failure::Diverged(d),
            None => Failure::Error(msg.msg),
        },
    };
    Reproducer {
        seed,
        profile,
        stream,
        failure,
        design,
    }
}
