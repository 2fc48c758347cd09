//! Minimal property-testing framework over a recorded choice stream.
//!
//! Instead of value-level generators with hand-written shrinkers, the
//! framework uses *integrated shrinking* (the Hypothesis design): a test
//! draws its random input imperatively from a [`Source`], every raw draw
//! is logged, and shrinking edits the logged stream — truncating it,
//! zeroing blocks, and halving values — then replays the test on the
//! edited stream. Because draws map `0` to the minimal value of their
//! range, stream minimization is value minimization, and it works through
//! any derived structure without per-type shrinker code.
//!
//! Failing cases persist to a seed file (by convention
//! `tests/prop.seeds`, next to the test source) and are replayed before
//! random exploration on the next run, so a failure found once is a
//! regression test forever — the replacement for proptest's
//! `proptest-regressions` files.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;

use crate::rng::{fnv1a, Rng};

/// A property failure: the message carried back to the runner.
#[derive(Clone, Debug)]
pub struct Failed {
    /// Human-readable reason.
    pub msg: String,
}

impl Failed {
    /// A failure with the given reason.
    pub fn new(msg: impl Into<String>) -> Failed {
        Failed { msg: msg.into() }
    }
}

/// What a property returns: `Ok(())` to pass (or discard), `Err` to fail.
pub type TestResult = Result<(), Failed>;

enum Mode {
    /// Fresh randomness from the PRNG.
    Random(Rng),
    /// Replay of a recorded stream; draws past the end return 0 (the
    /// minimal value), which is what makes truncation a valid shrink.
    Replay(Vec<u64>, usize),
}

/// The stream of random choices a property draws its input from.
///
/// The log lives behind an `Rc` so the runner keeps the drawn stream even
/// when the property panics mid-case and the `Source` is dropped by
/// unwinding.
pub struct Source {
    mode: Mode,
    log: Rc<RefCell<Vec<u64>>>,
}

impl Source {
    /// A source replaying a fixed stream (draws past the end return the
    /// minimal value). Public so tests can assert what a persisted `case`
    /// stream from a seed file decodes to.
    pub fn of_stream(data: Vec<u64>) -> Source {
        Source::replay(data)
    }

    /// A freshly seeded random source. Public for external drivers (the
    /// conformance fuzzer) that generate inputs outside a [`forall!`](crate::forall!)
    /// run but still want the drawn stream recorded, so a failing input
    /// can be re-shrunk and persisted with [`shrink_stream`].
    pub fn from_seed(seed: u64) -> Source {
        Source::random(seed)
    }

    /// The raw draws made so far — replaying this stream through the
    /// same generator code reproduces the same values.
    pub fn drawn(&self) -> Vec<u64> {
        self.log.borrow().clone()
    }

    fn random(seed: u64) -> Source {
        Source {
            mode: Mode::Random(Rng::new(seed)),
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn replay(data: Vec<u64>) -> Source {
        Source {
            mode: Mode::Replay(data, 0),
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn raw(&mut self) -> u64 {
        let v = match &mut self.mode {
            Mode::Random(rng) => rng.next_u64(),
            Mode::Replay(data, pos) => {
                let v = data.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                v
            }
        };
        self.log.borrow_mut().push(v);
        v
    }

    /// A `u64` in `[lo, hi]`; a raw draw of 0 yields `lo`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.raw();
        }
        lo + self.raw() % (span + 1)
    }

    /// An `i64` in `[lo, hi]`; a raw draw of 0 yields `lo`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "i64_in: empty range");
        let span = lo.abs_diff(hi);
        if span == u64::MAX {
            return self.raw() as i64;
        }
        lo.wrapping_add((self.raw() % (span + 1)) as i64)
    }

    /// A `usize` in `[lo, hi]`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A boolean; a raw draw of 0 yields `false`.
    pub fn bool(&mut self) -> bool {
        self.raw() % 2 == 1
    }

    /// An `f64` in `[lo, hi)`; a raw draw of 0 yields `lo`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let t = (self.raw() >> 11) as f64 / (1u64 << 53) as f64;
        lo + t * (hi - lo)
    }

    /// A reference into `xs`; a raw draw of 0 yields the first element.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick: empty slice");
        &xs[self.usize_in(0, xs.len() - 1)]
    }

    /// A vector of `len ∈ [min, max]` elements drawn from `f`.
    pub fn vec<T>(
        &mut self,
        min: usize,
        max: usize,
        mut f: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(min, max);
        (0..n).map(|_| f(self)).collect()
    }

    /// `Some` with probability ~1/2 (`None` is the minimal shape).
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Source) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// A string: one char from `first`, then up to `max_rest` chars from
    /// `rest` — covers the `[a-z][a-z0-9_]{0,n}` shapes the old proptest
    /// suites used.
    pub fn string_from(&mut self, first: &str, rest: &str, max_rest: usize) -> String {
        let firsts: Vec<char> = first.chars().collect();
        let rests: Vec<char> = rest.chars().collect();
        let mut out = String::new();
        out.push(*self.pick(&firsts));
        if !rests.is_empty() {
            let n = self.usize_in(0, max_rest);
            for _ in 0..n {
                out.push(*self.pick(&rests));
            }
        }
        out
    }

    /// A string of `len ∈ [0, max]` chars drawn from `chars`.
    pub fn string_of(&mut self, chars: &str, max: usize) -> String {
        let cs: Vec<char> = chars.chars().collect();
        let n = self.usize_in(0, max);
        (0..n).map(|_| *self.pick(&cs)).collect()
    }
}

/// Runner configuration for one property.
pub struct Config {
    /// Fully-qualified test name; keys the seed file and the base seed.
    pub test: &'static str,
    /// Random cases to run after replaying persisted ones.
    pub cases: u32,
    /// Budget of candidate replays during shrinking.
    pub max_shrink_iters: u32,
    /// Seed file (persisted failures); `None` disables persistence.
    pub seed_file: Option<PathBuf>,
}

impl Config {
    /// The default configuration: 128 random cases (`AG_HARNESS_CASES`
    /// overrides), seeds persisted to `tests/prop.seeds` relative to the
    /// crate under test (cargo's test working directory).
    pub fn new(test: &'static str) -> Config {
        let cases = std::env::var("AG_HARNESS_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(128);
        Config {
            test,
            cases,
            max_shrink_iters: 2048,
            seed_file: Some(PathBuf::from("tests/prop.seeds")),
        }
    }

    /// Override the number of random cases.
    pub fn cases(mut self, n: u32) -> Config {
        self.cases = n;
        self
    }

    fn base_seed(&self) -> u64 {
        match std::env::var("AG_HARNESS_SEED")
            .ok()
            .and_then(|v| parse_u64(&v))
        {
            Some(s) => s ^ fnv1a(0, self.test.as_bytes()),
            None => fnv1a(0, self.test.as_bytes()),
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// One persisted entry in a seed file.
enum SeedEntry {
    /// Re-run the full random case from this seed.
    Seed(u64),
    /// Replay this exact choice stream.
    Case(Vec<u64>),
}

fn load_entries(cfg: &Config) -> Vec<SeedEntry> {
    let Some(path) = &cfg.seed_file else {
        return Vec::new();
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (kind, name, data) = (parts.next(), parts.next(), parts.next());
        let (Some(kind), Some(name), Some(data)) = (kind, name, data) else {
            continue;
        };
        if name != cfg.test {
            continue;
        }
        match kind {
            "seed" => {
                if let Some(s) = parse_u64(data) {
                    out.push(SeedEntry::Seed(s));
                }
            }
            "case" => {
                let buf: Option<Vec<u64>> = data.split(',').map(parse_u64).collect();
                if let Some(buf) = buf {
                    out.push(SeedEntry::Case(buf));
                }
            }
            _ => {}
        }
    }
    out
}

fn persist_case(cfg: &Config, stream: &[u64], msg: &str) {
    let Some(path) = &cfg.seed_file else {
        return;
    };
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    if text.is_empty() {
        text.push_str(
            "# ag-harness seed file. Failing cases are appended automatically and\n\
             # replayed before random exploration on the next run. Check this file in.\n\
             # line format:  case <test-name> <hex>[,<hex>...]  # note\n\
             #               seed <test-name> <hex>             # note\n",
        );
    }
    let entry = format!(
        "case {} {} # {}\n",
        cfg.test,
        render_stream(stream),
        msg.replace('\n', " ")
    );
    if !text.contains(&entry) {
        text.push_str(&entry);
        let _ = std::fs::write(path, text);
    }
}

/// Renders a choice stream in the seed-file spelling:
/// `0x1,0x2c,0x0` (`0x0` for the empty stream).
pub fn render_stream(stream: &[u64]) -> String {
    if stream.is_empty() {
        return "0x0".to_string();
    }
    let mut s = String::new();
    for (i, v) in stream.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v:#x}");
    }
    s
}

/// Parses a stream rendered by [`render_stream`] (a comma-separated
/// list of decimal or `0x`-hex u64s). `None` on any malformed element.
pub fn parse_stream(text: &str) -> Option<Vec<u64>> {
    text.split(',').map(parse_u64).collect()
}

/// Minimizes a failing choice stream by replaying `prop` on edited
/// streams (the same stream surgery [`forall!`](crate::forall!) applies after a random
/// failure: tail truncation, block removal, value reduction). Returns
/// `None` when `stream` does not currently fail — callers should treat
/// that as "nothing to shrink", not success of the original input.
///
/// This is the external entry point for drivers that find failures
/// outside a [`forall!`](crate::forall!) run (e.g. the conformance fuzzer's
/// configuration-matrix oracle) but want the same minimized, replayable
/// reproducers.
pub fn shrink_stream(
    prop: impl Fn(&mut Source) -> TestResult,
    stream: Vec<u64>,
    budget: u32,
) -> Option<(Vec<u64>, Failed)> {
    let prop: &dyn Fn(&mut Source) -> TestResult = &prop;
    let failure = still_fails(prop, &stream)?;
    Some(shrink(prop, stream, failure, budget))
}

/// Runs the property on one stream, converting panics into failures.
fn run_once(
    prop: &dyn Fn(&mut Source) -> TestResult,
    mut src: Source,
) -> (Vec<u64>, Option<Failed>) {
    let log = Rc::clone(&src.log);
    let result = catch_unwind(AssertUnwindSafe(|| prop(&mut src)));
    drop(src);
    let stream = std::mem::take(&mut *log.borrow_mut());
    match result {
        Ok(Ok(())) => (stream, None),
        Ok(Err(f)) => (stream, Some(f)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            (stream, Some(Failed::new(format!("panicked: {msg}"))))
        }
    }
}

/// Replays `stream`; true when the property still fails.
fn still_fails(prop: &dyn Fn(&mut Source) -> TestResult, stream: &[u64]) -> Option<Failed> {
    run_once(prop, Source::replay(stream.to_vec())).1
}

/// Shrinks a failing stream by stream surgery: tail truncation, block
/// removal, block zeroing, and pointwise value reduction.
fn shrink(
    prop: &dyn Fn(&mut Source) -> TestResult,
    mut stream: Vec<u64>,
    mut msg: Failed,
    budget: u32,
) -> (Vec<u64>, Failed) {
    let mut spent = 0u32;
    let try_candidate = |cand: &[u64], spent: &mut u32| -> Option<Failed> {
        if *spent >= budget {
            return None;
        }
        *spent += 1;
        still_fails(prop, cand)
    };
    let mut improved = true;
    while improved && spent < budget {
        improved = false;
        // 1. Truncate the tail by halves.
        let mut keep = stream.len() / 2;
        while keep < stream.len() {
            let cand = stream[..keep].to_vec();
            if let Some(f) = try_candidate(&cand, &mut spent) {
                stream = cand;
                msg = f;
                improved = true;
                break;
            }
            keep += (stream.len() - keep).div_ceil(2).max(1);
        }
        // 2. Remove interior blocks.
        for size in [8usize, 4, 2, 1] {
            let mut i = 0;
            while i + size <= stream.len() {
                let mut cand = stream.clone();
                cand.drain(i..i + size);
                if let Some(f) = try_candidate(&cand, &mut spent) {
                    stream = cand;
                    msg = f;
                    improved = true;
                } else {
                    i += 1;
                }
            }
        }
        // 3. Zero / halve individual values.
        for i in 0..stream.len() {
            if stream[i] == 0 {
                continue;
            }
            for replacement in [0, stream[i] / 2, stream[i] - 1] {
                if replacement >= stream[i] {
                    continue;
                }
                let mut cand = stream.clone();
                cand[i] = replacement;
                if let Some(f) = try_candidate(&cand, &mut spent) {
                    stream = cand;
                    msg = f;
                    improved = true;
                    break;
                }
            }
        }
    }
    (stream, msg)
}

/// The property runner: replays persisted failures, then explores random
/// cases, shrinking and persisting any new failure. Panics (failing the
/// enclosing `#[test]`) with a replayable report on failure.
pub fn forall_impl(cfg: &Config, prop: impl Fn(&mut Source) -> TestResult) {
    let prop: &dyn Fn(&mut Source) -> TestResult = &prop;
    // Phase 1: persisted regressions.
    for entry in load_entries(cfg) {
        let (stream, failure) = match entry {
            SeedEntry::Seed(s) => run_once(prop, Source::random(s)),
            SeedEntry::Case(buf) => {
                let f = still_fails(prop, &buf);
                (buf, f)
            }
        };
        if let Some(f) = failure {
            let (stream, f) = shrink(prop, stream, f, cfg.max_shrink_iters);
            panic!(
                "[{}] persisted regression still fails: {}\n  replay: case {} {}",
                cfg.test,
                f.msg,
                cfg.test,
                render_stream(&stream)
            );
        }
    }
    // Phase 2: random exploration.
    let base = cfg.base_seed();
    for i in 0..cfg.cases {
        let seed = base ^ (u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let (stream, failure) = run_once(prop, Source::random(seed));
        if let Some(f) = failure {
            let (stream, f) = shrink(prop, stream, f, cfg.max_shrink_iters);
            persist_case(cfg, &stream, &f.msg);
            panic!(
                "[{}] case {} of {} failed (seed {seed:#x}): {}\n  \
                 shrunk replay persisted to {:?}: case {} {}",
                cfg.test,
                i + 1,
                cfg.cases,
                f.msg,
                cfg.seed_file
                    .as_deref()
                    .unwrap_or(std::path::Path::new("-")),
                cfg.test,
                render_stream(&stream)
            );
        }
    }
}

/// `forall!(cfg, |s| { ... })` — runs the block as a property; the block
/// draws input from `s: &mut Source` and uses [`check!`](crate::check!)/[`check_eq!`](crate::check_eq!) to
/// assert. Returning early with `return Ok(())` discards a case.
#[macro_export]
macro_rules! forall {
    ($cfg:expr, |$s:ident| $body:block) => {
        $crate::forall_impl(&$cfg, |$s: &mut $crate::Source| {
            $body
            #[allow(unreachable_code)]
            Ok(())
        })
    };
}

/// Property-scope assertion: fails the current case (triggering
/// shrinking) instead of aborting the whole run.
#[macro_export]
macro_rules! check {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::Failed::new(concat!("check failed: ", stringify!($cond))));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::Failed::new(format!(
                "check failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Property-scope equality assertion.
#[macro_export]
macro_rules! check_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::Failed::new(format!(
                "check_eq failed: {} != {}\n  left:  {:?}\n  right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::Failed::new(format!(
                "check_eq failed: {} != {} ({})\n  left:  {:?}\n  right: {:?}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)+),
                a,
                b
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(name: &'static str) -> Config {
        Config {
            test: name,
            cases: 64,
            max_shrink_iters: 1024,
            seed_file: None,
        }
    }

    #[test]
    fn passing_property_passes() {
        forall_impl(&cfg("passing"), |s| {
            let a = s.i64_in(-100, 100);
            let b = s.i64_in(-100, 100);
            if a + b != b + a {
                return Err(Failed::new("addition not commutative"));
            }
            Ok(())
        });
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        // Property: every drawn vec has length < 3. Minimal counterexample
        // is a length-3 vec of zeros; the shrunk stream should be tiny.
        let prop = |s: &mut Source| -> TestResult {
            let v = s.vec(0, 10, |s| s.i64_in(0, 100));
            if v.len() >= 3 {
                return Err(Failed::new(format!("len {}", v.len())));
            }
            Ok(())
        };
        // Find a failure by random search.
        let mut found = None;
        for seed in 0..200 {
            let (log, f) = run_once(&prop, Source::random(seed));
            if let Some(f) = f {
                found = Some((log, f));
                break;
            }
        }
        let (stream, msg) = found.expect("a failing case exists");
        let (shrunk, msg) = shrink(&prop, stream, msg, 2048);
        assert_eq!(msg.msg, "len 3");
        // Minimal stream: one draw for the length (3), elements all
        // truncated/zero.
        let mut replayed = Source::replay(shrunk.clone());
        let v = replayed.vec(0, 10, |s| s.i64_in(0, 100));
        assert_eq!(v, vec![0, 0, 0]);
    }

    #[test]
    fn replay_reproduces_random() {
        let mut a = Source::random(99);
        let xs: Vec<i64> = (0..20).map(|_| a.i64_in(-50, 50)).collect();
        let mut b = Source::replay(a.log.borrow().clone());
        let ys: Vec<i64> = (0..20).map(|_| b.i64_in(-50, 50)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn exhausted_replay_draws_minimum() {
        let mut s = Source::replay(vec![]);
        assert_eq!(s.i64_in(-7, 9), -7);
        assert_eq!(s.usize_in(2, 8), 2);
        assert!(!s.bool());
    }

    #[test]
    fn from_seed_is_deterministic_and_replayable() {
        let mut a = Source::from_seed(42);
        let xs: Vec<u64> = (0..16).map(|_| a.u64_in(0, 1000)).collect();
        let mut b = Source::from_seed(42);
        let ys: Vec<u64> = (0..16).map(|_| b.u64_in(0, 1000)).collect();
        assert_eq!(xs, ys);
        // The drawn log replays to the same values.
        let mut c = Source::of_stream(a.drawn());
        let zs: Vec<u64> = (0..16).map(|_| c.u64_in(0, 1000)).collect();
        assert_eq!(xs, zs);
    }

    #[test]
    fn stream_codec_round_trips() {
        for stream in [vec![], vec![0], vec![1, 0x2c, u64::MAX]] {
            let text = render_stream(&stream);
            let parsed = parse_stream(&text).unwrap();
            // The empty stream renders as "0x0", which parses to [0] —
            // equivalent under replay (draws past the end are 0).
            if stream.is_empty() {
                assert_eq!(parsed, vec![0]);
            } else {
                assert_eq!(parsed, stream);
            }
        }
        assert!(parse_stream("0x1,bogus").is_none());
    }

    #[test]
    fn shrink_stream_minimizes_external_failures() {
        let prop = |s: &mut Source| -> TestResult {
            let v = s.vec(0, 10, |s| s.i64_in(0, 100));
            if v.len() >= 3 {
                return Err(Failed::new(format!("len {}", v.len())));
            }
            Ok(())
        };
        // A passing stream has nothing to shrink.
        assert!(shrink_stream(prop, vec![0], 256).is_none());
        // Find a failing stream with a seeded source, then shrink it.
        let mut failing = None;
        for seed in 0..200 {
            let mut s = Source::from_seed(seed);
            if prop(&mut s).is_err() {
                failing = Some(s.drawn());
                break;
            }
        }
        let (shrunk, msg) = shrink_stream(prop, failing.unwrap(), 2048).unwrap();
        assert_eq!(msg.msg, "len 3");
        let mut replayed = Source::of_stream(shrunk);
        assert_eq!(replayed.vec(0, 10, |s| s.i64_in(0, 100)), vec![0, 0, 0]);
    }

    #[test]
    fn seed_file_round_trip() {
        let dir = std::env::temp_dir().join("ag-harness-seedtest");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = cfg("roundtrip");
        c.seed_file = Some(dir.join("prop.seeds"));
        persist_case(&c, &[1, 2, 0xff], "note");
        let entries = load_entries(&c);
        assert_eq!(entries.len(), 1);
        match &entries[0] {
            SeedEntry::Case(buf) => assert_eq!(buf, &vec![1, 2, 0xff]),
            SeedEntry::Seed(_) => panic!("wrong entry kind"),
        }
        // Entries for other tests are ignored.
        let mut other = cfg("other");
        other.seed_file = c.seed_file.clone();
        assert!(load_entries(&other).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
