//! Benchmark runner: warmup, N timed iterations, min/median/p95 summary,
//! machine-readable JSON written to a results directory.
//!
//! The replacement for `criterion` in the `crates/bench` experiment
//! harnesses. Each experiment builds one [`Runner`], records timed
//! measurements ([`Runner::measure`]) and scalar metrics
//! ([`Runner::metric`]), and calls [`Runner::finish`] to write
//! `<out_dir>/<name>.json`. CVC (Meyer) argues a fast HDL compiler should
//! own its measurement loop; this one is ~200 lines and deterministic in
//! everything but the clock.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Summary statistics for one timed measurement, in nanoseconds.
#[derive(Clone, Debug)]
pub struct TimingSummary {
    /// Measurement label.
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: u32,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Median iteration.
    pub median_ns: u64,
    /// 95th-percentile iteration (nearest-rank).
    pub p95_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
}

impl TimingSummary {
    /// Median as seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }
}

/// A scalar result that is not a timing (counts, ratios, throughputs).
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric label.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit, free-form ("lines/min", "bytes", "").
    pub unit: String,
}

/// The experiment runner.
pub struct Runner {
    name: String,
    warmup: u32,
    iters: u32,
    out_dir: Option<PathBuf>,
    timings: Vec<TimingSummary>,
    metrics: Vec<Metric>,
}

impl Runner {
    /// A runner for the named experiment: 3 warmup + 10 timed iterations
    /// by default; `AG_BENCH_ITERS` overrides the iteration count.
    pub fn new(name: impl Into<String>) -> Runner {
        let iters = std::env::var("AG_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10)
            .max(1);
        Runner {
            name: name.into(),
            warmup: 3,
            iters,
            out_dir: None,
            timings: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Set warmup iterations.
    pub fn warmup(mut self, n: u32) -> Runner {
        self.warmup = n;
        self
    }

    /// Set timed iterations (unless `AG_BENCH_ITERS` overrode them).
    pub fn iters(mut self, n: u32) -> Runner {
        if std::env::var("AG_BENCH_ITERS").is_err() {
            self.iters = n.max(1);
        }
        self
    }

    /// Set the directory `finish` writes JSON into.
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Runner {
        self.out_dir = Some(dir.into());
        self
    }

    /// Times `f` over warmup + N iterations and records the summary.
    /// The closure's result is passed through [`black_box`] so the work
    /// cannot be optimized away.
    pub fn measure<R>(
        &mut self,
        name: impl Into<String>,
        mut f: impl FnMut() -> R,
    ) -> TimingSummary {
        let mut f = || {
            black_box(f());
        };
        let name = name.into();
        self.measure_interleaved(&mut [(&name, &mut f)]).remove(0)
    }

    /// Times several closures sample by sample: each warmup or timed round
    /// runs every closure once, in turn, so drift in the host's load falls
    /// on all of them alike instead of on whichever runs last. Records
    /// and returns one summary per closure, in order.
    pub fn measure_interleaved(
        &mut self,
        cases: &mut [(&str, &mut dyn FnMut())],
    ) -> Vec<TimingSummary> {
        for _ in 0..self.warmup {
            for (_, f) in cases.iter_mut() {
                f();
            }
        }
        let mut samples = vec![Vec::with_capacity(self.iters as usize); cases.len()];
        for _ in 0..self.iters {
            for ((_, f), s) in cases.iter_mut().zip(&mut samples) {
                let t0 = Instant::now();
                f();
                s.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
        }
        let summaries: Vec<TimingSummary> = cases
            .iter()
            .zip(samples)
            .map(|((name, _), mut samples)| {
                samples.sort_unstable();
                let n = samples.len();
                TimingSummary {
                    name: name.to_string(),
                    iters: self.iters,
                    min_ns: samples[0],
                    median_ns: samples[n / 2],
                    p95_ns: samples[((n * 95).div_ceil(100)).saturating_sub(1).min(n - 1)],
                    mean_ns: (samples.iter().map(|&s| u128::from(s)).sum::<u128>() / n as u128)
                        as u64,
                    max_ns: samples[n - 1],
                }
            })
            .collect();
        self.timings.extend(summaries.iter().cloned());
        summaries
    }

    /// Records a scalar metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Renders the JSON document for everything recorded so far, headed
    /// by the host's core count and the checkout's git revision, so a
    /// results file names the machine and the code it measured.
    pub fn to_json(&self) -> String {
        let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"bench\": {},", json_str(&self.name));
        let _ = writeln!(s, "  \"host_cores\": {host_cores},");
        let _ = writeln!(s, "  \"git_revision\": {},", json_str(&git_revision()));
        let _ = writeln!(s, "  \"iters\": {},", self.iters);
        s.push_str("  \"timings\": [");
        for (i, t) in self.timings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"name\": {}, \"iters\": {}, \"min_ns\": {}, \"median_ns\": {}, \
                 \"p95_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}",
                json_str(&t.name),
                t.iters,
                t.min_ns,
                t.median_ns,
                t.p95_ns,
                t.mean_ns,
                t.max_ns
            );
        }
        s.push_str("\n  ],\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Writes `<out_dir>/<name>.json` and prints a one-line pointer.
    /// Returns the path written, or `None` when no out dir was set.
    pub fn finish(self) -> Option<PathBuf> {
        let dir = self.out_dir.clone()?;
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.json", self.name));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                println!("results: {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("ag-harness: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The commit checked out in the nearest directory at or above the
/// current one that holds `.git/HEAD`: the hash of a detached `HEAD`, or
/// of the branch it names (loose ref, then `packed-refs`). "unknown"
/// outside a checkout.
/// The checkout's `HEAD`, suffixed `-dirty` when a tracked file outside
/// `results/` differs from it (a results run rewrites `results/` itself).
/// Without a `git` binary the label is the `HEAD` alone.
fn git_revision() -> String {
    let status = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no", "--"])
        .arg(":(top,exclude)results")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    revision_label(head_revision(), status.as_deref())
}

/// Labels `head` from `git status --porcelain` output: any line means
/// the tree is dirty. `None` (no `git`) and an unknown `head` stay as is.
fn revision_label(head: String, status: Option<&str>) -> String {
    match status {
        Some(s) if !s.trim().is_empty() && head != "unknown" => format!("{head}-dirty"),
        _ => head,
    }
}

/// `HEAD`'s commit, read from the `.git` directory above the current one.
fn head_revision() -> String {
    let Some(git) = std::env::current_dir().ok().and_then(|cwd| {
        cwd.ancestors()
            .map(|d| d.join(".git"))
            .find(|g| g.join("HEAD").is_file())
    }) else {
        return "unknown".to_string();
    };
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    std::fs::read_to_string(git.join(r))
        .ok()
        .map(|h| h.trim().to_string())
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats a nanosecond duration human-readably (for experiment stdout).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_ordered() {
        let mut r = Runner::new("t").warmup(0).iters(8);
        let s = r.measure("noop", || 1 + 1);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
        assert_eq!(s.iters, 8);
    }

    #[test]
    fn interleaved_cases_alternate_and_keep_their_order() {
        let mut r = Runner::new("t").warmup(1).iters(3);
        let order = std::cell::RefCell::new(String::new());
        let s = r.measure_interleaved(&mut [
            ("a", &mut || order.borrow_mut().push('a')),
            ("b", &mut || order.borrow_mut().push('b')),
        ]);
        assert_eq!(order.into_inner(), "abababab");
        let names: Vec<&str> = s.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(s.iter().all(|t| t.iters == 3 && t.min_ns <= t.max_ns));
        assert_eq!(r.timings.len(), 2);
    }

    #[test]
    fn a_dirty_tree_is_labelled_dirty() {
        let head = || "dd860b1".to_string();
        assert_eq!(revision_label(head(), Some("")), "dd860b1");
        assert_eq!(revision_label(head(), None), "dd860b1");
        assert_eq!(
            revision_label(head(), Some(" M crates/server/src/lib.rs\n")),
            "dd860b1-dirty"
        );
        assert_eq!(
            revision_label("unknown".to_string(), Some(" M a\n")),
            "unknown"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = Runner::new("exp_x").warmup(0).iters(2);
        r.measure("a \"quoted\" name", || ());
        r.metric("lines_per_min", 1234.5, "lines/min");
        r.metric("bad", f64::NAN, "");
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"exp_x\""));
        assert!(j.contains("\"host_cores\": "));
        assert!(j.contains("\"git_revision\": \""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"value\": null"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
