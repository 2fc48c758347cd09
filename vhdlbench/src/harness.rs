//! The measurement loop shared by every workload: repeated set-up, a fixed
//! number of passes, op timing, failure counting, and the metric report.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vhdl_server::json::{obj, Json};

use crate::stats::quantile;
use crate::trace::{self, Log};

/// End-to-end metrics every workload reports untraced, each bounded in
/// `BENCHMARK.json`: `(name, unit)`. A result must carry the same names
/// on every workload, so each workload's own three timings fill the
/// `partN_ms` slots; [`Outcome::parts`] names what each slot holds there.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("part1_ms", "ms"),
    ("part2_ms", "ms"),
    ("part3_ms", "ms"),
];

/// A run that has not finished its passes after this many times
/// `--seconds` stops early, so a much slower commit still ends in time.
const LIMIT_FACTOR: f64 = 3.0;

/// The kernel counters and timers reported once per simulation cell.
pub const KERNEL: &[(&str, &str)] = &[
    ("new_s", "s"),
    ("block_compile_s", "s"),
    ("run_s", "s"),
    ("vcd_s", "s"),
    ("cycles", "count"),
    ("delta_cycles", "count"),
    ("events", "count"),
    ("transactions", "count"),
    ("resumptions", "count"),
    ("insns", "count"),
    ("calendar_ops", "count"),
    ("woken_procs", "count"),
    ("scanned_signals", "count"),
    ("compiled_blocks", "count"),
    ("fallback_procs", "count"),
    ("resume_ratio", "ratio"),
    ("ns_per_insn", "ns"),
];

/// The simulation cells, as they appear in kernel metric names.
pub const CELLS: &[&str] = &["interp", "compiled", "jobs2"];

/// Per-layer metrics other than the kernel's, reported by every workload
/// from its traced passes as per-pass means: `(name, unit)`. A layer a
/// workload never calls reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("syntax.parse_s", "s"),
    ("sem.analyze_self_s", "s"),
    ("sem.units", "count"),
    ("sem.expr_evals", "count"),
    ("sem.share", "ratio"),
    ("vif.load_s", "s"),
    ("vif.loads", "count"),
    ("vif.put_s", "s"),
    ("vif.puts", "count"),
    ("vif.bytes_read", "B"),
    ("vif.bytes_written", "B"),
    ("vif.cache_hit_ratio", "ratio"),
    ("vif.decodes", "count"),
    ("vif.text_parses", "count"),
    ("codegen.elaborate_s", "s"),
    ("codegen.emit_c_s", "s"),
    ("codegen.processes", "count"),
    ("codegen.insns", "count"),
    ("driver.open_s", "s"),
    ("driver.batch_s", "s"),
    ("driver.waves", "count"),
    ("driver.analyzed", "count"),
    ("driver.hit_ratio", "ratio"),
    ("driver.cpu_over_wall", "ratio"),
    ("server.analyze_warm_p50_us", "us"),
    ("server.analyze_edit_p50_us", "us"),
    ("server.elaborate_p50_us", "us"),
    ("server.run_p50_us", "us"),
    ("server.inspect_p50_us", "us"),
    ("server.checkpoint_p50_us", "us"),
    ("server.restore_p50_us", "us"),
    ("server.analyze_skipped", "count"),
    ("bench.gen_s", "s"),
    ("bench.check_s", "s"),
    ("bench.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace_overhead", "ratio"),
];

/// Every per-layer metric in report order: the common layers, then the
/// kernel's per cell (`kernel.<cell>.<what>`). `BENCHMARK.json` lists the
/// same names.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let kernel = CELLS.iter().flat_map(|cell| {
        KERNEL
            .iter()
            .map(move |(what, unit)| (format!("kernel.{cell}.{what}"), *unit))
    });
    LAYERS
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(kernel)
        .collect()
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Sets the number of passes of one run: about this many seconds of
    /// them on the host the pass rates were taken on.
    pub seconds: f64,
    /// Record spans on every other pass and report per-layer metrics.
    pub trace: bool,
    /// A short run for tests: fewer set-ups, a twentieth of the length.
    pub smoke: bool,
    /// Where result files (and the rebuild workload's library) go.
    pub out: PathBuf,
    /// Shared timeline origin of every thread's spans.
    pub epoch: Instant,
}

impl Ctx {
    /// Set-ups per run; the reported `setup_s` is the fastest of them.
    fn setups(&self) -> u64 {
        if self.smoke {
            2
        } else {
            11
        }
    }

    /// Passes of a workload that runs `per_second` of them per second:
    /// a count fixed by `--seconds` alone, so two commits do the same
    /// work whatever their speed.
    pub fn passes(&self, per_second: f64) -> u64 {
        ((per_second * self.seconds).round() as u64).max(4)
    }

    /// Where this workload may write files.
    pub fn scratch(&self) -> PathBuf {
        self.out.join(format!("{}.work", self.workload))
    }
}

/// What one measuring thread observed.
#[derive(Default)]
pub struct Sink {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions.
    pub notes: Vec<String>,
    /// Op latencies (µs) by op name, of untraced (`[0]`) and traced
    /// (`[1]`) passes.
    pub ops: [BTreeMap<&'static str, Vec<f64>>; 2],
    /// Summed op latency (ms) of each untraced (`[0]`) and traced (`[1]`)
    /// pass.
    pub pass_ms: [Vec<f64>; 2],
    /// Values a workload records once per untraced pass, by name.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Counts summed over traced passes.
    pub counts: BTreeMap<String, f64>,
    /// Wall time of the measuring loop; for a whole run, of all its
    /// blocks.
    pub wall_s: f64,
    /// Passes the run was to make; fewer ran if it hit the time limit.
    pub planned: u64,
    cur_ms: f64,
    traced: bool,
}

impl Sink {
    /// Times one operation under span `name`; its latency joins the op
    /// distribution and the current pass.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = trace::span(name);
        let t0 = Instant::now();
        let r = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.attempted += 1;
        self.cur_ms += us / 1e3;
        self.ops[usize::from(self.traced)]
            .entry(name)
            .or_default()
            .push(us);
        r
    }

    /// Records a failed or wrong operation; the run goes on.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(what.into());
        }
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Adds to a per-layer count (traced passes only).
    pub fn count(&mut self, name: &str, v: f64) {
        if self.traced {
            *self.counts.entry(name.to_string()).or_default() += v;
        }
    }

    /// Records one value of series `name` (untraced passes only).
    pub fn record(&mut self, name: &'static str, v: f64) {
        if !self.traced {
            self.series.entry(name).or_default().push(v);
        }
    }

    fn merge(&mut self, o: Sink) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wall_s = self.wall_s.max(o.wall_s);
        self.planned += o.planned;
        self.notes.extend(o.notes);
        for (mine, theirs) in self.ops.iter_mut().zip(o.ops) {
            for (k, v) in theirs {
                mine.entry(k).or_default().extend(v);
            }
        }
        for (mine, theirs) in self.pass_ms.iter_mut().zip(o.pass_ms) {
            mine.extend(theirs);
        }
        for (k, v) in o.series {
            self.series.entry(k).or_default().extend(v);
        }
        for (k, v) in o.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// Summed op latency (ms) of the pass so far.
    pub fn pass_so_far_ms(&self) -> f64 {
        self.cur_ms
    }

    /// Passes recorded with tracing on.
    pub fn traced_passes(&self) -> f64 {
        self.pass_ms[1].len().max(1) as f64
    }

    /// Passes run.
    pub fn passes(&self) -> usize {
        self.pass_ms[0].len() + self.pass_ms[1].len()
    }

    /// Latencies (µs) of every untraced op, ascending.
    pub fn all_ops(&self) -> Vec<f64> {
        sorted(self.ops[0].values().flatten().copied().collect())
    }

    /// Latencies (µs) of untraced ops named `name`, ascending.
    pub fn op_latencies(&self, name: &str) -> Vec<f64> {
        sorted(self.ops[0].get(name).cloned().unwrap_or_default())
    }

    /// The smallest value of series `name` (0 when it has none).
    pub fn series_min(&self, name: &str) -> f64 {
        quantile(
            &sorted(self.series.get(name).cloned().unwrap_or_default()),
            0.0,
        )
    }
}

/// `v` in ascending order.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// What a run measured: the state the passes ran on, every set-up's
/// seconds, and the merged observations of every block.
pub struct Measured<S> {
    pub state: S,
    pub setup_s: Vec<f64>,
    pub sink: Sink,
    pub log: Log,
}

/// Sets the workload up with `make` and runs `passes` passes in as many
/// blocks as there are set-ups; `block` runs one block's pass indices on
/// the state and returns what each of its measuring threads observed.
///
/// Between blocks `make` runs again, timed, on a fresh thread (so
/// thread-local caches start cold) and its state is dropped. On a shared
/// VM the host slows everything by up to 1.7x in phases of tens of
/// milliseconds to seconds; set-ups spread over the run are unlikely all
/// to fall into such phases, so their fastest repeats from run to run.
/// Their median does not: it flips between the fast and the slow level.
pub fn run<S>(
    ctx: &Ctx,
    passes: u64,
    make: &(dyn Fn() -> Result<S, String> + Sync),
    mut block: impl FnMut(&mut S, Range<u64>) -> Vec<(Sink, Log)>,
) -> Result<Measured<S>, String> {
    let t0 = Instant::now();
    let mut state = make()?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let blocks = ctx.setups();
    let mut parts = Vec::new();
    let mut wall_s = 0.0;
    for b in 0..blocks {
        let t0 = Instant::now();
        parts.extend(block(
            &mut state,
            passes * b / blocks..passes * (b + 1) / blocks,
        ));
        wall_s += t0.elapsed().as_secs_f64();
        if b + 1 < blocks {
            let s = std::thread::scope(|sc| {
                sc.spawn(|| {
                    let t0 = Instant::now();
                    let fresh = make();
                    let s = t0.elapsed().as_secs_f64();
                    fresh.map(|_| s)
                })
                .join()
                .expect("set-up thread panicked")
            })?;
            setup_s.push(s);
        }
    }
    let (mut sink, log) = merge(parts);
    sink.wall_s = wall_s;
    Ok(Measured {
        state,
        setup_s,
        sink,
        log,
    })
}

/// Runs the passes numbered `passes` on one measuring thread, stopping
/// early once the run is `LIMIT_FACTOR` times `--seconds` old (but never
/// before pass 4, so a traced run has two traced and two untraced passes).
/// In a traced run odd passes record spans; even passes give the untraced
/// baseline for `trace_overhead`.
pub fn measure(
    ctx: &Ctx,
    thread: usize,
    passes: Range<u64>,
    mut pass: impl FnMut(u64, &mut Sink),
) -> (Sink, Log) {
    trace::install(ctx.epoch, thread);
    let mut sink = Sink::default();
    let t0 = Instant::now();
    let limit = LIMIT_FACTOR * ctx.seconds;
    sink.planned = passes.end - passes.start;
    let mut i = passes.start;
    while i < passes.end && (i < 4 || ctx.epoch.elapsed().as_secs_f64() < limit) {
        sink.traced = ctx.trace && i % 2 == 1;
        sink.cur_ms = 0.0;
        trace::set_enabled(sink.traced);
        trace::set_request(i);
        {
            let _p = trace::span("bench.pass");
            pass(i, &mut sink);
        }
        sink.pass_ms[usize::from(sink.traced)].push(sink.cur_ms);
        i += 1;
    }
    trace::set_enabled(false);
    sink.wall_s = t0.elapsed().as_secs_f64();
    (sink, trace::take())
}

/// Merges per-thread sinks and logs.
fn merge(parts: Vec<(Sink, Log)>) -> (Sink, Log) {
    let mut sink = Sink::default();
    let mut log = Log::default();
    for (s, l) in parts {
        sink.merge(s);
        log.merge(l);
    }
    (sink, log)
}

/// A metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Everything a workload hands back for reporting.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub sink: Sink,
    pub log: Log,
    /// Workload-specific per-layer metrics (the rest read 0).
    pub layers: BTreeMap<String, f64>,
    /// The workload's own bounded timings in ms, reported as `part1_ms`
    /// to `part3_ms`, each with the name of the timing it is.
    pub parts: [(&'static str, f64); 3],
    /// Further workload-specific numbers from the untraced passes,
    /// printed and saved beside the bounded ones but not bounded.
    pub detail: Vec<Metric>,
}

/// Per-pass mean seconds of span `name` over the traced passes.
pub fn span_s(log: &Log, sink: &Sink, name: &str) -> f64 {
    log.get(name).total_ns as f64 / 1e9 / sink.traced_passes()
}

/// Per-pass mean self seconds of span `name` over the traced passes.
pub fn self_s(log: &Log, sink: &Sink, name: &str) -> f64 {
    log.get(name).self_ns as f64 / 1e9 / sink.traced_passes()
}

/// Per-pass mean of a count over the traced passes.
pub fn per_pass(sink: &Sink, name: &str) -> f64 {
    sink.counts.get(name).copied().unwrap_or(0.0) / sink.traced_passes()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// The untraced run's metrics: the bounded end-to-end set, and the
/// unbounded detail — the workload's further numbers and the failure
/// ratio.
fn end_to_end(o: &Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let values = [
        quantile(&sorted(o.setup_s.clone()), 0.0),
        peak_rss_mb(),
        o.parts[0].1,
        o.parts[1].1,
        o.parts[2].1,
    ];
    let common = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (n.to_string(), v, *u))
        .collect();
    let mut detail = o.detail.clone();
    detail.push((
        "failed_ratio".to_string(),
        ratio(o.sink.failed as f64, o.sink.attempted as f64),
        "ratio",
    ));
    (common, detail)
}

/// The traced run's per-layer metrics.
fn layers(o: &Outcome) -> Vec<Metric> {
    let (log, sink) = (&o.log, &o.sink);
    let wall_ns = log.get("bench.pass").total_ns as f64;
    let covered = wall_ns - log.get("bench.pass").self_ns as f64;
    let mut common = BTreeMap::new();
    common.insert("bench.gen_s", span_s(log, sink, "bench.gen"));
    common.insert("bench.check_s", span_s(log, sink, "bench.check"));
    common.insert("bench.self_s", self_s(log, sink, "bench.pass"));
    common.insert("trace.coverage", ratio(covered, wall_ns));
    common.insert(
        "trace.spans",
        (log.spans.len() as u64 + log.dropped) as f64 / sink.traced_passes(),
    );
    common.insert(
        "trace_overhead",
        ratio(
            quantile(&sorted(sink.pass_ms[1].clone()), 0.5),
            quantile(&sorted(sink.pass_ms[0].clone()), 0.5),
        ) - 1.0,
    );
    per_layer()
        .into_iter()
        .map(|(n, u)| {
            let v = o
                .layers
                .get(&n)
                .or_else(|| common.get(n.as_str()))
                .copied()
                .unwrap_or(0.0);
            (n, v, u)
        })
        .collect()
}

fn to_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    obj([("value", Json::num(*v)), ("unit", Json::str(*u))]),
                )
            })
            .collect(),
    )
}

/// Prints every metric as `name value unit`, writes
/// `<out>/<workload>.json` (and the trace), and ends with the one-line
/// JSON result. Returns whether every output was correct.
pub fn report(ctx: &Ctx, o: Outcome) -> bool {
    let (metrics, detail) = if ctx.trace {
        (layers(&o), Vec::new())
    } else {
        end_to_end(&o)
    };
    let sink = &o.sink;
    let failed = sink.failed.min(sink.attempted);
    let nesting = if ctx.trace {
        o.log.nesting_violations()
    } else {
        0
    };
    let correct = failed == 0 && sink.attempted > 0 && nesting == 0;
    for note in &sink.notes {
        println!("# FAILED {}: {note}", ctx.workload);
    }
    if nesting > 0 {
        println!(
            "# FAILED {}: {nesting} spans outlast their parent",
            ctx.workload
        );
    }
    println!(
        "# {} seed {}: {} of {} passes ({} traced) in {:.1} s, {} attempted, {} failed",
        ctx.workload,
        ctx.seed,
        sink.passes(),
        sink.planned,
        sink.pass_ms[1].len(),
        sink.wall_s,
        sink.attempted,
        failed
    );
    let parts: Vec<(String, &str)> = o
        .parts
        .iter()
        .enumerate()
        .map(|(i, (what, _))| (format!("part{}_ms", i + 1), *what))
        .collect();
    if !ctx.trace {
        for (slot, what) in &parts {
            println!("# {slot} is {what}");
        }
    }
    for (n, v, u) in detail.iter().chain(&metrics) {
        println!("{n} {v} {u}");
    }
    let samples = |m: &BTreeMap<&'static str, Vec<f64>>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        Json::Arr(v.iter().map(|s| Json::num(*s)).collect()),
                    )
                })
                .collect(),
        )
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let file = obj([
        ("workload", Json::str(ctx.workload.clone())),
        ("seed", Json::u64(ctx.seed)),
        ("seconds", Json::num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("nproc", Json::u64(nproc as u64)),
        ("git_revision", Json::str(git_revision())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(sink.attempted)),
        ("failed", Json::u64(failed)),
        ("passes", Json::u64(sink.passes() as u64)),
        ("planned_passes", Json::u64(sink.planned)),
        ("wall_s", Json::num(sink.wall_s)),
        (
            "setup_samples_s",
            Json::Arr(o.setup_s.iter().map(|s| Json::num(*s)).collect()),
        ),
        ("op_samples_us", samples(&sink.ops[0])),
        ("series_samples", samples(&sink.series)),
        (
            "notes",
            Json::Arr(sink.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
        (
            "parts",
            Json::Obj(
                parts
                    .into_iter()
                    .map(|(slot, what)| (slot, Json::str(what)))
                    .collect(),
            ),
        ),
        ("detail", to_json(&detail)),
        ("metrics", to_json(&metrics)),
    ]);
    let name = if ctx.trace {
        format!("{}.traced.json", ctx.workload)
    } else {
        format!("{}.json", ctx.workload)
    };
    if let Err(e) = std::fs::write(ctx.out.join(name), file.to_text()) {
        eprintln!(
            "vhdlbench: cannot write results to {}: {e}",
            ctx.out.display()
        );
    }
    if ctx.trace {
        let path = ctx.out.join(format!("{}.trace.json", ctx.workload));
        if let Err(e) = std::fs::write(&path, o.log.to_json()) {
            eprintln!("vhdlbench: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::u64(sink.attempted)),
            ("failed", Json::u64(failed)),
            ("metrics", to_json(&metrics)),
        ])
        .to_text()
    );
    correct
}
