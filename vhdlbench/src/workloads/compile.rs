//! `compile`: the attribute-grammar front half and the code generator on
//! a fresh seeded corpus every pass. Each design gets a fresh in-memory
//! work library, and the structural VIF cache is cleared between passes,
//! so no cache warms across passes. The simulation kernel does no work.
//!
//! A pass compiles `SMALL` small and `HEAVY` heavy conformance designs,
//! one RTL pipeline and one configuration design (few source lines, heavy
//! foreign-VIF reads: the paper's footnote-3 cost). A pass is short
//! enough that a run has the hundred passes a 90th percentile with ten
//! samples beyond it needs.

use std::collections::BTreeMap;

use vhdl_conform::Profile;
use vhdl_sem::analyze::Analyzer;
use vhdl_sem::env::EnvKind;

use super::{op_ms, setup_failed, vif_layers, vifb_counts};
use crate::front::{self, Top};
use crate::gen::{self, Pipeline};
use crate::harness::{self, per_pass, ratio, self_s, span_s, Ctx, Outcome, Sink};
use crate::trace::span;

const SMALL: u64 = 8;
const HEAVY: u64 = 2;
const RTL_STAGES: usize = 32;
const CONFIG_CELLS: usize = 8;
/// Passes per second of `--seconds` (a corpus takes 90 to 100 ms).
const PASSES_PER_S: f64 = 10.0;

/// The corpus's design classes, each with the series of its compile
/// milliseconds per 1000 non-blank lines in a pass. Per line, because a
/// seed changes how long the small and heavy designs are.
const CLASSES: [&str; 3] = [
    "compile_small_ms_per_kline",
    "compile_heavy_ms_per_kline",
    "compile_rtl_config_ms_per_kline",
];

struct Design {
    /// Index into `CLASSES`.
    class: usize,
    src: String,
    top: Top,
    /// Units the design must produce, when the generator fixes it.
    units: Option<usize>,
    /// Processes the elaborated program must have, when known.
    processes: Option<usize>,
}

fn corpus(seed: u64, pass: u64) -> Vec<Design> {
    let base = gen::mix(seed, pass);
    let mut out = Vec::new();
    for i in 0..SMALL + HEAVY {
        let d = if i < SMALL {
            gen::conform_design(gen::mix(base, i), Profile::Small)
        } else {
            gen::heavy_design(gen::mix(base, i))
        };
        out.push(Design {
            class: usize::from(i >= SMALL),
            src: d.source,
            top: Top::Entity(d.top),
            units: None,
            processes: None,
        });
    }
    let p = Pipeline::generate(gen::mix(base, 0x0052_544C), RTL_STAGES);
    out.push(Design {
        class: 2,
        src: p.source(),
        top: Top::Entity("tb".to_string()),
        units: Some(6),
        processes: Some(RTL_STAGES + 2),
    });
    let (lib, top) = ag_bench::gen_config_library(CONFIG_CELLS);
    out.push(Design {
        class: 2,
        src: format!("{lib}{top}"),
        top: Top::Config("cfg".to_string()),
        units: Some(3 * CONFIG_CELLS + 3),
        processes: Some(CONFIG_CELLS),
    });
    out
}

fn non_blank_lines(src: &str) -> usize {
    src.lines().filter(|l| !l.trim().is_empty()).count()
}

fn pass(analyzer: &Analyzer, seed: u64, i: u64, sink: &mut Sink) {
    let designs = {
        let _g = span("bench.gen");
        vhdl_vif::clear_node_cache();
        corpus(seed, i)
    };
    let vifb0 = vhdl_vif::vifb_stats();
    let mut ms = [0.0; 3];
    let mut lines = [0; 3];
    for d in &designs {
        lines[d.class] += non_blank_lines(&d.src);
        let before = sink.pass_so_far_ms();
        let built = sink.op("compile.design", || front::build(analyzer, &d.src, &d.top));
        ms[d.class] += sink.pass_so_far_ms() - before;
        let _c = span("bench.check");
        match built {
            Err(e) => sink.fail(e),
            Ok(b) => {
                sink.check(d.units.is_none_or(|n| n == b.units), || {
                    format!("{} units, expected {:?}", b.units, d.units)
                });
                sink.check(
                    d.processes.is_none_or(|n| n == b.program.processes.len()),
                    || {
                        format!(
                            "{} processes, expected {:?}",
                            b.program.processes.len(),
                            d.processes
                        )
                    },
                );
                sink.check(b.c_bytes > 0 && !b.program.processes.is_empty(), || {
                    "empty program or C rendition".to_string()
                });
                sink.count("sem.units", b.units as f64);
                sink.count("sem.expr_evals", b.expr_evals as f64);
                sink.count("codegen.processes", b.program.processes.len() as f64);
                sink.count("codegen.insns", front::insns(&b.program) as f64);
                sink.count("vif.bytes_read", b.traffic.bytes_read as f64);
                sink.count("vif.bytes_written", b.traffic.bytes_written as f64);
            }
        }
    }
    sink.record("compile.lines", lines.iter().sum::<usize>() as f64);
    for ((class, ms), lines) in CLASSES.into_iter().zip(ms).zip(lines) {
        sink.record(class, ms * 1e3 / lines as f64);
    }
    vifb_counts(sink, vifb0);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    let make = || Ok::<_, String>(Analyzer::new(EnvKind::Tree));
    let harness::Measured {
        setup_s, sink, log, ..
    } = harness::run(ctx, ctx.passes(PASSES_PER_S), &make, |analyzer, passes| {
        vec![harness::measure(ctx, 0, passes, |i, sink| {
            pass(analyzer, seed, i, sink)
        })]
    })
    .unwrap_or_else(|e| setup_failed(ctx, &e));
    let mut layers = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    let sem_self = self_s(&log, &sink, "sem.analyze");
    set("syntax.parse_s", span_s(&log, &sink, "syntax.parse"));
    set("sem.analyze_self_s", sem_self);
    set(
        "sem.share",
        ratio(sem_self, span_s(&log, &sink, "compile.design")),
    );
    for k in [
        "sem.units",
        "sem.expr_evals",
        "codegen.processes",
        "codegen.insns",
    ] {
        set(k, per_pass(&sink, k));
    }
    set(
        "codegen.elaborate_s",
        span_s(&log, &sink, "codegen.elaborate"),
    );
    set("codegen.emit_c_s", span_s(&log, &sink, "codegen.emit_c"));
    vif_layers(&log, &sink, &mut layers);
    let lines: f64 = sink.series.get("compile.lines").into_iter().flatten().sum();
    let design_s: f64 = sink.op_latencies("compile.design").iter().sum::<f64>() / 1e6;
    let parts = CLASSES.map(|class| (class, sink.series_min(class)));
    let detail = vec![
        (
            "compile_lines_per_s".to_string(),
            ratio(lines, design_s),
            "1/s",
        ),
        (
            "compile_p50_ms".to_string(),
            op_ms(&sink, "compile.design", 0.5),
            "ms",
        ),
        (
            "compile_p99_ms".to_string(),
            op_ms(&sink, "compile.design", 0.99),
            "ms",
        ),
    ];
    Outcome {
        setup_s,
        sink,
        log,
        layers,
        parts,
        detail,
    }
}
