//! The four workloads, and the metric derivations they share.

use std::collections::BTreeMap;

use crate::harness::{per_pass, ratio, span_s, Ctx, Outcome, Sink};
use crate::stats::quantile;
use crate::trace::Log;

mod compile;
mod rebuild;
mod serve;
mod simulate;

/// Workload names, in the order a full run executes them.
pub const NAMES: &[&str] = &["compile", "simulate", "serve", "rebuild"];

/// Runs one workload; `None` for an unknown name.
pub fn run(ctx: &Ctx) -> Option<Outcome> {
    Some(match ctx.workload.as_str() {
        "compile" => compile::run(ctx),
        "simulate" => simulate::run(ctx),
        "serve" => serve::run(ctx),
        "rebuild" => rebuild::run(ctx),
        _ => return None,
    })
}

/// Set-up failed: the run cannot measure anything, so it ends without a
/// result line.
fn setup_failed(ctx: &Ctx, e: &str) -> ! {
    eprintln!("vhdlbench: {} set-up failed: {e}", ctx.workload);
    std::process::exit(1);
}

/// Adds the structural-cache and codec counters accumulated since `before`.
fn vifb_counts(sink: &mut Sink, before: vhdl_vif::VifbStats) {
    let now = vhdl_vif::vifb_stats();
    sink.count(
        "vif.cache_hits",
        (now.cache_hits - before.cache_hits) as f64,
    );
    sink.count(
        "vif.cache_lookups",
        (now.cache_hits + now.cache_misses - before.cache_hits - before.cache_misses) as f64,
    );
    sink.count("vif.decodes", (now.decodes - before.decodes) as f64);
    sink.count(
        "vif.text_parses",
        (now.text_parses - before.text_parses) as f64,
    );
}

/// The VIF-layer metrics, derived the same way on every workload.
fn vif_layers(log: &Log, sink: &Sink, layers: &mut BTreeMap<String, f64>) {
    let n = sink.traced_passes();
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set("vif.load_s", span_s(log, sink, "vif.load"));
    set("vif.loads", log.get("vif.load").count as f64 / n);
    set("vif.put_s", span_s(log, sink, "vif.put"));
    set("vif.puts", log.get("vif.put").count as f64 / n);
    for k in [
        "vif.bytes_read",
        "vif.bytes_written",
        "vif.decodes",
        "vif.text_parses",
    ] {
        set(k, per_pass(sink, k));
    }
    set(
        "vif.cache_hit_ratio",
        ratio(
            per_pass(sink, "vif.cache_hits"),
            per_pass(sink, "vif.cache_lookups"),
        ),
    );
}

/// The `q` quantile (ms) of the untraced ops named `op`.
fn op_ms(sink: &Sink, op: &str, q: f64) -> f64 {
    quantile(&sink.op_latencies(op), q) / 1e3
}
