//! E15 — VIF interchange costs: text parse vs structural cache hit.
//!
//! The VIF is the only interface between separately-compiled units, so
//! every dependency load, thread crossing, and session fork pays its
//! deserialization cost. This experiment prices the two tiers a byte
//! record's load can take:
//!
//! - **text-parse** — `read_vif` over the canonical text (the paper's
//!   cost model, and the one byte form of a unit);
//! - **cache-hit** — a full `LibrarySet::load` against a warm structural
//!   cache (content-hash lookup, pointer share, no parse at all);
//!
//! plus the text size and the end-to-end warm `compile_batch` time with
//! the driver's plan cache — the number the server's warm `analyze` path
//! is built on.
//!
//! Results land in `results/exp_vif.json`.

use ag_harness::bench::{fmt_ns, Runner};
use std::rc::Rc;

use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;
use vhdl_vif::{clear_node_cache, read_vif, Library, LibrarySet, VifError, VifNode};

/// A small design with real cross-unit references: packages, entities,
/// architectures (same shape as the server's session workload).
fn design(n_cells: usize) -> Vec<(String, String)> {
    let mut files = vec![(
        "consts.vhd".into(),
        "package consts is\nconstant base : integer := 3;\nend consts;\n".into(),
    )];
    for c in 0..n_cells {
        files.push((
            format!("cell{c}.vhd"),
            format!("entity cell{c} is\nend cell{c};\n"),
        ));
        files.push((
            format!("cell{c}_rtl.vhd"),
            format!(
                "use work.consts.all;\narchitecture rtl of cell{c} is\n\
                 signal acc : integer := base;\nbegin\n\
                 pr : process\nvariable v : integer := {c};\nbegin\n\
                 v := v * 7 + base;\nacc <= acc + v;\nwait;\nend process;\n\
                 end rtl;\n"
            ),
        ));
    }
    files
}

fn main() {
    println!("# E15 — VIF text parse vs structural cache hit");
    println!();
    let mut r = Runner::new("exp_vif").iters(7).out_dir(ag_bench::out_dir());

    // Populate a library the normal way, then lift out the unit texts.
    let c = Compiler::in_memory();
    let res = c.compile_batch(&design(4), BatchOptions::default());
    assert!(res.ok(), "bench design must compile cleanly");
    let work = c.libs.work();
    let mut keys: Vec<String> = work.history();
    keys.sort();
    keys.dedup();
    let texts: Vec<String> = keys.iter().map(|k| work.peek_raw(k).unwrap()).collect();
    let units = texts.len();
    let text_bytes: usize = texts.iter().map(String::len).sum();

    r.metric("size/text-bytes", text_bytes as f64, "B");
    println!("{units} units: {text_bytes} B text");

    // Tier 1: text parse, every foreign reference resolving to one stub
    // node so each unit costs only its own text.
    let stub = VifNode::build("stub").done();
    let mut resolve_stub = |_: &str| -> Result<Rc<VifNode>, VifError> { Ok(Rc::clone(&stub)) };
    let s_text = r.measure("text-parse", || {
        for t in &texts {
            std::hint::black_box(read_vif(t, &mut resolve_stub).unwrap());
        }
    });
    println!("text-parse   {units} units: {}", fmt_ns(s_text.median_ns));

    // Tier 2: warm structural-cache hits through the full library load
    // path (fork a fresh library each iteration so the per-key cache is
    // cold and every load goes content-hash → shared cache).
    let snap = work.snapshot();
    {
        // Prime the thread-local structural cache.
        let lib = Rc::new(Library::from_snapshot(&snap));
        let set = LibrarySet::new(Rc::clone(&lib), vec![]);
        for k in &keys {
            set.load(&format!("work.{k}")).unwrap();
        }
    }
    let s_hit = r.measure("cache-hit-load", || {
        let lib = Rc::new(Library::from_snapshot(&snap));
        let set = LibrarySet::new(Rc::clone(&lib), vec![]);
        for k in &keys {
            std::hint::black_box(set.load(&format!("work.{k}")).unwrap());
        }
    });
    println!("cache-hit    {units} units: {}", fmt_ns(s_hit.median_ns));
    r.metric(
        "cache-hit-speedup-vs-text",
        s_text.median_ns as f64 / s_hit.median_ns as f64,
        "x",
    );

    // End to end: warm compile_batch with the plan cache (all stamps hit,
    // nothing parses, nothing re-prints) — the server's warm analyze core.
    clear_node_cache();
    let warm_files = design(4);
    let cw = Compiler::in_memory();
    let opts = BatchOptions {
        jobs: 1,
        incremental: true,
    };
    assert!(cw.compile_batch(&warm_files, opts).ok());
    let s_warm = r.measure("warm-compile-batch", || {
        let res = cw.compile_batch(&warm_files, opts);
        assert_eq!(res.cache.analyzed(), 0, "warm run must be all hits");
        res
    });
    println!(
        "warm compile_batch (plan cache): {}",
        fmt_ns(s_warm.median_ns)
    );

    let vb = vhdl_vif::vifb_stats();
    r.metric("vifb/cache-hits", vb.cache_hits as f64, "");
    r.metric("vifb/text-parses", vb.text_parses as f64, "");
    println!(
        "vifb counters: {} hits, {} misses, {} text parses",
        vb.cache_hits, vb.cache_misses, vb.text_parses
    );

    r.finish();
}
