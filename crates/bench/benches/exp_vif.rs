//! E15 — VIF interchange costs: the two steps of a unit load.
//!
//! The VIF is the only interface between separately-compiled units, so
//! every dependency load, thread crossing, and session fork pays its
//! deserialization cost. A byte record's load is its record's memo, or
//! else one `read_vif` of its text. This experiment prices:
//!
//! - **text-parse** — `read_vif` over the canonical text (the paper's
//!   cost model, and the one byte form of a unit);
//! - **fork-load** — a full `LibrarySet::load` of every unit in a fresh
//!   fork of the library: each unit's text is read once;
//! - **memo-hit** — the same loads again in a fork that has loaded them
//!   (the record's memo, no parse at all);
//!
//! plus the text size and the end-to-end warm `compile_batch` time, with
//! every file's parse taken from the driver's memo of the last batch — the
//! number the server's warm `analyze` path is built on.
//!
//! Results land in `results/exp_vif.json`.

use ag_harness::bench::{fmt_ns, Runner};
use std::rc::Rc;

use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;
use vhdl_vif::{read_vif, Library, LibrarySet, VifError, VifNode};

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
    println!("# E15 — VIF text parse, fork load and record memo");
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

    // Text parse, every foreign reference resolving to one stub
    // node so each unit costs only its own text.
    let stub = VifNode::build("stub").done();
    let mut resolve_stub = |_: &str| -> Result<Rc<VifNode>, VifError> { Ok(Rc::clone(&stub)) };
    let s_text = r.measure("text-parse", || {
        for t in &texts {
            std::hint::black_box(read_vif(t, &mut resolve_stub).unwrap());
        }
    });
    println!("text-parse   {units} units: {}", fmt_ns(s_text.median_ns));

    // A fresh fork of the library each iteration: every load reads its
    // unit's text once, nested foreign references included.
    let snap = work.snapshot();
    let load_all = |set: &LibrarySet| {
        for k in &keys {
            std::hint::black_box(set.load(&format!("work.{k}")).unwrap());
        }
    };
    let fork = || LibrarySet::new(Rc::new(Library::from_snapshot(&snap)), vec![]);
    let s_fork = r.measure("fork-load", || load_all(&fork()));
    println!("fork-load    {units} units: {}", fmt_ns(s_fork.median_ns));

    // The same loads in a fork that has made them: record memo hits.
    let warm = fork();
    load_all(&warm);
    let s_memo = r.measure("memo-hit", || load_all(&warm));
    println!("memo-hit     {units} units: {}", fmt_ns(s_memo.median_ns));

    // End to end: warm compile_batch (every file's parse memoized, all
    // stamps hit, nothing re-prints) — the server's warm analyze core.
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
        "warm compile_batch (parse memo): {}",
        fmt_ns(s_warm.median_ns)
    );

    let parses = vhdl_vif::vifb_stats().text_parses;
    r.metric("vifb/text-parses", parses as f64, "");
    println!("vifb counters: {parses} text parses");

    r.finish();
}
