//! An in-memory compile keeps the analyzed trees: storing, loading and
//! elaborating units makes no VIF bytes at all.
//!
//! The unit-load counters are process-wide. Every test here expects them
//! to stay still, so none can move them under another.

use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;

#[test]
fn in_memory_compile_and_elaborate_make_no_bytes() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd"),
    )
    .expect("examples/full_adder.vhd");
    let c = Compiler::in_memory();
    // `write_vif` counts the bytes it prints on the (thread-local) trace.
    ag_harness::trace::set_enabled(true);
    ag_harness::trace::reset();
    let before = vhdl_vif::vifb_stats();

    let r = c.compile(&src).expect("parses");
    assert!(r.ok(), "{}", r.msgs());
    c.elaborate("tb", None, None).expect("elaborates");

    let after = vhdl_vif::vifb_stats();
    assert_eq!(after.decodes - before.decodes, 0, "VIFB decodes");
    assert_eq!(after.text_parses - before.text_parses, 0, "VIF text parses");
    assert_eq!(ag_harness::trace::counter_value("vif-bytes-written"), 0);
    assert_eq!(ag_harness::trace::counter_value("vif-bytes-read"), 0);
    ag_harness::trace::set_enabled(false);

    // Units still count as traffic; bytes do not, since none were made.
    assert_eq!(r.traffic.units_written, 10);
    assert!(r.traffic.units_read > 0);
    assert_eq!((r.traffic.bytes_written, r.traffic.bytes_read), (0, 0));
}

/// A cold multi-file batch that asks for two jobs still analyzes on the
/// calling thread and commits trees: each later wave reads the units the
/// earlier ones committed without printing or parsing text, and no
/// thread pool starts.
#[test]
fn multi_file_batch_at_two_jobs_makes_no_bytes() {
    let files: Vec<(String, String)> = [
        (
            "rtl.vhd",
            "use work.derived.all;\narchitecture rtl of top is\n\
             signal s : integer := bits;\nbegin\ns <= bits + 1;\nend rtl;\n",
        ),
        (
            "derived.vhd",
            "use work.base.all;\npackage derived is\n\
             constant bits : integer := width * 2;\nend derived;\n",
        ),
        ("top.vhd", "entity top is\nend top;\n"),
        (
            "base.vhd",
            "package base is\nconstant width : integer := 4;\nend base;\n",
        ),
    ]
    .map(|(name, text)| (name.to_string(), text.to_string()))
    .into();
    let c = Compiler::in_memory();
    ag_harness::trace::set_enabled(true);
    ag_harness::trace::reset();
    let before = vhdl_vif::vifb_stats();

    let opts = BatchOptions {
        jobs: 2,
        incremental: true,
    };
    let r = c.compile_batch(&files, opts);

    let parses = vhdl_vif::vifb_stats().text_parses - before.text_parses;
    let spawns = ag_harness::trace::counter_value("pool-spawn");
    ag_harness::trace::set_enabled(false);
    assert!(r.ok(), "{}", r.msgs());
    assert_eq!((r.cache.analyzed(), r.waves), (4, 3));
    assert_eq!(parses, 0, "VIF text parses");
    assert_eq!(r.traffic.bytes_written, 0, "VIF bytes written");
    assert_eq!(spawns, 0, "pool spawns");
}
