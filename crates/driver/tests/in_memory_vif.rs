//! An in-memory compile keeps the analyzed trees: storing, loading and
//! elaborating units makes no VIF bytes at all.
//!
//! The unit-load counters are process-wide, so this file holds a single test
//! and no other test can move them while it runs.

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
