//! E5 — §2.2 footnote 3: configuration units are much slower *per source
//! line*: "very few source lines that cause large data structures built by
//! compiling other compilation units to be read into memory and edited".
//!
//! Compiles a cell library, then measures lines/minute and VIF traffic for
//! (a) ordinary units and (b) the configuration-heavy tail of the design.

use ag_harness::bench::Runner;
use vhdl_driver::Compiler;

fn main() {
    let mut runner = Runner::new("exp_config_units").out_dir(ag_bench::out_dir());
    println!("# E5 — configuration units vs ordinary units (paper §2.2 fn.3, §3.3)");
    println!();
    println!("| workload | lines | lines/min | vif read (B) | vif read (units) |");
    println!("|----------|------:|----------:|-------------:|-----------------:|");
    for cells in [10usize, 30, 60] {
        let compiler = Compiler::in_memory();
        compiler.libs.work().set_cache_enabled(false);
        let (lib, top, cfg) = ag_bench::gen_config_library_split(cells);
        // Ordinary units: the cell library itself.
        let r1 = compiler.compile(&lib).expect("compiles");
        assert!(r1.ok(), "{}", r1.msgs());
        println!(
            "| {cells} cells (ordinary units) | {:>5} | {:>9.0} | {:>12} | {:>16} |",
            r1.lines,
            r1.lines_per_minute(),
            r1.traffic.bytes_read,
            r1.traffic.units_read
        );
        let rt = compiler.compile(&top).expect("compiles");
        assert!(rt.ok(), "{}", rt.msgs());
        // The configuration unit alone: very few source lines, but it must
        // read and traverse the foreign structures of everything it binds.
        let r2 = compiler.compile(&cfg).expect("compiles");
        assert!(r2.ok(), "{}", r2.msgs());
        println!(
            "| {cells} cells (configuration) | {:>5} | {:>9.0} | {:>12} | {:>16} |",
            r2.lines,
            r2.lines_per_minute(),
            r2.traffic.bytes_read,
            r2.traffic.units_read
        );
        let ratio = r1.lines_per_minute() / r2.lines_per_minute().max(1e-9);
        println!(
            "|   → ordinary units compile {ratio:.1}x more lines/min than the configuration unit |"
        );
        runner.metric(
            format!("ordinary_lines_per_min/{cells}"),
            r1.lines_per_minute(),
            "lines/min",
        );
        runner.metric(
            format!("config_lines_per_min/{cells}"),
            r2.lines_per_minute(),
            "lines/min",
        );
        runner.metric(
            format!("config_vif_bytes_read/{cells}"),
            r2.traffic.bytes_read as f64,
            "bytes",
        );
        runner.metric(format!("slowdown_ratio/{cells}"), ratio, "x");
    }
    runner.finish();
    println!();
    println!(
        "paper: \"it's not as fast\" on configurations; the bulk of the work is reading and \
         traversing foreign structures, not analyzing source"
    );
}
