//! Allocation budget for analysis, measured with the harness counting
//! allocator.
//!
//! The attribute evaluator keeps all attribute instances of a tree in one
//! arena, gathers rule arguments on one reused stack and decorates the
//! parser's own tree: a unit is evaluated as parsed, and an expression's
//! tree is the three vectors its parse fills. What is left is the
//! semantic rules' own allocation. This test pins that down on the full
//! adder example: the allocations made inside `analyze_unit_with_loader`
//! for all of its units, the window the `principal-ag` trace span covers.
//! The same test checks that analysis allocates in proportion to the
//! length of a list, not to its square, for the lists a unit grows one
//! element per production: identifiers, sensitivity-list names and
//! selected-assignment alternatives.
//!
//! One test function on purpose: the counting allocator is process-global,
//! and parallel test threads would bleed into each other's windows.

use std::rc::Rc;

use vhdl_sem::analyze::{Analyzer, UnitLoader};
use vhdl_sem::env::EnvKind;
use vhdl_vif::{Library, LibrarySet};

#[global_allocator]
static ALLOC: ag_harness::alloc::CountingAlloc = ag_harness::alloc::CountingAlloc;

/// Allocations while analyzing `examples/full_adder.vhd`. The evaluator
/// with a memo vector and a state vector per tree node, a hash lookup per
/// demand and three copies of each unit's tree made 9,579; the arena
/// evaluator over a copy of each parse tree made 4,229; decorating the
/// parser's tree made 3,980. Trees without the nodes of copy-only chain
/// productions, whose LEF leaves become values only when demanded, made
/// 3,872, and merging two lists into one allocation instead of a copy
/// and a grow made 3,829. Filtering each operator's and call's
/// overloads once per node (`CANDS`) instead of once per rule made
/// 3,532. Building nodes through the VIF schema's constructors (each
/// field vector allocated once at its final size, uids and fixed words
/// shared instead of copied) made 3,408, and sharing one empty list per
/// thread instead of allocating one per `Value::empty_list` call made
/// 3,342. Reading each expression's token run from the tree as one slice
/// (`Dep::Leaves`) instead of building it up a token at a time in the
/// `TOKS` class made 3,316, and appending to an identifier, name or
/// selected-alternative list with one copy of the short list (instead of
/// a copy and a grow) makes 3,298. The budget is that count plus 3%.
const BUDGET: u64 = 3_397;

/// Bytes allocated while analyzing every unit of `src`, which must analyze
/// cleanly, into a fresh library.
fn analysis_bytes(an: &Analyzer, src: &str) -> u64 {
    let libs = Rc::new(LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]));
    let mut bytes = 0;
    for u in &an.parse_units(src).expect("parses") {
        let before = ag_harness::alloc::stats();
        let au = an.analyze_unit_with_loader(u, Rc::clone(&libs) as Rc<dyn UnitLoader>);
        bytes += ag_harness::alloc::stats().bytes - before.bytes;
        assert!(!au.msgs.has_errors(), "{}: {}", au.key, au.msgs);
        libs.work().put(&au.key, &au.node).expect("stores");
    }
    bytes
}

/// A unit with three `n`-element lists: `n` signals declared in one
/// identifier list, a process sensitive to all of them, and a selected
/// assignment with `n` alternatives.
fn long_lists(n: usize) -> String {
    let sigs: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let sigs = sigs.join(", ");
    let arms: String = (0..n).map(|i| format!("'0' when {i}, ")).collect();
    format!(
        "entity lists is end;\narchitecture a of lists is\n  signal {sigs} : bit;\n  \
         signal sel : integer;\n  signal t, u : bit;\nbegin\n  \
         process ({sigs}) begin u <= s0; end process;\n  \
         with sel select t <= {arms}'1' when others;\nend a;\n"
    )
}

#[test]
fn full_adder_analysis_allocation_budget() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd"),
    )
    .expect("examples/full_adder.vhd");
    let an = Analyzer::new(EnvKind::Tree);
    let libs = Rc::new(LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]));
    let units = an.parse_units(&src).expect("parses");
    let mut allocs = 0;
    for u in &units {
        let before = ag_harness::alloc::stats();
        let au = an.analyze_unit_with_loader(u, Rc::clone(&libs) as Rc<dyn UnitLoader>);
        allocs += ag_harness::alloc::stats().allocations - before.allocations;
        assert!(!au.msgs.has_errors(), "{}: {}", au.key, au.msgs);
        libs.work().put(&au.key, &au.node).expect("stores");
    }
    assert_eq!(units.len(), 10);
    assert!(
        allocs <= BUDGET,
        "analyzing full_adder.vhd made {allocs} allocations, budget {BUDGET}"
    );

    // Twice the list length may cost at most 2.5 times the bytes; a list
    // copied whole at each element costs about 4 times. The lists' demand
    // recursion is as deep as they are long, so this runs on a deep stack.
    let (small, large) = ag_harness::pool::run_on_stack("long-lists", || {
        let an = Analyzer::new(EnvKind::Tree);
        (
            analysis_bytes(&an, &long_lists(2_000)),
            analysis_bytes(&an, &long_lists(4_000)),
        )
    });
    assert!(
        large * 2 <= small * 5,
        "lists of 2,000 elements took {small} bytes to analyze, of 4,000 {large}"
    );
}
