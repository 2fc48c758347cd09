//! End-to-end semantic analysis: source → principal AG → unit VIF in the
//! work library, exercising the full cascade and separate compilation.

use std::rc::Rc;

use vhdl_sem::analyze::{AnalyzedUnit, Analyzer, UnitLoader};
use vhdl_sem::env::EnvKind;
use vhdl_vif::{Library, LibrarySet};

fn setup() -> (Analyzer, Rc<LibrarySet>) {
    let an = Analyzer::new(EnvKind::Tree);
    let libs = Rc::new(LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]));
    (an, libs)
}

/// Parses `src` and analyzes its units in order, storing each clean unit
/// so later units of the file can reference it.
fn compile(an: &Analyzer, src: &str, libs: &Rc<LibrarySet>) -> Vec<AnalyzedUnit> {
    let mut out = Vec::new();
    for u in &an.parse_units(src).expect("parses") {
        let au = an.analyze_unit_with_loader(u, Rc::clone(libs) as Rc<dyn UnitLoader>);
        if !au.msgs.has_errors() && !au.key.is_empty() {
            libs.work().put(&au.key, &au.node).expect("stores");
        }
        out.push(au);
    }
    out
}

fn compile_ok(an: &Analyzer, libs: &Rc<LibrarySet>, src: &str) -> Vec<AnalyzedUnit> {
    let units = compile(an, src, libs);
    for u in &units {
        assert!(!u.msgs.has_errors(), "unit {} failed:\n{}", u.key, u.msgs);
    }
    units
}

#[test]
fn entity_analyzes_and_stores() {
    let (an, libs) = setup();
    let units = compile_ok(
        &an,
        &libs,
        "entity counter is
           generic (width : integer := 8);
           port (clk, reset : in bit; q : out integer);
         end counter;",
    );
    assert_eq!(units.len(), 1);
    assert_eq!(units[0].key, "entity.counter");
    assert!(libs.work().contains("entity.counter"));
    let e = libs.load("work.entity.counter").unwrap();
    assert_eq!(e.list_field("generics").len(), 1);
    assert_eq!(e.list_field("ports").len(), 3);
}

#[test]
fn package_with_types_and_function() {
    let (an, libs) = setup();
    let units = compile_ok(
        &an,
        &libs,
        "package util is
           type state is (idle, run, done);
           subtype small is integer range 0 to 15;
           constant max : small := 15;
           function clamp (x : integer) return integer;
         end util;
         package body util is
           function clamp (x : integer) return integer is
           begin
             if x > max then
               return max;
             end if;
             return x;
           end clamp;
         end util;",
    );
    assert_eq!(units.len(), 2);
    assert_eq!(units[0].key, "pkg.util");
    assert_eq!(units[1].key, "pkgbody.util");
    let pkg = libs.load("work.pkg.util").unwrap();
    // Exports: state type + 3 literals + implicit ops + subtype + constant
    // + function spec.
    assert!(pkg.list_field("decls").len() > 8);
    // Body carries the completed function with statements.
    let body = libs.load("work.pkgbody.util").unwrap();
    let f = body
        .list_field("decls")
        .iter()
        .filter_map(|v| v.as_node())
        .find(|n| n.kind() == "subprog" && n.name() == Some("clamp"))
        .expect("completed clamp");
    assert!(!f.list_field("body").is_empty());
    // Body reuses the spec's uid so call sites stay valid.
    let spec = pkg
        .list_field("decls")
        .iter()
        .filter_map(|v| v.as_node())
        .find(|n| n.kind() == "subprog" && n.name() == Some("clamp"))
        .unwrap();
    assert_eq!(spec.str_field("uid"), f.str_field("uid"));
}

#[test]
fn architecture_with_process() {
    let (an, libs) = setup();
    let units = compile_ok(
        &an,
        &libs,
        "entity counter is
           port (clk : in bit; q : out integer);
         end counter;
         architecture rtl of counter is
           signal count : integer := 0;
         begin
           tick : process (clk)
             variable v : integer;
           begin
             if clk = '1' then
               v := count + 1;
               count <= v after 1 ns;
             end if;
           end process tick;
           q <= count;
         end rtl;",
    );
    assert_eq!(units[1].key, "arch.counter.rtl");
    let arch = libs.load("work.arch.counter.rtl").unwrap();
    let concs = arch.list_field("concs");
    assert_eq!(concs.len(), 2, "process + desugared assignment");
    let proc = concs[0].as_node().unwrap();
    assert_eq!(proc.kind(), "process");
    assert_eq!(proc.name(), Some("tick"));
    assert_eq!(proc.list_field("sens").len(), 1);
    assert_eq!(proc.list_field("decls").len(), 1);
    // Sensitivity list desugars to a trailing wait.
    let body = proc.list_field("body");
    let last = body.last().unwrap().as_node().unwrap();
    assert_eq!(last.kind(), "s.wait");
    // The concurrent q <= count became a process with a final wait-on.
    let csa = concs[1].as_node().unwrap();
    assert_eq!(csa.kind(), "process");
    assert!(!csa.list_field("sens").is_empty());
    // Uses one cascade invocation per maximal expression; several here.
    assert!(units[1].expr_evals >= 4, "{}", units[1].expr_evals);
}

#[test]
fn use_clause_imports_across_units() {
    let (an, libs) = setup();
    compile_ok(
        &an,
        &libs,
        "package p is
           type color is (red, green, blue);
           constant favorite : color := green;
         end p;",
    );
    // Separate compilation: a later file uses the stored package.
    let units = compile_ok(
        &an,
        &libs,
        "use work.p.all;
         entity lamp is
           port (c : in color);
         end lamp;
         architecture a of lamp is
           signal x : color := favorite;
         begin
         end a;",
    );
    assert_eq!(units.len(), 2);
    // Selected-name import too.
    compile_ok(
        &an,
        &libs,
        "use work.p.color;
         entity lamp2 is
           port (c : in color);
         end lamp2;",
    );
}

#[test]
fn structural_instantiation_and_configuration() {
    let (an, libs) = setup();
    compile_ok(
        &an,
        &libs,
        "entity nand2 is
           port (a, b : in bit; y : out bit);
         end nand2;
         architecture fast of nand2 is
         begin
           y <= a nand b;
         end fast;
         architecture slow of nand2 is
         begin
           y <= a nand b after 2 ns;
         end slow;",
    );
    let units = compile_ok(
        &an,
        &libs,
        "entity top is
           port (p, q : in bit; r : out bit);
         end top;
         architecture structural of top is
           component nand2
             port (a, b : in bit; y : out bit);
           end component;
           for u1 : nand2 use entity work.nand2(fast);
         begin
           u1 : nand2 port map (a => p, b => q, y => r);
           u2 : nand2 port map (p, q, r);
         end structural;
         configuration cfg of top is
           for structural
             for u2 : nand2 use entity work.nand2(slow); end for;
           end for;
         end cfg;",
    );
    assert_eq!(units.len(), 3);
    let arch = libs.load("work.arch.top.structural").unwrap();
    assert_eq!(arch.list_field("concs").len(), 2);
    assert_eq!(arch.list_field("cfgs").len(), 1);
    let inst = arch.list_field("concs")[0].as_node().unwrap();
    assert_eq!(inst.kind(), "inst");
    assert_eq!(inst.name(), Some("u1"));
    assert_eq!(inst.list_field("port_map").len(), 3);
    let cfg = libs.load("work.config.cfg").unwrap();
    assert_eq!(cfg.str_field("arch_name"), Some("structural"));
    assert_eq!(cfg.list_field("bindings").len(), 1);
}

#[test]
fn latest_architecture_history() {
    let (an, libs) = setup();
    compile_ok(
        &an,
        &libs,
        "entity e is end;
         architecture a1 of e is begin end a1;
         architecture a2 of e is begin end a2;",
    );
    assert_eq!(libs.work().latest_architecture("e"), Some("a2".to_string()));
}

#[test]
fn semantic_errors_reported_with_positions() {
    let (an, libs) = setup();
    let units = compile(
        &an,
        "entity e is end;
         architecture a of e is
           signal s : bit;
         begin
           s <= mystery;
         end a;",
        &libs,
    );
    let msgs = units[1].msgs.to_string();
    assert!(units[1].msgs.has_errors());
    assert!(msgs.contains("mystery"), "{msgs}");
    assert!(msgs.contains("5:"), "position missing: {msgs}");
    // Failed units are not stored.
    assert!(!libs.work().contains("arch.e.a"));
}

#[test]
fn type_errors_caught() {
    let (an, libs) = setup();
    let units = compile(
        &an,
        "entity e is end;
         architecture a of e is
           signal s : bit;
         begin
           s <= 42;
         end a;",
        &libs,
    );
    assert!(units[1].msgs.has_errors(), "{}", units[1].msgs);
}

#[test]
fn physical_type_declaration() {
    let (an, libs) = setup();
    compile_ok(
        &an,
        &libs,
        "package phys is
           type distance is range 0 to 1000000000
             units um; mm = 1000 um; m = 1000 mm; end units;
           constant reach : distance := 2 m;
         end phys;",
    );
    let pkg = libs.load("work.pkg.phys").unwrap();
    let c = pkg
        .list_field("decls")
        .iter()
        .filter_map(|v| v.as_node())
        .find(|n| n.kind() == "obj")
        .unwrap();
    let init = c.node_field("init").unwrap();
    assert_eq!(init.int_field("ival"), Some(2_000_000));
}

#[test]
fn wait_and_case_statements() {
    let (an, libs) = setup();
    compile_ok(
        &an,
        &libs,
        "entity e is end;
         architecture a of e is
           type state is (s0, s1, s2);
           signal st : state := s0;
           signal clk : bit;
         begin
           process
           begin
             wait until clk = '1' for 100 ns;
             case st is
               when s0 => st <= s1;
               when s1 | s2 => st <= s0;
             end case;
             for i in 0 to 3 loop
               wait on clk;
               exit when st = s2;
             end loop;
           end process;
         end a;",
    );
}

#[test]
fn guarded_block() {
    let (an, libs) = setup();
    compile_ok(
        &an,
        &libs,
        "entity e is end;
         architecture a of e is
           signal en, d, q : bit;
         begin
           b : block (en = '1')
           begin
             q <= guarded d after 1 ns;
           end block b;
         end a;",
    );
    let arch = libs.load("work.arch.e.a").unwrap();
    let blk = arch.list_field("concs")[0].as_node().unwrap();
    assert_eq!(blk.kind(), "block");
    assert!(blk.node_field("guard_expr").is_some());
}
