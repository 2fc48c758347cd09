//! Workload generators and shared helpers for the experiment harnesses
//! that regenerate every table and figure of the paper (see
//! `EXPERIMENTS.md` for the index).

use std::fmt::Write as _;

/// Generates a synthetic VHDL design file of roughly `units` compilation
/// units: a package of constants/functions, then entity/architecture
/// pairs whose processes exercise expressions, ifs, cases, and loops.
pub fn gen_design(units: usize, procs_per_arch: usize) -> String {
    let mut out = String::new();
    for p in 0..3 {
        let _ = writeln!(
            out,
            "package consts{p} is
               constant base{p} : integer := {v};
               function scale{p} (x : integer) return integer;
             end consts{p};
             package body consts{p} is
               function scale{p} (x : integer) return integer is
               begin
                 return x * {m} + base{p};
               end scale{p};
             end consts{p};",
            v = 7 + p,
            m = 3 + p
        );
    }
    for u in 0..units {
        let _ = writeln!(
            out,
            "use work.consts0.all;
             use work.consts1.all;
             use work.consts2.all;
             entity ent{u} is
               generic (width : integer := {w});
               port (clk : in bit; q : out integer);
             end ent{u};
             architecture rtl of ent{u} is
               signal acc : integer := 0;
               signal phase : integer := 0;",
            w = u % 7 + 1
        );
        let _ = writeln!(out, "begin");
        for p in 0..procs_per_arch {
            let _ = writeln!(
                out,
                "  p{p} : process (clk)
                     variable v : integer := {p};
                   begin
                     if clk = '1' then
                       v := v + scale0(phase) + scale1(phase) + scale2(phase) + {p};
                       if v > 1000 then
                         v := v mod 997;
                       end if;
                       case phase is
                         when 0 => acc <= acc + v;
                         when 1 | 2 => acc <= acc - v;
                         when others => acc <= 0;
                       end case;
                       for i in 0 to 3 loop
                         v := v + i * base0 + base1;
                       end loop;
                     end if;
                   end process;"
            );
        }
        let _ = writeln!(out, "  q <= acc + width;");
        let _ = writeln!(out, "end rtl;");
    }
    out
}

/// Generates a library of `n` entity/architecture pairs and a batch of
/// configuration units over them (the §2.2 footnote-3 workload: few source
/// lines, heavy foreign-VIF traffic).
pub fn gen_config_library(n_cells: usize) -> (String, String) {
    let mut lib = String::new();
    for i in 0..n_cells {
        let _ = writeln!(
            lib,
            "entity cell{i} is
               port (a, b : in bit; y : out bit);
             end cell{i};
             architecture fast of cell{i} is
             begin
               y <= a and b;
             end fast;
             architecture slow of cell{i} is
             begin
               y <= a and b after {d} ns;
             end slow;",
            d = i % 5 + 1
        );
    }
    // A top design using every cell, then a configuration unit binding
    // them explicitly.
    let mut top = String::new();
    let _ = writeln!(top, "entity top is end;");
    let _ = writeln!(top, "architecture s of top is");
    for i in 0..n_cells {
        let _ = writeln!(
            top,
            "  component cell{i} port (a, b : in bit; y : out bit); end component;"
        );
    }
    let _ = writeln!(top, "  signal x, y : bit := '0';");
    for i in 0..n_cells {
        let _ = writeln!(top, "  signal n{i} : bit := '0';");
    }
    let _ = writeln!(top, "begin");
    for i in 0..n_cells {
        let _ = writeln!(
            top,
            "  u{i} : cell{i} port map (a => x, b => y, y => n{i});"
        );
    }
    let _ = writeln!(top, "end s;");
    let mut cfg = String::new();
    let _ = writeln!(cfg, "configuration cfg of top is");
    let _ = writeln!(cfg, "  for s");
    for i in 0..n_cells {
        let _ = writeln!(
            cfg,
            "    for u{i} : cell{i} use entity work.cell{i}({a}); end for;",
            a = if i % 2 == 0 { "fast" } else { "slow" }
        );
    }
    let _ = writeln!(cfg, "  end for;");
    let _ = writeln!(cfg, "end cfg;");
    let _ = write!(top, "{cfg}");
    (lib, top)
}

/// Like [`gen_config_library`] but with the configuration unit separate
/// from the library and top architecture — so the configuration's own
/// lines/minute can be measured in isolation (§2.2 footnote 3).
pub fn gen_config_library_split(n_cells: usize) -> (String, String, String) {
    let (lib, top_with_cfg) = gen_config_library(n_cells);
    let split_at = top_with_cfg
        .find("configuration cfg")
        .expect("config present");
    let (top, cfg) = top_with_cfg.split_at(split_at);
    (lib, top.to_string(), cfg.to_string())
}

/// The fixed corpus whose analysis output `tests/vif_digest.rs` pins, as
/// `(name, sources)`: the full adder example, sixteen seeded conform
/// designs (eight small, eight heavy) and the four-cell configuration
/// library.
pub fn digest_designs() -> Vec<(String, Vec<String>)> {
    use vhdl_conform::{gen_design, Profile};
    let full_adder = std::fs::read_to_string(workspace_root().join("examples/full_adder.vhd"))
        .expect("examples/full_adder.vhd");
    let mut out = vec![("full_adder".to_string(), vec![full_adder])];
    for profile in [Profile::Small, Profile::Heavy] {
        for seed in 1..=8u64 {
            let d = gen_design(&mut ag_harness::Source::from_seed(seed), profile);
            out.push((format!("{}-{seed}", profile.name()), vec![d.source]));
        }
    }
    let (lib, top) = gen_config_library(4);
    out.push(("config_library_4".to_string(), vec![lib, top]));
    out
}

/// The rule instances both attribute grammars run analyzing `designs`:
/// each design into a fresh in-memory work library, its sources and their
/// units in order, every unit stored as analyzed. A count of work, so it
/// does not move with the host. Analyzes on an analysis stack.
pub fn rule_instances(designs: &[(String, Vec<String>)]) -> vhdl_sem::analyze::RuleEvals {
    use std::rc::Rc;
    use vhdl_sem::analyze::{Analyzer, RuleEvals, UnitLoader};
    use vhdl_vif::{Library, LibrarySet};
    let designs = designs.to_vec();
    ag_harness::pool::run_on_stack("rule-instances", move || {
        let an = Analyzer::new(vhdl_sem::env::EnvKind::Tree);
        let mut sum = RuleEvals::default();
        for (_, srcs) in &designs {
            let libs = Rc::new(LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]));
            for src in srcs {
                for unit in an.parse_units(src).expect("design parses") {
                    let au =
                        an.analyze_unit_with_loader(&unit, Rc::clone(&libs) as Rc<dyn UnitLoader>);
                    sum.principal += au.rule_evals.principal;
                    sum.expr += au.rule_evals.expr;
                    libs.work().put(&au.key, &au.node).expect("stores");
                }
            }
        }
        sum
    })
}

/// Counts non-blank, non-comment lines, the paper's Figure 2 convention
/// ("stripped of blank lines and comments").
pub fn stripped_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("--") && !l.starts_with('*')
        })
        .count()
}

/// Sums stripped LoC over files or directories (relative to the workspace
/// root).
pub fn loc_of(paths: &[&str]) -> usize {
    let root = workspace_root();
    let mut total = 0;
    for p in paths {
        let full = root.join(p);
        if full.is_dir() {
            for entry in walk(&full) {
                if entry.extension().is_some_and(|e| e == "rs") {
                    if let Ok(src) = std::fs::read_to_string(&entry) {
                        total += stripped_loc(&src);
                    }
                }
            }
        } else if let Ok(src) = std::fs::read_to_string(&full) {
            total += stripped_loc(&src);
        }
    }
    total
}

fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(walk(&p));
            } else {
                out.push(p);
            }
        }
    }
    out
}

/// The workspace root (benches run inside `crates/bench`).
fn workspace_root() -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// Where bench results go: `results/` at the workspace root, unless
/// `AG_BENCH_OUT` redirects them — smoke runs (verify.sh with low
/// `AG_BENCH_ITERS`) point this at a scratch directory so the committed
/// full-iteration results are never overwritten by throwaway numbers.
pub fn out_dir() -> std::path::PathBuf {
    match std::env::var_os("AG_BENCH_OUT") {
        Some(d) => std::path::PathBuf::from(d),
        None => workspace_root().join("results"),
    }
}

/// Builds a synthetic attribute grammar of parameterized size for the
/// generator-scaling experiment: a chain grammar with `n` nonterminals,
/// each carrying an inherited and a synthesized class wired with copy and
/// merge rules (mostly implicit, like a real AG).
pub fn synth_ag(n: usize) -> (std::sync::Arc<ag_lalr::Grammar>, ag_core::AttrGrammar<i64>) {
    use ag_core::{AgBuilder, Dep};
    use ag_lalr::GrammarBuilder;
    let mut g = GrammarBuilder::new();
    let toks: Vec<_> = (0..n).map(|i| g.terminal(&format!("t{i}"))).collect();
    let nts: Vec<_> = (0..n).map(|i| g.nonterminal(&format!("n{i}"))).collect();
    for i in 0..n {
        if i + 1 < n {
            g.prod(
                nts[i],
                &[toks[i].into(), nts[i + 1].into()],
                &format!("p{i}_chain"),
            );
        }
        g.prod(nts[i], &[toks[i].into()], &format!("p{i}_leaf"));
    }
    g.start(nts[0]);
    let g = std::sync::Arc::new(g.build().expect("synthetic grammar"));
    let mut ab = AgBuilder::<i64>::new(std::sync::Arc::clone(&g));
    let inh = ab.inh("DEPTH");
    let syn = ab.syn_merge("SUM", || 0, |a, b| a + b);
    for nt in &nts {
        ab.attach(inh, *nt);
        ab.attach(syn, *nt);
    }
    for i in 0..n {
        let leaf = g
            .prod_by_label(&format!("p{i}_leaf"))
            .expect("leaf production");
        ab.rule(leaf, 0, syn, vec![Dep::attr(0, inh), Dep::token(1)], |d| {
            d[0] + d[1]
        });
    }
    let ag = ab.build().expect("synthetic AG");
    (g, ag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_design_compiles() {
        let src = gen_design(2, 2);
        let c = vhdl_driver::Compiler::in_memory();
        let r = c.compile(&src).expect("parses");
        assert!(r.ok(), "{}", r.msgs());
        assert_eq!(r.units.len(), 6 + 2 * 2);
    }

    #[test]
    fn generated_config_library_compiles() {
        let (lib, top) = gen_config_library(3);
        let c = vhdl_driver::Compiler::in_memory();
        let r = c.compile(&lib).expect("parses");
        assert!(r.ok(), "{}", r.msgs());
        let r = c.compile(&top).expect("parses");
        assert!(r.ok(), "{}", r.msgs());
        let (program, _) = c.elaborate_config("cfg", None).expect("elaborates");
        assert!(program.processes.len() >= 3);
    }

    #[test]
    fn synth_ag_scales_and_evaluates() {
        let (_g, ag) = synth_ag(10);
        let an = ag_core::analyze(&ag).expect("acyclic");
        let plans = ag_core::plan(&ag, &an).expect("ordered");
        assert_eq!(plans.overall_max_visits(), 1);
        assert!(ag.n_implicit_rules() > 0);
    }

    #[test]
    fn loc_counting() {
        assert_eq!(stripped_loc("a\n\n-- x\n// y\n b\n"), 2);
        assert!(loc_of(&["crates/lalr/src"]) > 500);
    }
}
