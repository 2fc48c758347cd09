//! Pins what analysis emits: the VIF text of every unit of a fixed set of
//! designs must hash to the digests recorded here.
//!
//! A uid names a declaration by its unit's content hash and its
//! declaring token's ordinal in the unit (`vhdl_sem::uid`), so the bytes
//! depend on what a unit says, not on the order in which the attribute
//! evaluator runs semantic rules. An analysis change that drops a
//! diagnostic, reshapes a node or renames a uid still fails here even
//! when every design analyzes cleanly. The set covers the full adder
//! example, sixteen seeded conform designs (eight small, eight heavy) and
//! the configuration-unit library.
//!
//! Each design is compiled twice: through `Compiler::compile`, one source
//! at a time, whose inline waves commit the analyzed trees, and through
//! `compile_batch` at two jobs, whose workers ship VIF text. Both must
//! give the recorded digests, so the tree path and the byte path store
//! the same units. Over the same designs, the uids must not move when
//! the layout does, and the visit-sequence evaluator (`PlanEval`) must
//! print the same VIF as the production demand evaluator.
//!
//! On an intended change to analysis output, the failure message prints
//! the new table.

use std::rc::Rc;

use ag_harness::fnv1a;
use vhdl_driver::batch::{BatchOptions, BatchResult};
use vhdl_driver::Compiler;
use vhdl_sem::analyze::{Analyzer, UnitLoader};
use vhdl_sem::env::EnvKind;
use vhdl_vif::{write_vif, Library, LibrarySet};

/// `(design, units, digest)`: the digest folds every unit's key,
/// diagnostics and VIF text in compilation order.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("full_adder", 10, 0x21f02812ebe21650),
    ("small-1", 6, 0xa836c522348ce46d),
    ("small-2", 6, 0xa4804d9f78e63637),
    ("small-3", 4, 0x3f8474129add7780),
    ("small-4", 6, 0x3bb373efe6c5bf9b),
    ("small-5", 6, 0x787465d2346ed2ca),
    ("small-6", 4, 0xd6209359e4af9e44),
    ("small-7", 4, 0x115b5eed807a4573),
    ("small-8", 6, 0x87305f4cb96e9c14),
    ("heavy-1", 6, 0x530ee25f47ab0bf9),
    ("heavy-2", 6, 0xf51182acd19a3314),
    ("heavy-3", 6, 0xaec766b2249e0818),
    ("heavy-4", 6, 0x470e5fc0e6ce9eae),
    ("heavy-5", 6, 0x98131e86faf08daa),
    ("heavy-6", 6, 0x8b4cb386146a9b9b),
    ("heavy-7", 6, 0xf605003bd1c12ee5),
    ("heavy-8", 6, 0xdcc730d9bf66a261),
    ("config_library_4", 15, 0x614cd32b4c290754),
];

/// How a design reaches the work library.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// `Compiler::compile`, one source at a time: the library stores trees.
    Tree,
    /// `compile_batch` over all sources at two jobs: the library stores
    /// the workers' text.
    Batch,
}

/// Compiles `sources` in order into one in-memory work library and
/// digests every analyzed unit.
fn digest(sources: &[&str], path: Path) -> (usize, u64) {
    let c = Compiler::in_memory();
    let mut text = String::new();
    let mut units = 0;
    let mut fold = |res: &BatchResult| {
        assert!(res.ok(), "{:?} {:?}", res.front_errors, res.units);
        for u in &res.units {
            let msgs: String = u.msgs.iter().map(|m| format!("{m}\n")).collect();
            let vif = c.libs.work().peek_raw(&u.key).expect("committed");
            units += 1;
            for part in [u.key.as_str(), "\n", &msgs, "\n", &vif, "\n"] {
                text.push_str(part);
            }
        }
    };
    match path {
        Path::Tree => {
            for src in sources {
                fold(&c.compile(src).expect("design parses"));
            }
        }
        Path::Batch => {
            let files: Vec<(String, String)> = sources
                .iter()
                .enumerate()
                .map(|(i, src)| (format!("f{i}.vhd"), src.to_string()))
                .collect();
            let opts = BatchOptions {
                jobs: 2,
                incremental: false,
            };
            fold(&c.compile_batch(&files, opts));
        }
    }
    (units, fnv1a(0, text.as_bytes()))
}

#[test]
fn analysis_output_matches_recorded_digests() {
    let designs = ag_bench::digest_designs();
    for path in [Path::Tree, Path::Batch] {
        check(&designs, path);
    }
}

fn check(designs: &[(String, Vec<String>)], path: Path) {
    let got: Vec<(String, usize, u64)> = designs
        .iter()
        .map(|(name, srcs)| {
            let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
            let (units, h) = digest(&srcs, path);
            (name.clone(), units, h)
        })
        .collect();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, u, h)| format!("    ({n:?}, {u}, {h:#018x}),\n"))
            .collect();
        panic!("{path:?} analysis output drifted from the recorded digests; now:\n{table}");
    }
}

/// Compiles `sources` one at a time into one in-memory work library and
/// returns every unit's key and VIF text in compilation order.
fn unit_texts(sources: &[String]) -> Vec<(String, String)> {
    let c = Compiler::in_memory();
    let mut out = Vec::new();
    for src in sources {
        let res = c.compile(src).expect("design parses");
        assert!(res.ok(), "{:?}", res.units);
        for u in &res.units {
            let vif = c.libs.work().peek_raw(&u.key).expect("committed");
            out.push((u.key.clone(), vif));
        }
    }
    out
}

/// The values of the uid-carrying fields (`uid`, `sub_uid`, `formal_uid`
/// and an `attrspec`'s `key`) of a unit's VIF text, in print order.
fn uid_fields(vif: &str) -> Vec<String> {
    let mut out = Vec::new();
    // What follows the last `(` outside a string: a field's name.
    let mut head = String::new();
    let mut chars = vif.chars();
    while let Some(c) = chars.next() {
        match c {
            '(' => head.clear(),
            '"' => {
                let mut s = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => s.extend(chars.next()),
                        '"' => break,
                        c => s.push(c),
                    }
                }
                if matches!(head.as_str(), "uid " | "sub_uid " | "formal_uid " | "key ") {
                    out.push(s);
                }
                head.push('"');
            }
            c => head.push(c),
        }
    }
    out
}

#[test]
fn uids_ignore_layout() {
    for (name, srcs) in ag_bench::digest_designs() {
        let moved: Vec<String> = srcs
            .iter()
            .map(|s| {
                format!(
                    "\n\n\n{}",
                    s.lines().map(|l| format!("  {l}\n")).collect::<String>()
                )
            })
            .collect();
        let (given, relaid) = (unit_texts(&srcs), unit_texts(&moved));
        assert_eq!(given.len(), relaid.len(), "{name}");
        for ((key, a), (key2, b)) in given.iter().zip(&relaid) {
            assert_eq!(key, key2, "{name}");
            let fields = uid_fields(a);
            assert!(!fields.is_empty(), "{name} {key}");
            assert_eq!(fields, uid_fields(b), "{name} {key}");
        }
    }
}

#[test]
fn plan_evaluation_prints_the_production_vif() {
    // Plan visits recurse along the tree, like demand evaluation.
    ag_harness::pool::run_on_stack("plan-oracle", || {
        let an = Analyzer::new(EnvKind::Tree);
        let ag = &an.pag.ag;
        let plans =
            ag_core::plan(ag, &ag_core::analyze(ag).expect("noncircular")).expect("ordered");
        let mut units = 0;
        for (name, srcs) in ag_bench::digest_designs() {
            let libs = Rc::new(LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]));
            for src in &srcs {
                for unit in an.parse_units(src).expect("design parses") {
                    let loader = Rc::clone(&libs) as Rc<dyn UnitLoader>;
                    let au = an.analyze_unit_with_loader(&unit, Rc::clone(&loader));
                    let (_, inputs) = an.root_inputs(&unit, loader);
                    let mut pe = ag_core::PlanEval::new(ag, &plans, &unit);
                    pe.run(inputs).expect("plan evaluation");
                    let planned = pe.root_value(an.pag.classes.units).expect("units");
                    let planned = planned.expect_list()[0].expect_node();
                    assert_eq!(
                        write_vif(&planned),
                        write_vif(&au.node),
                        "{name} {}",
                        au.key
                    );
                    libs.work().put(&au.key, &au.node).expect("stores");
                    units += 1;
                }
            }
        }
        assert_eq!(units, GOLDEN.iter().map(|g| g.1).sum::<usize>());
    });
}

/// Both evaluators decorate trees without the nodes of transparent
/// productions, and the plans above visit what is left. A plan may visit
/// `B`'s node in `A`'s place when the two symbols take the same visits.
/// Every transparent production of the principal AG keeps them; of the
/// expression AG's, all but `xr_expr`, its start production: `xr` is on
/// no right-hand side, so its node is only ever the root, where a plan
/// runs every visit of whatever symbol the root has.
#[test]
fn transparent_productions_keep_their_visits() {
    let an = Analyzer::new(EnvKind::Tree);
    let xag = vhdl_sem::expr_ag::ExprAg::shared();
    for (ag, n, differ) in [(&an.pag.ag, 52, &[][..]), (&xag.ag, 11, &["xr_expr"][..])] {
        let g = ag.grammar();
        let flagged: Vec<_> = g
            .prod_ids()
            .filter(|p| ag.transparent()[p.index()])
            .collect();
        assert_eq!(flagged.len(), n);
        let plans =
            ag_core::plan(ag, &ag_core::analyze(ag).expect("noncircular")).expect("ordered");
        let differing: Vec<&str> = flagged
            .iter()
            .filter(|&&p| !plans.keeps_visits(ag, p))
            .map(|&p| g.prod_label(p))
            .collect();
        assert_eq!(differing, differ);
    }
    let g = xag.ag.grammar();
    let xr = g.symbol("xr").expect("start symbol");
    assert!(g
        .prod_ids()
        .all(|p| p == g.accept_prod() || !g.rhs(p).contains(&xr)));
    // `parse_units` finds a file's units under the `dus_more` spine
    // because the file's and a plain unit's own nodes are left out.
    for label in ["df", "dus_one", "du_plain"] {
        assert!(
            an.pag.ag.transparent()[an.grammar.prod(label).index()],
            "{label}"
        );
    }
}
