//! Pins what analysis emits: the VIF text of every unit of a fixed set of
//! designs must hash to the digests recorded here.
//!
//! Type identity in VIF is a per-unit `fresh_uid` counter, so the order in
//! which the attribute evaluator runs semantic rules is visible in the
//! bytes. An evaluator change that reorders rules, drops a diagnostic or
//! renames a uid fails here even when every design still analyzes
//! cleanly. The set covers the full adder example, sixteen seeded conform
//! designs (eight small, eight heavy) and the configuration-unit library.
//!
//! Each design is compiled twice: through `Compiler::compile`, one source
//! at a time, whose inline waves commit the analyzed trees, and through
//! `compile_batch` at two jobs, whose workers ship VIF text. Both must
//! give the recorded digests, so the tree path and the byte path store
//! the same units.
//!
//! On an intended change to analysis output, the failure message prints
//! the new table.

use ag_harness::fnv1a;
use ag_harness::Source;
use vhdl_conform::{gen_design, Profile};
use vhdl_driver::batch::{BatchOptions, BatchResult};
use vhdl_driver::Compiler;

/// `(design, units, digest)`: the digest folds every unit's key,
/// diagnostics and VIF text in compilation order.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("full_adder", 10, 0xe6f551c2373a7ff8),
    ("small-1", 6, 0x6cc8169a1758539a),
    ("small-2", 6, 0x2d4e063eac65ced6),
    ("small-3", 4, 0xe8266959451c9a95),
    ("small-4", 6, 0x343d624e7357da44),
    ("small-5", 6, 0x26d11531bf98aefc),
    ("small-6", 4, 0xd11333cd4df090b2),
    ("small-7", 4, 0x74967de6739bbd5e),
    ("small-8", 6, 0x8b9a1eeb9e9ef872),
    ("heavy-1", 6, 0x56203d0b94e3efe1),
    ("heavy-2", 6, 0xfe1cd566e0adcbfb),
    ("heavy-3", 6, 0xd006e58add28be9c),
    ("heavy-4", 6, 0xdfd5c92a8bde8fc9),
    ("heavy-5", 6, 0x92b89e6f9869f5df),
    ("heavy-6", 6, 0x18d847456fd654ef),
    ("heavy-7", 6, 0x6c36779e69db2711),
    ("heavy-8", 6, 0x04e99f38050bd735),
    ("config_library_4", 15, 0x9281de2a995fc78b),
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

fn designs() -> Vec<(String, Vec<String>)> {
    let full_adder = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd"),
    )
    .expect("examples/full_adder.vhd");
    let mut out = vec![("full_adder".to_string(), vec![full_adder])];
    for (profile, seeds) in [(Profile::Small, 1..=8u64), (Profile::Heavy, 1..=8u64)] {
        for seed in seeds {
            let d = gen_design(&mut Source::from_seed(seed), profile);
            out.push((format!("{}-{seed}", profile.name()), vec![d.source]));
        }
    }
    let (lib, top) = ag_bench::gen_config_library(4);
    out.push(("config_library_4".to_string(), vec![lib, top]));
    out
}

#[test]
fn analysis_output_matches_recorded_digests() {
    let designs = designs();
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
