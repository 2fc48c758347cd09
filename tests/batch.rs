//! The batch-compilation test suite: scheduling determinism, incremental
//! equivalence, and out-of-order staging, end to end.
//!
//! The determinism properties are the load-bearing ones: `--jobs 1` and
//! `--jobs N` must produce **byte-identical** VIF text for every stored
//! unit and **identical** diagnostics, over generated multi-unit designs
//! with random dependency shapes, random file packing, and random file
//! order — including designs with semantic errors. Incremental runs must
//! be observationally equivalent to cold runs (same VIF, same generated
//! C), with invalidation hitting exactly the transitive dependents of a
//! touched unit.

use std::path::{Path, PathBuf};

use ag_harness::{check, forall, Config, Source};
use vhdl_driver::batch::{BatchOptions, BatchResult};
use vhdl_driver::{Compiler, EnvKind};
use vhdl_vif::Library;

/// One generated design unit, with its dependency-order index.
#[derive(Clone, Debug)]
struct GenUnit {
    /// Source text, context clause included.
    text: String,
}

/// A generated multi-unit design: packages with constants (randomly
/// chained through `use` clauses), entities, and architectures reading
/// the constants. Returned in dependency order; the caller shuffles.
fn gen_design(s: &mut Source) -> Vec<GenUnit> {
    let npkg = s.usize_in(1, 4);
    let mut units = Vec::new();
    for i in 0..npkg {
        let mut ctx = String::new();
        let mut expr = format!("{}", s.u64_in(1, 99));
        if i > 0 && s.u64_in(0, 1) == 1 {
            let dep = s.usize_in(0, i - 1);
            ctx = format!("use work.p{dep}.all;\n");
            expr = format!("c{dep} + {}", s.u64_in(1, 9));
        }
        // A sprinkling of broken units: undefined names must produce the
        // same diagnostics at every worker count.
        if s.u64_in(0, 19) == 0 {
            expr = format!("missing{i} + 1");
        }
        units.push(GenUnit {
            text: format!("{ctx}package p{i} is\nconstant c{i} : integer := {expr};\nend p{i};\n"),
        });
    }
    let nent = s.usize_in(1, 3);
    for e in 0..nent {
        units.push(GenUnit {
            text: format!("entity e{e} is\nend e{e};\n"),
        });
        let narch = s.usize_in(1, 2);
        for a in 0..narch {
            let pkg = s.usize_in(0, npkg - 1);
            units.push(GenUnit {
                text: format!(
                    "use work.p{pkg}.all;\n\
                     architecture a{a} of e{e} is\n\
                     signal s : integer := c{pkg};\n\
                     begin\n\
                     s <= c{pkg} + {};\n\
                     end a{a};\n",
                    s.u64_in(0, 9)
                ),
            });
        }
    }
    units
}

/// Packs units into files (possibly several per file) and shuffles the
/// file order, so the batch sees units out of dependency order.
fn pack_and_shuffle(s: &mut Source, units: &[GenUnit]) -> Vec<(String, String)> {
    let nfiles = s.usize_in(1, units.len());
    let mut files: Vec<String> = vec![String::new(); nfiles];
    for u in units {
        let f = s.usize_in(0, nfiles - 1);
        files[f].push_str(&u.text);
    }
    let mut named: Vec<(String, String)> = files
        .into_iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(i, t)| (format!("f{i}.vhd"), t))
        .collect();
    // Fisher–Yates off the same source, so shrinking shrinks the shuffle.
    for i in (1..named.len()).rev() {
        let j = s.usize_in(0, i);
        named.swap(i, j);
    }
    named
}

/// Every stored unit's VIF text, keyed and sorted — the byte-comparable
/// library state.
fn library_texts(c: &Compiler) -> Vec<(String, String)> {
    let work = c.libs.work();
    let mut keys: Vec<String> = work.history();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let t = work.peek_raw(&k).expect("stored unit readable");
            (k, t)
        })
        .collect()
}

/// The determinism property (the ISSUE's acceptance suite): for random
/// designs, `jobs = 1` and `jobs = N` produce byte-identical VIF and
/// identical diagnostics — and the same wave count, since both run the
/// same schedule.
#[test]
fn parallel_compilation_is_deterministic() {
    forall!(
        Config::new("parallel_compilation_is_deterministic").cases(256),
        |s| {
            let units = gen_design(s);
            let files = pack_and_shuffle(s, &units);
            let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
            let jobs = s.usize_in(2, 4);

            let c1 = Compiler::in_memory();
            let r1 = c1.compile_batch(
                &files,
                BatchOptions {
                    jobs: 1,
                    incremental: false,
                },
            );
            let cn = Compiler::in_memory();
            let rn = cn.compile_batch(
                &files,
                BatchOptions {
                    jobs,
                    incremental: false,
                },
            );

            check!(
                r1.waves == rn.waves,
                "wave count diverged: {} vs {}",
                r1.waves,
                rn.waves
            );
            let d1 = r1.rendered_msgs(&names);
            let dn = rn.rendered_msgs(&names);
            check!(
                d1 == dn,
                "diagnostics diverged at jobs={jobs}:\n--- jobs=1\n{d1}\n--- jobs={jobs}\n{dn}"
            );
            let t1 = library_texts(&c1);
            let tn = library_texts(&cn);
            check!(
                t1 == tn,
                "library state diverged at jobs={jobs}: {} vs {} units",
                t1.len(),
                tn.len()
            );
        }
    );
}

/// Re-running the identical batch with `incremental` must hit on every
/// unit and leave the library byte-identical; the property holds at any
/// worker count.
#[test]
fn warm_rerun_is_equivalent_and_all_hits() {
    forall!(
        Config::new("warm_rerun_is_equivalent_and_all_hits").cases(64),
        |s| {
            let units = gen_design(s);
            let files = pack_and_shuffle(s, &units);
            let jobs = s.usize_in(1, 4);
            let opts = BatchOptions {
                jobs,
                incremental: true,
            };
            let c = Compiler::in_memory();
            let cold = c.compile_batch(&files, opts);
            let after_cold = library_texts(&c);
            check!(cold.cache.hits == 0, "cold run cannot hit");
            let warm = c.compile_batch(&files, opts);
            let after_warm = library_texts(&c);
            check!(
                after_cold == after_warm,
                "warm run changed the library state"
            );
            // Every unit that committed cleanly must hit; error units have
            // no stamp and stay cold.
            let committed = after_cold.len() as u64;
            check!(
                warm.cache.hits == committed,
                "warm hits {} != committed units {}",
                warm.cache.hits,
                committed
            );
        }
    );
}

/// `files` with one digit of one file changed: a constant's value, or a
/// unit, package or entity name, so the edit may move dependencies,
/// diagnostics and waves as well as VIF.
fn edit_one_file(s: &mut Source, files: &[(String, String)]) -> Vec<(String, String)> {
    let mut edited = files.to_vec();
    let text = &mut edited[s.usize_in(0, files.len() - 1)].1;
    let digits: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    let at = digits[s.usize_in(0, digits.len() - 1)];
    let old = text.as_bytes()[at] - b'0';
    let new = (u64::from(old) + s.u64_in(1, 9)) % 10;
    text.replace_range(at..=at, &new.to_string());
    edited
}

/// What a batch leaves behind: the library's VIF texts and stamps, the
/// diagnostics, the wave count and each unit's key, wave and skip.
#[derive(Debug, PartialEq)]
struct Outcome {
    texts: Vec<(String, String)>,
    stamps: Vec<Option<u64>>,
    msgs: String,
    waves: usize,
    units: Vec<(String, Option<usize>, bool)>,
}

fn outcome(c: &Compiler, r: &BatchResult, names: &[String]) -> Outcome {
    let texts = library_texts(c);
    Outcome {
        stamps: texts.iter().map(|(k, _)| c.libs.work().stamp(k)).collect(),
        texts,
        msgs: r.rendered_msgs(names),
        waves: r.waves,
        units: r
            .units
            .iter()
            .map(|u| (u.key.clone(), u.wave, u.skipped))
            .collect(),
    }
}

/// The per-file parse memo is invisible in the output: a compiler that
/// has compiled a design, then takes an edit of one file and its revert,
/// gives at each step what a fresh compiler over a copy of its library
/// gives, at one job and at two, while parsing only the file that
/// changed.
#[test]
fn memoized_front_half_matches_a_fresh_compiler() {
    forall!(
        Config::new("memoized_front_half_matches_a_fresh_compiler").cases(48),
        |s| {
            let units = gen_design(s);
            let files = pack_and_shuffle(s, &units);
            let edited = edit_one_file(s, &files);
            let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
            for jobs in [1, 2] {
                let opts = BatchOptions {
                    jobs,
                    incremental: true,
                };
                let warm = Compiler::in_memory();
                warm.compile_batch(&files, opts);
                for step in [&edited, &files] {
                    let snapshot = warm.libs.work().snapshot();
                    let fresh = Compiler::new(EnvKind::Tree, Library::from_snapshot(&snapshot));
                    let a = warm.compile_batch(step, opts);
                    let b = fresh.compile_batch(step, opts);
                    check!(
                        a.cache.parsed <= 1 && b.cache.parsed == files.len() as u64,
                        "jobs={jobs}: parsed {} and {} of {} files",
                        a.cache.parsed,
                        b.cache.parsed,
                        files.len()
                    );
                    let (oa, ob) = (outcome(&warm, &a, &names), outcome(&fresh, &b, &names));
                    check!(oa == ob, "jobs={jobs}: memoized {oa:?}\nfresh {ob:?}");
                }
            }
        }
    );
}

/// A temp directory for one test's libraries, named after the test.
fn temp_root(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vhdl-batch-{test}-{}", std::process::id()))
}

/// Copies the library in `from` to a fresh `to`, leaving out its
/// `fronts` file: the same library as a process that never kept one.
fn copy_without_fronts(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("library copy");
    for entry in std::fs::read_dir(from).expect("library dir") {
        let entry = entry.expect("dir entry");
        if entry.file_name() != "fronts" {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
        }
    }
}

/// A restart that reads the library's `fronts` file gives what a restart
/// without it gives: after a cold build, for the same files and then for
/// a one-file edit, each through a new compiler, at one job and at two.
/// With the file, the same files parse nothing and the edit parses only
/// the edited file (the restored ones get their trees, uncounted, at the
/// first wave with jobs).
#[test]
fn restart_with_fronts_file_matches_restart_without() {
    let root = temp_root("fronts");
    let (with, without) = (root.join("with"), root.join("without"));
    forall!(
        Config::new("restart_with_fronts_file_matches_restart_without").cases(32),
        |s| {
            let units = gen_design(s);
            let files = pack_and_shuffle(s, &units);
            let edited = edit_one_file(s, &files);
            let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
            for jobs in [1, 2] {
                let opts = BatchOptions {
                    jobs,
                    incremental: true,
                };
                let _ = std::fs::remove_dir_all(&with);
                Compiler::on_disk(&with)
                    .expect("open library")
                    .compile_batch(&files, opts);
                for (step, most) in [(&files, 0), (&edited, 1)] {
                    copy_without_fronts(&with, &without);
                    let a = Compiler::on_disk(&with).expect("reopen library");
                    let b = Compiler::on_disk(&without).expect("open the copy");
                    let (ra, rb) = (a.compile_batch(step, opts), b.compile_batch(step, opts));
                    check!(
                        ra.cache.parsed <= most && rb.cache.parsed == files.len() as u64,
                        "jobs={jobs}: parsed {} with the file and {} without, of {}",
                        ra.cache.parsed,
                        rb.cache.parsed,
                        files.len()
                    );
                    let (oa, ob) = (outcome(&a, &ra, &names), outcome(&b, &rb, &names));
                    check!(oa == ob, "jobs={jobs}: with {oa:?}\nwithout {ob:?}");
                }
            }
        }
    );
    let _ = std::fs::remove_dir_all(&root);
}

mod fixtures {
    //! A small fixed design used by the e2e and incrementality tests:
    //!
    //! ```text
    //! pkg base      (no deps)
    //! pkg derived   (uses base)
    //! entity top    (no deps)
    //! arch rtl      (of top, uses derived)
    //! pkg lone      (no deps — never invalidated by touching base)
    //! ```

    pub const BASE: &str = "package base is\nconstant width : integer := 4;\nend base;\n";
    pub const BASE_TOUCHED: &str = "package base is\nconstant width : integer := 8;\nend base;\n";
    pub const DERIVED: &str = "use work.base.all;\npackage derived is\nconstant bits : integer := width * 2;\nend derived;\n";
    pub const TOP: &str = "entity top is\nend top;\n";
    pub const RTL: &str = "use work.derived.all;\narchitecture rtl of top is\nsignal s : integer := bits;\nbegin\ns <= bits + 1;\nend rtl;\n";
    pub const LONE: &str = "package lone is\nconstant tag : integer := 7;\nend lone;\n";

    /// The design with files deliberately out of dependency order.
    pub fn out_of_order() -> Vec<(String, String)> {
        vec![
            ("rtl.vhd".into(), RTL.into()),
            ("derived.vhd".into(), DERIVED.into()),
            ("lone.vhd".into(), LONE.into()),
            ("top.vhd".into(), TOP.into()),
            ("base.vhd".into(), BASE.into()),
        ]
    }
}

/// Out-of-order file lists stage correctly: the architecture listed first
/// still compiles after its entity and packages (depgraph e2e).
#[test]
fn out_of_order_file_list_compiles_cleanly() {
    for jobs in [1, 4] {
        let c = Compiler::in_memory();
        let r = c.compile_batch(
            &fixtures::out_of_order(),
            BatchOptions {
                jobs,
                incremental: false,
            },
        );
        assert!(
            r.ok(),
            "jobs={jobs}: {:?}",
            r.units
                .iter()
                .flat_map(|u| u.msgs.iter().map(|m| m.to_string()))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.units.len(), 5);
        assert!(r.waves >= 3, "base → derived → rtl needs 3 stages");
        // The out-of-order architecture must land in a later wave than
        // its entity and its package chain.
        let wave_of = |key: &str| {
            r.units
                .iter()
                .find(|u| u.key == key)
                .and_then(|u| u.wave)
                .unwrap()
        };
        assert!(wave_of("arch.top.rtl") > wave_of("entity.top"));
        assert!(wave_of("pkg.derived") > wave_of("pkg.base"));
    }
}

/// Cold vs warm compile into the same on-disk library: identical VIF,
/// identical generated C, and a warm run that skips every analysis.
#[test]
fn incremental_on_disk_cold_warm_equivalence() {
    let dir = std::env::temp_dir().join(format!("vhdl-batch-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let opts = BatchOptions {
        jobs: 2,
        incremental: true,
    };
    let cold_c = Compiler::on_disk(&dir).unwrap();
    let cold = cold_c.compile_batch(&fixtures::out_of_order(), opts);
    assert!(cold.ok());
    assert_eq!(cold.cache.hits, 0);
    let cold_texts = library_texts(&cold_c);
    let (_, cold_cc) = cold_c.elaborate("top", None, None).unwrap();

    // A fresh process would reopen the library the same way.
    let warm_c = Compiler::on_disk(&dir).unwrap();
    let warm = warm_c.compile_batch(&fixtures::out_of_order(), opts);
    assert!(warm.ok());
    assert_eq!(warm.cache.hits, 5, "all five units skip");
    assert_eq!(warm.cache.analyzed(), 0);
    let warm_texts = library_texts(&warm_c);
    let (_, warm_cc) = warm_c.elaborate("top", None, None).unwrap();

    assert_eq!(cold_texts, warm_texts, "VIF must be byte-identical");
    assert_eq!(cold_cc, warm_cc, "generated C must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Touching one package re-analyzes exactly its transitive dependents:
/// `base` invalidates `derived` and `rtl`, never `top` or `lone`.
#[test]
fn touch_invalidates_exactly_transitive_dependents() {
    let dir = std::env::temp_dir().join(format!("vhdl-batch-touch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let opts = BatchOptions {
        jobs: 1,
        incremental: true,
    };
    let c = Compiler::on_disk(&dir).unwrap();
    assert!(c.compile_batch(&fixtures::out_of_order(), opts).ok());

    let mut touched = fixtures::out_of_order();
    for (name, text) in &mut touched {
        if name == "base.vhd" {
            *text = fixtures::BASE_TOUCHED.into();
        }
    }
    let c2 = Compiler::on_disk(&dir).unwrap();
    let r = c2.compile_batch(&touched, opts);
    assert!(r.ok());
    assert_eq!(r.cache.hits, 2, "top and lone hit");
    assert_eq!(r.cache.misses, 3, "base, derived, rtl re-analyze");
    let skipped: Vec<&str> = r
        .units
        .iter()
        .filter(|u| u.skipped)
        .map(|u| u.key.as_str())
        .collect();
    assert_eq!(skipped, ["pkg.lone", "entity.top"]);

    // Early cutoff: a whitespace/comment-only touch re-hits everything —
    // token runs are the hash input, not file bytes. (Build on the
    // touched state: that's what the library last saw.)
    let mut cosmetic = touched.clone();
    for (name, text) in &mut cosmetic {
        if name == "derived.vhd" {
            *text = format!("-- cosmetic comment\n{}", fixtures::DERIVED);
        }
    }
    let c3 = Compiler::on_disk(&dir).unwrap();
    let r = c3.compile_batch(&cosmetic, opts);
    assert!(r.ok());
    assert_eq!(r.cache.hits, 5, "comment-only edits invalidate nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dependency cycle is a diagnostic, not a hang, and the diagnostic is
/// the same at every worker count.
#[test]
fn cycles_diagnose_identically_at_any_worker_count() {
    let files: Vec<(String, String)> = vec![
        ("a.vhd".into(), "use work.b;\npackage a is\nend a;\n".into()),
        ("b.vhd".into(), "use work.c;\npackage b is\nend b;\n".into()),
        ("c.vhd".into(), "use work.a;\npackage c is\nend c;\n".into()),
    ];
    let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let mut rendered = Vec::new();
    for jobs in [1, 4] {
        let c = Compiler::in_memory();
        let r = c.compile_batch(
            &files,
            BatchOptions {
                jobs,
                incremental: false,
            },
        );
        assert!(!r.ok());
        assert!(r.units.iter().all(|u| u.wave.is_none()));
        assert!(r.units[0].msgs[0].to_string().contains("dependency cycle"));
        rendered.push(r.rendered_msgs(&names));
    }
    assert_eq!(rendered[0], rendered[1]);
}

/// A file that fails to parse, listed first, leaves an empty entry in the
/// batch's parsed units; the pooled workers index the units after it. The
/// front error, the diagnostics and the library are the same at every
/// worker count, and every unit of the later files still compiles.
#[test]
fn front_errors_diagnose_identically_at_any_worker_count() {
    let files: Vec<(String, String)> = vec![
        (
            "broken.vhd".into(),
            "package broken is\nconstant : integer;\nend broken;\n".into(),
        ),
        (
            "rtl.vhd".into(),
            "use work.p.all;\nentity e is\nend e;\n\
             architecture rtl of e is\nsignal s : integer := width;\nbegin\nend rtl;\n"
                .into(),
        ),
        (
            "pkg.vhd".into(),
            "package p is\nconstant width : integer := 8;\nend p;\n".into(),
        ),
    ];
    let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let mut runs = Vec::new();
    for jobs in [1, 4] {
        let c = Compiler::in_memory();
        let r = c.compile_batch(
            &files,
            BatchOptions {
                jobs,
                incremental: false,
            },
        );
        let front: Vec<(usize, String)> = r
            .front_errors
            .iter()
            .map(|(i, e)| (*i, e.to_string()))
            .collect();
        assert_eq!(front.len(), 1, "jobs={jobs}: {front:?}");
        assert_eq!(front[0].0, 0);
        assert_eq!(r.units.len(), 3, "jobs={jobs}: {:?}", r.units);
        assert!(
            r.units.iter().all(|u| u.msgs.is_empty()),
            "jobs={jobs}: {}",
            r.msgs()
        );
        runs.push((front, r.rendered_msgs(&names), library_texts(&c)));
    }
    assert_eq!(runs[0], runs[1]);
}

/// The library directory's file names and modification times.
fn listing(dir: &Path) -> Vec<(std::ffi::OsString, std::time::SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("library dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let modified = e.metadata().and_then(|m| m.modified()).expect("mtime");
            (e.file_name(), modified)
        })
        .collect();
    files.sort();
    files
}

/// A restart whose units all hit parses nothing and writes nothing: the
/// library directory lists the same files with the same modification
/// times. Neither does a process that compiles no file (`vhdlc --elab`
/// alone), and the restart after it still finds every parse.
#[test]
fn all_hit_restart_leaves_the_library_untouched() {
    let dir = temp_root("untouched");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = BatchOptions {
        jobs: 2,
        incremental: true,
    };
    let files = fixtures::out_of_order();
    let cold = Compiler::on_disk(&dir).expect("open library");
    assert!(cold.compile_batch(&files, opts).ok());
    let before = listing(&dir);
    assert!(
        before.iter().any(|(name, _)| name == "fronts"),
        "{before:?}"
    );
    // A rewrite within the file system's timestamp tick would not show.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let elab_only = Compiler::on_disk(&dir).expect("reopen library");
    assert!(elab_only.compile_batch(&[], opts).ok());
    let restarted = Compiler::on_disk(&dir).expect("reopen library");
    let r = restarted.compile_batch(&files, opts);
    let after = listing(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((r.cache.hits, r.cache.analyzed()), (5, 0));
    assert_eq!((r.cache.parsed, r.cache.reused), (0, 5));
    assert_eq!(r.phases.parse, std::time::Duration::ZERO);
    assert_eq!(before, after);
}

/// A damaged or forged `fronts` file costs parses, never a result: read
/// truncated, with another version line, with a byte that is not UTF-8
/// in a stored text, or with two entries under each other's text keys, a
/// restart with the same files and one with an edited file give what a
/// restart without the file gives, parse the files the damage reaches,
/// and leave the file as a clean build writes it.
#[test]
fn hostile_fronts_file_only_costs_parses() {
    let root = temp_root("hostile");
    let (lib, none, dir) = (root.join("lib"), root.join("none"), root.join("case"));
    let _ = std::fs::remove_dir_all(&root);
    let opts = BatchOptions {
        jobs: 2,
        incremental: true,
    };
    let files = fixtures::out_of_order();
    let mut touched = files.clone();
    touched[4].1 = fixtures::BASE_TOUCHED.into();
    let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    assert!(Compiler::on_disk(&lib)
        .expect("open library")
        .compile_batch(&files, opts)
        .ok());
    let good = std::fs::read(lib.join("fronts")).expect("fronts file");

    let text = String::from_utf8(good.clone()).expect("utf-8");
    let keys: Vec<String> = text
        .lines()
        .filter_map(|l| Some(l.strip_prefix("file ")?.split(' ').next()?.to_string()))
        .collect();
    assert_eq!(keys.len(), files.len(), "{text}");
    let line = |key: &str| format!("file {key} ");
    let planted = text
        .replacen(&line(&keys[0]), "file swap ", 1)
        .replacen(&line(&keys[1]), &line(&keys[0]), 1)
        .replacen("file swap ", &line(&keys[1]), 1);
    let mut not_utf8 = good.clone();
    let first_text = text.find('\n').unwrap() + 1;
    let first_text = first_text + text[first_text..].find('\n').unwrap() + 1;
    not_utf8[first_text] = 0xff;
    let cases: [(&str, Vec<u8>, u64); 4] = [
        ("truncated", good[..good.len() / 2].to_vec(), 5),
        (
            "wrong version",
            text.replacen("vhdl-fronts 1", "vhdl-fronts 2", 1).into(),
            5,
        ),
        ("not utf-8", not_utf8, 5),
        ("planted", planted.into(), 2),
    ];

    let result = |c: &Compiler, r: &BatchResult| {
        let cache = (r.cache.hits, r.cache.misses, r.cache.cold);
        (outcome(c, r, &names), cache, r.lines)
    };
    for step in [&files, &touched] {
        copy_without_fronts(&lib, &none);
        let c = Compiler::on_disk(&none).expect("open the copy");
        let want = result(&c, &c.compile_batch(step, opts));
        for (what, bytes, parsed) in &cases {
            copy_without_fronts(&lib, &dir);
            std::fs::write(dir.join("fronts"), bytes).expect("write fronts");
            let c = Compiler::on_disk(&dir).expect("open with a hostile file");
            let r = c.compile_batch(step, opts);
            assert_eq!(result(&c, &r), want, "{what}");
            if step == &files {
                assert_eq!(r.cache.parsed, *parsed, "{what}");
                let rewritten = std::fs::read(dir.join("fronts")).expect("fronts file");
                assert!(rewritten == good, "{what}: the file is not rewritten whole");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A wave whose first `stamps` write fails commits nothing, so the disk
/// never pairs a new unit text with its old stamp: with `stamps` made a
/// directory, an edit of `base` leaves `pkg.base.vif` as it was, and once
/// the file is back a restart with the old sources analyzes nothing while
/// one with the edit analyzes `base` and its dependents again.
#[test]
fn a_failed_stamps_write_commits_nothing() {
    let dir = temp_root("stamps-fail");
    let _ = std::fs::remove_dir_all(&dir);
    for jobs in [1, 2] {
        let opts = BatchOptions {
            jobs,
            incremental: true,
        };
        let files = fixtures::out_of_order();
        let mut touched = files.clone();
        touched[4].1 = fixtures::BASE_TOUCHED.into();
        assert!(Compiler::on_disk(&dir)
            .expect("open library")
            .compile_batch(&files, opts)
            .ok());
        let base = std::fs::read(dir.join("pkg.base.vif")).expect("base text");
        let stamps = dir.join("stamps");
        let kept = std::fs::read(&stamps).expect("stamps file");

        let c = Compiler::on_disk(&dir).expect("reopen library");
        std::fs::remove_file(&stamps).expect("remove stamps");
        std::fs::create_dir_all(stamps.join("in-the-way")).expect("block stamps");
        c.compile_batch(&touched, opts);
        assert_eq!(
            std::fs::read(dir.join("pkg.base.vif")).expect("base text"),
            base,
            "jobs={jobs}"
        );

        std::fs::remove_dir_all(&stamps).expect("unblock stamps");
        std::fs::write(&stamps, &kept).expect("restore stamps");
        let r = Compiler::on_disk(&dir)
            .expect("reopen library")
            .compile_batch(&files, opts);
        assert_eq!((r.cache.hits, r.cache.analyzed()), (5, 0), "jobs={jobs}");
        let r = Compiler::on_disk(&dir)
            .expect("reopen library")
            .compile_batch(&touched, opts);
        assert!(r.ok(), "jobs={jobs}");
        assert_eq!(r.cache.analyzed(), 3, "jobs={jobs}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The VIF text of `pkg.base` as `fixtures::BASE_TOUCHED` compiles it,
/// and the library a cold build of the touched design leaves.
fn touched_base() -> (String, Vec<(String, String)>) {
    let mut touched = fixtures::out_of_order();
    touched[4].1 = fixtures::BASE_TOUCHED.into();
    let c = Compiler::in_memory();
    assert!(c.compile_batch(&touched, BatchOptions::default()).ok());
    let base = c.libs.work().peek_raw("pkg.base").expect("base text");
    (base, library_texts(&c))
}

/// A unit rewritten through `Library::put_text` between two processes is
/// hashed from its new file by the next: a restart that compiles every
/// file but `base.vhd` re-analyzes exactly `base`'s dependents, and the
/// library then holds what a cold build of the touched design gives.
#[test]
fn a_put_text_between_processes_invalidates_its_dependents() {
    let dir = temp_root("put-text");
    let (base, want) = touched_base();
    for jobs in [1, 2] {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = BatchOptions {
            jobs,
            incremental: true,
        };
        let files = fixtures::out_of_order();
        assert!(Compiler::on_disk(&dir)
            .expect("open library")
            .compile_batch(&files, opts)
            .ok());
        Library::on_disk("work", &dir)
            .expect("reopen library")
            .put_text("pkg.base", &base)
            .expect("rewrite base");
        let c = Compiler::on_disk(&dir).expect("reopen library");
        let r = c.compile_batch(&files[..4], opts);
        assert!(r.ok(), "jobs={jobs}");
        let mut analyzed: Vec<&str> = r
            .units
            .iter()
            .filter(|u| !u.skipped)
            .map(|u| u.key.as_str())
            .collect();
        analyzed.sort_unstable();
        assert_eq!(analyzed, ["arch.top.rtl", "pkg.derived"], "jobs={jobs}");
        assert_eq!(library_texts(&c), want, "jobs={jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.vif` that the history does not list, as a failed history rename
/// leaves it, still satisfies a dependency: with `pkg.base` taken out of
/// `history` (and of `stamps`, as such a store drops its stamp first), a
/// restart that compiles every file but `base.vhd` finds it in the
/// library and hits every stamp.
#[test]
fn a_unit_file_missing_from_the_history_is_in_the_library() {
    let dir = temp_root("unlisted");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = BatchOptions {
        jobs: 1,
        incremental: true,
    };
    let files = fixtures::out_of_order();
    let cold = Compiler::on_disk(&dir).expect("open library");
    assert!(cold.compile_batch(&files, opts).ok());
    let want = library_texts(&cold);
    for name in ["history", "stamps"] {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path).expect("library file");
        let kept: Vec<&str> = text
            .lines()
            .filter(|l| *l != "pkg.base" && !l.starts_with("pkg.base "))
            .collect();
        std::fs::write(&path, kept.join("\n")).expect("rewrite library file");
    }
    let c = Compiler::on_disk(&dir).expect("reopen library");
    assert!(!c.libs.work().history().contains(&"pkg.base".to_string()));
    assert!(c.libs.work().contains("pkg.base"));
    let r = c.compile_batch(&files[..4], opts);
    assert!(r.ok());
    assert_eq!((r.cache.hits, r.cache.analyzed()), (4, 0));
    let listed: Vec<_> = want.into_iter().filter(|(k, _)| k != "pkg.base").collect();
    assert_eq!(library_texts(&c), listed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart whose units all hit opens no unit file: its stamps carry
/// the dependencies' VIF text hashes, so with every `.vif` overwritten by
/// bytes that do not parse it still hits every stamp, at one job and at
/// two, and reads none of them.
#[test]
fn all_hit_restart_reads_no_unit_file() {
    let root = temp_root("no-vif-read");
    let dir = root.join("lib");
    for jobs in [1, 2] {
        let _ = std::fs::remove_dir_all(&root);
        let opts = BatchOptions {
            jobs,
            incremental: true,
        };
        let files = fixtures::out_of_order();
        assert!(Compiler::on_disk(&dir)
            .expect("open library")
            .compile_batch(&files, opts)
            .ok());
        let garbage = b"\x00 not a unit (";
        let mut overwritten = 0;
        for entry in std::fs::read_dir(&dir).expect("library dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "vif") {
                std::fs::write(&path, garbage).expect("overwrite unit file");
                overwritten += 1;
            }
        }
        assert_eq!(overwritten, 5);
        let r = Compiler::on_disk(&dir)
            .expect("reopen library")
            .compile_batch(&files, opts);
        assert!(r.ok(), "jobs={jobs}: {:?}", r.units);
        assert_eq!((r.cache.hits, r.cache.analyzed()), (5, 0), "jobs={jobs}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A stamp hit needs the unit's own file: with one `.vif` deleted outside
/// the compiler, a restart re-analyzes exactly that unit, at one job and
/// at two, and writes the file back byte-identical, so its dependents
/// still hit.
#[test]
fn a_deleted_unit_file_is_analyzed_again() {
    let root = temp_root("deleted-vif");
    let dir = root.join("lib");
    let file = dir.join("pkg.derived.vif");
    for jobs in [1, 2] {
        let _ = std::fs::remove_dir_all(&root);
        let opts = BatchOptions {
            jobs,
            incremental: true,
        };
        let files = fixtures::out_of_order();
        assert!(Compiler::on_disk(&dir)
            .expect("open library")
            .compile_batch(&files, opts)
            .ok());
        let before = std::fs::read(&file).expect("unit file");
        std::fs::remove_file(&file).expect("delete unit file");
        let r = Compiler::on_disk(&dir)
            .expect("reopen library")
            .compile_batch(&files, opts);
        assert!(r.ok(), "jobs={jobs}: {:?}", r.units);
        let analyzed: Vec<&str> = r
            .units
            .iter()
            .filter(|u| !u.skipped)
            .map(|u| u.key.as_str())
            .collect();
        assert_eq!(analyzed, ["pkg.derived"], "jobs={jobs}");
        assert_eq!((r.cache.hits, r.cache.misses), (4, 1), "jobs={jobs}");
        assert_eq!(std::fs::read(&file).expect("unit file back"), before);
    }
    let _ = std::fs::remove_dir_all(&root);
}
