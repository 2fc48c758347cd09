//! Incremental batch compilation over the VIF library.
//!
//! The paper's §2 architecture makes the VIF the only interface between
//! separately-compiled units. The batch compiler stages the
//! [`crate::depgraph`] into waves and analyzes them on the calling
//! thread, one unit at a time, each against the library as the earlier
//! waves left it: every unit of a wave sees the wave-start library state,
//! and the wave's clean units are committed at its barrier, in input
//! order, as the analyzed trees themselves ([`Library::put`]).
//!
//! Each committed unit is stamped with a content hash of its source token
//! run combined with the hashes of its dependencies' *VIF texts*. VIF text
//! (not symbol ids or node addresses) is the hash input because it is the
//! stable on-disk interchange form: interner ids differ between processes,
//! the text never does. A dependency stored as a tree is hashed by
//! streaming the printer into the hash, so stamping makes no text
//! ([`Library::text_hash`]). On a warm run a unit whose recomputed stamp
//! matches its stored stamp, and whose unit file the library still has
//! ([`Library::contains`]), is skipped; a changed package re-analyzes
//! exactly its transitive dependents, because the dependents' stamps
//! absorb the new VIF text hash — and a change that leaves a unit's VIF
//! text identical (a comment, a body-local rename) cuts the invalidation
//! off early.
//!
//! The front half is incremental per file: the compiler keeps each file of
//! its last batch parsed (`ParsedFile`), so a batch parses only the files
//! whose text changed and stages its graph once. Over an on-disk library
//! the memo outlives the process: each batch that changes the memo's set
//! of files writes it to the library's `fronts` file (texts and unit
//! fronts, no trees), and [`Compiler::on_disk`] reads it back, so a
//! restart whose units all hit their stamps parses nothing. A restored
//! file is parsed just before the batch analyzes its first unit, so a
//! restart parses only the files that hold units it analyzes.
//!
//! [`Library::put`]: vhdl_vif::Library::put
//! [`Library::text_hash`]: vhdl_vif::Library::text_hash
//! [`Library::contains`]: vhdl_vif::Library::contains

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use ag_harness::fnv1a;
use ag_lalr::ParseTree;
use vhdl_sem::analyze::{Analyzer, UnitLoader};
use vhdl_sem::msg::{Msg, Msgs, Severity};
use vhdl_syntax::{FrontError, Pos, SrcTok};
use vhdl_vif::{LibrarySet, VifNode, VifTraffic};

use crate::depgraph;
use crate::{Compiler, PhaseTimes};

/// Options of one batch compilation.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Ignored: every batch analyzes on the calling thread. Kept because
    /// the benchmark's `rebuild` and `serve` workloads still set it.
    pub jobs: usize,
    /// Skip units whose incremental stamp matches the library's.
    pub incremental: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 1,
            incremental: false,
        }
    }
}

/// Hit/miss/cold counters of the incremental cache, and how many files
/// the batch parsed or took from the compiler's memo of parsed files.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stamp present and equal: analysis skipped.
    pub hits: u64,
    /// Stamp present but stale (source or a dependency changed).
    pub misses: u64,
    /// No stamp recorded (never compiled, or last compile failed).
    pub cold: u64,
    /// Files parsed: their text was not in the last batch, or a restart
    /// read their fronts from the library's `fronts` file and analyzes a
    /// unit of theirs.
    pub parsed: u64,
    /// Files not parsed: their parse the last batch left in the memo, or
    /// a restart read their fronts from the library's `fronts` file and
    /// analyzes none of their units.
    pub reused: u64,
}

impl CacheStats {
    /// Units whose analysis was skipped.
    pub fn skipped(&self) -> u64 {
        self.hits
    }

    /// Units that were (re)analyzed.
    pub fn analyzed(&self) -> u64 {
        self.misses + self.cold
    }
}

/// Outcome of one design unit in a batch.
#[derive(Clone, Debug)]
pub struct BatchUnit {
    /// Input file index.
    pub file: usize,
    /// Unit index within the file.
    pub unit_in_file: usize,
    /// Library key (empty when the unit produced none).
    pub key: String,
    /// Wave the unit ran in; `None` for cycle members (never scheduled).
    pub wave: Option<usize>,
    /// `true` when the incremental stamp matched and analysis was skipped.
    pub skipped: bool,
    /// Diagnostics, in source order.
    pub msgs: Vec<Msg>,
    /// Cascade invocations while analyzing (0 when skipped).
    pub expr_evals: u64,
}

/// Result of one batch compilation.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-unit outcomes, in input order.
    pub units: Vec<BatchUnit>,
    /// Files that failed to scan/parse: `(file index, error)`.
    pub front_errors: Vec<(usize, FrontError)>,
    /// Aggregated phase times.
    pub phases: PhaseTimes,
    /// Incremental cache counters.
    pub cache: CacheStats,
    /// Number of waves executed.
    pub waves: usize,
    /// Non-blank source lines across all files.
    pub lines: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// VIF traffic on the compiler's libraries during the batch.
    pub traffic: VifTraffic,
}

impl BatchResult {
    /// `true` when every file parsed and every unit analyzed cleanly.
    pub fn ok(&self) -> bool {
        self.front_errors.is_empty() && self.units.iter().all(|u| !has_errors(&u.msgs))
    }

    /// All unit diagnostics, in input order (front errors excluded).
    pub fn msgs(&self) -> Msgs {
        let mut m = Msgs::none();
        for msg in self.units.iter().flat_map(|u| &u.msgs) {
            m.push(msg.clone());
        }
        m
    }

    /// Source lines per minute over the summed phase times — the paper's
    /// headline throughput metric.
    pub fn lines_per_minute(&self) -> f64 {
        let secs = self.phases.total().as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.lines as f64 / secs * 60.0
        }
    }

    /// All diagnostics rendered with their file name, in input order —
    /// the byte-comparable form the batch tests compare.
    pub fn rendered_msgs(&self, file_names: &[String]) -> String {
        let mut out = String::new();
        for (i, e) in &self.front_errors {
            out.push_str(&format!("{}: {e}\n", file_names[*i]));
        }
        for u in &self.units {
            for m in &u.msgs {
                out.push_str(&format!("{}:{m}\n", file_names[u.file]));
            }
        }
        out
    }
}

fn has_errors(msgs: &[Msg]) -> bool {
    msgs.iter().any(|m| m.severity == Severity::Error)
}

/// One analyzed unit, as the wave barrier commits it.
#[derive(Default)]
struct JobOut {
    key: String,
    /// The tree to commit, when the unit analyzed cleanly.
    tree: Option<Rc<VifNode>>,
    msgs: Vec<Msg>,
    expr_evals: u64,
    attr_eval: Duration,
    vif_read: Duration,
}

/// Analyzes unit `unit_in_file` of `file` against `libs`.
fn run_job(
    analyzer: &Analyzer,
    libs: &Rc<LibrarySet>,
    file: &ParsedFile,
    unit_in_file: usize,
) -> JobOut {
    let Some(unit) = file.tree(unit_in_file) else {
        // Only a `fronts` entry that disagrees with its own text's parse
        // leaves a scheduled unit without a tree.
        let at = file.fronts[unit_in_file].pos;
        let msg = Msg::error(at, "internal: the file's parse has no such unit");
        return JobOut {
            msgs: vec![msg],
            ..JobOut::default()
        };
    };
    let t0 = Instant::now();
    let au = analyzer.analyze_unit_with_loader(unit, Rc::clone(libs) as Rc<dyn UnitLoader>);
    let analysis = t0.elapsed();
    JobOut {
        tree: (!au.msgs.has_errors() && !au.key.is_empty()).then_some(au.node),
        key: au.key,
        msgs: au.msgs.to_vec(),
        expr_evals: au.expr_evals,
        attr_eval: analysis.saturating_sub(au.vif_read),
        vif_read: au.vif_read,
    }
}

/// One file's front half, a function of its text alone: the parsed units
/// (their leaves are the units' token runs) or the front error, each
/// unit's [`depgraph::UnitFront`], and the non-blank line count.
/// [`Compiler`] keeps one per file of its last batch, keyed by
/// [`text_key`]; a batch reuses the entry of every file whose text is
/// unchanged.
#[derive(Debug)]
pub(crate) struct ParsedFile {
    /// The source text, compared on every hit: equal keys alone do not
    /// make equal texts.
    text: Box<str>,
    /// The parsed units; unset for a file read from a `fronts` file until
    /// a batch analyzes one of them ([`ParsedFile::parse_restored`]).
    units: OnceCell<Vec<ParseTree<SrcTok>>>,
    fronts: Vec<depgraph::UnitFront>,
    error: Option<FrontError>,
    lines: usize,
}

/// The key of a file's text in the compiler's memo of parsed files:
/// SipHash with fixed keys, which reads the text a word at a time.
pub(crate) fn text_key(src: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(src.as_bytes());
    h.finish()
}

impl ParsedFile {
    /// Parses `src`, adding the scan and parse time to `parse_time`.
    fn parse(analyzer: &Analyzer, src: &str, parse_time: &mut Duration) -> ParsedFile {
        let t0 = Instant::now();
        let parsed = analyzer.parse_units(src);
        *parse_time += t0.elapsed();
        let (units, error) = match parsed {
            Ok(us) => (us, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        ParsedFile {
            text: src.into(),
            fronts: units
                .iter()
                .map(|u| depgraph::UnitFront::of(u.leaves()))
                .collect(),
            units: OnceCell::from(units),
            error,
            lines: src.lines().filter(|l| !l.trim().is_empty()).count(),
        }
    }

    /// Parses the units of a file read from a `fronts` file, adding the
    /// time to `parse_time`, and says whether it did; a file with trees
    /// is left as it is.
    fn parse_restored(&self, analyzer: &Analyzer, parse_time: &mut Duration) -> bool {
        if self.units.get().is_some() {
            return false;
        }
        let _t = ag_harness::trace::span("parse");
        let t0 = Instant::now();
        let units = analyzer.parse_units(&self.text).unwrap_or_default();
        *parse_time += t0.elapsed();
        let _ = self.units.set(units);
        true
    }

    /// The parse tree of the file's `i`th unit, once it has trees.
    fn tree(&self, i: usize) -> Option<&ParseTree<SrcTok>> {
        self.units.get()?.get(i)
    }
}

/// The first line of a `fronts` file: a file that starts otherwise is
/// not read.
const FRONTS_VERSION: &str = "vhdl-fronts 1";

/// Prints the memo as a `fronts` file, its files in key order: for each,
/// a `file <key> <lines> <units> <text bytes>` line, the text and a
/// newline, then per unit a `unit <src_hash> <line> <col> <key>` line and
/// a line of its candidates; an `end` line closes the file. Files with a
/// front error are left out. Keys and candidates are identifier
/// spellings joined by dots, so they hold no space or newline.
pub(crate) fn print_fronts(memo: &HashMap<u64, Rc<ParsedFile>>) -> String {
    let mut files: Vec<_> = memo.iter().filter(|(_, f)| f.error.is_none()).collect();
    files.sort_unstable_by_key(|&(key, _)| *key);
    let mut out = format!("{FRONTS_VERSION}\n");
    for (key, f) in files {
        let (lines, units, len) = (f.lines, f.fronts.len(), f.text.len());
        let _ = writeln!(out, "file {key:x} {lines} {units} {len}\n{}", f.text);
        for u in &f.fronts {
            let (hash, at) = (u.src_hash, u.pos);
            let _ = writeln!(out, "unit {hash:x} {} {} {}", at.line, at.col, u.key);
            let _ = writeln!(out, "{}", u.cands.text());
        }
    }
    out.push_str("end\n");
    out
}

/// Reads a `fronts` file back as memo entries that have fronts but no
/// trees. Anything but a whole file of this version (truncated, another
/// version, not UTF-8 where text is due) is `None`, and the batch parses
/// as if there were no file; an entry stored under another text's key is
/// never a hit, since a hit compares the texts.
pub(crate) fn read_fronts(bytes: &[u8]) -> Option<HashMap<u64, Rc<ParsedFile>>> {
    /// The unread rest of the file.
    struct Cursor<'a>(&'a [u8]);
    impl<'a> Cursor<'a> {
        /// The next `n` bytes as text, which a newline must follow.
        fn text(&mut self, n: usize) -> Option<&'a str> {
            let (text, rest) = self.0.split_at_checked(n)?;
            self.0 = rest.strip_prefix(b"\n")?;
            std::str::from_utf8(text).ok()
        }

        fn line(&mut self) -> Option<&'a str> {
            self.text(self.0.iter().position(|&b| b == b'\n')?)
        }
    }
    let mut c = Cursor(bytes);
    if c.line()? != FRONTS_VERSION {
        return None;
    }
    let mut memo = HashMap::new();
    loop {
        let head = c.line()?;
        if head == "end" {
            return c.0.is_empty().then_some(memo);
        }
        let mut fields = head.strip_prefix("file ")?.split(' ');
        let key = u64::from_str_radix(fields.next()?, 16).ok()?;
        let mut count = || fields.next()?.parse::<usize>().ok();
        let (lines, units, len) = (count()?, count()?, count()?);
        let text = c.text(len)?;
        let mut fronts = Vec::new();
        for _ in 0..units {
            let mut fields = c.line()?.strip_prefix("unit ")?.splitn(4, ' ');
            let src_hash = u64::from_str_radix(fields.next()?, 16).ok()?;
            let mut at = || fields.next()?.parse::<u32>().ok();
            let pos = Pos {
                line: at()?,
                col: at()?,
            };
            fronts.push(depgraph::UnitFront {
                key: fields.next()?.to_string(),
                cands: depgraph::Cands::parse(c.line()?),
                src_hash,
                pos,
            });
        }
        let file = ParsedFile {
            text: text.into(),
            units: OnceCell::new(),
            fronts,
            error: None,
            lines,
        };
        memo.insert(key, Rc::new(file));
    }
}

impl Compiler {
    /// Compiles a set of `(name, source)` files as one batch:
    /// dependency-staged, optionally incremental. Files may arrive in any
    /// order — the wave schedule, not the file list, decides analysis
    /// order. Successful units are committed to the work library at wave
    /// barriers in input order, so the library history (and with it the
    /// §3.3 latest-compiled-architecture default-binding rule) follows the
    /// schedule and the file list alone.
    pub fn compile_batch(&self, files: &[(String, String)], opts: BatchOptions) -> BatchResult {
        let _t = ag_harness::trace::span("compile-batch");
        let wall0 = Instant::now();
        self.libs.reset_traffic();
        let mut phases = PhaseTimes::default();
        let work = Rc::clone(self.libs.work());

        let mut cache = CacheStats::default();

        // The front half, per file: a file whose text the last batch also
        // had reuses that batch's parse. The memo then holds exactly this
        // batch's files.
        let mut parsed: Vec<Rc<ParsedFile>> = Vec::with_capacity(files.len());
        let memo_changed = {
            let _t = ag_harness::trace::span("parse");
            let mut memo = self.parsed.borrow_mut();
            let mut next: HashMap<u64, Rc<ParsedFile>> = HashMap::with_capacity(files.len());
            for (_, src) in files {
                let key = text_key(src);
                let hit = [next.get(&key), memo.get(&key)]
                    .into_iter()
                    .flatten()
                    .find(|f| *f.text == **src)
                    .cloned();
                let file = match hit {
                    Some(file) => {
                        cache.reused += 1;
                        file
                    }
                    None => {
                        cache.parsed += 1;
                        Rc::new(ParsedFile::parse(&self.analyzer, src, &mut phases.parse))
                    }
                };
                next.insert(key, Rc::clone(&file));
                parsed.push(file);
            }
            // With no file parsed, every entry of `next` came from the
            // memo, so equal sizes mean equal sets. An empty batch (a
            // `vhdlc --elab` without sources) keeps the memo as it is.
            let changed = cache.parsed > 0 || (!files.is_empty() && next.len() != memo.len());
            if changed {
                *memo = next;
            }
            changed
        };
        let front_errors: Vec<(usize, FrontError)> = parsed
            .iter()
            .enumerate()
            .filter_map(|(i, f)| Some((i, f.error.clone()?)))
            .collect();
        let lines = parsed.iter().map(|f| f.lines).sum();
        let fronts: Vec<&[depgraph::UnitFront]> =
            parsed.iter().map(|f| f.fronts.as_slice()).collect();
        let graph = depgraph::resolve(&fronts, &|key| work.contains(key));

        let mut out_units: Vec<BatchUnit> = Vec::new();
        // Cycle members become diagnostics, never jobs.
        for (members, path) in &graph.cycles {
            for &m in members {
                let meta = &graph.units[m];
                out_units.push(BatchUnit {
                    file: meta.file,
                    unit_in_file: meta.unit_in_file,
                    key: meta.front.key.clone(),
                    wave: None,
                    skipped: false,
                    msgs: vec![Msg::error(
                        meta.front.pos,
                        format!("dependency cycle among design units: {path}"),
                    )],
                    expr_evals: 0,
                });
            }
        }

        for (w, wave) in graph.waves.iter().enumerate() {
            // Stamp every unit of the wave against the current library
            // state and decide skip vs analyze: `(unit, stamp)` per job,
            // in input order.
            let mut jobs: Vec<(usize, u64)> = Vec::new();
            for &i in wave {
                let meta = &graph.units[i];
                let mut stamp = meta.front.src_hash;
                let key = meta.front.key.as_str();
                for dep in &meta.deps {
                    // The library memoizes each unit's text hash.
                    stamp = fnv1a(stamp, dep.as_bytes());
                    stamp = match work.text_hash(dep) {
                        Ok(h) => fnv1a(stamp, &h.to_le_bytes()),
                        Err(_) => fnv1a(stamp, b"?"),
                    };
                }
                // A stamp covers the unit's source and its dependencies'
                // texts, not its own file, which may have gone since.
                if opts.incremental && work.stamp(key) == Some(stamp) && work.contains(key) {
                    cache.hits += 1;
                    out_units.push(BatchUnit {
                        file: meta.file,
                        unit_in_file: meta.unit_in_file,
                        key: key.to_string(),
                        wave: Some(w),
                        skipped: true,
                        msgs: Vec::new(),
                        expr_evals: 0,
                    });
                    continue;
                }
                match work.stamp(key) {
                    Some(_) => cache.misses += 1,
                    None => cache.cold += 1,
                }
                jobs.push((i, stamp));
            }
            // Every unit of the wave analyzes against the library as the
            // earlier waves left it. A file restored from the `fronts` file
            // has no trees until its first unit analyzes.
            let results: Vec<JobOut> = jobs
                .iter()
                .map(|&(i, _)| {
                    let meta = &graph.units[i];
                    let file = &parsed[meta.file];
                    if file.parse_restored(&self.analyzer, &mut phases.parse) {
                        cache.parsed += 1;
                        cache.reused -= 1;
                    }
                    run_job(&self.analyzer, &self.libs, file, meta.unit_in_file)
                })
                .collect();

            // Wave barrier: commit in input order, stamp, record. The
            // `stamps` file is written twice per barrier at most: first
            // without the stamps of the units about to be replaced, then
            // with their new stamps after the last commit, so the disk
            // never pairs a new unit text with its old stamp. If the first
            // write fails, the wave commits nothing, as a failed `put`
            // commits nothing: the old texts stay beside their old stamps.
            let replaced: Vec<&str> = results
                .iter()
                .filter(|r| r.tree.is_some())
                .map(|r| r.key.as_str())
                .collect();
            let writable = work.drop_stamps(&replaced).is_ok();
            let mut new_stamps = Vec::new();
            for (&(i, stamp), r) in jobs.iter().zip(results) {
                phases.attr_eval += r.attr_eval;
                phases.vif_read += r.vif_read;
                let t0 = Instant::now();
                let committed =
                    writable && r.tree.is_some_and(|tree| work.put(&r.key, &tree).is_ok());
                phases.vif_write += t0.elapsed();
                if committed {
                    new_stamps.push((r.key.clone(), stamp));
                }
                let meta = &graph.units[i];
                out_units.push(BatchUnit {
                    file: meta.file,
                    unit_in_file: meta.unit_in_file,
                    key: r.key,
                    wave: Some(w),
                    skipped: false,
                    msgs: r.msgs,
                    expr_evals: r.expr_evals,
                });
            }
            let _ = work.set_stamps(new_stamps);
        }

        out_units.sort_by_key(|u| (u.file, u.unit_in_file));
        ag_harness::trace::counter("batch-cache-hit", cache.hits);
        ag_harness::trace::counter("batch-cache-miss", cache.misses);
        ag_harness::trace::counter("batch-cache-cold", cache.cold);
        ag_harness::trace::counter("batch-waves", graph.waves.len() as u64);
        if let (true, Some(path)) = (memo_changed, &self.fronts_file) {
            // The file is only a cache: a failed write costs the next
            // process its parses, nothing else.
            let _ = vhdl_vif::write_atomic(path, print_fronts(&self.parsed.borrow()).as_bytes());
        }

        BatchResult {
            units: out_units,
            front_errors,
            phases,
            cache,
            waves: graph.waves.len(),
            lines,
            wall: wall0.elapsed(),
            traffic: self.libs.traffic(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnvKind;

    fn design() -> Vec<(String, String)> {
        // Deliberately out of dependency order: the architecture and the
        // dependent package precede what they depend on.
        vec![
            (
                "top.vhd".into(),
                "architecture rtl of e is\n\
                 signal s : bit;\n\
                 begin\n\
                 s <= '1';\n\
                 end rtl;\n"
                    .into(),
            ),
            ("ent.vhd".into(), "entity e is\nend e;\n".into()),
            (
                "pkg.vhd".into(),
                "package p is\nconstant width : integer := 8;\nend p;\n".into(),
            ),
        ]
    }

    fn vif_texts(c: &Compiler) -> Vec<(String, String)> {
        let work = c.libs.work();
        let mut keys: Vec<String> = work.history().iter().map(|k| k.to_string()).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                let t = work.peek_raw(&k).expect("stored");
                (k, t)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_library_state() {
        // The baseline compiles one file at a time, in dependency order.
        let seq = Compiler::in_memory();
        let ordered = [
            "entity e is\nend e;\n",
            "architecture rtl of e is\nsignal s : bit;\nbegin\ns <= '1';\nend rtl;\n",
            "package p is\nconstant width : integer := 8;\nend p;\n",
        ];
        for src in ordered {
            let r = seq.compile(src).expect("parse");
            assert!(r.ok(), "{}", r.msgs());
        }

        let batch = Compiler::in_memory();
        let r = batch.compile_batch(&design(), BatchOptions::default());
        assert!(r.ok(), "{:?}", r.units);
        assert_eq!(r.units.len(), 3);
        let seq_texts = vif_texts(&seq);
        let batch_texts = vif_texts(&batch);
        assert_eq!(seq_texts, batch_texts);
    }

    #[test]
    fn warm_incremental_run_skips_everything() {
        let c = Compiler::in_memory();
        let opts = BatchOptions {
            incremental: true,
            ..BatchOptions::default()
        };
        let cold = c.compile_batch(&design(), opts);
        assert!(cold.ok());
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.analyzed(), 3);
        let warm = c.compile_batch(&design(), opts);
        assert!(warm.ok());
        assert_eq!(warm.cache.hits, 3);
        assert_eq!(warm.cache.analyzed(), 0);
        assert!(warm.units.iter().all(|u| u.skipped));
    }

    #[test]
    fn touched_unit_invalidates_exactly_its_dependents() {
        let c = Compiler::in_memory();
        let opts = BatchOptions {
            incremental: true,
            ..BatchOptions::default()
        };
        let mut files = design();
        let cold = c.compile_batch(&files, opts);
        assert!(cold.ok());
        // Change the entity: the architecture depends on it, the package
        // does not.
        files[1].1 = "entity e is\nport (clk : in bit);\nend e;\n".into();
        let warm = c.compile_batch(&files, opts);
        assert!(warm.ok(), "{:?}", warm.units);
        assert_eq!(warm.cache.hits, 1, "only pkg.p should hit");
        assert_eq!(warm.cache.misses, 2, "entity + dependent arch re-analyze");
        let skipped: Vec<&str> = warm
            .units
            .iter()
            .filter(|u| u.skipped)
            .map(|u| u.key.as_str())
            .collect();
        assert_eq!(skipped, ["pkg.p"]);
    }

    #[test]
    fn all_hit_batch_spawns_no_pool() {
        let dir = std::env::temp_dir().join(format!("vhdl-pool-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let opts = BatchOptions {
            jobs: 3,
            incremental: true,
        };
        ag_harness::trace::reset();
        ag_harness::trace::set_enabled(true);
        let cold = Compiler::on_disk(&dir).expect("open library");
        assert!(cold.compile_batch(&design(), opts).ok());
        // A restart over the same library: every stamp hits.
        let restarted = Compiler::on_disk(&dir).expect("reopen library");
        let warm = restarted.compile_batch(&design(), opts);
        let spawns = ag_harness::trace::counter_value("pool-spawn");
        ag_harness::trace::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(warm.cache.hits, 3);
        assert_eq!(spawns, 0, "`jobs` is ignored: no batch starts a thread");
    }

    #[test]
    fn warm_plan_hit_skips_parse_and_reprint() {
        let c = Compiler::in_memory();
        let opts = BatchOptions {
            incremental: true,
            ..BatchOptions::default()
        };
        let cold = c.compile_batch(&design(), opts);
        assert!(cold.ok());
        assert!(cold.phases.parse > Duration::ZERO);
        assert_eq!((cold.cache.parsed, cold.cache.reused), (3, 0));
        for _ in 0..2 {
            let warm = c.compile_batch(&design(), opts);
            assert!(warm.ok());
            assert_eq!(warm.cache.hits, 3);
            // Every file comes from the memo and every unit hits its
            // stamp: no parse, no print, no library writes.
            assert_eq!(
                warm.phases.parse,
                Duration::ZERO,
                "a warm batch must not parse"
            );
            assert_eq!((warm.cache.parsed, warm.cache.reused), (0, 3));
            assert_eq!(
                warm.phases.vif_write,
                Duration::ZERO,
                "hits must not rebuild vif text"
            );
            assert_eq!(warm.traffic.units_written, 0);
        }
        // An edit parses the edited file only, and re-analysis still works.
        let mut files = design();
        files[1].1 = "entity e is\nport (clk : in bit);\nend e;\n".into();
        let edited = c.compile_batch(&files, opts);
        assert!(edited.ok(), "{:?}", edited.units);
        assert!(edited.phases.parse > Duration::ZERO);
        assert_eq!((edited.cache.parsed, edited.cache.reused), (1, 2));
        assert_eq!(edited.cache.hits, 1);
        // The memo held the edited batch's files only, so the revert
        // parses the entity's old text again; its units re-stamp against
        // the changed library.
        let reverted = c.compile_batch(&design(), opts);
        assert!(reverted.ok(), "{:?}", reverted.units);
        assert_eq!((reverted.cache.parsed, reverted.cache.reused), (1, 2));
        assert_eq!(reverted.cache.hits, 1, "only pkg.p survives the revert");
    }

    #[test]
    fn memo_holds_only_the_last_batch_files() {
        let c = Compiler::in_memory();
        assert!(c.compile_batch(&design(), BatchOptions::default()).ok());
        let files = &design()[1..];
        let r = c.compile_batch(files, BatchOptions::default());
        assert!(r.ok(), "{:?}", r.units);
        assert_eq!((r.cache.parsed, r.cache.reused), (0, 2));
        let mut held: Vec<u64> = c.parsed.borrow().keys().copied().collect();
        let mut want: Vec<u64> = files.iter().map(|(_, src)| text_key(src)).collect();
        held.sort_unstable();
        want.sort_unstable();
        assert_eq!(held, want);
    }

    #[test]
    fn entry_under_another_texts_key_is_not_used() {
        let c = Compiler::in_memory();
        let files = design();
        assert!(c.compile_batch(&files, BatchOptions::default()).ok());
        // Plant the package's parse under the key of a text it is not.
        let other = "package q is\nconstant depth : integer := 2;\nend q;\n";
        {
            let mut memo = c.parsed.borrow_mut();
            let pkg = Rc::clone(&memo[&text_key(&files[2].1)]);
            memo.insert(text_key(other), pkg);
        }
        let r = c.compile_batch(&[("q.vhd".into(), other.into())], BatchOptions::default());
        assert!(r.ok(), "{:?}", r.units);
        assert_eq!((r.cache.parsed, r.cache.reused), (1, 0));
        let keys: Vec<&str> = r.units.iter().map(|u| u.key.as_str()).collect();
        assert_eq!(keys, ["pkg.q"]);
        assert!(c.libs.work().contains("pkg.q"));
    }

    #[test]
    fn disk_batch_writes_only_text_history_and_stamps() {
        let dir = std::env::temp_dir().join(format!("vhdl-batch-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Compiler::on_disk(&dir).expect("open library");
        let r = c.compile_batch(
            &design(),
            BatchOptions {
                incremental: true,
                ..BatchOptions::default()
            },
        );
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("library dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        names.sort();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(r.ok(), "{:?}", r.units);
        assert_eq!(
            names,
            [
                "arch.e.rtl.vif",
                "entity.e.vif",
                "fronts",
                "history",
                "pkg.p.vif",
                "stamps"
            ],
            "one text file per unit plus the parse memo, the history and the stamps"
        );
    }

    #[test]
    fn forged_fronts_entry_is_a_diagnostic_not_a_panic() {
        // An entry whose text matches but whose fronts claim a unit the
        // text does not hold: the restart schedules it, and the unit gets
        // an internal error instead of a tree. Analyzing its units parses
        // the restored file, so it counts as parsed.
        let dir = std::env::temp_dir().join(format!("vhdl-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let src = "entity e is\nend e;\n";
        let mut parse_time = Duration::ZERO;
        let mut file = ParsedFile::parse(&Analyzer::new(EnvKind::Tree), src, &mut parse_time);
        let mut ghost = file.fronts[0].clone();
        ghost.key = "entity.ghost".into();
        file.fronts.push(ghost);
        file.units = OnceCell::new();
        let memo = HashMap::from([(text_key(src), Rc::new(file))]);
        std::fs::write(dir.join("fronts"), print_fronts(&memo)).expect("write fronts");
        let c = Compiler::on_disk(&dir).expect("open library");
        let r = c.compile_batch(&[("e.vhd".into(), src.into())], BatchOptions::default());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((r.cache.parsed, r.cache.reused), (1, 0));
        assert!(r.units[0].msgs.is_empty(), "{:?}", r.units[0].msgs);
        assert!(r.units[1].msgs[0].to_string().contains("internal:"));
    }

    #[test]
    fn configuration_compiles_in_the_batch_of_its_architecture() {
        let files = vec![(
            "f.vhd".to_string(),
            "entity e is end;\n\
             architecture a of e is begin end a;\n\
             configuration c of e is for a end for; end c;\n"
                .to_string(),
        )];
        let c = Compiler::in_memory();
        let r = c.compile_batch(&files, BatchOptions::default());
        assert!(r.ok(), "{}", r.msgs());
        assert_eq!(r.waves, 3, "entity, then architecture, then configuration");
        assert!(c.libs.work().contains("config.c"));
    }

    #[test]
    fn cycle_yields_diagnostics_not_hang() {
        let files = vec![
            ("a.vhd".into(), "use work.b;\npackage a is\nend a;\n".into()),
            ("b.vhd".into(), "use work.a;\npackage b is\nend b;\n".into()),
        ];
        let c = Compiler::in_memory();
        let r = c.compile_batch(&files, BatchOptions::default());
        assert!(!r.ok());
        assert_eq!(r.units.len(), 2);
        for u in &r.units {
            assert_eq!(u.wave, None);
            assert!(u.msgs[0].to_string().contains("dependency cycle"));
        }
    }
}
