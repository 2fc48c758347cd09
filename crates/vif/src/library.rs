//! Design libraries: named collections of separately-compiled units.
//!
//! The compiler "accepts … a working library where the successfully
//! compiled units are placed and a reference library which can be
//! referenced … but not updated" (§2). A [`Library`] stores one VIF unit
//! per key plus a **usage history** — the compilation order — because the
//! default-binding rules depend on "the latest compiled architecture for
//! that entity" (§3.3), which makes configuration defaults dependent on
//! library history.
//!
//! The VIF is both the symbol table and the interchange format (§2), and
//! only the interchange role needs bytes. A library keeps one record per
//! unit: [`Library::put`] keeps the analyzed tree (a *tree record*) whose
//! text is printed only when asked for — a snapshot,
//! [`Library::peek_raw`], [`Library::text_hash`], or a disk store. Units
//! that arrive as bytes (disk files, [`Library::put_text`], snapshot
//! mirrors) are *byte records*: VIF text, the one byte form of a unit.
//!
//! A load is the record's memo, or else one build of the unit: a tree
//! record copies its tree, a byte record reads its text once. Each
//! library keeps its own loaded trees, so two forks of one library share
//! no node. The text-parse counter ([`vifb_stats`]) is a global atomic,
//! so `vhdlc --stats` and `vhdld stats` report totals across all threads.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ag_harness::fnv1a;

use crate::node::{VifNode, VifValue};
use crate::text::{read, vif_text_hash, write_vif, Resolver, VifError};

/// Key of a unit within a library: `"entity.<name>"`, `"arch.<entity>.<name>"`,
/// `"pkg.<name>"`, `"pkgbody.<name>"`, or `"config.<name>"`.
pub type UnitKey = String;

/// Foreign-reference chains deeper than this are reported as errors
/// rather than followed — a hand-made cyclic library must not hang the
/// loader.
const MAX_LOAD_DEPTH: usize = 64;

/// Cumulative VIF traffic statistics (for the phase-breakdown experiments).
/// Bytes count only where bytes exist: tree records write and read none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VifTraffic {
    /// Bytes of VIF text written.
    pub bytes_written: u64,
    /// Bytes of VIF text read.
    pub bytes_read: u64,
    /// Units written.
    pub units_written: u64,
    /// Units read (including those pulled in by nested foreign references).
    pub units_read: u64,
}

/// One unit's record: the form it was stored in plus everything derived
/// from it. A recompile replaces the whole record, so nothing derived
/// from an old version can outlive it.
struct Unit {
    /// The analyzed tree with foreign references unresolved, for a unit
    /// stored with [`Library::put`]; `None` for a byte record.
    tree: Option<Rc<VifNode>>,
    /// VIF text: given for a byte record, printed on first demand for a
    /// tree record.
    text: OnceCell<Arc<str>>,
    /// FNV-1a hash of the text.
    text_hash: OnceCell<u64>,
    /// The loaded tree (foreign references resolved); used only while
    /// the library's cache is enabled.
    resolved: RefCell<Option<Rc<VifNode>>>,
}

impl Unit {
    fn new(tree: Option<Rc<VifNode>>, text: Option<Arc<str>>) -> Unit {
        Unit {
            tree,
            text: text.map_or_else(OnceCell::new, OnceCell::from),
            text_hash: OnceCell::new(),
            resolved: RefCell::new(None),
        }
    }

    fn text(&self) -> Arc<str> {
        Arc::clone(self.text.get_or_init(|| {
            let tree = self.tree.as_ref().expect("a byte record holds its text");
            Arc::from(write_vif(tree))
        }))
    }

    /// A tree record not yet printed streams its printer into the hash,
    /// so hashing makes no text.
    fn text_hash(&self) -> u64 {
        *self
            .text_hash
            .get_or_init(|| match (self.text.get(), &self.tree) {
                (None, Some(tree)) => vif_text_hash(tree),
                _ => fnv1a(0, self.text().as_bytes()),
            })
    }
}

/// A thread-transferable image of a library: unit texts plus the usage
/// history, in history order. Unit texts are shared `Arc`s — taking a
/// snapshot again copies no bytes, and cloning a snapshot (the batch
/// compiler ships one per worker, each rebuilding a mirror with
/// [`Library::from_snapshot`]; the server forks one per session
/// workspace) only bumps reference counts.
#[derive(Clone, Debug)]
pub struct LibrarySnapshot {
    /// Library logical name.
    pub name: String,
    /// Usage history, oldest first (duplicates preserved).
    pub history: Vec<UnitKey>,
    /// Current VIF text per distinct unit key (shared, copy-on-write).
    pub units: Vec<(UnitKey, Arc<str>)>,
    /// Incremental stamps at snapshot time, so a forked workspace's
    /// first analyze of unchanged text is a cache hit.
    pub stamps: Vec<(UnitKey, u64)>,
}

/// One design library.
pub struct Library {
    name: String,
    /// Root directory of an on-disk library; `None` in memory.
    dir: Option<PathBuf>,
    /// One record per unit. On disk this fills lazily from the unit files.
    units: RefCell<HashMap<UnitKey, Rc<Unit>>>,
    /// Compilation order (usage history), oldest first.
    history: RefCell<Vec<UnitKey>>,
    /// Each distinct key's first and last position in `history`: the two
    /// orders elaboration reads the history in, at the cost of the unit
    /// count rather than the history's length.
    spans: RefCell<HashMap<UnitKey, (usize, usize)>>,
    traffic: RefCell<VifTraffic>,
    /// Caching toggle: the paper's compiler re-read foreign VIF per
    /// compilation; disabling the cache reproduces that cost model for the
    /// performance experiments.
    cache_enabled: Cell<bool>,
    /// Incremental-compilation stamps: content hash of the source tokens
    /// combined with the hashes of the dependency VIF texts at the time
    /// the unit was last analyzed. A unit whose recomputed stamp matches
    /// needs no re-analysis.
    stamps: RefCell<HashMap<UnitKey, Stamp>>,
    /// An on-disk library's unit files: the sanitized keys of the `.vif`
    /// entries in its directory, listed on the first
    /// [`Library::contains`] and extended by every store, so a lookup
    /// makes no system call. `None` until listed, and in memory.
    files: RefCell<Option<HashSet<String>>>,
}

/// A unit's incremental stamp and, in an on-disk library, the hash of its
/// VIF text that the `stamps` file gave with it.
struct Stamp {
    stamp: u64,
    /// FNV-1a hash of the unit file as the `stamps` file recorded it.
    /// It holds while the key keeps its stamp: a store drops the stamp,
    /// on disk first, before it replaces the file.
    text_hash: Option<u64>,
}

impl Stamp {
    fn new(stamp: u64) -> Stamp {
        Stamp {
            stamp,
            text_hash: None,
        }
    }
}

impl Library {
    /// Creates an in-memory library (tests, benches).
    pub fn in_memory(name: &str) -> Library {
        Library {
            name: name.to_string(),
            dir: None,
            units: RefCell::new(HashMap::new()),
            history: RefCell::new(Vec::new()),
            spans: RefCell::new(HashMap::new()),
            traffic: RefCell::new(VifTraffic::default()),
            cache_enabled: Cell::new(true),
            stamps: RefCell::new(HashMap::new()),
            files: RefCell::new(None),
        }
    }

    /// Rebuilds an in-memory library of byte records from a
    /// [`LibrarySnapshot`] — the worker-side mirror of the batch compiler.
    pub fn from_snapshot(snap: &LibrarySnapshot) -> Library {
        let mut lib = Library::in_memory(&snap.name);
        *lib.units.get_mut() = snap
            .units
            .iter()
            .map(|(k, text)| (k.clone(), Rc::new(Unit::new(None, Some(Arc::clone(text))))))
            .collect();
        lib.set_history(snap.history.clone());
        *lib.stamps.get_mut() = snap
            .stamps
            .iter()
            .map(|(k, s)| (k.clone(), Stamp::new(*s)))
            .collect();
        lib
    }

    fn set_history(&mut self, history: Vec<UnitKey>) {
        let spans = self.spans.get_mut();
        spans.clear();
        for (i, k) in history.iter().enumerate() {
            spans.entry(k.clone()).or_insert((i, i)).1 = i;
        }
        *self.history.get_mut() = history;
    }

    /// Captures the library's current contents as text, printing it for
    /// tree records that have none yet (no traffic is counted; snapshots
    /// are a scheduling mechanism, not VIF reads).
    pub fn snapshot(&self) -> LibrarySnapshot {
        let history = self.history.borrow().clone();
        let mut seen = std::collections::HashSet::new();
        let mut units = Vec::new();
        for k in &history {
            if !seen.insert(k.clone()) {
                continue;
            }
            if let Ok(unit) = self.unit(k) {
                units.push((k.clone(), unit.text()));
            }
        }
        let mut stamps: Vec<(UnitKey, u64)> = self
            .stamps
            .borrow()
            .iter()
            .map(|(k, s)| (k.clone(), s.stamp))
            .collect();
        stamps.sort();
        LibrarySnapshot {
            name: self.name.clone(),
            history,
            units,
            stamps,
        }
    }

    /// Opens (or creates) an on-disk library rooted at `dir`. It reads the
    /// `history` and `stamps` files, and no unit file: those are read
    /// when first used, and [`Library::contains`] lists the directory
    /// once.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or reading the history or stamps
    /// file (a missing file is empty).
    pub fn on_disk(name: &str, dir: impl Into<PathBuf>) -> Result<Library, VifError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let history = read_if_any(&dir.join("history"))?.unwrap_or_default();
        let history = history.lines().map(str::to_string).collect();
        let stamps = read_if_any(&dir.join("stamps"))?.unwrap_or_default();
        let stamps = stamps.lines().filter_map(parse_stamp).collect();
        let mut lib = Library::in_memory(name);
        lib.dir = Some(dir);
        lib.set_history(history);
        *lib.stamps.get_mut() = stamps;
        Ok(lib)
    }

    /// The library's logical name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Path of the unit's `ext` file, in an on-disk library.
    fn file(&self, key: &str, ext: &str) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("{}.{ext}", sanitize(key))))
    }

    /// The unit's record; on disk, read from the unit file on first use.
    fn unit(&self, key: &str) -> Result<Rc<Unit>, VifError> {
        if let Some(unit) = self.units.borrow().get(key) {
            return Ok(Rc::clone(unit));
        }
        let text = match self.file(key, "vif") {
            Some(path) => read_if_any(&path)?,
            None => None,
        };
        let text = text.ok_or_else(|| VifError::MissingUnit(format!("{}.{key}", self.name)))?;
        let text = Arc::from(text);
        let unit = Rc::new(Unit::new(None, Some(text)));
        self.units
            .borrow_mut()
            .insert(key.to_string(), Rc::clone(&unit));
        Ok(unit)
    }

    /// Stores a unit (replacing any previous version) and appends it to the
    /// usage history. In memory this keeps the tree and makes no bytes; on
    /// disk the text is written now.
    ///
    /// # Errors
    ///
    /// I/O errors on disk-backed libraries.
    pub fn put(&self, key: &str, node: &Rc<VifNode>) -> Result<(), VifError> {
        self.store(key, Unit::new(Some(Rc::clone(node)), None))
    }

    /// Stores a unit from its already-serialized VIF text, as a byte
    /// record; the batch compiler commits this way so the stored bytes are
    /// exactly the worker-produced bytes.
    ///
    /// Every store is atomic in memory: on disk the unit text and the new
    /// history are first written to temp files, then renamed over the unit
    /// file and the history file, and no in-memory state (records,
    /// history, traffic, stamps) changes unless both renames
    /// succeeded — a failed `put` followed by [`Library::peek_raw`] still
    /// sees the old version. Before it writes either file, a store of a
    /// stamped key rewrites the `stamps` file without the key, since its
    /// line may carry the hash of the text being replaced. Only a history
    /// rename that fails after the unit rename leaves the disk with the
    /// new text and the old history; the library then forgets the key's
    /// record and stamp, and serves the new text.
    ///
    /// # Errors
    ///
    /// I/O errors on disk-backed libraries.
    pub fn put_text(&self, key: &str, text: &str) -> Result<(), VifError> {
        self.store(key, Unit::new(None, Some(Arc::from(text))))
    }

    fn store(&self, key: &str, unit: Unit) -> Result<(), VifError> {
        if let (Some(dir), Some(path)) = (&self.dir, self.file(key, "vif")) {
            // The batch drops its stamps before it stores, so there this
            // writes nothing.
            if self.stamps.borrow().contains_key(key) {
                self.write_stamps(Some(key))?;
            }
            let mut history = self.history.borrow().clone();
            history.push(key.to_string());
            let history_path = dir.join("history");
            // Stage both files before the first rename, so a failed write
            // leaves both the disk and the library as they were.
            let unit_tmp = stage(&path, unit.text().as_bytes())?;
            let history_tmp = match stage(&history_path, history.join("\n").as_bytes()) {
                Ok(tmp) => tmp,
                Err(e) => {
                    let _ = std::fs::remove_file(&unit_tmp);
                    return Err(e);
                }
            };
            if let Err(e) = commit(&unit_tmp, &path) {
                let _ = std::fs::remove_file(&history_tmp);
                return Err(e);
            }
            if let Some(files) = self.files.borrow_mut().as_mut() {
                files.insert(sanitize(key));
            }
            if let Err(e) = commit(&history_tmp, &history_path) {
                self.units.borrow_mut().remove(key);
                self.stamps.borrow_mut().remove(key);
                return Err(e);
            }
        }
        {
            let mut t = self.traffic.borrow_mut();
            t.bytes_written += unit.text.get().map_or(0, |t| t.len() as u64);
            t.units_written += 1;
        }
        self.units
            .borrow_mut()
            .insert(key.to_string(), Rc::new(unit));
        // A recompile invalidates any stamp from the previous analysis;
        // the incremental driver re-stamps after a successful commit.
        self.stamps.borrow_mut().remove(key);
        let mut history = self.history.borrow_mut();
        let at = history.len();
        self.spans
            .borrow_mut()
            .entry(key.to_string())
            .or_insert((at, at))
            .1 = at;
        history.push(key.to_string());
        Ok(())
    }

    /// The unit's incremental stamp, if one was recorded.
    pub fn stamp(&self, key: &str) -> Option<u64> {
        self.stamps.borrow().get(key).map(|s| s.stamp)
    }

    /// Records units' incremental stamps. On disk the `stamps` file is
    /// written once for all of them (not at all for none).
    ///
    /// # Errors
    ///
    /// I/O errors persisting the stamp file.
    pub fn set_stamps(
        &self,
        stamps: impl IntoIterator<Item = (UnitKey, u64)>,
    ) -> Result<(), VifError> {
        let mut any = false;
        {
            let mut all = self.stamps.borrow_mut();
            for (key, stamp) in stamps {
                all.insert(key, Stamp::new(stamp));
                any = true;
            }
        }
        if any {
            self.write_stamps(None)?;
        }
        Ok(())
    }

    /// Forgets the stamps of `keys`. On disk the `stamps` file is written
    /// once if any of them had a stamp; the batch driver does this before
    /// it replaces those units, so the disk never pairs a new unit text
    /// with its old stamp.
    ///
    /// # Errors
    ///
    /// I/O errors persisting the stamp file.
    pub fn drop_stamps(&self, keys: &[&str]) -> Result<(), VifError> {
        let mut any = false;
        {
            let mut all = self.stamps.borrow_mut();
            for key in keys {
                any |= all.remove(*key).is_some();
            }
        }
        if any {
            self.write_stamps(None)?;
        }
        Ok(())
    }

    /// Writes the `stamps` file, leaving out `without`: a `key stamp hash`
    /// line, in hex, for each key whose text hash is known (memoized in
    /// its record, or read with its stamp), and `key stamp` for the rest.
    /// Writing adds no hashing.
    fn write_stamps(&self, without: Option<&str>) -> Result<(), VifError> {
        if let Some(dir) = &self.dir {
            let units = self.units.borrow();
            let mut lines: Vec<String> = self
                .stamps
                .borrow()
                .iter()
                .filter(|(k, _)| Some(k.as_str()) != without)
                .map(|(k, s)| {
                    let memo = units.get(k).and_then(|u| u.text_hash.get().copied());
                    match memo.or(s.text_hash) {
                        Some(h) => format!("{k} {:x} {h:x}", s.stamp),
                        None => format!("{k} {:x}", s.stamp),
                    }
                })
                .collect();
            lines.sort();
            write_atomic(&dir.join("stamps"), lines.join("\n").as_bytes())?;
        }
        Ok(())
    }

    /// Raw VIF text without touching the traffic counters (snapshots and
    /// stamp hashing are bookkeeping, not compilation VIF traffic). A tree
    /// record prints its text here on first demand.
    ///
    /// # Errors
    ///
    /// [`VifError::MissingUnit`] if absent; I/O errors on disk.
    pub fn peek_raw(&self, key: &str) -> Result<String, VifError> {
        self.peek_shared(key).map(|t| t.to_string())
    }

    /// Like [`Library::peek_raw`] but returns the shared text, which the
    /// record keeps: a reference-count bump, not a copy — the server
    /// relies on this to fork session workspaces cheaply.
    ///
    /// # Errors
    ///
    /// [`VifError::MissingUnit`] if absent; I/O errors on disk.
    pub fn peek_shared(&self, key: &str) -> Result<Arc<str>, VifError> {
        Ok(self.unit(key)?.text())
    }

    /// FNV-1a hash of the unit's current VIF text (memoized in the record).
    /// A tree record streams its printer into the hash and makes no text.
    /// It is the per-dependency ingredient of incremental stamps — the
    /// batch driver uses it instead of re-reading and re-hashing dep text.
    /// In an on-disk library a stamped key whose record is not loaded
    /// answers with the hash its `stamps` line carries, and reads no unit
    /// file; the `stamps` file keeps each known hash, so a restart that
    /// finds every unit current opens none.
    ///
    /// # Errors
    ///
    /// [`VifError::MissingUnit`] if absent; I/O errors on disk.
    pub fn text_hash(&self, key: &str) -> Result<u64, VifError> {
        if let Some(unit) = self.units.borrow().get(key) {
            return Ok(unit.text_hash());
        }
        if let Some(h) = self.stamps.borrow().get(key).and_then(|s| s.text_hash) {
            return Ok(h);
        }
        Ok(self.unit(key)?.text_hash())
    }

    /// Counts one unit read of `bytes` bytes of VIF text.
    fn note_read(&self, bytes: usize) {
        let mut t = self.traffic.borrow_mut();
        t.bytes_read += bytes as u64;
        t.units_read += 1;
    }

    /// `true` if the unit exists: in memory, if it has a record; on disk,
    /// if its unit file does, as [`Path::exists`] would answer. The
    /// directory is listed on the first call and the listing kept, so a
    /// file another process adds later is not seen, as the history and
    /// stamps read at open are not updated either.
    pub fn contains(&self, key: &str) -> bool {
        let Some(dir) = &self.dir else {
            return self.units.borrow().contains_key(key);
        };
        let mut files = self.files.borrow_mut();
        if files.is_none() {
            *files = unit_files(dir).ok();
        }
        let name = sanitize(key);
        match &*files {
            Some(files) => files.contains(&name),
            None => dir.join(format!("{name}.vif")).exists(),
        }
    }

    /// All unit keys, in usage-history order (duplicates possible when a
    /// unit was recompiled; the last occurrence is the current one).
    pub fn history(&self) -> Vec<UnitKey> {
        self.history.borrow().clone()
    }

    /// The distinct unit keys in the order they were first compiled: the
    /// history with each key at its first occurrence.
    pub fn keys_by_first_use(&self) -> Vec<UnitKey> {
        self.keys_by(|&(first, _)| first)
    }

    /// The distinct unit keys in the order they were last compiled: the
    /// history with each key at its last occurrence.
    pub fn keys_by_last_use(&self) -> Vec<UnitKey> {
        self.keys_by(|&(_, last)| last)
    }

    fn keys_by(&self, at: impl Fn(&(usize, usize)) -> usize) -> Vec<UnitKey> {
        let spans = self.spans.borrow();
        let mut keys: Vec<(usize, &UnitKey)> = spans.iter().map(|(k, s)| (at(s), k)).collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, k)| k.clone()).collect()
    }

    /// The **latest compiled architecture** for `entity` — the paper's
    /// §3.3 default-binding rule. Returns the architecture name.
    pub fn latest_architecture(&self, entity: &str) -> Option<String> {
        let prefix = format!("arch.{entity}.");
        self.spans
            .borrow()
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .max_by_key(|&(_, &(_, last))| last)
            .map(|(k, _)| k[prefix.len()..].to_string())
    }

    /// Cumulative VIF traffic so far.
    pub fn traffic(&self) -> VifTraffic {
        *self.traffic.borrow()
    }

    /// Resets the traffic counters (between benchmark phases).
    pub fn reset_traffic(&self) {
        *self.traffic.borrow_mut() = VifTraffic::default();
    }

    /// Enables/disables the unit cache (see the performance experiments).
    /// Disabling also bypasses the tree copy, reproducing the paper's
    /// re-read-foreign-VIF cost model: every load lexes the unit's text.
    pub fn set_cache_enabled(&self, on: bool) {
        self.cache_enabled.set(on);
    }
}

/// Writes `bytes` to the temp file `<path>.tmp` that [`commit`] renames
/// over `path`; the temp file is removed on failure.
fn stage(path: &Path, bytes: &[u8]) -> Result<PathBuf, VifError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if let Err(e) = std::fs::write(&tmp, bytes) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(tmp)
}

/// Renames a staged temp file over `path`; the temp file is removed on
/// failure.
fn commit(tmp: &Path, path: &Path) -> Result<(), VifError> {
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        e.into()
    })
}

/// Writes `path` atomically: temp file + rename, temp removed on failure.
/// Every file of an on-disk library is written this way, the batch
/// driver's `fronts` file included.
///
/// # Errors
///
/// I/O errors writing or renaming the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), VifError> {
    commit(&stage(path, bytes)?, path)
}

/// The text of `path`, or `None` if there is no such file.
fn read_if_any(path: &Path) -> Result<Option<String>, VifError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// One `stamps` line, `key stamp` or `key stamp hash` in hex. A line with
/// no hex stamp is no stamp; a third field that is not hex is no hash,
/// and the unit file is then read for it.
fn parse_stamp(line: &str) -> Option<(UnitKey, Stamp)> {
    let mut fields = line.split(' ');
    let key = fields.next()?;
    let stamp = u64::from_str_radix(fields.next()?, 16).ok()?;
    let text_hash = fields.next().and_then(|h| u64::from_str_radix(h, 16).ok());
    if fields.next().is_some() {
        return None;
    }
    Some((key.to_string(), Stamp { stamp, text_hash }))
}

/// The sanitized keys of the `.vif` entries in `dir`, as [`Path::exists`]
/// sees them: a symbolic link counts when its target exists.
fn unit_files(dir: &Path) -> std::io::Result<HashSet<String>> {
    let mut files = HashSet::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(key) = name.to_str().and_then(|n| n.strip_suffix(".vif")) else {
            continue;
        };
        if !entry.file_type()?.is_symlink() || entry.path().exists() {
            files.insert(key.to_string());
        }
    }
    Ok(files)
}

fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Copies a stored tree the way printing and re-reading it would: nodes
/// shared inside the tree stay shared, no node is shared with anything
/// outside it, and foreign references resolve through `resolve`, as in
/// [`crate::read_vif`].
fn local_copy(root: &Rc<VifNode>, resolve: &mut Resolver<'_>) -> Result<Rc<VifNode>, VifError> {
    type Memo = HashMap<*const VifNode, Rc<VifNode>>;
    fn copy(
        v: &VifValue,
        memo: &mut Memo,
        resolve: &mut Resolver<'_>,
    ) -> Result<VifValue, VifError> {
        Ok(match v {
            VifValue::Node(n) => VifValue::Node(node(n, memo, resolve)?),
            VifValue::List(items) => VifValue::list(
                items
                    .iter()
                    .map(|v| copy(v, memo, resolve))
                    .collect::<Result<_, _>>()?,
            ),
            VifValue::Foreign(r) => VifValue::Node(resolve(r)?),
            v => v.clone(),
        })
    }
    fn node(
        n: &Rc<VifNode>,
        memo: &mut Memo,
        resolve: &mut Resolver<'_>,
    ) -> Result<Rc<VifNode>, VifError> {
        if let Some(done) = memo.get(&Rc::as_ptr(n)) {
            return Ok(Rc::clone(done));
        }
        let mut b = VifNode::build(n.kind_sym());
        if let Some(name) = n.name_sym() {
            b = b.name(name);
        }
        for (f, v) in n.fields() {
            b = b.field(*f, copy(v, memo, resolve)?);
        }
        let done = b.done();
        memo.insert(Rc::as_ptr(n), Rc::clone(&done));
        Ok(done)
    }
    node(root, &mut HashMap::new(), resolve)
}

/// The library universe of one compilation: a writable work library plus
/// read-only reference libraries, addressed by logical name. The name
/// `"work"` always denotes the work library.
pub struct LibrarySet {
    work: Rc<Library>,
    refs: Vec<Rc<Library>>,
}

impl LibrarySet {
    /// Creates a set from a work library and reference libraries.
    pub fn new(work: Rc<Library>, refs: Vec<Rc<Library>>) -> LibrarySet {
        LibrarySet { work, refs }
    }

    /// The writable work library.
    pub fn work(&self) -> &Rc<Library> {
        &self.work
    }

    /// The read-only reference libraries.
    pub fn refs(&self) -> &[Rc<Library>] {
        &self.refs
    }

    /// Looks up a library by logical name (`"work"` or a reference
    /// library's name).
    pub fn library(&self, name: &str) -> Option<&Rc<Library>> {
        if name == "work" || name == self.work.name() {
            return Some(&self.work);
        }
        self.refs.iter().find(|l| l.name() == name)
    }

    /// Loads a unit by full reference `lib.unit_key`, resolving nested
    /// foreign references recursively (the §2.2 "fix-up" step). The result
    /// is kept in the unit's record. A tree record loads as a unit-local
    /// copy of its tree, with no bytes involved; a byte record reads its
    /// text once. Nothing loaded is shared with another library.
    ///
    /// # Errors
    ///
    /// [`VifError::MissingUnit`]/[`VifError::Unresolved`] for dangling
    /// references; syntax errors for corrupt files and schema errors for
    /// text whose nodes break the schema ([`crate::schema::check_node`]),
    /// wrapped in [`VifError::InUnit`] naming the offending unit.
    pub fn load(&self, full_ref: &str) -> Result<Rc<VifNode>, VifError> {
        self.load_at(full_ref, 0)
    }

    /// The library and unit key a foreign reference `lib.unit_key` at
    /// chain depth `depth` names.
    fn locate<'r>(&self, full_ref: &'r str, depth: usize) -> Result<(&Library, &'r str), VifError> {
        if depth > MAX_LOAD_DEPTH {
            return Err(VifError::Unresolved(format!(
                "reference chain deeper than {MAX_LOAD_DEPTH} at `{full_ref}` (cycle?)"
            )));
        }
        let (lib_name, key) = full_ref
            .split_once('.')
            .ok_or_else(|| VifError::Unresolved(full_ref.to_string()))?;
        let lib = self
            .library(lib_name)
            .ok_or_else(|| VifError::Unresolved(format!("no library `{lib_name}`")))?;
        Ok((lib, key))
    }

    fn load_at(&self, full_ref: &str, depth: usize) -> Result<Rc<VifNode>, VifError> {
        let (lib, key) = self.locate(full_ref, depth)?;
        let unit = lib.unit(key)?;
        let resolve = &mut |nested: &str| self.load_at(nested, depth + 1);
        let parse = |resolve: &mut Resolver<'_>| {
            STATS_TEXT_PARSES.fetch_add(1, Ordering::Relaxed);
            read(&unit.text(), resolve, true)
                .map_err(|e| e.in_unit(format!("{}.{key}", lib.name())))
        };
        if !lib.cache_enabled.get() {
            // Ablation mode: the paper's cost model — re-read and re-lex
            // the text every time, no sharing of any kind.
            lib.note_read(unit.text().len());
            return parse(resolve);
        }
        if let Some(hit) = unit.resolved.borrow().clone() {
            return Ok(hit);
        }
        let node = match &unit.tree {
            Some(tree) => {
                lib.note_read(0);
                local_copy(tree, resolve)?
            }
            None => {
                lib.note_read(unit.text().len());
                parse(resolve)?
            }
        };
        *unit.resolved.borrow_mut() = Some(Rc::clone(&node));
        Ok(node)
    }

    /// Total VIF traffic across all libraries.
    pub fn traffic(&self) -> VifTraffic {
        let mut t = self.work.traffic();
        for l in &self.refs {
            let lt = l.traffic();
            t.bytes_read += lt.bytes_read;
            t.bytes_written += lt.bytes_written;
            t.units_read += lt.units_read;
            t.units_written += lt.units_written;
        }
        t
    }

    /// Resets all traffic counters.
    pub fn reset_traffic(&self) {
        self.work.reset_traffic();
        for l in &self.refs {
            l.reset_traffic();
        }
    }
}

static STATS_TEXT_PARSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of unit loads (summed over all threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VifbStats {
    /// Always 0: there is no structural cache to hit. Kept, like
    /// `cache_misses`, `decodes` and the `vifb` names, because `vhdlbench`
    /// reports it.
    pub cache_hits: u64,
    /// Always 0 (see `cache_hits`).
    pub cache_misses: u64,
    /// Always 0: a unit has no binary form to decode.
    pub decodes: u64,
    /// Unit loads that lexed VIF text.
    pub text_parses: u64,
}

/// Reads the process-wide unit-load counters.
pub fn vifb_stats() -> VifbStats {
    VifbStats {
        text_parses: STATS_TEXT_PARSES.load(Ordering::Relaxed),
        ..VifbStats::default()
    }
}

/// Does nothing: loaded trees live only in their library's records. Kept
/// because `vhdlbench` calls it.
pub fn clear_node_cache() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mk, Field};

    /// A schema-valid unit (a package), told apart by its name.
    fn unit(name: &str) -> Rc<VifNode> {
        mk::pkg(name, format!("{name}@t"), vec![], None)
    }

    /// A unit whose first declaration is the unit `dep`: a foreign
    /// reference, resolved on load.
    fn user(name: &str, dep: &str) -> Rc<VifNode> {
        let decls = vec![VifValue::Foreign(dep.into())];
        mk::pkg(name, format!("{name}@t"), decls, None)
    }

    /// The unit a [`user`] unit refers to, once loaded.
    fn dep(unit: &VifNode) -> &Rc<VifNode> {
        unit.list_field(Field::decls)[0].as_node().unwrap()
    }

    /// Stores `node` as a byte record, the way a batch commit does.
    fn put_bytes(lib: &Library, key: &str, node: &Rc<VifNode>) {
        lib.put_text(key, &write_vif(node)).unwrap();
    }

    #[test]
    fn memory_put_get_history() {
        let lib = Library::in_memory("work");
        lib.put("entity.e", &unit("e")).unwrap();
        lib.put("arch.e.rtl", &unit("rtl")).unwrap();
        lib.put("arch.e.fast", &unit("fast")).unwrap();
        assert!(lib.contains("entity.e"));
        assert!(!lib.contains("entity.zzz"));
        assert_eq!(lib.history().len(), 3);
        assert_eq!(lib.latest_architecture("e"), Some("fast".to_string()));
        // Recompiling rtl makes it latest — the §3.3 nondeterminism.
        lib.put("arch.e.rtl", &unit("rtl")).unwrap();
        assert_eq!(lib.latest_architecture("e"), Some("rtl".to_string()));
        assert_eq!(lib.latest_architecture("other"), None);
    }

    #[test]
    fn library_set_resolves_nested_foreign_refs() {
        let work = Rc::new(Library::in_memory("work"));
        let lib2 = Rc::new(Library::in_memory("ieee"));
        // ieee.pkg.base is a leaf; work.pkg.mid references it; work.entity.top
        // references mid — loading top must pull in all three.
        put_bytes(&lib2, "pkg.base", &unit("base"));
        put_bytes(&work, "pkg.mid", &user("mid", "ieee.pkg.base"));
        put_bytes(&work, "entity.top", &user("top", "work.pkg.mid"));

        let set = LibrarySet::new(Rc::clone(&work), vec![Rc::clone(&lib2)]);
        let loaded = set.load("work.entity.top").unwrap();
        let mid = dep(&loaded);
        let base = dep(mid);
        assert_eq!(base.name(), Some("base"));
        let t = set.traffic();
        assert_eq!(t.units_read, 3);
        assert!(t.bytes_read > 0);

        // Second load hits the record memo: no extra reads.
        set.load("work.entity.top").unwrap();
        assert_eq!(set.traffic().units_read, 3);
    }

    #[test]
    fn missing_unit_error() {
        let set = LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]);
        assert!(matches!(
            set.load("work.entity.nope").unwrap_err(),
            VifError::MissingUnit(_)
        ));
        assert!(set.load("nolib.entity.e").is_err());
        assert!(set.load("badref").is_err());
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("viftest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let lib = Library::on_disk("work", &dir).unwrap();
            lib.put("entity.e", &unit("e")).unwrap();
            lib.put("arch.e.rtl", &unit("rtl")).unwrap();
        }
        {
            let lib = Rc::new(Library::on_disk("work", &dir).unwrap());
            assert!(lib.contains("entity.e"));
            assert_eq!(lib.latest_architecture("e"), Some("rtl".to_string()));
            let set = LibrarySet::new(lib, vec![]);
            let e = set.load("work.entity.e").unwrap();
            assert_eq!(e.name(), Some("e"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_put_leaves_no_stale_state() {
        let dir = std::env::temp_dir().join(format!("vif-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Library::on_disk("work", &dir).unwrap();
        lib.put("entity.e", &unit("v1")).unwrap();
        lib.set_stamps([("entity.e".to_string(), 0xabcd)]).unwrap();
        let old_text = lib.peek_raw("entity.e").unwrap();
        let history_before = lib.history();
        let traffic_before = lib.traffic();

        // Force the unit-file rename to fail deterministically (works even
        // as root, where a read-only dir would not): occupy the target
        // path with a non-empty directory.
        let target = dir.join("entity.e.vif");
        std::fs::remove_file(&target).unwrap();
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("occupied"), "x").unwrap();

        let err = lib.put("entity.e", &unit("v2"));
        assert!(err.is_err(), "rename onto a non-empty dir must fail");
        // No stale in-memory copy: history, traffic and stamp unchanged;
        // no temp file left behind.
        assert_eq!(lib.history(), history_before);
        assert_eq!(lib.traffic(), traffic_before);
        assert_eq!(lib.stamp("entity.e"), Some(0xabcd));
        assert!(!dir.join("entity.e.vif.tmp").exists());

        // Restore the file; `peek_raw` and `load` still see the old version.
        std::fs::remove_dir_all(&target).unwrap();
        std::fs::write(&target, &old_text).unwrap();
        assert_eq!(lib.peek_raw("entity.e").unwrap(), old_text);
        let set = LibrarySet::new(Rc::new(Library::on_disk("work", &dir).unwrap()), vec![]);
        assert_eq!(set.load("work.entity.e").unwrap().name(), Some("v1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_history_write_leaves_no_stale_state() {
        let dir = std::env::temp_dir().join(format!("vif-atomic-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Library::on_disk("work", &dir).unwrap();
        lib.put("entity.e", &unit("v1")).unwrap();
        lib.set_stamps([("entity.e".to_string(), 0xabcd)]).unwrap();
        let old_text = lib.peek_raw("entity.e").unwrap();
        let history_before = lib.history();
        let traffic_before = lib.traffic();

        // Make the history write fail after the unit text could be
        // written: occupy the history temp path with a non-empty directory.
        let blocker = dir.join("history.tmp");
        std::fs::create_dir(&blocker).unwrap();
        std::fs::write(blocker.join("occupied"), "x").unwrap();

        assert!(lib.put("entity.e", &unit("v2")).is_err());
        // Neither the record, the history, the stamp nor the traffic
        // changed, and the unit file on disk is still v1.
        assert_eq!(lib.peek_raw("entity.e").unwrap(), old_text);
        assert_eq!(lib.history(), history_before);
        assert_eq!(lib.traffic(), traffic_before);
        assert_eq!(lib.stamp("entity.e"), Some(0xabcd));
        assert!(!dir.join("entity.e.vif.tmp").exists());
        std::fs::remove_dir_all(&blocker).unwrap();
        let set = LibrarySet::new(Rc::new(Library::on_disk("work", &dir).unwrap()), vec![]);
        assert_eq!(set.load("work.entity.e").unwrap().name(), Some("v1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_put_on_readonly_dir() {
        let dir = std::env::temp_dir().join(format!("vif-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Library::on_disk("work", &dir).unwrap();
        lib.put("entity.e", &unit("v1")).unwrap();
        let history_before = lib.history();

        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        let r = lib.put("entity.e", &unit("v2"));
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        match r {
            // Privileged processes (root in CI containers) bypass the
            // permission bits; the directory-blocked test above covers the
            // failure path there.
            Ok(()) => {}
            Err(_) => {
                assert_eq!(lib.history(), history_before);
                let set = LibrarySet::new(Rc::new(Library::on_disk("work", &dir).unwrap()), vec![]);
                assert_eq!(set.load("work.entity.e").unwrap().name(), Some("v1"));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_round_trip_and_stamps() {
        let dir = std::env::temp_dir().join(format!("vif-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let lib = Library::on_disk("work", &dir).unwrap();
            lib.put("entity.e", &unit("e")).unwrap();
            lib.put("arch.e.rtl", &unit("rtl")).unwrap();
            lib.put("arch.e.fast", &unit("fast")).unwrap();
            lib.put("arch.e.rtl", &unit("rtl")).unwrap();
            lib.set_stamps([("entity.e".to_string(), 17)]).unwrap();
            lib.set_stamps([("arch.e.rtl".to_string(), 0xdead_beef)])
                .unwrap();
        }
        // Stamps persist across a reopen.
        let lib = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib.stamp("entity.e"), Some(17));
        assert_eq!(lib.stamp("arch.e.rtl"), Some(0xdead_beef));
        assert_eq!(lib.stamp("arch.e.fast"), None);

        // A snapshot mirrors contents and history (incl. duplicates), and
        // reading it back reproduces history-derived answers.
        let before = lib.traffic();
        let snap = lib.snapshot();
        assert_eq!(lib.traffic(), before, "snapshots are not VIF traffic");
        assert_eq!(snap.history.len(), 4);
        assert_eq!(snap.units.len(), 3);
        let mirror = Library::from_snapshot(&snap);
        assert_eq!(mirror.history(), lib.history());
        // Stamps travel with the snapshot, so a forked workspace keeps
        // its incremental cache warm.
        assert_eq!(mirror.stamp("entity.e"), Some(17));
        assert_eq!(mirror.stamp("arch.e.rtl"), Some(0xdead_beef));
        assert_eq!(mirror.stamp("arch.e.fast"), None);
        assert_eq!(mirror.latest_architecture("e"), Some("rtl".to_string()));
        assert_eq!(
            mirror.peek_raw("entity.e").unwrap(),
            lib.peek_raw("entity.e").unwrap()
        );
        // In-memory snapshot/mirror text is shared, not copied: forking a
        // mirror from a mirror's snapshot bumps refcounts only.
        let snap2 = mirror.snapshot();
        let mirror2 = Library::from_snapshot(&snap2);
        let a = mirror.peek_shared("entity.e").unwrap();
        let b = mirror2.peek_shared("entity.e").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "mirror text must be shared");
        // Recompiling through put_text drops the stale stamp.
        let text = lib.peek_raw("entity.e").unwrap();
        lib.put_text("entity.e", &text).unwrap();
        assert_eq!(lib.stamp("entity.e"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One `set_stamps` or `drop_stamps` call persists all of its keys, a
    /// reopen reads them back, and a call that changes nothing writes no
    /// `stamps` file.
    #[test]
    fn multi_key_stamps_survive_a_reopen() {
        let dir = std::env::temp_dir().join(format!("vif-stamps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stamps = dir.join("stamps");
        {
            let lib = Library::on_disk("work", &dir).unwrap();
            for k in ["pkg.p", "entity.e", "arch.e.rtl"] {
                lib.put(k, &unit(k)).unwrap();
            }
            lib.drop_stamps(&["pkg.p", "entity.e"]).unwrap();
            lib.set_stamps(Vec::new()).unwrap();
            assert!(!stamps.exists(), "nothing to persist, nothing written");
            lib.set_stamps([
                ("pkg.p".to_string(), 1),
                ("entity.e".to_string(), 2),
                ("arch.e.rtl".to_string(), 3),
            ])
            .unwrap();
        }
        let lib = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib.stamp("pkg.p"), Some(1));
        assert_eq!(lib.stamp("entity.e"), Some(2));
        assert_eq!(lib.stamp("arch.e.rtl"), Some(3));
        lib.drop_stamps(&["entity.e", "arch.e.rtl", "pkg.none"])
            .unwrap();
        let lib = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib.stamp("pkg.p"), Some(1));
        assert_eq!(lib.stamp("entity.e"), None);
        assert_eq!(lib.stamp("arch.e.rtl"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A reopened library answers `text_hash` for a stamped key from its
    /// `stamps` line, with no unit file to read; once the key is stored
    /// again, a reopen reads the new file.
    #[test]
    fn stamps_keep_text_hashes_until_the_text_changes() {
        let dir = std::env::temp_dir().join(format!("vif-hashes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hash = {
            let lib = Library::on_disk("work", &dir).unwrap();
            put_bytes(&lib, "pkg.p", &unit("p"));
            let hash = lib.text_hash("pkg.p").unwrap();
            lib.set_stamps([("pkg.p".to_string(), 7)]).unwrap();
            hash
        };
        std::fs::remove_file(dir.join("pkg.p.vif")).unwrap();
        let lib = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib.stamp("pkg.p"), Some(7));
        assert_eq!(lib.text_hash("pkg.p").unwrap(), hash);

        let text = write_vif(&unit("q"));
        lib.put_text("pkg.p", &text).unwrap();
        let lib = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib.stamp("pkg.p"), None);
        assert_eq!(lib.text_hash("pkg.p").unwrap(), fnv1a(0, text.as_bytes()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `stamps` file written before lines carried hashes, or with a
    /// third field that is not hex, opens with its stamps and reads the
    /// unit files for their hashes.
    #[test]
    fn stamps_without_a_usable_hash_read_the_unit_file() {
        let dir = std::env::temp_dir().join(format!("vif-oldstamps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Library::on_disk("work", &dir).unwrap();
        put_bytes(&lib, "pkg.p", &unit("p"));
        put_bytes(&lib, "pkg.q", &unit("q"));
        let want = |key| fnv1a(0, lib.peek_raw(key).unwrap().as_bytes());
        std::fs::write(dir.join("stamps"), "pkg.p 7\npkg.q 8 not-hex\npkg.r 9 1").unwrap();
        let lib2 = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib2.stamp("pkg.p"), Some(7));
        assert_eq!(lib2.stamp("pkg.q"), Some(8));
        assert_eq!(lib2.text_hash("pkg.p").unwrap(), want("pkg.p"));
        assert_eq!(lib2.text_hash("pkg.q").unwrap(), want("pkg.q"));
        // A hash with no unit file still answers: the line is trusted.
        assert_eq!(lib2.text_hash("pkg.r").unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A history rename that fails after the unit rename leaves the new
    /// text on disk: the library then drops the key's stamp and record,
    /// serves the new text, and a reopen hashes the new file.
    #[test]
    fn failed_history_rename_forgets_the_stamp() {
        let dir = std::env::temp_dir().join(format!("vif-hist-rename-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Library::on_disk("work", &dir).unwrap();
        put_bytes(&lib, "pkg.p", &unit("p"));
        lib.text_hash("pkg.p").unwrap();
        lib.set_stamps([("pkg.p".to_string(), 7)]).unwrap();
        let history = dir.join("history");
        std::fs::remove_file(&history).unwrap();
        std::fs::create_dir_all(history.join("occupied")).unwrap();

        let text = write_vif(&unit("q"));
        assert!(lib.put_text("pkg.p", &text).is_err());
        assert_eq!(lib.stamp("pkg.p"), None);
        assert_eq!(lib.peek_raw("pkg.p").unwrap(), text);
        std::fs::remove_dir_all(&history).unwrap();
        let lib = Library::on_disk("work", &dir).unwrap();
        assert_eq!(lib.text_hash("pkg.p").unwrap(), fnv1a(0, text.as_bytes()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `contains` on disk answers from one directory listing as
    /// `Path::exists` answers: for files the history does not list, a
    /// directory in a unit file's place, a dangling link and a key whose
    /// file name is sanitized; and a store extends the listing.
    #[test]
    fn disk_contains_agrees_with_the_file_system() {
        let dir = std::env::temp_dir().join(format!("vif-contains-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Library::on_disk("work", &dir).unwrap();
        put_bytes(&lib, "pkg.stored", &unit("stored"));
        std::fs::write(dir.join("pkg.unlisted.vif"), "VIF1").unwrap();
        std::fs::create_dir(dir.join("pkg.dir.vif")).unwrap();
        std::fs::write(dir.join("pkg.a_b.vif"), "VIF1").unwrap();
        std::os::unix::fs::symlink(dir.join("nowhere"), dir.join("pkg.dangling.vif")).unwrap();
        std::os::unix::fs::symlink(dir.join("pkg.a_b.vif"), dir.join("pkg.linked.vif")).unwrap();
        let keys = [
            "pkg.stored",
            "pkg.unlisted",
            "pkg.dir",
            "pkg.a-b",
            "pkg.dangling",
            "pkg.linked",
            "pkg.absent",
            "history",
        ];
        let lib = Library::on_disk("work", &dir).unwrap();
        for key in keys {
            let exists = dir.join(format!("{}.vif", sanitize(key))).exists();
            assert_eq!(lib.contains(key), exists, "{key}");
        }
        assert!(lib.contains("pkg.unlisted") && !lib.contains("pkg.dangling"));
        put_bytes(&lib, "pkg.absent", &unit("absent"));
        assert!(lib.contains("pkg.absent"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traffic_reset() {
        let lib = Library::in_memory("work");
        put_bytes(&lib, "entity.e", &unit("e"));
        assert!(lib.traffic().bytes_written > 0);
        lib.reset_traffic();
        assert_eq!(lib.traffic(), VifTraffic::default());
    }

    /// A snapshot ships a byte record's text as the record's own `Arc`.
    #[test]
    fn snapshot_carries_sidecars_shared() {
        let lib = Library::in_memory("work");
        put_bytes(&lib, "entity.e", &unit("e"));
        let snap = lib.snapshot();
        assert_eq!(snap.units.len(), 1);
        let mirror = Library::from_snapshot(&snap);
        let a = lib.peek_shared("entity.e").unwrap();
        let b = mirror.peek_shared("entity.e").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "text buffers must be shared");
    }

    #[test]
    fn malformed_dep_names_the_offending_unit() {
        let work = Rc::new(Library::in_memory("work"));
        // mid's VIF text is malformed; top references it.
        work.put_text("pkg.mid", "VIF1\n#0 (package \"mid\" (broken")
            .unwrap();
        work.put("entity.top", &user("top", "work.pkg.mid"))
            .unwrap();
        let set = LibrarySet::new(Rc::clone(&work), vec![]);
        let err = set.load("work.entity.top").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("work.pkg.mid"),
            "error must name the offending unit, got: {msg}"
        );
        match err {
            VifError::InUnit { unit, .. } => assert_eq!(unit, "work.pkg.mid"),
            e => panic!("expected InUnit, got {e}"),
        }
        // Same attribution when the top-level unit itself is malformed.
        work.put_text("pkg.bad", "VIF1\n#0 (oops").unwrap();
        let msg = set.load("work.pkg.bad").unwrap_err().to_string();
        assert!(msg.contains("work.pkg.bad"), "{msg}");
    }

    #[test]
    fn disabled_cache_reverts_to_reread_cost_model() {
        let lib = Rc::new(Library::in_memory("work"));
        lib.put("entity.e", &unit("e")).unwrap();
        lib.set_cache_enabled(false);
        let set = LibrarySet::new(Rc::clone(&lib), vec![]);
        set.load("work.entity.e").unwrap();
        set.load("work.entity.e").unwrap();
        // No loaded-tree memo: every load re-reads.
        assert_eq!(set.traffic().units_read, 2);
    }

    #[test]
    fn fork_after_dep_recompile_sees_the_new_dep() {
        // Same top text, different dep contents: after recompiling the
        // dep, a fresh load of top must see the new dep, even though
        // top's text is unchanged.
        let work = Rc::new(Library::in_memory("work"));
        put_bytes(&work, "pkg.dep", &unit("old"));
        let top = user("fork_probe_top", "work.pkg.dep");
        put_bytes(&work, "entity.top", &top);
        let set = LibrarySet::new(Rc::clone(&work), vec![]);
        let first = set.load("work.entity.top").unwrap();
        assert_eq!(dep(&first).name(), Some("old"));

        put_bytes(&work, "pkg.dep", &unit("new"));
        // top's record still holds the old tree (driver invalidation
        // handles that); a *fork* starts with no loaded trees.
        let fork = Rc::new(Library::from_snapshot(&work.snapshot()));
        let set2 = LibrarySet::new(Rc::clone(&fork), vec![]);
        let second = set2.load("work.entity.top").unwrap();
        assert_eq!(dep(&second).name(), Some("new"));
        assert!(!Rc::ptr_eq(&first, &second));
    }

    #[test]
    fn cyclic_foreign_refs_error_instead_of_hanging() {
        let work = Rc::new(Library::in_memory("work"));
        work.put_text(
            "pkg.a",
            "VIF1\n#0 (package \"a\" (uses @\"work.pkg.b\"))\nroot #0\n",
        )
        .unwrap();
        work.put_text(
            "pkg.b",
            "VIF1\n#0 (package \"b\" (uses @\"work.pkg.a\"))\nroot #0\n",
        )
        .unwrap();
        let set = LibrarySet::new(Rc::clone(&work), vec![]);
        let err = set.load("work.pkg.a").unwrap_err();
        assert!(err.to_string().contains("deeper than"), "{err}");
    }

    #[test]
    fn text_hash_matches_binary_fnv_and_memoizes() {
        let lib = Library::in_memory("work");
        lib.put("entity.e", &unit("e")).unwrap();
        let text = lib.peek_raw("entity.e").unwrap();
        let h = lib.text_hash("entity.e").unwrap();
        assert_eq!(h, fnv1a(0, text.as_bytes()));
        // Recompile changes the hash.
        lib.put("entity.e", &unit("changed")).unwrap();
        assert_ne!(lib.text_hash("entity.e").unwrap(), h);
        assert!(lib.text_hash("entity.missing").is_err());
    }

    #[test]
    fn tree_record_text_hash_prints_no_text() {
        let lib = Library::in_memory("work");
        lib.put("entity.e", &unit("e")).unwrap();
        let h = lib.text_hash("entity.e").unwrap();
        assert!(lib.units.borrow()["entity.e"].text.get().is_none());
        assert_eq!(h, fnv1a(0, lib.peek_raw("entity.e").unwrap().as_bytes()));
    }

    /// A re-`put` on disk serves the new text, never one memoised by an
    /// earlier load.
    #[test]
    fn rewritten_disk_sidecar_is_not_served_stale() {
        let dir = std::env::temp_dir().join(format!("vif-residecar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lib = Rc::new(Library::on_disk("work", &dir).unwrap());
        let set = LibrarySet::new(Rc::clone(&lib), vec![]);
        let version = |v: &str| mk::pkg("residecar_probe", v, vec![], None);
        lib.put("entity.e", &version("a")).unwrap();
        set.load("work.entity.e").unwrap();
        lib.put("entity.e", &version("b")).unwrap();
        // The text served (and shipped in snapshots) is the new text, not
        // the one the first load read.
        let text = write_vif(&version("b"));
        assert_eq!(lib.peek_raw("entity.e").unwrap(), text);
        assert_eq!(
            lib.text_hash("entity.e").unwrap(),
            fnv1a(0, text.as_bytes())
        );
        let (_, snap_text) = &lib.snapshot().units[0];
        assert_eq!(&**snap_text, text);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tree_fork_and_disk_loads_agree() {
        // A node shared between two units: each unit's load must get its
        // own copy, as a print-and-reread gives.
        let bit = mk::ty_enum("agree_bit", "agree_bit@t", vec![]);
        let ent = mk::entity(
            "agree_e",
            "agree_e@t",
            vec![],
            vec![],
            vec![VifValue::Node(Rc::clone(&bit))],
            None,
        );
        let arch = mk::arch(
            "rtl",
            "rtl@t",
            "e",
            "work.entity.e",
            vec![VifValue::Node(Rc::clone(&bit))],
            vec![VifValue::Node(Rc::clone(&bit))],
            vec![],
            None,
        );
        let bad = user("bad", "work.entity.nope");
        let fill = |lib: &Library| {
            lib.put("entity.e", &ent).unwrap();
            lib.put("arch.e.rtl", &arch).unwrap();
            lib.put("arch.e.bad", &bad).unwrap();
        };

        let tree = Rc::new(Library::in_memory("work"));
        fill(&tree);
        assert_eq!(tree.traffic().bytes_written, 0, "a tree put makes no bytes");
        let fork = Rc::new(Library::from_snapshot(&tree.snapshot()));
        let dir = std::env::temp_dir().join(format!("vif-agree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        fill(&Library::on_disk("work", &dir).unwrap());
        let disk = Rc::new(Library::on_disk("work", &dir).unwrap());
        let reread = Rc::new(Library::in_memory("work"));
        fill(&reread);
        reread.set_cache_enabled(false);

        let load = |lib: &Rc<Library>, key: &str| LibrarySet::new(Rc::clone(lib), vec![]).load(key);
        let want = load(&tree, "work.arch.e.rtl").unwrap();
        assert_eq!(tree.traffic().bytes_read, 0, "a tree load reads no bytes");
        let sig = want.list_field(Field::decls)[0].as_node().unwrap();
        assert!(Rc::ptr_eq(
            sig,
            want.list_field(Field::cfgs)[0].as_node().unwrap()
        ));
        assert!(!Rc::ptr_eq(sig, &bit), "the load is a copy");
        let port = want.node(Field::entity).list_field(Field::decls)[0]
            .as_node()
            .unwrap();
        assert!(!Rc::ptr_eq(sig, port), "units share no nodes");
        for (what, lib) in [("fork", &fork), ("disk", &disk), ("re-read", &reread)] {
            let got = load(lib, "work.arch.e.rtl").unwrap();
            assert_eq!(got, want, "{what}");
            assert_eq!(write_vif(&got), write_vif(&want), "{what}");
        }
        for lib in [&tree, &fork, &disk, &reread] {
            assert!(matches!(
                load(lib, "work.arch.e.bad"),
                Err(VifError::MissingUnit(_))
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
