//! The pipeline-wide name interner.
//!
//! The paper threads one applicative `ENV` and a declarative VIF through
//! every compiler phase; both key on *names*. Keeping those names as heap
//! strings means every treap descent and every kind check pays allocation
//! and `memcmp`. This crate maps each distinct (case-folded) spelling to a
//! [`Symbol`] — a `u32` — once, at first sight, so that every later
//! hand-off between phases compares integers.
//!
//! Design points:
//!
//! - **Global and append-only.** Symbols never die; the text behind them
//!   is leaked once and lives for the process. That is what makes
//!   [`Symbol::as_str`] free of locks: resolution indexes an append-only
//!   chunk table published with release/acquire ordering, so `kind()`-style
//!   checks on hot paths never contend.
//! - **Case folding at the door.** VHDL identifiers are case-insensitive
//!   (LRM §13.3); [`Symbol::intern_ci`] folds with the same
//!   `to_ascii_lowercase` rule the lexer used to apply by hand, so symbol
//!   equality *is* folded-string equality. [`Symbol::intern`] interns
//!   verbatim for texts that are already normalized (VIF kinds, field
//!   names, literals).
//! - **Zero allocation on hits.** Interning an already-known spelling is a
//!   hash probe; folding happens on the fly while hashing, so even
//!   `intern_ci("CLK")` allocates nothing when `clk` is known.
//! - **Deterministic.** Ids are assigned in first-intern order; a given
//!   compilation interns in source order, so runs are reproducible.
//!
//! Thread-safety: interning an already-known spelling is lock-free — the
//! hash table is published through an atomic pointer and its slots are
//! written exactly once, so hit probes are plain `Acquire` loads. Only a
//! miss (a genuinely new spelling) or a table growth takes the writer
//! mutex. Resolution never locks. A `Symbol` is only obtainable through a
//! synchronized hand-off (a `Release`-published slot or any safe-Rust
//! channel), which establishes the happens-before edge resolution relies
//! on. Batch-compiler workers intern concurrently on the hot attribute
//! paths, so the hit path staying contention-free is load-bearing.

use std::fmt;
use std::num::NonZeroU32;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Strings per chunk of the resolution table.
const CHUNK: usize = 1024;
/// Maximum chunks — caps the interner at ~4M distinct spellings.
const MAX_CHUNKS: usize = 4096;

/// An interned name: a dense `u32` id. Copyable, integer-comparable, and
/// resolvable back to its text with [`Symbol::as_str`] (no lock).
///
/// Equality and ordering are by id — two symbols are equal iff their
/// (folded) spellings are equal. The `Ord` impl is *id order* (a stable
/// total order suitable for search trees), not lexicographic order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(NonZeroU32);

impl Symbol {
    /// Interns `text` verbatim and returns its symbol.
    pub fn intern(text: &str) -> Symbol {
        intern_impl(text, false)
    }

    /// Interns `text` case-insensitively: folds ASCII upper case to lower
    /// (the VHDL LRM identifier rule, matching the lexer) and interns the
    /// folded spelling. `intern_ci("CLK") == intern("clk")`.
    pub fn intern_ci(text: &str) -> Symbol {
        intern_impl(text, true)
    }

    /// The interned text. Lock-free: indexes the append-only chunk table.
    pub fn as_str(self) -> &'static str {
        let idx = (self.0.get() - 1) as usize;
        let chunk = CHUNKS[idx / CHUNK].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "symbol from a foreign interner");
        // SAFETY: a Symbol is only handed out after its slot was written
        // and the write published through the intern mutex (or the chunk
        // pointer's release store); possessing `self` implies that
        // hand-off happened-before this load.
        unsafe { (*chunk)[idx % CHUNK] }
    }

    /// The 0-based id (dense; first-intern order).
    pub fn id(self) -> u32 {
        self.0.get() - 1
    }

    /// Rebuilds a symbol from [`Symbol::id`]. Returns `None` for ids never
    /// handed out.
    pub fn from_id(id: u32) -> Option<Symbol> {
        (u64::from(id) < SYMBOLS.load(Ordering::Acquire))
            .then(|| Symbol(NonZeroU32::new(id + 1).expect("id + 1 > 0")))
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<Symbol> for Rc<str> {
    fn from(s: Symbol) -> Rc<str> {
        Rc::from(s.as_str())
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_string()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Things usable as a name key: a [`Symbol`] (free), or any string-ish
/// (interned on the way in). Lets `Env::bind`, `VifNode::field`, and
/// friends accept either without call-site ceremony.
pub trait ToSym {
    /// The symbol for this name.
    fn to_sym(&self) -> Symbol;
}

impl ToSym for Symbol {
    fn to_sym(&self) -> Symbol {
        *self
    }
}

impl ToSym for str {
    fn to_sym(&self) -> Symbol {
        Symbol::intern(self)
    }
}

impl ToSym for String {
    fn to_sym(&self) -> Symbol {
        Symbol::intern(self)
    }
}

impl ToSym for Rc<str> {
    fn to_sym(&self) -> Symbol {
        Symbol::intern(self)
    }
}

impl<T: ToSym + ?Sized> ToSym for &T {
    fn to_sym(&self) -> Symbol {
        (**self).to_sym()
    }
}

/// Interner observability — the `--trace-phases` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Distinct symbols interned so far.
    pub symbols: u64,
    /// Total bytes of interned text (live forever).
    pub bytes: u64,
}

/// Snapshots the global interner's counters.
pub fn stats() -> Stats {
    Stats {
        symbols: SYMBOLS.load(Ordering::Acquire),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Implementation.

/// Open-addressing map from (folded) spelling hash to symbol id + 1
/// (slot 0 = empty). Strings live in `CHUNKS`; the map stores only ids.
///
/// Tables are immutable in shape once published: a slot transitions
/// `0 → id+1` exactly once (under the writer mutex, `Release`), and
/// growth publishes a *new* table through [`TABLE`], leaking the old one
/// — readers still probing it see a valid, merely stale, view and fall
/// through to the locked slow path on a miss. That is what makes the hit
/// path lock-free.
struct Map {
    slots: Box<[AtomicU32]>,
    mask: usize,
}

impl Map {
    fn alloc(cap: usize) -> &'static Map {
        let slots: Box<[AtomicU32]> = (0..cap).map(|_| AtomicU32::new(0)).collect();
        Box::leak(Box::new(Map {
            slots,
            mask: cap - 1,
        }))
    }

    /// Probes for `text`. `Ok(sym)` on a hit; `Err(slot)` with the first
    /// empty slot index seen on a miss (only meaningful to the writer,
    /// which re-probes under the lock anyway).
    fn probe(&self, h: u64, text: &str, folded: bool) -> Result<Symbol, usize> {
        let mut i = (h as usize) & self.mask;
        loop {
            match self.slots[i].load(Ordering::Acquire) {
                0 => return Err(i),
                id_plus_1 => {
                    if eq_folded(resolve_raw(id_plus_1 - 1), text, folded) {
                        return Ok(Symbol(NonZeroU32::new(id_plus_1).expect("nonzero slot")));
                    }
                    i = (i + 1) & self.mask;
                }
            }
        }
    }
}

/// The current table, `Release`-published; null until the first intern.
static TABLE: AtomicPtr<Map> = AtomicPtr::new(std::ptr::null_mut());

/// Writer lock: guards misses and growth. Holds the live symbol count.
static WRITER: Mutex<usize> = Mutex::new(0);

/// Append-only resolution table: `CHUNKS[i]` covers ids
/// `[i*CHUNK, (i+1)*CHUNK)`. Chunk pointers are published with `Release`
/// and never change once set.
static CHUNKS: [AtomicPtr<[&'static str; CHUNK]>; MAX_CHUNKS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const NULL: AtomicPtr<[&'static str; CHUNK]> = AtomicPtr::new(std::ptr::null_mut());
    [NULL; MAX_CHUNKS]
};

static SYMBOLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// FNV-1a over the (optionally folded) bytes of `s`.
fn hash_of(s: &str, ci: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for mut b in s.bytes() {
        if ci {
            b = b.to_ascii_lowercase();
        }
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `true` when `stored` equals `candidate` after folding the candidate.
fn eq_folded(stored: &str, candidate: &str, ci: bool) -> bool {
    if stored.len() != candidate.len() {
        return false;
    }
    if ci {
        stored
            .bytes()
            .zip(candidate.bytes())
            .all(|(a, b)| a == b.to_ascii_lowercase())
    } else {
        stored == candidate
    }
}

fn intern_impl(text: &str, ci: bool) -> Symbol {
    let needs_fold = ci && text.bytes().any(|b| b.is_ascii_uppercase());
    let h = hash_of(text, needs_fold);

    // Fast path: lock-free probe of the published table. Hits — the
    // overwhelming majority of calls — never touch the writer mutex.
    let table = TABLE.load(Ordering::Acquire);
    if !table.is_null() {
        if let Ok(sym) = unsafe { &*table }.probe(h, text, needs_fold) {
            return sym;
        }
    }

    // Slow path: take the writer lock and re-probe the *latest* table —
    // another thread may have interned `text`, or grown the table, since
    // the lock-free probe.
    let mut len = WRITER.lock().expect("interner poisoned");
    let mut table = TABLE.load(Ordering::Acquire);
    if table.is_null() {
        let fresh: *const Map = Map::alloc(1024);
        TABLE.store(fresh.cast_mut(), Ordering::Release);
        table = fresh.cast_mut();
    }
    let map = unsafe { &*table };
    let i = match map.probe(h, text, needs_fold) {
        Ok(sym) => return sym,
        Err(i) => i,
    };

    // Genuine miss: leak the (folded) spelling, append it to the chunk
    // table, then publish the slot.
    let stored: &'static str = if needs_fold {
        Box::leak(text.to_ascii_lowercase().into_boxed_str())
    } else {
        Box::leak(text.to_string().into_boxed_str())
    };
    let id = *len as u32;
    assert!(
        (id as usize) < CHUNK * MAX_CHUNKS,
        "interner full: {} symbols",
        id
    );
    let (ci_idx, slot_idx) = (id as usize / CHUNK, id as usize % CHUNK);
    let mut chunk = CHUNKS[ci_idx].load(Ordering::Acquire);
    if chunk.is_null() {
        chunk = Box::into_raw(Box::new([""; CHUNK]));
        CHUNKS[ci_idx].store(chunk, Ordering::Release);
    }
    // SAFETY: chunk slot `id` is written exactly once, here, under the
    // writer mutex, before the id is published below.
    unsafe {
        (*chunk)[slot_idx] = stored;
    }
    // Publish: the Release store pairs with the Acquire probe load, so
    // any thread that reads `id + 1` from this slot also sees the chunk
    // write above.
    map.slots[i].store(id + 1, Ordering::Release);
    *len += 1;
    BYTES.fetch_add(stored.len() as u64, Ordering::Relaxed);
    SYMBOLS.store(*len as u64, Ordering::Release);
    if *len * 4 >= map.slots.len() * 3 {
        grow(map, *len);
    }
    Symbol(NonZeroU32::new(id + 1).expect("id + 1 > 0"))
}

/// Resolution for the intern path (caller holds the map mutex, so plain
/// loads suffice; ids in the map are always initialized).
fn resolve_raw(id: u32) -> &'static str {
    let idx = id as usize;
    let chunk = CHUNKS[idx / CHUNK].load(Ordering::Acquire);
    unsafe { (*chunk)[idx % CHUNK] }
}

/// Doubles the table (writer lock held). The old table is leaked — a
/// reader may still be probing it; it sees a valid prefix of the symbols
/// and re-checks the latest table under the lock on a miss. Total leak
/// across all growths is bounded by twice the final table size.
fn grow(map: &Map, len: usize) {
    let new_cap = map.slots.len() * 2;
    let fresh = Map::alloc(new_cap);
    let mut moved = 0usize;
    for s in &map.slots {
        let s = s.load(Ordering::Acquire);
        if s == 0 {
            continue;
        }
        // Stored strings are already folded; hash verbatim.
        let h = hash_of(resolve_raw(s - 1), false);
        let mut i = (h as usize) & fresh.mask;
        while fresh.slots[i].load(Ordering::Relaxed) != 0 {
            i = (i + 1) & fresh.mask;
        }
        fresh.slots[i].store(s, Ordering::Release);
        moved += 1;
    }
    debug_assert_eq!(moved, len);
    let fresh: *const Map = fresh;
    TABLE.store(fresh.cast_mut(), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips() {
        let a = Symbol::intern("clk");
        assert_eq!(a.as_str(), "clk");
        assert_eq!(&*a, "clk");
        assert_eq!(a.to_string(), "clk");
        assert_eq!(format!("{a:?}"), "\"clk\"");
    }

    #[test]
    fn equality_is_by_spelling() {
        assert_eq!(Symbol::intern("entity_x"), Symbol::intern("entity_x"));
        assert_ne!(Symbol::intern("entity_x"), Symbol::intern("entity_y"));
    }

    #[test]
    fn case_folding_matches_lexer_rule() {
        assert_eq!(Symbol::intern_ci("CLK2"), Symbol::intern("clk2"));
        assert_eq!(Symbol::intern_ci("Foo_Bar"), Symbol::intern_ci("fOO_bAR"));
        assert_eq!(Symbol::intern_ci("MixedCase").as_str(), "mixedcase");
        // Exact intern is verbatim.
        assert_ne!(Symbol::intern("UP"), Symbol::intern("up"));
    }

    #[test]
    fn ids_are_dense_and_recoverable() {
        let s = Symbol::intern("dense_id_probe");
        assert_eq!(Symbol::from_id(s.id()), Some(s));
        assert_eq!(Symbol::from_id(u32::MAX), None);
    }

    #[test]
    fn conversions() {
        let s = Symbol::intern("conv");
        let rc: Rc<str> = s.into();
        assert_eq!(&*rc, "conv");
        let st: String = s.into();
        assert_eq!(st, "conv");
        assert_eq!(Symbol::from("conv"), s);
        assert!(s == "conv");
        assert!(s == *"conv");
    }

    #[test]
    fn to_sym_accepts_strings_and_symbols() {
        fn key(k: impl ToSym) -> Symbol {
            k.to_sym()
        }
        let s = Symbol::intern("k");
        assert_eq!(key(s), s);
        assert_eq!(key(s), s);
        assert_eq!(key("k"), s);
        assert_eq!(key(String::from("k")), s);
        assert_eq!(key(String::from("k")), s);
        let rc: Rc<str> = "k".into();
        assert_eq!(key(&rc), s);
    }

    #[test]
    fn many_symbols_survive_growth() {
        let syms: Vec<Symbol> = (0..5000)
            .map(|i| Symbol::intern(&format!("growth_{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("growth_{i}"));
            assert_eq!(Symbol::intern(&format!("growth_{i}")), *s);
        }
    }

    #[test]
    fn stats_move() {
        let before = stats();
        let _ = Symbol::intern("stats_probe_unique_xyzzy");
        let _ = Symbol::intern("stats_probe_unique_xyzzy");
        let after = stats();
        assert!(after.symbols > 0);
        assert!(after.symbols >= before.symbols);
        assert!(after.bytes >= before.bytes);
    }
}
