//! VIFB: the binary VIF encoding plus the structural node cache.
//!
//! Text VIF ([`crate::text`]) stays the canonical interchange format and
//! the golden oracle — VIFB is a *performance sidecar*: a compact,
//! versioned, checksummed flat encoding of the same node graph that can be
//! decoded without re-lexing text, and (being plain bytes) shipped across
//! threads, where the `Rc`-based node graph cannot. Decoding a valid VIFB
//! buffer yields a tree whose [`crate::write_vif`] output is byte-identical
//! to the text the buffer was derived from.
//!
//! # Layout
//!
//! ```text
//! "VIFB"  magic
//! u32     version (little-endian)
//! u64     fnv1a hash of the canonical VIF *text* (little-endian)
//! varint  string count, then per string: varint length + UTF-8 bytes
//! varint  foreign-ref count, then per ref: varint string index
//! varint  node count, then per node (postorder: children first):
//!         varint kind-string index
//!         varint name-string index + 1 (0 = unnamed)
//!         varint field count, then per field:
//!           varint field-name string index
//!           tagged value (see below)
//! varint  root node index
//! u64     fnv1a checksum of every preceding byte (little-endian)
//! ```
//!
//! Values are a tag byte followed by the payload: `0` nil, `1`/`2`
//! false/true, `3` zigzag-varint integer, `4` eight bytes of IEEE double
//! bits, `5` string index, `6` node index, `7` varint count + elements,
//! `8` foreign-ref string index. Nodes are numbered in **postorder**, so
//! every node reference points to a strictly smaller index — decoding is a
//! single forward loop with no recursion over nodes, which is what makes
//! hostile deeply-nested buffers a rejection instead of a stack overflow.
//!
//! The per-buffer string table is deduplicated and interned into
//! [`ag_intern`] lazily on decode: kinds, names, and field names become
//! [`Symbol`]s once per distinct spelling per buffer, while string *values*
//! become shared `Rc<str>`s without touching the interner.
//!
//! # The structural node cache
//!
//! [`cache_lookup`]/[`cache_insert`] memoize decoded trees per thread,
//! keyed by a caller-computed **content hash** (the unit's text hash
//! combined with the content hashes of its resolved foreign dependencies —
//! see `LibrarySet::content_hash`). Worker threads that rebuild mirror
//! libraries every batch, and server sessions sharing a shard thread, turn
//! repeated dependency loads into pointer shares. Counters are global
//! atomics so `vhdlc --stats` and `vhdld stats` can report totals across
//! all threads.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use ag_intern::Symbol;

use crate::node::{VifNode, VifValue};
use crate::text::{Resolver, VifError};

/// Magic bytes of a VIFB buffer.
pub const VIFB_MAGIC: [u8; 4] = *b"VIFB";
/// Current VIFB format version.
pub const VIFB_VERSION: u32 = 1;
/// Maximum list nesting depth accepted while decoding (hostile buffers
/// can nest a list per two bytes; real VIF nests a handful of levels).
const MAX_LIST_DEPTH: usize = 64;

/// Ways a VIFB buffer can be rejected. Hostile input is always an error,
/// never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VifbError {
    /// Not a VIFB buffer.
    BadMagic,
    /// A VIFB buffer from an incompatible format version.
    BadVersion(u32),
    /// The buffer ends before the structure does.
    Truncated,
    /// The trailing checksum does not match the content.
    Checksum,
    /// Structurally invalid content (out-of-range index, bad UTF-8,
    /// forward node reference, over-deep nesting, trailing bytes, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for VifbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VifbError::BadMagic => write!(f, "not a VIFB buffer (bad magic)"),
            VifbError::BadVersion(v) => write!(f, "unsupported VIFB version {v}"),
            VifbError::Truncated => write!(f, "truncated VIFB buffer"),
            VifbError::Checksum => write!(f, "VIFB checksum mismatch"),
            VifbError::Corrupt(what) => write!(f, "corrupt VIFB buffer: {what}"),
        }
    }
}

/// 64-bit FNV-1a over bytes (the same constants and seeding convention as
/// `depgraph::fnv1a_bytes`: a zero state starts at the offset basis).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serializes a node graph to VIFB. `text_hash` is the FNV-1a hash of the
/// graph's canonical [`crate::write_vif`] text (via [`fnv1a`] seeded with
/// 0); it is embedded in the header so a sidecar can be validated against
/// the text it claims to encode without decoding it.
pub fn encode_vifb(root: &Rc<VifNode>, text_hash: u64) -> Vec<u8> {
    let _t = ag_harness::trace::span("vifb-encode");
    STATS_ENCODES.fetch_add(1, Ordering::Relaxed);
    let order = postorder(root);
    let ids: HashMap<*const VifNode, u64> = order
        .iter()
        .enumerate()
        .map(|(i, n)| (Rc::as_ptr(n), i as u64))
        .collect();

    let (strtab, stridx, foreigns) = collect_strings(&order);

    let mut out = Vec::with_capacity(64 + 16 * order.len());
    out.extend_from_slice(&VIFB_MAGIC);
    out.extend_from_slice(&VIFB_VERSION.to_le_bytes());
    out.extend_from_slice(&text_hash.to_le_bytes());
    put_varint(&mut out, strtab.len() as u64);
    for s in &strtab {
        put_varint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    put_varint(&mut out, foreigns.len() as u64);
    for &f in &foreigns {
        put_varint(&mut out, f);
    }
    put_varint(&mut out, order.len() as u64);
    fn emit_value(
        out: &mut Vec<u8>,
        v: &VifValue,
        ids: &HashMap<*const VifNode, u64>,
        stridx: &HashMap<&str, u64>,
    ) {
        match v {
            VifValue::Nil => out.push(0),
            VifValue::Bool(false) => out.push(1),
            VifValue::Bool(true) => out.push(2),
            VifValue::Int(i) => {
                out.push(3);
                put_varint(out, zigzag(*i));
            }
            VifValue::Real(r) => {
                out.push(4);
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            VifValue::Str(s) => {
                out.push(5);
                put_varint(out, stridx[&**s]);
            }
            VifValue::Node(n) => {
                out.push(6);
                put_varint(out, ids[&Rc::as_ptr(n)]);
            }
            VifValue::List(l) => {
                out.push(7);
                put_varint(out, l.len() as u64);
                for v in l.iter() {
                    emit_value(out, v, ids, stridx);
                }
            }
            VifValue::Foreign(r) => {
                out.push(8);
                put_varint(out, stridx[&**r]);
            }
        }
    }
    for n in &order {
        put_varint(&mut out, stridx[n.kind()]);
        match n.name() {
            Some(name) => put_varint(&mut out, stridx[name] + 1),
            None => put_varint(&mut out, 0),
        }
        put_varint(&mut out, n.fields().len() as u64);
        for (fname, v) in n.fields() {
            put_varint(&mut out, stridx[fname.as_str()]);
            emit_value(&mut out, v, &ids, &stridx);
        }
    }
    put_varint(&mut out, ids[&Rc::as_ptr(root)]);
    let seal = fnv1a(0, &out);
    out.extend_from_slice(&seal.to_le_bytes());
    out
}

/// Deduplicated string table in first-use order, plus the index map and
/// the foreign-ref subset (header probes read the latter without touching
/// the node table). All strings borrow from the postorder node list:
/// symbol spellings are `'static`, `Rc<str>` contents live as long as
/// their nodes.
#[allow(clippy::type_complexity)]
fn collect_strings<'a>(
    order: &'a [Rc<VifNode>],
) -> (Vec<&'a str>, HashMap<&'a str, u64>, Vec<u64>) {
    let mut strtab: Vec<&'a str> = Vec::new();
    let mut stridx: HashMap<&'a str, u64> = HashMap::new();
    let mut foreigns: Vec<u64> = Vec::new();
    fn add<'a>(s: &'a str, strtab: &mut Vec<&'a str>, stridx: &mut HashMap<&'a str, u64>) -> u64 {
        match stridx.get(s) {
            Some(&i) => i,
            None => {
                let i = strtab.len() as u64;
                strtab.push(s);
                stridx.insert(s, i);
                i
            }
        }
    }
    fn walk_value<'a>(
        v: &'a VifValue,
        strtab: &mut Vec<&'a str>,
        stridx: &mut HashMap<&'a str, u64>,
        fr: &mut Vec<u64>,
    ) {
        match v {
            VifValue::Str(s) => {
                add(s, strtab, stridx);
            }
            VifValue::Foreign(r) => {
                let i = add(r, strtab, stridx);
                if !fr.contains(&i) {
                    fr.push(i);
                }
            }
            VifValue::List(l) => {
                for v in l.iter() {
                    walk_value(v, strtab, stridx, fr);
                }
            }
            _ => {}
        }
    }
    for n in order {
        add(n.kind(), &mut strtab, &mut stridx);
        if let Some(name) = n.name() {
            add(name, &mut strtab, &mut stridx);
        }
        for (fname, v) in n.fields() {
            add(fname.as_str(), &mut strtab, &mut stridx);
            walk_value(v, &mut strtab, &mut stridx, &mut foreigns);
        }
    }
    (strtab, stridx, foreigns)
}

/// Postorder over the node DAG with sharing (every node once, children
/// before parents), iteratively — encode depth is bounded by an explicit
/// stack, not the call stack.
fn postorder(root: &Rc<VifNode>) -> Vec<Rc<VifNode>> {
    enum Item {
        Enter(Rc<VifNode>),
        Exit(Rc<VifNode>),
    }
    let mut done: std::collections::HashSet<*const VifNode> = std::collections::HashSet::new();
    let mut pending: std::collections::HashSet<*const VifNode> = std::collections::HashSet::new();
    let mut order = Vec::new();
    let mut stack = vec![Item::Enter(Rc::clone(root))];
    fn child_nodes(v: &VifValue, out: &mut Vec<Rc<VifNode>>) {
        match v {
            VifValue::Node(n) => out.push(Rc::clone(n)),
            VifValue::List(l) => {
                for v in l.iter() {
                    child_nodes(v, out);
                }
            }
            _ => {}
        }
    }
    while let Some(item) = stack.pop() {
        match item {
            Item::Enter(n) => {
                let p = Rc::as_ptr(&n);
                if done.contains(&p) || !pending.insert(p) {
                    continue;
                }
                let mut kids = Vec::new();
                for (_, v) in n.fields() {
                    child_nodes(v, &mut kids);
                }
                stack.push(Item::Exit(n));
                for k in kids.into_iter().rev() {
                    stack.push(Item::Enter(k));
                }
            }
            Item::Exit(n) => {
                done.insert(Rc::as_ptr(&n));
                order.push(n);
            }
        }
    }
    order
}

/// What a header probe learns about a buffer without building nodes.
#[derive(Clone, Debug)]
pub struct VifbHeader {
    /// FNV-1a hash of the canonical text this buffer encodes.
    pub text_hash: u64,
    /// Foreign references (`lib.unit_key`) the encoded unit depends on,
    /// in first-occurrence order.
    pub foreigns: Vec<Rc<str>>,
}

struct Dec<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.i
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], VifbError> {
        if self.remaining() < n {
            return Err(VifbError::Truncated);
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, VifbError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, VifbError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, VifbError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return Err(VifbError::Corrupt("varint overflow"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(VifbError::Corrupt("varint too long"))
    }

    /// A count that prefixes `min_bytes`-wide elements: anything larger
    /// than the remaining bytes cannot possibly be satisfied, so hostile
    /// counts are rejected before any allocation sized by them.
    fn count(&mut self, min_bytes: usize, what: &'static str) -> Result<usize, VifbError> {
        let n = self.varint()?;
        if (n as usize)
            .checked_mul(min_bytes.max(1))
            .unwrap_or(usize::MAX)
            > self.remaining()
        {
            return Err(VifbError::Corrupt(what));
        }
        Ok(n as usize)
    }
}

/// Validates the envelope (magic, version, checksum) and returns a decoder
/// positioned after the `text_hash` field, plus that hash. The checksum is
/// verified before any content is interpreted, so most corruption is
/// caught here.
fn open(bytes: &[u8]) -> Result<(Dec<'_>, u64), VifbError> {
    if bytes.len() < 4 + 4 + 8 + 8 {
        return Err(VifbError::Truncated);
    }
    if bytes[..4] != VIFB_MAGIC {
        return Err(VifbError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VIFB_VERSION {
        return Err(VifbError::BadVersion(version));
    }
    let body = &bytes[..bytes.len() - 8];
    let seal = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a(0, body) != seal {
        return Err(VifbError::Checksum);
    }
    let mut d = Dec { b: body, i: 8 };
    let text_hash = d.u64()?;
    Ok((d, text_hash))
}

fn read_strings(d: &mut Dec<'_>) -> Result<Vec<Rc<str>>, VifbError> {
    let count = d.count(1, "string count exceeds buffer")?;
    let mut strings: Vec<Rc<str>> = Vec::with_capacity(count);
    for _ in 0..count {
        let len = d.varint()? as usize;
        let bytes = d.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| VifbError::Corrupt("string not UTF-8"))?;
        strings.push(Rc::from(s));
    }
    Ok(strings)
}

fn read_foreigns(d: &mut Dec<'_>, strings: &[Rc<str>]) -> Result<Vec<Rc<str>>, VifbError> {
    let count = d.count(1, "foreign count exceeds buffer")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let idx = d.varint()? as usize;
        let s = strings
            .get(idx)
            .ok_or(VifbError::Corrupt("foreign string index out of range"))?;
        out.push(Rc::clone(s));
    }
    Ok(out)
}

/// Reads a buffer's header — text hash and foreign-ref list — validating
/// magic, version, and checksum but building no nodes. This is how the
/// library layer computes content hashes and validates sidecars cheaply.
///
/// # Errors
///
/// [`VifError::Binary`] for every rejected buffer; never panics.
pub fn probe_vifb(bytes: &[u8]) -> Result<VifbHeader, VifError> {
    let (mut d, text_hash) = open(bytes).map_err(VifError::Binary)?;
    let strings = read_strings(&mut d).map_err(VifError::Binary)?;
    let foreigns = read_foreigns(&mut d, &strings).map_err(VifError::Binary)?;
    Ok(VifbHeader {
        text_hash,
        foreigns,
    })
}

/// Decodes a VIFB buffer back into a node graph, resolving foreign
/// references through `resolve` exactly as [`crate::read_vif`] does
/// (eagerly, in buffer order).
///
/// # Errors
///
/// [`VifError::Binary`] for corrupted/truncated/version-mismatched input
/// (never a panic), or whatever `resolve` returns for an unresolvable
/// reference.
pub fn decode_vifb(bytes: &[u8], resolve: &mut Resolver<'_>) -> Result<Rc<VifNode>, VifError> {
    let _t = ag_harness::trace::span("vifb-decode");
    let (mut d, _text_hash) = open(bytes).map_err(VifError::Binary)?;
    let strings = read_strings(&mut d).map_err(VifError::Binary)?;
    read_foreigns(&mut d, &strings).map_err(VifError::Binary)?;

    // Symbols are interned lazily, once per distinct string per buffer —
    // the "per-buffer symbol table mapping into ag-intern". String values
    // never touch the interner.
    let mut syms: Vec<Option<Symbol>> = vec![None; strings.len()];
    let mut sym =
        |i: usize| -> Symbol { *syms[i].get_or_insert_with(|| Symbol::intern(&strings[i])) };

    let node_count = d
        .count(3, "node count exceeds buffer")
        .map_err(VifError::Binary)?;
    let mut nodes: Vec<Rc<VifNode>> = Vec::with_capacity(node_count);
    fn read_value(
        d: &mut Dec<'_>,
        strings: &[Rc<str>],
        nodes: &[Rc<VifNode>],
        resolve: &mut Resolver<'_>,
        depth: usize,
    ) -> Result<VifValue, VifError> {
        if depth > MAX_LIST_DEPTH {
            return Err(VifError::Binary(VifbError::Corrupt(
                "list nesting too deep",
            )));
        }
        let b = |e| VifError::Binary(e);
        Ok(match d.u8().map_err(b)? {
            0 => VifValue::Nil,
            1 => VifValue::Bool(false),
            2 => VifValue::Bool(true),
            3 => VifValue::Int(unzigzag(d.varint().map_err(b)?)),
            4 => VifValue::Real(f64::from_bits(d.u64().map_err(b)?)),
            5 => {
                let i = d.varint().map_err(b)? as usize;
                let s = strings
                    .get(i)
                    .ok_or(b(VifbError::Corrupt("string index out of range")))?;
                VifValue::Str(Rc::clone(s))
            }
            6 => {
                // Postorder invariant: references point strictly backward,
                // so a forward (or self) reference is corruption, and the
                // whole table decodes in one non-recursive pass.
                let i = d.varint().map_err(b)? as usize;
                let n = nodes
                    .get(i)
                    .ok_or(b(VifbError::Corrupt("forward node reference")))?;
                VifValue::Node(Rc::clone(n))
            }
            7 => {
                let count = d.count(1, "list count exceeds buffer").map_err(b)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(read_value(d, strings, nodes, resolve, depth + 1)?);
                }
                VifValue::list(items)
            }
            8 => {
                let i = d.varint().map_err(b)? as usize;
                let r = strings
                    .get(i)
                    .ok_or(b(VifbError::Corrupt("foreign string index out of range")))?;
                VifValue::Node(resolve(r)?)
            }
            _ => return Err(b(VifbError::Corrupt("unknown value tag"))),
        })
    }
    for _ in 0..node_count {
        let b = VifError::Binary;
        let kind_i = d.varint().map_err(b)? as usize;
        if kind_i >= strings.len() {
            return Err(b(VifbError::Corrupt("kind string index out of range")));
        }
        let mut builder = VifNode::build(sym(kind_i));
        let name_code = d.varint().map_err(b)? as usize;
        if name_code > 0 {
            let name_i = name_code - 1;
            if name_i >= strings.len() {
                return Err(b(VifbError::Corrupt("name string index out of range")));
            }
            builder = builder.name(sym(name_i));
        }
        let field_count = d.count(2, "field count exceeds buffer").map_err(b)?;
        for _ in 0..field_count {
            let fname_i = d.varint().map_err(b)? as usize;
            if fname_i >= strings.len() {
                return Err(b(VifbError::Corrupt("field string index out of range")));
            }
            let fname = sym(fname_i);
            let v = read_value(&mut d, &strings, &nodes, resolve, 0)?;
            builder = builder.field(fname, v);
        }
        nodes.push(builder.done());
    }
    let root = d.varint().map_err(VifError::Binary)? as usize;
    if d.remaining() != 0 {
        return Err(VifError::Binary(VifbError::Corrupt("trailing bytes")));
    }
    let root = nodes.get(root).ok_or(VifError::Binary(VifbError::Corrupt(
        "root index out of range",
    )))?;
    STATS_DECODES.fetch_add(1, Ordering::Relaxed);
    Ok(Rc::clone(root))
}

// ---------------------------------------------------------------------------
// Structural node cache
// ---------------------------------------------------------------------------

/// Entries kept per thread before the cache is wholesale cleared. Decoded
/// trees are small relative to this bound in practice; clearing is the
/// simplest eviction that cannot leak unboundedly.
const CACHE_CAP: usize = 1024;

thread_local! {
    static NODE_CACHE: RefCell<HashMap<u64, Rc<VifNode>>> =
        RefCell::new(HashMap::new());
}

static STATS_HITS: AtomicU64 = AtomicU64::new(0);
static STATS_MISSES: AtomicU64 = AtomicU64::new(0);
static STATS_DECODES: AtomicU64 = AtomicU64::new(0);
static STATS_ENCODES: AtomicU64 = AtomicU64::new(0);
static STATS_TEXT_PARSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of the structural cache and codec (summed over
/// all threads; caches themselves are thread-local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VifbStats {
    /// Structural cache hits: unit loads served as pointer shares.
    pub cache_hits: u64,
    /// Structural cache misses: unit loads that had to decode or parse.
    pub cache_misses: u64,
    /// Successful binary decodes.
    pub decodes: u64,
    /// Binary encodes.
    pub encodes: u64,
    /// Unit loads that fell back to parsing VIF text (no sidecar, or a
    /// sidecar that failed validation).
    pub text_parses: u64,
}

/// Reads the process-wide VIFB counters.
pub fn vifb_stats() -> VifbStats {
    VifbStats {
        cache_hits: STATS_HITS.load(Ordering::Relaxed),
        cache_misses: STATS_MISSES.load(Ordering::Relaxed),
        decodes: STATS_DECODES.load(Ordering::Relaxed),
        encodes: STATS_ENCODES.load(Ordering::Relaxed),
        text_parses: STATS_TEXT_PARSES.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide VIFB counters (benchmark phases).
pub fn reset_vifb_stats() {
    STATS_HITS.store(0, Ordering::Relaxed);
    STATS_MISSES.store(0, Ordering::Relaxed);
    STATS_DECODES.store(0, Ordering::Relaxed);
    STATS_ENCODES.store(0, Ordering::Relaxed);
    STATS_TEXT_PARSES.store(0, Ordering::Relaxed);
}

pub(crate) fn note_text_parse() {
    STATS_TEXT_PARSES.fetch_add(1, Ordering::Relaxed);
}

/// Looks up a decoded tree by content hash in this thread's cache.
pub fn cache_lookup(content_hash: u64) -> Option<Rc<VifNode>> {
    let hit = NODE_CACHE.with(|c| c.borrow().get(&content_hash).cloned());
    match &hit {
        Some(_) => STATS_HITS.fetch_add(1, Ordering::Relaxed),
        None => STATS_MISSES.fetch_add(1, Ordering::Relaxed),
    };
    hit
}

/// Memoizes a decoded tree under its content hash in this thread's cache.
pub fn cache_insert(content_hash: u64, node: &Rc<VifNode>) {
    NODE_CACHE.with(|c| {
        let mut m = c.borrow_mut();
        if m.len() >= CACHE_CAP {
            m.clear();
        }
        m.insert(content_hash, Rc::clone(node));
    });
}

/// Drops every entry of this thread's structural cache (tests, benches).
pub fn clear_node_cache() {
    NODE_CACHE.with(|c| c.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{read_vif, write_vif};

    fn no_foreign(r: &str) -> Result<Rc<VifNode>, VifError> {
        Err(VifError::Unresolved(r.to_string()))
    }

    fn sample() -> Rc<VifNode> {
        let shared = VifNode::build("type")
            .name("bit")
            .int_field("width", 1)
            .done();
        let port = VifNode::build("port")
            .name("clk")
            .node_field("type", Rc::clone(&shared))
            .done();
        VifNode::build("entity")
            .name("e")
            .list_field(
                "ports",
                vec![
                    VifValue::Node(port),
                    VifValue::Node(shared),
                    VifValue::list(vec![VifValue::Int(-7), VifValue::Bool(true)]),
                ],
            )
            .field("flag", VifValue::Bool(false))
            .field("ratio", VifValue::Real(-2.5))
            .field("none", VifValue::Nil)
            .str_field("note", "say \"hi\"\nline2")
            .done()
    }

    #[test]
    fn round_trip_reprints_byte_identical() {
        let root = sample();
        let text = write_vif(&root);
        let bytes = encode_vifb(&root, fnv1a(0, text.as_bytes()));
        let back = decode_vifb(&bytes, &mut no_foreign).unwrap();
        assert_eq!(back, root);
        assert_eq!(write_vif(&back), text, "text is the golden oracle");
        // Sharing survives: the type node is one allocation.
        let port = back.list_field("ports")[0].as_node().unwrap();
        let ty1 = port.node_field("type").unwrap();
        let ty2 = back.list_field("ports")[1].as_node().unwrap();
        assert!(Rc::ptr_eq(ty1, ty2));
    }

    #[test]
    fn probe_reads_hash_and_foreigns_without_building() {
        let root = VifNode::build("arch")
            .name("rtl")
            .field("entity", VifValue::Foreign("work.entity.e".into()))
            .field("again", VifValue::Foreign("work.entity.e".into()))
            .field("pkg", VifValue::Foreign("ieee.pkg.base".into()))
            .done();
        let bytes = encode_vifb(&root, 0x1234);
        let hdr = probe_vifb(&bytes).unwrap();
        assert_eq!(hdr.text_hash, 0x1234);
        let refs: Vec<&str> = hdr.foreigns.iter().map(|r| &**r).collect();
        assert_eq!(
            refs,
            ["work.entity.e", "ieee.pkg.base"],
            "deduplicated, in order"
        );
    }

    #[test]
    fn foreigns_resolve_through_callback() {
        let root = VifNode::build("arch")
            .name("rtl")
            .field("entity", VifValue::Foreign("work.entity.e".into()))
            .done();
        let text = write_vif(&root);
        let bytes = encode_vifb(&root, fnv1a(0, text.as_bytes()));
        let mut resolve = |r: &str| -> Result<Rc<VifNode>, VifError> {
            assert_eq!(r, "work.entity.e");
            Ok(VifNode::build("entity").name("e").done())
        };
        let via_bin = decode_vifb(&bytes, &mut resolve).unwrap();
        let via_text = read_vif(&text, &mut resolve).unwrap();
        assert_eq!(via_bin, via_text);
        assert_eq!(write_vif(&via_bin), write_vif(&via_text));
    }

    #[test]
    fn hostile_bytes_are_errors_never_panics() {
        let root = sample();
        let good = encode_vifb(&root, 99);

        // Truncation at every prefix length.
        for n in 0..good.len() {
            assert!(
                decode_vifb(&good[..n], &mut no_foreign).is_err(),
                "prefix {n}"
            );
            assert!(probe_vifb(&good[..n]).is_err(), "probe prefix {n}");
        }
        // Single-byte corruption at every offset (checksum or structure
        // must catch it; flipping checksum bytes themselves fails too).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_vifb(&bad, &mut no_foreign).is_err(), "flip {i}");
        }
        // Wrong magic / wrong version, with a re-sealed checksum so the
        // rejection is attributed to the right check.
        let mut wrong_ver = good.clone();
        wrong_ver[4] = 9;
        let body_len = wrong_ver.len() - 8;
        let seal = fnv1a(0, &wrong_ver[..body_len]).to_le_bytes();
        wrong_ver[body_len..].copy_from_slice(&seal);
        match decode_vifb(&wrong_ver, &mut no_foreign) {
            Err(VifError::Binary(VifbError::BadVersion(9))) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
        match decode_vifb(b"VSNPxxxxxxxxxxxxxxxxxxxxxxxx", &mut no_foreign) {
            Err(VifError::Binary(VifbError::BadMagic)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        assert!(decode_vifb(&[], &mut no_foreign).is_err());
    }

    #[test]
    fn hostile_counts_and_nesting_rejected() {
        // A hand-built buffer claiming 2^40 strings must be rejected
        // before any allocation sized by the claim.
        let mut b = Vec::new();
        b.extend_from_slice(&VIFB_MAGIC);
        b.extend_from_slice(&VIFB_VERSION.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        put_varint(&mut b, 1 << 40);
        let seal = fnv1a(0, &b).to_le_bytes();
        b.extend_from_slice(&seal);
        match decode_vifb(&b, &mut no_foreign) {
            Err(VifError::Binary(VifbError::Corrupt(_))) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Deep list nesting: node 0 with one field whose value is a chain
        // of single-element lists far beyond the depth bound.
        let mut b = Vec::new();
        b.extend_from_slice(&VIFB_MAGIC);
        b.extend_from_slice(&VIFB_VERSION.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        put_varint(&mut b, 1); // one string: "k"
        put_varint(&mut b, 1);
        b.push(b'k');
        put_varint(&mut b, 0); // no foreigns
        put_varint(&mut b, 1); // one node
        put_varint(&mut b, 0); // kind = "k"
        put_varint(&mut b, 0); // unnamed
        put_varint(&mut b, 1); // one field
        put_varint(&mut b, 0); // field name = "k"
        for _ in 0..MAX_LIST_DEPTH + 8 {
            b.push(7); // list…
            put_varint(&mut b, 1); // …of one element
        }
        b.push(0); // innermost nil
        put_varint(&mut b, 0); // root
        let seal = fnv1a(0, &b).to_le_bytes();
        b.extend_from_slice(&seal);
        match decode_vifb(&b, &mut no_foreign) {
            Err(VifError::Binary(VifbError::Corrupt(msg))) => {
                assert!(msg.contains("nesting"), "{msg}");
            }
            other => panic!("expected nesting rejection, got {other:?}"),
        }
    }

    #[test]
    fn forward_node_reference_rejected() {
        // One node whose field references node index 0 — itself. Postorder
        // references must be strictly backward.
        let mut b = Vec::new();
        b.extend_from_slice(&VIFB_MAGIC);
        b.extend_from_slice(&VIFB_VERSION.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        put_varint(&mut b, 1);
        put_varint(&mut b, 1);
        b.push(b'k');
        put_varint(&mut b, 0);
        put_varint(&mut b, 1);
        put_varint(&mut b, 0);
        put_varint(&mut b, 0);
        put_varint(&mut b, 1);
        put_varint(&mut b, 0);
        b.push(6); // node ref…
        put_varint(&mut b, 0); // …to itself
        put_varint(&mut b, 0);
        let seal = fnv1a(0, &b).to_le_bytes();
        b.extend_from_slice(&seal);
        match decode_vifb(&b, &mut no_foreign) {
            Err(VifError::Binary(VifbError::Corrupt(msg))) => {
                assert!(msg.contains("forward"), "{msg}");
            }
            other => panic!("expected forward-ref rejection, got {other:?}"),
        }
    }

    #[test]
    fn node_cache_shares_pointers_and_counts() {
        clear_node_cache();
        let before = vifb_stats();
        let root = sample();
        assert!(cache_lookup(0xfeed_face).is_none());
        cache_insert(0xfeed_face, &root);
        let hit = cache_lookup(0xfeed_face).expect("cached");
        assert!(Rc::ptr_eq(&hit, &root));
        let after = vifb_stats();
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.cache_misses - before.cache_misses, 1);
        clear_node_cache();
    }
}
