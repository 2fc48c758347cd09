//! Versioned binary snapshots of live simulation state.
//!
//! A snapshot captures everything [`Simulator`] needs to continue a run
//! exactly where it stopped: current time, cumulative statistics, report
//! log, signal and driver state (projected output waveforms included),
//! process frames (a unit index and `pc` per frame, current at every
//! suspension point), the Name Server's per-object event/resumption counters, and the
//! pending-event calendar. Restoring into a freshly elaborated program
//! yields a simulator whose subsequent VCD output, statistics, and
//! counters are byte-identical to an uninterrupted run, at any worker
//! count (the resume cells of `tests/oracle.rs`).
//!
//! ## Format
//!
//! Little-endian binary: magic `VSNP`, format version, a fingerprint of
//! the elaborated program (restore refuses state from a different
//! design), the state sections, and a trailing FNV-1a checksum over
//! everything before it. All decoding is bounds-checked and total:
//! hostile bytes produce a [`SnapshotError`], never a panic and never an
//! oversized allocation (collection lengths are validated against the
//! remaining input before reserving).
//!
//! ## Versioning rules
//!
//! The version number covers the whole layout: any change to field
//! order, widths, or sections bumps it, and old versions are rejected
//! rather than migrated (a snapshot is a resumable suspension image, not
//! an archival format). The program fingerprint pins a snapshot to the
//! exact design it was taken from — same signals (names, initial values,
//! resolution wiring), processes, subprogram code, and region tree — so
//! state is never spliced into a design it did not come from.
//!
//! ## What is *not* serialized
//!
//! Scratch worklists (`due_drivers`, `fired`, `cand`, `ready`,
//! resolution buffers, the spare locals buffers of returned frames) hold
//! no state at any activation boundary and are rebuilt on demand. The sensitivity index and Name Server tree are
//! pure functions of the program and are rebuilt by elaboration. Observers are host-side and
//! re-attach after restore.
//!
//! ## Calendar normalization
//!
//! Checkpoint first runs one `Simulator::next_time` sweep. That pass
//! discards stale near-bucket entries and stale far-heap tops, charging
//! `calendar_ops` exactly as the next scheduling decision of an
//! uninterrupted run would — and because the sweep is idempotent (valid
//! entries survive re-validation for free), the restored run's own
//! `next_time` re-check diverges nothing. Stale entries buried *under*
//! valid far-heap tops are serialized verbatim instead of being dropped:
//! their lazy-invalidation cost is charged when the original run would
//! have reached them, keeping `calendar_ops` byte-identical.

use std::collections::VecDeque;
use std::sync::Arc;

use ag_harness::fnv1a;

use crate::isa::{Program, SigId};
use crate::sched::{CalEntry, CalKind, Calendar};
use crate::sim::{unit_decl, Driver, Frame, ProcStatus, ReportEvent, SimStats, Simulator};
use crate::value::{ArrVal, Time, VDir, Val};

/// Magic bytes opening every kernel snapshot.
pub const MAGIC: [u8; 4] = *b"VSNP";

/// Current snapshot format version. Version 1 also carried a backend
/// byte, the per-activation fuel budget and two compiled-backend
/// counters; version 2 dropped them.
pub const VERSION: u32 = 2;

/// Why a snapshot could not be produced or applied. Never a panic:
/// snapshot bytes cross process boundaries and are treated as hostile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// The input's format version is not [`VERSION`].
    BadVersion(u32),
    /// The input ended before the structure did.
    Truncated,
    /// The structure decoded but describes impossible state (an index
    /// out of range, an unknown tag, a checksum mismatch, …).
    Corrupt(String),
    /// The snapshot was taken from a different elaborated program.
    ProgramMismatch,
    /// The simulator has already failed; its state is not resumable.
    Failed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a simulation snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::ProgramMismatch => {
                write!(f, "snapshot was taken from a different elaborated design")
            }
            SnapshotError::Failed(why) => {
                write!(
                    f,
                    "simulation already failed, state is not resumable: {why}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only little-endian byte encoder. Public so the server layer
/// can wrap kernel snapshots in its own session envelope with the same
/// primitives.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finishes encoding, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends the FNV-1a checksum of everything written so far.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a(0, &self.buf);
        self.u64(sum);
        self.buf
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` by its IEEE-754 bit pattern (round trips NaN payloads and
    /// signed zeros exactly).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Collection length (`u32`; snapshots of realistic designs stay far
    /// below 4 G elements).
    pub fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn blob(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    fn time(&mut self, t: Time) {
        self.u64(t.fs);
        self.u32(t.delta);
    }

    fn opt_time(&mut self, t: Option<Time>) {
        match t {
            None => self.u8(0),
            Some(t) => {
                self.u8(1);
                self.time(t);
            }
        }
    }

    fn val(&mut self, v: &Val) {
        match v {
            Val::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Val::Real(r) => {
                self.u8(1);
                self.f64(*r);
            }
            Val::Arr(a) => {
                self.u8(2);
                self.i64(a.left);
                self.u8(match a.dir {
                    VDir::To => 0,
                    VDir::Downto => 1,
                });
                self.len(a.data.len());
                for e in a.data.iter() {
                    self.val(e);
                }
            }
            Val::Rec(fs) => {
                self.u8(3);
                self.len(fs.len());
                for e in fs.iter() {
                    self.val(e);
                }
            }
        }
    }
}

/// Bounds-checked little-endian byte decoder (counterpart of [`Enc`]).
pub struct Dec<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Dec<'b> {
    /// A decoder over `bytes`, positioned at the start.
    pub fn new(bytes: &'b [u8]) -> Dec<'b> {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Checks the trailing FNV-1a checksum of `bytes` without consuming
    /// anything; call before structural decoding.
    pub fn verify_checksum(bytes: &[u8]) -> Result<(), SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(0, body) != want {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Collection length, validated against the remaining input so a
    /// corrupt count cannot drive an oversized allocation (`min_elem` is
    /// the smallest possible encoding of one element).
    pub fn len(&mut self, min_elem: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }

    /// Length-prefixed raw bytes.
    pub fn blob(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn time(&mut self) -> Result<Time, SnapshotError> {
        let fs = self.u64()?;
        let delta = self.u32()?;
        Ok(Time { fs, delta })
    }

    fn opt_time(&mut self) -> Result<Option<Time>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.time()?)),
            t => Err(SnapshotError::Corrupt(format!("bad Option<Time> tag {t}"))),
        }
    }

    fn val(&mut self) -> Result<Val, SnapshotError> {
        match self.u8()? {
            0 => Ok(Val::Int(self.i64()?)),
            1 => Ok(Val::Real(self.f64()?)),
            2 => {
                let left = self.i64()?;
                let dir = match self.u8()? {
                    0 => VDir::To,
                    1 => VDir::Downto,
                    t => return Err(SnapshotError::Corrupt(format!("bad VDir tag {t}"))),
                };
                let n = self.len(1)?;
                let mut data = Vec::with_capacity(n);
                for _ in 0..n {
                    data.push(self.val()?);
                }
                Ok(Val::Arr(ArrVal {
                    left,
                    dir,
                    data: Arc::new(data),
                }))
            }
            3 => {
                let n = self.len(1)?;
                let mut fs = Vec::with_capacity(n);
                for _ in 0..n {
                    fs.push(self.val()?);
                }
                Ok(Val::Rec(Arc::new(fs)))
            }
            t => Err(SnapshotError::Corrupt(format!("bad Val tag {t}"))),
        }
    }
}

/// A fingerprint of the elaborated program: everything simulation
/// semantics depend on — signal names, initial values, and resolution
/// wiring; process and subprogram names, frame shapes, and full
/// instruction streams; the region tree. Two programs with equal
/// fingerprints elaborate to interchangeable simulators.
pub fn program_fingerprint(program: &Program) -> u64 {
    let _t = ag_harness::trace::span("program-fingerprint");
    let mut text = String::new();
    let mut e = Enc::new();
    e.len(program.signals.len());
    for s in &program.signals {
        e.str(&s.name);
        e.val(&s.init);
        e.u32(s.resolution.map_or(u32::MAX, |f| f.0));
    }
    e.len(program.processes.len());
    for p in &program.processes {
        e.str(&p.name);
        e.u32(p.n_locals as u32);
        text.clear();
        use std::fmt::Write as _;
        let _ = write!(text, "{:?}", p.code);
        e.str(&text);
    }
    e.len(program.functions.len());
    for f in &program.functions {
        e.str(&f.name);
        e.u32(f.n_params as u32);
        e.u32(f.n_locals as u32);
        e.u32(f.level as u32);
        text.clear();
        use std::fmt::Write as _;
        let _ = write!(text, "{:?}", f.code);
        e.str(&text);
    }
    e.len(program.regions.len());
    for r in &program.regions {
        e.str(r);
    }
    fnv1a(0, e.bytes())
}

fn enc_cal_entry(e: &mut Enc, c: &CalEntry) {
    e.time(c.time);
    match c.kind {
        CalKind::Driver { sig, di } => {
            e.u8(0);
            e.u32(sig);
            e.u32(di);
        }
        CalKind::Timeout { proc } => {
            e.u8(1);
            e.u32(proc);
            e.u32(0);
        }
    }
}

fn dec_cal_entry(
    d: &mut Dec<'_>,
    n_sigs: usize,
    n_procs: usize,
) -> Result<CalEntry, SnapshotError> {
    let time = d.time()?;
    let tag = d.u8()?;
    let a = d.u32()?;
    let b = d.u32()?;
    let kind = match tag {
        0 => {
            if a as usize >= n_sigs {
                return Err(SnapshotError::Corrupt(format!(
                    "calendar driver entry names signal {a} of {n_sigs}"
                )));
            }
            CalKind::Driver { sig: a, di: b }
        }
        1 => {
            if a as usize >= n_procs {
                return Err(SnapshotError::Corrupt(format!(
                    "calendar timeout entry names process {a} of {n_procs}"
                )));
            }
            CalKind::Timeout { proc: a }
        }
        t => return Err(SnapshotError::Corrupt(format!("bad calendar tag {t}"))),
    };
    Ok(CalEntry { time, kind })
}

impl<'a> Simulator<'a> {
    /// [`program_fingerprint`] of this simulator's program, computed once
    /// per simulator (or not at all after [`Simulator::with_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| program_fingerprint(&self.program))
    }

    /// Gives the simulator its program's fingerprint, which the caller
    /// computed before for the same program (a cached elaboration), so
    /// no checkpoint computes it again. The caller vouches for the value:
    /// a wrong one makes this simulator's checkpoints unrestorable.
    pub fn with_fingerprint(self, fingerprint: u64) -> Simulator<'a> {
        let _ = self.fingerprint.set(fingerprint);
        self
    }

    /// Serializes the full resumable state of this simulator (see module
    /// docs for the format). `&mut` because the calendar is normalized
    /// first — an operation the next scheduling decision would perform
    /// anyway, so an uninterrupted run and a checkpointed one stay
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Failed`] when the simulation has already failed:
    /// a failed run is not resumable.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, SnapshotError> {
        if let Some(err) = &self.failed {
            return Err(SnapshotError::Failed(err.to_string()));
        }
        // Normalize: sweep stale entries exactly as the next `next_time`
        // would (idempotent; see module docs).
        let _ = self.next_time();

        let mut e = Enc::new();
        e.buf.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.u64(self.fingerprint());
        e.time(self.now);

        let st = &self.stats;
        for v in [
            st.cycles,
            st.delta_cycles,
            st.events,
            st.transactions,
            st.resumptions,
            st.insns,
            st.woken_procs,
            st.scanned_signals,
        ] {
            e.u64(v);
        }

        e.len(self.reports.len());
        for r in &self.reports {
            e.time(r.time);
            e.i64(r.severity);
            e.str(&r.text);
        }

        e.len(self.signals.len());
        for s in self.signals.iter() {
            e.val(&s.current);
            e.val(&s.last_value);
            e.opt_time(s.last_event);
            e.u8(s.event as u8);
            e.u8(s.active as u8);
            e.u64(s.events);
            e.len(s.drivers.len());
            for d in &s.drivers {
                e.u64(d.proc as u64);
                e.val(&d.driving);
                e.len(d.tx.len());
                for (t, v) in &d.tx {
                    e.time(*t);
                    e.val(v);
                }
            }
        }

        e.len(self.procs.len());
        for p in &self.procs {
            match &p.status {
                ProcStatus::Ready => e.u8(0),
                ProcStatus::Suspended { sens, timeout } => {
                    e.u8(1);
                    e.len(sens.len());
                    for s in sens.iter() {
                        e.u32(s.0);
                    }
                    e.opt_time(*timeout);
                }
                ProcStatus::Halted => e.u8(2),
            }
            e.len(p.frames.len());
            for f in &p.frames {
                e.u32(f.unit);
                e.u64(f.pc as u64);
                e.u32(f.level as u32);
                match f.static_link {
                    None => e.u8(0),
                    Some(l) => {
                        e.u8(1);
                        e.u64(l as u64);
                    }
                }
                e.len(f.locals.len());
                for v in &f.locals {
                    e.val(v);
                }
            }
            e.len(p.stack.len());
            for v in &p.stack {
                e.val(v);
            }
            e.u64(p.resumptions);
        }

        e.len(self.active_clear.len());
        for s in &self.active_clear {
            e.u32(*s);
        }

        let (near_fs, near, far) = self.calendar.parts();
        e.u64(self.calendar.ops);
        e.u64(near_fs);
        e.len(near.len());
        for c in near {
            enc_cal_entry(&mut e, c);
        }
        e.len(far.len());
        for c in &far {
            enc_cal_entry(&mut e, c);
        }

        Ok(e.seal())
    }

    /// Rebuilds a simulator from `bytes` against a freshly elaborated
    /// `program` — which must be the same design the snapshot was taken
    /// from (fingerprint-checked). The result has no observers; attach
    /// them before resuming.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; hostile bytes never panic.
    pub fn restore(program: Program, bytes: &[u8]) -> Result<Simulator<'a>, SnapshotError> {
        let fingerprint = program_fingerprint(&program);
        Simulator::restore_known(program, fingerprint, bytes)
    }

    /// [`Simulator::restore`] for a caller that already knows `program`'s
    /// fingerprint (see [`Simulator::with_fingerprint`]): the snapshot is
    /// checked against `fingerprint`, which the restored simulator keeps.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; hostile bytes never panic.
    pub fn restore_known(
        program: Program,
        fingerprint: u64,
        bytes: &[u8],
    ) -> Result<Simulator<'a>, SnapshotError> {
        Dec::verify_checksum(bytes)?;
        let body = &bytes[..bytes.len() - 8];
        let mut d = Dec::new(body);
        if d.take(4)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        if d.u64()? != fingerprint {
            return Err(SnapshotError::ProgramMismatch);
        }
        let now = d.time()?;

        let mut sim = Simulator::new(program).with_fingerprint(fingerprint);
        let n_sigs = sim.program.signals.len();
        let n_procs = sim.program.processes.len();
        let n_fns = sim.program.functions.len();

        sim.now = now;

        // Fields are read in the order they are written.
        sim.stats = SimStats {
            cycles: d.u64()?,
            delta_cycles: d.u64()?,
            events: d.u64()?,
            transactions: d.u64()?,
            resumptions: d.u64()?,
            insns: d.u64()?,
            woken_procs: d.u64()?,
            scanned_signals: d.u64()?,
            ..SimStats::default()
        };

        let n_reports = d.len(1)?;
        let mut reports = Vec::with_capacity(n_reports);
        for _ in 0..n_reports {
            let time = d.time()?;
            let severity = d.i64()?;
            let text = d.str()?;
            reports.push(ReportEvent {
                time,
                severity,
                text,
            });
        }
        sim.reports = reports;

        if d.len(1)? != n_sigs {
            return Err(SnapshotError::Corrupt("signal count mismatch".into()));
        }
        for si in 0..n_sigs {
            let current = d.val()?;
            let last_value = d.val()?;
            let last_event = d.opt_time()?;
            let event = d.u8()? != 0;
            let active = d.u8()? != 0;
            let events = d.u64()?;
            let n_drivers = d.len(1)?;
            let mut drivers = Vec::with_capacity(n_drivers);
            for _ in 0..n_drivers {
                let proc = d.u64()? as usize;
                let driving = d.val()?;
                let n_tx = d.len(1)?;
                let mut tx = VecDeque::with_capacity(n_tx);
                for _ in 0..n_tx {
                    let t = d.time()?;
                    let v = d.val()?;
                    tx.push_back((t, v));
                }
                drivers.push(Driver { proc, tx, driving });
            }
            let s = &mut sim.sigs_mut()[si];
            s.current = current;
            s.last_value = last_value;
            s.last_event = last_event;
            s.event = event;
            s.active = active;
            s.events = events;
            s.drivers = drivers;
        }

        if d.len(1)? != n_procs {
            return Err(SnapshotError::Corrupt("process count mismatch".into()));
        }
        for pi in 0..n_procs {
            let status = match d.u8()? {
                0 => ProcStatus::Ready,
                1 => {
                    let n = d.len(4)?;
                    let mut sens = Vec::with_capacity(n);
                    for _ in 0..n {
                        let s = d.u32()?;
                        if s as usize >= n_sigs {
                            return Err(SnapshotError::Corrupt(format!(
                                "sensitivity names signal {s} of {n_sigs}"
                            )));
                        }
                        sens.push(SigId(s));
                    }
                    let timeout = d.opt_time()?;
                    ProcStatus::Suspended {
                        sens: Arc::new(sens),
                        timeout,
                    }
                }
                2 => ProcStatus::Halted,
                t => return Err(SnapshotError::Corrupt(format!("bad status tag {t}"))),
            };
            let n_frames = d.len(1)?;
            let mut frames = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                let unit = d.u32()?;
                let pc = d.u64()? as usize;
                let level = d.u32()?;
                let static_link = match d.u8()? {
                    0 => None,
                    1 => Some(d.u64()? as usize),
                    t => return Err(SnapshotError::Corrupt(format!("bad static-link tag {t}"))),
                };
                // Check the frame against its unit's code. Resolution
                // frames never appear in a snapshot: resolution runs to
                // completion within a cycle and its frames are drained
                // before any boundary.
                let Some((code, want_locals)) = unit_decl(&sim.program, unit) else {
                    return Err(SnapshotError::Corrupt(format!(
                        "frame names unit {unit} of {}",
                        n_procs + n_fns
                    )));
                };
                if pc > code.len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "frame pc {pc} beyond unit {unit} ({} insns)",
                        code.len()
                    )));
                }
                let n_locals = d.len(1)?;
                if n_locals != want_locals {
                    return Err(SnapshotError::Corrupt(format!(
                        "frame for unit {unit} has {n_locals} locals, wants {want_locals}"
                    )));
                }
                let mut locals = Vec::with_capacity(n_locals);
                for _ in 0..n_locals {
                    locals.push(d.val()?);
                }
                frames.push(Frame {
                    pc,
                    locals,
                    static_link,
                    level: level as u16,
                    unit,
                });
            }
            for f in &frames {
                if let Some(l) = f.static_link {
                    if l >= frames.len() {
                        return Err(SnapshotError::Corrupt(format!(
                            "static link {l} beyond {} frames",
                            frames.len()
                        )));
                    }
                }
            }
            let n_stack = d.len(1)?;
            let mut stack = Vec::with_capacity(n_stack);
            for _ in 0..n_stack {
                stack.push(d.val()?);
            }
            let resumptions = d.u64()?;
            let p = &mut sim.procs[pi];
            p.status = status;
            p.frames = frames;
            p.stack = stack;
            p.resumptions = resumptions;
        }

        let n_clear = d.len(4)?;
        let mut active_clear = Vec::with_capacity(n_clear);
        for _ in 0..n_clear {
            let s = d.u32()?;
            if s as usize >= n_sigs {
                return Err(SnapshotError::Corrupt(format!(
                    "clear-list names signal {s} of {n_sigs}"
                )));
            }
            active_clear.push(s);
        }
        sim.active_clear = active_clear;

        let ops = d.u64()?;
        let near_fs = d.u64()?;
        let n_near = d.len(17)?;
        let mut near = Vec::with_capacity(n_near);
        for _ in 0..n_near {
            near.push(dec_cal_entry(&mut d, n_sigs, n_procs)?);
        }
        let n_far = d.len(17)?;
        let mut far = Vec::with_capacity(n_far);
        for _ in 0..n_far {
            far.push(dec_cal_entry(&mut d, n_sigs, n_procs)?);
        }
        sim.calendar = Calendar::from_parts(near_fs, near, far, ops);

        if d.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after state",
                d.remaining()
            )));
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use ag_harness::{check_eq, forall, Config};

    use super::*;
    use crate::oracle::gen_program;
    use crate::sim::SimError;

    /// Corruption rejection: every truncation of a real snapshot and a
    /// byte flip at every position must come back as a diagnostic, never
    /// a panic and never an `Ok`.
    #[test]
    fn corrupted_and_truncated_snapshots_are_rejected() {
        forall!(
            Config::new("corrupted_snapshots_are_rejected").cases(24),
            |s| {
                let prog = gen_program(s);
                let mut sim = Simulator::new(prog.clone());
                let _ = sim.run_slice(Time::fs(30), s.u64_in(1, 50), &mut || false);
                let Ok(bytes) = sim.checkpoint() else {
                    // The generated design failed (assertion/overflow):
                    // refusal is itself the contract under test.
                    return Ok(());
                };
                // Sanity: the untouched snapshot restores.
                Simulator::restore(prog.clone(), &bytes).expect("pristine snapshot restores");
                // Every truncation is rejected.
                let step = (bytes.len() / 64).max(1);
                for cut in (0..bytes.len()).step_by(step) {
                    let r = Simulator::restore(prog.clone(), &bytes[..cut]);
                    check_eq!(r.is_err(), true, "truncated at {cut} must be rejected");
                }
                // Every single-byte flip is rejected (the checksum seals
                // the whole image).
                for pos in (0..bytes.len()).step_by(step) {
                    let mut bad = bytes.clone();
                    bad[pos] ^= 0x5a;
                    let r = Simulator::restore(prog.clone(), &bad);
                    check_eq!(r.is_err(), true, "flip at {pos} must be rejected");
                }
            }
        );
    }

    /// A snapshot only restores into the design it came from.
    #[test]
    fn snapshot_refuses_a_different_program() {
        let mk = |names: [&str; 2]| {
            let mut p = Program::default();
            let a = p.add_signal(names[0], Val::Int(0));
            p.add_process(
                names[1],
                0,
                vec![
                    crate::isa::Insn::PushInt(1),
                    crate::isa::Insn::PushInt(2),
                    crate::isa::Insn::Sched {
                        sig: a,
                        transport: false,
                    },
                    crate::isa::Insn::PushInt(3),
                    crate::isa::Insn::Wait {
                        sens: Arc::new(vec![a]),
                        with_timeout: true,
                    },
                    crate::isa::Insn::Pop,
                    crate::isa::Insn::Jump(0),
                ],
            );
            p.finalize_sensitivity();
            p
        };
        let prog = mk(["top.a", "top.p"]);
        let other = mk(["top.b", "top.p"]);
        let mut sim = Simulator::new(prog.clone());
        sim.run_slice(Time::fs(10), 5, &mut || false).unwrap();
        let bytes = sim.checkpoint().unwrap();
        assert!(matches!(
            Simulator::restore(other, &bytes),
            Err(SnapshotError::ProgramMismatch)
        ));
        assert!(Simulator::restore(prog, &bytes).is_ok());
    }

    /// A failed simulation refuses to checkpoint: its state is not a
    /// resumable suspension image.
    #[test]
    fn failed_simulation_refuses_to_checkpoint() {
        let mut p = Program::default();
        p.add_process(
            "top.div",
            0,
            vec![
                crate::isa::Insn::PushInt(1),
                crate::isa::Insn::PushInt(0),
                crate::isa::Insn::Binop(crate::rts::Op::Div),
                crate::isa::Insn::Pop,
                crate::isa::Insn::Halt,
            ],
        );
        p.finalize_sensitivity();
        let mut sim = Simulator::new(p);
        assert!(matches!(
            sim.run_slice(Time::fs(10), 10, &mut || false),
            Err(SimError::Runtime { .. })
        ));
        assert!(matches!(sim.checkpoint(), Err(SnapshotError::Failed(_))));
    }

    /// Version and magic gates fire before anything else is believed.
    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut p = Program::default();
        p.add_signal("top.a", Val::Int(0));
        p.finalize_sensitivity();
        let mut sim = Simulator::new(p.clone());
        let bytes = sim.checkpoint().unwrap();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // Re-seal so only the magic is wrong.
        let mut e = Enc::new();
        e.buf
            .extend_from_slice(&wrong_magic[..wrong_magic.len() - 8]);
        match Simulator::restore(p.clone(), &e.seal()) {
            Err(SnapshotError::BadMagic) => {}
            Err(other) => panic!("expected BadMagic, got {other:?}"),
            Ok(_) => panic!("expected BadMagic, got Ok"),
        }

        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        let mut e = Enc::new();
        e.buf
            .extend_from_slice(&wrong_version[..wrong_version.len() - 8]);
        match Simulator::restore(p, &e.seal()) {
            Err(SnapshotError::BadVersion(99)) => {}
            Err(other) => panic!("expected BadVersion(99), got {other:?}"),
            Ok(_) => panic!("expected BadVersion(99), got Ok"),
        }
    }

    /// A version-1 blob (backend byte, fuel budget and two more counters
    /// in its header) is refused by its version, whatever follows.
    #[test]
    fn version_one_snapshot_is_refused() {
        let mut p = Program::default();
        p.add_signal("top.a", Val::Int(0));
        p.finalize_sensitivity();
        let v2 = Simulator::new(p.clone()).checkpoint().unwrap();
        let body = &v2[..v2.len() - 8];
        // v2: magic, version, fingerprint, time (12 bytes), 8 counters.
        let (head, rest) = body.split_at(16);
        let (time_stats, tail) = rest.split_at(12 + 8 * 8);
        let mut e = Enc::new();
        e.buf.extend_from_slice(&head[..4]);
        e.u32(1);
        e.buf.extend_from_slice(&head[8..]);
        e.u8(1);
        e.u64(50_000_000);
        e.buf.extend_from_slice(time_stats);
        e.u64(0);
        e.u64(0);
        e.buf.extend_from_slice(tail);
        match Simulator::restore(p, &e.seal()) {
            Err(SnapshotError::BadVersion(1)) => {}
            Err(other) => panic!("expected BadVersion(1), got {other:?}"),
            Ok(_) => panic!("expected BadVersion(1), got Ok"),
        }
    }
}
