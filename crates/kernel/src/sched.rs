//! Event-driven scheduling structures: the pending-event calendar and the
//! static sensitivity index.
//!
//! The seed kernel found the next simulation time by scanning every driver
//! of every signal and every suspended process — O(design size) per cycle.
//! The structures here make both lookups O(activity):
//!
//! - [`Calendar`] is a time-ordered queue of pending instants, split into
//!   a *near* bucket (entries at the current femtosecond, including delta
//!   cycles — an unsorted vector swept linearly, since delta traffic is
//!   bursty and short-lived) and a *far* min-heap (entries at future
//!   instants). Entries are append-only and lazily invalidated: transaction
//!   preemption and early process resumption leave stale entries behind,
//!   and the consumer filters them against live kernel state instead of
//!   searching the queue.
//! - [`SensIndex`] inverts the processes' static wait sensitivities into a
//!   `SigId → processes` table at elaboration time, so a cycle's event set
//!   wakes only the processes that could care, not all of them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::isa::{Insn, Program, SigId};
use crate::value::Time;

/// What a calendar entry announces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum CalKind {
    /// The front transaction of driver `di` of signal `sig` matures.
    Driver {
        /// Signal index.
        sig: u32,
        /// Driver index within the signal.
        di: u32,
    },
    /// Process `proc`'s wait timeout expires.
    Timeout {
        /// Process index.
        proc: u32,
    },
}

/// One pending instant. `time` is the leading field so the derived order
/// (and therefore the far heap) is time-ordered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct CalEntry {
    /// When the entry fires.
    pub time: Time,
    /// What fires.
    pub kind: CalKind,
}

/// The pending-event calendar (see module docs).
pub(crate) struct Calendar {
    /// Entries at femtosecond `near_fs` (any delta), unsorted.
    near: Vec<CalEntry>,
    /// The femtosecond the near bucket covers (tracks current time).
    near_fs: u64,
    /// Entries at later femtoseconds, min-first.
    far: BinaryHeap<Reverse<CalEntry>>,
    /// Pushes plus removals (the `calendar_ops` statistic).
    pub ops: u64,
}

impl Calendar {
    pub fn new() -> Calendar {
        Calendar {
            near: Vec::new(),
            near_fs: 0,
            far: BinaryHeap::new(),
            ops: 0,
        }
    }

    /// Appends an entry. Entries are never pushed for past femtoseconds
    /// (delays are non-negative), so anything not at `near_fs` is far.
    pub fn push(&mut self, time: Time, kind: CalKind) {
        self.ops += 1;
        let e = CalEntry { time, kind };
        if time.fs == self.near_fs {
            self.near.push(e);
        } else {
            self.far.push(Reverse(e));
        }
    }

    /// Moves the near bucket to a new femtosecond. Any entry still in it
    /// is provably stale: time only advances past a femtosecond once no
    /// valid entry remains there.
    pub fn advance_fs(&mut self, fs: u64) {
        if fs != self.near_fs {
            self.ops += self.near.len() as u64;
            self.near.clear();
            self.near_fs = fs;
        }
    }

    /// The earliest entry time for which `is_valid` holds, discarding
    /// stale entries on the way (near bucket: full sweep; far heap: pops
    /// until the top is valid).
    pub fn min_valid(&mut self, is_valid: impl Fn(&CalEntry) -> bool) -> Option<Time> {
        let mut best: Option<Time> = None;
        let mut i = 0;
        while i < self.near.len() {
            let e = self.near[i];
            if is_valid(&e) {
                best = Some(best.map_or(e.time, |b| b.min(e.time)));
                i += 1;
            } else {
                self.near.swap_remove(i);
                self.ops += 1;
            }
        }
        while let Some(Reverse(top)) = self.far.peek() {
            if is_valid(top) {
                let t = top.time;
                best = Some(best.map_or(t, |b| b.min(t)));
                break;
            }
            self.far.pop();
            self.ops += 1;
        }
        best
    }

    /// Snapshot view for [`crate::snapshot`]: the near-bucket femtosecond,
    /// the near entries (order is not observable: due entries are sorted
    /// and deduplicated downstream), and the far entries extracted in
    /// ascending time order. Entries are serialized verbatim — including
    /// stale far entries buried under valid ones — because normalizing
    /// them out would change when their lazy-invalidation `ops` are
    /// counted versus an uninterrupted run.
    pub fn parts(&self) -> (u64, &[CalEntry], Vec<CalEntry>) {
        let mut far: Vec<CalEntry> = self.far.iter().map(|Reverse(e)| *e).collect();
        far.sort_unstable();
        (self.near_fs, &self.near, far)
    }

    /// Rebuilds a calendar from snapshot parts. Equal entries are
    /// bit-identical (`CalEntry` is `Copy` + totally ordered), so heap
    /// pop order among ties is observationally the same as the original.
    pub fn from_parts(near_fs: u64, near: Vec<CalEntry>, far: Vec<CalEntry>, ops: u64) -> Calendar {
        Calendar {
            near,
            near_fs,
            far: far.into_iter().map(Reverse).collect(),
            ops,
        }
    }

    /// Removes every entry due at or before `now`, splitting them into
    /// driver maturations and timeout candidates. Stale entries among them
    /// are harmless: the kernel re-checks both kinds against live state.
    pub fn pop_due(&mut self, now: Time, drivers: &mut Vec<(u32, u32)>, timeouts: &mut Vec<u32>) {
        let mut i = 0;
        while i < self.near.len() {
            if self.near[i].time <= now {
                let e = self.near.swap_remove(i);
                self.ops += 1;
                match e.kind {
                    CalKind::Driver { sig, di } => drivers.push((sig, di)),
                    CalKind::Timeout { proc } => timeouts.push(proc),
                }
            } else {
                i += 1;
            }
        }
        while self.far.peek().is_some_and(|Reverse(e)| e.time <= now) {
            let Reverse(e) = self.far.pop().expect("peeked");
            self.ops += 1;
            match e.kind {
                CalKind::Driver { sig, di } => drivers.push((sig, di)),
                CalKind::Timeout { proc } => timeouts.push(proc),
            }
        }
    }
}

/// The static sensitivity index: for each signal, the processes whose
/// execution can reach a `wait` naming it (directly or through called
/// subprograms). Also carries the inverse-direction *drives* table — the
/// signals each process can schedule a transaction on — which the
/// parallel scheduler unions with the sensitivity sets to partition a
/// cycle's ready set by signal connectivity.
pub(crate) struct SensIndex {
    /// Process indices sensitive to each signal, ascending.
    by_sig: Vec<Vec<u32>>,
    /// Each process's full static sensitivity set, ascending (surfaced
    /// for inspection).
    per_proc: Vec<Arc<Vec<SigId>>>,
    /// Each process's driven-signal set (targets of `Sched`/`SchedIndex`
    /// reachable from its code), ascending.
    drives: Vec<Vec<SigId>>,
    /// Signal count (partitioner scratch sizing).
    n_signals: usize,
}

impl SensIndex {
    /// Builds the index, preferring elaboration-time metadata
    /// ([`crate::isa::ProcessDecl::static_sens`]) and falling back to a
    /// code walk for hand-built programs.
    pub fn build(program: &Program) -> SensIndex {
        let computed: Vec<Option<Vec<SigId>>> =
            if program.processes.iter().all(|p| p.static_sens.is_some()) {
                vec![None; program.processes.len()]
            } else {
                static_sensitivity(program).into_iter().map(Some).collect()
            };
        let per_proc: Vec<Arc<Vec<SigId>>> = program
            .processes
            .iter()
            .zip(computed)
            .map(|(p, c)| match (&p.static_sens, c) {
                (Some(s), _) => Arc::clone(s),
                (None, Some(c)) => Arc::new(c),
                (None, None) => unreachable!("fallback covers every process"),
            })
            .collect();
        let mut by_sig = vec![Vec::new(); program.signals.len()];
        for (pi, sens) in per_proc.iter().enumerate() {
            for s in sens.iter() {
                if let Some(procs) = by_sig.get_mut(s.0 as usize) {
                    procs.push(pi as u32);
                }
            }
        }
        SensIndex {
            by_sig,
            per_proc,
            drives: static_drives(program),
            n_signals: program.signals.len(),
        }
    }

    /// Processes statically sensitive to signal `sig`.
    pub fn watchers(&self, sig: usize) -> &[u32] {
        &self.by_sig[sig]
    }

    /// A process's full static sensitivity set.
    pub fn of_proc(&self, pi: usize) -> &[SigId] {
        &self.per_proc[pi]
    }

    /// A process's full driven-signal set.
    pub fn drives_of(&self, pi: usize) -> &[SigId] {
        &self.drives[pi]
    }

    /// The signal count the index was built over.
    pub fn n_signals(&self) -> usize {
        self.n_signals
    }
}

/// A deterministic partitioner for one delta cycle's ready set. Processes
/// are grouped by connectivity over their static signal footprints
/// (sensitivity ∪ driven signals, from [`SensIndex`]) with a union-find,
/// then connected clusters are placed greedily on the least-loaded worker.
/// Clusters larger than the per-worker cap spill onto other workers — this
/// is *safe*, not just tolerated: workers buffer every side effect and the
/// coordinator commits at the cycle barrier in seed scan order, so the
/// assignment only steers locality and balance, never semantics.
///
/// The assignment is a pure function of `(ready, sens, jobs)`: ties break
/// toward the lowest position / lowest worker index, so a given design
/// partitions identically on every host and every run.
pub(crate) struct Partitioner {
    /// Round stamp for the per-signal scratch (avoids clearing).
    stamp: u32,
    /// Per-signal: stamp of the round that last touched it.
    sig_stamp: Vec<u32>,
    /// Per-signal: first ready-position that touched it this round.
    sig_owner: Vec<u32>,
    /// Union-find parents over ready positions.
    parent: Vec<u32>,
    /// Per-root: stamp + assigned worker for this round.
    comp_stamp: Vec<u32>,
    comp_worker: Vec<u32>,
    /// Per-worker process count this round.
    load: Vec<u32>,
}

/// Union-find root with path halving; the root is always the smallest
/// position in its component (unions parent the larger root under the
/// smaller), which keeps the traversal deterministic.
fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (uf_find(parent, a), uf_find(parent, b));
    if ra != rb {
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi as usize] = lo;
    }
}

impl Partitioner {
    pub fn new() -> Partitioner {
        Partitioner {
            stamp: 0,
            sig_stamp: Vec::new(),
            sig_owner: Vec::new(),
            parent: Vec::new(),
            comp_stamp: Vec::new(),
            comp_worker: Vec::new(),
            load: Vec::new(),
        }
    }

    /// Assigns each ready process a worker in `0..jobs`, writing `out[i]`
    /// for `ready[i]`. `ready` is in ascending process order (the seed
    /// scan order), so each worker's chunk is too.
    pub fn assign(&mut self, ready: &[u32], sens: &SensIndex, jobs: usize, out: &mut Vec<u32>) {
        let n = ready.len();
        out.clear();
        out.resize(n, 0);
        if jobs <= 1 || n < 2 {
            return;
        }
        if self.sig_stamp.len() < sens.n_signals() {
            self.sig_stamp.resize(sens.n_signals(), 0);
            self.sig_owner.resize(sens.n_signals(), 0);
        }
        if self.stamp == u32::MAX {
            self.sig_stamp.fill(0);
            self.comp_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.parent.clear();
        self.parent.extend(0..n as u32);
        if self.comp_stamp.len() < n {
            self.comp_stamp.resize(n, 0);
            self.comp_worker.resize(n, 0);
        }
        // Union ready positions that share any footprint signal. The first
        // position to touch a signal becomes its owner; later toucher
        // positions union with it.
        for (i, &pid) in ready.iter().enumerate() {
            let pid = pid as usize;
            for list in [sens.of_proc(pid), sens.drives_of(pid)] {
                for s in list {
                    let si = s.0 as usize;
                    if self.sig_stamp[si] == stamp {
                        uf_union(&mut self.parent, i as u32, self.sig_owner[si]);
                    } else {
                        self.sig_stamp[si] = stamp;
                        self.sig_owner[si] = i as u32;
                    }
                }
            }
        }
        // Greedy placement in position order: keep a component on its
        // assigned worker while that worker has room, else (re)place on
        // the least-loaded worker (lowest index wins ties).
        let cap = (n.div_ceil(jobs)).max(1) as u32;
        self.load.clear();
        self.load.resize(jobs, 0);
        for i in 0..n {
            let r = uf_find(&mut self.parent, i as u32) as usize;
            let keep = self.comp_stamp[r] == stamp && self.load[self.comp_worker[r] as usize] < cap;
            let w = if keep {
                self.comp_worker[r]
            } else {
                let mut best = 0u32;
                for (wi, &l) in self.load.iter().enumerate() {
                    if l < self.load[best as usize] {
                        best = wi as u32;
                    }
                }
                self.comp_stamp[r] = stamp;
                self.comp_worker[r] = best;
                best
            };
            out[i] = w;
            self.load[w as usize] += 1;
        }
    }
}

/// Collects the `Wait` sensitivities and `Call` targets of one code
/// sequence.
fn scan_code(code: &[Insn], waits: &mut Vec<SigId>, callees: &mut Vec<u32>) {
    for insn in code {
        match insn {
            Insn::Wait { sens, .. } => waits.extend(sens.iter().copied()),
            Insn::Call(f) => callees.push(f.0),
            _ => {}
        }
    }
}

/// Per-process static sensitivity: the union of every `wait` sensitivity
/// set the process's code can reach, including waits inside called
/// procedures (computed as a fixpoint over the call graph, so mutual
/// recursion converges). Sets come back sorted and deduplicated.
pub(crate) fn static_sensitivity(program: &Program) -> Vec<Vec<SigId>> {
    let nf = program.functions.len();
    let mut fn_waits: Vec<Vec<SigId>> = Vec::with_capacity(nf);
    let mut fn_calls: Vec<Vec<u32>> = Vec::with_capacity(nf);
    for f in &program.functions {
        let (mut w, mut c) = (Vec::new(), Vec::new());
        scan_code(&f.code, &mut w, &mut c);
        w.sort_unstable();
        w.dedup();
        c.sort_unstable();
        c.dedup();
        fn_waits.push(w);
        fn_calls.push(c);
    }
    loop {
        let mut changed = false;
        for i in 0..nf {
            let mut add: Vec<SigId> = Vec::new();
            for &c in &fn_calls[i] {
                let Some(callee) = fn_waits.get(c as usize) else {
                    continue;
                };
                add.extend(callee.iter().filter(|s| !fn_waits[i].contains(s)));
            }
            if !add.is_empty() {
                fn_waits[i].extend(add);
                fn_waits[i].sort_unstable();
                fn_waits[i].dedup();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    program
        .processes
        .iter()
        .map(|p| {
            let (mut w, mut c) = (Vec::new(), Vec::new());
            scan_code(&p.code, &mut w, &mut c);
            for &ci in &c {
                if let Some(callee) = fn_waits.get(ci as usize) {
                    w.extend(callee.iter().copied());
                }
            }
            w.sort_unstable();
            w.dedup();
            w
        })
        .collect()
}

/// Collects the `Sched`/`SchedIndex` targets and `Call` targets of one
/// code sequence.
fn scan_drives(code: &[Insn], drives: &mut Vec<SigId>, callees: &mut Vec<u32>) {
    for insn in code {
        match insn {
            Insn::Sched { sig, .. } | Insn::SchedIndex { sig, .. } => drives.push(*sig),
            Insn::Call(f) => callees.push(f.0),
            _ => {}
        }
    }
}

/// Per-process driven-signal sets: the union of every `Sched` target the
/// process's code can reach, including schedules inside called
/// subprograms (fixpoint over the call graph, mirroring
/// [`static_sensitivity`]). Sets come back sorted and deduplicated.
pub(crate) fn static_drives(program: &Program) -> Vec<Vec<SigId>> {
    let nf = program.functions.len();
    let mut fn_drives: Vec<Vec<SigId>> = Vec::with_capacity(nf);
    let mut fn_calls: Vec<Vec<u32>> = Vec::with_capacity(nf);
    for f in &program.functions {
        let (mut d, mut c) = (Vec::new(), Vec::new());
        scan_drives(&f.code, &mut d, &mut c);
        d.sort_unstable();
        d.dedup();
        c.sort_unstable();
        c.dedup();
        fn_drives.push(d);
        fn_calls.push(c);
    }
    loop {
        let mut changed = false;
        for i in 0..nf {
            let mut add: Vec<SigId> = Vec::new();
            for &c in &fn_calls[i] {
                let Some(callee) = fn_drives.get(c as usize) else {
                    continue;
                };
                add.extend(callee.iter().filter(|s| !fn_drives[i].contains(s)));
            }
            if !add.is_empty() {
                fn_drives[i].extend(add);
                fn_drives[i].sort_unstable();
                fn_drives[i].dedup();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    program
        .processes
        .iter()
        .map(|p| {
            let (mut d, mut c) = (Vec::new(), Vec::new());
            scan_drives(&p.code, &mut d, &mut c);
            for &ci in &c {
                if let Some(callee) = fn_drives.get(ci as usize) {
                    d.extend(callee.iter().copied());
                }
            }
            d.sort_unstable();
            d.dedup();
            d
        })
        .collect()
}

impl Program {
    /// Computes and stores each process's static sensitivity set
    /// ([`crate::isa::ProcessDecl::static_sens`]). The elaborator calls
    /// this once per design so simulators built from the same program
    /// (server re-runs, batch workers) skip the code walk.
    pub fn finalize_sensitivity(&mut self) {
        let sens = static_sensitivity(self);
        for (p, s) in self.processes.iter_mut().zip(sens) {
            p.static_sens = Some(Arc::new(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use ag_harness::{check, check_eq, forall, Config, Source};

    use super::*;
    use crate::isa::FnDecl;
    use crate::value::Val;

    #[test]
    fn calendar_near_far_and_stale_sweep() {
        let mut cal = Calendar::new();
        cal.push(Time::fs(0).next_delta(), CalKind::Timeout { proc: 0 });
        cal.push(Time::fs(5), CalKind::Driver { sig: 1, di: 0 });
        cal.push(Time::fs(3), CalKind::Driver { sig: 2, di: 0 });
        // All valid: min is the delta entry at the current instant.
        assert_eq!(cal.min_valid(|_| true), Some(Time::fs(0).next_delta()));
        // Invalidate the near entry: min comes from the far heap.
        assert_eq!(
            cal.min_valid(|e| !matches!(e.kind, CalKind::Timeout { .. })),
            Some(Time::fs(3))
        );
        // The stale near entry was swept.
        assert_eq!(cal.near.len(), 0);
        let (mut d, mut t) = (Vec::new(), Vec::new());
        cal.advance_fs(3);
        cal.pop_due(Time::fs(3), &mut d, &mut t);
        assert_eq!(d, [(2, 0)]);
        assert!(t.is_empty());
        assert_eq!(cal.min_valid(|_| true), Some(Time::fs(5)));
    }

    #[test]
    fn calendar_fs_advance_drops_near() {
        let mut cal = Calendar::new();
        cal.push(Time::ZERO, CalKind::Driver { sig: 0, di: 0 });
        cal.push(Time::fs(9), CalKind::Driver { sig: 1, di: 0 });
        cal.advance_fs(9);
        assert_eq!(cal.min_valid(|_| true), Some(Time::fs(9)));
        let (mut d, mut t) = (Vec::new(), Vec::new());
        cal.pop_due(Time::fs(9), &mut d, &mut t);
        assert_eq!(d, [(1, 0)]);
    }

    #[test]
    fn sensitivity_reaches_through_calls() {
        let mut p = Program::default();
        let a = p.add_signal("a", Val::Int(0));
        let b = p.add_signal("b", Val::Int(0));
        // Procedure 1 waits on b; procedure 0 calls procedure 1.
        let f1 = p.add_function(FnDecl {
            name: "inner".into(),
            n_params: 0,
            n_locals: 0,
            code: Arc::new(vec![
                Insn::Wait {
                    sens: Arc::new(vec![b]),
                    with_timeout: false,
                },
                Insn::Ret { has_value: false },
            ]),
            level: 1,
        });
        p.add_function(FnDecl {
            name: "outer".into(),
            n_params: 0,
            n_locals: 0,
            code: Arc::new(vec![Insn::Call(f1), Insn::Ret { has_value: false }]),
            level: 1,
        });
        p.add_process(
            "p0",
            0,
            vec![
                Insn::Call(crate::isa::FnId(1)),
                Insn::Wait {
                    sens: Arc::new(vec![a]),
                    with_timeout: false,
                },
                Insn::Halt,
            ],
        );
        p.add_process("p1", 0, vec![Insn::Halt]);
        let sens = static_sensitivity(&p);
        assert_eq!(sens[0], vec![a, b]);
        assert!(sens[1].is_empty());
        p.finalize_sensitivity();
        let idx = SensIndex::build(&p);
        assert_eq!(idx.watchers(a.0 as usize), [0]);
        assert_eq!(idx.watchers(b.0 as usize), [0]);
        assert_eq!(idx.of_proc(0), &[a, b]);
    }

    #[test]
    fn drives_reach_through_calls() {
        let mut p = Program::default();
        let a = p.add_signal("a", Val::Int(0));
        let b = p.add_signal("b", Val::Int(0));
        // A procedure that schedules on b; process 0 calls it and also
        // drives a directly. Process 1 drives nothing.
        let f = p.add_function(FnDecl {
            name: "drv".into(),
            n_params: 0,
            n_locals: 0,
            code: Arc::new(vec![
                Insn::PushInt(1),
                Insn::PushInt(0),
                Insn::Sched {
                    sig: b,
                    transport: false,
                },
                Insn::Ret { has_value: false },
            ]),
            level: 1,
        });
        p.add_process(
            "p0",
            0,
            vec![
                Insn::Call(f),
                Insn::PushInt(1),
                Insn::PushInt(0),
                Insn::SchedIndex {
                    sig: a,
                    transport: true,
                },
                Insn::Halt,
            ],
        );
        p.add_process("p1", 0, vec![Insn::Halt]);
        let drives = static_drives(&p);
        assert_eq!(drives[0], vec![a, b]);
        assert!(drives[1].is_empty());
        p.finalize_sensitivity();
        let idx = SensIndex::build(&p);
        assert_eq!(idx.drives_of(0), &[a, b]);
        assert!(idx.drives_of(1).is_empty());
    }

    /// Builds a program of `n` processes where process `i` waits on signal
    /// `i` and drives signal `drive(i)`.
    fn footprint_program(n: usize, drive: impl Fn(usize) -> usize) -> Program {
        let mut p = Program::default();
        let sigs: Vec<SigId> = (0..n)
            .map(|i| p.add_signal(&format!("s{i}"), Val::Int(0)))
            .collect();
        for i in 0..n {
            p.add_process(
                &format!("p{i}"),
                0,
                vec![
                    Insn::PushInt(1),
                    Insn::PushInt(0),
                    Insn::Sched {
                        sig: sigs[drive(i)],
                        transport: false,
                    },
                    Insn::Wait {
                        sens: Arc::new(vec![sigs[i]]),
                        with_timeout: false,
                    },
                    Insn::Jump(0),
                ],
            );
        }
        p.finalize_sensitivity();
        p
    }

    #[test]
    fn partitioner_spreads_disjoint_processes() {
        // Each process touches only its own signal: 8 singleton
        // components over 4 workers → 2 per worker, assignment is a pure
        // function of position.
        let p = footprint_program(8, |i| i);
        let idx = SensIndex::build(&p);
        let ready: Vec<u32> = (0..8).collect();
        let mut part = Partitioner::new();
        let mut out = Vec::new();
        part.assign(&ready, &idx, 4, &mut out);
        let mut load = [0u32; 4];
        for &w in &out {
            load[w as usize] += 1;
        }
        assert_eq!(load, [2, 2, 2, 2]);
        // Deterministic across repeated calls (scratch reuse).
        let mut out2 = Vec::new();
        part.assign(&ready, &idx, 4, &mut out2);
        assert_eq!(out, out2);
    }

    #[test]
    fn partitioner_clusters_shared_signal() {
        // Processes 0..4 all drive signal 0 (one component); 4..8 are
        // disjoint. The shared cluster fills one worker to its cap of 2
        // and spills — drivers of one signal MAY land on different
        // workers, which is safe because effects are buffered.
        let p = footprint_program(8, |i| if i < 4 { 0 } else { i });
        let idx = SensIndex::build(&p);
        let ready: Vec<u32> = (0..8).collect();
        let mut part = Partitioner::new();
        let mut out = Vec::new();
        part.assign(&ready, &idx, 4, &mut out);
        // Positions 0 and 1 share a worker (same component, under cap).
        assert_eq!(out[0], out[1]);
        // The spill keeps every worker at the cap.
        let mut load = [0u32; 4];
        for &w in &out {
            load[w as usize] += 1;
        }
        assert_eq!(load, [2, 2, 2, 2]);
    }

    /// Random footprints and ready sets at 2, 4 and 8 workers: every
    /// worker gets at most `ceil(n/jobs)` processes, and the assignment
    /// depends only on `(ready, sens, jobs)` — a partitioner whose
    /// scratch holds an earlier round answers as a fresh one does.
    #[test]
    fn partitioner_balances_and_is_pure() {
        forall!(Config::new("partitioner_balances_and_is_pure"), |s| {
            let jobs = *s.pick(&[2usize, 4, 8]);
            let n_signals = s.usize_in(1, 24);
            let n_procs = s.usize_in(1, 40);
            let set = |s: &mut Source| {
                let mut v: Vec<SigId> = s.vec(0, 3, |s| SigId(s.usize_in(0, n_signals - 1) as u32));
                v.sort_unstable_by_key(|x| x.0);
                v.dedup();
                v
            };
            let mut per_proc = Vec::new();
            let mut drives = Vec::new();
            for _ in 0..n_procs {
                per_proc.push(Arc::new(set(s)));
                drives.push(set(s));
            }
            let sens = SensIndex {
                by_sig: Vec::new(),
                per_proc,
                drives,
                n_signals,
            };
            let ready: Vec<u32> = (0..n_procs as u32).filter(|_| s.bool()).collect();
            let earlier: Vec<u32> = (0..n_procs as u32).filter(|_| s.bool()).collect();

            let mut out = Vec::new();
            Partitioner::new().assign(&ready, &sens, jobs, &mut out);
            check_eq!(out.len(), ready.len());
            let cap = ready.len().div_ceil(jobs).max(1);
            let mut load = vec![0usize; jobs];
            for &w in &out {
                check!((w as usize) < jobs, "worker {w} of {jobs}");
                load[w as usize] += 1;
            }
            check!(
                load.iter().all(|&l| l <= cap),
                "loads {load:?} over cap {cap}"
            );

            let mut used = Partitioner::new();
            let mut scratch = Vec::new();
            used.assign(&earlier, &sens, jobs, &mut scratch);
            let mut again = Vec::new();
            used.assign(&ready, &sens, jobs, &mut again);
            check_eq!(out, again, "reused scratch changed the assignment");
        });
    }

    #[test]
    fn partitioner_jobs_one_is_trivial() {
        let p = footprint_program(3, |i| i);
        let idx = SensIndex::build(&p);
        let mut part = Partitioner::new();
        let mut out = Vec::new();
        part.assign(&[0, 1, 2], &idx, 1, &mut out);
        assert_eq!(out, [0, 0, 0]);
    }
}
