//! Event-driven scheduling structures: the pending-event calendar and the
//! static sensitivity index.
//!
//! The seed kernel found the next simulation time by scanning every driver
//! of every signal and every suspended process — O(design size) per cycle.
//! The structures here make both lookups O(activity):
//!
//! - `Calendar` is a time-ordered queue of pending instants, split into
//!   a *near* bucket (entries at the current femtosecond, including delta
//!   cycles — an unsorted vector swept linearly, since delta traffic is
//!   bursty and short-lived) and a *far* min-heap (entries at future
//!   instants). Entries are append-only and lazily invalidated: transaction
//!   preemption and early process resumption leave stale entries behind,
//!   and the consumer filters them against live kernel state instead of
//!   searching the queue.
//! - `SensIndex` inverts the processes' static wait sensitivities into a
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
/// subprograms).
pub(crate) struct SensIndex {
    /// Process indices sensitive to each signal, ascending.
    by_sig: Vec<Vec<u32>>,
    /// Each process's full static sensitivity set, ascending (surfaced
    /// for inspection).
    per_proc: Vec<Arc<Vec<SigId>>>,
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
        SensIndex { by_sig, per_proc }
    }

    /// Processes statically sensitive to signal `sig`.
    pub fn watchers(&self, sig: usize) -> &[u32] {
        &self.by_sig[sig]
    }

    /// A process's full static sensitivity set.
    pub fn of_proc(&self, pi: usize) -> &[SigId] {
        &self.per_proc[pi]
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

impl Program {
    /// Computes and stores each process's static sensitivity set
    /// ([`crate::isa::ProcessDecl::static_sens`]). The elaborator calls
    /// this once per design so simulators built from the same program
    /// (server re-runs) skip the code walk.
    pub fn finalize_sensitivity(&mut self) {
        let sens = static_sensitivity(self);
        for (p, s) in self.processes.iter_mut().zip(sens) {
            p.static_sens = Some(Arc::new(s));
        }
    }
}

#[cfg(test)]
mod tests {
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
}
