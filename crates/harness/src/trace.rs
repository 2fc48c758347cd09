//! Phase-trace observability: scoped timers and monotone counters.
//!
//! *Systematic Debugging of Attribute Grammars* (Ikezoe et al.) argues AG
//! compilers need built-in evaluation tracing; this module is the
//! repository's version. Compiler phases open a [`span`] (an RAII guard);
//! nested spans build a call tree aggregated by phase name. Counters
//! ([`counter`]) accumulate monotone event counts (tokens lexed, cascade
//! invocations, VIF bytes). When the counting allocator is installed
//! (see [`crate::alloc`]), each phase also attributes allocation volume.
//!
//! Tracing is off by default and costs one thread-local bool check per
//! call site when disabled. The `vhdlc --trace-phases` flag enables it
//! and prints [`report`] as a per-phase time/allocation table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::alloc;

#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total: Duration,
    alloc_bytes: u64,
    allocs: u64,
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    nodes: Vec<Node>,
    /// Indices into `nodes`; the open span stack. Roots have no parent.
    stack: Vec<usize>,
    /// Top-level nodes in first-open order.
    roots: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns tracing on or off for this thread. Turning it on does not clear
/// previously collected data; use [`reset`] for that.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Whether tracing is currently enabled on this thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Discards all collected spans and counters (keeps the enabled flag).
pub fn reset() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let enabled = t.enabled;
        *t = Tracer::default();
        t.enabled = enabled;
    });
}

/// An open phase span; closes (and records) on drop.
pub struct Guard {
    /// The span's node, open time and allocator reading; `None` when
    /// tracing was disabled at open time, so a disabled span reads
    /// neither the clock nor the allocator.
    open: Option<(usize, Instant, alloc::AllocStats)>,
}

/// Opens a span for `name`, nested under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let node = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let parent = t.stack.last().copied();
        // Aggregate by (parent, name): re-entering a phase reuses its node.
        let existing = match parent {
            Some(p) => t.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&c| t.nodes[c].name == name),
            None => t.roots.iter().copied().find(|&c| t.nodes[c].name == name),
        };
        let idx = existing.unwrap_or_else(|| {
            let idx = t.nodes.len();
            t.nodes.push(Node {
                name,
                children: Vec::new(),
                calls: 0,
                total: Duration::ZERO,
                alloc_bytes: 0,
                allocs: 0,
            });
            match parent {
                Some(p) => t.nodes[p].children.push(idx),
                None => t.roots.push(idx),
            }
            idx
        });
        t.stack.push(idx);
        Some(idx)
    });
    Guard {
        open: node.map(|idx| (idx, Instant::now(), alloc::stats())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((idx, start, alloc_at_open)) = self.open else {
            return;
        };
        let elapsed = start.elapsed();
        let alloc_now = alloc::stats();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            // Tolerate out-of-order drops: pop until this span is closed.
            while let Some(top) = t.stack.pop() {
                if top == idx {
                    break;
                }
            }
            let n = &mut t.nodes[idx];
            n.calls += 1;
            n.total += elapsed;
            n.alloc_bytes += alloc_now.bytes.saturating_sub(alloc_at_open.bytes);
            n.allocs += alloc_now
                .allocations
                .saturating_sub(alloc_at_open.allocations);
        });
    }
}

/// Adds `delta` to the named monotone counter (no-op when disabled).
pub fn counter(name: &'static str, delta: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            *t.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// Reads a counter's current value (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    TRACER.with(|t| t.borrow().counters.get(name).copied().unwrap_or(0))
}

/// One row of the phase report.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase name.
    pub name: &'static str,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Times the span was opened.
    pub calls: u64,
    /// Total wall-clock time across calls.
    pub total: Duration,
    /// Time not attributed to child phases.
    pub self_time: Duration,
    /// Bytes allocated while the span was open (0 without the counting
    /// allocator).
    pub alloc_bytes: u64,
    /// Allocation count while the span was open.
    pub allocs: u64,
}

/// The collected trace: phase rows in call-tree order plus counters.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Phases, preorder.
    pub phases: Vec<PhaseRow>,
    /// Monotone counters, name-sorted.
    pub counters: Vec<(String, u64)>,
}

/// Snapshots the current trace into a [`Report`].
pub fn report() -> Report {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut phases = Vec::new();
        fn walk(t: &Tracer, idx: usize, depth: usize, out: &mut Vec<PhaseRow>) {
            let n = &t.nodes[idx];
            let child_total: Duration = n.children.iter().map(|&c| t.nodes[c].total).sum();
            out.push(PhaseRow {
                name: n.name,
                depth,
                calls: n.calls,
                total: n.total,
                self_time: n.total.saturating_sub(child_total),
                alloc_bytes: n.alloc_bytes,
                allocs: n.allocs,
            });
            for &c in &n.children {
                walk(t, c, depth + 1, out);
            }
        }
        for &r in &t.roots {
            walk(&t, r, 0, &mut phases);
        }
        Report {
            phases,
            counters: t
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    })
}

impl Report {
    /// Renders the per-phase time/allocation table plus counters.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<38} {:>7} {:>12} {:>12} {:>12} {:>9}",
            "phase", "calls", "total", "self", "alloc", "allocs"
        );
        let _ = writeln!(s, "{}", "-".repeat(95));
        for p in &self.phases {
            let name = format!("{}{}", "  ".repeat(p.depth), p.name);
            let _ = writeln!(
                s,
                "{:<38} {:>7} {:>12} {:>12} {:>12} {:>9}",
                name,
                p.calls,
                crate::bench::fmt_ns(p.total.as_nanos().min(u128::from(u64::MAX)) as u64),
                crate::bench::fmt_ns(p.self_time.as_nanos().min(u128::from(u64::MAX)) as u64),
                fmt_bytes(p.alloc_bytes),
                p.allocs
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(s, "\n{:<38} {:>12}", "counter", "value");
            let _ = writeln!(s, "{}", "-".repeat(51));
            for (k, v) in &self.counters {
                let _ = writeln!(s, "{k:<38} {v:>12}");
            }
        }
        s
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_collects_nothing() {
        reset();
        set_enabled(false);
        {
            let g = span("ghost");
            assert!(g.open.is_none(), "a disabled span read the clock");
            counter("ghost_events", 5);
        }
        let r = report();
        assert!(r.phases.is_empty());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn nesting_and_aggregation() {
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _outer = span("compile");
            {
                let _inner = span("lex");
                counter("tokens", 10);
            }
            {
                let _inner = span("parse");
            }
        }
        let r = report();
        set_enabled(false);
        reset();
        let names: Vec<(&str, usize, u64)> = r
            .phases
            .iter()
            .map(|p| (p.name, p.depth, p.calls))
            .collect();
        assert_eq!(
            names,
            vec![("compile", 0, 3), ("lex", 1, 3), ("parse", 1, 3)]
        );
        let compile = &r.phases[0];
        let children: Duration = r.phases[1..].iter().map(|p| p.total).sum();
        assert!(compile.total >= children, "parent covers children");
        assert_eq!(r.counters, vec![("tokens".to_string(), 30)]);
    }

    #[test]
    fn reset_clears_keeps_flag() {
        reset();
        set_enabled(true);
        {
            let _g = span("x");
        }
        reset();
        assert!(enabled());
        assert!(report().phases.is_empty());
        set_enabled(false);
    }
}
