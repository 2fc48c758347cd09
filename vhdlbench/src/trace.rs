//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each crate's
//! public functions; nothing inside the program is instrumented. Each
//! thread records into its own buffer (a thread-local), and the buffers
//! merge when the workload ends. Every span keeps its name, start, end,
//! parent and request id. Per-name totals (count, total and self time)
//! accumulate as spans close, so the retained span list can be capped
//! without losing the aggregate numbers.
//!
//! A disabled recorder costs one thread-local flag check per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per thread for `trace.json`; totals count every span.
const MAX_KEPT: usize = 100_000;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's list.
    pub parent: Option<usize>,
    /// Request (or pass) id the span belongs to.
    pub req: u64,
    pub thread: usize,
}

/// Aggregate of every span (or carved interval) with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans and carved intervals.
    pub self_ns: u64,
}

/// What one or more threads recorded.
#[derive(Debug, Default)]
pub struct Log {
    /// Retained spans; `parent` indexes into the same thread's run of
    /// this list, offset by `base` of that thread (see [`Log::merge`]).
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, Totals>,
    /// Summed duration of top-level spans.
    pub root_ns: u64,
    /// Spans recorded but not retained.
    pub dropped: u64,
}

impl Log {
    /// Appends another thread's log, re-basing its parent indices.
    pub fn merge(&mut self, other: Log) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, t) in other.totals {
            let e = self.totals.entry(k).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        self.root_ns += other.root_ns;
        self.dropped += other.dropped;
    }

    /// Totals of one span name (zeros when never recorded).
    pub fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Checks that every retained span lies inside its parent. Returns
    /// the number of violations.
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| match s.parent {
                Some(p) => {
                    let parent = &self.spans[p];
                    s.start_ns < parent.start_ns
                        || s.end_ns > parent.end_ns
                        || s.end_ns - s.start_ns > parent.end_ns - parent.start_ns
                }
                None => false,
            })
            .count()
    }

    /// Renders the retained spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"thread\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                s.thread,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    kept: Option<usize>,
    /// Time covered by closed children and carved intervals.
    inner_ns: u64,
}

struct Local {
    epoch: Instant,
    thread: usize,
    enabled: bool,
    req: u64,
    stack: Vec<Open>,
    log: Log,
}

impl Local {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Installs a disabled recorder on this thread. `epoch` is shared by all
/// threads of a run so their spans sit on one timeline.
pub fn install(epoch: Instant, thread: usize) {
    LOCAL.with(|l| {
        *l.borrow_mut() = Some(Local {
            epoch,
            thread,
            enabled: false,
            req: 0,
            stack: Vec::new(),
            log: Log::default(),
        });
    });
}

/// Turns recording on or off for this thread (between spans only).
pub fn set_enabled(on: bool) {
    LOCAL.with(|l| {
        if let Some(l) = l.borrow_mut().as_mut() {
            debug_assert!(l.stack.is_empty(), "toggled inside a span");
            l.enabled = on;
        }
    });
}

/// Sets the request id recorded on spans opened from now on.
pub fn set_request(id: u64) {
    LOCAL.with(|l| {
        if let Some(l) = l.borrow_mut().as_mut() {
            l.req = id;
        }
    });
}

/// Removes this thread's recorder and returns what it recorded.
pub fn take() -> Log {
    LOCAL.with(|l| l.borrow_mut().take().map(|l| l.log).unwrap_or_default())
}

/// An open span; closes on drop. Guards nest lexically, so spans close in
/// the reverse order they opened.
pub struct Guard {
    active: bool,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let active = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(l) = l.as_mut().filter(|l| l.enabled) else {
            return false;
        };
        let start_ns = l.now_ns();
        let kept = if l.log.spans.len() < MAX_KEPT {
            let parent = l.stack.last().and_then(|o| o.kept);
            l.log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req: l.req,
                thread: l.thread,
            });
            Some(l.log.spans.len() - 1)
        } else {
            l.log.dropped += 1;
            None
        };
        l.stack.push(Open {
            name,
            start_ns,
            kept,
            inner_ns: 0,
        });
        true
    });
    Guard { active }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(l) = l.as_mut() else { return };
            let Some(open) = l.stack.pop() else { return };
            let end_ns = l.now_ns();
            let dur = end_ns - open.start_ns;
            if let Some(i) = open.kept {
                l.log.spans[i].end_ns = end_ns;
            }
            let t = l.log.totals.entry(open.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(open.inner_ns);
            match l.stack.last_mut() {
                Some(parent) => parent.inner_ns += dur,
                None => l.log.root_ns += dur,
            }
        });
    }
}

/// Attributes `ns` nanoseconds spent inside the innermost open span to
/// layer `name` — for work too fine-grained to open a span per call, such
/// as VCD observer callbacks. Ignored outside any span.
pub fn carve(name: &'static str, ns: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(l) = l.as_mut().filter(|l| l.enabled) else {
            return;
        };
        let Some(top) = l.stack.last_mut() else {
            return;
        };
        top.inner_ns += ns;
        let t = l.log.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += ns;
        t.self_ns += ns;
    });
}

/// Whether this thread is recording.
pub fn enabled() -> bool {
    LOCAL.with(|l| l.borrow().as_ref().is_some_and(|l| l.enabled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_never_outlast_parents_and_self_times_add_up() {
        install(Instant::now(), 0);
        set_enabled(true);
        for r in 0..20u64 {
            set_request(r);
            let _root = span("root");
            spin(20);
            {
                let _a = span("a");
                spin(30);
                let _b = span("b");
                spin(10);
                carve("c", 5_000);
            }
            let _d = span("d");
            spin(5);
        }
        let log = take();
        assert_eq!(log.nesting_violations(), 0);
        assert_eq!(log.spans.len(), 80);
        assert!(log.spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Self times of every layer, carved intervals included, add up to
        // exactly the top-level time.
        let self_sum: u64 = log.totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, log.root_ns);
        assert_eq!(log.get("root").total_ns, log.root_ns);
        assert_eq!(log.get("c").total_ns, 20 * 5_000);
        assert!(log.get("a").total_ns >= log.get("b").total_ns);
        assert_eq!(log.spans[1].req, 0);
        assert_eq!(log.spans[79].req, 19);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        install(Instant::now(), 0);
        {
            let _s = span("x");
            carve("y", 10);
        }
        let log = take();
        assert!(log.spans.is_empty() && log.totals.is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Log::default();
        for t in 0..2 {
            install(Instant::now(), t);
            set_enabled(true);
            {
                let _p = span("p");
                let _c = span("c");
            }
            a.merge(take());
        }
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.get("p").count, 2);
        assert_eq!(a.nesting_violations(), 0);
    }
}
