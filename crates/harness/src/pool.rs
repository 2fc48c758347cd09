//! The worker pool: long-lived named threads with one mailbox slot each,
//! no channels and no work stealing. The simulation kernel runs a heavy
//! delta cycle's processes on it.
//!
//! The caller addresses workers by index: [`Pool::post`] moves a job into
//! worker `w`'s slot and [`Pool::wait`] moves the answer back out of that
//! same slot, so posting to every worker and then waiting on each is a
//! barrier whose results come back in worker order. Every worker runs its
//! jobs through the one job function the pool was made with.
//!
//! One failure contract: a panic in a job is caught on the worker and
//! re-raised by [`Pool::wait`] on the caller with the same payload. The
//! worker lives on and serves the next job, so a wait never hangs on a
//! dead thread.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// Resolves a user-facing worker count: `0` means one worker per CPU
/// (`available_parallelism`), any other value is used as given.
pub fn resolve_jobs(n: usize) -> usize {
    if n == 0 {
        thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        n
    }
}

/// A slot cycles `Empty` → `Job` (posted) → `Busy` (taken by the worker)
/// → `Done` (answered) → `Empty` (collected).
enum Mail<J, R> {
    Empty,
    Job(J),
    Busy,
    Done(thread::Result<R>),
}

struct State<J, R> {
    mail: Mail<J, R>,
    quit: bool,
}

struct Slot<J, R> {
    state: Mutex<State<J, R>>,
    cv: Condvar,
}

impl<J, R> Slot<J, R> {
    /// Locks the slot, recovering from poisoning: no job runs under the
    /// lock and every update is one assignment, so the state stays valid.
    fn lock(&self) -> MutexGuard<'_, State<J, R>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State<J, R>>) -> MutexGuard<'a, State<J, R>> {
        self.cv.wait(guard).unwrap_or_else(|p| p.into_inner())
    }
}

/// Stack size of every thread that analyzes (the threads the command-line
/// compiler and the server's sessions analyze on) and of pool workers.
/// Attribute demand recursion follows the parse tree, and
/// `ag_core::MAX_DEPTH` bounds it to half of this stack in a debug build,
/// so a unit gets the same outcome on every thread. Untouched stack pages
/// cost no memory.
pub const STACK_SIZE: usize = 128 << 20;

/// Runs `f` to completion on a new thread named `name` with a
/// [`STACK_SIZE`] stack and returns its answer: how a command-line tool
/// gets the same stack on its main path as the server's sessions. A panic
/// in `f` is re-raised here with the same payload.
pub fn run_on_stack<R: Send + 'static>(name: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    thread::Builder::new()
        .name(name.to_string())
        .stack_size(STACK_SIZE)
        .spawn(f)
        .expect("spawn thread")
        .join()
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// A fixed set of worker threads taking jobs `J` and answering `R`.
/// Dropping the pool stops and joins every worker.
pub struct Pool<J, R> {
    slots: Vec<Arc<Slot<J, R>>>,
    joins: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static, R: Send + 'static> Pool<J, R> {
    /// Spawns `n` workers named `{name}-{i}`, each running every job it
    /// is posted through `f`. Counts one `pool-spawn` trace event.
    pub fn new<F>(n: usize, name: &str, f: F) -> Pool<J, R>
    where
        F: Fn(J) -> R + Send + Sync + 'static,
    {
        crate::trace::counter("pool-spawn", 1);
        let f = Arc::new(f);
        let (slots, joins) = (0..n)
            .map(|i| {
                let slot = Arc::new(Slot {
                    state: Mutex::new(State {
                        mail: Mail::Empty,
                        quit: false,
                    }),
                    cv: Condvar::new(),
                });
                let (ws, f) = (Arc::clone(&slot), Arc::clone(&f));
                let join = thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .stack_size(STACK_SIZE)
                    .spawn(move || serve(&ws, &*f))
                    .expect("spawn pool worker");
                (slot, join)
            })
            .unzip();
        Pool { slots, joins }
    }
}

impl<J, R> Pool<J, R> {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Hands `job` to worker `w`, whose last answer must have been
    /// collected.
    pub fn post(&self, w: usize, job: J) {
        let slot = &self.slots[w];
        let mut st = slot.lock();
        assert!(matches!(st.mail, Mail::Empty), "pool worker {w} is busy");
        st.mail = Mail::Job(job);
        drop(st);
        slot.cv.notify_all();
    }

    /// Blocks until worker `w` answers its posted job and returns the
    /// answer, re-raising the job's panic if it panicked.
    pub fn wait(&self, w: usize) -> R {
        let slot = &self.slots[w];
        let mut st = slot.lock();
        loop {
            match std::mem::replace(&mut st.mail, Mail::Empty) {
                Mail::Done(out) => {
                    drop(st);
                    return out.unwrap_or_else(|payload| panic::resume_unwind(payload));
                }
                Mail::Empty => panic!("pool worker {w} has no posted job"),
                busy => st.mail = busy,
            }
            st = slot.wait(st);
        }
    }
}

impl<J, R> Drop for Pool<J, R> {
    fn drop(&mut self) {
        for slot in &self.slots {
            // Set under the lock, so a worker between its quit check and
            // its wait cannot miss the notification.
            slot.lock().quit = true;
            slot.cv.notify_all();
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

/// One worker's life: take, run and answer jobs until the pool quits.
fn serve<J, R>(slot: &Slot<J, R>, f: &impl Fn(J) -> R) {
    loop {
        let mut st = slot.lock();
        let job = loop {
            if st.quit {
                return;
            }
            match std::mem::replace(&mut st.mail, Mail::Busy) {
                Mail::Job(job) => break job,
                other => st.mail = other,
            }
            st = slot.wait(st);
        };
        drop(st);
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(job)));
        slot.lock().mail = Mail::Done(out);
        slot.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_means_one_per_cpu() {
        let cpus = thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(resolve_jobs(0), cpus);
        assert_eq!(resolve_jobs(3), 3);
    }

    /// The name of the thread the caller runs on.
    fn thread_name() -> Option<String> {
        thread::current().name().map(str::to_string)
    }

    #[test]
    fn each_result_comes_back_to_its_slot() {
        let pool = Pool::new(4, "slot-test", |x: usize| (thread_name(), x * 10));
        for round in 0..3 {
            for w in 0..4 {
                pool.post(w, round + w);
            }
            // Collected in reverse: answers are keyed by slot, not by
            // which worker finished first.
            for w in (0..4).rev() {
                let want = (Some(format!("slot-test-{w}")), (round + w) * 10);
                assert_eq!(pool.wait(w), want);
            }
        }
    }

    #[test]
    fn jobs_run_on_the_worker_threads() {
        let caller = thread::current().id();
        let pool = Pool::new(2, "home-test", move |()| {
            assert!(thread::current().id() != caller);
            thread_name()
        });
        for _ in 0..3 {
            pool.post(1, ());
            assert_eq!(pool.wait(1), Some("home-test-1".to_string()));
        }
    }

    #[test]
    fn panicking_job_reraises_at_wait_and_worker_survives() {
        let pool = Pool::new(2, "panic-test", |x: i32| {
            assert!(x >= 0, "negative job {x}");
            x + 1
        });
        let payload = |w| panic::catch_unwind(AssertUnwindSafe(|| pool.wait(w))).unwrap_err();
        pool.post(0, -7);
        assert_eq!(
            payload(0).downcast_ref::<String>().unwrap(),
            "negative job -7"
        );
        pool.post(0, 41);
        assert_eq!(pool.wait(0), 42, "the same worker serves the next job");
        pool.post(1, -1);
        assert_eq!(
            payload(1).downcast_ref::<String>().unwrap(),
            "negative job -1"
        );
    }

    #[test]
    fn drop_returns_promptly() {
        for _ in 0..20 {
            drop(Pool::new(3, "never-posted", |x: u8| x));
            let pool = Pool::new(3, "idle", |x: u8| x);
            for w in 0..3 {
                pool.post(w, 1);
            }
            for w in 0..3 {
                assert_eq!(pool.wait(w), 1);
            }
        }
    }
}
