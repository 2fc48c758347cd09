//! `vhdld` — a session-oriented compile-and-simulate server.
//!
//! The paper's pipeline (analysis → VIF library → elaboration → kernel)
//! was built for one-shot batch runs; this crate keeps it resident. A
//! **session** is one connection with a private copy-on-write workspace:
//! the work library forks from the server's base snapshot by `Arc<str>`
//! reference (no VIF text is copied), `analyze` requests run the batch
//! compiler's wave scheduler inline on the session's thread, and
//! `inspect`/`trace` requests resolve hierarchical path names and globs
//! through the kernel's Name Server against the live simulation.
//!
//! # Session threads and the session runtime
//!
//! The crate splits along one seam (DESIGN.md §13):
//!
//! - **session threads**: [`Server::serve`]'s calling thread is the one
//!   acceptor (the overload bound and session numbering), and each
//!   admitted connection is served on a thread of its own by the same
//!   request loop that serves `--stdio` ([`Server::serve_stream`]).
//!   Sessions are `!Send` by construction, so a session is created on
//!   its thread and stays there; `max_clients` bounds the threads;
//! - the **session runtime** is everything behind one connection — the
//!   compiler fork, the simulator, the VCD/probe state — and is
//!   checkpointable: the `checkpoint` op serializes it to one sealed
//!   blob, and `restore` rebuilds it (in any session holding the same
//!   library units) to continue with byte-identical observables.
//!
//! Robustness contract (see DESIGN.md §10):
//! - frames over [`proto::MAX_FRAME`] are refused before allocation;
//! - every request runs under a wall-clock deadline; `run` additionally
//!   honors cooperative cancellation between simulation cycles;
//! - sessions beyond `max_clients` are rejected with an explicit
//!   `overloaded` error frame, never queued invisibly; sessions beyond a
//!   tenant's quota get an explicit `tenant-quota` rejection the same way;
//! - `shutdown` drains: the acceptor stops admitting, each session
//!   answers at most the frame already on its way (an in-flight `run`
//!   returns a `draining` outcome) and closes, an idle session sees the
//!   flag at its 200 ms read timeout, and `serve` returns once every
//!   session thread has ended;
//! - a panicking request handler answers with an `internal error`
//!   response instead of killing the connection;
//! - every request leaves one structured access-log line and updates the
//!   per-op latency/byte counters that `stats` reports (p50/p95/p99).

pub mod b64;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod session;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use vhdl_vif::LibrarySnapshot;

use json::{obj, Json};
use metrics::Metrics;
use proto::{read_frame, write_frame, FrameRead};
use session::{RequestCtl, Session};

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections get an
    /// `overloaded` rejection frame.
    pub max_clients: usize,
    /// Per-request wall-clock deadline.
    pub deadline: Duration,
    /// Ignored: a session analyzes on its own thread. Kept because the
    /// benchmark's `serve` workload still sets it.
    pub jobs: usize,
    /// Suppress the access log (tests).
    pub quiet: bool,
    /// Ignored: every session has a thread of its own. Kept because the
    /// benchmark's `serve` workload still sets it.
    pub workers: usize,
    /// Ignored: `serve`'s calling thread is the one acceptor. Kept for
    /// the same reason as `workers`.
    pub acceptors: usize,
    /// Maximum concurrent sessions bound to one tenant (a request's
    /// optional `tenant` field); the binding request beyond the quota
    /// gets an explicit `tenant-quota` rejection frame.
    pub tenant_max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_clients: 32,
            deadline: session::DEFAULT_DEADLINE,
            jobs: 2,
            quiet: false,
            workers: 4,
            acceptors: 2,
            tenant_max_sessions: 32,
        }
    }
}

/// State shared by the acceptor and every session thread.
struct Shared {
    cfg: ServerConfig,
    shutting_down: AtomicBool,
    active: AtomicUsize,
    next_session: AtomicU64,
    metrics: Mutex<Metrics>,
    base: Option<LibrarySnapshot>,
    started: Instant,
    /// Live session count per tenant name, for quota admission.
    tenants: Mutex<HashMap<String, usize>>,
}

/// The server. [`Server::serve`] accepts connections and serves each
/// on its own thread, with a [`Session`] confined to that thread.
pub struct Server {
    shared: Arc<Shared>,
}

/// Renders a payload captured by `catch_unwind`: a session's or a
/// request handler's panic.
fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn epoch_ms() -> u128 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

impl Server {
    /// Creates a server; sessions fork their work library from `base`
    /// when given.
    pub fn new(cfg: ServerConfig, base: Option<LibrarySnapshot>) -> Server {
        Server {
            shared: Arc::new(Shared {
                cfg,
                shutting_down: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                next_session: AtomicU64::new(1),
                metrics: Mutex::new(Metrics::default()),
                base,
                started: Instant::now(),
                tenants: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// A handle that flips the drain flag from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves connections until a `shutdown` request (or
    /// [`ShutdownHandle::shutdown`]) drains the server; returns after the
    /// last session closes.
    ///
    /// # Errors
    ///
    /// Fatal listener I/O errors only, returned after the open sessions
    /// drain; per-connection errors, a failed thread spawn included, are
    /// handled per connection.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut sessions = Vec::new();
        let mut result = Ok(());
        while !self.shared.shutting_down.load(Ordering::SeqCst) {
            // A finished thread keeps its stack until it is joined.
            let (done, open) = sessions.into_iter().partition(JoinHandle::is_finished);
            sessions = open;
            self.shared.join_sessions(done);
            match listener.accept() {
                Ok((stream, peer)) => {
                    let Some(sid) = self.shared.admit(&stream, peer) else {
                        continue;
                    };
                    let shared = Arc::clone(&self.shared);
                    let spawned = std::thread::Builder::new()
                        .name(format!("vhdld-session-{sid}"))
                        .stack_size(vhdl_driver::STACK_SIZE)
                        .spawn(move || serve_conn(&shared, &stream, sid));
                    match spawned {
                        Ok(h) => sessions.push(h),
                        Err(e) => {
                            // The stream dropped with the closure: the
                            // client sees a clean close.
                            self.shared.active.fetch_sub(1, Ordering::SeqCst);
                            self.shared.log(&format!("session={sid} spawn-error: {e}"));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // A peer that reset before `accept` is not a listener fault.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => {
                    self.shared.log(&format!("acceptor-error: {e}"));
                    self.shared.shutting_down.store(true, Ordering::SeqCst);
                    result = Err(e);
                }
            }
        }
        self.shared.join_sessions(sessions);
        self.shared.log("drained");
        result
    }

    /// Serves exactly one session over arbitrary streams (`--stdio`
    /// mode; also the harness for deterministic protocol tests).
    pub fn serve_stream(&self, reader: &mut impl Read, writer: &mut impl Write) {
        let sid = self.shared.open_session();
        session_loop(&self.shared, reader, writer, sid, |_| Ok(()));
    }
}

/// Cross-thread drain trigger.
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Starts the drain.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
    }
}

impl Shared {
    fn log(&self, line: &str) {
        if !self.cfg.quiet {
            eprintln!("vhdld[{}ms] {line}", epoch_ms());
        }
    }

    /// Joins session threads, logging a panic that escaped a session loop.
    fn join_sessions(&self, threads: Vec<JoinHandle<()>>) {
        for h in threads {
            if let Err(p) = h.join() {
                self.log(&format!("session-panic: {}", panic_text(p)));
            }
        }
    }

    /// Numbers a new session and counts it in the metrics.
    fn open_session(&self) -> u64 {
        self.metrics
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .sessions += 1;
        self.next_session.fetch_add(1, Ordering::SeqCst)
    }

    /// Admission: applies the overload bound to an accepted stream and
    /// numbers the session. A rejected stream gets one `overloaded`
    /// frame, then closes; nothing queues invisibly.
    fn admit(&self, stream: &TcpStream, peer: SocketAddr) -> Option<u64> {
        stream.set_nonblocking(false).ok()?;
        // Request/response framing; never batch small writes.
        let _ = stream.set_nodelay(true);
        let active = self.active.fetch_add(1, Ordering::SeqCst);
        if active >= self.cfg.max_clients {
            self.active.fetch_sub(1, Ordering::SeqCst);
            self.metrics
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .overloaded += 1;
            let reply = obj([
                ("id", Json::Null),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::str(format!(
                        "overloaded: {} active sessions (max {})",
                        active, self.cfg.max_clients
                    )),
                ),
            ]);
            let _ = write_frame(&mut &*stream, &reply.to_text());
            self.log(&format!("reject peer={peer} reason=overloaded"));
            return None;
        }
        let sid = self.open_session();
        self.log(&format!("accept session={sid} peer={peer}"));
        Some(sid)
    }
}

/// One admitted connection's thread: runs the session loop with tenant
/// binding, then releases the admission and tenant slots.
fn serve_conn(shared: &Shared, stream: &TcpStream, sid: u64) {
    // The timeout is how an idle session sees the drain flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut tenant = None;
    session_loop(shared, &mut &*stream, &mut &*stream, sid, |t| {
        bind_tenant(shared, &mut tenant, sid, t)
    });
    if let Some(t) = tenant {
        let mut m = shared.tenants.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(n) = m.get_mut(&t) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                m.remove(&t);
            }
        }
    }
    shared.active.fetch_sub(1, Ordering::SeqCst);
    shared.log(&format!("close session={sid}"));
}

/// Serves one request frame on `session`: parses it, passes a claimed
/// tenant to `admit` before routing (so an over-quota session is
/// rejected without doing any of its work), routes it, records and logs
/// it, and writes the reply. Returns whether the connection stays open:
/// it closes after `shutdown`, a refused admission or a failed write.
fn serve_request(
    shared: &Shared,
    session: &mut Session,
    sid: u64,
    text: &str,
    writer: &mut impl Write,
    admit: impl FnOnce(&str) -> Result<(), Json>,
) -> bool {
    let bytes_in = text.len() as u64;
    let t0 = Instant::now();
    let (id, op, reply) = match parse_request(text) {
        Parsed::Bad(reply) => (0, "parse-error".to_string(), reply),
        Parsed::Req {
            id,
            op,
            tenant,
            body,
        } => {
            if let Some(Err(reply)) = tenant.map(|t| admit(&t)) {
                let text = finish_request(shared, sid, id, "tenant-quota", bytes_in, t0, &reply);
                let _ = write_frame(writer, &text);
                return false;
            }
            let reply = route(shared, session, sid, id, &op, &body);
            (id, op, reply)
        }
    };
    let reply_text = finish_request(shared, sid, id, &op, bytes_in, t0, &reply);
    write_frame(writer, &reply_text).is_ok() && op != "shutdown"
}

/// Binds connection `sid`, currently bound to `tenant`, to tenant `t`,
/// enforcing the per-tenant session quota. On rejection the returned
/// reply frame is ready to write.
fn bind_tenant(
    shared: &Shared,
    tenant: &mut Option<String>,
    sid: u64,
    t: &str,
) -> Result<(), Json> {
    match tenant {
        Some(bound) if bound == t => Ok(()),
        Some(bound) => {
            // A connection that changes its claimed identity mid-stream
            // is refused and closed, like any other admission failure.
            Err(obj([
                ("id", Json::Null),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::str(format!("tenant: connection is already bound to `{bound}`")),
                ),
            ]))
        }
        None => {
            let mut m = shared.tenants.lock().unwrap_or_else(|p| p.into_inner());
            let n = m.entry(t.to_string()).or_insert(0);
            if *n >= shared.cfg.tenant_max_sessions {
                let count = *n;
                drop(m);
                shared
                    .metrics
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .tenant_rejected += 1;
                shared.log(&format!(
                    "reject session={sid} tenant={t} reason=tenant-quota"
                ));
                return Err(obj([
                    ("id", Json::Null),
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::str(format!(
                            "tenant-quota: tenant `{t}` has {count} active sessions (max {})",
                            shared.cfg.tenant_max_sessions
                        )),
                    ),
                ]));
            }
            *n += 1;
            *tenant = Some(t.to_string());
            Ok(())
        }
    }
}

/// The request loop of one session, for TCP, `--stdio` and the stream
/// harness alike. `admit` binds a request's claimed tenant: quota-checked
/// over TCP, accepted as is over stdio (the process *is* the session).
/// Once the drain flag is up the session answers at most the frame
/// already on its way, then closes.
fn session_loop(
    shared: &Shared,
    reader: &mut impl Read,
    writer: &mut impl Write,
    sid: u64,
    mut admit: impl FnMut(&str) -> Result<(), Json>,
) {
    let mut session = Session::new(shared.base.as_ref());
    loop {
        let text = match read_frame(reader) {
            Ok(FrameRead::Frame(t)) => t,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Idle) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) => {
                shared.log(&format!("session={sid} protocol-error: {e}"));
                return;
            }
        };
        if !serve_request(shared, &mut session, sid, &text, writer, &mut admit)
            || shared.shutting_down.load(Ordering::SeqCst)
        {
            return;
        }
    }
}

/// A parsed request envelope.
enum Parsed {
    /// Unparseable; the error reply is ready to write.
    Bad(Json),
    Req {
        id: u64,
        op: String,
        tenant: Option<String>,
        body: Json,
    },
}

fn parse_request(text: &str) -> Parsed {
    match json::parse(text) {
        Ok(body) => {
            let id = body.get("id").and_then(Json::as_u64).unwrap_or(0);
            let op = body
                .get("op")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let tenant = body
                .get("tenant")
                .and_then(Json::as_str)
                .map(str::to_string);
            Parsed::Req {
                id,
                op,
                tenant,
                body,
            }
        }
        Err(e) => Parsed::Bad(obj([
            ("id", Json::Null),
            ("ok", Json::Bool(false)),
            ("error", Json::str(format!("bad request: {e}"))),
        ])),
    }
}

/// Routes one parsed request and wraps the result in a reply envelope.
fn route(shared: &Shared, session: &mut Session, sid: u64, id: u64, op: &str, body: &Json) -> Json {
    let result = match op {
        "" => Err("request needs an `op` string".to_string()),
        "shutdown" => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            Ok(obj([("draining", Json::Bool(true))]))
        }
        "stats" => Ok(stats_json(shared, session, sid)),
        _ => {
            let ctl = RequestCtl {
                wall_deadline: Instant::now() + shared.cfg.deadline,
                shutting_down: &shared.shutting_down,
                metrics: &shared.metrics,
            };
            // A handler panic answers this request; it must not kill the
            // session.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.handle(op, body, &ctl)
            }))
            .unwrap_or_else(|p| Err(format!("internal error: {}", panic_text(p))))
        }
    };
    match result {
        Ok(body) => obj([
            ("id", Json::u64(id)),
            ("ok", Json::Bool(true)),
            ("result", body),
        ]),
        Err(e) => obj([
            ("id", Json::u64(id)),
            ("ok", Json::Bool(false)),
            ("error", Json::str(e)),
        ]),
    }
}

/// Renders `reply`, records the per-op counters, and writes the access
/// log line. Returns the reply text ready for the wire.
fn finish_request(
    shared: &Shared,
    sid: u64,
    id: u64,
    op: &str,
    bytes_in: u64,
    t0: Instant,
    reply: &Json,
) -> String {
    let ok = reply.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let reply_text = reply.to_text();
    // The latency covers the reply's encoding.
    let us = t0.elapsed().as_micros() as u64;
    let bytes_out = reply_text.len() as u64;
    shared
        .metrics
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .record(op, bytes_in, bytes_out, us, ok);
    shared.log(&format!(
        "session={sid} id={id} op={op} in={bytes_in}B out={bytes_out}B us={us} {}",
        if ok { "ok" } else { "err" }
    ));
    reply_text
}

fn stats_json(shared: &Shared, session: &Session, sid: u64) -> Json {
    let mut j = shared
        .metrics
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .to_json();
    // Process-wide unit-load counter (summed over every session thread).
    let vifb = vhdl_vif::vifb_stats();
    let extra = [
        (
            "uptime_ms".to_string(),
            Json::u64(shared.started.elapsed().as_millis() as u64),
        ),
        (
            "vifb".to_string(),
            obj([("text_parses", Json::u64(vifb.text_parses))]),
        ),
        (
            "active_sessions".to_string(),
            Json::u64(shared.active.load(Ordering::SeqCst) as u64),
        ),
        (
            "session".to_string(),
            obj([
                ("id", Json::u64(sid)),
                ("units", Json::u64(session.unit_count() as u64)),
                ("program_hits", Json::u64(session.program_counts().0)),
                ("program_misses", Json::u64(session.program_counts().1)),
                (
                    "sim_time",
                    session
                        .sim_time()
                        .map(|t| Json::str(format!("{t}")))
                        .unwrap_or(Json::Null),
                ),
                (
                    "scheduler",
                    session
                        .sim_stats()
                        .map(|st| {
                            obj([
                                ("calendar_ops", Json::u64(st.calendar_ops)),
                                ("woken_procs", Json::u64(st.woken_procs)),
                                ("scanned_signals", Json::u64(st.scanned_signals)),
                            ])
                        })
                        .unwrap_or(Json::Null),
                ),
            ]),
        ),
    ];
    if let Json::Obj(m) = &mut j {
        for (k, v) in extra {
            m.push((k, v));
        }
    }
    j
}
