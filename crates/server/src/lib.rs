//! `vhdld` — a session-oriented compile-and-simulate server.
//!
//! The paper's pipeline (analysis → VIF library → elaboration → kernel)
//! was built for one-shot batch runs; this crate keeps it resident. A
//! **session** is one connection with a private copy-on-write workspace:
//! the work library forks from the server's base snapshot by `Arc<str>`
//! reference (no VIF text is copied), `analyze` requests fan over the
//! batch compiler's wave scheduler on a session-local worker pool, and
//! `inspect`/`trace` requests resolve hierarchical path names and globs
//! through the kernel's Name Server against the live simulation.
//!
//! # Serving core vs. session runtime
//!
//! The crate splits along a fleet-scale seam (DESIGN.md §13):
//!
//! - the **serving core** is a fixed thread budget regardless of client
//!   count: `acceptors` threads share one listener and do nothing but
//!   admission (overload rejection, session numbering), and `workers`
//!   threads each own a shard of the accepted connections, sweeping them
//!   with non-blocking frame polls. Sessions are `!Send` by construction,
//!   so a connection is pinned to the worker that created its session;
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
//! - within one worker sweep each tenant is served at most one request,
//!   so a chatty tenant cannot starve its shard-mates;
//! - `shutdown` drains: acceptors stop admitting, every worker finishes
//!   its sweep (in-flight `run`s return a `draining` outcome), serves one
//!   final sweep of already-readable frames, closes its connections, then
//!   `serve` returns;
//! - a panicking request handler answers with an `internal error`
//!   response instead of killing the connection (or its worker);
//! - every request leaves one structured access-log line and updates the
//!   per-op latency/byte counters that `stats` reports (p50/p95/p99).

pub mod b64;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod session;

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use vhdl_driver::batch::panic_text;
use vhdl_vif::LibrarySnapshot;

use json::{obj, Json};
use metrics::Metrics;
use proto::{poll_frame, read_frame, write_frame, FrameRead};
use session::{RequestCtl, Session};

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections get an
    /// `overloaded` rejection frame.
    pub max_clients: usize,
    /// Per-request wall-clock deadline.
    pub deadline: Duration,
    /// Analysis worker threads per session (`1` analyzes inline; the
    /// `vhdld --jobs 0` flag resolves to one per CPU before it gets here).
    pub jobs: usize,
    /// Suppress the access log (tests).
    pub quiet: bool,
    /// Session-serving worker threads. Each owns a shard of the accepted
    /// connections; the thread budget is fixed no matter how many clients
    /// connect.
    pub workers: usize,
    /// Acceptor threads sharing the listener.
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

/// State shared by the acceptors and every worker.
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

/// The server. [`Server::serve`] owns the acceptor and worker threads;
/// each accepted connection gets a worker-confined [`Session`].
pub struct Server {
    shared: Arc<Shared>,
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
    /// Fatal listener I/O or thread-spawn errors only; per-connection
    /// errors are handled per connection.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let n_workers = self.shared.cfg.workers.max(1);
        let n_acceptors = self.shared.cfg.acceptors.max(1);
        let mut txs: Vec<Sender<(TcpStream, u64)>> = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("vhdld-worker-{w}"))
                    .stack_size(vhdl_driver::STACK_SIZE)
                    .spawn(move || worker_loop(&shared, &rx))?,
            );
        }
        let mut acceptors = Vec::with_capacity(n_acceptors);
        for a in 0..n_acceptors {
            let l = listener.try_clone()?;
            let shared = Arc::clone(&self.shared);
            let txs = txs.clone();
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("vhdld-accept-{a}"))
                    .spawn(move || accept_loop(&shared, &l, &txs))?,
            );
        }
        // Workers see channel disconnect (no more admissions) only after
        // every sender — ours and the acceptors' clones — is gone.
        drop(txs);
        for h in acceptors {
            let _ = h.join();
        }
        for h in workers {
            let _ = h.join();
        }
        self.shared.log("drained");
        Ok(())
    }

    /// Serves exactly one session over arbitrary streams (`--stdio`
    /// mode; also the harness for deterministic protocol tests).
    pub fn serve_stream(&self, reader: &mut impl Read, writer: &mut impl Write) {
        let sid = self.shared.next_session.fetch_add(1, Ordering::SeqCst);
        self.shared
            .metrics
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .sessions += 1;
        session_loop(&self.shared, reader, writer, sid);
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
}

/// Admission: accepts connections, applies the overload bound, and hands
/// each admitted stream to its shard's worker (`sid % workers`). Several
/// acceptors share the non-blocking listener; a connection stolen by a
/// sibling shows up here as `WouldBlock`.
fn accept_loop(shared: &Shared, listener: &TcpListener, txs: &[Sender<(TcpStream, u64)>]) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Request/response framing; never batch small writes.
                let _ = stream.set_nodelay(true);
                let active = shared.active.fetch_add(1, Ordering::SeqCst);
                if active >= shared.cfg.max_clients {
                    // Explicit overload rejection: one error frame, then
                    // close. Nothing queues invisibly.
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                    shared
                        .metrics
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .overloaded += 1;
                    let mut s = stream;
                    let reply = obj([
                        ("id", Json::Null),
                        ("ok", Json::Bool(false)),
                        (
                            "error",
                            Json::str(format!(
                                "overloaded: {} active sessions (max {})",
                                active, shared.cfg.max_clients
                            )),
                        ),
                    ]);
                    let _ = write_frame(&mut s, &reply.to_text());
                    shared.log(&format!("reject peer={peer} reason=overloaded"));
                    continue;
                }
                let sid = shared.next_session.fetch_add(1, Ordering::SeqCst);
                shared
                    .metrics
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .sessions += 1;
                shared.log(&format!("accept session={sid} peer={peer}"));
                let shard = (sid as usize) % txs.len();
                if txs[shard].send((stream, sid)).is_err() {
                    // The worker is gone (drain raced us); the stream
                    // drops and the client sees a clean close.
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                shared.log(&format!("acceptor-error: {e}"));
                return;
            }
        }
    }
}

/// One connection owned by a worker.
struct Conn {
    stream: TcpStream,
    sid: u64,
    session: Session,
    /// Tenant this connection bound itself to (first request carrying a
    /// `tenant` field); `None` acts as a per-connection singleton tenant.
    tenant: Option<String>,
}

/// Releases a closing connection's admission and tenant slots.
fn close_conn(shared: &Shared, conn: &Conn) {
    if let Some(t) = &conn.tenant {
        let mut m = shared.tenants.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(n) = m.get_mut(t) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                m.remove(t);
            }
        }
    }
    shared.active.fetch_sub(1, Ordering::SeqCst);
    shared.log(&format!("close session={}", conn.sid));
}

/// One worker: owns a shard of connections and sweeps them round-robin.
/// Each sweep serves at most one request per connection and at most one
/// request per *tenant* (fair scheduling: a tenant with many connections
/// on this shard advances one request per sweep, like everyone else).
fn worker_loop(shared: &Shared, rx: &Receiver<(TcpStream, u64)>) {
    let mut conns: Vec<Conn> = Vec::new();
    // Consecutive sweeps that served nothing. Request/response traffic
    // ping-pongs: the client's next request lands ~tens of µs after our
    // reply, so an immediate sleep would tax every request with the full
    // sleep. Spin-poll through a short grace window first.
    let mut idle_sweeps: u32 = 0;
    loop {
        // Adopt newly accepted connections; the session is created here,
        // on the worker, because it is deliberately `!Send`.
        while let Ok((stream, sid)) = rx.try_recv() {
            // The timeout bounds mid-frame stalls; idleness itself is
            // detected by the non-blocking poll, not by this timeout.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            conns.push(Conn {
                stream,
                sid,
                session: Session::new(shared.base.as_ref(), shared.cfg.jobs),
                tenant: None,
            });
        }
        // Observe the flag *before* the sweep: once it is set, this
        // iteration's sweep is the final one — already-readable frames
        // (and `run`s returning `draining`) still get answers.
        let draining = shared.shutting_down.load(Ordering::SeqCst);
        let mut served_tenants: HashSet<String> = HashSet::new();
        let mut any = false;
        let mut i = 0;
        while i < conns.len() {
            if let Some(t) = &conns[i].tenant {
                if served_tenants.contains(t) {
                    i += 1;
                    continue;
                }
            }
            match sweep_conn(shared, &mut conns[i], &mut served_tenants) {
                SweepOutcome::Idle => i += 1,
                SweepOutcome::Served => {
                    any = true;
                    i += 1;
                }
                SweepOutcome::Close => {
                    any = true;
                    close_conn(shared, &conns[i]);
                    conns.swap_remove(i);
                }
            }
        }
        if draining {
            break;
        }
        if any {
            idle_sweeps = 0;
        } else {
            idle_sweeps += 1;
            if idle_sweeps < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    for conn in &conns {
        close_conn(shared, conn);
    }
}

enum SweepOutcome {
    Idle,
    Served,
    Close,
}

/// Polls one connection and serves at most one request.
fn sweep_conn(
    shared: &Shared,
    conn: &mut Conn,
    served_tenants: &mut HashSet<String>,
) -> SweepOutcome {
    let text = match poll_frame(&mut conn.stream) {
        Ok(FrameRead::Idle) => return SweepOutcome::Idle,
        Ok(FrameRead::Eof) => return SweepOutcome::Close,
        Ok(FrameRead::Frame(t)) => t,
        Err(e) => {
            shared.log(&format!("session={} protocol-error: {e}", conn.sid));
            return SweepOutcome::Close;
        }
    };
    let Conn {
        stream,
        sid,
        session,
        tenant,
    } = conn;
    let open = serve_request(shared, session, *sid, &text, stream, |t| {
        bind_tenant(shared, tenant, *sid, t)
    });
    if let Some(t) = tenant {
        served_tenants.insert(t.clone());
    }
    if open {
        SweepOutcome::Served
    } else {
        // After `shutdown` the ok frame is already on the wire; every
        // worker sees the drain flag at its next sweep.
        SweepOutcome::Close
    }
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

/// The single-connection loop used by `--stdio` mode and the stream
/// harness (no tenancy: the process *is* the session).
fn session_loop(shared: &Shared, reader: &mut impl Read, writer: &mut impl Write, sid: u64) {
    let mut session = Session::new(shared.base.as_ref(), shared.cfg.jobs);
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
        if !serve_request(shared, &mut session, sid, &text, writer, |_| Ok(())) {
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
            // session (nor, in a pooled worker, the server).
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
    let us = t0.elapsed().as_micros() as u64;
    let ok = reply.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let reply_text = reply.to_text();
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
    // Process-wide unit-load counter (summed over every shard and
    // batch-worker thread).
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
            "workers".to_string(),
            Json::u64(shared.cfg.workers.max(1) as u64),
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
