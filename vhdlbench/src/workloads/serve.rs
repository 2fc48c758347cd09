//! `serve`: the session runtime and the VIF caches, on reads and writes
//! side by side. An in-process `vhdld` server on loopback serves two
//! closed-loop clients, each in its own session — closed loop because
//! `vhdld` callers (editors, tools) wait for each reply. Every round of a
//! client's script analyzes the unchanged design (all incremental-cache
//! hits), analyzes it with the package constant edited (the dependents
//! are analyzed again and written back; the value alternates), then
//! elaborates, runs 200 ns, inspects the last stage, checkpoints and
//! restores.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;
use vhdl_server::json::{obj, Json};
use vhdl_server::proto::{read_frame, write_frame, FrameRead};
use vhdl_server::{Server, ServerConfig, ShutdownHandle};

use super::{op_ms, setup_failed};
use crate::gen::{self, Pipeline};
use crate::harness::{self, ratio, Ctx, Outcome, Sink};
use crate::model;
use crate::stats::quantile;
use crate::trace::span;

const STAGES: usize = 32;
const CLIENTS: usize = 2;
/// Script rounds per client per second of `--seconds` (a round takes 5
/// to 6 ms).
const ROUNDS_PER_S: f64 = 150.0;
/// Simulated time each round's `run` advances: 20 rising edges.
const RUN_NS: u64 = 200;
/// Units an edit of the package constant re-analyzes: the package, its
/// body and the stage architecture that uses it. The stage entity and
/// the testbench do not depend on the package.
const EDIT_UNITS: u64 = 3;
/// Round-trip bound for one reply; a stalled server fails the request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

const OPS: [(&str, &str); 7] = [
    ("server.analyze_warm", "server.analyze_warm_p50_us"),
    ("server.analyze_edit", "server.analyze_edit_p50_us"),
    ("server.elaborate", "server.elaborate_p50_us"),
    ("server.run", "server.run_p50_us"),
    ("server.inspect", "server.inspect_p50_us"),
    ("server.checkpoint", "server.checkpoint_p50_us"),
    ("server.restore", "server.restore_p50_us"),
];

/// Requests that only read the session's state or the library's caches...
const READS: [&str; 4] = [
    "server.analyze_warm",
    "server.run",
    "server.inspect",
    "server.checkpoint",
];
/// ...and those that write: analyzed units written back, a new elaborated
/// program, a restored simulator.
const WRITES: [&str; 3] = ["server.analyze_edit", "server.elaborate", "server.restore"];

struct Client {
    stream: TcpStream,
    id: u64,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client { stream, id: 0 })
    }

    /// One round trip; an error reply or a broken connection is `Err`.
    fn req(&mut self, op: &str, fields: Vec<(&str, Json)>) -> Result<Json, String> {
        self.id += 1;
        let mut all = vec![
            ("id".to_string(), Json::u64(self.id)),
            ("op".to_string(), Json::str(op)),
        ];
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        write_frame(&mut self.stream, &Json::Obj(all).to_text())
            .map_err(|e| format!("{op}: send: {e}"))?;
        let reply = match read_frame(&mut self.stream) {
            Ok(FrameRead::Frame(t)) => {
                vhdl_server::json::parse(&t).map_err(|e| format!("{op}: reply: {e}"))?
            }
            Ok(_) => return Err(format!("{op}: connection closed or stalled")),
            Err(e) => return Err(format!("{op}: receive: {e}")),
        };
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{op}: {}", reply.to_text()));
        }
        reply
            .get("result")
            .cloned()
            .ok_or_else(|| format!("{op}: reply without result"))
    }
}

/// A running server with its connected clients. Dropping it drains the
/// server and joins its thread.
struct Served {
    pipeline: Pipeline,
    clients: Vec<Client>,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(c) = self.clients.first_mut() {
            let _ = c.req("shutdown", vec![]);
        }
        self.shutdown.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn setup(seed: u64) -> Result<Served, String> {
    let pipeline = Pipeline::generate(gen::mix(seed, 0x5345_5256), STAGES);
    let base = Compiler::in_memory();
    let r = base.compile_batch(
        &pipeline.files(pipeline.k),
        BatchOptions {
            jobs: 1,
            incremental: true,
        },
    );
    if !r.ok() {
        return Err("base design does not compile".to_string());
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("address: {e}"))?
        .to_string();
    let server = Server::new(
        ServerConfig {
            max_clients: 8,
            jobs: 1,
            quiet: true,
            workers: 2,
            acceptors: 1,
            ..ServerConfig::default()
        },
        Some(base.libs.work().snapshot()),
    );
    let mut served = Served {
        pipeline,
        clients: Vec::new(),
        shutdown: server.shutdown_handle(),
        thread: Some(std::thread::spawn(move || server.serve(listener))),
    };
    for _ in 0..CLIENTS {
        let mut c = Client::connect(&addr)?;
        // The first reply proves the worker has opened the session.
        c.req("ping", vec![])?;
        served.clients.push(c);
    }
    Ok(served)
}

fn files(p: &Pipeline, k: i64) -> Json {
    Json::Arr(
        p.files(k)
            .into_iter()
            .map(|(n, t)| obj([("name", Json::str(n)), ("text", Json::str(t))]))
            .collect(),
    )
}

fn get_u64(j: &Json, k: &str) -> Option<u64> {
    j.get(k).and_then(Json::as_u64)
}

/// One script round; `k` is the constant the session's library holds.
fn round(p: &Pipeline, c: &mut Client, client: usize, k: &mut i64, sink: &mut Sink) {
    let next = if *k == p.k {
        p.k + 1 + client as i64
    } else {
        p.k
    };
    let mut step = |sink: &mut Sink,
                    name: &'static str,
                    op: &str,
                    fields: Vec<(&str, Json)>,
                    check: &dyn Fn(&Json) -> Result<(), String>| {
        let r = sink.op(name, || c.req(op, fields));
        let _c = span("bench.check");
        match r.and_then(|j| check(&j).map(|()| j)) {
            Ok(j) => Some(j),
            Err(e) => {
                sink.fail(format!("{name}: {e}"));
                None
            }
        }
    };
    let analyzed = |want: u64| {
        move |j: &Json| match get_u64(j, "analyzed") {
            Some(n) if n == want && j.get("ok").and_then(Json::as_bool) == Some(true) => Ok(()),
            other => Err(format!("analyzed {other:?} units, expected {want}")),
        }
    };
    step(
        sink,
        "server.analyze_warm",
        "analyze",
        vec![("files", files(p, *k))],
        &analyzed(0),
    );
    if step(
        sink,
        "server.analyze_edit",
        "analyze",
        vec![("files", files(p, next))],
        &analyzed(EDIT_UNITS),
    )
    .is_some()
    {
        *k = next;
    }
    let procs = (STAGES + 2) as u64;
    step(
        sink,
        "server.elaborate",
        "elaborate",
        vec![("entity", Json::str("tb"))],
        &|j| match get_u64(j, "processes") {
            Some(n) if n == procs => Ok(()),
            other => Err(format!("{other:?} processes, expected {procs}")),
        },
    );
    step(
        sink,
        "server.run",
        "run",
        vec![("for", Json::str(format!("{RUN_NS} ns")))],
        &|j| match j.get("outcome").and_then(Json::as_str) {
            Some("deadline") => Ok(()),
            other => Err(format!("outcome {other:?}")),
        },
    );
    let want = model::run(p, *k, RUN_NS / 10).values[STAGES].to_string();
    step(
        sink,
        "server.inspect",
        "inspect",
        vec![("path", Json::str(format!(":tb:s{STAGES}")))],
        &|j| match j.get("value").and_then(Json::as_str) {
            Some(v) if v == want => Ok(()),
            other => Err(format!("s{STAGES} = {other:?}, model says {want}")),
        },
    );
    let snapshot = step(
        sink,
        "server.checkpoint",
        "checkpoint",
        vec![],
        &|j| match j.get("snapshot").and_then(Json::as_str) {
            Some(s) if !s.is_empty() => Ok(()),
            _ => Err("no snapshot".to_string()),
        },
    )
    .and_then(|j| j.get("snapshot").cloned())
    .unwrap_or(Json::str(""));
    let now_fs = RUN_NS * 1_000_000;
    step(
        sink,
        "server.restore",
        "restore",
        vec![("snapshot", snapshot)],
        &|j| match j.get("now").and_then(|n| get_u64(n, "fs")) {
            Some(fs) if fs == now_fs => Ok(()),
            other => Err(format!("restored at {other:?} fs, expected {now_fs}")),
        },
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    // The constant each client's session holds; it carries across blocks.
    let mut ks = Vec::new();
    // Codec counters of the blocks only, not of the set-ups between them.
    let mut vifb = [0u64; 4];
    let counters = || {
        let s = vhdl_vif::vifb_stats();
        [s.cache_hits, s.cache_misses, s.decodes, s.text_parses]
    };
    let harness::Measured {
        state: mut served,
        setup_s,
        sink,
        log,
    } = harness::run(
        ctx,
        ctx.passes(ROUNDS_PER_S),
        &|| setup(seed),
        |served, passes| {
            let p = &served.pipeline;
            ks.resize(CLIENTS, p.k);
            let before = counters();
            let parts = std::thread::scope(|sc| {
                let handles: Vec<_> = served
                    .clients
                    .iter_mut()
                    .zip(&mut ks)
                    .enumerate()
                    .map(|(n, (client, k))| {
                        let passes = passes.clone();
                        sc.spawn(move || {
                            harness::measure(ctx, n, passes, |_, sink| round(p, client, n, k, sink))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            for (acc, (a, b)) in vifb.iter_mut().zip(counters().into_iter().zip(before)) {
                *acc += a - b;
            }
            parts
        },
    )
    .unwrap_or_else(|e| setup_failed(ctx, &e));
    let [hits, misses, decodes, text_parses] = vifb;
    let req_per_s = ratio(sink.attempted as f64, sink.wall_s);
    let rounds = sink.passes() as f64;
    let skipped = served.clients[0]
        .req("stats", vec![])
        .ok()
        .and_then(|s| get_u64(&s, "analyze_skipped"))
        .unwrap_or(0);
    drop(served);
    let mut layers = BTreeMap::new();
    for (op, key) in OPS {
        let s = harness::sorted(sink.ops[1].get(op).cloned().unwrap_or_default());
        layers.insert(key.to_string(), quantile(&s, 0.5));
    }
    layers.insert(
        "server.analyze_skipped".to_string(),
        skipped as f64 / rounds,
    );
    // The server's VIF work runs on its own threads, out of reach of the
    // clients' spans; the process-wide codec counters see it, per round
    // over the whole run.
    let per_round = |v: u64| v as f64 / rounds;
    layers.insert(
        "vif.cache_hit_ratio".to_string(),
        ratio(hits as f64, (hits + misses) as f64),
    );
    layers.insert("vif.decodes".to_string(), per_round(decodes));
    layers.insert("vif.text_parses".to_string(), per_round(text_parses));
    let fastest = |ops: &[&str]| ops.iter().map(|op| op_ms(&sink, op, 0.0)).sum();
    let rounds_ms = harness::sorted(sink.pass_ms[0].clone());
    let parts = [
        ("serve_reads_min_ms", fastest(&READS)),
        ("serve_writes_min_ms", fastest(&WRITES)),
        ("serve_round_min_ms", quantile(&rounds_ms, 0.0)),
    ];
    let all = sink.all_ops();
    let detail = vec![
        ("serve_req_per_s".to_string(), req_per_s, "1/s"),
        ("serve_p50_us".to_string(), quantile(&all, 0.5), "us"),
        ("serve_p99_us".to_string(), quantile(&all, 0.99), "us"),
    ];
    Outcome {
        setup_s,
        sink,
        log,
        layers,
        parts,
        detail,
    }
}
