//! End-to-end protocol tests over loopback TCP: concurrent sessions are
//! deterministic (byte-identical library text and simulation results
//! against a serial in-process baseline), the incremental cache is
//! visible in `stats`, overload and tenant quotas are explicit
//! rejections, a checkpointed session restores byte-identically in a
//! fresh session, a long `run` holds up no other session, and
//! `shutdown` drains every session — answering in-flight `run`s with a
//! `draining` outcome.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vhdl_driver::Compiler;
use vhdl_server::json::{self, obj, Json};
use vhdl_server::proto::{read_frame, write_frame, FrameRead};
use vhdl_server::{Server, ServerConfig, ShutdownHandle};

const FULL_ADDER: &str = include_str!("../../../examples/full_adder.vhd");

fn quiet_cfg(max_clients: usize, jobs: usize) -> ServerConfig {
    ServerConfig {
        max_clients,
        jobs,
        quiet: true,
        ..ServerConfig::default()
    }
}

/// Binds loopback, serves in a background thread, returns the address,
/// the drain trigger, and the serve thread's handle.
fn start(cfg: ServerConfig) -> (String, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(cfg, None);
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve(listener));
    (addr, handle, join)
}

/// One scripted client connection.
struct Client {
    reader: TcpStream,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: stream.try_clone().expect("clone stream"),
            writer: stream,
            next_id: 1,
        }
    }

    /// Sends `op` with extra fields, returns the whole response object.
    fn req(&mut self, op: &str, fields: Vec<(&str, Json)>) -> Json {
        let mut all = vec![
            ("id".to_string(), Json::u64(self.next_id)),
            ("op".to_string(), Json::str(op)),
        ];
        self.next_id += 1;
        for (k, v) in fields {
            all.push((k.to_string(), v));
        }
        write_frame(&mut self.writer, &Json::Obj(all).to_text()).expect("send");
        match read_frame(&mut self.reader).expect("recv") {
            FrameRead::Frame(t) => json::parse(&t).expect("response parses"),
            FrameRead::Eof => panic!("server closed the connection"),
            FrameRead::Idle => panic!("unexpected idle on a blocking socket"),
        }
    }

    /// Sends `op`, asserts `ok:true`, returns just the `result`.
    fn ok(&mut self, op: &str, fields: Vec<(&str, Json)>) -> Json {
        let resp = self.req(op, fields);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{op} failed: {}",
            resp.to_text()
        );
        resp.get("result")
            .expect("ok response has a result")
            .clone()
    }
}

fn analyze_fields() -> Vec<(&'static str, Json)> {
    vec![(
        "files",
        Json::Arr(vec![obj([
            ("name", Json::str("full_adder.vhd")),
            ("text", Json::str(FULL_ADDER)),
        ])]),
    )]
}

/// The serial in-process baseline the concurrent sessions must match:
/// one `Compiler` (the `vhdlc` path), library text key-sorted.
fn serial_library() -> Vec<(String, String)> {
    let c = Compiler::in_memory();
    let r = c.compile(FULL_ADDER).expect("baseline compiles");
    assert!(r.ok(), "baseline diagnostics: {}", r.msgs());
    let work = c.libs.work();
    let mut keys = work.history();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let text = work.peek_raw(&k).expect("unit text");
            (k, text)
        })
        .collect()
}

fn dump_units(result: &Json) -> Vec<(String, String)> {
    result
        .get("units")
        .and_then(Json::as_arr)
        .expect("dump has units")
        .iter()
        .map(|u| {
            (
                u.get("key")
                    .and_then(Json::as_str)
                    .expect("key")
                    .to_string(),
                u.get("text")
                    .and_then(Json::as_str)
                    .expect("text")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn four_concurrent_sessions_match_the_serial_baseline() {
    let (addr, _handle, join) = start(quiet_cfg(8, 2));

    // Serial baseline: plain `Compiler` + `Simulator`, no server.
    let baseline_lib = serial_library();
    let mut baseline_sim = Compiler::in_memory()
        .simulate(FULL_ADDER, "tb")
        .expect("baseline elaborates");
    baseline_sim
        .run_until(sim_kernel::Time::parse("40ns").expect("time literal"))
        .expect("baseline runs");
    let baseline_stats = baseline_sim.stats();
    let baseline_now = baseline_sim.now();

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr);
                let a = c.ok("analyze", analyze_fields());
                assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true));
                c.ok("elaborate", vec![("entity", Json::str("tb"))]);
                let run = c.ok("run", vec![("until", Json::str("40ns"))]);
                let dump = c.ok("dump", vec![]);
                c.req("ping", vec![]);
                (dump_units(&dump), run.to_text())
            })
        })
        .collect();
    let results: Vec<_> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    for (lib, run_text) in &results {
        assert_eq!(
            lib, &baseline_lib,
            "session library text must be byte-identical to serial vhdlc"
        );
        assert_eq!(
            run_text, &results[0].1,
            "every concurrent session must report identical sim results"
        );
    }
    let run0 = json::parse(&results[0].1).expect("run result parses");
    let st = run0.get("stats").expect("run has stats");
    assert_eq!(
        st.get("events").and_then(Json::as_u64),
        Some(baseline_stats.events)
    );
    assert_eq!(
        st.get("cycles").and_then(Json::as_u64),
        Some(baseline_stats.cycles)
    );
    assert_eq!(
        st.get("resumptions").and_then(Json::as_u64),
        Some(baseline_stats.resumptions)
    );
    assert_eq!(
        run0.get("now")
            .and_then(|n| n.get("fs"))
            .and_then(Json::as_u64),
        Some(baseline_now.fs)
    );

    let mut c = Client::connect(&addr);
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// The `run` op's `jobs` option executes each delta cycle on a kernel
/// worker pool; the session's VCD text and every reported statistic must
/// be byte-identical to a sequential session's.
#[test]
fn run_with_jobs_matches_sequential() {
    let (addr, _handle, join) = start(quiet_cfg(4, 2));
    let run_one = |jobs: Option<u64>| {
        let mut c = Client::connect(&addr);
        c.ok("analyze", analyze_fields());
        c.ok("elaborate", vec![("entity", Json::str("tb"))]);
        c.ok("trace", vec![("glob", Json::str("*"))]);
        let mut fields = vec![("until", Json::str("40ns"))];
        if let Some(j) = jobs {
            fields.push(("jobs", Json::u64(j)));
        }
        let run = c.ok("run", fields);
        let vcd = c.ok("vcd", vec![]);
        (
            run.to_text(),
            vcd.get("text")
                .and_then(Json::as_str)
                .expect("vcd text")
                .to_string(),
        )
    };
    let seq = run_one(None);
    for jobs in [2u64, 4] {
        let par = run_one(Some(jobs));
        assert_eq!(par.0, seq.0, "run result at jobs={jobs}");
        assert_eq!(par.1, seq.1, "VCD text at jobs={jobs}");
    }
    let mut c = Client::connect(&addr);
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn warm_analyze_of_unchanged_units_is_a_cache_hit() {
    let (addr, _handle, join) = start(quiet_cfg(4, 2));
    let mut c = Client::connect(&addr);

    let cold = c.ok("analyze", analyze_fields());
    let total = cold
        .get("units")
        .and_then(Json::as_arr)
        .expect("units")
        .len() as u64;
    assert!(total >= 10, "full_adder has 10 design units, saw {total}");
    assert_eq!(cold.get("skipped").and_then(Json::as_u64), Some(0));
    assert_eq!(cold.get("analyzed").and_then(Json::as_u64), Some(total));

    let warm = c.ok("analyze", analyze_fields());
    assert_eq!(
        warm.get("skipped").and_then(Json::as_u64),
        Some(total),
        "warm re-analyze of unchanged text must be all cache hits"
    );
    assert_eq!(warm.get("analyzed").and_then(Json::as_u64), Some(0));
    for u in warm.get("units").and_then(Json::as_arr).expect("units") {
        assert_eq!(u.get("skipped").and_then(Json::as_bool), Some(true));
    }

    let stats = c.ok("stats", vec![]);
    assert_eq!(
        stats.get("analyze_skipped").and_then(Json::as_u64),
        Some(total),
        "the skip counter must be visible in server stats"
    );
    assert_eq!(
        stats.get("analyze_analyzed").and_then(Json::as_u64),
        Some(total)
    );

    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A session's compiler keeps the last `analyze`'s parsed files: an
/// unchanged request parses nothing, and an edit of one file parses that
/// file only.
#[test]
fn analyze_parses_only_changed_files() {
    let (addr, _handle, join) = start(quiet_cfg(4, 2));
    let mut c = Client::connect(&addr);
    let files = |width: u32| {
        vec![(
            "files",
            Json::Arr(vec![
                obj([
                    ("name", Json::str("pkg.vhd")),
                    (
                        "text",
                        Json::str(format!(
                            "package p is\nconstant width : integer := {width};\nend p;\n"
                        )),
                    ),
                ]),
                obj([
                    ("name", Json::str("full_adder.vhd")),
                    ("text", Json::str(FULL_ADDER)),
                ]),
            ]),
        )]
    };
    let counts = |r: &Json| {
        (
            r.get("parsed").and_then(Json::as_u64),
            r.get("reused").and_then(Json::as_u64),
        )
    };
    let cold = c.ok("analyze", files(8));
    assert_eq!(counts(&cold), (Some(2), Some(0)));
    let warm = c.ok("analyze", files(8));
    assert_eq!(
        counts(&warm),
        (Some(0), Some(2)),
        "a warm analyze parses nothing"
    );
    let edited = c.ok("analyze", files(16));
    assert_eq!(
        counts(&edited),
        (Some(1), Some(1)),
        "an edit parses its file"
    );
    assert_eq!(edited.get("analyzed").and_then(Json::as_u64), Some(1));
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A unit nested deeper than analysis allows is a diagnostic on the
/// session, not a stack overflow that takes down the server with every
/// other session on it. The default configuration analyzes on a worker
/// pool.
#[test]
fn too_deep_a_unit_is_a_diagnostic_and_the_server_lives_on() {
    let (addr, _handle, join) = start(ServerConfig {
        quiet: true,
        ..ServerConfig::default()
    });
    let src = format!(
        "entity deep is end;\narchitecture a of deep is\nbegin\n  process\n    \
         variable v : integer := 0;\n  begin\n{}    wait;\n  end process;\nend;\n",
        "    v := v + 1;\n".repeat(20_000)
    );
    let mut c = Client::connect(&addr);
    let r = c.ok(
        "analyze",
        vec![(
            "files",
            Json::Arr(vec![obj([
                ("name", Json::str("deep.vhd")),
                ("text", Json::str(src)),
            ])]),
        )],
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    assert!(r.to_text().contains("nesting too deep"), "{}", r.to_text());

    let mut next = Client::connect(&addr);
    next.ok("ping", vec![]);
    next.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn sessions_forked_from_a_base_snapshot_start_warm() {
    // Pre-compile the base incrementally so the snapshot carries stamps.
    let base = Compiler::in_memory();
    let r = base.compile_batch(
        &[("full_adder.vhd".to_string(), FULL_ADDER.to_string())],
        vhdl_driver::batch::BatchOptions {
            jobs: 1,
            incremental: true,
        },
    );
    assert!(r.ok());
    let snap = base.libs.work().snapshot();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(quiet_cfg(4, 2), Some(snap));
    let join = std::thread::spawn(move || server.serve(listener));

    let mut c = Client::connect(&addr);
    let first = c.ok("analyze", analyze_fields());
    assert_eq!(
        first.get("analyzed").and_then(Json::as_u64),
        Some(0),
        "a fresh session's analyze of unchanged base text must be all hits"
    );
    assert_eq!(first.get("skipped").and_then(Json::as_u64), Some(10));
    // The forked library is immediately usable for elaboration.
    c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn overload_is_an_explicit_rejection() {
    let (addr, _handle, join) = start(quiet_cfg(1, 1));
    let mut first = Client::connect(&addr);
    first.ok("ping", vec![]);

    // The second connection must be answered (an error frame naming the
    // condition), not silently queued or dropped.
    let mut second = TcpStream::connect(&addr).expect("connect");
    let reject = match read_frame(&mut second).expect("rejection frame") {
        FrameRead::Frame(t) => json::parse(&t).expect("rejection parses"),
        other => panic!(
            "expected a rejection frame, got {}",
            match other {
                FrameRead::Eof => "eof",
                _ => "idle",
            }
        ),
    };
    assert_eq!(reject.get("ok").and_then(Json::as_bool), Some(false));
    let err = reject.get("error").and_then(Json::as_str).expect("error");
    assert!(err.contains("overloaded"), "error was `{err}`");

    let stats = first.ok("stats", vec![]);
    assert_eq!(stats.get("overloaded").and_then(Json::as_u64), Some(1));

    first.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn shutdown_drains_idle_sessions_too() {
    let (addr, _handle, join) = start(quiet_cfg(4, 1));
    // An idle connection that never sends anything: drain must still
    // complete (the idle reader polls the flag at its read timeout).
    let _idle = TcpStream::connect(&addr).expect("connect idle");
    let mut c = Client::connect(&addr);
    c.ok("ping", vec![]);
    let resp = c.ok("shutdown", vec![]);
    assert_eq!(resp.get("draining").and_then(Json::as_bool), Some(true));
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn shutdown_handle_drains_without_a_request() {
    let (_addr, handle, join) = start(quiet_cfg(4, 1));
    handle.shutdown();
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn bad_requests_get_error_responses_not_disconnects() {
    let (addr, _handle, join) = start(quiet_cfg(4, 1));
    let mut c = Client::connect(&addr);

    write_frame(&mut c.writer, "this is not json").expect("send");
    let resp = match read_frame(&mut c.reader).expect("recv") {
        FrameRead::Frame(t) => json::parse(&t).expect("parses"),
        _ => panic!("expected an error frame"),
    };
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    let resp = c.req("no-such-op", vec![]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .expect("error")
        .contains("unknown op"));

    let resp = c.req("run", vec![("until", Json::str("40ns"))]);
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "run before elaborate"
    );

    // The session is still alive and usable after all three errors.
    c.ok("ping", vec![]);
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A free-running design that never quiesces: drain and soak tests need
/// a `run` that only ends when something cancels it.
const OSCILLATOR: &str = "entity osc is end;\n\
    architecture a of osc is\n  signal clk : bit := '0';\n\
    begin\n  clk <= not clk after 1 ns;\nend a;\n";

fn oscillator_fields() -> Vec<(&'static str, Json)> {
    vec![(
        "files",
        Json::Arr(vec![obj([
            ("name", Json::str("osc.vhd")),
            ("text", Json::str(OSCILLATOR)),
        ])]),
    )]
}

#[test]
fn restored_session_continues_byte_identical() {
    let (addr, _handle, join) = start(quiet_cfg(8, 1));

    // Uninterrupted oracle: one session runs 0 → 40 ns in one go.
    let mut a = Client::connect(&addr);
    a.ok("analyze", analyze_fields());
    a.ok("elaborate", vec![("entity", Json::str("tb"))]);
    a.ok("trace", vec![("glob", Json::str("*"))]);
    let run_a = a.ok("run", vec![("until", Json::str("40ns"))]);
    let vcd_a = a.ok("vcd", vec![]).to_text();

    // The same design, stopped between events and checkpointed.
    let mut b = Client::connect(&addr);
    b.ok("analyze", analyze_fields());
    b.ok("elaborate", vec![("entity", Json::str("tb"))]);
    b.ok("trace", vec![("glob", Json::str("*"))]);
    let run_b = b.ok("run", vec![("until", Json::str("17ns"))]);
    let cp = b.ok("checkpoint", vec![]);
    let snap = cp
        .get("snapshot")
        .and_then(Json::as_str)
        .expect("checkpoint returns a snapshot")
        .to_string();
    assert!(cp.get("bytes").and_then(Json::as_u64) > Some(0));
    drop(b);

    // A fresh connection — fresh session, same units — restores it and
    // finishes the run.
    let mut c = Client::connect(&addr);
    c.ok("analyze", analyze_fields());
    let restored = c.ok("restore", vec![("snapshot", Json::str(&snap))]);
    assert_eq!(restored.get("restored").and_then(Json::as_bool), Some(true));
    assert_eq!(
        restored.get("now").map(Json::to_text),
        run_b.get("now").map(Json::to_text),
        "restore resumes at the checkpointed time"
    );
    let run_c = c.ok("run", vec![("until", Json::str("40ns"))]);
    let vcd_c = c.ok("vcd", vec![]).to_text();

    assert_eq!(vcd_c, vcd_a, "VCD after restore must be byte-identical");
    assert_eq!(
        run_c.get("stats").expect("stats").to_text(),
        run_a.get("stats").expect("stats").to_text(),
        "kernel counters after restore must match the uninterrupted run"
    );
    assert_eq!(
        run_c.get("now").expect("now").to_text(),
        run_a.get("now").expect("now").to_text()
    );
    assert_eq!(
        run_c.get("outcome").and_then(Json::as_str),
        run_a.get("outcome").and_then(Json::as_str)
    );

    // A corrupted snapshot is a request error, not a dead session.
    let mid = snap.len() / 2;
    let flip = if snap.as_bytes()[mid] == b'A' {
        "B"
    } else {
        "A"
    };
    let mut bad = snap.clone();
    bad.replace_range(mid..=mid, flip);
    let resp = c.req("restore", vec![("snapshot", Json::str(&bad))]);
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "corrupted snapshot must be refused: {}",
        resp.to_text()
    );
    // Truncation (still valid base64) is refused too.
    let cut = snap.len() / 2 - (snap.len() / 2) % 4;
    let resp = c.req("restore", vec![("snapshot", Json::str(&snap[..cut]))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    c.ok("ping", vec![]);

    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// Elaborates the full adder's `tb` in a fresh session, runs it to
/// 17 ns and returns the session's base64 checkpoint.
fn tb_snapshot(addr: &str) -> String {
    let mut b = Client::connect(addr);
    b.ok("analyze", analyze_fields());
    b.ok("elaborate", vec![("entity", Json::str("tb"))]);
    b.ok("trace", vec![("glob", Json::str("*"))]);
    b.ok("run", vec![("until", Json::str("17ns"))]);
    let cp = b.ok("checkpoint", vec![]);
    cp.get("snapshot")
        .and_then(Json::as_str)
        .expect("snapshot")
        .to_string()
}

#[test]
fn restore_refuses_other_programs() {
    let (addr, _handle, join) = start(quiet_cfg(8, 1));
    let snap = tb_snapshot(&addr);

    // A session whose library holds a different design refuses the
    // snapshot (program fingerprint mismatch at the kernel layer, or a
    // failed re-elaboration before that).
    let mut d = Client::connect(&addr);
    d.ok("analyze", oscillator_fields());
    let resp = d.req("restore", vec![("snapshot", Json::str(&snap))]);
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "restore into a mismatched library must be refused: {}",
        resp.to_text()
    );

    d.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A session blob that wraps a kernel snapshot of an older format version
/// is a typed `restore:` error naming the version, and the session lives
/// on.
#[test]
fn restore_refuses_an_old_kernel_snapshot() {
    use sim_kernel::{Dec, Enc};
    use vhdl_server::b64;

    let (addr, _handle, join) = start(quiet_cfg(8, 1));
    let session = b64::decode(&tb_snapshot(&addr)).expect("base64");
    let body = &session[..session.len() - 8];
    // Session header: magic, version, entity tag, entity, no-arch tag;
    // then the kernel blob and the rest of the session state.
    let mut d = Dec::new(body);
    let magic: Vec<u8> = (0..4).map(|_| d.u8().unwrap()).collect();
    let version = d.u32().unwrap();
    assert_eq!(d.u8().unwrap(), 0, "entity elaboration");
    let entity = d.str().unwrap();
    assert_eq!(d.u8().unwrap(), 0, "no architecture named");
    let kernel = d.blob().unwrap();
    let rest = &body[body.len() - d.remaining()..];
    // The same kernel state, relabelled as format version 1.
    let mut old = Enc::new();
    old.u8(kernel[0]);
    old.u8(kernel[1]);
    old.u8(kernel[2]);
    old.u8(kernel[3]);
    old.u32(1);
    for &b in &kernel[8..kernel.len() - 8] {
        old.u8(b);
    }
    let mut e = Enc::new();
    for b in magic {
        e.u8(b);
    }
    e.u32(version);
    e.u8(0);
    e.str(&entity);
    e.u8(0);
    e.blob(&old.seal());
    for &b in rest {
        e.u8(b);
    }
    let blob = b64::encode(&e.seal());

    let mut c = Client::connect(&addr);
    c.ok("analyze", analyze_fields());
    let resp = c.req("restore", vec![("snapshot", Json::str(&blob))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let err = resp.get("error").and_then(Json::as_str).expect("error");
    assert!(
        err.starts_with("restore: ") && err.contains("version 1"),
        "error was `{err}`"
    );
    c.ok("ping", vec![]);

    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A session blob of an older wrapper version is a typed `restore:`
/// error naming both versions, whatever follows the header, and the
/// session lives on.
#[test]
fn restore_refuses_an_old_session_snapshot() {
    use sim_kernel::{Dec, Enc};
    use vhdl_server::b64;

    let (addr, _handle, join) = start(quiet_cfg(8, 1));
    let session = b64::decode(&tb_snapshot(&addr)).expect("base64");
    let body = &session[..session.len() - 8];
    let mut d = Dec::new(body);
    let magic: Vec<u8> = (0..4).map(|_| d.u8().unwrap()).collect();
    let version = d.u32().unwrap();
    assert_eq!(version, 2, "current session snapshot version");
    let rest = &body[body.len() - d.remaining()..];
    let mut e = Enc::new();
    for b in magic {
        e.u8(b);
    }
    e.u32(1);
    for &b in rest {
        e.u8(b);
    }
    let blob = b64::encode(&e.seal());

    let mut c = Client::connect(&addr);
    c.ok("analyze", analyze_fields());
    let resp = c.req("restore", vec![("snapshot", Json::str(&blob))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let err = resp.get("error").and_then(Json::as_str).expect("error");
    assert_eq!(err, "restore: session snapshot version 1 is not 2");
    c.ok("ping", vec![]);

    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn tenant_quota_is_an_explicit_rejection() {
    let cfg = ServerConfig {
        tenant_max_sessions: 1,
        ..quiet_cfg(8, 1)
    };
    let (addr, handle, join) = start(cfg);

    let mut a = Client::connect(&addr);
    let resp = a.req("ping", vec![("tenant", Json::str("acme"))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // A second session binding the same tenant is rejected with an
    // explicit frame, then closed.
    let mut b = Client::connect(&addr);
    let resp = b.req("ping", vec![("tenant", Json::str("acme"))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let err = resp.get("error").and_then(Json::as_str).expect("error");
    assert!(err.contains("tenant-quota"), "error was `{err}`");
    assert!(
        matches!(read_frame(&mut b.reader), Ok(FrameRead::Eof) | Err(_)),
        "a quota-rejected connection must be closed"
    );

    // Another tenant is unaffected, and the counter is in stats.
    let mut c = Client::connect(&addr);
    let stats = c.ok("stats", vec![("tenant", Json::str("beta"))]);
    assert_eq!(stats.get("tenant_rejected").and_then(Json::as_u64), Some(1));

    // A connection cannot change its claimed tenant mid-stream.
    let resp = c.req("ping", vec![("tenant", Json::str("gamma"))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    handle.shutdown();
    let _ = join.join();
}

#[test]
fn drain_answers_in_flight_runs_with_a_draining_outcome() {
    let (addr, handle, join) = start(quiet_cfg(4, 1));

    let runner = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr);
            c.ok("analyze", oscillator_fields());
            c.ok("elaborate", vec![("entity", Json::str("osc"))]);
            // Far horizon: only the drain flag can end this run.
            c.ok("run", vec![("until", Json::str("1000s"))])
        })
    };
    // Let the run get going, then pull the drain from outside.
    std::thread::sleep(Duration::from_millis(300));
    handle.shutdown();

    let run = runner.join().expect("runner thread");
    assert_eq!(
        run.get("outcome").and_then(Json::as_str),
        Some("draining"),
        "an in-flight run must be answered during drain: {}",
        run.to_text()
    );
    join.join().expect("serve thread").expect("serve result");
}

/// Each session is served on its own thread: a `run` that lasts until
/// its deadline holds up no other session's request.
#[test]
fn a_long_run_does_not_stall_another_session() {
    let deadline = Duration::from_millis(1500);
    let cfg = ServerConfig {
        workers: 1,
        deadline,
        ..quiet_cfg(4, 1)
    };
    let (addr, handle, join) = start(cfg);

    let (elaborated, ready) = mpsc::channel();
    let runner = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut a = Client::connect(&addr);
            a.ok("analyze", oscillator_fields());
            a.ok("elaborate", vec![("entity", Json::str("osc"))]);
            elaborated.send(()).expect("main thread waits");
            // Far horizon: only the wall deadline ends this run.
            a.ok("run", vec![("until", Json::str("1000s"))])
        })
    };
    ready.recv().expect("session A elaborates");
    std::thread::sleep(Duration::from_millis(300));

    let mut b = Client::connect(&addr);
    let t0 = Instant::now();
    b.ok("ping", vec![]);
    let waited = t0.elapsed();

    let run = runner.join().expect("runner thread");
    assert!(
        waited < deadline / 2,
        "session B's ping waited {waited:?} behind session A's run"
    );
    assert_eq!(
        run.get("outcome").and_then(Json::as_str),
        Some("wall-deadline"),
        "session A's run must end at its deadline: {}",
        run.to_text()
    );
    handle.shutdown();
    join.join().expect("serve thread").expect("serve result");
}

#[test]
fn soak_every_connection_is_served_or_explicitly_rejected() {
    let (addr, handle, join) = start(quiet_cfg(8, 1));

    // Twice as many clients as the server admits. Every one must get
    // either full service or an explicit overload frame — never a silent
    // drop, never an unanswered request.
    let clients: Vec<_> = (0..16)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                // A rejection frame arrives unprompted at accept time;
                // admitted connections stay silent. Probe with a short
                // read timeout before speaking.
                stream
                    .set_read_timeout(Some(Duration::from_millis(300)))
                    .expect("timeout");
                let mut reader = stream.try_clone().expect("clone");
                let mut writer = stream;
                match read_frame(&mut reader).expect("probe read") {
                    FrameRead::Frame(t) => {
                        let r = json::parse(&t).expect("rejection parses");
                        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
                        let err = r.get("error").and_then(Json::as_str).expect("error");
                        assert!(err.contains("overloaded"), "error was `{err}`");
                        return false;
                    }
                    FrameRead::Idle => {}
                    FrameRead::Eof => panic!("silent drop at accept"),
                }
                for i in 1..=20u64 {
                    write_frame(&mut writer, &format!("{{\"id\":{i},\"op\":\"ping\"}}"))
                        .expect("send");
                    loop {
                        match read_frame(&mut reader).expect("every request is answered") {
                            FrameRead::Frame(t) => {
                                let r = json::parse(&t).expect("response parses");
                                assert_eq!(
                                    r.get("ok").and_then(Json::as_bool),
                                    Some(true),
                                    "ping {i} failed: {t}"
                                );
                                break;
                            }
                            FrameRead::Idle => continue,
                            FrameRead::Eof => panic!("mid-session drop"),
                        }
                    }
                }
                true
            })
        })
        .collect();
    let outcomes: Vec<bool> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let served = outcomes.iter().filter(|&&s| s).count();
    let rejected = outcomes.len() - served;
    assert!(served >= 1, "nobody was served");
    assert!(rejected >= 1, "16 clients vs max 8 must overload someone");

    handle.shutdown();
    join.join().expect("serve thread").expect("serve result");
}

/// Serves one session over in-memory streams: each request gets an id,
/// and every response must be ok. Returns the results in order.
fn stream_session(server: &Server, reqs: Vec<(&str, Vec<(&str, Json)>)>) -> Vec<Json> {
    let mut input = Vec::new();
    for (i, (op, fields)) in reqs.into_iter().enumerate() {
        let mut all = vec![
            ("id".to_string(), Json::u64(i as u64 + 1)),
            ("op".to_string(), Json::str(op)),
        ];
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        write_frame(&mut input, &Json::Obj(all).to_text()).expect("frame");
    }
    let mut output = Vec::new();
    server.serve_stream(&mut input.as_slice(), &mut output);
    let mut reader = output.as_slice();
    let mut results = Vec::new();
    while let FrameRead::Frame(t) = read_frame(&mut reader).expect("recv") {
        let r = json::parse(&t).expect("response parses");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{t}");
        results.push(r.get("result").cloned().unwrap_or(Json::Null));
    }
    results
}

/// `elaborate` and `restore` build the program the session simulates
/// and nothing else: no C rendition of it.
#[test]
fn elaborate_and_restore_emit_no_c() {
    let server = Server::new(quiet_cfg(1, 1), None);
    ag_harness::trace::set_enabled(true);
    ag_harness::trace::reset();
    let first = stream_session(
        &server,
        vec![
            ("analyze", analyze_fields()),
            ("elaborate", vec![("entity", Json::str("tb"))]),
            ("run", vec![("until", Json::str("17ns"))]),
            ("checkpoint", vec![]),
        ],
    );
    let snap = first[3]
        .get("snapshot")
        .and_then(Json::as_str)
        .expect("checkpoint returns a snapshot")
        .to_string();
    stream_session(
        &server,
        vec![
            ("analyze", analyze_fields()),
            ("restore", vec![("snapshot", Json::str(&snap))]),
        ],
    );
    let report = ag_harness::trace::report();
    ag_harness::trace::set_enabled(false);
    let calls = |name: &str| {
        report
            .phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.calls)
            .sum::<u64>()
    };
    assert_eq!(calls("elaborate"), 2, "one elaborate, one restore");
    assert_eq!(calls("emit-c"), 0, "no C is emitted");
}

/// `files` for `analyze` with one file of the given text.
fn file_fields(name: &str, text: &str) -> Vec<(&'static str, Json)> {
    vec![(
        "files",
        Json::Arr(vec![obj([
            ("name", Json::str(name)),
            ("text", Json::str(text)),
        ])]),
    )]
}

fn reused(result: &Json) -> Option<bool> {
    result.get("reused").and_then(Json::as_bool)
}

/// A checkpoint taken before an edit of a unit the design binds is
/// refused after it, with the kernel's program-mismatch error: the kept
/// program does not outlive the library state it was elaborated from.
#[test]
fn restore_after_an_edit_of_a_bound_unit_is_refused() {
    let edited = FULL_ADDER.replace("y <= a xor b;", "y <= a or b;");
    assert_ne!(edited, FULL_ADDER);
    let (addr, _handle, join) = start(quiet_cfg(8, 1));
    let mut c = Client::connect(&addr);
    c.ok("analyze", analyze_fields());
    c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    c.ok("run", vec![("until", Json::str("17ns"))]);
    let snap = c
        .ok("checkpoint", vec![])
        .get("snapshot")
        .and_then(Json::as_str)
        .expect("snapshot")
        .to_string();
    // Before the edit, the restore is served from the kept program.
    let before = c.ok("restore", vec![("snapshot", Json::str(&snap))]);
    assert_eq!(reused(&before), Some(true), "{}", before.to_text());
    c.ok("analyze", file_fields("full_adder.vhd", &edited));
    let resp = c.req("restore", vec![("snapshot", Json::str(&snap))]);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("restore: snapshot was taken from a different elaborated design"),
        "{}",
        resp.to_text()
    );
    // The refused restore elaborated the edited design, which the next
    // `elaborate` finds kept.
    let again = c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    assert_eq!(reused(&again), Some(true), "{}", again.to_text());
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A second architecture of a bound entity changes the binding by the
/// latest-compiled-architecture rule (§3.3), so `elaborate` does not
/// serve the program kept from before it.
#[test]
fn a_newer_architecture_is_bound_not_the_kept_program() {
    const ALT: &str = "architecture alt of xor2 is\nbegin\n  y <= a or b;\nend alt;\n";
    let (addr, _handle, join) = start(quiet_cfg(8, 1));
    let mut c = Client::connect(&addr);
    c.ok("analyze", analyze_fields());
    let first = c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    assert_eq!(reused(&first), Some(false));
    c.ok("run", vec![("until", Json::str("25ns"))]);
    // At 25 ns a = b = 1 and cin = 0: sum is 0 through xor gates.
    let sum = |c: &mut Client| {
        c.ok("inspect", vec![("path", Json::str(":tb:sum"))])
            .get("value")
            .and_then(Json::as_str)
            .expect("value")
            .to_string()
    };
    assert_eq!(sum(&mut c), "0");
    c.ok("analyze", file_fields("alt.vhd", ALT));
    let second = c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    assert_eq!(reused(&second), Some(false), "{}", second.to_text());
    c.ok("run", vec![("until", Json::str("25ns"))]);
    // With `alt` (an or gate) bound, a or b = 1 and sum = 1 or 0 = 1.
    assert_eq!(sum(&mut c), "1");
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// A warm `analyze` stores nothing, so the `elaborate` after it is served
/// from the kept program, and `stats` counts one hit and one miss.
#[test]
fn elaborate_after_a_warm_analyze_reuses_the_program() {
    let (addr, _handle, join) = start(quiet_cfg(8, 1));
    let mut c = Client::connect(&addr);
    c.ok("analyze", analyze_fields());
    let cold = c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    assert_eq!(reused(&cold), Some(false));
    let warm = c.ok("analyze", analyze_fields());
    assert_eq!(warm.get("analyzed").and_then(Json::as_u64), Some(0));
    let hit = c.ok("elaborate", vec![("entity", Json::str("tb"))]);
    assert_eq!(reused(&hit), Some(true), "{}", hit.to_text());
    assert_eq!(hit.to_text(), cold.to_text().replace("false", "true"));
    let stats = c.ok("stats", vec![]);
    let session = stats.get("session").expect("session stats");
    assert_eq!(session.get("program_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(
        session.get("program_misses").and_then(Json::as_u64),
        Some(1)
    );
    c.ok("shutdown", vec![]);
    join.join().expect("serve thread").expect("serve result");
}

/// The program fingerprint is computed once per elaborated program, not
/// at every `checkpoint` and `restore`.
#[test]
fn the_fingerprint_is_computed_once_per_program() {
    let server = Server::new(quiet_cfg(1, 1), None);
    ag_harness::trace::set_enabled(true);
    ag_harness::trace::reset();
    let first = stream_session(
        &server,
        vec![
            ("analyze", analyze_fields()),
            ("elaborate", vec![("entity", Json::str("tb"))]),
            ("run", vec![("until", Json::str("17ns"))]),
            ("checkpoint", vec![]),
        ],
    );
    let snap = || {
        (
            "restore",
            vec![(
                "snapshot",
                first[3].get("snapshot").expect("snapshot").clone(),
            )],
        )
    };
    let results = stream_session(
        &server,
        vec![
            ("analyze", analyze_fields()),
            snap(),
            ("checkpoint", vec![]),
            snap(),
            ("elaborate", vec![("entity", Json::str("tb"))]),
            ("run", vec![("until", Json::str("5ns"))]),
            ("checkpoint", vec![]),
        ],
    );
    let report = ag_harness::trace::report();
    ag_harness::trace::set_enabled(false);
    let calls = |name: &str| {
        report
            .phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.calls)
            .sum::<u64>()
    };
    assert_eq!(reused(&results[1]), Some(false));
    assert_eq!(reused(&results[3]), Some(true));
    assert_eq!(reused(&results[4]), Some(true));
    assert_eq!(calls("elaborate"), 2, "one per session");
    assert_eq!(calls("program-fingerprint"), 2, "one per session's program");
}
