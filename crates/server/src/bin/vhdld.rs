//! `vhdld` — the compile-and-simulate daemon (and its scripting client).
//!
//! ```text
//! vhdld [--listen ADDR] [--max-clients N] [--deadline-ms MS] [--jobs N]
//!       [--tenant-quota N] [--base FILE...] [--quiet]
//! vhdld --stdio
//! vhdld --connect ADDR
//! ```
//!
//! `--jobs N` sets each session's analysis workers (`0` = one per CPU).
//!
//! Serve mode binds `ADDR` (default `127.0.0.1:0`), prints one line
//! `vhdld listening on HOST:PORT` to stdout, then serves framed JSON
//! requests (see DESIGN.md §10), each connection on a thread of its own
//! (at most `--max-clients` of them). `--base FILE...` pre-compiles VHDL files
//! into a base library that every session forks copy-on-write.
//!
//! `--stdio` serves exactly one session over stdin/stdout frames.
//!
//! `--connect` is the scripting client `scripts/verify.sh` uses: each
//! non-empty, non-`#` line of stdin is one JSON request (an `id` is
//! injected when missing), sent as a frame; each response is printed as
//! one line of JSON on stdout.

use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;

use vhdl_driver::{resolve_jobs, Compiler};
use vhdl_server::json::{self, Json};
use vhdl_server::proto::{read_frame, write_frame, FrameRead};
use vhdl_server::{Server, ServerConfig};

struct Args {
    listen: String,
    stdio: bool,
    connect: Option<String>,
    base: Vec<String>,
    cfg: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        listen: "127.0.0.1:0".to_string(),
        stdio: false,
        connect: None,
        base: Vec::new(),
        cfg: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--listen" => out.listen = grab("--listen")?,
            "--stdio" => out.stdio = true,
            "--connect" => out.connect = Some(grab("--connect")?),
            "--base" => out.base.push(grab("--base")?),
            "--max-clients" => {
                out.cfg.max_clients = grab("--max-clients")?
                    .parse()
                    .map_err(|_| "--max-clients needs a count".to_string())?
            }
            "--deadline-ms" => {
                let ms: u64 = grab("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms needs milliseconds".to_string())?;
                out.cfg.deadline = std::time::Duration::from_millis(ms);
            }
            "--jobs" => {
                out.cfg.jobs = grab("--jobs")?
                    .parse()
                    .map(resolve_jobs)
                    .map_err(|_| "--jobs needs a worker count".to_string())?
            }
            "--tenant-quota" => {
                out.cfg.tenant_max_sessions = grab("--tenant-quota")?
                    .parse()
                    .map_err(|_| "--tenant-quota needs a session count".to_string())?
            }
            "--quiet" => out.cfg.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: vhdld [--listen ADDR] [--max-clients N] [--deadline-ms MS] \
                     [--jobs N] [--tenant-quota N] \
                     [--base FILE...] [--quiet] | --stdio | --connect ADDR\n\
                     --jobs 0 uses one analysis worker per CPU."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(out)
}

/// Pre-compiles `--base` files into a snapshot sessions fork from.
fn build_base(files: &[String]) -> Result<Option<vhdl_vif::LibrarySnapshot>, String> {
    if files.is_empty() {
        return Ok(None);
    }
    let compiler = Compiler::in_memory();
    let mut inputs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        inputs.push((f.clone(), text));
    }
    // Incremental, so the snapshot carries stamps: a session's first
    // analyze of unchanged base text is then a cache hit, not a rebuild.
    let opts = vhdl_driver::batch::BatchOptions {
        jobs: 1,
        incremental: true,
    };
    let r = compiler.compile_batch(&inputs, opts);
    if !r.ok() {
        let names: Vec<String> = inputs.iter().map(|(n, _)| n.clone()).collect();
        return Err(format!("base library:\n{}", r.rendered_msgs(&names)));
    }
    Ok(Some(compiler.libs.work().snapshot()))
}

fn client(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut next_id: u64 = 1;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut req = json::parse(line).map_err(|e| format!("request: {e}"))?;
        if req.get("id").is_none() {
            if let Json::Obj(m) = &mut req {
                m.insert(0, ("id".to_string(), Json::u64(next_id)));
            }
        }
        next_id += 1;
        write_frame(&mut writer, &req.to_text()).map_err(|e| e.to_string())?;
        match read_frame(&mut reader).map_err(|e| e.to_string())? {
            FrameRead::Frame(resp) => {
                let mut out = stdout.lock();
                let _ = writeln!(out, "{resp}");
                let _ = out.flush();
            }
            FrameRead::Eof => return Err("server closed the connection".to_string()),
            FrameRead::Idle => return Err("unexpected read timeout".to_string()),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // `--base` and `--stdio` analyze on this thread: give it the stack
    // the session and analysis threads get.
    vhdl_driver::run_on_stack("vhdld", run)
}

fn run() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vhdld: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(addr) = &args.connect {
        return match client(addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vhdld: {e}");
                ExitCode::from(1)
            }
        };
    }
    let base = match build_base(&args.base) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("vhdld: {e}");
            return ExitCode::from(1);
        }
    };
    let server = Server::new(args.cfg.clone(), base);
    if args.stdio {
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        server.serve_stream(&mut stdin, &mut stdout);
        return ExitCode::SUCCESS;
    }
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("vhdld: bind {}: {e}", args.listen);
            return ExitCode::from(2);
        }
    };
    match listener.local_addr() {
        Ok(addr) => {
            println!("vhdld listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("vhdld: {e}");
            return ExitCode::from(2);
        }
    }
    match server.serve(listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vhdld: {e}");
            ExitCode::from(1)
        }
    }
}
