//! One `vhdld` session: a private compile-and-simulate workspace.
//!
//! A session *is* a connection. Everything `Rc`-based — the analyzer, the
//! library graph, the elaborated program, the simulator — lives on the
//! connection's thread and never crosses it; only request/response text
//! does. The workspace starts as a copy-on-write fork of the server's
//! base library snapshot (`Arc<str>` unit texts: forking copies no VIF),
//! and every `analyze` runs through the batch compiler's wave scheduler
//! on the connection's thread, so a warm re-analyze of an unchanged unit
//! is an incremental-stamp hit, not a recompile.

use std::cell::{OnceCell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sim_kernel::io::Vcd;
use sim_kernel::snapshot::{program_fingerprint, Dec, Enc, SnapshotError};
use sim_kernel::{NsObject, Program, RunOutcome, SigId, Simulator, Time};
use vhdl_driver::batch::BatchOptions;
use vhdl_driver::{resolve_jobs, Compiler, EnvKind};
use vhdl_vif::{Library, LibrarySet, LibrarySnapshot};

use crate::b64;
use crate::json::{obj, Json};
use crate::metrics::Metrics;

/// Per-request control surface the connection loop hands each handler.
pub struct RequestCtl<'a> {
    /// Wall-clock point after which long operations must stop.
    pub wall_deadline: Instant,
    /// Server-wide drain flag; long operations stop when it rises.
    pub shutting_down: &'a AtomicBool,
    /// Server-wide counters.
    pub metrics: &'a Mutex<Metrics>,
}

/// A session's state. Not `Send` by design — it is confined to the
/// connection's thread.
pub struct Session {
    compiler: Compiler,
    sim: Option<Simulator<'static>>,
    vcd: Rc<RefCell<Vcd>>,
    probes: Rc<RefCell<HashSet<SigId>>>,
    /// Reports already delivered by earlier `run` responses.
    reported: usize,
    /// The program the current simulator runs and how it was elaborated;
    /// `checkpoint` embeds the spec so `restore` can find or rebuild the
    /// same program from the session's library.
    elab: Option<Rc<Elaborated>>,
    /// Programs elaborated in this session, least recently used first, at
    /// most [`PROGRAMS`] of them.
    programs: Vec<Rc<Elaborated>>,
    /// `elaborate`s and `restore`s served from `programs`...
    program_hits: u64,
    /// ...and those that ran the elaborator.
    program_misses: u64,
}

/// Programs a session keeps: the current one, which `restore` after
/// `checkpoint` finds, and the one before it, which `elaborate` finds
/// when an edit alternates between two versions of a unit.
const PROGRAMS: usize = 2;

/// One elaborated program and the library state it was elaborated from.
struct Elaborated {
    spec: ElabSpec,
    /// [`vhdl_codegen::library_digest`] of the session library it was
    /// elaborated against.
    library: u64,
    program: Program,
    /// The program's fingerprint, computed by the first checkpoint or
    /// restore that needs it.
    fingerprint: OnceCell<u64>,
}

/// The elaboration a snapshot must replay before kernel state can be
/// re-attached. A snapshot carries the *spec*, not the program: the
/// design's units already live in the (shared, content-addressed) library,
/// and the kernel snapshot's program fingerprint guards against the
/// library having drifted in between.
#[derive(Clone, PartialEq)]
enum ElabSpec {
    Config(String),
    Entity {
        entity: String,
        arch: Option<String>,
    },
}

/// Magic of the session-snapshot wrapper (around the kernel's `VSNP`).
const SESSION_MAGIC: [u8; 4] = *b"VSES";
/// Wrapper version. Any change to the wrapper layout bumps this; old
/// versions are rejected, not migrated (the snapshot's lifetime is a
/// checkpoint/resume hop, not an archive format). Version 1 stored a
/// one-byte VCD code per signal; version 2 stores the VCD writer's
/// signal table, from which the multi-character codes follow.
const SESSION_VERSION: u32 = 2;

/// Truthy `incremental` default: a server session's whole point is the
/// warm cache.
fn opt_bool(params: &Json, key: &str, default: bool) -> bool {
    params.get(key).and_then(Json::as_bool).unwrap_or(default)
}

fn time_json(t: Time) -> Json {
    obj([
        ("fs", Json::u64(t.fs)),
        ("display", Json::str(format!("{t}"))),
    ])
}

impl Session {
    /// Opens a session whose work library is a copy-on-write fork of
    /// `base` (or empty without one).
    pub fn new(base: Option<&LibrarySnapshot>) -> Session {
        let work = base.map_or_else(|| Library::in_memory("work"), Library::from_snapshot);
        Session {
            compiler: Compiler::new(EnvKind::Tree, work),
            sim: None,
            vcd: Rc::new(RefCell::new(Vcd::new("1fs"))),
            probes: Rc::new(RefCell::new(HashSet::new())),
            reported: 0,
            elab: None,
            programs: Vec::new(),
            program_hits: 0,
            program_misses: 0,
        }
    }

    /// Dispatches one request. `Err` becomes an error response — handlers
    /// never panic the connection (the caller additionally wraps dispatch
    /// in `catch_unwind`).
    pub fn handle(&mut self, op: &str, params: &Json, ctl: &RequestCtl) -> Result<Json, String> {
        match op {
            "ping" => Ok(obj([("pong", Json::Bool(true))])),
            "analyze" => self.analyze(params, ctl),
            "elaborate" => self.elaborate(params),
            "run" => self.run(params, ctl),
            "inspect" => self.inspect(params),
            "trace" => self.trace(params),
            "vcd" => self.vcd_text(),
            "dump" => self.dump(),
            "checkpoint" => self.checkpoint(),
            "restore" => self.restore(params),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    fn analyze(&mut self, params: &Json, ctl: &RequestCtl) -> Result<Json, String> {
        let mut files: Vec<(String, String)> = Vec::new();
        for f in params.get("files").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = f
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("<inline>")
                .to_string();
            let text = f
                .get("text")
                .and_then(Json::as_str)
                .ok_or("analyze: each file needs a `text` string")?
                .to_string();
            files.push((name, text));
        }
        for p in params.get("paths").and_then(Json::as_arr).unwrap_or(&[]) {
            let path = p.as_str().ok_or("analyze: `paths` must be strings")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            files.push((path.to_string(), text));
        }
        if files.is_empty() {
            return Err("analyze: no `files` or `paths` given".to_string());
        }
        let opts = BatchOptions {
            incremental: opt_bool(params, "incremental", true),
            ..BatchOptions::default()
        };
        let r = self.compiler.compile_batch(&files, opts);
        {
            let mut m = ctl.metrics.lock().unwrap_or_else(|p| p.into_inner());
            m.analyze_skipped += r.cache.hits;
            m.analyze_analyzed += r.cache.analyzed();
        }
        let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        let units = Json::Arr(
            r.units
                .iter()
                .map(|u| {
                    obj([
                        ("key", Json::str(u.key.clone())),
                        (
                            "wave",
                            u.wave.map(|w| Json::u64(w as u64)).unwrap_or(Json::Null),
                        ),
                        ("skipped", Json::Bool(u.skipped)),
                        (
                            "msgs",
                            Json::Arr(
                                u.msgs
                                    .iter()
                                    .map(|m| Json::str(format!("{}:{m}", names[u.file])))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let mut front = Vec::new();
        for (i, e) in &r.front_errors {
            front.push(Json::str(format!("{}: {e}", names[*i])));
        }
        Ok(obj([
            ("ok", Json::Bool(r.ok())),
            ("units", units),
            ("front_errors", Json::Arr(front)),
            ("waves", Json::u64(r.waves as u64)),
            ("skipped", Json::u64(r.cache.hits)),
            ("analyzed", Json::u64(r.cache.analyzed())),
            ("parsed", Json::u64(r.cache.parsed)),
            ("reused", Json::u64(r.cache.reused)),
        ]))
    }

    /// The program for `spec` over the session's library as it is now:
    /// a kept one elaborated from the same library state, or else a new
    /// one from the elaborator. The flag says whether it was kept.
    fn program(&mut self, spec: ElabSpec) -> Result<(Rc<Elaborated>, bool), String> {
        let libs = &self.compiler.libs;
        // A library the digest cannot read is elaborated without the
        // cache; the elaborator reports what it cannot read.
        let library = vhdl_codegen::library_digest(libs).ok();
        if let Some(at) = self
            .programs
            .iter()
            .position(|p| Some(p.library) == library && p.spec == spec)
        {
            let kept = self.programs.remove(at);
            self.programs.push(Rc::clone(&kept));
            self.program_hits += 1;
            return Ok((kept, true));
        }
        self.program_misses += 1;
        let program = match &spec {
            ElabSpec::Config(cfg) => vhdl_codegen::elaborate_config(libs, cfg),
            ElabSpec::Entity { entity, arch } => {
                vhdl_codegen::elaborate(libs, entity, arch.as_deref())
            }
        }
        .map_err(|e| e.to_string())?;
        let built = Rc::new(Elaborated {
            spec,
            library: library.unwrap_or_default(),
            program,
            fingerprint: OnceCell::new(),
        });
        if library.is_some() {
            if self.programs.len() == PROGRAMS {
                self.programs.remove(0);
            }
            self.programs.push(Rc::clone(&built));
        }
        Ok((built, false))
    }

    /// Wires `sim`'s observer to record probe-selected changes into this
    /// session's VCD, then installs it as the current simulator.
    fn install_sim(&mut self, mut sim: Simulator<'static>, elab: Rc<Elaborated>) {
        // The observer filters through the glob-selected probe set; an
        // empty set records nothing, `trace` fills it.
        let vcd_w = Rc::clone(&self.vcd);
        let probes_r = Rc::clone(&self.probes);
        sim.observe(Box::new(move |t, sig, name, v| {
            if probes_r.borrow().contains(&sig) {
                vcd_w.borrow_mut().change(t, sig, name, v);
            }
        }));
        self.sim = Some(sim);
        self.elab = Some(elab);
    }

    fn elaborate(&mut self, params: &Json) -> Result<Json, String> {
        let spec = if let Some(cfg) = params.get("config").and_then(Json::as_str) {
            ElabSpec::Config(cfg.to_string())
        } else {
            let entity = params
                .get("entity")
                .and_then(Json::as_str)
                .ok_or("elaborate: needs `entity` (or `config`)")?;
            ElabSpec::Entity {
                entity: entity.to_string(),
                arch: params
                    .get("arch")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            }
        };
        let (elab, reused) = self.program(spec)?;
        let program = &elab.program;
        let signals = program.signals.len();
        let processes = program.processes.len();
        let regions = program.regions.len();
        let mut sim = Simulator::new(program.clone());
        if let Some(&fingerprint) = elab.fingerprint.get() {
            sim = sim.with_fingerprint(fingerprint);
        }
        let objects = sim.names().len();
        self.vcd = Rc::new(RefCell::new(Vcd::new("1fs")));
        self.probes = Rc::new(RefCell::new(HashSet::new()));
        self.reported = 0;
        self.install_sim(sim, elab);
        Ok(obj([
            ("signals", Json::u64(signals as u64)),
            ("processes", Json::u64(processes as u64)),
            ("regions", Json::u64(regions as u64)),
            ("objects", Json::u64(objects as u64)),
            ("reused", Json::Bool(reused)),
        ]))
    }

    /// Serializes the whole session runtime — kernel snapshot, VCD text
    /// accumulated so far, probe set, and delivered-report cursor — as one
    /// sealed, base64-encoded blob. A fresh session (on this server or
    /// another holding the same library units) restores it and continues
    /// with byte-identical VCD, stats, and counters.
    fn checkpoint(&mut self) -> Result<Json, String> {
        let (Some(elab), Some(sim)) = (&self.elab, self.sim.as_mut()) else {
            return Err("checkpoint: nothing elaborated yet".to_string());
        };
        let kernel = sim.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        // The checkpoint computed the fingerprint if nobody had; the kept
        // program remembers it for the next simulator built from it.
        elab.fingerprint.get_or_init(|| sim.fingerprint());
        let mut e = Enc::new();
        for b in SESSION_MAGIC {
            e.u8(b);
        }
        e.u32(SESSION_VERSION);
        match &elab.spec {
            ElabSpec::Entity { entity, arch } => {
                e.u8(0);
                e.str(entity);
                match arch {
                    Some(a) => {
                        e.u8(1);
                        e.str(a);
                    }
                    None => e.u8(0),
                }
            }
            ElabSpec::Config(cfg) => {
                e.u8(1);
                e.str(cfg);
            }
        }
        e.blob(&kernel);
        self.vcd.borrow().encode(&mut e);
        let mut probes: Vec<SigId> = self.probes.borrow().iter().copied().collect();
        probes.sort_unstable();
        e.len(probes.len());
        for sig in probes {
            e.u32(sig.0);
        }
        e.u64(self.reported as u64);
        let bytes = e.seal();
        let n = bytes.len();
        Ok(obj([
            ("snapshot", Json::str(b64::encode(&bytes))),
            ("bytes", Json::u64(n as u64)),
        ]))
    }

    /// Rebuilds a session runtime from a `checkpoint` blob: finds or
    /// re-elaborates the recorded design over this session's library (a
    /// kept program when the library is in the state it was elaborated
    /// from), re-attaches the kernel state (refusing a fingerprint
    /// mismatch), and restores the VCD/probe/report cursors so the
    /// continuation is byte-identical to an uninterrupted run.
    fn restore(&mut self, params: &Json) -> Result<Json, String> {
        let text = params
            .get("snapshot")
            .and_then(Json::as_str)
            .ok_or("restore: needs `snapshot` (base64 text)")?;
        let bytes = b64::decode(text).map_err(|e| format!("restore: {e}"))?;
        let snap_err = |e: SnapshotError| format!("restore: {e}");
        Dec::verify_checksum(&bytes).map_err(snap_err)?;
        let mut d = Dec::new(&bytes[..bytes.len() - 8]);
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = d.u8().map_err(snap_err)?;
        }
        if magic != SESSION_MAGIC {
            return Err("restore: not a session snapshot (bad magic)".to_string());
        }
        let version = d.u32().map_err(snap_err)?;
        if version != SESSION_VERSION {
            return Err(format!(
                "restore: session snapshot version {version} is not {SESSION_VERSION}"
            ));
        }
        let spec = match d.u8().map_err(snap_err)? {
            0 => {
                let entity = d.str().map_err(snap_err)?;
                let arch = match d.u8().map_err(snap_err)? {
                    0 => None,
                    1 => Some(d.str().map_err(snap_err)?),
                    t => return Err(format!("restore: bad arch tag {t}")),
                };
                ElabSpec::Entity { entity, arch }
            }
            1 => ElabSpec::Config(d.str().map_err(snap_err)?),
            t => return Err(format!("restore: bad elaboration tag {t}")),
        };
        let kernel = d.blob().map_err(snap_err)?;
        let vcd = Vcd::decode(&mut d).map_err(snap_err)?;
        let n_probes = d.len(4).map_err(snap_err)?;
        let mut probes = HashSet::with_capacity(n_probes);
        for _ in 0..n_probes {
            probes.insert(SigId(d.u32().map_err(snap_err)?));
        }
        let reported = d.u64().map_err(snap_err)? as usize;
        if d.remaining() != 0 {
            return Err("restore: trailing bytes after session snapshot".to_string());
        }
        let (elab, reused) = self.program(spec)?;
        let fingerprint = *elab
            .fingerprint
            .get_or_init(|| program_fingerprint(&elab.program));
        let sim = Simulator::restore_known(elab.program.clone(), fingerprint, &kernel)
            .map_err(snap_err)?;
        if reported > sim.reports().len() {
            return Err(format!(
                "restore: report cursor {reported} beyond the {} restored reports",
                sim.reports().len()
            ));
        }
        let signals = sim.program().signals.len();
        let processes = sim.program().processes.len();
        let objects = sim.names().len();
        let now = sim.now();
        self.vcd = Rc::new(RefCell::new(vcd));
        self.probes = Rc::new(RefCell::new(probes));
        self.reported = reported;
        self.install_sim(sim, elab);
        Ok(obj([
            ("restored", Json::Bool(true)),
            ("signals", Json::u64(signals as u64)),
            ("processes", Json::u64(processes as u64)),
            ("objects", Json::u64(objects as u64)),
            ("now", time_json(now)),
            ("reused", Json::Bool(reused)),
        ]))
    }

    fn run(&mut self, params: &Json, ctl: &RequestCtl) -> Result<Json, String> {
        let sim = self.sim.as_mut().ok_or("run: nothing elaborated yet")?;
        let deadline = if let Some(t) = params.get("until").and_then(Json::as_str) {
            Time::parse(t).map_err(|e| format!("run: {e}"))?
        } else if let Some(t) = params.get("for").and_then(Json::as_str) {
            let d = Time::parse(t).map_err(|e| format!("run: {e}"))?;
            Time::fs(
                sim.now()
                    .fs
                    .checked_add(d.fs)
                    .ok_or("run: deadline overflows")?,
            )
        } else {
            return Err("run: needs `until` or `for` (a time literal)".to_string());
        };
        let max_cycles = params
            .get("max_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        // Optional worker ceiling for this run slice (0 = one worker per
        // CPU). The kernel uses the workers only for cycles whose
        // estimated work, the woken processes' instruction counts from
        // their last activations, reaches its measured pool gate; lighter
        // cycles run inline. Observables are byte-identical at every
        // count. The setting persists on the session's simulator until
        // changed.
        if let Some(jobs) = params.get("jobs").and_then(Json::as_u64) {
            sim.set_jobs(resolve_jobs(usize::try_from(jobs).unwrap_or(usize::MAX)));
        }
        let wall = ctl.wall_deadline;
        let shutting_down = ctl.shutting_down;
        let mut cancel = || Instant::now() >= wall || shutting_down.load(Ordering::Relaxed);
        let outcome = sim
            .run_slice(deadline, max_cycles, &mut cancel)
            .map_err(|e| format!("simulation: {e}"))?;
        let outcome_name = match outcome {
            RunOutcome::Quiescent => "quiescent",
            RunOutcome::DeadlineReached => "deadline",
            RunOutcome::CycleBudget => "cycle-budget",
            RunOutcome::Cancelled if shutting_down.load(Ordering::Relaxed) => "draining",
            RunOutcome::Cancelled => "wall-deadline",
        };
        let reports: Vec<Json> = sim.reports()[self.reported..]
            .iter()
            .map(|r| {
                obj([
                    ("time", time_json(r.time)),
                    ("severity", Json::u64(r.severity.clamp(0, 3) as u64)),
                    ("text", Json::str(r.text.clone())),
                ])
            })
            .collect();
        self.reported = sim.reports().len();
        let st = sim.stats();
        Ok(obj([
            ("outcome", Json::str(outcome_name)),
            ("now", time_json(sim.now())),
            ("reports", Json::Arr(reports)),
            (
                "stats",
                obj([
                    ("cycles", Json::u64(st.cycles)),
                    ("delta_cycles", Json::u64(st.delta_cycles)),
                    ("events", Json::u64(st.events)),
                    ("transactions", Json::u64(st.transactions)),
                    ("resumptions", Json::u64(st.resumptions)),
                    ("calendar_ops", Json::u64(st.calendar_ops)),
                    ("woken_procs", Json::u64(st.woken_procs)),
                    ("scanned_signals", Json::u64(st.scanned_signals)),
                ]),
            ),
        ]))
    }

    fn inspect(&mut self, params: &Json) -> Result<Json, String> {
        let sim = self.sim.as_ref().ok_or("inspect: nothing elaborated yet")?;
        let path = params
            .get("path")
            .and_then(Json::as_str)
            .ok_or("inspect: needs `path`")?;
        let entry = sim.resolve(path).map_err(|e| format!("inspect: {e}"))?;
        let mut fields = vec![
            ("path".to_string(), Json::str(entry.path.clone())),
            ("kind".to_string(), Json::str(entry.object.kind())),
        ];
        match entry.object {
            NsObject::Signal(sig) => {
                fields.push((
                    "value".to_string(),
                    Json::str(format!("{}", sim.signal_value(sig))),
                ));
                fields.push(("events".to_string(), Json::u64(sim.signal_events(sig))));
                fields.push((
                    "last_event".to_string(),
                    sim.signal_last_event(sig)
                        .map(time_json)
                        .unwrap_or(Json::Null),
                ));
            }
            NsObject::Process(p) => {
                fields.push((
                    "resumptions".to_string(),
                    Json::u64(sim.process_resumptions(p)),
                ));
                // The static sensitivity set the scheduler indexes this
                // process under, rendered as canonical paths.
                let sens: Vec<Json> = sim
                    .process_sensitivity(p)
                    .iter()
                    .map(|&sig| {
                        sim.names()
                            .find(NsObject::Signal(sig))
                            .map(|e| Json::str(e.path))
                            .unwrap_or(Json::Null)
                    })
                    .collect();
                fields.push(("sensitivity".to_string(), Json::Arr(sens)));
            }
            NsObject::Region => {}
        }
        Ok(Json::Obj(fields))
    }

    fn trace(&mut self, params: &Json) -> Result<Json, String> {
        let sim = self.sim.as_ref().ok_or("trace: nothing elaborated yet")?;
        let pattern = params
            .get("glob")
            .and_then(Json::as_str)
            .ok_or("trace: needs `glob`")?;
        let entries = sim.glob(pattern).map_err(|e| format!("trace: {e}"))?;
        let mut probes = self.probes.borrow_mut();
        let mut matched = Vec::new();
        for e in &entries {
            if let NsObject::Signal(sig) = e.object {
                probes.insert(sig);
            }
            matched.push(obj([
                ("path", Json::str(e.path.clone())),
                ("kind", Json::str(e.object.kind())),
            ]));
        }
        Ok(obj([
            ("matched", Json::Arr(matched)),
            ("probes", Json::u64(probes.len() as u64)),
        ]))
    }

    fn vcd_text(&self) -> Result<Json, String> {
        Ok(obj([("text", Json::str(self.vcd.borrow().finish()))]))
    }

    /// Work-library image, key-sorted — the byte-identity witness the
    /// concurrency tests compare across sessions and against `vhdlc`.
    fn dump(&self) -> Result<Json, String> {
        let work = self.compiler.libs.work();
        let mut keys = work.keys_by_first_use();
        keys.sort();
        let units = Json::Arr(
            keys.into_iter()
                .filter_map(|k| {
                    let text = work.peek_raw(&k).ok()?;
                    Some(obj([("key", Json::str(k)), ("text", Json::str(text))]))
                })
                .collect(),
        );
        Ok(obj([("units", units)]))
    }

    /// Current simulation time, if a design is elaborated (for `stats`).
    pub fn sim_time(&self) -> Option<Time> {
        self.sim.as_ref().map(Simulator::now)
    }

    /// Kernel statistics, if a design is elaborated (for `stats`).
    pub fn sim_stats(&self) -> Option<sim_kernel::SimStats> {
        self.sim.as_ref().map(Simulator::stats)
    }

    /// Unit count in the session's work library (for `stats`).
    pub fn unit_count(&self) -> usize {
        self.compiler.libs.work().keys_by_first_use().len()
    }

    /// `elaborate`s and `restore`s served from the session's kept
    /// programs, and those that ran the elaborator (for `stats`).
    pub fn program_counts(&self) -> (u64, u64) {
        (self.program_hits, self.program_misses)
    }

    /// The current simulator, if a design is elaborated.
    pub fn simulator(&self) -> Option<&Simulator<'static>> {
        self.sim.as_ref()
    }

    /// The session's library universe.
    pub fn libs(&self) -> &LibrarySet {
        &self.compiler.libs
    }

    /// Drops every kept program, so the next `elaborate` or `restore`
    /// runs the elaborator.
    pub fn forget_programs(&mut self) {
        self.programs.clear();
    }
}

/// Default per-request wall deadline when the server config does not set
/// one.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);
