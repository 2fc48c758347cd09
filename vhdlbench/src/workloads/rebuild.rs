//! `rebuild`: the batch driver, its dependency graph and worker pool, and
//! the incremental stamps. Every pass builds a seeded multi-file project
//! three ways with `compile_batch(jobs = nproc, incremental)`: `cold` in a
//! new compiler, `noop` through a new compiler over an on-disk library of
//! the same project (a process restart), and `edit` with one seeded
//! package changed.
//!
//! Only `noop` touches the disk in timed code, and it only reads. On a
//! 2-vCPU VM with an ext4 virtio disk, creating a file took anywhere from
//! 80 to 500 µs, drifting within a minute, so a timed build that writes its
//! ~400 files could not repeat within any useful bound. The on-disk
//! library is written once, untimed, before set-up.

use std::collections::BTreeMap;
use std::path::Path;

use vhdl_driver::batch::{BatchOptions, BatchResult};
use vhdl_driver::Compiler;

use super::{op_ms, setup_failed, vif_layers, vifb_counts};
use crate::gen::{self, Project};
use crate::harness::{self, per_pass, ratio, span_s, Ctx, Outcome, Sink};
use crate::trace::span;

const PKGS: usize = 4;
const CELLS: usize = 48;
const PROCS: usize = 1;
/// Passes per second of `--seconds` (a pass takes 65 to 80 ms).
const PASSES_PER_S: f64 = 12.0;

/// VIF text of every unit in the compiler's work library.
fn vif_texts(c: &Compiler) -> BTreeMap<String, String> {
    let mut keys = c.libs.work().history();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter_map(|k| Some((k.clone(), c.libs.work().peek_raw(&k).ok()?)))
        .collect()
}

fn batch(c: &Compiler, files: &[(String, String)], jobs: usize) -> BatchResult {
    c.compile_batch(
        files,
        BatchOptions {
            jobs,
            incremental: true,
        },
    )
}

/// Set-up: a one-worker build of the project, whose VIF texts every cold
/// build must reproduce.
fn setup(project: &Project) -> Result<BTreeMap<String, String>, String> {
    let c = Compiler::in_memory();
    let r = batch(&c, &project.files, 1);
    if !r.ok() || r.cache.analyzed() as usize != project.units() {
        return Err(format!(
            "reference build analyzed {} of {} units",
            r.cache.analyzed(),
            project.units()
        ));
    }
    Ok(vif_texts(&c))
}

/// Writes the project's on-disk library into a fresh `dir`; it must hold
/// the same VIF texts as an in-memory build.
fn write_library(project: &Project, dir: &Path) -> Result<(), String> {
    let reference = setup(project)?;
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let c = Compiler::on_disk(dir).map_err(|e| e.to_string())?;
    if !batch(&c, &project.files, 1).ok() || vif_texts(&c) != reference {
        return Err("the on-disk library differs from the in-memory build".to_string());
    }
    Ok(())
}

/// One timed build: open a compiler, then compile the batch. Returns the
/// compiler too, so a later build can continue from its library.
fn build(
    sink: &mut Sink,
    name: &'static str,
    open: impl FnOnce() -> Result<Compiler, String>,
    files: &[(String, String)],
    jobs: usize,
) -> Option<(Compiler, BatchResult)> {
    let built = sink.op(name, || {
        let c = {
            let _s = span("driver.open");
            open()
        }?;
        let r = {
            let _s = span("driver.batch");
            batch(&c, files, jobs)
        };
        Ok::<_, String>((c, r))
    });
    let _c = span("bench.check");
    let (c, r) = match built {
        Ok(b) => b,
        Err(e) => {
            sink.fail(format!("{name}: {e}"));
            return None;
        }
    };
    sink.check(r.ok(), || format!("{name}: build reported errors"));
    let analyzed = r.cache.analyzed();
    sink.count("driver.waves", r.waves as f64);
    sink.count("driver.analyzed", analyzed as f64);
    sink.count("driver.hits", r.cache.hits as f64);
    sink.count("driver.scheduled", (r.cache.hits + analyzed) as f64);
    sink.count("driver.phase_s", r.phases.total().as_secs_f64());
    sink.count("driver.wall_s", r.wall.as_secs_f64());
    sink.count("syntax.parse_s", r.phases.parse.as_secs_f64());
    sink.count("sem.analyze_self_s", r.phases.attr_eval.as_secs_f64());
    sink.count("vif.load_s", r.phases.vif_read.as_secs_f64());
    sink.count("vif.put_s", r.phases.vif_write.as_secs_f64());
    sink.count("sem.units", analyzed as f64);
    sink.count(
        "sem.expr_evals",
        r.units.iter().map(|u| u.expr_evals).sum::<u64>() as f64,
    );
    sink.count("vif.bytes_read", r.traffic.bytes_read as f64);
    sink.count("vif.bytes_written", r.traffic.bytes_written as f64);
    Some((c, r))
}

struct State<'a> {
    project: &'a Project,
    edited: &'a [(String, String)],
    reference: &'a BTreeMap<String, String>,
    library: &'a Path,
    jobs: usize,
}

fn pass(s: &State, sink: &mut Sink) {
    let vifb0 = vhdl_vif::vifb_stats();
    let units = s.project.units() as u64;
    let jobs = s.jobs;
    let cold = build(
        sink,
        "driver.cold",
        || Ok(Compiler::in_memory()),
        &s.project.files,
        jobs,
    );
    if let Some((c, r)) = &cold {
        let _c = span("bench.check");
        sink.check(r.cache.analyzed() == units, || {
            format!("cold analyzed {} of {units} units", r.cache.analyzed())
        });
        let texts = vif_texts(c);
        sink.check(texts == *s.reference, || {
            let diff = s
                .reference
                .iter()
                .find(|(k, v)| texts.get(*k) != Some(v))
                .map_or("the unit set", |(k, _)| k.as_str());
            format!("cold VIF at jobs={jobs} differs from jobs=1 at {diff}")
        });
    }
    let open_disk = || Compiler::on_disk(s.library).map_err(|e| e.to_string());
    if let Some(noop) = build(sink, "driver.noop", open_disk, &s.project.files, jobs) {
        let _c = span("bench.check");
        let analyzed = noop.1.cache.analyzed();
        sink.check(analyzed == 0, || format!("noop analyzed {analyzed} units"));
        // Compilers drop inside the check span, not in unaccounted time.
        drop(noop);
    }
    let Some((c, _)) = cold else { return };
    if let Some(edit) = build(sink, "driver.edit", || Ok(c), s.edited, jobs) {
        let _c = span("bench.check");
        let r = &edit.1;
        let mut got: Vec<&str> = r
            .units
            .iter()
            .filter(|u| !u.skipped)
            .map(|u| u.key.as_str())
            .collect();
        got.sort_unstable();
        let want = s.project.edit_dependents();
        sink.check(got == want, || {
            format!("edit analyzed {got:?}, the generator predicts {want:?}")
        });
        drop(edit);
    }
    vifb_counts(sink, vifb0);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let project = Project::generate(gen::mix(ctx.seed, 0x5245_4255), PKGS, CELLS, PROCS);
    let library = ctx.scratch().join("library");
    write_library(&project, &library).unwrap_or_else(|e| setup_failed(ctx, &e));
    let edited = project.edited();
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
    let harness::Measured {
        setup_s, sink, log, ..
    } = harness::run(
        ctx,
        ctx.passes(PASSES_PER_S),
        &|| setup(&project),
        |reference, passes| {
            let state = State {
                project: &project,
                edited: &edited,
                reference,
                library: &library,
                jobs,
            };
            vec![harness::measure(ctx, 0, passes, |_, sink| {
                pass(&state, sink)
            })]
        },
    )
    .unwrap_or_else(|e| setup_failed(ctx, &e));
    let _ = std::fs::remove_dir_all(ctx.scratch());
    let mut layers = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set("driver.open_s", span_s(&log, &sink, "driver.open"));
    set("driver.batch_s", span_s(&log, &sink, "driver.batch"));
    for k in [
        "driver.waves",
        "driver.analyzed",
        "sem.units",
        "sem.expr_evals",
    ] {
        set(k, per_pass(&sink, k));
    }
    set(
        "driver.hit_ratio",
        ratio(
            per_pass(&sink, "driver.hits"),
            per_pass(&sink, "driver.scheduled"),
        ),
    );
    set(
        "driver.cpu_over_wall",
        ratio(
            per_pass(&sink, "driver.phase_s"),
            per_pass(&sink, "driver.wall_s"),
        ),
    );
    vif_layers(&log, &sink, &mut layers);
    // The driver times its own phases, summed over workers; the bench has
    // no span inside `compile_batch`.
    for k in [
        "syntax.parse_s",
        "sem.analyze_self_s",
        "vif.load_s",
        "vif.put_s",
    ] {
        layers.insert(k.to_string(), per_pass(&sink, k));
    }
    layers.insert("vif.puts".to_string(), per_pass(&sink, "sem.units"));
    layers.insert(
        "sem.share".to_string(),
        ratio(
            per_pass(&sink, "sem.analyze_self_s"),
            per_pass(&sink, "driver.wall_s"),
        ),
    );
    let parts = [
        ("rebuild_cold_min_ms", op_ms(&sink, "driver.cold", 0.0)),
        ("rebuild_edit_min_ms", op_ms(&sink, "driver.edit", 0.0)),
        ("rebuild_noop_min_ms", op_ms(&sink, "driver.noop", 0.0)),
    ];
    let detail = ["cold", "edit", "noop"]
        .into_iter()
        .map(|k| {
            (
                format!("rebuild_{k}_ms"),
                op_ms(&sink, &format!("driver.{k}"), 0.5),
                "ms",
            )
        })
        .collect();
    Outcome {
        setup_s,
        sink,
        log,
        layers,
        parts,
        detail,
    }
}
