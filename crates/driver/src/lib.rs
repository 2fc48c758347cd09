//! The compiler driver: files → units → analysis → VIF → code generation,
//! with the per-phase timing instrumentation behind the paper's §2.2
//! performance discussion (lines/minute, VIF read/write share, attribute
//! evaluation share, backend share).
//!
//! The front half has one path, [`Compiler::compile_batch`] ([`batch`]):
//! files are parsed (or their parse is taken from the compiler's memo of
//! the last batch's files, which an on-disk library keeps across
//! processes in its `fronts` file), their units staged into waves by the
//! [`depgraph`], analyzed, stamped and committed to the work library.
//! [`Compiler::compile`] is that path over one file; `vhdlc` and the
//! `vhdld` server call `compile_batch` directly. The back half
//! ([`Compiler::elaborate`], [`Compiler::elaborate_config`]) reads the
//! committed units.

pub mod batch;
pub mod depgraph;

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use sim_kernel::{Program, Simulator};
use vhdl_sem::analyze::Analyzer;
use vhdl_syntax::FrontError;
use vhdl_vif::{Library, LibrarySet};

use batch::{BatchOptions, BatchResult};

pub use ag_harness::pool::{resolve_jobs, run_on_stack, STACK_SIZE};
pub use vhdl_sem::env::EnvKind;

/// Wall-clock time spent per compiler phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Scanning + LALR parsing.
    pub parse: Duration,
    /// Attribute evaluation (analysis minus VIF reading).
    pub attr_eval: Duration,
    /// Reading (and fixing up) foreign VIF.
    pub vif_read: Duration,
    /// Writing VIF for compiled units.
    pub vif_write: Duration,
    /// Elaboration + lowering to kernel programs.
    pub codegen: Duration,
    /// Emitting the C rendition (the "host C compile" stand-in).
    pub backend: Duration,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.parse + self.attr_eval + self.vif_read + self.vif_write + self.codegen + self.backend
    }

    /// Percentage of the total for a phase duration.
    pub fn pct(&self, d: Duration) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            d.as_secs_f64() / t * 100.0
        }
    }
}

/// The compiler: an analyzer plus a library universe.
pub struct Compiler {
    /// The reusable analyzer: the process-wide grammar tables and AGs,
    /// and this thread's `STD.STANDARD`.
    pub analyzer: Analyzer,
    /// Work + reference libraries.
    pub libs: Rc<LibrarySet>,
    /// The last batch's files, parsed, by the hash of their text: a
    /// [`Compiler::compile_batch`] parses only the files whose text that
    /// batch did not have.
    parsed: RefCell<HashMap<u64, Rc<batch::ParsedFile>>>,
    /// The on-disk library's `fronts` file, which keeps `parsed` (texts
    /// and unit fronts, without trees) across processes.
    fronts_file: Option<PathBuf>,
}

impl Compiler {
    /// A compiler with the given environment representation over `work`
    /// as its work library.
    pub fn new(env_kind: EnvKind, work: Library) -> Compiler {
        Compiler {
            analyzer: Analyzer::new(env_kind),
            libs: Rc::new(LibrarySet::new(Rc::new(work), vec![])),
            parsed: RefCell::default(),
            fronts_file: None,
        }
    }

    /// An in-memory compiler (tests, benches).
    pub fn in_memory() -> Compiler {
        Compiler::with_env_kind(EnvKind::Tree)
    }

    /// An in-memory compiler with the given environment representation
    /// (the E7 ablation knob).
    pub fn with_env_kind(kind: EnvKind) -> Compiler {
        Compiler::new(kind, Library::in_memory("work"))
    }

    /// A compiler over an on-disk work library. Its memo of parsed files
    /// starts as the library's `fronts` file left it: the files of the
    /// last batch that changed it, with fronts but no trees. A missing or
    /// unreadable `fronts` file starts it empty.
    ///
    /// # Errors
    ///
    /// I/O errors opening the library.
    pub fn on_disk(dir: &Path) -> Result<Compiler, vhdl_vif::VifError> {
        let mut c = Compiler::new(EnvKind::Tree, Library::on_disk("work", dir)?);
        let fronts_file = dir.join("fronts");
        if let Some(memo) = std::fs::read(&fronts_file)
            .ok()
            .and_then(|bytes| batch::read_fronts(&bytes))
        {
            *c.parsed.get_mut() = memo;
        }
        c.fronts_file = Some(fronts_file);
        Ok(c)
    }

    /// Compiles one source string: a one-file [`Compiler::compile_batch`]
    /// with default options, so its units are staged by dependency (an
    /// architecture may precede its entity) and stamped like any batch.
    ///
    /// # Errors
    ///
    /// The file's front-end (scan/parse) error; semantic errors are
    /// carried per unit.
    pub fn compile(&self, src: &str) -> Result<BatchResult, FrontError> {
        let r = self.compile_batch(&[(String::new(), src.to_string())], BatchOptions::default());
        match r.front_errors.first() {
            Some((_, e)) => Err(e.clone()),
            None => Ok(r),
        }
    }

    /// Elaborates `entity(arch)` (or latest architecture) and emits the C
    /// rendition, timing the codegen/backend phases into `phases`.
    ///
    /// # Errors
    ///
    /// Elaboration/lowering errors.
    pub fn elaborate(
        &self,
        entity: &str,
        arch: Option<&str>,
        phases: Option<&mut PhaseTimes>,
    ) -> Result<(Program, String), vhdl_codegen::ElabError> {
        timed_elaborate(entity, phases, || {
            vhdl_codegen::elaborate(&self.libs, entity, arch)
        })
    }

    /// Elaborates through a configuration unit and emits the C rendition,
    /// timing the codegen/backend phases into `phases`.
    ///
    /// # Errors
    ///
    /// Elaboration/lowering errors.
    pub fn elaborate_config(
        &self,
        config: &str,
        phases: Option<&mut PhaseTimes>,
    ) -> Result<(Program, String), vhdl_codegen::ElabError> {
        timed_elaborate(config, phases, || {
            vhdl_codegen::elaborate_config(&self.libs, config)
        })
    }

    /// One-stop helper: compile `src`, elaborate `entity`, and return a
    /// ready simulator.
    ///
    /// # Errors
    ///
    /// Returns the first front-end, semantic, or elaboration problem as a
    /// string (examples and tests want one error channel).
    pub fn simulate(&self, src: &str, entity: &str) -> Result<Simulator<'static>, String> {
        let r = self.compile(src).map_err(|e| e.to_string())?;
        if !r.ok() {
            return Err(r.msgs().to_string());
        }
        let program =
            vhdl_codegen::elaborate(&self.libs, entity, None).map_err(|e| e.to_string())?;
        Ok(Simulator::new(program))
    }
}

/// Runs `elab`, then emits the C rendition named `top`, adding both
/// times to `phases`.
fn timed_elaborate(
    top: &str,
    phases: Option<&mut PhaseTimes>,
    elab: impl FnOnce() -> Result<Program, vhdl_codegen::ElabError>,
) -> Result<(Program, String), vhdl_codegen::ElabError> {
    let t0 = Instant::now();
    let program = elab()?;
    let codegen = t0.elapsed();
    let t0 = Instant::now();
    let c = vhdl_codegen::emit_c(top, &program);
    let backend = t0.elapsed();
    if let Some(p) = phases {
        p.codegen += codegen;
        p.backend += backend;
    }
    Ok((program, c))
}

impl Default for Compiler {
    fn default() -> Self {
        Self::in_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_percentages() {
        let p = PhaseTimes {
            parse: Duration::from_millis(10),
            attr_eval: Duration::from_millis(30),
            vif_read: Duration::from_millis(40),
            vif_write: Duration::from_millis(10),
            codegen: Duration::from_millis(5),
            backend: Duration::from_millis(5),
        };
        assert_eq!(p.total(), Duration::from_millis(100));
        assert!((p.pct(p.vif_read) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn compile_stages_an_architecture_listed_before_its_entity() {
        let c = Compiler::in_memory();
        let r = c
            .compile(
                "architecture a of e is signal s : bit; begin s <= '1'; end a;\n\
                 entity e is end e;\n",
            )
            .expect("parses");
        assert!(r.ok(), "{}", r.msgs());
        let keys: Vec<&str> = r.units.iter().map(|u| u.key.as_str()).collect();
        assert_eq!(keys, ["arch.e.a", "entity.e"], "units stay in file order");
        assert_eq!(c.libs.work().history(), ["entity.e", "arch.e.a"]);
    }

    #[test]
    fn compile_returns_the_front_error() {
        let c = Compiler::in_memory();
        let e = c
            .compile("entity entity entity")
            .expect_err("does not parse");
        assert!(matches!(e, FrontError::Parse { .. }), "{e}");
    }
}
