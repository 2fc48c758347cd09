//! One design through the compiler's public pipeline — parse, analyze
//! each unit, store its VIF, elaborate, emit C — with a span around each
//! call, so the trace splits compile time by layer.

use std::rc::Rc;

use sim_kernel::Program;
use vhdl_sem::analyze::{Analyzer, UnitLoader};
use vhdl_vif::{Library, LibrarySet, VifNode, VifTraffic};

use crate::trace::span;

/// What to elaborate once the units are analyzed.
#[derive(Clone, Debug)]
pub enum Top {
    Entity(String),
    Config(String),
}

/// A compiled and elaborated design.
pub struct Built {
    pub program: Program,
    /// Bytes of emitted C.
    pub c_bytes: usize,
    pub units: usize,
    pub expr_evals: u64,
    pub traffic: VifTraffic,
}

/// Times every foreign-unit load the analyzer makes (span `vif.load`).
struct SpanLoader(Rc<LibrarySet>);

impl UnitLoader for SpanLoader {
    fn load_unit(&self, lib: &str, key: &str) -> Option<Rc<VifNode>> {
        let _s = span("vif.load");
        self.0.load_unit(lib, key)
    }

    fn latest_architecture(&self, entity: &str) -> Option<String> {
        self.0.latest_architecture(entity)
    }

    fn unit_keys(&self, lib: &str) -> Vec<String> {
        self.0.unit_keys(lib)
    }
}

/// Compiles `src` into a fresh in-memory work library and elaborates
/// `top`. Any front-end, semantic or elaboration error is an `Err`.
pub fn build(analyzer: &Analyzer, src: &str, top: &Top) -> Result<Built, String> {
    let libs = Rc::new(LibrarySet::new(Rc::new(Library::in_memory("work")), vec![]));
    let loader: Rc<dyn UnitLoader> = Rc::new(SpanLoader(Rc::clone(&libs)));
    let units = {
        let _s = span("syntax.parse");
        analyzer.parse_units(src)
    }
    .map_err(|e| format!("parse: {e}"))?;
    let mut expr_evals = 0;
    for u in &units {
        let au = {
            let _s = span("sem.analyze");
            analyzer.analyze_unit_with_loader(u, Rc::clone(&loader))
        };
        if au.msgs.has_errors() {
            return Err(format!("analyze {}: {}", au.key, au.msgs));
        }
        expr_evals += au.expr_evals;
        let _s = span("vif.put");
        libs.work()
            .put(&au.key, &au.node)
            .map_err(|e| format!("store {}: {e}", au.key))?;
    }
    let (name, program) = {
        let _s = span("codegen.elaborate");
        match top {
            Top::Entity(e) => (e, vhdl_codegen::elaborate(&libs, e, None)),
            Top::Config(c) => (c, vhdl_codegen::elaborate_config(&libs, c)),
        }
    };
    let program = program.map_err(|e| format!("elaborate {name}: {e}"))?;
    let c = {
        let _s = span("codegen.emit_c");
        vhdl_codegen::emit_c(name, &program)
    };
    Ok(Built {
        program,
        c_bytes: c.len(),
        units: units.len(),
        expr_evals,
        traffic: libs.traffic(),
    })
}

/// Instructions in a program's processes and subprograms.
pub fn insns(p: &Program) -> usize {
    p.processes.iter().map(|x| x.code.len()).sum::<usize>()
        + p.functions.iter().map(|f| f.code.len()).sum::<usize>()
}
