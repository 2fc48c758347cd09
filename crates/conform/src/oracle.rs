//! The configuration matrix for generated designs.
//!
//! One generated design is compiled once, then run through the kernel's
//! differential oracle ([`sim_kernel::oracle`]) under four cells — the
//! interpreter at {1 worker, 4 workers} × {uninterrupted,
//! checkpoint-at-midpoint-then-restore} — and every observable must be
//! byte-identical across them. The digest of the agreed observables pins
//! each corpus case, so checked-in seeds also detect *semantic drift*: a
//! kernel change that alters observable behavior fails the corpus replay
//! even if all configurations still agree with each other.

use sim_kernel::oracle::{self, Cell, Engine, MatrixOutcome};
use sim_kernel::{Program, TestFault, Time};
use vhdl_driver::Compiler;

use crate::gen::Design;

/// The four cells; the first is the reference.
pub const CELLS: [Cell; 4] = [
    Cell::solid(Engine::Interp, 1),
    Cell::resume(Engine::Interp, 1, 1),
    Cell::solid(Engine::Interp, 4),
    Cell::resume(Engine::Interp, 4, 4),
];

/// Why a conformance run could not even produce a matrix.
#[derive(Clone, Debug)]
pub enum ConformError {
    /// Front-end or semantic rejection: the generator emitted an
    /// ill-typed design (a generator bug, always a failure).
    Compile(String),
    /// Elaboration failed.
    Elab(String),
    /// A checkpoint/restore step failed structurally.
    Snapshot(String),
}

impl std::fmt::Display for ConformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformError::Compile(m) => write!(f, "generated design rejected: {m}"),
            ConformError::Elab(m) => write!(f, "elaboration failed: {m}"),
            ConformError::Snapshot(m) => write!(f, "checkpoint/restore failed: {m}"),
        }
    }
}

/// Compiles and elaborates a generated design into a kernel [`Program`].
///
/// # Errors
///
/// [`ConformError::Compile`]/[`ConformError::Elab`] — both mean the
/// generator produced something the pipeline rejects, which is always a
/// conformance failure.
pub fn elaborate(design: &Design) -> Result<Program, ConformError> {
    let c = Compiler::in_memory();
    let r = c
        .compile(&design.source)
        .map_err(|e| ConformError::Compile(e.to_string()))?;
    if !r.ok() {
        return Err(ConformError::Compile(r.msgs().to_string()));
    }
    vhdl_codegen::elaborate(&c.libs, &design.top, None)
        .map_err(|e| ConformError::Elab(e.to_string()))
}

/// Runs a design through the four cells. Cycle budgets bound the run
/// (delta storms never advance time), so the deadline is unreachable;
/// the budget is split at its midpoint, where resume cells checkpoint.
/// `fault`, when set, arms on the multi-worker cells only.
///
/// # Errors
///
/// Any [`ConformError`] — matrix-level failures distinct from (and just
/// as fatal as) divergences.
pub fn run_matrix(
    design: &Design,
    fault: Option<TestFault>,
) -> Result<MatrixOutcome, ConformError> {
    let program = elaborate(design)?;
    let mid = (design.cycles / 2).max(1);
    let slices = [mid, design.cycles.saturating_sub(mid)];
    oracle::run_matrix(&program, Time::fs(u64::MAX / 4), &slices, &CELLS, fault)
        .map_err(|e| ConformError::Snapshot(e.to_string()))
}
