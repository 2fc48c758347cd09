//! `vhdl-conform` — generative differential conformance for the VHDL
//! simulator.
//!
//! The kernel executes designs under four distinct configurations:
//! the interpreter at {1, 4} workers × {uninterrupted,
//! checkpoint-and-restore}. Every one of them promises
//! byte-identical observable behavior. The kernel's own oracle suite
//! checks that promise on random `Insn`-level programs; this crate
//! checks it on an open-ended set by *generating* well-typed
//! VHDL designs that aim at the kernel's hard corners — resolved
//! multi-writer buses, inertial/transport collisions, zero-delay delta
//! storms, cross-process sensitivity webs, runtime faults, recursion —
//! and cross-checking every configuration pair.
//!
//! Three layers:
//!
//! - [`gen`] — a seeded, deterministic design generator over the
//!   ag-harness choice stream, so every design is replayable from a
//!   small `u64` vector and *shrinkable* by stream surgery.
//! - [`oracle`] — elaboration plus the four-cell matrix, run by the
//!   kernel's differential oracle ([`sim_kernel::oracle`]).
//! - [`corpus`] / [`fuzz`](mod@fuzz) — persisted cases with golden digests under
//!   `tests/corpus/`, and the fuzz-shrink-triage loop that files new
//!   minimized reproducers when a divergence appears.
//!
//! The `vhdlconform` binary drives all three (`generate`, `run`,
//! `triage` subcommands).

pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod oracle;

pub use corpus::{load_dir, replay, Case, CaseVerdict};
pub use fuzz::{fuzz, shrink_failure, Failure, Reproducer};
pub use gen::{gen_design, Design, Profile};
pub use oracle::{run_matrix, ConformError};
