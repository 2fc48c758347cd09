//! `ag-harness` — the hermetic in-repo test and measurement harness.
//!
//! The paper's compiler links its generated code against a self-contained
//! virtual machine rather than an external runtime (Farrow & Stanculescu
//! §2); this crate plays the same role for the repository's own
//! infrastructure. It has **zero external dependencies**, so the tier-1
//! verify (`cargo build --release && cargo test -q`) works with no network
//! and no registry:
//!
//! - [`rng`] — a deterministic xorshift64* PRNG and [`fnv1a`], the one
//!   hash every crate uses;
//! - [`prop`] — a minimal property-testing framework (choice-stream
//!   generators, the [`forall!`] runner, input shrinking, file-persisted
//!   failing cases) replacing `proptest`;
//! - [`bench`](mod@bench) — a benchmark runner (warmup, N iterations, min/median/p95,
//!   JSON results) replacing `criterion`;
//! - [`trace`] — a phase-trace observability layer (scoped timers and
//!   monotone counters) instrumenting the Fig. 1 pipeline, surfaced by
//!   `vhdlc --trace-phases`;
//! - [`alloc`] — an optional counting global allocator so traces can
//!   attribute allocation volume per phase;
//! - [`pool`] — the one worker pool (mailbox slots, panics re-raised on
//!   the caller) the batch driver and the simulation kernel both run on.

pub mod alloc;
pub mod bench;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod trace;

pub use prop::{
    forall_impl, parse_stream, render_stream, shrink_stream, Config, Failed, Source, TestResult,
};
pub use rng::{fnv1a, Rng};
