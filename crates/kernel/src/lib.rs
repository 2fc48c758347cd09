//! The simulation virtual machine of the reproduced VHDL compiler.
//!
//! §2.1: "The virtual machine consists of four modules: (1) Simulation
//! Kernel, (2) Runtime Support, (3) VHDL I/O, (4) Name Server."
//!
//! - [`sim`] — the Simulation Kernel: signals, drivers with projected
//!   output waveforms, delta cycles, process scheduling, and the
//!   instruction executor (with static links for up-level references,
//!   the nested-subprogram problem the paper's C back end had to solve);
//! - [`rts`] — Runtime Support: every predefined operation;
//! - [`io`] — VHDL I/O: assertion reports and VCD waveform dumps;
//! - [`names`] — the Name Server: hierarchical path names
//!   (`:tb:dut:sum`), case-insensitive per VHDL rules, with glob
//!   resolution for probe selection and inspection;
//! - [`isa`] / [`value`] — the instruction set and runtime values the
//!   code generator targets;
//! - [`snapshot`] — versioned binary checkpoints of live simulation
//!   state, so a session can suspend mid-run and resume byte-identically
//!   elsewhere;
//! - [`oracle`] — the differential oracle: every execution configuration
//!   (scan stepper, interpreter; worker counts; checkpoint and
//!   restore) run and compared observable by observable.

pub mod io;
pub mod isa;
pub mod names;
pub mod oracle;
pub mod rts;
pub mod sched;
pub mod sim;
pub mod snapshot;
pub mod value;

pub use isa::{ArrAttrKind, FnDecl, FnId, Insn, Program, SigAttr, SigId, VarAddr};
pub use names::{NameError, NameServer, NsEntry, NsObject};
pub use rts::{Op, RtError};
pub use sim::{Backend, ReportEvent, RunOutcome, SimError, SimStats, Simulator, TestFault};
pub use snapshot::{Dec, Enc, SnapshotError};
pub use value::{ArrVal, Time, VDir, Val};
