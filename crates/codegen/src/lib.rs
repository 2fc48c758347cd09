//! Elaboration and code generation.
//!
//! Turns analyzed VIF units into programs for the simulation kernel:
//!
//! - [`elab`] — hierarchy elaboration with the §3.3 binding precedence
//!   (configuration unit → configuration specification → default rules,
//!   including the latest-compiled-architecture history rule);
//! - [`lower`] — typed IR → kernel instructions (static links, waveform
//!   scheduling, wait-until loops, aggregate expansion);
//! - [`c_emit`] — the equivalent C source, as the paper's compiler
//!   emitted (counted by the Figure 2 experiment).

pub mod c_emit;
pub mod elab;
pub mod lower;

pub use c_emit::emit_c;
pub use elab::{elaborate, elaborate_config, library_digest, ElabError};
pub use lower::{CgError, LowerCtx, Storage};
