//! VHDL Intermediate Format (VIF).
//!
//! The machine-readable intermediate language of the paper's compiler
//! (§2.2, §4.3): an *applicative* node graph that serves simultaneously as
//! the separate-compilation interchange format and as the symbol table.
//! This crate provides:
//!
//! - [`schema`] — the one table of node kinds, their fields and value
//!   shapes, with typed constructors and the load-time check;
//! - [`node`] — immutable, shareable nodes built through a builder;
//! - [`text`] — serialization that preserves graph sharing, and reading
//!   with nested foreign-reference resolution ("fix-up");
//! - [`library`] — work/reference design libraries with the usage history
//!   that drives the latest-compiled-architecture default-binding rule,
//!   and the per-unit record that memoizes each loaded unit;
//! - [`dump`](mod@dump) — the human-readable form used for debugging.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use vhdl_vif::{Library, LibrarySet, VifNode};
//!
//! let work = Rc::new(Library::in_memory("work"));
//! let unit = VifNode::build("entity").name("counter").int_field("ports", 3).done();
//! work.put("entity.counter", &unit)?;
//! let set = LibrarySet::new(work, vec![]);
//! let back = set.load("work.entity.counter")?;
//! assert_eq!(back.int_field("ports"), Some(3));
//! # Ok::<(), vhdl_vif::VifError>(())
//! ```

pub mod dump;
pub mod kinds;
pub mod library;
pub mod node;
pub mod schema;
pub mod text;

pub use ag_intern::{Symbol, ToSym};
pub use dump::dump;
pub use library::{
    clear_node_cache, vifb_stats, write_atomic, Library, LibrarySet, LibrarySnapshot, UnitKey,
    VifTraffic, VifbStats,
};
pub use node::{VifBuilder, VifNode, VifValue};
pub use schema::{mk, Field, Kind};
pub use text::{read_vif, write_vif, VifError};
