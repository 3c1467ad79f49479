//! `fbb-db` — the versioned binary design database behind `fbb compile`.
//!
//! A `.fbb` file persists everything the allocation phase of the clustered
//! forward-body-bias flow needs — netlist, placement, characterization
//! inputs, nominal STA results, and pre-processed `(granularity, β)`
//! problem instances — so the expensive generate → place → characterize →
//! STA → path-extraction pipeline runs **once per design** and every later
//! `fbb solve`, `fbb difftest`, or benchmark invocation skips straight to
//! the LP.
//!
//! # Format in one paragraph
//!
//! Little-endian throughout. An 8-byte magic and a `u16` format version
//! open the file; a fixed table of six length-prefixed sections (`META
//! NETL PLAC CHAR TIMG PREP`) follows, each guarded by a CRC-32 and laid
//! out contiguously; sparse integer tables are packed as canonical LEB128
//! varints. The normative byte-level specification lives in
//! `docs/FORMAT.md`, and `tests/format_spec.rs` pins the constants in that
//! document to the ones compiled into this crate.
//!
//! # Design rules
//!
//! * **std-only, derive-free.** Every byte written and read is visible in
//!   `wire.rs`/`codec.rs` — no serialization framework, no derive macro
//!   deciding the layout. The format is specifiable because the code *is*
//!   the specification, and the build stays free of proc-macro
//!   dependencies (the workspace builds offline).
//! * **Canonical encoding.** One value, one byte sequence: fixed section
//!   order, minimal-form varints, sorted PREP entries. Compiling the same
//!   design twice yields identical bytes, so golden fixtures and cache
//!   keys are exact.
//! * **Decoders never panic.** Truncate the file at any byte, flip any
//!   bit, or hand-craft hostile lengths: the result is a [`DbError`], not
//!   a panic or an allocation blow-up. Decoded structures are rebuilt
//!   through the domain crates' validating constructors and cross-checked
//!   against each other.
//! * **Derived data is recomputed, not stored.** The characterization
//!   tables and everything downstream of the LP are deterministic
//!   functions of what is stored; persisting inputs instead of outputs
//!   keeps files small and rules out stale-derived-data bugs.
//!
//! # Example
//!
//! ```
//! use fbb_core::Granularity;
//! use fbb_db::DesignDb;
//! use fbb_device::{BiasLadder, BodyBiasModel, Library};
//! use fbb_netlist::generators;
//! use fbb_placement::{Placer, PlacerOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = generators::ripple_adder("adder:8", 8, false)?;
//! let library = Library::date09_45nm();
//! let placement = Placer::new(PlacerOptions::with_target_rows(4))
//!     .place(&netlist, &library)?;
//! let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
//!
//! // Compile once...
//! let db = DesignDb::build("example", &netlist, &placement, &chara,
//!                          &[0.05], &[Granularity::Row], 3)?;
//! let bytes = db.encode_to_vec();
//!
//! // ...solve many times.
//! let loaded = DesignDb::decode(&bytes)?;
//! let pre = loaded.preprocessed_for(Granularity::Row, 0.05, 3)
//!     .expect("beta 0.05 was compiled in");
//! assert!(pre.dcrit_ps > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod container;
mod crc;
mod design;
mod error;
mod wire;

pub mod codec;

pub use container::{
    read_container, section_name, write_container, FORMAT_VERSION, HEADER_FLAGS, MAGIC,
    SECTION_ORDER, SEC_CHAR, SEC_META, SEC_NETL, SEC_PLAC, SEC_PREP, SEC_TIMG,
};
pub use crc::crc32;
pub use design::{is_design_db, DesignDb, PreparedEntry, TimingTables};
pub use error::DbError;
pub use wire::{Decoder, Encoder};
