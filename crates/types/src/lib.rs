//! Foundational types for the orion object-oriented database system.
//!
//! This crate defines the vocabulary shared by every other subsystem:
//!
//! * [`Oid`] — class-tagged logical object identifiers (the paper's
//!   "unique identifier" associated with every object, §3.1 concept 1),
//! * [`Value`] — the universe of attribute values, including references,
//!   sets, lists, and long unstructured blobs (§2.2's "images, audio, and
//!   textual documents"),
//! * [`Domain`] — attribute domains, which may be primitive classes or
//!   arbitrary user classes (§3.1 concept 4),
//! * [`DbError`] / [`DbResult`] — the error type used across the system,
//! * [`codec`] — the binary on-page encoding of values and objects,
//! * [`wire`] — the bounds-checked read primitives every decoder in the
//!   system uses (prefixed strings and bytes, integers, element counts),
//!   and the lossless [`DbError`] encoding the network layer
//!   (`orion-net`) ships between client and server.
//!
//! Nothing in this crate depends on storage, schema, or query processing;
//! it is the bottom of the dependency stack.

pub mod codec;
pub mod domain;
pub mod error;
pub mod oid;
pub mod value;
pub mod wire;

pub use domain::{Domain, PrimitiveType};
pub use error::{DbError, DbResult};
pub use oid::{ClassId, Oid, OidAllocator};
pub use value::Value;
