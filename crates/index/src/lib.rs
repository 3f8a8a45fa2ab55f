//! Indexing for orion: an ordered map and the three index species the
//! paper's §3.2 derives from the object-oriented data model.
//!
//! "The aggregation and generalization relationships captured in an
//! object-oriented data model require changes to the semantics of
//! indexes ... these relationships suggest different types of indexing:
//! class-hierarchy indexing along a class hierarchy, and nested indexing
//! along an aggregation hierarchy."
//!
//! * [`BTree`] — the ordered map underneath: std's `BTreeMap`, whose
//!   `range` yields nothing for an empty or inverted bound pair,
//! * [`SingleClassIndex`] — the relational-style per-class baseline,
//! * [`ClassHierarchyIndex`] — one map per attribute per hierarchy,
//!   with per-key class directories (\[KIM89b\]; experiment E1),
//! * [`IndexKind::Nested`] — nested-attribute indexes (\[BERT89\];
//!   experiment E2), physically a [`ClassHierarchyIndex`] whose postings
//!   are root objects and whose keys come from the end of an
//!   aggregation path (path evaluation and maintenance live in
//!   `orion-core`, which owns reverse references).

pub mod btree;
pub mod ch_index;
pub mod def;
pub mod key;
pub mod sc_index;

pub use btree::BTree;
pub use ch_index::{ClassDirectory, ClassHierarchyIndex};
pub use def::{IndexDef, IndexImpl, IndexInstance, IndexKind};
pub use key::KeyVal;
pub use sc_index::SingleClassIndex;
