//! orion-core: the object-oriented database system the paper specifies,
//! assembled from the substrate crates.
//!
//! The facade follows the paper's two-part definition (§3.1): a core
//! object-oriented data model (identity, encapsulated state + behavior,
//! classes, arbitrary domains, a dynamically extensible class hierarchy
//! with inheritance, late-bound messages) **plus** every conventional
//! database facility with object-extended semantics — declarative
//! queries with automatic optimization, transactions with granular
//! locking, WAL recovery, authorization, schema evolution — **plus**
//! the "extended characterization" of §3.3: memory-resident object
//! management with pointer swizzling, versions, composite objects,
//! change notification, views, deductive rules, and a multidatabase
//! gateway.
//!
//! Entry point: [`Database`].

pub mod authz;
pub mod cache;
pub(crate) mod catalog_lock;
pub mod composite;
pub mod database;
pub mod ddl;
pub mod derived;
pub mod methods;
pub mod multidb;
pub(crate) mod mvcc;
pub mod notify;
pub mod persist;
pub mod query_api;
pub mod rules;
pub(crate) mod runtime;
pub mod source;
pub mod stats;
pub mod sysattr;
pub mod versions;

pub use authz::{AuthAction, AuthTarget};
pub use cache::{CacheStats, ObjectCache};
pub use database::{Database, DbConfig, DbConfigBuilder, LockingStrategy, StorageSpec, Tx};
pub use stats::{DbStats, DirectoryStats, GateStats, NetMetrics, NetStats, RestartStats, TwoPcStats};
pub use ddl::Migration;
pub use methods::MethodBody;
pub use multidb::{ForeignAdapter, ForeignClass, ForeignObject};
pub use notify::{Notification, NotificationKind};
pub use rules::{var, InferResult, Rule, RuleAtom, Term};
pub use source::SourceView;
pub use versions::VersionStatus;

// Re-exports so downstream users need only one crate.
pub use orion_index::{IndexDef, IndexKind};
pub use orion_query::{AccessPath, ExecSnapshot, ExplainReport, QueryResult, RunStats};
pub use orion_schema::{AttrSpec, SchemaChange};
pub use orion_storage::{
    DiskStats, FaultKind, FaultPlan, FaultSite, FaultStats, PageDevice, PoolStats, RecoveryStats,
    Trigger, WalStats,
};
pub use orion_tx::{LockStats, MvccStats};
pub use orion_types::{ClassId, DbError, DbResult, Domain, Oid, PrimitiveType, Value};
