//! # sqo-storage
//!
//! In-memory object store for the `sqo` workspace — the storage substrate the
//! paper's prototype ran on (their OODB plus the relational DBMS used for
//! cost measurements; see DESIGN.md S5 for the substitution argument).
//!
//! * class **extents** of typed tuples;
//! * **hash and B-tree indexes** built from catalog declarations;
//! * bidirectional **relationship links** (the pointer attributes of the
//!   paper's schema);
//! * load-time **integrity enforcement**: total participation and to-one
//!   multiplicity — the declarations that make class elimination sound;
//! * **cost accounting**: raw operation counters, a page-I/O model and
//!   scalar work units, so "execution cost" is deterministic and
//!   machine-independent;
//! * an **incremental write path** ([`VersionedDatabase`]): copy-on-write
//!   snapshot mutation behind a versioned handle with a monotone **data
//!   epoch**, distinct from the constraint epoch, so serving layers can
//!   keep plans across data writes while re-gating memoized results.
//!   Snapshot state is `Arc`-sharded per class and per relationship; a
//!   write batch clones and patches only the shards it touches (extents,
//!   index banks, link tables) and refolds only the touched classes'
//!   statistics, one sort pass per attribute, into the previous snapshot.
//!   A batch therefore costs clones of the touched shards plus that sort,
//!   O(touched rows) up to the sort's log factor, instead of O(database).
//!   [`Database::with_writes_full`]
//!   keeps the rebuild-everything algorithm as the equivalence oracle, and
//!   [`DataWrite::Update`] mutates attributes in place without paying
//!   delete + re-insert renumbering. Every batch returns a
//!   [`WriteReceipt`] naming inserted ids and swap-remove renumberings.
//!   See `db.rs`'s module docs for the sharing/patching model and its
//!   aliasing guarantees;
//! * **semantic-constraint checking** against the data, used by generators
//!   and property tests to certify that instances satisfy the constraint set
//!   the optimizer will trust.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod cost;
mod db;
mod error;
mod index;
mod links;
mod object;
mod persist;
mod versioned;

pub use cost::{CostCounters, CostWeights, PageModel};
pub use db::{DataWrite, Database, DatabaseBuilder, IntegrityOptions, Violation, WriteReceipt};
pub use error::StorageError;
pub use index::{AttrIndex, IndexScanResult, OrdValue};
pub use links::{RelLinks, Side, Traversal};
pub use object::ObjectId;
pub use persist::{
    database_sections, decode_database, decode_database_from, encode_database, load_database,
    save_database,
};
pub use versioned::{VersionedDatabase, WriteOutcome};
