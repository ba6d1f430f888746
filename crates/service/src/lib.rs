//! # sqo-service
//!
//! The serving layer of the `sqo` workspace: a concurrent
//! [`QueryService`] that amortizes semantic optimization across the
//! repeated queries real traffic is made of.
//!
//! The ICDE'91 pipeline underneath is a single-shot library — every
//! [`sqo_core::SemanticOptimizer::optimize`] call re-runs the whole
//! transformation fixpoint and re-plans from scratch. This crate turns it
//! into a serveable engine:
//!
//! * **Canonical fingerprints** ([`sqo_query::QueryFingerprint`]) collapse
//!   every spelling of a query — shuffled predicates, reordered class
//!   lists — onto one cache identity.
//! * **Version-validated entries**: every cache entry records the
//!   [`sqo_constraints::StoreVersion`] (store generation + epoch) its
//!   rewrite was derived under, and lookups only hit on an exact match —
//!   raw epochs are ambiguous across copy-on-write store swaps and can
//!   serve plans derived under the wrong constraints.
//! * **Two-level invalidation**: a constraint insert purges only entries
//!   whose class set overlaps the new constraint's (everything else is
//!   revalidated in place); a data write through the
//!   [`sqo_storage::VersionedDatabase`] path leaves plans cached and only
//!   expires each entry's data-epoch-gated result memo.
//! * A **sharded LRU plan cache** ([`ShardedCache`]) keeps lock hold times
//!   tiny: readers of different queries land on different
//!   `parking_lot::RwLock` shards, readers of the same hot query share a
//!   read lock.
//! * **One request pipeline** ([`QueryService::try_run`]): lookup →
//!   result memo → singleflight flight → optimize → execute. Concurrent
//!   cold misses on the same `(fingerprint, store version, data epoch)`
//!   coordinates share one optimization — the first registrant leads
//!   ([`QueryService::complete_miss`]), duplicates follow on a
//!   [`MissWaiter`] (waker-based, no thread parked), and a leader that
//!   dies mid-flight aborts cleanly instead of stranding its followers.
//!   This is the non-blocking seam the `sqo-frontend` reactor drives.
//! * **Entry points over that pipeline, not parallel paths**: the blocking
//!   [`QueryService::run`] is `try_run` + wait (so closed-loop misses are
//!   deduplicated too), the worker-pool [`QueryService::run_batch`] loops
//!   over `run` (E9, and the mixed read/write E11), and the prepared-query
//!   API ([`QueryService::prepare`] → [`QueryService::execute_prepared`])
//!   re-executes one shared [`sqo_exec::PhysicalPlan`] through the same
//!   lookup, build and execute stages.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod cache;
mod persist;
mod service;
mod singleflight;

pub use cache::{CacheEntry, CacheStats, CachedPlan, ShardedCache};
pub use persist::{
    audit_constraints, decode_constraints, decode_plan_seeds, encode_constraints,
    encode_plan_seeds, rebuild_store, ConstraintSeed, PlanSeed,
};
pub use service::{
    PreparedQuery, QueryService, ServiceConfig, ServiceError, ServiceResponse, ServiceStats, TryRun,
};
pub use singleflight::{FlightError, FlightKey, FlightResult, MissGuard, MissWaiter};
