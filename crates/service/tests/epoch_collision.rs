//! Regression tests for the epoch-collision family of cache bugs.
//!
//! Under the pre-fix scheme, cache identity was the bare constraint-store
//! **epoch**: `with_constraint` stamped a copy-on-write successor with
//! `source.epoch() + 1`, a value the source store could independently reach
//! through `note_statistics_change` / `insert_constraint`. Two stores with
//! different constraint sets then shared an epoch, and the service's
//! `(fingerprint, epoch)` cache could serve a plan derived under the wrong
//! constraints after a store swap. Likewise, `purge_stale` retained every
//! entry with `epoch >= floor`, keeping *future*-epoch strays stamped by a
//! swapped-out store.
//!
//! The fix keys cache validity on the full [`StoreVersion`] (a
//! process-globally unique store generation + the epoch). These tests
//! reproduce the collision interleaving and fail under the old scheme.

use std::sync::Arc;

use sqo_constraints::{ConstraintId, ConstraintStore, StoreOptions, StoreVersion};
use sqo_service::{CacheEntry, CachedPlan, QueryService, ServiceConfig, ShardedCache};
use sqo_workload::{paper_scenario, DbSize};

fn store_pair() -> (Arc<ConstraintStore>, ConstraintStore) {
    let s = paper_scenario(DbSize::Db1, 42);
    let catalog = Arc::clone(&s.catalog);
    let a = Arc::new(
        ConstraintStore::build(
            catalog,
            s.store.constraints().map(|(_, c)| c.clone()).collect(),
            StoreOptions { materialize_closure: false, ..StoreOptions::paper_defaults() },
        )
        .unwrap(),
    );
    // The interleaving QueryService::add_constraint admits: the successor B
    // is built from A, and a statistics change lands on A before (or while)
    // the swap completes.
    let extra = a.constraint(ConstraintId(0)).clone();
    let b = a.with_constraint(extra);
    a.note_statistics_change();
    (a, b)
}

#[test]
fn cow_swap_with_racing_stats_change_cannot_serve_a_stale_plan() {
    let s = paper_scenario(DbSize::Db1, 42);
    let (a, b) = store_pair();
    // The collision is real: both stores sit at the same epoch with
    // different constraint sets…
    assert_eq!(a.epoch(), b.epoch(), "the ambiguity the old scheme keyed on");
    assert_ne!(a.len(), b.len(), "…despite different constraint populations");
    // …but their versions are distinct.
    assert_ne!(a.version(), b.version());

    // Replay what the service's cache does across the swap. A reader still
    // on store A misses and files an entry derived under A's constraints:
    let cache = ShardedCache::new(4, 64);
    let canonical = s.queries[0].canonical();
    let fingerprint = canonical.fingerprint_canonical();
    let entry = Arc::new(CacheEntry::new(
        canonical.clone(),
        canonical.clone(),
        CachedPlan::Empty { columns: vec![] },
    ));
    cache.insert(fingerprint, a.version(), Arc::clone(&entry));

    // The swap to B completes and purges under B's identity. Under the old
    // `epoch >= floor` retention the A-derived entry (same epoch!) survived
    // and the next lookup — now under B — served it: a plan derived under
    // the wrong constraint set.
    cache.purge_stale(b.version());
    assert!(
        cache.get(fingerprint, &canonical, b.version()).is_none(),
        "an entry derived under store A must never hit under store B"
    );
    assert!(cache.is_empty(), "the A-derived entry is unreachable and purged");
}

#[test]
fn future_epoch_strays_do_not_survive_a_store_swap() {
    // `purge_stale` satellite: a swapped-out store's epoch may run *ahead*
    // of the swapped-in store's. Entries it stamped must not be retained.
    let (a, b) = store_pair();
    for _ in 0..5 {
        a.note_statistics_change(); // A races far past B
    }
    assert!(a.epoch() > b.epoch());
    let cache = ShardedCache::new(1, 16);
    let q = sqo_query::Query::new();
    let entry =
        Arc::new(CacheEntry::new(q.clone(), q.clone(), CachedPlan::Empty { columns: vec![] }));
    cache.insert(q.fingerprint(), a.version(), entry);
    cache.purge_stale(b.version());
    assert!(cache.is_empty(), "future-epoch entries from another store are stale, not fresh");
}

#[test]
fn replace_store_purges_everything_and_keeps_epochs_monotone() {
    // The service-level store-swap path: an externally rebuilt store (fresh
    // generation, arbitrary epoch) replaces the current one.
    let s = paper_scenario(DbSize::Db1, 42);
    let constraints: Vec<_> = s.store.constraints().map(|(_, c)| c.clone()).collect();
    let catalog = Arc::clone(&s.catalog);
    let service =
        QueryService::with_config(Arc::new(s.store), Arc::new(s.db), ServiceConfig::default());
    let cached = service.run(&s.queries[0]).unwrap();
    assert!(service.stats().cache.entries > 0);
    let old_epoch = service.epoch();

    let rebuilt = Arc::new(
        ConstraintStore::build(catalog, constraints, StoreOptions::paper_defaults()).unwrap(),
    );
    let new_epoch = service.replace_store(Arc::clone(&rebuilt));
    assert!(new_epoch > old_epoch, "epoch sequences stay monotone across swaps");
    assert_eq!(service.stats().cache.entries, 0, "no old-generation entry survives");
    let fresh = service.run(&s.queries[0]).unwrap();
    assert!(!fresh.cache_hit, "the swapped-in store re-derives rewrites");
    assert!(
        fresh.results.same_multiset(&cached.results),
        "the rebuilt store is semantically equal"
    );
}

#[test]
fn store_version_is_the_public_cache_identity() {
    // StoreVersion is plain data; two observations of one store state agree.
    let (a, _) = store_pair();
    let v1: StoreVersion = a.version();
    let v2 = a.version();
    assert_eq!(v1, v2);
    a.note_statistics_change();
    assert_ne!(a.version(), v1, "every semantic change moves the version");
}
