//! The sharded semantic-plan cache.
//!
//! Keyed by the **canonical query fingerprint**; every slot additionally
//! records the [`StoreVersion`] (constraint-store generation + epoch) its
//! rewrite was derived under, and a lookup only hits when the caller's
//! current version matches. Versions — not raw epochs — are the identity:
//! epochs collide across copy-on-write store swaps (see
//! [`sqo_constraints::StoreVersion`]), and an epoch-keyed cache can serve a
//! plan derived under the wrong constraints.
//!
//! Invalidation is two-level:
//!
//! * **Constraint inserts** call [`ShardedCache::invalidate_classes`] with
//!   the inserted constraint's touched class set: entries whose canonical
//!   query overlaps it are removed, all others are *revalidated* — re-stamped
//!   to the successor store's version in place (sound because constraint
//!   relevance requires `classes(c) ⊆ classes(q)`; a disjoint query's
//!   relevant set, and hence its rewrite and plan, is unchanged).
//! * **Statistics changes and store swaps** call
//!   [`ShardedCache::purge_stale`], which drops everything not derived under
//!   the current version — including entries stamped with *future* epochs of
//!   a different store generation, the case the old `epoch >= floor`
//!   retention silently kept alive.
//!
//! Data writes never touch the plan cache at all: plans depend only on
//! constraints and the statistics tier. What a data write invalidates is
//! each entry's **result memo**, which is gated on the data epoch it was
//! computed at ([`CacheEntry::memoized_results`]) and recomputed on the next
//! request after a write.
//!
//! Shards are independent `parking_lot::RwLock`s selected by fingerprint
//! bits, so concurrent readers of *different* queries never contend, and
//! readers of the *same* hot query share a read lock (recency is tracked
//! with a relaxed atomic, not a write lock). Each shard evicts
//! least-recently-used entries past its capacity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sqo_catalog::{AttrRef, ClassId};
use sqo_constraints::StoreVersion;
use sqo_exec::{PhysicalPlan, ResultSet};
use sqo_query::{Query, QueryFingerprint};

use crate::singleflight::FlightTable;

/// How a cached optimization answers: with a physical plan, or — when the
/// optimizer proved the predicate set unsatisfiable — with no plan at all.
#[derive(Debug)]
pub enum CachedPlan {
    /// The answer is empty in every database state satisfying the
    /// constraints; `columns` shapes the empty result set.
    Empty {
        /// Result columns, in the optimized query's projection order.
        columns: Vec<AttrRef>,
    },
    /// The physical plan, shareable across executing threads.
    Planned(Arc<PhysicalPlan>),
}

/// One cached optimization: everything needed to answer the query again
/// without re-running the transformation fixpoint or the planner.
#[derive(Debug)]
pub struct CacheEntry {
    /// The canonical query — kept to disarm 64-bit fingerprint collisions.
    pub canonical: Query,
    /// The semantically optimized query.
    pub optimized: Query,
    /// The plan the entry executes, or the proof that none is needed.
    pub plan: CachedPlan,
    /// Result memo, gated on the **data epoch** it was computed at: a plan
    /// survives data writes, its materialized answer does not. Readers at
    /// the memo's epoch share the `Arc`; the first reader after a write
    /// re-executes and republishes (monotone: a racing older execution
    /// never overwrites a newer one).
    results: RwLock<Option<(u64, Arc<ResultSet>)>>,
}

impl CacheEntry {
    pub fn new(canonical: Query, optimized: Query, plan: CachedPlan) -> Self {
        Self { canonical, optimized, plan, results: RwLock::new(None) }
    }

    /// The memoized result set, iff it was computed at `data_epoch`.
    pub fn memoized_results(&self, data_epoch: u64) -> Option<Arc<ResultSet>> {
        match &*self.results.read() {
            Some((epoch, results)) if *epoch == data_epoch => Some(Arc::clone(results)),
            _ => None,
        }
    }

    /// Publishes results computed at `data_epoch`. Keeps whichever memo is
    /// newer, so a slow executor racing a write can never clobber the
    /// post-write recomputation.
    pub fn publish_results(&self, data_epoch: u64, results: &Arc<ResultSet>) {
        let mut slot = self.results.write();
        match &*slot {
            Some((epoch, _)) if *epoch > data_epoch => {}
            _ => *slot = Some((data_epoch, Arc::clone(results))),
        }
    }
}

#[derive(Debug)]
struct Slot {
    entry: Arc<CacheEntry>,
    /// The store version the entry's rewrite is valid under. Re-stamped in
    /// place (under the shard write lock) when a constraint insert proves
    /// the entry untouched.
    version: StoreVersion,
    /// Global LRU clock value at last touch (relaxed: approximate recency
    /// is all LRU needs).
    last_used: AtomicU64,
}

type Shard = HashMap<QueryFingerprint, Slot>;

/// Point-in-time cache counters (monotone except `entries`/`shard_sizes`).
///
/// Snapshots are **self-consistent**: `hits + misses == lookups` holds in
/// every snapshot, even one taken mid-flight while other threads are
/// looking up. The cache maintains only two atomics (`lookups`, bumped
/// *before* the outcome is decided, and `hits`, bumped after) and derives
/// `misses = lookups - hits`; [`ShardedCache::stats`] reads `hits` before
/// `lookups`, so the read pair can never observe `hits > lookups`. With
/// three independent counters a snapshot could tear — a hit bumped but not
/// yet its lookup — and `hits + misses` would disagree with `lookups`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Completed lookups (`hits + misses`, exactly, in every snapshot).
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    /// Capacity (LRU) and staleness (purge) removals.
    pub evictions: u64,
    /// Entries removed because a constraint insert touched their classes.
    pub invalidations: u64,
    /// Entries kept across a constraint insert (class sets disjoint) and
    /// re-stamped to the successor store's version.
    pub revalidations: u64,
    pub entries: usize,
    pub shard_sizes: Vec<usize>,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; `0` before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

/// N-way sharded LRU cache of [`CacheEntry`]s.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<RwLock<Shard>>,
    /// In-flight misses (singleflight): registered when a lookup misses,
    /// retired when the leader publishes the entry it derived. Behind an
    /// `Arc` so leader guards and follower waiters can outlive the borrow.
    flights: Arc<FlightTable>,
    per_shard_capacity: usize,
    clock: AtomicU64,
    /// Completed lookups. Incremented *before* `hits` on the hit path so
    /// `hits <= lookups` at every instant (see [`CacheStats`]).
    lookups: AtomicU64,
    hits: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    revalidations: AtomicU64,
}

impl ShardedCache {
    /// A cache with `shards` shards (rounded up to a power of two, min 1)
    /// and `capacity` total entries split evenly across them.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            flights: Arc::new(FlightTable::default()),
            per_shard_capacity,
            clock: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The singleflight in-flight miss registry attached to this cache.
    pub(crate) fn flights(&self) -> &Arc<FlightTable> {
        &self.flights
    }

    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard_of(&self, fingerprint: QueryFingerprint) -> &RwLock<Shard> {
        // Fibonacci hashing over the fingerprint bits.
        let h = fingerprint.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Looks up `fingerprint`, verifying both the stored canonical query (to
    /// rule out 64-bit fingerprint collisions) and that the entry is valid
    /// under `version`. Counts a hit or a miss.
    pub fn get(
        &self,
        fingerprint: QueryFingerprint,
        canonical: &Query,
        version: StoreVersion,
    ) -> Option<Arc<CacheEntry>> {
        // `lookups` first: `hits <= lookups` must hold in every stats()
        // snapshot. Program order alone does not give a concurrent reader
        // that guarantee — the Release on `hits` below and the Acquire load
        // in stats() do.
        // ordering: counter visible via the Release fence on `hits`; no
        // reader orders on `lookups` alone.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(fingerprint).read();
        match shard.get(&fingerprint) {
            Some(slot) if slot.version == version && slot.entry.canonical == *canonical => {
                // ordering: LRU timestamp; approximate recency is fine.
                slot.last_used.store(self.tick(), Ordering::Relaxed);
                // ordering: Release pairs with the Acquire load in stats().
                // A reader that observes this increment also observes the
                // `lookups` increment above (release sequence over the RMW
                // chain), so `hits <= lookups` holds on weak memory too —
                // Relaxed here only held on x86's TSO by accident.
                self.hits.fetch_add(1, Ordering::Release);
                Some(Arc::clone(&slot.entry))
            }
            _ => None,
        }
    }

    /// Inserts (or replaces) an entry derived under `version`, evicting the
    /// least-recently-used entry of the target shard if it is full.
    pub fn insert(
        &self,
        fingerprint: QueryFingerprint,
        version: StoreVersion,
        entry: Arc<CacheEntry>,
    ) {
        let mut shard = self.shard_of(fingerprint).write();
        if !shard.contains_key(&fingerprint) && shard.len() >= self.per_shard_capacity {
            if let Some(victim) = shard
                .iter()
                // ordering: LRU timestamps are heuristic; the shard write
                // lock already serializes this scan against get()'s bumps
                // up to a benign race on in-flight Relaxed stores.
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                shard.remove(&victim);
                // ordering: monotone display counter; no reader derives
                // cross-counter invariants from it.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = Slot { entry, version, last_used: AtomicU64::new(self.tick()) };
        // ordering: monotone display counter.
        self.insertions.fetch_add(1, Ordering::Relaxed);
        shard.insert(fingerprint, slot);
    }

    /// Class-overlap invalidation for a constraint insert that moved the
    /// store from `prev` to `next`: entries valid at `prev` whose canonical
    /// query mentions any of `touched` are removed; entries valid at `prev`
    /// with a disjoint class set are revalidated (re-stamped to `next`);
    /// entries already at `next` are kept untouched (a reader that raced
    /// the store swap cached them under the successor — they are valid);
    /// entries at any *other* version are stale strays and are removed.
    pub fn invalidate_classes(&self, prev: StoreVersion, next: StoreVersion, touched: &[ClassId]) {
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|_, slot| {
                if slot.version == next {
                    return true;
                }
                if slot.version != prev {
                    // ordering: monotone display counter.
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                let overlaps = slot.entry.canonical.classes.iter().any(|c| touched.contains(c));
                if overlaps {
                    // ordering: monotone display counter.
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    slot.version = next;
                    // ordering: monotone display counter.
                    self.revalidations.fetch_add(1, Ordering::Relaxed);
                    true
                }
            });
        }
    }

    /// Drops every entry not derived under `current` — both entries from
    /// older epochs of the same store and entries from *any* epoch of a
    /// different (e.g. swapped-out) store generation, which a bare
    /// epoch-floor retention would wrongly keep.
    pub fn purge_stale(&self, current: StoreVersion) {
        for shard in &self.shards {
            let mut shard = shard.write();
            let before = shard.len();
            shard.retain(|_, slot| slot.version == current);
            let dropped = before - shard.len();
            // ordering: monotone display counter.
            self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        }
    }

    /// A point-in-time dump of every live entry with the version it is
    /// valid under, ordered by fingerprint for determinism — the snapshot
    /// save path (plan-cache seeds).
    pub fn entries(&self) -> Vec<(QueryFingerprint, StoreVersion, Arc<CacheEntry>)> {
        let mut out: Vec<(QueryFingerprint, StoreVersion, Arc<CacheEntry>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(shard.iter().map(|(fp, slot)| (*fp, slot.version, Arc::clone(&slot.entry))));
        }
        out.sort_by_key(|(fp, _, _)| fp.0);
        out
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        // One read-lock pass: `entries` is derived from the same snapshot
        // as `shard_sizes`, so the two never disagree.
        let shard_sizes: Vec<usize> = self.shards.iter().map(|s| s.read().len()).collect();
        // Read `hits` strictly before `lookups`, and with Acquire:
        // observing a hit increment (Release in get()) then also observes
        // its preceding lookup increment, so `hits <= lookups` in this
        // snapshot and the derived `misses` can never underflow (see
        // [`CacheStats`] and tests::stats_hits_never_exceed_lookups).
        // ordering: Acquire pairs with the Release fetch_add in get().
        let hits = self.hits.load(Ordering::Acquire);
        // ordering: bounded below by `hits` via the Acquire above.
        let lookups = self.lookups.load(Ordering::Relaxed);
        CacheStats {
            lookups,
            hits,
            misses: lookups - hits,
            // ordering: monotone display counter, no cross-counter invariant.
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed), // ordering: display counter
            invalidations: self.invalidations.load(Ordering::Relaxed), // ordering: display counter
            revalidations: self.revalidations.load(Ordering::Relaxed), // ordering: display counter
            entries: shard_sizes.iter().sum(),
            shard_sizes,
        }
    }

    fn tick(&self) -> u64 {
        // ordering: LRU clock only needs per-RMW atomicity (uniqueness),
        // not cross-thread ordering — ties merely approximate recency.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(q: &Query) -> Arc<CacheEntry> {
        Arc::new(CacheEntry::new(q.clone(), q.clone(), CachedPlan::Empty { columns: vec![] }))
    }

    fn fp(v: u64) -> QueryFingerprint {
        QueryFingerprint(v)
    }

    fn v(generation: u64, epoch: u64) -> StoreVersion {
        StoreVersion { generation, epoch }
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedCache::new(4, 64);
        let q = Query::new();
        cache.insert(fp(1), v(0, 0), entry(&q));
        assert!(cache.get(fp(1), &q, v(0, 0)).is_some());
        assert!(cache.get(fp(2), &q, v(0, 0)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn version_mismatch_misses() {
        let cache = ShardedCache::new(2, 8);
        let q = Query::new();
        cache.insert(fp(1), v(0, 0), entry(&q));
        assert!(cache.get(fp(1), &q, v(0, 1)).is_none(), "new epoch must miss");
        assert!(cache.get(fp(1), &q, v(1, 0)).is_none(), "other generation must miss");
        cache.insert(fp(1), v(0, 1), entry(&q));
        assert_eq!(cache.len(), 1, "one slot per fingerprint");
        cache.purge_stale(v(0, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(fp(1), &q, v(0, 1)).is_some());
    }

    #[test]
    fn purge_drops_future_epochs_of_other_generations() {
        // The old `epoch >= floor` retention kept these: an entry stamped by
        // a swapped-out store whose epoch ran ahead of the current store's.
        let cache = ShardedCache::new(1, 8);
        let q = Query::new();
        cache.insert(fp(1), v(7, 40), entry(&q));
        cache.purge_stale(v(8, 3));
        assert_eq!(cache.len(), 0, "a stray from another store must not survive the swap");
    }

    #[test]
    fn fingerprint_collision_is_detected() {
        let cache = ShardedCache::new(1, 8);
        let q = Query::new();
        let mut other = Query::new();
        other.classes.push(ClassId(0));
        cache.insert(fp(7), v(0, 0), entry(&q));
        // Same fingerprint, different canonical query: must miss.
        assert!(cache.get(fp(7), &other, v(0, 0)).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ShardedCache::new(1, 2); // single shard, two slots
        let q = Query::new();
        cache.insert(fp(1), v(0, 0), entry(&q));
        cache.insert(fp(2), v(0, 0), entry(&q));
        let _ = cache.get(fp(1), &q, v(0, 0)); // touch 1 → 2 is now coldest
        cache.insert(fp(3), v(0, 0), entry(&q));
        assert!(cache.get(fp(1), &q, v(0, 0)).is_some(), "recently used survives");
        assert!(cache.get(fp(2), &q, v(0, 0)).is_none(), "coldest was evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn class_overlap_invalidation_revalidates_disjoint_entries() {
        let cache = ShardedCache::new(2, 16);
        let mut on_c0 = Query::new();
        on_c0.classes.push(ClassId(0));
        let mut on_c1 = Query::new();
        on_c1.classes.push(ClassId(1));
        let prev = v(3, 5);
        let next = v(4, 6);
        cache.insert(fp(1), prev, entry(&on_c0));
        cache.insert(fp(2), prev, entry(&on_c1));
        cache.insert(fp(3), v(9, 9), entry(&on_c1)); // stray from another store
                                                     // A reader racing the swap already cached an entry under `next`
                                                     // (even one overlapping the touched classes — it was derived under
                                                     // the successor store, so it is valid as-is).
        cache.insert(fp(4), next, entry(&on_c0));
        cache.invalidate_classes(prev, next, &[ClassId(0)]);
        assert!(cache.get(fp(1), &on_c0, next).is_none(), "overlapping entry removed");
        assert!(cache.get(fp(2), &on_c1, next).is_some(), "disjoint entry revalidated");
        assert!(cache.get(fp(3), &on_c1, next).is_none(), "stray removed");
        assert!(cache.get(fp(4), &on_c0, next).is_some(), "next-version entry kept");
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.revalidations, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn result_memo_is_gated_on_the_data_epoch() {
        let q = Query::new();
        let e = entry(&q);
        assert!(e.memoized_results(0).is_none());
        let r0 = Arc::new(ResultSet::new(vec![]));
        e.publish_results(0, &r0);
        assert!(Arc::ptr_eq(&e.memoized_results(0).unwrap(), &r0));
        assert!(e.memoized_results(1).is_none(), "a data write must force recomputation");
        // Newer publications win; older racers never clobber them.
        let r2 = Arc::new(ResultSet::new(vec![]));
        e.publish_results(2, &r2);
        e.publish_results(1, &r0);
        assert!(e.memoized_results(2).is_some());
        assert!(e.memoized_results(1).is_none());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCache::new(3, 16).shard_count(), 4);
        assert_eq!(ShardedCache::new(0, 16).shard_count(), 1);
        assert!(ShardedCache::new(8, 1).capacity() >= 8);
    }

    /// Regression test for the `hits <= lookups` snapshot invariant: the
    /// Release on `hits` in get() and the Acquire (read-first) in stats()
    /// are what guarantee it — the sites used to be Relaxed, which held
    /// only on x86's strong memory model. Mid-flight snapshots must never
    /// tear (`hits > lookups` would underflow `misses`).
    #[test]
    fn stats_hits_never_exceed_lookups() {
        let cache = Arc::new(ShardedCache::new(4, 64));
        let q = Query::new();
        cache.insert(fp(7), v(0, 0), entry(&q));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let lookers: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let q = q.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = cache.get(fp(7), &q, v(0, 0));
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let s = cache.stats();
            assert!(s.hits <= s.lookups, "torn snapshot: {} > {}", s.hits, s.lookups);
            assert_eq!(s.hits + s.misses, s.lookups);
        }
        stop.store(true, Ordering::Relaxed);
        for t in lookers {
            t.join().expect("looker thread never panics");
        }
    }
}
