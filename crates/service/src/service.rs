//! The concurrent query service: shared state, the one request pipeline
//! behind [`QueryService::try_run`], and the entry points built on it.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sqo_constraints::{ConstraintStore, HornConstraint, StoreVersion};
use sqo_core::{OptimizerConfig, OptimizerScratch, SemanticOptimizer};
use sqo_exec::{
    execute_with, plan_query_shared, CostBasedOracle, CostModel, ExecError, ExecScratch,
    PhysicalPlan, ResultSet,
};
use sqo_query::{Query, QueryError, QueryFingerprint};
use sqo_snapshot::{
    LoadError, SnapshotBuilder, SnapshotFile, ValidationLevel, SEC_CONSTRAINTS, SEC_PLANSEEDS,
};
use sqo_storage::{DataWrite, Database, StorageError, VersionedDatabase, WriteOutcome};

use crate::cache::{CacheEntry, CacheStats, CachedPlan, ShardedCache};
use crate::persist;
use crate::singleflight::{FlightError, FlightKey, MissGuard, MissWaiter, Registered};

thread_local! {
    /// Per-worker reusable optimizer + executor buffers: the cold path of
    /// every service thread runs allocation-free once warmed up, without
    /// any cross-thread coordination.
    static WORKER_SCRATCH: RefCell<(OptimizerScratch, ExecScratch)> =
        RefCell::new((OptimizerScratch::new(), ExecScratch::new()));
}

/// Anything that can go wrong answering a query or applying a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The query failed validation or semantic optimization.
    Query(QueryError),
    /// Planning or execution failed.
    Exec(ExecError),
    /// A write batch failed validation or integrity enforcement.
    Storage(StorageError),
    /// A [`QueryService::run_batch`] worker panicked before answering this
    /// request. The batch still completes: every request the poisoned
    /// worker had claimed surfaces as this error instead of aborting the
    /// caller.
    WorkerPanicked,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Query(e) => write!(f, "query error: {e}"),
            ServiceError::Exec(e) => write!(f, "execution error: {e}"),
            ServiceError::Storage(e) => write!(f, "write error: {e}"),
            ServiceError::WorkerPanicked => write!(f, "batch worker panicked mid-request"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Query(e) => Some(e),
            ServiceError::Exec(e) => Some(e),
            ServiceError::Storage(e) => Some(e),
            ServiceError::WorkerPanicked => None,
        }
    }
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Query(e)
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Storage(e)
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Cache shard count (rounded up to a power of two).
    pub shards: usize,
    /// Total cached entries across all shards.
    pub cache_capacity: usize,
    /// Skip the cache entirely — every request re-optimizes, re-plans and
    /// re-executes, with no result memo and no singleflight. The cold path
    /// of the E9 benchmark and the uncached reference the oracles compare
    /// against. Otherwise plans **and** result sets are memoized; the
    /// result memo is gated on the data epoch it was computed at, so plans
    /// survive data writes and results are recomputed on the first request
    /// after one.
    pub bypass_cache: bool,
    /// Semantic-optimizer configuration used for every miss.
    pub optimizer: OptimizerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            cache_capacity: 1024,
            bypass_cache: false,
            optimizer: OptimizerConfig::paper(),
        }
    }
}

/// A query prepared for (repeated) execution: the cached optimization
/// artifacts pinned at one constraint-store epoch.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    entry: Arc<CacheEntry>,
    /// Constraint-store epoch the rewrite was derived under.
    pub epoch: u64,
    /// Whether preparation was answered from the cache.
    pub cache_hit: bool,
}

impl PreparedQuery {
    /// The canonical form of the prepared query (the cache identity).
    pub fn canonical(&self) -> &Query {
        &self.entry.canonical
    }

    /// The semantically optimized query.
    pub fn optimized(&self) -> &Query {
        &self.entry.optimized
    }

    /// The shared physical plan; `None` iff the answer is provably empty.
    pub fn plan(&self) -> Option<&Arc<PhysicalPlan>> {
        match &self.entry.plan {
            CachedPlan::Planned(plan) => Some(plan),
            CachedPlan::Empty { .. } => None,
        }
    }

    /// The optimizer proved the answer empty without touching the database.
    pub fn provably_empty(&self) -> bool {
        matches!(self.entry.plan, CachedPlan::Empty { .. })
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The rows, in the canonical query's column order.
    pub results: Arc<ResultSet>,
    /// Whether the optimization/plan came from the cache.
    pub cache_hit: bool,
    /// Constraint-store epoch the rewrite was derived under.
    pub epoch: u64,
    /// Data epoch of the snapshot the results were computed against — every
    /// answer is internally consistent with exactly one linearized epoch.
    pub data_epoch: u64,
}

/// Where a request's pass through the pipeline stopped — what
/// [`QueryService::try_run`] returns. [`QueryService::run`] and the
/// frontend both drive it to a [`ServiceResponse`] the same way: `Done`
/// is the answer, a `Leader` owes [`QueryService::complete_miss`], a
/// `Follower` waits, and an aborted flight retries `try_run`.
#[derive(Debug)]
pub enum TryRun {
    /// Answered synchronously: a cache hit, the bypass path, or a
    /// fingerprint-collision fallback.
    Done(ServiceResponse),
    /// First miss on these coordinates: the caller must run
    /// [`QueryService::complete_miss`] with the guard (dropping it instead
    /// aborts the flight and hands leadership to a retrying follower).
    Leader(MissGuard),
    /// Duplicate of an in-flight miss: poll or wait on the waiter for the
    /// leader's published answer.
    Follower(MissWaiter),
}

/// A request after the lookup stage: the canonical query and the
/// coordinates its entry is cached under.
#[derive(Debug)]
struct Probe {
    canonical: Query,
    store: Arc<ConstraintStore>,
    version: StoreVersion,
    fingerprint: QueryFingerprint,
}

/// Point-in-time service counters for the bench harness.
///
/// Snapshots taken mid-flight are **self-consistent**: `accepted ==
/// cache.hits + cache.misses` holds in every snapshot (the cache derives
/// both sides from one pair of ordered atomics, see
/// [`CacheStats`](crate::CacheStats)), and every counter is monotone
/// across successive snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Passes through [`QueryService::try_run`] — one per request from
    /// `run`, `run_batch`, `try_run` and the frontend, plus one per retry
    /// after an aborted flight.
    pub requests: u64,
    /// Requests that completed a plan-cache lookup. Exactly
    /// `cache.hits + cache.misses` in every snapshot; trails `requests`
    /// only by the requests currently between admission and their lookup
    /// (and by bypass-cache requests, which never look up).
    pub accepted: u64,
    /// Full semantic-optimization passes actually executed (cache misses).
    pub optimizations: u64,
    /// Physical plan executions (not answered from a memoized result).
    pub executions: u64,
    /// Write batches committed through [`QueryService::write`].
    pub writes: u64,
    /// Misses that registered as singleflight leaders (each ran one
    /// optimization on behalf of every concurrent duplicate).
    pub singleflight_leaders: u64,
    /// Misses that joined an already-in-flight optimization instead of
    /// running their own.
    pub singleflight_followers: u64,
    /// Current constraint-store epoch.
    pub epoch: u64,
    /// Current data epoch of the backing database.
    pub data_epoch: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

/// A long-lived, thread-shared query-answering engine.
///
/// Owns the database (behind a [`VersionedDatabase`] write path) and the
/// constraint store behind `Arc`s, so any number of client threads can call
/// [`QueryService::run`] concurrently (`&self` throughout). Repeated
/// queries — under *any* spelling that canonicalizes identically — are
/// answered from an N-way sharded LRU cache keyed by the canonical
/// fingerprint and validated against the store's
/// [`StoreVersion`](sqo_constraints::StoreVersion).
///
/// Invalidation is two-level:
///
/// * **Constraint inserts** purge only cache entries whose class set
///   overlaps the inserted constraint's; disjoint entries are revalidated
///   in place. Statistics changes purge everything (every cost-based
///   decision may shift).
/// * **Data writes** ([`QueryService::write`]) never touch the plan cache —
///   plans depend only on constraints and statistics — but gate each
///   entry's memoized result set on the data epoch it was computed at, so
///   the first request after a write re-executes the (still cached) plan.
///
/// Answers are always produced in the **canonical** query's column order
/// (projections sorted), so every spelling of a query receives an
/// identically-shaped result.
///
/// ```
/// use std::sync::Arc;
/// use sqo_service::QueryService;
/// use sqo_workload::{paper_scenario, DbSize};
///
/// let s = paper_scenario(DbSize::Db1, 42);
/// let service = QueryService::new(Arc::new(s.store), Arc::new(s.db));
/// let cold = service.run(&s.queries[0]).unwrap();
/// let warm = service.run(&s.queries[0]).unwrap();
/// assert!(!cold.cache_hit && warm.cache_hit);
/// assert_eq!(cold.results, warm.results);
/// ```
#[derive(Debug)]
pub struct QueryService {
    db: Arc<VersionedDatabase>,
    /// Swapped wholesale on constraint changes (copy-on-write): in-flight
    /// queries drain against the store they started with.
    store: RwLock<Arc<ConstraintStore>>,
    /// Serializes store writers so successor stores are built *outside*
    /// `store`'s write lock — readers only ever wait for the brief swap.
    writer: parking_lot::Mutex<()>,
    cache: ShardedCache,
    model: CostModel,
    config: ServiceConfig,
    requests: AtomicU64,
    optimizations: AtomicU64,
    executions: AtomicU64,
    writes: AtomicU64,
    sf_leaders: AtomicU64,
    sf_followers: AtomicU64,
}

impl QueryService {
    pub fn new(store: Arc<ConstraintStore>, db: Arc<Database>) -> Self {
        Self::with_config(store, db, ServiceConfig::default())
    }

    pub fn with_config(
        store: Arc<ConstraintStore>,
        db: Arc<Database>,
        config: ServiceConfig,
    ) -> Self {
        Self::with_versioned_db(store, Arc::new(VersionedDatabase::new(db)), config)
    }

    /// A service over an externally owned write path — used when writers or
    /// a second service (e.g. an uncached cross-checking reference) must
    /// share the same evolving database.
    pub fn with_versioned_db(
        store: Arc<ConstraintStore>,
        db: Arc<VersionedDatabase>,
        config: ServiceConfig,
    ) -> Self {
        Self {
            db,
            store: RwLock::new(store),
            writer: parking_lot::Mutex::new(()),
            cache: ShardedCache::new(config.shards, config.cache_capacity),
            model: CostModel::default(),
            config,
            requests: AtomicU64::new(0),
            optimizations: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            sf_leaders: AtomicU64::new(0),
            sf_followers: AtomicU64::new(0),
        }
    }

    /// The current database snapshot (immutable; answers computed from it
    /// are consistent with its [`Database::data_version`]).
    pub fn db(&self) -> Arc<Database> {
        self.db.snapshot()
    }

    /// The versioned write path shared by every reader and writer.
    pub fn versioned_db(&self) -> &Arc<VersionedDatabase> {
        &self.db
    }

    /// The current data epoch (see [`VersionedDatabase::data_epoch`]).
    pub fn data_epoch(&self) -> u64 {
        self.db.data_epoch()
    }

    /// A snapshot handle to the current constraint store.
    pub fn store(&self) -> Arc<ConstraintStore> {
        Arc::clone(&self.store.read())
    }

    /// The current semantic epoch (see [`ConstraintStore::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.store.read().epoch()
    }

    /// The current unambiguous store identity.
    pub fn store_version(&self) -> StoreVersion {
        self.store.read().version()
    }

    /// Applies one atomic batch of data writes, advancing the data epoch;
    /// returns the batch's [`WriteOutcome`]. Plans stay cached (they depend
    /// only on constraints + statistics tier); memoized result sets are
    /// recomputed lazily because their data-epoch gate no longer matches.
    pub fn write(&self, writes: &[DataWrite]) -> Result<WriteOutcome, ServiceError> {
        let outcome = self.db.write(writes)?;
        // ordering: monotone display counter.
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Adds a constraint by building a successor store (copy-on-write) and
    /// swapping it in; returns the new epoch. Invalidation is
    /// **class-overlap precise**: only cache entries whose canonical query
    /// mentions one of the constraint's classes (reported by the store's
    /// by-class index postings) are purged; every other entry is revalidated
    /// under the new store version and keeps serving.
    ///
    /// The O(#constraints) rebuild happens outside the store lock (writers
    /// are serialized by a dedicated mutex), so concurrent readers keep
    /// serving off the old store and only ever block on the pointer swap.
    pub fn add_constraint(&self, constraint: HornConstraint) -> u64 {
        let _writing = self.writer.lock();
        let base = self.store();
        let prev = base.version();
        let (next, id) = base.with_constraint_tracked(constraint);
        let touched = next.touched_classes(id);
        let next = Arc::new(next);
        let version = next.version();
        *self.store.write() = next;
        self.cache.invalidate_classes(prev, version, &touched);
        version.epoch
    }

    /// Records an external statistics change (bumping the epoch so cached
    /// cost-based rewrites are re-derived); returns the new epoch. Every
    /// entry is purged — any cost-based decision may shift under new
    /// statistics, so there is no sound subset to keep.
    pub fn note_statistics_change(&self) -> u64 {
        let _writing = self.writer.lock();
        let store = self.store();
        let epoch = store.note_statistics_change();
        self.cache.purge_stale(store.version());
        epoch
    }

    /// Swaps in an externally rebuilt constraint store (e.g. after a full
    /// closure rematerialization), raising its epoch past the old store's so
    /// epoch sequences stay monotone across the swap, and purges every cache
    /// entry — the new generation can never hit the old one's entries.
    /// Returns the store's post-swap epoch.
    pub fn replace_store(&self, next: Arc<ConstraintStore>) -> u64 {
        let _writing = self.writer.lock();
        let old = self.store();
        next.raise_epoch_above(&old);
        let version = next.version();
        *self.store.write() = next;
        self.cache.purge_stale(version);
        version.epoch
    }

    /// Canonicalizes, fingerprints and resolves `query` to its optimization
    /// artifacts — from the cache when possible, by running the full
    /// semantic-optimization + planning pipeline on a miss (without
    /// singleflight: the caller gets the entry, not an answer to share).
    pub fn prepare(&self, query: &Query) -> Result<PreparedQuery, ServiceError> {
        let (probe, hit) = self.lookup(query);
        let epoch = probe.version.epoch;
        let (entry, cache_hit) = match hit {
            Some(entry) => (entry, true),
            None => (self.build(probe)?, false),
        };
        Ok(PreparedQuery { entry, epoch, cache_hit })
    }

    /// Executes a prepared query, sharing memoized results when they were
    /// computed at the current data epoch.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<Arc<ResultSet>, ServiceError> {
        Ok(self.execute(&prepared.entry, prepared.cache_hit, prepared.epoch)?.results)
    }

    /// Answers one query, blocking until it is answered: the synchronous
    /// loop over [`QueryService::try_run`]. A hit answers inline, the
    /// first miss on its coordinates leads the optimization
    /// ([`QueryService::complete_miss`]), a concurrent duplicate waits for
    /// that leader's answer, and a flight whose leader died is retried.
    ///
    /// A thread must not call `run` for a query whose [`MissGuard`] it
    /// holds itself: it would wait on its own flight.
    pub fn run(&self, query: &Query) -> Result<ServiceResponse, ServiceError> {
        loop {
            match self.try_run(query)? {
                TryRun::Done(response) => return Ok(response),
                TryRun::Leader(guard) => return self.complete_miss(guard),
                TryRun::Follower(waiter) => match waiter.wait() {
                    Ok(response) => return Ok(response),
                    Err(FlightError::Failed(e)) => return Err(e),
                    Err(FlightError::Aborted) => continue,
                },
            }
        }
    }

    /// The request pipeline, run as far as it can go without waiting:
    /// lookup → result memo → flight → optimize → execute. Every entry
    /// point that answers a query goes through here;
    /// [`QueryService::run`] drives it to completion by blocking, the
    /// `sqo-frontend` reactor by polling.
    ///
    /// * A plan-cache hit is executed (or served from the entry's result
    ///   memo) and answered synchronously as [`TryRun::Done`].
    /// * The **first** miss on a `(fingerprint, store version, data
    ///   epoch)` coordinate becomes [`TryRun::Leader`]: the caller owes
    ///   the service one [`QueryService::complete_miss`] call, which runs
    ///   the full optimize+plan+execute pipeline and publishes the answer
    ///   to every concurrent duplicate.
    /// * Every further miss on the same coordinates becomes
    ///   [`TryRun::Follower`] with a [`MissWaiter`]: poll it with a waker
    ///   (no thread parked) or [`MissWaiter::wait`] for it. An
    ///   [`FlightError::Aborted`](crate::FlightError::Aborted) outcome
    ///   means the leader dropped its guard without completing — call
    ///   `try_run` again; the retry re-checks the cache and may lead.
    /// * With `bypass_cache`, or on a fingerprint collision with the
    ///   in-flight query, the miss runs solo and answers as `Done`.
    pub fn try_run(&self, query: &Query) -> Result<TryRun, ServiceError> {
        // ordering: monotone display counter; `accepted` consistency is
        // carried by the cache's lookups/hits pair, not this one.
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (probe, hit) = self.lookup(query);
        let epoch = probe.version.epoch;
        if let Some(entry) = hit {
            return self.execute(&entry, true, epoch).map(TryRun::Done);
        }
        if !self.config.bypass_cache {
            let key = FlightKey {
                fingerprint: probe.fingerprint,
                version: probe.version,
                data_epoch: self.db.data_epoch(),
            };
            match self.cache.flights().register(key, &probe.canonical) {
                Registered::Leader(flight) => {
                    // ordering: monotone display counter.
                    self.sf_leaders.fetch_add(1, Ordering::Relaxed);
                    let table = Arc::clone(self.cache.flights());
                    let guard = MissGuard::new(key, probe.canonical, probe.store, table, flight);
                    return Ok(TryRun::Leader(guard));
                }
                Registered::Follower(flight) => {
                    // ordering: monotone display counter.
                    self.sf_followers.fetch_add(1, Ordering::Relaxed);
                    return Ok(TryRun::Follower(MissWaiter::new(flight)));
                }
                // A 64-bit fingerprint collision with the in-flight query:
                // sharing would serve the wrong answer, so this request
                // runs the undeduplicated miss below on its own.
                Registered::Collision => {}
            }
        }
        let entry = self.build(probe)?;
        self.execute(&entry, false, epoch).map(TryRun::Done)
    }

    /// Runs the miss pipeline a [`TryRun::Leader`] owes: semantic
    /// optimization and planning against the store version captured at
    /// registration, cache publication **stamped with that same version**
    /// (a store swapped mid-flight can never receive an entry derived
    /// under its predecessor — lookups at the successor version miss and
    /// re-derive), then execution. The response resolves the flight, so
    /// every follower receives the identical `Arc`-shared answer.
    ///
    /// On failure the error is shared with the followers too (re-running
    /// the same pipeline would fail the same way).
    pub fn complete_miss(&self, mut guard: MissGuard) -> Result<ServiceResponse, ServiceError> {
        let key = guard.key();
        let probe = Probe {
            canonical: guard.take_canonical(),
            store: Arc::clone(guard.store()),
            version: key.version,
            fingerprint: key.fingerprint,
        };
        let outcome =
            self.build(probe).and_then(|entry| self.execute(&entry, false, key.version.epoch));
        match outcome {
            Ok(response) => {
                guard.finish(Ok(response.clone()));
                Ok(response)
            }
            Err(e) => {
                guard.finish(Err(FlightError::Failed(e.clone())));
                Err(e)
            }
        }
    }

    /// Answers `queries` on a fixed pool of `workers` threads, each looping
    /// over [`QueryService::run`] (closed-loop: a worker pulls the next
    /// request as soon as it finishes one). Responses come back in request
    /// order.
    ///
    /// A worker panic poisons only the requests that worker had claimed:
    /// each surfaces as [`ServiceError::WorkerPanicked`], every other
    /// request completes normally, and the caller is never aborted.
    pub fn run_batch(
        &self,
        queries: &[Query],
        workers: usize,
    ) -> Vec<Result<ServiceResponse, ServiceError>> {
        self.run_batch_with(queries, workers, |q| self.run(q))
    }

    /// [`QueryService::run_batch`] generic over the per-query closure, so
    /// tests can inject a panicking request deterministically.
    fn run_batch_with(
        &self,
        queries: &[Query],
        workers: usize,
        run: impl Fn(&Query) -> Result<ServiceResponse, ServiceError> + Sync,
    ) -> Vec<Result<ServiceResponse, ServiceError>> {
        let workers = workers.clamp(1, queries.len().max(1));
        let next = AtomicUsize::new(0);
        let mut out: Vec<Result<ServiceResponse, ServiceError>> =
            (0..queries.len()).map(|_| Err(ServiceError::WorkerPanicked)).collect();
        // Workers stream answers over a channel instead of returning them
        // from the thread closure: answers a worker produced before
        // panicking survive, and join() errors are tolerated — requests
        // the poisoned worker claimed but never answered keep their
        // `WorkerPanicked` placeholder.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let run = &run;
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        // ordering: work-index claim; RMW atomicity alone makes indexes
                        // unique, and scope join orders results after all claims.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(query) = queries.get(i) else { break };
                        let _ = tx.send((i, run(query)));
                    })
                })
                .collect();
            drop(tx);
            for (i, response) in rx {
                out[i] = response;
            }
            for handle in handles {
                let _ = handle.join();
            }
        });
        out
    }

    /// Stage one of every request: canonicalize, fingerprint, and probe
    /// the plan cache at the current store version (no probe under
    /// `bypass_cache`).
    fn lookup(&self, query: &Query) -> (Probe, Option<Arc<CacheEntry>>) {
        let canonical = query.canonical();
        let store = self.store();
        let version = store.version();
        let fingerprint = canonical.fingerprint_canonical();
        let hit = if self.config.bypass_cache {
            None
        } else {
            self.cache.get(fingerprint, &canonical, version)
        };
        (Probe { canonical, store, version, fingerprint }, hit)
    }

    /// Builds the entry for a missed probe and publishes it to the cache
    /// at the probe's store version (unless the cache is bypassed).
    fn build(&self, probe: Probe) -> Result<Arc<CacheEntry>, ServiceError> {
        let entry = Arc::new(self.build_entry(probe.canonical, &probe.store)?);
        if !self.config.bypass_cache {
            self.cache.insert(probe.fingerprint, probe.version, Arc::clone(&entry));
        }
        Ok(entry)
    }

    /// The miss path: semantic optimization, then planning (skipped when
    /// the optimizer proves the answer empty). Both run against one
    /// database snapshot, so cost estimates are internally consistent.
    fn build_entry(
        &self,
        canonical: Query,
        store: &Arc<ConstraintStore>,
    ) -> Result<CacheEntry, ServiceError> {
        let db = self.db.snapshot();
        let optimizer =
            SemanticOptimizer::shared_with_config(Arc::clone(store), self.config.optimizer);
        let oracle = CostBasedOracle::with_model(&db, self.model);
        let out = WORKER_SCRATCH
            .with(|s| optimizer.optimize_with(&canonical, &oracle, &mut s.borrow_mut().0))?;
        // ordering: monotone display counter.
        self.optimizations.fetch_add(1, Ordering::Relaxed);
        let plan = if out.report.provably_empty {
            CachedPlan::Empty { columns: out.query.projections.iter().map(|p| p.attr).collect() }
        } else {
            CachedPlan::Planned(plan_query_shared(&db, &out.query, &self.model)?)
        };
        Ok(CacheEntry::new(canonical, out.query, plan))
    }

    /// The last stage of every request: serve the entry's result memo
    /// when it was computed at the current data epoch, execute otherwise,
    /// and answer — the one place a [`ServiceResponse`] is built.
    fn execute(
        &self,
        entry: &CacheEntry,
        cache_hit: bool,
        epoch: u64,
    ) -> Result<ServiceResponse, ServiceError> {
        let db = self.db.snapshot();
        let data_epoch = db.data_version();
        let memoize = !self.config.bypass_cache;
        let memo = if memoize { entry.memoized_results(data_epoch) } else { None };
        let results = match memo {
            Some(cached) => cached,
            None => {
                let results = match &entry.plan {
                    CachedPlan::Empty { columns } => Arc::new(ResultSet::new(columns.clone())),
                    CachedPlan::Planned(plan) => {
                        let (res, _counters) = WORKER_SCRATCH
                            .with(|s| execute_with(&db, plan, &mut s.borrow_mut().1))?;
                        // ordering: monotone display counter.
                        self.executions.fetch_add(1, Ordering::Relaxed);
                        Arc::new(res)
                    }
                };
                if memoize {
                    entry.publish_results(data_epoch, &results);
                }
                results
            }
        };
        Ok(ServiceResponse { results, cache_hit, epoch, data_epoch })
    }

    /// Serializes the full service state into a `.sqos` snapshot: the
    /// current database image (catalog, extents, links, indexes,
    /// statistics), the compiled constraint store, and every live
    /// plan-cache entry as a warm seed. The byte layout is specified in
    /// `docs/FORMAT.md`.
    ///
    /// The snapshot is a point-in-time cut: the database image and the
    /// constraint store are each internally consistent snapshots, and only
    /// cache entries valid at the captured store version are persisted.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let db = self.db.snapshot();
        let store = self.store();
        let mut builder = SnapshotBuilder::new();
        for (id, payload) in sqo_storage::database_sections(&db) {
            builder.section(id, payload);
        }
        builder.section(SEC_CONSTRAINTS, persist::encode_constraints(&store));
        builder.section(
            SEC_PLANSEEDS,
            persist::encode_plan_seeds(&self.cache.entries(), store.version()),
        );
        builder.finish()
    }

    /// Writes [`QueryService::snapshot_bytes`] to `path`.
    ///
    /// # Errors
    /// [`LoadError::Io`] if the file cannot be written.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), LoadError> {
        std::fs::write(path, self.snapshot_bytes()).map_err(LoadError::from)
    }

    /// Reconstructs a service from snapshot bytes, validating at `level`
    /// (see `docs/VALIDATION.md` for what each level buys and costs).
    ///
    /// The rebuilt constraint store keeps the saved semantic epoch (raised
    /// monotonically) but gets a **fresh generation** — generations are
    /// process-local, so persisted cache seeds are re-stamped to the new
    /// store's version as they are inserted. Plan seeds are skipped
    /// entirely when `config.bypass_cache` is set.
    ///
    /// # Errors
    /// Any [`LoadError`]: container damage at Standard, id-space or
    /// ordering violations at Strict, re-derivation mismatches at Audit.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        level: ValidationLevel,
        config: ServiceConfig,
    ) -> Result<Self, LoadError> {
        let file = SnapshotFile::parse(bytes)?;
        let db = sqo_storage::decode_database_from(&file, level)?;
        let catalog = Arc::clone(db.catalog());
        let constraints =
            file.section(SEC_CONSTRAINTS).ok_or(LoadError::MissingSection("CONSTRAINTS"))?;
        let seed = persist::decode_constraints(constraints, &catalog, level)?;
        if level.is_audit() {
            persist::audit_constraints(&seed, &catalog)?;
        }
        let plan_seeds = match file.section(SEC_PLANSEEDS) {
            Some(payload) => persist::decode_plan_seeds(payload, &catalog, level)?,
            None => Vec::new(),
        };
        let store = persist::rebuild_store(Arc::clone(&catalog), seed)?;
        let service = Self::with_config(Arc::new(store), Arc::new(db), config);
        if !service.config.bypass_cache {
            let version = service.store_version();
            for s in plan_seeds {
                service.cache.insert(s.fingerprint, version, Arc::new(s.entry));
            }
        }
        Ok(service)
    }

    /// Boots a service from a `.sqos` file written by
    /// [`QueryService::save_snapshot`] — the warm-start path: no closure
    /// fixpoint, no index builds, no statistics folding, and the plan cache
    /// starts hot.
    ///
    /// # Errors
    /// [`LoadError::Io`] if the file cannot be read, otherwise as
    /// [`QueryService::from_snapshot_bytes`].
    pub fn warm_start(
        path: impl AsRef<std::path::Path>,
        level: ValidationLevel,
        config: ServiceConfig,
    ) -> Result<Self, LoadError> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes, level, config)
    }

    /// Counter snapshot for monitoring and the bench harness. Safe to call
    /// mid-flight: see [`ServiceStats`] for the consistency guarantees.
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        ServiceStats {
            // ordering: monotone display counter; the `accepted ==
            // hits + misses` snapshot invariant rides on the cache's
            // Release/Acquire lookups-hits pair, read in `cache` above.
            requests: self.requests.load(Ordering::Relaxed),
            accepted: cache.lookups,
            optimizations: self.optimizations.load(Ordering::Relaxed), // ordering: display counter
            executions: self.executions.load(Ordering::Relaxed),       // ordering: display counter
            writes: self.writes.load(Ordering::Relaxed),               // ordering: display counter
            singleflight_leaders: self.sf_leaders.load(Ordering::Relaxed), // ordering: display counter
            singleflight_followers: self.sf_followers.load(Ordering::Relaxed), // ordering: display counter
            epoch: self.epoch(),
            data_epoch: self.data_epoch(),
            cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_workload::{paper_scenario, DbSize};

    fn service() -> (QueryService, Vec<Query>) {
        let s = paper_scenario(DbSize::Db1, 42);
        (QueryService::new(Arc::new(s.store), Arc::new(s.db)), s.queries)
    }

    #[test]
    fn service_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<QueryService>();
        check::<PreparedQuery>();
        check::<ServiceResponse>();
    }

    #[test]
    fn repeated_query_hits_the_cache_and_matches() {
        let (service, queries) = service();
        let cold = service.run(&queries[0]).unwrap();
        let warm = service.run(&queries[0]).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(cold.results.same_multiset(&warm.results));
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.optimizations, 1);
        assert_eq!(stats.executions, 1, "second request must reuse the memoized results");
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn spelling_variants_share_one_entry() {
        let (service, queries) = service();
        let mut shuffled = queries[0].clone();
        shuffled.selective_predicates.reverse();
        shuffled.projections.reverse();
        shuffled.classes.reverse();
        let a = service.run(&queries[0]).unwrap();
        let b = service.run(&shuffled).unwrap();
        assert!(b.cache_hit, "a reordered spelling must hit the same entry");
        assert!(a.results.same_multiset(&b.results));
    }

    #[test]
    fn prepared_queries_reuse_one_plan() {
        let (service, queries) = service();
        let prepared = service.prepare(&queries[1]).unwrap();
        let again = service.prepare(&queries[1]).unwrap();
        if let (Some(p), Some(q)) = (prepared.plan(), again.plan()) {
            assert!(Arc::ptr_eq(p, q), "both handles must share the physical plan");
        }
        let r1 = service.execute_prepared(&prepared).unwrap();
        let r2 = service.execute_prepared(&again).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2), "memoized results are shared");
    }

    /// Some constraint of `service`'s store whose class set overlaps
    /// `query`'s (duplicating it is semantics-preserving, so answers must
    /// not move while the rewrite is re-derived).
    fn overlapping_dup(service: &QueryService, query: &Query) -> sqo_constraints::HornConstraint {
        let store = service.store();
        let found = store
            .constraints()
            .find(|(_, c)| c.classes.iter().any(|cl| query.classes.contains(cl)))
            .map(|(_, c)| c.clone());
        found.expect("some constraint touches the query's classes")
    }

    #[test]
    fn epoch_bump_invalidates_but_answers_stay_equal() {
        let (service, queries) = service();
        let before = service.run(&queries[2]).unwrap();
        let e0 = service.epoch();
        let dup = overlapping_dup(&service, &queries[2]);
        let e1 = service.add_constraint(dup);
        assert!(e1 > e0);
        assert_eq!(service.epoch(), e1);
        let after = service.run(&queries[2]).unwrap();
        assert!(!after.cache_hit, "an overlapping constraint must invalidate the cached rewrite");
        assert_eq!(after.epoch, e1);
        assert!(before.results.same_multiset(&after.results));
        assert!(service.stats().cache.invalidations >= 1);
    }

    #[test]
    fn non_overlapping_constraint_insert_preserves_entries() {
        let (service, queries) = service();
        let cached = service.run(&queries[0]).unwrap();
        // A constraint scoped on a class the query never mentions: build it
        // on any class outside the query's class set.
        let catalog = Arc::clone(service.store().catalog());
        let outside = catalog
            .classes()
            .map(|(cid, _)| cid)
            .find(|cid| !queries[0].canonical().classes.contains(cid))
            .expect("five classes, queries span fewer");
        let name = catalog.class_name(outside).to_string();
        let constraint = sqo_constraints::ConstraintBuilder::new(&catalog, "outside")
            .when(&format!("{name}.a2"), sqo_query::CompOp::Eq, -1_000_000i64)
            .then(&format!("{name}.b2"), sqo_query::CompOp::Eq, 0i64)
            .build()
            .unwrap();
        let e1 = service.add_constraint(constraint);
        let again = service.run(&queries[0]).unwrap();
        assert!(
            again.cache_hit,
            "a disjoint constraint must not orphan the entry: {:?}",
            service.stats()
        );
        assert_eq!(again.epoch, e1, "revalidated entries serve under the new epoch");
        assert!(again.results.same_multiset(&cached.results));
        let stats = service.stats();
        assert!(stats.cache.revalidations >= 1, "{stats:?}");
        assert_eq!(stats.cache.invalidations, 0, "{stats:?}");
        assert_eq!(stats.optimizations, 1, "no re-optimization happened");
    }

    #[test]
    fn data_writes_keep_plans_but_expire_result_memos() {
        let (service, queries) = service();
        let before = service.run(&queries[0]).unwrap();
        assert_eq!(before.data_epoch, 0);
        let stats0 = service.stats();
        assert_eq!((stats0.executions, stats0.writes), (1, 0));

        // Duplicate a cargo instance with its links (constraint- and
        // integrity-preserving); the recomputed answer is cross-checked
        // against a fresh uncached reference below.
        let db = service.db();
        let catalog = db.catalog();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        let src = sqo_storage::ObjectId(0);
        let outcome = service
            .write(&[DataWrite::Insert {
                class: cargo,
                tuple: db.tuple(cargo, src).unwrap().to_vec(),
                links: vec![
                    (supplies, db.traverse(supplies, cargo, src).unwrap()[0]),
                    (collects, db.traverse(collects, cargo, src).unwrap()[0]),
                ],
            }])
            .unwrap();
        assert_eq!(outcome.epoch, 1);

        let after = service.run(&queries[0]).unwrap();
        assert!(after.cache_hit, "plans survive pure data writes");
        assert_eq!(after.data_epoch, 1);
        let stats1 = service.stats();
        assert_eq!(stats1.writes, 1);
        assert_eq!(stats1.data_epoch, 1);
        assert_eq!(stats1.optimizations, 1, "no re-optimization after a data write");
        assert_eq!(stats1.executions, 2, "the memoized result must be recomputed");

        // The recomputed answer matches a fresh uncached reference on the
        // same shared database.
        let reference = QueryService::with_versioned_db(
            service.store(),
            Arc::clone(service.versioned_db()),
            ServiceConfig { bypass_cache: true, ..Default::default() },
        );
        let fresh = reference.run(&queries[0]).unwrap();
        assert!(after.results.same_multiset(&fresh.results));

        // Re-running without further writes serves the (re)memoized copy.
        let warm = service.run(&queries[0]).unwrap();
        assert_eq!(service.stats().executions, 2, "memo re-armed at the new epoch");
        assert!(warm.results.same_multiset(&after.results));
    }

    #[test]
    fn bypass_cache_always_misses() {
        let s = paper_scenario(DbSize::Db1, 42);
        let service = QueryService::with_config(
            Arc::new(s.store),
            Arc::new(s.db),
            ServiceConfig { bypass_cache: true, ..Default::default() },
        );
        for _ in 0..3 {
            let r = service.run(&s.queries[0]).unwrap();
            assert!(!r.cache_hit);
        }
        let stats = service.stats();
        assert_eq!(stats.optimizations, 3);
        assert_eq!(stats.cache.entries, 0);
    }

    #[test]
    fn run_batch_matches_sequential_answers() {
        let (service, queries) = service();
        let batch: Vec<Query> = queries.iter().cycle().take(24).cloned().collect();
        let concurrent = service.run_batch(&batch, 4);
        for (q, r) in batch.iter().zip(&concurrent) {
            let solo = service.run(q).unwrap();
            assert!(r.as_ref().unwrap().results.same_multiset(&solo.results));
        }
    }

    #[test]
    fn run_batch_survives_a_panicking_worker() {
        let (service, queries) = service();
        let batch: Vec<Query> = queries.iter().cycle().take(12).cloned().collect();
        let poisoned = &batch[5];
        let out = service.run_batch_with(&batch, 3, |q| {
            if std::ptr::eq(q, poisoned) {
                panic!("injected worker panic");
            }
            service.run(q)
        });
        assert_eq!(out.len(), batch.len());
        assert!(matches!(out[5], Err(ServiceError::WorkerPanicked)));
        for (i, r) in out.iter().enumerate() {
            if i != 5 {
                assert!(r.is_ok(), "request {i} must survive the poisoned worker");
            }
        }
    }

    #[test]
    fn try_run_leads_hits_and_follows() {
        let (service, queries) = service();
        // Cold: the first try_run is a leader that owes a completion.
        let TryRun::Leader(guard) = service.try_run(&queries[0]).unwrap() else {
            panic!("cold try_run must lead")
        };
        // While the flight is open, a duplicate becomes a follower.
        let TryRun::Follower(waiter) = service.try_run(&queries[0]).unwrap() else {
            panic!("duplicate of an open flight must follow")
        };
        let led = service.complete_miss(guard).unwrap();
        let followed = waiter.wait().unwrap();
        assert!(led.results.same_multiset(&followed.results));
        assert_eq!(followed.data_epoch, led.data_epoch);
        // Published: the next try_run is a plain cache hit.
        let TryRun::Done(hit) = service.try_run(&queries[0]).unwrap() else {
            panic!("published entry must hit")
        };
        assert!(hit.cache_hit);
        let stats = service.stats();
        assert_eq!(stats.optimizations, 1, "one optimization serves leader + follower + hit");
        assert_eq!(stats.singleflight_leaders, 1);
        assert_eq!(stats.singleflight_followers, 1);
        assert_eq!(stats.accepted, stats.cache.hits + stats.cache.misses);
    }

    #[test]
    fn dropped_leader_aborts_and_a_retry_recovers() {
        let (service, queries) = service();
        let TryRun::Leader(guard) = service.try_run(&queries[0]).unwrap() else { panic!() };
        let TryRun::Follower(waiter) = service.try_run(&queries[0]).unwrap() else { panic!() };
        drop(guard);
        assert!(matches!(waiter.wait(), Err(FlightError::Aborted)));
        // The retry finds the key free and leads; completion publishes.
        let TryRun::Leader(guard) = service.try_run(&queries[0]).unwrap() else {
            panic!("retry after abort must lead")
        };
        let response = service.complete_miss(guard).unwrap();
        assert!(!response.cache_hit);
        assert!(matches!(service.try_run(&queries[0]).unwrap(), TryRun::Done(r) if r.cache_hit));
    }

    #[test]
    fn statistics_change_invalidates() {
        let (service, queries) = service();
        let _ = service.run(&queries[0]).unwrap();
        service.note_statistics_change();
        assert_eq!(service.stats().cache.entries, 0, "purged eagerly");
        let r = service.run(&queries[0]).unwrap();
        assert!(!r.cache_hit);
    }
}
