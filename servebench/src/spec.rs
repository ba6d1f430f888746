//! The three workloads, their generated inputs, and the timed set-up.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqo_catalog::{Catalog, ClassId};
use sqo_constraints::{ConstraintStore, HornConstraint, StoreOptions};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_storage::{Database, IntegrityOptions, VersionedDatabase};
use sqo_workload::{
    bench_schema::bench_catalog, dup_safe_classes, enumerate_directed_paths, generate_constraints,
    generate_database, generate_query, paper_query_set, respell, ConstraintGenConfig,
    DataGenConfig, DbSize, Forcing, MixedApplier, MixedOp, QueryGenConfig, WriteKind,
};

/// The schema, constraints, database, query pool and query popularity of
/// every workload come from this fixed scenario seed; `--seed` drives the
/// traffic (which request comes when, its spelling, open-loop arrival
/// times, which writes). Seed-to-seed spread then measures the engine, not
/// how expensive one randomly drawn hot set happens to be.
pub const SCENARIO_SEED: u64 = 42;

/// Requests in each pre-generated stream; phases replay it cyclically.
pub const STREAM_LEN: usize = 1 << 15;

/// Distinct queries of the `churn_reads` pool (4x the default plan cache).
const CHURN_POOL: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub db: DbSize,
    /// Draw the 4096-query churn pool instead of 16 of the 40 paper queries.
    pub churn: bool,
    pub zipf_s: f64,
    /// Share of writes in the stream. A workload that writes does so
    /// through a `VersionedDatabase` with integrity enforcement.
    pub write_ratio: f64,
    /// Offered open-loop rates (requests per second), ascending. Fixed
    /// here so every commit is measured at the same rates.
    pub ladder: [f64; 3],
    /// Open-loop p90 latency limit, microseconds.
    pub p90_limit_us: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "hot_reads",
        db: DbSize::Db1,
        churn: false,
        zipf_s: 1.1,
        write_ratio: 0.0,
        ladder: [30_000.0, 60_000.0, 90_000.0],
        p90_limit_us: 1_000.0,
    },
    Spec {
        name: "churn_reads",
        db: DbSize::Db4,
        churn: true,
        zipf_s: 0.8,
        write_ratio: 0.0,
        ladder: [3_000.0, 6_000.0, 9_000.0],
        p90_limit_us: 5_000.0,
    },
    Spec {
        name: "mixed_writes",
        db: DbSize::Db4,
        churn: false,
        zipf_s: 1.1,
        write_ratio: 0.01,
        ladder: [30_000.0, 60_000.0, 90_000.0],
        p90_limit_us: 1_000.0,
    },
];

impl Spec {
    pub fn writes(&self) -> bool {
        self.write_ratio > 0.0
    }
}

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Everything a run needs, generated from the seed before any timing.
pub struct Inputs {
    pub catalog: Arc<Catalog>,
    pub constraints: Vec<HornConstraint>,
    forcings: Vec<Forcing>,
    db_config: DataGenConfig,
    /// The distinct queries; `MixedOp::Read::index` points into this.
    pub distinct: Vec<Query>,
    /// The fixed-length request stream.
    pub ops: Vec<MixedOp>,
}

pub fn inputs(spec: &Spec, seed: u64) -> Result<Inputs, String> {
    let catalog = Arc::new(bench_catalog().map_err(|e| format!("schema: {e:?}"))?);
    let generated = generate_constraints(
        &catalog,
        ConstraintGenConfig { seed: SCENARIO_SEED, ..Default::default() },
    )
    .map_err(|e| format!("constraint generation: {e:?}"))?;
    let qgen = QueryGenConfig { seed: SCENARIO_SEED + 1, ..Default::default() };
    let distinct = if spec.churn {
        churn_pool(&catalog, &generated.forcings, &qgen)
    } else {
        let mut pool = paper_query_set(&catalog, &generated.forcings, 40, &qgen);
        pool.truncate(16);
        pool
    };
    let ops = stream(&catalog, &distinct, spec, seed);
    Ok(Inputs {
        catalog,
        constraints: generated.constraints,
        forcings: generated.forcings,
        db_config: spec.db.config(SCENARIO_SEED),
        distinct,
        ops,
    })
}

/// `STREAM_LEN` requests in which each distinct query occurs its Zipf
/// share of the reads and each dup-safe class its Zipf(0.8) share of the
/// `write_ratio` writes (the class law `mixed_workload` uses). The seed
/// orders them and draws each read's shuffled spelling and each write's
/// operand: it changes which request comes when, never how often a query
/// is asked or which queries are hot.
fn stream(catalog: &Catalog, distinct: &[Query], spec: &Spec, seed: u64) -> Vec<MixedOp> {
    enum Slot {
        Read(usize),
        Write(ClassId),
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let writes = (STREAM_LEN as f64 * spec.write_ratio).round() as usize;
    let writable = dup_safe_classes(catalog);
    let mut slots = Vec::with_capacity(STREAM_LEN);
    for (index, n) in
        zipf_counts(distinct.len(), spec.zipf_s, STREAM_LEN - writes).into_iter().enumerate()
    {
        slots.extend((0..n).map(|_| Slot::Read(index)));
    }
    for (class, n) in writable.iter().zip(zipf_counts(writable.len(), 0.8, writes)) {
        slots.extend((0..n).map(|_| Slot::Write(*class)));
    }
    slots.shuffle(&mut rng);
    let ops = slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Read(index) => {
                MixedOp::Read { index, query: respell(&distinct[index], &mut rng) }
            }
            Slot::Write(class) => MixedOp::Write(WriteKind::InsertDup {
                class,
                source_rank: rng.gen_range(0..u32::MAX),
            }),
        })
        .collect();
    balance_writes(ops)
}

/// `total` split over ranks `0..n` in proportion to `1/(k+1)^s`, rounded
/// by largest remainder so the counts add up to `total`.
fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// Makes each class's writes alternate insert, delete, insert, ... and
/// ends every class on a delete, keeping the drawn class and random
/// operand of each write. Half the writes still delete, but a client's
/// duplicates never pile up, so the database keeps its size however often
/// the stream is replayed (with `c` clients, at most `c` live duplicates
/// per class).
fn balance_writes(ops: Vec<MixedOp>) -> Vec<MixedOp> {
    let mut live = HashMap::new();
    let mut ops: Vec<MixedOp> = ops
        .into_iter()
        .map(|op| match op {
            MixedOp::Write(kind) => {
                let (class, operand) = match kind {
                    WriteKind::InsertDup { class, source_rank } => (class, source_rank),
                    WriteKind::DeleteDup { class, pick } => (class, pick),
                };
                let pending = live.entry(class).or_insert(false);
                *pending = !*pending;
                MixedOp::Write(if *pending {
                    WriteKind::InsertDup { class, source_rank: operand }
                } else {
                    WriteKind::DeleteDup { class, pick: operand }
                })
            }
            read => read,
        })
        .collect();
    for (class, pending) in live {
        if pending {
            let last = ops.iter().rposition(|op| {
                matches!(op, MixedOp::Write(WriteKind::InsertDup { class: c, .. }) if *c == class)
            });
            if let Some(last) = last {
                ops.remove(last);
            }
        }
    }
    ops
}

impl Inputs {
    /// The scenario's database, generated anew (same seed, same content).
    pub fn database(&self) -> Result<Database, String> {
        generate_database(Arc::clone(&self.catalog), &self.db_config, &self.forcings)
            .map_err(|e| format!("database generation: {e:?}"))
    }
}

/// `CHURN_POOL` queries generated over every directed schema path in
/// turn, de-duplicated by canonical fingerprint.
fn churn_pool(catalog: &Catalog, forcings: &[Forcing], qgen: &QueryGenConfig) -> Vec<Query> {
    let paths = enumerate_directed_paths(catalog, 2);
    let mut rng = StdRng::seed_from_u64(qgen.seed);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(CHURN_POOL);
    let mut attempt = 0usize;
    while pool.len() < CHURN_POOL {
        assert!(attempt < CHURN_POOL * 64, "query generator ran out of distinct queries");
        let query =
            generate_query(catalog, &paths[attempt % paths.len()], forcings, qgen, &mut rng);
        attempt += 1;
        if seen.insert(query.canonical().fingerprint_canonical()) {
            pool.push(query);
        }
    }
    pool
}

/// A warmed, ready service and what it took to get there.
pub struct Ready {
    pub service: Arc<QueryService>,
    pub store_build: Duration,
    /// Service construction plus one pass over every distinct query.
    pub warmup: Duration,
}

/// Builds the constraint store, the service and its write path, then runs
/// one warm-up pass. The inputs it consumes, the constraint list and the
/// database, are made before timing starts; the database afresh each time,
/// so that where its memory happens to land varies from one set-up to the
/// next instead of from one run to the next.
pub fn set_up(spec: &Spec, inputs: &Inputs) -> Result<Ready, String> {
    let constraints = inputs.constraints.clone();
    let db = Arc::new(inputs.database()?);
    let t0 = Instant::now();
    let store = ConstraintStore::build(
        Arc::clone(&inputs.catalog),
        constraints,
        StoreOptions::paper_defaults(),
    )
    .map_err(|e| format!("constraint store: {e:?}"))?;
    let t1 = Instant::now();
    let handle = if spec.writes() {
        VersionedDatabase::with_integrity(db, IntegrityOptions::default())
    } else {
        VersionedDatabase::new(db)
    };
    let service = Arc::new(QueryService::with_versioned_db(
        Arc::new(store),
        Arc::new(handle),
        ServiceConfig::default(),
    ));
    for query in &inputs.distinct {
        service.run(query).map_err(|e| format!("warm-up: {e}"))?;
    }
    let t2 = Instant::now();
    Ok(Ready { service, store_build: t1 - t0, warmup: t2 - t1 })
}

/// The write side of a mixed stream: resolution, commit and confirmation
/// are serialized, as `MixedApplier` requires.
pub struct Writer {
    applier: Mutex<MixedApplier>,
}

/// One committed write.
pub struct Written {
    /// When the `QueryService::write` call started, and how long it took.
    pub started: Instant,
    pub write: Duration,
    pub touched_classes: usize,
}

impl Writer {
    pub fn new(service: &QueryService) -> Self {
        Self { applier: Mutex::new(MixedApplier::new(&service.db())) }
    }

    pub fn apply(&self, service: &QueryService, kind: &WriteKind) -> Result<Written, String> {
        let mut applier = self.applier.lock().unwrap_or_else(PoisonError::into_inner);
        let (class, victim, batch) = applier.resolve(&service.db(), kind);
        let started = Instant::now();
        let outcome = service.write(&batch).map_err(|e| format!("write: {e}"))?;
        let write = started.elapsed();
        applier.confirm(class, victim, &outcome.receipt);
        Ok(Written { started, write, touched_classes: outcome.receipt.touched_classes.len() })
    }
}

/// Live rows across every class of the current snapshot.
pub fn live_rows(service: &QueryService) -> usize {
    let db = service.db();
    db.catalog().classes().map(|(class, _)| db.cardinality(class)).sum()
}

/// Poisson arrival offsets (nanoseconds from phase start) at `rate` per
/// second over `secs` seconds.
pub fn arrivals(seed: u64, rate: f64, secs: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate;
    let end_ns = secs * 1e9;
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() * mean_gap_ns;
        if at >= end_ns {
            return out;
        }
        out.push(at as u64);
    }
}
