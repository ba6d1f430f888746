//! Microbenchmarks of the copy-on-write write path: applying a batch via
//! the incremental `Arc` clone-and-patch ([`Database::with_writes`]) vs the
//! from-scratch rebuild oracle ([`Database::with_writes_full`]), and the
//! statistics side in isolation — per-touched-class delta folding (driven
//! through an update-only batch) vs the full rescan
//! ([`Database::rebuild_statistics`]) — and the integrity-checked DB4
//! duplicate insert the serving benchmark's `mixed_writes` workload issues.
//!
//! Quick mode: set `SQO_BENCH_SMOKE=1` (the CI bench-smoke job does) to run
//! every benchmark at minimal sample counts — same code paths, a fraction
//! of the wall clock.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use sqo_catalog::AttrId;
use sqo_storage::{DataWrite, Database, IntegrityOptions, ObjectId};
use sqo_workload::{copyable_rels, dup_insert, dup_safe_classes, paper_scenario, DbSize};

fn smoke() -> bool {
    std::env::var_os("SQO_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn tune<'c>(c: &'c mut Criterion, name: &str) -> criterion::BenchmarkGroup<'c> {
    let mut group = c.benchmark_group(name);
    if smoke() {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(20))
            .measurement_time(Duration::from_millis(100));
    } else {
        group
            .sample_size(60)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1));
    }
    group
}

/// An E11-style duplicate-insert batch touching one class.
fn dup_batch(db: &Database, size: usize) -> Vec<DataWrite> {
    let catalog = db.catalog();
    let cargo = catalog.class_id("cargo").expect("bench schema");
    let rels = copyable_rels(catalog, cargo);
    (0..size).map(|i| dup_insert(db, cargo, i as u32, &rels)).collect()
}

/// Batch apply, incremental vs full rebuild, on the DB2 instance.
fn bench_batch_apply(c: &mut Criterion) {
    let db = paper_scenario(DbSize::Db2, 42).db;
    let batch = dup_batch(&db, 8);
    let mut group = tune(c, "writepath_apply");
    group.bench_function("incremental", |b| {
        b.iter(|| std::hint::black_box(db.with_writes(&batch, None).expect("apply")));
    });
    group.bench_function("full_rebuild", |b| {
        b.iter(|| std::hint::black_box(db.with_writes_full(&batch, None).expect("apply")));
    });
    group.finish();
}

/// The statistics side in isolation: a one-attribute in-place update folds
/// exactly one class's stats, vs recomputing every class from scratch. The
/// update also clones the class's extent and index shards; since the fold
/// became one sort pass per attribute, that clone is no longer negligible:
/// on DB2 the fold is about three fifths of the update, the clone the rest.
fn bench_stats(c: &mut Criterion) {
    let db = paper_scenario(DbSize::Db2, 42).db;
    let catalog = db.catalog();
    let cargo = catalog.class_id("cargo").expect("bench schema");
    let touch = vec![DataWrite::Update {
        class: cargo,
        object: ObjectId(0),
        attr: AttrId(0),
        value: db.tuple(cargo, ObjectId(0)).unwrap()[0].clone(),
    }];
    let mut group = tune(c, "writepath_stats");
    group.bench_function("delta_fold_one_class", |b| {
        b.iter(|| std::hint::black_box(db.with_writes(&touch, None).expect("apply")));
    });
    group.bench_function("full_rescan", |b| {
        b.iter(|| std::hint::black_box(db.rebuild_statistics()));
    });
    group.finish();
}

/// The write `mixed_writes` issues: one duplicate insert into the most
/// written dup-safe class of DB4, integrity-checked.
fn bench_db4_dup_insert(c: &mut Criterion) {
    let db = paper_scenario(DbSize::Db4, 42).db;
    let class = dup_safe_classes(db.catalog())[0];
    let rels = copyable_rels(db.catalog(), class);
    let write = [dup_insert(&db, class, 0, &rels)];
    let mut group = tune(c, "writepath_db4");
    group.bench_function("dup_insert_integrity", |b| {
        b.iter(|| {
            std::hint::black_box(
                db.with_writes(&write, Some(IntegrityOptions::default())).expect("apply"),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batch_apply, bench_stats, bench_db4_dup_insert);
criterion_main!(benches);
