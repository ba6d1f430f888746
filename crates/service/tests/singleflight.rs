//! Singleflight miss deduplication under real contention, plus the
//! invalidation-during-flight soundness case the flight key exists for.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_service::{QueryService, TryRun};
use sqo_workload::{paper_scenario, DbSize};

fn service() -> (Arc<QueryService>, Vec<sqo_query::Query>) {
    let s = paper_scenario(DbSize::Db1, 7);
    (Arc::new(QueryService::new(Arc::new(s.store), Arc::new(s.db))), s.queries)
}

/// N concurrent misses on one fingerprint run exactly one optimization.
///
/// Deterministic, not timing-dependent: the main thread takes the leader
/// guard and *holds it* while N threads register, so every one of them is
/// forced onto the follower path before the flight resolves.
#[test]
fn n_simultaneous_misses_run_one_optimization() {
    const FOLLOWERS: usize = 32;
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else {
        panic!("cold miss must lead")
    };

    // The barrier releases the main thread only after every spawned
    // thread has registered; while the guard is held the flight is pinned
    // in the table and the cache entry unpublished, so each registration
    // is *forced* onto the follower path — no timing dependence.
    let registered = Arc::new(std::sync::Barrier::new(FOLLOWERS + 1));
    let joined: Vec<_> = (0..FOLLOWERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let query = query.clone();
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || {
                let run = service.try_run(&query).unwrap();
                registered.wait();
                match run {
                    TryRun::Follower(waiter) => waiter.wait().unwrap(),
                    other => panic!("expected follower while the flight is open, got {other:?}"),
                }
            })
        })
        .collect();
    registered.wait();

    let stats = service.stats();
    assert_eq!(stats.optimizations, 0, "nothing optimized while the leader guard is held");

    let led = service.complete_miss(guard).unwrap();
    for handle in joined {
        let followed = handle.join().unwrap();
        assert!(followed.results.same_multiset(&led.results));
        assert_eq!(followed.epoch, led.epoch);
        assert_eq!(followed.data_epoch, led.data_epoch);
    }

    let stats = service.stats();
    assert_eq!(stats.optimizations, 1, "N simultaneous misses must share one optimization");
    assert_eq!(stats.singleflight_leaders, 1);
    assert_eq!(stats.singleflight_followers, FOLLOWERS as u64);
    assert_eq!(
        stats.accepted,
        stats.cache.hits + stats.cache.misses,
        "stats snapshot must stay self-consistent"
    );
}

/// A blocking `run` on a query whose miss is already in flight follows
/// that flight instead of optimizing again: `run` is `try_run` + wait, so
/// closed-loop callers get the same miss deduplication as the frontend.
///
/// Deterministic: the main thread holds the leader guard until the
/// second thread's `run` has registered as a follower, so that `run` can
/// only be answered by the flight. The wait has a deadline so a `run`
/// that bypasses the flight fails here instead of hanging.
#[test]
fn run_follows_an_in_flight_miss() {
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else {
        panic!("cold miss must lead")
    };
    let follower = {
        let service = Arc::clone(&service);
        let query = query.clone();
        std::thread::spawn(move || service.run(&query))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().singleflight_followers < 1 {
        assert!(
            Instant::now() < deadline,
            "run never joined the in-flight miss: {:?}",
            service.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let led = service.complete_miss(guard).unwrap();
    let followed = follower.join().unwrap().unwrap();
    let stats = service.stats();
    assert_eq!(stats.optimizations, 1, "the follower shares the leader's optimization");
    assert_eq!(stats.executions, 1, "and its execution");
    assert_eq!((stats.singleflight_leaders, stats.singleflight_followers), (1, 1));
    assert!(Arc::ptr_eq(&led.results, &followed.results), "one shared answer");
}

/// A constraint inserted while a miss is in flight must not let the flight
/// publish an entry that serves at the *new* store version.
#[test]
fn invalidation_during_flight_never_publishes_a_stale_entry() {
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else { panic!() };
    let v0 = guard.key().version;

    // Mid-flight constraint insert overlapping the query's classes
    // (duplicating an existing constraint is semantics-preserving, so
    // answers must not move — only the cache validity may): the store
    // version moves past v0.
    let overlapping = service
        .store()
        .constraints()
        .find(|(_, c)| c.classes.iter().any(|cl| query.canonical().classes.contains(cl)))
        .map(|(_, c)| c.clone())
        .expect("some constraint touches the query's classes");
    service.add_constraint(overlapping);
    let v1 = service.store_version();
    assert_ne!(v0, v1);

    // The leader completes against the store it registered under; its
    // published entry is stamped v0 and must not hit at v1.
    let led = service.complete_miss(guard).unwrap();
    assert_eq!(led.epoch, v0.epoch, "flight answers at its registration epoch");

    match service.try_run(query).unwrap() {
        TryRun::Leader(guard) => {
            // Correct: the v1 lookup missed the v0-stamped entry and must
            // re-derive under the new constraints.
            let fresh = service.complete_miss(guard).unwrap();
            assert_eq!(fresh.epoch, v1.epoch);
        }
        TryRun::Done(r) => {
            panic!(
                "stale-version entry served after mid-flight invalidation \
                 (cache_hit={}, epoch={}, expected a miss at epoch {})",
                r.cache_hit, r.epoch, v1.epoch
            );
        }
        TryRun::Follower(_) => panic!("no flight should be open"),
    }

    let stats = service.stats();
    assert_eq!(stats.optimizations, 2, "one per store version, never a stale share");
}
