//! End-to-end frontend behavior: burst deduplication, admission-queue
//! shedding, drain-on-shutdown, and stats self-consistency under load.
//!
//! Timing-sensitive (real worker threads, real contention): CI runs this
//! crate `--release`, matching the storage/service precedent.

use std::sync::Arc;

use sqo_frontend::{Frontend, FrontendConfig, Overload};
use sqo_service::QueryService;
use sqo_workload::{paper_scenario, DbSize};

fn service(seed: u64) -> (Arc<QueryService>, Vec<sqo_query::Query>) {
    let s = paper_scenario(DbSize::Db1, seed);
    (Arc::new(QueryService::new(Arc::new(s.store), Arc::new(s.db))), s.queries)
}

/// A cold burst of identical queries runs ~one optimization, and every
/// client receives the same multiset of rows.
#[test]
fn cold_burst_on_one_query_optimizes_once() {
    const BURST: usize = 512;
    let (service, queries) = service(3);
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers: 4, queue_depth: BURST, p99_bound_us: None },
    );

    let handles: Vec<_> = (0..BURST)
        .map(|_| frontend.submit(&queries[0]).expect("queue sized for the whole burst"))
        .collect();
    let responses: Vec<_> =
        handles.into_iter().map(|h| h.wait().result.expect("burst requests succeed")).collect();
    let reference = service.run(&queries[0]).unwrap();
    for response in &responses {
        assert!(response.results.same_multiset(&reference.results));
    }

    let stats = frontend.shutdown();
    assert_eq!(stats.admitted, BURST as u64);
    assert_eq!(stats.completed, BURST as u64);
    assert_eq!(stats.in_flight, 0);

    let svc = service.stats();
    assert_eq!(svc.optimizations, 1, "the whole burst shares one optimization: {svc:?}");
    assert_eq!(
        svc.singleflight_leaders + svc.singleflight_followers + svc.cache.hits,
        // Every burst request led, followed, or arrived after publication
        // and hit (+1 for the reference run's hit). How the burst splits
        // across the three is scheduling-dependent (on a single core the
        // leader usually publishes inside its first poll and everyone
        // else hits); the deterministic follower-path test lives in
        // sqo-service's singleflight suite.
        BURST as u64 + 1,
        "every request must be classified exactly once: {svc:?}"
    );
}

/// Admissions beyond `queue_depth` shed with `Overload::QueueFull`
/// (reject-newest), and admitted requests still all complete.
#[test]
fn overload_sheds_the_marginal_arrival() {
    let (service, queries) = service(5);
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers: 2, queue_depth: 8, p99_bound_us: None },
    );

    // Submit far beyond the queue depth as fast as possible; at least
    // the overshoot beyond depth+completed must shed.
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..256 {
        match frontend.submit(&queries[i % queries.len()]) {
            Ok(handle) => admitted.push(handle),
            Err(Overload::QueueFull) => shed += 1,
            Err(other) => panic!("unexpected shed reason: {other:?}"),
        }
    }
    for handle in admitted {
        assert!(handle.wait().result.is_ok(), "admitted requests are never abandoned");
    }
    let stats = frontend.shutdown();
    assert_eq!(stats.shed_queue_full, shed);
    assert_eq!(stats.admitted, 256 - shed);
    assert_eq!(stats.completed, stats.admitted, "every admitted request completed");
    assert!(stats.in_flight == 0);
}

/// Once the latency window is warm and the p99 estimate exceeds its
/// bound, new arrivals shed with `Overload::LatencyBound`.
#[test]
fn latency_bound_sheds_once_the_estimate_crosses() {
    let (service, queries) = service(7);
    // bypass_cache via a dedicated uncached service: every request pays
    // full optimization, so every recorded latency is comfortably ≥ 1µs
    // and any p99 estimate exceeds a 0µs bound.
    let uncached = Arc::new(QueryService::with_versioned_db(
        service.store(),
        Arc::clone(service.versioned_db()),
        sqo_service::ServiceConfig { bypass_cache: true, ..Default::default() },
    ));
    let frontend = Frontend::new(
        Arc::clone(&uncached),
        FrontendConfig { workers: 2, queue_depth: 4096, p99_bound_us: Some(0) },
    );
    // Fill the estimator window (64 samples) with completed requests; the
    // estimator stays silent until then, so none of these shed.
    let handles: Vec<_> = (0..64)
        .map(|i| {
            frontend
                .submit(&queries[i % queries.len()])
                .expect("no latency shedding before the window warms")
        })
        .collect();
    for handle in handles {
        assert!(handle.wait().result.is_ok());
    }
    // Window warm, every sample over the 0µs bound: the next arrival sheds.
    assert_eq!(frontend.submit(&queries[0]).unwrap_err(), Overload::LatencyBound);
    let stats = frontend.shutdown();
    assert_eq!(stats.shed_latency, 1);
    assert_eq!(stats.admitted, 64);
}

/// After `shutdown` began, nothing new is admitted, but the drain runs
/// every already-admitted request to completion first.
#[test]
fn shutdown_drains_admitted_work() {
    let (service, queries) = service(9);
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers: 2, queue_depth: 1024, p99_bound_us: None },
    );
    let handles: Vec<_> = (0..64)
        .map(|i| frontend.submit(&queries[i % queries.len()]).expect("under the bound"))
        .collect();
    let stats = frontend.shutdown();
    assert_eq!(stats.completed, 64, "drain finishes every admitted request");
    assert_eq!(stats.in_flight, 0);
    for handle in handles {
        assert!(handle.try_take().expect("drained before shutdown returned").result.is_ok());
    }
}

/// `ServiceStats` snapshots taken mid-flight under concurrent frontend
/// load stay monotone and self-consistent (hits + misses == accepted).
#[test]
fn service_stats_stay_consistent_under_concurrent_load() {
    let (service, queries) = service(11);
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers: 4, queue_depth: 4096, p99_bound_us: None },
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observer = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = service.stats();
            let mut snapshots = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let now = service.stats();
                assert_eq!(
                    now.accepted,
                    now.cache.hits + now.cache.misses,
                    "mid-flight snapshot must be self-consistent: {now:?}"
                );
                assert!(now.accepted >= last.accepted, "accepted must be monotone");
                assert!(now.cache.hits >= last.cache.hits, "hits must be monotone");
                assert!(now.optimizations >= last.optimizations);
                assert!(now.requests >= last.requests);
                last = now;
                snapshots += 1;
            }
            snapshots
        })
    };

    for round in 0..8 {
        let handles: Vec<_> = (0..256)
            .filter_map(|i| frontend.submit(&queries[(round + i) % queries.len()]).ok())
            .collect();
        for handle in handles {
            let _ = handle.wait();
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let snapshots = observer.join().expect("observer never tripped an assertion");
    assert!(snapshots > 0);
    frontend.shutdown();
}

/// Regression test for the `completed <= admitted` snapshot invariant:
/// the task body publishes `completed` with Release and stats() reads it
/// first with Acquire, so observing a completion implies observing its
/// admission. The sites used to be Relaxed with an unordered read pair,
/// which held only on x86's strong memory model.
#[test]
fn stats_completed_never_exceeds_admitted() {
    let (service, queries) = service(17);
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers: 4, queue_depth: 4096, p99_bound_us: None },
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let snapshots = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut last_completed = 0u64;
            let mut snapshots = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let s = frontend.stats();
                assert!(
                    s.completed <= s.admitted,
                    "torn snapshot: completed {} > admitted {}",
                    s.completed,
                    s.admitted
                );
                assert!(s.completed >= last_completed, "completed must be monotone");
                last_completed = s.completed;
                snapshots += 1;
            }
            snapshots
        });
        for round in 0..6 {
            let handles: Vec<_> = (0..256)
                .filter_map(|i| frontend.submit(&queries[(round + i) % queries.len()]).ok())
                .collect();
            for handle in handles {
                let _ = handle.wait();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        watcher.join().expect("observer never tripped an assertion")
    });
    assert!(snapshots > 0);
    let last = frontend.shutdown();
    assert_eq!(last.completed, last.admitted, "drained frontend has no stragglers");
    assert_eq!(last.in_flight, 0);
}
