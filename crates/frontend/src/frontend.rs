//! The request frontend: admission control, load shedding, and the async
//! task body that drives [`QueryService::try_run`]'s singleflight seam.
//!
//! [`run_one`] is the non-blocking twin of [`QueryService::run`]: both
//! drive the service's one request pipeline the same way (`Done` answers,
//! a `Leader` completes the miss, a `Follower` waits, an aborted flight
//! retries) — `run` parks the calling thread on a follower's wait, while
//! `run_one` awaits it wakerfully so a waiting client holds no worker.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll};
use std::time::Instant;

use sqo_query::Query;
use sqo_service::{FlightError, MissWaiter, QueryService, ServiceError, ServiceResponse, TryRun};

use crate::executor::Executor;

/// Frontend tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Worker threads driving the reactor (the CPU budget; logical
    /// clients are unbounded by this).
    pub workers: usize,
    /// Maximum admitted-but-unfinished logical clients. A concurrent
    /// submission beyond this depth is shed with
    /// [`Overload::QueueFull`] — reject-newest, the oldest work already
    /// admitted always finishes.
    pub queue_depth: usize,
    /// Shed new arrivals while the windowed p99 completion-latency
    /// estimate exceeds this bound (microseconds). `None` disables
    /// latency-based shedding; the queue bound still applies.
    pub p99_bound_us: Option<u64>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_depth: 1024,
            p99_bound_us: None,
        }
    }
}

/// Why a submission was rejected instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overload {
    /// The admission queue is at its configured depth.
    QueueFull,
    /// The p99 completion-latency estimate exceeds its configured bound.
    LatencyBound,
    /// The frontend is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for Overload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overload::QueueFull => write!(f, "admission queue full"),
            Overload::LatencyBound => write!(f, "p99 latency estimate over bound"),
            Overload::ShuttingDown => write!(f, "frontend shutting down"),
        }
    }
}

/// A completed request as observed by the client.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The service's answer (or typed error).
    pub result: Result<ServiceResponse, ServiceError>,
    /// Admission-to-completion latency in microseconds.
    pub latency_us: u64,
}

#[derive(Debug, Default)]
struct Slot {
    completion: Mutex<Option<Completion>>,
    done: Condvar,
}

/// The client's handle on one admitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl ResponseHandle {
    /// The completion if the request has finished, without blocking.
    pub fn try_take(&self) -> Option<Completion> {
        self.slot.completion.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// Blocks the calling thread until the request completes.
    pub fn wait(self) -> Completion {
        let mut completion = self.slot.completion.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(done) = completion.take() {
                return done;
            }
            completion = self.slot.done.wait(completion).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Windowed completion-latency reservoir: the last `WINDOW` latencies in
/// a ring, percentiles computed on demand. Coarse by design — shedding
/// needs a stable trend signal, not a precise histogram.
#[derive(Debug)]
struct LatencyEstimator {
    window: Mutex<LatencyWindow>,
}

#[derive(Debug)]
struct LatencyWindow {
    ring: Vec<u64>,
    next: usize,
    filled: usize,
}

const WINDOW: usize = 256;
/// No latency shedding until the window holds this many samples — a cold
/// frontend must not shed on its first (slow, cache-cold) completions.
const MIN_SAMPLES: usize = 64;

impl LatencyEstimator {
    fn new() -> Self {
        Self { window: Mutex::new(LatencyWindow { ring: vec![0; WINDOW], next: 0, filled: 0 }) }
    }

    fn record(&self, latency_us: u64) {
        let mut w = self.window.lock().unwrap_or_else(PoisonError::into_inner);
        let next = w.next;
        w.ring[next] = latency_us;
        w.next = (next + 1) % WINDOW;
        w.filled = (w.filled + 1).min(WINDOW);
    }

    /// The windowed p99 estimate, once enough samples exist.
    fn p99_us(&self) -> Option<u64> {
        let w = self.window.lock().unwrap_or_else(PoisonError::into_inner);
        if w.filled < MIN_SAMPLES {
            return None;
        }
        let mut sorted: Vec<u64> = w.ring[..w.filled].to_vec();
        drop(w);
        sorted.sort_unstable();
        let rank = (sorted.len() * 99).div_ceil(100).saturating_sub(1);
        Some(sorted[rank])
    }
}

/// Point-in-time frontend counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    /// Submissions admitted past the shed checks.
    pub admitted: u64,
    /// Admitted requests that ran to completion.
    pub completed: u64,
    /// Submissions shed because the admission queue was full.
    pub shed_queue_full: u64,
    /// Submissions shed by the p99-latency bound.
    pub shed_latency: u64,
    /// Admitted and not yet completed right now.
    pub in_flight: usize,
}

#[derive(Debug)]
struct FrontendShared {
    service: Arc<QueryService>,
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_latency: AtomicU64,
    latency: LatencyEstimator,
}

/// The non-blocking request frontend: multiplexes any number of logical
/// clients over a fixed worker pool driving one [`QueryService`].
///
/// [`Frontend::submit`] is the admission point — it costs the caller a
/// bounded-queue check (and optionally a p99 estimate read), never an
/// optimization. Admitted requests become reactor tasks: a cache hit
/// completes on its first poll; the first miss on a coordinate runs the
/// optimization once (singleflight leader); every concurrent duplicate
/// waits wakerfully and shares the published answer without holding a
/// thread.
#[derive(Debug)]
pub struct Frontend {
    shared: Arc<FrontendShared>,
    executor: Executor,
    config: FrontendConfig,
    draining: std::sync::atomic::AtomicBool,
}

impl Frontend {
    /// A frontend over `service` with `config`'s admission policy.
    pub fn new(service: Arc<QueryService>, config: FrontendConfig) -> Self {
        Self {
            shared: Arc::new(FrontendShared {
                service,
                in_flight: AtomicUsize::new(0),
                admitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                shed_queue_full: AtomicU64::new(0),
                shed_latency: AtomicU64::new(0),
                latency: LatencyEstimator::new(),
            }),
            executor: Executor::new(config.workers),
            config,
            draining: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Admits `query` as a new logical client, or sheds it with a typed
    /// [`Overload`]. Reject-newest: an admitted request is never
    /// abandoned, the marginal arrival is the one refused.
    pub fn submit(&self, query: &Query) -> Result<ResponseHandle, Overload> {
        // ordering: Acquire pairs with shutdown()'s Release store.
        if self.draining.load(Ordering::Acquire) {
            return Err(Overload::ShuttingDown);
        }
        if let Some(bound) = self.config.p99_bound_us {
            if self.shared.latency.p99_us().is_some_and(|p99| p99 > bound) {
                // ordering: monotone shed counter, read for display only.
                self.shared.shed_latency.fetch_add(1, Ordering::Relaxed);
                return Err(Overload::LatencyBound);
            }
        }
        // Claim a queue slot; back off if the claim overshoots the bound.
        // ordering: AcqRel makes claim/back-off edges a total order across
        // admitters, so concurrent claims can never all read the same
        // pre-claim value and jointly overshoot the bound.
        let claimed = self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        if claimed >= self.config.queue_depth {
            // ordering: AcqRel, same RMW chain as the claim above.
            self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            // ordering: monotone shed counter, read for display only.
            self.shared.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(Overload::QueueFull);
        }
        // ordering: bounded above by `completed`'s Release/Acquire pair —
        // stats() reads `completed` first, and this increment
        // happens-before the task's `completed` increment via the spawn
        // queue's mutex, so any observed completion implies its admission.
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::default());
        let shared = Arc::clone(&self.shared);
        let task_slot = Arc::clone(&slot);
        let query = query.clone();
        self.executor.spawn(async move {
            let admitted_at = Instant::now();
            let result = run_one(&shared.service, &query).await;
            let latency_us = admitted_at.elapsed().as_micros() as u64;
            shared.latency.record(latency_us);
            // ordering: Release pairs with the Acquire load in stats() /
            // shutdown(): observing this increment also observes the
            // admission that preceded it (via the spawn-queue mutex), so
            // `completed <= admitted` holds in every snapshot — Relaxed
            // only held on x86's TSO by accident.
            shared.completed.fetch_add(1, Ordering::Release);
            // ordering: AcqRel, same RMW chain as submit()'s claim.
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            let mut completion =
                task_slot.completion.lock().unwrap_or_else(PoisonError::into_inner);
            *completion = Some(Completion { result, latency_us });
            task_slot.done.notify_all();
        });
        Ok(ResponseHandle { slot })
    }

    /// Current frontend counters (the driven service's own stats are on
    /// [`Frontend::service`]).
    pub fn stats(&self) -> FrontendStats {
        // Struct literals evaluate top to bottom: `completed` is read
        // strictly before `admitted`, and with Acquire, so a snapshot can
        // never observe `completed > admitted` (regression-tested by
        // tests/frontend.rs::stats_completed_never_exceeds_admitted).
        FrontendStats {
            // ordering: Acquire pairs with the task's Release fetch_add.
            completed: self.shared.completed.load(Ordering::Acquire),
            // ordering: bounded below by `completed` via the Acquire above.
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            // ordering: monotone shed counter, read for display only.
            shed_queue_full: self.shared.shed_queue_full.load(Ordering::Relaxed),
            shed_latency: self.shared.shed_latency.load(Ordering::Relaxed), // ordering: display counter
            // ordering: pairs with the AcqRel claim RMWs in submit().
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
        }
    }

    /// The service this frontend drives.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.shared.service
    }

    /// Drain-on-shutdown: stops admitting (new submissions shed with
    /// [`Overload::ShuttingDown`]), runs every already-admitted request to
    /// completion, then joins the worker pool.
    pub fn shutdown(self) -> FrontendStats {
        // ordering: Release pairs with submit()'s Acquire load — an
        // admitter that misses the drain flag fully completes its claim
        // before join() observes it.
        self.draining.store(true, Ordering::Release);
        self.executor.join();
        FrontendStats {
            // ordering: Acquire pairs with the task's Release fetch_add
            // (read before `admitted`, as in stats()).
            completed: self.shared.completed.load(Ordering::Acquire),
            // ordering: bounded below by `completed` via the Acquire above.
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            // ordering: monotone shed counter, read for display only.
            shed_queue_full: self.shared.shed_queue_full.load(Ordering::Relaxed),
            shed_latency: self.shared.shed_latency.load(Ordering::Relaxed), // ordering: display counter
            // ordering: pairs with the AcqRel claim RMWs in submit().
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
        }
    }
}

/// One logical client: drive the service's non-blocking seam to an
/// answer. Leaders run the optimization inline on the worker (that *is*
/// the deduplicated work); followers await the flight wakerfully; an
/// aborted flight (leader died) retries — the retry re-checks the cache
/// and may inherit leadership.
async fn run_one(service: &QueryService, query: &Query) -> Result<ServiceResponse, ServiceError> {
    loop {
        match service.try_run(query)? {
            TryRun::Done(response) => return Ok(response),
            TryRun::Leader(guard) => return service.complete_miss(guard),
            TryRun::Follower(waiter) => match (FlightFuture { waiter }).await {
                Ok(response) => return Ok(response),
                Err(FlightError::Failed(e)) => return Err(e),
                Err(FlightError::Aborted) => continue,
            },
        }
    }
}

/// Adapts a [`MissWaiter`] to a [`Future`]: pending registers the task's
/// waker with the flight, so resolution re-queues the task directly.
struct FlightFuture {
    waiter: MissWaiter,
}

impl Future for FlightFuture {
    type Output = sqo_service::FlightResult;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.waiter.poll(cx.waker()) {
            Some(outcome) => Poll::Ready(outcome),
            None => Poll::Pending,
        }
    }
}
