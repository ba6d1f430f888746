//! The open-loop phase: one generator thread submits reads to
//! `Frontend::submit` on a Poisson schedule, whether or not earlier ones
//! have finished, while `nproc - 1` frontend workers serve them. The
//! frontend has no write entry point, so a mixed stream's writes are
//! skipped here: its reads run against the database the closed loop left.
//!
//! Each read is timed from when it was due until the generator saw its
//! completion (the generator polls the oldest outstanding request whenever
//! no arrival is due). That observed time splits into the generator's lag
//! (due until `submit` returned), the frontend's `Completion::latency_us`
//! (from the task's first poll) and the rest, the wait: time in the
//! frontend's run queue plus the wake-up of an idle worker plus the delay
//! until the generator looked.
//!
//! The reported latency is lag plus completion latency, so a generator stall
//! is charged to every request it delays. The wait is left out of it: on a
//! VM whose worker vCPU halts between requests, it is mostly the host's
//! wake-up of that vCPU. At `churn_reads` rates its p90 moved between 0.2
//! and 1.5 ms from run to run on a 2-vCPU VM, against 10 to 15 us at
//! `hot_reads` rates, where the worker never idles long. Whether a rate
//! keeps up (`meets`) is judged on the observed time, so queueing still
//! fails a rate that cannot be served.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_frontend::{Frontend, FrontendConfig, ResponseHandle};
use sqo_workload::MixedOp;

use crate::closed::{capture, Captured, Ctx};
use crate::hist::Hist;
use crate::trace::{self, Kind, ThreadTrace};
use crate::window::Windows;

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    pub errors: Vec<String>,
    /// Lag plus completion latency, nanoseconds, by the window the
    /// completion was collected in.
    pub latency: Option<Windows>,
    /// Due time until the generator saw the completion, nanoseconds, by
    /// window.
    pub observed: Option<Windows>,
    /// Due time to `submit` returning.
    pub lag: Hist,
    pub submit: Hist,
    /// `Completion::latency_us`, in microseconds.
    pub completion_us: Hist,
    /// Observed time minus lag minus completion latency, nanoseconds.
    pub wait: Hist,
    /// Completed reads.
    pub completed: u64,
    /// From the first due time to the last collected completion, seconds.
    pub active_secs: f64,
    /// Requests still outstanding when the last one fell due.
    pub backlog: u64,
    pub sf_leaders: u64,
    pub sf_followers: u64,
    pub captured: Captured,
    pub trace: Option<ThreadTrace>,
}

impl Outcome {
    /// Adds a later stretch at the same rate: its counts and backlog add to
    /// this one's and its windows follow this one's.
    pub fn absorb(&mut self, later: Outcome) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.shed += later.shed;
        self.errors.extend(later.errors);
        append(&mut self.latency, later.latency);
        append(&mut self.observed, later.observed);
        self.lag.merge(&later.lag);
        self.submit.merge(&later.submit);
        self.completion_us.merge(&later.completion_us);
        self.wait.merge(&later.wait);
        self.completed += later.completed;
        self.active_secs += later.active_secs;
        self.backlog += later.backlog;
        self.sf_leaders += later.sf_leaders;
        self.sf_followers += later.sf_followers;
    }

    /// Completed reads per second while requests were due or outstanding.
    pub fn achieved(&self) -> f64 {
        self.completed as f64 / self.active_secs.max(1e-9)
    }

    /// Whether the rung met the p90 limit, on observed time, without a
    /// growing backlog: when the last request of each stretch fell due, at
    /// most 2 % of the rung's requests may still have been outstanding.
    pub fn meets(&self, p90_limit_us: f64) -> bool {
        self.failed == 0
            && self.observed_p(0.9) <= p90_limit_us * 1e3
            && self.backlog * 50 <= self.attempted.max(50)
    }

    /// Median over windows of the `q`-quantile read latency, nanoseconds.
    pub fn p(&self, q: f64) -> f64 {
        self.latency.as_ref().map_or(0.0, |w| w.median_quantile(q))
    }

    /// Median over windows of the `q`-quantile observed time, nanoseconds.
    pub fn observed_p(&self, q: f64) -> f64 {
        self.observed.as_ref().map_or(0.0, |w| w.median_quantile(q))
    }
}

fn append(windows: &mut Option<Windows>, later: Option<Windows>) {
    match (windows.as_mut(), later) {
        (Some(w), Some(l)) => w.append(l),
        (None, l) => *windows = l,
        (Some(_), None) => {}
    }
}

struct Pending {
    due: Instant,
    lag: Duration,
    index: usize,
    req: u32,
    handle: ResponseHandle,
}

/// Offers `arrivals` (nanosecond offsets) to a fresh frontend, reading the
/// stream's reads from `offset` on, cyclically, with latencies cut into
/// `windows` windows.
pub fn run(
    ctx: &Ctx<'_>,
    workers: usize,
    arrivals: &[u64],
    offset: usize,
    windows: usize,
    traced: Option<(&trace::Shared, &'static str)>,
) -> Outcome {
    let service = ctx.service;
    let ops = &ctx.inputs.ops;
    // Deep enough that nothing is ever refused: an overloaded rung shows
    // as latency and backlog, not as failures.
    let frontend = Frontend::new(
        Arc::clone(service),
        FrontendConfig { workers, queue_depth: arrivals.len() + 1, p99_bound_us: None },
    );
    let before = service.stats();
    let mut out = Outcome {
        captured: vec![None; ctx.inputs.distinct.len()],
        trace: traced.map(|(_, pass)| ThreadTrace::new(pass, 0)),
        ..Outcome::default()
    };
    let shared = traced.map(|(shared, _)| shared);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(arrivals.len().min(1 << 16));
    let start = Instant::now() + Duration::from_millis(1);
    let span = Duration::from_nanos(arrivals.last().copied().unwrap_or(0));
    let mut latency = Windows::new(start, span.as_secs_f64(), windows);
    let mut observed = latency.clone();
    let mut last_seen = start;
    let mut next = 0usize;
    let mut cursor = offset;
    loop {
        let now = Instant::now();
        if let Some(&at) = arrivals.get(next) {
            let due = start + Duration::from_nanos(at);
            if now >= due {
                let (index, query) = loop {
                    cursor = (cursor + 1) % ops.len();
                    if let MixedOp::Read { index, query } = &ops[cursor] {
                        break (*index, query);
                    }
                };
                next += 1;
                out.attempted += 1;
                let submitted = frontend.submit(query);
                let returned = Instant::now();
                out.lag.record((returned - due).as_nanos() as u64);
                out.submit.record((returned - now).as_nanos() as u64);
                let req = match (out.trace.as_mut(), shared) {
                    (Some(tr), Some(sh)) if !tr.full() => {
                        let req = tr.next_req();
                        tr.push(sh, req, Kind::Submit, now, returned);
                        req
                    }
                    _ => 0,
                };
                match submitted {
                    Ok(handle) => {
                        pending.push_back(Pending { due, lag: returned - due, index, req, handle })
                    }
                    Err(overload) => {
                        out.failed += 1;
                        if out.errors.len() < 4 {
                            out.errors.push(format!("submit: {overload}"));
                        }
                    }
                }
                if next == arrivals.len() {
                    out.backlog = pending.len() as u64;
                }
                continue;
            }
        } else if pending.is_empty() {
            break;
        }
        let Some(done) = pending.front().and_then(|p| p.handle.try_take()) else {
            // Yield rather than spin: when the host takes a vCPU away, the
            // generator and the worker share one, and a spinning generator
            // would starve the worker it waits for.
            std::thread::yield_now();
            continue;
        };
        let Some(p) = pending.pop_front() else { continue };
        last_seen = now;
        let ns = (now - p.due).as_nanos() as u64;
        out.completion_us.record(done.latency_us);
        out.wait.record(ns.saturating_sub(p.lag.as_nanos() as u64 + done.latency_us * 1000));
        match done.result {
            Ok(response) => {
                latency.record(now, Some(p.lag.as_nanos() as u64 + done.latency_us * 1000));
                observed.record(now, Some(ns));
                capture(&mut out.captured[p.index], Some(response.data_epoch), &response.results);
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 4 {
                    out.errors.push(format!("frontend: {e}"));
                }
            }
        }
        if let (Some(tr), Some(sh)) = (out.trace.as_mut(), shared) {
            if !tr.full() {
                tr.push(sh, p.req, Kind::FeRequest, p.due, now);
            }
        }
    }
    let stats = frontend.shutdown();
    let after = service.stats();
    out.completed = latency.latency().count();
    out.active_secs = (last_seen - start).as_secs_f64();
    out.latency = Some(latency);
    out.observed = Some(observed);
    out.shed = stats.shed_queue_full + stats.shed_latency;
    out.sf_leaders = after.singleflight_leaders - before.singleflight_leaders;
    out.sf_followers = after.singleflight_followers - before.singleflight_followers;
    out
}
