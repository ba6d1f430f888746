//! The closed-loop phase: `clients` threads, each sending its next request
//! only after the previous one answered, through `QueryService::run` and
//! `QueryService::write`.

use std::sync::{Arc, Barrier, Weak};
use std::time::{Duration, Instant};

use sqo_exec::ResultSet;
use sqo_service::QueryService;
use sqo_workload::MixedOp;

use crate::hist::Hist;
use crate::spec::{Inputs, Writer};
use crate::trace::{self, Kind, ThreadTrace};
use crate::window::Windows;

/// The last answer a client saw for each distinct query, with the data
/// epoch it is consistent with (`None` when unknown). Held weakly, so the
/// benchmark keeps no answer alive that the service has let go of; the gate
/// checks those the service still holds.
pub type Captured = Vec<Option<(Option<u64>, Weak<ResultSet>)>>;

/// Records `results`, consistent with data epoch `epoch`, as the last answer
/// seen for one query. A memo hit serves the allocation already held, so
/// then this is a pointer compare and a plain store: the timed loop adds no
/// atomic on the answer's reference counts, which the service's own clone
/// touches.
pub fn capture(
    slot: &mut Option<(Option<u64>, Weak<ResultSet>)>,
    epoch: Option<u64>,
    results: &Arc<ResultSet>,
) {
    match slot {
        Some((at, held)) if std::ptr::eq(held.as_ptr(), Arc::as_ptr(results)) => *at = epoch,
        _ => *slot = Some((epoch, Arc::downgrade(results))),
    }
}

pub struct Ctx<'a> {
    pub service: &'a Arc<QueryService>,
    pub inputs: &'a Inputs,
    pub writer: Option<&'a Writer>,
}

#[derive(Default)]
pub struct Outcome {
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Sum over clients of each client's completed ops per second.
    pub qps: f64,
    /// Ops of all clients per window, with read latencies.
    pub windows: Option<Windows>,
    pub writes: Hist,
    pub captured: Vec<Captured>,
    pub traces: Vec<ThreadTrace>,
}

impl Outcome {
    /// Adds a later stretch of the same phase: its counts and write
    /// latencies add up and its windows follow this one's. Its captured
    /// answers, traces and `qps` are dropped, so check them first.
    pub fn absorb(&mut self, later: Outcome) {
        self.ops += later.ops;
        self.failed += later.failed;
        self.errors.extend(later.errors);
        match (self.windows.as_mut(), later.windows) {
            (Some(w), Some(l)) => w.append(l),
            (None, l) => self.windows = l,
            (Some(_), None) => {}
        }
        self.writes.merge(&later.writes);
    }
}

struct Client {
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    secs: f64,
    windows: Windows,
    writes: Hist,
    captured: Captured,
    trace: Option<ThreadTrace>,
    /// Stream position of the next op.
    cursor: usize,
}

/// Start positions for `clients` clients: client `c` at stream offset
/// `c * len / clients`.
pub fn cursors(ctx: &Ctx<'_>, clients: usize) -> Vec<usize> {
    (0..clients).map(|c| c * ctx.inputs.ops.len() / clients).collect()
}

/// Runs one closed-loop client per cursor for `secs` seconds, cut into
/// `windows` windows. Each client replays the stream cyclically from its
/// cursor and leaves the cursor where it stopped, so a later stretch goes
/// on where this one ended. With `traced`, each read goes through
/// [`ThreadTrace::read`] and a client also stops once its span buffer is
/// full.
pub fn run(
    ctx: &Ctx<'_>,
    cursors: &mut [usize],
    secs: f64,
    windows: usize,
    traced: Option<(&trace::Shared, &'static str)>,
) -> Result<Outcome, String> {
    let barrier = Barrier::new(cursors.len());
    let results: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = cursors
            .iter()
            .enumerate()
            .map(|(c, &cursor)| {
                let barrier = &barrier;
                let trace = traced.map(|(_, pass)| ThreadTrace::new(pass, c));
                let shared = traced.map(|(shared, _)| shared);
                scope.spawn(move || client(ctx, cursor, secs, windows, barrier, trace, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a closed-loop client panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let mut out = Outcome::default();
    for (c, cursor) in results.into_iter().zip(cursors.iter_mut()) {
        *cursor = c.cursor;
        out.ops += c.ops;
        out.failed += c.failed;
        out.errors.extend(c.errors);
        out.qps += c.ops as f64 / c.secs.max(1e-9);
        match out.windows.as_mut() {
            Some(w) => w.merge(&c.windows),
            None => out.windows = Some(c.windows),
        }
        out.writes.merge(&c.writes);
        out.captured.push(c.captured);
        out.traces.extend(c.trace);
    }
    Ok(out)
}

fn client(
    ctx: &Ctx<'_>,
    mut cursor: usize,
    secs: f64,
    windows: usize,
    barrier: &Barrier,
    mut trace: Option<ThreadTrace>,
    shared: Option<&trace::Shared>,
) -> Client {
    let ops = &ctx.inputs.ops;
    let service = ctx.service.as_ref();
    barrier.wait();
    let start = Instant::now();
    let mut out = Client {
        ops: 0,
        failed: 0,
        errors: Vec::new(),
        secs: 0.0,
        windows: Windows::new(start, secs, windows),
        writes: Hist::default(),
        captured: vec![None; ctx.inputs.distinct.len()],
        trace: None,
        cursor,
    };
    let deadline = start + Duration::from_secs_f64(secs);
    let mut t = start;
    loop {
        let op = &ops[cursor];
        cursor = (cursor + 1) % ops.len();
        let answer = match op {
            MixedOp::Read { index, query } => match (trace.as_mut(), shared) {
                (Some(tr), Some(sh)) => tr.read(sh, service, *index, query),
                _ => service
                    .run(query)
                    .map(|r| (Some(r.data_epoch), r.results))
                    .map_err(|e| format!("run: {e}")),
            }
            .map(|answer| Some((*index, answer))),
            MixedOp::Write(kind) => {
                let writer = ctx.writer.ok_or_else(|| "a write op needs a writer".to_string());
                writer.and_then(|writer| writer.apply(service, kind)).map(|w| {
                    if let (Some(tr), Some(sh)) = (trace.as_mut(), shared) {
                        let req = tr.next_req();
                        tr.push(sh, req, Kind::Write, w.started, w.started + w.write);
                        tr.writes += 1;
                        tr.touched_classes += w.touched_classes as u64;
                    }
                    None
                })
            }
        };
        let now = Instant::now();
        let nanos = (now - t).as_nanos() as u64;
        match answer {
            Ok(Some((index, answer))) => {
                out.windows.record(now, Some(nanos));
                capture(&mut out.captured[index], answer.0, &answer.1);
            }
            Ok(None) => {
                out.windows.record(now, None);
                out.writes.record(nanos);
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 4 {
                    out.errors.push(e);
                }
            }
        }
        out.ops += 1;
        t = now;
        if t >= deadline || trace.as_ref().is_some_and(ThreadTrace::full) {
            break;
        }
    }
    out.secs = (t - start).as_secs_f64();
    out.trace = trace;
    out.cursor = cursor;
    out
}
