//! The traced run's spans: recorded by the benchmark around its calls into
//! each layer's public functions, kept in memory, aggregated into per-layer
//! metrics and written out when the run ends.

use std::hint::black_box;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

use sqo_core::{OptimizerScratch, SemanticOptimizer};
use sqo_exec::{
    execute_with, plan_query_shared, CostBasedOracle, CostModel, ExecScratch, PhysicalPlan,
    ResultSet,
};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_storage::{CostCounters, Database};

/// Spans one client thread may hold; a traced phase stops a client whose
/// buffer is full, so recording never reallocates mid-phase.
pub const SPAN_CAP: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One closed-loop read: the four calls below, back to back.
    Request,
    Canonical,
    Fingerprint,
    PrepareHit,
    PrepareMiss,
    ExecuteMemo,
    ExecuteRun,
    /// Replays of a miss (or of a re-executed hit) against the same store
    /// and snapshot: they feed layer metrics, not the request's wall time.
    Optimize,
    Retrieval,
    TableInit,
    Transform,
    Formulate,
    Plan,
    Execute,
    /// One `QueryService::write` call.
    Write,
    /// One `Frontend::submit` call.
    Submit,
    /// One open-loop read, from when it was due until its completion was
    /// observed.
    FeRequest,
}

impl Kind {
    pub const ALL: [Kind; 17] = [
        Kind::Request,
        Kind::Canonical,
        Kind::Fingerprint,
        Kind::PrepareHit,
        Kind::PrepareMiss,
        Kind::ExecuteMemo,
        Kind::ExecuteRun,
        Kind::Optimize,
        Kind::Retrieval,
        Kind::TableInit,
        Kind::Transform,
        Kind::Formulate,
        Kind::Plan,
        Kind::Execute,
        Kind::Write,
        Kind::Submit,
        Kind::FeRequest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Canonical => "Query::canonical",
            Kind::Fingerprint => "Query::fingerprint_canonical",
            Kind::PrepareHit => "QueryService::prepare[hit]",
            Kind::PrepareMiss => "QueryService::prepare[miss]",
            Kind::ExecuteMemo => "QueryService::execute_prepared[memo]",
            Kind::ExecuteRun => "QueryService::execute_prepared[run]",
            Kind::Optimize => "SemanticOptimizer::optimize_with",
            Kind::Retrieval => "optimize.retrieval",
            Kind::TableInit => "optimize.table_init",
            Kind::Transform => "optimize.transform",
            Kind::Formulate => "optimize.formulate",
            Kind::Plan => "plan_query_shared",
            Kind::Execute => "execute_with",
            Kind::Write => "storage.write",
            Kind::Submit => "Frontend::submit",
            Kind::FeRequest => "fe.request",
        }
    }

    /// The span this one is a child of.
    pub fn parent(self) -> Option<Kind> {
        match self {
            Kind::Request | Kind::Write | Kind::FeRequest => None,
            Kind::Retrieval | Kind::TableInit | Kind::Transform | Kind::Formulate => {
                Some(Kind::Optimize)
            }
            Kind::Submit => Some(Kind::FeRequest),
            _ => Some(Kind::Request),
        }
    }

    /// Replayed work: not part of the request's wall time.
    pub fn replay(self) -> bool {
        matches!(
            self,
            Kind::Optimize
                | Kind::Retrieval
                | Kind::TableInit
                | Kind::Transform
                | Kind::Formulate
                | Kind::Plan
                | Kind::Execute
        )
    }

    /// The per-layer timing this span's durations feed, if any.
    pub fn metric(self) -> Option<&'static str> {
        Some(match self {
            Kind::Canonical => "query.canonical_ns",
            Kind::Fingerprint => "query.fingerprint_ns",
            Kind::PrepareHit => "service.prepare_hit_ns",
            Kind::PrepareMiss => "service.prepare_miss_ns",
            Kind::ExecuteMemo => "service.execute_memo_ns",
            Kind::ExecuteRun => "service.execute_run_ns",
            Kind::Optimize => "core.optimize_ns",
            Kind::Retrieval => "core.retrieval_ns",
            Kind::TableInit => "core.table_init_ns",
            Kind::Transform => "core.transform_ns",
            Kind::Formulate => "core.formulate_ns",
            Kind::Plan => "exec.plan_ns",
            Kind::Execute => "exec.execute_ns",
            Kind::Write => "storage.write_ns",
            Kind::Request | Kind::Submit | Kind::FeRequest => return None,
        })
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub kind: Kind,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// State every traced client shares.
pub struct Shared {
    origin: Instant,
    /// Per distinct query, the last result any client saw. An
    /// `execute_prepared` answer that is the same allocation was served
    /// from the result memo; a new one was executed. The `Weak` keeps the
    /// allocation's address from being reused while it is remembered.
    last: Vec<Mutex<Weak<ResultSet>>>,
    config: ServiceConfig,
    model: CostModel,
}

impl Shared {
    pub fn new(origin: Instant, distinct: usize) -> Self {
        Self {
            origin,
            last: (0..distinct).map(|_| Mutex::new(Weak::new())).collect(),
            config: ServiceConfig::default(),
            model: CostModel::default(),
        }
    }

    /// Seeds the last-seen answers from an earlier phase's captures, so a
    /// query's first traced request is tagged correctly too.
    pub fn prime(&self, captured: &[crate::closed::Captured]) {
        for per_client in captured {
            for (index, slot) in per_client.iter().enumerate() {
                if let Some((_, answer)) = slot {
                    if answer.strong_count() > 0 {
                        *self.last[index].lock().unwrap_or_else(PoisonError::into_inner) =
                            answer.clone();
                    }
                }
            }
        }
    }

    /// Whether `results` is the answer last seen for query `index`.
    fn memoized(&self, index: usize, results: &Arc<ResultSet>) -> bool {
        let mut last = self.last[index].lock().unwrap_or_else(PoisonError::into_inner);
        if std::ptr::eq(last.as_ptr(), Arc::as_ptr(results)) {
            return true;
        }
        *last = Arc::downgrade(results);
        false
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// One traced client's spans and counts.
pub struct ThreadTrace {
    pub pass: &'static str,
    pub thread: usize,
    pub spans: Vec<Span>,
    next_req: u32,
    /// Replayed executions and their executor counters, summed.
    pub executions: u64,
    pub counters: CostCounters,
    pub optimizations: u64,
    pub provably_empty: u64,
    pub writes: u64,
    pub touched_classes: u64,
    /// Replayed answers that differed from the service's.
    pub replay_mismatches: u64,
    opt_scratch: OptimizerScratch,
    exec_scratch: ExecScratch,
}

impl ThreadTrace {
    pub fn new(pass: &'static str, thread: usize) -> Self {
        Self {
            pass,
            thread,
            spans: Vec::with_capacity(SPAN_CAP),
            next_req: 0,
            executions: 0,
            counters: CostCounters::default(),
            optimizations: 0,
            provably_empty: 0,
            writes: 0,
            touched_classes: 0,
            replay_mismatches: 0,
            opt_scratch: OptimizerScratch::new(),
            exec_scratch: ExecScratch::new(),
        }
    }

    /// No room for another request's spans.
    pub fn full(&self) -> bool {
        self.spans.len() + 16 > SPAN_CAP
    }

    pub fn next_req(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    pub fn push(&mut self, shared: &Shared, req: u32, kind: Kind, start: Instant, end: Instant) {
        let start_ns = shared.ns(start);
        self.spans.push(Span { req, kind, start_ns, dur_ns: shared.ns(end) - start_ns });
    }

    fn push_dur(&mut self, shared: &Shared, req: u32, kind: Kind, start: Instant, dur: Duration) {
        self.push(shared, req, kind, start, start + dur);
    }

    /// One read broken into its public calls; returns the answer and the
    /// data epoch it is known to be consistent with (`None` when a write
    /// landed during the request). A miss, or a hit that re-executed, is
    /// replayed afterwards and the replayed answer compared with the
    /// service's whenever both ran on the same snapshot.
    pub fn read(
        &mut self,
        shared: &Shared,
        service: &QueryService,
        index: usize,
        query: &Query,
    ) -> Result<(Option<u64>, Arc<ResultSet>), String> {
        let req = self.next_req();
        let epoch = service.data_epoch();
        let t0 = Instant::now();
        let canonical = black_box(query.canonical());
        let t1 = Instant::now();
        black_box(canonical.fingerprint_canonical());
        let t2 = Instant::now();
        let prepared = service.prepare(query).map_err(|e| format!("prepare: {e}"))?;
        let t3 = Instant::now();
        let results = service.execute_prepared(&prepared).map_err(|e| format!("execute: {e}"))?;
        let t4 = Instant::now();
        let memo = shared.memoized(index, &results);
        self.push(shared, req, Kind::Request, t0, t4);
        self.push(shared, req, Kind::Canonical, t0, t1);
        self.push(shared, req, Kind::Fingerprint, t1, t2);
        let prepare = if prepared.cache_hit { Kind::PrepareHit } else { Kind::PrepareMiss };
        self.push(shared, req, prepare, t2, t3);
        let execute = if memo { Kind::ExecuteMemo } else { Kind::ExecuteRun };
        self.push(shared, req, execute, t3, t4);

        // The data epoch only grows and trails the snapshot, so a snapshot
        // still at the epoch read before the request is the one the answer
        // was computed on.
        let db = service.db();
        let consistent = (db.data_version() == epoch).then_some(epoch);
        let check = consistent.map(|_| &*results);
        if !prepared.cache_hit {
            self.replay_miss(shared, service, &db, req, &canonical, check)?;
        } else if !memo {
            if let Some(plan) = prepared.plan() {
                self.replay_execute(shared, &db, req, plan, check)?;
            }
        }
        Ok((consistent, results))
    }

    /// The miss pipeline, replayed call by call against the service's
    /// current store and snapshot.
    fn replay_miss(
        &mut self,
        shared: &Shared,
        service: &QueryService,
        db: &Database,
        req: u32,
        canonical: &Query,
        served: Option<&ResultSet>,
    ) -> Result<(), String> {
        let optimizer =
            SemanticOptimizer::shared_with_config(service.store(), shared.config.optimizer);
        let oracle = CostBasedOracle::with_model(db, shared.model);
        let t0 = Instant::now();
        let out = optimizer
            .optimize_with(canonical, &oracle, &mut self.opt_scratch)
            .map_err(|e| format!("replayed optimize: {e}"))?;
        let t1 = Instant::now();
        self.push(shared, req, Kind::Optimize, t0, t1);
        let timings = out.report.timings;
        let mut at = t0;
        for (kind, dur) in [
            (Kind::Retrieval, timings.retrieval),
            (Kind::TableInit, timings.initialization),
            (Kind::Transform, timings.transformation),
            (Kind::Formulate, timings.formulation),
        ] {
            self.push_dur(shared, req, kind, at, dur);
            at += dur;
        }
        self.optimizations += 1;
        if out.report.provably_empty {
            self.provably_empty += 1;
            if served.is_some_and(|s| !s.is_empty()) {
                self.replay_mismatches += 1;
            }
            return Ok(());
        }
        let t2 = Instant::now();
        let plan = plan_query_shared(db, &out.query, &shared.model)
            .map_err(|e| format!("replayed plan: {e}"))?;
        self.push(shared, req, Kind::Plan, t2, Instant::now());
        self.replay_execute(shared, db, req, &plan, served)
    }

    fn replay_execute(
        &mut self,
        shared: &Shared,
        db: &Database,
        req: u32,
        plan: &PhysicalPlan,
        served: Option<&ResultSet>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let (results, counters) = execute_with(db, plan, &mut self.exec_scratch)
            .map_err(|e| format!("replayed execute: {e}"))?;
        self.push(shared, req, Kind::Execute, t0, Instant::now());
        self.executions += 1;
        self.counters.add(&counters);
        if served.is_some_and(|s| !results.same_multiset(s)) {
            self.replay_mismatches += 1;
        }
        Ok(())
    }
}

/// Writes every span as one tab-separated line.
pub fn dump(path: &std::path::Path, header: &str, traces: &[ThreadTrace]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "pass\tthread\treq\tspan\tparent\treplay\tstart_ns\tdur_ns")?;
    for t in traces {
        for s in &t.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.pass,
                t.thread,
                s.req,
                s.kind.name(),
                s.kind.parent().map_or("-", Kind::name),
                u8::from(s.kind.replay()),
                s.start_ns,
                s.dur_ns
            )?;
        }
    }
    out.flush()
}
