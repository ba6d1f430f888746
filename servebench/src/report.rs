//! Metric naming, the per-layer aggregation of a traced run, the machine
//! stamp, and the output format.

use std::fmt::Write as _;

use sqo_service::ServiceStats;

use crate::hist::Hist;
use crate::open;
use crate::trace::{Kind, ThreadTrace};

/// Where a run executed and with how many threads.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    /// Closed-loop client threads (`nproc`).
    pub clients: usize,
    /// Frontend worker threads (`nproc - 1`, at least 1); the open-loop
    /// generator is the remaining thread.
    pub fe_workers: usize,
}

impl Machine {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self { nproc, cpu, clients: nproc, fe_workers: nproc.saturating_sub(1).max(1) }
    }

    pub fn stamp(&self) -> String {
        format!(
            "machine: available_parallelism {} cpu \"{}\" clients {} frontend_workers {}",
            self.nproc, self.cpu, self.clients, self.fe_workers
        )
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new() -> Self {
        Self { metrics: Vec::new(), attempted: 0, failed: 0 }
    }

    /// Adds the attempts and failures of one phase.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A ratio and its base: `name` = `num / base` (0 with no base) and
    /// `name.base` = `base`.
    pub fn ratio(&mut self, name: &str, num: f64, base: f64, unit: &'static str) {
        self.add(name, if base > 0.0 { num / base } else { 0.0 }, unit);
        self.add(&format!("{name}.base"), base, "count");
    }

    /// A timing's p50 as `name`, its p99 as `name.p99` and its sample
    /// count as `name.n`; `per_unit` converts nanoseconds to `unit`.
    pub fn timing(&mut self, name: &str, hist: &Hist, per_unit: f64, unit: &'static str) {
        self.add(name, hist.quantile(0.5) / per_unit, unit);
        self.add(&format!("{name}.p99"), hist.quantile(0.99) / per_unit, unit);
        self.add(&format!("{name}.n"), hist.count() as f64, "count");
    }

    /// Prints every metric by name and unit, then the result line.
    pub fn print(&self) {
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("{name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Durations of every span of `kind`, as a histogram.
fn spans(traces: &[ThreadTrace], kind: Kind) -> Hist {
    let mut h = Hist::default();
    for t in traces {
        for s in t.spans.iter().filter(|s| s.kind == kind) {
            h.record(s.dur_ns);
        }
    }
    h
}

/// Request-path spans that also get a 1-client twin.
const TWINS: [Kind; 7] = [
    Kind::Canonical,
    Kind::Fingerprint,
    Kind::PrepareHit,
    Kind::PrepareMiss,
    Kind::ExecuteMemo,
    Kind::ExecuteRun,
    Kind::Write,
];

/// Per-layer metrics of the traced closed-loop passes: `cn` at `nproc`
/// clients, `c1` at one client; `before`/`after` are service counters
/// around `cn`.
pub fn layers(
    report: &mut Report,
    cn: &[ThreadTrace],
    c1: &[ThreadTrace],
    before: &ServiceStats,
    after: &ServiceStats,
) {
    for kind in Kind::ALL {
        if let Some(name) = kind.metric() {
            report.timing(name, &spans(cn, kind), 1.0, "ns");
        }
    }
    for (kind, name) in TWINS.iter().filter_map(|&k| Some((k, k.metric()?))) {
        let h = spans(c1, kind);
        report.add(&format!("{name}.c1"), h.quantile(0.5), "ns");
        report.add(&format!("{name}.c1.n"), h.count() as f64, "count");
    }
    report.timing("request_ns", &spans(cn, Kind::Request), 1.0, "ns");
    report.timing("core.optimize_self_ns", &self_times(cn, Kind::Optimize), 1.0, "ns");

    // Path counts per request: the prepare span's tag, and whether a hit
    // was answered from the result memo.
    let (mut hits, mut misses, mut memo_hits) = (0u64, 0u64, 0u64);
    for t in cn {
        let mut hit = false;
        for s in &t.spans {
            match s.kind {
                Kind::PrepareHit => {
                    hits += 1;
                    hit = true;
                }
                Kind::PrepareMiss => {
                    misses += 1;
                    hit = false;
                }
                Kind::ExecuteMemo if hit => memo_hits += 1,
                _ => {}
            }
        }
    }
    report.ratio("service.plan_hit_ratio", hits as f64, (hits + misses) as f64, "ratio");
    report.ratio("service.memo_hit_ratio", memo_hits as f64, hits as f64, "ratio");
    let evictions = after.cache.evictions - before.cache.evictions;
    let lookups = after.cache.lookups - before.cache.lookups;
    report.ratio("service.evictions_per_kreq", evictions as f64 * 1e3, lookups as f64, "1/kreq");

    let sum = |f: fn(&ThreadTrace) -> u64| cn.iter().map(f).sum::<u64>() as f64;
    report.ratio(
        "core.provably_empty_ratio",
        sum(|t| t.provably_empty),
        sum(|t| t.optimizations),
        "ratio",
    );
    let examined = sum(|t| {
        let c = &t.counters;
        c.seq_tuples + c.index_entries + c.link_traversals
    });
    report.ratio("exec.examined_per_row", examined, sum(|t| t.counters.tuples_out), "entries/row");
    report.ratio(
        "exec.predicate_evals_per_exec",
        sum(|t| t.counters.predicate_evals),
        sum(|t| t.executions),
        "evals/exec",
    );
    report.ratio(
        "storage.touched_classes_per_write",
        sum(|t| t.touched_classes),
        sum(|t| t.writes),
        "classes/write",
    );
}

/// Self time of every `parent` span: its duration minus its children's.
/// A span's children are recorded right after it.
fn self_times(traces: &[ThreadTrace], parent: Kind) -> Hist {
    let mut h = Hist::default();
    for t in traces {
        let mut open: Option<(u32, u64)> = None;
        for s in &t.spans {
            if s.kind == parent {
                if let Some((_, left)) = open.take() {
                    h.record(left);
                }
                open = Some((s.req, s.dur_ns));
            } else if let Some((req, left)) = open.as_mut() {
                if *req == s.req && s.kind.parent() == Some(parent) {
                    *left = left.saturating_sub(s.dur_ns);
                }
            }
        }
        if let Some((_, left)) = open {
            h.record(left);
        }
    }
    h
}

/// Frontend and load-generator metrics of the traced open-loop pass.
pub fn frontend(report: &mut Report, fe: &open::Outcome) {
    report.timing("frontend.submit_ns", &fe.submit, 1.0, "ns");
    report.timing("frontend.completion_us", &fe.completion_us, 1.0, "us");
    report.timing("loadgen.lag_us", &fe.lag, 1e3, "us");
    report.timing("frontend.wait_us", &fe.wait, 1e3, "us");
    report.ratio("frontend.shed_ratio", fe.shed as f64, fe.attempted as f64, "ratio");
    report.ratio(
        "service.sf_follower_ratio",
        fe.sf_followers as f64,
        (fe.sf_leaders + fe.sf_followers) as f64,
        "ratio",
    );
}
