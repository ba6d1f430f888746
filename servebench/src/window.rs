//! A phase cut into equal time windows. On a shared machine throughput and
//! latency drift from one second to the next, and the host stalls a vCPU
//! now and then, so a rate or an open-loop percentile is taken per window
//! and the run reports the median over windows: a transient slow spell or
//! stall moves a few windows, not the result. Such a percentile is a typical
//! window's, so a tail confined to fewer than half of the windows does not
//! move it.

use std::time::{Duration, Instant};

use crate::hist::Hist;

/// Windows per phase, over all of its stretches.
pub const WINDOWS: usize = 20;

#[derive(Clone, Default)]
pub struct Slot {
    pub ops: u64,
    pub latency: Hist,
}

#[derive(Clone)]
pub struct Windows {
    start: Instant,
    width: Duration,
    slots: Vec<Slot>,
}

impl Windows {
    /// `n` windows covering `secs` seconds from `start`.
    pub fn new(start: Instant, secs: f64, n: usize) -> Self {
        let n = n.max(1);
        Self {
            start,
            width: Duration::from_secs_f64(secs / n as f64),
            slots: vec![Slot::default(); n],
        }
    }

    /// One op completed at `at`, with its latency when it is one whose
    /// latency is reported.
    pub fn record(&mut self, at: Instant, latency_ns: Option<u64>) {
        let i = (at.saturating_duration_since(self.start).as_nanos() / self.width.as_nanos().max(1))
            as usize;
        let last = self.slots.len() - 1;
        let slot = &mut self.slots[i.min(last)];
        slot.ops += 1;
        if let Some(ns) = latency_ns {
            slot.latency.record(ns);
        }
    }

    /// Appends the windows of a later stretch of the same phase, of the
    /// same window width.
    pub fn append(&mut self, other: Windows) {
        self.slots.extend(other.slots);
    }

    /// Adds another client's windows, window by window.
    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.ops += b.ops;
            a.latency.merge(&b.latency);
        }
    }

    /// Median over windows of ops per second.
    pub fn median_rate(&self) -> f64 {
        let width = self.width.as_secs_f64().max(1e-9);
        median(self.slots.iter().map(|s| s.ops as f64 / width).collect())
    }

    /// Median over windows with samples of the windowed `q`-quantile.
    pub fn median_quantile(&self, q: f64) -> f64 {
        median(
            self.slots
                .iter()
                .filter(|s| s.latency.count() > 0)
                .map(|s| s.latency.quantile(q))
                .collect(),
        )
    }

    /// All windows' latencies together.
    pub fn latency(&self) -> Hist {
        let mut all = Hist::default();
        for s in &self.slots {
            all.merge(&s.latency);
        }
        all
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
