//! Database statistics and access-frequency tracking.
//!
//! Two consumers:
//! * the conventional cost model (`sqo-exec`) needs cardinalities, min/max,
//!   distinct counts and coarse histograms for selectivity estimation;
//! * the constraint grouping scheme (paper §3) assigns each constraint to the
//!   *least frequently accessed* class it references, so the catalog keeps a
//!   monotone per-class access counter that the optimizer bumps per query.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::ids::{AttrRef, ClassId, RelId};
use crate::types::Value;

/// Per-attribute statistics, collected by the storage loader.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrStats {
    /// Number of rows observed.
    pub rows: u64,
    /// Number of distinct values observed.
    pub distinct: u64,
    /// Smallest and largest value (same `DataType` as the attribute).
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Most common values with their frequencies (descending), so skewed
    /// attributes (e.g. constraint-forced values) estimate honestly.
    pub mcvs: Vec<(Value, u64)>,
    /// Equi-width histogram over the `[min, max]` range for numeric
    /// attributes; empty for strings/bools (distinct count is used instead).
    pub histogram: Vec<u64>,
}

impl AttrStats {
    /// Estimated fraction of instances satisfying `attr = v` for an unknown
    /// `v` (uniformity assumption).
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            1.0
        } else {
            1.0 / self.distinct as f64
        }
    }

    /// Value-aware equality selectivity: exact for values tracked in the
    /// MCV list, uniform over the remaining mass otherwise.
    pub fn eq_selectivity_for(&self, v: &Value) -> f64 {
        if self.rows == 0 {
            return self.eq_selectivity();
        }
        if let Some((_, count)) = self.mcvs.iter().find(|(mv, _)| mv == v) {
            return *count as f64 / self.rows as f64;
        }
        let mcv_mass: u64 = self.mcvs.iter().map(|(_, c)| c).sum();
        let rest_rows = self.rows.saturating_sub(mcv_mass) as f64;
        let rest_distinct = self.distinct.saturating_sub(self.mcvs.len() as u64) as f64;
        if rest_distinct <= 0.0 {
            // Every distinct value is an MCV; an untracked value is absent.
            return 0.0;
        }
        (rest_rows / rest_distinct / self.rows as f64).clamp(0.0, 1.0)
    }

    /// Estimated fraction of instances with value strictly/inclusively below
    /// or above `v`, using min/max interpolation for ints/floats and a flat
    /// 1/3 default otherwise (the classic System R fallback).
    pub fn range_selectivity(&self, v: &Value, upper_bound: bool, inclusive: bool) -> f64 {
        const DEFAULT: f64 = 1.0 / 3.0;
        let (min, max) = match (&self.min, &self.max) {
            (Some(a), Some(b)) => (a, b),
            _ => return DEFAULT,
        };
        let to_f = |x: &Value| -> Option<f64> {
            match x {
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(f.get()),
                _ => None,
            }
        };
        let (Some(lo), Some(hi), Some(point)) = (to_f(min), to_f(max), to_f(v)) else {
            return DEFAULT;
        };
        if hi <= lo {
            // Degenerate domain: a single value.
            let hit = match v.compare(min) {
                Some(Ordering::Equal) => 1.0,
                Some(Ordering::Greater) if upper_bound => 1.0,
                Some(Ordering::Less) if !upper_bound => 1.0,
                _ => 0.0,
            };
            return if inclusive { hit } else { hit.min(1.0) * 0.99 };
        }
        let frac = ((point - lo) / (hi - lo)).clamp(0.0, 1.0);
        let s = if upper_bound { frac } else { 1.0 - frac };
        // A closed bound keeps the boundary value; approximate its mass by
        // one distinct value's worth.
        let adjust = if self.distinct > 0 { 1.0 / self.distinct as f64 } else { 0.0 };
        (if inclusive { s + adjust } else { s }).clamp(0.0, 1.0)
    }
}

/// Per-class statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    pub cardinality: u64,
    pub attrs: Vec<AttrStats>,
}

/// Per-relationship statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelStats {
    /// Total number of links.
    pub links: u64,
    /// Average links per left-side object.
    pub avg_left_fanout: f64,
    /// Average links per right-side object.
    pub avg_right_fanout: f64,
}

/// Snapshot of all statistics for a database instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    pub classes: Vec<ClassStats>,
    pub relationships: Vec<RelStats>,
}

impl StatsSnapshot {
    pub fn class(&self, id: ClassId) -> Option<&ClassStats> {
        self.classes.get(id.index())
    }

    pub fn cardinality(&self, id: ClassId) -> u64 {
        self.class(id).map(|c| c.cardinality).unwrap_or(0)
    }

    pub fn attr(&self, r: AttrRef) -> Option<&AttrStats> {
        self.class(r.class).and_then(|c| c.attrs.get(r.attr.index()))
    }

    pub fn relationship(&self, id: RelId) -> Option<&RelStats> {
        self.relationships.get(id.index())
    }
}

/// Monotone per-class access counters.
///
/// Thread-safe so a parallel benchmark driver can share one tracker. The
/// counters feed `AssignmentPolicy::LeastFrequentlyAccessed`
/// (`sqo-constraints`).
#[derive(Debug, Default)]
pub struct AccessTracker {
    counts: Vec<AtomicU64>,
}

impl AccessTracker {
    pub fn new(class_count: usize) -> Self {
        Self { counts: (0..class_count).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Records one access to each class in `classes` (one optimized query).
    pub fn record<I: IntoIterator<Item = ClassId>>(&self, classes: I) {
        for c in classes {
            if let Some(n) = self.counts.get(c.index()) {
                // ordering: independent frequency counter; grouping reads
                // tolerate any interleaving, no cross-data ordering needed.
                n.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }

    pub fn count(&self, class: ClassId) -> u64 {
        // ordering: advisory read of a monotone counter.
        self.counts.get(class.index()).map(|n| n.load(AtomicOrdering::Relaxed)).unwrap_or(0)
    }

    /// Pre-seeds counters (e.g. from a historical trace) so the grouping
    /// policy has signal before the first query runs.
    pub fn seed(&self, class: ClassId, count: u64) {
        if let Some(n) = self.counts.get(class.index()) {
            // ordering: pre-warm write; racing readers may see either
            // value and both are valid advisory signals.
            n.store(count, AtomicOrdering::Relaxed);
        }
    }

    /// The least frequently accessed class among `candidates`; ties break
    /// toward the smaller id for determinism. Returns `None` on empty input.
    pub fn least_accessed(&self, candidates: &[ClassId]) -> Option<ClassId> {
        candidates.iter().copied().min_by_key(|c| (self.count(*c), c.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_selectivity_uses_distinct() {
        let s = AttrStats { distinct: 4, ..Default::default() };
        assert!((s.eq_selectivity() - 0.25).abs() < 1e-12);
        let z = AttrStats::default();
        assert_eq!(z.eq_selectivity(), 1.0);
    }

    #[test]
    fn value_aware_selectivity_respects_mcvs() {
        let s = AttrStats {
            rows: 100,
            distinct: 11,
            mcvs: vec![(Value::str("hot"), 40)],
            ..Default::default()
        };
        // The skewed value gets its true frequency…
        assert!((s.eq_selectivity_for(&Value::str("hot")) - 0.4).abs() < 1e-12);
        // …while the rest share the remaining mass uniformly: 60 rows over
        // 10 remaining distinct values = 6 rows each.
        let cold = s.eq_selectivity_for(&Value::str("cold"));
        assert!((cold - 0.06).abs() < 1e-12, "cold = {cold}");
    }

    #[test]
    fn value_aware_selectivity_with_full_mcv_coverage() {
        let s = AttrStats {
            rows: 10,
            distinct: 2,
            mcvs: vec![(Value::Int(1), 7), (Value::Int(2), 3)],
            ..Default::default()
        };
        assert_eq!(s.eq_selectivity_for(&Value::Int(1)), 0.7);
        // An untracked value cannot exist: every distinct value is an MCV.
        assert_eq!(s.eq_selectivity_for(&Value::Int(9)), 0.0);
    }

    #[test]
    fn value_aware_selectivity_falls_back_without_rows() {
        let s = AttrStats { distinct: 4, ..Default::default() };
        assert!((s.eq_selectivity_for(&Value::Int(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let s = AttrStats {
            rows: 100,
            distinct: 100,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(100)),
            mcvs: vec![],
            histogram: vec![],
        };
        let sel = s.range_selectivity(&Value::Int(25), true, false);
        assert!((sel - 0.25).abs() < 0.02, "sel = {sel}");
        let sel_hi = s.range_selectivity(&Value::Int(25), false, false);
        assert!((sel_hi - 0.75).abs() < 0.02, "sel = {sel_hi}");
    }

    #[test]
    fn range_selectivity_clamps_out_of_domain() {
        let s = AttrStats {
            rows: 10,
            distinct: 10,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(10)),
            mcvs: vec![],
            histogram: vec![],
        };
        assert_eq!(s.range_selectivity(&Value::Int(-5), true, true), 0.1);
        assert_eq!(s.range_selectivity(&Value::Int(50), true, false), 1.0);
    }

    #[test]
    fn range_selectivity_falls_back_for_strings() {
        let s = AttrStats {
            rows: 10,
            distinct: 10,
            min: Some(Value::str("a")),
            max: Some(Value::str("z")),
            mcvs: vec![],
            histogram: vec![],
        };
        let sel = s.range_selectivity(&Value::str("m"), true, true);
        assert!((sel - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn access_tracker_counts_and_ranks() {
        let t = AccessTracker::new(3);
        t.record([ClassId(0), ClassId(1)]);
        t.record([ClassId(0)]);
        assert_eq!(t.count(ClassId(0)), 2);
        assert_eq!(t.count(ClassId(1)), 1);
        assert_eq!(t.count(ClassId(2)), 0);
        assert_eq!(t.least_accessed(&[ClassId(0), ClassId(1), ClassId(2)]), Some(ClassId(2)));
        // Ties break toward the smaller id.
        let t2 = AccessTracker::new(2);
        assert_eq!(t2.least_accessed(&[ClassId(1), ClassId(0)]), Some(ClassId(0)));
        assert_eq!(t2.least_accessed(&[]), None);
    }

    #[test]
    fn snapshot_accessors() {
        let snap = StatsSnapshot {
            classes: vec![ClassStats { cardinality: 7, attrs: vec![AttrStats::default()] }],
            relationships: vec![RelStats { links: 3, avg_left_fanout: 1.5, avg_right_fanout: 3.0 }],
        };
        assert_eq!(snap.cardinality(ClassId(0)), 7);
        assert_eq!(snap.cardinality(ClassId(9)), 0);
        assert!(snap.attr(AttrRef::new(ClassId(0), crate::ids::AttrId(0))).is_some());
        assert_eq!(snap.relationship(RelId(0)).unwrap().links, 3);
    }
}
