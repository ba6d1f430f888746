//! Attribute indexes: hash (equality) and B-tree (equality + range).
//!
//! Values within one index are homogeneous (one attribute, one type), but
//! Rust's `BTreeMap` needs a total order over the key type, so [`OrdValue`]
//! extends `Value`'s within-type order with a type-discriminant tiebreak.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound as StdBound;

use sqo_catalog::{IndexKind, Value};
use sqo_query::{Bound, ValueSet};

use crate::object::ObjectId;

/// Total-order wrapper for `Value` (type discriminant first, then value).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrdValue(pub Value);

/// [`OrdValue`]'s total order on borrowed values: `Value::compare` within a
/// type, the type discriminant across types.
pub(crate) fn total_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
    a.compare(b).unwrap_or_else(|| rank(a).cmp(&rank(b)))
}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        total_cmp(&self.0, &other.0)
    }
}

/// A secondary index over one attribute of one class.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrIndex {
    Hash(HashMap<Value, Vec<ObjectId>>),
    BTree(BTreeMap<OrdValue, Vec<ObjectId>>),
}

impl AttrIndex {
    pub fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::Hash => AttrIndex::Hash(HashMap::new()),
            IndexKind::BTree => AttrIndex::BTree(BTreeMap::new()),
        }
    }

    pub fn kind(&self) -> IndexKind {
        match self {
            AttrIndex::Hash(_) => IndexKind::Hash,
            AttrIndex::BTree(_) => IndexKind::BTree,
        }
    }

    pub fn insert(&mut self, value: Value, oid: ObjectId) {
        match self {
            AttrIndex::Hash(m) => m.entry(value).or_default().push(oid),
            AttrIndex::BTree(m) => m.entry(OrdValue(value)).or_default().push(oid),
        }
    }

    /// Inserts `oid` into `value`'s posting at its sorted position, so
    /// incrementally patched indexes keep the ascending-oid posting order a
    /// from-scratch extent scan produces. (Plain [`AttrIndex::insert`] is the
    /// bulk-load path: oids arrive ascending and append.)
    pub fn insert_sorted(&mut self, value: Value, oid: ObjectId) {
        let posting = match self {
            AttrIndex::Hash(m) => m.entry(value).or_default(),
            AttrIndex::BTree(m) => m.entry(OrdValue(value)).or_default(),
        };
        let at = posting.partition_point(|o| o.index() < oid.index());
        posting.insert(at, oid);
    }

    /// Removes `oid` from `value`'s posting; empty postings drop their key
    /// (so range probes of a patched index touch exactly the entries a
    /// rebuilt index would). Returns `false` when the entry was absent.
    pub fn remove(&mut self, value: &Value, oid: ObjectId) -> bool {
        match self {
            AttrIndex::Hash(m) => {
                let Some(posting) = m.get_mut(value) else { return false };
                let Some(at) = posting.iter().position(|&o| o == oid) else { return false };
                posting.remove(at);
                if posting.is_empty() {
                    m.remove(value);
                }
                true
            }
            AttrIndex::BTree(m) => {
                let key = OrdValue(value.clone());
                let Some(posting) = m.get_mut(&key) else { return false };
                let Some(at) = posting.iter().position(|&o| o == oid) else { return false };
                posting.remove(at);
                if posting.is_empty() {
                    m.remove(&key);
                }
                true
            }
        }
    }

    /// Equality probe; both index kinds support it.
    pub fn probe_eq(&self, value: &Value) -> &[ObjectId] {
        match self {
            AttrIndex::Hash(m) => m.get(value).map(|v| v.as_slice()).unwrap_or(&[]),
            AttrIndex::BTree(m) => {
                m.get(&OrdValue(value.clone())).map(|v| v.as_slice()).unwrap_or(&[])
            }
        }
    }

    /// Whether this index can serve `set` at all.
    pub fn supports(&self, set: &ValueSet) -> bool {
        match (self, set) {
            (_, ValueSet::Range { lo: Bound::Included(a), hi: Bound::Included(b) })
                if matches!(a.compare(b), Some(Ordering::Equal)) =>
            {
                true // point probe, fine for both kinds
            }
            (AttrIndex::Hash(_), _) => false,
            (AttrIndex::BTree(_), ValueSet::Hole(_)) => false,
            (AttrIndex::BTree(_), ValueSet::Range { .. }) => true,
        }
    }

    /// Probes the index with a value set; `None` when unsupported.
    /// The returned `probes` count feeds the page-cost model.
    pub fn probe(&self, set: &ValueSet) -> Option<IndexScanResult> {
        match set {
            ValueSet::Range { lo: Bound::Included(a), hi: Bound::Included(b) }
                if matches!(a.compare(b), Some(Ordering::Equal)) =>
            {
                Some(IndexScanResult { oids: self.probe_eq(a).to_vec(), probes: 1 })
            }
            ValueSet::Range { lo, hi } => match self {
                AttrIndex::Hash(_) => None,
                AttrIndex::BTree(m) => {
                    let to_std = |b: &Bound, _lower: bool| -> StdBound<OrdValue> {
                        match b {
                            Bound::Unbounded => StdBound::Unbounded,
                            Bound::Included(v) => StdBound::Included(OrdValue(v.clone())),
                            Bound::Excluded(v) => StdBound::Excluded(OrdValue(v.clone())),
                        }
                    };
                    let lo = to_std(lo, true);
                    let hi = to_std(hi, false);
                    // Guard against inverted ranges, which BTreeMap panics on.
                    if range_is_inverted(&lo, &hi) {
                        return Some(IndexScanResult { oids: vec![], probes: 1 });
                    }
                    let mut oids = Vec::new();
                    let mut probes = 1u64; // root-to-leaf descent
                    for (_, v) in m.range((lo, hi)) {
                        probes += 1; // leaf entry touch
                        oids.extend_from_slice(v);
                    }
                    Some(IndexScanResult { oids, probes })
                }
            },
            ValueSet::Hole(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            AttrIndex::Hash(m) => m.values().map(|v| v.len()).sum(),
            AttrIndex::BTree(m) => m.values().map(|v| v.len()).sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn range_is_inverted(lo: &StdBound<OrdValue>, hi: &StdBound<OrdValue>) -> bool {
    let (StdBound::Included(l) | StdBound::Excluded(l)) = lo else {
        return false;
    };
    let (StdBound::Included(h) | StdBound::Excluded(h)) = hi else {
        return false;
    };
    match l.cmp(h) {
        Ordering::Greater => true,
        Ordering::Equal => {
            matches!(lo, StdBound::Excluded(_)) || matches!(hi, StdBound::Excluded(_))
        }
        Ordering::Less => false,
    }
}

/// Outcome of an index probe.
#[derive(Debug, Clone)]
pub struct IndexScanResult {
    pub oids: Vec<ObjectId>,
    /// Number of index node/entry touches (feeds the cost model).
    pub probes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(kind: IndexKind) -> AttrIndex {
        let mut ix = AttrIndex::new(kind);
        for (i, v) in [5i64, 3, 7, 5, 9].into_iter().enumerate() {
            ix.insert(Value::Int(v), ObjectId(i as u32));
        }
        ix
    }

    #[test]
    fn hash_eq_probe() {
        let ix = loaded(IndexKind::Hash);
        let hits = ix.probe_eq(&Value::Int(5));
        assert_eq!(hits, &[ObjectId(0), ObjectId(3)]);
        assert!(ix.probe_eq(&Value::Int(42)).is_empty());
        assert_eq!(ix.len(), 5);
    }

    #[test]
    fn btree_range_probe() {
        let ix = loaded(IndexKind::BTree);
        let res = ix.probe(&ValueSet::at_least(Value::Int(6))).unwrap();
        let mut oids = res.oids.clone();
        oids.sort_unstable();
        assert_eq!(oids, vec![ObjectId(2), ObjectId(4)]); // values 7 and 9
        assert!(res.probes >= 2);
    }

    #[test]
    fn btree_point_probe() {
        let ix = loaded(IndexKind::BTree);
        let res = ix.probe(&ValueSet::point(Value::Int(5))).unwrap();
        assert_eq!(res.oids, vec![ObjectId(0), ObjectId(3)]);
        assert_eq!(res.probes, 1);
    }

    #[test]
    fn hash_rejects_ranges_but_takes_points() {
        let ix = loaded(IndexKind::Hash);
        assert!(ix.probe(&ValueSet::at_least(Value::Int(6))).is_none());
        assert!(!ix.supports(&ValueSet::at_least(Value::Int(6))));
        assert!(ix.supports(&ValueSet::point(Value::Int(5))));
        let res = ix.probe(&ValueSet::point(Value::Int(5))).unwrap();
        assert_eq!(res.oids.len(), 2);
    }

    #[test]
    fn holes_are_never_index_served() {
        let ix = loaded(IndexKind::BTree);
        assert!(ix.probe(&ValueSet::hole(Value::Int(5))).is_none());
    }

    #[test]
    fn inverted_range_is_empty_not_panicking() {
        let ix = loaded(IndexKind::BTree);
        let inverted = ValueSet::Range {
            lo: Bound::Included(Value::Int(9)),
            hi: Bound::Included(Value::Int(1)),
        };
        let res = ix.probe(&inverted).unwrap();
        assert!(res.oids.is_empty());
    }

    #[test]
    fn patched_postings_match_a_rebuild() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut ix = loaded(kind); // values [5, 3, 7, 5, 9] at oids 0..5
            assert!(ix.remove(&Value::Int(5), ObjectId(0)));
            ix.insert_sorted(Value::Int(5), ObjectId(1));
            assert_eq!(ix.probe_eq(&Value::Int(5)), &[ObjectId(1), ObjectId(3)]);
            // Removing the last entry drops the key entirely.
            assert!(ix.remove(&Value::Int(3), ObjectId(1)));
            assert!(ix.probe_eq(&Value::Int(3)).is_empty());
            assert!(!ix.remove(&Value::Int(3), ObjectId(1)), "already gone");
            assert!(!ix.remove(&Value::Int(42), ObjectId(0)), "unknown value");
            if kind == IndexKind::BTree {
                // The dropped key must not be touched by range probes.
                let res = ix.probe(&ValueSet::at_least(Value::Int(0))).unwrap();
                assert_eq!(res.oids.len(), 4);
            }
        }
    }

    #[test]
    fn ord_value_totality() {
        let mut vals = [
            OrdValue(Value::str("b")),
            OrdValue(Value::Int(2)),
            OrdValue(Value::Bool(true)),
            OrdValue(Value::Int(1)),
            OrdValue(Value::str("a")),
        ];
        vals.sort();
        assert_eq!(vals[0], OrdValue(Value::Bool(true)));
        assert_eq!(vals[1], OrdValue(Value::Int(1)));
        assert_eq!(vals[4], OrdValue(Value::str("b")));
    }
}
