//! Predicates: the atoms the whole optimizer manipulates.
//!
//! Two shapes, matching the paper's query format:
//! * **selective** predicates `class.attr op constant`;
//! * **join** predicates `classA.attr op classB.attr`.
//!
//! Both are kept in a canonical form so that structural equality coincides
//! with logical equality for the fragment the paper uses: selective
//! predicates normalize their [`ValueSet`] (`x > 3` ≡ `x >= 4` over ints) and
//! join predicates order their operands.

use std::cmp::Ordering;
use std::fmt;

use sqo_catalog::{AttrRef, Catalog, ClassId, Value};

use crate::interval::ValueSet;

/// Comparison operators of the paper's Horn-clause fragment
/// (`equal`, `greaterThanOrEqualTo`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompOp {
    /// All operators, for generators and exhaustive tests.
    pub const ALL: [CompOp; 6] =
        [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];

    /// Truth of `a op b` given `a.cmp(b)`.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Ne => ord != Ordering::Equal,
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Le => ord != Ordering::Greater,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator `op'` with `a op b ⇔ b op' a`.
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Ne => CompOp::Ne,
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ge => CompOp::Le,
        }
    }

    /// Logical negation.
    pub fn negate(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Ne,
            CompOp::Ne => CompOp::Eq,
            CompOp::Lt => CompOp::Ge,
            CompOp::Le => CompOp::Gt,
            CompOp::Gt => CompOp::Le,
            CompOp::Ge => CompOp::Lt,
        }
    }

    /// `self` implies `other` for the *same* operand pair: for every ordering
    /// `o`, `self.eval(o) → other.eval(o)`.
    pub fn implies(self, other: CompOp) -> bool {
        [Ordering::Less, Ordering::Equal, Ordering::Greater]
            .into_iter()
            .all(|o| !self.eval(o) || other.eval(o))
    }

    /// Whether an equality-only (hash) index can serve this operator.
    pub fn is_equality(self) -> bool {
        matches!(self, CompOp::Eq)
    }

    /// Whether the operator constrains a contiguous range (servable by a
    /// B-tree index).
    pub fn is_range(self) -> bool {
        !matches!(self, CompOp::Ne)
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A selective predicate `class.attr op constant`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SelPredicate {
    pub attr: AttrRef,
    pub op: CompOp,
    pub value: Value,
}

impl SelPredicate {
    pub fn new(attr: AttrRef, op: CompOp, value: Value) -> Self {
        Self { attr, op, value }
    }

    /// The set of attribute values satisfying the predicate.
    pub fn value_set(&self) -> ValueSet {
        match self.op {
            CompOp::Eq => ValueSet::point(self.value.clone()),
            CompOp::Ne => ValueSet::hole(self.value.clone()),
            CompOp::Lt => ValueSet::less_than(self.value.clone()),
            CompOp::Le => ValueSet::at_most(self.value.clone()),
            CompOp::Gt => ValueSet::greater_than(self.value.clone()),
            CompOp::Ge => ValueSet::at_least(self.value.clone()),
        }
    }

    /// Evaluates against a concrete attribute value.
    pub fn eval(&self, v: &Value) -> bool {
        match v.compare(&self.value) {
            Some(ord) => self.op.eval(ord),
            None => false,
        }
    }

    /// Logical implication `self → other`. Only predicates over the same
    /// attribute can imply one another.
    pub fn implies(&self, other: &SelPredicate) -> bool {
        self.attr == other.attr && self.value_set().subset_of(&other.value_set())
    }

    /// Provable unsatisfiability of `self ∧ other` (same attribute only).
    pub fn contradicts(&self, other: &SelPredicate) -> bool {
        self.attr == other.attr && self.value_set().disjoint_from(&other.value_set())
    }

    /// Never satisfiable on its own (empty value set).
    pub fn is_unsatisfiable(&self) -> bool {
        self.value_set().is_empty()
    }
}

/// A join predicate `left.attr op right.attr` between two classes.
///
/// Canonical form: `left <= right` in `(ClassId, AttrId)` order, flipping the
/// operator as needed, so `a.x < b.y` and `b.y > a.x` are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinPredicate {
    pub left: AttrRef,
    pub op: CompOp,
    pub right: AttrRef,
}

impl JoinPredicate {
    pub fn new(left: AttrRef, op: CompOp, right: AttrRef) -> Self {
        if (right.class, right.attr) < (left.class, left.attr) {
            Self { left: right, op: op.flip(), right: left }
        } else {
            Self { left, op, right }
        }
    }

    pub fn eval(&self, left: &Value, right: &Value) -> bool {
        match left.compare(right) {
            Some(ord) => self.op.eval(ord),
            None => false,
        }
    }

    /// Implication between join predicates over the same attribute pair.
    pub fn implies(&self, other: &JoinPredicate) -> bool {
        self.left == other.left && self.right == other.right && self.op.implies(other.op)
    }

    pub fn involves(&self, class: ClassId) -> bool {
        self.left.class == class || self.right.class == class
    }

    pub fn classes(&self) -> (ClassId, ClassId) {
        (self.left.class, self.right.class)
    }
}

/// Any predicate — the column domain of the paper's transformation table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    Sel(SelPredicate),
    Join(JoinPredicate),
}

impl Predicate {
    pub fn sel(attr: AttrRef, op: CompOp, value: impl Into<Value>) -> Self {
        Predicate::Sel(SelPredicate::new(attr, op, value.into()))
    }

    pub fn join(left: AttrRef, op: CompOp, right: AttrRef) -> Self {
        Predicate::Join(JoinPredicate::new(left, op, right))
    }

    /// The classes the predicate mentions (1 for selective, 1–2 for joins).
    pub fn classes(&self) -> Vec<ClassId> {
        match self {
            Predicate::Sel(p) => vec![p.attr.class],
            Predicate::Join(p) => {
                let (a, b) = p.classes();
                if a == b {
                    vec![a]
                } else {
                    vec![a, b]
                }
            }
        }
    }

    pub fn involves(&self, class: ClassId) -> bool {
        match self {
            Predicate::Sel(p) => p.attr.class == class,
            Predicate::Join(p) => p.involves(class),
        }
    }

    /// Logical implication within the supported fragment.
    pub fn implies(&self, other: &Predicate) -> bool {
        match (self, other) {
            (Predicate::Sel(a), Predicate::Sel(b)) => a.implies(b),
            (Predicate::Join(a), Predicate::Join(b)) => a.implies(b),
            _ => false,
        }
    }

    /// Whether the predicate's attribute(s) carry an index. For joins we ask
    /// about either side — an index on one side suffices for an index-nested-
    /// loop join.
    pub fn is_indexed(&self, catalog: &Catalog) -> bool {
        match self {
            Predicate::Sel(p) => catalog.is_indexed(p.attr),
            Predicate::Join(p) => catalog.is_indexed(p.left) || catalog.is_indexed(p.right),
        }
    }

    pub fn as_sel(&self) -> Option<&SelPredicate> {
        match self {
            Predicate::Sel(p) => Some(p),
            _ => None,
        }
    }

    pub fn as_join(&self) -> Option<&JoinPredicate> {
        match self {
            Predicate::Join(p) => Some(p),
            _ => None,
        }
    }

    /// Renders with catalog names (`cargo.desc = "frozen food"`).
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> PredicateDisplay<'a> {
        PredicateDisplay { pred: self, catalog }
    }
}

impl From<SelPredicate> for Predicate {
    fn from(p: SelPredicate) -> Self {
        Predicate::Sel(p)
    }
}

impl From<JoinPredicate> for Predicate {
    fn from(p: JoinPredicate) -> Self {
        Predicate::Join(p)
    }
}

/// Name-resolved pretty printer for predicates.
#[derive(Debug)]
pub struct PredicateDisplay<'a> {
    pred: &'a Predicate,
    catalog: &'a Catalog,
}

impl fmt::Display for PredicateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pred {
            Predicate::Sel(p) => {
                write!(f, "{} {} {}", self.catalog.qualified_attr_name(p.attr), p.op, p.value)
            }
            Predicate::Join(p) => write!(
                f,
                "{} {} {}",
                self.catalog.qualified_attr_name(p.left),
                p.op,
                self.catalog.qualified_attr_name(p.right)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, ClassId};

    fn aref(c: u32, a: u32) -> AttrRef {
        AttrRef::new(ClassId(c), AttrId(a))
    }

    #[test]
    fn op_eval_table() {
        use Ordering::*;
        assert!(CompOp::Eq.eval(Equal) && !CompOp::Eq.eval(Less));
        assert!(CompOp::Ne.eval(Less) && !CompOp::Ne.eval(Equal));
        assert!(CompOp::Le.eval(Less) && CompOp::Le.eval(Equal) && !CompOp::Le.eval(Greater));
        assert!(CompOp::Gt.eval(Greater) && !CompOp::Gt.eval(Equal));
    }

    #[test]
    fn op_flip_round_trips() {
        for op in CompOp::ALL {
            assert_eq!(op.flip().flip(), op);
        }
        assert_eq!(CompOp::Lt.flip(), CompOp::Gt);
        assert_eq!(CompOp::Le.flip(), CompOp::Ge);
    }

    #[test]
    fn op_negate_is_involution_and_complements() {
        use Ordering::*;
        for op in CompOp::ALL {
            assert_eq!(op.negate().negate(), op);
            for o in [Less, Equal, Greater] {
                assert_eq!(op.eval(o), !op.negate().eval(o));
            }
        }
    }

    #[test]
    fn op_implication_lattice() {
        assert!(CompOp::Eq.implies(CompOp::Le));
        assert!(CompOp::Eq.implies(CompOp::Ge));
        assert!(CompOp::Lt.implies(CompOp::Le));
        assert!(CompOp::Lt.implies(CompOp::Ne));
        assert!(CompOp::Gt.implies(CompOp::Ne));
        assert!(!CompOp::Le.implies(CompOp::Lt));
        assert!(!CompOp::Ne.implies(CompOp::Lt));
        for op in CompOp::ALL {
            assert!(op.implies(op));
        }
    }

    #[test]
    fn sel_predicate_eval() {
        let p = SelPredicate::new(aref(0, 1), CompOp::Ge, Value::Int(10));
        assert!(p.eval(&Value::Int(10)));
        assert!(p.eval(&Value::Int(11)));
        assert!(!p.eval(&Value::Int(9)));
        assert!(!p.eval(&Value::str("10"))); // type mismatch is false
    }

    #[test]
    fn sel_implication_across_ops() {
        let gt15 = SelPredicate::new(aref(0, 1), CompOp::Gt, Value::Int(15));
        let gt10 = SelPredicate::new(aref(0, 1), CompOp::Gt, Value::Int(10));
        let ge16 = SelPredicate::new(aref(0, 1), CompOp::Ge, Value::Int(16));
        assert!(gt15.implies(&gt10));
        assert!(!gt10.implies(&gt15));
        assert!(gt15.implies(&ge16) && ge16.implies(&gt15));
        // Different attribute: never.
        let other = SelPredicate::new(aref(0, 2), CompOp::Gt, Value::Int(10));
        assert!(!gt15.implies(&other));
        // eq implies ne of a different point.
        let eq_a = SelPredicate::new(aref(0, 1), CompOp::Eq, Value::Int(1));
        let ne_b = SelPredicate::new(aref(0, 1), CompOp::Ne, Value::Int(2));
        assert!(eq_a.implies(&ne_b));
    }

    #[test]
    fn sel_contradiction() {
        let eq_a = SelPredicate::new(aref(0, 1), CompOp::Eq, Value::str("SFI"));
        let eq_b = SelPredicate::new(aref(0, 1), CompOp::Eq, Value::str("NTUC"));
        assert!(eq_a.contradicts(&eq_b));
        assert!(!eq_a.contradicts(&eq_a));
        let lt = SelPredicate::new(aref(0, 1), CompOp::Lt, Value::Int(5));
        let gt = SelPredicate::new(aref(0, 1), CompOp::Gt, Value::Int(5));
        assert!(lt.contradicts(&gt));
    }

    #[test]
    fn join_predicate_canonical_form() {
        let a = JoinPredicate::new(aref(2, 0), CompOp::Lt, aref(1, 3));
        let b = JoinPredicate::new(aref(1, 3), CompOp::Gt, aref(2, 0));
        assert_eq!(a, b);
        assert_eq!(a.left, aref(1, 3));
        assert_eq!(a.op, CompOp::Gt);
    }

    #[test]
    fn join_predicate_eval_and_implication() {
        // driver.license_class >= vehicle.class (constraint c3's consequent)
        let ge = JoinPredicate::new(aref(0, 0), CompOp::Ge, aref(1, 1));
        assert!(ge.eval(&Value::Int(3), &Value::Int(2)));
        assert!(!ge.eval(&Value::Int(1), &Value::Int(2)));
        let gt = JoinPredicate::new(aref(0, 0), CompOp::Gt, aref(1, 1));
        assert!(gt.implies(&ge));
        assert!(!ge.implies(&gt));
    }

    #[test]
    fn predicate_classes() {
        let s = Predicate::sel(aref(4, 0), CompOp::Eq, 3i64);
        assert_eq!(s.classes(), vec![ClassId(4)]);
        let j = Predicate::join(aref(1, 0), CompOp::Eq, aref(2, 0));
        assert_eq!(j.classes(), vec![ClassId(1), ClassId(2)]);
        assert!(j.involves(ClassId(2)) && !j.involves(ClassId(3)));
        let self_join = Predicate::join(aref(1, 0), CompOp::Lt, aref(1, 1));
        assert_eq!(self_join.classes(), vec![ClassId(1)]);
    }

    #[test]
    fn structural_equality_of_normalized_sets() {
        // x > 3 and x >= 4 have equal value sets, though different literals.
        let gt3 = SelPredicate::new(aref(0, 0), CompOp::Gt, Value::Int(3));
        let ge4 = SelPredicate::new(aref(0, 0), CompOp::Ge, Value::Int(4));
        assert_eq!(gt3.value_set().normalize(), ge4.value_set().normalize());
        assert!(gt3.implies(&ge4) && ge4.implies(&gt3));
    }
}
