//! The query AST, mirroring the paper's five-part representation:
//!
//! ```text
//! (SELECT {projectList} {joinPredicateList} {selectivePredicateList}
//!         {relationshipList} {classList})
//! ```
//!
//! The representation is deliberately redundant (the paper keeps it "to
//! improve the clarity of our illustrations"): classes appear both in the
//! class list and inside attribute references. [`Query::validate`] enforces
//! the consistency of the parts.

use sqo_catalog::{AttrRef, Catalog, ClassId, DataType, RelId, Value};

use crate::error::QueryError;
use crate::graph::QueryGraph;
use crate::predicate::{JoinPredicate, Predicate, SelPredicate};

/// One projected attribute.
///
/// After a restriction introduction the paper annotates projections with the
/// deduced constant (`cargo.desc="frozen food"` in Figure 2.3): the attribute
/// no longer needs to be fetched because its value is known. `binding`
/// carries that constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Projection {
    pub attr: AttrRef,
    pub binding: Option<Value>,
}

impl Projection {
    pub fn plain(attr: AttrRef) -> Self {
        Self { attr, binding: None }
    }

    pub fn bound(attr: AttrRef, value: Value) -> Self {
        Self { attr, binding: Some(value) }
    }
}

/// A validated(-able) query over a [`Catalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub projections: Vec<Projection>,
    pub join_predicates: Vec<JoinPredicate>,
    pub selective_predicates: Vec<SelPredicate>,
    pub relationships: Vec<RelId>,
    pub classes: Vec<ClassId>,
}

impl Query {
    /// An empty query skeleton; use [`crate::QueryBuilder`] for ergonomic
    /// construction.
    pub fn new() -> Self {
        Self {
            projections: Vec::new(),
            join_predicates: Vec::new(),
            selective_predicates: Vec::new(),
            relationships: Vec::new(),
            classes: Vec::new(),
        }
    }

    pub fn has_class(&self, class: ClassId) -> bool {
        self.classes.contains(&class)
    }

    pub fn has_relationship(&self, rel: RelId) -> bool {
        self.relationships.contains(&rel)
    }

    /// All predicates (joins then selectives) as [`Predicate`] values — the
    /// order used when seeding the transformation table.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.join_predicates
            .iter()
            .map(|j| Predicate::Join(*j))
            .chain(self.selective_predicates.iter().cloned().map(Predicate::Sel))
    }

    pub fn predicate_count(&self) -> usize {
        self.join_predicates.len() + self.selective_predicates.len()
    }

    /// Whether `pred` appears in the query *syntactically* (canonical-form
    /// structural equality).
    pub fn contains_predicate(&self, pred: &Predicate) -> bool {
        match pred {
            Predicate::Join(j) => self.join_predicates.contains(j),
            Predicate::Sel(s) => self.selective_predicates.contains(s),
        }
    }

    /// Whether some query predicate *implies* `pred` — the implication-aware
    /// presence test used by `MatchPolicy::Implication` (DESIGN.md §3.2).
    /// Implication never holds between a join and a selective predicate, so
    /// only the matching list is consulted (and nothing is cloned — this
    /// runs once per candidate column when a transformation table is built).
    pub fn satisfies_predicate(&self, pred: &Predicate) -> bool {
        match pred {
            Predicate::Sel(b) => self.selective_predicates.iter().any(|a| a.implies(b)),
            Predicate::Join(b) => self.join_predicates.iter().any(|a| a.implies(b)),
        }
    }

    /// Classes with at least one projection on them.
    pub fn projected_classes(&self) -> Vec<ClassId> {
        let mut out: Vec<ClassId> = self.projections.iter().map(|p| p.attr.class).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The query graph over classes and relationship edges.
    pub fn graph<'a>(&'a self, catalog: &'a Catalog) -> Result<QueryGraph, QueryError> {
        QueryGraph::build(self, catalog)
    }

    /// Full validation against the catalog. Checks:
    /// 1. class list non-empty, duplicate-free; relationships duplicate-free;
    /// 2. every attribute reference resolves and its class is in the list;
    /// 3. every relationship's endpoints are in the list;
    /// 4. type agreement for comparisons;
    /// 5. connectivity of the query graph.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QueryError> {
        if self.classes.is_empty() {
            return Err(QueryError::EmptyClassList);
        }
        let mut seen = Vec::with_capacity(self.classes.len());
        for &c in &self.classes {
            catalog.class(c)?;
            if seen.contains(&c) {
                return Err(QueryError::DuplicateClass(c));
            }
            seen.push(c);
        }
        let mut seen_rels = Vec::with_capacity(self.relationships.len());
        for &r in &self.relationships {
            let def = catalog.relationship(r)?;
            if seen_rels.contains(&r) {
                return Err(QueryError::DuplicateRelationship(r));
            }
            seen_rels.push(r);
            for end in [def.left.class, def.right.class] {
                if !self.has_class(end) {
                    return Err(QueryError::RelationshipEndpointMissing { rel: r, class: end });
                }
            }
        }
        let check_attr = |attr: AttrRef| -> Result<DataType, QueryError> {
            let def = catalog.attr(attr)?;
            if !self.has_class(attr.class) {
                return Err(QueryError::ClassNotInQuery(attr.class));
            }
            Ok(def.ty)
        };
        for p in &self.projections {
            let ty = check_attr(p.attr)?;
            if let Some(b) = &p.binding {
                if b.data_type() != ty {
                    return Err(QueryError::TypeMismatch {
                        context: format!(
                            "projection binding for {} has type {}, expected {}",
                            catalog.qualified_attr_name(p.attr),
                            b.data_type(),
                            ty
                        ),
                    });
                }
            }
        }
        for s in &self.selective_predicates {
            let ty = check_attr(s.attr)?;
            if s.value.data_type() != ty {
                return Err(QueryError::TypeMismatch {
                    context: format!(
                        "predicate on {} compares {} with {}",
                        catalog.qualified_attr_name(s.attr),
                        ty,
                        s.value.data_type()
                    ),
                });
            }
        }
        for j in &self.join_predicates {
            let lt = check_attr(j.left)?;
            let rt = check_attr(j.right)?;
            if lt != rt {
                return Err(QueryError::TypeMismatch {
                    context: format!(
                        "join compares {} ({lt}) with {} ({rt})",
                        catalog.qualified_attr_name(j.left),
                        catalog.qualified_attr_name(j.right),
                    ),
                });
            }
        }
        let graph = self.graph(catalog)?;
        if !graph.is_connected() {
            return Err(QueryError::Disconnected);
        }
        Ok(())
    }

    /// Provable unsatisfiability of the selective-predicate conjunction
    /// (pairwise check — complete for the paper's single-attribute fragment).
    pub fn has_contradiction(&self) -> bool {
        for (i, a) in self.selective_predicates.iter().enumerate() {
            if a.is_unsatisfiable() {
                return true;
            }
            for b in &self.selective_predicates[i + 1..] {
                if a.contradicts(b) {
                    return true;
                }
            }
        }
        false
    }

    /// Deterministic ordering of all list parts; queries that differ only in
    /// list order normalize to the same value (used by tests and the
    /// baseline-equivalence checks).
    pub fn normalized(mut self) -> Self {
        self.projections.sort_by(|a, b| {
            (a.attr.class, a.attr.attr)
                .cmp(&(b.attr.class, b.attr.attr))
                .then_with(|| format!("{:?}", a.binding).cmp(&format!("{:?}", b.binding)))
        });
        self.projections.dedup();
        self.join_predicates.sort_by_key(|j| {
            (j.left.class, j.left.attr, j.right.class, j.right.attr, j.op.symbol())
        });
        self.join_predicates.dedup();
        self.selective_predicates.sort_by(|a, b| {
            (a.attr.class, a.attr.attr, a.op.symbol())
                .cmp(&(b.attr.class, b.attr.attr, b.op.symbol()))
                .then_with(|| format!("{}", a.value).cmp(&format!("{}", b.value)))
        });
        self.selective_predicates.dedup();
        self.relationships.sort_unstable();
        self.relationships.dedup();
        self.classes.sort_unstable();
        self.classes.dedup();
        self
    }
}

impl Default for Query {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompOp;
    use sqo_catalog::example::figure21;

    fn sample(catalog: &Catalog) -> Query {
        // Figure 2.3's original query.
        let vehicle = catalog.class_id("vehicle").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        Query {
            projections: vec![
                Projection::plain(catalog.attr_ref("vehicle", "vehicle_no").unwrap()),
                Projection::plain(catalog.attr_ref("cargo", "desc").unwrap()),
                Projection::plain(catalog.attr_ref("cargo", "quantity").unwrap()),
            ],
            join_predicates: vec![],
            selective_predicates: vec![
                SelPredicate::new(
                    catalog.attr_ref("vehicle", "desc").unwrap(),
                    CompOp::Eq,
                    Value::str("refrigerated truck"),
                ),
                SelPredicate::new(
                    catalog.attr_ref("supplier", "name").unwrap(),
                    CompOp::Eq,
                    Value::str("SFI"),
                ),
            ],
            relationships: vec![
                catalog.rel_id("collects").unwrap(),
                catalog.rel_id("supplies").unwrap(),
            ],
            classes: vec![supplier, cargo, vehicle],
        }
    }

    #[test]
    fn figure23_query_validates() {
        let cat = figure21().unwrap();
        let q = sample(&cat);
        q.validate(&cat).expect("figure 2.3 query must validate");
        assert_eq!(q.predicate_count(), 2);
        assert!(!q.has_contradiction());
    }

    #[test]
    fn validation_rejects_foreign_attribute() {
        let cat = figure21().unwrap();
        let mut q = sample(&cat);
        q.projections.push(Projection::plain(cat.attr_ref("engine", "capacity").unwrap()));
        assert_eq!(
            q.validate(&cat),
            Err(QueryError::ClassNotInQuery(cat.class_id("engine").unwrap()))
        );
    }

    #[test]
    fn validation_rejects_type_mismatch() {
        let cat = figure21().unwrap();
        let mut q = sample(&cat);
        q.selective_predicates.push(SelPredicate::new(
            cat.attr_ref("cargo", "quantity").unwrap(),
            CompOp::Eq,
            Value::str("many"),
        ));
        assert!(matches!(q.validate(&cat), Err(QueryError::TypeMismatch { .. })));
    }

    #[test]
    fn validation_rejects_missing_relationship_endpoint() {
        let cat = figure21().unwrap();
        let mut q = sample(&cat);
        q.relationships.push(cat.rel_id("drives").unwrap()); // driver not in class list
        assert!(matches!(q.validate(&cat), Err(QueryError::RelationshipEndpointMissing { .. })));
    }

    #[test]
    fn validation_rejects_disconnected_graph() {
        let cat = figure21().unwrap();
        let mut q = sample(&cat);
        // engine joins the class list with no connecting relationship.
        q.classes.push(cat.class_id("engine").unwrap());
        assert_eq!(q.validate(&cat), Err(QueryError::Disconnected));
    }

    #[test]
    fn contradiction_detection() {
        let cat = figure21().unwrap();
        let mut q = sample(&cat);
        q.selective_predicates.push(SelPredicate::new(
            cat.attr_ref("supplier", "name").unwrap(),
            CompOp::Eq,
            Value::str("NTUC"),
        ));
        assert!(q.has_contradiction());
    }

    #[test]
    fn satisfies_predicate_uses_implication() {
        let cat = figure21().unwrap();
        let mut q = sample(&cat);
        let qty = cat.attr_ref("cargo", "quantity").unwrap();
        q.selective_predicates.push(SelPredicate::new(qty, CompOp::Gt, Value::Int(15)));
        let weaker = Predicate::sel(qty, CompOp::Gt, 10i64);
        let stronger = Predicate::sel(qty, CompOp::Gt, 20i64);
        assert!(q.satisfies_predicate(&weaker));
        assert!(!q.satisfies_predicate(&stronger));
        // Syntactic containment is stricter.
        assert!(!q.contains_predicate(&weaker));
    }

    #[test]
    fn normalized_is_order_insensitive() {
        let cat = figure21().unwrap();
        let q1 = sample(&cat);
        let mut q2 = sample(&cat);
        q2.classes.reverse();
        q2.selective_predicates.reverse();
        q2.relationships.reverse();
        q2.projections.reverse();
        assert_eq!(q1.normalized(), q2.normalized());
    }
}
