//! Horn-clause semantic constraints.
//!
//! A constraint has the paper's shape (Figure 2.2):
//!
//! ```text
//! antecedent₁ ∧ … ∧ antecedentₖ  →  consequent
//! ```
//!
//! where the antecedents are value predicates plus *structural* conditions:
//! the object classes mentioned and the relationships correlating them
//! (c1's shared `collects` variable becomes an explicit relationship
//! requirement — DESIGN.md §3.3). A constraint with no value antecedents
//! (like c4, "only research staff members can be appointed as managers")
//! fires for any query touching its classes.

use std::fmt;

use sqo_catalog::{Catalog, ClassId, RelId};
use sqo_query::{Predicate, Query};

use crate::error::ConstraintError;

/// Identifier of a constraint within a [`ConstraintStore`](crate::ConstraintStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub u32);

impl ConstraintId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConstraintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The paper's intra/inter classification (§3.2): intra-class constraints
/// reference attributes of exactly one object class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintClass {
    Intra,
    Inter,
}

/// Where a constraint came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Declared integrity constraint (always true of the database).
    Declared,
    /// Derived by the transitive-closure precompilation (§3).
    Derived,
    /// Siegel-style rule reflecting only the *current* database state; kept
    /// separate so callers can invalidate them on update (§1 discussion).
    Dynamic,
}

/// A validated Horn-clause constraint over a catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct HornConstraint {
    /// Human-oriented label ("c1", "refrigerated-trucks-carry-frozen-food").
    pub name: String,
    /// Conjunction of value predicates that must hold.
    pub antecedents: Vec<Predicate>,
    /// Relationships correlating the referenced classes.
    pub relationships: Vec<RelId>,
    /// The single derived predicate.
    pub consequent: Predicate,
    /// Classes referenced anywhere in the constraint (sorted, deduped).
    pub classes: Vec<ClassId>,
    pub origin: Origin,
}

impl HornConstraint {
    /// Builds and validates a constraint. The class set is *computed*: union
    /// of predicate classes, relationship endpoints and `extra_classes`
    /// (membership-only references like c4's `manager`).
    pub fn new(
        catalog: &Catalog,
        name: impl Into<String>,
        antecedents: Vec<Predicate>,
        relationships: Vec<RelId>,
        consequent: Predicate,
        extra_classes: Vec<ClassId>,
        origin: Origin,
    ) -> Result<Self, ConstraintError> {
        let mut classes: Vec<ClassId> = Vec::new();
        let add = |cs: Vec<ClassId>, classes: &mut Vec<ClassId>| {
            for c in cs {
                if !classes.contains(&c) {
                    classes.push(c);
                }
            }
        };
        for p in antecedents.iter().chain(std::iter::once(&consequent)) {
            check_predicate_types(catalog, p)?;
            add(p.classes(), &mut classes);
        }
        for &r in &relationships {
            let def = catalog.relationship(r)?;
            let (a, b) = def.classes();
            add(vec![a, b], &mut classes);
        }
        add(extra_classes, &mut classes);
        classes.sort_unstable();

        // Reject degenerate clauses early.
        for a in &antecedents {
            if a.implies(&consequent) {
                return Err(ConstraintError::Tautology);
            }
        }
        for (i, a) in antecedents.iter().enumerate() {
            for b in &antecedents[i + 1..] {
                if let (Predicate::Sel(x), Predicate::Sel(y)) = (a, b) {
                    if x.contradicts(y) {
                        return Err(ConstraintError::UnsatisfiableAntecedent);
                    }
                }
            }
        }

        Ok(Self { name: name.into(), antecedents, relationships, consequent, classes, origin })
    }

    /// Intra iff exactly one class is referenced (§3.2).
    pub fn classification(&self) -> ConstraintClass {
        if self.classes.len() <= 1 {
            ConstraintClass::Intra
        } else {
            ConstraintClass::Inter
        }
    }

    /// §3's relevance test: "a semantic constraint cᵢ is relevant to a query
    /// q iff all the object classes cᵢ references also appear in q" —
    /// extended with the relationship requirement (DESIGN.md §3.3).
    pub fn relevant_to(&self, query: &Query) -> bool {
        self.classes.iter().all(|c| query.has_class(*c))
            && self.relationships.iter().all(|r| query.has_relationship(*r))
    }

    /// Semantic check against concrete bindings: if every antecedent holds,
    /// does the consequent? Used by data generators and property tests; the
    /// optimizer itself never evaluates constraints against data.
    pub fn is_horn(&self) -> bool {
        true // single consequent by construction; method kept for API clarity
    }
}

fn check_predicate_types(catalog: &Catalog, p: &Predicate) -> Result<(), ConstraintError> {
    match p {
        Predicate::Sel(s) => {
            let ty = catalog.attr_type(s.attr)?;
            if s.value.data_type() != ty {
                return Err(ConstraintError::TypeMismatch {
                    context: format!(
                        "constraint predicate on {} compares {ty} with {}",
                        catalog.qualified_attr_name(s.attr),
                        s.value.data_type()
                    ),
                });
            }
        }
        Predicate::Join(j) => {
            let lt = catalog.attr_type(j.left)?;
            let rt = catalog.attr_type(j.right)?;
            if lt != rt {
                return Err(ConstraintError::TypeMismatch {
                    context: format!(
                        "constraint join compares {} ({lt}) with {} ({rt})",
                        catalog.qualified_attr_name(j.left),
                        catalog.qualified_attr_name(j.right)
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Renders `antecedents, rels → consequent` with catalog names.
#[derive(Debug)]
pub struct ConstraintDisplay<'a> {
    pub constraint: &'a HornConstraint,
    pub catalog: &'a Catalog,
}

impl fmt::Display for ConstraintDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.constraint;
        write!(f, "{}: ", c.name)?;
        let mut first = true;
        for p in &c.antecedents {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "{}", p.display(self.catalog))?;
            first = false;
        }
        for r in &c.relationships {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "⟨{}⟩", self.catalog.rel_name(*r))?;
            first = false;
        }
        if first {
            write!(f, "⊤")?;
        }
        write!(f, " → {}", c.consequent.display(self.catalog))
    }
}

impl HornConstraint {
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> ConstraintDisplay<'a> {
        ConstraintDisplay { constraint: self, catalog }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;
    use sqo_query::{CompOp, QueryBuilder};

    fn c1(cat: &Catalog) -> HornConstraint {
        HornConstraint::new(
            cat,
            "c1",
            vec![Predicate::sel(
                cat.attr_ref("vehicle", "desc").unwrap(),
                CompOp::Eq,
                "refrigerated truck",
            )],
            vec![cat.rel_id("collects").unwrap()],
            Predicate::sel(cat.attr_ref("cargo", "desc").unwrap(), CompOp::Eq, "frozen food"),
            vec![],
            Origin::Declared,
        )
        .unwrap()
    }

    #[test]
    fn classes_are_computed_from_parts() {
        let cat = figure21().unwrap();
        let c = c1(&cat);
        let mut expect = vec![cat.class_id("cargo").unwrap(), cat.class_id("vehicle").unwrap()];
        expect.sort_unstable();
        assert_eq!(c.classes, expect);
        assert_eq!(c.classification(), ConstraintClass::Inter);
    }

    #[test]
    fn intra_classification() {
        let cat = figure21().unwrap();
        // c4: manager → rank = "research staff member"
        let c4 = HornConstraint::new(
            &cat,
            "c4",
            vec![],
            vec![],
            Predicate::sel(
                cat.attr_ref("manager", "rank").unwrap(),
                CompOp::Eq,
                "research staff member",
            ),
            vec![],
            Origin::Declared,
        )
        .unwrap();
        assert_eq!(c4.classification(), ConstraintClass::Intra);
        assert!(c4.antecedents.is_empty());
    }

    #[test]
    fn relevance_requires_all_classes_and_rels() {
        let cat = figure21().unwrap();
        let c = c1(&cat);
        let with_rel =
            QueryBuilder::new(&cat).select("cargo.desc").via("collects").build().unwrap();
        assert!(c.relevant_to(&with_rel));
        // Same classes, but no `collects` edge: not relevant.
        let mut without_rel = with_rel.clone();
        without_rel.relationships.clear();
        assert!(!c.relevant_to(&without_rel));
        // Missing the vehicle class: not relevant.
        let cargo_only = QueryBuilder::new(&cat).select("cargo.desc").build().unwrap();
        assert!(!c.relevant_to(&cargo_only));
    }

    #[test]
    fn tautologies_rejected() {
        let cat = figure21().unwrap();
        let p = Predicate::sel(cat.attr_ref("cargo", "desc").unwrap(), CompOp::Eq, "frozen food");
        let err =
            HornConstraint::new(&cat, "t", vec![p.clone()], vec![], p, vec![], Origin::Declared);
        assert_eq!(err.unwrap_err(), ConstraintError::Tautology);
    }

    #[test]
    fn weaker_consequent_is_still_a_tautology() {
        let cat = figure21().unwrap();
        let qty = cat.attr_ref("cargo", "quantity").unwrap();
        let err = HornConstraint::new(
            &cat,
            "t",
            vec![Predicate::sel(qty, CompOp::Gt, 20i64)],
            vec![],
            Predicate::sel(qty, CompOp::Gt, 10i64),
            vec![],
            Origin::Declared,
        );
        assert_eq!(err.unwrap_err(), ConstraintError::Tautology);
    }

    #[test]
    fn contradictory_antecedents_rejected() {
        let cat = figure21().unwrap();
        let desc = cat.attr_ref("cargo", "desc").unwrap();
        let err = HornConstraint::new(
            &cat,
            "u",
            vec![
                Predicate::sel(desc, CompOp::Eq, "frozen food"),
                Predicate::sel(desc, CompOp::Eq, "durian"),
            ],
            vec![],
            Predicate::sel(cat.attr_ref("cargo", "quantity").unwrap(), CompOp::Gt, 0i64),
            vec![],
            Origin::Declared,
        );
        assert_eq!(err.unwrap_err(), ConstraintError::UnsatisfiableAntecedent);
    }

    #[test]
    fn type_mismatch_rejected() {
        let cat = figure21().unwrap();
        let err = HornConstraint::new(
            &cat,
            "m",
            vec![],
            vec![],
            Predicate::sel(cat.attr_ref("cargo", "quantity").unwrap(), CompOp::Eq, "lots"),
            vec![],
            Origin::Declared,
        );
        assert!(matches!(err, Err(ConstraintError::TypeMismatch { .. })));
    }

    #[test]
    fn display_renders_readably() {
        let cat = figure21().unwrap();
        let c = c1(&cat);
        let s = c.display(&cat).to_string();
        assert!(s.contains("vehicle.desc = \"refrigerated truck\""), "{s}");
        assert!(s.contains("⟨collects⟩"), "{s}");
        assert!(s.contains("→ cargo.desc = \"frozen food\""), "{s}");
    }
}
