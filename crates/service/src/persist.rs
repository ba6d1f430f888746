//! Serving-layer snapshot codecs: the CONSTRAINTS and PLANSEEDS sections.
//!
//! The database sections are owned by `sqo-storage`; this module persists
//! what the serving layer adds on top — the compiled constraint store's
//! identity and contents, and a warm seed for the plan cache. The byte
//! layouts are specified normatively in `docs/FORMAT.md`; the validation
//! levels in `docs/VALIDATION.md`.

#![deny(missing_docs)]

use std::sync::Arc;

use sqo_catalog::{AttrRef, Catalog, ClassId, RelId};
use sqo_constraints::{
    transitive_closure, AssignmentPolicy, ClosureOptions, ConstraintStore, HornConstraint, Origin,
    StoreOptions, StoreVersion,
};
use sqo_exec::{read_plan, write_plan, AccessPath, ClassAccess, PhysicalPlan};
use sqo_query::{Predicate, QueryFingerprint};
use sqo_snapshot::{
    read_attr_ref, read_predicate, read_query, write_attr_ref, write_predicate, write_query,
    ByteReader, ByteWriter, LoadError, ValidationLevel,
};

use crate::cache::{CacheEntry, CachedPlan};

/// Everything the CONSTRAINTS section carries: the store's semantic
/// identity and the exact constraint list it compiled, sufficient to
/// rebuild an equivalent [`ConstraintStore`] without re-running the
/// closure fixpoint.
#[derive(Debug, Clone)]
pub struct ConstraintSeed {
    /// Semantic epoch of the store at save time (restored monotonically via
    /// [`ConstraintStore::raise_epoch_to`]).
    pub epoch: u64,
    /// Generation of the saved store — informational only: generations are
    /// process-local, so a warm-started store always gets a fresh one.
    pub saved_generation: u64,
    /// Group-assignment policy the store was built with.
    pub policy: AssignmentPolicy,
    /// Closure limits the store was built with (persisted so an Audit-level
    /// re-derivation reproduces the same truncation behaviour).
    pub closure: ClosureOptions,
    /// Number of closure-derived constraints in `constraints`.
    pub derived_count: usize,
    /// Whether a closure limit stopped the fixpoint before convergence.
    pub closure_truncated: bool,
    /// The full constraint list, declared and derived, in store order.
    pub constraints: Vec<HornConstraint>,
}

fn origin_tag(origin: Origin) -> u8 {
    match origin {
        Origin::Declared => 0,
        Origin::Derived => 1,
        Origin::Dynamic => 2,
    }
}

fn policy_tag(policy: AssignmentPolicy) -> u8 {
    match policy {
        AssignmentPolicy::Arbitrary => 0,
        AssignmentPolicy::LeastFrequentlyAccessed => 1,
        AssignmentPolicy::Balanced => 2,
    }
}

/// Encodes a [`ConstraintStore`] as the CONSTRAINTS section payload.
pub fn encode_constraints(store: &ConstraintStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(store.epoch());
    w.u64(store.generation());
    w.u8(policy_tag(store.policy()));
    let closure = store.closure_options();
    w.u64(closure.max_derived as u64);
    w.u64(closure.max_rounds as u64);
    w.u64(store.derived_count as u64);
    w.u8(u8::from(store.closure_truncated));
    w.u32(store.len() as u32);
    for (_, c) in store.constraints() {
        w.str(&c.name);
        w.u32(c.antecedents.len() as u32);
        for p in &c.antecedents {
            write_predicate(&mut w, p);
        }
        w.u32(c.relationships.len() as u32);
        for r in &c.relationships {
            w.u32(r.0);
        }
        write_predicate(&mut w, &c.consequent);
        w.u32(c.classes.len() as u32);
        for cl in &c.classes {
            w.u32(cl.0);
        }
        w.u8(origin_tag(c.origin));
    }
    w.finish()
}

/// A predicate's attribute references must resolve in `catalog`, and a
/// selection's literal must carry the attribute's declared type.
fn strict_check_predicate(
    catalog: &Catalog,
    p: &Predicate,
    r: &ByteReader<'_>,
) -> Result<(), LoadError> {
    let check_attr = |a: AttrRef| -> Result<(), LoadError> {
        catalog.attr(a).map(|_| ()).map_err(|e| LoadError::DanglingReference {
            section: r.section(),
            detail: format!("attribute reference does not resolve: {e}"),
        })
    };
    match p {
        Predicate::Sel(s) => {
            check_attr(s.attr)?;
            let declared = catalog.attr(s.attr).expect("checked above").ty;
            if s.value.data_type() != declared {
                return Err(LoadError::Malformed {
                    section: r.section(),
                    detail: format!(
                        "selection literal type {:?} does not match declared {declared:?}",
                        s.value.data_type()
                    ),
                });
            }
            Ok(())
        }
        Predicate::Join(j) => {
            check_attr(j.left)?;
            check_attr(j.right)
        }
    }
}

/// Decodes the CONSTRAINTS section payload.
///
/// Standard checks structure only; Strict additionally resolves every
/// class, relationship and attribute id against `catalog`, requires the
/// per-constraint class list to be strictly ascending, and cross-checks
/// `derived_count` against the actual number of derived constraints.
///
/// # Errors
/// [`LoadError::Malformed`] on structural damage, and at Strict
/// [`LoadError::DanglingReference`] / [`LoadError::UnsortedPosting`] for
/// id-space and ordering violations.
pub fn decode_constraints(
    payload: &[u8],
    catalog: &Catalog,
    level: ValidationLevel,
) -> Result<ConstraintSeed, LoadError> {
    let mut r = ByteReader::new(payload, "CONSTRAINTS");
    let epoch = r.u64()?;
    let saved_generation = r.u64()?;
    let policy = match r.u8()? {
        0 => AssignmentPolicy::Arbitrary,
        1 => AssignmentPolicy::LeastFrequentlyAccessed,
        2 => AssignmentPolicy::Balanced,
        t => return Err(r.malformed(format!("unknown assignment-policy tag {t}"))),
    };
    let closure = ClosureOptions { max_derived: r.u64()? as usize, max_rounds: r.u64()? as usize };
    let derived_count = r.u64()? as usize;
    let closure_truncated = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(r.malformed(format!("closure_truncated must be 0/1, got {t}"))),
    };
    let mut constraints = Vec::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let mut antecedents = Vec::new();
        for _ in 0..r.count()? {
            let p = read_predicate(&mut r)?;
            if level.at_least_strict() {
                strict_check_predicate(catalog, &p, &r)?;
            }
            antecedents.push(p);
        }
        let mut relationships = Vec::new();
        for _ in 0..r.count()? {
            let rel = RelId(r.u32()?);
            if level.at_least_strict() && catalog.relationship(rel).is_err() {
                return Err(LoadError::DanglingReference {
                    section: "CONSTRAINTS",
                    detail: format!("constraint {name:?} references unknown {rel:?}"),
                });
            }
            relationships.push(rel);
        }
        let consequent = read_predicate(&mut r)?;
        if level.at_least_strict() {
            strict_check_predicate(catalog, &consequent, &r)?;
        }
        let mut classes = Vec::new();
        for _ in 0..r.count()? {
            let class = ClassId(r.u32()?);
            if level.at_least_strict() {
                if catalog.class(class).is_err() {
                    return Err(LoadError::DanglingReference {
                        section: "CONSTRAINTS",
                        detail: format!("constraint {name:?} references unknown {class:?}"),
                    });
                }
                if classes.last().is_some_and(|prev| *prev >= class) {
                    return Err(LoadError::UnsortedPosting {
                        section: "CONSTRAINTS",
                        detail: format!("constraint {name:?} class list is not strictly ascending"),
                    });
                }
            }
            classes.push(class);
        }
        let origin = match r.u8()? {
            0 => Origin::Declared,
            1 => Origin::Derived,
            2 => Origin::Dynamic,
            t => return Err(r.malformed(format!("unknown origin tag {t}"))),
        };
        constraints.push(HornConstraint {
            name,
            antecedents,
            relationships,
            consequent,
            classes,
            origin,
        });
    }
    r.expect_exhausted()?;
    if level.at_least_strict() {
        let actual = constraints.iter().filter(|c| c.origin == Origin::Derived).count();
        if actual != derived_count {
            return Err(LoadError::Malformed {
                section: "CONSTRAINTS",
                detail: format!(
                    "derived_count says {derived_count} but {actual} constraints are Derived"
                ),
            });
        }
    }
    Ok(ConstraintSeed {
        epoch,
        saved_generation,
        policy,
        closure,
        derived_count,
        closure_truncated,
        constraints,
    })
}

/// Audit-level cross-check: re-runs the closure fixpoint over the seed's
/// non-derived constraints under the persisted [`ClosureOptions`] and
/// requires every persisted derived constraint to be re-derivable. When
/// the original closure converged (not truncated) and no Dynamic
/// constraints muddy the picture, the re-derivation must match exactly.
///
/// # Errors
/// [`LoadError::AuditMismatch`] when the persisted derived set is not a
/// subset of (or, under convergence, not equal to) the re-derived set;
/// [`LoadError::Malformed`] if the closure itself rejects the inputs.
pub fn audit_constraints(seed: &ConstraintSeed, catalog: &Catalog) -> Result<(), LoadError> {
    let base: Vec<HornConstraint> =
        seed.constraints.iter().filter(|c| c.origin != Origin::Derived).cloned().collect();
    let has_dynamic = base.iter().any(|c| c.origin == Origin::Dynamic);
    let rederived =
        transitive_closure(catalog, base, seed.closure).map_err(|e| LoadError::Malformed {
            section: "CONSTRAINTS",
            detail: format!("closure re-derivation rejected the constraint set: {e}"),
        })?;
    let fresh: Vec<&HornConstraint> =
        rederived.constraints.iter().filter(|c| c.origin == Origin::Derived).collect();
    for c in seed.constraints.iter().filter(|c| c.origin == Origin::Derived) {
        if !fresh.iter().any(|f| {
            f.antecedents == c.antecedents
                && f.relationships == c.relationships
                && f.consequent == c.consequent
                && f.classes == c.classes
        }) {
            return Err(LoadError::AuditMismatch {
                detail: format!(
                    "persisted derived constraint {:?} is not re-derivable from the declared set",
                    c.name
                ),
            });
        }
    }
    if !seed.closure_truncated && !rederived.truncated && !has_dynamic {
        let persisted = seed.derived_count;
        let fresh_count = fresh.len();
        if persisted != fresh_count {
            return Err(LoadError::AuditMismatch {
                detail: format!(
                    "converged closure re-derives {fresh_count} constraints, snapshot has \
                     {persisted}"
                ),
            });
        }
    }
    Ok(())
}

/// Rebuilds a live [`ConstraintStore`] from a decoded seed: constraints
/// are taken verbatim (`materialize_closure: false` — the derived set is
/// already in the list), the saved semantic epoch is restored monotonically
/// and the store gets a fresh process-local generation.
///
/// # Errors
/// [`LoadError::Malformed`] if store compilation rejects the constraint
/// set (e.g. a predicate no longer typechecks against the catalog).
pub fn rebuild_store(
    catalog: Arc<Catalog>,
    seed: ConstraintSeed,
) -> Result<ConstraintStore, LoadError> {
    let options =
        StoreOptions { materialize_closure: false, closure: seed.closure, policy: seed.policy };
    let mut store = ConstraintStore::build(catalog, seed.constraints, options).map_err(|e| {
        LoadError::Malformed {
            section: "CONSTRAINTS",
            detail: format!("store compilation rejected the snapshot: {e}"),
        }
    })?;
    store.derived_count = seed.derived_count;
    store.closure_truncated = seed.closure_truncated;
    store.raise_epoch_to(seed.epoch);
    Ok(store)
}

/// One persisted plan-cache seed: the cache identity plus the full entry
/// skeleton (no result memo — results are data, not optimization state).
#[derive(Debug)]
pub struct PlanSeed {
    /// Canonical fingerprint the entry is keyed by.
    pub fingerprint: QueryFingerprint,
    /// The rehydrated cache entry.
    pub entry: CacheEntry,
}

/// Encodes the PLANSEEDS section payload from a cache dump, keeping only
/// entries valid at `current` (stale entries awaiting purge are skipped —
/// persisting them would seed a warm cache with outdated rewrites).
pub fn encode_plan_seeds(
    entries: &[(QueryFingerprint, StoreVersion, Arc<CacheEntry>)],
    current: StoreVersion,
) -> Vec<u8> {
    let live: Vec<_> = entries.iter().filter(|(_, v, _)| *v == current).collect();
    let mut w = ByteWriter::new();
    w.u32(live.len() as u32);
    for (fp, _, entry) in live {
        w.u64(fp.0);
        write_query(&mut w, &entry.canonical);
        write_query(&mut w, &entry.optimized);
        // The presence byte and the provably-empty flag both derive from
        // the variant; a planned entry's columns are its plan's projections.
        let columns: Vec<AttrRef> = match &entry.plan {
            CachedPlan::Planned(plan) => {
                w.u8(1);
                write_plan(&mut w, plan);
                w.u8(0);
                plan.projections.iter().map(|p| p.attr).collect()
            }
            CachedPlan::Empty { columns } => {
                w.u8(0);
                w.u8(1);
                columns.clone()
            }
        };
        w.u32(columns.len() as u32);
        for c in columns {
            write_attr_ref(&mut w, c);
        }
    }
    w.finish()
}

/// Every id a plan skeleton mentions must resolve in `catalog`.
fn strict_check_access(catalog: &Catalog, access: &ClassAccess) -> Result<(), LoadError> {
    let dangling = |detail: String| LoadError::DanglingReference { section: "PLANSEEDS", detail };
    catalog
        .class(access.class)
        .map_err(|e| dangling(format!("plan accesses unknown class: {e}")))?;
    if let AccessPath::Index { attr, .. } = &access.path {
        catalog.attr(*attr).map_err(|e| dangling(format!("plan indexes unknown attr: {e}")))?;
    }
    for p in &access.residual {
        catalog
            .attr(p.attr)
            .map_err(|e| dangling(format!("plan residual on unknown attr: {e}")))?;
    }
    Ok(())
}

fn strict_check_plan(catalog: &Catalog, plan: &PhysicalPlan) -> Result<(), LoadError> {
    let dangling = |detail: String| LoadError::DanglingReference { section: "PLANSEEDS", detail };
    strict_check_access(catalog, &plan.root)?;
    for step in &plan.steps {
        catalog
            .relationship(step.rel)
            .map_err(|e| dangling(format!("plan joins over unknown relationship: {e}")))?;
        catalog
            .class(step.from_class)
            .map_err(|e| dangling(format!("plan joins from unknown class: {e}")))?;
        strict_check_access(catalog, &step.access)?;
        for j in &step.join_filters {
            catalog.attr(j.left).map_err(|e| dangling(format!("join filter: {e}")))?;
            catalog.attr(j.right).map_err(|e| dangling(format!("join filter: {e}")))?;
        }
        for (rel, a, b) in &step.link_filters {
            catalog.relationship(*rel).map_err(|e| dangling(format!("link filter: {e}")))?;
            catalog.class(*a).map_err(|e| dangling(format!("link filter: {e}")))?;
            catalog.class(*b).map_err(|e| dangling(format!("link filter: {e}")))?;
        }
    }
    for p in &plan.projections {
        catalog.attr(p.attr).map_err(|e| dangling(format!("plan projects unknown attr: {e}")))?;
    }
    Ok(())
}

/// Decodes the PLANSEEDS section payload.
///
/// Standard enforces the shape invariant [`CachedPlan`] encodes (an entry
/// is provably-empty **iff** it carries no plan — a seed violating it has
/// no in-memory form, so it is rejected as malformed). A planned seed's
/// stored columns are read and, at Strict, resolved, but the entry takes
/// its columns from the plan's projections. Strict additionally
/// recomputes each canonical fingerprint and resolves every id the
/// queries and plan skeletons mention.
///
/// # Errors
/// [`LoadError::Malformed`] for structural damage, and at Strict
/// [`LoadError::ChecksumMismatch`]-free but fingerprint-mismatching seeds
/// report [`LoadError::Malformed`] while unresolvable ids report
/// [`LoadError::DanglingReference`].
pub fn decode_plan_seeds(
    payload: &[u8],
    catalog: &Catalog,
    level: ValidationLevel,
) -> Result<Vec<PlanSeed>, LoadError> {
    let mut r = ByteReader::new(payload, "PLANSEEDS");
    let mut seeds = Vec::new();
    for _ in 0..r.count()? {
        let fingerprint = QueryFingerprint(r.u64()?);
        let canonical = read_query(&mut r)?;
        let optimized = read_query(&mut r)?;
        let plan = match r.u8()? {
            0 => None,
            1 => Some(Arc::new(read_plan(&mut r)?)),
            t => return Err(r.malformed(format!("plan presence must be 0/1, got {t}"))),
        };
        let provably_empty = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(r.malformed(format!("provably_empty must be 0/1, got {t}"))),
        };
        if provably_empty == plan.is_some() {
            return Err(r.malformed(
                "entries must carry a plan exactly when not provably empty".to_string(),
            ));
        }
        let mut columns = Vec::new();
        for _ in 0..r.count()? {
            columns.push(read_attr_ref(&mut r)?);
        }
        if level.at_least_strict() {
            let recomputed = canonical.fingerprint_canonical();
            if recomputed != fingerprint {
                return Err(LoadError::Malformed {
                    section: "PLANSEEDS",
                    detail: format!(
                        "stored fingerprint {fingerprint} but canonical query hashes to \
                         {recomputed}"
                    ),
                });
            }
            if let Some(plan) = &plan {
                strict_check_plan(catalog, plan)?;
            }
            for c in &columns {
                catalog.attr(*c).map_err(|e| LoadError::DanglingReference {
                    section: "PLANSEEDS",
                    detail: format!("column list references unknown attr: {e}"),
                })?;
            }
        }
        let plan = match plan {
            Some(plan) => CachedPlan::Planned(plan),
            None => CachedPlan::Empty { columns },
        };
        seeds.push(PlanSeed { fingerprint, entry: CacheEntry::new(canonical, optimized, plan) });
    }
    r.expect_exhausted()?;
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_workload::{paper_scenario, DbSize};

    #[test]
    fn constraint_store_roundtrips_at_audit() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        let seed = decode_constraints(&bytes, &catalog, ValidationLevel::Strict).unwrap();
        audit_constraints(&seed, &catalog).unwrap();
        assert_eq!(seed.epoch, s.store.epoch());
        assert_eq!(seed.derived_count, s.store.derived_count);
        let rebuilt = rebuild_store(catalog, seed).unwrap();
        assert_eq!(rebuilt.len(), s.store.len());
        assert_eq!(rebuilt.epoch(), s.store.epoch());
        assert_ne!(rebuilt.generation(), s.store.generation(), "fresh generation");
        for ((_, a), (_, b)) in rebuilt.constraints().zip(s.store.constraints()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tampered_derived_constraint_fails_audit() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        let mut seed = decode_constraints(&bytes, &catalog, ValidationLevel::Standard).unwrap();
        let victim = seed
            .constraints
            .iter_mut()
            .find(|c| c.origin == Origin::Derived)
            .expect("scenario materializes a closure");
        // Flip the consequent's operator: still well-formed, no longer derivable.
        if let Predicate::Sel(sel) = &mut victim.consequent {
            sel.op = match sel.op {
                sqo_query::CompOp::Eq => sqo_query::CompOp::Ne,
                _ => sqo_query::CompOp::Eq,
            };
        } else {
            victim.classes = vec![];
        }
        assert!(matches!(audit_constraints(&seed, &catalog), Err(LoadError::AuditMismatch { .. })));
    }

    #[test]
    fn truncated_constraints_section_is_clean_error() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        for cut in [0, 8, 17, 33, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_constraints(&bytes[..cut], &catalog, ValidationLevel::Standard).is_err(),
                "cut at {cut} decoded"
            );
        }
    }
}
