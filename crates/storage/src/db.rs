//! The in-memory object database: extents, indexes, links, statistics.
//!
//! A [`Database`] snapshot is immutable once built. [`DatabaseBuilder`]
//! validates tuples against the catalog, wires relationship links, and at
//! [`DatabaseBuilder::finalize`] builds the declared indexes, computes the
//! statistics snapshot and enforces the integrity declarations (total
//! participation, to-one multiplicity) that class elimination relies on.
//!
//! # Incremental copy-on-write snapshots
//!
//! Snapshot state is sharded per class and per relationship behind `Arc`s:
//! one `Arc` per class extent, one per class index bank, one per
//! relationship link table. [`Database::with_writes`] builds a successor
//! snapshot by **cloning the `Arc` vector and patching only the shards the
//! batch touches** (`Arc::make_mut` clone-and-patch); untouched shards are
//! shared with the source by pointer. Statistics fold the same way: the
//! previous [`StatsSnapshot`] is carried over and only the touched classes'
//! [`ClassStats`] (one sort pass per attribute) / touched relationships'
//! [`RelStats`] (O(1) counters) are recomputed. A write batch therefore
//! costs clones of the touched shards plus one sort per attribute of each
//! touched class: O(touched rows) up to the sort's log factor, never
//! O(database).
//!
//! ## Aliasing guarantees
//!
//! Sharing is safe because shards are never mutated after publication:
//! `Arc::make_mut` observes the source snapshot's reference and clones, so a
//! reader holding the source (or any other successor) can never see a
//! patched shard. Two snapshots that share a shard are — by construction —
//! bit-identical on every read API over that shard. Adjacency and index
//! posting order follow a **canonical order** that is a function of the
//! logical state alone (see [`crate::RelLinks`]'s module docs), which makes
//! the incremental successor indistinguishable from a from-scratch rebuild:
//! [`Database::with_writes_full`] keeps the old rebuild-everything algorithm
//! as the independent equivalence oracle (exercised by
//! `tests/prop_incremental.rs`), and [`Database::rebuild_statistics`] is the
//! from-scratch statistics fallback the folded stats are checked against.
//!
//! Integrity re-checking is scoped the same way: only relationships the
//! batch could have affected (those incident to inserted/deleted objects or
//! named by link writes) are re-validated — untouched relationships remain
//! valid by induction from the base snapshot. In-place attribute updates
//! ([`DataWrite::Update`]) touch no link structure and therefore re-check
//! nothing.
//!
//! The [`crate::VersionedDatabase`] handle wraps [`Database::with_writes`]
//! into a concurrent write path with a monotone data epoch; readers keep
//! their `Arc` snapshot and are never torn by a write.

use std::fmt::Write as _;

use sqo_catalog::{
    AttrId, AttrRef, AttrStats, Catalog, ClassDef, ClassId, ClassStats, Multiplicity, RelId,
    RelStats, RelationshipDef, StatsSnapshot, Value,
};
use sqo_constraints::HornConstraint;
use sqo_query::Predicate;
use std::sync::Arc;

use crate::error::StorageError;
use crate::index::{total_cmp, AttrIndex};
use crate::links::RelLinks;
use crate::object::ObjectId;

/// One class's tuples, in object-id order.
pub(crate) type Extent = Vec<Vec<Value>>;

/// Which integrity declarations to enforce at load time.
#[derive(Debug, Clone, Copy)]
pub struct IntegrityOptions {
    pub enforce_total_participation: bool,
    pub enforce_multiplicity: bool,
}

impl Default for IntegrityOptions {
    fn default() -> Self {
        Self { enforce_total_participation: true, enforce_multiplicity: true }
    }
}

/// One witness of a violated semantic constraint (see
/// [`Database::check_constraint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Binding of constraint classes to objects that falsifies the clause.
    pub binding: Vec<(ClassId, ObjectId)>,
}

/// One logical mutation of a database snapshot (see
/// [`Database::with_writes`]). Batches apply atomically: either every write
/// validates and a new snapshot is produced, or the snapshot is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum DataWrite {
    /// Insert a new instance of `class`, optionally linked to existing
    /// objects. Each `(rel, other)` pair attaches the new object on the side
    /// of `rel` whose class is `class` (the left side for
    /// self-relationships) and `other` on the opposite side.
    Insert { class: ClassId, tuple: Vec<Value>, links: Vec<(RelId, ObjectId)> },
    /// Delete an instance and every link edge incident to it.
    ///
    /// Deletion has `swap_remove` semantics: the class's **last** object is
    /// renumbered to take the deleted [`ObjectId`] (its tuple, index entries
    /// and link edges follow it). Deleting the last object renumbers
    /// nothing. Every renumbering is reported in the batch's
    /// [`WriteReceipt::moves`], so callers tracking live ids need no
    /// convention about *which* objects they delete.
    Delete { class: ClassId, object: ObjectId },
    /// Overwrite one attribute of an existing instance in place. The object
    /// keeps its id and its links; only the touched class's extent, the
    /// attribute's index (when declared) and the class's statistics are
    /// patched. No integrity re-checking happens for updates — the link
    /// structure the total-participation/multiplicity declarations speak
    /// about is untouched.
    Update { class: ClassId, object: ObjectId, attr: AttrId, value: Value },
    /// Add one link edge between existing objects.
    Link { rel: RelId, left: ObjectId, right: ObjectId },
    /// Remove one link edge (errors with [`StorageError::LinkNotFound`] if
    /// the edge does not exist).
    Unlink { rel: RelId, left: ObjectId, right: ObjectId },
}

/// What one committed write batch did to object identity — returned by
/// [`Database::with_writes`] so callers no longer track swap-remove
/// renumbering by convention.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The [`ObjectId`] of each [`DataWrite::Insert`] of the batch, in batch
    /// order, **as of the end of the batch** — a later `Delete` in the same
    /// batch that renumbers an earlier insert is accounted for. (Deleting an
    /// object inserted earlier in the same batch leaves its now-dead id in
    /// the vector; positions must line up with the inserts.)
    pub inserted: Vec<ObjectId>,
    /// Every swap-remove renumbering, in batch order: deleting `object`
    /// moved the class's then-last object from `moved_from` to `moved_to`
    /// (`== object`). Apply the moves in order to re-map externally tracked
    /// ids.
    pub moves: Vec<(ClassId, ObjectId, ObjectId)>,
    /// The classes whose extent, index or statistics shards this batch
    /// patched, ascending. Everything else is `Arc`-shared with the source
    /// snapshot.
    pub touched_classes: Vec<ClassId>,
}

/// An immutable, loaded database snapshot.
///
/// State is `Arc`-sharded per class and per relationship; see the module
/// docs for the sharing and patching model.
#[derive(Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    extents: Vec<Arc<Extent>>,
    indexes: Vec<Arc<Vec<Option<AttrIndex>>>>,
    links: Vec<Arc<RelLinks>>,
    stats: StatsSnapshot,
    /// Which data epoch this snapshot materializes: `0` for a
    /// builder-finalized load, `source + 1` for every
    /// [`Database::with_writes`] successor. Downstream memos (cached result
    /// sets, oracle cost memos) key on it to stay data-epoch-aware.
    data_version: u64,
}

impl Database {
    pub fn builder(catalog: Arc<Catalog>) -> DatabaseBuilder {
        DatabaseBuilder::new(catalog)
    }

    /// The data epoch this snapshot belongs to (see [`Database::with_writes`]
    /// and [`crate::VersionedDatabase`]).
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn cardinality(&self, class: ClassId) -> usize {
        self.extents.get(class.index()).map(|e| e.len()).unwrap_or(0)
    }

    pub fn tuple(&self, class: ClassId, oid: ObjectId) -> Result<&[Value], StorageError> {
        self.extents
            .get(class.index())
            .and_then(|e| e.get(oid.index()))
            .map(|t| t.as_slice())
            .ok_or(StorageError::UnknownObject { class, object: oid })
    }

    pub fn value(&self, attr: AttrRef, oid: ObjectId) -> Result<&Value, StorageError> {
        let t = self.tuple(attr.class, oid)?;
        t.get(attr.attr.index())
            .ok_or(StorageError::UnknownObject { class: attr.class, object: oid })
    }

    pub fn index(&self, attr: AttrRef) -> Option<&AttrIndex> {
        self.indexes
            .get(attr.class.index())
            .and_then(|v| v.get(attr.attr.index()))
            .and_then(|ix| ix.as_ref())
    }

    pub fn links(&self, rel: RelId) -> &RelLinks {
        &self.links[rel.index()]
    }

    /// Pointer-chase from `class`'s side of `rel`. For self-relationships the
    /// left side is used.
    pub fn traverse(
        &self,
        rel: RelId,
        from_class: ClassId,
        oid: ObjectId,
    ) -> Result<&[ObjectId], StorageError> {
        let def = self.catalog.relationship(rel)?;
        let links = &self.links[rel.index()];
        if def.left.class == from_class {
            Ok(links.from_left(oid))
        } else if def.right.class == from_class {
            Ok(links.from_right(oid))
        } else {
            Err(StorageError::LinkClassMismatch { rel })
        }
    }

    pub fn stats(&self) -> &StatsSnapshot {
        &self.stats
    }

    /// Recomputes the full statistics snapshot from scratch — the fallback
    /// (and equivalence oracle) for the per-class folding
    /// [`Database::with_writes`] performs. `db.rebuild_statistics() ==
    /// *db.stats()` holds for every reachable snapshot.
    pub fn rebuild_statistics(&self) -> StatsSnapshot {
        build_statistics(&self.catalog, &self.extents, &self.links)
    }

    // ---- persistence hooks (crate-private; see persist.rs) --------------

    /// The per-class extent shards, for snapshot encoding.
    pub(crate) fn extent_shards(&self) -> &[Arc<Extent>] {
        &self.extents
    }

    /// The per-class index banks, for snapshot encoding.
    pub(crate) fn index_shards(&self) -> &[Arc<Vec<Option<AttrIndex>>>] {
        &self.indexes
    }

    /// The per-relationship link tables, for snapshot encoding.
    pub(crate) fn link_shards(&self) -> &[Arc<RelLinks>] {
        &self.links
    }

    /// Reassembles a snapshot from decoded parts — the snapshot-load path.
    /// The caller (`persist::decode_database`) owns all validation; this
    /// constructor only wires the shards together.
    pub(crate) fn from_loaded_parts(
        catalog: Arc<Catalog>,
        extents: Vec<Arc<Extent>>,
        indexes: Vec<Arc<Vec<Option<AttrIndex>>>>,
        links: Vec<Arc<RelLinks>>,
        stats: StatsSnapshot,
        data_version: u64,
    ) -> Self {
        Self { catalog, extents, indexes, links, stats, data_version }
    }

    /// Whether `self` and `other` share class `class`'s extent shard by
    /// pointer (diagnostics for the copy-on-write tests and benches).
    pub fn shares_extent_with(&self, other: &Database, class: ClassId) -> bool {
        match (self.extents.get(class.index()), other.extents.get(class.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Copy-on-write mutation: applies `writes` in order against `Arc`-shared
    /// shards of this snapshot, cloning and patching **only the shards the
    /// batch touches** — per-class extents and index banks, per-relationship
    /// link tables — and folding per-class/per-relationship statistics
    /// deltas into the previous snapshot. Cost is the clones of the touched
    /// shards plus one sort pass per attribute of each touched class, all
    /// O(touched rows) up to the sort's log factor; untouched state is
    /// shared with `self` by pointer. `data_version` advances by one.
    ///
    /// The batch is **atomic**: any validation error (arity, types, unknown
    /// objects or attributes, missing links, or — when `integrity` is
    /// supplied — a violated total-participation/multiplicity declaration on
    /// a relationship the batch touched) leaves `self` untouched and returns
    /// the error. On success the [`WriteReceipt`] reports the inserted ids
    /// and every swap-remove renumbering.
    pub fn with_writes(
        &self,
        writes: &[DataWrite],
        integrity: Option<IntegrityOptions>,
    ) -> Result<(Database, WriteReceipt), StorageError> {
        let catalog = Arc::clone(&self.catalog);
        let mut extents = self.extents.clone();
        let mut indexes = self.indexes.clone();
        let mut links = self.links.clone();
        let mut touched_classes = vec![false; extents.len()];
        let mut touched_rels = vec![false; links.len()];
        // `(class, id)` per insert: the class is needed to track swap-remove
        // renumbering by later deletes in the same batch.
        let mut inserted: Vec<(ClassId, ObjectId)> = Vec::new();
        let mut moves: Vec<(ClassId, ObjectId, ObjectId)> = Vec::new();
        for write in writes {
            match write {
                DataWrite::Insert { class, tuple, links: new_links } => {
                    validate_tuple(&catalog, *class, tuple)?;
                    let extent = Arc::make_mut(&mut extents[class.index()]);
                    let oid = ObjectId(extent.len() as u32);
                    extent.push(tuple.clone());
                    let bank: &mut Vec<Option<AttrIndex>> =
                        Arc::make_mut(&mut indexes[class.index()]);
                    index_insert(bank, tuple, oid);
                    touched_classes[class.index()] = true;
                    // The class's side of every incident link table grows by
                    // one (initially unlinked) slot.
                    for (rel, def) in catalog.relationships() {
                        if !def.involves(*class) {
                            continue;
                        }
                        let lk = Arc::make_mut(&mut links[rel.index()]);
                        if def.left.class == *class {
                            lk.grow_left();
                        }
                        if def.right.class == *class {
                            lk.grow_right();
                        }
                        touched_rels[rel.index()] = true;
                    }
                    for &(rel, other) in new_links {
                        let def = catalog.relationship(rel)?;
                        // The new object takes the side matching its class;
                        // for self-relationships, the left side (matching
                        // `Database::traverse`'s convention). The opposite
                        // class comes from the same branch — comparing ids
                        // would misattribute `other` when it numerically
                        // equals the fresh oid.
                        let (left, right, other_class) = if def.left.class == *class {
                            (oid, other, def.right.class)
                        } else if def.right.class == *class {
                            (other, oid, def.left.class)
                        } else {
                            return Err(StorageError::LinkClassMismatch { rel });
                        };
                        if other.index() >= extents[other_class.index()].len() {
                            return Err(StorageError::UnknownObject {
                                class: other_class,
                                object: other,
                            });
                        }
                        Arc::make_mut(&mut links[rel.index()]).add_sorted(left, right);
                        touched_rels[rel.index()] = true;
                    }
                    inserted.push((*class, oid));
                }
                DataWrite::Delete { class, object } => {
                    // Validate against the un-cloned shard: rejecting must
                    // not pay the clone.
                    if object.index() >= extents[class.index()].len() {
                        return Err(StorageError::UnknownObject { class: *class, object: *object });
                    }
                    let extent = Arc::make_mut(&mut extents[class.index()]);
                    let last = ObjectId((extent.len() - 1) as u32);
                    let dead = extent[object.index()].clone();
                    extent.swap_remove(object.index());
                    let moved = (*object != last).then(|| extent[object.index()].clone());
                    let bank: &mut Vec<Option<AttrIndex>> =
                        Arc::make_mut(&mut indexes[class.index()]);
                    index_delete(bank, &dead, *object, moved.as_deref(), last);
                    touched_classes[class.index()] = true;
                    if *object != last {
                        moves.push((*class, last, *object));
                        // The renumbering applies to earlier inserts of this
                        // batch too, so the returned ids stay live.
                        for (c, id) in inserted.iter_mut() {
                            if *c == *class && *id == last {
                                *id = *object;
                            }
                        }
                    }
                    for (rel, def) in catalog.relationships() {
                        let on_left = def.left.class == *class;
                        let on_right = def.right.class == *class;
                        if !on_left && !on_right {
                            continue;
                        }
                        touched_rels[rel.index()] = true;
                        let lk = Arc::make_mut(&mut links[rel.index()]);
                        if on_left && on_right {
                            // Self-relationship: both sides renumber at once;
                            // rebuilding this one table (O(its links)) is
                            // simpler than an interleaved two-sided patch.
                            *lk = rebuild_self_links(lk, *object);
                        } else if on_left {
                            lk.delete_left(*object);
                        } else {
                            lk.delete_right(*object);
                        }
                    }
                }
                DataWrite::Update { class, object, attr, value } => {
                    let cdef = catalog.class(*class)?;
                    let Some(adef) = cdef.attributes.get(attr.index()) else {
                        return Err(StorageError::UnknownAttribute { class: *class, attr: *attr });
                    };
                    if value.data_type() != adef.ty {
                        return Err(StorageError::TypeMismatch {
                            class: *class,
                            attr: attr.index(),
                            context: format!("expected {}, got {}", adef.ty, value.data_type()),
                        });
                    }
                    if object.index() >= extents[class.index()].len() {
                        return Err(StorageError::UnknownObject { class: *class, object: *object });
                    }
                    let extent = Arc::make_mut(&mut extents[class.index()]);
                    let tuple = &mut extent[object.index()];
                    let old = std::mem::replace(&mut tuple[attr.index()], value.clone());
                    if let Some(ix) =
                        Arc::make_mut(&mut indexes[class.index()])[attr.index()].as_mut()
                    {
                        ix.remove(&old, *object);
                        ix.insert_sorted(value.clone(), *object);
                    }
                    touched_classes[class.index()] = true;
                }
                DataWrite::Link { rel, left, right } => {
                    let def = catalog.relationship(*rel)?;
                    for (class, object) in [(def.left.class, *left), (def.right.class, *right)] {
                        if object.index() >= extents[class.index()].len() {
                            return Err(StorageError::UnknownObject { class, object });
                        }
                    }
                    Arc::make_mut(&mut links[rel.index()]).add_sorted(*left, *right);
                    touched_rels[rel.index()] = true;
                }
                DataWrite::Unlink { rel, left, right } => {
                    // Probe read-only first: a missing edge must not clone
                    // the link table.
                    if !links[rel.index()].from_left(*left).contains(right) {
                        return Err(StorageError::LinkNotFound {
                            rel: *rel,
                            left: *left,
                            right: *right,
                        });
                    }
                    let removed = Arc::make_mut(&mut links[rel.index()]).remove_edge(*left, *right);
                    debug_assert!(removed, "probed edge must be removable");
                    touched_rels[rel.index()] = true;
                }
            }
        }
        if let Some(options) = integrity {
            for (rel, def) in catalog.relationships() {
                if touched_rels[rel.index()] {
                    enforce_rel_integrity(rel, def, &links[rel.index()], options)?;
                }
            }
        }
        // Fold statistics: recompute only the touched classes/relationships,
        // carry everything else over from the previous snapshot.
        let mut stats = self.stats.clone();
        for (cid, cdef) in catalog.classes() {
            if touched_classes[cid.index()] {
                stats.classes[cid.index()] = class_statistics(cdef, &extents[cid.index()]);
            }
        }
        for (r, touched) in touched_rels.iter().enumerate() {
            if *touched {
                stats.relationships[r] = rel_statistics(&links[r]);
            }
        }
        let receipt = WriteReceipt {
            inserted: inserted.iter().map(|&(_, id)| id).collect(),
            moves,
            touched_classes: touched_classes
                .iter()
                .enumerate()
                .filter(|(_, t)| **t)
                .map(|(i, _)| ClassId(i as u32))
                .collect(),
        };
        let db = Database {
            catalog,
            extents,
            indexes,
            links,
            stats,
            data_version: self.data_version + 1,
        };
        Ok((db, receipt))
    }

    /// The from-scratch write path: applies `writes` to a deep clone of the
    /// logical state and reassembles **everything** — links, indexes and
    /// statistics — exactly as a fresh [`DatabaseBuilder`] load would. It is
    /// the independent equivalence oracle for [`Database::with_writes`]
    /// (`tests/prop_incremental.rs` proves the two agree on every read API
    /// for arbitrary batches) and the baseline `benches/writepath.rs`
    /// measures the incremental path against. Semantics are identical,
    /// including integrity scoping and the returned [`WriteReceipt`].
    pub fn with_writes_full(
        &self,
        writes: &[DataWrite],
        integrity: Option<IntegrityOptions>,
    ) -> Result<(Database, WriteReceipt), StorageError> {
        let catalog = Arc::clone(&self.catalog);
        let mut extents: Vec<Extent> = self.extents.iter().map(|e| (**e).clone()).collect();
        let mut pairs: Vec<Vec<(ObjectId, ObjectId)>> =
            self.links.iter().map(|lk| lk.pairs().collect()).collect();
        let mut touched_classes = vec![false; extents.len()];
        let mut touched_rels = vec![false; pairs.len()];
        let mut inserted: Vec<(ClassId, ObjectId)> = Vec::new();
        let mut moves: Vec<(ClassId, ObjectId, ObjectId)> = Vec::new();
        for write in writes {
            match write {
                DataWrite::Insert { class, tuple, links } => {
                    validate_tuple(&catalog, *class, tuple)?;
                    let extent = &mut extents[class.index()];
                    let oid = ObjectId(extent.len() as u32);
                    extent.push(tuple.clone());
                    touched_classes[class.index()] = true;
                    for (rel, def) in catalog.relationships() {
                        if def.involves(*class) {
                            touched_rels[rel.index()] = true;
                        }
                    }
                    for &(rel, other) in links {
                        let def = catalog.relationship(rel)?;
                        let (left, right, other_class) = if def.left.class == *class {
                            (oid, other, def.right.class)
                        } else if def.right.class == *class {
                            (other, oid, def.left.class)
                        } else {
                            return Err(StorageError::LinkClassMismatch { rel });
                        };
                        if other.index() >= extents[other_class.index()].len() {
                            return Err(StorageError::UnknownObject {
                                class: other_class,
                                object: other,
                            });
                        }
                        pairs[rel.index()].push((left, right));
                        touched_rels[rel.index()] = true;
                    }
                    inserted.push((*class, oid));
                }
                DataWrite::Delete { class, object } => {
                    let extent = &mut extents[class.index()];
                    if object.index() >= extent.len() {
                        return Err(StorageError::UnknownObject { class: *class, object: *object });
                    }
                    let last = ObjectId((extent.len() - 1) as u32);
                    extent.swap_remove(object.index());
                    touched_classes[class.index()] = true;
                    if *object != last {
                        moves.push((*class, last, *object));
                        for (c, id) in inserted.iter_mut() {
                            if *c == *class && *id == last {
                                *id = *object;
                            }
                        }
                    }
                    for (rel, def) in catalog.relationships() {
                        let on_left = def.left.class == *class;
                        let on_right = def.right.class == *class;
                        if !on_left && !on_right {
                            continue;
                        }
                        touched_rels[rel.index()] = true;
                        let ps = &mut pairs[rel.index()];
                        ps.retain(|&(l, r)| !(on_left && l == *object || on_right && r == *object));
                        if *object != last {
                            for p in ps.iter_mut() {
                                if on_left && p.0 == last {
                                    p.0 = *object;
                                }
                                if on_right && p.1 == last {
                                    p.1 = *object;
                                }
                            }
                        }
                    }
                }
                DataWrite::Update { class, object, attr, value } => {
                    let cdef = catalog.class(*class)?;
                    let Some(adef) = cdef.attributes.get(attr.index()) else {
                        return Err(StorageError::UnknownAttribute { class: *class, attr: *attr });
                    };
                    if value.data_type() != adef.ty {
                        return Err(StorageError::TypeMismatch {
                            class: *class,
                            attr: attr.index(),
                            context: format!("expected {}, got {}", adef.ty, value.data_type()),
                        });
                    }
                    let extent = &mut extents[class.index()];
                    let Some(tuple) = extent.get_mut(object.index()) else {
                        return Err(StorageError::UnknownObject { class: *class, object: *object });
                    };
                    tuple[attr.index()] = value.clone();
                    touched_classes[class.index()] = true;
                }
                DataWrite::Link { rel, left, right } => {
                    let def = catalog.relationship(*rel)?;
                    for (class, object) in [(def.left.class, *left), (def.right.class, *right)] {
                        if object.index() >= extents[class.index()].len() {
                            return Err(StorageError::UnknownObject { class, object });
                        }
                    }
                    pairs[rel.index()].push((*left, *right));
                    touched_rels[rel.index()] = true;
                }
                DataWrite::Unlink { rel, left, right } => {
                    let ps = &mut pairs[rel.index()];
                    let Some(at) = ps.iter().position(|&p| p == (*left, *right)) else {
                        return Err(StorageError::LinkNotFound {
                            rel: *rel,
                            left: *left,
                            right: *right,
                        });
                    };
                    ps.remove(at);
                    touched_rels[rel.index()] = true;
                }
            }
        }
        let extents: Vec<Arc<Extent>> = extents.into_iter().map(Arc::new).collect();
        let links = build_links(&catalog, &extents, &pairs);
        if let Some(options) = integrity {
            for (rel, def) in catalog.relationships() {
                if touched_rels[rel.index()] {
                    enforce_rel_integrity(rel, def, &links[rel.index()], options)?;
                }
            }
        }
        let indexes = build_indexes(&catalog, &extents);
        let stats = build_statistics(&catalog, &extents, &links);
        let receipt = WriteReceipt {
            inserted: inserted.iter().map(|&(_, id)| id).collect(),
            moves,
            touched_classes: touched_classes
                .iter()
                .enumerate()
                .filter(|(_, t)| **t)
                .map(|(i, _)| ClassId(i as u32))
                .collect(),
        };
        let db = Database {
            catalog,
            extents,
            indexes,
            links,
            stats,
            data_version: self.data_version + 1,
        };
        Ok((db, receipt))
    }

    /// Exhaustively checks a semantic constraint against the data, returning
    /// every falsifying binding. Enumeration follows the constraint's
    /// relationships (linked pairs) and falls back to cross products for
    /// unconnected classes — fine at the paper's cardinalities; generators
    /// and property tests use this to certify instances.
    pub fn check_constraint(&self, constraint: &HornConstraint) -> Vec<Violation> {
        let mut violations = Vec::new();
        let classes = constraint.classes.clone();
        let mut binding: Vec<(ClassId, ObjectId)> = Vec::new();
        self.enumerate(constraint, &classes, &mut binding, &mut violations);
        violations
    }

    fn enumerate(
        &self,
        constraint: &HornConstraint,
        remaining: &[ClassId],
        binding: &mut Vec<(ClassId, ObjectId)>,
        violations: &mut Vec<Violation>,
    ) {
        let Some((&next, rest)) = pick_next(self, constraint, remaining, binding) else {
            // Complete binding: evaluate the clause.
            if self.eval_all(&constraint.antecedents, binding)
                && !self.eval_pred(&constraint.consequent, binding)
            {
                violations.push(Violation { binding: binding.clone() });
            }
            return;
        };
        // Candidate objects for `next`: via a relationship to a bound class
        // when possible, otherwise the whole extent.
        let candidates: Vec<ObjectId> = self
            .link_candidates(constraint, next, binding)
            .unwrap_or_else(|| (0..self.cardinality(next) as u32).map(ObjectId).collect());
        for oid in candidates {
            // The same object must be consistent with *all* relationships to
            // already-bound classes.
            if !self.consistent(constraint, next, oid, binding) {
                continue;
            }
            binding.push((next, oid));
            self.enumerate(constraint, rest, binding, violations);
            binding.pop();
        }
    }

    fn link_candidates(
        &self,
        constraint: &HornConstraint,
        class: ClassId,
        binding: &[(ClassId, ObjectId)],
    ) -> Option<Vec<ObjectId>> {
        for &rel in &constraint.relationships {
            let def = self.catalog.relationship(rel).ok()?;
            let other = def.other_end(class)?;
            if let Some(&(_, oid)) = binding.iter().find(|(c, _)| *c == other) {
                if other != class {
                    return self.traverse(rel, other, oid).ok().map(|s| s.to_vec());
                }
            }
        }
        None
    }

    fn consistent(
        &self,
        constraint: &HornConstraint,
        class: ClassId,
        oid: ObjectId,
        binding: &[(ClassId, ObjectId)],
    ) -> bool {
        for &rel in &constraint.relationships {
            let Ok(def) = self.catalog.relationship(rel) else {
                return false;
            };
            let (a, b) = def.classes();
            if a == b {
                continue; // self-relationship consistency is skipped
            }
            let other = if a == class {
                b
            } else if b == class {
                a
            } else {
                continue;
            };
            if let Some(&(_, other_oid)) = binding.iter().find(|(c, _)| *c == other) {
                match self.traverse(rel, class, oid) {
                    Ok(neigh) if neigh.contains(&other_oid) => {}
                    _ => return false,
                }
            }
        }
        true
    }

    fn eval_all(&self, preds: &[Predicate], binding: &[(ClassId, ObjectId)]) -> bool {
        preds.iter().all(|p| self.eval_pred(p, binding))
    }

    fn eval_pred(&self, pred: &Predicate, binding: &[(ClassId, ObjectId)]) -> bool {
        let lookup = |attr: AttrRef| -> Option<&Value> {
            let (_, oid) = binding.iter().find(|(c, _)| *c == attr.class)?;
            self.value(attr, *oid).ok()
        };
        match pred {
            Predicate::Sel(s) => lookup(s.attr).map(|v| s.eval(v)).unwrap_or(false),
            Predicate::Join(j) => match (lookup(j.left), lookup(j.right)) {
                (Some(l), Some(r)) => j.eval(l, r),
                _ => false,
            },
        }
    }
}

fn pick_next<'a>(
    _db: &Database,
    _constraint: &HornConstraint,
    remaining: &'a [ClassId],
    _binding: &[(ClassId, ObjectId)],
) -> Option<(&'a ClassId, &'a [ClassId])> {
    // Enumeration order only affects cost, never correctness:
    // `link_candidates` narrows candidates when a relationship to a bound
    // class exists and `consistent` re-checks every relationship regardless.
    remaining.split_first()
}

/// Staged loader for [`Database`].
#[derive(Debug)]
pub struct DatabaseBuilder {
    catalog: Arc<Catalog>,
    extents: Vec<Extent>,
    pending_links: Vec<(RelId, ObjectId, ObjectId)>,
}

impl DatabaseBuilder {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let extents = vec![Vec::new(); catalog.class_count()];
        Self { catalog, extents, pending_links: Vec::new() }
    }

    /// Inserts a tuple, validating arity and types.
    pub fn insert(&mut self, class: ClassId, tuple: Vec<Value>) -> Result<ObjectId, StorageError> {
        validate_tuple(&self.catalog, class, &tuple)?;
        let extent = &mut self.extents[class.index()];
        let oid = ObjectId(extent.len() as u32);
        extent.push(tuple);
        Ok(oid)
    }

    /// Links `left` (an object of the relationship's left class) to `right`.
    pub fn link(
        &mut self,
        rel: RelId,
        left: ObjectId,
        right: ObjectId,
    ) -> Result<(), StorageError> {
        let def = self.catalog.relationship(rel)?;
        let lcard = self.extents[def.left.class.index()].len();
        let rcard = self.extents[def.right.class.index()].len();
        if left.index() >= lcard {
            return Err(StorageError::UnknownObject { class: def.left.class, object: left });
        }
        if right.index() >= rcard {
            return Err(StorageError::UnknownObject { class: def.right.class, object: right });
        }
        self.pending_links.push((rel, left, right));
        Ok(())
    }

    /// Builds indexes, statistics and link structures; enforces integrity.
    pub fn finalize(self, options: IntegrityOptions) -> Result<Database, StorageError> {
        let mut pairs: Vec<Vec<(ObjectId, ObjectId)>> =
            vec![Vec::new(); self.catalog.relationship_count()];
        for (rel, l, r) in &self.pending_links {
            pairs[rel.index()].push((*l, *r));
        }
        assemble(self.catalog, self.extents, pairs, Some(options), 0)
    }
}

/// Validates one tuple against a class declaration (arity + types).
fn validate_tuple(catalog: &Catalog, class: ClassId, tuple: &[Value]) -> Result<(), StorageError> {
    let def = catalog.class(class)?;
    if tuple.len() != def.attributes.len() {
        return Err(StorageError::ArityMismatch {
            class,
            expected: def.attributes.len(),
            got: tuple.len(),
        });
    }
    for (i, (v, a)) in tuple.iter().zip(&def.attributes).enumerate() {
        if v.data_type() != a.ty {
            return Err(StorageError::TypeMismatch {
                class,
                attr: i,
                context: format!("expected {}, got {}", a.ty, v.data_type()),
            });
        }
    }
    Ok(())
}

/// Adds the new tuple's entries to every declared index of its class.
fn index_insert(indexes: &mut [Option<AttrIndex>], tuple: &[Value], oid: ObjectId) {
    for (ai, slot) in indexes.iter_mut().enumerate() {
        if let Some(ix) = slot {
            ix.insert(tuple[ai].clone(), oid);
        }
    }
}

/// Removes the deleted tuple's index entries and — when the deletion
/// renumbered the class's last object — re-keys the moved tuple's entries
/// from `last` to `object`, preserving the ascending-oid posting order.
fn index_delete(
    indexes: &mut [Option<AttrIndex>],
    dead: &[Value],
    object: ObjectId,
    moved: Option<&[Value]>,
    last: ObjectId,
) {
    for (ai, slot) in indexes.iter_mut().enumerate() {
        if let Some(ix) = slot {
            ix.remove(&dead[ai], object);
            if let Some(m) = moved {
                ix.remove(&m[ai], last);
                ix.insert_sorted(m[ai].clone(), object);
            }
        }
    }
}

/// Rebuilds one self-relationship link table around the deletion of
/// `object` (edges removed, `last` renumbered onto `object`). O(this
/// relationship's links) — still O(touched), both sides are the deleted
/// object's class.
fn rebuild_self_links(lk: &RelLinks, object: ObjectId) -> RelLinks {
    let last = ObjectId((lk.left_cardinality() - 1) as u32);
    let mut pairs: Vec<(ObjectId, ObjectId)> = lk.pairs().collect();
    pairs.retain(|&(l, r)| l != object && r != object);
    if object != last {
        for p in pairs.iter_mut() {
            if p.0 == last {
                p.0 = object;
            }
            if p.1 == last {
                p.1 = object;
            }
        }
    }
    let n = lk.left_cardinality() - 1;
    let mut out = RelLinks::new(n, n);
    for (l, r) in pairs {
        out.add(l, r);
    }
    out.canonicalize();
    out
}

/// Builds every relationship's link table from flat pairs, in canonical
/// order.
fn build_links(
    catalog: &Catalog,
    extents: &[Arc<Extent>],
    pairs: &[Vec<(ObjectId, ObjectId)>],
) -> Vec<Arc<RelLinks>> {
    let mut links: Vec<RelLinks> = catalog
        .relationships()
        .map(|(_, def)| {
            RelLinks::new(
                extents[def.left.class.index()].len(),
                extents[def.right.class.index()].len(),
            )
        })
        .collect();
    for (rel, rel_pairs) in pairs.iter().enumerate() {
        for &(l, r) in rel_pairs {
            links[rel].add(l, r);
        }
        links[rel].canonicalize();
    }
    links.into_iter().map(Arc::new).collect()
}

/// Builds every class's declared indexes from its extent.
pub(crate) fn build_indexes(
    catalog: &Catalog,
    extents: &[Arc<Extent>],
) -> Vec<Arc<Vec<Option<AttrIndex>>>> {
    let mut indexes = Vec::with_capacity(catalog.class_count());
    for (cid, cdef) in catalog.classes() {
        let mut per_attr: Vec<Option<AttrIndex>> = Vec::with_capacity(cdef.attributes.len());
        for (ai, adef) in cdef.attributes.iter().enumerate() {
            per_attr.push(adef.index.map(|kind| {
                let mut ix = AttrIndex::new(kind);
                for (oi, tuple) in extents[cid.index()].iter().enumerate() {
                    ix.insert(tuple[ai].clone(), ObjectId(oi as u32));
                }
                ix
            }));
        }
        indexes.push(Arc::new(per_attr));
    }
    indexes
}

/// Assembles a snapshot from logical state: builds link structures, enforces
/// integrity declarations over **every** relationship (when requested),
/// builds the declared indexes and computes statistics from scratch. The
/// load path ([`DatabaseBuilder::finalize`]); the write paths share its
/// parts.
fn assemble(
    catalog: Arc<Catalog>,
    extents: Vec<Extent>,
    pairs: Vec<Vec<(ObjectId, ObjectId)>>,
    integrity: Option<IntegrityOptions>,
    data_version: u64,
) -> Result<Database, StorageError> {
    let extents: Vec<Arc<Extent>> = extents.into_iter().map(Arc::new).collect();
    let links = build_links(&catalog, &extents, &pairs);
    if let Some(options) = integrity {
        for (rel, def) in catalog.relationships() {
            enforce_rel_integrity(rel, def, &links[rel.index()], options)?;
        }
    }
    let indexes = build_indexes(&catalog, &extents);
    let stats = build_statistics(&catalog, &extents, &links);
    Ok(Database { catalog, extents, indexes, links, stats, data_version })
}

/// Checks one relationship's total-participation and to-one declarations.
fn enforce_rel_integrity(
    rel: RelId,
    def: &RelationshipDef,
    lk: &RelLinks,
    options: IntegrityOptions,
) -> Result<(), StorageError> {
    if options.enforce_total_participation {
        if def.left.total {
            if let Some(o) = lk.unlinked_left().next() {
                return Err(StorageError::TotalParticipationViolated {
                    rel,
                    class: def.left.class,
                    object: o,
                });
            }
        }
        if def.right.total {
            if let Some(o) = lk.unlinked_right().next() {
                return Err(StorageError::TotalParticipationViolated {
                    rel,
                    class: def.right.class,
                    object: o,
                });
            }
        }
    }
    if options.enforce_multiplicity {
        // `left.multiplicity == One` means each left object links to
        // at most one right object.
        if def.left.multiplicity == Multiplicity::One {
            let over = (0..lk.left_cardinality() as u32)
                .map(|o| (ObjectId(o), lk.from_left(ObjectId(o)).len()))
                .find(|&(_, links)| links > 1);
            if let Some((object, links)) = over {
                return Err(StorageError::MultiplicityViolated {
                    rel,
                    class: def.left.class,
                    object,
                    links,
                });
            }
        }
        if def.right.multiplicity == Multiplicity::One {
            let over = (0..lk.right_cardinality() as u32)
                .map(|o| (ObjectId(o), lk.from_right(ObjectId(o)).len()))
                .find(|&(_, links)| links > 1);
            if let Some((object, links)) = over {
                return Err(StorageError::MultiplicityViolated {
                    rel,
                    class: def.right.class,
                    object,
                    links,
                });
            }
        }
    }
    Ok(())
}

/// One class's statistics from one extent scan — the unit both the
/// from-scratch [`build_statistics`] and the per-class folding of
/// [`Database::with_writes`] are built from, so the two can never drift.
///
/// One stable sort per attribute yields everything. Its runs are the
/// distinct values, each led by the value's first occurrence in object-id
/// order (the representative reported, which matters only for `0.0` vs
/// `-0.0`); the first and last runs lead with `min` and `max`. The top-3
/// most common values order by count, ties broken by rendering for
/// determinism; only runs at or above the third-highest count are rendered,
/// each once, into a recycled buffer.
fn class_statistics(cdef: &ClassDef, extent: &Extent) -> ClassStats {
    let mut column: Vec<&Value> = Vec::with_capacity(extent.len());
    let mut buf = String::new();
    let mut attrs = Vec::with_capacity(cdef.attributes.len());
    for ai in 0..cdef.attributes.len() {
        column.clear();
        column.extend(extent.iter().map(|tuple| &tuple[ai]));
        column.sort_by(|a, b| total_cmp(a, b));
        let mut distinct = 0;
        let mut max = None;
        // The three largest run lengths, descending.
        let mut top = [0usize; 3];
        for run in column.chunk_by(|a, b| a == b) {
            distinct += 1;
            max = Some(run[0]);
            if run.len() > top[2] {
                top[2] = run.len();
                top.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        // The count a run needs to make the top 3 (with fewer than three
        // runs, every run makes it).
        let cut = top[distinct.clamp(1, 3) - 1];
        // Ascending by (count desc, rendering asc); at most 3 kept.
        let mut mcvs: Vec<(usize, String, &Value)> = Vec::with_capacity(4);
        for run in column.chunk_by(|a, b| a == b).filter(|run| run.len() >= cut) {
            buf.clear();
            let _ = write!(buf, "{}", run[0]); // a `String` sink cannot fail
            let pos = mcvs.partition_point(|(n, r, _)| {
                *n > run.len() || (*n == run.len() && r.as_str() < buf.as_str())
            });
            if pos < 3 {
                mcvs.insert(pos, (run.len(), std::mem::take(&mut buf), run[0]));
                if mcvs.len() > 3 {
                    buf = mcvs.pop().map(|(_, evicted, _)| evicted).unwrap_or_default();
                }
            }
        }
        attrs.push(AttrStats {
            rows: extent.len() as u64,
            distinct: distinct as u64,
            min: column.first().map(|v| (*v).clone()),
            max: max.cloned(),
            mcvs: mcvs.into_iter().map(|(n, _, v)| (v.clone(), n as u64)).collect(),
            histogram: Vec::new(),
        });
    }
    ClassStats { cardinality: extent.len() as u64, attrs }
}

/// One relationship's statistics — O(1) off the link table's counters.
fn rel_statistics(lk: &RelLinks) -> RelStats {
    RelStats {
        links: lk.link_count(),
        avg_left_fanout: if lk.left_cardinality() == 0 {
            0.0
        } else {
            lk.link_count() as f64 / lk.left_cardinality() as f64
        },
        avg_right_fanout: if lk.right_cardinality() == 0 {
            0.0
        } else {
            lk.link_count() as f64 / lk.right_cardinality() as f64
        },
    }
}

/// The from-scratch statistics build: every class, every relationship. The
/// initial load uses it; incremental writes fold per-class deltas instead
/// and fall back to it only through [`Database::rebuild_statistics`].
pub(crate) fn build_statistics(
    catalog: &Catalog,
    extents: &[Arc<Extent>],
    links: &[Arc<RelLinks>],
) -> StatsSnapshot {
    let classes = catalog
        .classes()
        .map(|(cid, cdef)| class_statistics(cdef, &extents[cid.index()]))
        .collect();
    let relationships = links.iter().map(|lk| rel_statistics(lk)).collect();
    StatsSnapshot { classes, relationships }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sqo_catalog::example::figure21;
    use sqo_catalog::DataType;
    use sqo_constraints::figure22;
    use sqo_query::CompOp;

    fn mini_db() -> (Arc<Catalog>, Database) {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let sfi = b.insert(supplier, vec![Value::str("SFI"), Value::str("1 Food St")]).unwrap();
        let ntuc = b.insert(supplier, vec![Value::str("NTUC"), Value::str("2 Mart Ave")]).unwrap();
        let frozen = b
            .insert(cargo, vec![Value::Int(100), Value::str("frozen food"), Value::Int(40)])
            .unwrap();
        let fresh = b
            .insert(cargo, vec![Value::Int(101), Value::str("fresh fruit"), Value::Int(7)])
            .unwrap();
        let reefer = b
            .insert(vehicle, vec![Value::Int(1), Value::str("refrigerated truck"), Value::Int(3)])
            .unwrap();
        let flatbed =
            b.insert(vehicle, vec![Value::Int(2), Value::str("flatbed"), Value::Int(1)]).unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        b.link(supplies, frozen, sfi).unwrap();
        b.link(supplies, fresh, ntuc).unwrap();
        b.link(collects, frozen, reefer).unwrap();
        b.link(collects, fresh, flatbed).unwrap();
        let db = b
            .finalize(IntegrityOptions {
                enforce_total_participation: false, // other classes are empty
                enforce_multiplicity: true,
            })
            .unwrap();
        (catalog, db)
    }

    #[test]
    fn insert_and_lookup() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(db.cardinality(cargo), 2);
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        assert_eq!(db.value(desc, ObjectId(0)).unwrap(), &Value::str("frozen food"));
        assert!(db.value(desc, ObjectId(9)).is_err());
    }

    #[test]
    fn arity_and_type_validation() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let cargo = catalog.class_id("cargo").unwrap();
        assert!(matches!(
            b.insert(cargo, vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.insert(cargo, vec![Value::str("x"), Value::str("d"), Value::Int(1)]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn traversal_both_directions() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        assert_eq!(db.traverse(supplies, cargo, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        assert_eq!(db.traverse(supplies, supplier, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        let engine = catalog.class_id("engine").unwrap();
        assert!(db.traverse(supplies, engine, ObjectId(0)).is_err());
    }

    #[test]
    fn indexes_built_from_declarations() {
        let (catalog, db) = mini_db();
        let name = catalog.attr_ref("supplier", "name").unwrap();
        let ix = db.index(name).expect("supplier.name is hash-indexed");
        assert_eq!(ix.probe_eq(&Value::str("SFI")), &[ObjectId(0)]);
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        assert!(db.index(desc).is_none(), "cargo.desc is unindexed");
    }

    #[test]
    fn stats_collected() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(db.stats().cardinality(cargo), 2);
        let qty = catalog.attr_ref("cargo", "quantity").unwrap();
        let s = db.stats().attr(qty).unwrap();
        assert_eq!(s.distinct, 2);
        assert_eq!(s.min, Some(Value::Int(7)));
        assert_eq!(s.max, Some(Value::Int(40)));
        let supplies = catalog.rel_id("supplies").unwrap();
        assert_eq!(db.stats().relationship(supplies).unwrap().links, 2);
    }

    #[test]
    fn multiplicity_enforced() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let s1 = b.insert(supplier, vec![Value::str("A"), Value::str("x")]).unwrap();
        let s2 = b.insert(supplier, vec![Value::str("B"), Value::str("y")]).unwrap();
        let c1 = b.insert(cargo, vec![Value::Int(1), Value::str("d"), Value::Int(1)]).unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // cargo is the to-one side: two suppliers for one cargo violates.
        b.link(supplies, c1, s1).unwrap();
        b.link(supplies, c1, s2).unwrap();
        let err = b.finalize(IntegrityOptions {
            enforce_total_participation: false,
            enforce_multiplicity: true,
        });
        assert!(matches!(err, Err(StorageError::MultiplicityViolated { .. })));
    }

    #[test]
    fn total_participation_enforced() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let cargo = catalog.class_id("cargo").unwrap();
        // A cargo with no supplier violates `supplies` (total on cargo side).
        b.insert(cargo, vec![Value::Int(1), Value::str("d"), Value::Int(1)]).unwrap();
        let err = b.finalize(IntegrityOptions::default());
        assert!(matches!(err, Err(StorageError::TotalParticipationViolated { .. })));
    }

    #[test]
    fn constraint_checking_finds_violations() {
        let (catalog, db) = mini_db();
        let constraints = figure22(&catalog).unwrap();
        // c1 and c2 hold on the mini instance.
        assert!(db.check_constraint(&constraints[0]).is_empty(), "c1 holds");
        assert!(db.check_constraint(&constraints[1]).is_empty(), "c2 holds");
        // A made-up constraint that fails: all cargo is frozen food.
        let bogus = sqo_constraints::ConstraintBuilder::new(&catalog, "bogus")
            .scope("cargo")
            .then("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let v = db.check_constraint(&bogus);
        assert_eq!(v.len(), 1, "the fresh-fruit cargo violates");
        assert_eq!(v[0].binding[0].1, ObjectId(1));
    }

    #[test]
    fn write_insert_extends_extent_indexes_links_and_stats() {
        let (catalog, db) = mini_db();
        assert_eq!(db.data_version(), 0);
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        // A third cargo: frozen food from SFI on the reefer (mirrors row 0).
        let (next, receipt) = db
            .with_writes(
                &[DataWrite::Insert {
                    class: cargo,
                    tuple: vec![Value::Int(102), Value::str("frozen food"), Value::Int(40)],
                    links: vec![(supplies, ObjectId(0)), (collects, ObjectId(0))],
                }],
                None,
            )
            .unwrap();
        assert_eq!(receipt.inserted, vec![ObjectId(2)]);
        assert!(receipt.moves.is_empty());
        assert_eq!(receipt.touched_classes, vec![cargo]);
        assert_eq!(next.data_version(), 1);
        assert_eq!(next.cardinality(cargo), 3);
        assert_eq!(db.cardinality(cargo), 2, "source snapshot untouched");
        // Links wired both ways.
        let supplier = catalog.class_id("supplier").unwrap();
        assert_eq!(next.traverse(supplies, cargo, ObjectId(2)).unwrap(), &[ObjectId(0)]);
        assert_eq!(
            next.traverse(supplies, supplier, ObjectId(0)).unwrap(),
            &[ObjectId(0), ObjectId(2)]
        );
        // Indexes patched over the new extent.
        let cno = catalog.attr_ref("cargo", "code").unwrap();
        let ix = next.index(cno).expect("cargo.code is indexed");
        assert_eq!(ix.probe_eq(&Value::Int(102)), &[ObjectId(2)]);
        // Statistics track the write (cardinality estimates stay honest).
        assert_eq!(next.stats().cardinality(cargo), 3);
        assert_eq!(next.stats().relationship(supplies).unwrap().links, 3);
    }

    #[test]
    fn untouched_shards_are_shared_by_pointer() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let belongs_to = catalog.rel_id("belongs_to").unwrap();
        let (next, _) = db
            .with_writes(
                &[DataWrite::Insert {
                    class: cargo,
                    tuple: vec![Value::Int(102), Value::str("frozen food"), Value::Int(40)],
                    links: vec![],
                }],
                None,
            )
            .unwrap();
        // The touched class got its own extent/index shards…
        assert!(!next.shares_extent_with(&db, cargo));
        assert!(!Arc::ptr_eq(&next.indexes[cargo.index()], &db.indexes[cargo.index()]));
        // …every other class is shared by pointer…
        for c in [supplier, vehicle] {
            assert!(next.shares_extent_with(&db, c), "{}", catalog.class_name(c));
            assert!(Arc::ptr_eq(&next.indexes[c.index()], &db.indexes[c.index()]));
        }
        // …and relationships not incident to cargo keep their link tables.
        assert!(Arc::ptr_eq(&next.links[belongs_to.index()], &db.links[belongs_to.index()]));
        for rel in [catalog.rel_id("supplies").unwrap(), catalog.rel_id("collects").unwrap()] {
            assert!(!Arc::ptr_eq(&next.links[rel.index()], &db.links[rel.index()]));
        }
    }

    #[test]
    fn write_delete_renumbers_the_last_object() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        // Delete cargo 0 (frozen food): cargo 1 (fresh fruit) takes id 0.
        let (next, receipt) = db
            .with_writes(&[DataWrite::Delete { class: cargo, object: ObjectId(0) }], None)
            .unwrap();
        assert_eq!(next.cardinality(cargo), 1);
        assert_eq!(receipt.moves, vec![(cargo, ObjectId(1), ObjectId(0))]);
        assert_eq!(next.value(desc, ObjectId(0)).unwrap(), &Value::str("fresh fruit"));
        // The renumbered object's links followed it: fresh fruit ← NTUC (1).
        assert_eq!(next.traverse(supplies, cargo, ObjectId(0)).unwrap(), &[ObjectId(1)]);
        // The deleted object's edges are gone from the other side too.
        let supplier = catalog.class_id("supplier").unwrap();
        assert!(next.traverse(supplies, supplier, ObjectId(0)).unwrap().is_empty());
        // Index entries for the deleted tuple are gone.
        let cno = catalog.attr_ref("cargo", "code").unwrap();
        if let Some(ix) = next.index(cno) {
            assert!(ix.probe_eq(&Value::Int(100)).is_empty());
            assert_eq!(ix.probe_eq(&Value::Int(101)), &[ObjectId(0)]);
        }
    }

    #[test]
    fn write_update_patches_tuple_index_and_stats_in_place() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let code = catalog.attr_ref("cargo", "code").unwrap();
        let (next, receipt) = db
            .with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(0),
                    attr: code.attr,
                    value: Value::Int(900),
                }],
                // Updates never touch links, so full integrity enforcement
                // is safe even on this partially-linked mini instance.
                Some(IntegrityOptions::default()),
            )
            .unwrap();
        assert_eq!(receipt.touched_classes, vec![cargo]);
        assert!(receipt.inserted.is_empty() && receipt.moves.is_empty());
        assert_eq!(next.value(code, ObjectId(0)).unwrap(), &Value::Int(900));
        assert_eq!(db.value(code, ObjectId(0)).unwrap(), &Value::Int(100), "source untouched");
        // The object kept its id and links.
        assert_eq!(next.traverse(supplies, cargo, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        // The index moved the entry…
        let ix = next.index(code).expect("cargo.code is indexed");
        assert!(ix.probe_eq(&Value::Int(100)).is_empty());
        assert_eq!(ix.probe_eq(&Value::Int(900)), &[ObjectId(0)]);
        // …and the class statistics see the new value distribution.
        assert_eq!(next.stats().attr(code).unwrap().max, Some(Value::Int(900)));
        // Validation: unknown attribute, wrong type, unknown object.
        assert!(matches!(
            db.with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(0),
                    attr: AttrId(9),
                    value: Value::Int(1),
                }],
                None,
            ),
            Err(StorageError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            db.with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(0),
                    attr: code.attr,
                    value: Value::str("nope"),
                }],
                None,
            ),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(7),
                    attr: code.attr,
                    value: Value::Int(1),
                }],
                None,
            ),
            Err(StorageError::UnknownObject { .. })
        ));
    }

    #[test]
    fn write_link_and_unlink_edges() {
        let (catalog, db) = mini_db();
        let collects = catalog.rel_id("collects").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        // Put the frozen cargo on the flatbed too, then take it off again.
        let (linked, _) = db
            .with_writes(
                &[DataWrite::Link { rel: collects, left: ObjectId(0), right: ObjectId(1) }],
                None,
            )
            .unwrap();
        assert_eq!(
            linked.traverse(collects, cargo, ObjectId(0)).unwrap(),
            &[ObjectId(0), ObjectId(1)]
        );
        let (unlinked, _) = linked
            .with_writes(
                &[DataWrite::Unlink { rel: collects, left: ObjectId(0), right: ObjectId(1) }],
                None,
            )
            .unwrap();
        assert_eq!(unlinked.traverse(collects, cargo, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        assert_eq!(unlinked.data_version(), 2);
        assert!(matches!(
            unlinked.with_writes(
                &[DataWrite::Unlink { rel: collects, left: ObjectId(0), right: ObjectId(1) }],
                None,
            ),
            Err(StorageError::LinkNotFound { .. })
        ));
    }

    #[test]
    fn inserted_ids_track_renumbering_by_later_deletes() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        // Insert a third cargo (id 2), then delete cargo 0: the insert is
        // swap-renumbered to id 0, and the receipt must say so.
        let (next, receipt) = db
            .with_writes(
                &[
                    DataWrite::Insert {
                        class: cargo,
                        tuple: vec![Value::Int(102), Value::str("canned soup"), Value::Int(9)],
                        links: vec![(supplies, ObjectId(0)), (collects, ObjectId(0))],
                    },
                    DataWrite::Delete { class: cargo, object: ObjectId(0) },
                ],
                None,
            )
            .unwrap();
        assert_eq!(receipt.inserted, vec![ObjectId(0)], "the insert's id followed the swap-remove");
        assert_eq!(receipt.moves, vec![(cargo, ObjectId(2), ObjectId(0))]);
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        assert_eq!(next.value(desc, receipt.inserted[0]).unwrap(), &Value::str("canned soup"));
        assert_eq!(next.cardinality(cargo), 2);
    }

    #[test]
    fn write_batches_are_atomic_and_validated() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // Second write of the batch fails: nothing is applied.
        let err = db.with_writes(
            &[
                DataWrite::Insert {
                    class: cargo,
                    tuple: vec![Value::Int(103), Value::str("d"), Value::Int(1)],
                    links: vec![(supplies, ObjectId(0))],
                },
                DataWrite::Insert { class: cargo, tuple: vec![Value::Int(1)], links: vec![] },
            ],
            None,
        );
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        assert_eq!(db.cardinality(cargo), 2);
        // Linking a new object against an unknown neighbor fails.
        let err = db.with_writes(
            &[DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(104), Value::str("d"), Value::Int(1)],
                links: vec![(supplies, ObjectId(9))],
            }],
            None,
        );
        assert!(matches!(err, Err(StorageError::UnknownObject { .. })));
    }

    #[test]
    fn insert_link_target_colliding_with_the_fresh_oid_is_validated_against_the_right_class() {
        // Regression: inserting on the *right* side of a relationship with a
        // link target whose id numerically equals the fresh oid used to be
        // validated against the wrong class (and then crashed link
        // assembly). It must be a clean UnknownObject on the opposite class.
        let (catalog, db) = mini_db();
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // New supplier gets oid 2; cargo 2 does not exist.
        let err = db.with_writes(
            &[DataWrite::Insert {
                class: supplier,
                tuple: vec![Value::str("X"), Value::str("addr")],
                links: vec![(supplies, ObjectId(2))],
            }],
            None,
        );
        assert_eq!(
            err.err(),
            Some(StorageError::UnknownObject { class: cargo, object: ObjectId(2) })
        );
    }

    #[test]
    fn write_integrity_enforcement_rejects_violating_batches() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let options = IntegrityOptions {
            enforce_total_participation: false, // other classes are empty
            enforce_multiplicity: true,
        };
        // A second supplier for cargo 0 violates the to-one side.
        let err = db.with_writes(
            &[DataWrite::Link { rel: supplies, left: ObjectId(0), right: ObjectId(1) }],
            Some(options),
        );
        assert!(matches!(err, Err(StorageError::MultiplicityViolated { .. })));
        // The same batch passes when enforcement is off.
        assert!(db
            .with_writes(
                &[DataWrite::Link { rel: supplies, left: ObjectId(0), right: ObjectId(1) }],
                None,
            )
            .is_ok());
        // An unlinked cargo insert trips total participation when enforced.
        let err = db.with_writes(
            &[DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(105), Value::str("d"), Value::Int(1)],
                links: vec![],
            }],
            Some(IntegrityOptions::default()),
        );
        assert!(matches!(err, Err(StorageError::TotalParticipationViolated { .. })));
    }

    #[test]
    fn duplicating_an_instance_preserves_constraints() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        // Duplicate cargo 0 with its links — every figure 2.2 constraint
        // that held keeps holding (the dup's bindings mirror the source's).
        let tuple = db.tuple(cargo, ObjectId(0)).unwrap().to_vec();
        let links: Vec<_> = [supplies, collects]
            .into_iter()
            .map(|rel| (rel, db.traverse(rel, cargo, ObjectId(0)).unwrap()[0]))
            .collect();
        let (next, _) =
            db.with_writes(&[DataWrite::Insert { class: cargo, tuple, links }], None).unwrap();
        for c in figure22(&catalog).unwrap() {
            assert!(next.check_constraint(&c).is_empty(), "{} violated after dup", c.name);
        }
    }

    #[test]
    fn incremental_write_matches_the_full_rebuild_oracle() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        let code = catalog.attr_ref("cargo", "code").unwrap();
        // A batch exercising every write kind at once.
        let batch = vec![
            DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(102), Value::str("frozen food"), Value::Int(40)],
                links: vec![(supplies, ObjectId(0)), (collects, ObjectId(0))],
            },
            DataWrite::Update {
                class: cargo,
                object: ObjectId(1),
                attr: code.attr,
                value: Value::Int(555),
            },
            DataWrite::Link { rel: collects, left: ObjectId(1), right: ObjectId(0) },
            DataWrite::Delete { class: cargo, object: ObjectId(0) },
            DataWrite::Unlink { rel: collects, left: ObjectId(1), right: ObjectId(0) },
        ];
        let (inc, r1) = db.with_writes(&batch, None).unwrap();
        let (full, r2) = db.with_writes_full(&batch, None).unwrap();
        assert_eq!(r1, r2, "receipts agree");
        assert_eq!(inc.data_version(), full.data_version());
        for (cid, _) in catalog.classes() {
            assert_eq!(inc.cardinality(cid), full.cardinality(cid));
            for o in 0..inc.cardinality(cid) as u32 {
                assert_eq!(
                    inc.tuple(cid, ObjectId(o)).unwrap(),
                    full.tuple(cid, ObjectId(o)).unwrap()
                );
            }
        }
        for (rel, def) in catalog.relationships() {
            for o in 0..inc.cardinality(def.left.class) as u32 {
                assert_eq!(
                    inc.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                    full.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                    "{} left {o}",
                    catalog.rel_name(rel)
                );
            }
        }
        let ix_inc = inc.index(code).unwrap();
        let ix_full = full.index(code).unwrap();
        for v in [100, 101, 102, 555] {
            assert_eq!(ix_inc.probe_eq(&Value::Int(v)), ix_full.probe_eq(&Value::Int(v)));
        }
        assert_eq!(inc.stats(), full.stats());
        // Vehicle was never touched: its shard is shared with the source.
        assert!(inc.shares_extent_with(&db, vehicle));
    }

    #[test]
    fn folded_statistics_match_the_from_scratch_rebuild() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let mut current = db;
        // A chain of writes; after each, the folded stats must equal a full
        // rescan of the successor.
        let batches = vec![
            vec![DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(300), Value::str("frozen food"), Value::Int(12)],
                links: vec![],
            }],
            vec![DataWrite::Update {
                class: cargo,
                object: ObjectId(0),
                attr: catalog.attr_ref("cargo", "quantity").unwrap().attr,
                value: Value::Int(99),
            }],
            vec![DataWrite::Delete { class: cargo, object: ObjectId(0) }],
        ];
        for batch in batches {
            let (next, _) = current.with_writes(&batch, None).unwrap();
            assert_eq!(next.stats(), &next.rebuild_statistics());
            current = next;
        }
    }

    #[test]
    fn constraint_checking_respects_links() {
        let (catalog, db) = mini_db();
        // "Flatbeds only carry fresh fruit" — true because of the link shape.
        let c = sqo_constraints::ConstraintBuilder::new(&catalog, "flatbed")
            .when("vehicle.desc", CompOp::Eq, "flatbed")
            .via("collects")
            .then("cargo.desc", CompOp::Eq, "fresh fruit")
            .build()
            .unwrap();
        assert!(db.check_constraint(&c).is_empty());
        // "Flatbeds only carry frozen food" — violated by the fresh-fruit link.
        let c2 = sqo_constraints::ConstraintBuilder::new(&catalog, "flatbed2")
            .when("vehicle.desc", CompOp::Eq, "flatbed")
            .via("collects")
            .then("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        assert_eq!(db.check_constraint(&c2).len(), 1);
    }

    /// The original sort-everything statistics pass, kept as the oracle
    /// [`class_statistics`] must reproduce bit for bit.
    fn class_statistics_reference(cdef: &ClassDef, extent: &Extent) -> ClassStats {
        use std::collections::HashMap;
        let attrs = (0..cdef.attributes.len())
            .map(|ai| {
                let mut counts: HashMap<&Value, u64> = HashMap::new();
                let mut min: Option<&Value> = None;
                let mut max: Option<&Value> = None;
                for tuple in extent {
                    let v = &tuple[ai];
                    *counts.entry(v).or_insert(0) += 1;
                    min = Some(match min {
                        None => v,
                        Some(m) => {
                            if v.compare(m) == Some(std::cmp::Ordering::Less) {
                                v
                            } else {
                                m
                            }
                        }
                    });
                    max = Some(match max {
                        None => v,
                        Some(m) => {
                            if v.compare(m) == Some(std::cmp::Ordering::Greater) {
                                v
                            } else {
                                m
                            }
                        }
                    });
                }
                // Top-3 most common values, ties broken by rendering for
                // determinism.
                let mut mcvs: Vec<(Value, u64)> =
                    counts.iter().map(|(v, c)| ((*v).clone(), *c)).collect();
                mcvs.sort_by(|a, b| {
                    b.1.cmp(&a.1).then_with(|| a.0.to_string().cmp(&b.0.to_string()))
                });
                mcvs.truncate(3);
                AttrStats {
                    rows: extent.len() as u64,
                    distinct: counts.len() as u64,
                    min: min.cloned(),
                    max: max.cloned(),
                    mcvs,
                    histogram: Vec::new(),
                }
            })
            .collect();
        ClassStats { cardinality: extent.len() as u64, attrs }
    }

    /// A class of one `ty` column per entry of `types`.
    fn class_of(types: &[DataType]) -> ClassDef {
        ClassDef {
            name: "t".into(),
            attributes: types
                .iter()
                .enumerate()
                .map(|(i, ty)| sqo_catalog::AttributeDef::new(format!("a{i}"), *ty))
                .collect(),
            parent: None,
        }
    }

    /// Asserts the rewrite matches the oracle bit for bit: `Debug` tells
    /// `0.0` from `-0.0`, which `PartialEq` on `f64` does not.
    fn assert_matches_reference(cdef: &ClassDef, extent: &Extent) -> ClassStats {
        let got = class_statistics(cdef, extent);
        let want = class_statistics_reference(cdef, extent);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "extent {extent:?}");
        got
    }

    fn floats(xs: &[f64]) -> Extent {
        xs.iter().map(|x| vec![Value::float(*x).unwrap()]).collect()
    }

    #[test]
    fn class_statistics_edge_cases() {
        let int = class_of(&[DataType::Int]);
        let ints = |xs: &[i64]| -> Extent { xs.iter().map(|x| vec![Value::Int(*x)]).collect() };

        // Empty extent.
        let s = assert_matches_reference(&int, &Vec::new());
        assert_eq!((s.attrs[0].distinct, s.attrs[0].min.clone()), (0, None));
        assert!(s.attrs[0].mcvs.is_empty());

        // Fewer than three distinct values.
        let s = assert_matches_reference(&int, &ints(&[4, 2, 4]));
        assert_eq!(s.attrs[0].mcvs, vec![(Value::Int(4), 2), (Value::Int(2), 1)]);

        // All distinct: the tie-break is the rendering, "10" < "2".
        let s = assert_matches_reference(&int, &ints(&(1..=12).rev().collect::<Vec<_>>()));
        let mcv_values: Vec<_> = s.attrs[0].mcvs.iter().map(|(v, _)| v.clone()).collect();
        assert_eq!(mcv_values, vec![Value::Int(1), Value::Int(10), Value::Int(11)]);

        // Renderings quote strings, so `"a "` sorts before `"a"`.
        let strs = class_of(&[DataType::Str]);
        let extent: Extent = ["b", "a", "c", "a "].iter().map(|x| vec![Value::str(x)]).collect();
        let s = assert_matches_reference(&strs, &extent);
        let mcv_values: Vec<_> = s.attrs[0].mcvs.iter().map(|(v, _)| v.clone()).collect();
        assert_eq!(mcv_values, vec![Value::str("a "), Value::str("a"), Value::str("b")]);

        // ±0.0 is one group represented by its first occurrence, for min,
        // max and the MCV alike.
        let float = class_of(&[DataType::Float]);
        let s = assert_matches_reference(&float, &floats(&[-0.0, 0.0, 0.0]));
        let neg =
            |v: &Option<Value>| matches!(v, Some(Value::Float(x)) if x.get().is_sign_negative());
        assert!(neg(&s.attrs[0].min) && neg(&s.attrs[0].max));
        assert!(neg(&Some(s.attrs[0].mcvs[0].0.clone())));
        assert_eq!((s.attrs[0].distinct, s.attrs[0].mcvs[0].1), (1, 3));
        assert_matches_reference(&float, &floats(&[0.0, 1.5, -0.0, -2.0, -0.0, 1.5]));

        // Several runs tied exactly at the cut: the smallest renderings win.
        let s = assert_matches_reference(&int, &ints(&[7, 30, 30, 5, 5, 30, 7, 100, 100, 9]));
        assert_eq!(
            s.attrs[0].mcvs,
            vec![(Value::Int(30), 3), (Value::Int(100), 2), (Value::Int(5), 2)]
        );
    }

    const FLOATS: [f64; 8] = [0.0, -0.0, 1.5, -2.0, 10.0, 9.0, f64::INFINITY, f64::NEG_INFINITY];
    const STRS: [&str; 8] = ["a", "a ", "a!", "", "b", "\"", "10", "9"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn class_statistics_matches_reference(
            rows in prop::collection::vec(
                (0i64..6, -12i64..=12, 0usize..FLOATS.len(), 0usize..STRS.len(), 0u8..2),
                0..40,
            )
        ) {
            let cdef = class_of(&[
                DataType::Int,
                DataType::Int,
                DataType::Float,
                DataType::Str,
                DataType::Bool,
            ]);
            let extent: Extent = rows
                .iter()
                .map(|&(few, wide, f, s, b)| {
                    vec![
                        Value::Int(few),
                        Value::Int(wide),
                        Value::float(FLOATS[f]).unwrap(),
                        Value::str(STRS[s]),
                        Value::Bool(b == 1),
                    ]
                })
                .collect();
            assert_matches_reference(&cdef, &extent);
        }
    }
}
