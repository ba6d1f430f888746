//! Strongly-typed identifiers for catalog objects.
//!
//! Every schema element is referenced by a small copyable id rather than by
//! name, so the hot optimizer loops never touch strings. Ids are only
//! meaningful relative to the [`Catalog`](crate::Catalog) that minted them.

use std::fmt;

/// Identifier of an object class within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// Identifier of an attribute, local to its owning class.
///
/// Attributes are addressed as a `(ClassId, AttrId)` pair; see
/// [`AttrRef`](crate::AttrRef) for the combined form used by predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

/// Identifier of a relationship within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(pub u32);

/// A fully-qualified attribute reference: `class.attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrRef {
    pub class: ClassId,
    pub attr: AttrId,
}

impl AttrRef {
    pub const fn new(class: ClassId, attr: AttrId) -> Self {
        Self { class, attr }
    }
}

impl ClassId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AttrId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RelId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr#{}", self.0)
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel#{}", self.0)
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(ClassId(0) < ClassId(1));
        assert!(AttrId(3) > AttrId(2));
        assert!(RelId(5) == RelId(5));
    }

    #[test]
    fn attr_ref_identity() {
        let a = AttrRef::new(ClassId(1), AttrId(2));
        let b = AttrRef::new(ClassId(1), AttrId(2));
        let c = AttrRef::new(ClassId(2), AttrId(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_is_stable() {
        let a = AttrRef::new(ClassId(1), AttrId(2));
        assert_eq!(a.to_string(), "class#1.attr#2");
    }
}
