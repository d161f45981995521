//! Strongly-typed identifiers for tasks, data handles and task types.
//!
//! All identifiers are dense `u32` indices into the owning [`TaskGraph`]
//! (respectively its type registry), which keeps every per-task /
//! per-data side table a flat `Vec` — no hashing on the hot paths.
//!
//! [`TaskGraph`]: crate::graph::TaskGraph

use std::fmt;

macro_rules! dense_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Build an id from a `usize` index (panics on overflow).
            #[inline]
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }

            /// The dense index backing this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

dense_id!(
    /// Identifier of a task (a vertex of the DAG).
    TaskId,
    "t"
);
dense_id!(
    /// Identifier of a data handle (a tile, a multipole expansion, ...).
    DataId,
    "d"
);
dense_id!(
    /// Identifier of a task *type* (kernel), e.g. `GEMM` or `P2P`.
    TaskTypeId,
    "k"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let t = TaskId::from_index(42);
        assert_eq!(t.index(), 42);
        assert_eq!(t, TaskId(42));
    }

    #[test]
    fn display_prefixes() {
        assert_eq!(TaskId(3).to_string(), "t3");
        assert_eq!(DataId(7).to_string(), "d7");
        assert_eq!(TaskTypeId(1).to_string(), "k1");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(TaskId(1) < TaskId(2));
        assert!(DataId(0) < DataId(100));
    }
}
