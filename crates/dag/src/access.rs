//! Data access modes, the source of STF dependency inference.

/// How a task accesses one of its data handles.
///
/// These are the StarPU access modes relevant to dependency inference.
/// `ReadWrite` behaves as a read *and* a write for inference purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// The task only reads the handle; concurrent readers are allowed.
    Read,
    /// The task overwrites the handle without reading it first.
    Write,
    /// The task reads then updates the handle in place.
    ReadWrite,
}

impl AccessMode {
    /// Does this access observe the previous value of the data?
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Does this access produce a new value of the data?
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_flags() {
        assert!(AccessMode::Read.reads());
        assert!(!AccessMode::Read.writes());
    }

    #[test]
    fn write_flags() {
        assert!(!AccessMode::Write.reads());
        assert!(AccessMode::Write.writes());
    }

    #[test]
    fn readwrite_flags() {
        assert!(AccessMode::ReadWrite.reads());
        assert!(AccessMode::ReadWrite.writes());
    }
}
