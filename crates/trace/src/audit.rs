//! Audit records: typed invariant-violation reports.
//!
//! The simulator's invariant auditor (`mp-sim`, `--features audit`) and
//! the differential harness (`mp-audit`) both report violations as
//! [`AuditRecord`]s, so a broken scheduler or engine produces a
//! diagnosable list instead of a dead process. The types live here, next
//! to the other trace records, because violations are timestamped events
//! of a run exactly like task and transfer spans.

/// The invariant that was violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditKind {
    /// MSI coherence: a handle had more than one dirty replica.
    MultipleDirtyReplicas,
    /// MSI coherence: a dirty replica coexisted with an unpinned replica
    /// holding a *stale* value (valid before the write committed). Copies
    /// fetched from the dirty owner after its commit are coherent shared
    /// reads; pinned concurrent readers may keep a stale copy alive.
    DirtyNotSole,
    /// A memory node held more bytes than its declared capacity.
    CapacityExceeded,
    /// A replica still carried pins at quiesce (pin/unpin imbalance).
    PinLeak,
    /// A directed link's busy horizon moved backwards (transfers must be
    /// appended in FIFO order).
    LinkTimeRegression,
    /// The event queue delivered an event before an already-processed
    /// one (virtual time must be monotone).
    EventTimeRegression,
}

impl std::fmt::Display for AuditKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One invariant violation, timestamped in engine time (µs).
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Engine time at which the violation was detected.
    pub time: f64,
    /// Which invariant broke.
    pub kind: AuditKind,
    /// Human-readable context (handle, node, counts, ...).
    pub detail: String,
}

impl AuditRecord {
    /// Build a record.
    pub fn new(time: f64, kind: AuditKind, detail: impl Into<String>) -> Self {
        Self {
            time,
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[t={:.3}] {}: {}", self.time, self.kind, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_displays_as_debug_name() {
        assert_eq!(
            AuditKind::LinkTimeRegression.to_string(),
            "LinkTimeRegression"
        );
    }
}
