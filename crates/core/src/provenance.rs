//! Decision provenance: *why* did MultiPrio hand (or refuse) a task?
//!
//! The paper's evaluation explains makespan gaps through scheduler
//! behavior — which worker was held back, which per-arch δ won a pop —
//! but a task trace alone cannot answer those questions post-hoc. This
//! module records, for every MultiPrio pop decision, the selection
//! window the candidate was chosen from (Sec. V-C's top-n ε-band) and
//! the scores that decided the outcome, in a bounded ring buffer with
//! slot reuse.
//!
//! Recording happens only when built with `mp-trace/obs`
//! (the `pop` hot path guards it behind a constant-folded
//! `obs_enabled()` check); the ring itself is always present, merely
//! empty. The [`ProvenanceRing::explain`] renderer turns the records
//! involving one task into a "why was this worker idle" drill-down.

use std::fmt::Write as _;

use mp_dag::ids::TaskId;
use mp_platform::types::{ArchId, MemNodeId, WorkerId};
use mp_trace::DecisionInstant;

use crate::heap::Score;

/// Default ring capacity (records kept before the oldest is reused).
pub const DEFAULT_PROVENANCE_CAPACITY: usize = 4096;

/// One entry of the selection window at decision time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowEntry {
    /// The candidate task.
    pub task: TaskId,
    /// Its gain score (Eq. 1, normalized to [0, 1]).
    pub gain: f64,
    /// Its criticality score (Eq. 2, normalized NOD).
    pub prio: f64,
}

/// How one pop decision ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PopOutcome {
    /// The candidate was handed to the worker.
    Taken {
        /// The winning task.
        task: TaskId,
        /// The task's fastest architecture.
        best_arch: ArchId,
        /// δ on the fastest architecture (µs).
        delta_best: f64,
        /// δ on the requesting worker's architecture (µs).
        delta_here: f64,
        /// The node-gain score it was enqueued with on this node.
        node_gain: f64,
    },
    /// The pop condition rejected the candidate (hold-back); it was
    /// evicted from this node's heap when `evicted` is set, otherwise
    /// skipped in place (last live replica).
    Held {
        /// The rejected task.
        task: TaskId,
        /// The task's fastest architecture.
        best_arch: ArchId,
        /// δ on the fastest architecture (µs).
        delta_best: f64,
        /// δ on the requesting worker's architecture (µs, NaN when the
        /// worker cannot run it at all).
        delta_here: f64,
        /// Best-arch backlog the condition compared against (µs).
        backlog: f64,
        /// Was the entry evicted from this node's heap?
        evicted: bool,
    },
    /// The heap offered no (further) live candidate.
    Empty,
}

/// One recorded pop decision.
#[derive(Clone, Debug, PartialEq)]
pub struct PopRecord {
    /// Monotonic decision sequence number (never reused).
    pub seq: u64,
    /// Engine time of the pop (µs).
    pub now: f64,
    /// The requesting worker.
    pub worker: WorkerId,
    /// The memory node whose heap was consulted.
    pub mem_node: MemNodeId,
    /// The selection window (live top-k within ε), best first.
    pub window: Vec<WindowEntry>,
    /// What happened.
    pub outcome: PopOutcome,
}

impl PopRecord {
    /// Does this record mention `t` (as winner, reject, or window
    /// member)?
    pub fn mentions(&self, t: TaskId) -> bool {
        match self.outcome {
            PopOutcome::Taken { task, .. } | PopOutcome::Held { task, .. } if task == t => {
                return true
            }
            _ => {}
        }
        self.window.iter().any(|e| e.task == t)
    }

    /// Short label for timeline exports ("pop t42", "hold t17", ...).
    pub fn label(&self) -> String {
        match self.outcome {
            PopOutcome::Taken { task, .. } => format!("pop t{}", task.index()),
            PopOutcome::Held { task, .. } => format!("hold t{}", task.index()),
            PopOutcome::Empty => "pop (empty)".to_string(),
        }
    }
}

/// Bounded ring of [`PopRecord`]s with slot reuse: once full, the oldest
/// record's storage (including its window `Vec`) is recycled in place.
#[derive(Debug)]
pub struct ProvenanceRing {
    cap: usize,
    /// Records in ring order; `slots.len() < cap` while filling.
    slots: Vec<PopRecord>,
    /// Next slot to (re)use once `slots.len() == cap`.
    head: usize,
    /// Total decisions ever recorded (monotonic).
    seq: u64,
}

impl Default for ProvenanceRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PROVENANCE_CAPACITY)
    }
}

impl ProvenanceRing {
    /// Ring keeping at most `cap` records (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            slots: Vec::new(),
            head: 0,
            seq: 0,
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// No records yet (always true without `mp-trace/obs`).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total decisions ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Record one decision. `window` is the scheduler's selection-window
    /// scratch, copied into the (possibly recycled) slot.
    pub fn record(
        &mut self,
        now: f64,
        worker: WorkerId,
        mem_node: MemNodeId,
        window: &[(TaskId, Score)],
        outcome: PopOutcome,
    ) {
        let seq = self.seq;
        self.seq += 1;
        let entries = window.iter().map(|&(task, s)| WindowEntry {
            task,
            gain: s.gain,
            prio: s.prio,
        });
        if self.slots.len() < self.cap {
            self.slots.push(PopRecord {
                seq,
                now,
                worker,
                mem_node,
                window: entries.collect(),
                outcome,
            });
            return;
        }
        let slot = &mut self.slots[self.head];
        self.head = (self.head + 1) % self.cap;
        slot.seq = seq;
        slot.now = now;
        slot.worker = worker;
        slot.mem_node = mem_node;
        slot.window.clear();
        slot.window.extend(entries);
        slot.outcome = outcome;
    }

    /// Records in chronological order (oldest retained first).
    pub fn iter(&self) -> impl Iterator<Item = &PopRecord> {
        let (older, newer) = self.slots.split_at(self.head.min(self.slots.len()));
        newer.iter().chain(older.iter())
    }

    /// All retained records mentioning `t`, oldest first.
    pub fn records_for(&self, t: TaskId) -> Vec<&PopRecord> {
        self.iter().filter(|r| r.mentions(t)).collect()
    }

    /// Timeline instants for the Chrome exporter, oldest first.
    pub fn decisions(&self) -> Vec<DecisionInstant> {
        self.iter()
            .map(|r| DecisionInstant {
                at: r.now,
                worker: r.worker.index(),
                label: r.label(),
            })
            .collect()
    }

    /// Text drill-down: every retained decision that involved `t`,
    /// rendered for a human ("why was this worker idle / why did t wait").
    pub fn explain(&self, t: TaskId) -> String {
        let records = self.records_for(t);
        if records.is_empty() {
            return format!(
                "no retained decision mentions t{} ({} recorded total, ring keeps {})",
                t.index(),
                self.seq,
                self.cap
            );
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "t{}: {} retained decision(s) of {} recorded",
            t.index(),
            records.len(),
            self.seq
        );
        for r in records {
            let _ = write!(
                out,
                "  #{} @{:.3}us worker {} node {}: ",
                r.seq,
                r.now,
                r.worker.index(),
                r.mem_node.index()
            );
            match r.outcome {
                PopOutcome::Taken {
                    task,
                    best_arch,
                    delta_best,
                    delta_here,
                    node_gain,
                } => {
                    let _ = writeln!(
                        out,
                        "POP t{} (gain {:.3}, δ_here {:.1}us, δ_best {:.1}us on arch {})",
                        task.index(),
                        node_gain,
                        delta_here,
                        delta_best,
                        best_arch.index()
                    );
                }
                PopOutcome::Held {
                    task,
                    best_arch,
                    delta_best,
                    delta_here,
                    backlog,
                    evicted,
                } => {
                    let _ = writeln!(
                        out,
                        "HELD t{} for arch {} (δ_here {:.1}us > backlog {:.1}us; \
                         δ_best {:.1}us){}",
                        task.index(),
                        best_arch.index(),
                        delta_here,
                        backlog,
                        delta_best,
                        if evicted { " [evicted]" } else { " [kept]" }
                    );
                }
                PopOutcome::Empty => {
                    let _ = writeln!(out, "EMPTY (no live candidate)");
                }
            }
            if !r.window.is_empty() {
                let _ = write!(out, "      window:");
                for e in &r.window {
                    let _ = write!(out, " t{}(g{:.3},p{:.3})", e.task.index(), e.gain, e.prio);
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ring: &mut ProvenanceRing, i: u32, outcome: PopOutcome) {
        ring.record(
            i as f64,
            WorkerId(0),
            MemNodeId(0),
            &[(TaskId(i), Score::new(0.5, 0.25))],
            outcome,
        );
    }

    #[test]
    fn ring_wraps_and_reuses_slots() {
        let mut ring = ProvenanceRing::with_capacity(3);
        for i in 0..5u32 {
            rec(
                &mut ring,
                i,
                PopOutcome::Taken {
                    task: TaskId(i),
                    best_arch: ArchId(0),
                    delta_best: 1.0,
                    delta_here: 1.0,
                    node_gain: 0.5,
                },
            );
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
        let seqs: Vec<u64> = ring.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest first, oldest two recycled");
    }

    #[test]
    fn explain_renders_takes_holds_and_window_membership() {
        let mut ring = ProvenanceRing::with_capacity(8);
        rec(
            &mut ring,
            7,
            PopOutcome::Held {
                task: TaskId(7),
                best_arch: ArchId(1),
                delta_best: 10.0,
                delta_here: 100.0,
                backlog: 10.0,
                evicted: true,
            },
        );
        rec(
            &mut ring,
            7,
            PopOutcome::Taken {
                task: TaskId(7),
                best_arch: ArchId(1),
                delta_best: 10.0,
                delta_here: 10.0,
                node_gain: 0.9,
            },
        );
        let text = ring.explain(TaskId(7));
        assert!(text.contains("HELD t7"), "{text}");
        assert!(text.contains("[evicted]"), "{text}");
        assert!(text.contains("POP t7"), "{text}");
        assert!(text.contains("window:"), "{text}");
        // A task only seen in a window is still explainable.
        let text9 = ring.explain(TaskId(9));
        assert!(text9.contains("no retained decision"), "{text9}");
    }

    #[test]
    fn decisions_feed_the_timeline() {
        let mut ring = ProvenanceRing::with_capacity(4);
        rec(&mut ring, 1, PopOutcome::Empty);
        let d = ring.decisions();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].label, "pop (empty)");
        assert_eq!(d[0].at, 1.0);
    }
}
