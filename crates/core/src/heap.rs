//! Binary max-heap of scored tasks with O(log n) arbitrary removal.
//!
//! The paper's ready-task store is "a set of priority queues implemented
//! as binary max-heap data structures" (Sec. III-B), one per memory node,
//! with two additional requirements over a textbook heap:
//!
//! * **removal of an arbitrary task** — the eviction mechanism deletes an
//!   entry from one heap while leaving its duplicates in the others, and
//!   duplicate entries of already-executed tasks must be scrubbed lazily;
//! * **top-k enumeration** — the data-locality pass inspects "the first
//!   n tasks in the heap" without disturbing it.
//!
//! Removal is supported by a task→slot index maintained through every
//! sift; top-k runs the classic O(k log k) frontier walk over the
//! implicit tree.

use std::collections::HashMap;

use mp_dag::ids::TaskId;

/// The per-(task, memory-node) priority: the gain score, tie-broken by
/// the criticality score (paper Sec. IV-B: "we first sort the tasks using
/// the gain heuristic; if two tasks have equal scores, we then sort them
/// using the criticality heuristic"). Both are normalized to [0, 1].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Gain heuristic value (Eq. 1).
    pub gain: f64,
    /// Criticality (normalized NOD, Eq. 2).
    pub prio: f64,
}

impl Score {
    /// Construct, rejecting NaNs early (they would corrupt the heap).
    pub fn new(gain: f64, prio: f64) -> Self {
        assert!(!gain.is_nan() && !prio.is_nan(), "scores must not be NaN");
        Self { gain, prio }
    }

    /// Lexicographic comparison: gain first, then criticality.
    #[inline]
    pub fn cmp_total(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then(self.prio.total_cmp(&other.prio))
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    score: Score,
    task: TaskId,
}

impl Entry {
    /// Heap order: score, with task id as the final deterministic tie-break
    /// (earlier-submitted task wins).
    #[inline]
    fn beats(&self, other: &Entry) -> bool {
        match self.score.cmp_total(&other.score) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => self.task < other.task,
        }
    }
}

/// Max-heap over `(Score, TaskId)` with positional tracking.
#[derive(Clone, Debug, Default)]
pub struct RemovableMaxHeap {
    data: Vec<Entry>,
    pos: HashMap<TaskId, usize>,
}

impl RemovableMaxHeap {
    /// New empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Does the heap contain this task?
    pub fn contains(&self, t: TaskId) -> bool {
        self.pos.contains_key(&t)
    }

    /// Insert a task. Panics if already present (each heap holds at most
    /// one entry per task; duplication happens *across* heaps).
    pub fn push(&mut self, t: TaskId, score: Score) {
        assert!(!self.contains(t), "task {t:?} already in this heap");
        let i = self.data.len();
        self.data.push(Entry { score, task: t });
        self.pos.insert(t, i);
        self.sift_up(i);
    }

    /// The highest-scored entry, if any.
    pub fn peek(&self) -> Option<(TaskId, Score)> {
        self.data.first().map(|e| (e.task, e.score))
    }

    /// Remove and return the highest-scored entry.
    pub fn pop(&mut self) -> Option<(TaskId, Score)> {
        if self.data.is_empty() {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// Remove a specific task; returns its score if it was present.
    pub fn remove(&mut self, t: TaskId) -> Option<Score> {
        let i = *self.pos.get(&t)?;
        Some(self.remove_at(i).1)
    }

    /// The `k` highest-scored entries in descending order, without
    /// modifying the heap. O(k log k).
    pub fn top_k(&self, k: usize) -> Vec<(TaskId, Score)> {
        let mut out = Vec::with_capacity(k.min(self.data.len()));
        self.top_k_into(k, &mut out);
        out
    }

    /// Like [`Self::top_k`], but writing into a caller-provided buffer so
    /// analysis paths that call this per pop can reuse one allocation.
    pub fn top_k_into(&self, k: usize, out: &mut Vec<(TaskId, Score)>) {
        out.clear();
        if k == 0 || self.data.is_empty() {
            return;
        }
        // Frontier of candidate slots ordered by entry priority.
        let mut frontier: Vec<usize> = vec![0];
        while out.len() < k && !frontier.is_empty() {
            // Extract the best candidate (frontier stays tiny: ≤ k+1).
            let best = (0..frontier.len())
                .max_by(|&x, &y| {
                    let (ex, ey) = (&self.data[frontier[x]], &self.data[frontier[y]]);
                    if ex.beats(ey) {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Less
                    }
                })
                .expect("frontier non-empty");
            let slot = frontier.swap_remove(best);
            let e = &self.data[slot];
            out.push((e.task, e.score));
            for child in [2 * slot + 1, 2 * slot + 2] {
                if child < self.data.len() {
                    frontier.push(child);
                }
            }
        }
    }

    /// Iterate over all entries in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Score)> + '_ {
        self.data.iter().map(|e| (e.task, e.score))
    }

    fn remove_at(&mut self, i: usize) -> (TaskId, Score) {
        let last = self.data.len() - 1;
        self.data.swap(i, last);
        let removed = self.data.pop().expect("non-empty by construction");
        self.pos.remove(&removed.task);
        if i < self.data.len() {
            self.pos.insert(self.data[i].task, i);
            // The swapped-in element may need to move either way.
            let i2 = self.sift_up(i);
            self.sift_down(i2);
        }
        (removed.task, removed.score)
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.data[i].beats(&self.data[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.data.len() && self.data[l].beats(&self.data[best]) {
                best = l;
            }
            if r < self.data.len() && self.data[r].beats(&self.data[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.data.swap(a, b);
        self.pos.insert(self.data[a].task, a);
        self.pos.insert(self.data[b].task, b);
    }

    /// Debug validation: heap property + index consistency.
    #[cfg(any(test, feature = "strict"))]
    pub fn check_invariants(&self) {
        for i in 1..self.data.len() {
            let parent = (i - 1) / 2;
            assert!(
                !self.data[i].beats(&self.data[parent]),
                "heap property violated at slot {i}"
            );
        }
        assert_eq!(self.pos.len(), self.data.len());
        for (i, e) in self.data.iter().enumerate() {
            assert_eq!(self.pos[&e.task], i, "stale index for {:?}", e.task);
        }
    }
}

/// Map an `f64` to a `u64` whose unsigned order equals [`f64::total_cmp`]
/// order (the classic sign-flip transform): positive floats get their sign
/// bit set, negative floats are fully inverted. Bijective, so the original
/// bits round-trip exactly through [`unkey_part`].
#[inline]
fn key_part(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`key_part`]; bit-exact.
#[inline]
fn unkey_part(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k ^ (1 << 63) } else { !k })
}

/// A heap entry of a [`ScoredHeap`], stamped with the generation of the
/// owning slab slot at push time.
///
/// The score is stored pre-transformed ([`key_part`]) so the sift loops —
/// the hottest comparisons in the scheduler — run on plain integer
/// compares instead of two `total_cmp` chains per probe. The original
/// `f64`s are recovered bit-exactly when entries leave the heap.
#[derive(Clone, Copy, Debug)]
struct GenEntry {
    /// `key_part(score.gain)`: primary sort key.
    kg: u64,
    /// `key_part(score.prio)`: secondary sort key.
    kp: u64,
    task: TaskId,
    gen: u32,
}

impl GenEntry {
    #[inline]
    fn new(task: TaskId, gen: u32, score: Score) -> Self {
        Self {
            kg: key_part(score.gain),
            kp: key_part(score.prio),
            task,
            gen,
        }
    }

    #[inline]
    fn score(&self) -> Score {
        Score {
            gain: unkey_part(self.kg),
            prio: unkey_part(self.kp),
        }
    }

    /// Heap order: (gain, prio) descending — identical to
    /// [`Score::cmp_total`] by construction of [`key_part`] — with the
    /// lower task id as the final deterministic tie-break.
    #[inline]
    fn beats(&self, other: &GenEntry) -> bool {
        let a = ((self.kg as u128) << 64) | self.kp as u128;
        let b = ((other.kg as u128) << 64) | other.kp as u128;
        a > b || (a == b && self.task < other.task)
    }
}

/// Max-heap over `(Score, TaskId, generation)` with **lazy deletion**: the
/// owner never removes an entry directly. Instead it flips its own
/// liveness state (a slab slot's generation / node mask) and calls
/// [`Self::note_stale`] — O(1). Dead entries stay in the array as inert
/// pass-throughs until a compaction sweep reclaims them, which
/// [`Self::top_band_into`] triggers once more than half the entries are
/// stale (amortized O(1) per stale entry, as each entry is compacted away
/// at most once).
///
/// Liveness is decided by the caller-supplied `is_live(task, gen)`
/// predicate; the heap itself holds no task table, so duplicate scrubbing
/// across per-mem-node heaps costs one counter increment per heap instead
/// of a keyed removal. Because the entry order ([`GenEntry::beats`]) is
/// total, the top-k of the *live* subset is independent of where stale
/// entries physically sit — lazily-deleted schedulers produce bit-identical
/// pop sequences to eagerly-deleting ones (asserted by the property tests
/// in `tests/prop_invariants.rs`).
#[derive(Clone, Debug, Default)]
pub struct ScoredHeap {
    /// Bulk storage: a binary max-heap. Every entry here is beaten by
    /// every entry in `cache` (checked by `check_invariants`), so the
    /// global maximum is `cache[0]` whenever the cache is non-empty.
    data: Vec<GenEntry>,
    /// The top of the order, kept sorted descending by [`GenEntry::beats`].
    /// Selection windows are served by *reading* this prefix — no heap
    /// pops, no push-backs. Bounded to [`CACHE_MAX`] entries at push time;
    /// refilled from `data` when a read exhausts it.
    cache: Vec<GenEntry>,
    /// Entries anywhere in this structure whose owner has marked them
    /// dead (via [`Self::note_stale`]) and that have not yet been
    /// physically dropped.
    stale: usize,
    /// Compaction sweeps performed (observability; one plain increment
    /// per O(n) sweep, so it stays on unconditionally).
    compactions: u64,
}

/// Push-time bound on the sorted cache. Must comfortably exceed the
/// largest selection window (`locality_window + max_tries`), otherwise
/// every select pays a refill; beyond that, bigger only means longer
/// memmoves on insert.
const CACHE_MAX: usize = 24;

impl ScoredHeap {
    /// New empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Physical entries, live and stale alike.
    pub fn len(&self) -> usize {
        self.data.len() + self.cache.len()
    }

    /// No physical entries at all?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.cache.is_empty()
    }

    /// Entries the owner has lazily deleted but not yet compacted away.
    pub fn stale_len(&self) -> usize {
        self.stale
    }

    /// Compaction sweeps performed so far (observability).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Insert an entry stamped with the slot's current generation.
    /// Duplicates of *stale* generations may coexist; the owner guarantees
    /// at most one live entry per task.
    pub fn push(&mut self, t: TaskId, gen: u32, score: Score) {
        let e = GenEntry::new(t, gen, score);
        // Entries beating the cache minimum belong in the cache (sorted
        // insert; the order is total, so the slot is unique). Everything
        // else sinks into the bulk heap with one comparison spent.
        let into_cache = match self.cache.last() {
            Some(min) => e.beats(min),
            None => self.data.is_empty(),
        };
        if into_cache {
            let at = self.cache.partition_point(|c| c.beats(&e));
            self.cache.insert(at, e);
            if self.cache.len() > CACHE_MAX {
                let spilled = self.cache.pop().expect("cache over bound");
                self.push_bulk(spilled);
            }
        } else {
            self.push_bulk(e);
        }
    }

    /// Heap-insert into the bulk array (classic sift-up).
    fn push_bulk(&mut self, e: GenEntry) {
        let mut i = self.data.len();
        self.data.push(e);
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.data[i].beats(&self.data[parent]) {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Drop every entry, live or stale, in O(1) (entries are `Copy`). The
    /// owner calls this once it knows no live entry is left, which
    /// spares the probe-per-entry walk a compaction would make.
    pub fn clear(&mut self) {
        self.data.clear();
        self.cache.clear();
        self.stale = 0;
    }

    /// Record that `n` entries somewhere in this heap just went stale
    /// (their slab slot was retired or lost this node's bit). O(1).
    #[inline]
    pub fn note_stale(&mut self, n: usize) {
        self.stale += n;
        debug_assert!(self.stale <= self.data.len() + self.cache.len());
    }

    /// The best live entries in descending order, truncated at `k` *or*
    /// at the first entry whose gain trails the best live gain by more
    /// than `eps` — callers running a locality competition inside an
    /// ε-band (paper Sec. III-B) never look past that point, so the heap
    /// does not pay to produce it.
    ///
    /// Served by *reading* the sorted cache prefix: no heap pops and no
    /// push-backs in the steady state. Dead entries encountered in the
    /// cache are dropped for good (a memmove over at most [`CACHE_MAX`]
    /// slots); when the cache runs out before `k`, it is refilled by
    /// popping the bulk heap's root — each refill pop is paid for by a
    /// preceding take or eviction, so the amortized heap traffic is one
    /// O(log n) pop per deletion, and each dead entry surfacing at the
    /// bulk root is likewise dropped at most once over its lifetime. When
    /// more than half the bulk heap is stale, a compaction sweep first
    /// drops every dead entry and re-heapifies in O(n), bounding the
    /// memory held by dead entries buried deep in the array.
    pub fn top_band_into(
        &mut self,
        k: usize,
        eps: f64,
        out: &mut Vec<(TaskId, Score)>,
        mut is_live: impl FnMut(TaskId, u32) -> bool,
    ) {
        out.clear();
        if self.stale * 2 > self.data.len() + self.cache.len() {
            self.compact(&mut is_live);
        }
        let mut top_gain = f64::NEG_INFINITY;
        let mut i = 0;
        while out.len() < k {
            if i == self.cache.len() && !self.refill(&mut is_live) {
                break;
            }
            let e = self.cache[i];
            if !is_live(e.task, e.gen) {
                self.cache.remove(i);
                self.stale = self.stale.saturating_sub(1);
                continue;
            }
            let sc = e.score();
            // Entries are visited best-first: once one falls out of the
            // band, everything after it is out too.
            if out.is_empty() {
                top_gain = sc.gain;
            } else if top_gain - sc.gain > eps {
                break;
            }
            out.push((e.task, sc));
            i += 1;
        }
    }

    /// Move the best live bulk entry to the end of the cache. Dead
    /// entries surfacing at the bulk root are dropped permanently.
    /// Returns false when the bulk heap has no live entries left.
    fn refill(&mut self, is_live: &mut impl FnMut(TaskId, u32) -> bool) -> bool {
        while let Some(e) = self.pop_root() {
            if is_live(e.task, e.gen) {
                // The bulk maximum is beaten by every cache entry, so it
                // belongs exactly at the cache's tail.
                self.cache.push(e);
                return true;
            }
            self.stale = self.stale.saturating_sub(1);
        }
        false
    }

    /// Remove and return the best physical entry (live or stale).
    fn pop_root(&mut self) -> Option<GenEntry> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let e = self.data.pop();
        // Sift the displaced entry back down.
        let mut p = 0;
        loop {
            let (l, r) = (2 * p + 1, 2 * p + 2);
            let mut best = p;
            if l < self.data.len() && self.data[l].beats(&self.data[best]) {
                best = l;
            }
            if r < self.data.len() && self.data[r].beats(&self.data[best]) {
                best = r;
            }
            if best == p {
                break;
            }
            self.data.swap(p, best);
            p = best;
        }
        e
    }

    /// Drop every stale entry — from the cache (order-preserving) and the
    /// bulk heap (retain + Floyd heapify, O(n)).
    fn compact(&mut self, is_live: &mut impl FnMut(TaskId, u32) -> bool) {
        self.compactions += 1;
        self.cache.retain(|e| is_live(e.task, e.gen));
        self.data.retain(|e| is_live(e.task, e.gen));
        self.stale = 0;
        for i in (0..self.data.len() / 2).rev() {
            let mut p = i;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut best = p;
                if l < self.data.len() && self.data[l].beats(&self.data[best]) {
                    best = l;
                }
                if r < self.data.len() && self.data[r].beats(&self.data[best]) {
                    best = r;
                }
                if best == p {
                    break;
                }
                self.data.swap(p, best);
                p = best;
            }
        }
    }

    /// Iterate over all physical entries (live and stale), cache first,
    /// then bulk in heap order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Score)> + '_ {
        self.cache
            .iter()
            .chain(self.data.iter())
            .map(|e| (e.task, e.score()))
    }

    /// Debug validation: bulk heap property, cache sort order, the
    /// cache-beats-bulk boundary, and a consistent stale count.
    #[cfg(any(test, feature = "strict"))]
    pub fn check_invariants(&self, mut is_live: impl FnMut(TaskId, u32) -> bool) {
        for i in 1..self.data.len() {
            let parent = (i - 1) / 2;
            assert!(
                !self.data[i].beats(&self.data[parent]),
                "heap property violated at slot {i}"
            );
        }
        for w in self.cache.windows(2) {
            assert!(w[0].beats(&w[1]), "cache not strictly descending");
        }
        if let (Some(min), Some(root)) = (self.cache.last(), self.data.first()) {
            assert!(min.beats(root), "bulk entry outranks the cache");
        }
        let dead = self
            .cache
            .iter()
            .chain(self.data.iter())
            .filter(|e| !is_live(e.task, e.gen))
            .count();
        assert_eq!(self.stale, dead, "stale counter out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(g: f64, p: f64) -> Score {
        Score::new(g, p)
    }

    #[test]
    fn pop_order_is_descending() {
        let mut h = RemovableMaxHeap::new();
        h.push(TaskId(0), s(0.1, 0.0));
        h.push(TaskId(1), s(0.9, 0.0));
        h.push(TaskId(2), s(0.5, 0.0));
        h.check_invariants();
        assert_eq!(h.pop().unwrap().0, TaskId(1));
        assert_eq!(h.pop().unwrap().0, TaskId(2));
        assert_eq!(h.pop().unwrap().0, TaskId(0));
        assert!(h.pop().is_none());
    }

    #[test]
    fn criticality_breaks_gain_ties() {
        let mut h = RemovableMaxHeap::new();
        h.push(TaskId(0), s(0.5, 0.2));
        h.push(TaskId(1), s(0.5, 0.9));
        assert_eq!(h.peek().unwrap().0, TaskId(1));
    }

    #[test]
    fn task_id_breaks_full_ties() {
        let mut h = RemovableMaxHeap::new();
        h.push(TaskId(7), s(0.5, 0.5));
        h.push(TaskId(3), s(0.5, 0.5));
        assert_eq!(h.pop().unwrap().0, TaskId(3), "earlier submission first");
    }

    #[test]
    fn remove_middle_keeps_heap_valid() {
        let mut h = RemovableMaxHeap::new();
        for i in 0..20 {
            h.push(TaskId(i), s(f64::from(i % 7) / 7.0, 0.0));
        }
        assert_eq!(h.remove(TaskId(10)), Some(s(3.0 / 7.0, 0.0)));
        assert_eq!(h.remove(TaskId(10)), None);
        h.check_invariants();
        assert_eq!(h.len(), 19);
        let mut prev = f64::INFINITY;
        while let Some((_, sc)) = h.pop() {
            assert!(sc.gain <= prev + 1e-15);
            prev = sc.gain;
        }
    }

    #[test]
    fn top_k_matches_sorted_prefix() {
        let mut h = RemovableMaxHeap::new();
        let gains = [0.3, 0.9, 0.1, 0.7, 0.5, 0.8, 0.2];
        for (i, &g) in gains.iter().enumerate() {
            h.push(TaskId(i as u32), s(g, 0.0));
        }
        let top3: Vec<f64> = h.top_k(3).iter().map(|(_, sc)| sc.gain).collect();
        assert_eq!(top3, vec![0.9, 0.8, 0.7]);
        // k larger than the heap returns everything.
        assert_eq!(h.top_k(100).len(), 7);
        assert_eq!(h.len(), 7, "top_k must not consume");
    }

    #[test]
    #[should_panic(expected = "already in this heap")]
    fn duplicate_push_rejected() {
        let mut h = RemovableMaxHeap::new();
        h.push(TaskId(0), s(0.5, 0.5));
        h.push(TaskId(0), s(0.6, 0.5));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_scores_rejected() {
        Score::new(f64::NAN, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pops come out in non-increasing score order regardless of the
        /// insertion sequence.
        #[test]
        fn prop_pop_sorted(gains in proptest::collection::vec(0.0f64..1.0, 1..200)) {
            let mut h = RemovableMaxHeap::new();
            for (i, &g) in gains.iter().enumerate() {
                h.push(TaskId(i as u32), Score::new(g, 1.0 - g));
            }
            h.check_invariants();
            let mut prev = f64::INFINITY;
            while let Some((_, s)) = h.pop() {
                prop_assert!(s.gain <= prev);
                prev = s.gain;
            }
        }

        /// Arbitrary interleavings of push/remove/pop keep the structure
        /// consistent and never lose or duplicate tasks.
        #[test]
        fn prop_interleaved_ops(ops in proptest::collection::vec((0u8..3, 0u32..64, 0.0f64..1.0), 1..300)) {
            let mut h = RemovableMaxHeap::new();
            let mut reference = std::collections::HashSet::new();
            for (op, id, g) in ops {
                let t = TaskId(id);
                match op {
                    0 => {
                        if !reference.contains(&t) {
                            h.push(t, Score::new(g, 0.0));
                            reference.insert(t);
                        }
                    }
                    1 => {
                        let was = h.remove(t).is_some();
                        prop_assert_eq!(was, reference.remove(&t));
                    }
                    _ => {
                        if let Some((t, _)) = h.pop() {
                            prop_assert!(reference.remove(&t));
                        } else {
                            prop_assert!(reference.is_empty());
                        }
                    }
                }
                h.check_invariants();
                prop_assert_eq!(h.len(), reference.len());
            }
        }

        /// top_k agrees with a full sort for every k.
        #[test]
        fn prop_top_k(gains in proptest::collection::vec(0.0f64..1.0, 1..80), k in 0usize..90) {
            let mut h = RemovableMaxHeap::new();
            for (i, &g) in gains.iter().enumerate() {
                h.push(TaskId(i as u32), Score::new(g, 0.0));
            }
            let got: Vec<TaskId> = h.top_k(k).iter().map(|&(t, _)| t).collect();
            let mut expect: Vec<(f64, u32)> =
                gains.iter().enumerate().map(|(i, &g)| (g, i as u32)).collect();
            // Mirror the heap's tie-break: higher gain first, then lower id.
            expect.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let expect: Vec<TaskId> =
                expect.into_iter().take(k).map(|(_, i)| TaskId(i)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}

#[cfg(test)]
mod scored_tests {
    use super::*;
    use std::collections::HashMap;

    fn s(g: f64) -> Score {
        Score::new(g, 0.0)
    }

    /// Oracle: current generation per task; an entry is live iff its gen
    /// matches and the task is marked present.
    #[derive(Default)]
    struct Slab {
        gen: HashMap<TaskId, (u32, bool)>,
    }

    impl Slab {
        fn push(&mut self, t: TaskId) -> u32 {
            let e = self.gen.entry(t).or_insert((0, false));
            e.1 = true;
            e.0
        }
        fn kill(&mut self, t: TaskId) {
            let e = self.gen.get_mut(&t).expect("known task");
            e.1 = false;
            e.0 += 1;
        }
        fn probe(&self) -> impl Fn(TaskId, u32) -> bool + '_ {
            move |t, g| {
                self.gen
                    .get(&t)
                    .is_some_and(|&(cur, live)| live && cur == g)
            }
        }
    }

    #[test]
    fn top_k_skips_stale_entries() {
        let mut h = ScoredHeap::new();
        let mut slab = Slab::default();
        for i in 0..10 {
            let g = slab.push(TaskId(i));
            h.push(TaskId(i), g, s(f64::from(i) / 10.0));
        }
        // Kill the two best.
        slab.kill(TaskId(9));
        slab.kill(TaskId(8));
        h.note_stale(2);
        let mut out = Vec::new();
        h.top_band_into(3, f64::INFINITY, &mut out, slab.probe());
        let ids: Vec<u32> = out.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(ids, vec![7, 6, 5]);
    }

    #[test]
    fn repush_does_not_resurrect_old_generation() {
        let mut h = ScoredHeap::new();
        let mut slab = Slab::default();
        let t = TaskId(3);
        let g0 = slab.push(t);
        h.push(t, g0, s(0.9)); // old life: high score
        slab.kill(t);
        h.note_stale(1);
        let g1 = slab.push(t);
        assert_ne!(g0, g1);
        h.push(t, g1, s(0.2)); // new life: low score
        let mut out = Vec::new();
        h.top_band_into(4, f64::INFINITY, &mut out, slab.probe());
        assert_eq!(out.len(), 1, "exactly one live entry");
        assert_eq!(out[0].0, t);
        assert!(
            (out[0].1.gain - 0.2).abs() < 1e-12,
            "new score, not the dead 0.9"
        );
    }

    #[test]
    fn compaction_reclaims_majority_stale() {
        let mut h = ScoredHeap::new();
        let mut slab = Slab::default();
        for i in 0..20 {
            let g = slab.push(TaskId(i));
            h.push(TaskId(i), g, s(f64::from(i) / 20.0));
        }
        for i in 0..15 {
            slab.kill(TaskId(i));
            h.note_stale(1);
        }
        assert_eq!(h.len(), 20);
        let mut out = Vec::new();
        h.top_band_into(20, f64::INFINITY, &mut out, slab.probe());
        assert_eq!(h.len(), 5, "compaction dropped the 15 dead entries");
        assert_eq!(h.stale_len(), 0);
        h.check_invariants(slab.probe());
        let ids: Vec<u32> = out.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(ids, vec![19, 18, 17, 16, 15]);
    }

    #[test]
    fn clear_empties_the_heap_and_its_stale_count() {
        let mut h = ScoredHeap::new();
        let mut slab = Slab::default();
        // Enough entries to fill the sorted cache and spill into the bulk.
        for i in 0..40 {
            let g = slab.push(TaskId(i));
            h.push(TaskId(i), g, s(f64::from(i) / 40.0));
        }
        for i in 0..40 {
            slab.kill(TaskId(i));
            h.note_stale(1);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.stale_len(), 0);
        assert_eq!(h.compaction_count(), 0, "clear is not a compaction");
        h.check_invariants(slab.probe());
        // The heap stays usable: a new life of a task pops normally.
        let g = slab.push(TaskId(5));
        h.push(TaskId(5), g, s(0.5));
        let mut out = Vec::new();
        h.top_band_into(4, f64::INFINITY, &mut out, slab.probe());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, TaskId(5));
        h.check_invariants(slab.probe());
    }

    #[test]
    fn top_k_into_reuses_buffer() {
        let mut h = RemovableMaxHeap::new();
        for i in 0..50 {
            h.push(TaskId(i), Score::new(f64::from(i) / 50.0, 0.0));
        }
        let mut buf = Vec::with_capacity(8);
        h.top_k_into(5, &mut buf);
        let cap = buf.capacity();
        assert_eq!(buf.len(), 5);
        assert_eq!(buf[0].0, TaskId(49));
        h.top_k_into(3, &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), cap, "buffer reused, not reallocated");
    }
}

#[cfg(test)]
mod scored_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under arbitrary interleavings of push / lazy-kill, the live
        /// top-k of a ScoredHeap matches a sorted filter of the oracle.
        #[test]
        fn prop_lazy_top_k(ops in proptest::collection::vec((0u8..2, 0u32..32, 0.0f64..1.0), 1..300), k in 1usize..12) {
            let mut h = ScoredHeap::new();
            // task -> (gen, live, score-at-current-gen)
            let mut oracle: std::collections::HashMap<u32, (u32, bool, f64)> = Default::default();
            for (op, id, g) in ops {
                let e = oracle.entry(id).or_insert((0, false, 0.0));
                if op == 0 {
                    if !e.1 {
                        e.1 = true;
                        e.2 = g;
                        h.push(TaskId(id), e.0, Score::new(g, 0.0));
                    }
                } else if e.1 {
                    e.1 = false;
                    e.0 += 1;
                    h.note_stale(1);
                }
            }
            let mut got = Vec::new();
            h.top_band_into(k, f64::INFINITY, &mut got, |t, gen| {
                oracle.get(&t.0).is_some_and(|&(cur, live, _)| live && cur == gen)
            });
            let mut expect: Vec<(f64, u32)> = oracle
                .iter()
                .filter(|(_, &(_, live, _))| live)
                .map(|(&id, &(_, _, sc))| (sc, id))
                .collect();
            expect.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let expect: Vec<u32> = expect.into_iter().take(k).map(|(_, i)| i).collect();
            let got: Vec<u32> = got.iter().map(|&(t, _)| t.0).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
