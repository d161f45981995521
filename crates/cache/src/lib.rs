//! # mp-cache — content-addressed result memoization
//!
//! Production DAG services re-run near-identical subgraphs constantly.
//! This crate provides the shared store both engines consult before
//! executing a task: entries are keyed by the STF builder's
//! content-address key (`(task type, flops, access modes, input data
//! versions)` folded through FNV-1a — see [`mp_dag::CacheMeta`]), so a
//! hit means "this exact computation over these exact input versions
//! already ran" and execution can be skipped outright.
//!
//! Design points (DESIGN.md §12):
//!
//! * **Verified lookups.** The 64-bit key alone is not trusted: every
//!   entry stores the full canonical fingerprint it was inserted under,
//!   and [`ResultCache::lookup`] compares it word-for-word. A mismatch
//!   (hash collision, poisoned or stale entry) evicts the entry and
//!   reports [`Lookup::Invalidated`] — the caller treats it as a miss
//!   and recomputes. The cache can serve wrong-speed, never wrong-data.
//! * **Engine-agnostic payloads.** The threaded runtime stores the
//!   written buffers (`payload`) so a hit can materialize real bytes;
//!   the simulator stores `None` (virtual time has no payload) and a
//!   payload-requiring lookup of such an entry misses.
//! * **Incremental re-execution.** Keys propagate through data versions:
//!   mutate one task and every transitive consumer re-keys (the *dirty
//!   cone*) while the rest of the DAG still hits. [`resubmit_with_mutation`]
//!   builds that scenario deterministically and [`changed_tasks`]
//!   computes the exact expected cone for assertions.
//! * **Bounded residency.** A long-lived serving process would otherwise
//!   leak payload bytes forever. [`ResultCache::with_capacity`] installs
//!   a byte cap with LRU eviction: every entry is charged its payload
//!   bytes plus a fixed bookkeeping overhead, lookups refresh recency,
//!   and inserts evict the least-recently-used entries until the cap
//!   holds again. Eviction only ever costs a recompute (the next lookup
//!   of an evicted key is a plain miss), never correctness.
//! * **Crash-safe persistence.** [`ResultCache::persist_to`] attaches a
//!   checksummed append-only segment log so inserts stream to disk, and
//!   [`ResultCache::open`] replays it after a restart (DESIGN.md §14).
//!   Recovery is paranoid: torn tails, truncated segments, flipped bits
//!   and forged records are skipped and counted ([`LoadReport`]) — a
//!   corrupt store degrades to a cold cache, never to wrong data — and
//!   loaded entries still pass the fingerprint verification on lookup.
//!   [`PersistFaultPlan`] injects deterministic kill/flush-drop/bit-flip
//!   faults for the chaos suites.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mp_dag::graph::CacheMeta;
use mp_dag::{AccessMode, StfBuilder, TaskGraph, TaskId};

pub mod persist;

pub use persist::{BitFlip, LoadReport, PersistConfig, PersistFaultPlan, PersistStats};

/// A cache's lifetime eviction and persistence counts at one instant
/// ([`ResultCache::mark`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheMark {
    evictions: u64,
    persist: PersistStats,
}

/// One memoized result: the fingerprint it was stored under, the data
/// versions of its outputs, and (runtime only) the written buffers.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Canonical fingerprint words — verified on every lookup.
    pub fingerprint: Vec<u64>,
    /// Version assigned to each written handle, in access order.
    pub out_versions: Vec<u64>,
    /// Written buffers in access order (`None` for sim-populated
    /// entries, which carry no payload).
    pub payload: Option<Vec<Vec<f64>>>,
    /// Total bytes this entry materializes on a hit.
    pub bytes: u64,
}

/// Outcome of a cache probe.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// Verified entry — skip execution and materialize.
    Hit(Arc<CacheEntry>),
    /// An entry existed under this key but its fingerprint did not
    /// match (collision / poison / stale): it was evicted. Recompute.
    Invalidated,
    /// Nothing stored under this key (or no payload where one is
    /// required). Execute and populate.
    Miss,
}

/// Fixed per-entry residency charge on top of the payload bytes:
/// fingerprint words, out-versions, map/recency bookkeeping. Charging it
/// keeps even payload-less (simulator) entries bounded under a cap.
pub const ENTRY_OVERHEAD_BYTES: u64 = 64;

/// One resident entry plus its recency stamp.
#[derive(Debug)]
struct Slot {
    entry: Arc<CacheEntry>,
    stamp: u64,
}

/// State behind the cache lock.
///
/// Recency is a queue of `(stamp, key)` items in stamp order, oldest
/// first. Stamps are monotonic and unique, and an item is *live* only
/// while its stamp is still its key's slot stamp: a hit or a re-insert
/// pushes a fresh item and leaves the old one stale, and a removal
/// leaves its item stale. The live items, front to back, are therefore
/// exactly the resident entries in LRU order, so eviction pops stale
/// items off the front until it reaches a live one. Stale items are
/// dropped in place once the queue outgrows `2 * len + 64`, so a hit or
/// an insert costs O(1) amortized and, once the queue has reached its
/// working size, allocates nothing.
#[derive(Default, Debug)]
struct CacheState {
    map: HashMap<u64, Slot>,
    order: VecDeque<(u64, u64)>,
    next_stamp: u64,
    used_bytes: u64,
    evictions: u64,
}

impl CacheState {
    /// Queue `key` as the most recently used entry under a fresh stamp,
    /// which the caller stores in its slot.
    fn touch(&mut self, key: u64) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((stamp, key));
        stamp
    }

    /// Drop the stale recency items once they outnumber the live ones
    /// (plus slack), keeping the live ones in order.
    fn trim_order(&mut self) {
        if self.order.len() > 2 * self.map.len() + 64 {
            let map = &self.map;
            self.order.retain(|&item| is_live(map, item));
        }
    }

    /// Detach `key`, releasing its charge. Its recency item goes stale.
    fn remove(&mut self, key: u64) -> Option<Arc<CacheEntry>> {
        let slot = self.map.remove(&key)?;
        self.used_bytes -= charge(&slot.entry);
        Some(slot.entry)
    }

    /// Evict least-recently-used entries until `used_bytes <= cap`.
    fn evict_to(&mut self, cap: u64) {
        while self.used_bytes > cap {
            let Some((stamp, key)) = self.order.pop_front() else {
                break;
            };
            if is_live(&self.map, (stamp, key)) {
                self.remove(key);
                self.evictions += 1;
            }
        }
    }

    /// The resident entries in LRU order, least recently used first.
    fn lru_entries(&self) -> Vec<(u64, Arc<CacheEntry>)> {
        self.order
            .iter()
            .filter(|&&item| is_live(&self.map, item))
            .map(|&(_, key)| (key, Arc::clone(&self.map[&key].entry)))
            .collect()
    }
}

/// Is the recency item `(stamp, key)` its key's current one?
fn is_live(map: &HashMap<u64, Slot>, (stamp, key): (u64, u64)) -> bool {
    map.get(&key).is_some_and(|slot| slot.stamp == stamp)
}

/// Residency charge of one entry: payload bytes (when a payload is
/// resident) plus the *actual* fingerprint and out-version words, plus
/// the fixed bookkeeping overhead. Charging the real word counts keeps
/// the byte-capacity LRU honest — a long-fingerprint entry cannot
/// squat under a flat per-entry guess.
fn charge(entry: &CacheEntry) -> u64 {
    let payload = if entry.payload.is_some() {
        entry.bytes
    } else {
        0
    };
    let words = (entry.fingerprint.len() + entry.out_versions.len()) as u64;
    payload + words * 8 + ENTRY_OVERHEAD_BYTES
}

/// Thread-safe content-addressed result store, shared across runs (and
/// across engines) via `Arc`. Unbounded by default; see
/// [`ResultCache::with_capacity`].
#[derive(Default, Debug)]
pub struct ResultCache {
    inner: Mutex<CacheState>,
    capacity: Option<u64>,
    /// Segment-log writer, when persistence is attached. A separate
    /// lock from `inner` so disk IO never serializes lookups; the only
    /// nesting is log → state (never the reverse), so the pair cannot
    /// deadlock.
    log: Mutex<Option<persist::SegmentWriter>>,
    /// Lifetime persistence counters (see [`PersistStats`]).
    pstats: persist::PersistCounters,
}

impl ResultCache {
    /// Empty cache without a residency bound (test/batch use; serving
    /// processes should prefer [`Self::with_capacity`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache bounded to `capacity_bytes` of resident charge
    /// (payload bytes + [`ENTRY_OVERHEAD_BYTES`] per entry), enforced by
    /// LRU eviction at insert time. An entry whose own charge exceeds
    /// the cap is not stored at all (counted as an eviction) — the
    /// invariant `used_bytes() <= capacity` holds at every return.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self {
            capacity: Some(capacity_bytes),
            ..Self::default()
        }
    }

    /// Lock the cache state, recovering from poisoning. A worker that
    /// panics mid-`insert` (e.g. a `KernelPanicked` kernel whose payload
    /// clone trips a debug assertion) poisons the mutex; every cache
    /// operation is written so the state stays consistent at any
    /// unwind point (stamps are allocated before indexes are linked),
    /// so the worst a recovered guard can observe is a missing or
    /// stale entry — a recompute, never wrong data. Wedging every
    /// later lookup behind an `unwrap` panic would turn one dead
    /// worker into a dead serving process.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probe for `meta.key`, verifying the stored fingerprint. With
    /// `need_payload` (the threaded runtime), payload-less entries are
    /// misses — the sim and the runtime can share one cache without the
    /// runtime ever "hitting" an entry it cannot materialize. A hit
    /// refreshes the entry's LRU recency.
    pub fn lookup(&self, meta: &CacheMeta, need_payload: bool) -> Lookup {
        let mut guard = self.state();
        let st = &mut *guard;
        let Some(slot) = st.map.get_mut(&meta.key) else {
            return Lookup::Miss;
        };
        if slot.entry.fingerprint != meta.fingerprint {
            st.remove(meta.key);
            return Lookup::Invalidated;
        }
        if need_payload && slot.entry.payload.is_none() {
            return Lookup::Miss;
        }
        slot.stamp = st.next_stamp;
        st.next_stamp += 1;
        st.order.push_back((slot.stamp, meta.key));
        let entry = Arc::clone(&slot.entry);
        st.trim_order();
        Lookup::Hit(entry)
    }

    /// Store (or replace) the entry for `meta.key`, evicting
    /// least-recently-used entries past the capacity. With persistence
    /// attached ([`Self::persist_to`]) the record streams to the
    /// segment log before entering the in-memory store.
    pub fn insert(&self, meta: &CacheMeta, payload: Option<Vec<Vec<f64>>>, bytes: u64) {
        let entry = Arc::new(CacheEntry {
            fingerprint: meta.fingerprint.clone(),
            out_versions: meta.out_versions.clone(),
            payload,
            bytes,
        });
        if let Some(cap) = self.capacity {
            if charge(&entry) > cap {
                // Refused outright: neither stored nor persisted (a
                // reload would just refuse it again).
                self.state().evictions += 1;
                return;
            }
        }
        self.persist_entry(meta.key, &entry);
        self.store_entry(meta.key, entry);
    }

    /// Append one entry to the segment log, when a live writer is
    /// attached. Never takes the state lock.
    fn persist_entry(&self, key: u64, entry: &Arc<CacheEntry>) {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = log.as_mut() {
            if w.append(key, entry) {
                self.pstats.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Link `entry` into the in-memory indexes (shared by [`Self::insert`]
    /// and segment replay, which must not re-persist what it loads).
    fn store_entry(&self, key: u64, entry: Arc<CacheEntry>) {
        let cost = charge(&entry);
        let mut st = self.state();
        st.remove(key);
        if let Some(cap) = self.capacity {
            if cost > cap {
                st.evictions += 1;
                return;
            }
        }
        let stamp = st.touch(key);
        st.map.insert(key, Slot { entry, stamp });
        st.used_bytes += cost;
        if let Some(cap) = self.capacity {
            st.evict_to(cap);
        }
        st.trim_order();
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.state().map.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident charge in bytes (payload + per-entry overhead). Always
    /// `<=` the configured capacity, when one is set.
    pub fn used_bytes(&self) -> u64 {
        self.state().used_bytes
    }

    /// Configured byte capacity, `None` when unbounded.
    pub fn capacity_bytes(&self) -> Option<u64> {
        self.capacity
    }

    /// Entries evicted (or refused) by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.state().evictions
    }

    /// Drop every entry (capacity and eviction count are kept).
    pub fn clear(&self) {
        let mut st = self.state();
        st.map.clear();
        st.order.clear();
        st.used_bytes = 0;
    }

    /// Corrupt the stored fingerprint under `key` (fault-injection hook
    /// for tests): the next lookup must detect the mismatch and report
    /// [`Lookup::Invalidated`], never serve the entry. Returns `false`
    /// if no entry exists under `key`.
    pub fn poison(&self, key: u64) -> bool {
        let mut st = self.state();
        match st.map.get_mut(&key) {
            Some(slot) => {
                let mut e = (*slot.entry).clone();
                match e.fingerprint.first_mut() {
                    Some(w) => *w ^= 1,
                    None => e.fingerprint.push(0xdead),
                }
                slot.entry = Arc::new(e);
                true
            }
            None => false,
        }
    }

    /// Attach crash-safe persistence with default settings: every
    /// insert streams to an append-only segment log in `dir` (created
    /// if missing), and the current in-memory contents are snapshotted
    /// into it immediately. See [`Self::open`] for the restart side.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        self.persist_with(dir, PersistConfig::default())
    }

    /// [`Self::persist_to`] with explicit [`PersistConfig`] (segment
    /// size, fsync, deterministic fault injection).
    pub fn persist_with(&self, dir: impl AsRef<Path>, cfg: PersistConfig) -> io::Result<()> {
        let mut writer = persist::SegmentWriter::attach(dir.as_ref(), cfg)?;
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        // Snapshot what is already resident (LRU order, so replay
        // recency roughly matches memory recency).
        let entries = self.state().lru_entries();
        for (key, entry) in &entries {
            if writer.append(*key, entry) {
                self.pstats.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        *log = Some(writer);
        Ok(())
    }

    /// Reopen a persisted cache after a restart: replay every segment
    /// of `dir` under the paranoid recovery rules (see
    /// `persist::replay`'s module docs), then keep appending to the
    /// log. Returns the cache plus the [`LoadReport`] ledger
    /// (`loaded + rejected == records_scanned` always). A corrupt or
    /// missing store yields a colder cache, never an error about
    /// content and never wrong data.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Self, LoadReport)> {
        Self::open_with(dir, None, PersistConfig::default())
    }

    /// [`Self::open`] with a byte capacity and explicit config. Loaded
    /// entries pass through the same LRU accounting as inserts, so a
    /// store larger than the cap reloads only its most recent entries.
    pub fn open_with(
        dir: impl AsRef<Path>,
        capacity: Option<u64>,
        cfg: PersistConfig,
    ) -> io::Result<(Self, LoadReport)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let cache = match capacity {
            Some(c) => Self::with_capacity(c),
            None => Self::new(),
        };
        let report = persist::replay(dir, |key, entry| cache.store_entry(key, Arc::new(entry)))?;
        cache
            .pstats
            .loaded
            .fetch_add(report.loaded, Ordering::Relaxed);
        cache
            .pstats
            .load_rejects
            .fetch_add(report.rejected, Ordering::Relaxed);
        // Continue appending after the replayed segments; the resident
        // entries are already on disk, so no snapshot this time.
        let writer = persist::SegmentWriter::attach(dir, cfg)?;
        *cache.log.lock().unwrap_or_else(PoisonError::into_inner) = Some(writer);
        Ok((cache, report))
    }

    /// Rewrite the live entries as one fresh segment (tmp file + atomic
    /// rename) and delete the older segments, dropping evicted,
    /// invalidated and superseded garbage from disk. Returns the number
    /// of records written. Errors if no persistence is attached.
    pub fn compact(&self) -> io::Result<u64> {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(w) = log.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "no persistence directory attached",
            ));
        };
        let entries = self.state().lru_entries();
        let n = w.compact(&entries)?;
        self.pstats.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Simulate a process crash (fault-injection hook): realize the
    /// attached [`PersistFaultPlan`]'s on-disk consequences — truncate
    /// back to the durable frontier, apply the configured bit flip —
    /// and detach the writer. The in-memory contents are untouched;
    /// drop the cache itself to complete the "restart".
    pub fn crash(&self) -> io::Result<()> {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(mut w) = log.take() {
            w.crash()?;
        }
        Ok(())
    }

    /// Is a persistence writer currently attached?
    pub fn is_persisting(&self) -> bool {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Lifetime persistence counters (all zero when persistence was
    /// never attached). Engines report per-run deltas of these, like
    /// capacity evictions (see [`Self::mark`]).
    pub fn persist_stats(&self) -> PersistStats {
        self.pstats.snapshot()
    }

    /// The lifetime eviction and persistence counts now. One cache can
    /// outlive many runs, so a run marks the cache when it starts and
    /// reports what it added with [`Self::since`].
    pub fn mark(&self) -> CacheMark {
        CacheMark {
            evictions: self.evictions(),
            persist: self.persist_stats(),
        }
    }

    /// Capacity evictions and persistence traffic since `mark`.
    pub fn since(&self, mark: &CacheMark) -> (u64, PersistStats) {
        let (now, then) = (self.persist_stats(), mark.persist);
        let persist = PersistStats {
            writes: now.writes - then.writes,
            loaded: now.loaded - then.loaded,
            load_rejects: now.load_rejects - then.load_rejects,
            compactions: now.compactions - then.compactions,
        };
        (self.evictions() - mark.evictions, persist)
    }
}

/// Rebuild `graph` through a fresh [`StfBuilder`], perturbing the flops
/// of a deterministic ~`frac` fraction of tasks (selected by
/// `mp_fault::unit(seed, task, 0xCACE)`). Task/data/type ids are
/// preserved by construction, so the result is "the same program with a
/// few edited tasks" — the incremental-re-execution scenario. Cache
/// keys are re-derived during the rebuild, which re-versions every
/// mutated task's write cone.
pub fn resubmit_with_mutation(graph: &TaskGraph, frac: f64, seed: u64) -> TaskGraph {
    let mut stf = StfBuilder::new();
    for ty in graph.types() {
        stf.graph_mut()
            .register_type(&ty.name, ty.cpu_impl, ty.gpu_impl);
    }
    for d in graph.data() {
        stf.graph_mut().add_data(d.size, d.label.clone());
    }
    for task in graph.tasks() {
        let accesses: Vec<(mp_dag::DataId, AccessMode)> =
            task.accesses.iter().map(|a| (a.data, a.mode)).collect();
        let mutate = frac > 0.0 && mp_fault::unit(seed, task.id.index() as u64, 0xCACE) < frac;
        let flops = if mutate {
            task.flops * 1.0625 + 1.0
        } else {
            task.flops
        };
        let t = stf.submit_prio(task.ttype, accesses, flops, task.user_priority, &task.label);
        debug_assert_eq!(t, task.id);
    }
    stf.finish()
}

/// Tasks whose cache key differs between two id-aligned graphs — the
/// exact set a warm re-run of `new` must re-execute after `old`
/// populated the cache (mutated tasks plus their transitive consumers).
/// Tasks without metadata in either graph are counted as changed (they
/// can never hit).
pub fn changed_tasks(old: &TaskGraph, new: &TaskGraph) -> Vec<TaskId> {
    assert_eq!(old.task_count(), new.task_count(), "graphs must id-align");
    (0..new.task_count())
        .map(TaskId::from_index)
        .filter(|&t| match (old.cache_meta(t), new.cache_meta(t)) {
            (Some(a), Some(b)) => a.key != b.key,
            _ => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(flops0: f64) -> TaskGraph {
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        let a = stf.graph_mut().add_data(64, "a");
        let b = stf.graph_mut().add_data(64, "b");
        stf.submit(k, vec![(a, AccessMode::Write)], flops0, "t0");
        stf.submit(
            k,
            vec![(a, AccessMode::Read), (b, AccessMode::Write)],
            2.0,
            "t1",
        );
        stf.submit(k, vec![(b, AccessMode::ReadWrite)], 3.0, "t2");
        stf.finish()
    }

    fn meta(g: &TaskGraph, i: usize) -> &CacheMeta {
        g.cache_meta(TaskId::from_index(i)).unwrap()
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let g = chain(1.0);
        let cache = ResultCache::new();
        let m = meta(&g, 0);
        assert!(matches!(cache.lookup(m, false), Lookup::Miss));
        cache.insert(m, None, 64);
        match cache.lookup(m, false) {
            Lookup::Hit(e) => {
                assert_eq!(e.out_versions, m.out_versions);
                assert_eq!(e.bytes, 64);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn payload_requirement_misses_simulator_entries() {
        let g = chain(1.0);
        let cache = ResultCache::new();
        cache.insert(meta(&g, 0), None, 64);
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Miss));
        cache.insert(meta(&g, 0), Some(vec![vec![1.0; 8]]), 64);
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Hit(_)));
    }

    #[test]
    fn poisoned_entry_is_invalidated_never_served() {
        let g = chain(1.0);
        let cache = ResultCache::new();
        let m = meta(&g, 0);
        cache.insert(m, None, 64);
        assert!(cache.poison(m.key));
        assert!(matches!(cache.lookup(m, false), Lookup::Invalidated));
        // The corrupt entry was evicted: the key is free again.
        assert!(matches!(cache.lookup(m, false), Lookup::Miss));
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_version_is_a_miss_not_wrong_data() {
        // Same key slot, different input version (fingerprint differs):
        // must invalidate, never return the old entry.
        let g0 = chain(1.0);
        let cache = ResultCache::new();
        cache.insert(meta(&g0, 1), None, 64);
        let mut stale = meta(&g0, 1).clone();
        // Fake a re-keyed consumer that (improbably) landed on the same
        // key: fingerprint comparison still catches it.
        stale.fingerprint[1] ^= 0xff;
        assert!(matches!(cache.lookup(&stale, false), Lookup::Invalidated));
    }

    /// A wide independent graph: `n` tasks, each writing its own datum —
    /// `n` distinct cache keys for churn tests.
    fn wide(n: usize) -> TaskGraph {
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        for i in 0..n {
            let d = stf.graph_mut().add_data(64, format!("d{i}"));
            stf.submit(k, vec![(d, AccessMode::Write)], 1.0 + i as f64, "t");
        }
        stf.finish()
    }

    /// Actual fingerprint + out-version residency charge of one task's
    /// entry, in bytes (tests compute expected totals from this rather
    /// than a flat guess).
    fn meta_words_bytes(m: &CacheMeta) -> u64 {
        8 * (m.fingerprint.len() + m.out_versions.len()) as u64
    }

    #[test]
    fn capped_cache_stays_under_the_cap_during_churn() {
        let g = wide(64);
        let payload_bytes = 256u64;
        let per_entry = payload_bytes + meta_words_bytes(meta(&g, 0)) + ENTRY_OVERHEAD_BYTES;
        // Room for 4 full entries.
        let cache = ResultCache::with_capacity(4 * per_entry);
        for round in 0..3 {
            for i in 0..64 {
                let m = meta(&g, i);
                cache.insert(m, Some(vec![vec![round as f64; 32]]), payload_bytes);
                assert!(
                    cache.used_bytes() <= cache.capacity_bytes().unwrap(),
                    "over cap after insert {i} round {round}"
                );
            }
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.used_bytes(), 4 * per_entry);
        // 3 rounds × 64 inserts, 4 still resident; re-inserts of a
        // resident key replace (no eviction), so rounds 2 and 3 each
        // evict their predecessors' full complement.
        assert_eq!(cache.evictions(), 3 * 64 - 4);
        // The survivors are the last four inserted, and they still hit.
        for i in 60..64 {
            assert!(matches!(cache.lookup(meta(&g, i), true), Lookup::Hit(_)));
        }
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Miss));
    }

    #[test]
    fn lookup_refreshes_lru_recency() {
        let g = wide(4);
        let per_entry = 64 + meta_words_bytes(meta(&g, 0)) + ENTRY_OVERHEAD_BYTES;
        let cache = ResultCache::with_capacity(2 * per_entry);
        cache.insert(meta(&g, 0), Some(vec![vec![0.0; 8]]), 64);
        cache.insert(meta(&g, 1), Some(vec![vec![0.0; 8]]), 64);
        // Touch entry 0: entry 1 becomes the LRU victim.
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Hit(_)));
        cache.insert(meta(&g, 2), Some(vec![vec![0.0; 8]]), 64);
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(meta(&g, 1), true), Lookup::Miss));
        assert!(matches!(cache.lookup(meta(&g, 2), true), Lookup::Hit(_)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn oversized_entry_is_refused_not_thrashed() {
        let g = wide(2);
        let cache =
            ResultCache::with_capacity(ENTRY_OVERHEAD_BYTES + meta_words_bytes(meta(&g, 0)) + 16);
        cache.insert(meta(&g, 0), Some(vec![vec![0.0; 2]]), 16);
        assert_eq!(cache.len(), 1);
        // An entry bigger than the whole cap must not wipe the cache.
        cache.insert(meta(&g, 1), Some(vec![vec![0.0; 1024]]), 8192);
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(meta(&g, 1), true), Lookup::Miss));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn invalidation_releases_the_entry_charge() {
        let g = wide(2);
        let cache = ResultCache::with_capacity(1 << 20);
        cache.insert(meta(&g, 0), Some(vec![vec![0.0; 8]]), 64);
        let used = cache.used_bytes();
        assert_eq!(
            used,
            64 + meta_words_bytes(meta(&g, 0)) + ENTRY_OVERHEAD_BYTES
        );
        assert!(cache.poison(meta(&g, 0).key));
        assert!(matches!(
            cache.lookup(meta(&g, 0), false),
            Lookup::Invalidated
        ));
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn panicked_holder_does_not_wedge_the_cache() {
        // A thread that panics while holding the cache lock poisons the
        // mutex. Every later operation must keep working (recovered
        // guard), not propagate the poison panic — one dead worker must
        // not turn into a dead serving process.
        let g = chain(1.0);
        let cache = Arc::new(ResultCache::new());
        cache.insert(meta(&g, 0), Some(vec![vec![1.0; 8]]), 64);
        let poisoner = Arc::clone(&cache);
        let key = meta(&g, 0).key;
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state();
            panic!("worker dies holding the cache lock");
        })
        .join();
        assert!(cache.inner.is_poisoned(), "test setup: mutex not poisoned");
        // Reads, writes, maintenance — all still usable.
        assert!(matches!(cache.lookup(meta(&g, 0), true), Lookup::Hit(_)));
        cache.insert(meta(&g, 1), None, 64);
        assert_eq!(cache.len(), 2);
        assert!(cache.used_bytes() > 0);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.poison(key));
        assert!(matches!(
            cache.lookup(meta(&g, 0), true),
            Lookup::Invalidated
        ));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn mutation_rebuild_preserves_structure_and_marks_cone() {
        let g = chain(1.0);
        let same = resubmit_with_mutation(&g, 0.0, 42);
        assert!(changed_tasks(&g, &same).is_empty());
        assert_eq!(g.edge_count(), same.edge_count());

        // Mutate everything: every key must change.
        let all = resubmit_with_mutation(&g, 1.1, 42);
        assert_eq!(changed_tasks(&g, &all).len(), g.task_count());
    }

    #[test]
    fn dirty_cone_is_transitively_closed() {
        let g = chain(1.0);
        // Hand-mutate t0 only: t0, t1 (reads a), t2 (reads b) all re-key.
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        let a = stf.graph_mut().add_data(64, "a");
        let b = stf.graph_mut().add_data(64, "b");
        stf.submit(k, vec![(a, AccessMode::Write)], 9.0, "t0");
        stf.submit(
            k,
            vec![(a, AccessMode::Read), (b, AccessMode::Write)],
            2.0,
            "t1",
        );
        stf.submit(k, vec![(b, AccessMode::ReadWrite)], 3.0, "t2");
        let edited = stf.finish();
        let cone = changed_tasks(&g, &edited);
        assert_eq!(cone.len(), 3, "whole cone of t0 is dirty: {cone:?}");

        // Sanity: the cone respects reachability — every dirty task is
        // t0 or a transitive successor of a dirty task.
        for &t in &cone {
            assert!(
                t == TaskId(0) || g.preds(t).iter().any(|p| cone.contains(p)),
                "{t:?} dirty without a dirty predecessor"
            );
        }
    }

    #[test]
    fn long_fingerprints_pay_their_own_residency() {
        // A chain consumer's fingerprint (2 reads + writes) carries more
        // words than an input-free producer's; the charge must reflect
        // that, or long-fingerprint entries could game a byte cap.
        let g = chain(1.0);
        let cache = ResultCache::new();
        cache.insert(meta(&g, 0), None, 0);
        let small = cache.used_bytes();
        cache.clear();
        cache.insert(meta(&g, 2), None, 0);
        let large = cache.used_bytes();
        assert!(
            meta(&g, 2).fingerprint.len() > meta(&g, 0).fingerprint.len(),
            "test premise: t2 has the longer fingerprint"
        );
        assert!(
            large > small,
            "longer fingerprint must charge more ({large} vs {small})"
        );
        assert_eq!(
            large - small,
            8 * (meta(&g, 2).fingerprint.len() - meta(&g, 0).fingerprint.len()) as u64
        );
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mp-cache-lib-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn persisted_cache_survives_a_restart() {
        let g = wide(8);
        let dir = tmpdir("restart");
        let cache = ResultCache::new();
        cache.persist_to(&dir).unwrap();
        assert!(cache.is_persisting());
        for i in 0..8 {
            cache.insert(meta(&g, i), Some(vec![vec![i as f64; 4]]), 32);
        }
        assert_eq!(cache.persist_stats().writes, 8);
        drop(cache); // "process exit"

        let (reopened, report) = ResultCache::open(&dir).unwrap();
        assert_eq!(report.loaded, 8);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.loaded + report.rejected, report.records_scanned);
        assert_eq!(reopened.persist_stats().loaded, 8);
        assert_eq!(reopened.len(), 8);
        for i in 0..8 {
            match reopened.lookup(meta(&g, i), true) {
                Lookup::Hit(e) => {
                    assert_eq!(e.payload.as_ref().unwrap()[0], vec![i as f64; 4]);
                }
                other => panic!("entry {i} lost across restart: {other:?}"),
            }
        }
        // The reopened cache keeps persisting: a third generation sees
        // entries inserted after the restart.
        third_generation_sees_post_restart_inserts(&g, &reopened, &dir);
    }

    fn third_generation_sees_post_restart_inserts(
        g: &TaskGraph,
        reopened: &ResultCache,
        dir: &std::path::Path,
    ) {
        let extra = resubmit_with_mutation(g, 1.1, 7);
        reopened.insert(meta(&extra, 0), Some(vec![vec![9.0]]), 8);
        let (third, report) = ResultCache::open(dir).unwrap();
        assert_eq!(report.loaded, 9);
        assert!(matches!(
            third.lookup(meta(&extra, 0), true),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn snapshot_on_attach_persists_preexisting_entries() {
        let g = wide(4);
        let dir = tmpdir("snapshot");
        let cache = ResultCache::new();
        for i in 0..4 {
            cache.insert(meta(&g, i), None, 16);
        }
        cache.persist_to(&dir).unwrap(); // attach after the fact
        assert_eq!(cache.persist_stats().writes, 4, "snapshot counted");
        let (reopened, report) = ResultCache::open(&dir).unwrap();
        assert_eq!(report.loaded, 4);
        assert!(matches!(
            reopened.lookup(meta(&g, 2), false),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn compaction_drops_garbage_and_preserves_hits() {
        let g = wide(16);
        let dir = tmpdir("compact");
        let m0 = meta(&g, 0);
        let per_entry = 16 + meta_words_bytes(m0) + ENTRY_OVERHEAD_BYTES;
        let cache = ResultCache::with_capacity(4 * per_entry);
        cache.persist_to(&dir).unwrap();
        for i in 0..16 {
            cache.insert(meta(&g, i), Some(vec![vec![0.5; 2]]), 16);
        }
        assert_eq!(cache.len(), 4, "cap holds 4");
        let live = cache.compact().unwrap();
        assert_eq!(live, 4);
        assert_eq!(cache.persist_stats().compactions, 1);
        // Reopen: only the live set comes back — evicted garbage gone.
        let (reopened, report) = ResultCache::open(&dir).unwrap();
        assert_eq!(report.loaded, 4);
        assert_eq!(reopened.len(), 4);
        for i in 12..16 {
            assert!(matches!(reopened.lookup(meta(&g, i), true), Lookup::Hit(_)));
        }
    }

    #[test]
    fn open_with_capacity_reloads_only_the_most_recent() {
        let g = wide(8);
        let dir = tmpdir("cap-open");
        let cache = ResultCache::new();
        cache.persist_to(&dir).unwrap();
        for i in 0..8 {
            cache.insert(meta(&g, i), Some(vec![vec![0.0; 2]]), 16);
        }
        let per_entry = 16 + meta_words_bytes(meta(&g, 0)) + ENTRY_OVERHEAD_BYTES;
        let (reopened, report) =
            ResultCache::open_with(&dir, Some(2 * per_entry), PersistConfig::default()).unwrap();
        assert_eq!(report.loaded, 8, "all records replayed");
        assert_eq!(reopened.len(), 2, "but only 2 fit the cap");
        assert!(matches!(reopened.lookup(meta(&g, 7), true), Lookup::Hit(_)));
        assert!(matches!(reopened.lookup(meta(&g, 0), true), Lookup::Miss));
    }

    #[test]
    fn crash_with_clean_plan_loses_nothing() {
        let g = wide(5);
        let dir = tmpdir("clean-crash");
        let cache = ResultCache::new();
        cache.persist_with(&dir, PersistConfig::default()).unwrap();
        for i in 0..5 {
            cache.insert(meta(&g, i), None, 8);
        }
        cache.crash().unwrap();
        assert!(!cache.is_persisting(), "writer detached by crash");
        cache.insert(meta(&g, 0), None, 8); // post-crash insert: dropped
        let (_, report) = ResultCache::open(&dir).unwrap();
        assert_eq!(report.loaded, 5);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn open_on_a_missing_dir_is_an_empty_cache() {
        let dir = tmpdir("fresh");
        let (cache, report) = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert_eq!(report, LoadReport::default());
        assert!(cache.is_persisting(), "ready to persist from day one");
    }

    /// Reference LRU for the recency model test: resident keys in
    /// recency order (least recent first), each with its charge and
    /// whether it carries a payload, under the cache's charge rule.
    #[derive(Default)]
    struct ModelLru {
        order: Vec<(u64, u64, bool)>,
        used: u64,
        evictions: u64,
    }

    impl ModelLru {
        fn position(&self, key: u64) -> Option<usize> {
            self.order.iter().position(|&(k, _, _)| k == key)
        }

        fn remove(&mut self, key: u64) -> Option<(u64, u64, bool)> {
            let item = self.order.remove(self.position(key)?);
            self.used -= item.1;
            Some(item)
        }

        fn insert(&mut self, key: u64, cost: u64, payload: bool, cap: u64) {
            if cost > cap {
                self.evictions += 1;
                return;
            }
            self.remove(key);
            self.order.push((key, cost, payload));
            self.used += cost;
            while self.used > cap {
                let (_, c, _) = self.order.remove(0);
                self.used -= c;
                self.evictions += 1;
            }
        }

        /// Whether `lookup` hits, refreshing the key if it does.
        fn lookup(&mut self, key: u64, need_payload: bool) -> bool {
            match self.position(key) {
                Some(i) if !need_payload || self.order[i].2 => {
                    let item = self.order.remove(i);
                    self.order.push(item);
                    true
                }
                _ => false,
            }
        }

        fn keys(&self) -> Vec<u64> {
            self.order.iter().map(|&(k, _, _)| k).collect()
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The stamped recency queue is an exact LRU: across seeded random
    /// insert / lookup / poison-then-lookup / clear sequences on a capped
    /// cache, the resident keys (in recency order), the eviction count
    /// and the resident charge match a reference LRU after every op,
    /// and a `persist_to` snapshot writes the entries in LRU order.
    #[test]
    fn recency_matches_a_reference_lru() {
        let g = wide(32);
        let per_word = meta_words_bytes(meta(&g, 0));
        for seed in 0..200u64 {
            // Room for 4 to 27 average entries: small caps evict
            // constantly, large ones let hits pile up stale recency items
            // until the queue is trimmed.
            let cap = (4 + seed % 24) * (64 + per_word + ENTRY_OVERHEAD_BYTES);
            let mut rng = seed;
            let mut roll = |n: u64| splitmix(&mut rng) % n;
            let cache = ResultCache::with_capacity(cap);
            let mut model = ModelLru::default();
            for op in 0..400 {
                let m = meta(&g, roll(32) as usize);
                match roll(100) {
                    0..=44 => {
                        // Payload-less entries or up to 2× the average
                        // size; a few are bigger than the whole cap.
                        let payload = roll(8) != 0;
                        let words = if roll(50) == 0 { 1024 } else { roll(17) };
                        let words = words as usize;
                        let bytes = 8 * words as u64;
                        let entry = payload.then(|| vec![vec![0.5; words]]);
                        cache.insert(m, entry, bytes);
                        let cost =
                            per_word + ENTRY_OVERHEAD_BYTES + if payload { bytes } else { 0 };
                        model.insert(m.key, cost, payload, cap);
                    }
                    45..=89 => {
                        let need = roll(2) == 0;
                        let hit = matches!(cache.lookup(m, need), Lookup::Hit(_));
                        assert_eq!(hit, model.lookup(m.key, need), "seed {seed} op {op}");
                    }
                    90..=98 => {
                        let resident = cache.poison(m.key);
                        assert_eq!(resident, model.remove(m.key).is_some());
                        let outcome = cache.lookup(m, false);
                        if resident {
                            assert!(matches!(outcome, Lookup::Invalidated), "seed {seed}");
                        } else {
                            assert!(matches!(outcome, Lookup::Miss), "seed {seed}");
                        }
                    }
                    _ => {
                        cache.clear();
                        model.order.clear();
                        model.used = 0;
                    }
                }
                let resident: Vec<u64> = {
                    let st = cache.state();
                    st.lru_entries().iter().map(|&(k, _)| k).collect()
                };
                assert_eq!(resident, model.keys(), "seed {seed} op {op}");
                assert_eq!(cache.len(), model.order.len(), "seed {seed} op {op}");
                assert_eq!(cache.evictions(), model.evictions, "seed {seed} op {op}");
                assert_eq!(cache.used_bytes(), model.used, "seed {seed} op {op}");
            }
            assert!(model.evictions > 0, "seed {seed}: the cap never bit");
            let dir = tmpdir(&format!("model-{seed}"));
            cache.persist_to(&dir).unwrap();
            let mut written = Vec::new();
            persist::replay(&dir, |key, _| written.push(key)).unwrap();
            assert_eq!(written, model.keys(), "seed {seed}: snapshot order");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn repeated_hits_keep_the_recency_queue_bounded() {
        let g = wide(4);
        let cache = ResultCache::new();
        for i in 0..4 {
            cache.insert(meta(&g, i), Some(vec![vec![1.0; 2]]), 16);
        }
        for n in 0..10_000 {
            assert!(matches!(
                cache.lookup(meta(&g, n % 4), true),
                Lookup::Hit(_)
            ));
        }
        let st = cache.state();
        assert!(
            st.order.len() <= 2 * 4 + 64 + 1,
            "{} queued",
            st.order.len()
        );
        assert!(
            st.order.capacity() <= 256,
            "capacity {}",
            st.order.capacity()
        );
        let lru: Vec<u64> = st.lru_entries().iter().map(|&(k, _)| k).collect();
        let expect: Vec<u64> = (0..4).map(|i| meta(&g, i).key).collect();
        assert_eq!(lru, expect, "10,000 % 4 == 0: entry 0 is least recent");
    }

    #[test]
    fn compact_without_persistence_is_a_typed_error() {
        let cache = ResultCache::new();
        let err = cache.compact().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);
    }
}
