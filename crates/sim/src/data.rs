//! Simulated memory state: replicas, coherence, capacity, link queues.
//!
//! With `--features audit`, every mutation additionally runs the
//! invariant auditor (see [`DataStore::take_audit`]); violations are
//! recorded instead of asserted so a corrupted run still produces a
//! diagnosable report.

use std::collections::HashMap;
use std::ops::Range;

use mp_dag::graph::TaskGraph;
use mp_dag::ids::DataId;
use mp_platform::types::{MemNodeId, Platform};
use mp_sched::api::DataLocator;
use mp_trace::AuditRecord;

/// Eviction plan: `(ready_time, writebacks)`, each writeback being
/// `(data, start, end)`.
pub type RoomPlan = (f64, Vec<(DataId, f64, f64)>);

/// One replica of a data handle on a memory node.
#[derive(Clone, Copy, Debug)]
pub struct Replica {
    /// The replica's value is usable from this time on (transfers and
    /// writes land in the future).
    pub valid_at: f64,
    /// Last time a task on this node touched the replica (LRU key).
    pub last_use: f64,
    /// Pin count: >0 while a scheduled/running task needs the replica.
    pub pins: u32,
    /// Dirty: this node holds the only up-to-date value.
    pub dirty: bool,
}

/// Memory + interconnect state of the simulated machine.
///
/// Replicas live in one dense table, one slot per handle and memory
/// node: the replica of `d` on `m` is at `d * nodes + m`. Every lookup
/// is one index, and a handle's replicas are one row, walked in node
/// order.
pub struct DataStore {
    /// `Some` where a replica is allocated (possibly still arriving).
    replicas: Vec<Option<Replica>>,
    /// Memory nodes, the length of one handle's row.
    nodes: usize,
    /// Bytes allocated per memory node.
    used: Vec<u64>,
    /// Per directed link: time until which the link is busy (FIFO model).
    link_busy: HashMap<(MemNodeId, MemNodeId), f64>,
    sizes: Vec<u64>,
    capacities: Vec<Option<u64>>,
    /// Current simulation time mirror, so `DataLocator` answers "valid
    /// *now*" queries without threading `now` through the trait.
    pub now: f64,
    /// Replicas dropped by [`Self::try_make_room`], clean and dirty.
    capacity_evictions: u64,
    /// Invariant violations recorded by the auditor. Only ever written
    /// under `--features audit`; stays empty (and costs nothing) without
    /// the feature.
    audit: Vec<AuditRecord>,
}

impl DataStore {
    /// Initialize: every handle has one valid, clean replica on main RAM.
    pub fn new(graph: &TaskGraph, platform: &Platform) -> Self {
        let sizes: Vec<u64> = graph.data().iter().map(|d| d.size).collect();
        let nodes = platform.mem_node_count();
        let ram = platform.ram();
        let mut replicas = vec![None; sizes.len() * nodes];
        for row in replicas.chunks_exact_mut(nodes) {
            row[ram.index()] = Some(Replica {
                valid_at: 0.0,
                last_use: 0.0,
                pins: 0,
                dirty: false,
            });
        }
        let mut used = vec![0u64; nodes];
        used[ram.index()] = sizes.iter().sum();
        Self {
            replicas,
            nodes,
            used,
            link_busy: HashMap::new(),
            sizes,
            capacities: platform.mem_nodes().iter().map(|m| m.capacity).collect(),
            now: 0.0,
            capacity_evictions: 0,
            audit: Vec::new(),
        }
    }

    fn slot(&self, d: DataId, m: MemNodeId) -> usize {
        d.index() * self.nodes + m.index()
    }

    fn replica_mut(&mut self, d: DataId, m: MemNodeId) -> Option<&mut Replica> {
        let s = self.slot(d, m);
        self.replicas[s].as_mut()
    }

    /// The slots of `d`'s row: one per memory node, in node order.
    fn row(&self, d: DataId) -> Range<usize> {
        let start = d.index() * self.nodes;
        start..start + self.nodes
    }

    /// Size of a handle.
    pub fn size(&self, d: DataId) -> u64 {
        self.sizes[d.index()]
    }

    /// Number of data handles tracked.
    pub fn handle_count(&self) -> usize {
        self.sizes.len()
    }

    /// Bytes allocated on a node.
    pub fn used(&self, m: MemNodeId) -> u64 {
        self.used[m.index()]
    }

    /// Replicas evicted for capacity so far, by every
    /// [`Self::try_make_room`] call, failed ones included.
    pub fn capacity_evictions(&self) -> u64 {
        self.capacity_evictions
    }

    /// The replica of `d` on `m`, if allocated (possibly still arriving).
    pub fn replica(&self, d: DataId, m: MemNodeId) -> Option<&Replica> {
        self.replicas[self.slot(d, m)].as_ref()
    }

    /// Nodes holding a usable-or-arriving replica, with validity times,
    /// in node order.
    pub fn holders_full(&self, d: DataId) -> impl Iterator<Item = (MemNodeId, Replica)> + '_ {
        self.replicas[self.row(d)]
            .iter()
            .enumerate()
            .filter_map(|(m, r)| r.map(|r| (MemNodeId::from_index(m), r)))
    }

    /// Allocate a replica arriving at `valid_at` (space must already be
    /// reserved via [`Self::try_make_room`]).
    pub fn allocate(&mut self, d: DataId, m: MemNodeId, valid_at: f64, dirty: bool) {
        let s = self.slot(d, m);
        assert!(
            self.replicas[s].is_none(),
            "replica of {d:?} already on {m:?}"
        );
        self.replicas[s] = Some(Replica {
            valid_at,
            last_use: valid_at,
            pins: 0,
            dirty,
        });
        self.used[m.index()] += self.sizes[d.index()];
        if let Some(cap) = self.capacities[m.index()] {
            assert!(
                self.used[m.index()] <= cap,
                "node {m:?} over capacity: try_make_room must be called first"
            );
        }
        #[cfg(feature = "audit")]
        {
            self.audit_capacity(m);
            self.audit_coherence(d);
        }
    }

    /// Drop a replica, freeing its space. Panics if pinned.
    pub fn drop_replica(&mut self, d: DataId, m: MemNodeId) {
        let s = self.slot(d, m);
        let r = self.replicas[s].unwrap_or_else(|| panic!("no replica of {d:?} on {m:?}"));
        assert_eq!(r.pins, 0, "dropping pinned replica of {d:?}");
        self.replicas[s] = None;
        self.used[m.index()] -= self.sizes[d.index()];
    }

    /// Pin (prevent eviction of) the replica of `d` on `m`.
    pub fn pin(&mut self, d: DataId, m: MemNodeId) {
        self.replica_mut(d, m).expect("pinning absent replica").pins += 1;
    }

    /// Release one pin.
    pub fn unpin(&mut self, d: DataId, m: MemNodeId) {
        let r = self.replica_mut(d, m).expect("unpinning absent replica");
        assert!(r.pins > 0, "unbalanced unpin of {d:?} on {m:?}");
        r.pins -= 1;
    }

    /// Touch the LRU clock of `d` on `m`.
    pub fn touch(&mut self, d: DataId, m: MemNodeId, now: f64) {
        if let Some(r) = self.replica_mut(d, m) {
            r.last_use = r.last_use.max(now);
        }
    }

    /// Mark a write completion: the replica on `m` is the unique valid
    /// copy from `at` on; all other replicas are dropped (unless pinned by
    /// a concurrent reader — the STF dependency engine prevents that).
    pub fn commit_write(&mut self, d: DataId, m: MemNodeId, at: f64) {
        let (size, row) = (self.sizes[d.index()], self.row(d));
        for (n, slot) in self.replicas[row].iter_mut().enumerate() {
            if n != m.index() && slot.is_some_and(|r| r.pins == 0) {
                *slot = None;
                self.used[n] -= size;
            }
        }
        let r = self.replica_mut(d, m).expect("writer's replica exists");
        // The write defines the value: validity is exactly the commit time
        // (write-only replicas are allocated with valid_at = f64::MAX).
        r.valid_at = at;
        r.dirty = true;
        r.last_use = at;
        #[cfg(feature = "audit")]
        self.audit_coherence(d);
    }

    /// Mark a replica clean (after write-back to RAM).
    pub fn mark_clean(&mut self, d: DataId, m: MemNodeId) {
        if let Some(r) = self.replica_mut(d, m) {
            r.dirty = false;
        }
        #[cfg(feature = "audit")]
        self.audit_coherence(d);
    }

    /// Mark a replica dirty: worker-failure recovery promotes a surviving
    /// copy to the sole authoritative value, which must be written back
    /// before any future eviction.
    pub fn mark_dirty(&mut self, d: DataId, m: MemNodeId) {
        if let Some(r) = self.replica_mut(d, m) {
            r.dirty = true;
        }
        #[cfg(feature = "audit")]
        self.audit_coherence(d);
    }

    /// Free space on `m` until `needed` extra bytes fit, evicting
    /// least-recently-used unpinned replicas. Clean replicas are dropped
    /// instantly; dirty ones are written back to RAM over the link (the
    /// returned time is when the space is actually reusable, and the
    /// write-backs are reported for trace recording). With `clean_only`,
    /// for a prefetch, which must never force a write-back, dirty
    /// replicas are never victims and a request larger than the node
    /// evicts nothing. Every victim is counted (see
    /// [`Self::capacity_evictions`]).
    ///
    /// Returns `(ready_time, writebacks)` where each writeback is
    /// `(data, start, end)`, or `Err((used, capacity))` when the request
    /// cannot be satisfied (everything remaining is pinned, or dirty
    /// with `clean_only`). Evictions performed before discovering the
    /// failure stay evicted — they were unpinned and reloadable anyway.
    pub fn try_make_room(
        &mut self,
        m: MemNodeId,
        needed: u64,
        now: f64,
        platform: &Platform,
        clean_only: bool,
    ) -> Result<RoomPlan, (u64, u64)> {
        let Some(cap) = self.capacities[m.index()] else {
            return Ok((now, Vec::new())); // unbounded node
        };
        if clean_only && needed > cap {
            return Err((self.used[m.index()], cap));
        }
        let mut writebacks = Vec::new();
        let mut ready = now;
        while self.used[m.index()] + needed > cap {
            // LRU victim among unpinned (and, if asked, clean) replicas
            // on m.
            let victim = self
                .replicas
                .iter()
                .skip(m.index())
                .step_by(self.nodes)
                .enumerate()
                .filter_map(|(i, r)| {
                    r.filter(|r| r.pins == 0 && !(clean_only && r.dirty))
                        .map(|r| (DataId::from_index(i), r.last_use, r.dirty))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let Some((d, _, dirty)) = victim else {
                return Err((self.used[m.index()], cap));
            };
            if dirty {
                // Must persist the only valid copy to RAM first.
                let ram = platform.ram();
                let end = if self.replica(d, ram).is_some() {
                    // RAM already has an (outdated) copy slot: just refresh.
                    let start = self.link_start(m, ram, now);
                    let end = start + platform.transfer_time(self.size(d), m, ram);
                    self.set_link_busy(m, ram, end);
                    let r = self.replica_mut(d, ram).expect("checked above");
                    r.valid_at = end;
                    writebacks.push((d, start, end));
                    end
                } else {
                    let start = self.link_start(m, ram, now);
                    let end = start + platform.transfer_time(self.size(d), m, ram);
                    self.set_link_busy(m, ram, end);
                    self.allocate(d, ram, end, false);
                    writebacks.push((d, start, end));
                    end
                };
                ready = ready.max(end);
            }
            self.drop_replica(d, m);
            self.capacity_evictions += 1;
        }
        Ok((ready, writebacks))
    }

    /// Earliest start time for a transfer on the directed link `from→to`.
    pub fn link_start(&self, from: MemNodeId, to: MemNodeId, now: f64) -> f64 {
        self.link_busy
            .get(&(from, to))
            .copied()
            .unwrap_or(0.0)
            .max(now)
    }

    /// Mark the link busy until `until`.
    pub fn set_link_busy(&mut self, from: MemNodeId, to: MemNodeId, until: f64) {
        #[cfg(feature = "audit")]
        {
            let prev = self.link_busy.get(&(from, to)).copied().unwrap_or(0.0);
            if until < prev - 1e-9 {
                self.audit.push(AuditRecord::new(
                    self.now,
                    mp_trace::AuditKind::LinkTimeRegression,
                    format!("link {from:?}->{to:?}: busy horizon {until} behind {prev}"),
                ));
            }
        }
        let slot = self.link_busy.entry((from, to)).or_insert(0.0);
        *slot = slot.max(until);
    }

    // ------------------------------------------------------------------
    // Auditing
    // ------------------------------------------------------------------

    /// Replicas still pinned — must be empty once a run has quiesced
    /// (every pin is released at task completion or on a rejected
    /// staging attempt). Each entry is `(data, node, pins)`.
    pub fn leaked_pins(&self) -> Vec<(DataId, MemNodeId, u32)> {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(s, r)| {
                let pins = r.as_ref()?.pins;
                (pins > 0).then(|| {
                    let (d, m) = (s / self.nodes, s % self.nodes);
                    (DataId::from_index(d), MemNodeId::from_index(m), pins)
                })
            })
            .collect()
    }

    /// Drain the violations recorded so far (engine merges them into the
    /// [`crate::SimResult`]). Always callable; empty without the
    /// `audit` feature.
    pub fn take_audit(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.audit)
    }

    /// MSI coherence of one handle: at most one dirty replica, and a
    /// dirty replica is the sole copy apart from stale replicas kept
    /// alive by pinned concurrent readers.
    #[cfg(feature = "audit")]
    fn audit_coherence(&mut self, d: DataId) {
        let dirty: Vec<MemNodeId> = self
            .holders_full(d)
            .filter(|(_, r)| r.dirty)
            .map(|(m, _)| m)
            .collect();
        if dirty.len() > 1 {
            self.audit.push(AuditRecord::new(
                self.now,
                mp_trace::AuditKind::MultipleDirtyReplicas,
                format!("{d:?} dirty on {dirty:?}"),
            ));
        }
        if let [owner] = dirty[..] {
            // Copies fetched *from* the dirty owner after its write
            // committed (prefetches, shared reads) are coherent: their
            // valid_at postdates the commit. Only copies predating the
            // commit hold a stale value.
            let owner_valid = self.replica(d, owner).map(|r| r.valid_at).unwrap();
            let stale_unpinned: Vec<MemNodeId> = self
                .holders_full(d)
                .filter(|&(m, r)| m != owner && r.pins == 0 && r.valid_at + 1e-9 < owner_valid)
                .map(|(m, _)| m)
                .collect();
            if !stale_unpinned.is_empty() {
                self.audit.push(AuditRecord::new(
                    self.now,
                    mp_trace::AuditKind::DirtyNotSole,
                    format!(
                        "{d:?} dirty on {owner:?} but stale unpinned copies on {stale_unpinned:?}"
                    ),
                ));
            }
        }
    }

    /// Capacity invariant of one node: `used[m] ≤ capacity[m]`.
    #[cfg(feature = "audit")]
    fn audit_capacity(&mut self, m: MemNodeId) {
        if let Some(cap) = self.capacities[m.index()] {
            if self.used[m.index()] > cap {
                let used = self.used[m.index()];
                self.audit.push(AuditRecord::new(
                    self.now,
                    mp_trace::AuditKind::CapacityExceeded,
                    format!("node {m:?}: {used} used > {cap} capacity"),
                ));
            }
        }
    }

    /// Quiesce-time sweep: record a [`mp_trace::AuditKind::PinLeak`] for
    /// every replica still pinned after the run drained.
    #[cfg(feature = "audit")]
    pub fn audit_quiesce(&mut self) {
        for (d, m, pins) in self.leaked_pins() {
            self.audit.push(AuditRecord::new(
                self.now,
                mp_trace::AuditKind::PinLeak,
                format!("{d:?} on {m:?} still holds {pins} pin(s) at quiesce"),
            ));
        }
    }
}

impl DataLocator for DataStore {
    fn is_on(&self, d: DataId, m: MemNodeId) -> bool {
        self.replica(d, m).is_some_and(|r| r.valid_at <= self.now)
    }

    fn holders(&self, d: DataId) -> Vec<MemNodeId> {
        self.holders_full(d)
            .filter(|(_, r)| r.valid_at <= self.now)
            .map(|(n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use mp_dag::access::AccessMode;
    use mp_platform::presets::simple;

    fn setup(sizes: &[u64]) -> (TaskGraph, Platform, DataStore) {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let ds: Vec<DataId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| g.add_data(s, format!("d{i}")))
            .collect();
        // Keep the graph non-trivial for completeness.
        g.add_task(k, vec![(ds[0], AccessMode::Read)], 1.0, "t");
        let p = simple(1, 1);
        let store = DataStore::new(&g, &p);
        (g, p, store)
    }

    #[test]
    fn initial_state_all_in_ram() {
        let (_, p, store) = setup(&[100, 200]);
        assert!(store.is_on(DataId(0), p.ram()));
        assert!(!store.is_on(DataId(0), MemNodeId(1)));
        assert_eq!(store.used(p.ram()), 300);
        assert_eq!(store.holders(DataId(0)), vec![p.ram()]);
    }

    #[test]
    fn allocate_and_future_validity() {
        let (_, _, mut store) = setup(&[100]);
        store.allocate(DataId(0), MemNodeId(1), 50.0, false);
        store.now = 10.0;
        assert!(!store.is_on(DataId(0), MemNodeId(1)), "still arriving");
        store.now = 50.0;
        assert!(store.is_on(DataId(0), MemNodeId(1)));
        assert_eq!(store.used(MemNodeId(1)), 100);
    }

    #[test]
    fn commit_write_invalidates_remote() {
        let (_, _, mut store) = setup(&[100]);
        store.allocate(DataId(0), MemNodeId(1), 0.0, false);
        store.commit_write(DataId(0), MemNodeId(1), 42.0);
        store.now = 42.0;
        assert!(store.is_on(DataId(0), MemNodeId(1)));
        assert!(!store.is_on(DataId(0), MemNodeId(0)), "RAM copy dropped");
        assert!(store.replica(DataId(0), MemNodeId(1)).unwrap().dirty);
        assert_eq!(store.used(MemNodeId(0)), 0);
    }

    #[test]
    fn pins_block_eviction() {
        let (_, p, mut store) = setup(&[100]);
        store.allocate(DataId(0), MemNodeId(1), 0.0, false);
        store.pin(DataId(0), MemNodeId(1));
        // Capacity of the `simple` preset GPU is huge; exercise pin API
        // and the panic path of drop instead.
        store.unpin(DataId(0), MemNodeId(1));
        store.drop_replica(DataId(0), MemNodeId(1));
        assert!(store.replica(DataId(0), MemNodeId(1)).is_none());
        let _ = p;
    }

    /// Pin accounting must stay balanced across evictions and rejected
    /// allocation attempts: eviction may only take unpinned replicas,
    /// a failed `try_make_room` must leave pin counts untouched, and
    /// `leaked_pins` reports exactly the outstanding pins.
    #[test]
    fn pins_balance_across_eviction_and_rejection() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d0 = g.add_data(100, "d0");
        let d1 = g.add_data(100, "d1");
        g.add_task(k, vec![(d0, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            250,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let mut store = DataStore::new(&g, &p);
        let gpu = MemNodeId(1);
        store.allocate(d0, gpu, 0.0, false);
        store.allocate(d1, gpu, 0.0, false);
        store.pin(d0, gpu);
        assert_eq!(store.leaked_pins(), vec![(d0, gpu, 1)]);
        // Eviction must pick the unpinned d1, leaving d0's pin intact.
        let (_, wb) = store
            .try_make_room(gpu, 100, 1.0, &p, false)
            .expect("d1 is evictable");
        assert!(wb.is_empty());
        assert!(store.replica(d0, gpu).is_some(), "pinned replica survives");
        assert!(store.replica(d1, gpu).is_none(), "unpinned LRU evicted");
        // A request nothing can satisfy fails without touching pins.
        assert!(store.try_make_room(gpu, 1_000, 1.0, &p, false).is_err());
        assert_eq!(store.leaked_pins(), vec![(d0, gpu, 1)]);
        assert_eq!(store.replica(d0, gpu).unwrap().pins, 1);
        // Releasing the pin quiesces the store.
        store.unpin(d0, gpu);
        assert!(store.leaked_pins().is_empty());
    }

    #[test]
    fn make_room_evicts_lru_clean_first() {
        // Tiny GPU: capacity 250 bytes.
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d0 = g.add_data(100, "d0");
        let d1 = g.add_data(100, "d1");
        let d2 = g.add_data(100, "d2");
        g.add_task(k, vec![(d0, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            250,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let mut store = DataStore::new(&g, &p);
        let gpu = MemNodeId(1);
        store.allocate(d0, gpu, 0.0, false);
        store.allocate(d1, gpu, 0.0, false);
        store.touch(d0, gpu, 5.0);
        store.touch(d1, gpu, 9.0);
        // Need 100 more bytes: evict d0 (older LRU), clean → instant.
        let (ready, wb) = store
            .try_make_room(gpu, 100, 10.0, &p, false)
            .expect("d0 is evictable");
        assert_eq!(ready, 10.0);
        assert!(wb.is_empty());
        assert!(store.replica(d0, gpu).is_none());
        assert!(store.replica(d1, gpu).is_some());
        store.allocate(d2, gpu, 10.0, false);
        assert_eq!(store.used(gpu), 200);
    }

    #[test]
    fn make_room_writes_back_dirty_victims() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d0 = g.add_data(100, "d0");
        let d1 = g.add_data(100, "d1");
        g.add_task(k, vec![(d0, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            150,
            1,
            mp_platform::link::Link::new(0.001, 5.0), // slow link: visible time
        );
        let mut store = DataStore::new(&g, &p);
        let gpu = MemNodeId(1);
        store.allocate(d0, gpu, 0.0, false);
        store.commit_write(d0, gpu, 0.0); // now dirty, RAM copy dropped
        let (ready, wb) = store
            .try_make_room(gpu, 100, 10.0, &p, false)
            .expect("d0 is evictable");
        assert_eq!(wb.len(), 1);
        assert!(ready > 10.0, "write-back takes link time");
        // RAM holds the value again.
        store.now = ready;
        assert!(store.is_on(d0, MemNodeId(0)));
        assert!(store.replica(d0, gpu).is_none());
        let _ = d1;
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn impossible_fit_panics() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(100, "d");
        g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        let p = mp_platform::presets::hetero_node(
            "tiny-gpu",
            2,
            1.0,
            1,
            1.0,
            50,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let mut store = DataStore::new(&g, &p);
        store
            .try_make_room(MemNodeId(1), 100, 0.0, &p, false)
            .expect("out of memory");
    }

    /// With the auditor on, deliberately-corrupted coherence state is
    /// recorded (not asserted): two dirty replicas of one handle and a
    /// dirty replica coexisting with an unpinned stale copy.
    #[cfg(feature = "audit")]
    #[test]
    fn auditor_flags_coherence_violations_and_pin_leaks() {
        use mp_trace::AuditKind;
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(100, "d");
        g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        // Two GPUs: mem nodes {ram=0, gpu0=1, gpu1=2}.
        let p = simple(1, 2);
        let mut store = DataStore::new(&g, &p);
        // RAM holds a clean unpinned copy from t=0; a dirty allocation
        // valid later leaves RAM stale, violating "dirty implies sole
        // up-to-date copy".
        store.allocate(DataId(0), MemNodeId(1), 10.0, true);
        // A second dirty replica violates "at most one dirty".
        store.allocate(DataId(0), MemNodeId(2), 10.0, true);
        store.pin(DataId(0), MemNodeId(1));
        store.audit_quiesce();
        let records = store.take_audit();
        let kinds: Vec<AuditKind> = records.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&AuditKind::DirtyNotSole), "{records:?}");
        assert!(
            kinds.contains(&AuditKind::MultipleDirtyReplicas),
            "{records:?}"
        );
        assert!(kinds.contains(&AuditKind::PinLeak), "{records:?}");
        assert!(store.take_audit().is_empty(), "take_audit drains");
    }

    /// The reference model of the store: every replica by (handle, node).
    type Model = BTreeMap<(DataId, MemNodeId), Replica>;

    /// Bytes the model holds on `m`.
    fn model_used(model: &Model, sizes: &[u64], m: MemNodeId) -> u64 {
        model
            .keys()
            .filter(|&&(_, n)| n == m)
            .map(|&(d, _)| sizes[d.index()])
            .sum()
    }

    /// [`DataStore::try_make_room`] over a map of replicas: the same LRU
    /// victims, write-backs over the same FIFO link model, the same
    /// result. Returns the result and how many victims were dropped.
    fn model_make_room(
        model: &mut Model,
        links: &mut BTreeMap<(MemNodeId, MemNodeId), f64>,
        sizes: &[u64],
        p: &Platform,
        (m, needed, now, clean_only): (MemNodeId, u64, f64, bool),
    ) -> (Result<RoomPlan, (u64, u64)>, usize) {
        let used = |model: &Model| model_used(model, sizes, m);
        let Some(cap) = p.mem_node(m).capacity else {
            return (Ok((now, Vec::new())), 0);
        };
        if clean_only && needed > cap {
            return (Err((used(model), cap)), 0);
        }
        let ram = p.ram();
        let (mut ready, mut writebacks, mut victims) = (now, Vec::new(), 0);
        while used(model) + needed > cap {
            let victim = model
                .iter()
                .filter(|&(&(_, n), r)| n == m && r.pins == 0 && !(clean_only && r.dirty))
                .min_by(|a, b| a.1.last_use.total_cmp(&b.1.last_use).then(a.0.cmp(b.0)))
                .map(|(&(d, _), r)| (d, r.dirty));
            let Some((d, dirty)) = victim else {
                return (Err((used(model), cap)), victims);
            };
            if dirty {
                let link = links.entry((m, ram)).or_insert(0.0);
                let start = link.max(now);
                let end = start + p.transfer_time(sizes[d.index()], m, ram);
                *link = link.max(end);
                model
                    .entry((d, ram))
                    .and_modify(|r| r.valid_at = end)
                    .or_insert(Replica {
                        valid_at: end,
                        last_use: end,
                        pins: 0,
                        dirty: false,
                    });
                writebacks.push((d, start, end));
                ready = ready.max(end);
            }
            model.remove(&(d, m));
            victims += 1;
        }
        (Ok((ready, writebacks)), victims)
    }

    /// The dense table against a map model: seeded random sequences of
    /// every mutator on RAM plus two GPUs capped below the working set
    /// (so clean drops and dirty write-backs both happen), compared after
    /// every step on replicas, validity at several instants, holders,
    /// bytes per node and outstanding pins.
    #[test]
    fn store_matches_a_map_model_under_random_operations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let ds: Vec<DataId> = (0..6)
            .map(|i| g.add_data(100 + 10 * i, format!("d{i}")))
            .collect();
        g.add_task(k, vec![(ds[0], AccessMode::Read)], 1.0, "t");
        let sizes: Vec<u64> = g.data().iter().map(|d| d.size).collect();
        let link = mp_platform::link::Link::new(0.001, 5.0);
        let p = mp_platform::presets::hetero_node("capped", 3, 1.0, 2, 1.0, 300, 1, link);
        let nodes: Vec<MemNodeId> = (0..p.mem_node_count()).map(MemNodeId::from_index).collect();
        assert_eq!(nodes.len(), 3);
        let ram = p.ram();
        let bits = |r: &Replica| (r.valid_at.to_bits(), r.last_use.to_bits(), r.pins, r.dirty);
        let used = |model: &Model, m: MemNodeId| model_used(model, &sizes, m);
        let (mut clean_drops, mut writebacks, mut clean_only_calls) = (0, 0, 0);
        for seed in 0..48 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = DataStore::new(&g, &p);
            let fresh = Replica {
                valid_at: 0.0,
                last_use: 0.0,
                pins: 0,
                dirty: false,
            };
            let mut model: Model = ds.iter().map(|&d| ((d, ram), fresh)).collect();
            let mut links = BTreeMap::new();
            let mut now = 0.0f64;
            let mut evicted = 0;
            for step in 0..300 {
                // Whole-µs steps, so LRU ties (broken by handle id) occur.
                now += rng.gen_range(0..3u32) as f64;
                let d = ds[rng.gen_range(0..ds.len())];
                let m = nodes[rng.gen_range(0..nodes.len())];
                let present = model.get(&(d, m)).copied();
                match rng.gen_range(0..9) {
                    0 => {
                        let fits = p
                            .mem_node(m)
                            .capacity
                            .is_none_or(|cap| used(&model, m) + sizes[d.index()] <= cap);
                        if present.is_none() && fits {
                            let valid_at = if rng.gen_bool(0.1) {
                                f64::MAX // a write-only placeholder
                            } else {
                                now + rng.gen_range(0..8u32) as f64
                            };
                            let dirty = rng.gen_bool(0.2);
                            store.allocate(d, m, valid_at, dirty);
                            let r = Replica {
                                valid_at,
                                last_use: valid_at,
                                pins: 0,
                                dirty,
                            };
                            model.insert((d, m), r);
                        }
                    }
                    1 => {
                        if let Some(r) = model.get_mut(&(d, m)) {
                            store.pin(d, m);
                            r.pins += 1;
                        }
                    }
                    2 => {
                        if let Some(r) = model.get_mut(&(d, m)).filter(|r| r.pins > 0) {
                            store.unpin(d, m);
                            r.pins -= 1;
                        }
                    }
                    3 => {
                        store.touch(d, m, now);
                        if let Some(r) = model.get_mut(&(d, m)) {
                            r.last_use = r.last_use.max(now);
                        }
                    }
                    4 => {
                        if present.is_some() {
                            store.commit_write(d, m, now);
                            model.retain(|&(od, on), r| od != d || on == m || r.pins > 0);
                            let r = model.get_mut(&(d, m)).unwrap();
                            (r.valid_at, r.last_use, r.dirty) = (now, now, true);
                        }
                    }
                    5 => {
                        store.mark_clean(d, m);
                        if let Some(r) = model.get_mut(&(d, m)) {
                            r.dirty = false;
                        }
                    }
                    6 => {
                        store.mark_dirty(d, m);
                        if let Some(r) = model.get_mut(&(d, m)) {
                            r.dirty = true;
                        }
                    }
                    7 => {
                        if present.is_some_and(|r| r.pins == 0) {
                            store.drop_replica(d, m);
                            model.remove(&(d, m));
                        }
                    }
                    _ => {
                        let needed = rng.gen_range(0..=350u64);
                        let clean_only = rng.gen_bool(0.3);
                        let got = store.try_make_room(m, needed, now, &p, clean_only);
                        let request = (m, needed, now, clean_only);
                        let (want, victims) =
                            model_make_room(&mut model, &mut links, &sizes, &p, request);
                        assert_eq!(got, want, "seed {seed} step {step}: make room on {m:?}");
                        let wb = want.as_ref().map_or(0, |(_, wb)| wb.len());
                        writebacks += wb;
                        clean_drops += victims - wb;
                        clean_only_calls += usize::from(clean_only && victims > 0);
                        evicted += victims as u64;
                        assert_eq!(
                            store.capacity_evictions(),
                            evicted,
                            "seed {seed} step {step}"
                        );
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                for &d in &ds {
                    for &m in &nodes {
                        let (got, want) = (store.replica(d, m), model.get(&(d, m)));
                        assert_eq!(got.map(bits), want.map(bits), "{ctx}: {d:?} on {m:?}");
                    }
                }
                for &m in &nodes {
                    assert_eq!(store.used(m), used(&model, m), "{ctx}: bytes on {m:?}");
                }
                for t in [0.0, now, now + 10.0, f64::MAX] {
                    store.now = t;
                    for &d in &ds {
                        let valid =
                            |m: MemNodeId| model.get(&(d, m)).is_some_and(|r| r.valid_at <= t);
                        for &m in &nodes {
                            assert_eq!(store.is_on(d, m), valid(m), "{ctx}: {d:?} on {m:?} at {t}");
                        }
                        let mut holders = store.holders(d);
                        holders.sort();
                        let want: Vec<MemNodeId> =
                            nodes.iter().copied().filter(|&m| valid(m)).collect();
                        assert_eq!(holders, want, "{ctx}: holders of {d:?} at {t}");
                    }
                }
                let pinned: Vec<(DataId, MemNodeId, u32)> = model
                    .iter()
                    .filter(|(_, r)| r.pins > 0)
                    .map(|(&(d, m), r)| (d, m, r.pins))
                    .collect();
                assert_eq!(store.leaked_pins(), pinned, "{ctx}: pins");
            }
        }
        assert!(
            clean_drops > 0 && writebacks > 0 && clean_only_calls > 0,
            "{clean_drops} clean drops, {writebacks} write-backs and {clean_only_calls} \
             evicting clean-only requests: every path must run"
        );
    }

    #[test]
    fn link_fifo_serializes() {
        let (_, _, mut store) = setup(&[100]);
        let (a, b) = (MemNodeId(0), MemNodeId(1));
        assert_eq!(store.link_start(a, b, 5.0), 5.0);
        store.set_link_busy(a, b, 20.0);
        assert_eq!(store.link_start(a, b, 5.0), 20.0);
        // Opposite direction is independent (full duplex).
        assert_eq!(store.link_start(b, a, 5.0), 5.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mp_dag::access::AccessMode;
    use proptest::prelude::*;

    proptest! {
        /// Byte accounting stays exact under random allocate / drop /
        /// write sequences, and capacity is never exceeded.
        #[test]
        fn prop_byte_accounting(ops in proptest::collection::vec((0u8..3, 0u32..8), 1..120)) {
            let mut g = TaskGraph::new();
            let k = g.register_type("K", true, true);
            let handles: Vec<DataId> =
                (0..8).map(|i| g.add_data(100 + i * 10, format!("d{i}"))).collect();
            g.add_task(k, vec![(handles[0], AccessMode::Read)], 1.0, "t");
            let p = mp_platform::presets::simple(1, 1);
            let mut store = DataStore::new(&g, &p);
            let gpu = MemNodeId(1);
            let mut on_gpu: std::collections::HashSet<DataId> = Default::default();
            for (op, di) in ops {
                let d = handles[di as usize];
                match op {
                    0 => {
                        if !on_gpu.contains(&d) {
                            store.allocate(d, gpu, 0.0, false);
                            on_gpu.insert(d);
                        }
                    }
                    1 => {
                        if on_gpu.remove(&d) {
                            store.drop_replica(d, gpu);
                        }
                    }
                    _ => {
                        if on_gpu.contains(&d) {
                            store.commit_write(d, gpu, 1.0);
                        }
                    }
                }
                let expect: u64 = on_gpu.iter().map(|&d| store.size(d)).sum();
                prop_assert_eq!(store.used(gpu), expect, "gpu bytes drifted");
            }
        }

        /// `try_make_room` always reaches the requested headroom (on an
        /// unpinned store) and never drops below zero usage.
        #[test]
        fn prop_make_room_converges(present in proptest::collection::vec(0u32..6, 0..8), need in 0u64..600) {
            let mut g = TaskGraph::new();
            let k = g.register_type("K", true, true);
            let handles: Vec<DataId> =
                (0..8).map(|i| g.add_data(100, format!("d{i}"))).collect();
            g.add_task(k, vec![(handles[0], AccessMode::Read)], 1.0, "t");
            let p = mp_platform::presets::hetero_node(
                "t", 2, 1.0, 1, 1.0, 600, 1, mp_platform::link::Link::pcie_gen3());
            let mut store = DataStore::new(&g, &p);
            let gpu = MemNodeId(1);
            let mut seen = std::collections::HashSet::new();
            for di in present {
                let d = handles[di as usize];
                if seen.insert(d) {
                    store.allocate(d, gpu, 0.0, false);
                }
            }
            if need <= 600 {
                let (ready, _) = store.try_make_room(gpu, need, 5.0, &p, false).expect("nothing is pinned");
                prop_assert!(ready >= 5.0);
                prop_assert!(store.used(gpu) + need <= 600);
            }
        }
    }
}
