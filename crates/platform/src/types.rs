//! Core platform types: architectures, memory nodes, workers.

use std::fmt;

use crate::link::Link;

macro_rules! dense_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Build an id from a `usize` index.
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
    /// Identifier of an architecture type (an element of the set `A`).
    ArchId,
    "a"
);
dense_id!(
    /// Identifier of a memory node (an element of the set `M`).
    MemNodeId,
    "m"
);
dense_id!(
    /// Identifier of a worker (an element of the set `W`).
    WorkerId,
    "w"
);

/// Broad class of an architecture; task types declare implementations per
/// class (a `TaskType` with `gpu_impl` runs on every `Gpu`-class arch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchClass {
    /// General-purpose cores (host).
    Cpu,
    /// Accelerators with embedded memory.
    Gpu,
}

/// An architecture type `a ∈ A`: e.g. "Xeon 6142 core" or "V100".
#[derive(Clone, Debug)]
pub struct Arch {
    /// Dense id.
    pub id: ArchId,
    /// CPU or GPU class.
    pub class: ArchClass,
    /// Human-readable name.
    pub name: String,
    /// Relative speed factor applied on top of the perf model (1.0 =
    /// reference). Lets presets say "EPYC core = 0.5× Xeon core" without
    /// duplicating kernel tables.
    pub speed: f64,
}

/// A memory node `m ∈ M`: main RAM or a GPU's embedded memory.
#[derive(Clone, Debug)]
pub struct MemNode {
    /// Dense id. Node 0 is always main RAM by convention.
    pub id: MemNodeId,
    /// The architecture type whose processing units are tied to this node.
    pub arch: ArchId,
    /// Capacity in bytes; `None` = unbounded (main RAM).
    pub capacity: Option<u64>,
    /// Human-readable name.
    pub name: String,
}

/// A worker `w ∈ W`: executes tasks on one processing unit.
#[derive(Clone, Debug)]
pub struct Worker {
    /// Dense id.
    pub id: WorkerId,
    /// Architecture type of the underlying processing unit.
    pub arch: ArchId,
    /// Memory node the processing unit is tied to.
    pub mem_node: MemNodeId,
    /// Human-readable name (e.g. `CPU 3`, `GPU 0 stream 1`).
    pub name: String,
}

/// An immutable heterogeneous platform description.
///
/// Invariants (enforced by [`PlatformBuilder`]):
/// * node 0 is main RAM (CPU arch, unbounded);
/// * every worker's arch matches its memory node's arch;
/// * the link matrix is complete (`n×n`, zero-cost diagonal).
#[derive(Clone, Debug)]
pub struct Platform {
    archs: Vec<Arch>,
    mem_nodes: Vec<MemNode>,
    workers: Vec<Worker>,
    /// Row-major `|M|×|M|` matrix of links.
    links: Vec<Link>,
    /// Workers per memory node (derived).
    workers_by_node: Vec<Vec<WorkerId>>,
    /// Workers per arch (derived).
    workers_by_arch: Vec<Vec<WorkerId>>,
    /// Memory nodes per arch (derived).
    nodes_by_arch: Vec<Vec<MemNodeId>>,
    /// Human-readable platform name.
    pub name: String,
}

impl Platform {
    /// All architecture types.
    pub fn archs(&self) -> &[Arch] {
        &self.archs
    }

    /// All memory nodes.
    pub fn mem_nodes(&self) -> &[MemNode] {
        &self.mem_nodes
    }

    /// All workers.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// A single arch.
    #[inline]
    pub fn arch(&self, a: ArchId) -> &Arch {
        &self.archs[a.index()]
    }

    /// A single memory node.
    #[inline]
    pub fn mem_node(&self, m: MemNodeId) -> &MemNode {
        &self.mem_nodes[m.index()]
    }

    /// A single worker.
    #[inline]
    pub fn worker(&self, w: WorkerId) -> &Worker {
        &self.workers[w.index()]
    }

    /// Number of architecture types `|A|`.
    pub fn arch_count(&self) -> usize {
        self.archs.len()
    }

    /// Number of memory nodes `|M|`.
    pub fn mem_node_count(&self) -> usize {
        self.mem_nodes.len()
    }

    /// Number of workers `|W|`.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Workers tied to a memory node (`P_m` in the paper).
    #[inline]
    pub fn workers_on_node(&self, m: MemNodeId) -> &[WorkerId] {
        &self.workers_by_node[m.index()]
    }

    /// Workers of a given architecture type (`P_a`).
    #[inline]
    pub fn workers_of_arch(&self, a: ArchId) -> &[WorkerId] {
        &self.workers_by_arch[a.index()]
    }

    /// Memory nodes tied to a given architecture type.
    #[inline]
    pub fn nodes_of_arch(&self, a: ArchId) -> &[MemNodeId] {
        &self.nodes_by_arch[a.index()]
    }

    /// The link between two memory nodes.
    #[inline]
    pub fn link(&self, from: MemNodeId, to: MemNodeId) -> Link {
        self.links[from.index() * self.mem_nodes.len() + to.index()]
    }

    /// Time in µs to move `bytes` from `from` to `to` (0 when equal).
    #[inline]
    pub fn transfer_time(&self, bytes: u64, from: MemNodeId, to: MemNodeId) -> f64 {
        if from == to {
            0.0
        } else {
            self.link(from, to).transfer_time(bytes)
        }
    }

    /// The main RAM node (always node 0).
    pub fn ram(&self) -> MemNodeId {
        MemNodeId(0)
    }

    /// Does any worker of arch `a` exist (`get_worker_count(a) > 0` in
    /// Algorithm 1)?
    pub fn has_workers(&self, a: ArchId) -> bool {
        !self.workers_by_arch[a.index()].is_empty()
    }
}

/// Incremental builder enforcing the platform invariants.
#[derive(Default)]
pub struct PlatformBuilder {
    archs: Vec<Arch>,
    mem_nodes: Vec<MemNode>,
    workers: Vec<Worker>,
    links: Vec<(MemNodeId, MemNodeId, Link)>,
    default_link: Option<Link>,
    name: String,
}

impl PlatformBuilder {
    /// Start a new platform with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Register an architecture type.
    pub fn arch(&mut self, class: ArchClass, name: impl Into<String>, speed: f64) -> ArchId {
        assert!(speed > 0.0, "arch speed must be positive");
        let id = ArchId::from_index(self.archs.len());
        self.archs.push(Arch {
            id,
            class,
            name: name.into(),
            speed,
        });
        id
    }

    /// Register a memory node tied to `arch`. The first node added must be
    /// the unbounded main RAM.
    pub fn mem_node(
        &mut self,
        arch: ArchId,
        capacity: Option<u64>,
        name: impl Into<String>,
    ) -> MemNodeId {
        assert!(arch.index() < self.archs.len(), "unknown arch {arch:?}");
        if self.mem_nodes.is_empty() {
            assert!(capacity.is_none(), "node 0 (main RAM) must be unbounded");
        }
        let id = MemNodeId::from_index(self.mem_nodes.len());
        self.mem_nodes.push(MemNode {
            id,
            arch,
            capacity,
            name: name.into(),
        });
        id
    }

    /// Register a worker on a memory node; its arch is the node's arch.
    pub fn worker(&mut self, mem_node: MemNodeId, name: impl Into<String>) -> WorkerId {
        assert!(
            mem_node.index() < self.mem_nodes.len(),
            "unknown node {mem_node:?}"
        );
        let arch = self.mem_nodes[mem_node.index()].arch;
        let id = WorkerId::from_index(self.workers.len());
        self.workers.push(Worker {
            id,
            arch,
            mem_node,
            name: name.into(),
        });
        id
    }

    /// Set the link used for every pair not given explicitly.
    pub fn default_link(&mut self, link: Link) -> &mut Self {
        self.default_link = Some(link);
        self
    }

    /// Set a directed link between two nodes.
    pub fn link(&mut self, from: MemNodeId, to: MemNodeId, link: Link) -> &mut Self {
        self.links.push((from, to, link));
        self
    }

    /// Set a symmetric link between two nodes.
    pub fn bilink(&mut self, a: MemNodeId, b: MemNodeId, link: Link) -> &mut Self {
        self.link(a, b, link).link(b, a, link)
    }

    /// Finalize. Panics when invariants are violated.
    pub fn build(self) -> Platform {
        assert!(
            !self.mem_nodes.is_empty(),
            "platform needs at least main RAM"
        );
        assert!(
            !self.workers.is_empty(),
            "platform needs at least one worker"
        );
        let n = self.mem_nodes.len();
        let default = self.default_link.unwrap_or(Link::pcie_gen3());
        let mut links = vec![default; n * n];
        for i in 0..n {
            links[i * n + i] = Link::zero_cost();
        }
        for (from, to, l) in self.links {
            assert_ne!(from, to, "cannot set self-link on {from:?}");
            links[from.index() * n + to.index()] = l;
        }
        let mut workers_by_node = vec![Vec::new(); n];
        let mut workers_by_arch = vec![Vec::new(); self.archs.len()];
        for w in &self.workers {
            workers_by_node[w.mem_node.index()].push(w.id);
            workers_by_arch[w.arch.index()].push(w.id);
        }
        let mut nodes_by_arch = vec![Vec::new(); self.archs.len()];
        for m in &self.mem_nodes {
            nodes_by_arch[m.arch.index()].push(m.id);
        }
        Platform {
            archs: self.archs,
            mem_nodes: self.mem_nodes,
            workers: self.workers,
            links,
            workers_by_node,
            workers_by_arch,
            nodes_by_arch,
            name: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Platform {
        let mut b = PlatformBuilder::new("tiny");
        let cpu = b.arch(ArchClass::Cpu, "cpu", 1.0);
        let gpu = b.arch(ArchClass::Gpu, "gpu", 1.0);
        let ram = b.mem_node(cpu, None, "ram");
        let vram = b.mem_node(gpu, Some(1 << 30), "vram");
        b.worker(ram, "c0");
        b.worker(ram, "c1");
        b.worker(vram, "g0");
        b.default_link(Link::new(12.0, 10.0));
        b.build()
    }

    #[test]
    fn derived_indexes() {
        let p = tiny();
        assert_eq!(p.worker_count(), 3);
        assert_eq!(p.mem_node_count(), 2);
        assert_eq!(p.workers_on_node(MemNodeId(0)).len(), 2);
        assert_eq!(p.workers_on_node(MemNodeId(1)).len(), 1);
        assert_eq!(p.workers_of_arch(ArchId(0)).len(), 2);
        assert_eq!(p.nodes_of_arch(ArchId(1)), &[MemNodeId(1)]);
        assert!(p.has_workers(ArchId(1)));
    }

    #[test]
    fn worker_arch_follows_node() {
        let p = tiny();
        let g0 = p.worker(WorkerId(2));
        assert_eq!(g0.arch, ArchId(1));
        assert_eq!(g0.mem_node, MemNodeId(1));
    }

    #[test]
    fn diagonal_links_are_free() {
        let p = tiny();
        assert_eq!(p.transfer_time(1 << 20, MemNodeId(0), MemNodeId(0)), 0.0);
        assert!(p.transfer_time(1 << 20, MemNodeId(0), MemNodeId(1)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "must be unbounded")]
    fn node0_must_be_ram() {
        let mut b = PlatformBuilder::new("bad");
        let gpu = b.arch(ArchClass::Gpu, "gpu", 1.0);
        b.mem_node(gpu, Some(1), "vram");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn needs_workers() {
        let mut b = PlatformBuilder::new("bad");
        let cpu = b.arch(ArchClass::Cpu, "cpu", 1.0);
        b.mem_node(cpu, None, "ram");
        b.build();
    }
}

#[cfg(test)]
mod clone_tests {
    use crate::presets::intel_v100_streams;

    /// A clone of a platform must be observationally identical.
    #[test]
    fn platform_clone_identity() {
        let p = intel_v100_streams(2);
        let q = p.clone();
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
    }
}
