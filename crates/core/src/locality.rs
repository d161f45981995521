//! Data locality: the LS_SDH² heuristic (paper Eq. 3, after Bramas \[20\]).
//!
//! ```text
//! LS_SDH²(m, t) = Σ_{d ∈ D_R(t,m)} size(d)  +  Σ_{d ∈ D_W(t,m)} size(d)²
//! ```
//!
//! "The score obtained by summing the amount of data already on a node,
//! with each data write counted in a quadratic manner" — writes dominate
//! because executing where the written data lives avoids both the fetch
//! and the later invalidation traffic. A ReadWrite access contributes to
//! both sums.

use mp_dag::graph::TaskGraph;
use mp_dag::ids::TaskId;
use mp_platform::types::MemNodeId;
use mp_sched::api::DataLocator;

/// Evaluate `LS_SDH²(m, t)` given current replica locations.
///
/// Sizes are taken in KiB (not bytes) before squaring so the quadratic
/// term stays within f64 range even for multi-GiB handles.
pub fn ls_sdh2(g: &TaskGraph, loc: &dyn DataLocator, t: TaskId, m: MemNodeId) -> f64 {
    let mut score = 0.0;
    for a in &g.task(t).accesses {
        if !loc.is_on(a.data, m) {
            continue;
        }
        let kib = g.data_desc(a.data).size as f64 / 1024.0;
        if a.mode.reads() {
            score += kib;
        }
        if a.mode.writes() {
            score += kib * kib;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::access::AccessMode;
    use mp_sched::testutil::MapLocator;

    const KIB: u64 = 1024;

    fn fixture() -> (TaskGraph, MapLocator) {
        (TaskGraph::new(), MapLocator::default())
    }

    #[test]
    fn reads_linear_writes_quadratic() {
        let (mut g, mut loc) = fixture();
        let k = g.register_type("K", true, true);
        let r = g.add_data(4 * KIB, "r");
        let w = g.add_data(3 * KIB, "w");
        let t = g.add_task(
            k,
            vec![(r, AccessMode::Read), (w, AccessMode::Write)],
            1.0,
            "t",
        );
        let m = MemNodeId(1);
        loc.place(r, m);
        loc.place(w, m);
        // 4 (read) + 9 (write²) = 13.
        assert!((ls_sdh2(&g, &loc, t, m) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn rw_counts_in_both_sums() {
        let (mut g, mut loc) = fixture();
        let k = g.register_type("K", true, true);
        let d = g.add_data(2 * KIB, "d");
        let t = g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t");
        let m = MemNodeId(1);
        loc.place(d, m);
        // 2 + 4 = 6.
        assert!((ls_sdh2(&g, &loc, t, m) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn absent_data_contributes_nothing() {
        let (mut g, loc) = fixture();
        let k = g.register_type("K", true, true);
        let d = g.add_data(8 * KIB, "d");
        let t = g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t");
        // Data defaults to RAM (node 0); node 1 holds nothing.
        assert_eq!(ls_sdh2(&g, &loc, t, MemNodeId(1)), 0.0);
        assert!(ls_sdh2(&g, &loc, t, MemNodeId(0)) > 0.0);
    }

    #[test]
    fn write_dominates_read_of_equal_size() {
        let (mut g, mut loc) = fixture();
        let k = g.register_type("K", true, true);
        let d_r = g.add_data(10 * KIB, "r");
        let d_w = g.add_data(10 * KIB, "w");
        let t_r = g.add_task(k, vec![(d_r, AccessMode::Read)], 1.0, "tr");
        let t_w = g.add_task(k, vec![(d_w, AccessMode::Write)], 1.0, "tw");
        let m = MemNodeId(1);
        loc.place(d_r, m);
        loc.place(d_w, m);
        assert!(ls_sdh2(&g, &loc, t_w, m) > ls_sdh2(&g, &loc, t_r, m));
    }
}
