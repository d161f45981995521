//! Interconnect links between memory nodes.

/// A directed link between two memory nodes: a fixed latency plus a
/// bandwidth term. Times are in microseconds, bandwidth in GB/s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Sustained bandwidth in GB/s (`f64::INFINITY` for the zero-cost
    /// diagonal).
    pub bandwidth_gbps: f64,
    /// Per-transfer latency in µs.
    pub latency_us: f64,
}

impl Link {
    /// A link with the given bandwidth (GB/s) and latency (µs).
    pub fn new(bandwidth_gbps: f64, latency_us: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(latency_us >= 0.0, "latency must be non-negative");
        Self {
            bandwidth_gbps,
            latency_us,
        }
    }

    /// The same-node "link": free.
    pub fn zero_cost() -> Self {
        Self {
            bandwidth_gbps: f64::INFINITY,
            latency_us: 0.0,
        }
    }

    /// PCIe gen3 x16-ish defaults (~12 GB/s sustained, 10 µs latency).
    pub fn pcie_gen3() -> Self {
        Self::new(12.0, 10.0)
    }

    /// PCIe gen4 x16-ish defaults (~24 GB/s sustained, 8 µs latency).
    pub fn pcie_gen4() -> Self {
        Self::new(24.0, 8.0)
    }

    /// Time in µs to move `bytes` over this link.
    ///
    /// 1 GB/s = 1e9 B/s = 1e3 B/µs, so `t = latency + bytes / (1000·bw)`.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_us + bytes as f64 / (self.bandwidth_gbps * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(Link::pcie_gen3().transfer_time(0), 0.0);
    }

    #[test]
    fn one_mb_over_pcie3() {
        // 1 MB at 12 GB/s = 1e6 / 12e3 µs ≈ 83.3 µs, + 10 µs latency.
        let t = Link::pcie_gen3().transfer_time(1_000_000);
        assert!((t - (10.0 + 1_000_000.0 / 12_000.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_link_is_instant() {
        assert_eq!(Link::zero_cost().transfer_time(u64::MAX), 0.0);
    }

    #[test]
    fn monotone_in_size() {
        let l = Link::new(5.0, 1.0);
        assert!(l.transfer_time(100) < l.transfer_time(1000));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        Link::new(0.0, 1.0);
    }
}
