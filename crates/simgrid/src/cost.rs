//! Cost model: how many virtual nanoseconds each primitive operation of
//! the simulated cluster takes.
//!
//! One [`CostModel`] is shared by every service in an experiment so both
//! the versioning backend and the locking baseline pay identical prices
//! for messages, network transfers, disk transfers, and metadata work —
//! the comparison isolates the *concurrency-control* difference, which is
//! the paper's claim under test.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Prices of the primitive operations of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One-way latency of a control message (RPC request or reply).
    pub msg_latency: Duration,
    /// Network bandwidth of a single NIC, bytes per second.
    pub net_bandwidth: u64,
    /// Disk bandwidth of a single storage device, bytes per second.
    pub disk_bandwidth: u64,
    /// Fixed per-request disk overhead (seek + request setup).
    pub disk_seek: Duration,
    /// CPU cost of one metadata operation on a metadata/version server
    /// (tree-node fetch/store, ticket issue, lock-table update).
    pub meta_op: Duration,
}

impl CostModel {
    /// Everything is free: unit tests exercising only semantics.
    pub fn zero() -> Self {
        CostModel {
            msg_latency: Duration::ZERO,
            net_bandwidth: 0,
            disk_bandwidth: 0,
            disk_seek: Duration::ZERO,
            meta_op: Duration::ZERO,
        }
    }

    /// A Grid'5000-like commodity cluster of the paper's era: GbE network
    /// (~110 MB/s effective, 100 µs latency) and a single SATA disk per
    /// storage node (~70 MB/s, 0.5 ms seek), with ~30 µs per metadata op.
    pub fn grid5000() -> Self {
        CostModel {
            msg_latency: Duration::from_micros(100),
            net_bandwidth: 110 * 1024 * 1024,
            disk_bandwidth: 70 * 1024 * 1024,
            disk_seek: Duration::from_micros(500),
            meta_op: Duration::from_micros(30),
        }
    }

    /// Time for `bytes` to cross one NIC (zero if bandwidth is unlimited).
    pub fn net_transfer(&self, bytes: u64) -> Duration {
        Self::at_rate(bytes, self.net_bandwidth)
    }

    /// Time for a disk request of `bytes` (seek + transfer).
    pub fn disk_transfer(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        self.disk_seek + Self::at_rate(bytes, self.disk_bandwidth)
    }

    /// One request-reply control exchange (two message latencies).
    pub fn rpc_round_trip(&self) -> Duration {
        self.msg_latency * 2
    }

    fn at_rate(bytes: u64, rate: u64) -> Duration {
        if rate == 0 || bytes == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((bytes as u128 * 1_000_000_000 / rate as u128) as u64)
        }
    }
}

impl Default for CostModel {
    /// Defaults to the Grid'5000-like model, the paper's testbed analogue.
    fn default() -> Self {
        Self::grid5000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.net_transfer(1 << 30), Duration::ZERO);
        assert_eq!(m.disk_transfer(1 << 30), Duration::ZERO);
        assert_eq!(m.rpc_round_trip(), Duration::ZERO);
    }

    #[test]
    fn transfer_scales_linearly() {
        let m = CostModel::grid5000();
        let one = m.net_transfer(1024 * 1024);
        let four = m.net_transfer(4 * 1024 * 1024);
        assert_eq!(four, one * 4);
    }

    #[test]
    fn disk_includes_seek() {
        let m = CostModel::grid5000();
        let d = m.disk_transfer(1);
        assert!(d >= m.disk_seek);
        assert_eq!(m.disk_transfer(0), Duration::ZERO);
    }

    #[test]
    fn grid5000_magnitudes_are_plausible() {
        let m = CostModel::grid5000();
        // 1 MiB over GbE ≈ 9.1 ms; over disk ≈ 14.3 ms + seek.
        let net = m.net_transfer(1024 * 1024);
        assert!(net > Duration::from_millis(8) && net < Duration::from_millis(11));
        let disk = m.disk_transfer(1024 * 1024);
        assert!(disk > Duration::from_millis(13) && disk < Duration::from_millis(17));
    }

    #[test]
    fn default_is_grid5000() {
        assert_eq!(CostModel::default(), CostModel::grid5000());
    }
}
