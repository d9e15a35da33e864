//! Compute-cluster model: nodes, processes and network capacity.

use serde::{Deserialize, Serialize};

/// Static description of the compute side of the simulated machine.
///
/// The presets mirror the paper's testbed: Cori Haswell nodes (16-core
/// 2.3 GHz Xeon, 128 GB DDR4) with either 4 nodes / 128 processes
/// (per-component evaluations) or 500 nodes / 1600 processes (end-to-end).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of compute nodes in the allocation.
    pub nodes: u32,
    /// Total MPI processes across the allocation.
    pub procs: u32,
    /// Per-node injection bandwidth into the interconnect, bytes/s.
    pub node_network_bw: f64,
    /// One-way small-message network latency, seconds.
    pub network_latency: f64,
    /// Aggregate bisection bandwidth of the interconnect, bytes/s.
    pub bisection_bw: f64,
    /// Per-node memory bandwidth available for I/O staging, bytes/s.
    pub node_mem_bw: f64,
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

impl ClusterSpec {
    /// 4 Haswell nodes / 128 processes — the per-component test scale
    /// used for Figures 2, 8, 9 and 10.
    pub fn cori_4node() -> Self {
        ClusterSpec {
            nodes: 4,
            procs: 128,
            node_network_bw: 1.05 * GIB,
            network_latency: 2.0e-6,
            bisection_bw: 4.0 * 1.05 * GIB,
            node_mem_bw: 60.0 * GIB,
        }
    }

    /// 500 Haswell nodes / 1600 processes — the end-to-end scale used for
    /// the BD-CATS pipeline analysis (Figures 11 and 12).
    pub fn cori_500node() -> Self {
        ClusterSpec {
            nodes: 500,
            procs: 1600,
            node_network_bw: 1.05 * GIB,
            network_latency: 2.0e-6,
            bisection_bw: 262.0 * GIB,
            node_mem_bw: 60.0 * GIB,
        }
    }

    /// A Cori-Haswell-like allocation of arbitrary size (32 processes per
    /// node, Aries-class per-node injection bandwidth).
    pub fn cori_like(nodes: u32) -> Self {
        ClusterSpec {
            nodes: nodes.max(1),
            procs: nodes.max(1) * 32,
            node_network_bw: 1.05 * GIB,
            network_latency: 2.0e-6,
            bisection_bw: (nodes.max(1) as f64 * 1.05 * GIB).min(262.0 * GIB),
            node_mem_bw: 60.0 * GIB,
        }
    }

    /// A tiny single-node configuration for fast unit tests.
    pub fn test_tiny() -> Self {
        ClusterSpec {
            nodes: 1,
            procs: 8,
            node_network_bw: 1.0 * GIB,
            network_latency: 2.0e-6,
            bisection_bw: 1.0 * GIB,
            node_mem_bw: 40.0 * GIB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_scales() {
        let small = ClusterSpec::cori_4node();
        assert_eq!(small.nodes, 4);
        assert_eq!(small.procs, 128);

        let big = ClusterSpec::cori_500node();
        assert_eq!(big.nodes, 500);
        assert_eq!(big.procs, 1600);
    }
}
