//! GPU device models.
//!
//! The three GPU generations from Table II. Two parameters drive everything:
//!
//! * `compute_factor` — throughput of the device relative to the V100 for
//!   dense inference kernels (V100 = 1.0). Isolated batch latency of a model
//!   scales as `base_latency / compute_factor`.
//! * `mem_bandwidth_gbps` — global memory bandwidth available to the device.
//!   A model's Fractional Bandwidth Requirement on a device is its absolute
//!   bandwidth demand divided by this number, so the same model is "heavier"
//!   (higher FBR) on a wimpier GPU — the effect that makes naive MPS
//!   consolidation collapse on the M60 in the paper's Fig. 1.
//!
//! Values are drawn from the public spec sheets of the devices (bandwidth)
//! and from the broad inference-throughput ratios reported across MLPerf-era
//! measurements (compute factors). Absolute fidelity is not required; the
//! ordering V100 > M60 > K80 and the ~2–3× gaps are.

use std::fmt;

/// A GPU generation present in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuModel {
    /// NVIDIA Tesla K80 (Kepler, GK210 half exposed by p2.xlarge).
    K80,
    /// NVIDIA Tesla M60 (Maxwell, one GPU exposed by g3s.xlarge).
    M60,
    /// NVIDIA Tesla V100 (Volta, p3.2xlarge).
    V100,
}

impl GpuModel {
    /// All models, cheapest/wimpiest first.
    pub const ALL: [GpuModel; 3] = [GpuModel::K80, GpuModel::M60, GpuModel::V100];

    /// Inference throughput relative to the V100 (1.0).
    ///
    /// The M60 (Maxwell) outruns the older K80 (Kepler) on inference despite
    /// the K80's larger memory, matching the paper's use of the M60 as the
    /// "cost-effective yet capable" device.
    pub fn compute_factor(self) -> f64 {
        match self {
            GpuModel::K80 => 0.30,
            GpuModel::M60 => 0.42,
            GpuModel::V100 => 1.0,
        }
    }

    /// Global memory bandwidth in GB/s (per exposed device).
    pub fn mem_bandwidth_gbps(self) -> f64 {
        match self {
            GpuModel::K80 => 240.0,
            GpuModel::M60 => 160.0,
            GpuModel::V100 => 900.0,
        }
    }

    /// Device memory in GiB (bounds model residency; Table II).
    pub fn memory_gib(self) -> f64 {
        match self {
            GpuModel::K80 => 12.0,
            GpuModel::M60 => 8.0,
            GpuModel::V100 => 16.0,
        }
    }

    /// KV-cache capacity in tokens when the device serves iteration-level
    /// (continuous-batching) LLM workloads.
    ///
    /// Derived from the memory left after weights/activations at a coarse
    /// ~256 tokens per free GiB — absolute fidelity is not required, only
    /// that the capacity ordering (V100 > K80 > M60) differs from the raw
    /// compute ordering (V100 > M60 > K80), so KV pressure and FBR can bind
    /// on *different* devices and the scheduler's two feasibility
    /// dimensions are genuinely independent.
    pub fn kv_capacity_tokens(self) -> u64 {
        match self {
            GpuModel::K80 => 3_072,
            GpuModel::M60 => 2_048,
            GpuModel::V100 => 4_096,
        }
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GpuModel::K80 => "K80",
            GpuModel::M60 => "M60",
            GpuModel::V100 => "V100",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_ordering_matches_paper() {
        let f = GpuModel::compute_factor;
        assert!(f(GpuModel::V100) > f(GpuModel::M60));
        assert!(f(GpuModel::M60) > f(GpuModel::K80));
    }

    #[test]
    fn table_ii_memory_sizes() {
        assert_eq!(GpuModel::V100.memory_gib(), 16.0);
        assert_eq!(GpuModel::K80.memory_gib(), 12.0);
        assert_eq!(GpuModel::M60.memory_gib(), 8.0);
    }

    #[test]
    fn v100_is_reference() {
        assert_eq!(GpuModel::V100.compute_factor(), 1.0);
        // The gap between the best and the cheapest GPU is the 2–4× range
        // the paper's Fig. 1 exploits.
        let gap = GpuModel::V100.compute_factor() / GpuModel::M60.compute_factor();
        assert!(gap > 2.0 && gap < 3.0, "gap {gap}");
    }

    #[test]
    fn bandwidth_hierarchy() {
        // The V100 has by far the most bandwidth headroom — this is what
        // keeps its MPS interference low in the paper's (P) schemes.
        assert!(GpuModel::V100.mem_bandwidth_gbps() > 3.0 * GpuModel::M60.mem_bandwidth_gbps());
    }
}
