//! Worker-node instance types — the rows of Table II.

use crate::cpu::{CpuConfig, CpuModel};
use crate::gpu::GpuModel;
use std::fmt;

/// The primary compute hardware of an instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ComputeKind {
    /// GPU-accelerated node; requests run on the GPU (host CPU only stages).
    Gpu(GpuModel),
    /// CPU-only node; requests run in the framework's batched CPU mode.
    Cpu(CpuConfig),
}

impl ComputeKind {
    /// True for GPU-equipped nodes.
    pub fn is_gpu(self) -> bool {
        matches!(self, ComputeKind::Gpu(_))
    }

    /// The GPU model, if this is a GPU node.
    pub fn gpu(self) -> Option<GpuModel> {
        match self {
            ComputeKind::Gpu(g) => Some(g),
            ComputeKind::Cpu(_) => None,
        }
    }
}

/// The six AWS EC2 worker-node types of Table II.
///
/// Variant names mirror the AWS instance names, hence the non-camel-case
/// allowance.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstanceKind {
    /// NVIDIA V100 GPU, 16 GB, $3.06/h.
    P3_2xlarge,
    /// NVIDIA K80 GPU, 12 GB, $0.90/h.
    P2_xlarge,
    /// NVIDIA M60 GPU, 8 GB, $0.75/h.
    G3s_xlarge,
    /// Intel Ice Lake, 16 vCPUs, 32 GB, $0.68/h.
    C6i_4xlarge,
    /// Intel Ice Lake, 8 vCPUs, 16 GB, $0.34/h.
    C6i_2xlarge,
    /// Intel Broadwell, 2 vCPUs, 8 GB, $0.20/h.
    M4_xlarge,
}

impl InstanceKind {
    /// Every instance kind, in Table II order.
    pub const ALL: [InstanceKind; 6] = [
        InstanceKind::P3_2xlarge,
        InstanceKind::P2_xlarge,
        InstanceKind::G3s_xlarge,
        InstanceKind::C6i_4xlarge,
        InstanceKind::C6i_2xlarge,
        InstanceKind::M4_xlarge,
    ];

    /// The GPU-equipped kinds, cheapest first.
    // lint:allow(u1) the GPU kinds tests/headline_shapes.rs and tests/model_agreement.rs sweep
    pub const GPUS: [InstanceKind; 3] = [
        InstanceKind::G3s_xlarge,
        InstanceKind::P2_xlarge,
        InstanceKind::P3_2xlarge,
    ];

    /// Full static description of the instance.
    pub fn spec(self) -> InstanceSpec {
        match self {
            InstanceKind::P3_2xlarge => InstanceSpec {
                kind: self,
                compute: ComputeKind::Gpu(GpuModel::V100),
                memory_gib: 16.0,
                price_per_hour: 3.06,
            },
            InstanceKind::P2_xlarge => InstanceSpec {
                kind: self,
                compute: ComputeKind::Gpu(GpuModel::K80),
                memory_gib: 12.0,
                price_per_hour: 0.90,
            },
            InstanceKind::G3s_xlarge => InstanceSpec {
                kind: self,
                compute: ComputeKind::Gpu(GpuModel::M60),
                memory_gib: 8.0,
                price_per_hour: 0.75,
            },
            InstanceKind::C6i_4xlarge => InstanceSpec {
                kind: self,
                compute: ComputeKind::Cpu(CpuConfig {
                    model: CpuModel::IceLake,
                    vcpus: 16,
                }),
                memory_gib: 32.0,
                price_per_hour: 0.68,
            },
            InstanceKind::C6i_2xlarge => InstanceSpec {
                kind: self,
                compute: ComputeKind::Cpu(CpuConfig {
                    model: CpuModel::IceLake,
                    vcpus: 8,
                }),
                memory_gib: 16.0,
                price_per_hour: 0.34,
            },
            InstanceKind::M4_xlarge => InstanceSpec {
                kind: self,
                compute: ComputeKind::Cpu(CpuConfig {
                    model: CpuModel::Broadwell,
                    vcpus: 2,
                }),
                memory_gib: 8.0,
                price_per_hour: 0.20,
            },
        }
    }

    /// The AWS instance name, as in Table II.
    pub fn aws_name(self) -> &'static str {
        match self {
            InstanceKind::P3_2xlarge => "p3.2xlarge",
            InstanceKind::P2_xlarge => "p2.xlarge",
            InstanceKind::G3s_xlarge => "g3s.xlarge",
            InstanceKind::C6i_4xlarge => "c6i.4xlarge",
            InstanceKind::C6i_2xlarge => "c6i.2xlarge",
            InstanceKind::M4_xlarge => "m4.xlarge",
        }
    }

    /// On-demand price in $/hour (Table II).
    pub fn price_per_hour(self) -> f64 {
        self.spec().price_per_hour
    }

    /// True for GPU-equipped instances.
    pub fn is_gpu(self) -> bool {
        self.spec().compute.is_gpu()
    }

    /// The GPU model, if any.
    pub fn gpu(self) -> Option<GpuModel> {
        self.spec().compute.gpu()
    }

    /// Host vCPUs exposed to the container runtime (EC2 instance specs).
    /// CPU-only nodes use all of them for inference; GPU nodes use them for
    /// staging/batching — which is what co-located CPU workloads contend on.
    pub fn host_vcpus(self) -> u32 {
        match self.spec().compute {
            ComputeKind::Cpu(c) => c.vcpus,
            ComputeKind::Gpu(g) => match g {
                GpuModel::V100 => 8,
                GpuModel::M60 => 8,
                GpuModel::K80 => 4,
            },
        }
    }

    /// KV-cache capacity in tokens for iteration-level (continuous-
    /// batching) LLM execution — the second capacity dimension next to FBR.
    ///
    /// GPU nodes delegate to their device model
    /// ([`GpuModel::kv_capacity_tokens`]); CPU nodes hold a token's KV in
    /// host memory but are capped far lower, reflecting that their
    /// per-token latency (not memory) is what excludes them from LLM
    /// serving in practice.
    pub fn kv_capacity_tokens(self) -> u64 {
        match self.spec().compute {
            ComputeKind::Gpu(g) => g.kv_capacity_tokens(),
            ComputeKind::Cpu(_) => match self {
                InstanceKind::C6i_4xlarge => 512,
                InstanceKind::C6i_2xlarge => 256,
                _ => 128,
            },
        }
    }

    /// A scalar performance index used only for "more performant" ordering
    /// in escalation/failover paths: GPU nodes rank by GPU compute factor,
    /// above CPU nodes which rank by aggregate CPU factor scaled down.
    pub fn performance_index(self) -> f64 {
        match self.spec().compute {
            ComputeKind::Gpu(g) => 10.0 * g.compute_factor(),
            ComputeKind::Cpu(c) => 0.01 * c.aggregate_factor(),
        }
    }
}

impl fmt::Display for InstanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.aws_name())
    }
}

/// Static description of an instance kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceSpec {
    /// The instance kind this spec describes.
    pub kind: InstanceKind,
    /// Primary compute hardware.
    pub compute: ComputeKind,
    /// CPU or GPU memory in GiB (Table II's memory column).
    pub memory_gib: f64,
    /// On-demand price in $/hour.
    pub price_per_hour: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus() -> impl Iterator<Item = InstanceKind> {
        InstanceKind::ALL.into_iter().filter(|k| !k.is_gpu())
    }

    #[test]
    fn table_ii_prices() {
        // Pinned against the paper's Table II.
        assert_eq!(InstanceKind::P3_2xlarge.price_per_hour(), 3.06);
        assert_eq!(InstanceKind::P2_xlarge.price_per_hour(), 0.90);
        assert_eq!(InstanceKind::G3s_xlarge.price_per_hour(), 0.75);
        assert_eq!(InstanceKind::C6i_4xlarge.price_per_hour(), 0.68);
        assert_eq!(InstanceKind::C6i_2xlarge.price_per_hour(), 0.34);
        assert_eq!(InstanceKind::M4_xlarge.price_per_hour(), 0.20);
    }

    #[test]
    fn table_ii_compute() {
        assert_eq!(InstanceKind::P3_2xlarge.gpu(), Some(GpuModel::V100));
        assert_eq!(InstanceKind::P2_xlarge.gpu(), Some(GpuModel::K80));
        assert_eq!(InstanceKind::G3s_xlarge.gpu(), Some(GpuModel::M60));
        assert!(!InstanceKind::C6i_4xlarge.is_gpu());
        assert!(!InstanceKind::M4_xlarge.is_gpu());
    }

    #[test]
    fn table_ii_memory() {
        assert_eq!(InstanceKind::P3_2xlarge.spec().memory_gib, 16.0);
        assert_eq!(InstanceKind::P2_xlarge.spec().memory_gib, 12.0);
        assert_eq!(InstanceKind::G3s_xlarge.spec().memory_gib, 8.0);
        assert_eq!(InstanceKind::C6i_4xlarge.spec().memory_gib, 32.0);
        assert_eq!(InstanceKind::C6i_2xlarge.spec().memory_gib, 16.0);
        assert_eq!(InstanceKind::M4_xlarge.spec().memory_gib, 8.0);
    }

    #[test]
    fn gpu_lists_sorted_by_cost() {
        let prices: Vec<f64> = InstanceKind::GPUS
            .iter()
            .map(|k| k.price_per_hour())
            .collect();
        assert!(prices.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn kv_capacity_orders_differently_from_compute() {
        // V100 leads both dimensions, but K80 (more memory) outranks the
        // M60 on KV capacity despite losing on compute — the two
        // feasibility dimensions are independent.
        assert!(
            InstanceKind::P3_2xlarge.kv_capacity_tokens()
                > InstanceKind::P2_xlarge.kv_capacity_tokens()
        );
        assert!(
            InstanceKind::P2_xlarge.kv_capacity_tokens()
                > InstanceKind::G3s_xlarge.kv_capacity_tokens()
        );
        // Every CPU node sits below every GPU node.
        for c in cpus() {
            for g in InstanceKind::GPUS {
                assert!(c.kv_capacity_tokens() < g.kv_capacity_tokens());
            }
        }
    }

    #[test]
    fn v100_most_performant_overall() {
        let best = InstanceKind::ALL
            .iter()
            .max_by(|a, b| a.performance_index().total_cmp(&b.performance_index()))
            .copied()
            .unwrap();
        assert_eq!(best, InstanceKind::P3_2xlarge);
    }

    #[test]
    fn any_gpu_outranks_any_cpu() {
        for g in InstanceKind::GPUS {
            for c in cpus() {
                assert!(g.performance_index() > c.performance_index());
            }
        }
    }
}
