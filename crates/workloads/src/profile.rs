//! The offline workload/hardware profile store.
//!
//! §III of the paper: "all terms except y … can be obtained through
//! profiling the workloads over time on the GPU (Solo_M, and FBR_M)".
//! In the real system these come from measurement; here they come from a
//! calibrated analytic table with the same interface.
//!
//! ## The latency model
//!
//! * **GPU:** `solo(bs) = (fixed + per_item · bs) / compute_factor(gpu)`,
//!   where `per_item` is the V100-calibrated per-image (or per-sequence)
//!   milliseconds. Wimpier GPUs stretch both the launch overhead and the
//!   kernel time.
//! * **FBR:** `min(1, bw_demand / gpu_bandwidth)` — one batch's global
//!   memory bandwidth demand as a fraction of the device's. The same model
//!   is heavier on a wimpier GPU, which is why naive MPS consolidation
//!   collapses on the M60 (Fig. 1) while the V100 shrugs it off.
//! * **CPU:** `solo(bs) = cpu_fixed + cpu_per_item · bs / aggregate_factor`,
//!   the framework's batched CPU mode scaling across vCPUs.
//!
//! ## Calibration anchors (from the paper)
//!
//! * Batch latencies land in ~50–200 ms on the hardware schedulers pick (§V).
//! * GoogleNet/DPN-92/VGG-19/DenseNet-121 are the "high-FBR" vision models
//!   (trace peak 225 rps); the rest peak at ~450 rps; language models peak
//!   at 8 rps (§V, "Request Traces").
//! * A c6i.4xlarge sustains ~25 rps for high-FBR workloads (§IV-A).
//! * Language models have much higher execution time, memory footprint and
//!   FBR than vision models (§VI-B), pushing every cost-aware scheme onto
//!   more expensive hardware.

use crate::model::{MlModel, ModelClass};
use paldia_hw::{ComputeKind, GpuModel, InstanceKind};

/// Raw per-model calibration constants.
#[derive(Clone, Copy, Debug)]
struct Raw {
    /// Default (maximum) batch size used for this model (§V).
    batch: u32,
    /// V100 per-item execution time, ms (batch-amortized).
    v100_per_item_ms: f64,
    /// Global memory bandwidth demand of one executing batch, GB/s.
    bw_demand_gbps: f64,
    /// Per-item execution time on one Ice Lake core, ms.
    cpu_per_item_ms: f64,
    /// GPU memory footprint of one resident batch, GiB.
    mem_gib: f64,
}

/// Fixed per-batch launch/staging overhead on the V100, ms.
const GPU_FIXED_MS: f64 = 4.0;
/// Fixed per-batch overhead of the CPU batched mode, ms.
const CPU_FIXED_MS: f64 = 10.0;

fn raw(model: MlModel) -> Raw {
    use MlModel::*;
    match model {
        // ---- Vision: (batch, v100 ms/item, GB/s, cpu ms/item, GiB) ----
        ResNet50 => Raw {
            batch: 64,
            v100_per_item_ms: 0.80,
            bw_demand_gbps: 75.0,
            cpu_per_item_ms: 300.0,
            mem_gib: 0.30,
        },
        GoogleNet => Raw {
            batch: 64,
            v100_per_item_ms: 1.00,
            bw_demand_gbps: 100.0,
            cpu_per_item_ms: 260.0,
            mem_gib: 0.25,
        },
        DenseNet121 => Raw {
            batch: 64,
            v100_per_item_ms: 1.05,
            bw_demand_gbps: 95.0,
            cpu_per_item_ms: 350.0,
            mem_gib: 0.30,
        },
        Dpn92 => Raw {
            batch: 32,
            v100_per_item_ms: 1.40,
            bw_demand_gbps: 120.0,
            cpu_per_item_ms: 420.0,
            mem_gib: 0.45,
        },
        Vgg19 => Raw {
            batch: 32,
            v100_per_item_ms: 1.50,
            bw_demand_gbps: 110.0,
            cpu_per_item_ms: 450.0,
            mem_gib: 0.55,
        },
        ResNet18 => Raw {
            batch: 128,
            v100_per_item_ms: 0.50,
            bw_demand_gbps: 55.0,
            cpu_per_item_ms: 150.0,
            mem_gib: 0.20,
        },
        MobileNet => Raw {
            batch: 128,
            v100_per_item_ms: 0.40,
            bw_demand_gbps: 45.0,
            cpu_per_item_ms: 80.0,
            mem_gib: 0.15,
        },
        MobileNetV2 => Raw {
            batch: 128,
            v100_per_item_ms: 0.44,
            bw_demand_gbps: 48.0,
            cpu_per_item_ms: 95.0,
            mem_gib: 0.15,
        },
        SeNet18 => Raw {
            batch: 128,
            v100_per_item_ms: 0.30,
            bw_demand_gbps: 70.0,
            cpu_per_item_ms: 170.0,
            mem_gib: 0.20,
        },
        ShuffleNetV2 => Raw {
            batch: 128,
            v100_per_item_ms: 0.38,
            bw_demand_gbps: 40.0,
            cpu_per_item_ms: 85.0,
            mem_gib: 0.15,
        },
        EfficientNetB0 => Raw {
            batch: 128,
            v100_per_item_ms: 0.45,
            bw_demand_gbps: 42.0,
            cpu_per_item_ms: 180.0,
            mem_gib: 0.20,
        },
        SimplifiedDla => Raw {
            batch: 128,
            v100_per_item_ms: 0.48,
            bw_demand_gbps: 65.0,
            cpu_per_item_ms: 240.0,
            mem_gib: 0.25,
        },
        // ---- Language: far heavier in every dimension (§VI-B) ----
        Albert => Raw {
            batch: 8,
            v100_per_item_ms: 7.0,
            bw_demand_gbps: 350.0,
            cpu_per_item_ms: 2500.0,
            mem_gib: 2.5,
        },
        Bert => Raw {
            batch: 8,
            v100_per_item_ms: 8.4,
            bw_demand_gbps: 400.0,
            cpu_per_item_ms: 3000.0,
            mem_gib: 3.5,
        },
        DistilBert => Raw {
            batch: 8,
            v100_per_item_ms: 5.0,
            bw_demand_gbps: 300.0,
            cpu_per_item_ms: 1500.0,
            mem_gib: 2.0,
        },
        FunnelTransformer => Raw {
            batch: 8,
            v100_per_item_ms: 8.4,
            bw_demand_gbps: 450.0,
            cpu_per_item_ms: 3500.0,
            mem_gib: 4.0,
        },
    }
}

/// The profile store — static methods answering the questions Algorithm 1
/// and the Job Distributor ask.
///
/// ```
/// use paldia_workloads::{MlModel, Profile};
/// use paldia_hw::InstanceKind;
///
/// let m = MlModel::GoogleNet;
/// let bs = Profile::default_batch(m);
/// // Solo batch latency orders by GPU generation…
/// let v100 = Profile::solo_ms(m, InstanceKind::P3_2xlarge, bs);
/// let m60 = Profile::solo_ms(m, InstanceKind::G3s_xlarge, bs);
/// assert!(v100 < m60);
/// // …and the same batch is a much heavier co-tenant on the wimpier GPU.
/// assert!(Profile::effective_share(m, InstanceKind::G3s_xlarge)
///     > Profile::effective_share(m, InstanceKind::P3_2xlarge));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Profile;

impl Profile {
    /// The model's default (maximum) batch size, as configured in §V:
    /// max 128 for vision, 8 for language, scaled down for heavy models so
    /// batch latency stays in the 50–200 ms band.
    pub fn default_batch(model: MlModel) -> u32 {
        raw(model).batch
    }

    /// Isolated ("solo") execution latency of a batch of `batch` requests on
    /// the given instance kind, in milliseconds. This is `Solo_M` of Eq. (1)
    /// when `batch` is the model's batch size.
    pub fn solo_ms(model: MlModel, kind: InstanceKind, batch: u32) -> f64 {
        let r = raw(model);
        let b = batch.max(1) as f64;
        match kind.spec().compute {
            ComputeKind::Gpu(gpu) => (GPU_FIXED_MS + r.v100_per_item_ms * b) / gpu.compute_factor(),
            ComputeKind::Cpu(cpu) => CPU_FIXED_MS + r.cpu_per_item_ms * b / cpu.aggregate_factor(),
        }
    }

    /// The Fractional Bandwidth Requirement of one executing batch of this
    /// model on the given GPU — `FBR_M` of Eq. (1). Clamped to 1.0: a batch
    /// cannot demand more than the device delivers (its solo time already
    /// reflects the stretch).
    pub fn fbr(model: MlModel, gpu: GpuModel) -> f64 {
        (raw(model).bw_demand_gbps / gpu.mem_bandwidth_gbps()).min(1.0)
    }

    /// SM (compute) occupancy of one executing batch: the fraction of the
    /// device's compute throughput the batch's kernels keep busy. Small on
    /// the V100 (80 SMs — concurrency is nearly free, which is why the (P)
    /// schemes shrug off consolidation) and large on the wimpier
    /// generations (the same kernels occupy most of an M60). Co-located
    /// batches contend on the *maximum* of their bandwidth and compute
    /// shares — the second resource dimension bandwidth-only models miss.
    pub fn occupancy(model: MlModel, gpu: GpuModel) -> f64 {
        let v100_occ = match model.class() {
            ModelClass::Vision => 0.30,
            ModelClass::Language => 0.50,
        };
        (v100_occ / gpu.compute_factor()).min(1.0)
    }

    /// The effective device share of one full batch: the binding resource
    /// (memory bandwidth or SM occupancy). This is what the simulator's
    /// processor-sharing device and Eq. (1) consume as "FBR" — the paper's
    /// profiled FBR plays exactly this binding-resource role.
    pub fn effective_share(model: MlModel, kind: InstanceKind) -> f64 {
        match kind.gpu() {
            None => 0.0,
            Some(g) => Self::fbr(model, g).max(Self::occupancy(model, g)),
        }
    }

    /// Effective share of a batch of `batch` requests: demand tracks the
    /// batch's *item throughput*, so a partial batch's share shrinks. Equal
    /// to [`Self::effective_share`] at the default batch size.
    pub fn effective_share_for_batch(model: MlModel, kind: InstanceKind, batch: u32) -> f64 {
        Self::batch_scale(model, kind, batch) * Self::effective_share(model, kind)
    }

    /// Item-throughput scaling of a partial batch relative to the full one:
    /// a partial batch streams fewer activations per second (fixed launch
    /// overhead dilutes it), so its resource shares shrink accordingly.
    fn batch_scale(model: MlModel, kind: InstanceKind, batch: u32) -> f64 {
        let bs_full = Self::default_batch(model);
        let b = batch.max(1).min(bs_full);
        if b == bs_full {
            return 1.0;
        }
        let items_per_ms = b as f64 / Self::solo_ms(model, kind, b);
        let items_per_ms_full = bs_full as f64 / Self::solo_ms(model, kind, bs_full);
        (items_per_ms / items_per_ms_full).min(1.0)
    }

    /// GPU memory footprint of one resident batch, GiB. Bounds how many
    /// batches can be spatially co-located on a device.
    pub fn batch_mem_gib(model: MlModel) -> f64 {
        raw(model).mem_gib
    }

    /// Whether the paper classes this model as "high-FBR" (peak trace rate
    /// 225 rps instead of 450). GoogleNet and DPN-92 are the paper's named
    /// examples; all language models qualify.
    pub fn is_high_fbr(model: MlModel) -> bool {
        matches!(
            model,
            MlModel::GoogleNet | MlModel::DenseNet121 | MlModel::Dpn92 | MlModel::Vgg19
        ) || model.class() == ModelClass::Language
    }

    /// The peak request rate the paper scales this model's trace to (§V).
    pub fn peak_rps(model: MlModel) -> f64 {
        match model.class() {
            ModelClass::Language => 8.0,
            ModelClass::Vision => {
                if Self::is_high_fbr(model) {
                    225.0
                } else {
                    450.0
                }
            }
        }
    }

    /// The per-request service time (ms) the request-level batcher's close
    /// deadline has historically assumed for every admitted request: one
    /// item's share of a full batch on the reference V100. Lifted into the
    /// profile so variable-length (token-count) requests can report how far
    /// they deviate from it (see `paldia_cluster::batcher`).
    pub fn uniform_service_ms(model: MlModel) -> f64 {
        raw(model).v100_per_item_ms
    }

    /// One decode iteration's latency (ms) for a single resident sequence
    /// of `model` on `kind` — the time to produce one token for one
    /// request in iteration-level (continuous-batching) execution.
    ///
    /// Calibrated from the request-level profile: a profiled "item" is a
    /// [`crate::tokens::TOKENS_PER_ITEM`]-token unit of work, so the
    /// per-token step is the per-item time divided by that, stretched by
    /// the device's compute factor exactly like [`Self::solo_ms`]. CPU
    /// nodes pay their batched-mode per-item cost per unit too — which is
    /// what prices them out of LLM serving (their per-token latency, not
    /// memory, is the binding exclusion).
    pub fn token_step_ms(model: MlModel, kind: InstanceKind) -> f64 {
        let r = raw(model);
        let unit = crate::tokens::TOKENS_PER_ITEM as f64;
        match kind.spec().compute {
            ComputeKind::Gpu(gpu) => r.v100_per_item_ms / unit / gpu.compute_factor(),
            ComputeKind::Cpu(cpu) => r.cpu_per_item_ms / unit / cpu.aggregate_factor(),
        }
    }

    /// Time-shared throughput capacity (requests/s) at the given batch size:
    /// the rate above which a FIFO device queue is unstable.
    pub fn ts_capacity_rps(model: MlModel, kind: InstanceKind, batch: u32) -> f64 {
        let solo_s = Self::solo_ms(model, kind, batch) / 1_000.0;
        batch.max(1) as f64 / solo_s
    }

    /// The largest batch size (≤ the model default) whose solo latency on
    /// `kind` stays within `latency_budget_ms`. Returns `None` when even a
    /// single request misses the budget (the node is not capable at all).
    ///
    /// Used for the CPU path, where the framework adapts batch size to the
    /// node, and for capability pruning in `get_HW_pool`.
    pub fn max_batch_within(
        model: MlModel,
        kind: InstanceKind,
        latency_budget_ms: f64,
    ) -> Option<u32> {
        let cap = Self::default_batch(model);
        if Self::solo_ms(model, kind, 1) > latency_budget_ms {
            return None;
        }
        if Self::solo_ms(model, kind, cap) <= latency_budget_ms {
            return Some(cap);
        }
        // Solo latency is monotone in batch size: binary search the edge.
        let (mut lo, mut hi) = (1u32, cap);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if Self::solo_ms(model, kind, mid) <= latency_budget_ms {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// Sustainable throughput of `kind` for `model` under a latency budget:
    /// picks the best batch size within the budget and reports the resulting
    /// requests/s. Zero if the node cannot serve a single request in budget.
    pub fn capacity_within(model: MlModel, kind: InstanceKind, latency_budget_ms: f64) -> f64 {
        match Self::max_batch_within(model, kind, latency_budget_ms) {
            None => 0.0,
            Some(bs) => Self::ts_capacity_rps(model, kind, bs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLO_MS: f64 = 200.0;

    #[test]
    fn vision_batch_latency_in_band_on_m60() {
        // §V: batch sizes are selected so batch latency is ~50–200 ms on the
        // hardware considered. The M60 is the workhorse cheap GPU.
        for m in MlModel::VISION {
            let bs = Profile::default_batch(m);
            let solo = Profile::solo_ms(m, InstanceKind::G3s_xlarge, bs);
            assert!(
                (50.0..=200.0).contains(&solo),
                "{m}: solo {solo:.1} ms out of band on M60"
            );
        }
    }

    #[test]
    fn vision_faster_on_v100() {
        for m in MlModel::VISION {
            let bs = Profile::default_batch(m);
            let v100 = Profile::solo_ms(m, InstanceKind::P3_2xlarge, bs);
            let m60 = Profile::solo_ms(m, InstanceKind::G3s_xlarge, bs);
            let k80 = Profile::solo_ms(m, InstanceKind::P2_xlarge, bs);
            assert!(v100 < m60 && m60 < k80, "{m}: ordering broken");
        }
    }

    #[test]
    fn high_fbr_set_matches_paper() {
        assert!(Profile::is_high_fbr(MlModel::GoogleNet));
        assert!(Profile::is_high_fbr(MlModel::Dpn92));
        assert!(Profile::is_high_fbr(MlModel::Vgg19));
        assert!(Profile::is_high_fbr(MlModel::DenseNet121));
        assert!(!Profile::is_high_fbr(MlModel::EfficientNetB0));
        assert!(!Profile::is_high_fbr(MlModel::MobileNet));
        for m in MlModel::LANGUAGE {
            assert!(Profile::is_high_fbr(m));
        }
    }

    #[test]
    fn trace_peaks_match_paper() {
        assert_eq!(Profile::peak_rps(MlModel::GoogleNet), 225.0);
        assert_eq!(Profile::peak_rps(MlModel::SeNet18), 450.0);
        assert_eq!(Profile::peak_rps(MlModel::Bert), 8.0);
    }

    #[test]
    fn fbr_higher_on_wimpier_gpus() {
        for m in MlModel::ALL {
            let v100 = Profile::fbr(m, GpuModel::V100);
            let m60 = Profile::fbr(m, GpuModel::M60);
            assert!(m60 >= v100, "{m}: FBR should grow as bandwidth shrinks");
            assert!(v100 > 0.0 && m60 <= 1.0);
        }
    }

    #[test]
    fn fbr_example_magnitude() {
        // The paper's running example: "an FBR of 0.2 indicates the job
        // requires 20% of the global memory bandwidth" — vision models on
        // the V100 sit in the ~0.05–0.15 range, on the M60 ~0.25–0.75.
        let f = Profile::fbr(MlModel::GoogleNet, GpuModel::M60);
        assert!((0.5..0.8).contains(&f), "GoogleNet M60 FBR {f}");
        let f = Profile::fbr(MlModel::GoogleNet, GpuModel::V100);
        assert!((0.05..0.2).contains(&f), "GoogleNet V100 FBR {f}");
    }

    #[test]
    fn language_models_saturate_cheap_gpus() {
        for m in MlModel::LANGUAGE {
            assert_eq!(Profile::fbr(m, GpuModel::M60), 1.0, "{m}");
        }
    }

    #[test]
    fn language_heavier_than_vision() {
        // §VI-B: "significantly higher execution times, memory footprints,
        // and FBRs than those of the vision models".
        let worst_vision_mem = MlModel::VISION
            .iter()
            .map(|&m| Profile::batch_mem_gib(m))
            .fold(0.0, f64::max);
        for m in MlModel::LANGUAGE {
            assert!(Profile::batch_mem_gib(m) >= worst_vision_mem);
            let per_item_v100 = Profile::solo_ms(m, InstanceKind::P3_2xlarge, 8) / 8.0;
            assert!(per_item_v100 > 2.0, "{m}: per-item {per_item_v100}");
        }
    }

    #[test]
    fn cpu_node_sustains_about_25_rps_for_high_fbr() {
        // §IV-A: "we use CPU nodes to handle lower request rates (up to
        // ~25 rps for workloads with high FBRs)".
        let cap = Profile::capacity_within(MlModel::Dpn92, InstanceKind::C6i_4xlarge, SLO_MS);
        assert!((15.0..40.0).contains(&cap), "DPN-92 c6i.4xlarge cap {cap}");
        let cap = Profile::capacity_within(MlModel::GoogleNet, InstanceKind::C6i_4xlarge, SLO_MS);
        assert!(
            (20.0..60.0).contains(&cap),
            "GoogleNet c6i.4xlarge cap {cap}"
        );
    }

    #[test]
    fn light_models_do_better_on_cpu() {
        let mobile =
            Profile::capacity_within(MlModel::MobileNet, InstanceKind::C6i_4xlarge, SLO_MS);
        let dpn = Profile::capacity_within(MlModel::Dpn92, InstanceKind::C6i_4xlarge, SLO_MS);
        assert!(mobile > 3.0 * dpn, "MobileNet {mobile} vs DPN-92 {dpn}");
    }

    #[test]
    fn max_batch_within_monotone_and_correct() {
        let m = MlModel::ResNet50;
        let k = InstanceKind::C6i_2xlarge;
        let bs = Profile::max_batch_within(m, k, SLO_MS).unwrap();
        assert!(Profile::solo_ms(m, k, bs) <= SLO_MS);
        if bs < Profile::default_batch(m) {
            assert!(Profile::solo_ms(m, k, bs + 1) > SLO_MS);
        }
    }

    #[test]
    fn incapable_node_returns_none() {
        // A 2-vCPU Broadwell box cannot run one BERT sequence in 200 ms.
        assert_eq!(
            Profile::max_batch_within(MlModel::Bert, InstanceKind::M4_xlarge, SLO_MS),
            None
        );
        assert_eq!(
            Profile::capacity_within(MlModel::Bert, InstanceKind::M4_xlarge, SLO_MS),
            0.0
        );
    }

    #[test]
    fn m60_capacity_brackets_vision_peaks() {
        // Calibration anchor: the cheap M60 node's time-shared capacity sits
        // above each model's peak (it is "capable") but within ~2.5× of it,
        // so surges genuinely stress it — the regime where the paper's
        // scheduling differences appear.
        for m in MlModel::VISION {
            let bs = Profile::default_batch(m);
            let cap = Profile::ts_capacity_rps(m, InstanceKind::G3s_xlarge, bs);
            let peak = Profile::peak_rps(m);
            assert!(
                cap > 0.7 * peak && cap < 4.0 * peak,
                "{m}: M60 capacity {cap:.0} rps vs peak {peak}"
            );
        }
    }

    #[test]
    fn v100_fbr_headroom_supports_p_schemes() {
        // The (P) schemes consolidate everything on the V100 with MPS and
        // still meet SLOs: a surge's worth of concurrent vision batches must
        // not saturate its bandwidth badly.
        for m in MlModel::VISION {
            assert!(Profile::fbr(m, GpuModel::V100) < 0.15, "{m}");
        }
    }

    #[test]
    fn solo_monotone_in_batch() {
        for m in [MlModel::ResNet50, MlModel::Bert] {
            for k in [InstanceKind::P3_2xlarge, InstanceKind::C6i_4xlarge] {
                let mut prev = 0.0;
                for bs in [1, 2, 4, 8] {
                    let s = Profile::solo_ms(m, k, bs);
                    assert!(s > prev);
                    prev = s;
                }
            }
        }
    }

    #[test]
    fn share_scales_with_batch_size() {
        let m = MlModel::GoogleNet;
        let k = InstanceKind::G3s_xlarge;
        let full = Profile::effective_share_for_batch(m, k, Profile::default_batch(m));
        assert!((full - Profile::effective_share(m, k)).abs() < 1e-12);
        let small = Profile::effective_share_for_batch(m, k, 8);
        assert!(small < full, "partial batches demand less bandwidth");
        assert!(small > 0.0);
        // Monotone in batch size.
        let mut prev = 0.0;
        for bs in [1, 4, 16, 64] {
            let f = Profile::effective_share_for_batch(m, k, bs);
            assert!(f >= prev);
            prev = f;
        }
        // CPU nodes contend on nothing.
        assert_eq!(
            Profile::effective_share_for_batch(m, InstanceKind::C6i_4xlarge, 8),
            0.0
        );
    }

    #[test]
    fn zero_batch_clamps_to_one() {
        assert_eq!(
            Profile::solo_ms(MlModel::ResNet50, InstanceKind::P3_2xlarge, 0),
            Profile::solo_ms(MlModel::ResNet50, InstanceKind::P3_2xlarge, 1)
        );
    }
}
