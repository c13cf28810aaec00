//! Simulation configuration: the paper's timing constants and the
//! per-run study toggles.

use crate::device::DeviceMode;
use crate::faults::{FailoverPolicyKind, FaultPlan};
use paldia_sim::SimDuration;
use paldia_traces::PredictorKind;
use paldia_workloads::sebs::SebsMix;

/// Scheduler invocation period (`Monitor_Interval` of Algorithm 1).
pub(crate) const MONITOR_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Predictive scale-up period (~10 s, §IV-C).
pub(crate) const PREDICTIVE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Container cold-start delay ("up to multiple seconds", §II-A).
pub(crate) const COLD_START: SimDuration = SimDuration::from_millis(1_800);

/// Hardware procurement delay: VM launch + initial container warm-up.
/// The ~4 s prediction look-ahead of §IV-A exists to hide this.
pub(crate) const PROVISION_DELAY: SimDuration = SimDuration::from_secs(4);

/// Keep-alive before delayed termination (~10 minutes, §IV-C).
pub(crate) const KEEP_ALIVE: SimDuration = SimDuration::from_secs(600);

/// Containers warmed during provisioning, before traffic is rerouted.
pub(crate) const INITIAL_CONTAINERS: u32 = 2;

/// Provisioning delay for the failover replacement. Much shorter than
/// [`PROVISION_DELAY`]: the paper's 6-node cluster has every node
/// physically present, so failover is a reroute plus container spin-up
/// rather than a fresh VM acquisition.
pub(crate) const FAILOVER_DELAY: SimDuration = SimDuration::from_millis(1_000);

/// Grace period after the trace ends to let queues drain before
/// unfinished requests are counted as violations.
pub(crate) const DRAIN_GRACE: SimDuration = SimDuration::from_secs(30);

/// The knobs a cluster run varies. Defaults follow §IV/§V of the paper.
/// The paper's timing constants (monitor and predictive intervals, cold
/// start, provisioning, keep-alive, warm containers, failover delay and the
/// drain grace after the trace) are constants of this module, the same for
/// every run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Latency SLO, ms (200 ms for every workload in §V).
    pub slo_ms: f64,
    /// Batch formation window (flexible batching closes partial batches
    /// after this wait).
    pub batch_window: SimDuration,
    /// Co-located SeBS background mix (Table III study); empty = none.
    pub sebs_mix: SebsMix,
    /// Declarative fault schedule (crashes, degradation, stragglers,
    /// cold-start storms); empty = healthy run. Compiled against the trace
    /// horizon at simulation start ([`crate::faults`]).
    pub faults: FaultPlan,
    /// Where evicted work lands after a node crash. The default
    /// reproduces the pre-fault-layer harness (most performant survivor);
    /// Fig. 13b uses [`FailoverPolicyKind::CheapestMorePerformant`].
    pub failover: FailoverPolicyKind,
    /// Root RNG seed for the run.
    pub seed: u64,
    /// Which request-rate predictor the gateway runs ("lightweight,
    /// pluggable model", §IV-C). Holt level+trend by default.
    pub predictor: PredictorKind,
    /// How workers execute admitted work. The default request-level mode
    /// is the paper's shipped model (run-to-completion batches on the
    /// shared device); [`DeviceMode::IterativeBatch`] turns on
    /// iteration-level continuous batching for LLM workloads.
    pub device_mode: DeviceMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slo_ms: 200.0,
            batch_window: SimDuration::from_millis(25),
            sebs_mix: SebsMix::none(),
            faults: FaultPlan::new(),
            failover: FailoverPolicyKind::default(),
            seed: 42,
            predictor: PredictorKind::default(),
            device_mode: DeviceMode::default(),
        }
    }
}

impl SimConfig {
    /// Config with a specific seed (everything else default).
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Attach a fault schedule and failover policy to this run.
    pub fn with_faults(mut self, plan: FaultPlan, failover: FailoverPolicyKind) -> Self {
        self.faults = plan;
        self.failover = failover;
        self
    }

    /// Switch every worker to iteration-level continuous batching (the LLM
    /// experiments; DESIGN.md § Iteration-level execution).
    pub fn with_iterative_batching(mut self) -> Self {
        self.device_mode = DeviceMode::IterativeBatch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SimConfig::default();
        assert_eq!(c.slo_ms, 200.0);
        assert_eq!(c.batch_window, SimDuration::from_millis(25));
        assert_eq!(MONITOR_INTERVAL, SimDuration::from_millis(500));
        assert_eq!(PREDICTIVE_INTERVAL, SimDuration::from_secs(10));
        assert_eq!(COLD_START, SimDuration::from_millis(1_800));
        assert_eq!(PROVISION_DELAY, SimDuration::from_secs(4));
        assert_eq!(KEEP_ALIVE, SimDuration::from_secs(600));
        assert_eq!(INITIAL_CONTAINERS, 2);
        assert_eq!(FAILOVER_DELAY, SimDuration::from_millis(1_000));
        assert_eq!(DRAIN_GRACE, SimDuration::from_secs(30));
        assert!(c.faults.is_empty());
        assert_eq!(c.failover, FailoverPolicyKind::MostPerformant);
    }
}
