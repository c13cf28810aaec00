//! The `repro --stress` scenario: a fleet far beyond the paper's scale,
//! intractable for the serial engine in one sitting, exercising the
//! partitioned coordinator end to end.
//!
//! The full spec is 1000 tenants at 56 requests/s each for 180 simulated
//! seconds — ~10.08 M requests on a 1000+-node elastic fleet. Scenario
//! construction here is deterministic (no wall clocks, no environment);
//! the `repro` binary owns the stopwatch and prints the events/s figure.

use paldia_cluster::{run, FleetDeployment, RunResult, RunSpec, SimConfig, WorkloadSpec};
use paldia_core::PaldiaScheduler;
use paldia_hw::Catalog;
use paldia_sim::SimDuration;
use paldia_traces::RateTrace;
use paldia_workloads::MlModel;

/// Models cycled across stress tenants — the paper's four primary vision
/// workloads, so per-tenant behavior matches the evaluated configurations.
const STRESS_MODELS: [MlModel; 4] = [
    MlModel::GoogleNet,
    MlModel::ResNet50,
    MlModel::SeNet18,
    MlModel::MobileNet,
];

/// Size of a stress run: tenant count, per-tenant arrival rate, and trace
/// length. `arrivals()` is the expected request volume.
#[derive(Debug, Clone, Copy)]
pub struct StressSpec {
    /// Number of single-model deployments in the fleet.
    pub tenants: usize,
    /// Constant arrival rate per tenant, requests per second.
    pub rps: f64,
    /// Trace duration per tenant, seconds.
    pub secs: u64,
    /// RNG seed for arrival sampling.
    pub seed: u64,
}

impl StressSpec {
    /// The acceptance-scale run: ~10.08 M requests across 1000 tenants.
    pub fn full() -> Self {
        StressSpec {
            tenants: 1000,
            rps: 56.0,
            secs: 180,
            seed: 4242,
        }
    }

    /// Expected arrival count (rate × duration × tenants).
    pub fn arrivals(&self) -> u64 {
        (self.rps * self.secs as f64).round() as u64 * self.tenants as u64
    }

    /// Build the fleet: one Paldia-scheduled deployment per tenant,
    /// models and initial hardware tiers cycled deterministically.
    pub fn deployments(&self) -> Vec<FleetDeployment> {
        let tiers = Catalog::table_ii().by_cost_ascending();
        (0..self.tenants)
            .map(|i| FleetDeployment {
                name: format!("stress-{i}"),
                workloads: vec![WorkloadSpec::new(
                    STRESS_MODELS[i % STRESS_MODELS.len()],
                    RateTrace::constant(
                        self.rps,
                        SimDuration::from_secs(self.secs),
                        SimDuration::from_secs(1),
                    ),
                )],
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: tiers[i % tiers.len()],
            })
            .collect()
    }
}

/// What a stress run produced, aggregated across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressOutcome {
    /// Requests generated by the traces.
    pub arrived: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests still in flight / dropped at the horizon.
    pub unserved: u64,
    /// Engine events dispatched across all tenants' partitions; like
    /// every other field, the same for every shard count.
    pub engine_events: u64,
    /// Distinct node leases across the fleet (≥ one per tenant).
    pub node_leases: u64,
    /// Number of tenant results folded in.
    pub tenants: usize,
}

impl StressOutcome {
    /// Aggregate per-tenant results plus the engine's event count.
    pub fn from_results(results: &[RunResult], engine_events: u64) -> Self {
        let mut out = StressOutcome {
            arrived: 0,
            completed: 0,
            unserved: 0,
            engine_events,
            node_leases: 0,
            tenants: results.len(),
        };
        for r in results {
            out.arrived += r.arrived_per_model.iter().map(|&(_, n)| n).sum::<u64>();
            out.completed += r.completed.len() as u64;
            out.unserved += r.unserved;
            out.node_leases += r.nodes.len() as u64;
        }
        out
    }
}

/// Run the stress fleet on `shards` partitions (elastic inventory) and
/// aggregate. Deterministic: same spec + shard count ⇒ same outcome, and
/// the outcome is invariant across shard counts.
pub fn run_stress(spec: &StressSpec, shards: u32) -> StressOutcome {
    let cfg = SimConfig::with_seed(spec.seed);
    let out = run(RunSpec {
        shards: Some(shards),
        ..RunSpec::fleet(spec.deployments(), Catalog::table_ii(), u32::MAX, &cfg)
    });
    StressOutcome::from_results(&out.results, out.events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_stress_conserves_and_is_shard_invariant() {
        // Same shape as the full spec, seconds of work.
        let spec = StressSpec {
            tenants: 8,
            rps: 20.0,
            secs: 10,
            seed: 4242,
        };
        let a = run_stress(&spec, 1);
        let b = run_stress(&spec, 3);
        assert_eq!(a, b, "stress outcome must be invariant across shards");
        assert_eq!(a.tenants, spec.tenants);
        assert_eq!(a.completed + a.unserved, a.arrived);
        assert!(a.arrived > 0 && a.engine_events > 0);
        assert!(a.node_leases >= spec.tenants as u64);
    }

    #[test]
    fn full_spec_reaches_acceptance_scale() {
        let spec = StressSpec::full();
        assert!(spec.arrivals() >= 10_000_000);
        assert!(spec.tenants >= 1000);
    }
}
