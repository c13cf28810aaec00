//! Domain scenario 3: writing your own scheduling policy.
//!
//! The cluster substrate is policy-agnostic: anything implementing
//! [`Scheduler`] can be evaluated under identical conditions. This example
//! builds a naive "static two-tier" policy (CPU below a fixed rate, M60
//! above, plain MPS) and shows how far behind Paldia's modeled hybrid
//! scheduling it lands under surges.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use paldia::cluster::{run, Decision, ModelDecision, Observation, RunSpec, Scheduler, SimConfig};
use paldia::core::PaldiaScheduler;
use paldia::experiments::scenarios;
use paldia::hw::{Catalog, InstanceKind};
use paldia::workloads::{MlModel, Profile};

/// A deliberately simple policy: fixed rate threshold, fixed hardware pair,
/// unbounded MPS. No prediction, no Eq. (1), no occupancy management.
struct StaticTwoTier {
    threshold_rps: f64,
}

impl Scheduler for StaticTwoTier {
    fn name(&self) -> &str {
        "StaticTwoTier"
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        let rate: f64 = obs.models.iter().map(|m| m.observed_rps).sum();
        let hw = if rate < self.threshold_rps {
            InstanceKind::C6i_2xlarge
        } else {
            InstanceKind::G3s_xlarge
        };
        Decision {
            hw,
            total_cap: None,
            per_model: obs
                .models
                .iter()
                .map(|m| {
                    (
                        m.model,
                        ModelDecision {
                            batch_size: Profile::default_batch(m.model),
                            spatial_cap: u32::MAX,
                        },
                    )
                })
                .collect(),
        }
    }
}

fn main() {
    let model = MlModel::GoogleNet;
    let workloads = vec![scenarios::azure_workload(model, 3)];
    let catalog = Catalog::table_ii();
    let cfg = SimConfig::with_seed(3);

    let mut custom = StaticTwoTier {
        threshold_rps: 25.0,
    };
    let custom_run = run(RunSpec::lone(
        &workloads,
        &mut custom,
        InstanceKind::C6i_2xlarge,
        catalog.clone(),
        &cfg,
    ))
    .into_lone();

    let mut paldia = PaldiaScheduler::new();
    let paldia_run = run(RunSpec::lone(
        &workloads,
        &mut paldia,
        InstanceKind::C6i_2xlarge,
        catalog,
        &cfg,
    ))
    .into_lone();

    println!("{model} under the Azure trace:\n");
    for r in [&custom_run, &paldia_run] {
        println!(
            "  {:14}  SLO {:6.2}%   cost ${:.4}   transitions {:3}",
            r.scheme,
            r.slo_compliance(cfg.slo_ms) * 100.0,
            r.total_cost(),
            r.transitions
        );
    }
    println!(
        "\nThe static policy reacts only to the observed rate, pays every surge with a\n\
         full procurement delay of queued requests, and lets MPS consolidation smear\n\
         execution under backlogs. Paldia's prediction + Eq. (1) occupancy planning is\n\
         the difference between those compliance numbers."
    );
}
