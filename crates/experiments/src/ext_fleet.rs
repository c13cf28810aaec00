//! Extension study: multi-tenant co-scheduling over the physical 6-node
//! inventory.
//!
//! The paper evaluates one deployment at a time; a provider runs many. Four
//! Paldia tenants (two high-FBR, two low-FBR vision models) share the
//! Table II cluster with exactly **one unit of each node kind** and are
//! compared against the same tenants with an effectively unlimited
//! inventory. Contention shows up as compliance lost when two tenants
//! want the same GPU during overlapping surges — and as the V100 premium
//! whoever loses the race pays elsewhere.

use crate::common::{Check, ExperimentReport, RunOpts};
use crate::scenarios::azure_workload;
use paldia_cluster::{FleetDeployment, RunSpec, SimConfig};
use paldia_core::PaldiaScheduler;
use paldia_hw::{Catalog, InstanceKind};
use paldia_metrics::TextTable;
use paldia_workloads::MlModel;

/// The four tenants of the study.
pub const TENANT_MODELS: [MlModel; 4] = [
    MlModel::GoogleNet,
    MlModel::Dpn92,
    MlModel::ResNet50,
    MlModel::SeNet18,
];

fn deployments(opts: &RunOpts) -> Vec<FleetDeployment> {
    // Stagger each tenant's trace by 2 minutes so surges overlap only
    // partially (perfectly synchronized surges are the degenerate case:
    // with three GPU units and four GPU-hungry surges, somebody must
    // starve), and start each tenant on its own CPU node.
    let starts = [
        InstanceKind::M4_xlarge,
        InstanceKind::C6i_2xlarge,
        InstanceKind::C6i_4xlarge,
        InstanceKind::C6i_2xlarge,
    ];
    TENANT_MODELS
        .iter()
        .enumerate()
        .map(|(i, &model)| {
            let base = azure_workload(model, opts.seed_base + i as u64);
            let staggered = base.trace.rotate(i * 120);
            FleetDeployment {
                name: model.name().to_string(),
                workloads: vec![paldia_cluster::WorkloadSpec::new(model, staggered)],
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: starts[i % starts.len()],
            }
        })
        .collect()
}

/// Run the fleet study.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let cfg = SimConfig::with_seed(opts.seed_base);
    let catalog = Catalog::table_ii();

    let contended =
        paldia_cluster::run(RunSpec::fleet(deployments(opts), catalog.clone(), 1, &cfg)).results;
    let elastic =
        paldia_cluster::run(RunSpec::fleet(deployments(opts), catalog, u32::MAX, &cfg)).results;

    let mut table = TextTable::new(&[
        "tenant",
        "SLO (1 unit/kind)",
        "SLO (elastic)",
        "cost $ (1 unit)",
        "cost $ (elastic)",
    ]);
    let mut worst_drop: f64 = 0.0;
    let mut cost_premium: f64 = 0.0;
    let mut any_contention = false;
    for (c, e) in contended.iter().zip(elastic.iter()) {
        let (sc, se) = (c.slo_compliance(cfg.slo_ms), e.slo_compliance(cfg.slo_ms));
        worst_drop = worst_drop.max(se - sc);
        cost_premium = cost_premium.max(c.total_cost() / e.total_cost().max(1e-9) - 1.0);
        if (se - sc).abs() > 1e-4 || (c.total_cost() - e.total_cost()).abs() > 1e-4 {
            any_contention = true;
        }
        table.row(&[
            c.scheme.clone(),
            format!("{:.2}%", sc * 100.0),
            format!("{:.2}%", se * 100.0),
            format!("{:.4}", c.total_cost()),
            format!("{:.4}", e.total_cost()),
        ]);
    }

    let avg = |rs: &[paldia_cluster::RunResult]| {
        rs.iter().map(|r| r.slo_compliance(cfg.slo_ms)).sum::<f64>() / rs.len() as f64
    };
    let avg_contended = avg(&contended);

    ExperimentReport {
        id: "ext-fleet",
        title: "Multi-tenant Paldia over the physical 6-node inventory".into(),
        table: table.render(),
        checks: vec![
            Check {
                what: "finite inventory visibly constrains the fleet".into(),
                paper: "(extension — not in the paper)".into(),
                measured: format!(
                    "worst compliance delta {:.2} pp; worst cost premium {:+.0}% — \
                     partially-overlapping surges cost money, not SLOs",
                    worst_drop * 100.0,
                    cost_premium * 100.0
                ),
                holds: any_contention,
            },
            Check {
                what: "the fleet still serves well under contention".into(),
                paper: "(extension — not in the paper)".into(),
                measured: format!("avg tenant compliance {:.2}%", avg_contended * 100.0),
                holds: avg_contended > 0.85,
            },
        ],
    }
}
