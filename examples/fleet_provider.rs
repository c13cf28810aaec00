//! Domain scenario 5: the provider's view — many functions, six nodes.
//!
//! Four Paldia tenants serve different models over the physical Table II
//! cluster (exactly one unit of each node kind). Surges are staggered, so
//! tenants mostly dodge each other — but when two want the same GPU, the
//! loser pays with pricier hardware. Compare against an elastic inventory
//! to see what the physical constraint costs each tenant.
//!
//! ```text
//! cargo run --release --example fleet_provider
//! ```

use paldia::cluster::{run, FleetDeployment, RunSpec, SimConfig, WorkloadSpec};
use paldia::core::PaldiaScheduler;
use paldia::experiments::scenarios;
use paldia::hw::{Catalog, InstanceKind};
use paldia::metrics::TextTable;
use paldia::workloads::MlModel;

fn tenants(seed: u64) -> Vec<FleetDeployment> {
    let models = [
        MlModel::GoogleNet,
        MlModel::Dpn92,
        MlModel::ResNet50,
        MlModel::SeNet18,
    ];
    models
        .iter()
        .enumerate()
        .map(|(i, &model)| {
            let w = scenarios::azure_workload(model, seed + i as u64);
            FleetDeployment {
                name: model.name().to_string(),
                workloads: vec![WorkloadSpec::new(model, w.trace.rotate(i * 150))],
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::C6i_2xlarge,
            }
        })
        .collect()
}

fn main() {
    let cfg = SimConfig::with_seed(21);

    println!("four Paldia tenants, one unit of each Table II node:\n");
    let constrained = run(RunSpec::fleet(tenants(21), Catalog::table_ii(), 1, &cfg)).results;
    let spec = RunSpec::fleet(tenants(21), Catalog::table_ii(), u32::MAX, &cfg);
    let elastic = run(spec).results;

    let mut table = TextTable::new(&[
        "tenant",
        "SLO (physical)",
        "SLO (elastic)",
        "$ (physical)",
        "$ (elastic)",
    ]);
    for (c, e) in constrained.iter().zip(elastic.iter()) {
        table.row(&[
            c.scheme.clone(),
            format!("{:.2}%", c.slo_compliance(cfg.slo_ms) * 100.0),
            format!("{:.2}%", e.slo_compliance(cfg.slo_ms) * 100.0),
            format!("{:.4}", c.total_cost()),
            format!("{:.4}", e.total_cost()),
        ]);
    }
    println!("{}", table.render());

    println!("hardware timelines (physical inventory):");
    for r in &constrained {
        let path: Vec<String> = r
            .hw_timeline
            .iter()
            .map(|(t, k)| format!("{:.0}s:{}", t, k.aws_name()))
            .collect();
        println!("  {:28} {}", r.scheme, path.join(" → "));
    }
}
