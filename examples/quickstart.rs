//! Quickstart: serve one ML inference workload with Paldia and read the
//! numbers the paper cares about.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use paldia::baselines::{InflessLlama, Variant};
use paldia::cluster::{run, RunSpec, SimConfig, WorkloadSpec};
use paldia::core::PaldiaScheduler;
use paldia::hw::{Catalog, InstanceKind};
use paldia::metrics::{LatencyStats, TailBreakdown};
use paldia::traces::azure::azure_trace;
use paldia::workloads::{MlModel, Profile};

fn main() {
    // 1. A workload: ResNet-50 under the bursty Azure serverless trace,
    //    scaled to the paper's peak rate for this model class (450 rps).
    let model = MlModel::ResNet50;
    let trace = azure_trace(42).scale_to_peak(Profile::peak_rps(model));
    let workload = WorkloadSpec::new(model, trace);
    println!(
        "workload: {model}, peak {:.0} rps, mean {:.1} rps, {:.0}s trace",
        workload.trace.peak(),
        workload.trace.mean(),
        workload.trace.duration().as_secs_f64()
    );

    // 2. The cluster: the paper's Table II hardware menu, default timing
    //    constants (200 ms SLO, ~4 s hardware procurement, 10 min keep-alive).
    let catalog = Catalog::table_ii();
    let cfg = SimConfig::with_seed(42);

    // 3. Serve it with Paldia, starting warm on a cheap CPU node.
    let mut paldia = PaldiaScheduler::new();
    let result = run(RunSpec::lone(
        std::slice::from_ref(&workload),
        &mut paldia,
        InstanceKind::C6i_2xlarge,
        catalog.clone(),
        &cfg,
    ))
    .into_lone();

    let stats = LatencyStats::from_completed(&result.completed);
    println!("\n== Paldia ==");
    println!(
        "  SLO compliance : {:.2}%",
        result.slo_compliance(cfg.slo_ms) * 100.0
    );
    println!("  P50 / P99      : {:.0} / {:.0} ms", stats.p50, stats.p99);
    println!("  cost           : ${:.4}", result.total_cost());
    println!("  mean power     : {:.0} W", result.mean_power_w());
    println!("  transitions    : {}", result.transitions);
    if let Some(b) = TailBreakdown::at(&result.completed, 99.0) {
        println!(
            "  P99 breakdown  : {:.0} ms = {:.0} min + {:.0} queue + {:.0} interference",
            b.total_ms, b.min_possible_ms, b.queueing_ms, b.interference_ms
        );
    }

    // 4. Compare against a state-of-the-art baseline on the same workload.
    let mut baseline = InflessLlama::new(Variant::CostEffective);
    let base = run(RunSpec::lone(
        &[workload],
        &mut baseline,
        InstanceKind::C6i_2xlarge,
        catalog,
        &cfg,
    ))
    .into_lone();
    println!("\n== {} ==", base.scheme);
    println!(
        "  SLO compliance : {:.2}%",
        base.slo_compliance(cfg.slo_ms) * 100.0
    );
    println!("  cost           : ${:.4}", base.total_cost());

    println!(
        "\nPaldia serves {:+.2} pp more requests within the SLO at {:+.0}% cost.",
        (result.slo_compliance(cfg.slo_ms) - base.slo_compliance(cfg.slo_ms)) * 100.0,
        (result.total_cost() / base.total_cost() - 1.0) * 100.0
    );
}
