//! The anatomy of a traced run: capture the observability stream of a
//! short Paldia simulation, walk one request's lifecycle, read the
//! scheduler's decision log, and export a chrome://tracing file.
//!
//! ```text
//! cargo run --release --example trace_anatomy
//! ```

use paldia::cluster::{run, RunSpec, SimConfig, WorkloadSpec};
use paldia::core::PaldiaScheduler;
use paldia::hw::{Catalog, InstanceKind};
use paldia::obs::{
    chrome_trace_json, completed_request_ids, explain_request, RingSink, TraceEventKind,
};
use paldia::traces::azure::azure_trace;
use paldia::workloads::{MlModel, Profile};

fn main() {
    // 1. A short primary-setting run: GoogleNet under the first two
    //    minutes of the scaled Azure trace.
    let model = MlModel::GoogleNet;
    let trace = azure_trace(1_000)
        .scale_to_peak(Profile::peak_rps(model))
        .slice(
            paldia::sim::SimTime::ZERO,
            paldia::sim::SimTime::from_secs(120),
        );
    let workload = WorkloadSpec::new(model, trace);

    // 2. Same harness call as an untraced run, plus a bounded in-memory
    //    sink. Metrics are bit-identical with or without it.
    let mut sink = RingSink::new(100_000);
    let mut scheduler = PaldiaScheduler::new();
    let cfg = SimConfig::with_seed(1_000);
    let result = run(RunSpec {
        sink: Some(&mut sink),
        ..RunSpec::lone(
            &[workload],
            &mut scheduler,
            InstanceKind::C6i_2xlarge,
            Catalog::table_ii(),
            &cfg,
        )
    })
    .into_lone();
    let dropped = sink.dropped();
    let events = sink.into_events();
    println!(
        "traced run: {} requests served, {} events captured ({dropped} dropped)",
        result.completed.len(),
        events.len()
    );

    // 3. One request's lifecycle, arrival to completion.
    let ids = completed_request_ids(&events);
    let mid = ids[ids.len() / 2];
    if let Some(text) = explain_request(&events, mid) {
        println!("\n{text}");
    }

    // 4. The scheduler's decision log: every monitor tick records the
    //    cost-ascending candidate table (Eq. (1) T_max per kind, price,
    //    feasibility) behind the hardware choice.
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::Decision(d) => Some((e.at, d)),
            _ => None,
        })
        .collect();
    println!("decision log: {} entries", decisions.len());
    if let Some((at, d)) = decisions
        .iter()
        .find(|(_, d)| d.chosen_hw != d.current_hw)
        .or(decisions.last())
    {
        println!(
            "\nat {:.1}s — {} on {}, chose {} (slo {} ms, distress={}, ramping={}):",
            at.as_millis_f64() / 1_000.0,
            d.scheduler,
            d.current_hw,
            d.chosen_hw,
            d.slo_ms,
            d.distress,
            d.ramping
        );
        for c in &d.candidates {
            println!(
                "  {:<14} T_max {:>9.2} ms  ${:.3}/h  {}",
                c.kind.to_string(),
                c.t_max_ms,
                c.price_per_hour,
                if c.feasible { "feasible" } else { "-" }
            );
        }
    }

    // 5. Export for chrome://tracing (or Perfetto). Worker lanes show
    //    batch execution spans; the gateway lane shows per-request
    //    async arrows; instants mark decisions and hardware switches.
    let json = chrome_trace_json(&events);
    let path = std::env::temp_dir().join("paldia_trace_anatomy.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "\nchrome trace ({} bytes) written to {}",
            json.len(),
            path.display()
        ),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
