//! Cross-crate integration tests: the headline shapes of the paper's
//! evaluation (DESIGN.md §3) must hold end-to-end through the public
//! facade, on shortened traces suitable for `cargo test`.

use paldia::baselines::Variant;
use paldia::cluster::{FailoverPolicyKind, FaultPlan, SimConfig};
use paldia::experiments::{common, scenarios, SchemeKind};
use paldia::hw::{Catalog, InstanceKind};
use paldia::metrics::FaultImpact;
use paldia::sim::SimTime;
use paldia::workloads::{sebs::SebsMix, MlModel};

/// The first-surge slice of the Azure trace (covers baseline + surge +
/// recovery) — enough to expose every scheme's character.
fn surge_slice(model: MlModel) -> Vec<paldia::cluster::WorkloadSpec> {
    vec![scenarios::azure_workload_truncated(model, 1_000, 420)]
}

fn slo(scheme: &SchemeKind, w: &[paldia::cluster::WorkloadSpec]) -> (f64, f64) {
    let cfg = SimConfig::with_seed(1_000);
    let r = common::run_once(scheme, w, &Catalog::table_ii(), &cfg);
    (r.slo_compliance(cfg.slo_ms), r.total_cost())
}

#[test]
fn paldia_beats_dollar_baselines_and_tracks_p_schemes() {
    // Shape 1 (Fig. 3): on a surge-heavy slice of a heavy model, Paldia
    // clears the cost-effective baselines by percentage points and stays
    // within a couple of points of the always-V100 schemes.
    let w = surge_slice(MlModel::Vgg19);
    let (paldia, _) = slo(&SchemeKind::Paldia, &w);
    let (molecule, _) = slo(&SchemeKind::Molecule(Variant::CostEffective), &w);
    let (infless, _) = slo(&SchemeKind::InflessLlama(Variant::CostEffective), &w);
    let (p_scheme, _) = slo(&SchemeKind::InflessLlama(Variant::Performance), &w);
    assert!(
        paldia > molecule && paldia > infless,
        "Paldia {paldia:.4} vs Molecule($) {molecule:.4} / INFless($) {infless:.4}"
    );
    assert!(
        p_scheme - paldia < 0.05,
        "Paldia {paldia:.4} should track (P) {p_scheme:.4}"
    );
}

#[test]
fn paldia_cost_near_dollar_far_below_p() {
    // Shape 2 (Fig. 5): Paldia's spend is in the $-baseline neighbourhood
    // and a small fraction of the (P) schemes'.
    let w = surge_slice(MlModel::Dpn92);
    let (_, paldia) = slo(&SchemeKind::Paldia, &w);
    let (_, dollar) = slo(&SchemeKind::InflessLlama(Variant::CostEffective), &w);
    let (_, perf) = slo(&SchemeKind::InflessLlama(Variant::Performance), &w);
    assert!(paldia < 0.5 * perf, "Paldia ${paldia:.4} vs (P) ${perf:.4}");
    assert!(
        paldia < 2.5 * dollar,
        "Paldia ${paldia:.4} vs ($) ${dollar:.4}"
    );
}

#[test]
fn tail_characters_differ_by_mechanism() {
    // Shape 3 (Fig. 4): the time-sharing baseline's tail is queue-built;
    // the MPS baseline accumulates interference that time sharing, by
    // construction, cannot.
    let w = surge_slice(MlModel::ResNet50);
    let cfg = SimConfig::with_seed(1_000);
    let molecule = common::run_once(
        &SchemeKind::Molecule(Variant::CostEffective),
        &w,
        &Catalog::table_ii(),
        &cfg,
    );
    let infless = common::run_once(
        &SchemeKind::InflessLlama(Variant::CostEffective),
        &w,
        &Catalog::table_ii(),
        &cfg,
    );
    let mean_interf = |r: &paldia::cluster::RunResult| {
        r.completed.iter().map(|c| c.interference_ms()).sum::<f64>() / r.completed.len() as f64
    };
    assert!(
        mean_interf(&infless) > 3.0 * mean_interf(&molecule).max(0.01),
        "INFless {:.2} ms vs Molecule {:.2} ms",
        mean_interf(&infless),
        mean_interf(&molecule)
    );
}

#[test]
fn exhaustion_ordering_hybrid_ts_mps() {
    // Shape 5 (Fig. 13a): under exhaustion on the V100-only catalog,
    // Paldia ≫ time sharing > MPS-all.
    let v100 = Catalog::of(&[InstanceKind::P3_2xlarge]);
    let w = vec![scenarios::bursty_workload(
        MlModel::GoogleNet,
        900.0,
        4_000.0,
        300,
        2,
        300,
    )];
    let cfg = SimConfig::with_seed(1_000);
    let run = |s: &SchemeKind| common::run_once(s, &w, &v100, &cfg).slo_compliance(cfg.slo_ms);
    let paldia = run(&SchemeKind::Paldia);
    let ts = run(&SchemeKind::Molecule(Variant::Performance));
    let mps = run(&SchemeKind::InflessLlama(Variant::Performance));
    assert!(
        paldia > ts + 0.1 && ts > mps + 0.1,
        "paldia {paldia:.3} > ts {ts:.3} > mps {mps:.3} expected"
    );
    assert!(paldia > 0.9, "paldia under exhaustion: {paldia:.3}");
}

#[test]
fn node_failures_upgrade_the_cost_schemes() {
    // Shape 6 (Fig. 13b): with the failover-upgrade rule, a failure pushes
    // the workload onto the V100 quickly and most traffic still completes.
    let plan = FaultPlan::minute_crashes(SimTime::from_secs(60), 2);
    let cfg =
        SimConfig::with_seed(1_000).with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    let w = surge_slice(MlModel::DenseNet121);
    let r = common::run_once(&SchemeKind::Paldia, &w, &Catalog::table_ii(), &cfg);
    // The rule is "cheapest *more performant*": failing a CPU node lands on
    // a GPU node (failing the M60 would land on the V100).
    let gpu_hours: f64 = InstanceKind::GPUS.iter().map(|&k| r.cost.hours_on(k)).sum();
    assert!(
        gpu_hours > 0.0,
        "failover should have provisioned a GPU node: {}",
        r.cost
    );
    let total = r.completed.len() as u64 + r.unserved;
    assert!(
        r.unserved < total / 10,
        "unserved {} of {total}",
        r.unserved
    );
}

#[test]
fn fig13b_shapes_survive_the_fault_layer() {
    // Shape 6, golden form (Fig. 13b on the declarative fault layer): under
    // minute-crash windows with the paper's failover rule, the (P) scheme
    // loses ground vs its clean run (forced off the V100), the
    // cost-effective schemes hold or improve (crashes push them onto
    // brawnier hardware), and Paldia stays best-or-equal among the
    // cost-effective schemes while far cheaper than (P).
    let w = surge_slice(MlModel::DenseNet121);
    let clean = SimConfig::with_seed(1_000);
    let plan = FaultPlan::minute_crashes(SimTime::from_secs(60), 2);
    let faulted = clean
        .clone()
        .with_faults(plan.clone(), FailoverPolicyKind::CheapestMorePerformant);
    let catalog = Catalog::table_ii();
    let run = |s: &SchemeKind, cfg: &SimConfig| common::run_once(s, &w, &catalog, cfg);

    let p = SchemeKind::InflessLlama(Variant::Performance);
    let dollar = SchemeKind::InflessLlama(Variant::CostEffective);
    let p_clean = run(&p, &clean).slo_compliance(clean.slo_ms);
    let p_fail = run(&p, &faulted);
    let d_clean = run(&dollar, &clean).slo_compliance(clean.slo_ms);
    let d_fail = run(&dollar, &faulted);
    let paldia_fail = run(&SchemeKind::Paldia, &faulted);

    let p_slo = p_fail.slo_compliance(faulted.slo_ms);
    let d_slo = d_fail.slo_compliance(faulted.slo_ms);
    let paldia_slo = paldia_fail.slo_compliance(faulted.slo_ms);
    assert!(
        p_slo < p_clean,
        "(P) should degrade under failures: {p_slo:.4} vs clean {p_clean:.4}"
    );
    assert!(
        d_slo > d_clean - 0.01,
        "($) should hold or improve under failures: {d_slo:.4} vs clean {d_clean:.4}"
    );
    assert!(
        paldia_slo >= d_slo,
        "Paldia {paldia_slo:.4} should lead ($) {d_slo:.4} under failures"
    );
    assert!(
        paldia_fail.total_cost() < 0.6 * p_fail.total_cost(),
        "Paldia ${:.4} should stay far below (P) ${:.4}",
        paldia_fail.total_cost(),
        p_fail.total_cost()
    );

    // The fault-impact counters see both crash windows and a finite
    // recovery: service resumes within the SLO after each crash.
    let impact = FaultImpact::from_run(&paldia_fail, &plan, faulted.slo_ms);
    assert_eq!(impact.crashes, 2, "both minute-crash windows in horizon");
    assert!(
        impact.mean_recovery_s.is_finite() && impact.mean_recovery_s >= 0.0,
        "Paldia should recover SLO-compliant service after each crash: {:?}",
        impact
    );
    assert!(
        impact.completed_in_fault > 0,
        "requests arriving mid-crash must still be served"
    );
}

#[test]
fn oracle_at_least_as_good_and_no_pricier() {
    // Shape 7 (Fig. 11).
    let w = surge_slice(MlModel::GoogleNet);
    let (paldia_slo, paldia_cost) = slo(&SchemeKind::Paldia, &w);
    let (oracle_slo, oracle_cost) = slo(&SchemeKind::Oracle, &w);
    assert!(
        oracle_slo + 0.005 >= paldia_slo,
        "oracle {oracle_slo:.4} vs paldia {paldia_slo:.4}"
    );
    assert!(
        oracle_slo - paldia_slo < 0.05,
        "paldia should be close behind the oracle"
    );
    assert!(
        paldia_cost < 1.5 * oracle_cost,
        "paldia ${paldia_cost:.4} vs oracle ${oracle_cost:.4}"
    );
}

#[test]
fn sebs_colocation_hurts_cost_schemes_not_p() {
    // Table III.
    let w = surge_slice(MlModel::ResNet50);
    let clean = SimConfig::with_seed(1_000);
    let mut mixed = SimConfig::with_seed(1_000);
    mixed.sebs_mix = SebsMix::table_iii();
    let catalog = Catalog::table_ii();
    let run = |s: &SchemeKind, cfg: &SimConfig| {
        common::run_once(s, &w, &catalog, cfg).slo_compliance(cfg.slo_ms)
    };
    let dollar = SchemeKind::Molecule(Variant::CostEffective);
    let p = SchemeKind::InflessLlama(Variant::Performance);
    assert!(run(&dollar, &mixed) < run(&dollar, &clean));
    assert!(run(&p, &clean) - run(&p, &mixed) < 0.01);
}

#[test]
fn deterministic_through_the_facade() {
    let w = surge_slice(MlModel::SeNet18);
    let a = slo(&SchemeKind::Paldia, &w);
    let b = slo(&SchemeKind::Paldia, &w);
    assert_eq!(a, b);
}

#[test]
fn llm_continuous_batching_beats_request_level_token_tail() {
    // Shape (Orca/vLLM, the `repro --llm` study): under the cold-start
    // storm, iteration-level execution retires each sequence the moment
    // its last token decodes, so P99 *token* latency drops below the
    // request-level batcher's run-to-completion tail — while retiring at
    // least as many requests (per-token retirement frees capacity, it
    // never strands it).
    use paldia::experiments::llm_iter::{p99_token_latency_ms, run_llm, LlmRunOpts};
    let base = LlmRunOpts {
        seed: 1_000,
        secs: 180,
        scheme: SchemeKind::Paldia,
        iterative: true,
        storm: true,
    };
    let iterative = run_llm(&base);
    let request_level = run_llm(&LlmRunOpts {
        iterative: false,
        ..base
    });
    let p99_iter = p99_token_latency_ms(&iterative, 1_000);
    let p99_rl = p99_token_latency_ms(&request_level, 1_000);
    assert!(
        p99_iter < p99_rl,
        "continuous batching P99 token latency {p99_iter:.2} ms should beat \
         request-level {p99_rl:.2} ms under the storm"
    );
    assert!(
        iterative.completed.len() >= request_level.completed.len(),
        "continuous batching lost goodput: {} vs {} completed",
        iterative.completed.len(),
        request_level.completed.len()
    );
    assert!(
        !iterative.completed.is_empty(),
        "storm scenario served nothing"
    );
}
