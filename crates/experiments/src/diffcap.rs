//! Decision-log capture and diffing for the repro binary: run two Paldia
//! configurations over the same trace and diff their decision streams
//! ([`paldia_obs::diff_decision_streams`]), plus the golden-decision-log
//! regression gate wired into `scripts/ci.sh`.
//!
//! The differ itself lives in `paldia-obs` and only sees event streams;
//! this module supplies the run harness around it — building a
//! [`PaldiaScheduler`] from an explicit [`PaldiaConfig`], capturing the
//! trace into a [`VecSink`], naming the tunable knobs
//! ([`apply_tunable`] / [`tunable_deltas`]) so `repro --diff-flip` can
//! annotate narratives with the responsible deltas, and maintaining the
//! committed golden decision log (`tests/golden/decision_log_quick.jsonl`)
//! that a tunable-free refactor must match bit-for-bit
//! (`repro --diff-golden`, re-blessed via `scripts/rebless.sh`).

use std::path::{Path, PathBuf};

use crate::common::SchemeKind;
use crate::scenarios;
use paldia_cluster::{
    run, FailoverPolicyKind, FaultPlan, FleetDeployment, RunResult, RunSpec, SimConfig,
};
use paldia_core::{PaldiaConfig, PaldiaScheduler};
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{
    diff_decision_streams, event_to_jsonl, read_jsonl_file, DiffReport, TraceEvent, TraceEventKind,
    TunableDelta, VecSink,
};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// Seed of the committed golden decision log.
pub const GOLDEN_SEED: u64 = 42;

/// Trace length (seconds) of the golden capture: long enough to cross
/// several load regimes (idle → ramp → surge) so the log exercises
/// upgrades, distress, and hysteresis, short enough to keep the committed
/// file and the CI gate cheap.
pub const GOLDEN_SECS: u64 = 90;

/// One side of an in-process decision diff: the primary evaluation setting
/// (GoogleNet over the scaled Azure trace, Table II catalog) under an
/// explicit Paldia configuration.
#[derive(Clone, Debug)]
pub struct DiffRunOpts {
    /// RNG seed for the trace sample and simulation.
    pub seed: u64,
    /// Trace truncation in seconds; `0` runs the full-day trace.
    pub capture_secs: u64,
    /// Model served.
    pub model: MlModel,
    /// Scheduler tunables for this side.
    pub config: PaldiaConfig,
    /// Optional deterministic fault schedule + failover policy.
    pub faults: Option<(FaultPlan, FailoverPolicyKind)>,
}

impl DiffRunOpts {
    /// The quick setting: default config, 120 s truncated trace — the same
    /// scenario as `repro --trace`'s quick capture.
    pub fn quick(seed: u64) -> Self {
        DiffRunOpts {
            seed,
            capture_secs: crate::tracecap::QUICK_CAPTURE_SECS,
            model: MlModel::GoogleNet,
            config: PaldiaConfig::default(),
            faults: None,
        }
    }
}

/// Run one side and capture its full trace (decision events included).
pub fn capture_decision_run(opts: &DiffRunOpts) -> (Vec<TraceEvent>, RunResult) {
    let mut sched = PaldiaScheduler::with_config(opts.config);
    capture_with(opts, &mut sched)
}

/// [`capture_decision_run`] on a caller-owned scheduler, so its state
/// (the y-search plan cache) can be inspected after the run.
fn capture_with(opts: &DiffRunOpts, sched: &mut PaldiaScheduler) -> (Vec<TraceEvent>, RunResult) {
    let workloads = if opts.capture_secs > 0 {
        vec![scenarios::azure_workload_truncated(
            opts.model,
            opts.seed,
            opts.capture_secs,
        )]
    } else {
        vec![scenarios::azure_workload(opts.model, opts.seed)]
    };
    let catalog = Catalog::table_ii();
    let mut cfg = SimConfig::with_seed(opts.seed);
    if let Some((plan, policy)) = opts.faults.clone() {
        cfg = cfg.with_faults(plan, policy);
    }
    // Initial hardware uses the scheme rule (cheapest capable for the
    // opening rate), which does not read PaldiaConfig — so both sides of a
    // tunable diff start on the same node and every divergence is the
    // scheduler's own doing.
    let initial = SchemeKind::Paldia.initial_hw(&workloads, &catalog, cfg.slo_ms);
    let mut sink = VecSink::new();
    let result = run(RunSpec {
        sink: Some(&mut sink),
        ..RunSpec::lone(&workloads, sched, initial, catalog, &cfg)
    })
    .into_lone();
    (sink.into_events(), result)
}

/// Run both sides over the same trace and diff their decision streams.
/// Returns the report plus each side's metrics (for "first metric delta"
/// cross-checks).
pub fn diff_runs(a: &DiffRunOpts, b: &DiffRunOpts) -> (DiffReport, RunResult, RunResult) {
    let (ea, ra) = capture_decision_run(a);
    let (eb, rb) = capture_decision_run(b);
    (diff_decision_streams(&ea, &eb), ra, rb)
}

/// The scheduler tunables `repro --diff-flip KEY=VALUE` can flip, with
/// their meanings. Order matters: it is the `--help` listing order.
pub const TUNABLE_KEYS: [&str; 8] = [
    "ramp_headroom",
    "distress_boost",
    "oracle_horizon_s",
    "selection.slo_safety_ms",
    "selection.performance_margin_ms",
    "selection.wait_limit",
    "selection.wait_limit_down",
    "selection.downgrade_budget_frac",
];

/// Set one named tunable on a [`PaldiaConfig`]. Keys are the dotted paths
/// of [`TUNABLE_KEYS`]; values parse as `f64` (or `u32` for the wait
/// limits).
pub fn apply_tunable(cfg: &mut PaldiaConfig, key: &str, value: &str) -> Result<(), String> {
    let as_f64 = || -> Result<f64, String> {
        value
            .parse::<f64>()
            .map_err(|_| format!("tunable {key}: expected a number, got {value:?}"))
    };
    let as_u32 = || -> Result<u32, String> {
        value
            .parse::<u32>()
            .map_err(|_| format!("tunable {key}: expected a non-negative integer, got {value:?}"))
    };
    match key {
        "ramp_headroom" => cfg.ramp_headroom = as_f64()?,
        "distress_boost" => cfg.distress_boost = as_f64()?,
        "oracle_horizon_s" => cfg.oracle_horizon_s = as_f64()?,
        "selection.slo_safety_ms" => cfg.selection.slo_safety_ms = as_f64()?,
        "selection.performance_margin_ms" => cfg.selection.performance_margin_ms = as_f64()?,
        "selection.wait_limit" => cfg.selection.wait_limit = as_u32()?,
        "selection.wait_limit_down" => cfg.selection.wait_limit_down = as_u32()?,
        "selection.downgrade_budget_frac" => cfg.selection.downgrade_budget_frac = as_f64()?,
        _ => {
            return Err(format!(
                "unknown tunable {key:?}; known: {}",
                TUNABLE_KEYS.join(", ")
            ))
        }
    }
    Ok(())
}

/// The named knobs on which two configurations differ, rendered for
/// [`paldia_obs::render_diff`]'s "responsible tunable deltas" section.
pub fn tunable_deltas(a: &PaldiaConfig, b: &PaldiaConfig) -> Vec<TunableDelta> {
    let fields: [(&str, String, String); 8] = [
        (
            "ramp_headroom",
            a.ramp_headroom.to_string(),
            b.ramp_headroom.to_string(),
        ),
        (
            "distress_boost",
            a.distress_boost.to_string(),
            b.distress_boost.to_string(),
        ),
        (
            "oracle_horizon_s",
            a.oracle_horizon_s.to_string(),
            b.oracle_horizon_s.to_string(),
        ),
        (
            "selection.slo_safety_ms",
            a.selection.slo_safety_ms.to_string(),
            b.selection.slo_safety_ms.to_string(),
        ),
        (
            "selection.performance_margin_ms",
            a.selection.performance_margin_ms.to_string(),
            b.selection.performance_margin_ms.to_string(),
        ),
        (
            "selection.wait_limit",
            a.selection.wait_limit.to_string(),
            b.selection.wait_limit.to_string(),
        ),
        (
            "selection.wait_limit_down",
            a.selection.wait_limit_down.to_string(),
            b.selection.wait_limit_down.to_string(),
        ),
        (
            "selection.downgrade_budget_frac",
            a.selection.downgrade_budget_frac.to_string(),
            b.selection.downgrade_budget_frac.to_string(),
        ),
    ];
    fields
        .into_iter()
        .filter(|(_, va, vb)| va != vb)
        .map(|(name, va, vb)| TunableDelta {
            name: name.to_string(),
            a: va,
            b: vb,
        })
        .collect()
}

/// Path of the committed golden decision log, anchored to the workspace
/// root (works from any test/binary cwd).
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/decision_log_quick.jsonl")
}

/// The golden scenario: [`GOLDEN_SEED`]/[`GOLDEN_SECS`], GoogleNet,
/// default tunables.
pub fn golden_opts() -> DiffRunOpts {
    DiffRunOpts {
        seed: GOLDEN_SEED,
        capture_secs: GOLDEN_SECS,
        model: MlModel::GoogleNet,
        config: PaldiaConfig::default(),
        faults: None,
    }
}

/// Run the golden scenario and keep only its decision events (the full
/// span stream would be megabytes; decisions are a few hundred lines and
/// are all the differ aligns on).
pub fn capture_golden_decisions() -> Vec<TraceEvent> {
    let (events, _) = capture_decision_run(&golden_opts());
    events
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
        .collect()
}

/// Regenerate the committed golden decision log (`repro --bless-golden`,
/// `scripts/rebless.sh`). Returns the number of decisions written.
pub fn write_golden(path: &Path) -> Result<usize, String> {
    write_decisions(path, &capture_golden_decisions())
}

/// Write a decision log as JSONL, one event per line (the committed
/// golden format). Returns the number of decisions written.
pub(crate) fn write_decisions(path: &Path, decisions: &[TraceEvent]) -> Result<usize, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut out = String::new();
    for event in decisions {
        out.push_str(&event_to_jsonl(event));
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(decisions.len())
}

/// Diff a freshly captured decision stream against a committed golden
/// log (`name` labels the read error).
pub(crate) fn gate_against(
    path: &Path,
    name: &str,
    current: &[TraceEvent],
) -> Result<DiffReport, String> {
    let committed = read_jsonl_file(path).map_err(|e| {
        format!(
            "reading {name} decision log {}: {e}\n(regenerate with scripts/rebless.sh)",
            path.display()
        )
    })?;
    Ok(diff_decision_streams(&committed, current))
}

/// The CI regression gate: re-run the golden scenario in-process and diff
/// it against the committed log. `Ok(report)` may still be non-empty —
/// the caller decides the exit code; `Err` means the golden file is
/// missing or unreadable (run `scripts/rebless.sh`).
pub fn golden_gate() -> Result<DiffReport, String> {
    gate_against(&golden_path(), "golden", &capture_golden_decisions())
}

/// Path of the committed fleet golden decision log, anchored to the
/// workspace root.
pub fn fleet_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/decision_log_fleet.jsonl")
}

/// Models of the fleet golden scenario, one per tenant.
pub const FLEET_GOLDEN_MODELS: [MlModel; 3] =
    [MlModel::GoogleNet, MlModel::ResNet50, MlModel::Dpn92];

/// The fleet golden scenario's tenants: three Paldia deployments over the
/// truncated Azure trace ([`GOLDEN_SECS`], per-tenant seeds from
/// [`GOLDEN_SEED`]), all asking to start on the same node so the
/// one-unit inventory places two of them elsewhere from the first tick.
pub fn fleet_golden_deployments() -> Vec<FleetDeployment> {
    FLEET_GOLDEN_MODELS
        .iter()
        .enumerate()
        .map(|(i, &model)| FleetDeployment {
            name: model.name().to_string(),
            workloads: vec![scenarios::azure_workload_truncated(
                model,
                GOLDEN_SEED + i as u64,
                GOLDEN_SECS,
            )],
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: InstanceKind::C6i_2xlarge,
        })
        .collect()
}

/// Config of the fleet golden scenario: one 20 s node-crash window from
/// t = 30 s, so every tenant's failover runs under the shared inventory.
pub fn fleet_golden_config() -> SimConfig {
    SimConfig::with_seed(GOLDEN_SEED).with_faults(
        FaultPlan::new().crash(SimTime::from_secs(30), SimDuration::from_secs(20)),
        FailoverPolicyKind::CheapestMorePerformant,
    )
}

/// Run the fleet golden scenario (one unit per Table II kind) and keep
/// only its decision events, scoped `1 + tenant`.
pub fn capture_fleet_golden_decisions() -> Vec<TraceEvent> {
    let mut sink = VecSink::new();
    let cfg = fleet_golden_config();
    let spec = RunSpec::fleet(fleet_golden_deployments(), Catalog::table_ii(), 1, &cfg);
    run(RunSpec {
        sink: Some(&mut sink),
        ..spec
    });
    sink.into_events()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
        .collect()
}

/// Regenerate the committed fleet golden decision log. Returns the number
/// of decisions written.
pub fn write_fleet_golden(path: &Path) -> Result<usize, String> {
    write_decisions(path, &capture_fleet_golden_decisions())
}

/// The fleet golden gate: same contract as [`golden_gate`].
pub fn fleet_golden_gate() -> Result<DiffReport, String> {
    gate_against(
        &fleet_golden_path(),
        "fleet golden",
        &capture_fleet_golden_decisions(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_tunable_round_trips_known_keys() {
        let mut cfg = PaldiaConfig::default();
        apply_tunable(&mut cfg, "selection.wait_limit", "7").expect("known key");
        assert_eq!(cfg.selection.wait_limit, 7);
        apply_tunable(&mut cfg, "distress_boost", "4.5").expect("known key");
        assert!((cfg.distress_boost - 4.5).abs() < 1e-12);
        assert!(apply_tunable(&mut cfg, "nope", "1").is_err());
        assert!(apply_tunable(&mut cfg, "selection.wait_limit", "x").is_err());
    }

    #[test]
    fn tunable_deltas_name_only_changed_knobs() {
        let a = PaldiaConfig::default();
        let mut b = a;
        b.distress_boost = 9.0;
        b.selection.wait_limit = 1;
        let deltas = tunable_deltas(&a, &b);
        let names: Vec<&str> = deltas.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["distress_boost", "selection.wait_limit"]);
        assert!(tunable_deltas(&a, &a).is_empty());
    }

    /// The golden scenario's plan-cache traffic, pinned. Evaluation order
    /// decides which lookups hit, so a refactor of the y-search loop must
    /// leave these counts exactly where they are.
    #[test]
    fn golden_plan_cache_counts_are_pinned() {
        let mut sched = PaldiaScheduler::with_config(golden_opts().config);
        let _ = capture_with(&golden_opts(), &mut sched);
        let cache = sched.plan_cache();
        assert_eq!((cache.hits(), cache.misses()), (598, 655));
    }

    #[test]
    fn every_tunable_key_is_applicable() {
        for key in TUNABLE_KEYS {
            let mut cfg = PaldiaConfig::default();
            apply_tunable(&mut cfg, key, "2").expect("listed key applies");
        }
    }
}
