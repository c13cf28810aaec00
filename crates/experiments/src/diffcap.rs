//! The primary scenario and the decision-log machinery around it.
//!
//! [`PrimaryScenario`] is this repo's run of the paper's main evaluation
//! setting (§V): Paldia serving one model over the scaled Azure trace on
//! the Table II catalog. It is the one definition behind `repro --trace` /
//! `--trace-file` / `--triage` / `--explain` (a traced run),
//! `repro --diff-flip` (two traced runs diffed), the `quick` golden row,
//! and `paldia-serve --capture` / `--smoke` (its sampled arrivals as a
//! replay trace), so every one of them runs the same scenario.
//!
//! The differ itself lives in `paldia-obs` and only sees event streams;
//! this module supplies the run harness around it — diffing two
//! configurations over the same trace ([`diff_runs`]), naming the tunable
//! knobs ([`apply_tunable`] / [`tunable_deltas`]) so `repro --diff-flip`
//! can annotate narratives with the responsible deltas, and registering the
//! committed golden decision logs (`tests/golden/*.jsonl`, one [`Golden`]
//! row each) that a tunable-free refactor must match bit-for-bit
//! (`repro --diff-golden`, re-blessed via `scripts/rebless.sh`).

use std::path::{Path, PathBuf};

use crate::common::SchemeKind;
use crate::llm_iter::{self, LlmRunOpts};
use crate::scenarios;
use paldia_cluster::{
    run, FailoverPolicyKind, FaultPlan, FleetDeployment, RecordedTrace, RunResult, RunSpec,
    SimConfig, WorkloadSpec,
};
use paldia_core::{PaldiaConfig, PaldiaScheduler};
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{
    append_jsonl, diff_decision_streams, read_jsonl_file, DiffReport, TraceEvent, TraceEventKind,
    TraceSink, TunableDelta, VecSink,
};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// Seed of the committed golden decision logs (and the LLM smoke gate).
pub const GOLDEN_SEED: u64 = 42;

/// Trace length (seconds) of the golden captures: long enough to cross
/// several load regimes (idle → ramp → surge, and both LLM storm edges) so
/// the logs exercise upgrades, distress, and hysteresis, short enough to
/// keep the committed files and the CI gate cheap.
pub const GOLDEN_SECS: u64 = 90;

/// The primary evaluation setting: `model` over the scaled Azure trace,
/// Table II catalog, warm start on the Paldia scheme's opening node.
#[derive(Clone, Debug)]
pub struct PrimaryScenario {
    /// RNG seed for the trace sample and simulation.
    pub seed: u64,
    /// Trace truncation in seconds; `0` runs the full-day trace.
    pub capture_secs: u64,
    /// Model served.
    pub model: MlModel,
    /// Scheduler tunables ([`Self::scheduler`]).
    pub config: PaldiaConfig,
    /// Optional deterministic fault schedule + failover policy.
    pub faults: Option<(FaultPlan, FailoverPolicyKind)>,
}

impl PrimaryScenario {
    /// The quick setting: GoogleNet, default config, no faults, the Azure
    /// trace truncated to 120 s (the slice the quick repro figures use).
    pub fn quick(seed: u64) -> Self {
        PrimaryScenario {
            seed,
            capture_secs: 120,
            model: MlModel::GoogleNet,
            config: PaldiaConfig::default(),
            faults: None,
        }
    }

    /// The `quick` golden row's scenario: [`GOLDEN_SEED`], [`GOLDEN_SECS`].
    pub fn golden() -> Self {
        PrimaryScenario {
            capture_secs: GOLDEN_SECS,
            ..PrimaryScenario::quick(GOLDEN_SEED)
        }
    }

    /// A fresh Paldia scheduler on this scenario's tunables.
    pub fn scheduler(&self) -> PaldiaScheduler {
        PaldiaScheduler::with_config(self.config)
    }

    /// The workloads, simulation config and warm-start node of the
    /// scenario: the one place they are built.
    fn setup(&self) -> (Vec<WorkloadSpec>, SimConfig, InstanceKind) {
        let workload = if self.capture_secs > 0 {
            scenarios::azure_workload_truncated(self.model, self.seed, self.capture_secs)
        } else {
            scenarios::azure_workload(self.model, self.seed)
        };
        let workloads = vec![workload];
        let mut cfg = SimConfig::with_seed(self.seed);
        if let Some((plan, policy)) = self.faults.clone() {
            cfg = cfg.with_faults(plan, policy);
        }
        // The warm-start rule (cheapest capable for the opening rate) does
        // not read PaldiaConfig, so both sides of a tunable diff start on
        // the same node and every divergence is the scheduler's own doing.
        let initial = SchemeKind::Paldia.initial_hw(&workloads, &Catalog::table_ii(), cfg.slo_ms);
        (workloads, cfg, initial)
    }

    /// Run the scenario on `scheduler` with every trace event streamed into
    /// `sink`. The scheduler is the caller's, so its state (the y-search
    /// plan cache) can be read after the run. Tracing is observation-only:
    /// the result is bit-identical to the same run without the sink.
    pub fn record(&self, scheduler: &mut PaldiaScheduler, sink: &mut dyn TraceSink) -> RunResult {
        let (workloads, cfg, initial) = self.setup();
        run(RunSpec {
            // `as _` narrows the sink's trait-object lifetime to the spec's.
            sink: Some(sink as _),
            ..RunSpec::lone(&workloads, scheduler, initial, Catalog::table_ii(), &cfg)
        })
        .into_lone()
    }

    /// The scenario's sampled arrivals as a replay trace (the
    /// `# paldia-replay v1` file of `paldia-serve --capture`), so the
    /// serving shell and the DES execute the identical request sequence.
    /// Replay carries no fault plan: `faults` is not recorded.
    pub fn replay_trace(&self) -> RecordedTrace {
        let (workloads, _, initial) = self.setup();
        RecordedTrace::record(&workloads, self.seed, initial)
    }
}

/// Run both scenarios over their traces and diff their decision streams.
/// Returns the report plus each side's metrics (for "first metric delta"
/// cross-checks).
pub fn diff_runs(a: &PrimaryScenario, b: &PrimaryScenario) -> (DiffReport, RunResult, RunResult) {
    let capture = |s: &PrimaryScenario| {
        let mut sink = VecSink::new();
        let result = s.record(&mut s.scheduler(), &mut sink);
        (sink.into_events(), result)
    };
    let ((ea, ra), (eb, rb)) = (capture(a), capture(b));
    (diff_decision_streams(&ea, &eb), ra, rb)
}

/// A tunable's field in a [`PaldiaConfig`]: the `f64` or `u32` it names.
enum Field<'a> {
    F64(&'a mut f64),
    U32(&'a mut u32),
}

/// Where a tunable lives in a [`PaldiaConfig`].
type FieldOf = fn(&mut PaldiaConfig) -> Field<'_>;

/// The scheduler tunables `repro --diff-flip KEY=VALUE` can flip, each
/// dotted key named once with the field it reads and writes. Order
/// matters: it is the usage listing order and the [`tunable_deltas`] order.
const TUNABLES: [(&str, FieldOf); 8] = [
    ("ramp_headroom", |c| Field::F64(&mut c.ramp_headroom)),
    ("distress_boost", |c| Field::F64(&mut c.distress_boost)),
    ("oracle_horizon_s", |c| Field::F64(&mut c.oracle_horizon_s)),
    ("selection.slo_safety_ms", |c| {
        Field::F64(&mut c.selection.slo_safety_ms)
    }),
    ("selection.performance_margin_ms", |c| {
        Field::F64(&mut c.selection.performance_margin_ms)
    }),
    ("selection.wait_limit", |c| {
        Field::U32(&mut c.selection.wait_limit)
    }),
    ("selection.wait_limit_down", |c| {
        Field::U32(&mut c.selection.wait_limit_down)
    }),
    ("selection.downgrade_budget_frac", |c| {
        Field::F64(&mut c.selection.downgrade_budget_frac)
    }),
];

/// The tunable keys, comma-separated, for usage messages.
pub fn tunable_keys() -> String {
    TUNABLES.map(|(key, _)| key).join(", ")
}

/// Set one named tunable on a [`PaldiaConfig`]. Keys are the dotted paths
/// of [`tunable_keys`]; values parse as `f64` (or `u32` for the wait
/// limits).
pub fn apply_tunable(cfg: &mut PaldiaConfig, key: &str, value: &str) -> Result<(), String> {
    let Some((_, field)) = TUNABLES.iter().find(|(k, _)| *k == key) else {
        return Err(format!(
            "unknown tunable {key:?}; known: {}",
            tunable_keys()
        ));
    };
    let bad = |what: &str| format!("tunable {key}: expected {what}, got {value:?}");
    match field(cfg) {
        Field::F64(v) => *v = value.parse().map_err(|_| bad("a number"))?,
        Field::U32(v) => *v = value.parse().map_err(|_| bad("a non-negative integer"))?,
    }
    Ok(())
}

/// The named knobs on which two configurations differ, rendered for
/// [`paldia_obs::render_diff`]'s "responsible tunable deltas" section.
pub fn tunable_deltas(a: &PaldiaConfig, b: &PaldiaConfig) -> Vec<TunableDelta> {
    let render = |field: Field| match field {
        Field::F64(v) => v.to_string(),
        Field::U32(v) => v.to_string(),
    };
    let (mut a, mut b) = (*a, *b);
    TUNABLES
        .iter()
        .map(|(name, field)| (name, render(field(&mut a)), render(field(&mut b))))
        .filter(|(_, va, vb)| va != vb)
        .map(|(name, a, b)| TunableDelta {
            name: name.to_string(),
            a,
            b,
        })
        .collect()
}

/// One committed golden decision log: a named scenario whose decision
/// stream the current build must reproduce bit for bit.
pub struct Golden {
    /// Row name, printed by `repro --diff-golden` and `--bless-golden`.
    pub name: &'static str,
    /// File name of the committed log under `tests/golden/`.
    pub file: &'static str,
    /// Run the scenario with `sink` attached.
    record: fn(&mut dyn TraceSink),
}

/// The golden registry. `repro --diff-golden`, `repro --bless-golden`
/// (`scripts/rebless.sh`) and `tests/decision_diff.rs` walk every row, so
/// a new golden is one row plus its blessed file.
pub const GOLDENS: &[Golden] = &[
    // The primary setting: GoogleNet over the truncated Azure trace,
    // default tunables, serial engine.
    Golden {
        name: "quick",
        file: "decision_log_quick.jsonl",
        record: |sink| {
            let scenario = PrimaryScenario::golden();
            scenario.record(&mut scenario.scheduler(), sink);
        },
    },
    // The iteration-level LLM storm scenario.
    Golden {
        name: "llm",
        file: "decision_log_llm.jsonl",
        record: |sink| {
            llm_iter::run_llm_into(&LlmRunOpts::golden(), Some(sink));
        },
    },
    // Three Paldia tenants over one unit per Table II kind, with one
    // node-crash window.
    Golden {
        name: "fleet",
        file: "decision_log_fleet.jsonl",
        record: |sink| {
            let cfg = fleet_golden_config();
            let spec = RunSpec::fleet(fleet_golden_deployments(), Catalog::table_ii(), 1, &cfg);
            run(RunSpec {
                sink: Some(sink as _), // as in `PrimaryScenario::record`
                ..spec
            });
        },
    },
];

impl Golden {
    /// Path of the committed log, anchored to the workspace root (works
    /// from any test or binary cwd).
    pub fn path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden")
            .join(self.file)
    }

    /// Run the scenario and keep only its decision events (the full span
    /// stream would be megabytes; decisions are a few hundred lines and
    /// are all the differ aligns on).
    fn decisions(&self) -> Vec<TraceEvent> {
        let mut sink = VecSink::new();
        (self.record)(&mut sink);
        sink.into_events()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
            .collect()
    }

    /// Regenerate the committed log (`repro --bless-golden`,
    /// `scripts/rebless.sh`). Returns the number of decisions written.
    pub fn bless(&self) -> Result<usize, String> {
        write_decisions(&self.path(), &self.decisions())
    }

    /// The regression gate: re-run the scenario in-process and diff it
    /// against the committed log. `Ok(report)` may still be non-empty —
    /// the caller decides the exit code; `Err` means the log is missing or
    /// unreadable (run `scripts/rebless.sh`).
    pub fn gate(&self) -> Result<DiffReport, String> {
        gate_against(&self.path(), self.name, &self.decisions())
    }
}

/// Write a decision log as JSONL, one event per line (the committed
/// golden format). Returns the number of decisions written.
fn write_decisions(path: &Path, decisions: &[TraceEvent]) -> Result<usize, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut out = String::new();
    for event in decisions {
        append_jsonl(&mut out, event);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(decisions.len())
}

/// Diff a freshly captured decision stream against a committed golden
/// log (`name` labels the read error).
fn gate_against(path: &Path, name: &str, current: &[TraceEvent]) -> Result<DiffReport, String> {
    let committed = read_jsonl_file(path).map_err(|e| {
        format!(
            "reading {name} golden decision log {}: {e}\n(regenerate with scripts/rebless.sh)",
            path.display()
        )
    })?;
    Ok(diff_decision_streams(&committed, current))
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
        let scenario = PrimaryScenario::golden();
        let mut sched = scenario.scheduler();
        let _ = scenario.record(&mut sched, &mut VecSink::new());
        let cache = sched.plan_cache();
        assert_eq!((cache.hits(), cache.misses()), (598, 655));
    }

    /// The two uses of the scenario are one scenario: the replay trace
    /// lists exactly the `(request id, at, model)` of the arrivals the
    /// traced run records, in order, and both start on the same node.
    /// The traced run's capture is ordered and complete.
    #[test]
    fn replay_trace_lists_the_traced_runs_arrivals() {
        for seed in [42, 1_000] {
            let scenario = PrimaryScenario::quick(seed);
            let mut sink = VecSink::new();
            let result = scenario.record(&mut scenario.scheduler(), &mut sink);
            let events = sink.into_events();
            // The capture is ordered by (sim time, sequence number) and
            // covers the span taxonomy end to end.
            assert!(events
                .windows(2)
                .all(|w| (w[0].at, w[0].seq) < (w[1].at, w[1].seq)));
            let has = |f: fn(&TraceEventKind) -> bool| events.iter().any(|e| f(&e.kind));
            assert!(has(|k| matches!(k, TraceEventKind::BatchFormed { .. })));
            assert!(has(|k| matches!(k, TraceEventKind::BatchCompleted { .. })));
            assert!(has(|k| matches!(k, TraceEventKind::Decision(_))));
            assert!(has(|k| matches!(k, TraceEventKind::RunSummary { .. })));
            let traced: Vec<(u64, SimTime, MlModel)> = events
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::RequestArrived { request, model } => {
                        Some((request, e.at, model))
                    }
                    _ => None,
                })
                .collect();
            let trace = scenario.replay_trace();
            let replayed: Vec<(u64, SimTime, MlModel)> = trace
                .arrivals
                .iter()
                .map(|sa| (sa.id.0, sa.at, sa.model))
                .collect();
            assert!(!replayed.is_empty(), "seed {seed}: the trace has arrivals");
            assert_eq!(replayed, traced, "seed {seed}");
            assert_eq!(trace.initial_hw, result.hw_timeline[0].1, "seed {seed}");
        }
    }

    /// Each row's setter and reader name the same field: applying a key
    /// makes that key, and only it, the delta against the default.
    #[test]
    fn every_tunable_key_is_applicable() {
        let default = PaldiaConfig::default();
        for (key, _) in TUNABLES {
            let mut flipped = default;
            apply_tunable(&mut flipped, key, "2").expect("listed key applies");
            let deltas = tunable_deltas(&default, &flipped);
            let names: Vec<&str> = deltas.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, vec![key], "applying {key} moved {names:?}");
        }
    }
}
