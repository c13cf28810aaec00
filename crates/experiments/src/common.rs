//! Shared experiment machinery: scheme construction, warm-start hardware,
//! repetition handling, and the paper-vs-measured report format.

use paldia_baselines::{
    InflessLlama, Molecule, MpsOnly, OfflineHybrid, RateLimited, TimeSharedOnly, Variant,
};
use paldia_cluster::{
    run, FailoverPolicyKind, FaultPlan, ModelObs, Observation, RunResult, RunSpec, Scheduler,
    SimConfig, WorkloadSpec,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::{Catalog, InstanceKind};
use paldia_metrics::average_with_outlier_rejection;
use paldia_sim::SimTime;
use paldia_traces::RateTrace;
use paldia_workloads::MlModel;

/// Which scheme to instantiate.
#[derive(Clone, Debug, PartialEq)]
pub enum SchemeKind {
    /// Paldia (this paper).
    Paldia,
    /// Oracle: clairvoyant Paldia (§VI-B).
    Oracle,
    /// INFless/Llama ($) or (P).
    InflessLlama(Variant),
    /// Molecule (beta) ($) or (P).
    Molecule(Variant),
    /// The §III rate-limited alternative the paper rejects.
    RateLimited,
    /// Fig. 1: time sharing pinned to a GPU node.
    TimeSharedOnly(InstanceKind),
    /// Fig. 1: unbounded MPS pinned to a GPU node.
    MpsOnly(InstanceKind),
    /// Fig. 1: fixed-GPU hybrid with swept caps.
    OfflineHybrid(InstanceKind, Vec<(MlModel, u32)>),
}

/// The command-line names of the schemes (`paldia-run --scheme`), one row
/// each; `-p` is the performance (P) variant, `-d` the cost-effective ($).
pub const SCHEME_NAMES: [(&str, SchemeKind); 7] = [
    ("paldia", SchemeKind::Paldia),
    ("oracle", SchemeKind::Oracle),
    ("infless-p", SchemeKind::InflessLlama(Variant::Performance)),
    (
        "infless-d",
        SchemeKind::InflessLlama(Variant::CostEffective),
    ),
    ("molecule-p", SchemeKind::Molecule(Variant::Performance)),
    ("molecule-d", SchemeKind::Molecule(Variant::CostEffective)),
    ("rate-limited", SchemeKind::RateLimited),
];

impl SchemeKind {
    /// The scheme a [`SCHEME_NAMES`] name stands for.
    pub fn from_name(name: &str) -> Option<SchemeKind> {
        SCHEME_NAMES
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, scheme)| scheme)
    }

    /// The five schemes of the primary evaluation, in the paper's legend
    /// order.
    pub fn primary_roster() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Molecule(Variant::Performance),
            SchemeKind::InflessLlama(Variant::Performance),
            SchemeKind::Molecule(Variant::CostEffective),
            SchemeKind::InflessLlama(Variant::CostEffective),
            SchemeKind::Paldia,
        ]
    }

    /// Instantiate the policy. `workloads` is needed by the Oracle (it is
    /// clairvoyant about the trace).
    pub fn build(&self, workloads: &[WorkloadSpec]) -> Box<dyn Scheduler> {
        match self {
            SchemeKind::Paldia => Box::new(PaldiaScheduler::new()),
            SchemeKind::Oracle => Box::new(PaldiaScheduler::oracle(
                workloads
                    .iter()
                    .map(|w| (w.model, w.trace.clone()))
                    .collect(),
            )),
            SchemeKind::InflessLlama(v) => Box::new(InflessLlama::new(*v)),
            SchemeKind::Molecule(v) => Box::new(Molecule::new(*v)),
            SchemeKind::RateLimited => Box::new(RateLimited::new()),
            SchemeKind::TimeSharedOnly(k) => Box::new(TimeSharedOnly::new(*k)),
            SchemeKind::MpsOnly(k) => Box::new(MpsOnly::new(*k)),
            SchemeKind::OfflineHybrid(k, caps) => Box::new(OfflineHybrid::new(*k, caps.clone())),
        }
    }

    /// Warm-start hardware: the node the deployment is already serving on
    /// when the trace begins (every scheme in the paper starts warm).
    pub fn initial_hw(
        &self,
        workloads: &[WorkloadSpec],
        catalog: &Catalog,
        slo_ms: f64,
    ) -> InstanceKind {
        match self {
            SchemeKind::InflessLlama(Variant::Performance)
            | SchemeKind::Molecule(Variant::Performance) => catalog
                .most_performant()
                .unwrap_or(InstanceKind::P3_2xlarge),
            SchemeKind::TimeSharedOnly(k)
            | SchemeKind::MpsOnly(k)
            | SchemeKind::OfflineHybrid(k, _) => *k,
            _ => {
                // Cost-aware schemes: cheapest capable for the trace's
                // opening rate.
                let obs = Observation {
                    now: SimTime::ZERO,
                    slo_ms,
                    current_hw: catalog
                        .most_performant()
                        .unwrap_or(InstanceKind::P3_2xlarge),
                    transitioning: false,
                    pending_hw: None,
                    available: catalog.clone(),
                    models: workloads
                        .iter()
                        .map(|w| ModelObs {
                            model: w.model,
                            pending_requests: 0,
                            executing_batches: 0,
                            observed_rps: w.trace.rate_at(SimTime::ZERO),
                            predicted_rps: w.trace.rate_at(SimTime::ZERO),
                            kv_demand_tokens: 0,
                        })
                        .collect(),
                };
                paldia_baselines::cheapest_capable(&obs)
            }
        }
    }
}

/// The process-default shard count of partitioned fleet runs
/// (`repro --stress`): `PALDIA_SHARDS` when set to a positive integer,
/// else 1. Resolved here — not in the simulation crates — so the engine
/// itself stays free of environment reads. The env read is hatch-exempted
/// like `PALDIA_JOBS` in `core::pool`: it only sets how many event loops a
/// fleet is split across, and results are invariant across shard counts
/// (`tests/determinism_replay.rs` and the shard-invariance proptests prove
/// it), so it cannot affect replay.
pub fn default_shards() -> u32 {
    std::env::var("PALDIA_SHARDS") // lint:allow(d2)
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Global run options for the reproduction harness.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Repetitions per scheme (paper: 5).
    pub reps: u32,
    /// Base RNG seed; repetition `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Optional fault schedule injected into every cell that does not
    /// already carry its own (`cfg.faults` empty) — lets any experiment,
    /// not just Fig. 13, run under faults.
    pub faults: Option<FaultPlan>,
    /// Failover policy used with `faults`.
    pub failover: FailoverPolicyKind,
}

impl RunOpts {
    /// Paper-faithful: 5 repetitions.
    pub fn full() -> Self {
        RunOpts {
            reps: 5,
            seed_base: 1_000,
            faults: None,
            failover: FailoverPolicyKind::default(),
        }
    }

    /// Quick: 1 repetition (tests, smoke runs).
    pub fn quick() -> Self {
        RunOpts {
            reps: 1,
            seed_base: 1_000,
            faults: None,
            failover: FailoverPolicyKind::default(),
        }
    }

    /// Same options with a fault schedule attached.
    pub fn with_faults(mut self, plan: FaultPlan, failover: FailoverPolicyKind) -> Self {
        self.faults = Some(plan);
        self.failover = failover;
        self
    }
}

/// Run one scheme for one repetition.
pub fn run_once(
    scheme: &SchemeKind,
    workloads: &[WorkloadSpec],
    catalog: &Catalog,
    cfg: &SimConfig,
) -> RunResult {
    let mut policy = scheme.build(workloads);
    let initial = scheme.initial_hw(workloads, catalog, cfg.slo_ms);
    let spec = RunSpec::lone(workloads, &mut *policy, initial, catalog.clone(), cfg);
    run(spec).into_lone()
}

/// Outlier-rejected average of a per-run metric.
pub fn avg_metric(runs: &[RunResult], f: impl Fn(&RunResult) -> f64) -> f64 {
    let vals: Vec<f64> = runs.iter().map(f).collect();
    average_with_outlier_rejection(&vals)
}

/// One paper-vs-measured line in an experiment report.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is being checked.
    pub what: String,
    /// The paper's reported value/shape.
    pub paper: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the qualitative shape held.
    pub holds: bool,
}

/// The output of one experiment module.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment id ("fig3", "table3", …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered results table.
    pub table: String,
    /// Shape checks against the paper.
    pub checks: Vec<Check>,
}

impl ExperimentReport {
    /// Render the report (table + checks) for the repro binary.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n{}\n", self.id, self.title, self.table);
        if !self.checks.is_empty() {
            out.push_str("shape checks vs paper:\n");
            for c in &self.checks {
                out.push_str(&format!(
                    "  [{}] {}: paper {} | measured {}\n",
                    if c.holds { "ok" } else { "DIVERGES" },
                    c.what,
                    c.paper,
                    c.measured
                ));
            }
        }
        out
    }
}

/// Scale the normalized trace to a model's paper peak rate.
pub fn scale_for_model(trace: &RateTrace, model: MlModel) -> RateTrace {
    trace.scale_to_peak(paldia_workloads::Profile::peak_rps(model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_sim::SimDuration;

    fn tiny_workload(model: MlModel, rps: f64) -> Vec<WorkloadSpec> {
        vec![WorkloadSpec::new(
            model,
            RateTrace::constant(rps, SimDuration::from_secs(10), SimDuration::from_secs(1)),
        )]
    }

    #[test]
    fn roster_matches_paper_legend() {
        let names: Vec<String> = SchemeKind::primary_roster()
            .iter()
            .map(|s| s.build(&[]).name().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "Molecule (beta) (P)",
                "INFless/Llama (P)",
                "Molecule (beta) ($)",
                "INFless/Llama ($)",
                "Paldia"
            ]
        );
    }

    /// Every command-line scheme name builds the scheme whose legend name
    /// `repro` prints.
    #[test]
    fn scheme_names_map_to_legend_names() {
        let legends: [&str; SCHEME_NAMES.len()] = [
            "Paldia",
            "Oracle",
            "INFless/Llama (P)",
            "INFless/Llama ($)",
            "Molecule (beta) (P)",
            "Molecule (beta) ($)",
            "Rate Limited",
        ];
        for ((name, _), legend) in SCHEME_NAMES.iter().zip(legends) {
            let scheme = SchemeKind::from_name(name).expect("listed name resolves");
            assert_eq!(scheme.build(&[]).name(), legend, "{name}");
        }
        assert_eq!(SchemeKind::from_name("Paldia"), None);
    }

    #[test]
    fn p_schemes_start_on_v100() {
        let w = tiny_workload(MlModel::ResNet50, 10.0);
        let c = Catalog::table_ii();
        let hw = SchemeKind::InflessLlama(Variant::Performance).initial_hw(&w, &c, 200.0);
        assert_eq!(hw, InstanceKind::P3_2xlarge);
    }

    #[test]
    fn cost_schemes_start_cheap_at_low_rate() {
        let w = tiny_workload(MlModel::MobileNet, 5.0);
        let c = Catalog::table_ii();
        let hw = SchemeKind::Paldia.initial_hw(&w, &c, 200.0);
        assert!(!hw.is_gpu(), "MobileNet at 5 rps starts on a CPU: {hw}");
    }

    #[test]
    fn run_once_produces_result() {
        let w = tiny_workload(MlModel::ResNet50, 50.0);
        let c = Catalog::table_ii();
        let cfg = SimConfig::with_seed(1);
        let r = run_once(&SchemeKind::Paldia, &w, &c, &cfg);
        assert!(r.completed.len() as u64 + r.unserved > 300);
        assert_eq!(r.scheme, "Paldia");
    }

    #[test]
    fn reps_use_distinct_seeds() {
        let w = tiny_workload(MlModel::ResNet50, 50.0);
        let c = Catalog::table_ii();
        let cfg = SimConfig::default();
        let opts = RunOpts {
            reps: 2,
            seed_base: 7,
            ..RunOpts::quick()
        };
        let cell = crate::runner::GridCell::new(SchemeKind::Paldia, w, cfg);
        let rs = crate::runner::run_grid(vec![cell], &c, &opts)
            .pop()
            .expect("one cell in, one cell out");
        assert_eq!(rs.len(), 2);
        // Different seeds → different arrival samples.
        assert_ne!(rs[0].completed.len(), rs[1].completed.len());
    }

    #[test]
    fn report_render_includes_checks() {
        let r = ExperimentReport {
            id: "figX",
            title: "test".into(),
            table: "t\n".into(),
            checks: vec![Check {
                what: "w".into(),
                paper: "p".into(),
                measured: "m".into(),
                holds: true,
            }],
        };
        assert!(r.render().contains("[ok] w"));
    }
}
