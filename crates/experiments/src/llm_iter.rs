//! The iteration-level LLM study (`repro --llm`): continuous batching vs
//! the request-level batcher on token workloads, under a cold-start storm.
//!
//! Request-level batching serves an LLM batch run-to-completion: every
//! member occupies the device until the *longest* sequence finishes, so a
//! bimodal length distribution makes short requests pay the long tail's
//! bill. Iteration-level execution ([`paldia_cluster::DeviceMode`]) retires
//! each sequence the iteration its last token decodes and admits waiters at
//! the next boundary, which is exactly the Orca/vLLM-style continuous
//! batching the serving literature measures in *token* latency. This module
//! runs the two modes head-to-head — Paldia under both, plus a
//! continuous-batching-aware fixed baseline (INFless/Llama `$` under the
//! iterative device) — and hosts the LLM golden decision log, the fleet
//! LLM scenario (three tenants on elastic inventory), and the `llm-smoke`
//! CI gate (the fleet scenario at shards 1 vs 3, decision streams diffed
//! both ways).

use std::path::{Path, PathBuf};

use crate::common::{Check, ExperimentReport, RunOpts, SchemeKind};
use crate::scenarios;
use paldia_baselines::Variant;
use paldia_cluster::{
    FailoverPolicyKind, FaultPlan, FleetDeployment, RunResult, RunSpec, SimConfig, WorkloadSpec,
};
use paldia_hw::Catalog;
use paldia_metrics::{percentile, TextTable};
use paldia_obs::{
    diff_decision_streams, DiffReport, TraceEvent, TraceEventKind, TraceSink, VecSink,
};
use paldia_sim::SimTime;
use paldia_workloads::{tokens::TokenCard, MlModel};

/// Models of the LLM scenario: BERT carries the long-document token card,
/// Funnel-Transformer the bimodal one — the two length distributions where
/// run-to-completion batching hurts most.
pub const LLM_MODELS: [MlModel; 2] = [MlModel::Bert, MlModel::FunnelTransformer];

/// Seed of the committed LLM golden decision log (and the smoke gate).
pub const LLM_GOLDEN_SEED: u64 = 42;

/// Trace length (seconds) of the LLM golden/smoke scenario: long enough to
/// cross both storm edges, short enough to keep the CI gate cheap.
pub const LLM_GOLDEN_SECS: u64 = 90;

/// The cold-start storm the LLM scenario runs under: every warm container
/// is purged at one-third and two-thirds of the trace, so both modes
/// re-admit their whole working set through cold starts twice.
pub fn llm_storm_plan(secs: u64) -> FaultPlan {
    FaultPlan::new()
        .cold_start_storm(SimTime::from_secs(secs / 3))
        .cold_start_storm(SimTime::from_secs(2 * secs / 3))
}

/// The LLM workloads: both [`LLM_MODELS`] over the Azure trace truncated
/// to `secs` (scaled to the paper's 8 rps language-model peak).
pub fn llm_workloads(seed: u64, secs: u64) -> Vec<WorkloadSpec> {
    LLM_MODELS
        .iter()
        .map(|&m| scenarios::azure_workload_truncated(m, seed, secs))
        .collect()
}

/// One LLM run: which scheme, which device mode, storm or clean.
#[derive(Clone, Debug)]
pub struct LlmRunOpts {
    /// RNG seed (trace sample, token cards, simulation).
    pub seed: u64,
    /// Trace truncation, seconds.
    pub secs: u64,
    /// The policy under test.
    pub scheme: SchemeKind,
    /// `true` = iteration-level continuous batching, `false` = the
    /// request-level batcher (the paper's shipped model).
    pub iterative: bool,
    /// Apply [`llm_storm_plan`].
    pub storm: bool,
}

impl LlmRunOpts {
    /// The golden/smoke scenario: Paldia, iterative, storm.
    pub fn golden() -> Self {
        LlmRunOpts {
            seed: LLM_GOLDEN_SEED,
            secs: LLM_GOLDEN_SECS,
            scheme: SchemeKind::Paldia,
            iterative: true,
            storm: true,
        }
    }

    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_seed(self.seed);
        if self.storm {
            cfg = cfg.with_faults(llm_storm_plan(self.secs), FailoverPolicyKind::default());
        }
        if self.iterative {
            cfg = cfg.with_iterative_batching();
        }
        cfg
    }
}

/// Run one side, recording into `sink` when one is given.
fn run_llm_into(opts: &LlmRunOpts, sink: Option<&mut dyn TraceSink>) -> RunResult {
    let workloads = llm_workloads(opts.seed, opts.secs);
    let catalog = Catalog::table_ii();
    let cfg = opts.config();
    let mut sched = opts.scheme.build(&workloads);
    let initial = opts.scheme.initial_hw(&workloads, &catalog, cfg.slo_ms);
    let spec = RunSpec::lone(&workloads, &mut *sched, initial, catalog, &cfg);
    // `as _` narrows the sink's trait-object lifetime to the spec's.
    let sink = sink.map(|s| s as _);
    paldia_cluster::run(RunSpec { sink, ..spec }).into_lone()
}

/// Run one side untraced.
pub fn run_llm(opts: &LlmRunOpts) -> RunResult {
    run_llm_into(opts, None)
}

/// Run one side with the observability sink attached (decision events
/// included — the smoke gate and the golden log feed on them).
pub fn capture_llm_run(opts: &LlmRunOpts) -> (Vec<TraceEvent>, RunResult) {
    let mut sink = VecSink::new();
    let result = run_llm_into(opts, Some(&mut sink));
    (sink.into_events(), result)
}

/// The fleet LLM scenario's tenants on `opts`' workloads and config: the
/// run's own scheme first (so tenant 0 serves the single-deployment
/// scenario's arrivals), then the continuous-batching-aware INF($), then a
/// second Paldia deployment. Each later tenant samples its own arrivals.
fn llm_fleet_deployments(opts: &LlmRunOpts) -> Vec<FleetDeployment> {
    let workloads = llm_workloads(opts.seed, opts.secs);
    let catalog = Catalog::table_ii();
    let slo_ms = opts.config().slo_ms;
    [
        opts.scheme.clone(),
        SchemeKind::InflessLlama(Variant::CostEffective),
        SchemeKind::Paldia,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, scheme)| FleetDeployment {
        name: format!("llm-{i}"),
        scheduler: scheme.build(&workloads),
        initial_hw: scheme.initial_hw(&workloads, &catalog, slo_ms),
        workloads: workloads.clone(),
    })
    .collect()
}

/// [`run_llm_fleet`], recording into `sink` when one is given.
fn run_llm_fleet_into(
    opts: &LlmRunOpts,
    shards: u32,
    sink: Option<&mut dyn TraceSink>,
) -> Vec<RunResult> {
    let (deployments, cfg) = (llm_fleet_deployments(opts), opts.config());
    let spec = RunSpec::fleet(deployments, Catalog::table_ii(), u32::MAX, &cfg);
    let (shards, sink) = (Some(shards), sink.map(|s| s as _)); // as in `run_llm_into`
    paldia_cluster::run(RunSpec {
        shards,
        sink,
        ..spec
    })
    .results
}

/// Run the fleet LLM scenario on elastic inventory, partitioned across
/// `shards` event loops (results are invariant across shard counts).
pub fn run_llm_fleet(opts: &LlmRunOpts, shards: u32) -> Vec<RunResult> {
    run_llm_fleet_into(opts, shards, None)
}

/// [`run_llm_fleet`] with the observability sink attached (decision events
/// included, scoped `1 + tenant`).
pub fn capture_llm_fleet(opts: &LlmRunOpts, shards: u32) -> (Vec<TraceEvent>, Vec<RunResult>) {
    let mut sink = VecSink::new();
    let results = run_llm_fleet_into(opts, shards, Some(&mut sink));
    (sink.into_events(), results)
}

/// P99 per-token latency, ms: each request's end-to-end latency divided by
/// its decode-token count, with the count re-derived from the pure
/// `(seed, request id)` token-card hash — identical for both device modes,
/// so the comparison is apples to apples.
pub fn p99_token_latency_ms(result: &RunResult, seed: u64) -> f64 {
    let per_token: Vec<f64> = result
        .completed
        .iter()
        .map(|r| {
            let lens = TokenCard::for_model(r.model).sample(seed, r.id.0);
            r.latency_ms() / lens.decode.max(1) as f64
        })
        .collect();
    percentile(&per_token, 99.0)
}

/// Path of the committed LLM golden decision log, anchored to the
/// workspace root.
pub fn llm_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/decision_log_llm.jsonl")
}

/// Run the LLM golden scenario and keep only its decision events.
pub fn capture_llm_golden_decisions() -> Vec<TraceEvent> {
    let (events, _) = capture_llm_run(&LlmRunOpts::golden());
    events
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
        .collect()
}

/// Regenerate the committed LLM golden decision log
/// (`repro --bless-golden`, `scripts/rebless.sh`). Returns the number of
/// decisions written.
pub fn write_llm_golden(path: &Path) -> Result<usize, String> {
    crate::diffcap::write_decisions(path, &capture_llm_golden_decisions())
}

/// The LLM golden gate: re-run the scenario in-process and diff against
/// the committed log (same contract as [`crate::diffcap::golden_gate`]).
pub fn llm_golden_gate() -> Result<DiffReport, String> {
    crate::diffcap::gate_against(
        &llm_golden_path(),
        "LLM golden",
        &capture_llm_golden_decisions(),
    )
}

/// What `repro --llm-smoke` measures: the quick fleet LLM scenario at
/// shards 1 and 3, decision streams diffed both directions, plus the two
/// modes' headline numbers on the single-deployment scenario for
/// `target/llm-report.json`.
#[derive(Clone, Debug)]
pub struct LlmSmokeReport {
    /// Seed of the smoke scenario.
    pub seed: u64,
    /// Trace seconds.
    pub secs: u64,
    /// Completed requests (single deployment, iterative).
    pub completed: usize,
    /// Unserved requests (single deployment, iterative).
    pub unserved: u64,
    /// Decision events in the iterative capture.
    pub decisions: usize,
    /// P99 token latency, iterative mode, ms.
    pub p99_token_ms_iterative: f64,
    /// P99 token latency, request-level mode, ms.
    pub p99_token_ms_request_level: f64,
    /// True when the fleet scenario at shards 1 and 3 produced identical
    /// results and event streams (the `RunSummary` event count aside) and
    /// both decision diffs came back empty.
    pub shard_invariant: bool,
}

impl LlmSmokeReport {
    /// Hand-rolled JSON (same no-deps discipline as
    /// [`crate::timings::TimingReport::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"seed\": {},\n  \"secs\": {},\n  \"completed\": {},\n  \"unserved\": {},\n  \
             \"decisions\": {},\n  \"p99_token_ms_iterative\": {:.6},\n  \
             \"p99_token_ms_request_level\": {:.6},\n  \"shard_invariant\": {}\n}}\n",
            self.seed,
            self.secs,
            self.completed,
            self.unserved,
            self.decisions,
            self.p99_token_ms_iterative,
            self.p99_token_ms_request_level,
            self.shard_invariant
        )
    }
}

/// Run the `llm-smoke` gate: the quick fleet LLM scenario at shards 1 and
/// 3, results and event streams compared (each shard runs its own
/// keep-alive chain, so the `RunSummary` event count is masked), decision
/// streams diffed in both directions (an asymmetric differ bug would pass
/// one way).
pub fn run_llm_smoke(seed: u64) -> LlmSmokeReport {
    let base = LlmRunOpts {
        seed,
        ..LlmRunOpts::golden()
    };
    let (f1, fr1) = capture_llm_fleet(&base, 1);
    let (f3, fr3) = capture_llm_fleet(&base, 3);
    let forward = diff_decision_streams(&f1, &f3);
    let backward = diff_decision_streams(&f3, &f1);
    let shard_invariant = format!("{fr1:?}") == format!("{fr3:?}")
        && mask_run_summary(f1) == mask_run_summary(f3)
        && forward.is_empty()
        && backward.is_empty();
    let (e1, r1) = capture_llm_run(&base);
    let request_level = run_llm(&LlmRunOpts {
        iterative: false,
        ..base
    });
    let decisions = e1
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
        .count();
    LlmSmokeReport {
        seed,
        secs: LLM_GOLDEN_SECS,
        completed: r1.completed.len(),
        unserved: r1.unserved,
        decisions,
        p99_token_ms_iterative: p99_token_latency_ms(&r1, seed),
        p99_token_ms_request_level: p99_token_latency_ms(&request_level, seed),
        shard_invariant,
    }
}

/// An event stream with every `RunSummary` event count zeroed.
fn mask_run_summary(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    for e in &mut events {
        if let TraceEventKind::RunSummary { events, .. } = &mut e.kind {
            *events = 0;
        }
    }
    events
}

/// The `repro --llm` experiment: the storm scenario under three schemes —
/// Paldia with continuous batching, Paldia with the request-level batcher,
/// and the continuous-batching-aware INFless/Llama `$` baseline — plus the
/// engine-invariance cross-check on the fleet LLM scenario (whose tenant 0
/// is the Paldia run) at shards {1, 2, 3}.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let secs = if opts.reps <= 1 { 180 } else { 600 };
    let seed = opts.seed_base;
    let base = LlmRunOpts {
        seed,
        secs,
        scheme: SchemeKind::Paldia,
        iterative: true,
        storm: true,
    };

    let paldia_iter = run_llm(&base);
    let paldia_rl = run_llm(&LlmRunOpts {
        iterative: false,
        ..base.clone()
    });
    let infless_iter = run_llm(&LlmRunOpts {
        scheme: SchemeKind::InflessLlama(Variant::CostEffective),
        ..base.clone()
    });
    let fleet: Vec<Vec<RunResult>> = [1, 2, 3]
        .into_iter()
        .map(|shards| run_llm_fleet(&base, shards))
        .collect();

    let slo_ms = SimConfig::default().slo_ms;
    let mut table = TextTable::new(&[
        "scheme",
        "device mode",
        "P99 token lat",
        "SLO",
        "completed",
        "cost",
    ]);
    let mut row = |name: &str, mode: &str, r: &RunResult| {
        table.row(&[
            name.to_string(),
            mode.to_string(),
            format!("{:.2} ms", p99_token_latency_ms(r, seed)),
            format!("{:.2}%", r.slo_compliance(slo_ms) * 100.0),
            format!("{}", r.completed.len()),
            format!("${:.3}", r.total_cost()),
        ]);
    };
    row("Paldia", "iteration-level", &paldia_iter);
    row("Paldia", "request-level", &paldia_rl);
    row("INF($)", "iteration-level", &infless_iter);

    let p99_iter = p99_token_latency_ms(&paldia_iter, seed);
    let p99_rl = p99_token_latency_ms(&paldia_rl, seed);
    let fingerprints: Vec<String> = fleet.iter().map(|rs| format!("{rs:?}")).collect();
    let invariant = fingerprints.iter().all(|f| *f == fingerprints[0]);

    let checks = vec![
        Check {
            what: "continuous batching beats request-level P99 token latency under the storm"
                .into(),
            paper: "iteration-level serving cuts token tail latency (Orca/vLLM shape)".into(),
            measured: format!("{p99_iter:.2} ms vs {p99_rl:.2} ms"),
            holds: p99_iter < p99_rl,
        },
        Check {
            what: "LLM mode is engine-invariant across shards {1,2,3}".into(),
            paper: "bit-identical by construction (DESIGN.md determinism contract)".into(),
            measured: format!(
                "completed {} / {} / {}",
                fleet[0][0].completed.len(),
                fleet[1][0].completed.len(),
                fleet[2][0].completed.len()
            ),
            holds: invariant,
        },
        Check {
            what: "continuous batching loses no goodput vs request-level".into(),
            paper: "per-token retirement frees capacity, it never strands it".into(),
            measured: format!(
                "{} vs {} completed",
                paldia_iter.completed.len(),
                paldia_rl.completed.len()
            ),
            holds: paldia_iter.completed.len() >= paldia_rl.completed.len(),
        },
    ];

    ExperimentReport {
        id: "llm",
        title: "Iteration-level continuous batching on LLM token workloads".into(),
        table: table.render(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_plan_has_two_edges_inside_the_trace() {
        let plan = llm_storm_plan(90);
        let w = plan.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].start, SimTime::from_secs(30));
        assert_eq!(w[1].start, SimTime::from_secs(60));
    }

    #[test]
    fn smoke_report_json_is_well_formed() {
        let r = LlmSmokeReport {
            seed: 1,
            secs: 90,
            completed: 10,
            unserved: 0,
            decisions: 5,
            p99_token_ms_iterative: 1.5,
            p99_token_ms_request_level: 3.0,
            shard_invariant: true,
        };
        let json = r.to_json();
        assert!(json.contains("\"shard_invariant\": true"));
        assert!(json.contains("\"p99_token_ms_iterative\": 1.500000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
