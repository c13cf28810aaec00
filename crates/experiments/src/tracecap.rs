//! Observability capture for the repro binary: the primary evaluation
//! setting (Paldia over the Azure trace, §V) run once with the
//! `paldia-obs` sink attached.
//!
//! `repro --trace out.json` and `repro --explain ID` both route through
//! [`capture_primary_run`]; tests use it as a small fixed scenario whose
//! chrome-trace export shape is validated. The capture is
//! observation-only: the returned [`RunResult`] is bit-identical to the
//! same run without the sink.

use crate::common::SchemeKind;
use crate::scenarios;
use paldia_cluster::{run_simulation_traced, FailoverPolicyKind, FaultPlan, RunResult, SimConfig};
use paldia_hw::Catalog;
use paldia_obs::{RingSink, TraceEvent, TraceSink};
use paldia_workloads::MlModel;

/// Ring capacity for captured runs. A full-day Azure run of the primary
/// setting emits a few events per request; 4 M slots hold the whole run
/// without eviction while bounding memory to a few hundred MB worst case.
pub const CAPTURE_CAPACITY: usize = 4_000_000;

/// Trace-length (seconds) of the quick capture — matches the truncated
/// Azure slice the quick repro figures use.
pub const QUICK_CAPTURE_SECS: u64 = 120;

/// Run the primary evaluation setting (GoogleNet under the scaled Azure
/// trace, Paldia scheduling, Table II catalog) with tracing attached.
/// `quick` truncates the trace to [`QUICK_CAPTURE_SECS`]. Returns the
/// captured events (ordered by sim time + sequence number) and the run's
/// metrics.
pub fn capture_primary_run(quick: bool, seed: u64) -> (Vec<TraceEvent>, RunResult) {
    let mut sink = RingSink::new(CAPTURE_CAPACITY);
    let result = capture_primary_run_with(quick, seed, None, &mut sink);
    if let Some(warning) = dropped_warning(sink.dropped()) {
        eprintln!("warning: {warning}");
    }
    (sink.into_events(), result)
}

/// Human-readable warning when a bounded capture evicted events, or `None`
/// when the ring held the whole run. A silently truncated log poisons
/// every downstream consumer — attribution under-counts, and a decision
/// diff against it reports bogus structural desync — so both the repro
/// binary and [`capture_primary_run`] surface this on stderr and in the
/// capture summary.
pub fn dropped_warning(dropped: u64) -> Option<String> {
    if dropped == 0 {
        return None;
    }
    Some(format!(
        "trace capture dropped {dropped} event(s) (ring capacity {CAPTURE_CAPACITY}); \
         the log is truncated and diffs/attribution over it are unreliable"
    ))
}

/// [`capture_primary_run`] with the capture destination and fault schedule
/// under caller control: events stream into `sink` (a bounded ring, a
/// JSONL file via [`paldia_obs::JsonlSink`], …) and `faults` optionally
/// injects a deterministic fault plan with the failover policy to apply —
/// this is what `repro --trace-file` / `--triage` run under the hood.
pub fn capture_primary_run_with(
    quick: bool,
    seed: u64,
    faults: Option<(FaultPlan, FailoverPolicyKind)>,
    sink: &mut dyn TraceSink,
) -> RunResult {
    let workloads = if quick {
        vec![scenarios::azure_workload_truncated(
            MlModel::GoogleNet,
            seed,
            QUICK_CAPTURE_SECS,
        )]
    } else {
        vec![scenarios::azure_workload(MlModel::GoogleNet, seed)]
    };
    let catalog = Catalog::table_ii();
    let mut cfg = SimConfig::with_seed(seed);
    if let Some((plan, policy)) = faults {
        cfg = cfg.with_faults(plan, policy);
    }
    let scheme = SchemeKind::Paldia;
    let mut policy = scheme.build(&workloads);
    let initial = scheme.initial_hw(&workloads, &catalog, cfg.slo_ms);
    run_simulation_traced(&workloads, policy.as_mut(), initial, catalog, &cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_obs::TraceEventKind;

    #[test]
    fn dropped_warning_only_fires_on_truncation() {
        assert!(dropped_warning(0).is_none());
        let w = dropped_warning(17).expect("non-zero drops warn");
        assert!(w.contains("dropped 17 event(s)"));
        assert!(w.contains("truncated"));
    }

    #[test]
    fn quick_capture_is_ordered_and_complete() {
        let (events, result) = capture_primary_run(true, 1_000);
        assert!(!result.completed.is_empty());
        assert!(!events.is_empty());
        // Events arrive ordered by (sim time, sequence number).
        assert!(events
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) < (w[1].at, w[1].seq)));
        // The stream covers the span taxonomy end to end.
        let has = |f: &dyn Fn(&TraceEventKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, TraceEventKind::RequestArrived { .. })));
        assert!(has(&|k| matches!(k, TraceEventKind::BatchFormed { .. })));
        assert!(has(&|k| matches!(k, TraceEventKind::BatchCompleted { .. })));
        assert!(has(&|k| matches!(k, TraceEventKind::Decision(_))));
        assert!(has(&|k| matches!(k, TraceEventKind::RunSummary { .. })));
    }
}
