//! `llm-triage`: BERT plus Funnel-Transformer under the cold-start storm
//! with iteration-level batching, at a fixed Poisson rate, captured and
//! then taken through the whole `obs` tool chain:
//!
//! 1. capture the run into memory (`run_simulation_traced`);
//! 2. encode the capture (`event_to_jsonl`) — the write side;
//! 3. parse it back (`events_from_jsonl`) — the read side;
//! 4. attribute it (`TraceAttribution::from_events`, `kv_occupancy`);
//! 5. triage it (`TriageReport::build`);
//! 6. diff the parsed stream against the capture (`diff_decision_streams`).
//!
//! The only workload where `obs` does most of the work, and the only one
//! on the iterative device / KV path and storm failover. At the rate below
//! the capture grows by about 45 events and 7 KB of JSONL per request,
//! about 170k events and 28 MB in all. Heavier load made host time and
//! P99 swing by 2x across seeds: the storms then decide the tail.

use std::time::Instant;

use paldia_cluster::{
    run_simulation_traced, sample_arrivals, FailoverPolicyKind, SimConfig, WorkloadSpec,
};
use paldia_core::{ysearch, PaldiaScheduler};
use paldia_experiments::common::SchemeKind;
use paldia_experiments::llm_iter::{llm_storm_plan, LLM_MODELS};
use paldia_experiments::scenarios::poisson_workload;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{
    diff_decision_streams, event_to_jsonl, events_from_jsonl, kv_occupancy, TraceAttribution,
    TraceEvent, TriageReport, VecSink,
};

use crate::outputs::{SimOut, SLO_MS};
use crate::probe::{self, ProcStat, Spans, TimedScheduler, TimedSink};
use crate::report::Metrics;
use crate::sim::{
    cluster_metrics, core_metrics, proc_metrics, sim_event_metrics, sim_outcome, sink_metrics,
};
use crate::{median_metrics, repeat, time_s, Ctx, Outcome, Rep};

/// Poisson arrival rate per model, requests/s.
const RATE_RPS: f64 = 2.0;
/// Trace length, simulated seconds (storms at 1/3 and 2/3 of it).
const SECS: u64 = 900;

struct Input {
    workloads: Vec<WorkloadSpec>,
    initial: InstanceKind,
    catalog: Catalog,
    cfg: SimConfig,
    sched: PaldiaScheduler,
}

fn setup(seed: u64, spans: Option<(&Spans, usize)>) -> Input {
    let build = || -> Vec<WorkloadSpec> {
        LLM_MODELS
            .iter()
            .map(|&m| poisson_workload(m, RATE_RPS, SECS))
            .collect()
    };
    let workloads = match spans {
        Some((s, rep)) => s.time("traces.build", Some(rep), build),
        None => build(),
    };
    let catalog = Catalog::table_ii();
    let cfg = SimConfig::with_seed(seed)
        .with_faults(llm_storm_plan(SECS), FailoverPolicyKind::default())
        .with_iterative_batching();
    let initial = SchemeKind::Paldia.initial_hw(&workloads, &catalog, cfg.slo_ms);
    Input {
        workloads,
        initial,
        catalog,
        cfg,
        sched: PaldiaScheduler::new(),
    }
}

/// Seconds of one `llm-triage` set-up, the sampling of every arrival
/// (`sample_arrivals`, which `run_simulation_traced` calls before the
/// first event) included.
pub fn setup_s(seed: u64) -> f64 {
    time_s(|| {
        let inp = setup(seed, None);
        let arrivals = sample_arrivals(&inp.workloads, inp.cfg.seed);
        (inp, arrivals)
    })
}

/// What one pass of the pipeline produced, for the output checks.
struct Pass {
    out: SimOut,
    /// The parsed stream equals the capture.
    round_trip: bool,
    /// Divergent slots of the parsed-vs-capture decision diff.
    divergent: usize,
    aligned: usize,
    jsonl_bytes: usize,
    triaged: usize,
}

/// Time `f` as a child span of `rep` when probing.
fn step<T>(probe: Option<(&Spans, usize)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some((s, rep)) => s.time(name, Some(rep), f),
        None => f(),
    }
}

/// One pass: set-up, then the six pipeline steps (the timed phase). With
/// `at` (the repetition's span), each step is a span under `rep`, the capture's scheduler and
/// sink are timed, and the sink's counters are filled into `m`.
fn pass(seed: u64, at: Option<(&Spans, usize)>, m: &mut Metrics) -> Result<Rep<Pass>, String> {
    let mut inp = setup(seed, at);
    probe::reset_peak_rss();
    let t1 = Instant::now();

    let mut capture_sink = VecSink::new();
    let result = match at {
        Some((s, rep)) => {
            let run = s.open("cluster.run", Some(rep));
            let mut timed = TimedSink::new(&mut capture_sink);
            let mut sched = TimedScheduler::new(Box::new(inp.sched), s.clone(), Some(run));
            let r = run_simulation_traced(
                &inp.workloads,
                &mut sched,
                inp.initial,
                inp.catalog,
                &inp.cfg,
                &mut timed,
            );
            s.close(run);
            drop(sched);
            let spans = s.snapshot();
            core_metrics(m, &spans, run, timed.busy_ns as f64 * 1e-9);
            sink_metrics(m, &timed);
            sim_event_metrics(m, timed.engine_events.unwrap_or(0), spans[run].secs());
            r
        }
        None => run_simulation_traced(
            &inp.workloads,
            &mut inp.sched,
            inp.initial,
            inp.catalog,
            &inp.cfg,
            &mut capture_sink,
        ),
    };
    let captured: Vec<TraceEvent> = capture_sink.into_events();

    let text = step(at, "obs.jsonl.encode", || {
        let mut text = String::new();
        for ev in &captured {
            text.push_str(&event_to_jsonl(ev));
            text.push('\n');
        }
        text
    });
    let parsed = step(at, "obs.jsonl.decode", || events_from_jsonl(&text));
    let parsed = parsed.unwrap_or_else(|e| {
        eprintln!("perfbench: parsing the capture back: {e}");
        Vec::new()
    });
    let attribution = step(at, "obs.attrib", || TraceAttribution::from_events(&parsed));
    let kv = step(at, "obs.kv_occupancy", || kv_occupancy(&parsed));
    let triage = step(at, "obs.triage", || {
        TriageReport::build(&attribution, SLO_MS)
    });
    let diff = step(at, "obs.diff", || diff_decision_streams(&parsed, &captured));
    let wall_s = t1.elapsed().as_secs_f64();
    let peak_mb = probe::peak_rss_mb()?;

    std::hint::black_box(&kv);
    Ok(Rep {
        wall_s,
        peak_mb,
        out: Pass {
            out: SimOut::from_results(&[result]),
            round_trip: parsed == captured,
            divergent: diff.total_divergent,
            aligned: diff.aligned,
            jsonl_bytes: text.len(),
            triaged: triage.total,
        },
    })
}

/// Output checks of one pass.
fn check_pass(o: &mut Outcome, p: &Pass) {
    o.check("parsed stream equals the capture", p.round_trip);
    o.check(
        "self-diff of the decision stream is empty",
        p.divergent == 0,
    );
    o.check(
        "triage attributes every completed request",
        p.triaged as u64 == p.out.completed,
    );
}

pub fn e2e(ctx: &Ctx) -> Result<Outcome, String> {
    let mut scratch = Metrics::default();
    let t = repeat(ctx, || pass(ctx.seed, None, &mut scratch))?;
    let mut o = sim_outcome(&t, |p| &p.out);
    for p in std::iter::once(&t.warm).chain(&t.reps) {
        check_pass(&mut o, &p.out);
    }
    o.record.push(("shards", "1".into()));
    Ok(o)
}

pub fn layers(ctx: &Ctx) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let mut o = Outcome::default();
    let mut runs = Vec::new();
    let mut scratch = Metrics::default();
    pass(ctx.seed, None, &mut scratch)?; // warm-up
    while runs.len() < 2 || Instant::now() < ctx.deadline {
        let mut m = Metrics::default();
        let p0 = ProcStat::read("self")?;
        let base = pass(ctx.seed, None, &mut scratch)?;
        proc_metrics(&mut m, &ProcStat::read("self")?.since(&p0));
        cluster_metrics(&mut m, &base.out.out);

        let rep = spans.open("rep", None);
        ysearch::reset_cache_counters();
        let probed = pass(ctx.seed, Some((spans, rep)), &mut m)?;
        spans.close(rep);
        let s = spans.snapshot();
        for (metric, span) in [
            ("obs.jsonl.encode_s", "obs.jsonl.encode"),
            ("obs.jsonl.decode_s", "obs.jsonl.decode"),
            ("obs.attrib_s", "obs.attrib"),
            ("obs.kv_occupancy_s", "obs.kv_occupancy"),
            ("obs.triage_s", "obs.triage"),
            ("obs.diff_s", "obs.diff"),
            ("traces.build_s", "traces.build"),
        ] {
            m.set(metric, probe::child_secs(&s, rep, span));
        }
        m.set("obs.jsonl.bytes", probed.out.jsonl_bytes as f64);
        m.set("obs.diff.aligned", probed.out.aligned as f64);
        m.set("bench.unattributed_s", probe::self_secs(&s, rep));
        m.set(
            "bench.probe_overhead_pct",
            100.0 * (probed.wall_s - base.wall_s) / base.wall_s,
        );
        runs.push(m);
        check_pass(&mut o, &base.out);
        check_pass(&mut o, &probed.out);
        o.check(
            "probed result equals the untraced one",
            probed.out.out.fingerprint == base.out.out.fingerprint,
        );
        o.check("completed + unserved = arrived", base.out.out.conserves());
        o.attempted += base.out.out.arrived;
        o.failed += base.out.out.unserved;
    }
    o.metrics = median_metrics(&runs);
    o.record.push(("shards", "1".into()));
    o.record.push(("reps", runs.len().to_string()));
    Ok(o)
}
