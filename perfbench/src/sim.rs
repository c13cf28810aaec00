//! The two plain simulation workloads.
//!
//! * `paper-twitter` — Paldia, one tenant, DPN-92 on the synthetic Twitter
//!   trace (the Fig. 12b setting), serial engine. The paper's densest
//!   trace: most host time goes to `core` (Eq. 1 / y-search) and to the
//!   serial heap, which is pre-seeded with every arrival.
//! * `fleet-stress` — the `--stress` fleet shape with fewer tenants on the
//!   sharded engine at 2 shards. Y-search runs inline in the shard
//!   workers and each tenant has one model, so `core` does little: the
//!   contrast workload for `core` and worker-pool changes.

use std::time::Instant;

use paldia_cluster::{
    run_fleet_sharded_stats, run_simulation, run_simulation_traced, sample_arrivals,
    FleetDeployment, Scheduler, SimConfig, WorkloadSpec,
};
use paldia_core::{ysearch, PaldiaScheduler};
use paldia_experiments::common::SchemeKind;
use paldia_experiments::scenarios::twitter_workload;
use paldia_experiments::stress::StressSpec;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{CountingSink, TraceSink};
use paldia_workloads::MlModel;

use crate::outputs::SimOut;
use crate::probe::{self, ProcStat, Span, Spans, TimedScheduler, TimedSink, KINDS};
use crate::report::{quantile, Metrics};
use crate::{median_metrics, repeat, time_s, Ctx, Outcome, Rep, Timed};

/// Shard count of `fleet-stress`, passed explicitly (`PALDIA_SHARDS` is
/// not read).
pub const FLEET_SHARDS: u32 = 2;

/// `fleet-stress` size: tenants cycling the four vision models at the
/// stress spec's 56 rps for 180 s each.
const FLEET_TENANTS: usize = 96;

/// Traced repetitions a traced run makes at least.
const MIN_TRACED_REPS: usize = 2;

/// The outcome of an untraced simulation run: the end-to-end metrics,
/// the run record, and the checks shared by the simulation workloads
/// (conservation, and every repetition bit-identical to the warm-up).
pub fn sim_outcome<T>(t: &Timed<T>, out: impl Fn(&T) -> &SimOut) -> Outcome {
    let mut o = Outcome::default();
    t.timing_metrics(&mut o.metrics);
    t.record(&mut o);
    let warm = out(&t.warm.out);
    o.metrics.set("slo_pct", warm.slo_pct());
    o.metrics.set("cost_usd", warm.cost_usd);
    o.metrics.set("p99_ms", warm.p99_ms);
    o.check("completed + unserved = arrived", warm.conserves());
    o.check(
        "every repetition reproduces the warm-up result bit for bit",
        t.reps
            .iter()
            .all(|r| out(&r.out).fingerprint == warm.fingerprint),
    );
    o.attempted += warm.arrived * t.reps.len() as u64;
    o.failed += warm.unserved * t.reps.len() as u64;
    o
}

/// `cluster.*` metrics: the simulated accounting of one run.
pub fn cluster_metrics(m: &mut Metrics, out: &SimOut) {
    m.set("cluster.arrived", out.arrived as f64);
    m.set("cluster.completed", out.completed as f64);
    m.set("cluster.unserved", out.unserved as f64);
    m.set("cluster.cold_starts", out.cold_starts as f64);
    m.set("cluster.transitions", out.transitions as f64);
    m.set("cluster.mean_batch", out.mean_batch);
    m.set("cluster.node_leases", out.node_leases as f64);
    m.set("cluster.gpu_util", out.gpu_util_pct);
    m.set("cluster.queue_p99_ms", out.queue_p99_ms);
    m.set("cluster.interference_p99_ms", out.interference_p99_ms);
}

/// `core.decide.*`, `core.plan_cache.*` and `cluster.self_s` for the run
/// span `run`: decide spans are its children; `sink_s` is the time the
/// engine spent inside the trace sink.
pub fn core_metrics(m: &mut Metrics, spans: &[Span], run: usize, sink_s: f64) {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == Some(run) && s.name == "core.decide")
        .map(|s| s.secs() * 1e6)
        .collect();
    let decide_s = us.iter().sum::<f64>() * 1e-6;
    let run_s = spans[run].secs();
    m.set("core.decide.calls", us.len() as f64);
    m.set("core.decide.self_s", decide_s);
    m.set("core.decide.p50_us", quantile(&us, 0.5));
    m.set("core.decide.p99_us", quantile(&us, 0.99));
    m.set("core.decide.share", 100.0 * decide_s / run_s);
    m.set("cluster.self_s", run_s - decide_s - sink_s);
    let (hits, misses) = ysearch::cache_counters();
    m.set("core.plan_cache.hits", hits as f64);
    m.set("core.plan_cache.misses", misses as f64);
    if hits + misses > 0 {
        m.set(
            "core.plan_cache.hit_ratio",
            100.0 * hits as f64 / (hits + misses) as f64,
        );
    }
}

/// `sim.events` and `sim.ns_per_event` for a run of `run_s` seconds.
pub fn sim_event_metrics(m: &mut Metrics, events: u64, run_s: f64) {
    m.set("sim.events", events as f64);
    if events > 0 {
        m.set("sim.ns_per_event", run_s * 1e9 / events as f64);
    }
}

/// `obs.events`, per-kind counts and `obs.sink.self_s` of a timed sink.
pub fn sink_metrics(m: &mut Metrics, sink: &TimedSink<'_>) {
    m.set("obs.events", sink.events as f64);
    for (name, n) in KINDS.iter().zip(sink.by_kind) {
        m.set(name, n as f64);
    }
    m.set("obs.sink.self_s", sink.busy_ns as f64 * 1e-9);
}

/// `proc.*`: counter growth of this process over a phase.
pub fn proc_metrics(m: &mut Metrics, d: &ProcStat) {
    m.set("proc.user_s", d.user_s);
    m.set("proc.sys_s", d.sys_s);
    m.set("proc.vol_ctxsw", d.vol_ctxsw);
    m.set("proc.invol_ctxsw", d.invol_ctxsw);
    m.set("proc.minflt", d.minflt);
}

// ---------------------------------------------------------------- twitter

struct TwitterInput {
    workloads: Vec<WorkloadSpec>,
    initial: InstanceKind,
    catalog: Catalog,
    cfg: SimConfig,
    sched: PaldiaScheduler,
}

/// Seed of the Twitter rate trace: the one Fig. 12b runs (`repro`'s
/// default seed base). The benchmark's seed drives the arrival sample, so
/// every seed replays the paper's trace shape; with the shape itself
/// seeded, the P99 swung from 68 to 243 ms across ten seeds.
const FIG12_TRACE_SEED: u64 = 1_000;

/// Program-side set-up of `paper-twitter`: trace synthesis, then the
/// scheduler and warm-start hardware. `spans` times the trace synthesis.
fn twitter_setup(seed: u64, spans: Option<(&Spans, usize)>) -> TwitterInput {
    let build = || vec![twitter_workload(MlModel::Dpn92, FIG12_TRACE_SEED)];
    let workloads = match spans {
        Some((s, parent)) => s.time("traces.build", Some(parent), build),
        None => build(),
    };
    let catalog = Catalog::table_ii();
    let cfg = SimConfig::with_seed(seed);
    let initial = SchemeKind::Paldia.initial_hw(&workloads, &catalog, cfg.slo_ms);
    TwitterInput {
        workloads,
        initial,
        catalog,
        cfg,
        sched: PaldiaScheduler::new(),
    }
}

/// Seconds of one `paper-twitter` set-up, the sampling of every arrival
/// (`sample_arrivals`, which `run_simulation` calls before the first
/// event) included.
pub fn twitter_setup_s(seed: u64) -> f64 {
    time_s(|| {
        let inp = twitter_setup(seed, None);
        let arrivals = sample_arrivals(&inp.workloads, inp.cfg.seed);
        (inp, arrivals)
    })
}

/// One `paper-twitter` pass: set-up, then the run (the timed phase).
/// Untraced it is `run_simulation`; `traced` makes it
/// `run_simulation_traced` into a `CountingSink`. With `at` (the
/// repetition's span), trace synthesis and the run are spans under `rep`,
/// every `decide()` is timed, the sink is wrapped in a `TimedSink`, and
/// the `core`, `sim`, `cluster.self_s` and `obs` sink metrics go into `m`.
fn twitter_pass(
    seed: u64,
    traced: bool,
    at: Option<(&Spans, usize)>,
    m: &mut Metrics,
) -> Result<Rep<SimOut>, String> {
    let inp = twitter_setup(seed, at);
    probe::reset_peak_rss();
    let (mut plain, mut inner) = (CountingSink::new(), CountingSink::new());
    let mut timed = TimedSink::new(&mut inner);
    let sink: &mut dyn TraceSink = if at.is_some() { &mut timed } else { &mut plain };
    let run = at.map(|(s, rep)| s.open("cluster.run", Some(rep)));
    let mut sched: Box<dyn Scheduler> = match (at, run) {
        (Some((s, _)), Some(run)) => Box::new(TimedScheduler::new(
            Box::new(inp.sched),
            s.clone(),
            Some(run),
        )),
        _ => Box::new(inp.sched),
    };
    let t = Instant::now();
    let (w, hw, cat, cfg) = (&inp.workloads, inp.initial, inp.catalog, &inp.cfg);
    let r = if traced {
        run_simulation_traced(w, &mut *sched, hw, cat, cfg, sink)
    } else {
        run_simulation(w, &mut *sched, hw, cat, cfg)
    };
    let wall_s = t.elapsed().as_secs_f64();
    if let (Some((s, _)), Some(run)) = (at, run) {
        s.close(run);
        drop(sched);
        let spans = s.snapshot();
        core_metrics(m, &spans, run, timed.busy_ns as f64 * 1e-9);
        sink_metrics(m, &timed);
        sim_event_metrics(m, timed.engine_events.unwrap_or(0), spans[run].secs());
    }
    Ok(Rep {
        wall_s,
        peak_mb: probe::peak_rss_mb()?,
        out: SimOut::from_results(&[r]),
    })
}

pub fn twitter_e2e(ctx: &Ctx) -> Result<Outcome, String> {
    let mut scratch = Metrics::default();
    let t = repeat(ctx, || twitter_pass(ctx.seed, false, None, &mut scratch))?;
    let mut o = sim_outcome(&t, |s| s);
    let traced = twitter_pass(ctx.seed, true, None, &mut scratch)?;
    o.check(
        "traced RunResult equals the untraced one",
        traced.out.fingerprint == t.warm.out.fingerprint,
    );
    o.record.push(("shards", "1".into()));
    Ok(o)
}

pub fn twitter_layers(ctx: &Ctx) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let mut o = Outcome::default();
    let mut runs = Vec::new();
    let mut scratch = Metrics::default();
    let base_fp = twitter_pass(ctx.seed, false, None, &mut scratch)?
        .out
        .fingerprint; // warm-up
    while runs.len() < MIN_TRACED_REPS || Instant::now() < ctx.deadline {
        let mut m = Metrics::default();
        // Untraced, no probes: the reference for both overheads and the
        // process counters.
        let p0 = ProcStat::read("self")?;
        let base = twitter_pass(ctx.seed, false, None, &mut scratch)?;
        proc_metrics(&mut m, &ProcStat::read("self")?.since(&p0));
        cluster_metrics(&mut m, &base.out);
        // The program's own tracing cost: traced into a CountingSink.
        let counted = twitter_pass(ctx.seed, true, None, &mut scratch)?;
        m.set(
            "obs.trace_overhead_pct",
            100.0 * (counted.wall_s - base.wall_s) / base.wall_s,
        );
        // Traced again, every call into core and obs timed.
        let rep = spans.open("rep", None);
        ysearch::reset_cache_counters();
        let probed = twitter_pass(ctx.seed, true, Some((spans, rep)), &mut m)?;
        spans.close(rep);
        let s = spans.snapshot();
        m.set("traces.build_s", probe::child_secs(&s, rep, "traces.build"));
        m.set("bench.unattributed_s", probe::self_secs(&s, rep));
        m.set(
            "bench.probe_overhead_pct",
            100.0 * (probed.wall_s - counted.wall_s) / counted.wall_s,
        );
        runs.push(m);
        let same = [&base.out, &counted.out, &probed.out]
            .iter()
            .all(|r| r.fingerprint == base_fp);
        o.check("traced and probed results equal the untraced one", same);
        o.attempted += base.out.arrived;
        o.failed += base.out.unserved;
        o.check("completed + unserved = arrived", base.out.conserves());
    }
    o.metrics = median_metrics(&runs);
    o.record.push(("shards", "1".into()));
    o.record.push(("reps", runs.len().to_string()));
    Ok(o)
}

// ------------------------------------------------------------------ fleet

fn fleet_spec(seed: u64) -> StressSpec {
    StressSpec {
        tenants: FLEET_TENANTS,
        rps: 56.0,
        secs: 180,
        seed,
    }
}

/// Program-side set-up of `fleet-stress`: the deployments (their traces
/// and schedulers), the config and the catalog.
fn fleet_setup(seed: u64) -> (Vec<FleetDeployment>, SimConfig, Catalog) {
    (
        fleet_spec(seed).deployments(),
        SimConfig::with_seed(seed),
        Catalog::table_ii(),
    )
}

/// Seconds of one `fleet-stress` set-up, the sampling of every tenant's
/// arrivals (which the fleet engine does before the first event) included.
pub fn fleet_setup_s(seed: u64) -> f64 {
    time_s(|| {
        let (deployments, cfg, catalog) = fleet_setup(seed);
        let arrivals: Vec<_> = deployments
            .iter()
            .map(|d| sample_arrivals(&d.workloads, cfg.seed))
            .collect();
        (deployments, cfg, catalog, arrivals)
    })
}

/// One fleet run: set-up, then the sharded run. With `at`, set-up and run
/// are spans under that repetition span and every tenant's scheduler is
/// timed.
fn fleet_rep(seed: u64, at: Option<(&Spans, usize)>) -> Result<(Rep<SimOut>, u64), String> {
    let (mut deployments, cfg, catalog) = match at {
        Some((s, rep)) => s.time("traces.build", Some(rep), || fleet_setup(seed)),
        None => fleet_setup(seed),
    };
    probe::reset_peak_rss();
    let t = Instant::now();
    let run = at.map(|(s, rep)| (s, s.open("cluster.run", Some(rep))));
    if let Some((s, run)) = run {
        for d in &mut deployments {
            let inner = std::mem::replace(&mut d.scheduler, Box::new(PaldiaScheduler::new()));
            d.scheduler = Box::new(TimedScheduler::new(inner, s.clone(), Some(run)));
        }
    }
    let (results, events) =
        run_fleet_sharded_stats(deployments, catalog, u32::MAX, &cfg, FLEET_SHARDS);
    if let Some((s, run)) = run {
        s.close(run);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let rep = Rep {
        wall_s,
        peak_mb: probe::peak_rss_mb()?,
        out: SimOut::from_results(&results),
    };
    Ok((rep, events))
}

pub fn fleet_e2e(ctx: &Ctx) -> Result<Outcome, String> {
    let t = repeat(ctx, || Ok(fleet_rep(ctx.seed, None)?.0))?;
    let mut o = sim_outcome(&t, |s| s);
    o.record.push(("shards", FLEET_SHARDS.to_string()));
    o.record.push(("tenants", FLEET_TENANTS.to_string()));
    Ok(o)
}

pub fn fleet_layers(ctx: &Ctx) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let mut o = Outcome::default();
    let mut runs = Vec::new();
    let base_fp = fleet_rep(ctx.seed, None)?.0.out.fingerprint; // warm-up
    while runs.len() < MIN_TRACED_REPS || Instant::now() < ctx.deadline {
        let mut m = Metrics::default();
        let p0 = ProcStat::read("self")?;
        let (base, _) = fleet_rep(ctx.seed, None)?;
        proc_metrics(&mut m, &ProcStat::read("self")?.since(&p0));
        cluster_metrics(&mut m, &base.out);

        let rep = spans.open("rep", None);
        ysearch::reset_cache_counters();
        let (probed, events) = fleet_rep(ctx.seed, Some((spans, rep)))?;
        spans.close(rep);
        let s = spans.snapshot();
        let run = s
            .iter()
            .rposition(|x| x.name == "cluster.run" && x.parent == Some(rep))
            .expect("the probed run opened its span");
        core_metrics(&mut m, &s, run, 0.0);
        m.set("traces.build_s", probe::child_secs(&s, rep, "traces.build"));
        sim_event_metrics(&mut m, events, s[run].secs());
        m.set("bench.unattributed_s", probe::self_secs(&s, rep));
        m.set(
            "bench.probe_overhead_pct",
            100.0 * (probed.wall_s - base.wall_s) / base.wall_s,
        );
        runs.push(m);
        o.check(
            "probed result equals the untraced one",
            base.out.fingerprint == base_fp && probed.out.fingerprint == base_fp,
        );
        o.check("completed + unserved = arrived", base.out.conserves());
        o.attempted += base.out.arrived;
        o.failed += base.out.unserved;
    }
    o.metrics = median_metrics(&runs);
    o.record.push(("shards", FLEET_SHARDS.to_string()));
    o.record.push(("tenants", FLEET_TENANTS.to_string()));
    o.record.push(("reps", runs.len().to_string()));
    Ok(o)
}
