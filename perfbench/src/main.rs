//! `perfbench` — the end-to-end and per-layer benchmark of the Paldia
//! reproduction. Run it through `perfbench/run.py`, which builds this
//! binary and `paldia-serve` from source and passes the run record's
//! build facts; see `perfbench/README.md` for the metrics and workloads.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out DIR] [--commit ID] [--rustc VERSION]
//!           [--setup-burst]
//! ```
//!
//! `--trace 0` measures the six end-to-end metrics with no probes
//! attached; `--trace 1` runs the same workload again with the
//! benchmark's wrappers attached and prints the per-layer metrics. The
//! last line of standard output is the result object; the line before it
//! is the run record. Exit status 1 if any output check failed.
//! `--setup-burst` only times one burst of the workload's set-up and
//! prints its seconds; an untraced run starts itself that way for every
//! set-up burst.

mod llm;
mod outputs;
mod probe;
mod report;
mod serve;
mod sim;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use probe::{host_steal_s, Spans};
use report::{json_str, median, Metrics, END_TO_END, PER_LAYER};

/// The workloads, in the order `run.py --all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "paper-twitter",
    "fleet-stress",
    "llm-triage",
    "serve-replay",
];

/// Timed repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// End of the measuring window.
    pub deadline: Instant,
    /// Spans recorded by the traced run.
    pub spans: Spans,
    pub serve_bin: Option<PathBuf>,
    /// Worker-pool width pinned for this process (and the server's).
    pub jobs: usize,
}

/// One timed repetition: host seconds of the timed phase, the peak
/// resident set of the program's process during it, and what it produced.
pub struct Rep<T> {
    pub wall_s: f64,
    pub peak_mb: f64,
    pub out: T,
}

/// What a workload hands back to be printed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: (what, held).
    pub checks: Vec<(String, bool)>,
    /// Extra run-record fields: (key, JSON value).
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record an output check; a check made once per repetition is kept
    /// once, failed if any repetition failed it.
    pub fn check(&mut self, what: impl Into<String>, held: bool) {
        let what = what.into();
        if !held {
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.failed += 1;
        }
        match self.checks.iter_mut().find(|(w, _)| *w == what) {
            Some(c) => c.1 &= held,
            None => self.checks.push((what, held)),
        }
    }
}

/// What an untraced run measured.
pub struct Timed<T> {
    /// The untimed warm-up repetition: the reference for the output checks
    /// and the fresh-process peak resident set.
    pub warm: Rep<T>,
    pub reps: Vec<Rep<T>>,
    /// Host steal seconds across each timed repetition.
    pub steal_s: Vec<f64>,
    /// Median set-up seconds of each set-up burst.
    pub setup_s: Vec<f64>,
    /// Host steal seconds across each set-up burst.
    pub setup_steal_s: Vec<f64>,
}

/// A set-up burst takes at least [`SETUP_BURST_MIN`] samples, then more
/// until [`SETUP_BURST_S`] has passed.
const SETUP_BURST_MIN: usize = 2;
const SETUP_BURST_S: f64 = 0.03;

/// Set-up bursts, each in its own process, after every timed repetition.
const SETUP_BURSTS_PER_REP: usize = 3;

/// Timed set-up seconds one set-up sample gathers at least.
const SETUP_SAMPLE_S: f64 = 0.002;

/// Seconds of one program-side set-up of the run's workload; what it
/// builds is dropped outside the stopwatch.
fn setup_once(ctx: &Ctx) -> Result<f64, String> {
    match ctx.workload.as_str() {
        "paper-twitter" => Ok(sim::twitter_setup_s(ctx.seed)),
        "fleet-stress" => Ok(sim::fleet_setup_s(ctx.seed)),
        "llm-triage" => Ok(llm::setup_s(ctx.seed)),
        "serve-replay" => serve::setup_s(ctx),
        w => Err(format!("no set-up for `{w}`")),
    }
}

/// A set-up burst: the median of its samples. Each sample is the mean of
/// set-ups run back to back until [`SETUP_SAMPLE_S`] of them has been
/// timed.
fn setup_burst(ctx: &Ctx) -> Result<f64, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_BURST_MIN || start.elapsed().as_secs_f64() < SETUP_BURST_S {
        let (mut timed, mut n) = (0.0, 0u32);
        while timed < SETUP_SAMPLE_S {
            timed += setup_once(ctx)?;
            n += 1;
        }
        samples.push(timed / f64::from(n));
    }
    Ok(median(&samples))
}

/// A set-up burst in a fresh process (this binary with `--setup-burst`).
/// The program sets up once, at the start of a process, and in a process
/// that has run repetitions a set-up's time depends on the heap they left
/// behind. So each burst runs in its own process, as the program's set-up
/// does.
fn setup_burst_in_child(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding perfbench: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &ctx.workload, "--seed", &ctx.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--setup-burst"]);
    if let Some(bin) = &ctx.serve_bin {
        cmd.arg("--serve-bin").arg(bin);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running a set-up burst: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up burst failed ({}): {text:?}", out.status)),
    }
}

/// Run one warm-up repetition, then timed repetitions until the deadline
/// (at least [`MIN_REPS`]), each followed by [`SETUP_BURSTS_PER_REP`]
/// set-up bursts, each in a fresh process. One set-up takes from about
/// 0.1 ms to 40 ms; a burst's samples are means of back-to-back set-ups,
/// and the bursts are spread over the whole run.
pub fn repeat<T>(
    ctx: &Ctx,
    mut one: impl FnMut() -> Result<Rep<T>, String>,
) -> Result<Timed<T>, String> {
    let warm = one()?;
    let mut t = Timed {
        warm,
        reps: Vec::new(),
        steal_s: Vec::new(),
        setup_s: Vec::new(),
        setup_steal_s: Vec::new(),
    };
    while t.reps.len() < MIN_REPS || Instant::now() < ctx.deadline {
        let s0 = host_steal_s();
        t.reps.push(one()?);
        t.steal_s.push(host_steal_s() - s0);
        for _ in 0..SETUP_BURSTS_PER_REP {
            let s2 = host_steal_s();
            t.setup_s.push(setup_burst_in_child(ctx)?);
            t.setup_steal_s.push(host_steal_s() - s2);
        }
    }
    Ok(t)
}

/// The half of `values` with the least `steal`.
fn least_stolen(values: &[f64], steal: &[f64]) -> Vec<f64> {
    let mut by_steal: Vec<usize> = (0..values.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    by_steal[..values.len().div_ceil(2)]
        .iter()
        .map(|&i| values[i])
        .collect()
}

impl<T> Timed<T> {
    /// `wall_s`, `setup_s` and `peak_rss_mb`.
    ///
    /// `wall_s` is each repetition's host time less the host steal across
    /// it (the time the hypervisor held a vCPU away), and the median of
    /// that over the half of the repetitions with the least steal. Time
    /// stolen from either vCPU lengthens a repetition by about as much: at
    /// pool width 2 a stolen vCPU stalls the other at every y-search join.
    /// `setup_s` is the mean over the half of the set-up bursts with the
    /// least steal: a mean, because burst values cluster around levels
    /// that shift with the host every few seconds, and a median flips
    /// between levels with their mix.
    ///
    /// `peak_rss_mb` is the warm-up's: the first repetition in a fresh
    /// process repeats within 0.5% from run to run, while later ones start
    /// from whatever heap earlier repetitions left behind and wander by
    /// 20%.
    pub fn timing_metrics(&self, m: &mut Metrics) {
        let walls: Vec<f64> = self
            .reps
            .iter()
            .zip(&self.steal_s)
            .map(|(r, steal)| r.wall_s - steal)
            .collect();
        m.set("wall_s", median(&least_stolen(&walls, &self.steal_s)));
        let setup = least_stolen(&self.setup_s, &self.setup_steal_s);
        m.set("setup_s", setup.iter().sum::<f64>() / setup.len() as f64);
        m.set("peak_rss_mb", self.warm.peak_mb);
    }

    /// Run-record fields: per-repetition wall and steal seconds, and per
    /// set-up burst its median and steal seconds.
    pub fn record(&self, o: &mut Outcome) {
        let list = |v: Vec<f64>| {
            let s: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", s.join(", "))
        };
        o.record.push(("rep_steal_s", list(self.steal_s.clone())));
        o.record.push(("reps", self.reps.len().to_string()));
        o.record.push((
            "rep_wall_s",
            list(self.reps.iter().map(|r| r.wall_s).collect()),
        ));
        o.record.push(("burst_setup_s", list(self.setup_s.clone())));
        o.record
            .push(("burst_steal_s", list(self.setup_steal_s.clone())));
        o.record.push((
            "rep_peak_mb",
            list(self.reps.iter().map(|r| r.peak_mb).collect()),
        ));
    }
}

/// Time `f` in seconds, keeping its result alive past the stopwatch.
pub fn time_s<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(out));
    secs
}

/// Per-metric median over repetitions of a traced run.
pub fn median_metrics(runs: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (name, _) in PER_LAYER {
        let v: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
        if !v.is_empty() {
            out.set(name, median(&v));
        }
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    out: Option<PathBuf>,
    commit: String,
    rustc: String,
    /// Only time a set-up burst and print its median seconds.
    setup_burst: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |name: &str| value(name).ok_or_else(|| format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        need(name)?
            .parse()
            .map_err(|_| format!("bad value for {name}"))
    };
    let workload = need("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad value for --trace: `{t}` (0 or 1)")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
        serve_bin: value("--serve-bin").map(PathBuf::from),
        out: value("--out").map(PathBuf::from),
        commit: value("--commit").unwrap_or_else(|| "unknown".into()),
        rustc: value("--rustc").unwrap_or_else(|| "unknown".into()),
        setup_burst: argv.iter().any(|a| a == "--setup-burst"),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Width 2 is the program's default on a 2-core host; PALDIA_JOBS is
    // ignored so every run uses the same width.
    let jobs = nproc.min(2);
    paldia_sim::pool::set_jobs(jobs);
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        deadline: started + std::time::Duration::from_secs(args.seconds),
        spans: Spans::default(),
        serve_bin: args.serve_bin.clone(),
        jobs,
    };
    if args.setup_burst {
        return match setup_burst(&ctx) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    let steal0 = host_steal_s();
    let run = match (args.workload.as_str(), args.trace) {
        ("paper-twitter", false) => sim::twitter_e2e(&ctx),
        ("paper-twitter", true) => sim::twitter_layers(&ctx),
        ("fleet-stress", false) => sim::fleet_e2e(&ctx),
        ("fleet-stress", true) => sim::fleet_layers(&ctx),
        ("llm-triage", false) => llm::e2e(&ctx),
        ("llm-triage", true) => llm::layers(&ctx),
        ("serve-replay", false) => serve::e2e(&ctx),
        ("serve-replay", true) => serve::layers(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let steal_total = host_steal_s() - steal0;
    if args.trace {
        out.metrics.set("host.steal_s", steal_total);
        out.metrics
            .set("bench.run_s", started.elapsed().as_secs_f64());
    }
    let correct = out.checks.iter().all(|(_, ok)| *ok);
    let table: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };

    let env = |k: &str| std::env::var(k).map_or("null".into(), |v| json_str(&v));
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(w, ok)| format!("{{\"check\": {}, \"held\": {ok}}}", json_str(w)))
        .collect();
    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \
         \"rustc\": {}, \"nproc\": {nproc}, \"pool_width\": {jobs}, \
         \"ignored_env\": {{\"PALDIA_JOBS\": {}, \"PALDIA_SHARDS\": {}}}, \
         \"host_steal_s\": {steal_total}, \"checks\": [{}]",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.commit),
        json_str(&args.rustc),
        env("PALDIA_JOBS"),
        env("PALDIA_SHARDS"),
        checks.join(", "),
    );
    for (k, v) in &out.record {
        record.push_str(&format!(", \"{k}\": {v}"));
    }
    record.push('}');

    if let Some(dir) = &args.out {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join(format!("{stem}.record.json")), &record))
            .and_then(|_| {
                if args.trace {
                    ctx.spans
                        .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")), &args.workload)
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "{} seed {} ({}):\n{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.metrics.render(table)
    );
    println!("{{\"run_record\": {record}}}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json(table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
