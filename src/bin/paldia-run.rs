//! `paldia-run`: drive one scheme against one workload from the command
//! line and read the outcome — the quickest way to poke at the system
//! without writing code.
//!
//! ```text
//! paldia-run --model resnet50 --trace azure --scheme paldia --seed 7
//! paldia-run --model bert --trace poisson:6 --secs 300 --scheme molecule-d
//! paldia-run --list
//! ```
//!
//! Schemes resolve through `SchemeKind`'s name table (`SCHEME_NAMES`) and
//! start on the same warm-start node `repro` gives them: the (P) variants
//! on the most performant node (the V100), the others on the cheapest
//! node capable of the trace's opening rate.

use paldia::cluster::{model_from_token, RunResult, RunSpec, SimConfig, WorkloadSpec};
use paldia::experiments::cli::{Cli, Flag};
use paldia::experiments::common::SCHEME_NAMES;
use paldia::experiments::{scenarios, SchemeKind};
use paldia::hw::Catalog;
use paldia::metrics::{LatencyStats, TailBreakdown, TimeSeries};
use paldia::sim::SimDuration;
use paldia::traces::{poisson::poisson_trace_with, RateTrace};
use paldia::workloads::MlModel;

struct Args {
    model: MlModel,
    trace: String,
    scheme: SchemeKind,
    seed: u64,
    secs: Option<u64>,
    slo_ms: f64,
}

/// The model named `name` in any spelling of its display name: case and
/// punctuation are ignored (`resnet50`, `ResNet-50`, `"ResNet 50"`).
fn parse_model(name: &str) -> Option<MlModel> {
    let token: String = name
        .to_lowercase()
        .chars()
        .filter(|c| c.is_alphanumeric())
        .collect();
    model_from_token(&token)
}

/// The scheme names, space-separated, for usage and `--list`.
fn scheme_names(sep: &str) -> String {
    SCHEME_NAMES.map(|(name, _)| name).join(sep)
}

fn usage() -> ! {
    eprintln!(
        "usage: paldia-run [--model NAME] [--trace azure|wiki|twitter|poisson:RPS] \
         [--scheme {}] [--seed N] [--secs N] [--slo MS] [--list]",
        scheme_names("|")
    );
    std::process::exit(2)
}

/// Every flag `paldia-run` knows, once each, with what its values are.
const FLAGS: &[Flag] = &[
    ("--model", 1, "a model name (see --list)"),
    ("--trace", 1, "azure, wiki, twitter or poisson:RPS"),
    ("--scheme", 1, "a scheme name (see --list)"),
    ("--seed", 1, "a numeric seed"),
    ("--secs", 1, "a trace length in seconds"),
    ("--slo", 1, "an SLO in milliseconds"),
    ("--list", 0, ""),
];

fn parse_args() -> Result<Args, String> {
    let cli = Cli::parse(FLAGS, std::env::args().skip(1))?;
    if let Some(stray) = cli.positional.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    if cli.has("--list") {
        println!("models:");
        for m in MlModel::ALL {
            println!("  {}", m.name());
        }
        println!("schemes: {}", scheme_names(" "));
        println!("traces:  azure wiki twitter poisson:<rps>");
        std::process::exit(0)
    }
    Ok(Args {
        model: cli
            .parsed_with("--model", parse_model)?
            .unwrap_or(MlModel::ResNet50),
        trace: cli.value("--trace").unwrap_or("azure").to_string(),
        scheme: cli
            .parsed_with("--scheme", SchemeKind::from_name)?
            .unwrap_or(SchemeKind::Paldia),
        seed: cli.parsed("--seed")?.unwrap_or(42),
        secs: cli.parsed("--secs")?,
        slo_ms: cli.parsed("--slo")?.unwrap_or(200.0),
    })
}

fn build_trace(args: &Args) -> RateTrace {
    let base = if let Some(rps) = args.trace.strip_prefix("poisson:") {
        let rps: f64 = rps.parse().unwrap_or_else(|_| usage());
        poisson_trace_with(rps, SimDuration::from_secs(args.secs.unwrap_or(600)))
    } else {
        match args.trace.as_str() {
            "azure" => scenarios::azure_workload(args.model, args.seed).trace,
            "wiki" => scenarios::wiki_workload(args.model, args.seed).trace,
            "twitter" => scenarios::twitter_workload(args.model, args.seed).trace,
            _ => usage(),
        }
    };
    match args.secs {
        Some(s) => base.slice(
            paldia::sim::SimTime::ZERO,
            paldia::sim::SimTime::from_secs(s),
        ),
        None => base,
    }
}

fn run(args: &Args, workloads: &[WorkloadSpec], cfg: &SimConfig) -> RunResult {
    let catalog = Catalog::table_ii();
    let mut scheduler = args.scheme.build(workloads);
    let initial = args.scheme.initial_hw(workloads, &catalog, cfg.slo_ms);
    let spec = RunSpec::lone(workloads, scheduler.as_mut(), initial, catalog, cfg);
    paldia::cluster::run(spec).into_lone()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let trace = build_trace(&args);
    let horizon_s = trace.duration().as_secs_f64();
    println!(
        "{} | {} trace | peak {:.0} rps mean {:.1} rps | {:.0}s | SLO {:.0} ms",
        args.model,
        args.trace,
        trace.peak(),
        trace.mean(),
        horizon_s,
        args.slo_ms
    );
    let workloads = vec![WorkloadSpec::new(args.model, trace.clone())];
    let mut cfg = SimConfig::with_seed(args.seed);
    cfg.slo_ms = args.slo_ms;

    let r = run(&args, &workloads, &cfg);
    let stats = LatencyStats::from_completed(&r.completed);

    println!("\nscheme          : {}", r.scheme);
    println!(
        "SLO compliance  : {:.2}%",
        r.slo_compliance(cfg.slo_ms) * 100.0
    );
    println!(
        "requests        : {} served, {} unserved",
        r.completed.len(),
        r.unserved
    );
    println!(
        "latency ms      : p50 {:.0}  p90 {:.0}  p99 {:.0}  max {:.0}",
        stats.p50, stats.p90, stats.p99, stats.max
    );
    if let Some(b) = TailBreakdown::at(&r.completed, 99.0) {
        println!(
            "P99 breakdown   : {:.0} min + {:.0} queue + {:.0} interference",
            b.min_possible_ms, b.queueing_ms, b.interference_ms
        );
    }
    println!(
        "cost            : ${:.4}   power {:.0} W",
        r.total_cost(),
        r.mean_power_w()
    );
    println!(
        "transitions     : {}   cold starts {}",
        r.transitions, r.cold_starts
    );

    let bucket = (horizon_s / 60.0).max(1.0);
    let offered: Vec<f64> = trace.rates().to_vec();
    let offered_ts = TimeSeries::new(trace.bin_width().as_secs_f64(), offered);
    let completions = TimeSeries::completions(&r.completed, bucket, horizon_s);
    let violations = TimeSeries::violations(&r.completed, cfg.slo_ms, bucket, horizon_s);
    println!("\noffered    {}", offered_ts.sparkline(60));
    println!("served     {}", completions.sparkline(60));
    println!("violations {}", violations.sparkline(60));
}
