//! `paldia-run`: drive one scheme against one workload from the command
//! line and read the outcome — the quickest way to poke at the system
//! without writing code.
//!
//! ```text
//! paldia-run --model resnet50 --trace azure --scheme paldia --seed 7
//! paldia-run --model bert --trace poisson:6 --secs 300 --scheme molecule-d
//! paldia-run --list
//! ```

use paldia::baselines::{InflessLlama, Molecule, RateLimited, Variant};
use paldia::cluster::{RunResult, RunSpec, Scheduler, SimConfig, WorkloadSpec};
use paldia::core::PaldiaScheduler;
use paldia::experiments::{scenarios, SchemeKind};
use paldia::hw::Catalog;
use paldia::metrics::{LatencyStats, TailBreakdown, TimeSeries};
use paldia::sim::SimDuration;
use paldia::traces::{poisson::poisson_trace_with, RateTrace};
use paldia::workloads::MlModel;

struct Args {
    model: MlModel,
    trace: String,
    scheme: String,
    seed: u64,
    secs: Option<u64>,
    slo_ms: f64,
}

fn parse_model(name: &str) -> Option<MlModel> {
    let needle: String = name
        .to_lowercase()
        .chars()
        .filter(|c| c.is_alphanumeric())
        .collect();
    MlModel::ALL.into_iter().find(|m| {
        let hay: String = m
            .name()
            .to_lowercase()
            .chars()
            .filter(|c| c.is_alphanumeric())
            .collect();
        hay == needle
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: paldia-run [--model NAME] [--trace azure|wiki|twitter|poisson:RPS] \
         [--scheme paldia|oracle|infless-p|infless-d|molecule-p|molecule-d|rate-limited] \
         [--seed N] [--secs N] [--slo MS] [--list]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        model: MlModel::ResNet50,
        trace: "azure".into(),
        scheme: "paldia".into(),
        seed: 42,
        secs: None,
        slo_ms: 200.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--model" => {
                let name = next(&mut i);
                args.model = parse_model(&name).unwrap_or_else(|| {
                    eprintln!("unknown model {name:?}; try --list");
                    std::process::exit(2)
                });
            }
            "--trace" => args.trace = next(&mut i),
            "--scheme" => args.scheme = next(&mut i),
            "--seed" => args.seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--secs" => args.secs = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--slo" => args.slo_ms = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--list" => {
                println!("models:");
                for m in MlModel::ALL {
                    println!("  {}", m.name());
                }
                println!(
                    "schemes: paldia oracle infless-p infless-d molecule-p molecule-d rate-limited"
                );
                println!("traces:  azure wiki twitter poisson:<rps>");
                std::process::exit(0)
            }
            _ => usage(),
        }
        i += 1;
    }
    args
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
    let mut scheduler: Box<dyn Scheduler> = match args.scheme.as_str() {
        "paldia" => Box::new(PaldiaScheduler::new()),
        "oracle" => Box::new(PaldiaScheduler::oracle(
            workloads
                .iter()
                .map(|w| (w.model, w.trace.clone()))
                .collect(),
        )),
        "infless-p" => Box::new(InflessLlama::new(Variant::Performance)),
        "infless-d" => Box::new(InflessLlama::new(Variant::CostEffective)),
        "molecule-p" => Box::new(Molecule::new(Variant::Performance)),
        "molecule-d" => Box::new(Molecule::new(Variant::CostEffective)),
        "rate-limited" => Box::new(RateLimited::new()),
        _ => usage(),
    };
    let initial = SchemeKind::Paldia.initial_hw(workloads, &catalog, cfg.slo_ms);
    let spec = RunSpec::lone(workloads, scheduler.as_mut(), initial, catalog, cfg);
    paldia::cluster::run(spec).into_lone()
}

fn main() {
    let args = parse_args();
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
