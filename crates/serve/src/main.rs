//! `paldia-serve` — the wall-clock serving shell CLI (OPERATIONS.md).
//!
//! ```text
//! paldia-serve --smoke [--requests N] [--speed X] [--seed N] [--port P] [--report FILE]
//! paldia-serve --replay FILE [--speed X] [--port P] [--decisions FILE] [--report FILE]
//! paldia-serve --capture FILE [--seed N] [--secs N]
//! paldia-serve --listen [--port P] [--speed X] [--decisions FILE]
//! ```
//!
//! `--capture` writes the primary scenario's sampled arrivals
//! ([`PrimaryScenario::replay_trace`]) as a `# paldia-replay v1` file, the
//! format `--replay` reads; `--smoke` replays the same capture in process.
//! Every flag is listed once, in [`FLAGS`]; an unknown or repeated flag, a
//! stray argument, or a value that is missing, starts with `--` or does not
//! parse exits non-zero before any work, naming it.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paldia_cluster::RecordedTrace;
use paldia_experiments::cli::{Cli, Flag};
use paldia_experiments::diffcap::PrimaryScenario;
use paldia_obs::{JsonlSink, TraceSink};
use paldia_serve::sink::{write_stamps_jsonl, DecisionLog, WallStamp};
use paldia_serve::{run_differential, run_smoke, serve_once, ServeOpts, SmokeOpts, SmokeOutcome};

const USAGE: &str = "\
paldia-serve: wall-clock serving shell over the deterministic scheduler core

USAGE:
  paldia-serve --smoke [--requests N] [--speed X] [--seed N] [--port P] [--report FILE]
      Capture the quick trace, replay it through the shell (loopback TCP)
      and the virtual-clock session, diff the decision streams both ways.
      Exit 0 only if the differential gate passes.

  paldia-serve --replay FILE [--speed X] [--port P] [--decisions FILE] [--report FILE]
      Same differential, on a trace file recorded by --capture.

  paldia-serve --capture FILE [--seed N] [--secs N]
      Record the replay trace (GoogleNet over the scaled Azure slice) to
      FILE in the `# paldia-replay v1` line format.

  paldia-serve --listen [--port P] [--speed X] [--decisions FILE]
      Serve connections (one session each, sequentially) until killed.
      Speak the line protocol: `hello live <secs> <models>` then
      `inv <model>` / `end`. Sessions are untraced unless --decisions is
      given; then each session's decision stream streams to FILE as JSONL
      while it runs (plus a .stamps.jsonl wall sidecar at session end).

DEFAULTS: --requests 200, --speed 20 (1.0 for --listen), --seed 42,
          --port 0 (ephemeral; 7979 for --listen), --secs 120
";

/// Every flag `paldia-serve` knows, once each, with what its values are.
const FLAGS: &[Flag] = &[
    ("--help", 0, ""),
    ("-h", 0, ""),
    ("--smoke", 0, ""),
    ("--replay", 1, "a replay file"),
    ("--capture", 1, "an output path"),
    ("--listen", 0, ""),
    ("--requests", 1, "a request count"),
    ("--speed", 1, "a speed-up factor"),
    ("--seed", 1, "a numeric seed"),
    ("--port", 1, "a TCP port"),
    ("--secs", 1, "a trace length in seconds"),
    ("--decisions", 1, "an output path"),
    ("--report", 1, "an output path"),
];

/// Read the command line against [`FLAGS`]; every argument is a flag or a
/// flag's value.
fn read_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let cli = Cli::parse(FLAGS, args)?;
    match cli.positional.first() {
        Some(stray) => Err(format!("unexpected argument {stray:?}; try --help")),
        None => Ok(cli),
    }
}

/// The value of `name` read with [`str::parse`], or `default` when absent.
fn parsed<T: std::str::FromStr>(cli: &Cli, name: &str, default: T) -> Result<T, String> {
    Ok(cli.parsed(name)?.unwrap_or(default))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let empty = args.is_empty();
    let run = || -> Result<bool, String> {
        let cli = read_args(args)?;
        if cli.has("--help") || cli.has("-h") || empty {
            print!("{USAGE}");
            return Ok(true);
        }
        if cli.has("--smoke") {
            return cmd_smoke(&cli);
        }
        if let Some(path) = cli.value("--replay") {
            return cmd_replay(&cli, path);
        }
        if let Some(path) = cli.value("--capture") {
            return cmd_capture(&cli, path);
        }
        if cli.has("--listen") {
            return cmd_listen(&cli);
        }
        Err("no command (--smoke, --replay, --capture or --listen); try --help".into())
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("paldia-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_verdict(o: &SmokeOutcome) {
    println!(
        "shell:  {} completed, {} unserved, {} cold starts, {} transitions, ${:.4}, {:.1}ms wall",
        o.shell.result.completed.len(),
        o.shell.result.unserved,
        o.shell.result.cold_starts,
        o.shell.result.transitions,
        o.shell.result.total_cost(),
        o.shell.wall.as_secs_f64() * 1e3
    );
    println!(
        "sim:    {} completed, {} unserved, {} cold starts, {} transitions, ${:.4}",
        o.sim_result.completed.len(),
        o.sim_result.unserved,
        o.sim_result.cold_starts,
        o.sim_result.transitions,
        o.sim_result.total_cost()
    );
    println!(
        "diff:   {} aligned, {} divergent forward, {} divergent backward, streams identical: {}",
        o.forward.aligned,
        o.forward.total_divergent,
        o.backward.total_divergent,
        o.events_identical
    );
    if let Some(d) = o.forward.first() {
        println!("first divergence: {d:?}");
    }
    println!("verdict: {}", if o.pass() { "PASS" } else { "FAIL" });
}

/// Write the stamp sidecar of the decision log at `path` (`n` events,
/// already written) and report both files.
fn finish_decisions(path: &str, n: u64, stamps: &[WallStamp]) -> Result<(), String> {
    let sidecar = PathBuf::from(format!("{path}.stamps.jsonl"));
    write_stamps_jsonl(&sidecar, stamps)
        .map_err(|e| format!("writing {}: {e}", sidecar.display()))?;
    println!("decisions: {n} events -> {path} (+ {})", sidecar.display());
    Ok(())
}

fn cmd_smoke(cli: &Cli) -> Result<bool, String> {
    let opts = SmokeOpts {
        requests: parsed(cli, "--requests", 200usize)?,
        speed: parsed(cli, "--speed", 20.0f64)?,
        seed: parsed(cli, "--seed", 42u64)?,
        port: parsed(cli, "--port", 0u16)?,
        report: cli.value("--report").map(PathBuf::from),
    };
    let outcome = run_smoke(&opts)?;
    print_verdict(&outcome);
    if let Some(p) = &opts.report {
        println!("report: {}", p.display());
    }
    Ok(outcome.pass())
}

fn cmd_replay(cli: &Cli, path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = RecordedTrace::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "replaying {}: {} arrivals over {:.1}s (virtual), seed {}",
        path,
        trace.arrivals.len(),
        trace.duration.as_secs_f64(),
        trace.seed
    );
    let speed = parsed(cli, "--speed", 20.0f64)?;
    let port = parsed(cli, "--port", 0u16)?;
    let outcome = run_differential(&trace, speed, port)?;
    print_verdict(&outcome);
    if let Some(p) = cli.value("--decisions") {
        let mut sink = JsonlSink::create(p).map_err(|e| format!("creating {p}: {e}"))?;
        for e in &outcome.shell_events {
            sink.record(e.clone());
        }
        let n = sink.finish().map_err(|e| format!("writing {p}: {e}"))?;
        finish_decisions(p, n, &outcome.shell.stamps)?;
    }
    if let Some(p) = cli.value("--report") {
        let opts = SmokeOpts {
            requests: trace.arrivals.len(),
            speed,
            seed: trace.seed,
            port,
            report: None,
        };
        paldia_serve::report::write_report(Path::new(p), &opts, &outcome)?;
        println!("report: {p}");
    }
    Ok(outcome.pass())
}

fn cmd_capture(cli: &Cli, path: &str) -> Result<bool, String> {
    let seed = parsed(cli, "--seed", 42u64)?;
    let scenario = PrimaryScenario {
        capture_secs: parsed(cli, "--secs", 120u64)?,
        ..PrimaryScenario::quick(seed)
    };
    let trace = scenario.replay_trace();
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, trace.to_text()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "captured {} arrivals over {:.1}s (virtual) -> {path}",
        trace.arrivals.len(),
        trace.duration.as_secs_f64()
    );
    Ok(true)
}

fn cmd_listen(cli: &Cli) -> Result<bool, String> {
    let port = parsed(cli, "--port", 7979u16)?;
    let speed = parsed(cli, "--speed", 1.0f64)?;
    let opts = ServeOpts { speed };
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    println!(
        "listening on {} at {speed}x (one session per connection; ctrl-c to stop)",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    let decisions = cli.value("--decisions");
    loop {
        // Each session's log streams to the file while it runs; without
        // --decisions the session keeps no trace at all.
        let mut log = decisions.map(|p| DecisionLog::new(Path::new(p)));
        let sink = log.as_mut().map(|l| l as &mut dyn TraceSink);
        match serve_once(&listener, &opts, sink) {
            Ok(outcome) => {
                println!(
                    "session: {} completed, {} unserved, {:.1}ms wall",
                    outcome.result.completed.len(),
                    outcome.result.unserved,
                    outcome.wall.as_secs_f64() * 1e3
                );
                for e in &outcome.protocol_errors {
                    eprintln!("protocol: {e}");
                }
                if let (Some(p), Some(log)) = (decisions, log) {
                    let n = log.finish().map_err(|e| format!("writing {p}: {e}"))?;
                    finish_decisions(p, n, &outcome.stamps)?;
                }
            }
            Err(e) => eprintln!("session failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each command line is accepted, or refused with an error naming the
    /// bad argument; its values parse, or the error names the flag.
    #[test]
    fn command_lines_check_exactly() {
        let cases: [(&str, Option<&str>); 12] = [
            ("", None),
            ("-h", None),
            ("--smoke --requests 200 --speed 20", None),
            ("--listen --port 0 --speed 20", None),
            ("--capture t.replay --seed 42 --secs 30", None),
            (
                "--replay t.replay --decisions d.jsonl --report r.json",
                None,
            ),
            (
                "--replay t.replay --decisions --report r.json",
                Some("--decisions needs an output path, got \"--report\""),
            ),
            ("--smoke --sped 5", Some("unknown flag --sped")),
            (
                "--smoke --seed 1 --seed 2",
                Some("--seed given more than once"),
            ),
            ("--capture", Some("--capture needs an output path")),
            ("--smoke extra", Some("unexpected argument \"extra\"")),
            ("--smoke -5", Some("unexpected argument \"-5\"")),
        ];
        for (line, refused) in cases {
            match (
                read_args(line.split_whitespace().map(String::from)),
                refused,
            ) {
                (Ok(_), None) => {}
                (Err(e), Some(needle)) => assert!(e.contains(needle), "{line:?}: {e}"),
                (Ok(_), Some(_)) => panic!("{line:?} must be refused"),
                (Err(e), None) => panic!("{line:?} must be accepted, got: {e}"),
            }
        }
        let cli = read_args(["--smoke", "--speed", "fast"].map(String::from)).expect("valid");
        let speed = parsed(&cli, "--speed", 20.0f64).expect_err("not a number");
        assert_eq!(speed, "--speed needs a speed-up factor, got \"fast\"");
        assert_eq!(parsed(&cli, "--seed", 42u64), Ok(42));
    }
}
