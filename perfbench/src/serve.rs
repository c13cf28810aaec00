//! `serve-replay`: a trace recorded from the seed, replayed open-loop over
//! one loopback connection against `paldia-serve --listen`, by the
//! benchmark's own client on the public `proto` functions. The speed-up is
//! high enough that the server's pacing never sleeps, so `wall_s` is the
//! shell's saturation time. The only workload for `serve`: the wire
//! protocol, the reader thread, per-line flushes and `WallClock`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use paldia_cluster::{
    run_replay_virtual, RecordedTrace, RunResult, Scheduler, SimConfig, SimSession,
};
use paldia_core::{ysearch, PaldiaScheduler};
use paldia_experiments::common::SchemeKind;
use paldia_experiments::scenarios::poisson_workload;
use paldia_hw::Catalog;
use paldia_serve::proto::{
    arr_line, hello_replay_line, parse_server_line, DoneLine, ServerLine, SummaryLine,
};
use paldia_workloads::MlModel;

use crate::outputs::{SimOut, SLO_MS};
use crate::probe::{ProcStat, Spans, TimedScheduler};
use crate::report::{quantile, Metrics};
use crate::sim::{cluster_metrics, core_metrics, proc_metrics};
use crate::{median_metrics, repeat, Ctx, Outcome, Rep};

/// Poisson arrival rate of the recorded trace, requests/s (GoogleNet).
const RATE_RPS: f64 = 200.0;
/// Recorded trace length, simulated seconds.
const SECS: u64 = 300;
/// Virtual-to-wall speed-up the server runs at: the whole trace is due
/// within a millisecond of wall time, so pacing never sleeps.
const SPEEDUP: f64 = 1e6;

/// Record the seed's trace (trace synthesis plus arrival sampling).
fn record(seed: u64) -> RecordedTrace {
    let workloads = vec![poisson_workload(MlModel::GoogleNet, RATE_RPS, SECS)];
    let cfg = SimConfig::with_seed(seed);
    let initial = SchemeKind::Paldia.initial_hw(&workloads, &Catalog::table_ii(), cfg.slo_ms);
    RecordedTrace::record(&workloads, seed, initial)
}

/// A running `paldia-serve --listen`; killed and reaped on drop.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    port: u16,
}

impl Server {
    fn start(bin: &Path, jobs: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "--port", "0", "--speed", &SPEEDUP.to_string()])
            .env("PALDIA_JOBS", jobs.to_string())
            .env_remove("PALDIA_SHARDS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // "listening on 127.0.0.1:PORT at …"
        let port = line
            .split_whitespace()
            .nth(2)
            .and_then(|addr| addr.rsplit_once(':'))
            .and_then(|(_, p)| p.parse().ok());
        let server = Server {
            child,
            _stdout: stdout,
            port: port.unwrap_or(0),
        };
        match (read, port) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("paldia-serve did not report a port: {line:?}")),
        }
    }

    fn stat(&self) -> Result<ProcStat, String> {
        ProcStat::read(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One replay session, as the client saw it.
struct Session {
    arrivals: usize,
    handshake_s: f64,
    send_s: f64,
    first_done_s: f64,
    drain_s: f64,
    /// Received lines with their receipt time, seconds after `ready`.
    lines: Vec<(f64, String)>,
    server: ProcStat,
    trace: RecordedTrace,
}

/// A server that has answered `ready` to the seed's replay hello.
struct Conn {
    server: Server,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    trace: RecordedTrace,
    /// Record + server start + hello → ready, seconds.
    setup_s: f64,
    handshake_s: f64,
    ready: Instant,
}

fn io(e: std::io::Error) -> String {
    format!("talking to paldia-serve: {e}")
}

/// Set-up: record the trace, start the server, hello → ready.
fn connect(ctx: &Ctx) -> Result<Conn, String> {
    let bin = ctx
        .serve_bin
        .as_deref()
        .ok_or("serve-replay needs --serve-bin")?;
    let t0 = Instant::now();
    let trace = record(ctx.seed);
    let server = Server::start(bin, ctx.jobs)?;
    let stream = TcpStream::connect(("127.0.0.1", server.port))
        .map_err(|e| format!("connecting to paldia-serve: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning the connection: {e}"))?,
    );
    let mut writer = BufWriter::new(stream);
    let t_hello = Instant::now();
    writeln!(writer, "{}", hello_replay_line(&trace)).map_err(io)?;
    writer.flush().map_err(io)?;
    let mut first = String::new();
    reader.read_line(&mut first).map_err(io)?;
    if !matches!(parse_server_line(first.trim_end()), Ok(ServerLine::Ready)) {
        return Err(format!("expected ready, got {first:?}"));
    }
    let ready = Instant::now();
    Ok(Conn {
        server,
        reader,
        writer,
        trace,
        setup_s: (ready - t0).as_secs_f64(),
        handshake_s: (ready - t_hello).as_secs_f64(),
        ready,
    })
}

/// The timed phase: every `arr` line, `end`, and reading until `bye`; a
/// second thread reads while the first writes.
fn replay(conn: Conn) -> Result<Rep<Session>, String> {
    let Conn {
        server,
        reader,
        mut writer,
        trace,
        handshake_s,
        ready,
        ..
    } = conn;
    let (lines, send_s) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut lines = Vec::new();
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let bye = line == "bye";
                lines.push((ready.elapsed().as_secs_f64(), line));
                if bye {
                    break;
                }
            }
            lines
        });
        let sent = (|| -> std::io::Result<f64> {
            for sa in &trace.arrivals {
                writeln!(writer, "{}", arr_line(sa))?;
            }
            writeln!(writer, "end")?;
            writer.flush()?;
            let send_s = ready.elapsed().as_secs_f64();
            writer.into_inner()?.shutdown(Shutdown::Write)?;
            Ok(send_s)
        })();
        let lines = receiver.join().expect("receiver thread panicked");
        sent.map(|s| (lines, s)).map_err(io)
    })?;
    let wall_s = lines.last().map_or(0.0, |l| l.0);
    let server_stat = server.stat()?;
    drop(server);

    let first_done_s = lines
        .iter()
        .find(|(_, l)| l.starts_with("done "))
        .map_or(wall_s, |l| l.0);
    Ok(Rep {
        wall_s,
        peak_mb: server_stat.hwm_mb,
        out: Session {
            arrivals: trace.arrivals.len(),
            handshake_s,
            send_s,
            first_done_s,
            drain_s: wall_s - send_s,
            lines,
            server: server_stat,
            trace,
        },
    })
}

/// Seconds of one `serve-replay` set-up; the server it starts is killed
/// unused.
pub fn setup_s(ctx: &Ctx) -> Result<f64, String> {
    connect(ctx).map(|c| c.setup_s)
}

fn session(ctx: &Ctx) -> Result<Rep<Session>, String> {
    replay(connect(ctx)?)
}

/// The shell's output, parsed.
struct Parsed {
    dones: Vec<(f64, DoneLine)>,
    summary: Option<SummaryLine>,
    errs: usize,
}

fn parse(s: &Session) -> Parsed {
    let mut p = Parsed {
        dones: Vec::new(),
        summary: None,
        errs: 0,
    };
    for (at, line) in &s.lines {
        match parse_server_line(line) {
            Ok(ServerLine::Done(d)) => p.dones.push((*at, d)),
            Ok(ServerLine::Summary(sum)) => p.summary = Some(sum),
            Ok(ServerLine::Bye) => {}
            Ok(_) | Err(_) => p.errs += 1,
        }
    }
    p
}

/// The same trace through `run_replay_virtual` in-process: wall seconds,
/// result, engine events. With `probe` (spans, repetition span, metrics),
/// the scheduler is timed under a `cluster.run` span and the `core`
/// metrics go into the metrics.
fn in_process(
    trace: &RecordedTrace,
    probe: Option<(&Spans, usize, &mut Metrics)>,
) -> (f64, RunResult, u64) {
    let cfg = SimConfig::with_seed(trace.seed);
    let run = probe
        .as_ref()
        .map(|(s, rep, _)| s.open("cluster.run", Some(*rep)));
    let mut sched: Box<dyn Scheduler> = match (&probe, run) {
        (Some((s, _, _)), Some(run)) => Box::new(TimedScheduler::new(
            Box::new(PaldiaScheduler::new()),
            (*s).clone(),
            Some(run),
        )),
        _ => Box::new(PaldiaScheduler::new()),
    };
    let t = Instant::now();
    let mut session = SimSession::new(
        trace.models.clone(),
        &mut *sched,
        trace.initial_hw,
        Catalog::table_ii(),
        &cfg,
        trace.trace_end(),
        trace.reserve,
    );
    run_replay_virtual(&mut session, &trace.arrivals);
    let events = session.events();
    let result = session.finish();
    let secs = t.elapsed().as_secs_f64();
    drop(sched);
    if let (Some((s, _, m)), Some(run)) = (probe, run) {
        s.close(run);
        core_metrics(m, &s.snapshot(), run, 0.0);
    }
    (secs, result, events)
}

/// Output checks of one session against the in-process replay.
fn check_session(o: &mut Outcome, s: &Session, p: &Parsed, result: &RunResult, events: u64) {
    let mut per_id: BTreeMap<u64, u32> = BTreeMap::new();
    for (_, d) in &p.dones {
        *per_id.entry(d.id).or_default() += 1;
    }
    let answered = s
        .trace
        .arrivals
        .iter()
        .filter(|sa| per_id.get(&sa.id.0) == Some(&1))
        .count();
    o.check(
        "every arr line gets exactly one done line",
        answered == s.arrivals && per_id.len() == s.arrivals,
    );
    let mut shell: Vec<(u64, u64, u64, String, u32)> = p
        .dones
        .iter()
        .map(|(_, d)| {
            (
                d.id,
                d.arrival_us,
                d.completed_us,
                d.hw.to_string(),
                d.batch,
            )
        })
        .collect();
    shell.sort();
    let mut sim: Vec<(u64, u64, u64, String, u32)> = result
        .completed
        .iter()
        .map(|c| {
            (
                c.id.0,
                c.arrival.as_micros(),
                c.completed.as_micros(),
                c.hw.to_string(),
                c.batch_size,
            )
        })
        .collect();
    sim.sort();
    o.check(
        "shell completions equal the in-process replay",
        shell == sim,
    );
    let out = SimOut::from_results(std::slice::from_ref(result));
    let summary_ok = p.summary.is_some_and(|sum| {
        sum.completed == out.completed
            && sum.unserved == out.unserved
            && (sum.cost_usd - out.cost_usd).abs() < 5e-7
            && sum.cold_starts == out.cold_starts
            && sum.transitions == out.transitions
            && sum.events == events
    });
    o.check("summary line equals the in-process replay", summary_ok);
    o.check("no err lines", p.errs == 0);
    o.attempted += s.arrivals as u64;
    o.failed += (s.arrivals - answered) as u64 + p.errs as u64;
}

/// Simulated end-to-end metrics from the shell's own lines: SLO share of
/// arrivals, cost from the summary, P99 of the done latencies.
fn shell_metrics(m: &mut Metrics, s: &Session, p: &Parsed) {
    let mut lat: Vec<f64> = p
        .dones
        .iter()
        .map(|(_, d)| d.latency_us as f64 / 1e3)
        .collect();
    let ok = lat.iter().filter(|&&l| l <= SLO_MS).count();
    m.set("slo_pct", 100.0 * ok as f64 / s.arrivals.max(1) as f64);
    m.set("cost_usd", p.summary.map_or(0.0, |sum| sum.cost_usd));
    lat.sort_by(f64::total_cmp);
    m.set(
        "p99_ms",
        paldia_metrics::latency::percentile_sorted(&lat, 99.0),
    );
}

pub fn e2e(ctx: &Ctx) -> Result<Outcome, String> {
    let t = repeat(ctx, || session(ctx))?;
    let mut o = Outcome::default();
    t.timing_metrics(&mut o.metrics);
    t.record(&mut o);
    shell_metrics(&mut o.metrics, &t.warm.out, &parse(&t.warm.out));
    let (_, result, events) = in_process(&t.warm.out.trace, None);
    // The warm-up's lines give the simulated metrics above, so it is
    // checked with the timed sessions.
    for r in std::iter::once(&t.warm).chain(&t.reps) {
        check_session(&mut o, &r.out, &parse(&r.out), &result, events);
    }
    let out = SimOut::from_results(std::slice::from_ref(&result));
    o.check("completed + unserved = arrived", out.conserves());
    o.record.push(("speedup", SPEEDUP.to_string()));
    o.record.push(("server_pool_width", ctx.jobs.to_string()));
    o.record.push(("shards", "1".into()));
    let wall = o.metrics.get("wall_s").unwrap_or(0.0);
    o.record.push((
        "requests_per_s",
        (t.warm.out.arrivals as f64 / wall).to_string(),
    ));
    Ok(o)
}

pub fn layers(ctx: &Ctx) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let mut o = Outcome::default();
    let mut runs = Vec::new();
    session(ctx)?; // warm-up
    while runs.len() < 2 || Instant::now() < ctx.deadline {
        let mut m = Metrics::default();
        let rep = spans.open("rep", None);
        let r = spans.time("serve.session", Some(rep), || session(ctx))?;
        ysearch::reset_cache_counters();
        let (probed_s, _, _) = in_process(&r.out.trace, Some((spans, rep, &mut m)));
        spans.close(rep);
        let s = &r.out;
        let p = parse(s);
        let (session_s, result, events) = in_process(&s.trace, None);
        check_session(&mut o, s, &p, &result, events);
        let out = SimOut::from_results(std::slice::from_ref(&result));

        m.set("serve.handshake_ms", s.handshake_s * 1e3);
        m.set("serve.send_s", s.send_s);
        m.set("serve.first_done_ms", s.first_done_s * 1e3);
        m.set("serve.drain_ms", s.drain_s * 1e3);
        m.set("serve.done_lines", p.dones.len() as f64);
        m.set("serve.err_lines", p.errs as f64);
        m.set("serve.server_cpu_s", s.server.user_s + s.server.sys_s);
        m.set("serve.session_s", session_s);
        m.set(
            "bench.probe_overhead_pct",
            100.0 * (probed_s - session_s) / session_s,
        );
        m.set("serve.wire_s", r.wall_s - session_s);
        m.set("serve.rps", s.arrivals as f64 / r.wall_s);
        let lag: Vec<f64> = p
            .dones
            .iter()
            .map(|(at, d)| (at - d.completed_us as f64 * 1e-6 / SPEEDUP) * 1e3)
            .collect();
        m.set("serve.lag_p99_ms", quantile(&lag, 0.99));
        // The public proto functions over this run's lines.
        let t = Instant::now();
        let encoded: usize = s.trace.arrivals.iter().map(|sa| arr_line(sa).len()).sum();
        m.set("serve.proto.encode_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let parsed = s
            .lines
            .iter()
            .filter(|(_, l)| parse_server_line(l).is_ok())
            .count();
        m.set("serve.proto.parse_s", t.elapsed().as_secs_f64());
        std::hint::black_box((encoded, parsed));
        m.set("sim.events", events as f64);
        m.set("sim.ns_per_event", session_s * 1e9 / events.max(1) as f64);
        m.set("traces.build_s", {
            let t = Instant::now();
            std::hint::black_box(record(ctx.seed));
            t.elapsed().as_secs_f64()
        });
        cluster_metrics(&mut m, &out);
        proc_metrics(&mut m, &s.server);
        let snap = spans.snapshot();
        m.set("bench.unattributed_s", crate::probe::self_secs(&snap, rep));
        runs.push(m);
    }
    o.metrics = median_metrics(&runs);
    o.record.push(("speedup", SPEEDUP.to_string()));
    o.record.push(("server_pool_width", ctx.jobs.to_string()));
    o.record.push(("reps", runs.len().to_string()));
    Ok(o)
}
