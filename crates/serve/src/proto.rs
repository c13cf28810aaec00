//! The line-delimited TCP protocol between the shell and its clients.
//!
//! One request or reply per `\n`-terminated line, space-separated ASCII
//! fields, no framing beyond that — readable over `nc`, replayable from a
//! file. Model and hardware names use the same lowercase tokens as the
//! recorded-trace format ([`paldia_cluster::replay`]), so a trace line
//! `arrival 0 1 12345 googlenet` maps 1:1 onto the wire line
//! `arr 0 1 12345 googlenet`.
//!
//! Client → server:
//!
//! ```text
//! hello replay <seed> <duration_us> <reserve> <initial_hw> <m1,m2,…>
//! hello live <live_secs> <m1,m2,…>
//! arr <seq> <id> <at_us> <model>     # replay mode: one recorded arrival
//! inv <model>                        # live mode: invoke now
//! end                                # no more arrivals; drain and report
//! ```
//!
//! Server → client:
//!
//! ```text
//! ready                              # session built, clock armed
//! acc <id> <model> <at_us>           # live: arrival accepted, id assigned
//! done <id> <model> <arrival_us> <completed_us> <latency_us> <hw> <batch>
//! summary completed=<n> unserved=<n> cost_usd=<x> cold_starts=<n> transitions=<n> events=<n>
//! bye                                # clean shutdown
//! err <message>                      # protocol error; connection closes
//!                                    # (replay: a refused arrival ends the
//!                                    # replay, then summary and bye)
//! ```

use paldia_cluster::{
    instance_from_token, model_from_token, model_token, CompletedRequest, RecordedTrace, RequestId,
    RunResult, SampledArrival,
};
use paldia_hw::InstanceKind;
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// The replay-mode hello: everything the server needs to rebuild the
/// *identical* session the DES would run — seed, horizon, the reserved
/// arrival-sequence block, warm-start hardware, and the model set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayHello {
    /// RNG seed of the recorded scenario.
    pub seed: u64,
    /// Trace duration (virtual).
    pub duration: SimDuration,
    /// Arrival seq block to reserve (`RecordedTrace::reserve`).
    pub reserve: u64,
    /// Hardware the fleet starts warm on.
    pub initial_hw: InstanceKind,
    /// Declared model set, in declaration order.
    pub models: Vec<MlModel>,
}

/// The live-mode hello: a serving horizon and the model set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveHello {
    /// Virtual seconds the live session runs for.
    pub live_secs: u64,
    /// Declared model set.
    pub models: Vec<MlModel>,
}

/// A parsed client → server line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientLine {
    /// `hello replay …`
    HelloReplay(ReplayHello),
    /// `hello live …`
    HelloLive(LiveHello),
    /// `arr <seq> <id> <at_us> <model>`
    Arr(SampledArrival),
    /// `inv <model>`
    Inv(MlModel),
    /// `end`
    End,
}

/// A parsed server → client line.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerLine {
    /// `ready`
    Ready,
    /// `acc <id> <model> <at_us>`
    Acc {
        /// Assigned request id.
        id: u64,
        /// Model invoked.
        model: MlModel,
        /// Virtual stamp the arrival was injected at.
        at_us: u64,
    },
    /// `done …`
    Done(DoneLine),
    /// `summary …`
    Summary(SummaryLine),
    /// `bye`
    Bye,
    /// `err <message>`
    Err(String),
}

/// One completion notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoneLine {
    /// Request id.
    pub id: u64,
    /// Model served.
    pub model: MlModel,
    /// Gateway arrival, virtual microseconds.
    pub arrival_us: u64,
    /// Completion, virtual microseconds.
    pub completed_us: u64,
    /// End-to-end virtual latency, microseconds.
    pub latency_us: u64,
    /// Hardware the batch executed on.
    pub hw: InstanceKind,
    /// Size of the batch the request rode in.
    pub batch: u32,
}

/// The end-of-session summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SummaryLine {
    /// Requests served.
    pub completed: u64,
    /// Requests arrived but never served.
    pub unserved: u64,
    /// Total lease cost, USD.
    pub cost_usd: f64,
    /// Cold starts incurred.
    pub cold_starts: u64,
    /// Hardware transitions taken.
    pub transitions: u64,
    /// Engine events processed.
    pub events: u64,
}

fn models_csv(models: &[MlModel]) -> String {
    models
        .iter()
        .map(|m| model_token(*m))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_models_csv(csv: &str) -> Result<Vec<MlModel>, String> {
    csv.split(',')
        .map(|t| model_from_token(t).ok_or_else(|| format!("unknown model token `{t}`")))
        .collect()
}

/// Encode the replay hello for `trace`.
pub fn hello_replay_line(trace: &RecordedTrace) -> String {
    format!(
        "hello replay {} {} {} {} {}",
        trace.seed,
        trace.duration.as_micros(),
        trace.reserve,
        trace.initial_hw,
        models_csv(&trace.models)
    )
}

/// Encode a recorded arrival.
pub fn arr_line(sa: &SampledArrival) -> String {
    format!(
        "arr {} {} {} {}",
        sa.seq,
        sa.id.0,
        sa.at.as_micros(),
        model_token(sa.model)
    )
}

/// Encode a completion notification.
pub fn done_line(c: &CompletedRequest) -> String {
    let arrival = c.arrival.as_micros();
    let completed = c.completed.as_micros();
    format!(
        "done {} {} {} {} {} {} {}",
        c.id.0,
        model_token(c.model),
        arrival,
        completed,
        completed.saturating_sub(arrival),
        c.hw,
        c.batch_size
    )
}

/// Encode the end-of-session summary from a finished run.
pub fn summary_line(result: &RunResult, events: u64) -> String {
    format!(
        "summary completed={} unserved={} cost_usd={:.6} cold_starts={} transitions={} events={}",
        result.completed.len(),
        result.unserved,
        result.total_cost(),
        result.cold_starts,
        result.transitions,
        events
    )
}

fn want<T: std::str::FromStr>(field: &str, v: Option<&str>) -> Result<T, String> {
    let raw = v.ok_or_else(|| format!("missing field `{field}`"))?;
    raw.parse()
        .map_err(|_| format!("bad field `{field}`: `{raw}`"))
}

/// Parse one client → server line.
pub fn parse_client_line(line: &str) -> Result<ClientLine, String> {
    let mut f = line.split_whitespace();
    match f.next() {
        Some("hello") => match f.next() {
            Some("replay") => {
                let seed = want("seed", f.next())?;
                let duration_us: u64 = want("duration_us", f.next())?;
                let reserve = want("reserve", f.next())?;
                let hw_tok = f.next().ok_or("missing field `initial_hw`")?;
                let initial_hw = instance_from_token(hw_tok)
                    .ok_or_else(|| format!("unknown hardware token `{hw_tok}`"))?;
                let models = parse_models_csv(f.next().ok_or("missing field `models`")?)?;
                Ok(ClientLine::HelloReplay(ReplayHello {
                    seed,
                    duration: SimDuration::from_micros(duration_us),
                    reserve,
                    initial_hw,
                    models,
                }))
            }
            Some("live") => {
                let live_secs = want("live_secs", f.next())?;
                let models = parse_models_csv(f.next().ok_or("missing field `models`")?)?;
                Ok(ClientLine::HelloLive(LiveHello { live_secs, models }))
            }
            other => Err(format!("unknown hello mode {other:?}")),
        },
        Some("arr") => {
            let seq = want("seq", f.next())?;
            let id: u64 = want("id", f.next())?;
            let at_us: u64 = want("at_us", f.next())?;
            let tok = f.next().ok_or("missing field `model`")?;
            let model =
                model_from_token(tok).ok_or_else(|| format!("unknown model token `{tok}`"))?;
            Ok(ClientLine::Arr(SampledArrival {
                seq,
                id: RequestId(id),
                at: SimTime::from_micros(at_us),
                model,
            }))
        }
        Some("inv") => {
            let tok = f.next().ok_or("missing field `model`")?;
            let model =
                model_from_token(tok).ok_or_else(|| format!("unknown model token `{tok}`"))?;
            Ok(ClientLine::Inv(model))
        }
        Some("end") => Ok(ClientLine::End),
        other => Err(format!("unknown client line {other:?}")),
    }
}

fn kv(field: &str, v: Option<&str>) -> Result<String, String> {
    let raw = v.ok_or_else(|| format!("missing field `{field}`"))?;
    let (k, val) = raw
        .split_once('=')
        .ok_or_else(|| format!("bad field `{raw}`"))?;
    if k != field {
        return Err(format!("expected `{field}=…`, got `{raw}`"));
    }
    Ok(val.to_string())
}

/// Parse one server → client line.
pub fn parse_server_line(line: &str) -> Result<ServerLine, String> {
    let mut f = line.split_whitespace();
    match f.next() {
        Some("ready") => Ok(ServerLine::Ready),
        Some("acc") => {
            let id = want("id", f.next())?;
            let tok = f.next().ok_or("missing field `model`")?;
            let model =
                model_from_token(tok).ok_or_else(|| format!("unknown model token `{tok}`"))?;
            let at_us = want("at_us", f.next())?;
            Ok(ServerLine::Acc { id, model, at_us })
        }
        Some("done") => {
            let id = want("id", f.next())?;
            let tok = f.next().ok_or("missing field `model`")?;
            let model =
                model_from_token(tok).ok_or_else(|| format!("unknown model token `{tok}`"))?;
            let arrival_us = want("arrival_us", f.next())?;
            let completed_us = want("completed_us", f.next())?;
            let latency_us = want("latency_us", f.next())?;
            let hw_tok = f.next().ok_or("missing field `hw`")?;
            let hw = instance_from_token(hw_tok)
                .ok_or_else(|| format!("unknown hardware token `{hw_tok}`"))?;
            let batch = want("batch", f.next())?;
            Ok(ServerLine::Done(DoneLine {
                id,
                model,
                arrival_us,
                completed_us,
                latency_us,
                hw,
                batch,
            }))
        }
        Some("summary") => {
            let completed = kv("completed", f.next())?
                .parse()
                .map_err(|_| "bad completed")?;
            let unserved = kv("unserved", f.next())?
                .parse()
                .map_err(|_| "bad unserved")?;
            let cost_usd = kv("cost_usd", f.next())?
                .parse()
                .map_err(|_| "bad cost_usd")?;
            let cold_starts = kv("cold_starts", f.next())?
                .parse()
                .map_err(|_| "bad cold_starts")?;
            let transitions = kv("transitions", f.next())?
                .parse()
                .map_err(|_| "bad transitions")?;
            let events = kv("events", f.next())?.parse().map_err(|_| "bad events")?;
            Ok(ServerLine::Summary(SummaryLine {
                completed,
                unserved,
                cost_usd,
                cold_starts,
                transitions,
                events,
            }))
        }
        Some("bye") => Ok(ServerLine::Bye),
        Some("err") => Ok(ServerLine::Err(
            line.trim_start()
                .strip_prefix("err")
                .unwrap_or("")
                .trim()
                .to_string(),
        )),
        other => Err(format!("unknown server line {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_cluster::WorkloadSpec;
    use paldia_traces::RateTrace;

    fn trace() -> RecordedTrace {
        let w = WorkloadSpec::new(
            MlModel::GoogleNet,
            RateTrace::constant(30.0, SimDuration::from_secs(5), SimDuration::from_secs(1)),
        );
        RecordedTrace::record(&[w], 7, InstanceKind::G3s_xlarge)
    }

    #[test]
    fn hello_and_arr_round_trip() {
        let t = trace();
        let hello = hello_replay_line(&t);
        match parse_client_line(&hello).expect("hello parses") {
            ClientLine::HelloReplay(h) => {
                assert_eq!(h.seed, t.seed);
                assert_eq!(h.duration, t.duration);
                assert_eq!(h.reserve, t.reserve);
                assert_eq!(h.initial_hw, t.initial_hw);
                assert_eq!(h.models, t.models);
            }
            other => panic!("expected hello replay, got {other:?}"),
        }
        for sa in &t.arrivals {
            assert_eq!(
                parse_client_line(&arr_line(sa)).expect("arr parses"),
                ClientLine::Arr(*sa)
            );
        }
        assert_eq!(parse_client_line("end").unwrap(), ClientLine::End);
    }

    #[test]
    fn server_lines_round_trip() {
        let done = "done 3 googlenet 100 900 800 g3s.xlarge 4";
        match parse_server_line(done).expect("done parses") {
            ServerLine::Done(d) => {
                assert_eq!(d.id, 3);
                assert_eq!(d.model, MlModel::GoogleNet);
                assert_eq!(d.latency_us, 800);
                assert_eq!(d.batch, 4);
            }
            other => panic!("expected done, got {other:?}"),
        }
        let s = "summary completed=10 unserved=0 cost_usd=0.123456 cold_starts=1 transitions=0 events=99";
        match parse_server_line(s).expect("summary parses") {
            ServerLine::Summary(sl) => {
                assert_eq!(sl.completed, 10);
                assert_eq!(sl.events, 99);
                assert!((sl.cost_usd - 0.123456).abs() < 1e-9);
            }
            other => panic!("expected summary, got {other:?}"),
        }
        assert_eq!(parse_server_line("ready").unwrap(), ServerLine::Ready);
        assert_eq!(parse_server_line("bye").unwrap(), ServerLine::Bye);
        assert!(matches!(
            parse_server_line("err boom boom").unwrap(),
            ServerLine::Err(m) if m == "boom boom"
        ));
    }

    #[test]
    fn garbage_is_rejected_with_field_names() {
        let e = parse_client_line("arr 0 1 notanumber googlenet").unwrap_err();
        assert!(e.contains("at_us"), "error names the field: {e}");
        assert!(parse_client_line("warble").is_err());
        assert!(parse_server_line("warble").is_err());
    }
}
