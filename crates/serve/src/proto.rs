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
//!
//! A replay session runs on the batch engine's calendar, so the summary's
//! `events=` count equals the engine event count of a lone
//! `paldia_cluster::run` over the same recorded arrivals.
//!
//! Client lines are refused, with an `err`, when they carry trailing
//! tokens, repeat a model in the hello's list, or give a `duration_us`,
//! `reserve`, `at_us` or live length (in microseconds) above
//! [`paldia_cluster::replay::REPLAY_BOUND`].

use paldia_cluster::replay::within_replay_bound;
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
    /// Engine events processed; for a replay, equal to a lone batch
    /// run's count over the same arrivals.
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
    let mut models = Vec::new();
    for t in csv.split(',') {
        let m = model_from_token(t).ok_or_else(|| format!("unknown model token `{t}`"))?;
        if models.contains(&m) {
            return Err(format!("repeated model token `{t}`"));
        }
        models.push(m);
    }
    Ok(models)
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

/// Append a space and `n` in decimal.
fn put_field(out: &mut String, mut n: u64) {
    out.push(' ');
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(d as char);
    }
}

/// Append the `arr` line for a recorded arrival, newline included.
pub fn append_arr(out: &mut String, sa: &SampledArrival) {
    out.push_str("arr");
    put_field(out, sa.seq);
    put_field(out, sa.id.0);
    put_field(out, sa.at.as_micros());
    out.push(' ');
    out.push_str(model_token(sa.model));
    out.push('\n');
}

/// Encode a recorded arrival (the [`append_arr`] line, without its
/// newline).
pub fn arr_line(sa: &SampledArrival) -> String {
    let mut out = String::with_capacity(48);
    append_arr(&mut out, sa);
    out.pop();
    out
}

/// Append the `done` line for a completion, newline included. The latency
/// field saturates at 0.
pub fn append_done(out: &mut String, c: &CompletedRequest) {
    let arrival = c.arrival.as_micros();
    let completed = c.completed.as_micros();
    out.push_str("done");
    put_field(out, c.id.0);
    out.push(' ');
    out.push_str(model_token(c.model));
    put_field(out, arrival);
    put_field(out, completed);
    put_field(out, completed.saturating_sub(arrival));
    out.push(' ');
    out.push_str(c.hw.aws_name());
    put_field(out, u64::from(c.batch_size));
    out.push('\n');
}

/// Encode a completion notification (the [`append_done`] line, without
/// its newline).
// lint:allow(u1) the String form of the server's encoder that the wire codec tests decode
pub fn done_line(c: &CompletedRequest) -> String {
    let mut out = String::with_capacity(80);
    append_done(&mut out, c);
    out.pop();
    out
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
    let parsed = client_fields(&mut f)?;
    match f.next() {
        Some(extra) => Err(format!("trailing token `{extra}`")),
        None => Ok(parsed),
    }
}

fn client_fields<'l>(f: &mut impl Iterator<Item = &'l str>) -> Result<ClientLine, String> {
    match f.next() {
        Some("hello") => match f.next() {
            Some("replay") => {
                let seed = want("seed", f.next())?;
                let duration_us =
                    within_replay_bound("duration_us", want("duration_us", f.next())?)?;
                let reserve = within_replay_bound("reserve", want("reserve", f.next())?)?;
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
                let live_secs: u64 = want("live_secs", f.next())?;
                within_replay_bound("live_secs (in us)", live_secs.saturating_mul(1_000_000))?;
                let models = parse_models_csv(f.next().ok_or("missing field `models`")?)?;
                Ok(ClientLine::HelloLive(LiveHello { live_secs, models }))
            }
            other => Err(format!("unknown hello mode {other:?}")),
        },
        Some("arr") => {
            let seq = want("seq", f.next())?;
            let id: u64 = want("id", f.next())?;
            let at_us = within_replay_bound("at_us", want("at_us", f.next())?)?;
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

    /// The `format!` bodies the appenders replaced: the wire bytes they
    /// must keep.
    fn reference_arr(sa: &SampledArrival) -> String {
        format!(
            "arr {} {} {} {}",
            sa.seq,
            sa.id.0,
            sa.at.as_micros(),
            model_token(sa.model)
        )
    }

    fn reference_done(c: &CompletedRequest) -> String {
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

    /// Every model × kind at the values 0, 1 and the type's maximum (a
    /// completion before its arrival saturates the latency at 0): the
    /// appenders write the reference bytes plus a newline, the `String`
    /// forms the same bytes without it, and each line parses back.
    #[test]
    fn encoders_write_the_reference_bytes_and_parse_back() {
        let values = [0, 1, u64::MAX];
        let mut line = String::new();
        for model in MlModel::ALL {
            for v in values {
                let sa = SampledArrival {
                    seq: v,
                    id: RequestId(v),
                    at: SimTime::from_micros(v.min(paldia_cluster::replay::REPLAY_BOUND)),
                    model,
                };
                let want = reference_arr(&sa);
                line.clear();
                append_arr(&mut line, &sa);
                assert_eq!(line, format!("{want}\n"));
                assert_eq!(arr_line(&sa), want);
                assert_eq!(parse_client_line(&line), Ok(ClientLine::Arr(sa)));
            }
            for hw in InstanceKind::ALL {
                for (a, b) in values.iter().flat_map(|&a| values.map(|b| (a, b))) {
                    // Id and arrival take one value, completion and batch
                    // the other, so (max, 0) completes before arriving.
                    let (id, arrival, completed) = (a, a, b);
                    let batch = b.min(u64::from(u32::MAX)) as u32;
                    let c = CompletedRequest {
                        id: RequestId(id),
                        model,
                        arrival: SimTime::from_micros(arrival),
                        batch_closed: SimTime::ZERO,
                        exec_start: SimTime::ZERO,
                        completed: SimTime::from_micros(completed),
                        solo_ms: 0.0,
                        hw,
                        batch_size: batch,
                    };
                    let want = reference_done(&c);
                    line.clear();
                    append_done(&mut line, &c);
                    assert_eq!(line, format!("{want}\n"));
                    assert_eq!(done_line(&c), want);
                    let parsed = DoneLine {
                        id,
                        model,
                        arrival_us: arrival,
                        completed_us: completed,
                        latency_us: completed.saturating_sub(arrival),
                        hw,
                        batch,
                    };
                    assert_eq!(parse_server_line(&line), Ok(ServerLine::Done(parsed)));
                }
            }
        }
    }

    /// The parsers accept and refuse exactly what `str::parse` does per
    /// field: a leading `+`, leading zeros and 20-digit values up to
    /// `u64::MAX` are accepted; a sign, one past `u64::MAX`, an empty or
    /// unknown token is refused.
    #[test]
    fn numeric_and_token_fields_parse_as_before() {
        let max = u64::MAX;
        let accepted: [(&str, ServerLine); 4] = [
            (
                "done +5 googlenet 1 2 +1 c6i.2xlarge +3",
                ServerLine::Done(DoneLine {
                    id: 5,
                    model: MlModel::GoogleNet,
                    arrival_us: 1,
                    completed_us: 2,
                    latency_us: 1,
                    hw: InstanceKind::C6i_2xlarge,
                    batch: 3,
                }),
            ),
            (
                "done 18446744073709551615 bert 00000000000000000001 0 0 p3.2xlarge 4294967295",
                ServerLine::Done(DoneLine {
                    id: max,
                    model: MlModel::Bert,
                    arrival_us: 1,
                    completed_us: 0,
                    latency_us: 0,
                    hw: InstanceKind::P3_2xlarge,
                    batch: u32::MAX,
                }),
            ),
            (
                "acc +0 vgg19 18446744073709551615",
                ServerLine::Acc {
                    id: 0,
                    model: MlModel::Vgg19,
                    at_us: max,
                },
            ),
            (
                "  done   7 googlenet 1 2 1 g3s.xlarge 1  ",
                ServerLine::Done(DoneLine {
                    id: 7,
                    model: MlModel::GoogleNet,
                    arrival_us: 1,
                    completed_us: 2,
                    latency_us: 1,
                    hw: InstanceKind::G3s_xlarge,
                    batch: 1,
                }),
            ),
        ];
        for (line, want) in accepted {
            assert_eq!(parse_server_line(line), Ok(want), "{line:?}");
        }
        for line in [
            "done 18446744073709551616 googlenet 1 2 1 g3s.xlarge 1",
            "done -1 googlenet 1 2 1 g3s.xlarge 1",
            "done 1 googlenet 1 2 1 g3s.xlarge 4294967296",
            "done 1 GoogleNet 1 2 1 g3s.xlarge 1",
            "done 1 googlenet 1 2 1 G3s.xlarge 1",
            "done 1 googlenet 1 2 1 g3s.xlarge",
            "done 1 googlenet 1 2 1 g3s.xlarge 1.0",
            "acc 1 googlenet",
            "acc 1 resnet 5",
        ] {
            assert!(parse_server_line(line).is_err(), "{line:?} must be refused");
        }
        assert_eq!(
            parse_client_line("arr +5 +6 +7 googlenet"),
            Ok(ClientLine::Arr(SampledArrival {
                seq: 5,
                id: RequestId(6),
                at: SimTime::from_micros(7),
                model: MlModel::GoogleNet,
            }))
        );
        assert_eq!(
            parse_client_line("arr 18446744073709551615 18446744073709551615 0 bert"),
            Ok(ClientLine::Arr(SampledArrival {
                seq: max,
                id: RequestId(max),
                at: SimTime::ZERO,
                model: MlModel::Bert,
            }))
        );
        assert_eq!(
            parse_client_line("inv funneltransformer"),
            Ok(ClientLine::Inv(MlModel::FunnelTransformer))
        );
        for line in [
            "arr 18446744073709551616 1 0 googlenet",
            "arr 1 -1 0 googlenet",
            "arr 1 1 0 googlenet2",
            "arr 1 1 0",
            "inv",
            "inv Bert",
            "hello replay 1 10 1 g3s googlenet",
            "hello replay 1 10 1 g3s.xlarge googlenet,",
            "hello live +5 vgg19,",
        ] {
            assert!(parse_client_line(line).is_err(), "{line:?} must be refused");
        }
        assert!(matches!(
            parse_client_line("hello live +5 vgg19"),
            Ok(ClientLine::HelloLive(LiveHello { live_secs: 5, .. }))
        ));
    }

    #[test]
    fn garbage_is_rejected_with_field_names() {
        let e = parse_client_line("arr 0 1 notanumber googlenet").unwrap_err();
        assert!(e.contains("at_us"), "error names the field: {e}");
        assert!(parse_client_line("warble").is_err());
        assert!(parse_server_line("warble").is_err());
    }

    #[test]
    fn client_values_at_the_bound_parse_and_one_past_is_refused() {
        use paldia_cluster::replay::REPLAY_BOUND;
        let b = REPLAY_BOUND;
        let hello = |d: u64, r: u64| format!("hello replay 1 {d} {r} g3s.xlarge googlenet");
        parse_client_line(&hello(b, b)).expect("hello at the bound");
        parse_client_line(&format!("arr 0 1 {b} googlenet")).expect("arr at the bound");
        let max_secs = b / 1_000_000;
        parse_client_line(&format!("hello live {max_secs} googlenet")).expect("live at the bound");
        for (line, field) in [
            (hello(b + 1, 1), "duration_us"),
            (hello(1, b + 1), "reserve"),
            (hello(u64::MAX, 1), "duration_us"),
            (format!("arr 0 1 {} googlenet", b + 1), "at_us"),
            (
                format!("hello live {} googlenet", max_secs + 1),
                "live_secs",
            ),
            (format!("hello live {} googlenet", u64::MAX), "live_secs"),
        ] {
            let e = parse_client_line(&line).expect_err("past the bound");
            assert!(
                e.contains(field) && e.contains("replay bound"),
                "{line}: {e}"
            );
        }
    }

    #[test]
    fn trailing_tokens_and_repeated_models_are_refused() {
        for (line, needle) in [
            (
                "hello replay 1 10 1 g3s.xlarge googlenet junk",
                "trailing token `junk`",
            ),
            ("hello live 5 googlenet junk", "trailing token `junk`"),
            ("arr 0 1 10 googlenet x", "trailing token `x`"),
            ("inv googlenet x", "trailing token `x`"),
            ("end now", "trailing token `now`"),
            (
                "hello replay 1 10 1 g3s.xlarge googlenet,resnet50,googlenet",
                "repeated model token `googlenet`",
            ),
            ("hello live 5 googlenet,googlenet", "repeated model token"),
        ] {
            let e = parse_client_line(line).expect_err(needle);
            assert!(e.contains(needle), "{line}: {e}");
        }
    }
}
