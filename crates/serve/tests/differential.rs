//! The serving shell's differential gate (DESIGN.md §14): the wall-clock
//! shell over loopback TCP and the virtual-clock session must produce
//! divergence-free decision streams — in both diff directions — and
//! agreeing attribution rollups, on a recorded trace.
//!
//! The inner half (virtual session ≡ batch engine) is proven in
//! `crates/cluster/tests/session_replay.rs`; this is the outer half.

use paldia_cluster::RecordedTrace;
use paldia_experiments::diffcap::PrimaryScenario;
use paldia_obs::TraceAttribution;
use paldia_serve::run_differential;

/// The replay trace of the first 30 s of the quick scenario.
fn capture_30s() -> RecordedTrace {
    PrimaryScenario {
        capture_secs: 30,
        ..PrimaryScenario::quick(42)
    }
    .replay_trace()
}

#[test]
fn shell_and_sim_decision_streams_are_divergence_free() {
    // 30 s of the quick capture, first 150 requests, 400x compressed:
    // about a hundred wall-milliseconds of pacing.
    let trace = capture_30s().truncated(150);
    assert!(!trace.arrivals.is_empty(), "capture must produce arrivals");

    let o = run_differential(&trace, 400.0, 0).expect("differential runs");

    // The gate proper: empty diffs both ways, and the stronger full-stream
    // byte identity.
    assert!(
        o.forward.is_empty(),
        "shell vs sim diverged: {:?}",
        o.forward.first()
    );
    assert!(
        o.backward.is_empty(),
        "sim vs shell diverged: {:?}",
        o.backward.first()
    );
    assert!(o.events_identical, "full event streams must byte-match");
    assert!(
        o.shell.protocol_errors.is_empty(),
        "clean protocol: {:?}",
        o.shell.protocol_errors
    );
    assert!(
        o.stats.errors.is_empty(),
        "clean client: {:?}",
        o.stats.errors
    );

    // The closed loop accounted for every request.
    assert_eq!(o.stats.sent, trace.arrivals.len());
    assert_eq!(o.stats.done.len(), o.sim_result.completed.len());
    let summary = o.stats.summary.expect("server sends a summary");
    assert_eq!(summary.completed, o.sim_result.completed.len() as u64);
    assert_eq!(summary.unserved, o.sim_result.unserved);

    // Wall stamps cover every decision event, in emission order.
    assert_eq!(o.shell.stamps.len(), o.shell.events.len());
    assert!(o
        .shell
        .stamps
        .windows(2)
        .all(|w| w[0].wall_us <= w[1].wall_us));

    // Attribution rollups from the two streams agree on every shared
    // integer component (request identity, scope, model, batch).
    let a = TraceAttribution::from_events(&o.shell.events);
    let b = TraceAttribution::from_events(&o.sim_events);
    assert_eq!(a.requests.len(), b.requests.len());
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.request, y.request);
        assert_eq!(x.scope, y.scope);
        assert_eq!(x.model, y.model);
        assert_eq!(x.batch, y.batch);
    }
    let ra = a.rollup(None).expect("shell rollup");
    let rb = b.rollup(None).expect("sim rollup");
    assert_eq!(ra.requests, rb.requests);

    assert!(o.pass(), "the composed gate verdict agrees");
}

#[test]
fn server_rejects_garbage_hello() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let opts = paldia_serve::ServeOpts { speed: 1.0 };
    let server = std::thread::spawn(move || paldia_serve::serve_once(&listener, &opts));

    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "warble florp").expect("send garbage");
    stream.flush().expect("flush");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(
        reply.starts_with("err"),
        "server names the protocol error: {reply:?}"
    );
    drop(stream);
    assert!(server.join().expect("no panic").is_err());
}

/// A line of `MAX_LINE` bytes with no newline is refused with `err line
/// too long`, before `hello` (the session ends unbuilt) and mid-replay
/// (the replay ends, then drains and reports). The line is exactly the
/// cap, so the server reads every byte sent and closes without a reset.
#[test]
fn server_refuses_an_over_long_line() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let trace = capture_30s().truncated(3);
    let hello = paldia_serve::proto::hello_replay_line(&trace);
    for (prefix, replies) in [
        (String::new(), &["err line too long", "bye"][..]),
        (
            format!("{hello}\n"),
            &["ready", "err line too long", "summary", "bye"][..],
        ),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let opts = paldia_serve::ServeOpts { speed: 1e6 };
        let server = std::thread::spawn(move || paldia_serve::serve_once(&listener, &opts));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream.write_all(prefix.as_bytes()).expect("send prefix");
        stream
            .write_all(&vec![b'a'; paldia_serve::server::MAX_LINE])
            .expect("send an over-long line");
        let got: Vec<String> = BufReader::new(&stream)
            .lines()
            .map(|l| l.expect("read reply"))
            .collect();
        assert_eq!(got.len(), replies.len(), "{got:?}");
        for (line, want) in got.iter().zip(replies) {
            assert!(line.starts_with(want), "{line:?} vs {want:?} in {got:?}");
        }
        drop(stream);
        let outcome = server.join().expect("no panic");
        match outcome {
            Ok(o) => assert!(
                !prefix.is_empty() && o.protocol_errors.iter().any(|e| e == "line too long"),
                "{:?}",
                o.protocol_errors
            ),
            Err(e) => assert!(prefix.is_empty() && e == "line too long", "{e}"),
        }
    }
}

/// Malformed replays over loopback: an arrival seq outside the reserved
/// block, a seq sent twice, an arrival not after the previous one, an
/// arrival earlier than the session's now (the driver only steps events
/// before the next arrival, so on the wire such an arrival is also out of
/// order), and an arrival for a model the hello did not declare. The
/// server answers `err` naming the seq, ends the replay, still drains and
/// reports — and never panics.
#[test]
fn server_refuses_malformed_replays_without_panic() {
    use paldia_cluster::SampledArrival;
    use std::net::TcpListener;

    let base = capture_30s().truncated(6);
    let a = base.arrivals.clone();
    assert!(a.len() >= 4, "fixture needs a few arrivals");
    let with_seq = |sa: SampledArrival, seq: u64| SampledArrival { seq, ..sa };
    let with_at = |sa: SampledArrival, from: SampledArrival| SampledArrival { at: from.at, ..sa };
    let resnet = |sa: SampledArrival| SampledArrival {
        model: paldia_workloads::MlModel::ResNet50,
        ..sa
    };
    let cases: [(&str, Vec<SampledArrival>, u64); 5] = [
        (
            "seq outside the reserved block",
            vec![a[0], with_seq(a[1], base.reserve)],
            base.reserve,
        ),
        (
            "seq sent twice",
            vec![a[0], a[1], with_at(a[1], a[2])],
            a[1].seq,
        ),
        ("arrival out of order", vec![a[0], a[2], a[1]], a[1].seq),
        (
            "arrival earlier than now",
            vec![a[0], a[1], a[2], with_at(a[3], a[0])],
            a[3].seq,
        ),
        (
            "model the session does not serve",
            vec![a[0], resnet(a[1])],
            a[1].seq,
        ),
    ];
    for (label, arrivals, bad_seq) in cases {
        let mut trace = base.clone();
        trace.arrivals = arrivals;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let opts = paldia_serve::ServeOpts { speed: 1e6 };
        let server = std::thread::spawn(move || paldia_serve::serve_once(&listener, &opts));
        let stats = paldia_serve::replay_trace(addr, &trace, 1e6).expect("client runs");
        let outcome = server
            .join()
            .expect("server thread does not panic")
            .expect("server reports the session");
        let named = format!("seq {bad_seq} ");
        assert!(
            stats.errors.iter().any(|e| e.contains(&named)),
            "{label}: client saw an err naming {named:?}: {:?}",
            stats.errors
        );
        assert!(
            outcome.protocol_errors.iter().any(|e| e.contains(&named)),
            "{label}: server recorded the refusal: {:?}",
            outcome.protocol_errors
        );
        assert!(
            stats.summary.is_some(),
            "{label}: the session still reports"
        );
    }
}

/// A live client invoking a model its hello did not declare gets `err`
/// naming the model; the server records it and keeps serving.
#[test]
fn live_server_refuses_an_unserved_model_and_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let opts = paldia_serve::ServeOpts { speed: 1.0 };
    let server = std::thread::spawn(move || paldia_serve::serve_once(&listener, &opts));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let timeout = std::time::Duration::from_secs(10);
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    writeln!(
        stream,
        "hello live 3600 googlenet\ninv resnet50\ninv googlenet\nend"
    )
    .expect("send");
    // The server's reader thread exits on our close, after `end`.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("close the write half");
    let replies: Vec<String> = BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .collect();
    let kinds: Vec<&str> = replies.iter().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(
        kinds,
        ["ready", "err", "acc", "done", "summary", "bye"],
        "{replies:?}"
    );
    assert!(
        replies[1].contains("resnet50"),
        "the err names the model: {replies:?}"
    );
    let outcome = server.join().expect("no panic").expect("session reports");
    assert!(outcome
        .protocol_errors
        .iter()
        .any(|e| e.contains("resnet50")));
    assert_eq!(
        outcome.result.completed.len(),
        1,
        "the served inv completes"
    );
}
