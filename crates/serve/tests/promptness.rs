//! The serving shell answers without being prodded: every reply it has
//! buffered reaches the client before the server waits — for the next
//! client line, or in a pacing sleep. Each test reads with a socket
//! timeout, so a reply held back in the server's buffer fails the test
//! instead of hanging it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use paldia_cluster::model_token;
use paldia_experiments::diffcap::PrimaryScenario;
use paldia_obs::VecSink;
use paldia_serve::proto::{self, ServerLine};
use paldia_serve::{serve_once, ServeOpts, ServeOutcome};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// A server for one traced session at `speed`, and a client connected to
/// it whose reads give up after `timeout`.
fn session(
    speed: f64,
    timeout: Duration,
) -> (
    JoinHandle<Result<ServeOutcome, String>>,
    TcpStream,
    BufReader<TcpStream>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let mut sink = VecSink::new();
        serve_once(&listener, &ServeOpts { speed }, Some(&mut sink))
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (server, stream, reader)
}

/// The next reply; panics when none arrives within the read timeout.
fn next_reply(reader: &mut BufReader<TcpStream>, waiting_for: &str) -> ServerLine {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => proto::parse_server_line(line.trim_end()).expect("reply parses"),
        other => panic!("no reply while waiting for {waiting_for}: {other:?}"),
    }
}

/// Read replies up to `bye`, returning whether a summary came first.
fn read_to_bye(reader: &mut BufReader<TcpStream>) -> bool {
    let mut summary = false;
    loop {
        match next_reply(reader, "bye") {
            ServerLine::Summary(_) => summary = true,
            ServerLine::Bye => return summary,
            _ => {}
        }
    }
}

#[test]
fn live_inv_is_answered_without_another_client_byte() {
    // An hour-long horizon: nothing but the serving loop's own flushes can
    // deliver `acc` and `done` within the read timeout.
    let (server, mut stream, mut reader) = session(20.0, Duration::from_secs(10));
    let model = model_token(MlModel::GoogleNet);
    writeln!(stream, "hello live 3600 {model}").expect("send hello");
    assert!(matches!(
        next_reply(&mut reader, "ready"),
        ServerLine::Ready
    ));

    writeln!(stream, "inv {model}").expect("send inv");
    let id = match next_reply(&mut reader, "acc") {
        ServerLine::Acc { id, .. } => id,
        other => panic!("expected acc, got {other:?}"),
    };
    match next_reply(&mut reader, "done") {
        ServerLine::Done(d) => assert_eq!(d.id, id, "the done answers the inv"),
        other => panic!("expected done, got {other:?}"),
    }

    writeln!(stream, "end").expect("send end");
    assert!(read_to_bye(&mut reader), "summary before bye");
    // The server's reader thread exits on our close.
    drop((stream, reader));
    let outcome = server.join().expect("no panic").expect("session reports");
    assert_eq!(outcome.result.completed.len(), 1);
}

#[test]
fn a_client_reading_to_eof_sees_the_server_close() {
    // The client keeps its write half open and reads until EOF: the server
    // must half-close after `bye`, or the read times out.
    let (server, mut stream, mut reader) = session(20.0, Duration::from_secs(5));
    let model = model_token(MlModel::GoogleNet);
    writeln!(stream, "hello live 30 {model}\ninv {model}\nend").expect("send lines");
    let mut replies = String::new();
    reader
        .read_to_string(&mut replies)
        .expect("the server closes its side after bye");
    assert!(replies.starts_with("ready\n"), "{replies}");
    assert!(replies.ends_with("\nbye\n"), "{replies}");
    assert!(!replies.contains("\nerr "), "{replies}");
    drop((stream, reader));
    let outcome = server.join().expect("no panic").expect("session reports");
    assert_eq!(
        outcome.result.completed.len() as u64 + outcome.result.unserved,
        1
    );
}

#[test]
fn slow_replay_delivers_done_lines_while_pacing() {
    // Every arrival is sent at once, so the server's channel only runs dry
    // once it has taken the last one. That one is due 3 s of wall after
    // the others (150 virtual seconds at 50x): a `done` for an early
    // arrival arrives within the 1.5 s read timeout only if the server
    // flushes before its pacing sleeps.
    let speed = 50.0;
    let mut trace = PrimaryScenario {
        capture_secs: 30,
        ..PrimaryScenario::quick(42)
    }
    .replay_trace()
    .truncated(5);
    let last = trace.arrivals.last_mut().expect("fixture has arrivals");
    last.at = SimTime::from_secs(150);
    trace.duration = SimDuration::from_secs(151);

    let (server, mut stream, mut reader) = session(speed, Duration::from_millis(1500));
    writeln!(stream, "{}", proto::hello_replay_line(&trace)).expect("send hello");
    assert!(matches!(
        next_reply(&mut reader, "ready"),
        ServerLine::Ready
    ));
    for sa in &trace.arrivals {
        writeln!(stream, "{}", proto::arr_line(sa)).expect("send arr");
    }
    loop {
        match next_reply(&mut reader, "a done line before end") {
            ServerLine::Done(_) => break,
            ServerLine::Err(e) => panic!("server refused the replay: {e}"),
            _ => {}
        }
    }

    writeln!(stream, "end").expect("send end");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    assert!(read_to_bye(&mut reader), "summary before bye");
    // The server's reader thread exits on our close.
    drop((stream, reader));
    let outcome = server.join().expect("no panic").expect("session reports");
    assert!(
        outcome.protocol_errors.is_empty(),
        "{:?}",
        outcome.protocol_errors
    );
}
