//! A report binary whose reader goes away early (`paldia-run ... | head`)
//! ends quietly: no panic, and the documented exit status
//! `experiments::cli::BROKEN_PIPE_EXIT` rather than Rust's 101.

use paldia::experiments::cli::BROKEN_PIPE_EXIT;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn paldia_run_stops_quietly_when_stdout_closes() {
    // The header line comes before the simulation, the report after it, so
    // the report is written into a pipe that is already closed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_paldia-run"))
        .args(["--scheme", "molecule-p", "--trace", "wiki"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn paldia-run");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut first).expect("read");
    assert!(first.contains("wiki trace"), "header line: {first:?}");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().expect("wait for paldia-run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(
        out.status.code(),
        Some(BROKEN_PIPE_EXIT),
        "stderr: {stderr}"
    );
}
