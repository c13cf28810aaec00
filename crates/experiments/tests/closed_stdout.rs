//! `repro` whose reader goes away early (`repro | head -1`) ends quietly:
//! no panic, and the documented exit status [`BROKEN_PIPE_EXIT`] rather
//! than Rust's 101.

use paldia_experiments::cli::BROKEN_PIPE_EXIT;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn repro_stops_quietly_when_stdout_closes() {
    // The banner comes before the experiment runs, the reports after it,
    // so the reports are written into a pipe that is already closed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "fig6"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut first).expect("read");
    assert!(
        first.starts_with("Paldia reproduction harness"),
        "banner: {first:?}"
    );
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(
        out.status.code(),
        Some(BROKEN_PIPE_EXIT),
        "stderr: {stderr}"
    );
}
