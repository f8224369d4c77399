//! The `repro` binary as a pipeline stage: a reader that stops early
//! (`repro ... | head -n 1`) ends the run quietly with status 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_success() {
    // Several experiments, so output is still being written after the
    // reader has gone away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2", "table1", "table2", "wiring", "compile", "fig2"])
        .env("PIFO_REPRO_DEBUG", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");

    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    assert!(!first.is_empty(), "repro printed nothing");
    // The reader (and with it the pipe's read end) is dropped here.

    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "repro panicked on a closed pipe:\n{stderr}"
    );
    assert!(out.status.success(), "exit status {}: {stderr}", out.status);
}
