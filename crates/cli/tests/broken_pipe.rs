//! A reader that stops early (`gv demo | head -1`) closes the pipe under
//! the CLI; `gv` must treat that as a normal end, not panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gv"))
        .args(["demo", "--dataset", "ecg0606"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gv");
    let mut first = String::new();
    // The reader, and with it the pipe's read end, drops after this line;
    // the density and RRA tables are still to be written.
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("dataset:"), "{first}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    assert_eq!(status.code(), Some(0), "{stderr}");
}
