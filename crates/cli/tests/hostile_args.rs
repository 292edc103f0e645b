//! Hostile option values must be refused like any other bad input: exit
//! status 1 and one `gv: ...` line naming the bad parameter on stderr —
//! never a panic (status 101), never a run that quietly succeeds.

use std::process::Command;

/// Runs `gv` on the 2,000-point fixture with `args` appended and returns
/// (exit code, stdout, stderr).
fn gv(args: &[&str]) -> (Option<i32>, String, String) {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/monitor_sine.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_gv"))
        .args(&args[..1])
        .args(["--file", fixture])
        .args(&args[1..])
        .output()
        .expect("spawn gv");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn hostile_values_exit_1_with_a_message() {
    let window_zero = "gv: invalid parameter: window must be at least 1";
    let k_zero = "gv: invalid parameter: k = 0";
    let cases: [(&[&str], &str); 10] = [
        (
            &["stream", "--window", "100", "--check-every", "0"],
            "gv: --check-every must be at least 1",
        ),
        (&["explain", "--window", "100", "--top", "0"], k_zero),
        (&["motifs", "--window", "100", "--top", "0"], k_zero),
        (&["wcad", "--window", "100", "--top", "0"], k_zero),
        (
            &[
                "monitor",
                "--window",
                "100",
                "--out",
                "/nonexistent/dir/m.jsonl",
            ],
            "gv: --out /nonexistent/dir/m.jsonl: ",
        ),
        (&["rra", "--window", "0"], window_zero),
        (&["density", "--window", "0"], window_zero),
        (&["stream", "--window", "0"], window_zero),
        (&["monitor", "--window", "0"], window_zero),
        (&["wcad", "--window", "0"], window_zero),
    ];
    for (args, message) in cases {
        let (code, stdout, stderr) = gv(args);
        assert_eq!(code, Some(1), "gv {args:?}: {stderr}");
        assert!(stderr.starts_with(message), "gv {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "gv {args:?}: {stderr}");
        assert!(stdout.is_empty(), "gv {args:?} printed: {stdout}");
    }
}
