//! The CI lint gate: lints the workspace, prints the report with its
//! per-rule tally (or as SARIF 2.1.0 for code-scanning upload), and
//! exits non-zero on any violation.
//!
//! ```text
//! gv_lint [--root PATH] [--format text|sarif]
//! ```
//!
//! With no `--root`, walks upward from the current directory to the first
//! `Cargo.toml` declaring `[workspace]` — so it runs identically from the
//! repo root, a crate directory, or a CI checkout.

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Cli {
    root: Option<PathBuf>,
    sarif: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("gv_lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = match cli.root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("gv_lint: {e}");
                    return ExitCode::from(2);
                }
            };
            match gv_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("gv_lint: no workspace root above current directory");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match gv_lint::run(&root) {
        Ok(report) => {
            if cli.sarif {
                print!("{}", gv_lint::sarif::render(&report));
            } else {
                print!("{}", gv_lint::report::render(&report));
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gv_lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        root: None,
        sarif: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let path = it.next().ok_or("--root needs a value")?;
                cli.root = Some(PathBuf::from(path));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("text") => cli.sarif = false,
                Some("sarif") => cli.sarif = true,
                Some(other) => return Err(format!("unknown --format {other:?} (text|sarif)")),
                None => return Err("--format needs a value".to_string()),
            },
            _ => return Err("usage: gv_lint [--root PATH] [--format text|sarif]".to_string()),
        }
    }
    Ok(cli)
}
