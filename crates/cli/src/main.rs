//! `gv` — a text-mode GrammarViz: grammar-based variable-length time
//! series anomaly discovery from the command line.
//!
//! ```text
//! gv density --file data.csv --window 150 --paa 5 --alphabet 3 [--top K]
//! gv rra     --file data.csv --window 150 --paa 5 --alphabet 3 [--top K]
//! gv hotsax  --file data.csv --window 150 [--paa 3] [--alphabet 3] [--top K]
//! gv grammar --file data.csv --window 150 --paa 5 --alphabet 3 [--limit N]
//! gv demo    --dataset ecg0606|power|video|tek14|tek16|tek17|nprs43|commute
//! gv lint    [--root DIR]   # the gv-lint static-analysis gate
//! ```
//!
//! Input files are single-column CSV (use `--column` to select another
//! column). The `density` and `rra` subcommands replace the two anomaly
//! panes of the GrammarViz 2.0 GUI (paper Figures 11–12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;

/// The one stdout writer every subcommand prints through. A reader that
/// closed the pipe early (`gv demo | head -1`) has all it asked for, so
/// `BrokenPipe` ends the process quietly with status 0; any other write
/// error exits 1 with a `gv:` diagnostic instead of panicking like
/// `println!`.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("gv: writing stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gv: {e}");
            ExitCode::FAILURE
        }
    }
}
