//! Host facts and `/proc` readings: scheduler wait, peak resident memory,
//! and where the `gv` binary and scratch files live.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use serde::Value;

/// Runqueue wait (ns) of `task`, the second field of
/// `/proc/<task>/schedstat` (`thread-self` for the calling thread).
pub fn wait_ns(task: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{task}/schedstat")).ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// This thread's runqueue wait since `start` (a [`wait_ns`] reading), plus
/// `extra`, as a share of `wall_ns`; 0 where schedstat is unavailable.
pub fn wait_share(start: Option<u64>, extra: u64, wall_ns: f64) -> f64 {
    match (start, wait_ns("thread-self")) {
        (Some(w0), Some(w1)) => (w1.saturating_sub(w0) + extra) as f64 / wall_ns,
        _ => 0.0,
    }
}

/// `VmHWM` (peak resident set) of process `pid`, in kB; `None` once the
/// process has exited.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Runs `cmd` to completion, output discarded, polling its `VmHWM` while
/// it runs. Returns whether it succeeded and the last peak seen in kB (the
/// peak is monotone, so the last reading before exit is the process's peak
/// up to its final millisecond).
pub fn run_polling_rss(cmd: &mut Command) -> Result<(bool, u64), String> {
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id().to_string();
    let mut peak = 0;
    while let Some(kb) = vm_hwm_kb(&pid) {
        peak = peak.max(kb);
        std::thread::sleep(Duration::from_millis(1));
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    Ok((status.success(), peak))
}

/// The directory holding this executable (`target/release` for the
/// benchmark, `target/<profile>/deps` for its tests).
fn exe_dir() -> Option<PathBuf> {
    std::env::current_exe()
        .ok()?
        .parent()
        .map(Path::to_path_buf)
}

/// The `gv` binary built beside this executable, if any.
pub fn gv_binary() -> Option<PathBuf> {
    let dir = exe_dir()?;
    [dir.join("gv"), dir.parent()?.join("gv")]
        .into_iter()
        .find(|p| p.is_file())
}

/// A fresh scratch directory inside the build directory, unique to this
/// call.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = exe_dir()
        .ok_or("cannot locate the executable")?
        .join("gvbench-work")
        .join(format!("{tag}-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A command for `program` with address-space layout randomisation off
/// (through `setarch -R` where the host has it). Peak RSS then repeats to
/// the kilobyte; with randomisation on it moves by tens of kB between
/// identical runs.
pub fn without_aslr(program: &Path) -> Command {
    static SETARCH: OnceLock<bool> = OnceLock::new();
    let setarch = *SETARCH.get_or_init(|| {
        Command::new("setarch")
            .args(["-R", "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    });
    if setarch {
        let mut cmd = Command::new("setarch");
        cmd.arg("-R").arg(program);
        cmd
    } else {
        Command::new(program)
    }
}

/// Peak RSS in MB of one op of `workload`, run in a fresh child process
/// (`gvbench --rss-probe`) so the reading excludes the benchmark's own
/// buffers: the median over the first [`PROBE_INPUTS`] inputs, one process
/// each.
pub fn probe_rss_mb(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut mb = Vec::new();
    for input in 0..PROBE_INPUTS {
        let out = without_aslr(&exe)
            .args(["--rss-probe", workload])
            .args(["--seed", &seed.to_string(), "--input", &input.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("rss probe: {e}"))?;
        if !out.status.success() {
            return Err(format!("rss probe for {workload} failed"));
        }
        let kb: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| "rss probe printed no number".to_string())?;
        mb.push(kb / 1024.0);
    }
    Ok(crate::stats::median(&mb))
}

/// Probe processes per reading, one input each. A median over several is
/// needed even without address randomisation: the stream's peak moves
/// between processes, because its hash tables grow at points that depend
/// on each process's hash seed once eviction deletes entries.
pub const PROBE_INPUTS: usize = 8;

/// Prints this process's peak RSS in kB — the child side of
/// [`probe_rss_mb`].
pub fn print_own_peak_rss() -> Result<(), String> {
    let kb = vm_hwm_kb("self").ok_or("VmHWM unavailable")?;
    println!("{kb}");
    Ok(())
}

/// Facts about the host and toolchain that explain run-to-run spread.
pub fn facts() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let s = |v: String| Value::Str(v);
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc)),
        ("cpu".into(), s(cpu)),
        ("l2".into(), s(cache_size(2))),
        ("l3".into(), s(cache_size(3))),
        ("rustc".into(), s(command_line("rustc", &["--version"]))),
        (
            "git_sha".into(),
            s(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Size of the CPU 0 cache at `level` (unified or data), from sysfs.
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|dir| {
            let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
            read("level").trim() == level.to_string() && read("type").trim() != "Instruction"
        })
        .and_then(|dir| std::fs::read_to_string(dir.join("size")).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
