//! `cli-rra-ecg`: one `gv rra` process at a time on 20,000-point ECG
//! CSVs, timed from spawn to exit with stdout drained. It is the only
//! workload that pays process start, CSV parsing and text rendering —
//! what a user of the CLI waits for — and discretization (~28 %) and
//! search (~54 %) share it, so it shows whether a layer gain reaches the
//! user in proportion to its share.

use std::hint::black_box;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use gv_datasets::ecg::ecg_record;
use gv_datasets::Dataset;
use gv_timeseries::{read_csv_column, write_csv_column};
use gva_core::obs::NoopRecorder;
use gva_core::{viz, Detector, PipelineConfig, RraReport, SeriesView, Workspace};

use crate::closed::ClosedLoop;
use crate::layers::{self, KernelProbe, Layers};
use crate::{host, input_seed, print_hits};

const WINDOW: usize = 300;
const K: usize = 3;
/// `gv`'s default rendering width.
const WIDTH: usize = 100;
/// CSVs per run. Search cost swings widely between generated records, so
/// the run averages over many.
const INPUTS: usize = 64;

/// Input `input` of `seed` (seed 0, input 0 is the preset record).
pub fn dataset(seed: u64, input: usize) -> Dataset {
    ecg_record("ecg20k", 20_000, WINDOW, 3, input_seed(0x300, seed, input))
}

fn config() -> PipelineConfig {
    PipelineConfig::new(WINDOW, 4, 4).expect("preset SAX parameters are valid")
}

/// A set-up CLI workload: the CSVs on disk and the `gv` binary to run.
pub struct Cli {
    gv: PathBuf,
    dir: PathBuf,
    data: Vec<Dataset>,
    ws: Workspace,
    /// The first stdout on each input, for the oracles.
    first_stdout: Vec<Option<Vec<u8>>>,
    last_child_wait_ns: u64,
}

impl Cli {
    /// Generates the records and writes each as a one-column CSV.
    pub fn setup(gv: &Path, seed: u64) -> Result<Self, String> {
        let dir = host::scratch_dir("cli")?;
        let data: Vec<Dataset> = (0..INPUTS).map(|i| dataset(seed, i)).collect();
        let w = Self {
            gv: gv.to_path_buf(),
            dir,
            data,
            ws: Workspace::new(),
            first_stdout: vec![None; INPUTS],
            last_child_wait_ns: 0,
        };
        for (i, d) in w.data.iter().enumerate() {
            write_csv_column(w.csv(i), &d.series).map_err(|e| e.to_string())?;
        }
        Ok(w)
    }

    fn csv(&self, input: usize) -> PathBuf {
        self.dir.join(format!("ecg20k-{input}.csv"))
    }

    fn rra_command(&self, program: Command, input: usize) -> Command {
        let mut cmd = program;
        cmd.arg("rra")
            .arg("--file")
            .arg(self.csv(input))
            .args(["--window", &WINDOW.to_string()])
            .args(["--paa", "4", "--alphabet", "4", "--top", &K.to_string()])
            .args(["--threads", "1"]);
        cmd
    }

    /// Runs `cmd` to exit with stdout drained; records the child's
    /// runqueue wait.
    fn run(&mut self, mut cmd: Command) -> Result<Vec<u8>, String> {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.gv.display()))?;
        let mut out = Vec::new();
        if let Some(mut stdout) = child.stdout.take() {
            stdout
                .read_to_end(&mut out)
                .map_err(|e| format!("read gv stdout: {e}"))?;
        }
        // Stdout closes as the child exits; until it is reaped its
        // scheduler statistics stay readable.
        self.last_child_wait_ns = host::wait_ns(&child.id().to_string()).unwrap_or(0);
        let status = child.wait().map_err(|e| format!("wait gv: {e}"))?;
        if !status.success() {
            return Err(format!("gv exited with {status}"));
        }
        Ok(out)
    }

    /// In-process RRA on a CSV as `gv` parses it.
    fn reference(&self, input: usize) -> Result<(String, Vec<f64>, RraReport), String> {
        let series = read_csv_column(self.csv(input), 0).map_err(|e| e.to_string())?;
        let report = layers::rra_detector(&config(), K)
            .detect(
                &SeriesView::new(series.values()),
                &mut Workspace::new(),
                &NoopRecorder,
            )
            .map_err(|e| e.to_string())?
            .to_rra();
        Ok((series.name().to_string(), series.into_values(), report))
    }
}

impl Drop for Cli {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The report text `gv rra` prints, rendered in-process.
fn render(name: &str, values: &[f64], report: &RraReport) -> String {
    let intervals: Vec<_> = report.discords.iter().map(|d| d.interval()).collect();
    format!(
        "series: {name} ({} points)\nsignal : {}\ndiscord: {}\n\n{}\n{} candidates, {} distance calls ({} abandoned early)\n",
        values.len(),
        viz::sparkline(values, WIDTH),
        viz::marker_row(values.len(), &intervals, WIDTH),
        viz::rra_table(report),
        report.num_candidates,
        report.stats.distance_calls,
        report.stats.early_abandoned
    )
}

impl ClosedLoop for Cli {
    fn inputs(&self) -> usize {
        INPUTS
    }

    fn points(&self, input: usize) -> usize {
        self.data[input].series.len()
    }

    fn op(&mut self, input: usize) -> Result<u64, String> {
        let out = self.run(self.rra_command(Command::new(&self.gv), input))?;
        let digest = layers::fnv1a(out.iter().copied());
        self.first_stdout[input].get_or_insert(out);
        Ok(digest)
    }

    fn traced_op(&mut self, input: usize, l: &mut Layers) -> Result<u64, String> {
        let t = Instant::now();
        let mut help = Command::new(&self.gv);
        help.arg("help");
        self.run(help)?;
        l.exec_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let series = read_csv_column(self.csv(input), 0).map_err(|e| e.to_string())?;
        l.parse_ns = t.elapsed().as_nanos() as u64;

        let report = layers::rra(series.values(), &config(), K, &mut self.ws, l)?;

        let t = Instant::now();
        black_box(render(series.name(), series.values(), &report));
        l.render_ns = t.elapsed().as_nanos() as u64;
        Ok(layers::digest_rra(&report))
    }

    fn child_wait_ns(&self) -> u64 {
        self.last_child_wait_ns
    }

    fn verify(&mut self, input: usize, _op: u64, traced: Option<u64>) -> Result<(), String> {
        let (name, values, reference) = self.reference(input)?;
        let stdout = self.first_stdout[input].as_deref().ok_or("no op ran")?;
        if stdout != render(&name, &values, &reference).as_bytes() {
            return Err("gv's report differs from in-process RRA on the parsed CSV".into());
        }
        if traced.is_some_and(|t| t != layers::digest_rra(&reference)) {
            return Err("the decomposed op disagrees with in-process RRA".into());
        }
        if input == 0 {
            print_hits(
                &self.data[0],
                reference.discords.iter().map(|d| d.interval()),
            );
        }
        Ok(())
    }

    /// The same reading as `host::probe_rss_mb`, taken from the `gv`
    /// processes themselves.
    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let mut mb = Vec::new();
        for input in 0..host::PROBE_INPUTS {
            let mut cmd = self.rra_command(host::without_aslr(&self.gv), input);
            let (ok, kb) = host::run_polling_rss(&mut cmd)?;
            if !ok {
                return Err("gv failed under the RSS probe".into());
            }
            mb.push(kb as f64 / 1024.0);
        }
        Ok(crate::stats::median(&mb))
    }

    fn kernel_probe(&mut self) -> Result<Option<KernelProbe>, String> {
        let values = self.data[0].series.values();
        let model = self
            .ws
            .build_model(&config(), values, &NoopRecorder)
            .map_err(|e| e.to_string())?;
        let candidates = layers::search_candidates(&model);
        self.ws.recycle_model(model);
        Ok(Some(layers::kernel_probe(values, &candidates, WINDOW)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_preset() {
        let preset = ecg_record("ecg20k", 20_000, 300, 3, 0x300);
        assert_eq!(dataset(0, 0).series.values(), preset.series.values());
        assert_ne!(dataset(0, 1).series.values(), preset.series.values());
    }

    /// One `gv rra` op and its oracles: stdout is byte for byte the report
    /// rendered from in-process RRA. Needs a `gv` binary beside the test
    /// executable; without one the test reports itself skipped.
    #[test]
    fn cli_workload_passes_its_oracles() {
        let Some(gv) = host::gv_binary() else {
            eprintln!("skipped: no gv binary beside the test executable");
            return;
        };
        let mut w = Cli::setup(&gv, 0).unwrap();
        let op = w.op(2).unwrap();
        let mut l = Layers::default();
        let traced = w.traced_op(2, &mut l).unwrap();
        w.verify(2, op, Some(traced)).unwrap();
        assert!(l.exec_ns > 0 && l.parse_ns > 0 && l.render_ns > 0);
    }
}
