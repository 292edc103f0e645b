//! The in-process closed-loop workloads.
//!
//! * `rra-nprs44` — `RraDetector::detect`, top-3, on NPRS 44 respiration
//!   analogues (24,125 points, W=128, P=5, A=4). The search is ~86 % of
//!   the op and most candidate pairs take the resampled kernel, so RRA and
//!   kernel changes show at full strength; discretizer changes at about a
//!   tenth.
//! * `density-power` — `DensityDetector::detect`, top-3, on Dutch
//!   power-demand analogues (35,040 points, W=750, P=6, A=3).
//!   Discretization is ~96 % of the op and no distance is ever computed,
//!   so discretizer changes show at full strength and every RRA or kernel
//!   change must read as no change.

use gv_datasets::power::{self, PowerParams};
use gv_datasets::respiration::{self, RespirationParams};
use gv_datasets::Dataset;
use gva_core::obs::NoopRecorder;
use gva_core::{
    reference_nn, DensityDetector, Detector, GrammarModel, PipelineConfig, Report, SeriesView,
    Workspace,
};

use crate::closed::ClosedLoop;
use crate::layers::{self, KernelProbe, Layers};
use crate::{host, input_seed, print_hits};

/// Ranked anomalies each op reports.
const K: usize = 3;

/// Which detector a batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rra,
    Density,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rra => "rra-nprs44",
            Kind::Density => "density-power",
        }
    }

    /// Inputs per run: enough that the input-balanced op time varies by a
    /// few percent between seeds. RRA cost swings with the series (the
    /// search prunes better on some than others); density cost barely
    /// does.
    fn inputs(self) -> usize {
        match self {
            Kind::Rra => 32,
            Kind::Density => 8,
        }
    }

    /// Input `input` of `seed` (seed 0, input 0 is the preset dataset).
    pub fn dataset(self, seed: u64, input: usize) -> Dataset {
        match self {
            Kind::Rra => respiration::generate(RespirationParams {
                len: 24_125,
                apneas: vec![(15_000, 180)],
                seed: input_seed(0x4E6, seed, input),
                ..RespirationParams::default()
            }),
            Kind::Density => power::generate(PowerParams {
                seed: input_seed(0x9077, seed, input),
                ..PowerParams::default()
            }),
        }
    }

    fn config(self) -> PipelineConfig {
        let (w, p, a) = match self {
            Kind::Rra => (128, 5, 4),
            Kind::Density => (750, 6, 3),
        };
        PipelineConfig::new(w, p, a).expect("preset SAX parameters are valid")
    }

    fn detector(self) -> Box<dyn Detector> {
        match self {
            Kind::Rra => Box::new(layers::rra_detector(&self.config(), K)),
            Kind::Density => Box::new(DensityDetector::new(self.config(), K)),
        }
    }
}

/// A set-up batch workload: inputs, detector, and a reused workspace.
pub struct Batch {
    kind: Kind,
    seed: u64,
    data: Vec<Dataset>,
    config: PipelineConfig,
    detector: Box<dyn Detector>,
    ws: Workspace,
    /// The first report on each input, for the oracles.
    first: Vec<Option<Report>>,
}

impl Batch {
    /// Generates the inputs and builds the detector.
    pub fn setup(kind: Kind, seed: u64) -> Result<Self, String> {
        let n = kind.inputs();
        Ok(Self {
            kind,
            seed,
            data: (0..n).map(|i| kind.dataset(seed, i)).collect(),
            config: kind.config(),
            detector: kind.detector(),
            ws: Workspace::new(),
            first: vec![None; n],
        })
    }

    fn values(&self, input: usize) -> &[f64] {
        self.data[input].series.values()
    }

    /// An input's grammar model, built outside any timed region.
    fn model(&self, input: usize) -> Result<GrammarModel, String> {
        Workspace::new()
            .build_model(&self.config, self.values(input), &NoopRecorder)
            .map_err(|e| e.to_string())
    }
}

/// Child side of the RSS probe: one op on `input`.
pub fn probe(kind: Kind, seed: u64, input: usize) -> Result<(), String> {
    let data = kind.dataset(seed, input);
    kind.detector()
        .detect(
            &SeriesView::new(data.series.values()),
            &mut Workspace::new(),
            &NoopRecorder,
        )
        .map_err(|e| e.to_string())?;
    host::print_own_peak_rss()
}

impl ClosedLoop for Batch {
    fn inputs(&self) -> usize {
        self.data.len()
    }

    fn points(&self, input: usize) -> usize {
        self.values(input).len()
    }

    fn op(&mut self, input: usize) -> Result<u64, String> {
        let series = SeriesView::new(self.data[input].series.values());
        let report = self
            .detector
            .detect(&series, &mut self.ws, &NoopRecorder)
            .map_err(|e| e.to_string())?;
        let digest = layers::digest_report(&report);
        self.first[input].get_or_insert(report);
        Ok(digest)
    }

    fn traced_op(&mut self, input: usize, l: &mut Layers) -> Result<u64, String> {
        let values = self.data[input].series.values();
        match self.kind {
            Kind::Rra => layers::rra(values, &self.config, K, &mut self.ws, l)
                .map(|r| layers::digest_rra(&r)),
            Kind::Density => {
                layers::density(values, &self.config, K, l).map(|r| layers::digest_density(&r))
            }
        }
    }

    fn verify(&mut self, input: usize, op: u64, traced: Option<u64>) -> Result<(), String> {
        if traced.is_some_and(|t| t != op) {
            return Err("the decomposed op disagrees with the detector".into());
        }
        let report = self.first[input].as_ref().ok_or("no op ran")?;
        let model = self.model(input)?;
        let top = report.anomalies.first().ok_or("no anomaly reported")?;
        match self.kind {
            Kind::Rra => {
                // Rank 0 must be the exact nearest-neighbour distance of its
                // candidate, recomputed without any pruning.
                let candidates = layers::search_candidates(&model);
                let pi = candidates
                    .iter()
                    .position(|c| c.interval == top.interval)
                    .ok_or("rank 0 is not a candidate interval")?;
                let exact = reference_nn(self.values(input), &candidates, pi);
                if exact.to_bits() != top.score.to_bits() {
                    return Err(format!("rank 0 distance {} != exact {exact}", top.score));
                }
            }
            Kind::Density => {
                // The curve must equal a point-by-point recount of every
                // rule occurrence.
                let mut recount = vec![0i64; model.series_len];
                for occ in model.grammar.occurrences() {
                    let iv = model.occurrence_interval(&occ);
                    for c in &mut recount[iv.start..iv.end] {
                        *c += 1;
                    }
                }
                let curve = &report.density().ok_or("no density curve")?.curve;
                if *curve != recount {
                    return Err("density curve differs from a recount".into());
                }
            }
        }
        if input == 0 {
            print_hits(&self.data[0], report.anomalies.iter().map(|a| a.interval));
        }
        Ok(())
    }

    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        host::probe_rss_mb(self.kind.name(), self.seed)
    }

    fn kernel_probe(&mut self) -> Result<Option<KernelProbe>, String> {
        if self.kind == Kind::Density {
            return Ok(None);
        }
        let candidates = layers::search_candidates(&self.model(0)?);
        Ok(Some(layers::kernel_probe(
            self.values(0),
            &candidates,
            self.config.window(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_presets() {
        let presets = [
            (Kind::Rra, respiration::nprs44()),
            (Kind::Density, power::power_demand()),
        ];
        for (kind, preset) in presets {
            assert_eq!(kind.dataset(0, 0).series.values(), preset.series.values());
            assert_ne!(kind.dataset(0, 1).series.values(), preset.series.values());
            assert_ne!(kind.dataset(1, 0).series.values(), preset.series.values());
        }
    }

    /// One op of each workload, then its decomposition and oracles.
    #[test]
    fn each_batch_workload_passes_its_oracles() {
        for kind in [Kind::Rra, Kind::Density] {
            let mut w = Batch::setup(kind, 0).unwrap();
            let op = w.op(1).unwrap();
            let mut l = Layers::default();
            let traced = w.traced_op(1, &mut l).unwrap();
            w.verify(1, op, Some(traced)).unwrap();
            assert!(l.discretize_ns > 0 && l.windows > 0 && l.words > 0);
            assert_eq!(l.distance_calls > 0, kind == Kind::Rra, "{}", kind.name());
        }
    }
}
