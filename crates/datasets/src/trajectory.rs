//! GPS commute-trajectory analogue (the "Daily commute" Table 1 row and
//! the §5.1 case study, Figures 7–9).
//!
//! Simulates two weeks of commuting on a grid city: every day a morning
//! trip home → work and an evening trip back, by car on most days and by
//! bicycle (a different route) twice a week. Two anomalies are planted,
//! mirroring the paper's findings:
//!
//! * a one-off **detour** on one trip (a path travelled only once — found
//!   by the rule-density curve in the paper);
//! * a **partial-GPS-fix** segment on another trip (positions scatter
//!   around the route — found by RRA as the best discord).
//!
//! The multi-dimensional track is reduced to a scalar series via the
//! Hilbert space-filling curve (order 8, as in the paper) before analysis.

use gv_hilbert::TrajectoryMapper;
use gv_timeseries::Interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, LabeledAnomaly};
use crate::noise::Gaussian;

/// Trajectory generator parameters.
#[derive(Debug, Clone)]
pub struct TrajectoryParams {
    /// Number of commute days (2 trips per day).
    pub days: usize,
    /// Distance advanced per GPS sample.
    pub speed: f64,
    /// GPS noise sd under a good fix (map units; city block is ~10).
    pub noise_sd: f64,
    /// Day (0-based) whose morning trip takes the one-off detour.
    pub detour_day: Option<usize>,
    /// Day whose evening trip suffers a partial GPS fix.
    pub gps_loss_day: Option<usize>,
    /// Hilbert curve order (the paper uses 8).
    pub hilbert_order: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrajectoryParams {
    fn default() -> Self {
        Self {
            days: 14,
            speed: 0.35,
            noise_sd: 0.08,
            detour_day: Some(9),
            gps_loss_day: Some(4),
            hilbert_order: 8,
            seed: 0x6B5,
        }
    }
}

/// A generated commute: the raw 2-D track, the Hilbert mapper, and the
/// transformed scalar [`Dataset`] with planted ground truth.
#[derive(Debug, Clone)]
pub struct TrajectoryData {
    /// Raw GPS points, in time order.
    pub points: Vec<(f64, f64)>,
    /// The Hilbert mapper fitted to the track.
    pub mapper: TrajectoryMapper,
    /// The Hilbert-transformed series plus anomaly labels (indexes refer to
    /// `points` one-to-one).
    pub dataset: Dataset,
}

const HOME: (f64, f64) = (10.0, 10.0);
const WORK: (f64, f64) = (80.0, 70.0);

/// The usual car route (Manhattan-style streets).
fn car_route() -> Vec<(f64, f64)> {
    vec![HOME, (10.0, 40.0), (50.0, 40.0), (50.0, 70.0), WORK]
}

/// The bicycle route: different streets, same endpoints.
fn bike_route() -> Vec<(f64, f64)> {
    vec![
        HOME,
        (30.0, 10.0),
        (30.0, 55.0),
        (65.0, 55.0),
        (65.0, 70.0),
        WORK,
    ]
}

/// The detour variant of the car route: a unique excursion in the middle.
fn detour_route() -> Vec<(f64, f64)> {
    vec![
        HOME,
        (10.0, 40.0),
        (50.0, 40.0),
        // one-off excursion east through streets never otherwise used
        (72.0, 40.0),
        (72.0, 22.0),
        (88.0, 22.0),
        (88.0, 48.0),
        (50.0, 48.0),
        (50.0, 70.0),
        WORK,
    ]
}

fn reversed(mut route: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    route.reverse();
    route
}

/// Densely samples a waypoint polyline at constant speed.
fn sample_route(
    route: &[(f64, f64)],
    speed: f64,
    noise_sd: f64,
    rng: &mut StdRng,
    gauss: &mut Gaussian,
    out: &mut Vec<(f64, f64)>,
) {
    for seg in route.windows(2) {
        let (x0, y0) = seg[0];
        let (x1, y1) = seg[1];
        let len = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        let steps = (len / speed).ceil().max(1.0) as usize;
        for s in 0..steps {
            let t = s as f64 / steps as f64;
            out.push((
                x0 + t * (x1 - x0) + gauss.sample_with(rng, 0.0, noise_sd),
                y0 + t * (y1 - y0) + gauss.sample_with(rng, 0.0, noise_sd),
            ));
        }
    }
    let last = route[route.len() - 1];
    out.push(last);
}

/// Generates the commute and its Hilbert-transformed dataset.
pub fn generate(params: TrajectoryParams) -> TrajectoryData {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut gauss = Gaussian::new();
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut detour_span: Option<Interval> = None;
    let mut gps_span: Option<Interval> = None;

    for day in 0..params.days {
        let by_bike = day % 7 == 2 || day % 7 == 5; // two bike days a week
                                                    // Morning: home → work.
        let morning: Vec<(f64, f64)> = if params.detour_day == Some(day) {
            detour_route()
        } else if by_bike {
            bike_route()
        } else {
            car_route()
        };
        let start = points.len();
        sample_route(
            &morning,
            params.speed,
            params.noise_sd,
            &mut rng,
            &mut gauss,
            &mut points,
        );
        if params.detour_day == Some(day) {
            // The detour is the excursion part: everything differing from
            // the plain car route. Conservatively mark the middle 60% of
            // the trip (the excursion waypoints 2..=7 dominate it).
            let len = points.len() - start;
            detour_span = Some(Interval::new(
                start + len * 25 / 100,
                start + len * 80 / 100,
            ));
        }

        // Evening: work → home.
        let evening: Vec<(f64, f64)> = if by_bike {
            reversed(bike_route())
        } else {
            reversed(car_route())
        };
        let estart = points.len();
        sample_route(
            &evening,
            params.speed,
            params.noise_sd,
            &mut rng,
            &mut gauss,
            &mut points,
        );
        if params.gps_loss_day == Some(day) {
            // Corrupt the middle third of the evening trip with a partial
            // fix: positions scatter widely around the route.
            let elen = points.len() - estart;
            let lo = estart + elen / 3;
            let hi = estart + 2 * elen / 3;
            for p in points[lo..hi].iter_mut() {
                p.0 += gauss.sample_with(&mut rng, 0.0, 3.0);
                p.1 += gauss.sample_with(&mut rng, 0.0, 3.0);
            }
            gps_span = Some(Interval::new(lo, hi));
        }
        // Parking-lot loop at work on car days (a small ritual pattern that
        // gives the grammar extra structure, echoing Figure 9's story).
        if !by_bike {
            let lot = vec![WORK, (84.0, 72.0), (84.0, 76.0), (80.0, 76.0), WORK];
            sample_route(
                &lot,
                params.speed,
                params.noise_sd,
                &mut rng,
                &mut gauss,
                &mut points,
            );
        }
        let _ = rng.gen::<u32>(); // day separator draw keeps streams aligned
    }

    #[expect(
        clippy::expect_used,
        reason = "the synthetic generator always emits >= 2 distinct points, so the bounding box cannot degenerate"
    )]
    let mapper = TrajectoryMapper::fitting(params.hilbert_order, &points)
        .expect("commute track always spans a non-degenerate box");
    let series = mapper.transform(&points);
    let mut series = series;
    series.set_name("Daily commute (synthetic)");

    let mut anomalies = Vec::new();
    if let Some(iv) = detour_span {
        anomalies.push(LabeledAnomaly {
            interval: iv,
            label: "one-off detour".into(),
        });
    }
    if let Some(iv) = gps_span {
        anomalies.push(LabeledAnomaly {
            interval: iv,
            label: "partial GPS fix".into(),
        });
    }

    TrajectoryData {
        points,
        mapper,
        dataset: Dataset::new(series, anomalies),
    }
}

/// The paper-default instance (≈17k samples, like Table 1's 17,175).
pub fn daily_commute() -> TrajectoryData {
    generate(TrajectoryParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape() {
        let t = daily_commute();
        assert_eq!(t.points.len(), t.dataset.series.len());
        // Series length in the Table 1 ballpark (17,175 in the paper).
        let n = t.dataset.series.len();
        assert!((10_000..30_000).contains(&n), "length {n}");
        assert_eq!(t.dataset.anomalies.len(), 2);
    }

    #[test]
    fn anomaly_labels() {
        let t = daily_commute();
        let labels: Vec<&str> = t
            .dataset
            .anomalies
            .iter()
            .map(|a| a.label.as_str())
            .collect();
        assert!(labels.contains(&"one-off detour"));
        assert!(labels.contains(&"partial GPS fix"));
    }

    #[test]
    fn detour_visits_unique_cells() {
        let t = daily_commute();
        let detour = t
            .dataset
            .anomalies
            .iter()
            .find(|a| a.label.contains("detour"))
            .unwrap()
            .interval;
        // Curve indexes inside the detour that appear nowhere else.
        let vals = t.dataset.series.values();
        let inside: std::collections::BTreeSet<u64> = vals[detour.start..detour.end]
            .iter()
            .map(|&v| v as u64)
            .collect();
        let outside: std::collections::BTreeSet<u64> = vals[..detour.start]
            .iter()
            .chain(&vals[detour.end..])
            .map(|&v| v as u64)
            .collect();
        let unique = inside.difference(&outside).count();
        assert!(unique > 5, "only {unique} unique detour cells");
    }

    #[test]
    fn routes_repeat_across_days() {
        let t = generate(TrajectoryParams {
            days: 2,
            detour_day: None,
            gps_loss_day: None,
            noise_sd: 0.0,
            ..Default::default()
        });
        let v = t.dataset.series.values();
        // Days 0 and 1 are both car days with identical noiseless geometry,
        // so the two halves of the series are cell-for-cell identical.
        let day_len = v.len() / 2;
        let a = &v[..day_len];
        let b = &v[day_len..2 * day_len];
        let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
        assert!(same * 10 >= a.len() * 9, "{same}/{}", a.len());
    }

    #[test]
    fn gps_loss_scatters_points() {
        let t = daily_commute();
        let iv = t
            .dataset
            .anomalies
            .iter()
            .find(|a| a.label.contains("GPS"))
            .unwrap()
            .interval;
        // Consecutive curve indexes jump around far more inside the loss
        // segment than outside.
        let v = t.dataset.series.values();
        let jump = |range: std::ops::Range<usize>| {
            let w = &v[range];
            w.windows(2).map(|p| (p[0] - p[1]).abs()).sum::<f64>() / (w.len() - 1) as f64
        };
        let inside = jump(iv.start..iv.end);
        let before = jump(0..iv.start.min(2000));
        assert!(inside > before * 3.0, "inside {inside} vs before {before}");
    }

    #[test]
    fn deterministic() {
        let a = daily_commute();
        let b = daily_commute();
        assert_eq!(a.dataset.series.values(), b.dataset.series.values());
    }
}
