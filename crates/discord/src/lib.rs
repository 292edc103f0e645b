//! # gv-discord
//!
//! Discord-discovery substrate: the fixed-length baselines the EDBT'15
//! paper compares against (brute force and HOTSAX, §6), plus the counted,
//! early-abandoning distance machinery shared with the paper's RRA
//! algorithm (implemented in `gv-core`).
//!
//! A *discord* is the subsequence with the largest Euclidean distance to
//! its nearest non-self match (§2). All searches here report
//! [`SearchStats`] whose `distance_calls` field reproduces the paper's
//! Table 1 metric — "the number of calls to the distance function ...
//! typically accounts for up to 99% of these algorithms' computation
//! time".
//!
//! Every search counts the one way: the kernels in [`distance`] tally
//! into a search-local [`LocalRecorder`](gv_obs::LocalRecorder),
//! [`SearchStats::from_recorder`] reads the stats back, and the recorder
//! is merged into the caller's sink.
//!
//! ```
//! use gv_discord::{brute_force_discords, hotsax_discords, HotSaxConfig, HotSaxScratch};
//! use gv_obs::NoopRecorder;
//!
//! // A noisy sine with one planted spike.
//! let mut values: Vec<f64> = (0..400).map(|i| (i as f64 / 10.0).sin()).collect();
//! for (i, v) in values[200..216].iter_mut().enumerate() { *v += (i as f64 / 3.0).sin() * 2.0; }
//!
//! let (bf, _) = brute_force_discords(&values, 32, 1, &mut Vec::new(), &NoopRecorder).unwrap();
//! let cfg = HotSaxConfig::new(32, 4, 4).unwrap();
//! let mut scratch = HotSaxScratch::new();
//! let (hs, stats) = hotsax_discords(&values, &cfg, 1, &mut scratch, &NoopRecorder).unwrap();
//! assert_eq!(bf[0].position, hs[0].position);
//! assert!(stats.distance_calls > 0);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod brute;
pub mod distance;
mod error;
mod hotsax;
mod multi_length;
mod record;

pub use brute::{brute_force_call_count, brute_force_discords};
pub use error::{Error, Result};
pub use hotsax::{hotsax_discords, HotSaxConfig, HotSaxScratch};
pub use multi_length::{multi_length_hotsax, MultiLengthReport};
pub use record::{DiscordRecord, SearchStats};
