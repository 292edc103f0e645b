//! # gv-hilbert
//!
//! Hilbert space-filling curve (SFC) encoding and the spatial-trajectory →
//! time-series transform used in the paper's GPS case study (§5.1,
//! Figure 6).
//!
//! A trajectory `(lat, lon)` stream is mapped onto the visit order of a
//! Hilbert curve embedded in the trajectory's bounding box; because the
//! Hilbert curve preserves spatial locality (adjacent curve cells share an
//! edge), points close in space get close curve indexes, so route shapes
//! become recognisable 1-D patterns that SAX/Sequitur can compress.
//!
//! ```
//! use gv_hilbert::HilbertCurve;
//!
//! let h = HilbertCurve::new(1).unwrap(); // first-order: 2×2 cells
//! // The four quadrants are visited in an order where consecutive cells
//! // share an edge (Figure 6, left panel).
//! let cells: Vec<(u32, u32)> = (0..4).map(|d| h.d2xy(d)).collect();
//! for w in cells.windows(2) {
//!     let (x0, y0) = w[0];
//!     let (x1, y1) = w[1];
//!     assert_eq!(x0.abs_diff(x1) + y0.abs_diff(y1), 1);
//! }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod curve;
mod trajectory;

pub use curve::{HilbertCurve, MAX_ORDER};
pub use trajectory::{BoundingBox, TrajectoryMapper};
