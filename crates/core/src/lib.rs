//! PairwiseHist: a histogram-based AQP synopsis with recursive hypothesis-test
//! refinement (VLDB 2024 reproduction).
//!
//! The synopsis consists of three parts (paper §1, Fig 2):
//!
//! 1. **one-dimensional histograms** for every column, capturing within-column
//!    distributions;
//! 2. **two-dimensional histograms** for every *pair* of columns, capturing pairwise
//!    relationships — hence the name;
//! 3. **per-bin metadata**: actual minimum and maximum values, the number of unique
//!    values, and (derived) bin midpoints and weighted-centre bounds.
//!
//! Histograms are built by recursively splitting bins until a χ² hypothesis test
//! accepts within-bin uniformity or the bin falls below `M` points (§4.1) — the
//! property all downstream error bounds lean on. Multi-predicate queries reduce to a
//! few small matrix products over the pair histograms (§5), giving sub-millisecond
//! latency, and the storage encoding of §4.3 (Fig 6) keeps the whole structure in the
//! sub-megabyte range.
//!
//! # Quick start
//!
//! ```
//! use ph_core::{PairwiseHist, PairwiseHistConfig};
//! use ph_sql::parse_query;
//! use ph_types::{Column, Dataset};
//!
//! let data = Dataset::builder("demo")
//!     .column(Column::from_ints("x", (0..10_000).map(|i| Some(i % 100)).collect())).unwrap()
//!     .column(Column::from_ints("y", (0..10_000).map(|i| Some((i % 100) * 2)).collect())).unwrap()
//!     .build();
//!
//! let ph = PairwiseHist::build(&data, &PairwiseHistConfig::default());
//! let query = parse_query("SELECT COUNT(y) FROM demo WHERE x >= 50;").unwrap();
//! let answer = ph.execute(&query).unwrap();
//! let est = answer.scalar().unwrap();
//! assert!((est.value - 5000.0).abs() < 100.0, "COUNT(y | x >= 50) = 5000, got {}", est.value);
//! assert!(est.lo <= 5000.0 && 5000.0 <= est.hi, "bounds contain the truth");
//! ```

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
mod aggregate;
mod bins;
mod build;
mod build1d;
mod build2d;
mod coverage;
mod engine;
pub mod merge;
mod persist;
mod plan;
mod prepared;
mod segment;
mod session;
mod storage;
mod uniform;
mod update;
mod wal;
mod weights;

pub use aggregate::Estimate;
pub use bins::{BinMeta, DimBins};
pub use build::{PairwiseHist, PairwiseHistConfig, SplitRule};
pub use build2d::{PairDim, PairHist};
pub use coverage::RangeSet;
pub use engine::{AqpAnswer, AqpError};
pub use persist::segment_to_bytes;
pub use prepared::{AqpEngine, Prepared};
pub use segment::{CompactReport, FootprintReport};
pub use session::{
    BatchSession, CacheStats, IngestReport, Session, SessionStats, TableSnapshot, TableStats,
};
pub use storage::SynopsisSize;

/// The observability substrate, re-exported so in-process users can read
/// [`Session::trace_report`](session::Session::trace_report) breakdowns and
/// flip tracing without depending on `ph-obs` directly.
pub use ph_obs as obs;
