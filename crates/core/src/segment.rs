//! Segmented table storage: immutable sealed segments + one active delta.
//!
//! This module holds the storage layout behind `Session`'s catalog. Each table
//! is a list of **sealed segments** — every segment owns its own [`PairwiseHist`]
//! synopsis *and* its retained rows in a GD-compressed [`GdStore`] (random-access
//! via `rows()`/`decompress()`, exactly the paper's Fig 2 posture: the compressed
//! store and the synopsis built over it travel together) — plus one **active
//! delta** synopsis absorbing `ingest` batches whose raw rows live on the
//! writer side of the session until the delta is sealed.
//!
//! The lifecycle is `delta → seal → compact`:
//!
//! * batches fold into the delta via the edge-free update path (O(batch));
//! * crossing the seal threshold (or the staleness policy) freezes the delta:
//!   its rows are GD-compressed, a fresh synopsis is refined over them
//!   ([`PairwiseHist::build_from_gd`], seeding bin edges from the deduplicated
//!   bases), and the result is appended as a sealed segment — O(threshold),
//!   **independent of total table size**;
//! * `Session::compact` merges accumulated small segments back into one
//!   (decompress → re-encode under the shared transforms → rebuild once),
//!   bounded by the rows of the segments being merged.
//!
//! All engines of one table version share the table's preprocessor and carry the
//! same **plan epoch**, so a single compiled plan executes against every
//! segment; per-segment answers are combined by `crate::merge`.

use std::sync::{Arc, OnceLock};

use ph_obs::{span, Stage};

use ph_gd::{
    choose_store, EncodeScratch, EncodedMatrix, EncodedPred, GdCompressor, GdError, Preprocessor,
    RowStore,
};
use ph_sql::Query;
use ph_types::{Column, ColumnType, Dataset, PhError, Value};

use crate::build::{PairwiseHist, PairwiseHistConfig};
use crate::coverage::RangeSet;
use crate::engine::AqpAnswer;
use crate::merge::merge_answers;
use crate::prepared::{AqpEngine, Prepared};

/// Exact count of retained rows whose encoded value in `col` falls in `rs`,
/// evaluated directly on the compressed store — dictionary columns answer over
/// code intervals, run-end columns add whole runs without touching rows —
/// never materializing the column. The predicate contract: bit-identical to
/// decoding the column and scanning it against the same range set (the
/// equivalence suite pins this). `None` when `col` is out of range.
pub(crate) fn count_store_matching(store: &RowStore, col: usize, rs: &RangeSet) -> Option<u64> {
    let mut total = 0u64;
    for &(lo, hi) in rs.intervals() {
        let n = store.count_matching(col, &EncodedPred::Range { lo: Some(lo), hi: Some(hi) })?;
        total = total.checked_add(n)?;
    }
    Some(total)
}

/// One sealed, immutable segment: its synopsis plus its compressed rows.
pub(crate) struct Segment {
    /// The segment's synopsis; `plan_epoch` is stamped to the owning table
    /// version's epoch so one prepared plan serves every segment.
    pub(crate) engine: PairwiseHist,
    /// The segment's retained rows — GreedyGD or per-column codecs, whichever
    /// won the size model at seal time — shared by `Arc` so epoch restamps and
    /// state swaps never copy row data.
    pub(crate) store: Arc<RowStore>,
    /// Serialized size of `store` (O(columns) accounting, see
    /// [`RowStore::packed_bytes`]).
    pub(crate) store_bytes: usize,
}

impl Segment {
    pub(crate) fn new(engine: PairwiseHist, store: RowStore) -> Self {
        let store_bytes = store.packed_bytes();
        Self { engine, store: Arc::new(store), store_bytes }
    }

    /// A copy of this segment whose engine carries `epoch` (used when a seal or
    /// rebuild mints a fresh table epoch: retained segments are restamped so the
    /// whole version keeps the one-plan-serves-all invariant). Only the synopsis
    /// is cloned — sub-megabyte by design — while the row store is shared
    /// through its `Arc`, so restamping N segments costs O(N · synopsis bytes),
    /// never O(resident row bytes).
    pub(crate) fn restamped(&self, epoch: u64) -> Self {
        let mut engine = self.engine.clone();
        engine.plan_epoch = epoch;
        Self { engine, store: self.store.clone(), store_bytes: self.store_bytes }
    }

    /// Rows held by this segment.
    pub(crate) fn n_rows(&self) -> usize {
        self.store.n_rows()
    }
}

/// One immutable version of a table: the sealed segment list, the delta
/// synopsis, and everything shared between them. Published behind
/// `RwLock<Arc<TableState>>`; never mutated — writers build a replacement and
/// swap.
pub(crate) struct TableState {
    /// Plan epoch shared by every engine in this version.
    pub(crate) epoch: u64,
    /// The table-wide preprocessing transforms every segment encodes under.
    pub(crate) pre: Arc<Preprocessor>,
    /// Sealed segments, oldest first.
    pub(crate) segments: Vec<Arc<Segment>>,
    /// Synopsis over the un-sealed delta rows (the raw rows live on the
    /// session's writer side). `Some` iff the table has un-sealed rows.
    pub(crate) delta: Option<PairwiseHist>,
    /// The *requested* build configuration, re-used for delta builds, seals and
    /// rebuilds (`ns` is clamped to available rows at each use).
    pub(crate) cfg: PairwiseHistConfig,
    /// Lazily computed `(synopsis_bytes, row_store_bytes)` for this immutable
    /// version — the state never mutates, so the walk over every engine's
    /// synopsis happens at most once per version no matter how often a metrics
    /// scraper asks (a 1 Hz poll must not perturb serving).
    pub(crate) footprint: OnceLock<(usize, usize)>,
}

impl TableState {
    /// Every engine serving this version: sealed segments then the delta.
    pub(crate) fn engines(&self) -> Vec<&PairwiseHist> {
        self.segments.iter().map(|s| &s.engine).chain(self.delta.as_ref()).collect()
    }

    /// The representative engine plans are compiled against. All engines share
    /// the preprocessor and epoch, so any of them plans for the whole table.
    pub(crate) fn primary(&self) -> &PairwiseHist {
        self.segments
            .first()
            .map(|s| &s.engine)
            .or(self.delta.as_ref())
            .expect("a table version always holds at least one engine")
    }

    /// Plans a query for this table version (token = the shared epoch).
    pub(crate) fn prepare(&self, query: &Query) -> Result<Prepared, PhError> {
        self.primary().prepare(query)
    }

    /// Executes a prepared plan: fan out across all engines, merge the partial
    /// estimates. A single-engine table answers verbatim (bit-identical to the
    /// monolithic path).
    pub(crate) fn execute_prepared(&self, p: &Prepared) -> Result<AqpAnswer, PhError> {
        let _execute = span(Stage::Execute);
        let engines = self.engines();
        if engines.len() == 1 {
            let _estimate = span(Stage::Estimate);
            return engines[0].execute_prepared(p);
        }
        let parts: Vec<AqpAnswer> = engines
            .iter()
            .map(|e| {
                let _estimate = span(Stage::Estimate);
                e.execute_prepared(p)
            })
            .collect::<Result<_, _>>()?;
        let _merge = span(Stage::Merge);
        Ok(merge_answers(p.query().agg, parts))
    }

    /// One-shot plan-and-execute.
    pub(crate) fn execute_query(&self, query: &Query) -> Result<AqpAnswer, PhError> {
        let p = self.prepare(query)?;
        self.execute_prepared(&p)
    }

    /// Fraction of the table's *rows* held by the un-sealed delta: `0.0` with an
    /// empty delta, approaching `1.0` when updates dominate — the quantity the
    /// session's staleness policy thresholds to force a seal. Row-based (not
    /// sample-based), so a table registered far larger than its sample size
    /// does not overstate the delta's share.
    pub(crate) fn staleness(&self) -> f64 {
        let seg_rows: u64 = self.segments.iter().map(|s| s.engine.params().n_total).sum();
        let delta_rows = self.delta.as_ref().map_or(0, |d| d.params().n_total);
        let total = seg_rows + delta_rows;
        if total == 0 {
            0.0
        } else {
            delta_rows as f64 / total as f64
        }
    }

    /// Serialized synopsis bytes across every engine of this version.
    pub(crate) fn synopsis_bytes(&self) -> usize {
        self.engines().iter().map(|e| e.synopsis_size().total).sum()
    }

    /// Compressed row-store bytes across sealed segments.
    pub(crate) fn row_store_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.store_bytes).sum()
    }

    /// `(synopsis_bytes, row_store_bytes)` computed at most once per version:
    /// the state is immutable, so the first caller pays the engine walk and
    /// every later scrape reads the cached pair.
    pub(crate) fn footprint(&self) -> (usize, usize) {
        *self.footprint.get_or_init(|| (self.synopsis_bytes(), self.row_store_bytes()))
    }
}

/// Builds the registration segment: the synopsis is constructed exactly like the
/// monolithic path did (sampling the raw dataset), so registering a table keeps
/// bit-identical answers with earlier versions; the rows are additionally
/// GD-compressed into the segment's store.
pub(crate) fn registration_segment(
    data: &Dataset,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
) -> Segment {
    let mut build_cfg = cfg.clone();
    build_cfg.ns = build_cfg.ns.min(data.n_rows().max(1));
    let engine = PairwiseHist::build_with_preprocessor(data, pre.clone(), &build_cfg);
    let matrix = pre.encode(data);
    let gd = GdCompressor::new().compress(&matrix);
    Segment::new(engine, choose_store(&matrix, gd))
}

/// Seals delta rows into a fresh segment: GD-compress, then refine a synopsis
/// *from the compressed store* (Algorithm 1's base-seeded construction), stamped
/// with the table epoch. The GD store is always built — the synopsis seeds its
/// bin edges from the deduplicated bases, keeping estimates bit-identical no
/// matter which row store is retained — and then the per-column codec cascade
/// competes with it for residency ([`choose_store`]). Encode buffers come from
/// `scratch` so repeated seals don't re-allocate (the ingest-p99 fix).
pub(crate) fn seal_segment(
    rows: &Dataset,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
    epoch: u64,
    scratch: &mut EncodeScratch,
) -> Segment {
    let _seal = span(Stage::Seal);
    let matrix = pre.encode_with(rows, scratch);
    let gd = GdCompressor::new().compress(&matrix);
    let mut engine = PairwiseHist::build_from_gd(&gd, pre.clone(), cfg);
    engine.plan_epoch = epoch;
    let store = {
        let _codec = span(Stage::Codec);
        choose_store(&matrix, gd)
    };
    scratch.reclaim(matrix);
    Segment::new(engine, store)
}

/// Builds the delta synopsis over un-sealed rows, stamped with the table epoch.
pub(crate) fn build_delta(
    rows: &Dataset,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
    epoch: u64,
) -> PairwiseHist {
    let mut build_cfg = cfg.clone();
    build_cfg.ns = build_cfg.ns.min(rows.n_rows().max(1));
    let mut engine = PairwiseHist::build_with_preprocessor(rows, pre.clone(), &build_cfg);
    engine.plan_epoch = epoch;
    engine
}

/// Merges sealed segments into one: their stores are decompressed (already in
/// the shared encoded domain — the transforms are lossless, so no value-level
/// re-preprocessing is needed), concatenated, re-compressed, and a single
/// synopsis is refined over the merged store.
pub(crate) fn merge_segments(
    parts: &[Arc<Segment>],
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
    epoch: u64,
) -> Segment {
    // Row-wise concatenation: every store decodes to the table's schema.
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); pre.n_columns()];
    for part in parts {
        let m = part.store.decompress();
        for (col, src) in cols.iter_mut().zip(&m.columns) {
            col.extend_from_slice(src);
        }
    }
    let combined = EncodedMatrix::new(cols);
    let gd = GdCompressor::new().compress(&combined);
    let mut engine = PairwiseHist::build_from_gd(&gd, pre.clone(), cfg);
    engine.plan_epoch = epoch;
    Segment::new(engine, choose_store(&combined, gd))
}

/// Decodes a segment's compressed rows back into a raw [`Dataset`] named
/// `name` — the source material for refit rebuilds (novel categorical values or
/// NULLs that the fitted transforms cannot encode), on a reopened catalog as
/// much as a fresh one: the compressed rows round-trip.
///
/// Fallible: a store deserialized from a damaged or version-skewed blob can
/// hold codes with no preimage; those surface as [`PhError::Corrupt`] for the
/// session layer to quarantine on, never a panic.
pub(crate) fn decode_store(
    name: &str,
    pre: &Preprocessor,
    store: &RowStore,
) -> Result<Dataset, PhError> {
    decode_matrix(name, pre, &store.decompress())
}

/// Decodes an encoded matrix back to the original value domain, column by
/// column, reversing the fitted transforms (null codes → NULL).
pub(crate) fn decode_matrix(
    name: &str,
    pre: &Preprocessor,
    m: &EncodedMatrix,
) -> Result<Dataset, PhError> {
    let mut builder = Dataset::builder(name);
    for c in 0..pre.n_columns() {
        let col_name = pre.names()[c].clone();
        let values = &m.columns[c];
        let column = match pre.column_type(c) {
            ColumnType::Int | ColumnType::Timestamp => {
                let ints: Vec<Option<i64>> = values
                    .iter()
                    .map(|&v| {
                        Ok(match pre.decode_value(c, v)? {
                            Value::Int(i) => Some(i),
                            _ => None,
                        })
                    })
                    .collect::<Result<_, GdError>>()?;
                if pre.column_type(c) == ColumnType::Timestamp {
                    Column::from_timestamps(col_name, ints)
                } else {
                    Column::from_ints(col_name, ints)
                }
            }
            ColumnType::Float { scale } => Column::from_floats(
                col_name,
                values
                    .iter()
                    .map(|&v| {
                        Ok(match pre.decode_value(c, v)? {
                            Value::Float(f) => Some(f),
                            _ => None,
                        })
                    })
                    .collect::<Result<Vec<_>, GdError>>()?,
                scale,
            ),
            ColumnType::Categorical => {
                let strings: Vec<Option<String>> = values
                    .iter()
                    .map(|&v| {
                        Ok(match pre.decode_value(c, v)? {
                            Value::Str(s) => Some(s),
                            _ => None,
                        })
                    })
                    .collect::<Result<_, GdError>>()?;
                Column::from_strings(col_name, strings.iter().map(|s| s.as_deref()).collect())
            }
        };
        builder = builder.column(column).expect("preprocessor schema is consistent");
    }
    Ok(builder.build())
}

/// Per-table storage breakdown, as returned by `Session::footprint_report`: what
/// the table actually keeps resident, split by role. The parts always sum to
/// [`total`](FootprintReport::total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintReport {
    /// Serialized synopsis bytes across sealed segments and the delta.
    pub synopsis_bytes: usize,
    /// GD-compressed retained-row bytes across sealed segments.
    pub row_store_bytes: usize,
    /// Raw (uncompressed, in-memory) bytes of un-sealed delta rows.
    pub delta_bytes: usize,
    /// Sum of the three parts.
    pub total: usize,
    /// Number of sealed segments.
    pub segments: usize,
}

/// Outcome of one `Session::compact` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Sealed segments before compaction.
    pub segments_before: usize,
    /// Sealed segments after compaction.
    pub segments_after: usize,
    /// Rows rebuilt into the merged segment (0 when nothing qualified).
    pub rows_compacted: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_types::Column as C;

    fn sample() -> Dataset {
        Dataset::builder("t")
            .column(C::from_ints("i", vec![Some(-3), Some(10), None, Some(4)]))
            .unwrap()
            .column(C::from_floats("f", vec![Some(1.25), None, Some(0.5), Some(9.0)], 2))
            .unwrap()
            .column(C::from_timestamps("ts", vec![Some(1_700_000_000), Some(1_700_000_500), Some(1_700_000_100), None]))
            .unwrap()
            .column(C::from_strings("c", vec![Some("x"), Some("y"), Some("x"), None]))
            .unwrap()
            .build()
    }

    /// The round trip the whole refit path leans on: compress → decode gives
    /// back exactly the original rows, every type, nulls included.
    #[test]
    fn store_decode_roundtrips_all_column_types() {
        let data = sample();
        let pre = Preprocessor::fit(&data);
        let matrix = pre.encode(&data);
        let gd = GdCompressor::new().compress(&matrix);
        let store = choose_store(&matrix, gd);
        let back = decode_store("t", &pre, &store).expect("fitted codes all decode");
        assert_eq!(back.n_rows(), data.n_rows());
        for r in 0..data.n_rows() {
            for c in 0..data.n_columns() {
                match (data.column(c).value(r), back.column(c).value(r)) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert!((a - b).abs() < 1e-9, "row {r} col {c}")
                    }
                    (a, b) => assert_eq!(a, b, "row {r} col {c}"),
                }
            }
        }
    }
}
