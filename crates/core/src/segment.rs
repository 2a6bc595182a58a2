//! Segmented table storage: immutable sealed segments + one active delta.
//!
//! This module holds the storage layout behind `Session`'s catalog. Each table
//! is a list of **sealed segments** — every segment owns its own [`PairwiseHist`]
//! synopsis *and* its retained rows in the per-column codec cascade
//! ([`ColumnarStore`]; the paper's Fig 2 posture: the compressed store and the
//! synopsis built over it travel together) — plus one **active delta** synopsis
//! absorbing `ingest` batches whose raw rows live on the writer side of the
//! session until the delta is sealed.
//!
//! The lifecycle is `delta → seal → compact`:
//!
//! * batches fold into the delta via the edge-free update path (O(batch));
//! * crossing the seal threshold (or the staleness policy) freezes the delta:
//!   a fresh synopsis is refined over its rows by the sample-and-refine build
//!   registration runs, the rows are encoded column by column, and the result
//!   is appended as a sealed segment — O(threshold), **independent of total
//!   table size**;
//! * `Session::compact` merges accumulated small segments back into one
//!   (decompress → re-encode under the shared transforms → rebuild once),
//!   bounded by the rows of the segments being merged.
//!
//! All engines of one table version share the table's preprocessor and carry the
//! same **plan epoch**, so a single compiled plan — validated once per execute —
//! runs against every segment through one per-thread scratch; per-segment
//! answers are combined by `crate::merge`. A segment whose own value range a
//! top-level conjunct of the plan misses is not evaluated at all: it
//! contributes the empty answer its evaluation would have produced (machine-
//! generated streams arrive time-ordered, so a range on the ordering column
//! skips most segments), and the table counts both outcomes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ph_obs::{span, Stage};

use ph_gd::{ColumnarStore, EncodeScratch, EncodedMatrix, EncodedPred, GdError, Preprocessor};
use ph_sql::Query;
use ph_types::{Column, ColumnType, Dataset, PhError, Value};

use crate::build::{PairwiseHist, PairwiseHistConfig};
use crate::coverage::RangeSet;
use crate::engine::{AqpAnswer, PhPlan};
use crate::merge::{merge_answers, merge_estimates};
use crate::prepared::{AqpEngine, Prepared};
use crate::weights::with_scratch;

/// Exact count of retained rows whose encoded value in `col` falls in `rs`,
/// evaluated directly on the compressed store — dictionary columns answer over
/// code intervals, run-end columns add whole runs without touching rows —
/// never materializing the column. The predicate contract: bit-identical to
/// decoding the column and scanning it against the same range set (the
/// equivalence suite pins this). `None` when `col` is out of range.
pub(crate) fn count_store_matching(
    store: &ColumnarStore,
    col: usize,
    rs: &RangeSet,
) -> Option<u64> {
    let mut total = 0u64;
    for &(lo, hi) in rs.intervals() {
        let n = store.count_matching(col, &EncodedPred::Range { lo: Some(lo), hi: Some(hi) })?;
        total = total.checked_add(n)?;
    }
    Some(total)
}

/// One sealed, immutable segment: its synopsis plus its compressed rows.
pub(crate) struct Segment {
    /// Process-unique identity, kept across epoch restamps: what a checkpoint
    /// keys a segment's committed blob by (`crate::persist`), so a blob is
    /// written once per segment, not once per table version.
    pub(crate) id: u64,
    /// The segment's synopsis; `plan_epoch` is stamped to the owning table
    /// version's epoch so one prepared plan serves every segment.
    pub(crate) engine: PairwiseHist,
    /// The segment's retained rows, one codec per column, shared by `Arc` so
    /// epoch restamps and state swaps never copy row data.
    pub(crate) store: Arc<ColumnarStore>,
    /// Serialized size of `store` (O(columns) accounting, see
    /// [`ColumnarStore::packed_bytes`]).
    pub(crate) store_bytes: usize,
}

impl Segment {
    pub(crate) fn new(engine: PairwiseHist, store: ColumnarStore) -> Self {
        static IDS: AtomicU64 = AtomicU64::new(1);
        let store_bytes = store.packed_bytes();
        let id = IDS.fetch_add(1, Ordering::Relaxed);
        Self { id, engine, store: Arc::new(store), store_bytes }
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
        Self { id: self.id, engine, store: self.store.clone(), store_bytes: self.store_bytes }
    }

    /// Rows held by this segment.
    pub(crate) fn n_rows(&self) -> usize {
        self.store.n_rows()
    }
}

/// How many engine evaluations a table's queries asked for and how many of them
/// the prune test answered without folding anything. One pair per table,
/// handed from each published [`TableState`] to its successor, so the totals
/// span seals, compactions and refits (a reopened catalog starts from zero).
#[derive(Default)]
pub(crate) struct FanoutCounters {
    /// Engines (sealed segments and deltas) a query's plan was evaluated on.
    pub(crate) consulted: ph_obs::Counter,
    /// Engines skipped because a top-level conjunct misses their value range.
    pub(crate) pruned: ph_obs::Counter,
}

/// When `Session::ingest` seals a table's delta: once it holds `rows` rows, or
/// once its share of the table's rows exceeds `max_staleness`. Part of what
/// determines a table's answers, so it is persisted with the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SealPolicy {
    pub(crate) rows: usize,
    pub(crate) max_staleness: f64,
}

impl Default for SealPolicy {
    fn default() -> Self {
        Self { rows: 50_000, max_staleness: 0.5 }
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
    /// When ingest seals the delta.
    pub(crate) policy: SealPolicy,
    /// Lazily computed `(synopsis_bytes, row_store_bytes)` for this immutable
    /// version — the state never mutates, so the walk over every engine's
    /// synopsis happens at most once per version no matter how often a metrics
    /// scraper asks (a 1 Hz poll must not perturb serving).
    pub(crate) footprint: OnceLock<(usize, usize)>,
    /// The table's running fan-out totals (shared across its versions).
    pub(crate) fanout: Arc<FanoutCounters>,
}

/// Whether no sampled row of `engine` can satisfy `plan`: some conjunct's range
/// set misses `[v⁻ of the first bin, v⁺ of the last]` of its column's 1-d
/// histogram. Every populated bin the evaluation would read for that leaf — the
/// 1-d bins themselves, or the column's refined bins in a pair histogram — spans
/// values inside that interval, so the leaf's coverage is zero on all of them,
/// the AND rule carries the zero to every weight and bound, and the answer is
/// [`PhPlan::empty_answer`] whatever the other conjuncts say.
fn cannot_match(engine: &PairwiseHist, plan: &PhPlan) -> bool {
    plan.conjuncts().any(|(col, ranges)| {
        let bins = engine.hist1d(col);
        match (bins.vmin.first(), bins.vmax.last()) {
            (Some(&lo), Some(&hi)) => ranges.clip(lo, hi).next().is_none(),
            _ => false,
        }
    })
}

#[cfg(test)]
thread_local! {
    /// Test hook: evaluate every engine, whatever [`cannot_match`] says.
    static BYPASS_PRUNING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl TableState {
    /// A version with fresh fan-out totals: a table's first (registration, or a
    /// reopened catalog).
    pub(crate) fn new(
        epoch: u64,
        pre: Arc<Preprocessor>,
        segments: Vec<Arc<Segment>>,
        cfg: PairwiseHistConfig,
        policy: SealPolicy,
    ) -> Self {
        Self {
            epoch,
            pre,
            segments,
            delta: None,
            cfg,
            policy,
            footprint: OnceLock::new(),
            fanout: Arc::default(),
        }
    }

    /// The version that replaces this one: same configuration and seal policy,
    /// same running totals, everything else as given.
    pub(crate) fn successor(
        &self,
        epoch: u64,
        pre: Arc<Preprocessor>,
        segments: Vec<Arc<Segment>>,
        delta: Option<PairwiseHist>,
    ) -> Self {
        Self {
            epoch,
            pre,
            segments,
            delta,
            cfg: self.cfg.clone(),
            policy: self.policy,
            footprint: OnceLock::new(),
            fanout: self.fanout.clone(),
        }
    }

    /// Every engine serving this version: sealed segments then the delta.
    pub(crate) fn engines(&self) -> impl Iterator<Item = &PairwiseHist> {
        self.segments.iter().map(|s| &s.engine).chain(self.delta.as_ref())
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

    /// Executes a prepared plan: validate it once (every engine shares the
    /// epoch), fan out across the engines that can match it through one scratch,
    /// merge the partial estimates. An engine that [`cannot_match`] contributes
    /// the empty answer its evaluation would have produced, without being
    /// folded. A single-engine table answers verbatim (bit-identical to the
    /// monolithic path).
    pub(crate) fn execute_prepared(&self, p: &Prepared) -> Result<AqpAnswer, PhError> {
        let _execute = span(Stage::Execute);
        let plan = self.primary().checked_plan(p)?;
        debug_assert!(self.engines().all(|e| e.plan_epoch() == self.epoch));
        let agg = p.query().agg;
        #[cfg(test)]
        let prune = !BYPASS_PRUNING.with(std::cell::Cell::get);
        #[cfg(not(test))]
        let prune = true;
        let (mut consulted, mut pruned) = (0u64, 0u64);
        let answer = with_scratch(|scratch| {
            // Scalar parts collect in the scratch's own vector; grouped parts
            // carry a map each and are collected as they are.
            let mut scalars = std::mem::take(&mut scratch.parts);
            scalars.clear();
            let mut grouped: Vec<AqpAnswer> = Vec::new();
            for engine in self.engines() {
                let part = if prune && cannot_match(engine, plan) {
                    // Zero-duration marker: that it appears is the signal.
                    drop(span(Stage::Prune));
                    pruned += 1;
                    plan.empty_answer(agg)
                } else {
                    let _estimate = span(Stage::Estimate);
                    consulted += 1;
                    engine.run_plan(agg, plan, scratch)
                };
                match part {
                    AqpAnswer::Scalar(e) => scalars.extend(e),
                    groups => grouped.push(groups),
                }
            }
            let _merge = (consulted + pruned > 1).then(|| span(Stage::Merge));
            let answer = if grouped.is_empty() {
                AqpAnswer::Scalar(merge_estimates(agg, &scalars))
            } else {
                merge_answers(agg, grouped)
            };
            scratch.parts = scalars;
            answer
        });
        self.fanout.consulted.add(consulted);
        if pruned > 0 {
            self.fanout.pruned.add(pruned);
        }
        Ok(answer)
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
        self.engines().map(|e| e.synopsis_size().total).sum()
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
/// compressed into the segment's store.
pub(crate) fn registration_segment(
    data: &Dataset,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
) -> Segment {
    let engine = PairwiseHist::build_with_preprocessor(data, pre.clone(), cfg);
    Segment::new(engine, encode_store(&pre.encode(data)))
}

/// The row store a segment retains: every column through the codec cascade.
fn encode_store(matrix: &EncodedMatrix) -> ColumnarStore {
    let _codec = span(Stage::Codec);
    ColumnarStore::encode(matrix)
}

/// A segment over already-encoded rows: the synopsis registration would build
/// over the same rows (same sample, min/max initial edges), then the store.
fn sealed_segment(
    matrix: &EncodedMatrix,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
    epoch: u64,
) -> Segment {
    let mut engine = {
        let _synopsis = span(Stage::Synopsis);
        PairwiseHist::build_from_encoded(matrix, pre.clone(), cfg)
    };
    engine.plan_epoch = epoch;
    Segment::new(engine, encode_store(matrix))
}

/// Seals delta rows into a fresh segment ([`sealed_segment`]) stamped with the
/// table epoch. Encode buffers come from `scratch` so repeated seals don't
/// re-allocate (the ingest-p99 fix).
pub(crate) fn seal_segment(
    rows: &Dataset,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
    epoch: u64,
    scratch: &mut EncodeScratch,
) -> Segment {
    let _seal = span(Stage::Seal);
    let matrix = pre.encode_with(rows, scratch);
    let segment = sealed_segment(&matrix, pre, cfg, epoch);
    scratch.reclaim(matrix);
    segment
}

/// Builds the delta synopsis over un-sealed rows, stamped with the table epoch.
pub(crate) fn build_delta(
    rows: &Dataset,
    pre: &Arc<Preprocessor>,
    cfg: &PairwiseHistConfig,
    epoch: u64,
) -> PairwiseHist {
    let mut engine = PairwiseHist::build_with_preprocessor(rows, pre.clone(), cfg);
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
    sealed_segment(&EncodedMatrix::new(cols), pre, cfg, epoch)
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
    store: &ColumnarStore,
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
    /// Retained-row bytes across sealed segments, each segment's rows in the
    /// per-column codec cascade.
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

    /// A seal runs no GreedyGD. Where the fit would end all-deviation (one base,
    /// so every column one seed value and min/max initial edges, as on Power
    /// and Flights) its synopsis is the paper's long way round — the synopsis
    /// `build_from_gd` refines over the GreedyGD store of the same rows — byte
    /// for byte, sampled and not; and it is the synopsis registration builds
    /// over those rows. Its store is the cascade's.
    #[test]
    fn sealed_segment_is_build_from_gd_where_the_fit_ends_all_deviation() {
        for (name, n, seal) in [("Power", 6_000, 2_500), ("Flights", 3_000, 1_200)] {
            let data = ph_datagen::generate(name, n, 3).expect("known dataset");
            let pre = Arc::new(Preprocessor::fit(&data));
            let rows = data.slice(n - seal, seal);
            let matrix = pre.encode(&rows);
            let gd = ph_gd::GdCompressor::new().compress(&matrix);
            assert_eq!(gd.n_bases(), 1, "{name}: the fit kept base bits");
            for ns in [100_000, 900, 40] {
                let cfg = PairwiseHistConfig { ns, ..Default::default() };
                let sealed = sealed_segment(&matrix, &pre, &cfg, 7);
                let long_way = PairwiseHist::build_from_gd(&gd, pre.clone(), &cfg);
                let registered = registration_segment(&rows, &pre, &cfg);
                let bytes = sealed.engine.to_bytes();
                assert_eq!(bytes, long_way.to_bytes(), "{name} ns {ns}");
                assert_eq!(bytes, registered.engine.to_bytes(), "{name} ns {ns}");
                assert_eq!(sealed.engine.plan_epoch(), 7);
                let cascade = ColumnarStore::encode(&matrix).to_bytes();
                assert_eq!(sealed.store.to_bytes(), cascade, "{name} ns {ns}");
                assert_eq!(registered.store.to_bytes(), cascade, "{name} ns {ns}");
            }
        }
    }

    /// A machine-generated stream: `ts` ascends row by row, `month` in steps, `x`
    /// is noise, `y` follows `x` (with NULLs), `c` is a fixed mix and `shift`
    /// changes its categories as time passes.
    fn stream(n: usize, seed: u64) -> Dataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ts: Vec<Option<i64>> =
            (0..n).map(|i| Some(1_600_000_000 + 60 * i as i64 + rng.gen_range(0..60))).collect();
        let month: Vec<Option<i64>> = (0..n).map(|i| Some(1 + (12 * i / n) as i64)).collect();
        let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..800))).collect();
        let y: Vec<Option<f64>> = x
            .iter()
            .map(|v| (!rng.gen_bool(0.05)).then(|| v.unwrap() as f64 * 0.25 + rng.gen_range(0.0..40.0)))
            .collect();
        let c: Vec<Option<&str>> =
            (0..n).map(|_| Some(["a", "b", "c", "d"][rng.gen_range(0..4usize)])).collect();
        let shift: Vec<Option<&str>> = (0..n)
            .map(|i| Some(["dawn", "day", "dusk"][(3 * i / n + rng.gen_range(0..2usize)).min(2)]))
            .collect();
        Dataset::builder("s")
            .column(C::from_timestamps("ts", ts))
            .unwrap()
            .column(C::from_ints("month", month))
            .unwrap()
            .column(C::from_ints("x", x))
            .unwrap()
            .column(C::from_floats("y", y, 2))
            .unwrap()
            .column(C::from_strings("c", c))
            .unwrap()
            .column(C::from_strings("shift", shift))
            .unwrap()
            .build()
    }

    /// Every field of every estimate, as bits: `==` would let `-0.0` pass for `0.0`.
    fn answer_bits(a: &AqpAnswer) -> Vec<(String, [u64; 5])> {
        let bits = |e: &crate::Estimate| [e.value, e.lo, e.hi, e.support, e.mean].map(f64::to_bits);
        match a {
            AqpAnswer::Scalar(e) => e.iter().map(|e| (String::new(), bits(e))).collect(),
            AqpAnswer::Groups(g) => g.iter().map(|(k, e)| (k.clone(), bits(e))).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// Skipping an engine that cannot match changes nothing but the work: on
        /// time-sliced segments plus a delta, every plan answers bit for bit as it
        /// does with the prune test bypassed — generated plans (seven aggregates,
        /// 1–5 predicates, AND/OR, a third grouped) and, per aggregate, scalar and
        /// grouped, ranges on the ordering columns that keep some engines, one
        /// engine, or none.
        #[test]
        fn prop_pruned_execute_equals_full_fan_out(seed in 0u64..10_000) {
            let n = 6_000;
            let data = stream(n, seed);
            let pre = Arc::new(Preprocessor::fit(&data));
            let cfg = PairwiseHistConfig {
                ns: if seed % 2 == 0 { 1_500 } else { 900 },
                ..Default::default()
            };
            let sealed = 3 + (seed % 2) as usize;
            let per = n / 5;
            let segments: Vec<Arc<Segment>> = (0..sealed)
                .map(|k| Arc::new(sealed_segment(&pre.encode(&data.slice(k * per, per)), &pre, &cfg, 9)))
                .collect();
            let mut state =
                TableState::new(9, pre.clone(), segments, cfg.clone(), SealPolicy::default());
            let tail = data.slice(sealed * per, n - sealed * per);
            state.delta = Some(build_delta(&tail, &pre, &cfg, 9));

            let mut queries: Vec<String> = ph_workload::generate(
                &data,
                &ph_workload::WorkloadConfig {
                    group_by_probability: 0.3,
                    check_rows: 2_000,
                    ..ph_workload::WorkloadConfig::scaled(60, seed)
                },
            )
            .iter()
            .map(|q| q.to_string())
            .collect();
            let at = |frac: f64| 1_600_000_000 + (60.0 * n as f64 * frac) as i64;
            for agg in ph_sql::AggFunc::ALL {
                for group in ["", " GROUP BY c", " GROUP BY shift"] {
                    for range in [
                        format!("ts > {} AND y < 150", at(0.5)),
                        format!("x > 100 AND ts < {}", at(0.15)),
                        format!("ts > {} AND ts < {} AND c <> 'a'", at(0.45), at(0.55)),
                        "month = 7 AND (x < 200 OR y > 90)".to_string(),
                        "month > 12".to_string(),
                        format!("ts > {}", at(2.0)),
                        "x < 300 AND x > 500".to_string(),
                    ] {
                        queries.push(format!("SELECT {agg}(x) FROM s WHERE {range}{group}"));
                    }
                }
            }

            let (mut skipped, mut emptied) = (0, 0);
            for sql in &queries {
                let q = ph_sql::parse_query(sql).unwrap();
                let before = state.fanout.pruned.get();
                let pruned = state.execute_query(&q).unwrap();
                let skips = state.fanout.pruned.get() - before;
                BYPASS_PRUNING.with(|b| b.set(true));
                let full = state.execute_query(&q).unwrap();
                BYPASS_PRUNING.with(|b| b.set(false));
                proptest::prop_assert_eq!(answer_bits(&pruned), answer_bits(&full), "{}", sql);
                skipped += usize::from(skips > 0);
                emptied += usize::from(skips == sealed as u64 + 1);
            }
            // The corpus reaches both the partial skip and the all-pruned answer.
            proptest::prop_assert!(skipped >= 7 * 3 * 6 && emptied >= 7 * 3 * 3, "{} / {}", skipped, emptied);
            let engines = (sealed + 1) as u64 * queries.len() as u64;
            proptest::prop_assert_eq!(
                state.fanout.consulted.get() + state.fanout.pruned.get(),
                2 * engines
            );
        }
    }

    /// The round trip the whole refit path leans on: compress → decode gives
    /// back exactly the original rows, every type, nulls included.
    #[test]
    fn store_decode_roundtrips_all_column_types() {
        let data = sample();
        let pre = Preprocessor::fit(&data);
        let matrix = pre.encode(&data);
        let store = ColumnarStore::encode(&matrix);
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
