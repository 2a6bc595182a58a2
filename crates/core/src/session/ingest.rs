//! Writing a table: `ingest` (fold, seal or refit, then one publish step),
//! `compact`, and the seal policy. Every writer holds the table's one writer
//! lock (`TableCell::writer`) from start to publish.

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use ph_obs::{span, Stage};
use ph_types::{Dataset, PhError};

use crate::build::next_plan_epoch;
use crate::segment::{
    build_delta, decode_store, merge_segments, registration_segment, seal_segment, CompactReport,
    Segment, TableState,
};

use super::Session;

/// Outcome of one [`Session::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Rows folded into the table.
    pub rows: usize,
    /// The table's staleness *after* this batch: the fraction of the serving
    /// sample held by the un-sealed delta (0 right after a seal or rebuild).
    pub staleness: f64,
    /// Whether this batch changed the table's plan epoch — a seal (the delta
    /// froze into a segment) or a full refit rebuild (the batch carried values
    /// the fitted transforms could not encode). Held
    /// [`Prepared`](crate::Prepared) handles fail with [`PhError::StalePlan`]
    /// afterwards.
    pub rebuilt: bool,
    /// Sealed segments created by this batch (0 on the pure edge-free path).
    pub sealed_segments: usize,
}

impl Session {
    /// Sets the staleness threshold above which [`Session::ingest`] seals a
    /// table's delta into a segment (default 0.5 — seal once at most half the
    /// serving sample is un-refined delta), for every registered table and
    /// every table registered later. Sealing re-refines the delta's synopsis,
    /// so it mints a fresh plan epoch. The threshold is part of each table's
    /// persisted state: [`Session::open_dir`] restores it, and under a WAL
    /// home the change is checkpointed.
    pub fn set_max_staleness(&self, threshold: f64) {
        self.set_policy(|p| p.max_staleness = threshold.max(0.0));
    }

    /// Sets the delta size (rows) above which [`Session::ingest`] seals, cutting
    /// the delta into segment-sized slices (default 50 000), for every
    /// registered table and every table registered later. Smaller thresholds
    /// seal more often (cheaper per seal, more segments to merge at query
    /// time); larger ones batch more work per seal. Persisted and restored
    /// like [`Session::set_max_staleness`].
    pub fn set_seal_threshold(&self, rows: usize) {
        self.set_policy(|p| p.rows = rows.max(1));
    }

    /// Folds a batch of new rows into `table`. The batch must match the table's
    /// schema: same column names **and** logical types, in order.
    ///
    /// The hot path costs O(rows + dictionary entries those rows reference),
    /// whatever the size of the fitted dictionaries, of the dictionary the batch
    /// carries (a slice of a larger table carries that table's) and of the one
    /// the delta has accumulated: the batch is cut down to its referenced
    /// entries at the door, each is looked up once in the fitted index, and the
    /// journal record, the delta rows and the fold all take that one form. It
    /// appends to the table's raw delta rows and folds into the delta's synopsis
    /// through the edge-free update path (`update.rs`), leaving every sealed
    /// segment untouched. The fold is out of place, into a copy of the delta
    /// synopsis: a few buffers per column, whatever the number of pairs, the
    /// one term left that is not O(batch). When the delta
    /// crosses [`Session::set_seal_threshold`] rows — or its staleness crosses
    /// [`Session::set_max_staleness`] — it is **sealed**: cut into segment-sized
    /// slices, each compressed and refined into a fresh synopsis, appended to
    /// the segment list. Sealing costs O(threshold) regardless of how large the
    /// table has grown; there is no full-table rebuild on this path.
    ///
    /// The replacement state is built **out of place** — readers keep answering
    /// from the current version the whole time — and swapped in atomically at the
    /// end. Concurrent `ingest` calls on the same table serialize on a per-table
    /// writer lock (never blocking readers); different tables ingest in parallel.
    ///
    /// Batches containing categorical values or NULLs unrepresentable under the
    /// table's fitted transforms cannot take any incremental path: they trigger
    /// the one remaining full rebuild — every segment's compressed rows are
    /// decoded, the transforms refit over all rows plus the batch, and the table
    /// collapses to a single fresh segment. Because compressed rows round-trip,
    /// this works on reopened catalogs too.
    ///
    /// Seals and rebuilds mint a fresh plan epoch and invalidate the table's
    /// cached plans; held handles fail with [`PhError::StalePlan`] rather than
    /// answering wrongly.
    ///
    /// Under a WAL home (see [`Session::enable_wal`]) the batch is journaled
    /// and fsynced before it is published, so an `Ok` survives a crash, and a
    /// seal or refit is checkpointed before `ingest` returns: the new
    /// segments' blobs and the table's manifest are committed, and the log,
    /// which then holds no un-sealed batch, is deleted. A failed checkpoint
    /// does not fail the ingest — the batch is already in the log, which stays
    /// until a later checkpoint commits it (see
    /// [`TableStats::checkpoint_failures`](super::TableStats::checkpoint_failures)).
    ///
    /// A schema-valid batch with no rows changes nothing: it is answered with
    /// `rows: 0` and neither journaled nor published.
    pub fn ingest(&self, table: &str, batch: &Dataset) -> Result<IngestReport, PhError> {
        let cell = self.cell(table)?;
        // One writer per table at a time; readers are never blocked by it.
        let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.adopt(table, &cell, &mut w)?;
        let cur = cell.snapshot();
        let pre = cur.pre.clone();
        let admit = span(Stage::Admit);
        // Full schema validation up front: nothing below may fail half-applied.
        if batch.n_columns() != pre.n_columns() {
            return Err(PhError::Schema(format!(
                "batch has {} columns, table '{table}' has {}",
                batch.n_columns(),
                pre.n_columns()
            )));
        }
        for (c, (name, col)) in
            batch.columns().iter().zip(pre.names().iter().zip(0..pre.n_columns()))
        {
            if c.name() != name || c.ty() != pre.column_type(col) {
                return Err(PhError::Schema(format!(
                    "batch column '{}' ({:?}) does not match table '{table}' column \
                     '{name}' ({:?})",
                    c.name(),
                    c.ty(),
                    pre.column_type(col)
                )));
            }
        }
        if batch.n_rows() == 0 {
            // Folding no rows would still publish a delta synopsis — an empty
            // one, which the next batch would fold into instead of getting a
            // refined delta of its own.
            return Ok(IngestReport {
                rows: 0,
                staleness: cur.staleness(),
                rebuilt: false,
                sealed_segments: 0,
            });
        }
        // One form of the batch from here on — dictionaries cut down to the
        // entries its rows reference — for the journal, the delta rows and the
        // fold alike: a replayed table is fed exactly what the live one kept,
        // so the two stay identical through any later refit (whose frequency
        // ties fall in dictionary order), and nothing downstream pays for
        // entries the batch merely carries.
        let batch = batch.with_compact_dictionaries();
        let batch: &Dataset = &batch;
        // Two batch shapes the fitted transforms cannot encode, so no
        // incremental path can absorb them: categorical values outside the
        // dictionary, and NULLs in a column that had none at fit time (no null
        // code exists — the sentinel the encoder would emit reads back as a
        // real value). The lookup that decides the first is the one the fold
        // encodes through.
        let ranks = pre.resolve(batch);
        let has_novel_null =
            batch.columns().iter().enumerate().any(|(col, c)| {
                c.valid_count() < c.len() && pre.transform(col).null_code().is_none()
            });
        drop(admit);

        let (next, outcome) = if ranks.has_novel() || has_novel_null {
            // Full refit rebuild: decode every segment's compressed rows, add
            // the delta and the batch, refit the transforms over everything and
            // collapse to one fresh segment. O(total) — the documented cost of
            // values the fitted encoding cannot represent. The delta rows are
            // only consumed *after* the rebuild succeeds: a failure (a store
            // holding a code with no preimage) must leave the table — and the
            // delta-rows ↔ delta-synopsis invariant — exactly as it was.
            let next = rebuild_with_batch(table, &cur, w.delta_rows.as_ref(), Some(batch))?;
            // Journal only once the batch is certain to apply: a journaled
            // batch that could never re-apply would poison replay.
            self.wal_append(table, &cell, batch)?;
            w.delta_rows = None;
            (next, Outcome::Refit)
        } else {
            // Durability point: the batch is accepted — journal it (append +
            // fsync) *before* any in-memory mutation, so once `ingest` returns
            // the rows are recoverable. On a journaling failure (e.g. disk
            // full) the table is untouched and the error propagates; a torn
            // record from a crash mid-append is discarded by replay as an
            // unacknowledged tail. Nothing after this point can fail: the batch
            // schema was fully validated above, so the delta append and
            // synopsis fold are total.
            self.wal_append(table, &cell, batch)?;
            // Edge-free hot path: grow the raw delta rows in place and decide
            // sealing on the grown delta. `cur` keeps serving until the swap.
            match w.delta_rows.as_mut() {
                Some(d) => d.append(batch)?,
                None => w.delta_rows = Some(batch.clone()),
            }
            // Prospective staleness if we only edge-ingest: the grown delta's
            // share of the table's rows (row-based like
            // `TableState::staleness`, so a table registered far larger than
            // its sample size doesn't overstate the delta and seal early).
            let delta_n = w.delta_rows.as_ref().map_or(0, Dataset::n_rows);
            let seg_rows: u64 = cur.segments.iter().map(|s| s.engine.params().n_total).sum();
            let prospective = delta_n as f64 / (seg_rows as f64 + delta_n as f64).max(1.0);
            let seal = delta_n >= cur.policy.rows || prospective > cur.policy.max_staleness;
            match if seal { w.delta_rows.take() } else { None } {
                // Sealing would *freeze* the delta's encoding into a compressed
                // store — including the lossy saturation of numeric values
                // below the fitted minimum (`encode` clamps them to 0). Raw
                // delta rows still hold the true values, so when such values
                // are present we refit instead: decode everything, fit
                // transforms that cover the extended range, rebuild once. A
                // table whose stores do not decode can't refit; its batch is
                // already journaled, so it seals as encoded rather than failing.
                Some(rows) => match below_fitted_min(&pre, &rows)
                    .then(|| rebuild_with_batch(table, &cur, Some(&rows), None))
                {
                    Some(Ok(next)) => (next, Outcome::Refit),
                    _ => seal_delta(&cur, &rows, &mut w.encode_scratch),
                },
                // Pure O(batch) path: fold the encoded batch into the delta
                // synopsis out of place (or build it from the first batch),
                // keep the epoch.
                None => {
                    let delta = {
                        let _fold = span(Stage::Fold);
                        match &cur.delta {
                            Some(engine) => {
                                let rows =
                                    pre.encode_resolved(batch, &ranks, &mut w.encode_scratch);
                                let next = engine.with_ingested(&rows);
                                w.encode_scratch.reclaim(rows);
                                next
                            }
                            None => build_delta(batch, &pre, &cur.cfg, cur.epoch),
                        }
                    };
                    let next = cur.successor(cur.epoch, pre, cur.segments.clone(), Some(delta));
                    (next, Outcome::Fold)
                }
            }
        };

        // The one publish step. A seal or refit changed the epoch: drop the
        // table's cached plans — after the swap, so a replan triggered by the
        // invalidation can only ever see the new epoch — and checkpoint.
        let delta_bytes = w.delta_rows.as_ref().map_or(0, Dataset::heap_size);
        cell.delta_bytes.store(delta_bytes, Ordering::Relaxed);
        let staleness = next.staleness();
        // Whatever the superseded version frees is freed here, outside the
        // state lock (unless a reader still holds it).
        drop(cell.swap(next));
        let rebuilt = !matches!(outcome, Outcome::Fold);
        if rebuilt {
            self.cache.invalidate_table(table);
            self.sealed(table, &cell, &mut w);
        }
        Ok(IngestReport {
            rows: batch.n_rows(),
            staleness,
            rebuilt,
            sealed_segments: match outcome {
                Outcome::Seal(n) => n,
                Outcome::Fold | Outcome::Refit => 0,
            },
        })
    }

    /// Merges `table`'s small sealed segments (fewer rows than the seal
    /// threshold) into one: their compressed stores are decompressed,
    /// concatenated, re-compressed, and a single synopsis is refined over the
    /// result — cost bounded by the rows of the segments being merged, never the
    /// whole table. The shared transforms are unchanged, so the plan epoch is
    /// kept and held plans stay valid.
    ///
    /// Serializes with ingest on the per-table writer lock; readers are never
    /// blocked. Under a WAL home the merged segment is checkpointed — its one
    /// new blob, then the manifest — before `compact` returns, so a crash does
    /// not undo it; if that checkpoint fails (see
    /// [`TableStats::checkpoint_failures`](super::TableStats::checkpoint_failures)),
    /// a crash before the table's next checkpoint recovers it uncompacted.
    pub fn compact(&self, table: &str) -> Result<CompactReport, PhError> {
        let cell = self.cell(table)?;
        let mut w = cell.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let cur = cell.snapshot();
        let threshold = cur.policy.rows;
        let is_small = |s: &Arc<Segment>| s.n_rows() < threshold;
        let small: Vec<Arc<Segment>> =
            cur.segments.iter().filter(|s| is_small(s)).cloned().collect();
        let before = cur.segments.len();
        if small.len() < 2 {
            return Ok(CompactReport {
                segments_before: before,
                segments_after: before,
                rows_compacted: 0,
            });
        }
        let rows_compacted: usize = small.iter().map(|s| s.n_rows()).sum();
        let merged = Arc::new(merge_segments(&small, &cur.pre, &cur.cfg, cur.epoch));
        // The merged segment takes the position of the oldest segment it
        // absorbed, keeping the list oldest-first (and the primary engine —
        // `TableSnapshot`'s deref target — stable whenever segment 0 survives).
        let mut segments = Vec::with_capacity(before - small.len() + 1);
        let mut merged = Some(merged);
        for seg in &cur.segments {
            if is_small(seg) {
                if let Some(m) = merged.take() {
                    segments.push(m);
                }
            } else {
                segments.push(seg.clone());
            }
        }
        let after = segments.len();
        cell.swap(cur.successor(cur.epoch, cur.pre.clone(), segments, cur.delta.clone()));
        let _ = self.checkpoint(table, &cell, &mut w);
        Ok(CompactReport { segments_before: before, segments_after: after, rows_compacted })
    }
}

/// What one ingest did to its table, for the publish step.
enum Outcome {
    /// The batch folded into the delta synopsis; the epoch is kept.
    Fold,
    /// The delta sealed into this many segments.
    Seal(usize),
    /// Every row refit under fresh transforms, into one segment.
    Refit,
}

/// The refit rebuild: all rows — decoded segment stores, then `delta`, then
/// `batch` — under freshly fitted transforms, as one segment. Pure with
/// respect to the caller's state: the rows are borrowed, not consumed, so a
/// failure leaves the table untouched.
fn rebuild_with_batch(
    table: &str,
    cur: &TableState,
    delta: Option<&Dataset>,
    batch: Option<&Dataset>,
) -> Result<TableState, PhError> {
    let decoded =
        cur.segments.iter().map(|s| decode_store(table, &cur.pre, &s.store).map(Cow::Owned));
    let kept = [delta, batch].into_iter().flatten().map(|d| Ok(Cow::Borrowed(d)));
    let mut all: Option<Dataset> = None;
    for part in decoded.chain(kept) {
        let part = part?;
        match all.as_mut() {
            Some(d) => d.append(&part)?,
            None => all = Some(part.into_owned()),
        }
    }
    let all = all.ok_or_else(|| PhError::Corrupt(format!("table '{table}' has no rows")))?;
    let pre = Arc::new(ph_gd::Preprocessor::fit(&all));
    let segment = registration_segment(&all, &pre, &cur.cfg);
    let epoch = segment.engine.plan_epoch();
    Ok(cur.successor(epoch, pre, vec![Arc::new(segment)], None))
}

/// Seals the whole delta: threshold-sized slices become segments, the last
/// one possibly smaller. A fresh epoch is minted — sealing re-refines the
/// delta's synopsis — and retained segments are restamped so the version keeps
/// one epoch for all engines.
fn seal_delta(
    cur: &TableState,
    rows: &Dataset,
    scratch: &mut ph_gd::EncodeScratch,
) -> (TableState, Outcome) {
    let epoch = next_plan_epoch();
    let mut segments: Vec<Arc<Segment>> =
        cur.segments.iter().map(|s| Arc::new(s.restamped(epoch))).collect();
    let threshold = cur.policy.rows;
    for start in (0..rows.n_rows()).step_by(threshold) {
        let slice = rows.slice(start, threshold);
        segments.push(Arc::new(seal_segment(&slice, &cur.pre, &cur.cfg, epoch, scratch)));
    }
    let sealed = segments.len() - cur.segments.len();
    (cur.successor(epoch, cur.pre.clone(), segments, None), Outcome::Seal(sealed))
}

/// Whether `data` holds a numeric value below the fitted minimum of its
/// column's transform — the one value shape `Preprocessor::encode` cannot
/// represent losslessly (it saturates to 0). Sealing such rows would bake the
/// corruption into a compressed store, so the seal path refits instead.
fn below_fitted_min(pre: &ph_gd::Preprocessor, data: &Dataset) -> bool {
    data.columns().iter().enumerate().any(|(col, c)| match pre.transform(col) {
        ph_gd::ColumnTransform::Numeric { min_scaled, scale, .. } => {
            let factor = 10f64.powi(*scale as i32);
            (0..c.len())
                .any(|i| c.numeric(i).is_some_and(|x| ((x * factor).round() as i64) < *min_scaled))
        }
        ph_gd::ColumnTransform::Categorical { .. } => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::{dataset, session_with};
    use ph_types::Column;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ingest_updates_counts_and_reports_staleness() {
        let s = session_with("t", 10_000, 8);
        s.set_max_staleness(0.9); // keep the edge-free path for this test
        let r = s.ingest("t", &dataset("t", 5_000, 9)).unwrap();
        assert_eq!(r.rows, 5_000);
        assert!(!r.rebuilt);
        assert_eq!(r.sealed_segments, 0);
        assert!((r.staleness - 1.0 / 3.0).abs() < 0.01, "got {}", r.staleness);
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 15_000.0).abs() / 15_000.0 < 0.02, "{}", est.value);
    }

    #[test]
    fn staleness_policy_triggers_seal_and_invalidates_plans() {
        let s = session_with("t", 6_000, 10);
        s.set_max_staleness(0.3);
        let sql = "SELECT COUNT(x) FROM t WHERE x > 250";
        s.sql(sql).unwrap();
        assert_eq!(s.cache_stats().entries, 1);
        // A batch as large as the base: staleness 0.5 > 0.3 → seal.
        let r = s.ingest("t", &dataset("t", 6_000, 11)).unwrap();
        assert!(r.rebuilt, "staleness policy must trigger a seal");
        assert_eq!(r.sealed_segments, 1);
        assert_eq!(r.staleness, 0.0, "a sealed delta is not stale");
        assert_eq!(s.cache_stats().entries, 0, "sealing invalidates cached plans");
        assert_eq!(s.engine("t").unwrap().n_segments(), 2);
        // The segment fan-out serves the combined rows.
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 12_000.0).abs() / 12_000.0 < 0.02, "{}", est.value);
    }

    #[test]
    fn seal_threshold_cuts_delta_into_segments() {
        let s = session_with("t", 4_000, 40);
        s.set_max_staleness(f64::INFINITY); // only the size threshold may seal
        s.set_seal_threshold(3_000);
        // Two small batches stay delta-resident…
        assert_eq!(s.ingest("t", &dataset("t", 1_000, 41)).unwrap().sealed_segments, 0);
        assert_eq!(s.ingest("t", &dataset("t", 1_000, 42)).unwrap().sealed_segments, 0);
        assert_eq!(s.engine("t").unwrap().n_segments(), 1);
        assert!(s.engine("t").unwrap().delta().is_some());
        // …until one crosses the threshold: a 5k batch makes a 7k delta, sealed
        // at threshold boundaries (`Dataset::slice`) into 3k + 3k + 1k segments.
        let r = s.ingest("t", &dataset("t", 5_000, 43)).unwrap();
        assert!(r.rebuilt);
        assert_eq!(r.sealed_segments, 3, "7k delta → 3k + 3k + 1k slices");
        let snap = s.engine("t").unwrap();
        assert_eq!(snap.n_segments(), 4);
        assert!(snap.delta().is_none(), "sealing drains the delta");
        // Every row is still served.
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 11_000.0).abs() / 11_000.0 < 0.03, "{}", est.value);
    }

    /// The one publish step, by batch shape: a plain fold keeps the epoch, the
    /// table's cached plans and the home's checkpoints as they were; a
    /// threshold seal, a refit for a value below the fitted minimum and a
    /// refit for a novel category each mint an epoch, drop the plans and
    /// commit a checkpoint. Either way the table's stats say what the report
    /// says.
    #[test]
    fn every_batch_shape_publishes_through_one_step() {
        let rows = |n: usize, x0: i64, c0: &str| {
            let x = (0..n as i64).map(|i| Some(if i == 0 { x0 } else { i % 1_000 })).collect();
            let y = (0..n as i64).map(|i| Some(i % 2_000)).collect();
            let c = (0..n).map(|i| Some(if i == 0 { c0 } else { ["a", "b", "c"][i % 3] }));
            Dataset::builder("t")
                .column(Column::from_ints("x", x))
                .unwrap()
                .column(Column::from_ints("y", y))
                .unwrap()
                .column(Column::from_strings("c", c.collect()))
                .unwrap()
                .build()
        };
        let shapes = [
            ("fold", rows(500, 0, "a"), false),
            ("threshold seal", rows(3_000, 0, "a"), true),
            ("below-minimum refit", rows(3_000, -5, "a"), true),
            ("novel-category refit", rows(500, 0, "NEW"), true),
        ];
        for (k, (shape, batch, rebuilt)) in shapes.iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("ph_publish_{}_{k}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let s = Session::new();
            s.set_max_staleness(f64::INFINITY);
            s.set_seal_threshold(3_000);
            s.enable_wal(&dir).unwrap();
            s.register(dataset("t", 6_000, 70)).unwrap();
            s.sql("SELECT COUNT(x) FROM t WHERE y > 100").unwrap();
            let before = s.table_stats("t").unwrap();
            let report = s.ingest("t", batch).unwrap();
            let after = s.table_stats("t").unwrap();
            let changed = [
                report.rebuilt,
                after.epoch != before.epoch,
                s.cache_stats().entries == 0,
                after.checkpoints > before.checkpoints,
            ];
            assert_eq!(changed, [*rebuilt; 4], "{shape}: {report:?}");
            assert_eq!(report.sealed_segments > 0, *shape == "threshold seal", "{shape}");
            assert_eq!(after.staleness, report.staleness, "{shape}");
            let delta = if report.rebuilt { 0 } else { before.delta_rows + report.rows as u64 };
            assert_eq!(after.delta_rows, delta, "{shape}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn compact_merges_small_segments() {
        let s = session_with("t", 3_000, 50);
        // Staleness-triggered seals produce under-threshold segments — exactly
        // the fragmentation compact exists to undo. 0.1 makes every 1k batch
        // seal on its own.
        s.set_max_staleness(0.1);
        for k in 0..4 {
            s.ingest("t", &dataset("t", 1_000, 51 + k)).unwrap();
        }
        let before_answer = s.sql("SELECT COUNT(x) FROM t WHERE x > 500").unwrap();
        let snap = s.engine("t").unwrap();
        assert!(snap.n_segments() >= 4, "got {}", snap.n_segments());
        // A plan held across compact stays valid: the epoch is kept.
        let plan = s.prepare("SELECT AVG(y) FROM t WHERE x > 100").unwrap();
        let report = s.compact("t").unwrap();
        assert!(report.segments_after < report.segments_before);
        assert!(report.rows_compacted > 0);
        assert!(s.execute(&plan).is_ok(), "compaction must not stale plans");
        // Counts agree before and after (compaction rebuilds over identical rows).
        let after_answer = s.sql("SELECT COUNT(x) FROM t WHERE x > 500").unwrap();
        let (b, a) = (before_answer.scalar().unwrap(), after_answer.scalar().unwrap());
        assert!((b.value - a.value).abs() / b.value.max(1.0) < 0.05, "{} vs {}", b.value, a.value);
        // Compacting again is a no-op report.
        let again = s.compact("t").unwrap();
        assert_eq!(again.rows_compacted, 0);
    }

    #[test]
    fn ingest_schema_mismatch_rejected() {
        let s = session_with("t", 1_000, 12);
        let bad =
            Dataset::builder("t").column(Column::from_ints("x", vec![Some(1)])).unwrap().build();
        assert!(matches!(s.ingest("t", &bad), Err(PhError::Schema(_))));
        // Same names, wrong type: rejected before anything mutates.
        let before = s.engine("t").unwrap().params().clone();
        let bad_ty = Dataset::builder("t")
            .column(Column::from_floats("x", vec![Some(1.0)], 1))
            .unwrap()
            .column(Column::from_ints("y", vec![Some(2)]))
            .unwrap()
            .column(Column::from_strings("c", vec![Some("a")]))
            .unwrap()
            .build();
        assert!(matches!(s.ingest("t", &bad_ty), Err(PhError::Schema(_))));
        assert_eq!(s.engine("t").unwrap().params(), &before, "failed ingest must be a no-op");
        assert!(matches!(
            s.ingest("missing", &dataset("t", 10, 13)),
            Err(PhError::UnknownTable(_))
        ));
    }

    #[test]
    fn novel_categories_force_rebuild_even_when_reopened() {
        let s = session_with("t", 4_000, 30);
        s.set_max_staleness(10.0); // only the novel category may trigger a rebuild
        let batch = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let n = 500;
            let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
            let y: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..2000))).collect();
            let c: Vec<Option<&str>> = (0..n).map(|_| Some("NEW")).collect(); // unseen
            Dataset::builder("t")
                .column(Column::from_ints("x", x))
                .unwrap()
                .column(Column::from_ints("y", y))
                .unwrap()
                .column(Column::from_strings("c", c))
                .unwrap()
                .build()
        };
        // The unseen category forces a full refit rebuild (no panic).
        let r = s.ingest("t", &batch).unwrap();
        assert!(r.rebuilt, "unseen category must force a rebuild");
        let grouped = s.sql("SELECT COUNT(x) FROM t GROUP BY c").unwrap();
        assert!(grouped.groups().unwrap().contains_key("NEW"), "new category queryable");

        // A reopened catalog used to be a dead-end here (`rows: None`); the
        // segmented format ships compressed rows, so the same rebuild works
        // after a cold start.
        let dir = std::env::temp_dir().join(format!("ph_sess_novel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save_dir(&dir).unwrap();
        let cold = Session::open_dir(&dir).unwrap();
        let batch2 = {
            let x = vec![Some(1i64)];
            let y = vec![Some(2i64)];
            let c = vec![Some("NEWER")];
            Dataset::builder("t")
                .column(Column::from_ints("x", x))
                .unwrap()
                .column(Column::from_ints("y", y))
                .unwrap()
                .column(Column::from_strings("c", c))
                .unwrap()
                .build()
        };
        let r = cold.ingest("t", &batch2).expect("reopened catalogs must stay ingestable");
        assert!(r.rebuilt);
        let grouped = cold.sql("SELECT COUNT(x) FROM t GROUP BY c").unwrap();
        assert!(
            grouped.groups().unwrap().contains_key("NEWER"),
            "novel category lands after a cold reopen"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn novel_nulls_force_rebuild_not_corruption() {
        // Base table with NO nulls anywhere: the fitted transforms have no null
        // codes, so a null-bearing batch cannot take the edge-free path (its
        // sentinel would read back as a real value and corrupt COUNT/MAX).
        let n = 4_000;
        let x: Vec<Option<i64>> = (0..n).map(|i| Some(i % 100)).collect();
        let y: Vec<Option<i64>> = (0..n).map(|i| Some((i % 100) * 2)).collect();
        let base = Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .build();
        let s = Session::new();
        s.register(base).unwrap();
        s.set_max_staleness(10.0); // only the novel nulls may trigger the rebuild

        let batch = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(5), None, Some(7)]))
            .unwrap()
            .column(Column::from_ints("y", vec![None, Some(4), Some(14)]))
            .unwrap()
            .build();
        let r = s.ingest("t", &batch).unwrap();
        assert!(r.rebuilt, "null-introducing batch must rebuild, not edge-ingest");
        let count = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert_eq!(count.value, (n + 2) as f64, "nulls must not count as values");
        let max = s.sql("SELECT MAX(x) FROM t").unwrap().scalar().unwrap();
        assert!(max.value <= 99.0, "null sentinel must not leak into MAX: {}", max.value);
    }

    /// A failed refit rebuild (a segment store holding a categorical code with
    /// no preimage) must leave the delta — rows *and* synopsis — exactly as it
    /// was, not half-consumed.
    #[test]
    fn failed_refit_rebuild_preserves_delta_rows() {
        let s = session_with("t", 3_000, 90);
        s.set_max_staleness(f64::INFINITY);
        // Swap in a store whose category column carries a rank the dictionary
        // (a, b, c) has no entry for: it serves, but cannot be decoded.
        let cell = s.cell("t").unwrap();
        let cur = cell.snapshot();
        let mut matrix = cur.segments[0].store.decompress();
        matrix.columns[2][0] = 99;
        let doctored =
            Segment::new(cur.segments[0].engine.clone(), ph_gd::ColumnarStore::encode(&matrix));
        cell.swap(cur.successor(cur.epoch, cur.pre.clone(), vec![Arc::new(doctored)], None));

        // Edge-free rows land in the delta…
        s.ingest("t", &dataset("t", 1_000, 91)).unwrap();
        // …then a novel-category batch fails the rebuild (the store does not decode).
        let novel = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(1)]))
            .unwrap()
            .column(Column::from_ints("y", vec![Some(2)]))
            .unwrap()
            .column(Column::from_strings("c", vec![Some("NEW")]))
            .unwrap()
            .build();
        assert!(matches!(s.ingest("t", &novel), Err(PhError::Corrupt(_))));
        // The delta survives: its rows still answer, and further edge ingests
        // (and the seals they trigger) still see them.
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 4_000.0).abs() / 4_000.0 < 0.02, "{}", est.value);
        s.set_seal_threshold(1_500); // next batch crosses it
        let r = s.ingest("t", &dataset("t", 1_000, 92)).unwrap();
        assert!(r.rebuilt, "threshold seal fires over the preserved delta");
        let est = s.sql("SELECT COUNT(x) FROM t").unwrap().scalar().unwrap();
        assert!((est.value - 5_000.0).abs() / 5_000.0 < 0.02, "{}", est.value);
    }
}
