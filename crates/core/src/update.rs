//! Incremental synopsis updates — the first item of the paper's future work (§7,
//! "histogram updates, online refinement").
//!
//! New rows are ingested **without rebuilding**: each (sub-sampled) row is routed to
//! its existing bins, bin counts and value metadata are updated, and out-of-range
//! values extend the outer bins. Bin *edges* are never re-split — refinement
//! decisions stay as built — so estimate quality degrades gracefully as the data
//! distribution drifts; [`PairwiseHist::staleness`] exposes how much of the sample
//! post-dates the last build so callers can schedule a rebuild.
//!
//! Approximations inherent to edge-free updates (documented, deliberate):
//!
//! * unique counts `u` only grow when a value lands outside a bin's previous
//!   `[v⁻, v⁺]` span (we cannot know whether an in-span value is new without the
//!   raw data);
//! * if the synopsis was built from a ρ < 1 sample, ingested batches are themselves
//!   sub-sampled at ρ (deterministically) so the sample stays unbiased.
//!
//! Each rule computes what the build computes, so a folded synopsis is one a
//! decode of its bytes gives back:
//!
//! * a column's outer edges are its 1-d histogram's, which every pair
//!   dimension of the column shares: there is no second copy to widen;
//! * an unsplit pair bin is its 1-d parent and needs no update of its own;
//! * a child of a split 1-d bin takes `v±` / `u` from every row non-NULL in
//!   its own column, as `build2d::finalize_dim` does;
//! * cells and margins count the rows non-NULL in both columns.
//!
//! A fold costs O(sampled rows × (columns + pairs)) plus one pass over the
//! 1-d bins to refresh their derived metadata: each value is searched for
//! once in its column's 1-d edges, and a pair dimension then looks only
//! among that 1-d bin's split children, if it has any.

use rand::Rng;
use rand::SeedableRng;

use ph_gd::EncodedMatrix;
use ph_stats::Chi2Cache;

use crate::bins::{BinMeta, DimBins};
use crate::build::PairwiseHist;

impl PairwiseHist {
    /// Ingests a batch of new rows (encoded in the same schema; null codes included)
    /// into the synopsis without re-splitting any bins.
    ///
    /// `N` grows by the full batch; the internal sample grows by ~`ρ · batch` rows,
    /// keeping the sampling ratio stable.
    ///
    /// Each sampled value is searched for once, in its column's 1-d edges; a
    /// pair dimension then looks only among that 1-d bin's split children.
    ///
    /// # Panics
    /// Panics if the batch's column count differs from the synopsis schema.
    pub fn ingest(&mut self, rows: &EncodedMatrix) {
        assert_eq!(rows.n_columns(), self.n_columns(), "batch schema does not match the synopsis");
        let batch = rows.n_rows;
        if batch == 0 {
            return;
        }
        let rho = self.params.rho();
        // Deterministic thinning keyed on current state, so repeated ingests of the
        // same data are reproducible.
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            0x1b5e_11ed ^ (self.params.n_total) ^ ((self.params.ns as u64) << 32),
        );
        let sampled: Vec<usize> =
            (0..batch).filter(|_| rho >= 1.0 || rng.gen::<f64>() < rho).collect();
        let n = sampled.len();

        // 1-d updates, keeping each sampled value's 1-d bin: column `c`'s are
        // `bin1d[c * n..][..n]`, `NULL_BIN` where the value is NULL.
        let d = self.n_columns();
        let mut bin1d = vec![NULL_BIN; d * n];
        for (c, bins) in self.hist1d.iter_mut().enumerate() {
            let null = self.pre.transform(c).null_code();
            let col = &rows.columns[c];
            for (slot, &r) in bin1d[c * n..][..n].iter_mut().zip(&sampled) {
                let v = col[r];
                if Some(v) == null {
                    continue;
                }
                let t = locate_extending(bins, v);
                bins.counts[t] += 1;
                let mut meta = bins.meta(t);
                meta.bump(v);
                (bins.vmin[t], bins.vmax[t], bins.uniq[t]) = (meta.vmin, meta.vmax, meta.uniq);
                *slot = t as u32;
            }
        }
        // 2-d updates: split children's metadata, then cells and margins.
        let pairs = &mut self.pairs;
        let (mut runs_i, mut runs_j) = (Vec::new(), Vec::new());
        let mut p = 0;
        for cj in 1..d {
            for ci in 0..cj {
                let (cells, [di, dj]) = pairs.ranges(p);
                p += 1;
                for (dim, c, out) in [(&di, ci, &mut runs_i), (&dj, cj, &mut runs_j)] {
                    if !dim.split.is_empty() {
                        runs(&pairs.parents[dim.bins.clone()], self.hist1d[c].k(), out);
                    }
                }
                let (si, sj) =
                    pairs.split_bins[di.split.start..dj.split.end].split_at_mut(di.split.len());
                let mut fold_i =
                    DimFold { edges: &pairs.split_edges[di.edges], split: si, runs: &runs_i };
                let mut fold_j =
                    DimFold { edges: &pairs.split_edges[dj.edges], split: sj, runs: &runs_j };
                let (mi, mj) =
                    pairs.margins[di.bins.start..dj.bins.end].split_at_mut(di.bins.len());
                let (cells, kj) = (&mut pairs.cells[cells], mj.len());
                let (coli, colj) = (&rows.columns[ci], &rows.columns[cj]);
                let (bin_i, bin_j) = (&bin1d[ci * n..][..n], &bin1d[cj * n..][..n]);
                for ((&r, &pi), &pj) in sampled.iter().zip(bin_i).zip(bin_j) {
                    let ti = fold_i.bin(pi, coli[r]);
                    let tj = fold_j.bin(pj, colj[r]);
                    if let (Some(ti), Some(tj)) = (ti, tj) {
                        cells[ti * kj + tj] += 1;
                        mi[ti] += 1;
                        mj[tj] += 1;
                    }
                }
            }
        }

        // Refresh the 1-d bins' derived metadata (midpoints, weighted-centre
        // bounds) through the χ² criticals the synopsis already holds.
        let mut chi2 = Chi2Cache::seeded(self.params.alpha, &self.crit);
        let m_min = self.params.m_min;
        for bins in &mut self.hist1d {
            bins.refresh(m_min, &mut chi2);
        }

        self.params.n_total += batch as u64;
        self.params.ns += n;
    }

    /// Out-of-place ingest: returns a new synopsis equal to `self` with `rows`
    /// folded in, leaving `self` untouched — the building block of epoch-swapped
    /// serving, where readers keep querying the current instance while the
    /// replacement is prepared off to the side and then atomically swapped in.
    ///
    /// The replacement is a clone, so it **shares `self`'s plan epoch**: prepared
    /// plans stay valid across the swap (edge-free ingest never refits the
    /// preprocessor, so resolved column indices and encoded literals still mean
    /// the same thing). A full rebuild, by contrast, always mints a fresh epoch.
    ///
    /// The clone copies a few buffers per column and a fixed handful for all
    /// the pairs together, whatever their number.
    ///
    /// # Panics
    /// Panics if the batch's column count differs from the synopsis schema.
    #[must_use = "the updated synopsis is returned, self is left as-is"]
    pub fn with_ingested(&self, rows: &EncodedMatrix) -> Self {
        let mut next = self.clone();
        next.ingest(rows);
        next
    }

    /// Fraction of the current sample ingested after the last full build: `0.0`
    /// right after construction, approaching `1.0` as updates dominate. A rebuild
    /// re-runs the refinement that updates skip.
    pub fn staleness(&self) -> f64 {
        if self.params.ns == 0 {
            return 0.0;
        }
        1.0 - self.ns_at_build as f64 / self.params.ns as f64
    }
}

/// The 1-d bin of a NULL value: it has none.
const NULL_BIN: u32 = u32::MAX;

/// Fills `out` with, for each of `k1` 1-d bins and then one past the last,
/// where its refined bins start and where their metadata start among the
/// split bins, over a non-decreasing `parent` map that names every 1-d bin.
fn runs(parent: &[u32], k1: usize, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let (mut r, mut split) = (0, 0);
    for t in 0..=k1 {
        out.push((r, split));
        let first = r;
        while parent.get(r) == Some(&(t as u32)) {
            r += 1;
        }
        if r - first > 1 {
            split += r - first;
        }
    }
}

/// One pair dimension as a fold writes it: its split edges, its split bins'
/// metadata and its [`runs`].
struct DimFold<'a> {
    edges: &'a [f64],
    split: &'a mut [BinMeta],
    runs: &'a [(usize, usize)],
}

impl DimFold<'_> {
    /// The refined bin of `v`, a value of 1-d bin `t` (`None` for a NULL):
    /// `t` itself when nothing in the dimension is split, else found among
    /// `t`'s children, whose metadata it updates when `t` is split.
    #[inline]
    fn bin(&mut self, t: u32, v: u64) -> Option<usize> {
        if t == NULL_BIN {
            return None;
        }
        if self.split.is_empty() {
            return Some(t as usize);
        }
        let t = t as usize;
        let ((first, split), (next, _)) = (self.runs[t], self.runs[t + 1]);
        if next - first == 1 {
            return Some(first);
        }
        // `first - t` split edges lie below this bin's children.
        let child = self.edges[first - t..next - t - 1].partition_point(|&e| e < v as f64);
        self.split[split + child].bump(v);
        Some(first + child)
    }
}

/// Finds the bin containing `v`, widening the outer edges when `v` falls outside
/// the histogram's range.
fn locate_extending(bins: &mut DimBins, v: u64) -> usize {
    let x = v as f64;
    if x < bins.edges[0] {
        bins.edges[0] = x - 0.5;
        return 0;
    }
    if x > *bins.edges.last().unwrap() {
        *bins.edges.last_mut().unwrap() = x + 0.5;
        return bins.k() - 1;
    }
    bins.bin_of(v).expect("value within widened edges")
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{PairwiseHistConfig, SplitRule};
    use ph_sql::parse_query;
    use ph_types::{Column, Dataset};
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, offset: i64, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Option<i64>> = (0..n).map(|_| Some(offset + rng.gen_range(0..500))).collect();
        let y: Vec<Option<i64>> =
            x.iter().map(|v| Some(v.unwrap() * 2 + rng.gen_range(0..40))).collect();
        Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .build()
    }

    #[test]
    fn ingest_tracks_count_growth() {
        let base = dataset(20_000, 0, 1);
        let mut ph =
            PairwiseHist::build(&base, &PairwiseHistConfig { ns: 20_000, ..Default::default() });
        let more = dataset(10_000, 0, 2);
        ph.ingest(&ph.preprocessor().clone().encode(&more));
        assert_eq!(ph.params().n_total, 30_000);
        assert_eq!(ph.params().ns, 30_000);

        let q = parse_query("SELECT COUNT(x) FROM t WHERE x < 250").unwrap();
        let est = ph.execute(&q).unwrap().scalar().unwrap();
        // Combined truth over base + more.
        let mut truth = 0.0;
        for d in [&base, &more] {
            truth += ph_exact::evaluate(&q, d).unwrap().scalar().unwrap();
        }
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.05, "{} vs {truth}", est.value);
    }

    #[test]
    fn out_of_range_values_extend_outer_bins() {
        let base = dataset(10_000, 0, 3);
        let mut ph =
            PairwiseHist::build(&base, &PairwiseHistConfig { ns: 10_000, ..Default::default() });
        // New data shifted far beyond the built range. Note: the preprocessor was
        // fitted on the base range, so shift within the same fitted transform.
        let more = dataset(5_000, 300, 4);
        ph.ingest(&ph.preprocessor().clone().encode(&more));
        let q = parse_query("SELECT MAX(x) FROM t").unwrap();
        let est = ph.execute(&q).unwrap().scalar().unwrap();
        assert!(est.value >= 790.0, "extended max should be visible, got {}", est.value);
    }

    #[test]
    fn staleness_grows_with_updates() {
        let base = dataset(10_000, 0, 5);
        let mut ph =
            PairwiseHist::build(&base, &PairwiseHistConfig { ns: 10_000, ..Default::default() });
        assert_eq!(ph.staleness(), 0.0);
        let more = dataset(10_000, 0, 6);
        ph.ingest(&ph.preprocessor().clone().encode(&more));
        assert!((ph.staleness() - 0.5).abs() < 0.01, "got {}", ph.staleness());
    }

    #[test]
    fn sampled_synopsis_thins_ingested_batches() {
        let base = dataset(40_000, 0, 7);
        let mut ph =
            PairwiseHist::build(&base, &PairwiseHistConfig { ns: 10_000, ..Default::default() });
        let more = dataset(20_000, 0, 8);
        ph.ingest(&ph.preprocessor().clone().encode(&more));
        assert_eq!(ph.params().n_total, 60_000);
        // ~rho = 0.25 of the batch joins the sample.
        let added = ph.params().ns - 10_000;
        assert!((3_500..6_500).contains(&added), "added {added} of 20000 at rho 0.25");
        // Counts stay scaled: COUNT over everything ~ 60k.
        let q = parse_query("SELECT COUNT(x) FROM t").unwrap();
        let est = ph.execute(&q).unwrap().scalar().unwrap();
        let rel = (est.value - 60_000.0).abs() / 60_000.0;
        assert!(rel < 0.05, "{}", est.value);
    }

    #[test]
    fn out_of_place_ingest_matches_in_place_and_preserves_original() {
        let base = dataset(10_000, 0, 10);
        let cfg = PairwiseHistConfig { ns: 10_000, ..Default::default() };
        let original = PairwiseHist::build(&base, &cfg);
        let more = dataset(5_000, 0, 11);
        let encoded = original.preprocessor().clone().encode(&more);

        let swapped = original.with_ingested(&encoded);
        let mut in_place = original.clone();
        in_place.ingest(&encoded);

        // Same result either way, epoch shared, and the original is untouched.
        assert_eq!(swapped.params(), in_place.params());
        assert_eq!(swapped.plan_epoch(), original.plan_epoch());
        assert_eq!(original.params().n_total, 10_000);
        assert_eq!(original.staleness(), 0.0);
        let q = parse_query("SELECT COUNT(x) FROM t").unwrap();
        assert_eq!(swapped.execute(&q).unwrap(), in_place.execute(&q).unwrap());
    }

    /// A synopsis over 2–5 generated columns: narrow and wide value ranges,
    /// NULLs, a sample smaller than the table (ρ < 1), both split rules.
    fn generated(rng: &mut rand::rngs::StdRng) -> PairwiseHist {
        let n = rng.gen_range(50..3_000);
        let mut builder = Dataset::builder("g");
        for c in 0..rng.gen_range(2..6) {
            let range = [2, 40, 5_000, 1 << 30][rng.gen_range(0..4)];
            let nulls = [0.0, 0.1, 0.6][rng.gen_range(0..3)];
            let col: Vec<Option<i64>> =
                (0..n).map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_range(0..range))).collect();
            builder = builder.column(Column::from_ints(format!("c{c}"), col)).unwrap();
        }
        let cfg = PairwiseHistConfig {
            ns: (n * rng.gen_range(20..101) / 100).max(1),
            split_rule: if rng.gen_bool(0.3) {
                SplitRule::EqualDepth
            } else {
                SplitRule::EqualWidth
            },
            seed: rng.gen(),
            ..Default::default()
        };
        PairwiseHist::build(&builder.build(), &cfg)
    }

    /// `rows` encoded rows for `ph`: NULL codes, and values inside, below and
    /// above each column's 1-d range.
    fn batch(rng: &mut rand::rngs::StdRng, ph: &PairwiseHist, rows: usize) -> EncodedMatrix {
        let columns = (0..ph.n_columns())
            .map(|c| {
                let bins = ph.hist1d(c);
                let lo = (bins.edges[0] + 0.5) as u64;
                let hi = (bins.edges[bins.k()] - 0.5) as u64;
                let null = ph.preprocessor().transform(c).null_code();
                (0..rows)
                    .map(|_| match (rng.gen_range(0..10), null) {
                        (0, Some(code)) => code,
                        (1, _) => rng.gen_range(0..=lo),
                        (2, _) => hi + rng.gen_range(0..50),
                        _ => rng.gen_range(lo..=hi),
                    })
                    .collect()
            })
            .collect();
        EncodedMatrix::new(columns)
    }

    /// A generated synopsis, as built or through its bytes.
    fn built_or_decoded(rng: &mut rand::rngs::StdRng) -> PairwiseHist {
        let built = generated(rng);
        if rng.gen_bool(0.5) {
            return built;
        }
        PairwiseHist::from_bytes(&built.to_bytes(), built.preprocessor().clone())
            .expect("a built synopsis decodes")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Reusing each value's 1-d bin, reading unsplit pair bins from the
        /// 1-d histograms and the synopsis's own χ² criticals fold what the
        /// dense per-refined-bin oracle folds, field for field: over NULLs,
        /// values below and above the range, ρ < 1, built and decoded
        /// synopses, batch after batch.
        #[test]
        fn prop_fold_equals_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut fast = built_or_decoded(&mut rng);
            let mut slow = reference::Dense::of(&fast);
            for round in 0..3 {
                let n = rng.gen_range(1..400);
                let rows = batch(&mut rng, &fast, n);
                fast.ingest(&rows);
                reference::ingest(&mut slow, fast.preprocessor(), &rows);
                proptest::prop_assert_eq!(
                    &reference::Dense::of(&fast),
                    &slow,
                    "seed {} round {}",
                    seed,
                    round
                );
            }
        }

        /// A folded synopsis is what a decode of its bytes gives back, field
        /// by field, batch after batch, but for what the wire does not carry:
        /// the sample size at the last build (`ns_at_build`), the plan epoch,
        /// and the χ² criticals past the shorter table (`crit` is a memo the
        /// decoder sizes for the bins it reads).
        #[test]
        fn prop_folded_synopsis_decodes_to_itself(seed in proptest::prelude::any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ph = built_or_decoded(&mut rng);
            for round in 0..3 {
                let n = rng.gen_range(1..400);
                let rows = batch(&mut rng, &ph, n);
                ph.ingest(&rows);
                let mut back = PairwiseHist::from_bytes(&ph.to_bytes(), ph.preprocessor().clone())
                    .unwrap_or_else(|| panic!("seed {seed} round {round}: a folded synopsis decodes"));
                let mut live = ph.clone();
                back.ns_at_build = live.ns_at_build;
                let common = live.crit.len().min(back.crit.len());
                live.crit.truncate(common);
                back.crit.truncate(common);
                crate::build::assert_same_synopsis(&back, &live, &format!("seed {seed} round {round}"));
            }
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let base = dataset(5_000, 0, 9);
        let mut ph =
            PairwiseHist::build(&base, &PairwiseHistConfig { ns: 5_000, ..Default::default() });
        let before = ph.params().clone();
        ph.ingest(&EncodedMatrix::new(vec![Vec::new(), Vec::new()]));
        assert_eq!(ph.params(), &before);
    }
}
