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

use rand::Rng;
use rand::SeedableRng;

use ph_gd::EncodedMatrix;
use ph_stats::Chi2Cache;

use crate::bins::DimBins;
use crate::build::PairwiseHist;

impl PairwiseHist {
    /// Ingests a batch of new rows (encoded in the same schema; null codes included)
    /// into the synopsis without re-splitting any bins.
    ///
    /// `N` grows by the full batch; the internal sample grows by ~`ρ · batch` rows,
    /// keeping the sampling ratio stable.
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

        let null_codes: Vec<Option<u64>> =
            (0..self.n_columns()).map(|c| self.pre.transform(c).null_code()).collect();

        // 1-d updates.
        #[allow(clippy::needless_range_loop)]
        for c in 0..self.n_columns() {
            let col = &rows.columns[c];
            for &r in &sampled {
                let v = col[r];
                if Some(v) == null_codes[c] {
                    continue;
                }
                let t = locate_extending(&mut self.hist1d[c], v);
                bump_bin(&mut self.hist1d[c], t, v);
            }
        }
        // 2-d updates: counts plus per-dimension marginals and metadata.
        for pair in &mut self.pairs {
            let (ci, cj) = (pair.col_i, pair.col_j);
            let coli = &rows.columns[ci];
            let colj = &rows.columns[cj];
            let kj = pair.kj();
            for &r in &sampled {
                let (a, b) = (coli[r], colj[r]);
                if Some(a) == null_codes[ci] || Some(b) == null_codes[cj] {
                    continue;
                }
                let ti = locate_extending(&mut pair.dim_i.bins, a);
                let tj = locate_extending(&mut pair.dim_j.bins, b);
                pair.counts[ti * kj + tj] += 1;
                bump_bin(&mut pair.dim_i.bins, ti, a);
                bump_bin(&mut pair.dim_j.bins, tj, b);
            }
        }

        // Refresh derived metadata (midpoints, weighted-centre bounds) for all bins;
        // cheap relative to ingestion.
        let mut chi2 = Chi2Cache::new(self.params.alpha);
        let m_min = self.params.m_min;
        for bins in &mut self.hist1d {
            bins.refresh(m_min, &mut chi2);
        }
        for pair in &mut self.pairs {
            pair.dim_i.bins.refresh(m_min, &mut chi2);
            pair.dim_j.bins.refresh(m_min, &mut chi2);
        }

        self.params.n_total += batch as u64;
        self.params.ns += sampled.len();
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

/// Applies one value to a bin's count and value metadata.
fn bump_bin(bins: &mut DimBins, t: usize, v: u64) {
    let was_empty = bins.counts[t] == 0;
    bins.counts[t] += 1;
    if was_empty {
        bins.vmin[t] = v;
        bins.vmax[t] = v;
        bins.uniq[t] = 1;
        return;
    }
    // Unique counts only grow when the span grows (see module docs).
    if v < bins.vmin[t] {
        bins.vmin[t] = v;
        bins.uniq[t] += 1;
    } else if v > bins.vmax[t] {
        bins.vmax[t] = v;
        bins.uniq[t] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PairwiseHistConfig;
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
