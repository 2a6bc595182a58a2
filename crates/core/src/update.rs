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
//! A fold costs O(sampled rows × (columns + pairs)) plus one pass over every
//! bin to refresh its derived metadata: each value is searched for once in its
//! column's 1-d edges, and a pair dimension then looks only among that 1-d
//! bin's refined children. What `Session::ingest` folds into is a copy of the
//! published delta synopsis; it writes that copy over the superseded version's
//! buffers (`PairwiseHist`'s `clone_from`) whenever no reader still holds that
//! version, so a plain batch allocates nothing in proportion to the synopsis.

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
    /// Each sampled value is searched for once, in its column's 1-d edges; a
    /// pair dimension then looks only among that 1-d bin's refined children.
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
        let mut bin1d = vec![NULL_BIN; self.n_columns() * n];
        for (c, bins) in self.hist1d.iter_mut().enumerate() {
            let null = self.pre.transform(c).null_code();
            let col = &rows.columns[c];
            for (slot, &r) in bin1d[c * n..][..n].iter_mut().zip(&sampled) {
                let v = col[r];
                if Some(v) == null {
                    continue;
                }
                let t = locate_extending(bins, v);
                bump_bin(bins, t, v);
                *slot = t as u32;
            }
        }
        // 2-d updates: counts plus per-dimension marginals and metadata.
        let (mut first_i, mut first_j) = (Vec::new(), Vec::new());
        for pair in &mut self.pairs {
            let (ci, cj) = (pair.col_i, pair.col_j);
            let (coli, colj) = (&rows.columns[ci], &rows.columns[cj]);
            let (bin_i, bin_j) = (&bin1d[ci * n..][..n], &bin1d[cj * n..][..n]);
            children(&pair.dim_i.parent, self.hist1d[ci].k(), &mut first_i);
            children(&pair.dim_j.parent, self.hist1d[cj].k(), &mut first_j);
            let kj = pair.kj();
            for ((&r, &pi), &pj) in sampled.iter().zip(bin_i).zip(bin_j) {
                if pi == NULL_BIN || pj == NULL_BIN {
                    continue;
                }
                let (a, b) = (coli[r], colj[r]);
                let ti = locate_child(&mut pair.dim_i.bins, &first_i, pi, a);
                let tj = locate_child(&mut pair.dim_j.bins, &first_j, pj, b);
                pair.counts[ti * kj + tj] += 1;
                bump_bin(&mut pair.dim_i.bins, ti, a);
                bump_bin(&mut pair.dim_j.bins, tj, b);
            }
        }

        // Refresh derived metadata (midpoints, weighted-centre bounds) for all
        // bins, through the χ² criticals the synopsis already holds.
        let mut chi2 = Chi2Cache::seeded(self.params.alpha, &self.crit);
        let m_min = self.params.m_min;
        for bins in &mut self.hist1d {
            bins.refresh(m_min, &mut chi2);
        }
        for pair in &mut self.pairs {
            pair.dim_i.bins.refresh(m_min, &mut chi2);
            pair.dim_j.bins.refresh(m_min, &mut chi2);
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
    /// The clone allocates every bin and count array afresh. A caller that
    /// keeps a spare synopsis — `Session::ingest` keeps the version it
    /// superseded — gets the same result with no allocation from
    /// `spare.clone_from(self)` followed by [`PairwiseHist::ingest`].
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

/// Fills `first` so that `first[t]..first[t + 1]` is the run of refined bins
/// whose parent is 1-d bin `t`, for each of `k1` 1-d bins, over a
/// non-decreasing `parent` map.
fn children(parent: &[u32], k1: usize, first: &mut Vec<u32>) {
    first.clear();
    let mut r = 0;
    first.extend((0..=k1).map(|t| {
        while parent.get(r).is_some_and(|&p| (p as usize) < t) {
            r += 1;
        }
        r as u32
    }));
}

/// The refined bin of `v`, a value of 1-d bin `t`, searched for among `t`'s
/// children when their run brackets `v` — which makes it the bin a search of
/// every edge finds, with no edge to widen. Otherwise (an outer edge `v`
/// widens, or a run that misses `v`, as a decoded dimension's extras outside
/// the 1-d range can leave) it is that search.
fn locate_child(bins: &mut DimBins, first: &[u32], t: u32, v: u64) -> usize {
    let (lo, hi) = (first[t as usize] as usize, first[t as usize + 1] as usize);
    let x = v as f64;
    if lo < hi && bins.edges[lo] < x && x < bins.edges[hi] {
        return lo + bins.edges[lo + 1..hi].partition_point(|&e| e < x);
    }
    locate_extending(bins, v)
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

    /// `ph` through its bytes, after its first pair's `i` dimension gains an
    /// empty refined bin below the 1-d range (when the code range leaves room)
    /// and its `j` dimension one above it (when that needs no wider edges): a
    /// decoded synopsis whose extras lie outside the 1-d range.
    fn with_outer_extras(ph: &PairwiseHist, gap: f64) -> PairwiseHist {
        fn insert(dim: &mut crate::build2d::PairDim, at: usize, edge: f64, parent: u32) {
            let b = &mut dim.bins;
            let v = if at == 0 { edge + 0.5 } else { edge - 0.5 };
            b.edges.insert(if at == 0 { 0 } else { at + 1 }, edge);
            for (meta, x) in [(&mut b.mid, v), (&mut b.c_lo, v), (&mut b.c_hi, v)] {
                meta.insert(at, x);
            }
            b.vmin.insert(at, v as u64);
            b.vmax.insert(at, v as u64);
            b.uniq.insert(at, 1);
            b.counts.insert(at, 0);
            dim.parent.insert(at, parent);
        }
        let bytes_of = |e: f64| (64 - ((2.0 * e + 1.0) as u64).leading_zeros()).div_ceil(8);
        let mut out = ph.clone();
        let pair = &mut out.pairs[0];
        let kj = pair.kj();
        let bottom = pair.dim_i.bins.edges[0] - gap;
        if bottom >= -0.5 {
            insert(&mut pair.dim_i, 0, bottom, 0);
            pair.counts.splice(0..0, std::iter::repeat_n(0, kj));
        }
        let top = pair.dim_j.bins.edges[kj];
        if bytes_of(top + gap) == bytes_of(top) {
            let parent = pair.dim_j.parent[kj - 1];
            insert(&mut pair.dim_j, kj, top + gap, parent);
            pair.counts =
                pair.counts.chunks(kj).flat_map(|row| row.iter().copied().chain([0])).collect();
        }
        PairwiseHist::from_bytes(&out.to_bytes(), ph.preprocessor().clone())
            .expect("a synopsis with outer extras decodes")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Reusing each value's 1-d bin and the synopsis's own χ² criticals
        /// folds what the full search per pair dimension and a fresh χ² memo
        /// fold, field for field: over NULLs, values below and above the
        /// range, ρ < 1, built and decoded synopses, and decoded ones whose
        /// extras lie outside the 1-d range, batch after batch.
        #[test]
        fn prop_fold_equals_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let built = generated(&mut rng);
            let start = match seed % 3 {
                0 => built,
                1 => PairwiseHist::from_bytes(&built.to_bytes(), built.preprocessor().clone())
                    .expect("a built synopsis decodes"),
                _ => with_outer_extras(&built, rng.gen_range(1..4) as f64),
            };
            let (mut fast, mut slow) = (start.clone(), start);
            for round in 0..3 {
                let n = rng.gen_range(1..400);
                let rows = batch(&mut rng, &fast, n);
                fast.ingest(&rows);
                reference::ingest(&mut slow, &rows);
                crate::build::assert_same_synopsis(&fast, &slow, &format!("seed {seed} round {round}"));
            }
        }

        /// `a.clone_from(&b)` is `b.clone()` whatever shape `a` had before:
        /// fewer or more columns, bins and pairs, another plan epoch.
        #[test]
        fn prop_clone_from_equals_clone(seed in proptest::prelude::any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut a, b) = (generated(&mut rng), generated(&mut rng));
            a.clone_from(&b);
            crate::build::assert_same_synopsis(&a, &b.clone(), &format!("seed {seed}"));
            proptest::prop_assert_eq!(a.plan_epoch(), b.plan_epoch());
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
