#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! `BuildPairwiseHist` (Algorithm 1): orchestration, configuration and the synopsis
//! type itself.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ph_gd::{EncodedMatrix, GdStore, Preprocessor};
use ph_stats::{chi2_critical, normal_quantile, terrell_scott, Chi2Cache};
use ph_types::{sample_rows, Dataset};

use crate::bins::DimBins;
use crate::build1d::{build_dim_bins_1d, edges_from_seeds};
use crate::build2d::{bin_rows, build_pair, PairColumn, PairHist, PairScratch};

/// Bin split-point rule. The paper tested both and found equal-width slightly better
/// (§4.1); equal-depth is retained for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitRule {
    /// Split at the bin midpoint.
    #[default]
    EqualWidth,
    /// Split at the median data value.
    EqualDepth,
}

/// Construction parameters (paper Table 2: `Ns`, `M`, `α`).
///
/// How many threads a build uses is not among them: construction is highly
/// parallelisable (§4.1), so the pair stage always runs on every core the host
/// offers, one thread per column pair at most, and the synopsis is the same
/// for any thread count. The rest of a build — the encode, the 1-d histograms
/// and each row's 1-d bin — runs on the calling thread, as does the codec
/// cascade of a segment's store: on worker threads their per-column buffers
/// raised peak memory more than they saved time.
#[derive(Debug, Clone)]
pub struct PairwiseHistConfig {
    /// Sample size `Ns` used to construct the synopsis.
    pub ns: usize,
    /// `M`, the fewest points a bin needs to be split. `None` is the paper's
    /// choice: 1 % of the realised sample, at least 2.
    pub m_absolute: Option<usize>,
    /// Hypothesis-test significance level `α`.
    pub alpha: f64,
    /// Split-point rule.
    pub split_rule: SplitRule,
    /// Sampling seed (construction is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for PairwiseHistConfig {
    fn default() -> Self {
        Self {
            ns: 100_000,
            m_absolute: None,
            alpha: 0.001,
            split_rule: SplitRule::EqualWidth,
            seed: 0x7061_6972,
        }
    }
}

impl PairwiseHistConfig {
    /// The effective `M` for a realised sample of `ns_used` rows.
    pub fn m_min(&self, ns_used: usize) -> usize {
        self.m_absolute.unwrap_or_else(|| ((ns_used as f64 * 0.01).round() as usize).max(2))
    }
}

/// Frozen build parameters carried by the synopsis.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildParams {
    /// Rows in the underlying full dataset (`N`).
    pub n_total: u64,
    /// Rows actually sampled (`Ns`).
    pub ns: usize,
    /// Minimum points for a bin to be split (`M`).
    pub m_min: usize,
    /// Significance level (`α`).
    pub alpha: f64,
}

impl BuildParams {
    /// Sampling ratio `ρ = Ns / N`.
    pub fn rho(&self) -> f64 {
        if self.n_total == 0 {
            1.0
        } else {
            (self.ns as f64 / self.n_total as f64).min(1.0)
        }
    }
}

/// The PairwiseHist synopsis: per-column histograms, per-pair histograms, and the
/// pre-processing transforms needed to run queries.
#[derive(Debug, Clone)]
pub struct PairwiseHist {
    pub(crate) params: BuildParams,
    pub(crate) hist1d: Vec<DimBins>,
    /// Triangular pair storage: index [`pair_index`] for `i < j`.
    pub(crate) pairs: Vec<PairHist>,
    pub(crate) pre: Arc<Preprocessor>,
    /// χ²_α critical values by degrees of freedom (1-based: `crit[dof - 1]`),
    /// precomputed up to the largest Terrell–Scott `s` any bin can require.
    pub(crate) crit: Vec<f64>,
    /// `z` for the two-sided 98-percentile sampling widening (Eq 29).
    pub(crate) z98: f64,
    /// Sample size at the last full build (staleness accounting for updates).
    pub(crate) ns_at_build: usize,
    /// Process-unique construction epoch: prepared plans embed it, and execution
    /// rejects plans from a different epoch (clones share the epoch — their plans
    /// are interchangeable; a rebuild never does).
    pub(crate) plan_epoch: u64,
}

/// Monotonic source for [`PairwiseHist::plan_epoch`]. Never reused within a
/// process, so a stale plan can never collide with a fresh synopsis (no
/// pointer-reuse ABA).
pub(crate) fn next_plan_epoch() -> u64 {
    static EPOCH: AtomicUsize = AtomicUsize::new(1);
    EPOCH.fetch_add(1, Ordering::Relaxed) as u64
}

/// The one parallelism rule of construction and GROUP BY: a thread per core
/// the host offers, but no more threads than `units` of work.
pub(crate) fn workers_for(units: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(units).max(1)
}

/// Threads for the pair stage of a build under `pre`: one unit per column pair.
fn pair_workers(pre: &Preprocessor) -> usize {
    let d = pre.n_columns();
    workers_for(d * d.saturating_sub(1) / 2)
}

/// Triangular index of pair `(i, j)` with `i < j`.
pub(crate) fn pair_index(i: usize, j: usize) -> usize {
    debug_assert!(i < j);
    j * (j - 1) / 2 + i
}

impl PairwiseHist {
    /// Builds the synopsis directly from a dataset (stand-alone mode, §3 last
    /// paragraph): fits a [`Preprocessor`], samples `Ns` rows, and refines from
    /// min/max initial edges.
    pub fn build(data: &Dataset, cfg: &PairwiseHistConfig) -> Self {
        let pre = Arc::new(Preprocessor::fit(data));
        Self::build_with_preprocessor(data, pre, cfg)
    }

    /// Stand-alone build with an externally fitted preprocessor.
    pub fn build_with_preprocessor(
        data: &Dataset,
        pre: Arc<Preprocessor>,
        cfg: &PairwiseHistConfig,
    ) -> Self {
        if cfg.ns >= data.n_rows() {
            return Self::build_from_encoded(&pre.encode(data), pre, cfg); // no copy to sample
        }
        // The sampled rows are dropped once encoded, not held through the build.
        let matrix = pre.encode(&data.sample(cfg.ns, cfg.seed));
        let workers = pair_workers(&pre);
        Self::build_from_matrix(&matrix, pre, data.n_rows() as u64, None, cfg, workers)
    }

    /// [`build_with_preprocessor`](Self::build_with_preprocessor) over rows
    /// already encoded under `pre` (borrowed when the sample is every row): the
    /// same sample, edges and synopsis. Registration, refits, seals and
    /// compactions build this way.
    pub(crate) fn build_from_encoded(
        rows: &EncodedMatrix,
        pre: Arc<Preprocessor>,
        cfg: &PairwiseHistConfig,
    ) -> Self {
        let sample = (cfg.ns < rows.n_rows)
            .then(|| rows.take_rows(&sample_rows(rows.n_rows, cfg.ns, cfg.seed)));
        let workers = pair_workers(&pre);
        let sample = sample.as_ref().unwrap_or(rows);
        Self::build_from_matrix(sample, pre, rows.n_rows as u64, None, cfg, workers)
    }

    /// Builds on top of GreedyGD-compressed data (the framework of Fig 2): the sample
    /// is decoded via random access and the deduplicated bases seed the initial bin
    /// edges (Algorithm 1 line 4), downsampled to at most `⌈Ns / M⌉` values.
    pub fn build_from_gd(
        store: &GdStore,
        pre: Arc<Preprocessor>,
        cfg: &PairwiseHistConfig,
    ) -> Self {
        let matrix = store.rows(&sample_rows(store.n_rows(), cfg.ns, cfg.seed));
        let ns = matrix.n_rows;
        let max_seeds = ns.div_ceil(cfg.m_min(ns)).max(1);
        let seeds: Vec<Vec<u64>> = (0..matrix.n_columns())
            .map(|c| downsample_seeds(store.base_values(c), max_seeds))
            .collect();
        let workers = pair_workers(&pre);
        Self::build_from_matrix(&matrix, pre, store.n_rows() as u64, Some(seeds), cfg, workers)
    }

    /// Core construction from an encoded sample matrix, building the column
    /// pairs on `workers` threads (the synopsis is the same for any count).
    fn build_from_matrix(
        sample: &EncodedMatrix,
        pre: Arc<Preprocessor>,
        n_total: u64,
        seeds: Option<Vec<Vec<u64>>>,
        cfg: &PairwiseHistConfig,
        workers: usize,
    ) -> Self {
        let d = sample.n_columns();
        assert_eq!(d, pre.n_columns(), "preprocessor/schema mismatch");
        let ns = sample.n_rows;
        let m_min = cfg.m_min(ns);
        let params = BuildParams { n_total, ns, m_min, alpha: cfg.alpha };

        // --- 1-d histograms (Algorithm 1 lines 2-12) ---
        let null_codes: Vec<Option<u64>> = (0..d).map(|c| pre.transform(c).null_code()).collect();
        let sorted_cols: Vec<Vec<u64>> = (0..d)
            .map(|c| {
                let mut v: Vec<u64> = sample.columns[c]
                    .iter()
                    .copied()
                    .filter(|&x| Some(x) != null_codes[c])
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut chi2 = Chi2Cache::new(cfg.alpha);
        let hist1d: Vec<DimBins> = (0..d)
            .map(|c| {
                let sorted = &sorted_cols[c];
                if sorted.is_empty() {
                    return DimBins::finalize(
                        vec![-0.5, 0.5],
                        vec![0],
                        vec![0],
                        vec![0],
                        vec![0],
                        m_min,
                        &mut chi2,
                    );
                }
                let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
                let edges = match seeds.as_ref().map(|s| &s[c]) {
                    Some(sv) if sv.len() > 1 => edges_from_seeds(sv, lo, hi),
                    _ => vec![lo as f64 - 0.5, hi as f64 + 0.5],
                };
                build_dim_bins_1d(sorted, &edges, m_min, cfg.split_rule, &mut chi2)
            })
            .collect();

        // --- 2-d histograms (lines 13-26), parallel across pairs ---
        let tasks: Vec<(usize, usize)> = (1..d).flat_map(|j| (0..j).map(move |i| (i, j))).collect();
        let n_pairs = tasks.len();
        let bin_of: Vec<Vec<u32>> =
            (0..d).map(|c| bin_rows(&sample.columns[c], null_codes[c], &hist1d[c])).collect();
        let column = |c: usize| PairColumn {
            index: c,
            values: &sample.columns[c],
            bin_of: &bin_of[c],
            sorted: &sorted_cols[c],
            bins: &hist1d[c],
        };
        let build_one =
            |&(i, j): &(usize, usize), chi2: &mut Chi2Cache, scratch: &mut PairScratch| {
                build_pair(column(i), column(j), m_min, cfg.split_rule, chi2, scratch)
            };
        let mut pairs: Vec<Option<PairHist>> = (0..n_pairs).map(|_| None).collect();
        if workers <= 1 {
            let mut scratch = PairScratch::default();
            for (t, task) in tasks.iter().enumerate() {
                pairs[t] = Some(build_one(task, &mut chi2, &mut scratch));
            }
        } else {
            let next = AtomicUsize::new(0);
            let results: Mutex<&mut Vec<Option<PairHist>>> = Mutex::new(&mut pairs);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut local_chi2 = Chi2Cache::new(cfg.alpha);
                        let mut scratch = PairScratch::default();
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            if t >= n_pairs {
                                break;
                            }
                            let built = build_one(&tasks[t], &mut local_chi2, &mut scratch);
                            results.lock().expect("pair results lock")[t] = Some(built);
                        }
                    });
                }
            });
        }
        let pairs: Vec<PairHist> = pairs.into_iter().map(|p| p.expect("pair built")).collect();

        // Precompute chi-squared criticals up to the largest sub-bin count any bin
        // can request at query time.
        let max_u = hist1d
            .iter()
            .map(|h| h.uniq.iter().copied().max().unwrap_or(0))
            .chain(pairs.iter().flat_map(|p| {
                [
                    p.dim_i.bins.uniq.iter().copied().max().unwrap_or(0),
                    p.dim_j.bins.uniq.iter().copied().max().unwrap_or(0),
                ]
            }))
            .max()
            .unwrap_or(0) as usize;
        let max_s = terrell_scott(max_u.max(1)).max(2);
        let crit: Vec<f64> = (1..=max_s as u32).map(|dof| chi2.critical(dof)).collect();

        Self {
            ns_at_build: params.ns,
            params,
            hist1d,
            pairs,
            pre,
            crit,
            z98: normal_quantile(0.99),
            plan_epoch: next_plan_epoch(),
        }
    }

    /// Frozen build parameters.
    pub fn params(&self) -> &BuildParams {
        &self.params
    }

    /// The process-unique construction epoch prepared plans are bound to. Clones
    /// share it (their plans are interchangeable — an out-of-place ingest keeps
    /// serving them); every rebuild or reload gets a fresh one, so plans held
    /// across a rebuild fail with [`ph_types::PhError::StalePlan`] instead of
    /// answering over a refitted encoded domain.
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch
    }

    /// The fitted pre-processing transforms the synopsis queries through.
    pub fn preprocessor(&self) -> &Arc<Preprocessor> {
        &self.pre
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.hist1d.len()
    }

    /// One-dimensional histogram of column `c`.
    pub fn hist1d(&self, c: usize) -> &DimBins {
        &self.hist1d[c]
    }

    /// Pair histogram for columns `(a, b)` in either order.
    pub fn pair(&self, a: usize, b: usize) -> &PairHist {
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        &self.pairs[pair_index(i, j)]
    }

    /// χ²_α at `dof` degrees of freedom (precomputed table with a compute fallback).
    pub(crate) fn critical(&self, dof: usize) -> f64 {
        self.crit
            .get(dof.saturating_sub(1))
            .copied()
            .unwrap_or_else(|| chi2_critical(self.params.alpha, dof as f64))
    }

    /// Total number of 1-d bins across columns.
    pub fn total_1d_bins(&self) -> usize {
        self.hist1d.iter().map(|h| h.k()).sum()
    }

    /// Total number of 2-d cells across pairs.
    pub fn total_2d_cells(&self) -> usize {
        self.pairs.iter().map(|p| p.counts.len()).sum()
    }
}

/// Uniformly downsamples seed values to at most `max_seeds` entries (Algorithm 1
/// line 4's `⌈Ns/M⌉` cap).
fn downsample_seeds(mut seeds: Vec<u64>, max_seeds: usize) -> Vec<u64> {
    if seeds.len() <= max_seeds {
        return seeds;
    }
    let step = seeds.len() as f64 / max_seeds as f64;
    let picked: Vec<u64> = (0..max_seeds).map(|k| seeds[(k as f64 * step) as usize]).collect();
    seeds = picked;
    seeds.dedup();
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_types::Column;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..1000))).collect();
        let y: Vec<Option<i64>> = x
            .iter()
            .map(|v| {
                if rng.gen_bool(0.05) {
                    None
                } else {
                    Some(v.unwrap() * 3 + rng.gen_range(0..30))
                }
            })
            .collect();
        let c: Vec<Option<&str>> =
            (0..n).map(|i| Some(if i % 3 == 0 { "a" } else { "b" })).collect();
        Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .column(Column::from_strings("c", c))
            .unwrap()
            .build()
    }

    /// Compile-time guarantee behind the shared read path: the synopsis is safe
    /// to hand to any number of reader threads by reference. A field that broke
    /// this (an `Rc`, a `RefCell`, a raw pointer) fails this test at compile
    /// time, not in a data race.
    #[test]
    fn synopsis_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PairwiseHist>();
        assert_send_sync::<BuildParams>();
        assert_send_sync::<std::sync::Arc<PairwiseHist>>();
    }

    #[test]
    fn clones_share_the_plan_epoch_and_rebuilds_do_not() {
        let data = dataset(2_000, 9);
        let cfg = PairwiseHistConfig { ns: 2_000, ..Default::default() };
        let a = PairwiseHist::build(&data, &cfg);
        assert_eq!(a.plan_epoch(), a.clone().plan_epoch(), "clones serve each other's plans");
        let b = PairwiseHist::build(&data, &cfg);
        assert_ne!(a.plan_epoch(), b.plan_epoch(), "rebuilds never share an epoch");
    }

    #[test]
    fn build_produces_all_pairs() {
        let data = dataset(5000, 1);
        let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 5000, ..Default::default() });
        assert_eq!(ph.n_columns(), 3);
        assert_eq!(ph.pairs.len(), 3); // C(3,2)
        assert_eq!(ph.pair(0, 1).col_i, 0);
        assert_eq!(ph.pair(1, 0).col_j, 1, "order-insensitive lookup");
    }

    /// The threaded pair stage builds, bit for bit, what one thread builds,
    /// whatever the host: the worker counts are explicit, so the threads run
    /// even on one core. The Flights slice has 32 columns, so 496 pairs share
    /// each worker's scratch.
    #[test]
    fn parallel_and_serial_builds_agree() {
        let flights = ph_datagen::generate("Flights", 3_000, 5).expect("known dataset");
        assert_eq!(flights.n_columns(), 32);
        for data in [dataset(4000, 2), flights] {
            let n = data.n_rows();
            let cfg = PairwiseHistConfig { ns: n, ..Default::default() };
            let pre = Arc::new(Preprocessor::fit(&data));
            let matrix = pre.encode(&data);
            let build = |workers| {
                PairwiseHist::build_from_matrix(&matrix, pre.clone(), n as u64, None, &cfg, workers)
            };
            let serial = build(1);
            for workers in [2, 3] {
                let threaded = build(workers);
                assert_eq!(serial.hist1d, threaded.hist1d, "{workers} workers");
                assert_eq!(serial.pairs, threaded.pairs, "{workers} workers");
                assert_eq!(serial.to_bytes(), threaded.to_bytes(), "{workers} workers");
            }
            assert_eq!(serial.to_bytes(), PairwiseHist::build(&data, &cfg).to_bytes());
        }
    }

    #[test]
    fn sampling_ratio_reflected() {
        let data = dataset(10_000, 3);
        let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 1000, ..Default::default() });
        assert_eq!(ph.params().ns, 1000);
        assert!((ph.params().rho() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn counts_match_sample_nonnull() {
        let data = dataset(6000, 4);
        let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 6000, ..Default::default() });
        // Column y has ~5% nulls; 1-d counts must equal non-null sample rows.
        let y_nonnull = data.column(1).valid_count() as u64;
        assert_eq!(ph.hist1d(1).counts.iter().sum::<u64>(), y_nonnull);
        // Pair (x, y) counts cover rows non-null in both.
        let pair_total: u64 = ph.pair(0, 1).counts.iter().map(|&c| c as u64).sum();
        assert_eq!(pair_total, y_nonnull, "x has no nulls, so pair total = y non-null");
    }

    #[test]
    fn build_from_gd_uses_bases() {
        use ph_gd::GdCompressor;
        let data = dataset(8000, 5);
        let pre = Arc::new(Preprocessor::fit(&data));
        let enc = pre.encode(&data);
        let store = GdCompressor::new().compress(&enc);
        let cfg = PairwiseHistConfig { ns: 4000, ..Default::default() };
        let ph = PairwiseHist::build_from_gd(&store, pre, &cfg);
        assert_eq!(ph.params().n_total, 8000);
        assert_eq!(ph.params().ns, 4000);
        assert_eq!(ph.hist1d(0).counts.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn downsample_seeds_caps_length() {
        let seeds: Vec<u64> = (0..1000).collect();
        let ds = downsample_seeds(seeds, 10);
        assert!(ds.len() <= 10);
        assert!(ds.windows(2).all(|w| w[0] < w[1]));
    }
}
