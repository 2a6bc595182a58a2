//! Greedy base/deviation bit-split selection.
//!
//! GreedyGD chooses, per column, how many low-order bits are carved off into the
//! per-row deviation. Moving a bit from base to deviation costs one bit per row but
//! lets more rows share a base, shrinking the deduplicated base table. The greedy
//! loop repeatedly applies the single-bit move with the best net size change until no
//! move improves the total (size model below, mirroring Fig 3):
//!
//! ```text
//! size(devs) = n_bases·Σ(w_c − dev_c)            (deduplicated base table)
//!            + n·⌈log2 n_bases⌉                  (base ID per row)
//!            + n·Σ dev_c                         (verbatim deviations)
//! ```
//!
//! Candidate evaluation counts distinct bases with a per-row *updatable sum hash*
//! (`Σ_c mix(c, part_c)` wrapping), so trying "one more deviation bit on column c"
//! costs one add/sub per row instead of rehashing the whole tuple. The split is fitted
//! on a seeded sample of at most `FIT_ROWS` rows and then applied exactly to all
//! rows.

use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

use ph_encoding::bits_for;

use crate::{EncodedMatrix, GdStore};

/// Rows the split is fitted on, sampled uniformly when the data has more.
const FIT_ROWS: usize = 32_768;
/// RNG seed of the fit sample.
const FIT_SEED: u64 = 0x9d8_1ab3;

/// The fitted base/deviation split of one matrix: what [`GdStore::build`] needs to
/// pack it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GdSplit {
    /// Total bit width per column.
    pub(crate) widths: Vec<u32>,
    /// Deviation (low-order) bit width per column.
    pub(crate) dev_bits: Vec<u32>,
}

/// GreedyGD compressor: fits the bit split, then builds a [`GdStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GdCompressor;

impl GdCompressor {
    /// The compressor.
    pub fn new() -> Self {
        Self
    }

    /// Compresses an encoded matrix: fits deviation bit-widths on a sample, then
    /// deduplicates bases exactly over all rows.
    pub fn compress(&self, data: &EncodedMatrix) -> GdStore {
        let split = self.fit(data);
        GdStore::build(data, &split.widths, &split.dev_bits)
    }

    /// Fits the split alone: column widths from the data, deviation widths from
    /// the greedy search.
    pub(crate) fn fit(&self, data: &EncodedMatrix) -> GdSplit {
        Self::fit_sampled(data, FIT_ROWS)
    }

    /// [`fit`](Self::fit) on a sample of at most `fit_rows` rows.
    fn fit_sampled(data: &EncodedMatrix, fit_rows: usize) -> GdSplit {
        let widths: Vec<u32> =
            (0..data.n_columns()).map(|c| bits_for(data.column_max(c))).collect();
        let dev_bits = Self::fit_dev_bits(data, &widths, fit_rows);
        GdSplit { widths, dev_bits }
    }

    /// Greedy search for per-column deviation widths.
    fn fit_dev_bits(data: &EncodedMatrix, widths: &[u32], fit_rows: usize) -> Vec<u32> {
        let d = data.n_columns();
        if d == 0 || data.n_rows == 0 {
            return vec![0; d];
        }
        let sampled;
        let fit = if data.n_rows > fit_rows {
            let mut rng = rand::rngs::StdRng::seed_from_u64(FIT_SEED);
            let rows = index_sample(&mut rng, data.n_rows, fit_rows).into_vec();
            sampled = data.take_rows(&rows);
            &sampled
        } else {
            data
        };
        let n = fit.n_rows;

        let mut dev_bits = vec![0u32; d];
        // Sum-hash per row over current base parts.
        let mut hashes: Vec<u64> = vec![0; n];
        for c in 0..d {
            let col = &fit.columns[c];
            for (r, h) in hashes.iter_mut().enumerate() {
                *h = h.wrapping_add(mix(c, col[r]));
            }
        }
        let mut seen = DistinctCounter::with_capacity(n);
        let n_bases = seen.count(hashes.iter().copied(), usize::MAX).expect("no limit to exceed");
        let mut best_size = size_bits(n, n_bases, widths, &dev_bits);

        // Candidate moves add `step` deviation bits to one column at a time. Strict
        // single-bit hill climbing stalls on plateaus (moving one noise bit rarely
        // collapses any bases on near-unique rows), so larger jumps are also
        // evaluated; the accepted move is whichever strictly shrinks the size model
        // the most.
        const STEPS: [u32; 4] = [1, 2, 4, 8];
        // One buffer, reused by every column of every round: each row's hash with
        // the column's current term taken out, which its four step sizes share.
        let mut without: Vec<u64> = vec![0; n];
        let mut trial = vec![0u32; d];
        loop {
            let mut best: Option<(usize, u32, u64)> = None; // (col, step, size)
            for c in 0..d {
                if dev_bits[c] + STEPS[0] > widths[c] {
                    continue;
                }
                let shift = dev_bits[c];
                let col = &fit.columns[c];
                for ((w, h), &v) in without.iter_mut().zip(&hashes).zip(col) {
                    *w = h.wrapping_sub(mix(c, v >> shift));
                }
                for step in STEPS {
                    if shift + step > widths[c] {
                        continue;
                    }
                    trial.copy_from_slice(&dev_bits);
                    trial[c] += step;
                    // The size model never falls as bases are added, so a candidate
                    // is out as soon as its running count reaches the first base
                    // count that no longer beats the incumbent — and a candidate
                    // that would have won is always counted to the end.
                    let incumbent = best.map_or(best_size, |(_, _, s)| s);
                    let limit = first_losing_count(n, widths, &trial, incumbent);
                    let cand = without
                        .iter()
                        .zip(col)
                        .map(|(w, &v)| w.wrapping_add(mix(c, v >> (shift + step))));
                    if let Some(nb) = seen.count(cand, limit) {
                        best = Some((c, step, size_bits(n, nb, widths, &trial)));
                    }
                }
            }
            let Some((c, step, sz)) = best else { break };
            let shift = dev_bits[c];
            let col = &fit.columns[c];
            for (r, h) in hashes.iter_mut().enumerate() {
                let old_part = col[r] >> shift;
                let new_part = col[r] >> (shift + step);
                *h = h.wrapping_sub(mix(c, old_part)).wrapping_add(mix(c, new_part));
            }
            dev_bits[c] += step;
            best_size = sz;
        }
        // Fallback: on near-unique rows (joint entropy ~ full width) no per-column
        // move strictly helps and the search keeps everything in the base, which
        // costs `n·log2(n_bases)` of pure ID overhead. The all-deviation
        // configuration (one empty base, rows stored verbatim) caps the worst case
        // at ~1 bit/row; use it whenever it beats the search result.
        let all_dev_size = size_bits(n, 1, widths, widths);
        if all_dev_size < best_size {
            return widths.to_vec();
        }
        dev_bits
    }
}

/// Total compressed size in bits under the GD size model.
fn size_bits(n: usize, n_bases: usize, widths: &[u32], dev_bits: &[u32]) -> u64 {
    let base_width: u64 = widths.iter().zip(dev_bits).map(|(&w, &d)| (w - d) as u64).sum();
    let dev_width: u64 = dev_bits.iter().map(|&d| d as u64).sum();
    let id_bits = bits_for(n_bases.saturating_sub(1) as u64) as u64;
    n_bases as u64 * base_width + n as u64 * (id_bits + dev_width)
}

/// The smallest base count in `1..=n + 1` at which `size_bits` is no longer below
/// `incumbent` (`n + 1`: every count a sample of `n` rows can reach still wins).
/// `size_bits` is non-decreasing in `n_bases`, so this is a bisection.
fn first_losing_count(n: usize, widths: &[u32], dev_bits: &[u32], incumbent: u64) -> usize {
    let (mut lo, mut hi) = (1, n + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if size_bits(n, mid, widths, dev_bits) < incumbent {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// SplitMix64-style mixer keyed by column, used for the updatable sum hash.
#[inline]
fn mix(col: usize, part: u64) -> u64 {
    let mut z = part ^ (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact distinct count of sum hashes. The keys are already SplitMix-mixed, so
/// their low bits index an open-addressed table directly — no second hash — and
/// a generation stamp per slot makes clearing between candidates free.
struct DistinctCounter {
    keys: Vec<u64>,
    stamps: Vec<u32>,
    generation: u32,
}

impl DistinctCounter {
    /// A table that stays at most a quarter full over `n` keys: linear probes
    /// stay short (the fit does little else), at 12 bytes a slot.
    fn with_capacity(n: usize) -> Self {
        let slots = (4 * n).next_power_of_two().max(4);
        Self { keys: vec![0; slots], stamps: vec![0; slots], generation: 0 }
    }

    /// Distinct keys in `hashes`, or `None` as soon as the count reaches `limit`
    /// (`usize::MAX`: count to the end).
    fn count(&mut self, hashes: impl Iterator<Item = u64>, limit: usize) -> Option<usize> {
        // A counter lives for one fit — a few hundred counts, nowhere near 2^32.
        self.generation += 1;
        let mask = self.keys.len() - 1;
        let mut distinct = 0usize;
        for h in hashes {
            let mut slot = h as usize & mask;
            loop {
                if self.stamps[slot] != self.generation {
                    self.stamps[slot] = self.generation;
                    self.keys[slot] = h;
                    distinct += 1;
                    if distinct >= limit {
                        return None;
                    }
                    break;
                }
                if self.keys[slot] == h {
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        Some(distinct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::shapes::{shaped, SHAPES};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The split search as it stood before the open-addressed counter, the hoisted
    /// column term and the early exit: every candidate's hashes collected and
    /// counted to the end in a `HashSet`. The fast fit must agree with it bit
    /// width for bit width, tie-breaks and all-deviation fallback included.
    fn reference_dev_bits(fit_rows: usize, data: &EncodedMatrix, widths: &[u32]) -> Vec<u32> {
        let d = data.n_columns();
        if d == 0 || data.n_rows == 0 {
            return vec![0; d];
        }
        let fit = if data.n_rows > fit_rows {
            let mut rng = rand::rngs::StdRng::seed_from_u64(FIT_SEED);
            let rows = index_sample(&mut rng, data.n_rows, fit_rows).into_vec();
            data.take_rows(&rows)
        } else {
            data.clone()
        };
        let n = fit.n_rows;
        let distinct = |hashes: &[u64]| hashes.iter().copied().collect::<HashSet<u64>>().len();
        let mut dev_bits = vec![0u32; d];
        let mut hashes: Vec<u64> = vec![0; n];
        for c in 0..d {
            for (r, h) in hashes.iter_mut().enumerate() {
                *h = h.wrapping_add(mix(c, fit.columns[c][r]));
            }
        }
        let mut best_size = size_bits(n, distinct(&hashes), widths, &dev_bits);
        loop {
            let mut best: Option<(usize, u32, u64)> = None;
            for c in 0..d {
                for step in [1u32, 2, 4, 8] {
                    if dev_bits[c] + step > widths[c] {
                        continue;
                    }
                    let shift = dev_bits[c];
                    let cand: Vec<u64> = hashes
                        .iter()
                        .zip(&fit.columns[c])
                        .map(|(h, &v)| {
                            h.wrapping_sub(mix(c, v >> shift))
                                .wrapping_add(mix(c, v >> (shift + step)))
                        })
                        .collect();
                    let mut trial = dev_bits.clone();
                    trial[c] += step;
                    let sz = size_bits(n, distinct(&cand), widths, &trial);
                    if sz < best.map_or(best_size, |(_, _, s)| s) {
                        best = Some((c, step, sz));
                    }
                }
            }
            match best {
                Some((c, step, sz)) if sz < best_size => {
                    let shift = dev_bits[c];
                    for (h, &v) in hashes.iter_mut().zip(&fit.columns[c]) {
                        *h = h
                            .wrapping_sub(mix(c, v >> shift))
                            .wrapping_add(mix(c, v >> (shift + step)));
                    }
                    dev_bits[c] += step;
                    best_size = sz;
                }
                _ => break,
            }
        }
        if size_bits(n, 1, widths, widths) < best_size {
            return widths.to_vec();
        }
        dev_bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Same split as the reference search on every shape, fitted on all rows
        /// and on a sample.
        #[test]
        fn prop_fit_matches_reference_search(
            seed in 0u64..10_000,
            shape in 0usize..SHAPES,
            n in 1usize..700,
            fit_rows in 200usize..900,
        ) {
            let m = shaped(shape, n, seed);
            let split = GdCompressor::fit_sampled(&m, fit_rows);
            prop_assert_eq!(&split.dev_bits, &reference_dev_bits(fit_rows, &m, &split.widths));
        }
    }

    /// The shapes do what their names say, so the property above covers a fit
    /// that ends all-deviation, one that keeps every bit in the base and one
    /// that stops part-way.
    #[test]
    fn shapes_cover_the_outcomes_of_the_search() {
        let fit = |shape| GdCompressor::new().fit(&shaped(shape, 600, 7));
        let noise = fit(0);
        assert_eq!(noise.dev_bits, noise.widths, "near-unique rows fall back to all-deviation");
        assert!(fit(1).dev_bits.iter().all(|&b| b == 0), "repeated rows stay whole in the base");
        let kept = fit(2);
        assert!(
            kept.dev_bits.iter().any(|&b| b > 0) && kept.dev_bits != kept.widths,
            "noise bits leave, other columns keep base bits: {kept:?}"
        );
    }

    #[test]
    fn early_exit_threshold_is_the_first_losing_count() {
        let (widths, dev) = ([16u32, 16], [4u32, 4]);
        for incumbent in [0u64, 1, 9_000, 12_345, 40_000, u64::MAX] {
            let limit = first_losing_count(1000, &widths, &dev, incumbent);
            assert!((1..=1001).contains(&limit));
            assert!(limit == 1001 || size_bits(1000, limit, &widths, &dev) >= incumbent);
            assert!(limit == 1 || size_bits(1000, limit - 1, &widths, &dev) < incumbent);
        }
    }

    #[test]
    fn distinct_counter_counts_exactly_and_stops_at_the_limit() {
        let mut seen = DistinctCounter::with_capacity(8);
        // Keys that all land on slot 0 of any table: only the full key tells them apart.
        let keys = [0u64, 1 << 40, 2 << 40, 0, 1 << 40, 3 << 40];
        assert_eq!(seen.count(keys.iter().copied(), usize::MAX), Some(4));
        assert_eq!(seen.count(keys.iter().copied(), 5), Some(4));
        assert_eq!(seen.count(keys.iter().copied(), 4), None);
        assert_eq!(seen.count(std::iter::empty(), usize::MAX), Some(0), "generations don't leak");
    }

    /// A column whose low bits are noise should get them carved into the deviation.
    #[test]
    fn noisy_low_bits_go_to_deviation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 4000;
        // High byte from a tiny alphabet, low 8 bits uniform noise.
        let col: Vec<u64> =
            (0..n).map(|_| ((rng.gen_range(0..4u64)) << 8) | rng.gen_range(0..256u64)).collect();
        let m = EncodedMatrix::new(vec![col]);
        let store = GdCompressor::new().compress(&m);
        assert!(
            store.dev_bits()[0] >= 6,
            "expected most noise bits in deviation, got {:?}",
            store.dev_bits()
        );
        assert!(store.n_bases() <= 16, "bases should collapse to the alphabet");
    }

    /// A constant column needs no deviation bits at all.
    #[test]
    fn constant_column_stays_in_base() {
        let m = EncodedMatrix::new(vec![vec![7u64; 1000]]);
        let store = GdCompressor::new().compress(&m);
        assert_eq!(store.dev_bits()[0], 0);
        assert_eq!(store.n_bases(), 1);
    }

    #[test]
    fn size_model_monotone_in_bases() {
        let widths = [16u32, 16];
        let dev = [4u32, 4];
        assert!(size_bits(1000, 10, &widths, &dev) < size_bits(1000, 500, &widths, &dev));
    }

    #[test]
    fn empty_matrix_compresses() {
        let m = EncodedMatrix::new(vec![]);
        let store = GdCompressor::new().compress(&m);
        assert_eq!(store.n_rows(), 0);
    }
}
