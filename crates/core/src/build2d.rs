#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! Two-dimensional pairwise histogram construction (`RefineBin2D`, §4.1, Fig 5).

use std::collections::BTreeSet;
use std::ops::Range;

use ph_stats::Chi2Cache;

use crate::bins::{BinMeta, DimBins};
use crate::build::SplitRule;
use crate::build1d::count_unique_sorted;
use crate::uniform::{snap_split, snap_split_equal_depth, test_uniform};

/// Recursion depth cap (splits halve a dimension each time).
const MAX_DEPTH: u32 = 64;

/// Every pair histogram of a synopsis, in a fixed handful of flat buffers:
/// the in-memory form of `PWH1`'s pair section (Fig 6). A pair dimension
/// keeps only what its column's 1-d histogram cannot tell: the 1-d bin and
/// the count-matrix margin of each refined bin, and the interior edges and
/// value metadata of the children of split 1-d bins. An unsplit refined bin
/// *is* its 1-d parent, read from the column's [`DimBins`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Pairs {
    /// Where each dimension (pair `p`'s `i`, then its `j`, at `2p` and
    /// `2p + 1`, in `build::pair_index` order) ends in the buffers below.
    at: Vec<At>,
    /// Each pair's count matrix, row-major `k⁽ⁱ|ʲ⁾ × k⁽ʲ|ⁱ⁾`, over rows
    /// non-null in both columns.
    pub(crate) cells: Vec<u32>,
    /// Per refined bin: its margin of the count matrix.
    pub(crate) margins: Vec<u64>,
    /// Per refined bin: the 1-d bin holding it (non-decreasing per dimension).
    pub(crate) parents: Vec<u32>,
    /// Per dimension, ascending: the edges its splits added inside 1-d bins.
    pub(crate) split_edges: Vec<f64>,
    /// Per child of a split 1-d bin, in refined order: its `v±` and `u` over
    /// every value of its column, as the 1-d bins' are.
    pub(crate) split_bins: Vec<BinMeta>,
}

/// Where one dimension ends in each [`Pairs`] buffer (`cells`: where an `i`
/// dimension's pair's count matrix starts, and a `j` one's ends).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct At {
    cells: usize,
    bins: usize,
    edges: usize,
    split: usize,
}

/// One pair dimension's ranges in the [`Pairs`] buffers: `bins` in
/// `margins` and `parents`, `edges` in `split_edges`, `split` in `split_bins`.
#[derive(Clone)]
pub(crate) struct DimRanges {
    pub bins: Range<usize>,
    pub edges: Range<usize>,
    pub split: Range<usize>,
}

/// One pair dimension as built or decoded, before [`Pairs::push`] appends
/// it: the parent map, the interior edges of split 1-d bins and the metadata
/// of their children.
#[derive(Debug, Default)]
pub(crate) struct DimParts {
    pub parent: Vec<u32>,
    pub edges: Vec<f64>,
    pub split: Vec<BinMeta>,
}

/// One pair as [`build_pair`] builds it.
pub(crate) struct PairParts {
    pub cells: Vec<u32>,
    pub dims: [DimParts; 2],
}

impl Pairs {
    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.at.len() / 2
    }

    /// The cells of every pair's count matrix, appended to `cells` or not.
    pub(crate) fn n_cells(&self) -> usize {
        self.at.last().map_or(0, |a| a.cells)
    }

    /// Appends a pair of dimensions `dims`. Its count matrix is for the
    /// caller to append to `cells` (the decoder reads every pair's dimensions
    /// first), and its margins for [`fill_margins`](Self::fill_margins).
    pub(crate) fn push(&mut self, dims: &[DimParts; 2]) {
        let start = self.n_cells();
        let end = start + dims[0].parent.len() * dims[1].parent.len();
        for (dim, cells) in dims.iter().zip([start, end]) {
            self.parents.extend_from_slice(&dim.parent);
            self.split_edges.extend_from_slice(&dim.edges);
            self.split_bins.extend_from_slice(&dim.split);
            let (bins, edges, split) =
                (self.parents.len(), self.split_edges.len(), self.split_bins.len());
            self.at.push(At { cells, bins, edges, split });
        }
        self.margins.resize(self.parents.len(), 0);
    }

    /// Pair `p`'s ranges in the buffers: its cells, then its two dimensions.
    pub(crate) fn ranges(&self, p: usize) -> (Range<usize>, [DimRanges; 2]) {
        let start = if p == 0 { At::default() } else { self.at[2 * p - 1] };
        let (i, j) = (self.at[2 * p], self.at[2 * p + 1]);
        let dim = |a: At, b: At| DimRanges {
            bins: a.bins..b.bins,
            edges: a.edges..b.edges,
            split: a.split..b.split,
        };
        (i.cells..j.cells, [dim(start, i), dim(i, j)])
    }

    /// Sets every refined bin's margin to its row or column sum.
    pub(crate) fn fill_margins(&mut self) {
        for p in 0..self.len() {
            let (cells, [ri, rj]) = self.ranges(p);
            let kj = rj.bins.len();
            let (mi, mj) = self.margins[ri.bins.start..rj.bins.end].split_at_mut(ri.bins.len());
            mi.fill(0);
            mj.fill(0);
            for (row, m) in self.cells[cells].chunks_exact(kj).zip(mi) {
                for (&c, mj) in row.iter().zip(mj.iter_mut()) {
                    *m += c as u64;
                    *mj += c as u64;
                }
            }
        }
    }

    /// Pair `p`, of columns `cols` whose 1-d histograms are `bases`.
    pub(crate) fn get<'a>(
        &'a self,
        p: usize,
        cols: [usize; 2],
        bases: [&'a DimBins; 2],
    ) -> PairHist<'a> {
        let (cells, [ri, rj]) = self.ranges(p);
        let dim = |r: DimRanges, base| PairDim {
            base,
            parent: &self.parents[r.bins.clone()],
            counts: &self.margins[r.bins],
            edges: &self.split_edges[r.edges],
            split: &self.split_bins[r.split],
        };
        PairHist {
            col_i: cols[0],
            col_j: cols[1],
            dim_i: dim(ri, bases[0]),
            dim_j: dim(rj, bases[1]),
            counts: &self.cells[cells],
        }
    }
}

/// One dimension of a pair histogram, borrowed from the synopsis's flat pair
/// buffers: refined bins mapped onto the column's 1-d bins.
#[derive(Debug, Clone, Copy)]
pub struct PairDim<'a> {
    /// The column's 1-d histogram, which holds every unsplit bin's edges,
    /// `v±` and `u`.
    pub base: &'a DimBins,
    /// `parent[r]` is the 1-d bin containing refined bin `r`.
    pub parent: &'a [u32],
    /// Per refined bin: its margin of the count matrix, the `h` of Theorem 2
    /// for pair-restricted coverage.
    pub counts: &'a [u64],
    /// The edges the pair's splits added inside 1-d bins, ascending.
    pub edges: &'a [f64],
    /// `v±` and `u` of the children of split 1-d bins, in refined order.
    pub split: &'a [BinMeta],
}

impl PairDim<'_> {
    /// Number of refined bins.
    pub fn k(&self) -> usize {
        self.parent.len()
    }

    /// Calls `f(r, h, meta)` with each refined bin `r`'s margin and value
    /// metadata, in order: a walk over the runs of refined bins that share
    /// a 1-d bin, an unsplit one read from the 1-d histogram, the children
    /// of a split one from the dimension's own list.
    #[inline]
    pub(crate) fn for_each_bin(&self, mut f: impl FnMut(usize, u64, BinMeta)) {
        let (parent, counts) = (self.parent, self.counts);
        let mut split = self.split.iter();
        let mut r = 0;
        while let Some(&p) = parent.get(r) {
            let run = 1 + parent[r + 1..].iter().take_while(|&&q| q == p).count();
            if run == 1 {
                f(r, counts[r], self.base.meta(p as usize));
            } else {
                for (t, &meta) in (r..r + run).zip(split.by_ref()) {
                    f(t, counts[t], meta);
                }
            }
            r += run;
        }
    }
}

/// The two-dimensional histogram `H⁽ⁱʲ⁾` for one column pair (Fig 4),
/// borrowed from the synopsis's flat pair buffers: its count matrix and its
/// two refined dimensions. [`PairwiseHist::pair`](crate::PairwiseHist::pair)
/// returns one.
#[derive(Debug, Clone, Copy)]
pub struct PairHist<'a> {
    /// First column index (`i < j` by construction).
    pub col_i: usize,
    /// Second column index.
    pub col_j: usize,
    /// Refined bins along column `i` (`e⁽ⁱ|ʲ⁾`).
    pub dim_i: PairDim<'a>,
    /// Refined bins along column `j` (`e⁽ʲ|ⁱ⁾`).
    pub dim_j: PairDim<'a>,
    /// Bin counts, row-major `k⁽ⁱ|ʲ⁾ × k⁽ʲ|ⁱ⁾`, over rows non-null in **both**
    /// columns.
    pub counts: &'a [u32],
}

impl PairHist<'_> {
    /// `k⁽ⁱ|ʲ⁾`.
    pub fn ki(&self) -> usize {
        self.dim_i.k()
    }

    /// `k⁽ʲ|ⁱ⁾`.
    pub fn kj(&self) -> usize {
        self.dim_j.k()
    }

    /// Computes `H⁽ⁱʲ⁾ β` (Eq 27-28) for a leaf's three coverage vectors at once
    /// — estimate, lower bound, upper bound — in one pass over the count matrix:
    /// multiplies it by each vector over one dimension's refined bins and folds
    /// the products into the *other* dimension's parent 1-d bins.
    ///
    /// `cover_on_j = true` means the vectors cover the `j` dimension and the
    /// results are per parent bin of column `i`; `false` is the transpose. `out`
    /// (one slice per vector, each as long as the result column has 1-d bins) is
    /// cleared first.
    ///
    /// Only the `band` of covered refined bins is walked — columns of every row
    /// when the coverage is on `j`, whole rows when it is on `i`. The caller
    /// passes the span of bins whose *upper* coverage is non-zero; the other two
    /// vectors lie below it, so everything outside the band would add `+0.0`,
    /// which leaves a non-negative sum exactly as it was. Inside the band every
    /// accumulator takes its terms in the order three separate dense passes (the
    /// test oracle `fold_coverage`) would add them, so the results are
    /// bit-identical to those passes; a GROUP BY point leaf touches one column
    /// (or row) instead of the whole matrix.
    pub(crate) fn fold_coverage3(
        &self,
        cov: [&[f64]; 3],
        cover_on_j: bool,
        band: std::ops::Range<usize>,
        out: [&mut [f64]; 3],
    ) {
        let kj = self.kj();
        let [cov_p, cov_lo, cov_hi] = cov;
        let [out_p, out_lo, out_hi] = out;
        out_p.fill(0.0);
        out_lo.fill(0.0);
        out_hi.fill(0.0);
        if band.is_empty() {
            return;
        }
        if cover_on_j {
            assert_eq!(cov_hi.len(), kj, "coverage must match the j dimension");
            let (cov_p, cov_lo, cov_hi) =
                (&cov_p[band.clone()], &cov_lo[band.clone()], &cov_hi[band.clone()]);
            for (ri, &parent) in self.dim_i.parent.iter().enumerate() {
                let row = &self.counts[ri * kj..(ri + 1) * kj][band.clone()];
                let (mut p, mut lo, mut hi) = (0.0, 0.0, 0.0);
                for (((&c, &bp), &bl), &bh) in row.iter().zip(cov_p).zip(cov_lo).zip(cov_hi) {
                    let c = c as f64;
                    p += c * bp;
                    lo += c * bl;
                    hi += c * bh;
                }
                let parent = parent as usize;
                out_p[parent] += p;
                out_lo[parent] += lo;
                out_hi[parent] += hi;
            }
        } else {
            assert_eq!(cov_hi.len(), self.ki(), "coverage must match the i dimension");
            for ri in band {
                let (bp, bl, bh) = (cov_p[ri], cov_lo[ri], cov_hi[ri]);
                let row = &self.counts[ri * kj..(ri + 1) * kj];
                for (&c, &parent) in row.iter().zip(self.dim_j.parent) {
                    let (c, parent) = (c as f64, parent as usize);
                    out_p[parent] += c * bp;
                    out_lo[parent] += c * bl;
                    out_hi[parent] += c * bh;
                }
            }
        }
    }

    /// The fold of one coverage vector, dense and unfused: the oracle
    /// [`fold_coverage3`](Self::fold_coverage3) is tested against, bit for bit
    /// (a zero count or a zero coverage is skipped, as the query path once did).
    ///
    /// `parent_k` is the number of 1-d bins of the result column.
    #[cfg(test)]
    pub(crate) fn fold_coverage(&self, cov: &[f64], cover_on_j: bool, parent_k: usize) -> Vec<f64> {
        let (ki, kj) = (self.ki(), self.kj());
        let mut out = vec![0.0; parent_k];
        if cover_on_j {
            assert_eq!(cov.len(), kj, "coverage must match the j dimension");
            for ri in 0..ki {
                let row = &self.counts[ri * kj..(ri + 1) * kj];
                let mut acc = 0.0;
                for (c, b) in row.iter().zip(cov) {
                    if *c > 0 && *b != 0.0 {
                        acc += *c as f64 * b;
                    }
                }
                out[self.dim_i.parent[ri] as usize] += acc;
            }
        } else {
            assert_eq!(cov.len(), ki, "coverage must match the i dimension");
            for ri in 0..ki {
                let bi = cov[ri];
                if bi == 0.0 {
                    continue;
                }
                let row = &self.counts[ri * kj..(ri + 1) * kj];
                for rj in 0..kj {
                    if row[rj] > 0 {
                        out[self.dim_j.parent[rj] as usize] += row[rj] as f64 * bi;
                    }
                }
            }
        }
        out
    }
}

/// One column of the sample as the pair kernel reads it. Everything here is
/// computed once per build and shared by the `d − 1` pairs the column is in.
#[derive(Clone, Copy)]
pub(crate) struct PairColumn<'a> {
    /// The sample column, NULL codes included, in row order.
    pub values: &'a [u64],
    /// `bin_of[r]`: the 1-d bin of `values[r]`, or [`NULL_BIN`] for a NULL row.
    pub bin_of: &'a [u32],
    /// The column's ascending-sorted non-null values (metadata source).
    pub sorted: &'a [u64],
    /// The finished one-dimensional histogram providing the initial edges
    /// (Algorithm 1 line 15).
    pub bins: &'a DimBins,
}

/// [`PairColumn::bin_of`] of a NULL row.
pub(crate) const NULL_BIN: u32 = u32::MAX;

/// The 1-d bin of every sample row of one column: the one binary search per
/// (row, column) the whole build does — pairs derive initial cells and refined
/// cells from these indices.
pub(crate) fn bin_rows(values: &[u64], null_code: Option<u64>, bins: &DimBins) -> Vec<u32> {
    values
        .iter()
        .map(|&v| {
            if Some(v) == null_code {
                return NULL_BIN;
            }
            // The histogram was built on this very sample: every value has a bin.
            bins.bin_of(v).expect("sample value outside its 1-d histogram") as u32
        })
        .collect()
}

/// Buffers one worker reuses across the pairs it builds.
#[derive(Default)]
pub(crate) struct PairScratch {
    /// Per initial cell: the write cursor into `points` (heavy cells only).
    cursor: Vec<u32>,
    /// The points of every heavy cell, grouped by cell (one counting sort).
    points: Vec<(u64, u64)>,
    /// One heavy cell's points sorted by each dimension (see [`Sorted`]).
    by: [[Vec<u64>; 2]; 2],
    /// Counting-sort tallies over one parent bin's value range.
    tally: Vec<u32>,
}

/// [`PairScratch::cursor`] of a cell with at most `M` points.
const LIGHT: u32 = u32::MAX;

/// Builds the pair histogram for columns `(i, j)` over the rows non-null in both.
/// Its margins are left to [`Pairs::fill_margins`].
pub(crate) fn build_pair(
    i: PairColumn<'_>,
    j: PairColumn<'_>,
    m_min: usize,
    split_rule: SplitRule,
    chi2: &mut Chi2Cache,
    scratch: &mut PairScratch,
) -> PairParts {
    let (bins_i, bins_j) = (i.bins, j.bins);
    let (ki0, kj0) = (bins_i.k(), bins_j.k());
    // `(bin_i, bin_j)` of every row both columns have a value in.
    let paired = || {
        i.bin_of.iter().zip(j.bin_of).enumerate().filter_map(|(r, (&bi, &bj))| {
            (bi != NULL_BIN && bj != NULL_BIN).then_some((r, bi as usize, bj as usize))
        })
    };

    // Initial 2-d bin counts over the 1-d edges (Algorithm 1 line 16).
    let mut counts0 = vec![0u32; ki0 * kj0];
    for (_, bi, bj) in paired() {
        counts0[bi * kj0 + bj] += 1;
    }

    // Collect the points of cells exceeding M (line 17), grouped by cell, and
    // refine each.
    let PairScratch { cursor, points, by, tally } = scratch;
    cursor.clear();
    let mut heavy_points = 0u32;
    cursor.extend(counts0.iter().map(|&c| {
        if c as usize > m_min {
            heavy_points += c;
            heavy_points - c
        } else {
            LIGHT
        }
    }));
    let mut refiner = Refiner { m_min, split_rule, chi2, new: Default::default() };
    if heavy_points > 0 {
        // Never shrunk: every slot below `heavy_points` is written before it is read.
        if points.len() < heavy_points as usize {
            points.resize(heavy_points as usize, (0, 0));
        }
        for (r, bi, bj) in paired() {
            let at = &mut cursor[bi * kj0 + bj];
            if *at != LIGHT {
                points[*at as usize] = (i.values[r], j.values[r]);
                *at += 1;
            }
        }
        // Each heavy cell's cursor now sits one past its last point.
        for (cell, (&end, &c)) in cursor.iter().zip(&counts0).enumerate() {
            if end != LIGHT {
                let parents = [(bins_i, cell / kj0), (bins_j, cell % kj0)];
                refiner.refine_cell(
                    &mut points[(end - c) as usize..end as usize],
                    parents,
                    by,
                    tally,
                );
            }
        }
    }

    // Final refined edges = 1-d edges ∪ new cell splits (lines 20-21).
    let edges_i = merge_edges(&bins_i.edges, &refiner.new[0]);
    let edges_j = merge_edges(&bins_j.edges, &refiner.new[1]);
    let first_i = first_refined(&bins_i.edges, &edges_i);
    let first_j = first_refined(&bins_j.edges, &edges_j);

    // Final 2-d bin counts over the refined edges (line 22).
    let (ki, kj) = (edges_i.len() - 1, edges_j.len() - 1);
    let counts = if (ki, kj) == (ki0, kj0) {
        // No cell was split: the refined cells are the initial ones.
        counts0
    } else {
        let mut counts = vec![0u32; ki * kj];
        for (r, bi, bj) in paired() {
            let ri = refined_bin(&edges_i, &first_i, bi, i.values[r]);
            let rj = refined_bin(&edges_j, &first_j, bj, j.values[r]);
            counts[ri * kj + rj] += 1;
        }
        counts
    };
    let dim_i = finalize_dim(i.sorted, &edges_i, &first_i, bins_i);
    let dim_j = finalize_dim(j.sorted, &edges_j, &first_j, bins_j);
    PairParts { cells: counts, dims: [dim_i, dim_j] }
}

/// For each 1-d edge, its index among the refined edges (a superset of them):
/// 1-d bin `p` is refined into bins `first[p]..first[p + 1]`.
fn first_refined(base: &[f64], refined: &[f64]) -> Vec<u32> {
    let mut t = 0;
    base.iter()
        .map(|&b| {
            while refined[t] < b {
                t += 1;
            }
            t as u32
        })
        .collect()
}

/// Refined bin of `v`, a value of 1-d bin `parent`: the parent's first refined
/// bin, plus however many of the parent's own new splits lie below `v` — none to
/// search in the common case of a parent no cell split.
#[inline]
fn refined_bin(edges: &[f64], first: &[u32], parent: usize, v: u64) -> usize {
    let (lo, hi) = (first[parent] as usize, first[parent + 1] as usize);
    lo + edges[lo + 1..hi].partition_point(|&e| e < v as f64)
}

/// A heavy cell's points sorted by one dimension: `keys` ascending, `other[t]`
/// the other coordinate of the point `keys[t]` belongs to (empty when the
/// other dimension never splits, so no split reorders this one).
struct Sorted<'a> {
    keys: &'a mut [u64],
    other: &'a mut [u64],
}

impl<'a> Sorted<'a> {
    /// Sorts `points` by coordinate `d` into `buf`, by counting over the
    /// parent bin's values `lo..=hi` when they are no more than about twice
    /// the points, by `sort_unstable` otherwise. `points` is left reordered.
    fn of(
        points: &mut [(u64, u64)],
        d: usize,
        (lo, hi): (u64, u64),
        with_other: bool,
        buf: &'a mut [Vec<u64>; 2],
        tally: &mut Vec<u32>,
    ) -> Self {
        let n = points.len();
        let coords = |p: &(u64, u64)| if d == 0 { *p } else { (p.1, p.0) };
        let [keys, other] = buf;
        for v in [&mut *keys, &mut *other].into_iter().filter(|v| v.len() < n) {
            v.resize(n, 0); // never shrunk: every slot below `n` is written before it is read
        }
        let (keys, other) = (&mut keys[..n], &mut other[..if with_other { n } else { 0 }]);
        if hi - lo < 2 * n as u64 {
            tally.clear();
            tally.resize((hi - lo) as usize + 1, 0);
            for p in points.iter() {
                tally[(coords(p).0 - lo) as usize] += 1;
            }
            if with_other {
                let mut at = 0;
                for c in tally.iter_mut() {
                    (*c, at) = (at, at + *c);
                }
                for p in points.iter() {
                    let (k, o) = coords(p);
                    let at = &mut tally[(k - lo) as usize];
                    (keys[*at as usize], other[*at as usize]) = (k, o);
                    *at += 1;
                }
            } else {
                let mut at = 0;
                for (v, &c) in (lo..).zip(tally.iter()) {
                    keys[at..at + c as usize].fill(v);
                    at += c as usize;
                }
            }
        } else if with_other {
            points.sort_unstable_by_key(|p| coords(p).0);
            for ((k, o), p) in keys.iter_mut().zip(other.iter_mut()).zip(points.iter()) {
                (*k, *o) = coords(p);
            }
        } else {
            for (k, p) in keys.iter_mut().zip(points.iter()) {
                *k = coords(p).0;
            }
            keys.sort_unstable();
        }
        Sorted { keys, other }
    }

    /// Stably partitions the points by `other < z`, of which there are `cut`,
    /// through `buf` (as long as the points): they move to the front, the
    /// rest behind them, and each side keeps its keys ascending.
    fn partition(&mut self, z: f64, cut: usize, buf: &mut [(u64, u64)]) {
        let (mut left, mut right) = (0, cut);
        for (&k, &o) in self.keys.iter().zip(self.other.iter()) {
            let at = if (o as f64) < z { &mut left } else { &mut right };
            buf[*at] = (k, o);
            *at += 1;
        }
        debug_assert_eq!(left, cut);
        for ((k, o), &p) in self.keys.iter_mut().zip(self.other.iter_mut()).zip(buf.iter()) {
            (*k, *o) = p;
        }
    }

    fn split_at(self, cut: usize) -> (Sorted<'a>, Sorted<'a>) {
        let (kl, kr) = self.keys.split_at_mut(cut);
        let (ol, or) = self.other.split_at_mut(cut.min(self.other.len()));
        (Sorted { keys: kl, other: ol }, Sorted { keys: kr, other: or })
    }
}

/// `RefineBin2D` over the heavy cells of one pair: the build parameters and
/// the split edges found so far along each dimension (doubled, so the
/// half-integer edges are exact integers).
struct Refiner<'a> {
    m_min: usize,
    split_rule: SplitRule,
    chi2: &'a mut Chi2Cache,
    new: [BTreeSet<i64>; 2],
}

impl Refiner<'_> {
    /// Refines one heavy cell, given the parent 1-d bins it lies in: each
    /// dimension is sorted once, and not at all if its parent bin holds one
    /// value, since every point shares it and it can never split.
    fn refine_cell(
        &mut self,
        points: &mut [(u64, u64)],
        parents: [(&DimBins, usize); 2],
        by: &mut [[Vec<u64>; 2]; 2],
        tally: &mut Vec<u32>,
    ) {
        let range = parents.map(|(bins, t)| (bins.vmin[t], bins.vmax[t]));
        let splits = range.map(|(lo, hi)| lo != hi);
        if splits == [false, false] {
            return;
        }
        let [by_i, by_j] = by;
        let [view_i, view_j] = [(0, by_i), (1, by_j)].map(|(d, buf)| {
            splits[d].then(|| Sorted::of(points, d, range[d], splits == [true; 2], buf, tally))
        });
        let bounds = parents.map(|(bins, t)| (bins.edges[t], bins.edges[t + 1]));
        self.refine([view_i, view_j], points, bounds, 0);
    }

    /// Tests each dimension of the cell for uniformity, splits the least uniform
    /// one, and recurses (Fig 5). `views` holds the cell's points sorted by each
    /// dimension that can split, `buf` is as long as the cell and free.
    fn refine(
        &mut self,
        mut views: [Option<Sorted<'_>>; 2],
        buf: &mut [(u64, u64)],
        bounds: [(f64, f64); 2],
        depth: u32,
    ) {
        if buf.len() <= self.m_min || depth >= MAX_DEPTH {
            return;
        }
        // Per-dimension uniformity severity.
        let mut severity = |d: usize| -> Option<f64> {
            let vals = &*views[d].as_ref()?.keys;
            let uniq = count_unique_sorted(vals);
            if uniq < 2 || bounds[d].1 - bounds[d].0 < 2.0 {
                return None; // nothing to split in this dimension
            }
            let t = test_uniform(vals, bounds[d].0, bounds[d].1, uniq, self.chi2);
            (!t.is_uniform()).then(|| t.severity())
        };
        // Pick the least uniform rejecting dimension; stop when both accept.
        let d = match (severity(0), severity(1)) {
            (None, None) => return,
            (Some(_), None) => 0,
            (None, Some(_)) => 1,
            (Some(a), Some(b)) => {
                if a >= b {
                    0
                } else {
                    1
                }
            }
        };
        let Some(view) = views[d].as_ref() else { return };
        let (lo, hi) = bounds[d];
        let z = match self.split_rule {
            SplitRule::EqualWidth => snap_split(lo, hi),
            SplitRule::EqualDepth => {
                snap_split_equal_depth(view.keys, lo, hi).or_else(|| snap_split(lo, hi))
            }
        };
        let Some(z) = z else { return };
        self.new[d].insert((z * 2.0) as i64);
        let cut = view.keys.partition_point(|&v| (v as f64) < z);
        if let Some(other) = views[1 - d].as_mut() {
            other.partition(z, cut, buf);
        }
        let [(left_i, right_i), (left_j, right_j)] =
            views.map(|v| v.map(|v| v.split_at(cut)).unzip());
        let (buf_left, buf_right) = buf.split_at_mut(cut);
        let (mut bounds_left, mut bounds_right) = (bounds, bounds);
        (bounds_left[d].1, bounds_right[d].0) = (z, z);
        self.refine([left_i, left_j], buf_left, bounds_left, depth + 1);
        self.refine([right_i, right_j], buf_right, bounds_right, depth + 1);
    }
}

/// Union of base edges and doubled-integer split edges, ascending.
fn merge_edges(base: &[f64], extra: &BTreeSet<i64>) -> Vec<f64> {
    let mut all: Vec<f64> = base.to_vec();
    all.extend(extra.iter().map(|&e2| e2 as f64 / 2.0));
    all.sort_by(|a, b| a.total_cmp(b));
    all.dedup();
    all
}

/// One pair dimension's [`DimParts`]: the parent map back to the 1-d
/// histogram, and for each 1-d bin a cell split, its interior edges and its
/// children's value metadata (`v±`, `u`) over the full column. `first` is
/// [`first_refined`] of the refined `edges`. An unsplit bin is its 1-d
/// parent, so only the values of split parents are scanned.
fn finalize_dim(sorted: &[u64], edges: &[f64], first: &[u32], parent_bins: &DimBins) -> DimParts {
    let mut dim = DimParts { parent: Vec::with_capacity(edges.len() - 1), ..Default::default() };
    let mut start = 0usize;
    for p in 0..parent_bins.k() {
        let refined = first[p] as usize..first[p + 1] as usize;
        let end = start + parent_bins.counts[p] as usize;
        dim.parent.resize(refined.end, p as u32);
        if refined.len() > 1 {
            dim.edges.extend_from_slice(&edges[refined.start + 1..refined.end]);
            for t in refined {
                let (e_lo, e_hi) = (edges[t], edges[t + 1]);
                let stop = start + sorted[start..end].partition_point(|&v| (v as f64) < e_hi);
                let slice = &sorted[start..stop];
                dim.split.push(match (slice.first(), slice.last()) {
                    (Some(&vmin), Some(&vmax)) => {
                        BinMeta { vmin, vmax, uniq: count_unique_sorted(slice) as u32 }
                    }
                    _ => BinMeta {
                        vmin: e_lo.ceil().max(0.0) as u64,
                        vmax: e_hi.floor().max(0.0) as u64,
                        uniq: 0,
                    },
                });
                start = stop;
            }
        }
        start = end;
    }
    dim
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build1d::{build_dim_bins_1d, edges_from_seeds};
    use rand::{Rng, SeedableRng};

    /// Built pairs assembled into [`Pairs`], over their columns' 1-d bins.
    struct Assembled {
        pairs: Pairs,
        bases: [DimBins; 2],
    }

    impl Assembled {
        fn new(parts: impl IntoIterator<Item = PairParts>, bases: [DimBins; 2]) -> Self {
            let mut pairs = Pairs::default();
            for part in parts {
                pairs.push(&part.dims);
                pairs.cells.extend(part.cells);
            }
            pairs.fill_margins();
            Self { pairs, bases }
        }

        fn pair(&self, p: usize) -> PairHist<'_> {
            self.pairs.get(p, [0, 1], [&self.bases[0], &self.bases[1]])
        }
    }

    /// Builds 1-d bins + the pair for two correlated columns.
    fn setup(xi: Vec<u64>, xj: Vec<u64>, m_min: usize) -> Assembled {
        let mut chi2 = Chi2Cache::new(0.001);
        let mut si = xi.clone();
        si.sort_unstable();
        let mut sj = xj.clone();
        sj.sort_unstable();
        let ei = [si[0] as f64 - 0.5, si[si.len() - 1] as f64 + 0.5];
        let ej = [sj[0] as f64 - 0.5, sj[sj.len() - 1] as f64 + 0.5];
        let bi = build_dim_bins_1d(&si, &ei, m_min, SplitRule::EqualWidth, &mut chi2);
        let bj = build_dim_bins_1d(&sj, &ej, m_min, SplitRule::EqualWidth, &mut chi2);
        let (oi, oj) = (bin_rows(&xi, None, &bi), bin_rows(&xj, None, &bj));
        let part = build_pair(
            PairColumn { values: &xi, bin_of: &oi, sorted: &si, bins: &bi },
            PairColumn { values: &xj, bin_of: &oj, sorted: &sj, bins: &bj },
            m_min,
            SplitRule::EqualWidth,
            &mut chi2,
            &mut PairScratch::default(),
        );
        Assembled::new([part], [bi, bj])
    }

    #[test]
    fn counts_partition_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 6000;
        let xi: Vec<u64> = (0..n).map(|_| rng.gen_range(0..500)).collect();
        let xj: Vec<u64> = xi.iter().map(|&v| v * 2 + rng.gen_range(0..50)).collect();
        let built = setup(xi, xj, 60);
        let pair = built.pair(0);
        let total: u64 = pair.counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, n as u64);
        assert_eq!(pair.counts.len(), pair.ki() * pair.kj());
    }

    #[test]
    fn refinement_adds_edges_on_dependent_data() {
        // Skewed marginals (so the 1-d histograms have several bins) plus strong
        // diagonal dependence: within initial cells the conditional marginals are
        // non-uniform, so RefineBin2D must add edges beyond the 1-d ones.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let n = 20_000;
        let xi: Vec<u64> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                (u * u * 1000.0) as u64
            })
            .collect();
        let xj: Vec<u64> = xi.iter().map(|&v| v + rng.gen_range(0..10)).collect();
        let k1d = {
            let mut chi2 = Chi2Cache::new(0.001);
            let mut si = xi.clone();
            si.sort_unstable();
            let ei = [si[0] as f64 - 0.5, si[si.len() - 1] as f64 + 0.5];
            let mut sj = xj.clone();
            sj.sort_unstable();
            let ej = [sj[0] as f64 - 0.5, sj[sj.len() - 1] as f64 + 0.5];
            build_dim_bins_1d(&si, &ei, 200, SplitRule::EqualWidth, &mut chi2).k()
                + build_dim_bins_1d(&sj, &ej, 200, SplitRule::EqualWidth, &mut chi2).k()
        };
        let built = setup(xi, xj, 200);
        let pair = built.pair(0);
        assert!(
            pair.ki() + pair.kj() > k1d,
            "dependent data must trigger 2-d refinement (ki={}, kj={}, 1-d total={})",
            pair.ki(),
            pair.kj(),
            k1d
        );
    }

    #[test]
    fn independent_uniform_data_needs_no_refinement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let n = 20_000;
        let xi: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        let xj: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        let built = setup(xi, xj, 200);
        let pair = built.pair(0);
        // Uniform marginals & independence: with alpha = 0.001 refinement should be
        // rare. Allow a couple of false-positive splits.
        assert!(pair.ki() <= 4 && pair.kj() <= 4, "ki={} kj={}", pair.ki(), pair.kj());
    }

    #[test]
    fn parents_map_into_onedim_bins() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let n = 8000;
        let xi: Vec<u64> = (0..n)
            .map(
                |_| if rng.gen_bool(0.5) { rng.gen_range(0..50) } else { rng.gen_range(900..1000) },
            )
            .collect();
        let xj: Vec<u64> = xi.iter().map(|&v| 1000 - v + rng.gen_range(0..20)).collect();
        let built = setup(xi, xj, 80);
        let pair = built.pair(0);
        assert!(pair.dim_i.parent.windows(2).all(|w| w[0] <= w[1]), "parents monotone");
        // Refined bins within a parent must tile the parent exactly: with no
        // NULLs, a 1-d bin's margins sum to its count.
        let mut per_parent = vec![0u64; pair.dim_i.base.k()];
        for (r, &p) in pair.dim_i.parent.iter().enumerate() {
            per_parent[p as usize] += pair.dim_i.counts[r];
        }
        assert_eq!(per_parent, pair.dim_i.base.counts);
    }

    /// A NULL's code in the generated columns (outside every value range).
    const NULL: u64 = 1 << 40;

    /// One generated column as the pair kernel reads it, with its 1-d
    /// histogram built the way `build_from_matrix` builds it.
    struct GenColumn {
        values: Vec<u64>,
        sorted: Vec<u64>,
        bins: DimBins,
        bin_of: Vec<u32>,
    }

    impl GenColumn {
        /// `n` rows of one of seven shapes: one value; a few far-apart
        /// values; a dense narrow range; a sparse wide range; both mixed; a
        /// noisy function of `other`; all NULL. Then some rows are NULLed, and
        /// the initial edges are min/max or cut between sampled seed values.
        fn generate(
            rng: &mut rand::rngs::StdRng,
            n: usize,
            other: &[u64],
            m_min: usize,
            split_rule: SplitRule,
            chi2: &mut Chi2Cache,
        ) -> Self {
            const FAR: [u64; 5] = [3, 5_000, 5_001, 80_000, 200_000];
            let shape = rng.gen_range(0..7u32);
            let null_frac = [0.0, 0.0, 0.1, 0.6][rng.gen_range(0..4usize)];
            let values: Vec<u64> = (0..n)
                .map(|r| {
                    let v = match shape {
                        0 => 7,
                        1 => FAR[rng.gen_range(0..FAR.len())],
                        2 => rng.gen_range(0..60),
                        3 => rng.gen_range(0..1_000_000),
                        4 if rng.gen_bool(0.5) => rng.gen_range(0..100),
                        4 => rng.gen_range(0..100_000),
                        5 if other.get(r).is_some_and(|&o| o != NULL) => {
                            other[r] / 3 + rng.gen_range(0..5)
                        }
                        5 => rng.gen_range(0..3_000),
                        _ => NULL,
                    };
                    if rng.gen_bool(null_frac) {
                        NULL
                    } else {
                        v
                    }
                })
                .collect();
            let mut sorted: Vec<u64> = values.iter().copied().filter(|&v| v != NULL).collect();
            sorted.sort_unstable();
            let bins = match (sorted.first(), sorted.last()) {
                (Some(&lo), Some(&hi)) => {
                    let mut seeds: Vec<u64> = (0..rng.gen_range(0..n / m_min + 2))
                        .map(|_| sorted[rng.gen_range(0..sorted.len())])
                        .collect();
                    seeds.sort_unstable();
                    seeds.dedup();
                    let edges = if rng.gen_bool(0.5) && seeds.len() > 1 {
                        edges_from_seeds(&seeds, lo, hi)
                    } else {
                        vec![lo as f64 - 0.5, hi as f64 + 0.5]
                    };
                    build_dim_bins_1d(&sorted, &edges, m_min, split_rule, chi2)
                }
                _ => DimBins::finalize(
                    vec![-0.5, 0.5],
                    vec![0],
                    vec![0],
                    vec![0],
                    vec![0],
                    m_min,
                    chi2,
                ),
            };
            let bin_of = bin_rows(&values, Some(NULL), &bins);
            GenColumn { values, sorted, bins, bin_of }
        }

        fn column(&self) -> PairColumn<'_> {
            PairColumn {
                values: &self.values,
                bin_of: &self.bin_of,
                sorted: &self.sorted,
                bins: &self.bins,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Sorting each heavy cell once, partitioning its sorted views and
        /// copying unsplit parents' metadata build the pair the sort-per-level
        /// refiner and full-scan finalize build, field for field: over one-value
        /// parent bins on either or both sides, cells counted and cells sorted,
        /// NULLs in either column, both split rules, seeded and min/max initial
        /// edges, in both column orders, through one reused scratch.
        #[test]
        fn prop_build_pair_equals_reference(seed in 0u64..1_000_000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(20..2_500usize);
            let m_min = rng.gen_range(2..40usize);
            let split_rule =
                if rng.gen_bool(0.3) { SplitRule::EqualDepth } else { SplitRule::EqualWidth };
            let mut chi2 = Chi2Cache::new(0.001);
            let a = GenColumn::generate(&mut rng, n, &[], m_min, split_rule, &mut chi2);
            let b = GenColumn::generate(&mut rng, n, &a.values, m_min, split_rule, &mut chi2);
            let mut scratch = PairScratch::default();
            for (i, j) in [(&a, &b), (&b, &a)] {
                let (ci, cj) = (i.column(), j.column());
                let built = build_pair(ci, cj, m_min, split_rule, &mut chi2, &mut scratch);
                let built = Assembled::new([built], [i.bins.clone(), j.bins.clone()]);
                let expected = reference::build_pair(ci, cj, m_min, split_rule, &mut chi2);
                proptest::prop_assert_eq!(
                    reference::DensePair::of(built.pair(0)),
                    expected,
                    "seed {}",
                    seed
                );
            }
        }
    }

    /// A hand-assembled pair: `counts` is `ki × kj`, and each dimension's refined
    /// bins map onto 1-d bins through a monotone parent map. Only what the
    /// folds read is meaningful: no 1-d bin is split, and the 1-d bins are filler.
    fn pair_of(counts: Vec<u32>, parent_i: Vec<u32>, parent_j: Vec<u32>) -> Assembled {
        let mut chi2 = Chi2Cache::new(0.001);
        let base =
            DimBins::finalize(vec![-0.5, 0.5], vec![0], vec![0], vec![0], vec![0], 10, &mut chi2);
        let dim = |parent| DimParts { parent, ..Default::default() };
        let part = PairParts { cells: counts, dims: [dim(parent_i), dim(parent_j)] };
        Assembled::new([part], [base.clone(), base])
    }

    proptest::proptest! {
        /// The fused, banded fold is three dense folds, bit for bit: both
        /// orientations; empty, point, full, interval and scattered coverages with
        /// `β⁻ ≤ β ≤ β⁺`; matrices with all-zero rows and columns; refined bins
        /// that share a parent.
        #[test]
        fn prop_fused_fold_equals_three_dense_folds(seed in 0u64..4_000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (ki, kj) = (rng.gen_range(1..12usize), rng.gen_range(1..12usize));
            let parent_k = rng.gen_range(1..6usize);
            let mut parents = |k: usize| {
                let mut p: Vec<u32> = (0..k).map(|_| rng.gen_range(0..parent_k as u32)).collect();
                p.sort_unstable();
                p
            };
            let (parent_i, parent_j) = (parents(ki), parents(kj));
            let (dead_row, dead_col) = (rng.gen_range(0..ki + 2), rng.gen_range(0..kj + 2));
            let counts = (0..ki * kj)
                .map(|cell| {
                    let dead = cell / kj == dead_row || cell % kj == dead_col;
                    if dead || rng.gen_bool(0.3) { 0 } else { rng.gen_range(1..5_000u32) }
                })
                .collect();
            let built = pair_of(counts, parent_i, parent_j);
            let pair = built.pair(0);

            for cover_on_j in [true, false] {
                let kb = if cover_on_j { kj } else { ki };
                let (a, b) = (rng.gen_range(0..kb), rng.gen_range(0..kb));
                let covered = |t: usize, rng: &mut rand::rngs::StdRng| match seed % 5 {
                    0 => false,
                    1 => t == a,
                    2 => true,
                    3 => (a.min(b)..=a.max(b)).contains(&t),
                    _ => rng.gen_bool(0.4),
                };
                let mut cov = [vec![0.0; kb], vec![0.0; kb], vec![0.0; kb]];
                let mut band = kb..kb;
                for t in 0..kb {
                    if !covered(t, &mut rng) {
                        continue;
                    }
                    // Whole bins mostly, as real predicates cover them; partial
                    // ones bracketed by bounds that may touch 0 and 1.
                    let beta: f64 = if rng.gen_bool(0.6) { 1.0 } else { rng.gen() };
                    let lo = if rng.gen_bool(0.3) { 0.0 } else { beta * rng.gen::<f64>() };
                    let hi = if rng.gen_bool(0.3) { 1.0 } else { beta + (1.0 - beta) * rng.gen::<f64>() };
                    (cov[0][t], cov[1][t], cov[2][t]) = (beta, lo, hi);
                    if hi != 0.0 {
                        band = band.start.min(t)..t + 1;
                    }
                }
                let mut out = [vec![7.0; parent_k], vec![7.0; parent_k], vec![7.0; parent_k]];
                let [out_p, out_lo, out_hi] = &mut out;
                pair.fold_coverage3(
                    [&cov[0], &cov[1], &cov[2]],
                    cover_on_j,
                    band,
                    [out_p, out_lo, out_hi],
                );
                for (fused, cov) in out.iter().zip(&cov) {
                    let dense = pair.fold_coverage(cov, cover_on_j, parent_k);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(fused), bits(&dense), "cover_on_j = {}", cover_on_j);
                }
            }
        }
    }

    #[test]
    fn fold_coverage_row_and_column() {
        // Tiny hand-built pair: 2x2 counts, identity parents.
        let built = pair_of(vec![20, 10, 5, 5], vec![0, 1], vec![0, 1]);
        let pair = built.pair(0);
        // Coverage [1, 0] on j: row sums of first column -> i-parents [20, 5].
        assert_eq!(pair.fold_coverage(&[1.0, 0.0], true, 2), vec![20.0, 5.0]);
        // Coverage [0.5, 0.5] on i -> j-parents [12.5, 7.5].
        assert_eq!(pair.fold_coverage(&[0.5, 0.5], false, 2), vec![12.5, 7.5]);
    }
}
