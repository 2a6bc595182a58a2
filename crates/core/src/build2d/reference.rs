//! The pair build as it refined before each heavy cell was sorted once: every
//! recursion level copies and sorts both dimensions' values and re-sorts the
//! points, and every refined bin's edges, metadata and margin are spelled out,
//! the metadata from a scan of the whole column. It is the oracle
//! [`build_pair`](super::build_pair) is tested against, through
//! [`DensePair::of`].

use super::*;

/// A pair with every refined bin spelled out, as pairs were held before
/// unsplit bins were read from the 1-d histograms: what the reference build
/// and the reference fold (`update::reference`) produce.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DensePair {
    pub dims: [DenseDim; 2],
    pub counts: Vec<u32>,
}

/// One dimension of a [`DensePair`]: every refined edge, and per refined bin
/// its value metadata, its margin and its parent 1-d bin.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseDim {
    pub edges: Vec<f64>,
    pub meta: Vec<BinMeta>,
    pub counts: Vec<u64>,
    pub parent: Vec<u32>,
}

impl DensePair {
    /// `pair` with each unsplit bin's edges and metadata copied from its
    /// 1-d parent.
    pub fn of(pair: PairHist<'_>) -> Self {
        Self {
            dims: [DenseDim::of(pair.dim_i), DenseDim::of(pair.dim_j)],
            counts: pair.counts.to_vec(),
        }
    }
}

impl DenseDim {
    fn of(dim: PairDim<'_>) -> Self {
        let mut edges = dim.base.edges.clone();
        edges.extend_from_slice(dim.edges);
        edges.sort_by(f64::total_cmp);
        let (mut counts, mut meta) = (Vec::new(), Vec::new());
        dim.for_each_bin(|_, h, m| {
            counts.push(h);
            meta.push(m);
        });
        Self { edges, meta, counts, parent: dim.parent.to_vec() }
    }
}

/// [`build_pair`](super::build_pair) as it was.
pub(crate) fn build_pair(
    i: PairColumn<'_>,
    j: PairColumn<'_>,
    m_min: usize,
    split_rule: SplitRule,
    chi2: &mut Chi2Cache,
) -> DensePair {
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
    let (mut cursor, mut points) = (Vec::new(), Vec::new());
    let (mut vi, mut vj) = (Vec::new(), Vec::new());
    let mut heavy_points = 0u32;
    cursor.extend(counts0.iter().map(|&c| {
        if c as usize > m_min {
            heavy_points += c;
            heavy_points - c
        } else {
            LIGHT
        }
    }));
    let mut refiner = Refiner {
        m_min,
        split_rule,
        chi2,
        // Edges are half-integers; store them doubled as integers for exact set ops.
        new_i: BTreeSet::new(),
        new_j: BTreeSet::new(),
        vi: &mut vi,
        vj: &mut vj,
    };
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
                let (ti, tj) = (cell / kj0, cell % kj0);
                refiner.refine(
                    &mut points[(end - c) as usize..end as usize],
                    (bins_i.edges[ti], bins_i.edges[ti + 1]),
                    (bins_j.edges[tj], bins_j.edges[tj + 1]),
                    0,
                );
            }
        }
    }

    // Final refined edges = 1-d edges ∪ new cell splits (lines 20-21).
    let edges_i = merge_edges(&bins_i.edges, &refiner.new_i);
    let edges_j = merge_edges(&bins_j.edges, &refiner.new_j);
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
    // Per-dimension counts are the matrix marginals (rows non-null in both columns):
    // they are the `h` of Theorem 2 for pair-restricted coverage, and — unlike
    // full-column counts — are exactly derivable from the stored count matrix.
    let mut row_sums = vec![0u64; ki];
    let mut col_sums = vec![0u64; kj];
    for ri in 0..ki {
        for rj in 0..kj {
            let c = counts[ri * kj + rj] as u64;
            row_sums[ri] += c;
            col_sums[rj] += c;
        }
    }
    let dim_i = finalize_dim(i.sorted, edges_i, bins_i, row_sums);
    let dim_j = finalize_dim(j.sorted, edges_j, bins_j, col_sums);
    DensePair { dims: [dim_i, dim_j], counts }
}

/// `RefineBin2D` over the heavy cells of one pair: the build parameters, the
/// split edges found so far, and the sort buffers every recursion level shares.
struct Refiner<'a> {
    m_min: usize,
    split_rule: SplitRule,
    chi2: &'a mut Chi2Cache,
    new_i: BTreeSet<i64>,
    new_j: BTreeSet<i64>,
    vi: &'a mut Vec<u64>,
    vj: &'a mut Vec<u64>,
}

impl Refiner<'_> {
    /// Tests each dimension of the cell for uniformity, splits the least uniform
    /// one, and recurses (Fig 5).
    fn refine(
        &mut self,
        points: &mut [(u64, u64)],
        bounds_i: (f64, f64),
        bounds_j: (f64, f64),
        depth: u32,
    ) {
        if points.len() <= self.m_min || depth >= MAX_DEPTH {
            return;
        }
        // Per-dimension uniformity severity.
        let mut severity = |vals: &mut Vec<u64>, bounds: (f64, f64)| -> Option<f64> {
            vals.sort_unstable();
            let uniq = count_unique_sorted(vals);
            if uniq < 2 || bounds.1 - bounds.0 < 2.0 {
                return None; // nothing to split in this dimension
            }
            let t = test_uniform(vals, bounds.0, bounds.1, uniq, self.chi2);
            (!t.is_uniform()).then(|| t.severity())
        };
        self.vi.clear();
        self.vi.extend(points.iter().map(|p| p.0));
        self.vj.clear();
        self.vj.extend(points.iter().map(|p| p.1));
        let sev_i = severity(self.vi, bounds_i);
        let sev_j = severity(self.vj, bounds_j);

        // Pick the least uniform rejecting dimension; stop when both accept.
        let split_i = match (sev_i, sev_j) {
            (None, None) => return,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a >= b,
        };
        let (bounds, sorted_vals) =
            if split_i { (bounds_i, &*self.vi) } else { (bounds_j, &*self.vj) };
        let z = match self.split_rule {
            SplitRule::EqualWidth => snap_split(bounds.0, bounds.1),
            SplitRule::EqualDepth => snap_split_equal_depth(sorted_vals, bounds.0, bounds.1)
                .or_else(|| snap_split(bounds.0, bounds.1)),
        };
        let Some(z) = z else { return };
        if split_i {
            self.new_i.insert((z * 2.0) as i64);
            points.sort_unstable_by_key(|p| p.0);
            let cut = points.partition_point(|p| (p.0 as f64) < z);
            let (left, right) = points.split_at_mut(cut);
            self.refine(left, (bounds_i.0, z), bounds_j, depth + 1);
            self.refine(right, (z, bounds_i.1), bounds_j, depth + 1);
        } else {
            self.new_j.insert((z * 2.0) as i64);
            points.sort_unstable_by_key(|p| p.1);
            let cut = points.partition_point(|p| (p.1 as f64) < z);
            let (left, right) = points.split_at_mut(cut);
            self.refine(left, bounds_i, (bounds_j.0, z), depth + 1);
            self.refine(right, bounds_i, (z, bounds_j.1), depth + 1);
        }
    }
}

fn finalize_dim(
    sorted: &[u64],
    edges: Vec<f64>,
    parent_bins: &DimBins,
    counts: Vec<u64>,
) -> DenseDim {
    let k = edges.len() - 1;
    assert_eq!(counts.len(), k);
    let mut meta = Vec::with_capacity(k);
    let mut start = 0usize;
    for t in 0..k {
        let (e_lo, e_hi) = (edges[t], edges[t + 1]);
        let end = start + sorted[start..].partition_point(|&v| (v as f64) < e_hi);
        let slice = &sorted[start..end];
        meta.push(if slice.is_empty() {
            BinMeta {
                vmin: e_lo.ceil().max(0.0) as u64,
                vmax: e_hi.floor().max(0.0) as u64,
                uniq: 0,
            }
        } else {
            BinMeta {
                vmin: slice[0],
                vmax: slice[slice.len() - 1],
                uniq: count_unique_sorted(slice) as u32,
            }
        });
        start = end;
    }
    // The 1-d bin below each refined bin's midpoint.
    let parent = edges
        .windows(2)
        .map(|w| parent_bins.edges.partition_point(|&e| e < 0.5 * (w[0] + w[1])) as u32 - 1)
        .collect();
    DenseDim { edges, meta, counts, parent }
}
