#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! Compact storage encoding (§4.3, Fig 6).
//!
//! Layout: a parameter header, the one-dimensional histograms, the two-dimensional
//! histograms (storing only what the 1-d section cannot reproduce: the *additional*
//! edges from pair refinement plus metadata for the bins those edges split), and the
//! bin-count matrices — each pair's matrix stored **dense** (`ℓ_h` bits per count) or
//! **sparse** (Golomb-coded index gaps + `ℓ_h`-bit counts), whichever is smaller, as
//! the paper prescribes. Midpoints and weighted-centre bounds are *not* stored: they
//! are re-derived on load (§4.3's first observation).
//!
//! Two measured deviations from the paper's byte accounting, both documented in
//! DESIGN.md: bin counts `k` use 4 bytes instead of 2 (tiny-`M` builds can exceed
//! 65535 bins), and each histogram stores `k + 1` edges (the paper keeps the global
//! lower edge implicit).

use std::sync::Arc;

use ph_encoding::{
    bits_for, golomb_decode, golomb_encode, golomb_len_bits, optimal_golomb_m, BitPlane, BitReader,
    BitWriter, Bytes, Out,
};
use ph_gd::Preprocessor;
use ph_stats::{normal_quantile, terrell_scott, usable_alpha, Chi2Cache};

use crate::bins::DimBins;
use crate::build::{BuildParams, PairwiseHist};
use crate::build2d::PairHist;

const MAGIC: &[u8; 4] = b"PWH1";

/// Byte accounting for a serialized synopsis (the Fig 8(b) / Fig 11(a) metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisSize {
    /// Parameter header.
    pub params: usize,
    /// One-dimensional histograms (edges, v±, u).
    pub hists_1d: usize,
    /// Two-dimensional extras (additional edges + split-bin metadata).
    pub hists_2d: usize,
    /// All bin counts (1-d vectors + 2-d matrices, dense or sparse).
    pub counts: usize,
    /// Total serialized bytes.
    pub total: usize,
}

impl PairwiseHist {
    /// Serializes the synopsis to the Fig 6 layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize().0
    }

    /// Serialized size, broken down by section.
    pub fn synopsis_size(&self) -> SynopsisSize {
        self.serialize().1
    }

    fn serialize(&self) -> (Vec<u8>, SynopsisSize) {
        let d = self.n_columns();
        let m: Vec<usize> = (0..d).map(|c| edge_byte_width(self.hist1d(c))).collect();

        // --- Params ---
        let mut out = Vec::new();
        out.bytes(MAGIC);
        out.u64(self.params.n_total);
        out.u64(self.params.ns as u64);
        out.u32(self.params.m_min as u32);
        out.f64(self.params.alpha);
        out.u16(d as u16);
        for &mi in &m {
            out.u8(mi as u8);
        }
        let params_bytes = out.len();

        // --- 1-d histograms ---
        for (c, &mc) in m.iter().enumerate() {
            let bins = self.hist1d(c);
            out.u32(bins.k() as u32);
            for &e in &bins.edges {
                out.uint(encode_edge(e), mc);
            }
            for &v in bins.vmin.iter().chain(&bins.vmax) {
                out.uint(v, mc);
            }
            for &u in &bins.uniq {
                out.u32(u);
            }
        }
        let hists_1d_bytes = out.len() - params_bytes;

        // --- 2-d extras ---
        for pair in &self.pairs {
            for (dim, col) in [(&pair.dim_i, pair.col_i), (&pair.dim_j, pair.col_j)] {
                let parent_bins = self.hist1d(col);
                // Width 8 is unreachable fallback: `col` indexes a registered column.
                let mc = m.get(col).copied().unwrap_or(8);
                // Additional edges: refined edges not present in the 1-d histogram.
                let extra: Vec<u64> = dim
                    .bins
                    .edges
                    .iter()
                    .filter(|e| parent_bins.edges.binary_search_by(|p| p.total_cmp(e)).is_err())
                    .map(|&e| encode_edge(e))
                    .collect();
                out.u32(extra.len() as u32);
                for &e in &extra {
                    out.uint(e, mc);
                }
                // Metadata for bins inside split parents (ascending refined order).
                for t in split_bins(&dim.parent) {
                    // ph-lint: allow(no-panic-serving) — split_bins yields t < parent.len() = k, and vmin/vmax/uniq all have k entries
                    out.uint(dim.bins.vmin[t], mc);
                    // ph-lint: allow(no-panic-serving) — same k-bounded index as vmin above
                    out.uint(dim.bins.vmax[t], mc);
                    // ph-lint: allow(no-panic-serving) — same k-bounded index as vmin above
                    out.u32(dim.bins.uniq[t]);
                }
            }
        }
        let hists_2d_bytes = out.len() - params_bytes - hists_1d_bytes;

        // --- Bin counts: 1-d vectors, then 2-d matrices (dense or sparse) ---
        for c in 0..d {
            let counts = &self.hist1d(c).counts;
            let lh = bits_for(counts.iter().copied().max().unwrap_or(0));
            out.u8(lh as u8);
            out.plane(&BitPlane::pack(counts.iter().copied(), lh));
        }
        for pair in &self.pairs {
            write_pair_counts(&mut out, pair);
        }
        let counts_bytes = out.len() - params_bytes - hists_1d_bytes - hists_2d_bytes;

        let size = SynopsisSize {
            params: params_bytes,
            hists_1d: hists_1d_bytes,
            hists_2d: hists_2d_bytes,
            counts: counts_bytes,
            total: out.len(),
        };
        (out, size)
    }

    /// Restores a synopsis from [`PairwiseHist::to_bytes`] output. The fitted
    /// [`Preprocessor`] travels with the compressed store (Fig 2), not the synopsis,
    /// so it is supplied here.
    ///
    /// Parallel query execution is an execution-environment property, not synopsis
    /// data, so it is not serialized: a restored synopsis fans large grouped
    /// queries out across threads, with answers identical to serial execution.
    ///
    /// Returns `None` on malformed input.
    pub fn from_bytes(data: &[u8], pre: Arc<Preprocessor>) -> Option<Self> {
        let mut r = Bytes::new(data);
        if r.take(4)? != MAGIC {
            return None;
        }
        let n_total = r.u64()?;
        let ns = r.u64()? as usize;
        let m_min = r.u32()? as usize;
        let alpha = r.f64().filter(|&a| usable_alpha(a))?;
        let d = r.u16()?;
        // One byte of edge width per column.
        let d = r.count(d.into(), 1).filter(|&d| d == pre.n_columns())?;
        let m: Vec<usize> = r.take(d)?.iter().map(|&w| w as usize).collect();
        if m.iter().any(|&w| w == 0 || w > 8) {
            return None;
        }

        let mut chi2 = Chi2Cache::new(alpha);

        // --- 1-d histograms ---
        let mut raw1d = Vec::with_capacity(d);
        for &mc in &m {
            // A bin is an edge, its extremes and its distinct count.
            let k = r.u32()?;
            let k = r.count(k.into(), 3 * mc + 4).filter(|&k| k > 0)?;
            let edges: Vec<f64> =
                (0..=k).map(|_| r.uint(mc).map(decode_edge)).collect::<Option<_>>()?;
            // ph-lint: allow(no-panic-serving) — windows(2) yields exactly 2 elements
            if edges.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            let vmin: Vec<u64> = (0..k).map(|_| r.uint(mc)).collect::<Option<_>>()?;
            let vmax: Vec<u64> = (0..k).map(|_| r.uint(mc)).collect::<Option<_>>()?;
            let uniq: Vec<u32> = (0..k).map(|_| r.u32()).collect::<Option<_>>()?;
            if vmin.iter().zip(&vmax).any(|(lo, hi)| lo > hi) {
                return None; // corrupt metadata: extremes out of order
            }
            raw1d.push(Raw1d { edges, vmin, vmax, uniq });
        }

        // --- 2-d extras ---
        // A pair stores at least each dimension's `u32` count of extra edges.
        let n_pairs = r.count((d * d.saturating_sub(1) / 2) as u64, 8)?;
        let mut raw_dims: Vec<(RawDim, RawDim)> = Vec::with_capacity(n_pairs);
        for j in 1..d {
            for i in 0..j {
                let di = read_pair_dim(&mut r, raw1d.get(i)?, *m.get(i)?)?;
                let dj = read_pair_dim(&mut r, raw1d.get(j)?, *m.get(j)?)?;
                raw_dims.push((di, dj));
            }
        }

        // --- Counts ---
        let mut counts1d = Vec::with_capacity(d);
        for raw in &raw1d {
            let lh = r.u8().map(u32::from).filter(|lh| (1..=64).contains(lh))?;
            let [counts] = r.planes([(raw.edges.len() - 1, lh)])?;
            counts1d.push(counts.collect::<Vec<_>>());
        }
        let mut pair_counts = Vec::with_capacity(n_pairs);
        for (di, dj) in &raw_dims {
            pair_counts.push(read_pair_counts(&mut r, di.parent.len(), dj.parent.len())?);
        }
        r.finish()?; // trailing bytes: not a synopsis this encoder wrote

        // --- Reassemble ---
        let hist1d: Vec<DimBins> = raw1d
            .into_iter()
            .zip(counts1d)
            .map(|(raw, counts)| {
                DimBins::finalize(raw.edges, raw.vmin, raw.vmax, raw.uniq, counts, m_min, &mut chi2)
            })
            .collect();

        let mut pairs = Vec::with_capacity(n_pairs);
        let mut pair_iter = raw_dims.into_iter().zip(pair_counts);
        for j in 1..d {
            for i in 0..j {
                let ((rdi, rdj), counts) = pair_iter.next()?;
                let (row_sums, col_sums) = margins(&counts, rdi.parent.len(), rdj.parent.len())?;
                let dim_i = rdi.finalize(row_sums, m_min, &mut chi2);
                let dim_j = rdj.finalize(col_sums, m_min, &mut chi2);
                pairs.push(PairHist { col_i: i, col_j: j, dim_i, dim_j, counts });
            }
        }

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
        let crit = (1..=max_s as u32).map(|dof| chi2.critical(dof)).collect();

        Some(PairwiseHist {
            ns_at_build: ns,
            params: BuildParams { n_total, ns, m_min, alpha },
            hist1d,
            pairs,
            pre,
            crit,
            z98: normal_quantile(0.99),
            plan_epoch: crate::build::next_plan_epoch(),
        })
    }
}

/// One decoded 1-d histogram, before its counts are read.
struct Raw1d {
    edges: Vec<f64>,
    vmin: Vec<u64>,
    vmax: Vec<u64>,
    uniq: Vec<u32>,
}

/// One decoded pair dimension, before its margins are known: refined edges,
/// the parent map, and every refined bin's metadata.
struct RawDim {
    edges: Vec<f64>,
    parent: Vec<u32>,
    vmin: Vec<u64>,
    vmax: Vec<u64>,
    uniq: Vec<u32>,
}

impl RawDim {
    fn finalize(
        self,
        counts: Vec<u64>,
        m_min: usize,
        chi2: &mut Chi2Cache,
    ) -> crate::build2d::PairDim {
        let bins =
            DimBins::finalize(self.edges, self.vmin, self.vmax, self.uniq, counts, m_min, chi2);
        crate::build2d::PairDim { bins, parent: self.parent }
    }
}

/// Reads one pair dimension's extras: its additional edges, then the metadata
/// of the refined bins inside split parents. Every other refined bin copies
/// its parent 1-d bin's metadata.
fn read_pair_dim(r: &mut Bytes<'_>, parent_bins: &Raw1d, mc: usize) -> Option<RawDim> {
    let n_extra = r.u32()?;
    let n_extra = r.count(n_extra.into(), mc)?;
    let parent_edges = &parent_bins.edges;
    let mut edges = parent_edges.clone();
    for _ in 0..n_extra {
        edges.push(decode_edge(r.uint(mc)?));
    }
    edges.sort_by(|a, b| a.total_cmp(b));
    edges.dedup();
    if edges.len() != parent_edges.len() + n_extra {
        return None; // extras must be new, distinct edges
    }
    let parent = parent_map(&edges, parent_edges);
    let mut vmin = gather(&parent_bins.vmin, &parent);
    let mut vmax = gather(&parent_bins.vmax, &parent);
    let mut uniq = gather(&parent_bins.uniq, &parent);
    // A split bin holds its own extremes and distinct count, in refined order.
    for t in split_bins(&parent) {
        let lo = r.uint(mc)?;
        let hi = r.uint(mc)?;
        if lo > hi {
            return None; // corrupt metadata: extremes out of order
        }
        *vmin.get_mut(t)? = lo;
        *vmax.get_mut(t)? = hi;
        *uniq.get_mut(t)? = r.u32()?;
    }
    Some(RawDim { edges, parent, vmin, vmax, uniq })
}

/// `meta[parent[t]]` for every refined bin `t`: a 1-d bin's metadata, copied to
/// each refined bin it holds.
fn gather<T: Copy>(meta: &[T], parent: &[u32]) -> Vec<T> {
    // ph-lint: allow(no-panic-serving) — parent_map clamps every entry below the 1-d bin count, and the 1-d vmin/vmax/uniq each hold one entry per bin
    parent.iter().map(|&p| meta[p as usize]).collect()
}

/// Row and column sums of a row-major `ki × kj` count matrix.
fn margins(counts: &[u32], ki: usize, kj: usize) -> Option<(Vec<u64>, Vec<u64>)> {
    if kj == 0 || counts.len() != ki.checked_mul(kj)? {
        return None;
    }
    let mut row_sums = vec![0u64; ki];
    let mut col_sums = vec![0u64; kj];
    for (row, row_sum) in counts.chunks_exact(kj).zip(&mut row_sums) {
        for (&cnt, col_sum) in row.iter().zip(&mut col_sums) {
            *row_sum += cnt as u64;
            *col_sum += cnt as u64;
        }
    }
    Some((row_sums, col_sums))
}

/// Indices of refined bins whose parent was split (contains more than one refined
/// bin); exactly these carry stored metadata. `parent` is non-decreasing (refined
/// edges nest in the 1-d edges), so a parent's children are one run and a bin is
/// split exactly when a neighbour shares its parent.
fn split_bins(parent: &[u32]) -> impl Iterator<Item = usize> + '_ {
    (0..parent.len()).filter(move |&t| {
        let p = parent.get(t);
        (t > 0 && parent.get(t - 1) == p) || parent.get(t + 1) == p
    })
}

/// Maps each refined bin to the 1-d bin containing it (refined edges are a superset
/// of the 1-d edges, so every refined interval nests in exactly one parent): the
/// last parent edge below the refined bin's midpoint, clamped to the 1-d range.
/// Midpoints ascend, so one merge-like walk finds them all.
pub(crate) fn parent_map(edges: &[f64], parent_edges: &[f64]) -> Vec<u32> {
    let last = parent_edges.len().saturating_sub(2);
    let mut below = 0; // parent edges below the current midpoint
    edges
        .windows(2)
        .map(|w| {
            // ph-lint: allow(no-panic-serving) — windows(2) yields exactly 2 elements
            let mid = 0.5 * (w[0] + w[1]);
            while parent_edges.get(below).is_some_and(|&e| e < mid) {
                below += 1;
            }
            below.saturating_sub(1).min(last) as u32
        })
        .collect()
}

/// Writes the count matrix of one pair, choosing dense vs sparse by exact bit cost.
fn write_pair_counts(out: &mut Vec<u8>, pair: &PairHist) {
    let cells = pair.counts.len() as u64;
    let max = pair.counts.iter().copied().max().unwrap_or(0) as u64;
    let lh = bits_for(max);
    let nonzero: Vec<(u64, u64)> = pair
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i as u64, c as u64))
        .collect();
    let theta = nonzero.len() as u64;
    let gm = optimal_golomb_m((theta as f64 / cells.max(1) as f64).clamp(1e-9, 1.0));
    let dense_bits = cells * lh as u64;
    let sparse_bits: u64 = {
        let mut bits = theta * lh as u64;
        let mut prev: i64 = -1;
        for &(idx, _) in &nonzero {
            bits += golomb_len_bits((idx as i64 - prev - 1) as u64, gm);
            prev = idx as i64;
        }
        bits
    };
    let sparse = sparse_bits < dense_bits;
    out.u8(lh as u8);
    out.u8(sparse as u8);
    let mut bits = BitWriter::new();
    if sparse {
        out.uvarint(theta);
        let mut prev: i64 = -1;
        for &(idx, c) in &nonzero {
            golomb_encode(&mut bits, (idx as i64 - prev - 1) as u64, gm);
            bits.write_bits(c, lh);
            prev = idx as i64;
        }
    } else {
        bits.write_plane(pair.counts.iter().map(|&c| c as u64), lh);
    }
    out.bytes(&bits.finish());
}

/// Reads one pair's count matrix (inverse of [`write_pair_counts`]).
fn read_pair_counts(r: &mut Bytes<'_>, ki: usize, kj: usize) -> Option<Vec<u32>> {
    let lh = r.u8().map(u32::from).filter(|lh| (1..=32).contains(lh))?;
    let sparse = r.u8()? != 0;
    let cells = ki.checked_mul(kj)?;
    if !sparse {
        let [counts] = r.planes([(cells, lh)])?;
        return Some(counts.map(|c| c as u32).collect());
    }
    let theta = r.uvarint().filter(|&t| t <= cells as u64)?;
    let gm = optimal_golomb_m((theta as f64 / cells.max(1) as f64).clamp(1e-9, 1.0));
    // ph-lint: allow(bounded-reserve) — `ki·kj` cells from edges already decoded, each backed by a byte of this body, not a length field; the matrix is dense in memory by design
    let mut counts = vec![0u32; cells];
    let mut reader = BitReader::new(r.clone().rest());
    let mut prev: i64 = -1;
    for _ in 0..theta {
        let gap = golomb_decode(&mut reader, gm)?;
        let idx = (prev + 1 + gap as i64) as usize;
        if idx >= cells {
            return None;
        }
        *counts.get_mut(idx)? = reader.read_bits(lh)? as u32;
        prev = idx as i64;
    }
    r.take(reader.bit_pos().div_ceil(8) as usize)?;
    Some(counts)
}

/// Byte width for edges/values of one column: enough for the doubled top edge.
fn edge_byte_width(bins: &DimBins) -> usize {
    // `DimBins` always holds k+1 ≥ 2 edges; an empty slice can only mean a bug
    // upstream, and width 1 keeps the serializer total either way.
    let top = bins.edges.last().map_or(0, |&e| encode_edge(e));
    (bits_for(top) as usize).div_ceil(8)
}

/// Half-integer edge → non-negative integer (`2e + 1`; `e ≥ −0.5` always).
fn encode_edge(e: f64) -> u64 {
    let v = 2.0 * e + 1.0;
    debug_assert!(v >= 0.0 && v.fract() == 0.0, "edge {e} is not a half-integer");
    v as u64
}

fn decode_edge(v: u64) -> f64 {
    (v as f64 - 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{PairwiseHistConfig, SplitRule};
    use ph_sql::parse_query;
    use ph_types::{Column, Dataset};
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..800))).collect();
        let y: Vec<Option<i64>> = x
            .iter()
            .map(|v| {
                if rng.gen_bool(0.04) {
                    None
                } else {
                    Some(v.unwrap() * 2 + rng.gen_range(0..60))
                }
            })
            .collect();
        let z: Vec<Option<f64>> = (0..n).map(|_| Some(rng.gen_range(0.0..50.0))).collect();
        let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c"][i % 3])).collect();
        Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .column(Column::from_floats("z", z, 1))
            .unwrap()
            .column(Column::from_strings("c", c))
            .unwrap()
            .build()
    }

    fn build(n: usize, seed: u64) -> PairwiseHist {
        PairwiseHist::build(&dataset(n, seed), &PairwiseHistConfig { ns: n, ..Default::default() })
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let ph = build(20_000, 1);
        let bytes = ph.to_bytes();
        let back =
            PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone()).expect("deserialize");
        assert_eq!(back.params, ph.params);
        assert_eq!(back.hist1d, ph.hist1d);
        assert_eq!(back.pairs, ph.pairs);
    }

    #[test]
    fn roundtrip_preserves_query_results() {
        let ph = build(15_000, 2);
        let bytes = ph.to_bytes();
        let back = PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone()).unwrap();
        for sql in [
            "SELECT COUNT(x) FROM t WHERE y > 500",
            "SELECT AVG(x) FROM t WHERE z < 25.5 AND y > 300",
            "SELECT MEDIAN(y) FROM t WHERE c = 'a'",
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                ph.execute(&q).unwrap(),
                back.execute(&q).unwrap(),
                "results must match after roundtrip: {sql}"
            );
        }
    }

    #[test]
    fn size_breakdown_sums_to_total() {
        let ph = build(10_000, 3);
        let s = ph.synopsis_size();
        assert_eq!(s.params + s.hists_1d + s.hists_2d + s.counts, s.total);
        assert_eq!(s.total, ph.to_bytes().len());
        // Sub-MB for a small build, as the paper reports for real datasets.
        assert!(s.total < 1_000_000, "synopsis is {} bytes", s.total);
    }

    #[test]
    fn truncated_input_rejected_gracefully() {
        let ph = build(5_000, 4);
        let bytes = ph.to_bytes();
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                PairwiseHist::from_bytes(&bytes[..cut], ph.preprocessor().clone()).is_none(),
                "cut at {cut} must fail cleanly"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let ph = build(2_000, 5);
        let mut bytes = ph.to_bytes();
        bytes[0] = b'X';
        assert!(PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone()).is_none());
    }

    /// A synopsis ends at its last count matrix, and a subnormal `α` (inside
    /// `(0, 1)`, yet `1 − α == 1`) is not one the χ² tests can run at.
    #[test]
    fn trailing_bytes_and_an_unusable_alpha_are_rejected() {
        let ph = build(2_000, 5);
        let pre = ph.preprocessor().clone();
        let bytes = ph.to_bytes();
        assert!(PairwiseHist::from_bytes(&[&bytes[..], &[0]].concat(), pre.clone()).is_none());
        let mut tiny_alpha = bytes.clone();
        tiny_alpha[24..32].copy_from_slice(&1u64.to_le_bytes());
        assert!(PairwiseHist::from_bytes(&tiny_alpha, pre.clone()).is_none());
        assert!(PairwiseHist::from_bytes(&bytes, pre).is_some());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let ph = build(2_000, 6);
        let bytes = ph.to_bytes();
        let other = Preprocessor::fit(
            &Dataset::builder("o").column(Column::from_ints("a", vec![Some(1)])).unwrap().build(),
        );
        assert!(PairwiseHist::from_bytes(&bytes, Arc::new(other)).is_none());
    }

    /// `a` and `b` hold the same bins, every float compared by its bits.
    fn assert_same_bins(a: &DimBins, b: &DimBins, at: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.edges), bits(&b.edges), "{at}: edges");
        assert_eq!(a.vmin, b.vmin, "{at}: vmin");
        assert_eq!(a.vmax, b.vmax, "{at}: vmax");
        assert_eq!(a.uniq, b.uniq, "{at}: uniq");
        assert_eq!(a.counts, b.counts, "{at}: counts");
        assert_eq!(bits(&a.mid), bits(&b.mid), "{at}: mid");
        assert_eq!(bits(&a.c_lo), bits(&b.c_lo), "{at}: c_lo");
        assert_eq!(bits(&a.c_hi), bits(&b.c_hi), "{at}: c_hi");
    }

    /// What `from_bytes` rebuilds from `to_bytes` is the built synopsis, field
    /// by field: not only the same bytes out again, the same memory.
    fn assert_decodes_to_itself(ph: &PairwiseHist) {
        let back = PairwiseHist::from_bytes(&ph.to_bytes(), ph.preprocessor().clone())
            .expect("a built synopsis decodes");
        assert_eq!(back.params, ph.params);
        assert_eq!(back.ns_at_build, ph.ns_at_build);
        assert_eq!(back.z98.to_bits(), ph.z98.to_bits());
        let crit = |p: &PairwiseHist| p.crit.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(crit(&back), crit(ph), "precomputed χ² criticals");
        assert_eq!(back.hist1d.len(), ph.hist1d.len());
        for (c, (a, b)) in back.hist1d.iter().zip(&ph.hist1d).enumerate() {
            assert_same_bins(a, b, &format!("1-d column {c}"));
        }
        assert_eq!(back.pairs.len(), ph.pairs.len());
        for (a, b) in back.pairs.iter().zip(&ph.pairs) {
            let at = format!("pair ({}, {})", b.col_i, b.col_j);
            assert_eq!((a.col_i, a.col_j), (b.col_i, b.col_j), "{at}");
            assert_eq!(a.counts, b.counts, "{at}: counts");
            assert_eq!(a.dim_i.parent, b.dim_i.parent, "{at}: parent i");
            assert_eq!(a.dim_j.parent, b.dim_j.parent, "{at}: parent j");
            assert_same_bins(&a.dim_i.bins, &b.dim_i.bins, &format!("{at} dim i"));
            assert_same_bins(&a.dim_j.bins, &b.dim_j.bins, &format!("{at} dim j"));
        }
    }

    /// A registered Flights table: 1-d bins holding one value, split parents
    /// next to unsplit ones, sparse and dense count matrices.
    #[test]
    fn a_registered_flights_synopsis_decodes_to_itself() {
        let data = ph_datagen::generate("Flights", 20_000, 7).expect("known dataset");
        let session = crate::session::Session::new();
        session.register(data).unwrap();
        let snap = session.engine("Flights").unwrap();
        assert_decodes_to_itself(snap.segments()[0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Generated tables: narrow and wide value ranges, NULLs, a sample
        /// smaller than the table, both split rules.
        #[test]
        fn prop_generated_synopses_decode_to_themselves(
            n in 50usize..4_000,
            seed in proptest::prelude::any::<u64>(),
            sample_pct in 20usize..101,
            equal_depth in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut builder = Dataset::builder("g");
            for c in 0..4 {
                let range = [2, 40, 5_000, 1 << 40][rng.gen_range(0..4)];
                let nulls = [0.0, 0.1, 0.9][rng.gen_range(0..3)];
                let col: Vec<Option<i64>> = (0..n)
                    .map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_range(0..range)))
                    .collect();
                builder = builder.column(Column::from_ints(format!("c{c}"), col)).unwrap();
            }
            let cat: Vec<Option<&str>> =
                (0..n).map(|i| Some(["a", "b", "c", "d", "e"][(i * 7 + i / 3) % 5])).collect();
            let data = builder.column(Column::from_strings("s", cat)).unwrap().build();
            let cfg = PairwiseHistConfig {
                ns: (n * sample_pct / 100).max(1),
                split_rule: if equal_depth { SplitRule::EqualDepth } else { SplitRule::EqualWidth },
                seed,
                ..Default::default()
            };
            assert_decodes_to_itself(&PairwiseHist::build(&data, &cfg));
        }

        /// The linear parent map is the binary search per refined bin it
        /// replaced, and the neighbour test in `split_bins` is the per-parent
        /// count it replaced, also for extras outside the 1-d range, which
        /// clamp to the first or the last parent.
        #[test]
        fn prop_linear_parent_map_and_split_bins_equal_their_references(
            n_parent in 2usize..12,
            n_extra in 0usize..24,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut all: Vec<u64> = (0..200).collect();
            for i in (1..all.len()).rev() {
                all.swap(i, rng.gen_range(0..=i));
            }
            // Parent edges in the middle of the code range, extras anywhere in
            // it (below and above the parents too), as decoded edges are.
            let mut parent_codes: Vec<u64> = all[..n_parent].iter().map(|c| c + 100).collect();
            parent_codes.sort_unstable();
            parent_codes.dedup();
            let parent_edges: Vec<f64> = parent_codes.iter().map(|&c| decode_edge(c)).collect();
            let mut edges = parent_edges.clone();
            edges.extend(
                all[n_parent..n_parent + n_extra]
                    .iter()
                    .map(|&c| decode_edge(2 * c + rng.gen_range(0..2))),
            );
            edges.sort_by(|a, b| a.total_cmp(b));
            edges.dedup();

            let parent = parent_map(&edges, &parent_edges);
            let reference: Vec<u32> = edges
                .windows(2)
                .map(|w| {
                    let mid = 0.5 * (w[0] + w[1]);
                    let p = parent_edges.partition_point(|&e| e < mid).saturating_sub(1);
                    p.min(parent_edges.len() - 2) as u32
                })
                .collect();
            proptest::prop_assert_eq!(&parent, &reference);
            proptest::prop_assert!(parent.windows(2).all(|w| w[0] <= w[1]));
            proptest::prop_assert_eq!(
                split_bins(&parent).collect::<Vec<_>>(),
                split_bins_by_counting(&parent)
            );

            // Any non-decreasing map, runs of any length from any start.
            let mut map = Vec::new();
            let mut p = rng.gen_range(0..3u32);
            for _ in 0..n_extra {
                p += rng.gen_range(0..3);
                map.extend(std::iter::repeat_n(p, rng.gen_range(1..4)));
            }
            proptest::prop_assert_eq!(
                split_bins(&map).collect::<Vec<_>>(),
                split_bins_by_counting(&map)
            );
        }
    }

    /// The per-parent child count `split_bins` used to keep in a `HashMap`.
    fn split_bins_by_counting(parent: &[u32]) -> Vec<usize> {
        let mut children = std::collections::HashMap::new();
        for &p in parent {
            *children.entry(p).or_insert(0u32) += 1;
        }
        (0..parent.len()).filter(|&t| children[&parent[t]] > 1).collect()
    }

    #[test]
    fn sparse_vs_dense_chosen_per_pair() {
        // Strongly correlated data concentrates the pair matrix near the diagonal,
        // which should make at least one pair choose the sparse encoding.
        let ph = build(30_000, 7);
        let bytes = ph.to_bytes();
        // Simply assert the encoding is parseable and compact relative to a dense
        // f64 matrix baseline.
        let cells = ph.total_2d_cells();
        assert!(bytes.len() < cells * 8, "{} bytes for {} cells", bytes.len(), cells);
        assert!(PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone()).is_some());
    }
}
