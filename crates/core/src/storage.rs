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
    bits_for, golomb_decode, golomb_encode, golomb_len_bits, optimal_golomb_m, BitPlane,
    BitReader, BitWriter,
};
use ph_gd::Preprocessor;
use ph_stats::{chi2_critical, normal_quantile, terrell_scott, Chi2Cache};

use crate::bins::DimBins;
use crate::build::{BuildParams, PairwiseHist};
use crate::build2d::{parent_map, PairHist};

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
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.params.n_total.to_le_bytes());
        out.extend_from_slice(&(self.params.ns as u64).to_le_bytes());
        out.extend_from_slice(&(self.params.m_min as u32).to_le_bytes());
        out.extend_from_slice(&self.params.alpha.to_le_bytes());
        out.extend_from_slice(&(d as u16).to_le_bytes());
        for &mi in &m {
            out.push(mi as u8);
        }
        let params_bytes = out.len();

        // --- 1-d histograms ---
        for (c, &mc) in m.iter().enumerate() {
            let bins = self.hist1d(c);
            write_u32(&mut out, bins.k() as u32);
            for &e in &bins.edges {
                write_le(&mut out, encode_edge(e), mc);
            }
            for &v in &bins.vmin {
                write_le(&mut out, v, mc);
            }
            for &v in &bins.vmax {
                write_le(&mut out, v, mc);
            }
            for &u in &bins.uniq {
                write_u32(&mut out, u);
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
                write_u32(&mut out, extra.len() as u32);
                for &e in &extra {
                    write_le(&mut out, e, mc);
                }
                // Metadata for bins inside split parents (ascending refined order).
                for t in split_bins(&dim.parent) {
                    // ph-lint: allow(no-panic-serving) — split_bins yields t < parent.len() = k, and vmin/vmax/uniq all have k entries
                    write_le(&mut out, dim.bins.vmin[t], mc);
                    // ph-lint: allow(no-panic-serving) — same k-bounded index as vmin above
                    write_le(&mut out, dim.bins.vmax[t], mc);
                    // ph-lint: allow(no-panic-serving) — same k-bounded index as vmin above
                    write_u32(&mut out, dim.bins.uniq[t]);
                }
            }
        }
        let hists_2d_bytes = out.len() - params_bytes - hists_1d_bytes;

        // --- Bin counts: 1-d vectors, then 2-d matrices (dense or sparse) ---
        for c in 0..d {
            let counts = &self.hist1d(c).counts;
            let lh = bits_for(counts.iter().copied().max().unwrap_or(0));
            out.push(lh as u8);
            out.extend_from_slice(BitPlane::pack(counts.iter().copied(), lh).as_bytes());
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
        let mut pos = 0usize;
        if data.get(..4)? != MAGIC {
            return None;
        }
        pos += 4;
        let n_total = u64::from_le_bytes(data.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        let ns = u64::from_le_bytes(data.get(pos..pos + 8)?.try_into().ok()?) as usize;
        pos += 8;
        let m_min = u32::from_le_bytes(data.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let alpha = f64::from_le_bytes(data.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        if !(alpha > 0.0 && alpha < 1.0) {
            return None;
        }
        let d = u16::from_le_bytes(data.get(pos..pos + 2)?.try_into().ok()?) as usize;
        pos += 2;
        if d != pre.n_columns() {
            return None;
        }
        let mut m = Vec::with_capacity(d);
        for _ in 0..d {
            m.push(*data.get(pos)? as usize);
            pos += 1;
        }
        if m.iter().any(|&w| w == 0 || w > 8) {
            return None;
        }

        let mut chi2 = Chi2Cache::new(alpha);

        // --- 1-d histograms ---
        struct Raw1d {
            edges: Vec<f64>,
            vmin: Vec<u64>,
            vmax: Vec<u64>,
            uniq: Vec<u32>,
        }
        let mut raw1d = Vec::with_capacity(d);
        for c in 0..d {
            let k = read_u32(data, &mut pos)? as usize;
            if k == 0 || k > 1 << 24 {
                return None;
            }
            let mc = *m.get(c)?;
            let mut edges = Vec::with_capacity(k + 1);
            for _ in 0..=k {
                edges.push(decode_edge(read_le(data, &mut pos, mc)?));
            }
            // ph-lint: allow(no-panic-serving) — windows(2) yields exactly 2 elements
            if edges.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            let mut vmin = Vec::with_capacity(k);
            for _ in 0..k {
                vmin.push(read_le(data, &mut pos, mc)?);
            }
            let mut vmax = Vec::with_capacity(k);
            for _ in 0..k {
                vmax.push(read_le(data, &mut pos, mc)?);
            }
            let mut uniq = Vec::with_capacity(k);
            for _ in 0..k {
                uniq.push(read_u32(data, &mut pos)?);
            }
            if vmin.iter().zip(&vmax).any(|(lo, hi)| lo > hi) {
                return None; // corrupt metadata: extremes out of order
            }
            raw1d.push(Raw1d { edges, vmin, vmax, uniq });
        }

        // --- 2-d extras ---
        struct RawDim {
            edges: Vec<f64>,
            meta: Vec<(u64, u64, u32)>, // split-parent bin metadata
        }
        let n_pairs = d * (d - 1) / 2;
        let mut raw_dims: Vec<(RawDim, RawDim)> = Vec::with_capacity(n_pairs);
        for j in 1..d {
            for i in 0..j {
                let mut dims = Vec::with_capacity(2);
                for &col in &[i, j] {
                    let n_extra = read_u32(data, &mut pos)? as usize;
                    if n_extra > 1 << 24 {
                        return None;
                    }
                    let parent_edges = &raw1d.get(col)?.edges;
                    let mc = *m.get(col)?;
                    let mut edges = parent_edges.clone();
                    for _ in 0..n_extra {
                        edges.push(decode_edge(read_le(data, &mut pos, mc)?));
                    }
                    edges.sort_by(|a, b| a.total_cmp(b));
                    edges.dedup();
                    if edges.len() != parent_edges.len() + n_extra {
                        return None; // extras must be new, distinct edges
                    }
                    // Which refined bins carry stored metadata: those in split parents.
                    let parent = parent_map_raw(&edges, parent_edges);
                    let n_split = split_bins(&parent).count();
                    let mut meta = Vec::with_capacity(n_split);
                    for _ in 0..n_split {
                        let vmin = read_le(data, &mut pos, mc)?;
                        let vmax = read_le(data, &mut pos, mc)?;
                        let uniq = read_u32(data, &mut pos)?;
                        if vmin > vmax {
                            return None; // corrupt metadata: extremes out of order
                        }
                        meta.push((vmin, vmax, uniq));
                    }
                    dims.push(RawDim { edges, meta });
                }
                let di = dims.remove(0);
                let dj = dims.remove(0);
                raw_dims.push((di, dj));
            }
        }

        // --- Counts ---
        let mut counts1d = Vec::with_capacity(d);
        for c in 0..d {
            let lh = *data.get(pos)? as u32;
            pos += 1;
            if lh == 0 || lh > 64 {
                return None;
            }
            let k = raw1d.get(c)?.edges.len() - 1;
            let mut reader = BitReader::new(data.get(pos..)?);
            counts1d.push(reader.read_plane(k, lh)?.collect::<Vec<_>>());
            pos += reader.bit_pos().div_ceil(8) as usize;
        }
        let mut pair_counts = Vec::with_capacity(n_pairs);
        for (di, dj) in &raw_dims {
            let ki = di.edges.len() - 1;
            let kj = dj.edges.len() - 1;
            pair_counts.push(read_pair_counts(data, &mut pos, ki, kj)?);
        }

        // --- Reassemble ---
        let hist1d: Vec<DimBins> = raw1d
            .iter()
            .zip(&counts1d)
            .map(|(r, counts)| {
                DimBins::finalize(
                    r.edges.clone(),
                    r.vmin.clone(),
                    r.vmax.clone(),
                    r.uniq.clone(),
                    counts.clone(),
                    m_min,
                    &mut chi2,
                )
            })
            .collect();

        let mut pairs = Vec::with_capacity(n_pairs);
        let mut pair_iter = raw_dims.into_iter().zip(pair_counts);
        for j in 1..d {
            for i in 0..j {
                let ((rdi, rdj), counts) = pair_iter.next()?;
                let ki = rdi.edges.len() - 1;
                let kj = rdj.edges.len() - 1;
                let mut row_sums = vec![0u64; ki];
                let mut col_sums = vec![0u64; kj];
                for ri in 0..ki {
                    for rj in 0..kj {
                        let cnt = *counts.get(ri * kj + rj)? as u64;
                        *row_sums.get_mut(ri)? += cnt;
                        *col_sums.get_mut(rj)? += cnt;
                    }
                }
                let dim_i =
                    rebuild_dim(rdi.edges, rdi.meta, hist1d.get(i)?, row_sums, m_min, &mut chi2)?;
                let dim_j =
                    rebuild_dim(rdj.edges, rdj.meta, hist1d.get(j)?, col_sums, m_min, &mut chi2)?;
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
        let crit = (1..=max_s).map(|dof| chi2_critical(alpha, dof as f64)).collect();

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

/// Rebuilds a pair dimension from stored extras: metadata for split-parent bins comes
/// from the wire, everything else copies the 1-d histogram.
fn rebuild_dim(
    edges: Vec<f64>,
    meta: Vec<(u64, u64, u32)>,
    parent_bins: &DimBins,
    counts: Vec<u64>,
    m_min: usize,
    chi2: &mut Chi2Cache,
) -> Option<crate::build2d::PairDim> {
    let parent = parent_map(&edges, parent_bins);
    let k = edges.len() - 1;
    let mut vmin = Vec::with_capacity(k);
    let mut vmax = Vec::with_capacity(k);
    let mut uniq = Vec::with_capacity(k);
    let mut meta_iter = meta.into_iter();
    let split: std::collections::HashSet<usize> = split_bins(&parent).collect();
    for t in 0..k {
        if split.contains(&t) {
            let (lo, hi, u) = meta_iter.next()?;
            vmin.push(lo);
            vmax.push(hi);
            uniq.push(u);
        } else {
            let p = *parent.get(t)? as usize;
            vmin.push(*parent_bins.vmin.get(p)?);
            vmax.push(*parent_bins.vmax.get(p)?);
            uniq.push(*parent_bins.uniq.get(p)?);
        }
    }
    Some(crate::build2d::PairDim {
        bins: DimBins::finalize(edges, vmin, vmax, uniq, counts, m_min, chi2),
        parent,
    })
}

/// Indices of refined bins whose parent was split (contains more than one refined
/// bin); exactly these carry stored metadata.
fn split_bins(parent: &[u32]) -> impl Iterator<Item = usize> + '_ {
    let mut children = std::collections::HashMap::new();
    for &p in parent {
        *children.entry(p).or_insert(0u32) += 1;
    }
    parent
        .iter()
        .enumerate()
        .filter(move |(_, p)| children.get(p).is_some_and(|&c| c > 1))
        .map(|(t, _)| t)
}

/// Parent map against raw parent edges (used before `DimBins` exist).
fn parent_map_raw(edges: &[f64], parent_edges: &[f64]) -> Vec<u32> {
    (0..edges.len() - 1)
        .map(|t| {
            // ph-lint: allow(no-panic-serving) — t ranges over 0..len-1, so t and t+1 are in bounds
            let mid = 0.5 * (edges[t] + edges[t + 1]);
            let p = parent_edges.partition_point(|&e| e < mid).saturating_sub(1);
            p.min(parent_edges.len().saturating_sub(2)) as u32
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
    out.push(lh as u8);
    out.push(sparse as u8);
    let mut bits = BitWriter::new();
    if sparse {
        let mut theta_bytes = Vec::new();
        ph_encoding::write_uvarint(&mut theta_bytes, theta);
        out.extend_from_slice(&theta_bytes);
        let mut prev: i64 = -1;
        for &(idx, c) in &nonzero {
            golomb_encode(&mut bits, (idx as i64 - prev - 1) as u64, gm);
            bits.write_bits(c, lh);
            prev = idx as i64;
        }
    } else {
        bits.write_plane(pair.counts.iter().map(|&c| c as u64), lh);
    }
    out.extend_from_slice(&bits.finish());
}

/// Reads one pair's count matrix (inverse of [`write_pair_counts`]).
fn read_pair_counts(
    data: &[u8],
    pos: &mut usize,
    ki: usize,
    kj: usize,
) -> Option<Vec<u32>> {
    let lh = *data.get(*pos)? as u32;
    *pos += 1;
    if lh == 0 || lh > 32 {
        return None;
    }
    let sparse = *data.get(*pos)? != 0;
    *pos += 1;
    let cells = ki.checked_mul(kj)?;
    if sparse {
        let mut counts = vec![0u32; cells];
        let theta = ph_encoding::read_uvarint(data, pos)?;
        if theta as usize > cells {
            return None;
        }
        let gm = optimal_golomb_m((theta as f64 / cells.max(1) as f64).clamp(1e-9, 1.0));
        let mut reader = BitReader::new(data.get(*pos..)?);
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
        *pos += reader.bit_pos().div_ceil(8) as usize;
        Some(counts)
    } else {
        let mut reader = BitReader::new(data.get(*pos..)?);
        let counts = reader.read_plane(cells, lh)?.map(|c| c as u32).collect();
        *pos += reader.bit_pos().div_ceil(8) as usize;
        Some(counts)
    }
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

fn write_le(out: &mut Vec<u8>, v: u64, width: usize) {
    debug_assert!(width == 8 || v < (1u64 << (8 * width)), "{v} exceeds {width} bytes");
    let bytes = v.to_le_bytes();
    out.extend_from_slice(bytes.get(..width).unwrap_or(&bytes));
}

fn read_le(data: &[u8], pos: &mut usize, width: usize) -> Option<u64> {
    let slice = data.get(*pos..pos.checked_add(width)?)?;
    *pos += width;
    let mut buf = [0u8; 8];
    buf.get_mut(..width)?.copy_from_slice(slice);
    Some(u64::from_le_bytes(buf))
}

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    let slice = data.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(slice.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PairwiseHistConfig;
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
        let z: Vec<Option<f64>> =
            (0..n).map(|_| Some(rng.gen_range(0.0..50.0))).collect();
        let c: Vec<Option<&str>> = (0..n)
            .map(|i| Some(["a", "b", "c"][i % 3]))
            .collect();
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
        PairwiseHist::build(
            &dataset(n, seed),
            &PairwiseHistConfig { ns: n, ..Default::default() },
        )
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let ph = build(20_000, 1);
        let bytes = ph.to_bytes();
        let back = PairwiseHist::from_bytes(&bytes, ph.preprocessor().clone())
            .expect("deserialize");
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
                PairwiseHist::from_bytes(&bytes[..cut], ph.preprocessor().clone())
                    .is_none(),
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

    #[test]
    fn schema_mismatch_rejected() {
        let ph = build(2_000, 6);
        let bytes = ph.to_bytes();
        let other = Preprocessor::fit(
            &Dataset::builder("o")
                .column(Column::from_ints("a", vec![Some(1)]))
                .unwrap()
                .build(),
        );
        assert!(PairwiseHist::from_bytes(&bytes, Arc::new(other)).is_none());
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
