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
use ph_stats::{normal_quantile, usable_alpha, Chi2Cache};

use crate::bins::{BinMeta, DimBins};
use crate::build::{max_sub_bins, BuildParams, PairwiseHist};
use crate::build2d::{DimParts, Pairs};

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

        // --- 2-d extras: each dimension's split edges, then its split bins ---
        let mut p = 0;
        for j in 1..d {
            for i in 0..j {
                for (col, dim) in [i, j].into_iter().zip(self.pairs.ranges(p).1) {
                    // Width 8 is unreachable fallback: `col` indexes a registered column.
                    let mc = m.get(col).copied().unwrap_or(8);
                    let edges = self.pairs.split_edges.get(dim.edges).unwrap_or_default();
                    out.u32(edges.len() as u32);
                    for &e in edges {
                        out.uint(encode_edge(e), mc);
                    }
                    for b in self.pairs.split_bins.get(dim.split).unwrap_or_default() {
                        out.uint(b.vmin, mc);
                        out.uint(b.vmax, mc);
                        out.u32(b.uniq);
                    }
                }
                p += 1;
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
        for p in 0..self.pairs.len() {
            write_pair_counts(
                &mut out,
                self.pairs.cells.get(self.pairs.ranges(p).0).unwrap_or_default(),
            );
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
        let mut pairs = Pairs::default();
        let mut dims = [DimParts::default(), DimParts::default()];
        for j in 1..d {
            for i in 0..j {
                for ((col, dim), mc) in
                    [i, j].into_iter().zip(&mut dims).zip([m.get(i)?, m.get(j)?])
                {
                    read_pair_dim(&mut r, &raw1d.get(col)?.edges, *mc, dim)?;
                }
                pairs.push(&dims);
            }
        }

        // --- Counts ---
        let mut counts1d = Vec::with_capacity(d);
        for raw in &raw1d {
            let lh = r.u8().map(u32::from).filter(|lh| (1..=64).contains(lh))?;
            let [counts] = r.planes([(raw.edges.len() - 1, lh)])?;
            counts1d.push(counts.collect::<Vec<_>>());
        }
        // ph-lint: allow(bounded-reserve) — the `ki·kj` cells of every pair, from edges already decoded (each refined bin backed by bytes of this body), not a length field; the matrices are dense in memory by design
        pairs.cells.reserve_exact(pairs.n_cells());
        for p in 0..n_pairs {
            let (_, [di, dj]) = pairs.ranges(p);
            read_pair_counts(&mut r, di.bins.len(), dj.bins.len(), &mut pairs.cells)?;
        }
        r.finish()?; // trailing bytes: not a synopsis this encoder wrote
        pairs.fill_margins();

        // --- Reassemble ---
        let hist1d: Vec<DimBins> = raw1d
            .into_iter()
            .zip(counts1d)
            .map(|(raw, counts)| {
                DimBins::finalize(raw.edges, raw.vmin, raw.vmax, raw.uniq, counts, m_min, &mut chi2)
            })
            .collect();
        let max_s = max_sub_bins(&hist1d, &pairs);
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

/// Reads one pair dimension's extras into `dim`: its split edges, then the
/// metadata of the refined bins they split the 1-d bins into. Every other
/// refined bin is its 1-d parent. An edge not strictly inside a 1-d bin, or
/// out of ascending order, is refused: no encoder writes one.
fn read_pair_dim(
    r: &mut Bytes<'_>,
    parent_edges: &[f64],
    mc: usize,
    dim: &mut DimParts,
) -> Option<()> {
    let n_extra = r.u32()?;
    let n_extra = r.count(n_extra.into(), mc)?;
    dim.edges.clear();
    for _ in 0..n_extra {
        dim.edges.push(decode_edge(r.uint(mc)?));
    }
    // One walk over both edge lists: the parent map and the split bins' count.
    dim.parent.clear();
    let mut extras = dim.edges.iter().copied().peekable();
    let mut n_split = 0;
    for (p, w) in parent_edges.windows(2).enumerate() {
        let &[lo, hi] = w else { return None };
        let (mut below, first) = (lo, dim.parent.len());
        dim.parent.push(p as u32);
        while let Some(e) = extras.next_if(|&e| e < hi) {
            if e <= below {
                return None;
            }
            below = e;
            dim.parent.push(p as u32);
        }
        if dim.parent.len() - first > 1 {
            n_split += dim.parent.len() - first;
        }
    }
    if extras.next().is_some() {
        return None; // at or beyond the top 1-d edge
    }
    dim.split.clear();
    for _ in 0..n_split {
        let (vmin, vmax) = (r.uint(mc)?, r.uint(mc)?);
        if vmin > vmax {
            return None; // corrupt metadata: extremes out of order
        }
        dim.split.push(BinMeta { vmin, vmax, uniq: r.u32()? });
    }
    Some(())
}

/// Writes the count matrix of one pair, choosing dense vs sparse by exact bit cost.
fn write_pair_counts(out: &mut Vec<u8>, counts: &[u32]) {
    let cells = counts.len() as u64;
    let max = counts.iter().copied().max().unwrap_or(0) as u64;
    let lh = bits_for(max);
    let nonzero: Vec<(u64, u64)> = counts
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
        bits.write_plane(counts.iter().map(|&c| c as u64), lh);
    }
    out.bytes(&bits.finish());
}

/// Reads one pair's count matrix (inverse of [`write_pair_counts`]) onto the
/// end of `cells`.
fn read_pair_counts(r: &mut Bytes<'_>, ki: usize, kj: usize, cells: &mut Vec<u32>) -> Option<()> {
    let lh = r.u8().map(u32::from).filter(|lh| (1..=32).contains(lh))?;
    let sparse = r.u8()? != 0;
    let n = ki.checked_mul(kj)?;
    if !sparse {
        let [counts] = r.planes([(n, lh)])?;
        cells.extend(counts.map(|c| c as u32));
        return Some(());
    }
    let theta = r.uvarint().filter(|&t| t <= n as u64)?;
    let gm = optimal_golomb_m((theta as f64 / n.max(1) as f64).clamp(1e-9, 1.0));
    let start = cells.len();
    cells.resize(start + n, 0);
    let counts = cells.get_mut(start..)?;
    let mut reader = BitReader::new(r.clone().rest());
    let mut prev: i64 = -1;
    for _ in 0..theta {
        let gap = golomb_decode(&mut reader, gm)?;
        let idx = (prev + 1 + gap as i64) as usize;
        *counts.get_mut(idx)? = reader.read_bits(lh)? as u32;
        prev = idx as i64;
    }
    r.take(reader.bit_pos().div_ceil(8) as usize)?;
    Some(())
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

    /// What `from_bytes` rebuilds from `to_bytes` is the built synopsis, field
    /// by field: not only the same bytes out again, the same memory.
    fn assert_decodes_to_itself(ph: &PairwiseHist) {
        let back = PairwiseHist::from_bytes(&ph.to_bytes(), ph.preprocessor().clone())
            .expect("a built synopsis decodes");
        crate::build::assert_same_synopsis(&back, ph, "decoded");
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

        /// The one walk of `read_pair_dim` finds the parent map a binary
        /// search per refined bin finds and reads the metadata of exactly
        /// the bins of split parents; an extra edge at or beyond either outer
        /// 1-d edge, on an inner 1-d edge, repeated or out of order is refused.
        #[test]
        fn prop_read_pair_dim_maps_parents_and_refuses_edges_outside_the_1d_bins(
            n_parent in 2usize..12,
            n_extra in 0usize..24,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut codes: Vec<u64> = (100..300).collect();
            for i in (1..codes.len()).rev() {
                codes.swap(i, rng.gen_range(0..=i));
            }
            let mut parent_codes = codes[..n_parent].to_vec();
            parent_codes.sort_unstable();
            let (bottom, top) = (parent_codes[0], parent_codes[n_parent - 1]);
            let mut extras: Vec<u64> = codes[n_parent..]
                .iter()
                .copied()
                .filter(|&c| bottom < c && c < top)
                .take(n_extra)
                .collect();
            extras.sort_unstable();
            let parent_edges: Vec<f64> = parent_codes.iter().map(|&c| decode_edge(c)).collect();
            let mut edges = parent_edges.clone();
            edges.extend(extras.iter().map(|&c| decode_edge(c)));
            edges.sort_by(f64::total_cmp);
            let reference: Vec<u32> = edges
                .windows(2)
                .map(|w| parent_edges.partition_point(|&e| e < 0.5 * (w[0] + w[1])) as u32 - 1)
                .collect();
            let n_split = (0..reference.len())
                .filter(|&t| reference.iter().filter(|&&p| p == reference[t]).count() > 1)
                .count();
            // The body `to_bytes` writes, two bytes wide, with `spare` more
            // metadata entries than the split bins need.
            let body = |extras: &[u64], spare: usize| {
                let mut out = Vec::new();
                out.u32(extras.len() as u32);
                for &e in extras {
                    out.uint(e, 2);
                }
                for t in 0..n_split + spare {
                    out.uint(t as u64, 2);
                    out.uint(t as u64 + 1, 2);
                    out.u32(2);
                }
                out
            };
            let read = |body: &[u8]| {
                let mut r = Bytes::new(body);
                let mut dim = DimParts::default();
                read_pair_dim(&mut r, &parent_edges, 2, &mut dim).map(|()| (dim, r.rest().len()))
            };
            let (dim, left) = read(&body(&extras, 0)).expect("a written dimension reads");
            proptest::prop_assert_eq!(&dim.parent, &reference);
            proptest::prop_assert_eq!((dim.split.len(), left), (n_split, 0));

            let interior = parent_codes[rng.gen_range(1..n_parent)];
            let mut refused = vec![bottom, top, top + 1 + rng.gen_range(0..50), bottom - 1, interior];
            refused.extend(extras.first());
            for bad in refused {
                let mut edited = extras.clone();
                edited.insert(edited.partition_point(|&e| e < bad), bad);
                proptest::prop_assert!(read(&body(&edited, 64)).is_none(), "extra {} read", bad);
            }
            if extras.len() > 1 {
                let mut swapped = extras.clone();
                swapped.swap(0, 1);
                proptest::prop_assert!(read(&body(&swapped, 64)).is_none(), "out of order read");
            }
        }
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
