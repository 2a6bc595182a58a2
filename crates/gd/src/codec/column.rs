//! Per-column codec selection from one pass of cheap statistics.

use super::bitpack::BitPackCodec;
use super::delta::{DeltaCodec, DELTA_BLOCK};
use super::dict::DictCodec;
use super::runend::RunEndCodec;
use super::EncodedPred;

/// Distinct values tracked before a column is declared high-cardinality and
/// the dictionary codec drops out of the race.
const MAX_DISTINCT: usize = 65_536;

/// A sealed column under whichever codec won selection.
#[derive(Debug, Clone)]
pub enum ColumnCodec {
    /// Frame-of-reference fixed-width packing.
    BitPack(BitPackCodec),
    /// Blocked zigzag-delta packing.
    Delta(DeltaCodec),
    /// Sorted dictionary + packed codes.
    Dict(DictCodec),
    /// Run values + exclusive run ends.
    RunEnd(RunEndCodec),
}

impl ColumnCodec {
    /// Wire tag identifying the variant inside a columnar store blob.
    pub fn tag(&self) -> u8 {
        match self {
            ColumnCodec::BitPack(_) => 0,
            ColumnCodec::Delta(_) => 1,
            ColumnCodec::Dict(_) => 2,
            ColumnCodec::RunEnd(_) => 3,
        }
    }

    /// Stable human-readable codec name, for `/stats` and bench reporting.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnCodec::BitPack(_) => "bitpack",
            ColumnCodec::Delta(_) => "delta",
            ColumnCodec::Dict(_) => "dict",
            ColumnCodec::RunEnd(_) => "runend",
        }
    }

    /// Restores a column payload of `n_rows` rows previously written under
    /// `tag`; `None` on malformed input or another row count.
    pub fn from_tag_bytes(tag: u8, data: &[u8], n_rows: usize) -> Option<Self> {
        match tag {
            0 => BitPackCodec::from_bytes(data, n_rows).map(ColumnCodec::BitPack),
            1 => DeltaCodec::from_bytes(data, n_rows).map(ColumnCodec::Delta),
            2 => DictCodec::from_bytes(data, n_rows).map(ColumnCodec::Dict),
            3 => RunEndCodec::from_bytes(data, n_rows).map(ColumnCodec::RunEnd),
            _ => None,
        }
    }

    /// Full decode back to the encoded-domain column. Total: every codec in
    /// memory was encoded here or validated by its `from_bytes`.
    pub fn decode(&self) -> Vec<u64> {
        match self {
            ColumnCodec::BitPack(c) => c.decode(),
            ColumnCodec::Delta(c) => c.decode(),
            ColumnCodec::Dict(c) => c.decode(),
            ColumnCodec::RunEnd(c) => c.decode(),
        }
    }

    /// Serialized size in bytes, computed arithmetically in O(1) — equal to
    /// `to_bytes().len()` (pinned by proptest).
    pub fn packed_bytes(&self) -> usize {
        match self {
            ColumnCodec::BitPack(c) => c.packed_bytes(),
            ColumnCodec::Delta(c) => c.packed_bytes(),
            ColumnCodec::Dict(c) => c.packed_bytes(),
            ColumnCodec::RunEnd(c) => c.packed_bytes(),
        }
    }

    /// The payload [`from_tag_bytes`](Self::from_tag_bytes) restores under
    /// [`tag`](Self::tag).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            ColumnCodec::BitPack(c) => c.to_bytes(),
            ColumnCodec::Delta(c) => c.to_bytes(),
            ColumnCodec::Dict(c) => c.to_bytes(),
            ColumnCodec::RunEnd(c) => c.to_bytes(),
        }
    }

    /// Rows matching `pred`, evaluated on the encoded representation.
    pub fn count_matching(&self, pred: &EncodedPred) -> u64 {
        match self {
            ColumnCodec::BitPack(c) => c.count_matching(pred),
            ColumnCodec::Delta(c) => c.count_matching(pred),
            ColumnCodec::Dict(c) => c.count_matching(pred),
            ColumnCodec::RunEnd(c) => c.count_matching(pred),
        }
    }
}

/// One-pass column statistics feeding the exact size model of every codec.
#[derive(Debug)]
pub struct ColumnStats {
    /// Row count.
    pub n_rows: usize,
    /// Minimum value.
    pub min: u64,
    /// Maximum value.
    pub max: u64,
    /// Number of runs of consecutive equal values.
    pub n_runs: usize,
    /// Minimum zigzag delta over non-anchor rows.
    pub min_zz: u64,
    /// Maximum zigzag delta over non-anchor rows.
    pub max_zz: u64,
    /// Sorted distinct values, `None` once more than [`MAX_DISTINCT`] seen.
    pub distinct: Option<Vec<u64>>,
}

impl ColumnStats {
    /// Gathers stats in one pass plus one bounded sort for the distinct set.
    pub fn gather(values: &[u64]) -> Self {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut n_runs = 0usize;
        let mut min_zz = u64::MAX;
        let mut max_zz = 0u64;
        let mut any_delta = false;
        for (r, &v) in values.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            if r == 0 || v != values[r - 1] {
                n_runs += 1;
            }
            if r > 0 && r % DELTA_BLOCK != 0 {
                let zz = ph_encoding::zigzag(v.wrapping_sub(values[r - 1]) as i64);
                min_zz = min_zz.min(zz);
                max_zz = max_zz.max(zz);
                any_delta = true;
            }
        }
        if values.is_empty() {
            min = 0;
        }
        if !any_delta {
            min_zz = 0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let distinct = (sorted.len() <= MAX_DISTINCT).then_some(sorted);
        Self { n_rows: values.len(), min, max, n_runs, min_zz, max_zz, distinct }
    }
}

/// Picks the smallest codec for a column by exact serialized-size accounting.
/// Ties break toward the more predicate-friendly representation (run-skipping,
/// then code-interval evaluation) in the order run-end, dict, bitpack, delta.
pub fn choose_codec(values: &[u64]) -> ColumnCodec {
    let stats = ColumnStats::gather(values);
    let mut best_size = RunEndCodec::size_for(stats.n_rows, stats.n_runs, stats.min, stats.max);
    let mut best = 3u8;
    if let Some(distinct) = &stats.distinct {
        let s = DictCodec::size_for(stats.n_rows, distinct);
        if s < best_size {
            best_size = s;
            best = 2;
        }
    }
    let s = BitPackCodec::size_for(stats.n_rows, stats.min, stats.max);
    if s < best_size {
        best_size = s;
        best = 0;
    }
    let s = DeltaCodec::size_for(stats.n_rows, stats.max, stats.min_zz, stats.max_zz);
    if s < best_size {
        best = 1;
    }
    match best {
        0 => ColumnCodec::BitPack(BitPackCodec::encode(values)),
        1 => ColumnCodec::Delta(DeltaCodec::encode(values)),
        2 => ColumnCodec::Dict(DictCodec::encode(values)),
        _ => ColumnCodec::RunEnd(RunEndCodec::encode(values)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_column_costs_only_a_header() {
        // Bitpack's width-0 layout beats even run-end here: 4 header bytes.
        let c = choose_codec(&[7; 10_000]);
        assert_eq!(c.name(), "bitpack");
        assert!(c.packed_bytes() <= 4, "got {}", c.packed_bytes());
        assert_eq!(c.decode(), vec![7; 10_000]);
    }

    #[test]
    fn long_runs_pick_runend() {
        // Two alternating values in long runs: run-end stores 20 runs, while
        // bitpack/dict pay 1 bit/row and delta pays for every boundary.
        let vals: Vec<u64> = (0..10_000u64).map(|i| (i / 500) % 2).collect();
        let c = choose_codec(&vals);
        assert_eq!(c.name(), "runend", "chosen {}", c.name());
        assert_eq!(c.decode(), vals);
    }

    #[test]
    fn fixed_step_timestamps_pick_delta() {
        let vals: Vec<u64> = (0..10_000u64).map(|i| 1_700_000_000 + i * 60).collect();
        let c = choose_codec(&vals);
        assert_eq!(c.name(), "delta", "chosen {}", c.name());
        assert_eq!(c.decode(), vals);
    }

    #[test]
    fn shuffled_low_cardinality_picks_dict_or_better() {
        // Wide values (need 40+ bits raw) but only 8 distinct, no run structure.
        let vals: Vec<u64> = (0..8_192u64).map(|i| (i * 2_654_435_761) % 8 * (1 << 40)).collect();
        let c = choose_codec(&vals);
        assert_eq!(c.decode(), vals);
        // 3-bit codes beat 43-bit packing; dict should win.
        assert_eq!(c.name(), "dict", "chosen {}", c.name());
    }

    #[test]
    fn dense_noise_falls_back_to_bitpack() {
        // Properly mixed 32-bit noise (a raw Weyl sequence i*K would have a
        // constant delta and hand the column to the delta codec).
        let vals: Vec<u64> = (0..4_096u64)
            .map(|i| {
                let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) >> 32
            })
            .collect();
        let c = choose_codec(&vals);
        assert_eq!(c.decode(), vals);
        assert_eq!(c.name(), "bitpack", "chosen {}", c.name());
    }

    #[test]
    fn chosen_size_is_minimal_among_candidates() {
        let cases: Vec<Vec<u64>> = vec![
            (0..500u64).collect(),
            vec![3; 500],
            (0..500u64).map(|i| i % 4).collect(),
            (0..500u64).map(|i| i.wrapping_mul(0x5851_F42D_4C95_7F2D) >> 48).collect(),
        ];
        for vals in cases {
            let chosen = choose_codec(&vals);
            let all = [
                ColumnCodec::BitPack(BitPackCodec::encode(&vals)),
                ColumnCodec::Delta(DeltaCodec::encode(&vals)),
                ColumnCodec::Dict(DictCodec::encode(&vals)),
                ColumnCodec::RunEnd(RunEndCodec::encode(&vals)),
            ];
            let min = all.iter().map(|c| c.packed_bytes()).min().unwrap();
            assert_eq!(chosen.packed_bytes(), min, "codec {}", chosen.name());
        }
    }

    #[test]
    fn tag_dispatch_roundtrips() {
        let vals: Vec<u64> = (0..300u64).map(|i| i % 5).collect();
        for codec in [
            ColumnCodec::BitPack(BitPackCodec::encode(&vals)),
            ColumnCodec::Delta(DeltaCodec::encode(&vals)),
            ColumnCodec::Dict(DictCodec::encode(&vals)),
            ColumnCodec::RunEnd(RunEndCodec::encode(&vals)),
        ] {
            let bytes = codec.to_bytes();
            let restored = ColumnCodec::from_tag_bytes(codec.tag(), &bytes, 300).unwrap();
            assert_eq!(restored.decode(), vals);
            assert_eq!(restored.name(), codec.name());
            assert_eq!(codec.packed_bytes(), bytes.len());
            assert!(ColumnCodec::from_tag_bytes(codec.tag(), &bytes, 301).is_none());
        }
        assert!(ColumnCodec::from_tag_bytes(9, &[], 0).is_none());
    }
}
