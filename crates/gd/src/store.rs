#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! Deduplicated base/deviation store with random row access.

use std::collections::HashMap;

use ph_encoding::{bits_for, read_uvarint, uvarint_len, write_uvarint, BitReader, BitWriter};

use crate::EncodedMatrix;

/// Upper bound on each length a store header may claim: a zero-width column
/// holds any number of rows in no bytes, and no parent commits the count.
const MAX_ROWS: usize = 1 << 28;

/// A GD-compressed table: deduplicated bases, per-row base IDs and verbatim
/// deviations (paper Fig 3).
///
/// In memory, bases and IDs stay unpacked for fast random access, while deviations —
/// the bulk of per-row storage — are kept bit-packed. [`GdStore::to_bytes`] emits the
/// fully bit-packed on-disk format whose length is what the storage experiments
/// report; [`GdStore::packed_bytes`] is that length without serializing.
#[derive(Debug, Clone)]
pub struct GdStore {
    /// Total bit width per column (deviation + base part).
    widths: Vec<u32>,
    /// Deviation (low-order) bit width per column.
    dev_bits: Vec<u32>,
    /// Base tuples, flattened: `n_bases × d` base parts (already right-shifted).
    base_parts: Vec<u64>,
    /// Lookup from base tuple to its ID, for incremental appends.
    base_index: HashMap<Box<[u64]>, u32>,
    /// Base ID per row.
    ids: Vec<u32>,
    /// Bit-packed deviations, `dev_stride` bits per row.
    devs: Vec<u8>,
    /// Σ dev_bits.
    dev_stride: u64,
    n_rows: usize,
}

impl GdStore {
    /// Builds a store from an encoded matrix with the given per-column total widths
    /// and deviation widths. Normally called through
    /// [`GdCompressor::compress`](crate::GdCompressor::compress).
    pub fn build(data: &EncodedMatrix, widths: &[u32], dev_bits: &[u32]) -> Self {
        assert_eq!(widths.len(), data.n_columns());
        assert_eq!(dev_bits.len(), data.n_columns());
        assert!(
            widths.iter().zip(dev_bits).all(|(w, d)| d <= w),
            "deviation width exceeds column width"
        );
        let mut store = Self {
            widths: widths.to_vec(),
            dev_bits: dev_bits.to_vec(),
            base_parts: Vec::new(),
            base_index: HashMap::new(),
            ids: Vec::new(),
            devs: Vec::new(),
            dev_stride: dev_bits.iter().map(|&d| d as u64).sum(),
            n_rows: 0,
        };
        store.append(data);
        store
    }

    /// Appends rows incrementally ("new rows can be added incrementally to the
    /// compressed data", §3). New base tuples are assigned fresh IDs.
    ///
    /// # Panics
    /// Panics if a value does not fit the column width fixed at build time.
    pub fn append(&mut self, data: &EncodedMatrix) {
        assert_eq!(data.n_columns(), self.widths.len(), "schema mismatch on append");
        let d = self.widths.len();
        let mut key: Vec<u64> = vec![0; d];
        // Continue the packed deviation stream where the last row ended.
        let mut dev_writer =
            BitWriter::resume(std::mem::take(&mut self.devs), self.n_rows as u64 * self.dev_stride);
        for r in 0..data.n_rows {
            for c in 0..d {
                let v = data.get(r, c);
                assert!(
                    bits_for(v) <= self.widths[c],
                    "value {v} does not fit column {c} width {}",
                    self.widths[c]
                );
                key[c] = v >> self.dev_bits[c];
            }
            // Look up by slice: only a new base pays for an owned key.
            let id = match self.base_index.get(key.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = self.base_index.len() as u32;
                    self.base_parts.extend_from_slice(&key);
                    self.base_index.insert(key.clone().into_boxed_slice(), id);
                    id
                }
            };
            self.ids.push(id);
            for c in 0..d {
                let v = data.get(r, c);
                let db = self.dev_bits[c];
                if db > 0 {
                    dev_writer.write_bits(v & ((1u64 << db) - 1), db);
                }
            }
        }
        self.devs = dev_writer.finish();
        self.n_rows += data.n_rows;
    }

    /// Number of rows stored.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.widths.len()
    }

    /// Number of deduplicated bases.
    pub fn n_bases(&self) -> usize {
        self.base_index.len()
    }

    /// Per-column deviation widths chosen by the greedy fit.
    pub fn dev_bits(&self) -> &[u32] {
        &self.dev_bits
    }

    /// Reconstructs row `r` (random access — O(d), no full decompression).
    pub fn row(&self, r: usize) -> Vec<u64> {
        assert!(r < self.n_rows, "row {r} out of range ({})", self.n_rows);
        let d = self.widths.len();
        let base = &self.base_parts[self.ids[r] as usize * d..(self.ids[r] as usize + 1) * d];
        let mut reader = BitReader::new(&self.devs);
        reader.seek(r as u64 * self.dev_stride);
        let mut out = Vec::with_capacity(d);
        for c in 0..d {
            let db = self.dev_bits[c];
            let dev =
                if db > 0 { reader.read_bits(db).expect("deviation stream truncated") } else { 0 };
            out.push((base[c] << db) | dev);
        }
        out
    }

    /// Reconstructs an arbitrary set of rows into a matrix (used to decode the
    /// synopsis builder's sample).
    pub fn rows(&self, row_ids: &[usize]) -> EncodedMatrix {
        self.decode_rows(row_ids.iter().copied())
    }

    /// Full decompression.
    pub fn decompress(&self) -> EncodedMatrix {
        self.decode_rows(0..self.n_rows)
    }

    /// Decodes rows straight into the column vectors: one reader, no per-row
    /// allocation.
    fn decode_rows(&self, row_ids: impl ExactSizeIterator<Item = usize>) -> EncodedMatrix {
        let d = self.widths.len();
        // ph-lint: allow(bounded-reserve) — decodes a store already in memory, sized by the rows asked for, not by bytes off the wire
        let mut cols: Vec<Vec<u64>> = vec![Vec::with_capacity(row_ids.len()); d];
        let mut reader = BitReader::new(&self.devs);
        for r in row_ids {
            assert!(r < self.n_rows, "row {r} out of range ({})", self.n_rows);
            let base = &self.base_parts[self.ids[r] as usize * d..][..d];
            reader.seek(r as u64 * self.dev_stride);
            for c in 0..d {
                let db = self.dev_bits[c];
                let dev = reader.read_bits(db).expect("deviation stream truncated");
                cols[c].push((base[c] << db) | dev);
            }
        }
        EncodedMatrix::new(cols)
    }

    /// Distinct base-derived values for one column, sorted ascending.
    ///
    /// A base part `p` of a column with `k` deviation bits represents the value chunk
    /// `[p·2ᵏ, (p+1)·2ᵏ)`; the returned representative is the chunk start. These are
    /// the values PairwiseHist seeds its initial bin edges from (§3, §4.1 line 4).
    pub fn base_values(&self, col: usize) -> Vec<u64> {
        let d = self.widths.len();
        let shift = self.dev_bits[col];
        let mut vals: Vec<u64> =
            (0..self.n_bases()).map(|b| self.base_parts[b * d + col] << shift).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// Serialized size of [`GdStore::to_bytes`] output, computed arithmetically
    /// in O(d) without packing a single bit. Segmented tables report their
    /// resident row-store bytes through this on every footprint query, so it
    /// must stay exactly in sync with the wire layout (pinned by a test).
    pub fn packed_bytes(&self) -> usize {
        let (n_rows, n_bases, d) = (self.n_rows as u64, self.n_bases(), self.widths.len());
        let header =
            uvarint_len(n_rows) + uvarint_len(d as u64) + uvarint_len(n_bases as u64) + 2 * d;
        let base_width: u64 =
            self.widths.iter().zip(&self.dev_bits).map(|(w, b)| (w - b) as u64).sum();
        let id_bits = bits_for(n_bases.saturating_sub(1) as u64) as u64;
        let payload = n_bases as u64 * base_width + n_rows * (id_bits + self.dev_stride);
        header + payload.div_ceil(8) as usize
    }

    /// Serializes to the fully bit-packed format: header, packed bases, the base-ID
    /// plane, packed deviations.
    pub fn to_bytes(&self) -> Vec<u8> {
        let d = self.widths.len();
        let mut out = Vec::new();
        write_uvarint(&mut out, self.n_rows as u64);
        write_uvarint(&mut out, d as u64);
        write_uvarint(&mut out, self.n_bases() as u64);
        for &w in &self.widths {
            out.push(w as u8);
        }
        for &b in &self.dev_bits {
            out.push(b as u8);
        }
        let mut bits = BitWriter::new();
        for b in 0..self.n_bases() {
            for c in 0..d {
                bits.write_bits(self.base_parts[b * d + c], self.widths[c] - self.dev_bits[c]);
            }
        }
        let id_bits = bits_for(self.n_bases().saturating_sub(1) as u64);
        bits.write_plane(self.ids.iter().map(|&id| id as u64), id_bits);
        // Deviations are already packed with the same stride; splice them in.
        bits.copy_bits(&mut BitReader::new(&self.devs), self.n_rows as u64 * self.dev_stride)
            .expect("devs holds n_rows * dev_stride bits");
        out.extend_from_slice(&bits.finish());
        out
    }

    /// Restores a store from [`GdStore::to_bytes`] output.
    ///
    /// Returns `None` on malformed input. Total: the three lengths in the
    /// header are capped (so `pos + d` cannot overflow), and the payload must
    /// hold every bit they promise before anything is sized from them.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let mut length = || {
            let v = usize::try_from(read_uvarint(data, &mut pos)?).ok()?;
            (v <= MAX_ROWS).then_some(v)
        };
        let (n_rows, d, n_bases) = (length()?, length()?, length()?);
        let widths: Vec<u32> = data.get(pos..pos + d)?.iter().map(|&b| b as u32).collect();
        pos += d;
        let dev_bits: Vec<u32> = data.get(pos..pos + d)?.iter().map(|&b| b as u32).collect();
        pos += d;
        if widths.iter().zip(&dev_bits).any(|(w, b)| b > w || *w > 64) {
            return None;
        }
        let mut reader = BitReader::new(data.get(pos..)?);
        let base_bits: u64 = widths.iter().zip(&dev_bits).map(|(w, b)| (w - b) as u64).sum();
        let id_bits = bits_for(n_bases.saturating_sub(1) as u64);
        let dev_stride: u64 = dev_bits.iter().map(|&b| b as u64).sum();
        // Zero-width columns cost no payload bits. A dedup'ing writer has at
        // most one base per distinct bit pattern, which bounds free bases; and
        // `base_parts` holds n_bases·d words whatever the widths, so cap that.
        let free_bases = base_bits < 64 && n_bases as u64 > 1 << base_bits;
        if free_bases || n_bases.checked_mul(d)? > MAX_ROWS {
            return None;
        }
        let dev_total = (n_rows as u64).checked_mul(dev_stride)?;
        let payload_bits = (n_bases as u64)
            .checked_mul(base_bits)?
            .checked_add((n_rows as u64).checked_mul(id_bits as u64)?)?
            .checked_add(dev_total)?;
        if reader.remaining_bits() < payload_bits {
            return None;
        }
        // ph-lint: allow(bounded-reserve) — `n_bases·d` is capped at MAX_ROWS above, and the payload was checked to hold every base's bits
        let mut base_parts = Vec::with_capacity(n_bases * d);
        for _ in 0..n_bases {
            for c in 0..d {
                base_parts.push(reader.read_bits(widths[c] - dev_bits[c])?);
            }
        }
        let ids: Vec<u32> = reader.read_plane(n_rows, id_bits)?.map(|id| id as u32).collect();
        if ids.iter().any(|&id| id as usize >= n_bases.max(1)) {
            return None;
        }
        let mut dev_writer = BitWriter::new();
        dev_writer.copy_bits(&mut reader, dev_total)?;
        // ph-lint: allow(bounded-reserve) — `n_bases` is capped at MAX_ROWS above, and the payload was checked to hold every base's bits
        let mut base_index = HashMap::with_capacity(n_bases);
        for b in 0..n_bases {
            base_index.insert(base_parts[b * d..(b + 1) * d].to_vec().into_boxed_slice(), b as u32);
        }
        Some(Self {
            widths,
            dev_bits,
            base_parts,
            base_index,
            ids,
            devs: dev_writer.finish(),
            dev_stride,
            n_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GdCompressor;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_matrix(seed: u64, n: usize, d: usize) -> EncodedMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        EncodedMatrix::new(
            (0..d)
                .map(|c| {
                    let hi = 1u64 << (4 + 2 * c as u32);
                    (0..n).map(|_| rng.gen_range(0..hi)).collect()
                })
                .collect(),
        )
    }

    #[test]
    fn roundtrip_row_reconstruction() {
        let m = random_matrix(3, 500, 4);
        let store = GdCompressor::new().compress(&m);
        for r in 0..m.n_rows {
            let row = store.row(r);
            for c in 0..m.n_columns() {
                assert_eq!(row[c], m.get(r, c), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn decompress_equals_input() {
        let m = random_matrix(9, 300, 3);
        let store = GdCompressor::new().compress(&m);
        assert_eq!(store.decompress(), m);
    }

    #[test]
    fn serialization_roundtrip() {
        let m = random_matrix(5, 200, 3);
        let store = GdCompressor::new().compress(&m);
        let bytes = store.to_bytes();
        let back = GdStore::from_bytes(&bytes).expect("deserialize");
        assert_eq!(back.decompress(), m);
        assert_eq!(back.n_bases(), store.n_bases());
    }

    /// Each hostile header below is a handful of bytes that claims a length
    /// nothing backs: `d` overflowing the slice arithmetic, `n_bases` and
    /// `n_rows` sizing terabyte allocations. All must come back `None`.
    #[test]
    fn from_bytes_rejects_lengths_the_payload_cannot_back() {
        let uvarint = |v: u64| {
            let mut out = Vec::new();
            write_uvarint(&mut out, v);
            out
        };
        let huge_d = [vec![0], uvarint(u64::MAX), vec![0]].concat();
        let huge_bases = [vec![0, 1], uvarint(1 << 40), vec![8, 0]].concat();
        let huge_rows = [uvarint(1 << 40), vec![1, 1, 8, 0]].concat();
        // Within every cap, but 2^28 bases of zero bits each: gigabytes of
        // `base_parts` and `base_index` behind a 7-byte body.
        let free_bases = [vec![0, 1], uvarint(1 << 28), vec![0, 0]].concat();
        for bytes in [huge_d, huge_bases, huge_rows, free_bases] {
            assert!(GdStore::from_bytes(&bytes).is_none(), "{bytes:?}");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        // Garbage and truncated prefixes must fail cleanly, never panic.
        let _ = GdStore::from_bytes(&[0xFF; 3]);
        let m = random_matrix(5, 50, 2);
        let bytes = GdCompressor::new().compress(&m).to_bytes();
        for cut in [3, bytes.len() / 2] {
            let _ = GdStore::from_bytes(&bytes[..cut]);
        }
    }

    #[test]
    fn redundant_data_compresses_well() {
        // 32 distinct rows repeated: ratio should be large.
        let n = 4096;
        let col: Vec<u64> = (0..n).map(|i| ((i % 32) as u64) << 10).collect();
        let col2: Vec<u64> = (0..n).map(|i| ((i % 2) as u64) * 513).collect();
        let m = EncodedMatrix::new(vec![col, col2]);
        let store = GdCompressor::new().compress(&m);
        // Each row at its full column widths: 15 + 10 bits.
        let raw_bytes = (n * 25usize).div_ceil(8);
        let ratio = raw_bytes as f64 / store.packed_bytes() as f64;
        assert!(ratio > 2.0, "ratio = {ratio}");
    }

    #[test]
    fn append_then_access() {
        let m1 = random_matrix(11, 100, 2);
        let m2 = random_matrix(12, 80, 2);
        // Widths must cover both batches: build with explicit widths.
        let widths = vec![64u32, 64];
        let dev = vec![3u32, 0];
        let mut store = GdStore::build(&m1, &widths, &dev);
        store.append(&m2);
        assert_eq!(store.n_rows(), 180);
        for r in 0..100 {
            assert_eq!(store.row(r)[0], m1.get(r, 0));
        }
        for r in 0..80 {
            assert_eq!(store.row(100 + r)[1], m2.get(r, 1));
        }
    }

    #[test]
    fn base_values_sorted_unique() {
        let m = random_matrix(21, 400, 2);
        let store = GdCompressor::new().compress(&m);
        for c in 0..2 {
            let vals = store.base_values(c);
            assert!(vals.windows(2).all(|w| w[0] < w[1]), "must be strictly ascending");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 32 }))]
        #[test]
        fn prop_roundtrip(seed in 0u64..1000, n in 1usize..200, d in 1usize..5) {
            let m = random_matrix(seed, n, d);
            let store = GdCompressor::new().compress(&m);
            prop_assert_eq!(store.decompress(), m.clone());
            let back = GdStore::from_bytes(&store.to_bytes()).unwrap();
            prop_assert_eq!(back.decompress(), m);
        }

        /// The O(1) size accounting must equal the real serialized length for
        /// any store shape, including after incremental appends.
        #[test]
        fn prop_packed_bytes_matches_serialization(seed in 0u64..500, n in 1usize..150, d in 1usize..4) {
            let m = random_matrix(seed, n, d);
            let mut store = GdCompressor::new().compress(&m);
            prop_assert_eq!(store.packed_bytes(), store.to_bytes().len());
            // Re-appending the same rows keeps every value within the fitted
            // column widths while still growing ids/deviations.
            store.append(&m);
            prop_assert_eq!(store.packed_bytes(), store.to_bytes().len());
        }

        /// Appending in two calls is building once, byte for byte — wherever in
        /// a byte the first call left the deviation stream.
        #[test]
        fn prop_append_twice_is_build_once(
            seed in 0u64..500,
            n in 2usize..150,
            d in 1usize..4,
            cut in 1usize..149,
        ) {
            let m = random_matrix(seed, n, d);
            let cut = cut.min(n - 1);
            let (head, tail): (Vec<usize>, Vec<usize>) = ((0..cut).collect(), (cut..n).collect());
            let whole = GdCompressor::new().compress(&m);
            let (widths, dev_bits) = (whole.widths.clone(), whole.dev_bits.clone());
            let mut grown = GdStore::build(&m.take_rows(&head), &widths, &dev_bits);
            grown.append(&m.take_rows(&tail));
            prop_assert_eq!(grown.to_bytes(), whole.to_bytes());
            prop_assert_eq!(grown.decompress(), m);
        }
    }
}
