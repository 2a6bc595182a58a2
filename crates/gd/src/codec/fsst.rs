//! FSST-style static symbol table for string dictionaries.
//!
//! A static table of ≤ 254 symbols (each 1–8 bytes) is fit once over a string
//! corpus; compression replaces the greedy longest symbol match with its 1-byte
//! code, escaping bytes outside the table as `0xFF` + literal. Unlike
//! general-purpose LZ, decompression is a table lookup per output symbol and
//! random access needs no window — the right shape for the preprocessor's
//! categorical dictionaries, where entries are short and share long prefixes
//! (URLs, hostnames, enum-ish labels).
//!
//! Table construction is a bounded single-pass frequency count, not the full
//! FSST iterative refinement: substrings of length 2..=8 are scored by saved
//! bytes (`count * (len-1)`) minus table cost (`len + 1`), top scorers win
//! slots, and remaining slots hold the most frequent single bytes. Entirely
//! deterministic (ties break on byte content) so serialized preprocessor
//! blobs are bit-stable across runs.

use std::collections::HashMap;

use ph_encoding::{Bytes, Out};

/// Escape prefix for bytes with no symbol: `0xFF literal_byte`.
const ESCAPE: u8 = 0xFF;
/// Maximum number of symbols — code 254 stays unused, 255 is the escape.
const MAX_SYMBOLS: usize = 254;
/// Maximum symbol length in bytes.
const MAX_SYMBOL_LEN: usize = 8;
/// Cap on corpus bytes examined while counting substrings.
const SAMPLE_BUDGET: usize = 1 << 20;
/// Multi-byte candidates kept before single-byte fill.
const MAX_MULTI: usize = 200;

/// A static symbol table: the shared dictionary side of the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolTable {
    symbols: Vec<Vec<u8>>,
}

impl SymbolTable {
    /// Fits a table over a corpus of strings.
    pub fn build<S: AsRef<[u8]>>(corpus: &[S]) -> Self {
        let mut counts: HashMap<&[u8], u64> = HashMap::new();
        let mut byte_counts = [0u64; 256];
        let mut budget = SAMPLE_BUDGET;
        for s in corpus {
            let s = s.as_ref();
            if budget == 0 {
                break;
            }
            let take = s.len().min(budget);
            budget -= take;
            let s = &s[..take];
            for &b in s {
                byte_counts[b as usize] += 1;
            }
            for start in 0..s.len() {
                for len in 2..=MAX_SYMBOL_LEN.min(s.len() - start) {
                    *counts.entry(&s[start..start + len]).or_insert(0) += 1;
                }
            }
        }
        // Score = bytes saved when the symbol replaces its occurrences, minus
        // the table-entry cost. Deterministic order: score desc, then bytes.
        let mut scored: Vec<(&[u8], i64)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .map(|(s, c)| (s, c as i64 * (s.len() as i64 - 1) - (s.len() as i64 + 1)))
            .filter(|&(_, score)| score > 0)
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        scored.truncate(MAX_MULTI);

        let mut symbols: Vec<Vec<u8>> = scored.into_iter().map(|(s, _)| s.to_vec()).collect();
        // Fill remaining slots with the most frequent single bytes so common
        // characters never pay the 2-byte escape.
        let mut singles: Vec<(u64, u8)> = (0u16..256)
            .map(|b| (byte_counts[b as usize], b as u8))
            .filter(|&(c, _)| c > 0)
            .collect();
        singles.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, b) in singles {
            if symbols.len() >= MAX_SYMBOLS {
                break;
            }
            symbols.push(vec![b]);
        }
        symbols.truncate(MAX_SYMBOLS);
        Self { symbols }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the table holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    fn matcher(&self) -> HashMap<&[u8], u8> {
        self.symbols.iter().enumerate().map(|(i, sym)| (sym.as_slice(), i as u8)).collect()
    }

    /// Compresses one string by greedy longest-match against the table.
    pub fn compress(&self, s: &[u8]) -> Vec<u8> {
        self.compress_with(&self.matcher(), s)
    }

    /// Compresses a batch, building the lookup structure once.
    pub fn compress_all<S: AsRef<[u8]>>(&self, strings: &[S]) -> Vec<Vec<u8>> {
        let by_bytes = self.matcher();
        strings.iter().map(|s| self.compress_with(&by_bytes, s.as_ref())).collect()
    }

    fn compress_with(&self, by_bytes: &HashMap<&[u8], u8>, s: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(s.len());
        let mut pos = 0;
        while pos < s.len() {
            let mut emitted = false;
            for len in (1..=MAX_SYMBOL_LEN.min(s.len() - pos)).rev() {
                if let Some(&code) = by_bytes.get(&s[pos..pos + len]) {
                    out.push(code);
                    pos += len;
                    emitted = true;
                    break;
                }
            }
            if !emitted {
                out.push(ESCAPE);
                out.push(s[pos]);
                pos += 1;
            }
        }
        out
    }

    /// Total decompression: `None` on an out-of-range code or a truncated
    /// escape sequence, never a panic.
    pub fn decompress(&self, data: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(data.len() * 2);
        let mut pos = 0;
        while pos < data.len() {
            let code = data[pos];
            pos += 1;
            if code == ESCAPE {
                out.push(*data.get(pos)?);
                pos += 1;
            } else {
                out.extend_from_slice(self.symbols.get(code as usize)?);
            }
        }
        Some(out)
    }

    /// Serialized table: `u8 n | n × (u8 len | bytes)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.table_bytes());
        out.u8(self.symbols.len() as u8);
        for sym in &self.symbols {
            out.u8(sym.len() as u8);
            out.bytes(sym);
        }
        out
    }

    /// Restores a table; `None` on malformed input (zero-length or over-long
    /// symbols, truncation, trailing bytes).
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut r = Bytes::new(data);
        // A symbol is its length byte and at least one byte of its own.
        let n = r.u8()?;
        let n = r.count(n.into(), 2).filter(|&n| n <= MAX_SYMBOLS)?;
        let mut symbols = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.u8().map(usize::from).filter(|len| (1..=MAX_SYMBOL_LEN).contains(len))?;
            symbols.push(r.take(len)?.to_vec());
        }
        r.finish()?;
        Some(Self { symbols })
    }

    /// Serialized table size in bytes.
    pub fn table_bytes(&self) -> usize {
        1 + self.symbols.iter().map(|s| 1 + s.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        (0..200)
            .map(|i| format!("https://sensor-{:03}.plant.example.com/metrics", i % 37))
            .collect()
    }

    #[test]
    fn compresses_redundant_strings() {
        let corpus = corpus();
        let table = SymbolTable::build(&corpus);
        let raw: usize = corpus.iter().map(|s| s.len()).sum();
        let mut packed = 0;
        for s in &corpus {
            let c = table.compress(s.as_bytes());
            assert_eq!(table.decompress(&c).unwrap(), s.as_bytes());
            packed += c.len();
        }
        assert!(
            packed + table.table_bytes() < raw / 2,
            "packed {packed} + table {} vs raw {raw}",
            table.table_bytes()
        );
    }

    #[test]
    fn table_roundtrips_bit_stable() {
        let table = SymbolTable::build(&corpus());
        let again = SymbolTable::build(&corpus());
        assert_eq!(table, again, "build must be deterministic");
        let restored = SymbolTable::from_bytes(&table.to_bytes()).unwrap();
        assert_eq!(restored, table);
        assert_eq!(table.to_bytes().len(), table.table_bytes());
    }

    #[test]
    fn escape_covers_unseen_bytes() {
        let table = SymbolTable::build(&["aaaa", "aaab"]);
        let c = table.compress(b"zzz\xff\x00aaa");
        assert_eq!(table.decompress(&c).unwrap(), b"zzz\xff\x00aaa");
    }

    #[test]
    fn decompress_is_total() {
        let table = SymbolTable::build(&["abc"]);
        // Out-of-range code.
        assert!(table.decompress(&[200]).is_none());
        // Truncated escape.
        assert!(table.decompress(&[ESCAPE]).is_none());
        assert!(table.decompress(&[]).unwrap().is_empty());
    }

    #[test]
    fn from_bytes_rejects_malformed_tables() {
        let table = SymbolTable::build(&["hello", "world"]);
        let bytes = table.to_bytes();
        let mut extra = bytes.clone();
        extra.push(7);
        assert!(SymbolTable::from_bytes(&extra).is_none());
        assert!(SymbolTable::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        // Zero-length symbol.
        assert!(SymbolTable::from_bytes(&[1, 0]).is_none());
    }
}
