//! GreedyGD pre-processing (paper §3, "Data Compression").
//!
//! Each column is independently transformed into a **non-negative integer domain** to
//! improve compressibility:
//!
//! * minimum-value subtraction (numerics start at 0);
//! * lossless float→integer conversion (`10.22 → 1022` at scale 2);
//! * frequency-ranked categorical encoding (most common value → 0, next → 1, …);
//! * missing values encoded as `max_encoded + 1` (the per-column *null code*).
//!
//! Pre-processing needs no extra storage beyond per-column constants and categorical
//! dictionaries, and the same transform is applied to query literals at parse time
//! (§5.1, Fig 7) so predicates land in the domain the synopsis was built in.

use std::fmt;

use ph_encoding::{Bytes, Out};
use ph_types::{Column, ColumnData, ColumnType, Dataset, DictIndex, Value};

use crate::{EncodedMatrix, SymbolTable};

/// Largest permitted encoded value: everything must stay exactly representable in an
/// `f64` (bin-edge arithmetic in the synopsis is done in doubles).
const MAX_ENC: u64 = 1 << 52;

/// Errors raised when transforming literals or values.
#[derive(Debug, Clone, PartialEq)]
pub enum GdError {
    /// A literal's type does not match the column's type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Column index out of range.
    BadColumn(usize),
    /// An encoded value with no preimage under the fitted transform — a
    /// corrupted or version-skewed store, never valid data.
    CorruptCode {
        /// Column name.
        column: String,
        /// The offending encoded value.
        code: u64,
    },
}

impl fmt::Display for GdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdError::TypeMismatch { column, detail } => {
                write!(f, "literal type mismatch on column '{column}': {detail}")
            }
            GdError::BadColumn(i) => write!(f, "column index {i} out of range"),
            GdError::CorruptCode { column, code } => {
                write!(f, "encoded value {code} on column '{column}' has no decoding")
            }
        }
    }
}

impl std::error::Error for GdError {}

impl From<GdError> for ph_types::PhError {
    fn from(e: GdError) -> Self {
        match e {
            // A code with no preimage means the store bytes are damaged, not
            // that the caller's query was malformed.
            GdError::CorruptCode { .. } => ph_types::PhError::Corrupt(e.to_string()),
            _ => ph_types::PhError::InvalidQuery(e.to_string()),
        }
    }
}

/// A query literal mapped into the encoded domain (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EncodedLiteral {
    /// Numeric position in the encoded domain. May be fractional (e.g. a float literal
    /// with more decimals than the column's scale) and may fall outside `[0, max]`.
    Num(f64),
    /// Exact categorical rank.
    Rank(u64),
    /// A categorical string not present in the dictionary: matches no rows.
    NoMatch,
}

/// Per-column lossless transform.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnTransform {
    /// Integer, float or timestamp column.
    Numeric {
        /// Minimum of the scaled values; subtracted during encoding.
        min_scaled: i64,
        /// Decimal scale: encoded = round(x·10^scale) − min_scaled.
        scale: u8,
        /// Maximum encoded value over the fitted data.
        max_enc: u64,
        /// Code representing NULL (`max_enc + 1`), present iff the column had nulls.
        null_code: Option<u64>,
    },
    /// Categorical column with frequency-ranked codes.
    Categorical {
        /// Dictionary ordered by rank: `by_rank[0]` is the most frequent value.
        by_rank: Vec<String>,
        /// Code representing NULL (`by_rank.len()`), present iff the column had nulls.
        null_code: Option<u64>,
        /// String → rank lookup over `by_rank`. Derived state: built where the
        /// transform is (fit, `from_bytes`), never serialized, and no part of
        /// what makes two transforms equal.
        index: DictIndex,
    },
}

impl ColumnTransform {
    /// Largest real (non-null) encoded value.
    pub fn max_enc(&self) -> u64 {
        match self {
            ColumnTransform::Numeric { max_enc, .. } => *max_enc,
            ColumnTransform::Categorical { by_rank, .. } => by_rank.len().saturating_sub(1) as u64,
        }
    }

    /// The null code, if the column contains missing values.
    pub fn null_code(&self) -> Option<u64> {
        match self {
            ColumnTransform::Numeric { null_code, .. } => *null_code,
            ColumnTransform::Categorical { null_code, .. } => *null_code,
        }
    }

    /// Whether values are ordered numerics (range predicates meaningful).
    pub fn is_numeric(&self) -> bool {
        matches!(self, ColumnTransform::Numeric { .. })
    }

    /// Number of categories for categorical columns.
    pub fn n_categories(&self) -> Option<usize> {
        match self {
            ColumnTransform::Categorical { by_rank, .. } => Some(by_rank.len()),
            ColumnTransform::Numeric { .. } => None,
        }
    }

    /// The category string at a given frequency rank.
    pub fn category(&self, rank: usize) -> Option<&str> {
        match self {
            ColumnTransform::Categorical { by_rank, .. } => by_rank.get(rank).map(|s| s.as_str()),
            ColumnTransform::Numeric { .. } => None,
        }
    }

    /// Affine map back to the original domain: `original = a·encoded + b`.
    ///
    /// `None` for categorical columns. Because `a > 0`, the map is strictly
    /// increasing, so estimates and bounds transform monotonically (the aggregation
    /// layer relies on this).
    pub fn affine(&self) -> Option<(f64, f64)> {
        match self {
            ColumnTransform::Numeric { min_scaled, scale, .. } => {
                let a = 10f64.powi(-(*scale as i32));
                Some((a, *min_scaled as f64 * a))
            }
            ColumnTransform::Categorical { .. } => None,
        }
    }
}

/// Fitted pre-processing transforms for a whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct Preprocessor {
    transforms: Vec<ColumnTransform>,
    names: Vec<String>,
    types: Vec<ColumnType>,
}

impl Preprocessor {
    /// Learns per-column transforms from a dataset.
    ///
    /// Batch-friendly by design: the constants involved (min, scale, value
    /// frequencies) are all streamable, matching the paper's claim that datasets can
    /// be processed "in arbitrarily-sized batches".
    pub fn fit(data: &Dataset) -> Self {
        let transforms = data.columns().iter().map(fit_column).collect();
        Self {
            transforms,
            names: data.columns().iter().map(|c| c.name().to_string()).collect(),
            types: data.columns().iter().map(|c| c.ty()).collect(),
        }
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.transforms.len()
    }

    /// Column names in schema order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Logical type of column `col`.
    pub fn column_type(&self, col: usize) -> ColumnType {
        self.types[col]
    }

    /// The transform for column `col`.
    pub fn transform(&self, col: usize) -> &ColumnTransform {
        &self.transforms[col]
    }

    /// Resolves `data`'s categorical columns against the fitted dictionaries:
    /// one lookup per dictionary entry that a valid row references, none for
    /// the entries the column merely carries. A referenced entry the fitted
    /// dictionary does not hold makes the result [`CodeRanks::has_novel`];
    /// one no row uses is not there to be encoded and is never looked at.
    ///
    /// # Panics
    /// Panics if the dataset's schema does not match the fitted one.
    pub fn resolve(&self, data: &Dataset) -> CodeRanks {
        assert_eq!(data.n_columns(), self.transforms.len(), "schema mismatch");
        let mut novel = false;
        let tables = data
            .columns()
            .iter()
            .zip(&self.transforms)
            .map(|(col, tr)| {
                let ColumnTransform::Categorical { by_rank, index, .. } = tr else {
                    return Vec::new();
                };
                let dict = col.dictionary().expect("categorical column must carry a dictionary");
                let mut table = vec![UNREFERENCED; dict.len()];
                for i in 0..col.len() {
                    let Some(code) = col.code(i) else { continue };
                    let slot = &mut table[code as usize];
                    if *slot == UNREFERENCED {
                        *slot = match index.position(by_rank, &dict[code as usize]) {
                            Some(rank) => rank as u64,
                            None => {
                                novel = true;
                                NOVEL
                            }
                        };
                    }
                }
                table
            })
            .collect();
        CodeRanks { tables, novel }
    }

    /// Encodes a whole dataset into the non-negative integer domain.
    ///
    /// # Panics
    /// Panics if the dataset's schema does not match the fitted one, or if a value
    /// falls outside the fitted range (encode only data the transform was fitted on,
    /// or refit).
    pub fn encode(&self, data: &Dataset) -> EncodedMatrix {
        self.encode_with(data, &mut EncodeScratch::new())
    }

    /// [`Preprocessor::encode`] with recycled column buffers: repeated seals
    /// reuse `scratch`'s allocations instead of growing fresh vectors each
    /// time. Same panics and output as `encode`.
    pub fn encode_with(&self, data: &Dataset, scratch: &mut EncodeScratch) -> EncodedMatrix {
        self.encode_resolved(data, &self.resolve(data), scratch)
    }

    /// [`Preprocessor::encode_with`] for a caller that holds `data`'s
    /// [`Preprocessor::resolve`] already. Same panics and output as `encode`.
    pub fn encode_resolved(
        &self,
        data: &Dataset,
        ranks: &CodeRanks,
        scratch: &mut EncodeScratch,
    ) -> EncodedMatrix {
        assert_eq!(data.n_columns(), self.transforms.len(), "schema mismatch");
        assert!(!ranks.novel, "a categorical value is outside the fitted dictionary");
        let columns = data
            .columns()
            .iter()
            .zip(self.transforms.iter().zip(&ranks.tables))
            .map(|(col, (tr, rank_of))| {
                let mut out = scratch.take();
                encode_column_into(col, tr, rank_of, &mut out);
                out
            })
            .collect();
        EncodedMatrix::new(columns)
    }

    /// Maps a query literal into the encoded domain of column `col` (§5.1).
    pub fn encode_literal(&self, col: usize, lit: &Value) -> Result<EncodedLiteral, GdError> {
        let tr = self.transforms.get(col).ok_or(GdError::BadColumn(col))?;
        match (tr, lit) {
            (ColumnTransform::Numeric { min_scaled, scale, .. }, v) => {
                let x = v.as_f64().ok_or_else(|| GdError::TypeMismatch {
                    column: self.names[col].clone(),
                    detail: format!("numeric column compared to {v}"),
                })?;
                Ok(EncodedLiteral::Num(x * 10f64.powi(*scale as i32) - *min_scaled as f64))
            }
            (ColumnTransform::Categorical { by_rank, index, .. }, Value::Str(s)) => {
                match index.position(by_rank, s) {
                    Some(rank) => Ok(EncodedLiteral::Rank(rank as u64)),
                    None => Ok(EncodedLiteral::NoMatch),
                }
            }
            (ColumnTransform::Categorical { .. }, v) => Err(GdError::TypeMismatch {
                column: self.names[col].clone(),
                detail: format!("categorical column compared to {v}"),
            }),
        }
    }

    /// Decodes one encoded cell back to a [`Value`] (null codes → `Value::Null`).
    ///
    /// Total: an encoded value with no preimage — an out-of-dictionary
    /// categorical rank, or a numeric code past the representable range — is a
    /// [`GdError::CorruptCode`], never a panic. Stores reach this path after
    /// deserialization from disk, so a damaged or version-skewed blob must
    /// surface as an error the session layer can quarantine on (ph-lint R2).
    pub fn decode_value(&self, col: usize, enc: u64) -> Result<Value, GdError> {
        let tr = self.transforms.get(col).ok_or(GdError::BadColumn(col))?;
        let name = || self.names.get(col).cloned().unwrap_or_default();
        if tr.null_code() == Some(enc) {
            return Ok(Value::Null);
        }
        match tr {
            ColumnTransform::Numeric { min_scaled, scale, .. } => {
                // Codes above the fitted max are legitimate (incremental
                // ingestion extends the outer bins); codes past MAX_ENC are
                // not representable and cannot have come from encode.
                if enc > MAX_ENC {
                    return Err(GdError::CorruptCode { column: name(), code: enc });
                }
                let raw = enc as i64 + min_scaled;
                Ok(match self.types.get(col) {
                    Some(ColumnType::Float { .. }) => {
                        Value::Float(raw as f64 / 10f64.powi(*scale as i32))
                    }
                    _ => Value::Int(raw),
                })
            }
            ColumnTransform::Categorical { by_rank, .. } => by_rank
                .get(enc as usize)
                .map(|s| Value::Str(s.clone()))
                .ok_or_else(|| GdError::CorruptCode { column: name(), code: enc }),
        }
    }

    /// Serializes the fitted transforms — names, logical types, per-column constants
    /// and categorical dictionaries — so a synopsis can travel *with* the
    /// preprocessing it was built under (the persistence path of a `Session`
    /// catalog). Inverse of [`Preprocessor::from_bytes`].
    ///
    /// Writes the `PRE2` format: every string is uvarint-framed (no length a
    /// value can reach is truncated), and each categorical dictionary may be
    /// FSST-compressed when the static symbol table pays for itself.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.bytes(b"PRE2");
        out.uvarint(self.names.len() as u64);
        for c in 0..self.names.len() {
            out.uvarint_str(&self.names[c]);
            match (&self.types[c], &self.transforms[c]) {
                (ty, ColumnTransform::Numeric { min_scaled, scale, max_enc, null_code }) => {
                    out.u8(match ty {
                        ColumnType::Int => 0,
                        ColumnType::Float { .. } => 1,
                        ColumnType::Timestamp => 2,
                        ColumnType::Categorical => unreachable!("numeric transform on categorical"),
                    });
                    out.u8(*scale);
                    out.u64(*min_scaled as u64);
                    out.u64(*max_enc);
                    out.u8(null_code.is_some() as u8);
                }
                (_, ColumnTransform::Categorical { by_rank, null_code, .. }) => {
                    out.u8(3);
                    out.uvarint(by_rank.len() as u64);
                    write_dict(&mut out, by_rank);
                    out.u8(null_code.is_some() as u8);
                }
            }
        }
        out
    }

    /// Restores a [`Preprocessor`] from [`Preprocessor::to_bytes`] output.
    /// Returns `None` on malformed input.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut r = Bytes::new(data);
        if r.take(4)? != b"PRE2" {
            return None;
        }
        // A column is at least its name's length, its tag, a dictionary's
        // length and mode, and its null flag.
        let d = r.uvarint()?;
        let d = r.count(d, 5)?;
        let mut names = Vec::with_capacity(d);
        let mut types = Vec::with_capacity(d);
        let mut transforms = Vec::with_capacity(d);
        for _ in 0..d {
            names.push(r.uvarint_str()?.to_string());
            match r.u8()? {
                tag @ 0..=2 => {
                    let scale = r.u8()?;
                    let min_scaled = r.u64()? as i64;
                    let max_enc = r.u64().filter(|&m| m < MAX_ENC)?;
                    let has_null = r.u8()? != 0;
                    types.push(match tag {
                        0 => ColumnType::Int,
                        1 => ColumnType::Float { scale },
                        _ => ColumnType::Timestamp,
                    });
                    transforms.push(ColumnTransform::Numeric {
                        min_scaled,
                        scale,
                        max_enc,
                        null_code: has_null.then_some(max_enc + 1),
                    });
                }
                3 => {
                    let by_rank = read_dict(&mut r)?;
                    let has_null = r.u8()? != 0;
                    types.push(ColumnType::Categorical);
                    transforms.push(ColumnTransform::Categorical {
                        null_code: has_null.then_some(by_rank.len() as u64),
                        index: DictIndex::build(&by_rank),
                        by_rank,
                    });
                }
                _ => return None,
            }
        }
        r.finish()?; // trailing bytes: not ours
        Some(Self { transforms, names, types })
    }

    /// Serialized footprint of the transforms (constants + dictionaries) in bytes;
    /// counted as part of the compressed-store size in storage experiments.
    /// Exact: the actual `PRE2` blob length, including FSST-compressed
    /// dictionaries, rather than the old per-field approximation.
    pub fn metadata_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

/// A dataset's categorical codes resolved against the fitted dictionaries, as
/// [`Preprocessor::resolve`] returns them: per categorical column, the rank of
/// every dictionary code a valid row references. Holds for the dataset it was
/// resolved from and no other.
#[derive(Debug)]
pub struct CodeRanks {
    /// By column, then by dictionary code; empty for a numeric column.
    tables: Vec<Vec<u64>>,
    novel: bool,
}

/// Table entry of a code no valid row references: never read by the encoder.
const UNREFERENCED: u64 = u64::MAX;
/// Table entry of a referenced code whose string the fitted dictionary lacks.
const NOVEL: u64 = u64::MAX - 1;

impl CodeRanks {
    /// Whether some row holds a categorical value the fitted dictionaries do
    /// not: such a dataset cannot be encoded until the transforms are refit.
    pub fn has_novel(&self) -> bool {
        self.novel
    }
}

/// Reusable buffers for [`Preprocessor::encode_with`].
///
/// Sealing re-encodes every batch of rows; with fresh allocations per seal the
/// ingest tail latency was dominated by allocator churn (p99 ≈ 40× p50). A
/// session keeps one of these per table and recycles the column buffers
/// through [`EncodeScratch::reclaim`].
#[derive(Debug, Default)]
pub struct EncodeScratch {
    pool: Vec<Vec<u64>>,
}

impl EncodeScratch {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn take(&mut self) -> Vec<u64> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a matrix's column buffers to the pool for the next seal.
    pub fn reclaim(&mut self, matrix: EncodedMatrix) {
        self.pool.extend(matrix.columns);
    }
}

/// PRE2 categorical dictionary block: `u8 mode` then either plain
/// uvarint-framed strings (mode 0) or an FSST symbol table followed by
/// uvarint-framed compressed strings (mode 1). Uvarint framing means no length
/// a value can reach is truncated: a >64 KiB categorical value round-trips.
/// FSST wins whenever the shared symbol table amortizes across redundant
/// entries; both blocks are written and the shorter kept (plain on a tie), so
/// plain dictionaries never regress.
fn write_dict(out: &mut Vec<u8>, by_rank: &[String]) {
    let table = SymbolTable::build(by_rank);
    let mut fsst = vec![1];
    fsst.uvarint(table.table_bytes() as u64);
    fsst.bytes(&table.to_bytes());
    for c in table.compress_all(by_rank) {
        fsst.uvarint(c.len() as u64);
        fsst.bytes(&c);
    }
    let mut plain = vec![0];
    for s in by_rank {
        plain.uvarint_str(s);
    }
    out.bytes(if fsst.len() < plain.len() { &fsst } else { &plain });
}

/// A `uvarint n | dict block` ([`write_dict`]): `n` entries, each at least
/// the byte of its length.
fn read_dict(r: &mut Bytes<'_>) -> Option<Vec<String>> {
    let n = r.uvarint()?;
    let mode = r.u8()?;
    let n = r.count(n, 1)?;
    let mut by_rank = Vec::with_capacity(n);
    match mode {
        0 => {
            for _ in 0..n {
                by_rank.push(r.uvarint_str()?.to_string());
            }
        }
        1 => {
            let table_len = usize::try_from(r.uvarint()?).ok()?;
            let table = SymbolTable::from_bytes(r.take(table_len)?)?;
            for _ in 0..n {
                let len = usize::try_from(r.uvarint()?).ok()?;
                by_rank.push(String::from_utf8(table.decompress(r.take(len)?)?).ok()?);
            }
        }
        _ => return None,
    }
    Some(by_rank)
}

fn fit_column(col: &Column) -> ColumnTransform {
    match col.ty() {
        ColumnType::Categorical => fit_categorical(col),
        ColumnType::Float { scale } => fit_numeric(col, scale),
        ColumnType::Int | ColumnType::Timestamp => fit_numeric(col, 0),
    }
}

fn fit_numeric(col: &Column, scale: u8) -> ColumnTransform {
    let factor = 10f64.powi(scale as i32);
    let mut min_scaled = i64::MAX;
    let mut max_scaled = i64::MIN;
    let mut has_null = false;
    for i in 0..col.len() {
        match col.numeric(i) {
            Some(x) => {
                let v = (x * factor).round() as i64;
                min_scaled = min_scaled.min(v);
                max_scaled = max_scaled.max(v);
            }
            None => has_null = true,
        }
    }
    if min_scaled > max_scaled {
        // All-null or empty column: degenerate but well-defined transform.
        min_scaled = 0;
        max_scaled = 0;
    }
    let max_enc = (max_scaled - min_scaled) as u64;
    assert!(max_enc < MAX_ENC, "encoded range of '{}' exceeds 2^52", col.name());
    ColumnTransform::Numeric {
        min_scaled,
        scale,
        max_enc,
        null_code: has_null.then_some(max_enc + 1),
    }
}

fn fit_categorical(col: &Column) -> ColumnTransform {
    let dict = col.dictionary().expect("categorical column must carry a dictionary");
    let mut freq = vec![0u64; dict.len()];
    let mut has_null = false;
    for i in 0..col.len() {
        match col.code(i) {
            Some(c) => freq[c as usize] += 1,
            None => has_null = true,
        }
    }
    // Frequency-ranked: most common first; ties broken by original code for
    // determinism.
    let mut order: Vec<usize> = (0..dict.len()).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(freq[c]), c));
    let by_rank: Vec<String> = order.iter().map(|&c| dict[c].clone()).collect();
    ColumnTransform::Categorical {
        null_code: has_null.then_some(by_rank.len() as u64),
        index: DictIndex::build(&by_rank),
        by_rank,
    }
}

/// `rank_of` is the column's table of [`Preprocessor::resolve`]: unused by a
/// numeric column.
fn encode_column_into(col: &Column, tr: &ColumnTransform, rank_of: &[u64], out: &mut Vec<u64>) {
    out.reserve(col.len());
    match tr {
        ColumnTransform::Numeric { min_scaled, scale, max_enc, null_code } => {
            let factor = 10f64.powi(*scale as i32);
            let null = null_code.unwrap_or(max_enc + 1);
            // Values below the fitted minimum have no non-negative encoding and
            // saturate at 0 (a silent wrap to a huge u64 would corrupt every
            // consumer). Values *above* the fitted range stay as-is: they remain
            // representable, and incremental ingestion uses them to extend the
            // synopsis's outer bins.
            match col.data() {
                ColumnData::Int(vals) => {
                    for (i, &v) in vals.iter().enumerate() {
                        if col.is_valid(i) {
                            out.push((v - min_scaled).max(0) as u64);
                        } else {
                            out.push(null);
                        }
                    }
                }
                ColumnData::Float(vals) => {
                    for (i, &v) in vals.iter().enumerate() {
                        if col.is_valid(i) {
                            let scaled = (v * factor).round() as i64;
                            out.push((scaled - min_scaled).max(0) as u64);
                        } else {
                            out.push(null);
                        }
                    }
                }
                ColumnData::Cat(..) => unreachable!("numeric transform on categorical column"),
            }
        }
        ColumnTransform::Categorical { by_rank, null_code, .. } => {
            let null = null_code.unwrap_or(by_rank.len() as u64);
            for i in 0..col.len() {
                match col.code(i) {
                    Some(c) => out.push(rank_of[c as usize]),
                    None => out.push(null),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_types::Dataset;

    fn sample() -> Dataset {
        Dataset::builder("t")
            .column(Column::from_ints("i", vec![Some(-5), Some(10), None, Some(0)]))
            .unwrap()
            .column(Column::from_floats("f", vec![Some(10.22), Some(9.99), Some(10.25), None], 2))
            .unwrap()
            .column(Column::from_strings(
                "c",
                vec![Some("rare"), Some("common"), Some("common"), Some("common")],
            ))
            .unwrap()
            .build()
    }

    #[test]
    fn numeric_min_subtraction() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let enc = pre.encode(&d);
        // min = -5 -> encoded -5 -> 0, 10 -> 15, null -> 16, 0 -> 5.
        assert_eq!(enc.columns[0], vec![0, 15, 16, 5]);
    }

    #[test]
    fn float_to_int_conversion() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let enc = pre.encode(&d);
        // scale 2: 10.22->1022, 9.99->999 (min), 10.25->1025; encoded: 23, 0, 26, null=27.
        assert_eq!(enc.columns[1], vec![23, 0, 26, 27]);
    }

    #[test]
    fn categorical_frequency_ranking() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let enc = pre.encode(&d);
        // "common" (3 occurrences) -> rank 0, "rare" -> rank 1.
        assert_eq!(enc.columns[2], vec![1, 0, 0, 0]);
    }

    #[test]
    fn literal_transformation_matches_fig7() {
        // Fig 7: dist column min 69 -> "dist > 150" becomes "x > 81";
        // air_time min 25, scale 1 -> "air_time > 90.5" becomes "x > 655".
        let d = Dataset::builder("flights")
            .column(Column::from_ints("dist", vec![Some(69), Some(500)]))
            .unwrap()
            .column(Column::from_floats("air_time", vec![Some(2.5), Some(100.0)], 1))
            .unwrap()
            .build();
        let pre = Preprocessor::fit(&d);
        assert_eq!(pre.encode_literal(0, &Value::Int(150)).unwrap(), EncodedLiteral::Num(81.0));
        assert_eq!(
            pre.encode_literal(1, &Value::Float(90.5)).unwrap(),
            EncodedLiteral::Num(905.0 - 25.0)
        );
    }

    #[test]
    fn unknown_category_is_no_match() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        assert_eq!(
            pre.encode_literal(2, &Value::Str("nope".into())).unwrap(),
            EncodedLiteral::NoMatch
        );
        assert_eq!(
            pre.encode_literal(2, &Value::Str("rare".into())).unwrap(),
            EncodedLiteral::Rank(1)
        );
    }

    #[test]
    fn type_mismatch_errors() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        assert!(pre.encode_literal(2, &Value::Int(3)).is_err());
        assert!(pre.encode_literal(0, &Value::Str("x".into())).is_err());
    }

    #[test]
    fn decode_roundtrip() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let enc = pre.encode(&d);
        for col in 0..d.n_columns() {
            for row in 0..d.n_rows() {
                let decoded = pre.decode_value(col, enc.get(row, col)).expect("valid code");
                match (d.column(col).value(row), decoded) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert!((a - b).abs() < 1e-9, "col {col} row {row}")
                    }
                    (a, b) => assert_eq!(a, b, "col {col} row {row}"),
                }
            }
        }
    }

    #[test]
    fn affine_maps_back() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let (a, b) = pre.transform(1).affine().unwrap();
        // encoded 23 -> 10.22
        assert!((a * 23.0 + b - 10.22).abs() < 1e-9);
        assert!(pre.transform(2).affine().is_none());
    }

    #[test]
    fn out_of_range_values_saturate_below_and_extend_above() {
        // Fit on [100, 200], then encode a batch that exceeds the range on both
        // sides: below-minimum values saturate at 0 (never wrap to huge u64s);
        // above-maximum values keep their true distance so ingestion can extend
        // outer bins.
        let base = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(100), Some(200)]))
            .unwrap()
            .build();
        let pre = Preprocessor::fit(&base);
        let fresh = Dataset::builder("t")
            .column(Column::from_ints("x", vec![Some(50), Some(150), Some(260)]))
            .unwrap()
            .build();
        let enc = pre.encode(&fresh);
        assert_eq!(enc.columns[0], vec![0, 50, 160]);
    }

    #[test]
    fn serialization_roundtrips_exactly() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let bytes = pre.to_bytes();
        let back = Preprocessor::from_bytes(&bytes).expect("deserialize");
        assert_eq!(back, pre);
        // And the round-trip is bit-stable.
        assert_eq!(back.to_bytes(), bytes);
        // Truncations and bad magic fail cleanly.
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(Preprocessor::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Preprocessor::from_bytes(&bad).is_none());
    }

    #[test]
    fn decode_out_of_range_code_is_an_error_not_a_panic() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        // Column 2 is categorical with 2 categories + no null: rank 7 is from
        // a corrupted or version-skewed store.
        match pre.decode_value(2, 7) {
            Err(GdError::CorruptCode { column, code }) => {
                assert_eq!(column, "c");
                assert_eq!(code, 7);
            }
            other => panic!("expected CorruptCode, got {other:?}"),
        }
        // And it maps to PhError::Corrupt, not InvalidQuery.
        let ph: ph_types::PhError = pre.decode_value(2, 7).unwrap_err().into();
        assert!(matches!(ph, ph_types::PhError::Corrupt(_)));
        // Numeric codes beyond 2^52 are unrepresentable.
        assert!(matches!(pre.decode_value(0, (1 << 52) + 1), Err(GdError::CorruptCode { .. })));
        // Out-of-range column index is a typed error too.
        assert!(matches!(pre.decode_value(99, 0), Err(GdError::BadColumn(99))));
    }

    #[test]
    fn giant_string_survives_serialization() {
        // Regression: a u16 length field once framed these strings, and release
        // builds silently truncated a >64 KiB string, corrupting the blob.
        let big = "x".repeat(70 * 1024);
        let d = Dataset::builder("t")
            .column(Column::from_strings("s", vec![Some(big.as_str()), Some("tiny")]))
            .unwrap()
            .build();
        let pre = Preprocessor::fit(&d);
        let bytes = pre.to_bytes();
        let back = Preprocessor::from_bytes(&bytes).expect("deserialize");
        assert_eq!(back, pre);
        assert_eq!(back.transform(0).category(0), Some(big.as_str()));
    }

    #[test]
    fn redundant_dictionaries_compress_with_fsst() {
        // 300 URL-shaped categories sharing long affixes: the FSST dictionary
        // block (mode 1) must beat plain framing and round-trip exactly.
        let cats: Vec<String> = (0..300)
            .map(|i| format!("https://telemetry.plant-{:02}.example.com/sensor/{i}", i % 7))
            .collect();
        let refs: Vec<Option<&str>> = cats.iter().map(|s| Some(s.as_str())).collect();
        let d = Dataset::builder("t").column(Column::from_strings("url", refs)).unwrap().build();
        let pre = Preprocessor::fit(&d);
        let bytes = pre.to_bytes();
        let plain_total: usize = cats.iter().map(|s| s.len() + 1).sum();
        assert!(
            bytes.len() < plain_total,
            "FSST dict should shrink the blob: {} vs plain {plain_total}",
            bytes.len()
        );
        let back = Preprocessor::from_bytes(&bytes).expect("deserialize");
        assert_eq!(back, pre);
        assert_eq!(back.to_bytes(), bytes, "round-trip must be bit-stable");
    }

    #[test]
    fn encode_with_reuses_scratch_buffers() {
        let d = sample();
        let pre = Preprocessor::fit(&d);
        let mut scratch = EncodeScratch::new();
        let first = pre.encode_with(&d, &mut scratch);
        let want = first.columns.clone();
        let ptrs: Vec<*const u64> = first.columns.iter().map(|c| c.as_ptr()).collect();
        scratch.reclaim(first);
        let second = pre.encode_with(&d, &mut scratch);
        assert_eq!(second.columns, want);
        // Every buffer came back out of the pool — no fresh allocations.
        for col in &second.columns {
            assert!(ptrs.contains(&col.as_ptr()));
        }
    }

    /// The categorical encoder as it stood before the fitted index: a hash map
    /// of the whole fitted dictionary per call. Kept as the reference.
    fn reference_ranks(col: &Column, by_rank: &[String], null: u64) -> Vec<u64> {
        let rank_of: std::collections::HashMap<&str, u64> =
            by_rank.iter().enumerate().map(|(rank, s)| (s.as_str(), rank as u64)).collect();
        let dict = col.dictionary().unwrap();
        (0..col.len())
            .map(|i| col.code(i).map_or(null, |c| rank_of[dict[c as usize].as_str()]))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(60))]

        /// However a batch carries its dictionary — the fitted table's own, a
        /// superset with strings no row uses, a permutation, or compacted to
        /// what the rows reference — it encodes as the reference does, and
        /// `encode_literal` finds what a linear scan of `by_rank` finds.
        #[test]
        fn prop_dictionary_shapes_encode_like_the_reference(
            seed in 0u64..10_000,
            n_fitted in 1usize..120,
            n_rows in 0usize..200,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let fitted_dict: Vec<String> = (0..n_fitted).map(|i| format!("k{}", i * 7 % 13 + i)).collect();
            let fitted_codes: Vec<Option<u32>> = (0..n_fitted as u32 * 3)
                .map(|i| rng.gen_bool(0.9).then_some(i % n_fitted as u32))
                .chain([None])
                .collect();
            let fitted = Dataset::builder("t")
                .column(Column::from_codes("c", fitted_codes, fitted_dict.clone()))
                .unwrap()
                .build();
            let pre = Preprocessor::fit(&fitted);
            let ColumnTransform::Categorical { by_rank, null_code, .. } = pre.transform(0) else {
                panic!("categorical column");
            };
            let null = null_code.expect("fitted with a NULL");

            let rows: Vec<Option<&str>> = (0..n_rows)
                .map(|_| rng.gen_bool(0.85).then(|| fitted_dict[rng.gen_range(0..n_fitted)].as_str()))
                .collect();
            let as_cut = Column::from_strings("c", rows.clone());
            let recode = |dict: Vec<String>| {
                let codes = rows
                    .iter()
                    .map(|r| r.map(|s| dict.iter().position(|d| d == s).unwrap() as u32))
                    .collect();
                Column::from_codes("c", codes, dict)
            };
            let mut shuffled = |mut dict: Vec<String>| {
                for i in (1..dict.len()).rev() {
                    dict.swap(i, rng.gen_range(0..=i));
                }
                dict
            };
            let unseen = (0..30).map(|i| format!("unseen{i}"));
            let superset = shuffled(fitted_dict.iter().cloned().chain(unseen).collect());
            let permuted = shuffled(fitted_dict.clone());
            let want = reference_ranks(&as_cut, by_rank, null);
            for col in [as_cut, recode(fitted_dict.clone()), recode(superset), recode(permuted)] {
                let batch = Dataset::builder("t").column(col).unwrap().build();
                let ranks = pre.resolve(&batch);
                proptest::prop_assert!(!ranks.has_novel());
                proptest::prop_assert_eq!(&pre.encode(&batch).columns[0], &want);
                let resolved = pre.encode_resolved(&batch, &ranks, &mut EncodeScratch::new());
                proptest::prop_assert_eq!(&resolved.columns[0], &want);
                let compact = batch.with_compact_dictionaries();
                proptest::prop_assert_eq!(&pre.encode(&compact).columns[0], &want);
            }

            for s in fitted_dict.iter().map(String::as_str).chain(["", "k", "unseen3", "zz"]) {
                let scanned = match by_rank.iter().position(|v| v == s) {
                    Some(rank) => EncodedLiteral::Rank(rank as u64),
                    None => EncodedLiteral::NoMatch,
                };
                proptest::prop_assert_eq!(pre.encode_literal(0, &Value::Str(s.into())), Ok(scanned));
            }
            for lit in [Value::Int(1), Value::Float(0.5), Value::Null] {
                proptest::prop_assert!(matches!(
                    pre.encode_literal(0, &lit),
                    Err(GdError::TypeMismatch { .. })
                ));
            }
        }
    }

    #[test]
    fn novelty_is_judged_on_referenced_entries_only() {
        let pre = Preprocessor::fit(&sample());
        let with = |codes: Vec<Option<u32>>| {
            let d = sample();
            Dataset::builder("t")
                .column(d.column(0).clone())
                .unwrap()
                .column(d.column(1).clone())
                .unwrap()
                .column(Column::from_codes(
                    "c",
                    codes,
                    vec!["never seen".into(), "common".into(), "rare".into()],
                ))
                .unwrap()
                .build()
        };
        // Carried but unused, or used only by a NULL row's dead slot: not novel.
        let carried = with(vec![Some(1), Some(2), None, Some(1)]);
        assert!(!pre.resolve(&carried).has_novel());
        assert_eq!(pre.encode(&carried).columns[2], vec![0, 1, 2, 0]);
        // Used by one row: novel, and not encodable.
        let used = with(vec![Some(1), Some(0), Some(2), Some(1)]);
        assert!(pre.resolve(&used).has_novel());
        assert!(std::panic::catch_unwind(|| pre.encode(&used)).is_err());
    }

    #[test]
    fn all_null_column_is_degenerate_but_valid() {
        let d =
            Dataset::builder("t").column(Column::from_ints("x", vec![None, None])).unwrap().build();
        let pre = Preprocessor::fit(&d);
        let enc = pre.encode(&d);
        let null = pre.transform(0).null_code().unwrap();
        assert_eq!(enc.columns[0], vec![null, null]);
    }
}
