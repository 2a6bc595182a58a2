//! In-memory columnar tables.

use std::borrow::Cow;

use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

use crate::{Column, TypeError, Value};

/// The ascending rows [`Dataset::sample`] keeps out of `n_rows`: all of them
/// when `n` covers them, else `n` drawn uniformly without replacement,
/// deterministic in `seed`. Rows held in another form (an encoded matrix)
/// are sampled through this too, so every build over the same rows samples
/// the same ones.
pub fn sample_rows(n_rows: usize, n: usize, seed: u64) -> Vec<usize> {
    if n >= n_rows {
        return (0..n_rows).collect();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rows = index_sample(&mut rng, n_rows, n).into_vec();
    rows.sort_unstable();
    rows
}

/// An in-memory columnar table: the dataset `D` of the paper's problem definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    /// Starts building a dataset with the given name.
    pub fn builder(name: impl Into<String>) -> DatasetBuilder {
        DatasetBuilder { name: name.into(), columns: Vec::new(), n_rows: None }
    }

    /// Dataset name (used in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the dataset — e.g. to register the same rows under a different
    /// catalog name in a `Session`.
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of rows `N`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns `d`.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column lookup by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, TypeError> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| TypeError::UnknownColumn(name.to_string()))
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize, TypeError> {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .ok_or_else(|| TypeError::UnknownColumn(name.to_string()))
    }

    /// Materialises row `i` as values in schema order.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Draws a uniform random sample of `n` rows without replacement (deterministic in
    /// `seed`), preserving relative row order. If `n >= n_rows` the whole dataset is
    /// returned.
    ///
    /// This implements the `D ← downsample D to Ns rows` step of Algorithm 1 (line 1);
    /// the same primitive feeds the sampling baseline.
    pub fn sample(&self, n: usize, seed: u64) -> Dataset {
        if n >= self.n_rows {
            return self.clone();
        }
        self.take(&sample_rows(self.n_rows, n, seed))
    }

    /// Returns a new dataset with only the given rows, in the given order.
    pub fn take(&self, rows: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            columns: self.columns.iter().map(|c| c.take(rows)).collect(),
            n_rows: rows.len(),
        }
    }

    /// Returns the contiguous row range `[start, start + len)` as a new dataset.
    ///
    /// This is the seal-boundary primitive of segmented storage: an ingest delta
    /// that crosses the seal threshold is cut into segment-sized slices, each
    /// compressed and frozen independently. `len` is clamped to the available
    /// rows.
    ///
    /// # Panics
    /// Panics if `start > n_rows`.
    pub fn slice(&self, start: usize, len: usize) -> Dataset {
        assert!(start <= self.n_rows, "slice start {start} past {} rows", self.n_rows);
        let len = len.min(self.n_rows - start);
        Dataset {
            name: self.name.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            n_rows: len,
        }
    }

    /// The same rows with every categorical dictionary cut down to the
    /// entries its rows reference, in the order they had — borrowed when no
    /// dictionary holds anything else.
    ///
    /// This is the form in which an ingest batch is admitted, journaled and
    /// kept: a batch cut from a larger table by [`Dataset::slice`] or
    /// [`Dataset::take`] carries that table's whole dictionary, and everything
    /// downstream would otherwise pay for entries no row of it uses. Compacting
    /// a compacted dataset changes nothing, so a batch read back from the
    /// journal is admitted exactly as it first was.
    pub fn with_compact_dictionaries(&self) -> Cow<'_, Dataset> {
        let compacted: Vec<Option<Column>> = self.columns.iter().map(Column::compacted).collect();
        if compacted.iter().all(Option::is_none) {
            return Cow::Borrowed(self);
        }
        let columns = compacted
            .into_iter()
            .zip(&self.columns)
            .map(|(compact, held)| compact.unwrap_or_else(|| held.clone()))
            .collect();
        Cow::Owned(Dataset { name: self.name.clone(), columns, n_rows: self.n_rows })
    }

    /// Appends all rows of `other`, which must have an identical schema (same column
    /// names and types in the same order). Categorical dictionaries are unioned.
    ///
    /// This is the raw-row accumulation primitive behind incremental ingestion: a
    /// catalog that retains the base table can fold batches in and later rebuild a
    /// fresh synopsis over the combined rows.
    pub fn append(&mut self, other: &Dataset) -> Result<(), TypeError> {
        if self.columns.len() != other.columns.len() {
            return Err(TypeError::SchemaMismatch {
                column: other.name.clone(),
                detail: format!(
                    "{} columns appended onto {}",
                    other.columns.len(),
                    self.columns.len()
                ),
            });
        }
        // Validate the whole schema before mutating anything, so a failed append
        // leaves `self` untouched.
        for (mine, theirs) in self.columns.iter().zip(&other.columns) {
            if mine.name() != theirs.name() || mine.ty() != theirs.ty() {
                return Err(TypeError::SchemaMismatch {
                    column: theirs.name().to_string(),
                    detail: format!(
                        "expected '{}' ({:?}), got '{}' ({:?})",
                        mine.name(),
                        mine.ty(),
                        theirs.name(),
                        theirs.ty()
                    ),
                });
            }
        }
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            mine.append(theirs)?;
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// Approximate in-memory size in bytes, used for "total storage" comparisons
    /// (Fig 11(b)).
    pub fn heap_size(&self) -> usize {
        self.columns.iter().map(|c| c.heap_size()).sum()
    }
}

/// Incremental [`Dataset`] constructor that validates column lengths and name
/// uniqueness.
pub struct DatasetBuilder {
    name: String,
    columns: Vec<Column>,
    n_rows: Option<usize>,
}

impl DatasetBuilder {
    /// Adds a column, checking length and name uniqueness.
    pub fn column(mut self, col: Column) -> Result<Self, TypeError> {
        if self.columns.iter().any(|c| c.name() == col.name()) {
            return Err(TypeError::DuplicateColumn(col.name().to_string()));
        }
        match self.n_rows {
            None => self.n_rows = Some(col.len()),
            Some(n) if n != col.len() => {
                return Err(TypeError::LengthMismatch {
                    column: col.name().to_string(),
                    expected: n,
                    got: col.len(),
                })
            }
            _ => {}
        }
        self.columns.push(col);
        Ok(self)
    }

    /// Finishes the build.
    pub fn build(self) -> Dataset {
        Dataset { name: self.name, n_rows: self.n_rows.unwrap_or(0), columns: self.columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::builder("toy")
            .column(Column::from_ints("a", (0..100).map(Some).collect()))
            .unwrap()
            .column(Column::from_floats("b", (0..100).map(|i| Some(i as f64 / 2.0)).collect(), 1))
            .unwrap()
            .build()
    }

    #[test]
    fn builder_validates_lengths() {
        let err = Dataset::builder("x")
            .column(Column::from_ints("a", vec![Some(1)]))
            .unwrap()
            .column(Column::from_ints("b", vec![Some(1), Some(2)]));
        assert!(matches!(err, Err(TypeError::LengthMismatch { .. })));
    }

    #[test]
    fn builder_rejects_duplicates() {
        let err = Dataset::builder("x")
            .column(Column::from_ints("a", vec![Some(1)]))
            .unwrap()
            .column(Column::from_ints("a", vec![Some(2)]));
        assert!(matches!(err, Err(TypeError::DuplicateColumn(_))));
    }

    #[test]
    fn sample_is_deterministic_and_sized() {
        let d = toy();
        let s1 = d.sample(10, 42);
        let s2 = d.sample(10, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.n_rows(), 10);
        assert_eq!(s1.n_columns(), 2);
        let s3 = d.sample(10, 43);
        assert_ne!(s1, s3, "different seeds should differ with high probability");
    }

    #[test]
    fn sample_larger_than_data_returns_all() {
        let d = toy();
        assert_eq!(d.sample(1000, 1).n_rows(), 100);
    }

    #[test]
    fn slice_takes_contiguous_ranges() {
        let d = toy();
        let s = d.slice(10, 20);
        assert_eq!(s.n_rows(), 20);
        assert_eq!(s.row(0), d.row(10));
        assert_eq!(s.row(19), d.row(29));
        // Length clamps at the end; an empty tail slice is valid.
        assert_eq!(d.slice(90, 50).n_rows(), 10);
        assert_eq!(d.slice(100, 5).n_rows(), 0);
    }

    /// A table of every column type, NULLs in each, whose categorical columns
    /// carry dictionaries larger than what their rows use (and one that uses
    /// all of its own).
    fn mixed(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dict: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let spread = rng.gen_range(1..=dict.len() as u32);
        let mut opt = |p: f64| rng.gen_bool(p);
        let ints = (0..n).map(|i| opt(0.8).then_some(i as i64 - 7)).collect();
        let stamps = (0..n).map(|i| opt(0.9).then_some(1_700_000_000 + i as i64)).collect();
        let floats = (0..n).map(|i| opt(0.7).then_some(i as f64 * 0.25)).collect();
        let codes = (0..n).map(|i| opt(0.85).then_some((i as u32 * 7) % spread)).collect();
        let words: Vec<Option<&str>> =
            (0..n).map(|i| opt(0.9).then_some(["x", "y", "z"][i % 3])).collect();
        Dataset::builder("mixed")
            .column(Column::from_ints("i", ints))
            .unwrap()
            .column(Column::from_timestamps("t", stamps))
            .unwrap()
            .column(Column::from_floats("f", floats, 2))
            .unwrap()
            .column(Column::from_codes("c", codes, dict))
            .unwrap()
            .column(Column::from_strings("w", words))
            .unwrap()
            .build()
    }

    #[test]
    fn prop_slice_equals_take_of_the_range() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for seed in 0..60 {
            let n = rng.gen_range(0..400);
            let d = mixed(n, seed);
            for _ in 0..8 {
                let start = rng.gen_range(0..=n);
                let len = rng.gen_range(0..=n + 70);
                let rows: Vec<usize> = (start..(start + len).min(n)).collect();
                assert_eq!(d.slice(start, len), d.take(&rows), "n {n}, slice {start}+{len}");
            }
        }
    }

    #[test]
    fn prop_compact_dictionaries_keep_rows_and_drop_unreferenced_entries() {
        for seed in 0..60 {
            let d = mixed(seed as usize * 5, seed);
            let compact = d.with_compact_dictionaries();
            assert_eq!(compact.n_rows(), d.n_rows());
            for i in 0..d.n_rows() {
                assert_eq!(compact.row(i), d.row(i), "seed {seed}, row {i}");
            }
            for (col, held) in compact.columns().iter().zip(d.columns()) {
                let Some(dict) = col.dictionary() else {
                    assert_eq!(col, held);
                    continue;
                };
                // Exactly the referenced entries, in the order they had.
                let mut used: Vec<u32> = (0..held.len()).filter_map(|i| held.code(i)).collect();
                used.sort_unstable();
                used.dedup();
                let want: Vec<&String> =
                    used.iter().map(|&c| &held.dictionary().unwrap()[c as usize]).collect();
                assert_eq!(dict.iter().collect::<Vec<_>>(), want, "seed {seed}");
                assert_eq!(
                    col.heap_size(),
                    Column::from_codes(
                        col.name(),
                        (0..col.len()).map(|i| col.code(i)).collect(),
                        dict.to_vec(),
                    )
                    .heap_size()
                );
            }
            // Nothing left to drop: the second pass borrows, and a slice of it
            // compacts to the same thing however it is cut.
            assert!(matches!(compact.with_compact_dictionaries(), Cow::Borrowed(_)));
            assert_eq!(*compact.with_compact_dictionaries(), *compact);
        }
    }

    #[test]
    fn prop_append_unions_dictionaries_whatever_the_incoming_one_looks_like() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for seed in 0..40 {
            // One table cut into batches; each batch arrives with the whole
            // dictionary, a compacted one, or (every third) as cut.
            let whole = mixed(300, seed);
            let mut grown: Option<Dataset> = None;
            let mut start = 0;
            while start < whole.n_rows() {
                let len = rng.gen_range(1..60);
                let cut = whole.slice(start, len);
                let batch = if rng.gen_bool(0.6) {
                    cut.with_compact_dictionaries().into_owned()
                } else {
                    cut
                };
                match grown.as_mut() {
                    Some(g) => g.append(&batch).unwrap(),
                    None => grown = Some(batch),
                }
                start += len;
            }
            let grown = grown.unwrap();
            assert_eq!(grown.n_rows(), whole.n_rows());
            for i in 0..whole.n_rows() {
                assert_eq!(grown.row(i), whole.row(i), "seed {seed}, row {i}");
            }
            for col in grown.columns() {
                let Some(dict) = col.dictionary() else { continue };
                let mut distinct = dict.to_vec();
                distinct.sort();
                distinct.dedup();
                assert_eq!(distinct.len(), dict.len(), "an entry was unioned in twice");
                // The cached dictionary bytes track every entry appended.
                let rebuilt = Column::from_codes(
                    col.name(),
                    (0..col.len()).map(|i| col.code(i)).collect(),
                    dict.to_vec(),
                );
                assert_eq!(col.heap_size(), rebuilt.heap_size());
                assert_eq!(*col, rebuilt);
            }
        }
    }

    #[test]
    fn row_materialisation() {
        let d = toy();
        assert_eq!(d.row(4), vec![Value::Int(4), Value::Float(2.0)]);
    }

    #[test]
    fn column_lookup() {
        let d = toy();
        assert_eq!(d.column_index("b").unwrap(), 1);
        assert!(d.column_by_name("zzz").is_err());
    }
}
