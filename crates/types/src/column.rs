//! Typed columns with validity bitmaps.

use crate::{Bitmap, DictIndex, Value};

/// Logical type of a column.
///
/// `Timestamp` is physically an `i64` (epoch seconds) but is kept distinct because the
/// paper notes DBEst++ cannot handle inequality predicates on date/time columns — the
/// workload generator needs to know which columns are timestamps to reproduce that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats with a known decimal precision.
    ///
    /// `scale` is the number of decimal digits GreedyGD pre-processing uses for the
    /// lossless float→integer conversion (e.g. `10.22 → 1022` has `scale = 2`).
    Float {
        /// Decimal digits preserved by float→int conversion.
        scale: u8,
    },
    /// Dictionary-encoded categorical strings.
    Categorical,
    /// Epoch-seconds timestamps.
    Timestamp,
}

impl ColumnType {
    /// Whether values of this type are ordered numerics for aggregation purposes.
    pub fn is_numeric(&self) -> bool {
        !matches!(self, ColumnType::Categorical)
    }
}

/// Physical storage of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Integers or timestamps; invalid slots hold 0.
    Int(Vec<i64>),
    /// Floats; invalid slots hold 0.0.
    Float(Vec<f64>),
    /// Dictionary codes into the attached dictionary; invalid slots hold 0.
    Cat(Vec<u32>, Vec<String>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Cat(v, _) => v.len(),
        }
    }
}

/// A named, typed, null-aware column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    ty: ColumnType,
    data: ColumnData,
    validity: Bitmap,
    /// Heap bytes of a categorical column's dictionary — derived from it, and
    /// kept beside it so [`Column::heap_size`] does not walk every string.
    dict_bytes: usize,
    /// Lookup over a categorical column's dictionary — derived from it, built
    /// by the first [`Column::append`] that has to look a string up (empty
    /// until then) and kept in step by every later one, so a column that grows
    /// batch by batch pays for the entries a batch brings, not for the ones it
    /// already holds.
    dict_index: DictIndex,
}

/// Heap bytes of a dictionary entry: its bytes and the `String` that owns them.
fn entry_bytes(s: &str) -> usize {
    s.len() + 24
}

impl Column {
    fn new(name: String, ty: ColumnType, data: ColumnData, validity: Bitmap) -> Self {
        let dict_bytes = match &data {
            ColumnData::Cat(_, dict) => dict.iter().map(|s| entry_bytes(s)).sum(),
            _ => 0,
        };
        Self { name, ty, data, validity, dict_bytes, dict_index: DictIndex::default() }
    }

    /// Builds an integer column; `None` entries become NULL.
    pub fn from_ints(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        Self::from_ints_typed(name, values, ColumnType::Int)
    }

    /// Builds a timestamp column (epoch seconds); `None` entries become NULL.
    pub fn from_timestamps(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        Self::from_ints_typed(name, values, ColumnType::Timestamp)
    }

    fn from_ints_typed(name: impl Into<String>, values: Vec<Option<i64>>, ty: ColumnType) -> Self {
        let mut validity = Bitmap::new_clear(values.len());
        let mut data = Vec::with_capacity(values.len());
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) => {
                    validity.set(i);
                    data.push(x);
                }
                None => data.push(0),
            }
        }
        Self::new(name.into(), ty, ColumnData::Int(data), validity)
    }

    /// Builds a float column with the given decimal `scale`; `None` and non-finite
    /// entries become NULL.
    pub fn from_floats(name: impl Into<String>, values: Vec<Option<f64>>, scale: u8) -> Self {
        let mut validity = Bitmap::new_clear(values.len());
        let mut data = Vec::with_capacity(values.len());
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) if x.is_finite() => {
                    validity.set(i);
                    data.push(x);
                }
                _ => data.push(0.0),
            }
        }
        Self::new(name.into(), ColumnType::Float { scale }, ColumnData::Float(data), validity)
    }

    /// Builds a categorical column from raw strings, dictionary-encoding them in first-
    /// appearance order; `None` entries become NULL.
    pub fn from_strings(name: impl Into<String>, values: Vec<Option<&str>>) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut validity = Bitmap::new_clear(values.len());
        let mut codes = Vec::with_capacity(values.len());
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(s) => {
                    validity.set(i);
                    let code = *index.entry(s.to_string()).or_insert_with(|| {
                        dict.push(s.to_string());
                        (dict.len() - 1) as u32
                    });
                    codes.push(code);
                }
                None => codes.push(0),
            }
        }
        Self::new(name.into(), ColumnType::Categorical, ColumnData::Cat(codes, dict), validity)
    }

    /// Builds a categorical column directly from dictionary codes.
    ///
    /// Codes must index into `dict`; `None` entries become NULL.
    pub fn from_codes(name: impl Into<String>, codes: Vec<Option<u32>>, dict: Vec<String>) -> Self {
        let mut validity = Bitmap::new_clear(codes.len());
        let mut data = Vec::with_capacity(codes.len());
        for (i, v) in codes.into_iter().enumerate() {
            match v {
                Some(c) => {
                    debug_assert!((c as usize) < dict.len(), "code {c} out of dictionary");
                    validity.set(i);
                    data.push(c);
                }
                None => data.push(0),
            }
        }
        Self::new(name.into(), ColumnType::Categorical, ColumnData::Cat(data, dict), validity)
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical type.
    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    /// Number of rows (including nulls).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validity bitmap (`true` = non-null).
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Number of non-null rows.
    pub fn valid_count(&self) -> usize {
        self.validity.count_set()
    }

    /// Whether row `i` is non-null.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.get(i)
    }

    /// Raw storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Dictionary for categorical columns.
    pub fn dictionary(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Cat(_, dict) => Some(dict),
            _ => None,
        }
    }

    /// Materialises row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Cat(codes, dict) => Value::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// Numeric view of row `i`: `None` if null or categorical.
    ///
    /// Categorical columns deliberately return `None` — comparing dictionary codes
    /// numerically is meaningless before GreedyGD frequency-ranking.
    #[inline]
    pub fn numeric(&self, i: usize) -> Option<f64> {
        if !self.validity.get(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Cat(..) => None,
        }
    }

    /// Dictionary code of row `i` for categorical columns; `None` if null or not
    /// categorical.
    #[inline]
    pub fn code(&self, i: usize) -> Option<u32> {
        if !self.validity.get(i) {
            return None;
        }
        match &self.data {
            ColumnData::Cat(codes, _) => Some(codes[i]),
            _ => None,
        }
    }

    /// Returns a new column containing only the rows whose indices appear in `rows`,
    /// in that order.
    pub fn take(&self, rows: &[usize]) -> Column {
        let mut validity = Bitmap::new_clear(rows.len());
        let data = match &self.data {
            ColumnData::Int(v) => {
                let mut out = Vec::with_capacity(rows.len());
                for (j, &r) in rows.iter().enumerate() {
                    if self.validity.get(r) {
                        validity.set(j);
                    }
                    out.push(v[r]);
                }
                ColumnData::Int(out)
            }
            ColumnData::Float(v) => {
                let mut out = Vec::with_capacity(rows.len());
                for (j, &r) in rows.iter().enumerate() {
                    if self.validity.get(r) {
                        validity.set(j);
                    }
                    out.push(v[r]);
                }
                ColumnData::Float(out)
            }
            ColumnData::Cat(codes, dict) => {
                let mut out = Vec::with_capacity(rows.len());
                for (j, &r) in rows.iter().enumerate() {
                    if self.validity.get(r) {
                        validity.set(j);
                    }
                    out.push(codes[r]);
                }
                ColumnData::Cat(out, dict.clone())
            }
        };
        Column::new(self.name.clone(), self.ty, data, validity)
    }

    /// Returns the contiguous rows `[start, start + len)` as a new column: what
    /// [`Column::take`] answers for that range, by copying it whole.
    ///
    /// # Panics
    /// Panics if the range runs past the column.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        let range = start..start + len;
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(v[range].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[range].to_vec()),
            ColumnData::Cat(codes, dict) => ColumnData::Cat(codes[range].to_vec(), dict.clone()),
        };
        let mut validity = Bitmap::new_clear(0);
        validity.extend_from_range(&self.validity, start, len);
        Column::new(self.name.clone(), self.ty, data, validity)
    }

    /// A categorical column's rows over the dictionary entries they reference
    /// and no others, those entries in the order they had. `None` when every
    /// entry is referenced already, and for the other column types.
    ///
    /// Costs `O(rows · log referenced)`, whatever the dictionary's size.
    pub(crate) fn compacted(&self) -> Option<Column> {
        let ColumnData::Cat(codes, dict) = &self.data else {
            return None;
        };
        let mut used: Vec<u32> = codes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.validity.get(*i))
            .map(|(_, &c)| c)
            .collect();
        used.sort_unstable();
        used.dedup();
        if used.len() == dict.len() {
            return None;
        }
        let compact = codes
            .iter()
            .enumerate()
            .map(
                |(i, c)| {
                    if self.validity.get(i) {
                        used.partition_point(|u| u < c) as u32
                    } else {
                        0
                    }
                },
            )
            .collect();
        let kept = used.iter().map(|&c| dict[c as usize].clone()).collect();
        Some(Column::new(
            self.name.clone(),
            self.ty,
            ColumnData::Cat(compact, kept),
            self.validity.clone(),
        ))
    }

    /// Appends all rows of `other` to this column.
    ///
    /// `other` must have the same name and logical type. Categorical appends remap
    /// `other`'s dictionary codes into this column's dictionary, extending it with
    /// previously unseen values.
    pub fn append(&mut self, other: &Column) -> Result<(), crate::TypeError> {
        if self.name != other.name || self.ty != other.ty {
            return Err(crate::TypeError::SchemaMismatch {
                column: other.name.clone(),
                detail: format!(
                    "cannot append '{}' ({:?}) onto '{}' ({:?})",
                    other.name, other.ty, self.name, self.ty
                ),
            });
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Cat(codes, dict), ColumnData::Cat(other_codes, other_dict)) => {
                if dict.len() >= other_dict.len() && dict[..other_dict.len()] == other_dict[..] {
                    // The incoming dictionary is the one held, or its head:
                    // the codes already mean here what they mean there.
                    codes.extend_from_slice(other_codes);
                } else {
                    // Remap other's codes through a dictionary union.
                    let index = &mut self.dict_index;
                    if !index.covers(dict) {
                        *index = DictIndex::build(dict);
                    }
                    let held = dict.len();
                    let remap: Vec<u32> =
                        other_dict.iter().map(|s| index.position_or_push(dict, s)).collect();
                    self.dict_bytes += dict[held..].iter().map(|s| entry_bytes(s)).sum::<usize>();
                    codes.extend(other_codes.iter().enumerate().map(|(i, &c)| {
                        if other.validity.get(i) {
                            remap[c as usize]
                        } else {
                            0
                        }
                    }));
                }
            }
            _ => unreachable!("type tags matched above"),
        }
        self.validity.extend_from_range(&other.validity, 0, other.len());
        Ok(())
    }

    /// Approximate in-memory size of the column in bytes (data + validity), used for
    /// the "total storage" comparisons of Fig 11(b).
    pub fn heap_size(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Cat(codes, _) => codes.len() * 4 + self.dict_bytes,
        };
        data + self.len().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_nulls() {
        let c = Column::from_ints("a", vec![Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.valid_count(), 2);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.numeric(1), None);
        assert_eq!(c.numeric(2), Some(3.0));
    }

    #[test]
    fn float_column_rejects_non_finite() {
        let c = Column::from_floats("f", vec![Some(1.5), Some(f64::NAN), Some(f64::INFINITY)], 2);
        assert_eq!(c.valid_count(), 1);
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn string_column_dictionary_order() {
        let c = Column::from_strings("s", vec![Some("b"), Some("a"), Some("b"), None]);
        assert_eq!(c.dictionary().unwrap(), &["b".to_string(), "a".to_string()]);
        assert_eq!(c.code(0), Some(0));
        assert_eq!(c.code(1), Some(1));
        assert_eq!(c.code(2), Some(0));
        assert_eq!(c.code(3), None);
        assert_eq!(c.value(2), Value::Str("b".into()));
    }

    #[test]
    fn take_reorders_and_preserves_nulls() {
        let c = Column::from_ints("a", vec![Some(10), None, Some(30), Some(40)]);
        let t = c.take(&[3, 1, 0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(0), Value::Int(40));
        assert_eq!(t.value(1), Value::Null);
        assert_eq!(t.value(2), Value::Int(10));
    }

    #[test]
    fn numeric_on_categorical_is_none() {
        let c = Column::from_strings("s", vec![Some("x")]);
        assert_eq!(c.numeric(0), None);
        assert!(!c.ty().is_numeric());
    }

    #[test]
    fn append_concatenates_and_unions_dictionaries() {
        let mut a = Column::from_strings("s", vec![Some("x"), None, Some("y")]);
        let b = Column::from_strings("s", vec![Some("y"), Some("z"), None]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.dictionary().unwrap(), &["x".to_string(), "y".into(), "z".into()]);
        assert_eq!(a.value(3), Value::Str("y".into()));
        assert_eq!(a.value(4), Value::Str("z".into()));
        assert_eq!(a.value(5), Value::Null);
        assert_eq!(a.valid_count(), 4);

        let mut i = Column::from_ints("n", vec![Some(1), None]);
        i.append(&Column::from_ints("n", vec![Some(7)])).unwrap();
        assert_eq!(i.len(), 3);
        assert_eq!(i.value(2), Value::Int(7));
        // Name or type mismatch is rejected.
        assert!(i.append(&Column::from_ints("m", vec![Some(1)])).is_err());
        assert!(i.append(&Column::from_floats("n", vec![Some(1.0)], 1)).is_err());
    }

    #[test]
    fn timestamp_type_tag() {
        let c = Column::from_timestamps("t", vec![Some(100)]);
        assert_eq!(c.ty(), ColumnType::Timestamp);
        assert!(c.ty().is_numeric());
    }
}
