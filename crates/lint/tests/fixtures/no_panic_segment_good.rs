// Fixture (linted as crates/core/src/segment.rs): the columns walked by zip, a
// width mismatch returned as an error.
pub fn decode_matrix(pre: &Preprocessor, m: &EncodedMatrix) -> Result<Vec<Column>, PhError> {
    if m.columns.len() != pre.n_columns() {
        return Err(PhError::Corrupt("stored columns".into()));
    }
    let names = pre.names().iter().zip(&m.columns);
    Ok(names.map(|(name, values)| Column::new(name.clone(), values)).collect())
}
