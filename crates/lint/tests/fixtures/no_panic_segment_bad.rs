// Fixture (linted as crates/core/src/segment.rs): a refit decode that indexes.
pub fn decode_matrix(pre: &Preprocessor, m: &EncodedMatrix) -> Vec<Column> {
    let mut out = Vec::new();
    for c in 0..pre.n_columns() {
        let name = pre.names()[c].clone();
        out.push(Column::new(name, &m.columns[c]));
    }
    out
}
