//! `POST /ingest` body handling: JSON rows or CSV text → a typed [`Dataset`]
//! matching the target table's schema.
//!
//! The contract the regression tests pin: a body targeting an **unknown
//! table** fails with [`PhError::UnknownTable`] (→ 404), and a body whose rows
//! do not fit the table's schema — unknown fields, wrong types, unparsable
//! cells — fails with [`PhError::Schema`] (→ 422) naming the offending column
//! and row. Nothing in here panics on hostile input, and a failed ingest
//! leaves the table untouched (the batch is validated before
//! `Session::ingest` ever sees it).

use ph_core::Session;
use ph_types::{Column, ColumnType, Dataset, PhError};

use crate::http::Request;
use crate::json::Json;

/// One parsed cell before column assembly.
enum Cell {
    Null,
    Num(f64),
    Str(String),
}

/// Extracts `(table, batch)` from an ingest request. The table comes from the
/// `?table=` query parameter or the JSON body's `"table"` member; the rows
/// from the JSON body's `"rows"` array or, with `Content-Type: text/csv`, a
/// CSV body with a header line.
pub(crate) fn dataset_from_body(
    session: &Session,
    req: &Request,
) -> Result<(String, Dataset), PhError> {
    let is_csv =
        req.header("content-type").is_some_and(|ct| ct.to_ascii_lowercase().contains("text/csv"));
    if is_csv {
        let table = req
            .param("table")
            .ok_or_else(|| {
                PhError::Schema("CSV ingest needs the target in a ?table= parameter".into())
            })?
            .to_string();
        let (names, cells) = parse_csv(&req.body)?;
        let batch = assemble(session, &table, &names, cells)?;
        return Ok((table, batch));
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| PhError::Schema("ingest body is not UTF-8".into()))?;
    let doc = Json::parse(text)
        .map_err(|e| PhError::Schema(format!("ingest body is not valid JSON: {e}")))?;
    let table = match (req.param("table"), doc.get("table").and_then(Json::as_str)) {
        (Some(t), _) => t.to_string(),
        (None, Some(t)) => t.to_string(),
        (None, None) => {
            return Err(PhError::Schema(
                "ingest needs a target table (?table= parameter or \"table\" member)".into(),
            ))
        }
    };
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| PhError::Schema("ingest body needs a \"rows\" array".into()))?;
    let (names, cells) = rows_from_json(rows)?;
    let batch = assemble(session, &table, &names, cells)?;
    Ok((table, batch))
}

/// Flattens JSON row objects into a column-name list plus row-major cells.
/// The column set is the **union** across all rows (a member absent from any
/// given row is NULL there); whether each name actually belongs to the target
/// table is checked later, in [`assemble`].
fn rows_from_json(rows: &[Json]) -> Result<(Vec<String>, Vec<Vec<Cell>>), PhError> {
    let mut names: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let members =
            row.as_obj().ok_or_else(|| PhError::Schema(format!("row {i} is not a JSON object")))?;
        for (k, _) in members {
            if !names.contains(k) {
                names.push(k.clone());
            }
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let members =
            row.as_obj().ok_or_else(|| PhError::Schema(format!("row {i} is not a JSON object")))?;
        let mut cells = Vec::with_capacity(names.len());
        for name in &names {
            let cell = match members.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
                None | Some(Json::Null) => Cell::Null,
                Some(Json::Num(x)) => Cell::Num(*x),
                Some(Json::Str(s)) => Cell::Str(s.clone()),
                Some(other) => {
                    return Err(PhError::Schema(format!(
                        "row {i} column '{name}': unsupported JSON value {other:?}"
                    )))
                }
            };
            cells.push(cell);
        }
        out.push(cells);
    }
    Ok((names, out))
}

/// Minimal CSV: `\n`/`\r\n` rows, comma fields, double-quote quoting with `""`
/// escapes. An **unquoted** empty field is NULL; a quoted empty field is the
/// empty string.
fn parse_csv(body: &[u8]) -> Result<(Vec<String>, Vec<Vec<Cell>>), PhError> {
    let text =
        std::str::from_utf8(body).map_err(|_| PhError::Schema("CSV body is not UTF-8".into()))?;
    let mut rows: Vec<Vec<(String, bool)>> = Vec::new(); // (field, was_quoted)
    let mut row: Vec<(String, bool)> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() => {
                in_quotes = true;
                quoted = true;
            }
            ',' => {
                row.push((std::mem::take(&mut field), quoted));
                quoted = false;
            }
            '\n' => {
                row.push((std::mem::take(&mut field), quoted));
                quoted = false;
                rows.push(std::mem::take(&mut row));
            }
            // Only the '\r' of a "\r\n" pair is swallowed; a bare carriage
            // return stays in the field, so it surfaces as a type/parse error
            // downstream instead of silently altering the data.
            '\r' if chars.peek() == Some(&'\n') => {}
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(PhError::Schema("CSV body ends inside a quoted field".into()));
    }
    if !field.is_empty() || quoted || !row.is_empty() {
        row.push((field, quoted));
        rows.push(row);
    }
    // Drop blank trailing lines.
    rows.retain(|r| !matches!(r.as_slice(), [(f, false)] if f.is_empty()));
    let mut it = rows.into_iter();
    let header = it.next().ok_or_else(|| PhError::Schema("CSV body has no header line".into()))?;
    let names: Vec<String> = header.into_iter().map(|(n, _)| n.trim().to_string()).collect();
    let mut out = Vec::new();
    for (i, row) in it.enumerate() {
        if row.len() != names.len() {
            return Err(PhError::Schema(format!(
                "CSV row {i} has {} fields, header has {}",
                row.len(),
                names.len()
            )));
        }
        out.push(
            row.into_iter()
                .map(
                    |(f, was_quoted)| {
                        if f.is_empty() && !was_quoted {
                            Cell::Null
                        } else {
                            Cell::Str(f)
                        }
                    },
                )
                .collect(),
        );
    }
    Ok((names, out))
}

/// Assembles row-major cells into a [`Dataset`] with the target table's
/// column order and types. Every mismatch is a [`PhError::Schema`] naming the
/// offender; an unregistered table is [`PhError::UnknownTable`].
fn assemble(
    session: &Session,
    table: &str,
    names: &[String],
    rows: Vec<Vec<Cell>>,
) -> Result<Dataset, PhError> {
    let snapshot = session.engine(table).ok_or_else(|| PhError::UnknownTable(table.to_string()))?;
    let pre = snapshot.engine().preprocessor().clone();
    // Map each schema column to its position in the payload. Unknown payload
    // columns are rejected — silently dropping data a client thought it
    // ingested is worse than a 4xx.
    for name in names {
        if !pre.names().iter().any(|n| n == name) {
            return Err(PhError::Schema(format!(
                "column '{name}' does not exist in table '{table}' (schema: {})",
                pre.names().join(", ")
            )));
        }
    }
    let mut builder = Dataset::builder(table);
    for col in 0..pre.n_columns() {
        let col_name = pre.names().get(col).ok_or_else(|| {
            PhError::Schema(format!("column index {col} out of range in table '{table}'"))
        })?;
        let at = names.iter().position(|n| n == col_name);
        fn cell(row: &[Cell], at: Option<usize>) -> &Cell {
            at.and_then(|j| row.get(j)).unwrap_or(&Cell::Null)
        }
        let bad = |i: usize, detail: &str| {
            PhError::Schema(format!("row {i} column '{col_name}' of table '{table}': {detail}"))
        };
        let column = match pre.column_type(col) {
            ty @ (ColumnType::Int | ColumnType::Timestamp) => {
                let mut vals = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    vals.push(match cell(row, at) {
                        Cell::Null => None,
                        Cell::Num(x) => Some(int_from_f64(*x).ok_or_else(|| {
                            bad(i, &format!("{x} is not a representable integer"))
                        })?),
                        Cell::Str(s) => Some(
                            s.trim()
                                .parse::<i64>()
                                .map_err(|_| bad(i, &format!("{s:?} is not an integer")))?,
                        ),
                    });
                }
                if ty == ColumnType::Timestamp {
                    Column::from_timestamps(col_name.clone(), vals)
                } else {
                    Column::from_ints(col_name.clone(), vals)
                }
            }
            ColumnType::Float { scale } => {
                let mut vals = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    vals.push(match cell(row, at) {
                        Cell::Null => None,
                        Cell::Num(x) => Some(*x),
                        Cell::Str(s) => Some(
                            s.trim()
                                .parse::<f64>()
                                .map_err(|_| bad(i, &format!("{s:?} is not a number")))?,
                        ),
                    });
                }
                Column::from_floats(col_name.clone(), vals, scale)
            }
            ColumnType::Categorical => {
                let mut vals: Vec<Option<String>> = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    vals.push(match cell(row, at) {
                        Cell::Null => None,
                        Cell::Str(s) => Some(s.clone()),
                        Cell::Num(x) => {
                            return Err(bad(
                                i,
                                &format!("{x} is a number, the column is categorical"),
                            ))
                        }
                    });
                }
                Column::from_strings(col_name.clone(), vals.iter().map(|v| v.as_deref()).collect())
            }
        };
        builder = builder.column(column)?;
    }
    Ok(builder.build())
}

/// `x` as an exact `i64`, if it is one. The upper comparison must be strict
/// against 2⁶³ (`-(i64::MIN as f64)`, exactly representable): `i64::MAX as
/// f64` rounds *up* to 2⁶³, so a `<=` there would accept 2⁶³ itself and let
/// the `as` cast silently saturate it to `i64::MAX`.
fn int_from_f64(x: f64) -> Option<i64> {
    if x.fract() == 0.0 && x >= i64::MIN as f64 && x < -(i64::MIN as f64) {
        Some(x as i64)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::int_from_f64;

    #[test]
    fn int_from_f64_edges() {
        assert_eq!(int_from_f64(0.0), Some(0));
        assert_eq!(int_from_f64(-1.0), Some(-1));
        assert_eq!(int_from_f64(1.5), None);
        assert_eq!(int_from_f64(i64::MIN as f64), Some(i64::MIN));
        // 2^63 (== i64::MAX as f64, rounded up) must be rejected, not
        // saturated to i64::MAX.
        assert_eq!(int_from_f64(9_223_372_036_854_775_808.0), None);
        assert_eq!(int_from_f64(f64::NAN), None);
        assert_eq!(int_from_f64(f64::INFINITY), None);
    }
}
