//! Error type for dataset construction and access.

use std::fmt;

/// Errors raised while building or accessing datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A column was added whose length differs from the rows already in the table.
    LengthMismatch {
        /// Column being added.
        column: String,
        /// Expected number of rows.
        expected: usize,
        /// Length of the offending column.
        got: usize,
    },
    /// A column name was used twice.
    DuplicateColumn(String),
    /// A column name was not found.
    UnknownColumn(String),
    /// A dictionary code pointed outside the dictionary.
    BadDictionaryCode {
        /// Column with the bad code.
        column: String,
        /// The offending code.
        code: u32,
    },
    /// Two tables/columns that must share a schema do not.
    SchemaMismatch {
        /// Column (or table) where the mismatch was detected.
        column: String,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::LengthMismatch { column, expected, got } => write!(
                f,
                "column '{column}' has {got} rows but the table has {expected}"
            ),
            TypeError::DuplicateColumn(c) => write!(f, "duplicate column name '{c}'"),
            TypeError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            TypeError::BadDictionaryCode { column, code } => {
                write!(f, "dictionary code {code} out of range in column '{column}'")
            }
            TypeError::SchemaMismatch { column, detail } => {
                write!(f, "schema mismatch on '{column}': {detail}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// The workspace-level error type.
///
/// Every layer's error (`ph_sql::ParseError`, `ph_core::AqpError`,
/// `ph_exact::ExactError`, `ph_baselines::Unsupported`, `ph_gd::GdError`,
/// [`TypeError`], `std::io::Error`) converts into `PhError` via `From` impls that
/// live next to the source types, so the `Session` facade — and any application
/// built on the `AqpEngine` trait — propagates a single error type with `?`.
///
/// Variants classify *who is at fault*: the query text, the query/schema
/// combination, the engine's repertoire, the catalog, or the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PhError {
    /// The SQL text does not lex or parse (message carries byte offsets).
    Parse(String),
    /// The query names a table the catalog does not have.
    UnknownTable(String),
    /// The query names a column the schema does not have.
    UnknownColumn(String),
    /// Well-formed query that is invalid for this schema (ill-typed predicate,
    /// numeric aggregate on a categorical column, GROUP BY on a numeric, …).
    InvalidQuery(String),
    /// A prepared plan whose engine instance no longer exists: the synopsis was
    /// rebuilt (or replaced) since `prepare`, so the plan's resolved column
    /// indices and encoded-domain literals may no longer be meaningful. The fix
    /// is always to re-prepare; callers that hold plans across ingest must be
    /// ready for this. Distinct from [`PhError::InvalidQuery`] so concurrent
    /// retry loops can match it without string inspection.
    StalePlan(String),
    /// The engine cannot answer this query shape (a baseline's documented gap).
    Unsupported(String),
    /// Dataset- or schema-level failure (duplicate table, length mismatch, …).
    Schema(String),
    /// Persistence I/O failure.
    Io(String),
    /// Persisted bytes — a manifest, a segment blob, a log record — exist but
    /// do not decode.
    Corrupt(String),
    /// The table exists in the catalog but its persisted state failed
    /// checksum/decode verification at open time; it is isolated while the
    /// rest of the catalog serves. The message names the table and the
    /// underlying failure. Distinct from [`PhError::Corrupt`] so servers can
    /// answer "this table is damaged" (a 503 on that table only) without
    /// string inspection.
    Quarantined(String),
}

impl fmt::Display for PhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhError::Parse(m) => write!(f, "parse error: {m}"),
            PhError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            PhError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            PhError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            PhError::StalePlan(m) => write!(f, "stale prepared plan: {m}"),
            PhError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            PhError::Schema(m) => write!(f, "schema error: {m}"),
            PhError::Io(m) => write!(f, "i/o error: {m}"),
            PhError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            PhError::Quarantined(m) => write!(f, "table quarantined: {m}"),
        }
    }
}

impl std::error::Error for PhError {}

impl From<TypeError> for PhError {
    fn from(e: TypeError) -> Self {
        match e {
            TypeError::UnknownColumn(c) => PhError::UnknownColumn(c),
            other => PhError::Schema(other.to_string()),
        }
    }
}

impl From<std::io::Error> for PhError {
    fn from(e: std::io::Error) -> Self {
        PhError::Io(e.to_string())
    }
}
