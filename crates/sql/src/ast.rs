//! Query AST shared across engines.

use std::fmt;

use ph_types::Value;

/// The seven aggregation functions PairwiseHist supports (paper §5.4, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(X)`: non-null values of `X` in satisfying rows.
    Count,
    /// `SUM(X)`.
    Sum,
    /// `AVG(X)`.
    Avg,
    /// `MIN(X)`.
    Min,
    /// `MAX(X)`.
    Max,
    /// `MEDIAN(X)`.
    Median,
    /// `VAR(X)` (population variance, `E[x²] − E[x]²` as in §5.4.7).
    Var,
}

impl AggFunc {
    /// All aggregation functions, in the paper's Table 3 order.
    pub const ALL: [AggFunc; 7] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Var,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Median,
    ];

    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Median => "MEDIAN",
            AggFunc::Var => "VAR",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary comparison operators allowed in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
}

impl CmpOp {
    /// SQL spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One predicate condition `Xj OP LITERAL`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Column the condition applies to.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal (number or string).
    pub value: Value,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// Predicate tree with explicit AND/OR structure (AND binds tighter than OR).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// A leaf condition.
    Cond(Condition),
    /// Conjunction of two or more children.
    And(Vec<Predicate>),
    /// Disjunction of two or more children.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Collects the distinct columns referenced, in first-appearance order.
    pub fn columns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.visit_conditions(&mut |c| {
            if !out.contains(&c.column.as_str()) {
                out.push(&c.column);
            }
        });
        out
    }

    /// Number of leaf conditions.
    pub fn n_conditions(&self) -> usize {
        let mut n = 0;
        self.visit_conditions(&mut |_| n += 1);
        n
    }

    /// Whether any OR connective appears (DeepDB's unsupported case, §2).
    pub fn has_or(&self) -> bool {
        match self {
            Predicate::Cond(_) => false,
            Predicate::Or(_) => true,
            Predicate::And(children) => children.iter().any(|c| c.has_or()),
        }
    }

    fn visit_conditions<'a>(&'a self, f: &mut impl FnMut(&'a Condition)) {
        match self {
            Predicate::Cond(c) => f(c),
            Predicate::And(children) | Predicate::Or(children) => {
                for ch in children {
                    ch.visit_conditions(f);
                }
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cond(c) => write!(f, "{c}"),
            Predicate::And(children) => {
                let parts: Vec<String> = children
                    .iter()
                    .map(|c| match c {
                        Predicate::Or(_) => format!("({c})"),
                        _ => c.to_string(),
                    })
                    .collect();
                f.write_str(&parts.join(" AND "))
            }
            Predicate::Or(children) => {
                let parts: Vec<String> = children.iter().map(|c| c.to_string()).collect();
                f.write_str(&parts.join(" OR "))
            }
        }
    }
}

/// A parsed query of the paper's template.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Aggregation function `F`.
    pub agg: AggFunc,
    /// Aggregation column `Xi`.
    pub column: String,
    /// Table name (informational; the engines are single-table).
    pub table: String,
    /// WHERE clause, if any.
    pub predicate: Option<Predicate>,
    /// GROUP BY column, if any.
    pub group_by: Option<String>,
}

impl Query {
    /// Stable 64-bit fingerprint of the query (FNV-1a over the canonical
    /// [`Display`](fmt::Display) rendering).
    ///
    /// Two queries fingerprint identically iff they canonicalize to the same text —
    /// whitespace, keyword case and a trailing `;` never matter, so
    /// `"select count(x) from t"` and `"SELECT COUNT(x) FROM t;"` share a
    /// fingerprint. This is the plan-cache key for prepared queries: a repeated
    /// template (same structure *and* literals) skips planning entirely.
    pub fn fingerprint(&self) -> u64 {
        ph_types::fnv1a(self.to_string().as_bytes())
    }

    /// All distinct columns the query touches (aggregation, predicates, group-by).
    pub fn columns(&self) -> Vec<&str> {
        let mut out = vec![self.column.as_str()];
        if let Some(p) = &self.predicate {
            for c in p.columns() {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        if let Some(g) = &self.group_by {
            if !out.contains(&g.as_str()) {
                out.push(g);
            }
        }
        out
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}({}) FROM {}", self.agg, self.column, self.table)?;
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        if let Some(g) = &self.group_by {
            write!(f, " GROUP BY {g}")?;
        }
        write!(f, ";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(col: &str, op: CmpOp, v: i64) -> Predicate {
        Predicate::Cond(Condition { column: col.into(), op, value: Value::Int(v) })
    }

    #[test]
    fn columns_deduplicate() {
        let p = Predicate::And(vec![
            cond("a", CmpOp::Gt, 1),
            cond("a", CmpOp::Lt, 5),
            cond("b", CmpOp::Eq, 2),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
        assert_eq!(p.n_conditions(), 3);
        assert!(!p.has_or());
    }

    #[test]
    fn display_respects_precedence() {
        let p = Predicate::And(vec![
            Predicate::Or(vec![cond("a", CmpOp::Gt, 1), cond("b", CmpOp::Lt, 2)]),
            cond("c", CmpOp::Eq, 3),
        ]);
        assert_eq!(p.to_string(), "(a > 1 OR b < 2) AND c = 3");
    }

    #[test]
    fn fingerprint_is_canonical() {
        use crate::parse_query;
        let a = parse_query("select count(x) from t where a > 1 and b < 2").unwrap();
        let b = parse_query("SELECT  COUNT( x )  FROM t WHERE a > 1 AND b < 2 ;").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "formatting must not matter");
        let c = parse_query("SELECT COUNT(x) FROM t WHERE a > 2 AND b < 2").unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint(), "literals are part of the template");
        let d = parse_query("SELECT SUM(x) FROM t WHERE a > 1 AND b < 2").unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint(), "aggregate is part of the template");
    }

    #[test]
    fn query_display_roundtrip_shape() {
        let q = Query {
            agg: AggFunc::Avg,
            column: "delay".into(),
            table: "flights".into(),
            predicate: Some(cond("dist", CmpOp::Gt, 150)),
            group_by: Some("carrier".into()),
        };
        assert_eq!(
            q.to_string(),
            "SELECT AVG(delay) FROM flights WHERE dist > 150 GROUP BY carrier;"
        );
    }
}
